import argparse
import importlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from resconv import cli as cli_module
from resconv.cli import run
from resconv.combs import identity_comb
from resconv.core import InputError
from resconv.jsonio import (dump_ncomb, dump_one_comb, dump_stoch_map,
                            load_finite_table, load_one_comb, load_prob_vector,
                            load_stoch_map, load_theory, parse_term)
from resconv.stoch import FinSet, finset, identity, random_stoch_map

F = Fraction
DEMO = Path(__file__).resolve().parent.parent / "demo"


def demo_library(**copy_fields):
    """demo/maps.json with fields of its `copy` map replaced (None deletes one)."""
    lib = json.loads((DEMO / "maps.json").read_text())
    for name, value in copy_fields.items():
        if value is None:
            del lib["maps"]["copy"][name]
        else:
            lib["maps"]["copy"][name] = value
    return lib


@pytest.fixture
def food_file(tmp_path):
    path = tmp_path / "food.json"
    path.write_text(json.dumps({
        "kind": "vector", "arity": 2, "mode": "additive",
        "monotones": [{"name": "component:0", "class": "additive"},
                      {"name": "component:1", "class": "additive"}]}))
    return str(path)


@pytest.fixture
def prof_file(tmp_path):
    path = tmp_path / "prof.json"
    path.write_text(json.dumps({"kind": "vector", "arity": 2, "mode": "supremal"}))
    return str(path)


@pytest.fixture
def haber_file(tmp_path):
    path = tmp_path / "haber.json"
    path.write_text(json.dumps({
        "objects": ["N2", "H2", "NH3"],
        "morphisms": [{"name": "haber", "from": {"N2": 1, "H2": 3}, "to": {"NH3": 2}}]}))
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "carrier": 2, "combine": [[0, 1], [1, 1]], "zero": 0,
        "geq": [[1, 0], [1, 1]]}))
    return str(path)


def test_convert_proven_exits_zero(food_file, capsys):
    assert run(["convert", food_file, "[2,3]", "[1,1]"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "Proven"


def test_convert_refuted_exits_one(food_file, capsys):
    assert run(["convert", food_file, "[0,3]", "[1,1]"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "Refuted"


def test_convert_rejects_malformed_term(food_file, capsys):
    assert run(["convert", food_file, "[2]", "[1,1]"]) == 2


def test_unknown_subcommand_exits_two(capsys):
    assert run(["frobnicate"]) == 2


def test_missing_file_exits_two(capsys):
    assert run(["convert", "nope.json", "[1,0]", "[0,0]"]) == 2


@pytest.mark.parametrize("argv, code", [
    (["convert", str(DEMO / "food.json"), "[1,1]", "[0,1]", "--json"], 0),
    (["convert", str(DEMO / "food.json"), "[0,1]", "[1,1]"], 1),
    (["hasse", str(DEMO / "randomness.json"), "--box", "3"], 0),
    (["hasse", str(DEMO / "randomness.json"), "--box", "-1"], 2),
])
def test_the_console_script_exits_with_the_documented_code(monkeypatch, capsys, argv, code):
    """The `resconv` script of pyproject.toml, called as an installed script
    calls it: with the arguments in sys.argv, ending in sys.exit."""
    script = re.search(r'^resconv = "([\w.]+):(\w+)"$',
                       (DEMO.parent / "pyproject.toml").read_text(), re.M)
    entry = getattr(importlib.import_module(script[1]), script[2])
    monkeypatch.setattr(sys, "argv", ["resconv", *argv])
    with pytest.raises(SystemExit) as exit_:
        entry()
    assert exit_.value.code == code
    out, err = capsys.readouterr()
    assert "error:" in err if code == 2 else out


def test_check_axioms_clean_table(chain_file, capsys):
    assert run(["check-axioms", chain_file]) == 0
    assert "no violations" in capsys.readouterr().out


def test_check_axioms_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "carrier": 3, "combine": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "zero": 0,
        "geq": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]}))
    assert run(["check-axioms", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "transitivity" in out


def test_catalyst_found_in_proficiency(prof_file, capsys):
    assert run(["catalyst", prof_file, "[0,0]", "[1,0]", "--box", "1"]) == 0
    assert "catalyst: (1,0)" in capsys.readouterr().out


def test_catalyst_absent_in_food(food_file, capsys):
    assert run(["catalyst", food_file, "[0,0]", "[1,0]", "--box", "2"]) == 1


def test_catalyst_unknown_when_the_base_query_is(tmp_path, capsys):
    # A -> C takes two steps, past bound 1
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"objects": ["A", "B", "C"], "morphisms": [
        {"name": "ab", "from": {"A": 1}, "to": {"B": 1}},
        {"name": "bc", "from": {"B": 1}, "to": {"C": 1}}]}))
    assert run(["catalyst", str(path), '{"A": 1}', '{"C": 1}', "--box", "1",
                "--bound", "1"]) == 1
    assert capsys.readouterr().out == (
        "catalyst search over 4 candidates: Unknown\n"
        "note: cannot establish that a does not convert to b\n")


def test_randomness_witnesses_and_labels_print_their_terms(capsys):
    # a ProbVector witness goes through Decision.to_json's str fallback
    assert run(["properties", str(DEMO / "randomness.json"), "--sample-box", "2",
                "--json"]) == 0
    quality = json.loads(capsys.readouterr().out)[0]
    assert quality["property"] == "quality-like"
    assert quality["witness"] == ["not-idempotent", "(1/2,1/2)"]
    assert run(["hasse", str(DEMO / "randomness.json"), "--box", "2"]) == 0
    assert capsys.readouterr().out == ('digraph order {\n  node [shape=box];\n'
                                       '  n0 [label="(0,1), (1), (1,0)"];\n'
                                       '  n1 [label="(1/2,1/2)"];\n  n1 -> n0;\n}\n')


def test_rate_human_output(food_file, capsys):
    assert run(["rate", food_file, "[2,3]", "[1,1]", "--caps", "8"]) == 0
    out = capsys.readouterr().out
    assert "best m/n = 2" in out and "upper bound 2" in out and "exact" in out


def test_rate_json_output(food_file, capsys):
    assert run(["rate", food_file, "[2,3]", "[1,1]", "--caps", "8", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["best"] == "2" and data["exact"] is True


def test_monotones_report(food_file, capsys):
    assert run(["monotones", food_file, "--sample-box", "2"]) == 0
    out = capsys.readouterr().out
    assert "monotone:component:0" in out and "class:component:1" in out


def test_properties_json_roundtrip(prof_file, capsys):
    assert run(["properties", prof_file, "--sample-box", "1", "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    names = {r["property"] for r in reports}
    assert {"quality-like", "quantity-like", "catalysis-free"} <= names
    quality = next(r for r in reports if r["property"] == "quality-like")
    assert quality["verdict"] != "Refuted"


def test_properties_random_tables_deterministic(capsys):
    assert run(["properties", "--random-tables", "4", "--size", "4",
                "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert run(["properties", "--random-tables", "4", "--size", "4",
                "--seed", "9"]) == 0
    assert capsys.readouterr().out == first
    assert "consistent" in first


def test_hasse_dot_output(prof_file, tmp_path, capsys):
    out = tmp_path / "prof.dot"
    assert run(["hasse", prof_file, "--box", "2", "--out", str(out)]) == 0
    dot = out.read_text()
    assert dot.count("label=") == 9
    assert dot.count("->") == 12  # covering edges of the 3x3 grid
    assert dot.startswith("digraph")


def test_hasse_merges_equivalence_classes(tmp_path, capsys):
    path = tmp_path / "sym.json"
    # two mutually convertible elements collapse into one node
    path.write_text(json.dumps({
        "carrier": 2, "combine": [[0, 1], [1, 1]], "zero": 0,
        "geq": [[1, 1], [1, 1]]}))
    assert run(["hasse", str(path), "--box", "2"]) == 0
    dot = capsys.readouterr().out
    assert dot.count("label=") == 1


def test_hasse_refuses_an_undecided_order(capsys):
    # at box 4 the bounded search cannot settle 2 NH3 against N2 + 3 H2
    assert run(["hasse", str(DEMO / "haber.json"), "--box", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: order undecided between {2*NH3} and {3*H2, N2}; "
                            "diagram needs definite answers\n")


def test_hasse_escapes_quotes_and_backslashes_in_labels(tmp_path, capsys):
    path = tmp_path / "esc.json"
    path.write_text(json.dumps({"objects": ['a"b', "c\\d"], "morphisms": [
        {"name": "r", "from": {'a"b': 1}, "to": {"c\\d": 1}},
        {"name": "s", "from": {"c\\d": 1}, "to": {'a"b': 1}}]}))
    assert run(["hasse", str(path), "--box", "1"]) == 0
    assert capsys.readouterr().out == ('digraph order {\n  node [shape=box];\n'
                                       '  n0 [label="{a\\"b}, {c\\\\d}"];\n'
                                       '  n1 [label="{}"];\n}\n')


def test_hasse_reports_the_number_of_classes(tmp_path, capsys):
    # the one species is named like a DOT attribute; its class holds the empty term
    path = tmp_path / "label.json"
    path.write_text(json.dumps({"objects": ["label=x"], "morphisms": [
        {"name": "r", "from": {"label=x": 1}, "to": {}},
        {"name": "s", "from": {}, "to": {"label=x": 1}}]}))
    out = tmp_path / "label.dot"
    assert run(["hasse", str(path), "--box", "1", "--out", str(out), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["nodes"] == 1
    assert out.read_text() == ('digraph order {\n  node [shape=box];\n'
                               '  n0 [label="{label=x}, {}"];\n}\n')


def test_simulate_channel_apply(tmp_path, capsys):
    rng = Random(0)
    b2 = finset("b", 2)
    p = tmp_path / "p.json"
    p.write_text(json.dumps(dump_stoch_map(identity(b2))))
    e = tmp_path / "e.json"
    e.write_text(json.dumps(dump_stoch_map(identity(b2))))
    d = tmp_path / "d.json"
    d.write_text(json.dumps(dump_stoch_map(identity(b2))))
    r = tmp_path / "r.json"
    r.write_text(json.dumps({"sa": ["*"], "sb": ["*"], "joint": [["1"]]}))
    assert run(["simulate-channel", str(p), "--encoder", str(e),
                "--decoder", str(d), "--randomness", str(r), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["matrix"] == [["1", "0"], ["0", "1"]]


def test_simulate_channel_search(tmp_path, capsys):
    b2, b4 = finset("b", 2), finset("q", 4)
    p = tmp_path / "p.json"
    p.write_text(json.dumps(dump_stoch_map(identity(b4))))
    t = tmp_path / "t.json"
    t.write_text(json.dumps(dump_stoch_map(identity(b2))))
    assert run(["simulate-channel", str(p), "--target", str(t)]) == 0
    out = capsys.readouterr().out
    assert "Proven" in out and "re-verified" in out


def test_simulate_channel_search_refuted(tmp_path, capsys):
    b2 = finset("b", 2)
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"dom": ["a0", "a1"], "cod": ["b0", "b1"],
                             "matrix": [["1", "1"], ["0", "0"]]}))
    t = tmp_path / "t.json"
    t.write_text(json.dumps(dump_stoch_map(identity(b2))))
    assert run(["simulate-channel", str(p), "--target", str(t)]) == 1
    assert "Refuted" in capsys.readouterr().out


@pytest.mark.parametrize("name, content, argv", [
    ("vec.json", {"kind": "vector", "mode": "additive"},
     ["convert", "{path}", "[1,1]", "[0,0]"]),
    ("vec.json", {"kind": "vector", "arity": 2},
     ["convert", "{path}", "[1,1]", "[0,0]"]),
    ("p.json", {"dom": ["b0", "b1"], "cod": ["b0", "b1"], "matrix": 5},
     ["simulate-channel", "{path}", "--target", "{path}"]),
    ("r.json", {"sb": ["y0"], "joint": [["1"]]},
     ["simulate-channel", "{other}", "--encoder", "{other}", "--decoder", "{other}",
      "--randomness", "{path}"]),
    ("theory.json", [1, 2], ["convert", "{path}", "[1]", "[0]"]),
    ("uc.json", {"combs": []}, ["uc-apply", "{path}", "{other}"]),
    ("outer.json", {"holes": [], "order": [], "ancillas": []},
     ["plug", "{path}", "{path}"]),
    ("vec.json", {"kind": "vector", "arity": 2, "mode": "additive",
                  "monotones": [{"class": "additive"}]},
     ["rate", "{path}", "[2,3]", "[1,1]"]),
    ("vec.json", {"kind": "vector", "arity": 2, "mode": "additive",
                  "monotones": [{"class": "additive"}]},
     ["monotones", "{path}"]),
    ("net.json", {"objects": ["a", "a"], "morphisms": []},
     ["convert", "{path}", "[]", "[]"]),
    ("net.json", {"objects": ["a"], "morphisms": [{"name": "r", "from": ["a"], "to": ["b"]}]},
     ["convert", "{path}", "[]", "[]"]),
    ("p.json", [1, 2], ["simulate-channel", "{path}", "--target", "{other}"]),
    ("outer.json", [1, 2], ["plug", "{path}", "{path}"]),
    ("vec.json", {"kind": "vector", "arity": 2, "mode": "additive", "monotones": 5},
     ["monotones", "{path}"]),
    ("vec.json", {"kind": "vector", "arity": 2, "mode": "additive"},
     ["convert", "{path}", "[1,1]", "[0.9,0]"]),
    ("table.json", {"carrier": 2, "combine": [[0, 1], [1, 1]], "zero": 0,
                    "geq": [[1, 0], [1, 1]]},
     ["convert", "{path}", "1.5", "0"]),
    ("net.json", {"objects": ["a"], "morphisms": []},
     ["convert", "{path}", '{{"a": 1.5}}', '{{"a": 1}}']),
    ("outer.json", {"holes": 5, "order": [], "stages": [], "ancillas": []},
     ["plug", "{path}", "{path}"]),
    ("outer.json", {"holes": [], "order": 5, "stages": [], "ancillas": []},
     ["plug", "{path}", "{path}"]),
    ("outer.json", {"holes": [], "order": [], "stages": 5, "ancillas": []},
     ["plug", "{path}", "{path}"]),
    ("outer.json", {"holes": [], "order": [], "stages": [], "ancillas": 5},
     ["plug", "{path}", "{path}"]),
    ("uc.json", {"allocation": 5, "combs": []}, ["uc-apply", "{path}", "{other}"]),
    ("uc.json", {"allocation": [], "combs": 5}, ["uc-apply", "{path}", "{other}"]),
    ("vec.json", {"kind": "vector", "arity": 1, "mode": "additive"},
     ["convert", "{dir}", "[1]", "[1]"]),
    ("c.circ", "types: A=2\ninput: A\nlayer: hole h(A -> A)\n", ["normalize-circuit", "{dir}"]),
    ("p.json", {}, ["simulate-channel", "{dir}", "--target", "{dir}"]),
    ("vec.json", {"kind": "vector", "arity": 1, "mode": "additive"},
     ["hasse", "{path}", "--box", "1", "--out", "{dir}/missing/x.dot"]),
    ("c.circ", "types: A=2\ninput: A\nlayer: hole h(A -> A)\n",
     ["normalize-circuit", "{path}", "--out", "{dir}/missing/x.json"]),
    ("outer.json", dump_ncomb(identity_comb(finset("b", 2), finset("b", 2))),
     ["plug", "{path}", "{path}", "--out", "{dir}/missing/x.json"]),
    ("maps.json", demo_library(dom=None), ["normalize-circuit", "{circuit}"]),
    ("maps.json", demo_library(matrix=[["1/0", "0"], ["0", "0"], ["0", "0"], ["0", "1"]]),
     ["normalize-circuit", "{circuit}"]),
    ("maps.json", demo_library(matrix=5), ["normalize-circuit", "{circuit}"]),
    ("maps.json", [1, 2], ["normalize-circuit", "{circuit}"]),
    ("vec.json", {"kind": "vector", "arity": 2.5, "mode": "additive"},
     ["convert", "{path}", "[1,1]", "[0,0]"]),
    ("table.json", {"carrier": 2, "combine": [[0, 1], [1, 1]], "zero": 0,
                    "geq": [[True, "no"], [True, True]]},
     ["convert", "{path}", "0", "1"]),
    ("net.json", {"objects": "NH", "morphisms": []},
     ["convert", "{path}", '{{"N": 1}}', '{{"N": 1}}']),
    ("vec.json", {"kind": "vector", "arity": 2, "mode": "additive",
                  "monotones": [{"name": "component:5", "class": "additive"}]},
     ["rate", "{path}", "[2,3]", "[1,1]"]),
    ("vec.json", {"kind": "vector", "arity": 2, "mode": "additive",
                  "monotones": [{"name": "entropy", "class": "additive"}]},
     ["monotones", "{path}"]),
    ("vec.json", {"kind": "vector", "arity": 2, "mode": "additive",
                  "monotones": [{"name": "entropy", "class": "additive"}]},
     ["rate", "{path}", "[2,3]", "[1,1]"]),
    ("table.json", {"carrier": 2, "combine": [[0, 1], [1, 1]], "zero": 0,
                    "geq": [[1, 0], [1, 1]],
                    "monotones": [{"name": "component:0", "class": "additive"}]},
     ["monotones", "{path}"]),
    ("r.json", {"kind": "randomness",
                "monotones": [{"name": "component:0", "class": "additive"}]},
     ["rate", "{path}", '["1"]', '["1"]']),
    ("vec.json", {"kind": "vector", "arity": 2, "mode": "additive",
                  "monotones": [{"name": "component:0", "class": "weird"}]},
     ["monotones", "{path}", "--sample-box", "1"]),
    ("vec.json", {"kind": "vector", "arity": 2, "mode": "additive"},
     ["convert", "{path}", "[true,1]", "[0,0]"]),
    ("net.json", {"objects": ["N2", "H2", "NH3"], "morphisms": []},
     ["convert", "{path}", '{{"N2": true, "H2": 3}}', '{{"NH3": 2}}']),
    ("table.json", {"carrier": 2, "combine": [[0, 1], [1, 1]], "zero": 0,
                    "geq": [[1, 0], [1, 1]]},
     ["convert", "{path}", "true", "0"]),
    ("p.json", {"dom": ["a0", "a1"], "cod": ["b0", "b1"],
                "matrix": [["1", "1/2"], ["0", "1/3"]]},
     ["simulate-channel", "{path}", "--target", "{other}"]),
    ("p.json", {"dom": ["a0", "a1"], "cod": ["b0", "b1"],
                "matrix": [["1", "-1/2"], ["0", "3/2"]]},
     ["simulate-channel", "{path}", "--target", "{other}"]),
    ("vec.json", "[" * 100_000 + "]" * 100_000, ["convert", "{path}", "[1]", "[1]"]),
    ("vec.json", {"kind": "vector", "arity": 2, "mode": "additive"},
     ["convert", "{path}", "[" * 100_000 + "]" * 100_000, "[0,0]"]),
    ("p.json", {"dom": ["b0", "b1"], "cod": ["b0", "b1"],
                "matrix": [["1", "0e-100000"], ["0e-100000", "1"]]},
     ["simulate-channel", "{path}", "--target", "{other}"]),
], ids=["vector-without-arity", "vector-without-mode", "matrix-not-list",
        "randomness-without-sa", "theory-not-object", "uc-without-allocation",
        "ncomb-without-stages", "rate-monotone-without-name",
        "monotones-monotone-without-name", "duplicate-species",
        "rule-with-undeclared-species", "map-not-object", "ncomb-not-object",
        "monotones-not-list", "vector-entry-not-integral", "table-index-not-integral",
        "multiset-count-not-integral", "ncomb-holes-not-list", "ncomb-order-not-list",
        "ncomb-stages-not-list", "ncomb-ancillas-not-list", "uc-allocation-not-list",
        "uc-combs-not-list", "theory-path-is-directory", "circuit-path-is-directory",
        "channel-path-is-directory", "hasse-out-unwritable",
        "normalize-circuit-out-unwritable", "plug-out-unwritable",
        "library-map-without-dom", "library-map-zero-denominator",
        "library-map-matrix-not-list", "library-not-object", "vector-arity-not-integral",
        "table-geq-entry-not-boolean", "presentation-objects-not-list",
        "component-index-out-of-range", "monotones-entropy-on-vectors",
        "rate-entropy-on-vectors", "component-on-table", "component-on-randomness",
        "monotone-class-unknown", "vector-entry-boolean", "multiset-count-boolean",
        "table-index-boolean", "channel-column-sum-not-one", "channel-negative-entry",
        "theory-nested-too-deep", "term-nested-too-deep",
        "channel-literal-exponent-too-large"])
def test_malformed_input_exits_two_without_traceback(tmp_path, capsys, name, content, argv):
    path = tmp_path / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    other = tmp_path / "id.json"
    other.write_text(json.dumps(dump_stoch_map(identity(finset("b", 2)))))
    circuit = tmp_path / "sandwich.circ"  # reads its library from maps.json beside it
    circuit.write_text((DEMO / "sandwich.circ").read_text())
    args = [a.format(path=path, other=other, dir=tmp_path, circuit=circuit) for a in argv]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["hasse", "properties", "monotones"])
@pytest.mark.parametrize("arity", [1e308, 2**62], ids=["float-max", "two-to-62"])
def test_vector_enumeration_over_the_limit_exits_two(tmp_path, capsys, command, arity):
    path = tmp_path / "vec.json"
    path.write_text(json.dumps({"kind": "vector", "arity": arity, "mode": "supremal",
                                "monotones": [{"name": "component:0"}]}))
    assert run([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: box 4: 5^{int(arity)} vectors of {int(arity)} entries "
                   "exceed the limit of 1000000 entries\n")


def test_hasse_over_the_order_table_limit_exits_two(tmp_path, capsys):
    path = tmp_path / "vec.json"
    path.write_text(json.dumps({"kind": "vector", "arity": 7, "mode": "additive"}))
    assert run(["hasse", str(path), "--box", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: 2187 terms need 4782969 order entries, beyond the limit of 1000000 entries\n")


SYMBOLS_OVER_THE_LIMIT = ("has more than 1000 symbols, so its identity would pass the limit "
                          "of 1000000 entries")


@pytest.mark.parametrize("text, error", [
    ("types: A=999999999\ninput: A\nlayer: hole h(A -> A)\n",
     f"line 1, col 1: type 'A' {SYMBOLS_OVER_THE_LIMIT}"),
    ("types: A=1000\ninput: A, A\nlayer: hole h(A, A -> A)\n",
     f"line 2, col 1: wire list ('A', 'A') {SYMBOLS_OVER_THE_LIMIT}"),
    ("types: A=1000, B=2\ninput: A\nlayer: swap[A,B]\n",
     f"line 3, col 7: wire list ('A', 'B') {SYMBOLS_OVER_THE_LIMIT}"),
    ("types: A=30, B=30\ninput: A, B\nlayer: hole h(A -> A, B) ; id[B]\n",
     f"line 3, col 1: wire list ('A', 'B', 'B') of layer 1 {SYMBOLS_OVER_THE_LIMIT}"),
    # refused before the matrix, whose entry is no number, is read
    ("types: A=6\nlibrary: lib = maps.json\ninput: A\nlayer: g[lib]\n",
     f"line 4, col 7: library map 'g' dom {SYMBOLS_OVER_THE_LIMIT}"),
], ids=["type", "input", "swap", "layer-output", "library-dom"])
def test_circuit_alphabets_over_the_limit_exit_two(tmp_path, capsys, text, error):
    (tmp_path / "maps.json").write_text(json.dumps(
        {"maps": {"g": {"dom": ["A", "A", "A", "A"], "cod": ["A"], "matrix": [["x"]]}}}))
    (tmp_path / "c.circ").write_text(text)
    assert run(["normalize-circuit", str(tmp_path / "c.circ")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {error}\n"


@pytest.mark.parametrize("size, code", [(31, 0), (32, 2)])
def test_normal_form_basis_over_the_limit_is_refused_before_evaluating(
        tmp_path, capsys, monkeypatch, size, code):
    calls = []
    real = cli_module.evaluate_circuit
    monkeypatch.setattr(cli_module, "evaluate_circuit",
                        lambda *args: calls.append(args) or real(*args))
    (tmp_path / "c.circ").write_text(f"types: A={size}\ninput: A\nlayer: hole h(A -> A)\n")
    assert run(["normalize-circuit", str(tmp_path / "c.circ")]) == code
    captured = capsys.readouterr()
    if code == 0:  # 931 maps of 961 entries: 894,691 entries, inside the limit
        assert "matches circuit on 931 basis processes" in captured.out
        assert len(calls) == 931
    else:
        assert captured.out == "" and not calls
        assert captured.err == ("error: hole h: 993 basis processes of 1024 entries need "
                                "1016832 entries, beyond the limit of 1000000 entries\n")


@pytest.mark.parametrize("theory, argv, error", [
    ({"kind": "randomness"}, ["rate", "{path}", '["1/2","1/2"]', '["1/2","1/2"]', "--caps", "21"],
     "the product of distributions of 524288 and 2 entries has 1048576 entries, "
     "beyond the limit of 1000000 entries"),
    ({"kind": "vector", "arity": 2, "mode": "additive"},
     ["rate", "{path}", "[1,0]", "[0,1]", "--caps", "1001"],
     "caps 1001: the scan asks 1002001 questions, beyond the limit of 1000000 entries"),
    (None, ["properties", "--random-tables", "1", "--size", "32"],
     "random table size 32: 1048576 compatibility entries (size^4), beyond the limit of "
     "1000000 entries"),
], ids=["rate-tensor-power", "rate-scan", "random-table"])
def test_commands_over_the_limit_exit_two(tmp_path, capsys, theory, argv, error):
    path = tmp_path / "theory.json"
    path.write_text(json.dumps(theory))
    assert run([arg.format(path=path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {error}\n"


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["human", "json"])
def test_result_too_long_to_print_is_named(tmp_path, capsys, flags):
    """A valid composite whose denominator has 6001 digits cannot be printed
    under the int-string limit; the error names the result and the limit."""
    nines = "0." + "9" * 3000
    files = {"p.json": {"dom": ["a0", "a1"], "cod": ["a0", "a1"],
                        "matrix": [[nines, "1e-3000"], ["1e-3000", nines]]},
             "id.json": dump_stoch_map(identity(FinSet("a", ("a0", "a1")))),
             "r.json": {"sa": ["*"], "sb": ["*"], "joint": [["1"]]}}
    for name, content in files.items():
        (tmp_path / name).write_text(json.dumps(content))
    p, ident, r = (str(tmp_path / name) for name in files)
    assert run(["simulate-channel", p, "--encoder", p, "--decoder", ident,
                "--randomness", r] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot print the simulated channel: an entry has more than "
        f"{sys.get_int_max_str_digits()} digits, the limit for integer string conversion\n")


@pytest.mark.parametrize("command", ["convert", "catalyst", "rate"])
def test_term_that_is_not_json_names_its_argument(food_file, capsys, command):
    assert run([command, str(food_file), "[1,", "[0,0]"]) == 2
    assert capsys.readouterr().err == (
        "error: source term is not valid JSON: Expecting value: line 1 column 4 (char 3)\n")
    assert run([command, str(food_file), "[1,1]", "[0,"]) == 2
    assert capsys.readouterr().err.startswith("error: target term is not valid JSON: ")


@pytest.mark.parametrize("argv", [
    ["convert", "{food}", "[2,3]", "[1,1]", "--bound", "-1"],
    ["catalyst", "{food}", "[0,0]", "[1,0]", "--box", "-1"],
    ["hasse", "{food}", "--box", "-1"],
    ["properties", "{food}", "--sample-box", "-1"],
    ["monotones", "{food}", "--sample-box", "-1"],
    ["properties", "--random-tables", "-1"],
], ids=["convert-bound", "catalyst-box", "hasse-box", "properties-sample-box",
        "monotones-sample-box", "properties-random-tables"])
def test_negative_bound_or_box_is_a_usage_error(food_file, capsys, argv):
    assert run([a.format(food=food_file) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a non-negative integer, got '-1'" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["simulate-channel", "p.json", "--target", "t.json"],
    ["normalize-circuit", "sandwich.circ"],
    ["plug", "outer.json", "inner1.json"],
    ["uc-apply", "uc.json", "f1.json", "f2.json"],
], ids=["simulate-channel", "normalize-circuit", "plug", "uc-apply"])
def test_bound_is_a_usage_error_without_a_theory(capsys, argv):
    args = [str(DEMO / a) if a.endswith((".json", ".circ")) else a for a in argv]
    assert run(args) == 0
    capsys.readouterr()
    assert run(args + ["--bound", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --bound 3" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["check-axioms", "{food}"], "error: check-axioms expects a finite table theory\n"),
    (["properties"], "error: properties needs a theory file or --random-tables\n"),
    (["monotones", "{prof}"], "error: theory file declares no monotones\n"),
    (["simulate-channel", "{demo}/p.json", "--encoder", "{demo}/e.json"],
     "error: simulate-channel needs --target or all of --encoder/--decoder/--randomness\n"),
    (["normalize-circuit", "{dir}/missing.circ"], "error: file not found: {dir}/missing.circ\n"),
], ids=["check-axioms-not-a-table", "properties-without-input", "monotones-none-declared",
        "simulate-channel-without-wrappers", "normalize-circuit-missing-file"])
def test_command_input_errors_exit_two(food_file, prof_file, tmp_path, capsys, argv, message):
    fill = dict(food=food_file, prof=prof_file, demo=DEMO, dir=tmp_path)
    assert run([a.format(**fill) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message.format(**fill)


VECTOR = {"kind": "vector", "arity": 2, "mode": "additive"}
TABLE = {"carrier": 2, "combine": [[0, 1], [1, 1]], "zero": 0, "geq": [[1, 0], [1, 1]]}
SIMULATE = ["simulate-channel", "{demo}/t.json", "--randomness", "{demo}/r.json"]


@pytest.mark.parametrize("files, argv, message", [
    ({"in.json": dict(VECTOR, arity=0)}, ["convert", "{dir}/in.json", "[]", "[]"],
     "arity must be positive"),
    ({"in.json": dict(VECTOR, mode="sideways")}, ["convert", "{dir}/in.json", "[1,1]", "[0,0]"],
     "unknown mode 'sideways'"),
    ({"in.json": dict(TABLE, carrier=0)}, ["convert", "{dir}/in.json", "0", "0"],
     "carrier must be non-empty, got size 0"),
    ({"in.json": dict(TABLE, geq=[[1, 0]])}, ["convert", "{dir}/in.json", "0", "0"],
     "preorder matrix must be 2x2"),
    ({"in.json": dict(TABLE, zero=5)}, ["convert", "{dir}/in.json", "0", "0"],
     "zero index 5 out of range"),
    ({"in.json": dict(VECTOR, monotones=[{"name": "indicator:0", "class": "general"}])},
     ["monotones", "{dir}/in.json"], "indicator monotones need a finite table theory"),
    ({"in.json": dict(VECTOR, monotones=[{"name": "volume", "class": "general"}])},
     ["monotones", "{dir}/in.json"], "unknown monotone 'volume'"),
    ({"in.json": TABLE}, ["convert", "{dir}/in.json", "5", "0"],
     "term index 5 out of range 0..1"),
    ({"in.json": VECTOR}, ["convert", "{dir}/in.json", "3", "[0,0]"],
     "vector term must be a list, got 3"),
    ({"in.json": {"objects": ["A", "B"], "morphisms": []}},
     ["convert", "{dir}/in.json", "3", '{{"A": 1}}'], "multiset must be a list or object, got 3"),
    ({}, ["convert", "{demo}/randomness.json", '"1/2"', '["1"]'],
     "probability vector must be a list, got '1/2'"),
    ({}, ["convert", "{demo}/randomness.json", "[]", '["1"]'],
     "probability vector must be non-empty"),
    ({}, ["convert", "{demo}/randomness.json", '["-1/2","3/2"]', '["1"]'],
     "probabilities must be non-negative"),
    ({"in.json": {"dom": [], "cod": ["b"], "matrix": []}},
     ["simulate-channel", "{dir}/in.json", "--target", "{demo}/t.json"],
     "finite set must be a non-empty list, got []"),
    ({"q.json": {"maps": {"f": {"dom": ["Q"], "cod": ["A"], "matrix": [["1"], ["0"]],
                                "free": True}}},
      "in.circ": "types: A=2\nlibrary: lib = q.json\ninput: A\nlayer: f[lib]\n"},
     ["normalize-circuit", "{dir}/in.circ"],
     "line 4, col 7: library map 'f' uses undeclared type 'Q'"),
    ({}, ["simulate-channel", "{demo}/p.json", "--randomness", "{demo}/r.json",
          "--encoder", "{demo}/e.json", "--decoder", "{demo}/d.json"],
     "encoder output cod{{b0,b1}} does not match channel input dom{{q0,q1,q2,q3}}"),
    ({"in.json": {"dom": ["a0", "a1", "a2"], "cod": ["b0", "b1"],
                  "matrix": [["1", "1", "1"], ["0", "0", "0"]]}},
     SIMULATE + ["--encoder", "{dir}/in.json", "--decoder", "{demo}/d.json"],
     "encoder input dom{{a0,a1,a2}} does not factor as X tensor sa{{x0,x1}}"),
    ({"in.json": {"dom": ["b0|z0", "b0|z1", "b1|z0", "b1|z1"], "cod": ["b0", "b1"],
                  "matrix": [["1", "0", "0", "1"], ["0", "1", "1", "0"]]}},
     SIMULATE + ["--encoder", "{dir}/in.json", "--decoder", "{demo}/d.json"],
     "encoder input dom{{b0|z0,b0|z1,b1|z0,b1|z1}} does not factor as X tensor sa{{x0,x1}}"),
    ({"in.json": {"dom": ["b0|x0", "c|x1", "b1|x0", "b1|x1"], "cod": ["b0", "b1"],
                  "matrix": [["1", "0", "0", "1"], ["0", "1", "1", "0"]]}},
     SIMULATE + ["--encoder", "{dir}/in.json", "--decoder", "{demo}/d.json"],
     "encoder input dom{{b0|x0,c|x1,b1|x0,b1|x1}} does not factor as X tensor sa{{x0,x1}}"),
    ({}, SIMULATE + ["--encoder", "{demo}/e.json", "--decoder", "{demo}/t.json"],
     "decoder input dom{{b0,b1}} does not factor as cod{{b0,b1}} tensor sb{{y0,y1}}"),
    ({}, ["properties", "--random-tables", "1", "--size", "0"],
     "carrier must be non-empty, got size 0"),
    ({}, ["rate", "{demo}/food.json", "[2,3]", "[1,1]", "--caps", "0"],
     "caps must be at least 1"),
    ({}, ["simulate-channel", "{demo}/t.json", "--target", "{demo}/t.json", "--caps", "0"],
     "caps must be at least 1"),
], ids=["vector-arity-zero", "vector-mode-unknown", "table-carrier-empty",
        "table-preorder-shape", "table-zero-out-of-range", "indicator-on-vector",
        "monotone-unknown", "table-term-out-of-range", "vector-term-not-list",
        "multiset-term-not-collection", "prob-vector-not-list", "prob-vector-empty",
        "prob-vector-negative", "map-dom-empty", "circuit-library-undeclared-type",
        "encoder-output-mismatch", "encoder-input-size", "encoder-input-suffix",
        "encoder-input-order", "decoder-input-mismatch", "random-tables-size-zero",
        "rate-caps-zero", "simulate-caps-zero"])
def test_input_error_is_named_on_one_line(tmp_path, capsys, files, argv, message):
    for name, content in files.items():
        (tmp_path / name).write_text(content if isinstance(content, str) else json.dumps(content))
    fill = dict(dir=tmp_path, demo=DEMO)
    assert run([a.format(**fill) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(**fill)}\n"


def test_non_integer_bound_is_a_usage_error(food_file, capsys):
    assert run(["convert", food_file, "[2,3]", "[1,1]", "--bound", "abc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --bound: expected a non-negative integer, got 'abc'" in captured.err
    assert "Traceback" not in captured.err


def test_zero_bound_and_box_stay_valid(food_file, capsys):
    assert run(["convert", food_file, "[2,3]", "[1,1]", "--bound", "0"]) == 0
    assert run(["hasse", food_file, "--box", "0"]) == 0
    assert capsys.readouterr().out.count("label=") == 1


# one parser serves every run in a process

def test_json_flag_does_not_carry_over(food_file, capsys):
    assert run(["convert", food_file, "[2,3]", "[1,1]", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "Proven"
    assert run(["convert", food_file, "[2,3]", "[1,1]"]) == 0
    assert capsys.readouterr().out == "Proven\nwitness: ['componentwise', [2, 3], [1, 1]]\n"


def test_bound_does_not_carry_over(haber_file, capsys):
    forward = ["convert", haber_file, '{"N2":1,"H2":3}', '{"NH3":2}', "--json"]
    backward = ["convert", haber_file, '{"NH3":2}', '{"N2":1,"H2":3}', "--json"]
    assert run(forward + ["--bound", "0"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "bound": 0, "note": None, "verdict": "Unknown", "witness": None}
    assert run(forward) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "Proven"
    assert run(backward) == 1
    assert json.loads(capsys.readouterr().out)["bound"] == 6


def test_usage_error_then_help_then_command(food_file, capsys):
    assert run(["convert", food_file]) == 2
    captured = capsys.readouterr()
    assert "the following arguments are required: source, target" in captured.err
    assert captured.out == ""
    assert run(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: resconv") and captured.err == ""
    assert run(["convert", food_file, "[2,3]", "[1,1]"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "Proven" and captured.err == ""


def test_runs_construct_no_argument_parser(food_file, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(5):
        assert run(["convert", food_file, "[2,3]", "[1,1]", "--json"]) == 0
        assert run(["hasse", food_file, "--box", "1"]) == 0
        assert run(["frobnicate"]) == 2
    assert built == []


@pytest.mark.parametrize("field", ["ancilla", "pre", "post", "hole_dom", "hole_cod"])
def test_one_comb_missing_field_is_an_input_error(field):
    data = dump_one_comb(identity_comb(finset("b", 2), finset("b", 2)))
    del data[field]
    with pytest.raises(InputError, match=f"one-comb missing field '{field}'"):
        load_one_comb(data)


def test_simulate_channel_never_reports_a_witness_that_fails_to_replay(
        tmp_path, capsys, monkeypatch):
    import resconv.cli
    b2, b4 = finset("b", 2), finset("q", 4)
    p = tmp_path / "p.json"
    p.write_text(json.dumps(dump_stoch_map(identity(b4))))
    t = tmp_path / "t.json"
    t.write_text(json.dumps(dump_stoch_map(identity(b2))))
    wrong = random_stoch_map(Random(1), b2, b2)
    assert wrong.matrix != identity(b2).matrix
    monkeypatch.setattr(resconv.cli, "simulate_channel", lambda *args: wrong)
    with pytest.raises(RuntimeError, match="does not replay"):
        run(["simulate-channel", str(p), "--target", str(t)])
    assert "re-verified" not in capsys.readouterr().out


def circuit_files(tmp_path):
    rng = Random(31)
    from resconv.stoch import tensor
    A, B, Z = finset("A", 2), finset("B", 2), finset("Z", 2)
    lib = {"maps": {
        "f": {"dom": ["A"], "cod": ["A", "Z"],
              "matrix": dump_stoch_map(random_stoch_map(rng, A, tensor(A, Z)))["matrix"]},
        "g": {"dom": ["B", "Z"], "cod": ["B"],
              "matrix": dump_stoch_map(random_stoch_map(rng, tensor(B, Z), B))["matrix"]},
    }}
    (tmp_path / "maps.json").write_text(json.dumps(lib))
    circ = tmp_path / "tele.circ"
    circ.write_text(
        "types: A=2, B=2, Z=2\n"
        "library: lib = maps.json\n"
        "input: A\n"
        "layer: f[lib]\n"
        "layer: hole h(A -> B) ; id[Z]\n"
        "layer: g[lib]\n")
    return circ


def test_normalize_circuit_cli(tmp_path, capsys):
    circ = circuit_files(tmp_path)
    assert run(["normalize-circuit", str(circ)]) == 0
    out = capsys.readouterr().out
    assert "matches circuit on 3 basis processes" in out  # E, F_{0,1} and F_{1,1}


def test_normalize_circuit_checks_the_affine_basis_only(tmp_path, monkeypatch, capsys):
    """A 3->3 hole is checked on 1 + 3*2 = 7 processes, not all 27
    deterministic ones."""
    import resconv.cli
    circ = tmp_path / "hole.circ"
    circ.write_text("types: A=3, B=3\ninput: A\nlayer: hole h(A -> B)\n")
    calls = []
    real = resconv.cli.evaluate_circuit

    def counted(circuit, hole_maps):
        calls.append(hole_maps)
        return real(circuit, hole_maps)

    monkeypatch.setattr(resconv.cli, "evaluate_circuit", counted)
    assert run(["normalize-circuit", str(circ)]) == 0
    assert len(calls) == 7
    assert "matches circuit on 7 basis processes" in capsys.readouterr().out


def test_normalize_circuit_refuses_a_comb_that_agrees_only_on_the_constant_map(
        tmp_path, monkeypatch, capsys):
    """A constant post agrees with a bare 2->2 hole on E, which sends every
    input to 0, and on nothing else; the basis maps F_{a,c} catch it."""
    import resconv.cli
    from resconv.combs import OneComb, apply_comb
    from resconv.stoch import from_function

    circ = tmp_path / "hole.circ"
    circ.write_text("types: A=2, B=2\ninput: A\nlayer: hole h(A -> B)\n")
    real = resconv.cli.normalize_to_comb

    def constant_post(circuit):
        k = real(circuit)
        post = from_function(k.post.dom, k.post.cod, [0] * len(k.post.dom))
        altered = OneComb(k.ancilla, k.pre, post, k.hole_dom, k.hole_cod)
        e = from_function(k.hole_dom, k.hole_cod, [0, 0])
        assert apply_comb(altered, e) == apply_comb(k, e)
        return altered

    monkeypatch.setattr(resconv.cli, "normalize_to_comb", constant_post)
    with pytest.raises(AssertionError, match="normal form disagrees with direct evaluation"):
        run(["normalize-circuit", str(circ)])
    assert capsys.readouterr().out == ""


def test_normalize_circuit_ignores_an_unlisted_seed(capsys):
    """The check draws nothing at random; --seed is accepted for scripts
    that pass it, changes nothing and is not listed in the help."""
    circ = str(DEMO / "sandwich.circ")
    assert run(["normalize-circuit", circ, "--json"]) == 0
    plain = capsys.readouterr().out
    assert run(["normalize-circuit", circ, "--json", "--seed", "1"]) == 0
    assert capsys.readouterr().out == plain
    assert run(["normalize-circuit", "--help"]) == 0
    assert "--seed" not in capsys.readouterr().out


def test_normalize_circuit_refuses_a_comb_with_one_altered_post_column(monkeypatch, capsys):
    import resconv.cli
    from resconv.combs import OneComb
    from resconv.stoch import StochMap

    real = resconv.cli.normalize_to_comb

    def altered(circuit):
        k = real(circuit)
        column = [row[0] for row in k.post.matrix]
        rotated = column[1:] + column[:1]  # still a distribution, but another one
        assert rotated != column
        matrix = [(rotated[i],) + row[1:] for i, row in enumerate(k.post.matrix)]
        return OneComb(k.ancilla, k.pre, StochMap(k.post.dom, k.post.cod, matrix),
                       k.hole_dom, k.hole_cod)

    monkeypatch.setattr(resconv.cli, "normalize_to_comb", altered)
    with pytest.raises(AssertionError, match="normal form disagrees with direct evaluation"):
        run(["normalize-circuit", str(DEMO / "sandwich.circ")])
    assert capsys.readouterr().out == ""


def test_wiring_mismatch_names_the_line_of_the_layer(tmp_path, capsys):
    circ = tmp_path / "bad.circ"
    circ.write_text("types: A=2, B=2\ninput: A\nlayer: id[A]\n\n"
                    "# the next layer expects B\n  layer: id[B]\n")
    assert run(["normalize-circuit", str(circ)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 6, col 3: layer 2 consumes wires ('B',) "
                          "but receives ('A',); first mismatch at wire 0")
    assert "Traceback" not in err


def test_normalize_circuit_writes_comb_json(tmp_path, capsys):
    circ = circuit_files(tmp_path)
    out_file = tmp_path / "comb.json"
    assert run(["normalize-circuit", str(circ), "--out", str(out_file)]) == 0
    from resconv.jsonio import load_one_comb
    comb = load_one_comb(json.loads(out_file.read_text()))
    assert len(comb.ancilla) == 2


def test_plug_and_uc_apply_cli(tmp_path, capsys):
    b2 = finset("b", 2)
    outer = tmp_path / "outer.json"
    outer.write_text(json.dumps(dump_ncomb(identity_comb(b2, b2))))
    inner = tmp_path / "inner.json"
    inner.write_text(json.dumps(dump_ncomb(identity_comb(b2, b2))))
    assert run(["plug", str(outer), str(inner), "--json"]) == 0
    composite = json.loads(capsys.readouterr().out)
    assert len(composite["holes"]) == 1

    uc = tmp_path / "uc.json"
    uc.write_text(json.dumps({
        "allocation": [0],
        "combs": [dump_ncomb(identity_comb(b2, b2))]}))
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"dom": ["b0", "b1"], "cod": ["b0", "b1"],
                             "matrix": [["1/3", "1/2"], ["2/3", "1/2"]]}))
    assert run(["uc-apply", str(uc), str(f), "--json"]) == 0
    outputs = json.loads(capsys.readouterr().out)
    assert outputs[0]["matrix"] == [["1/3", "1/2"], ["2/3", "1/2"]]


# jsonio round trips

def test_stoch_map_roundtrip():
    rng = Random(5)
    p = random_stoch_map(rng, finset("a", 3), finset("b", 2))
    assert load_stoch_map(dump_stoch_map(p)).matrix == p.matrix


def test_finite_table_requires_well_formed_input():
    with pytest.raises(InputError):
        load_finite_table({"carrier": 2, "combine": [[0]], "zero": 0, "geq": [[1]]})


def test_prob_vector_parsing():
    v = load_prob_vector(["1/2", "1/4", "1/4"])
    assert v.entries == (F(1, 2), F(1, 4), F(1, 4))
    with pytest.raises(InputError):
        load_prob_vector(["1/2", "x"])


def test_theory_dispatch_and_terms(tmp_path):
    reaction = {"objects": ["N2", "H2", "NH3"],
                "morphisms": [{"name": "haber", "from": {"N2": 1, "H2": 3},
                               "to": {"NH3": 2}}]}
    t = load_theory(reaction, bound=4)
    a = parse_term(t, {"N2": 1, "H2": 3})
    b = parse_term(t, {"NH3": 2})
    assert t.geq(a, b).is_proven
    with pytest.raises(InputError):
        load_theory({"what": 1})


def test_files_are_read_and_written_as_utf8(tmp_path):
    """Input files and `--out` files are UTF-8 in every locale: under
    `-X warn_default_encoding -W error::EncodingWarning` a file opened in
    the locale's encoding would end the run with a traceback."""
    burn = {"objects": ["H₂", "O₂", "H₂O"],
            "morphisms": [{"name": "burn", "from": {"H₂": 2, "O₂": 1}, "to": {"H₂O": 2}}]}
    (tmp_path / "burn.json").write_text(json.dumps(burn, ensure_ascii=False), encoding="utf-8")
    for name in ("sandwich.circ", "maps.json"):
        (tmp_path / name).write_text((DEMO / name).read_text())
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p), PYTHONIOENCODING="utf-8")

    def cli(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-X", "warn_default_encoding",
                               "-W", "error::EncodingWarning", "-m", "resconv.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True, encoding="utf-8",
                              timeout=120)

    # the terms spell ₂ as a JSON escape, so the command line stays ASCII
    runs = [cli("convert", "burn.json", '{"H\\u2082": 2, "O\\u2082": 1}', '{"H\\u2082O": 2}'),
            cli("hasse", "burn.json", "--box", "1", "--out", "burn.dot"),
            cli("normalize-circuit", "sandwich.circ", "--out", "comb.json")]
    for done in runs:
        assert done.returncode == 0, done.stderr
    assert "H₂O" in (tmp_path / "burn.dot").read_text(encoding="utf-8")
    assert json.loads((tmp_path / "comb.json").read_text(encoding="utf-8"))["pre"]
