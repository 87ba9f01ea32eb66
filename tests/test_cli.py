import argparse
import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from resconv.cli import run
from resconv.combs import identity_comb, one_comb_as_ncomb
from resconv.core import InputError
from resconv.jsonio import (dump_ncomb, dump_one_comb, dump_stoch_map,
                            load_finite_table, load_one_comb, load_prob_vector,
                            load_stoch_map, load_theory, parse_term)
from resconv.stoch import finset, identity, random_stoch_map

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
    ("outer.json", dump_ncomb(one_comb_as_ncomb(identity_comb(finset("b", 2), finset("b", 2)))),
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
        "table-geq-entry-not-boolean", "presentation-objects-not-list"])
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
    assert "matches circuit on 4 basis processes" in out  # all deterministic 2->2 maps


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
    outer.write_text(json.dumps(dump_ncomb(one_comb_as_ncomb(identity_comb(b2, b2)))))
    inner = tmp_path / "inner.json"
    inner.write_text(json.dumps(dump_ncomb(one_comb_as_ncomb(identity_comb(b2, b2)))))
    assert run(["plug", str(outer), str(inner), "--json"]) == 0
    composite = json.loads(capsys.readouterr().out)
    assert len(composite["holes"]) == 1

    uc = tmp_path / "uc.json"
    uc.write_text(json.dumps({
        "allocation": [0],
        "combs": [dump_ncomb(one_comb_as_ncomb(identity_comb(b2, b2)))]}))
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
