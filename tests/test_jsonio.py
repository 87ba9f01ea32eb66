"""The map reader: literals straight to reduced integer pairs, one check.

A plain ASCII literal "p" or "p/q" is read with int(); every other literal
goes through `_frac`, so the accepted set, the values and the messages are
those of `Fraction(str(x))`.  Maps from files and maps from the public
constructor pass the same check and are the same values.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resconv.jsonio as jsonio
import resconv.stoch as stoch_module
from resconv.core import InputError
from resconv.stoch import FinSet, StochMap, finset

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import gen as bench_gen  # noqa: E402

F = Fraction


def outcome(read, x):
    """What reading x gives: a (numerator, denominator) pair or an error text."""
    try:
        return read(x)
    except InputError as exc:
        return str(exc)


def through_fraction(x):
    """Every literal through `_frac`, the reader's route for all but plain ones."""
    f = jsonio._frac(x)
    assert f == Fraction(str(x))
    return f.numerator, f.denominator


EDGES = ["0", "0/5", "007/014", "2/4", "+1/2", "-0", " 1/2 ", "1_0/3", "0.25", "1e-3",
         "1/0", "0/0", "²", "١/٢", 0, 1, 0.5, True, "9" * 5000, "9" * 5000 + "/7",
         "1/", "/2", "1//2", "", "12/18", "3"]


@pytest.mark.parametrize("x", EDGES, ids=[repr(x)[:16] for x in EDGES])
def test_reader_matches_fraction_on_the_edge_list(x):
    assert outcome(jsonio._ratio, x) == outcome(through_fraction, x)


def test_plain_literals_are_reduced_and_others_keep_their_messages():
    assert jsonio._ratio("007/014") == jsonio._ratio("2/4") == (1, 2)
    assert jsonio._ratio("0/5") == (0, 1)
    assert outcome(jsonio._ratio, "1/0") == "bad rational literal '1/0': Fraction(1, 0)"
    assert outcome(jsonio._ratio, True) == ("bad rational literal True: "
                                            "Invalid literal for Fraction: 'True'")
    assert outcome(jsonio._ratio, "9" * 5000).startswith(
        "bad rational literal '999")


literals = st.one_of(
    st.builds(lambda p, zp, q, zq: "0" * zp + str(p) + "/" + "0" * zq + str(q),
              st.integers(0, 10**30), st.integers(0, 3), st.integers(0, 10**30), st.integers(0, 3)),
    st.integers(0, 10**30).map(str),
    st.text(alphabet="0123456789/+-._ eE\t²١٢", max_size=10),
    st.integers(-10**20, 10**20),
    st.floats(),
    st.booleans(),
)


@settings(max_examples=400, deadline=None)
@given(literals)
def test_reader_matches_fraction_on_generated_literals(x):
    assert outcome(jsonio._ratio, x) == outcome(through_fraction, x)


def map_file(matrix, dom=("a0", "a1"), cod=("b0", "b1")):
    return {"dom": list(dom), "cod": list(cod), "matrix": matrix}


def test_a_file_map_equals_and_hashes_like_its_reduced_spelling():
    halves = jsonio.load_stoch_map(map_file([["1/2", "1"], ["1/2", "0"]]))
    quarters = jsonio.load_stoch_map(map_file([["2/4", "3/3"], ["0.5", "0/7"]]))
    public = StochMap(halves.dom, halves.cod, ((F(1, 2), F(1)), (F(1, 2), F(0))))
    assert halves == quarters == public
    assert hash(halves) == hash(quarters) == hash(public)
    assert (quarters.den, quarters.nums) == (2, ((1, 2), (1, 0)))


# -- one check ---------------------------------------------------------------

BAD_MAPS = [
    ([["1", "1"]], "matrix must be 2x2 for cod{b0,b1} given dom{a0,a1}"),
    ([["1", "1/3"], ["-1/2", "1/3"]], "negative probability -1/2"),
    ([["1", "1/2"], ["0", "1/3"]], "column 1 ('a1') sums to 5/6, not 1"),
]


@pytest.mark.parametrize("matrix, message", BAD_MAPS, ids=["shape", "negative", "sum"])
def test_file_reader_and_constructor_share_one_check(monkeypatch, matrix, message):
    checks = []
    real_check = stoch_module._checked_form

    def counted(*args):
        checks.append(args)
        return real_check(*args)

    monkeypatch.setattr(stoch_module, "_checked_form", counted)
    with pytest.raises(InputError) as from_file:
        jsonio.load_stoch_map(map_file(matrix))
    with pytest.raises(InputError) as from_library:
        jsonio.load_library_map({"m": {"dom": ["a"], "cod": ["b"], "matrix": matrix}},
                                "lib.json", "m", {"a": FinSet("dom", ("a0", "a1")),
                                                  "b": FinSet("cod", ("b0", "b1"))})
    with pytest.raises(InputError) as public:
        StochMap(FinSet("dom", ("a0", "a1")), FinSet("cod", ("b0", "b1")),
                 tuple(tuple(F(x) for x in row) for row in matrix))
    assert str(from_file.value) == str(from_library.value) == str(public.value) == message
    assert len(checks) == 3


# -- plain literals never reach Fraction ---------------------------------------

def fraction_route(m: StochMap, raw_matrix) -> StochMap:
    """The map the public constructor builds from the literals read as Fractions."""
    return StochMap(m.dom, m.cod, tuple(tuple(F(x) for x in row) for row in raw_matrix))


def test_seeded_combs_and_library_load_without_fraction(monkeypatch):
    _, ops = bench_gen.channels(21, ROOT / "demo")
    plug = next(op for op in ops if op["kind"] == "plug_ncombs")
    circuit = next(op for op in ops if op["kind"] == "normalize_to_comb")
    law = next(op for op in ops if op["kind"] == "comb_law")
    raw_combs = [plug["outer"], *plug["inner"], plug["other"]]
    raw_maps = plug["processes"] + [plug["other_process"]]
    raw_maps += [c[part] for c in law["combs"] for part in ("pre", "post")]
    sizes = circuit["spec"]["sizes"]
    types = {w: finset(w, n) for w, n in sizes.items()}
    library = circuit["library"]["maps"]
    literals = [x for raw in raw_maps + [s for c in raw_combs for s in c["stages"]]
                + list(library.values()) for row in raw["matrix"] for x in row]
    assert len(literals) > 100 and all("/" in x or x.isdigit() for x in literals)

    parsed = []
    real_frac = jsonio._frac
    monkeypatch.setattr(jsonio, "_frac", lambda x: parsed.append(x) or real_frac(x))
    combs = [jsonio.load_ncomb(c) for c in raw_combs]
    maps = [jsonio.load_stoch_map(m) for m in plug["processes"] + [plug["other_process"]]]
    one_combs = [jsonio.load_one_comb(c) for c in law["combs"]]
    maps += [m for k in one_combs for m in (k.pre, k.post)]
    lib_maps = [jsonio.load_library_map(circuit["library"], "lib.json", name, types)[2]
                for name in library]
    assert parsed == []

    monkeypatch.undo()
    pairs = ([(s, raw) for k, c in zip(combs, raw_combs) for s, raw in zip(k.stages, c["stages"])]
             + list(zip(maps, raw_maps)) + list(zip(lib_maps, library.values())))
    for m, raw in pairs:
        ref = fraction_route(m, raw["matrix"])
        assert m == ref and hash(m) == hash(ref)


# The reader's error lines.  Each distinct string literal of a map is read
# once; every other entry is read as it comes, since true hashes as 1 and
# [1] does not hash.  The first bad literal wins, then the shape, then the
# first negative entry in row-major order, then the column sums.
MALFORMED_MATRICES = {
    "true after 1": ('[[1, true], ["0", "0"]]',
                     "bad rational literal True: Invalid literal for Fraction: 'True'"),
    "a list": ('[["1", [1]], ["0", "0"]]',
               "bad rational literal [1]: Invalid literal for Fraction: '[1]'"),
    "a huge exponent": ('[["1e999999", "1"], ["0", "0"]]',
                        "bad rational literal '1e999999': exponent exceeds the limit "
                        "(4300 digits) for integer string conversion"),
    "NaN": ('[[NaN, "1"], ["0", "0"]]',
            "bad rational literal nan: Invalid literal for Fraction: 'nan'"),
    "a repeated negative": ('[["1/2", "-1/3"], ["-1/2", "-1/3"]]', "negative probability -1/3"),
    "bad literal and shape": ('[["x", "1"]]',
                              "bad rational literal 'x': Invalid literal for Fraction: 'x'"),
    "negative, then bad literal": ('[["-1", "x"], ["1", "1"]]',
                                   "bad rational literal 'x': Invalid literal for Fraction: 'x'"),
    "shape and negative": ('[["-1", "1"]]', "matrix must be 2x2 for cod{b0,b1} given dom{a0,a1}"),
    "negative and column sum": ('[["-1/2", "1"], ["1", "1"]]', "negative probability -1/2"),
}


@pytest.mark.parametrize("command", ["simulate-channel", "plug", "uc-apply"])
@pytest.mark.parametrize("case", sorted(MALFORMED_MATRICES))
def test_a_malformed_map_gives_one_error_line(case, command, tmp_path, monkeypatch, capsys):
    from resconv.cli import run

    matrix, message = MALFORMED_MATRICES[case]
    bad = '{"dom": ["a0", "a1"], "cod": ["b0", "b1"], "matrix": %s}' % matrix
    (tmp_path / "m.json").write_text(bad)
    (tmp_path / "outer.json").write_text(
        '{"holes": [{"dom": ["b0", "b1"], "cod": ["b0", "b1"]}], "order": [0], '
        '"stages": [%s, %s], "ancillas": [["z"]]}' % (bad, bad))
    (tmp_path / "uc.json").write_text((ROOT / "demo" / "uc.json").read_text())
    monkeypatch.chdir(tmp_path)
    argv = {"simulate-channel": ["simulate-channel", "m.json", "--target", "m.json"],
            "plug": ["plug", "outer.json", "outer.json"],
            "uc-apply": ["uc-apply", "uc.json", "m.json", "m.json"]}[command]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
