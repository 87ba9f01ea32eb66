"""The map reader: literals straight to reduced integer pairs, one check.

A plain ASCII literal "p" or "p/q" is read with int(); every other literal
goes through `_frac`, so the accepted set, the values and the messages are
those of `Fraction(str(x))`.  Maps from files and maps from the public
constructor pass the same check and are the same values.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resconv.jsonio as jsonio
import resconv.stoch as stoch_module
from resconv.circuits import ParseError, parse_circuit
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


# The reader's error lines.  Entries are read in row-major order and a
# failure is never kept, so the first bad literal wins, then the shape,
# then the first negative entry in row-major order, then the column sums.
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


# -- the reader against the Fraction route, cold and warm ----------------------

def spellings(f: Fraction) -> list:
    """JSON values the reader accepts for f: "p/q" unreduced, an exponent
    form ("5e-1"), a decimal ("0.5"), and an int or a float where one is
    exact."""
    n, d = f.numerator, f.denominator
    out: list = [f"{n * k}/{d * k}" for k in (1, 2)]
    if d == 1:
        out += [str(n), n]
    if 8 % d == 0:
        out.append(float(f))
    for e in (1, 2):
        if 10**e % d == 0:
            c = n * 10**e // d
            out += [f"{c}e-{e}", f"{c / 10**e:.{e}f}"]
            break
    return out


def seeded_map(rng: Random) -> tuple[list[str], list[str], list[list]]:
    """dom, cod and a column-stochastic matrix, each entry spelled one of
    the ways `spellings` lists."""
    cols, rows = rng.randint(1, 3), rng.randint(1, 3)
    columns = []
    for _ in range(cols):
        den = rng.choice((1, 2, 3, 4, 5, 8, 10))
        cuts = sorted(rng.randint(0, den) for _ in range(rows - 1))
        columns.append([Fraction(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])])
    matrix = [[rng.choice(spellings(columns[j][i])) for j in range(cols)] for i in range(rows)]
    return [f"a{j}" for j in range(cols)], [f"b{i}" for i in range(rows)], matrix


MUTATIONS = ("valid", "true", "bad literal", "negative", "shape", "sum")


def mutated(rng: Random, kind: str, matrix: list[list]) -> list[list]:
    """matrix with one fault of the given kind, written back through JSON."""
    m = [list(row) for row in matrix]
    i, j = rng.randrange(len(m)), rng.randrange(len(m[0]))
    if kind == "true":
        m[i][j] = True
    elif kind == "bad literal":
        m[i][j] = rng.choice(["x", "1/0", "1//2", "1e"])
    elif kind == "negative":
        m[i][j] = rng.choice(["-1/2", "-0.5", -1, "-1e-1", -0.25])
    elif kind == "shape":
        rng.choice([m.pop, lambda: m[i].append("0"), lambda: m.append(["0"] * len(m[0]))])()
    elif kind == "sum":
        m[i][j] = rng.choice(["7/3", 2, "1.5", "15e-1"])
    return json.loads(json.dumps(m))


def described(result):
    """A map with its labels and hash, or an error text, for comparison."""
    if isinstance(result, StochMap):
        return result, str(result.dom), str(result.cod), hash(result)
    return result


def file_routes(dom, cod, matrix) -> list:
    """What the map file and the library map read to."""
    types = {"a": FinSet("dom", dom), "b": FinSet("cod", cod)}
    library = {"maps": {"m": {"dom": ["a"], "cod": ["b"], "matrix": matrix}}}
    return [described(outcome(jsonio.load_stoch_map, {"dom": dom, "cod": cod, "matrix": matrix})),
            described(outcome(lambda lib: jsonio.load_library_map(lib, "lib.json", "m", types)[2],
                              library))]


def public_route(dom, cod, matrix):
    """The public constructor on every literal read by Fraction (`_frac`),
    or its error text."""
    try:
        return StochMap(FinSet("dom", dom), FinSet("cod", cod),
                        [[jsonio._frac(x) for x in row] for row in matrix])
    except InputError as exc:
        return str(exc)


def clear_memos():
    jsonio._ratios.clear()
    jsonio._memo_finset.cache_clear()


def test_seeded_maps_read_as_the_fraction_route_cold_and_warm():
    cases = []
    for seed in range(40):
        rng = Random(seed)
        dom, cod, matrix = seeded_map(rng)
        cases += [(kind, dom, cod, mutated(rng, kind, matrix)) for kind in MUTATIONS]
    cold = []
    for _, dom, cod, matrix in cases:
        clear_memos()
        cold.append(file_routes(dom, cod, matrix))
    warm = [file_routes(dom, cod, matrix) for _, dom, cod, matrix in cases]
    outcomes = set()
    for (kind, dom, cod, matrix), c, w in zip(cases, cold, warm):
        ref = described(public_route(dom, cod, matrix))
        assert c == w == [ref, ref], (kind, matrix)
        if kind == "valid":
            assert isinstance(ref[0], StochMap), matrix
            assert described(fraction_route(ref[0], matrix)) == ref
        outcomes.add(kind if isinstance(ref, tuple) else ref.split(" ")[0])
    assert outcomes == {"valid", "bad", "negative", "matrix", "column"}


# -- the process-wide memos ----------------------------------------------------

def test_a_lowered_int_string_limit_refuses_what_the_default_read():
    long_plain, exponent, short = "1" * 700 + "/3", "1e-700", "12345/679"
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        before = [jsonio._ratio(x) for x in (long_plain, exponent, short)]
        sys.set_int_max_str_digits(640)
        refused = outcome(jsonio._ratio, long_plain)
        assert refused.startswith("bad rational literal '111") and "(640 digits)" in refused
        assert outcome(jsonio._ratio, exponent) == (
            "bad rational literal '1e-700': exponent exceeds the limit (640 digits) "
            "for integer string conversion")
        assert jsonio._ratio(short) == before[2] == (12345, 679)
    finally:
        sys.set_int_max_str_digits(old)


def test_only_short_plain_literals_are_kept():
    kept = ["1/2", "3", "9" * jsonio.RATIO_MEMO_CHARS]
    others = ["9" * (jsonio.RATIO_MEMO_CHARS + 1), "0.5", "1e-1", " 1/2", "+1/2", "1/0", "x",
              1, 0.5, True]
    clear_memos()
    for x in kept + others:
        outcome(jsonio._ratio, x)
    assert list(jsonio._ratios) == kept


def test_alphabets_with_the_same_names_keep_their_own_labels():
    clear_memos()
    a, b = jsonio.load_finset(["x", "y"], "A"), jsonio.load_finset(["x", "y"], "B")
    assert a == b and (str(a), str(b)) == ("A{x,y}", "B{x,y}")
    assert jsonio.load_finset(["x", "y"], "A") is a


@pytest.mark.parametrize("raw", [[1, "1"], [True], [True, "True"], [1], ["1"], [0.5, "a"]],
                         ids=repr)
def test_an_alphabet_builds_from_its_names_as_strings(raw):
    def built(read):
        try:
            s = read(raw, "A")
        except InputError as exc:
            return str(exc)
        return s, s.label

    today = built(lambda names, label: FinSet(label, tuple(str(x) for x in names)))
    clear_memos()
    assert built(jsonio.load_finset) == built(jsonio.load_finset) == today
    if isinstance(today, str):  # a refused alphabet is not kept
        assert jsonio._memo_finset.cache_info().currsize == 0


def test_each_memo_keeps_at_most_its_bound():
    clear_memos()
    for i in range(jsonio.RATIO_MEMO_SIZE + 10):
        jsonio._ratio(f"{i}/7")
    assert f"{i}/7" in jsonio._ratios and len(jsonio._ratios) <= jsonio.RATIO_MEMO_SIZE
    for i in range(jsonio.FINSET_MEMO_SIZE + 10):
        jsonio.load_finset([f"x{i}"], "A")
    info = jsonio._memo_finset.cache_info()
    assert info.currsize <= info.maxsize == jsonio.FINSET_MEMO_SIZE
    jsonio._memo_finset.cache_clear()
    jsonio.load_finset([str(i) for i in range(jsonio.FINSET_MEMO_NAMES + 1)], "L")
    assert jsonio._memo_finset.cache_info().currsize == 0


# -- one read per input file ---------------------------------------------------

@pytest.mark.parametrize("name", ["missing.json", "file.json/inner.json", "nul\0.json"])
def test_a_path_that_names_no_file_is_not_found(tmp_path, name):
    (tmp_path / "file.json").write_text("{}")
    with pytest.raises(InputError) as exc:
        jsonio.read_json(tmp_path / name)
    assert str(exc.value) == f"file not found: {tmp_path / name}"
    with pytest.raises(ParseError) as exc:
        parse_circuit(f"types: A=2\nlibrary: lib = {name}\ninput: A\n", base_dir=tmp_path)
    assert str(exc.value) == f"line 2, col 1: library file {name!r} not found"


def test_a_directory_or_undecodable_file_is_not_reported_as_missing(tmp_path):
    with pytest.raises(IsADirectoryError):
        jsonio.read_json(tmp_path)
    (tmp_path / "latin.json").write_bytes(b'"\xff"')
    with pytest.raises(UnicodeDecodeError):
        jsonio.read_json(tmp_path / "latin.json")


def test_input_files_are_read_without_an_existence_check(tmp_path, monkeypatch, capsys):
    from resconv.cli import run

    monkeypatch.setattr(Path, "exists", lambda self: pytest.fail(f"exists() asked of {self}"))
    assert jsonio.read_json(ROOT / "demo" / "p.json")["dom"]
    assert run(["normalize-circuit", str(ROOT / "demo" / "sandwich.circ"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)
