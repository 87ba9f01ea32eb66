"""JSON schemas for theories, maps, combs and terms.

Field names are part of the package contract:

  finite table    {"carrier": n, "combine": [[..]], "zero": k, "geq": [[..]]}
  presentation    {"objects": [..], "morphisms": [{"name", "from", "to"}]}
                  ("from"/"to" are name lists or {"name": count} objects)
  stochastic map  {"dom": ["a0", ..], "cod": ["b0", ..], "matrix": [["1/2", ..], ..]}
                  (rows indexed by the codomain, entries rational literals)
  probabilities   ["1/2", "1/4", "1/4"]
  shared random   {"sa": [..], "sb": [..], "joint": [["1/4", ..], ..]}
  one-comb        {"ancilla": [..], "hole_dom": [..], "hole_cod": [..],
                   "pre": <map>, "post": <map>}
  n-comb          {"holes": [{"dom": [..], "cod": [..]}, ..], "order": [..],
                   "stages": [<map>, ..], "ancillas": [[..], ..]}  (0-based order)
  allocation      {"allocation": [j0, j1, ..], "combs": [<n-comb>, ..]}
  circuit library {"maps": {name: {"dom": [wire, ..], "cod": [wire, ..],
                   "matrix": [..], "free": bool}}}  ("maps" envelope optional)

A rational literal is a string Fraction accepts ("1/2", "0.25", "1e-3")
or a JSON number.  A map or probability entry written "p" or "p/q" in
ASCII digits is read straight to the integers p and q with int(); any
other entry goes through Fraction, with the same values and messages.
A process reads each plain literal of at most RATIO_MEMO_CHARS
characters once, from a memo of at most RATIO_MEMO_SIZE literals.  An
exponent literal ("1e-700"), any other non-plain literal, a longer one
and a failure are read every time: what an exponent or a long literal
gives depends on Python's int-string limit, which may change.  Alphabets
of at most FINSET_MEMO_NAMES names come from a memo of at most
FINSET_MEMO_SIZE, keyed by label and names.

Vector/randomness/spectrum theories use a {"kind": ...} envelope; finite
tables and presentations are recognized by shape.  A theory file may
carry "monotones": [{"name": .., "class": ..}].
"""

from __future__ import annotations

import errno
import json
import re
import sys
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import gcd
from pathlib import Path
from typing import Any, Callable

from .combs import NComb, OneComb, UCTransformation
from .core import FiniteTheoryTable, InputError, TheoryOracle
from .instances import (EntanglementSpectrumTheory, ProbVector,
                        RandomnessTheory, VectorTheory, prob_vector_from_ratios)
from .monotones import Monotone, builtin_monotone
from .presentation import MorphismGenerator, Multiset, MultisetTheory, ms_make
from .stoch import (TOO_MANY_SYMBOLS, FinSet, SharedRandomness, StochMap, from_ratios,
                    product_fits, tensor_all)


def _fields(data: Any, what: str, *names: str) -> list:
    """The named fields of a JSON object, or an InputError naming what is wrong."""
    if not isinstance(data, Mapping):
        raise InputError(f"{what} must be a JSON object, got {type(data).__name__}")
    for name in names:
        if name not in data:
            raise InputError(f"{what} missing field {name!r}")
    return [data[name] for name in names]


def _list_fields(data: Any, what: str, *names: str) -> list[list]:
    """Like _fields, for fields whose values must be JSON lists."""
    values = _fields(data, what, *names)
    for name, value in zip(names, values):
        if not isinstance(value, list):
            raise InputError(f"{what} field {name!r} must be a list, got {value!r}")
    return values


def _int(x: Any, what: str) -> int:
    """An integral JSON value as an int; 0.9, "1.5" or true is an InputError,
    not truncated or read as 1."""
    try:
        i = int(x)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{what} must be an integer, got {x!r}") from None
    if isinstance(x, bool) or (not isinstance(x, str) and i != x):
        raise InputError(f"{what} must be an integer, got {x!r}")
    return i


# The exponent of a literal such as "1e-5", in the syntax Fraction reads.
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _frac(x: Any) -> Fraction:
    """A rational literal.  Fraction builds 10**|e| for an exponent e, as in
    "1e-5", so a literal whose 10**|e| has more digits than Python's
    int-string limit is refused before conversion, as a numerator or
    denominator with that many digits is."""
    text = str(x)
    try:
        exp = _EXPONENT.search(text)
        limit = sys.get_int_max_str_digits()  # 0: no limit
        if exp and limit and abs(int(exp.group(1))) >= limit:
            raise ValueError(f"exponent exceeds the limit ({limit} digits) for "
                             "integer string conversion")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational literal {x!r}: {exc}") from None


# The literal memo's bounds: how many literals it keeps (a full memo is
# emptied and starts again), and the longest literal it keeps.  A kept literal's parts have far fewer
# digits than the lowest int-string limit Python allows (640), so its pair
# does not depend on the limit in force.
RATIO_MEMO_SIZE = 4096
RATIO_MEMO_CHARS = 40
_ratios: dict[str, tuple[int, int]] = {}


def _ratio(x: Any) -> tuple[int, int]:
    """A rational literal as a reduced (numerator, denominator) pair.  A
    plain ASCII "p" or "p/q" with q != 0 is split and read with int();
    anything else, and a part past the int-string digit limit, is read
    by _frac.  Plain literals of at most `RATIO_MEMO_CHARS` characters are
    read once per process, from a memo of at most `RATIO_MEMO_SIZE` of
    them; any other literal, and any failure, is read on every call."""
    if type(x) is str and x.isascii():
        r = _ratios.get(x)
        if r is not None:
            return r
        p, slash, q = x.partition("/")
        if p.isdigit() and (q.isdigit() or not slash):
            try:
                n, d = int(p), int(q) if slash else 1
            except ValueError:  # more digits than the int-string limit
                pass
            else:
                if d:
                    g = gcd(n, d)
                    r = n // g, d // g
                    if len(x) <= RATIO_MEMO_CHARS:
                        if len(_ratios) >= RATIO_MEMO_SIZE:
                            _ratios.clear()
                        _ratios[x] = r
                    return r
    f = _frac(x)
    return f.numerator, f.denominator


def _bool(x: Any, what: str) -> bool:
    """A JSON boolean, or 0/1, as a bool; any other value is an InputError."""
    if x not in (0, 1):  # True and False compare equal to 1 and 0
        raise InputError(f"{what} must be a boolean or 0/1, got {x!r}")
    return bool(x)


def load_finite_table(data: Mapping) -> FiniteTheoryTable:
    n, combine, zero, geq = _fields(data, "finite table", "carrier", "combine", "zero", "geq")
    return FiniteTheoryTable(_int(n, "carrier"),
                             _matrix(combine, "combine table", lambda x: _int(x, "combine entry")),
                             _int(zero, "zero"),
                             _matrix(geq, "preorder matrix", lambda x: _bool(x, "geq entry")))


def _multiset_field(raw: Any) -> Multiset:
    if isinstance(raw, Mapping):
        return ms_make({str(k): _int(v, "multiset count") for k, v in raw.items()})
    if isinstance(raw, list):
        return ms_make([str(x) for x in raw])
    raise InputError(f"multiset must be a list or object, got {raw!r}")


# The alphabet memo's bounds: how many alphabets it keeps, least recently
# used first out, and the most names a kept alphabet may have.
FINSET_MEMO_SIZE = 256
FINSET_MEMO_NAMES = 64


@lru_cache(maxsize=FINSET_MEMO_SIZE)
def _memo_finset(label: str, names: tuple[str, ...]) -> FinSet:
    """Keyed by the label and the names as strings, which is all a
    `FinSet` is built from, so true and "True" give one alphabet, as they
    always have.  A refused alphabet (duplicate names) raises and is not
    kept."""
    return FinSet(label, names)


def load_finset(raw: Any, label: str) -> FinSet:
    """The alphabet of the names str(x) for x in raw.  One of at most
    `FINSET_MEMO_NAMES` names comes from one process-wide memo."""
    if not isinstance(raw, list) or not raw:
        raise InputError(f"finite set must be a non-empty list, got {raw!r}")
    names = tuple(map(str, raw))
    return (_memo_finset if len(names) <= FINSET_MEMO_NAMES else FinSet)(label, names)


def _rows(raw: Any, what: str) -> list[list]:
    """raw, which must be a list of lists."""
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise InputError(f"{what} must be a list of lists, got {raw!r}")
    return raw


def _matrix(raw: Any, what: str, entry: Callable[[Any], Any] = _frac) -> tuple[tuple, ...]:
    """A list of lists of JSON values, each parsed by `entry` (rationals by default)."""
    return tuple(tuple(entry(x) for x in row) for row in _rows(raw, what))


def _ratio_matrix(raw: Any, what: str) -> tuple[tuple[tuple[int, int], ...], ...]:
    """_matrix of _ratio pairs, taking a string literal that _ratio keeps
    straight from its memo.  Only strings are looked up: true hashes as 1
    and [1] does not hash, so every other entry goes to _ratio as it is."""
    rows = []
    for row in _rows(raw, what):
        out = []
        for x in row:
            out.append((_ratios.get(x) or _ratio(x)) if type(x) is str else _ratio(x))
        rows.append(tuple(out))
    return tuple(rows)


def load_stoch_map(data: Mapping) -> StochMap:
    dom, cod, matrix = _fields(data, "stochastic map", "dom", "cod", "matrix")
    return from_ratios(load_finset(dom, "dom"), load_finset(cod, "cod"),
                       _ratio_matrix(matrix, "stochastic map matrix"))


def dump_stoch_map(p: StochMap, what: str = "a stochastic map") -> dict:
    """p as JSON; an entry too long to print as a string is an InputError
    naming `what`."""
    try:
        matrix = [[str(x) for x in row] for row in p.matrix]
    except ValueError:  # a numerator or denominator past the int-string limit
        raise InputError(f"cannot print {what}: an entry has more than "
                         f"{sys.get_int_max_str_digits()} digits, the limit for "
                         "integer string conversion") from None
    return {"dom": list(p.dom), "cod": list(p.cod), "matrix": matrix}


def load_prob_vector(raw: Any) -> ProbVector:
    if not isinstance(raw, list):
        raise InputError(f"probability vector must be a list, got {raw!r}")
    return prob_vector_from_ratios([_ratio(x) for x in raw])


def load_shared_randomness(data: Mapping) -> SharedRandomness:
    sa, sb, joint = _fields(data, "shared randomness", "sa", "sb", "joint")
    return SharedRandomness(load_finset(sa, "sa"), load_finset(sb, "sb"),
                            _matrix(joint, "joint distribution"))


def dump_shared_randomness(r: SharedRandomness) -> dict:
    return {"sa": list(r.sa), "sb": list(r.sb),
            "joint": [[str(x) for x in row] for row in r.joint]}


def load_one_comb(data: Mapping) -> OneComb:
    ancilla, pre, post, hole_dom, hole_cod = _fields(
        data, "one-comb", "ancilla", "pre", "post", "hole_dom", "hole_cod")
    return OneComb(load_finset(ancilla, "Z"), load_stoch_map(pre), load_stoch_map(post),
                   load_finset(hole_dom, "A"), load_finset(hole_cod, "B"))


def dump_one_comb(k: OneComb) -> dict:
    return {"ancilla": list(k.ancilla),
            "hole_dom": list(k.hole_dom),
            "hole_cod": list(k.hole_cod),
            "pre": dump_stoch_map(k.pre, "the comb's pre map"),
            "post": dump_stoch_map(k.post, "the comb's post map")}


def load_ncomb(data: Mapping) -> NComb:
    holes, order, stages, ancillas = _list_fields(
        data, "n-comb", "holes", "order", "stages", "ancillas")
    hole_types = []
    for h in holes:
        dom, cod = _fields(h, "n-comb hole", "dom", "cod")
        hole_types.append((load_finset(dom, "A"), load_finset(cod, "B")))
    return NComb(tuple(hole_types),
                 tuple(_int(i, "n-comb order entry") for i in order),
                 tuple(load_stoch_map(s) for s in stages),
                 tuple(load_finset(z, "Z") for z in ancillas))


def dump_ncomb(k: NComb) -> dict:
    return {"holes": [{"dom": list(d), "cod": list(c)}
                      for d, c in k.holes],
            "order": list(k.order),
            "stages": [dump_stoch_map(s, f"comb stage {i}") for i, s in enumerate(k.stages)],
            "ancillas": [list(z) for z in k.ancillas]}


def load_uc(data: Mapping) -> UCTransformation:
    allocation, combs = _list_fields(data, "allocation file", "allocation", "combs")
    return UCTransformation(tuple(_int(i, "allocation entry") for i in allocation),
                            tuple(load_ncomb(c) for c in combs))


def load_library_map(data: Any, libname: str, name: str, types: Mapping[str, FinSet],
                     ) -> tuple[tuple[str, ...], tuple[str, ...], StochMap, bool]:
    """Map `name` of a circuit library, typed by the declared wire types:
    its dom and cod wire lists, the map, and its free flag (default true)."""
    maps = data.get("maps", data) if isinstance(data, Mapping) else data
    if not isinstance(maps, Mapping):
        raise InputError(f"library {libname!r} must be a JSON object of maps, got {maps!r}")
    if name not in maps:
        raise InputError(f"unknown library map {name!r} in {libname!r}")
    spec = maps[name]
    what = f"library map {name!r}"
    dom, cod, matrix = _list_fields(spec, what, "dom", "cod", "matrix")
    dom_w = tuple(str(w) for w in dom)
    cod_w = tuple(str(w) for w in cod)
    for w in dom_w + cod_w:
        if w not in types:
            raise InputError(f"{what} uses undeclared type {w!r}")
    for side, wires in (("dom", dom_w), ("cod", cod_w)):
        if not product_fits(wires, types):
            raise InputError(f"{what} {side} {TOO_MANY_SYMBOLS}")
    m = from_ratios(tensor_all([types[w] for w in dom_w]), tensor_all([types[w] for w in cod_w]),
                    _ratio_matrix(matrix, f"{what} matrix"))
    return dom_w, cod_w, m, _bool(spec.get("free", True), f"{what} free flag")


def load_theory(data: Mapping, bound: int = 6) -> TheoryOracle:
    """Dispatch on shape/kind; `bound` configures reachability theories."""
    _fields(data, "theory")  # which fields it needs depends on its shape
    if "carrier" in data:
        return load_finite_table(data)
    if "objects" in data:
        objects, morphisms = _list_fields(data, "presentation", "objects", "morphisms")
        rules = []
        for m in morphisms:
            name, source, target = _fields(m, "morphism", "name", "from", "to")
            rules.append(MorphismGenerator(str(name), _multiset_field(source),
                                           _multiset_field(target)))
        return MultisetTheory(tuple(str(o) for o in objects), tuple(rules), bound)
    kind = data.get("kind")
    if kind == "vector":
        arity, mode = _fields(data, "vector theory", "arity", "mode")
        return VectorTheory(_int(arity, "vector arity"), str(mode))
    if kind == "randomness":
        return RandomnessTheory()
    if kind == "entanglement":
        return EntanglementSpectrumTheory()
    raise InputError(f"cannot recognize theory: keys {sorted(data.keys())}")


def load_theory_monotones(data: Mapping, t: TheoryOracle) -> list[Monotone]:
    decls = data.get("monotones", [])
    if not isinstance(decls, list):
        raise InputError(f"monotones must be a list, got {decls!r}")
    out = []
    for decl in decls:
        (name,) = _fields(decl, "monotone declaration", "name")
        out.append(builtin_monotone(str(name), str(decl.get("class", "general")), t))
    return out


def parse_term(t: TheoryOracle, raw: Any) -> Any:
    """Interpret a JSON value as a term of the given theory."""
    if isinstance(t, FiniteTheoryTable):
        i = _int(raw, "term index")
        if not 0 <= i < t.size:
            raise InputError(f"term index {i} out of range 0..{t.size - 1}")
        return i
    if isinstance(t, VectorTheory):
        if not isinstance(raw, list):
            raise InputError(f"vector term must be a list, got {raw!r}")
        v = tuple(_int(x, "vector entry") for x in raw)
        t.validate_term(v)
        return v
    if isinstance(t, (RandomnessTheory, EntanglementSpectrumTheory)):
        return load_prob_vector(raw)
    if isinstance(t, MultisetTheory):
        ms = _multiset_field(raw)
        t.validate_term(ms)
        return ms
    raise InputError(f"no term parser for theory {type(t).__name__}")


def decode_json(text: str, what: str) -> Any:
    """JSON text as a value; malformed or too deeply nested text is an
    InputError reading "<what>: <reason>"."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"{what}: {exc}") from None


# The errors `Path.exists` (Python 3.10-3.12) reads as "no such file";
# it reads a name with a NUL byte so too.  Python 3.13's `Path.exists`
# reads every OSError so, but these alone are "file not found" here: a
# name too long (ENAMETOOLONG) or a directory that may not be searched
# (EACCES) raises its own OSError, as on 3.10-3.12, and exits 2 all the same.
_NO_FILE = (errno.ENOENT, errno.ENOTDIR, errno.ELOOP)


def read_file(path: Path) -> str:
    """The text of the file at path, read with one open and no existence
    check before it, so nothing can change in between.  Where there is no
    such file the error is an InputError "file not found: <path>", and
    only there."""
    try:
        f = path.open(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a name with a NUL byte
        if isinstance(exc, OSError) and exc.errno not in _NO_FILE:
            raise
        raise InputError(f"file not found: {path}") from None
    with f:  # a decoding error is raised here, as itself
        return f.read()


def read_json(path: str | Path) -> Any:
    p = Path(path)
    return decode_json(read_file(p), f"invalid JSON in {p}")
