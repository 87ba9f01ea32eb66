"""JSON schemas for theories, maps, combs and terms.

Field names are part of the package contract:

  finite table    {"carrier": n, "combine": [[..]], "zero": k, "geq": [[..]]}
  presentation    {"objects": [..], "morphisms": [{"name", "from", "to"}]}
                  ("from"/"to" are name lists or {"name": count} objects)
  stochastic map  {"dom": ["a0", ..], "cod": ["b0", ..], "matrix": [["1/2", ..], ..]}
                  (rows indexed by the codomain, entries rational strings)
  probabilities   ["1/2", "1/4", "1/4"]
  shared random   {"sa": [..], "sb": [..], "joint": [["1/4", ..], ..]}
  one-comb        {"ancilla": [..], "hole_dom": [..], "hole_cod": [..],
                   "pre": <map>, "post": <map>}
  n-comb          {"holes": [{"dom": [..], "cod": [..]}, ..], "order": [..],
                   "stages": [<map>, ..], "ancillas": [[..], ..]}  (0-based order)
  allocation      {"allocation": [j0, j1, ..], "combs": [<n-comb>, ..]}

Vector/randomness/spectrum theories use a {"kind": ...} envelope; finite
tables and presentations are recognized by shape.  A theory file may
carry "monotones": [{"name": .., "class": ..}].
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

from .combs import NComb, OneComb, UCTransformation
from .core import FiniteTheoryTable, InputError, TheoryOracle
from .instances import (EntanglementSpectrumTheory, ProbVector,
                        RandomnessTheory, ReactionTheory, VectorTheory)
from .monotones import Monotone, builtin_monotone
from .presentation import MorphismGenerator, Multiset, PresentedSMC, ms_make
from .stoch import FinSet, SharedRandomness, StochMap


def _frac(x: Any) -> Fraction:
    try:
        return Fraction(str(x))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational literal {x!r}: {exc}") from None


def load_finite_table(data: Mapping) -> FiniteTheoryTable:
    try:
        n = int(data["carrier"])
        combine = tuple(tuple(int(x) for x in row) for row in data["combine"])
        zero = int(data["zero"])
        geq = tuple(tuple(bool(x) for x in row) for row in data["geq"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed finite table: {exc}") from None
    return FiniteTheoryTable(n, combine, zero, geq)


def dump_finite_table(t: FiniteTheoryTable) -> dict:
    return {"carrier": t.size,
            "combine": [list(r) for r in t.table],
            "zero": t.zero_index,
            "geq": [[1 if x else 0 for x in r] for r in t.order]}


def _multiset_field(raw: Any) -> Multiset:
    if isinstance(raw, Mapping):
        return ms_make({str(k): int(v) for k, v in raw.items()})
    if isinstance(raw, list):
        return ms_make([str(x) for x in raw])
    raise InputError(f"multiset must be a list or object, got {raw!r}")


def load_presented_smc(data: Mapping) -> PresentedSMC:
    try:
        objects = tuple(str(o) for o in data["objects"])
        morphisms = tuple(
            MorphismGenerator(str(m["name"]),
                              _multiset_field(m["from"]),
                              _multiset_field(m["to"]))
            for m in data["morphisms"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed presentation: {exc}") from None
    return PresentedSMC(objects, morphisms)


def load_finset(raw: Any, label: str = "S") -> FinSet:
    if not isinstance(raw, list) or not raw:
        raise InputError(f"finite set must be a non-empty list, got {raw!r}")
    return FinSet(label, tuple(str(x) for x in raw))


def _matrix(raw: Any, what: str) -> tuple[tuple[Fraction, ...], ...]:
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise InputError(f"{what} must be a list of lists, got {raw!r}")
    return tuple(tuple(_frac(x) for x in row) for row in raw)


def load_stoch_map(data: Mapping) -> StochMap:
    try:
        dom = load_finset(data["dom"], "dom")
        cod = load_finset(data["cod"], "cod")
        matrix = _matrix(data["matrix"], "stochastic map matrix")
    except KeyError as exc:
        raise InputError(f"stochastic map missing field {exc}") from None
    return StochMap(dom, cod, matrix)


def dump_stoch_map(p: StochMap) -> dict:
    return {"dom": list(p.dom.elements),
            "cod": list(p.cod.elements),
            "matrix": [[str(x) for x in row] for row in p.matrix]}


def load_prob_vector(raw: Any) -> ProbVector:
    if not isinstance(raw, list):
        raise InputError(f"probability vector must be a list, got {raw!r}")
    return ProbVector(tuple(_frac(x) for x in raw))


def dump_prob_vector(p: ProbVector) -> list[str]:
    return [str(x) for x in p.entries]


def load_shared_randomness(data: Mapping) -> SharedRandomness:
    try:
        sa = load_finset(data["sa"], "sa")
        sb = load_finset(data["sb"], "sb")
        joint = _matrix(data["joint"], "joint distribution")
    except KeyError as exc:
        raise InputError(f"shared randomness missing field {exc}") from None
    return SharedRandomness(sa, sb, joint)


def dump_shared_randomness(r: SharedRandomness) -> dict:
    return {"sa": list(r.sa.elements), "sb": list(r.sb.elements),
            "joint": [[str(x) for x in row] for row in r.joint]}


def load_one_comb(data: Mapping) -> OneComb:
    return OneComb(load_finset(data["ancilla"], "Z"),
                   load_stoch_map(data["pre"]),
                   load_stoch_map(data["post"]),
                   load_finset(data["hole_dom"], "A"),
                   load_finset(data["hole_cod"], "B"))


def dump_one_comb(k: OneComb) -> dict:
    return {"ancilla": list(k.ancilla.elements),
            "hole_dom": list(k.hole_dom.elements),
            "hole_cod": list(k.hole_cod.elements),
            "pre": dump_stoch_map(k.pre),
            "post": dump_stoch_map(k.post)}


def load_ncomb(data: Mapping) -> NComb:
    holes = tuple((load_finset(h["dom"], "A"), load_finset(h["cod"], "B"))
                  for h in data["holes"])
    order = tuple(int(i) for i in data["order"])
    stages = tuple(load_stoch_map(s) for s in data["stages"])
    ancillas = tuple(load_finset(z, "Z") for z in data["ancillas"])
    return NComb(holes, order, stages, ancillas)


def dump_ncomb(k: NComb) -> dict:
    return {"holes": [{"dom": list(d.elements), "cod": list(c.elements)}
                      for d, c in k.holes],
            "order": list(k.order),
            "stages": [dump_stoch_map(s) for s in k.stages],
            "ancillas": [list(z.elements) for z in k.ancillas]}


def load_uc(data: Mapping) -> UCTransformation:
    return UCTransformation(tuple(int(i) for i in data["allocation"]),
                            tuple(load_ncomb(c) for c in data["combs"]))


def load_theory(data: Mapping, bound: int = 6) -> TheoryOracle:
    """Dispatch on shape/kind; `bound` configures reachability theories."""
    if "carrier" in data:
        return load_finite_table(data)
    if "objects" in data:
        smc = load_presented_smc(data)
        return ReactionTheory(smc.objects, smc.morphisms, bound)
    kind = data.get("kind")
    if kind == "vector":
        try:
            return VectorTheory(int(data["arity"]), str(data["mode"]))
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed vector theory: {exc}") from None
    if kind == "randomness":
        return RandomnessTheory()
    if kind == "entanglement":
        return EntanglementSpectrumTheory()
    raise InputError(f"cannot recognize theory: keys {sorted(data.keys())}")


def load_theory_monotones(data: Mapping, t: TheoryOracle) -> list[Monotone]:
    out = []
    for decl in data.get("monotones", []):
        out.append(builtin_monotone(str(decl["name"]),
                                    str(decl.get("class", "general")), t))
    return out


def parse_term(t: TheoryOracle, raw: Any) -> Any:
    """Interpret a JSON value as a term of the given theory."""
    if isinstance(t, FiniteTheoryTable):
        i = int(raw)
        if not 0 <= i < t.size:
            raise InputError(f"term index {i} out of range 0..{t.size - 1}")
        return i
    if isinstance(t, VectorTheory):
        v = tuple(int(x) for x in raw)
        t.validate_term(v)
        return v
    if isinstance(t, (RandomnessTheory, EntanglementSpectrumTheory)):
        return load_prob_vector(raw)
    if isinstance(t, ReactionTheory):
        ms = _multiset_field(raw)
        for name, _ in ms:
            if name not in t.species:
                raise InputError(f"undeclared species {name!r}")
        return ms
    raise InputError(f"no term parser for theory {type(t).__name__}")


def read_json(path: str | Path) -> Any:
    p = Path(path)
    if not p.exists():
        raise InputError(f"file not found: {p}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {p}: {exc}") from None
