"""Property analyzers for theories of resource convertibility.

Analyzers never promote a bounded search to a theory-level claim: Proven
is reported only when the term domain is finite and exhausted, otherwise
a clean sample yields Unknown with an "unrefuted on sample" note.
Unknown answers from the underlying oracle are propagated as
inconclusive, never as evidence either way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from random import Random
from typing import Any, Sequence

from .core import (Decision, FiniteTheoryTable, TheoryOracle, check_axioms,
                   equivalent)


@dataclass(frozen=True)
class PropertyReport:
    name: str
    decision: Decision
    scope: str  # "exhaustive" or a description of the sample

    def __str__(self) -> str:
        extra = f" [{self.decision.note}]" if self.decision.note else ""
        return f"{self.name}: {self.decision.verdict} ({self.scope}){extra}"

    def to_json(self) -> dict:
        return {"property": self.name, "scope": self.scope, **self.decision.to_json()}


def _is_exhaustive(t: TheoryOracle, sample: Sequence[Any]) -> bool:
    if not isinstance(t, FiniteTheoryTable):
        return False
    return set(sample) == set(range(t.size))


def find_catalyst(t: TheoryOracle, a: Any, b: Any, candidates: Sequence[Any],
                  bound: int = 0) -> Decision:
    """Look for c with a not-convertible to b but a+c convertible to b+c.

    Candidates are tried in order.  When a converts to b outright the
    question is moot and reported as Refuted with a note.
    """
    base = t.geq(a, b)
    if base.is_proven:
        return Decision.refuted(("already-convertible", a, b),
                                note="a converts to b; no catalyst needed")
    if base.is_unknown:
        return Decision.unknown(base.bound or bound,
                                note="cannot establish that a does not convert to b")
    inconclusive = 0
    for c in candidates:
        lifted = t.geq(t.combine(a, c), t.combine(b, c))
        if lifted.is_proven:
            return Decision.proven(("catalyst", c))
        if lifted.is_unknown:
            inconclusive += 1
    if inconclusive:
        return Decision.unknown(bound, note=f"{inconclusive} candidate(s) inconclusive")
    return Decision.refuted(("no-catalyst-in-candidates", len(candidates)))


def check_catalysis_free(t: TheoryOracle, sample: Sequence[Any],
                         bound: int = 0) -> PropertyReport:
    """Catalysis-free: a+c converts to b+c only when a converts to b."""
    inconclusive = 0
    for a in sample:
        for b in sample:
            base = t.geq(a, b)
            if base.is_proven:
                continue
            if base.is_unknown:
                inconclusive += 1
                continue
            for c in sample:
                lifted = t.geq(t.combine(a, c), t.combine(b, c))
                if lifted.is_proven:
                    return PropertyReport(
                        "catalysis-free",
                        Decision.refuted(("catalyst-triple", a, b, c)),
                        sample_scope(t, sample))
                if lifted.is_unknown:
                    inconclusive += 1
    return _clean_verdict("catalysis-free", t, sample, bound, inconclusive)


def check_non_interacting(t: TheoryOracle, sample: Sequence[Any],
                          bound: int = 0) -> PropertyReport:
    """Every conversion onto a combined pair splits into two conversions.

    Refuted requires a complete decomposition enumeration from the
    theory; with only a sampled search a missing split stays Unknown.
    """
    inconclusive = 0
    for a in sample:
        for b1 in sample:
            for b2 in sample:
                top = t.geq(a, t.combine(b1, b2))
                if top.is_unknown:
                    inconclusive += 1
                    continue
                if top.is_refuted:
                    continue
                decomps = t.decompositions(a)
                complete = decomps is not None
                if decomps is None:
                    decomps = [(x, y) for x in sample for y in sample
                               if equivalent(t, t.combine(x, y), a).is_proven]
                ok = False
                saw_unknown = False
                for a1, a2 in decomps:
                    d1 = t.geq(a1, b1)
                    d2 = t.geq(a2, b2)
                    if d1.is_proven and d2.is_proven:
                        ok = True
                        break
                    if d1.is_unknown or d2.is_unknown:
                        saw_unknown = True
                if ok:
                    continue
                if complete and not saw_unknown:
                    return PropertyReport(
                        "non-interacting",
                        Decision.refuted(("no-split", a, b1, b2)),
                        sample_scope(t, sample))
                inconclusive += 1
    return _clean_verdict("non-interacting", t, sample, bound, inconclusive)


def check_quantity_like(t: TheoryOracle, sample: Sequence[Any],
                        bound: int = 0) -> PropertyReport:
    """Conservation of value: equal combinations with one side dominating
    force the complementary domination."""
    inconclusive = 0
    for a1, a2, b1, b2 in itertools.product(sample, repeat=4):
        eq = equivalent(t, t.combine(a1, a2), t.combine(b1, b2))
        if eq.is_unknown:
            inconclusive += 1
            continue
        if eq.is_refuted:
            continue
        d = t.geq(a1, b1)
        if d.is_unknown:
            inconclusive += 1
            continue
        if d.is_refuted:
            continue
        back = t.geq(b2, a2)
        if back.is_refuted:
            return PropertyReport(
                "quantity-like",
                Decision.refuted(("quadruple", a1, a2, b1, b2)),
                sample_scope(t, sample))
        if back.is_unknown:
            inconclusive += 1
    return _clean_verdict("quantity-like", t, sample, bound, inconclusive)


def check_quality_like(t: TheoryOracle, sample: Sequence[Any],
                       bound: int = 0) -> PropertyReport:
    """Idempotence: a combined with itself is interconvertible with a."""
    inconclusive = 0
    for a in sample:
        eq = equivalent(t, t.combine(a, a), a)
        if eq.is_refuted:
            return PropertyReport("quality-like",
                                  Decision.refuted(("not-idempotent", a)),
                                  sample_scope(t, sample))
        if eq.is_unknown:
            inconclusive += 1
    return _clean_verdict("quality-like", t, sample, bound, inconclusive)


def check_waste_free(t: TheoryOracle, sample: Sequence[Any],
                     bound: int = 0) -> PropertyReport:
    """Every sampled term disposes of itself: a converts to zero.

    When that holds everywhere, the derived whole-covers-part law
    (a+b converts to a) is asserted on sample pairs; a failure there is
    flagged as a theorem violation, i.e. an implementation bug.
    """
    z = t.zero()
    inconclusive = 0
    for a in sample:
        d = t.geq(a, z)
        if d.is_refuted:
            return PropertyReport("waste-free",
                                  Decision.refuted(("not-disposable", a)),
                                  sample_scope(t, sample))
        if d.is_unknown:
            inconclusive += 1
    if not inconclusive:
        for a in sample:
            for b in sample:
                if t.geq(t.combine(a, b), a).is_refuted:
                    return PropertyReport(
                        "waste-free",
                        Decision.refuted(("whole-covers-part-fails", a, b),
                                         note="theorem violation: disposability held"),
                        sample_scope(t, sample))
    return _clean_verdict("waste-free", t, sample, bound, inconclusive)


def check_riesz_interpolation(t: TheoryOracle, uppers: Sequence[Any],
                              lowers: Sequence[Any], bound: int) -> PropertyReport:
    """Between finite families with all uppers above all lowers, search the
    enumerated terms for an interpolant."""
    for a in uppers:
        for b in lowers:
            if not t.geq(a, b).is_proven:
                return PropertyReport(
                    "riesz-interpolation",
                    Decision.unknown(bound, note=f"precondition fails: {a!r} is not above {b!r}"),
                    "precondition")
    candidates = t.enumerate_up_to(bound)
    inconclusive = 0
    for c in candidates:
        decisions = [t.geq(a, c) for a in uppers] + [t.geq(c, b) for b in lowers]
        if all(d.is_proven for d in decisions):
            return PropertyReport("riesz-interpolation",
                                  Decision.proven(("interpolant", c)),
                                  sample_scope(t, candidates))
        if any(d.is_unknown for d in decisions):
            inconclusive += 1
    if _is_exhaustive(t, candidates) and not inconclusive:
        return PropertyReport("riesz-interpolation",
                              Decision.refuted(("no-interpolant", len(candidates))),
                              "exhaustive")
    return PropertyReport("riesz-interpolation",
                          Decision.unknown(bound, note="no interpolant among enumerated terms"),
                          sample_scope(t, candidates))


def cross_check_theorems(t: TheoryOracle, sample: Sequence[Any],
                         bound: int = 0) -> list[PropertyReport]:
    """Executable forms of the structural theorems.

    (i) non-interacting + quantity-like forbid catalysis; (ii) in
    quantity-like theories cloning a term is the same as creating it
    from nothing; (iii) in quality-like theories doubling either side of
    a conversion changes nothing.  A Refuted entry here means the
    implementation violated a theorem, not a property of the theory.
    """
    ni = check_non_interacting(t, sample, bound)
    ql = check_quantity_like(t, sample, bound)
    qual = check_quality_like(t, sample, bound)
    cf = check_catalysis_free(t, sample, bound)
    reports = [ni, ql, qual, cf]

    hypotheses_hold = not ni.decision.is_refuted and not ql.decision.is_refuted
    if hypotheses_hold and cf.decision.is_refuted:
        reports.append(PropertyReport(
            "thm:no-catalysis-criterion",
            Decision.refuted(("theorem-violation", cf.decision.witness),
                             note="non-interacting and quantity-like yet a catalyst exists"),
            sample_scope(t, sample)))
    else:
        note = None if hypotheses_hold else "hypotheses not satisfied; vacuous"
        reports.append(PropertyReport(
            "thm:no-catalysis-criterion",
            Decision.proven(("checked", len(sample)), note=note),
            sample_scope(t, sample)))

    if not ql.decision.is_refuted:
        bad = None
        z = t.zero()
        for a in sample:
            clone = t.geq(a, t.combine(a, a))
            create = t.geq(z, a)
            if clone.is_unknown or create.is_unknown:
                continue
            if clone.is_proven != create.is_proven:
                bad = a
                break
        if bad is not None:
            reports.append(PropertyReport(
                "prop:cloning-is-creation",
                Decision.refuted(("theorem-violation", bad),
                                 note="cloning and creation from nothing disagree"),
                sample_scope(t, sample)))
        else:
            reports.append(PropertyReport(
                "prop:cloning-is-creation",
                Decision.proven(("checked", len(sample))), sample_scope(t, sample)))
    else:
        reports.append(PropertyReport(
            "prop:cloning-is-creation",
            Decision.proven(("vacuous",), note="theory is not quantity-like"),
            sample_scope(t, sample)))

    if not qual.decision.is_refuted:
        bad_pair = None
        for a in sample:
            aa = t.combine(a, a)
            for b in sample:
                d1 = t.geq(aa, b)
                d2 = t.geq(a, b)
                d3 = t.geq(a, t.combine(b, b))
                trio = (d1, d2, d3)
                if any(d.is_unknown for d in trio):
                    continue
                if len({d.is_proven for d in trio}) != 1:
                    bad_pair = (a, b)
                    break
            if bad_pair:
                break
        if bad_pair is not None:
            reports.append(PropertyReport(
                "prop:doubling-irrelevant",
                Decision.refuted(("theorem-violation",) + bad_pair,
                                 note="doubling changed convertibility in a quality-like theory"),
                sample_scope(t, sample)))
        else:
            reports.append(PropertyReport(
                "prop:doubling-irrelevant",
                Decision.proven(("checked", len(sample))), sample_scope(t, sample)))
    else:
        reports.append(PropertyReport(
            "prop:doubling-irrelevant",
            Decision.proven(("vacuous",), note="theory is not quality-like"),
            sample_scope(t, sample)))
    return reports


def sample_scope(t: TheoryOracle, sample: Sequence[Any]) -> str:
    return "exhaustive" if _is_exhaustive(t, sample) else f"sample of {len(sample)}"


def _clean_verdict(name: str, t: TheoryOracle, sample: Sequence[Any],
                   bound: int, inconclusive: int) -> PropertyReport:
    if _is_exhaustive(t, sample) and not inconclusive:
        return PropertyReport(name, Decision.proven(("exhausted", len(sample))),
                              "exhaustive")
    note = "unrefuted on sample"
    if inconclusive:
        note += f" ({inconclusive} inconclusive sub-queries)"
    return PropertyReport(name, Decision.unknown(bound, note=note),
                          sample_scope(t, sample))


# Random finite theories for stress-testing the theorem battery.

def _base_monoids(n: int) -> list[tuple[str, Any]]:
    kinds: list[tuple[str, Any]] = [
        (f"cyclic{n}", lambda a, b: (a + b) % n),
        (f"truncated-add{n}", lambda a, b: min(a + b, n - 1)),
        (f"max-chain{n}", lambda a, b: max(a, b)),
    ]
    return kinds


def _product_monoid(n: int, rng: Random) -> tuple[str, Any] | None:
    factors = [(p, n // p) for p in range(2, n) if n % p == 0 and n // p >= 2]
    if not factors:
        return None
    p, q = rng.choice(factors)
    name1, op1 = rng.choice(_base_monoids(p))
    name2, op2 = rng.choice(_base_monoids(q))

    def op(a: int, b: int) -> int:
        a1, a2 = divmod(a, q)
        b1, b2 = divmod(b, q)
        return op1(a1, b1) * q + op2(a2, b2)

    return (f"{name1}x{name2}", op)


def random_theory_table(rng: Random, size: int, density: float | None = None) -> FiniteTheoryTable:
    """A random theory passing check_axioms.

    The combine table is drawn from small commutative monoid families
    (cyclic, truncated addition, max chains, and products of these); a
    raw rejection sample over all tables has no realistic chance of
    associativity at this size.  The order starts from random pairs and
    closes under reflexivity, transitivity and compatibility.
    """
    choices = _base_monoids(size)
    prod = _product_monoid(size, rng)
    if prod is not None:
        choices = choices + [prod]
    _, op = rng.choice(choices)
    table = tuple(tuple(op(a, b) for b in range(size)) for a in range(size))

    if density is None:
        density = rng.choice([0.0, 0.05, 0.1, 0.2, 0.35])
    rel = [[a == b for b in range(size)] for a in range(size)]
    for a in range(size):
        for b in range(size):
            if a != b and rng.random() < density:
                rel[a][b] = True
    changed = True
    while changed:
        changed = False
        for a in range(size):
            for b in range(size):
                if not rel[a][b]:
                    continue
                for c in range(size):
                    if rel[b][c] and not rel[a][c]:
                        rel[a][c] = True
                        changed = True
                for c in range(size):
                    for d in range(size):
                        if rel[c][d] and not rel[table[a][c]][table[b][d]]:
                            rel[table[a][c]][table[b][d]] = True
                            changed = True
    t = FiniteTheoryTable(size, table, 0, tuple(tuple(r) for r in rel))
    violations = check_axioms(t)
    if violations:
        raise AssertionError(f"generator produced an invalid table: {violations[0]}")
    return t
