"""Monotones (order-preserving valuations) and conversion rates.

Rational-valued monotones are compared exactly; real-valued ones (the
entropy) at absolute tolerance 1e-9.  Rates are reported as the best
fraction found within caps together with the additive-monotone upper
bound, never as a claimed limit.  On a theory with `exact_order`, both
ask only what the axioms leave open: `verify_monotone` reads its pairs
through `core.order_cells`, which skips what transitivity decides, and
`rate` walks the staircase that compatibility leaves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Literal, Sequence, get_args

from .analysis import PropertyReport, sample_scope
from .core import (MAX_ENTRIES, Decision, FiniteTheoryTable, InputError, TheoryOracle, Verdict,
                   order_cells)
from .instances import (EntanglementSpectrumTheory, RandomnessTheory, VectorTheory,
                        shannon_entropy)

REAL_TOL = 1e-9

MonotoneClass = Literal["general", "additive", "supremal"]


@dataclass(frozen=True)
class Monotone:
    """Named valuation with a declared combination law.

    The declared class is a claim to be tested by `classify`, not a
    guarantee; order preservation is likewise tested by
    `verify_monotone`, never assumed.
    """

    name: str
    fn: Callable[[Any], Fraction | float]
    kind: MonotoneClass = "general"

    def __call__(self, a: Any) -> Fraction | float:
        return self.fn(a)


def _geq_values(x: Fraction | float, y: Fraction | float) -> bool:
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x >= y
    return float(x) >= float(y) - REAL_TOL


def _eq_values(x: Fraction | float, y: Fraction | float) -> bool:
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x == y
    return abs(float(x) - float(y)) <= REAL_TOL


def verify_monotone(m: Monotone, t: TheoryOracle, sample: Sequence[Any]) -> PropertyReport:
    """Check order preservation on every Proven pair of the sample.

    The pairs are read in row order through `core.order_cells`, which asks
    a theory with `exact_order` only what transitivity leaves open; the
    first violation in row order is the witness."""
    inconclusive = 0
    values = [m(a) for a in sample]
    for i, j, v in order_cells(t, sample):
        if v is Verdict.UNKNOWN:
            inconclusive += 1
        elif v is Verdict.PROVEN and not _geq_values(values[i], values[j]):
            return PropertyReport(
                f"monotone:{m.name}",
                Decision.refuted(("order-violated", sample[i], sample[j], values[i], values[j])),
                sample_scope(t, sample))
    note = "unrefuted on sample"
    if inconclusive:
        note += f" ({inconclusive} inconclusive pairs)"
    return PropertyReport(f"monotone:{m.name}",
                          Decision.unknown(0, note=note), sample_scope(t, sample))


def classify(m: Monotone, t: TheoryOracle, sample: Sequence[Any]) -> PropertyReport:
    """Test the declared combination law on all sample pairs."""
    if m.kind == "general":
        return PropertyReport(f"class:{m.name}",
                              Decision.proven(("no-law-declared",),
                                              note="general monotone; nothing to test"),
                              sample_scope(t, sample))
    values = [m(a) for a in sample]
    for a, ma in zip(sample, values):
        for b, mb in zip(sample, values):
            combined = m(t.combine(a, b))
            expected = ma + mb if m.kind == "additive" else max(ma, mb)
            if not _eq_values(combined, expected):
                return PropertyReport(
                    f"class:{m.name}",
                    Decision.refuted((f"{m.kind}-law-fails", a, b, combined, expected)),
                    sample_scope(t, sample))
    return PropertyReport(f"class:{m.name}",
                          Decision.proven((f"{m.kind}-law-holds", len(sample))),
                          sample_scope(t, sample))


def complete_family(t: FiniteTheoryTable) -> list[Monotone]:
    """Indicator monotones, one per element: 1 exactly on the up-set.

    The family is complete: a converts to b iff every member weakly
    decreases, which `complete_family_violations` re-verifies.
    """
    return [_indicator(f"indicator:{i}", t, i, "general") for i in range(t.size)]


def _indicator(name: str, t: FiniteTheoryTable, i: int, kind: MonotoneClass) -> Monotone:
    """1 on the up-set of element i (the terms that convert to i), else 0."""
    return Monotone(name, lambda a: Fraction(1) if t.order[a][i] else Fraction(0), kind)


def complete_family_violations(t: FiniteTheoryTable,
                               family: Sequence[Monotone]) -> list[tuple[int, int]]:
    bad = []
    for a in range(t.size):
        for b in range(t.size):
            dominated = all(_geq_values(m(a), m(b)) for m in family)
            if dominated != t.order[a][b]:
                bad.append((a, b))
    return bad


@dataclass(frozen=True)
class RateResult:
    """Best copy-exchange ratio found within caps.

    `best` is the largest m/n with n copies of the source yielding m
    copies of the target (0 when no pair converts); `upper_bound` the
    least additive-monotone bound when monotones were supplied; `exact`
    is set when the two coincide.
    """

    best: Fraction
    witness: tuple[int, int] | None
    upper_bound: Fraction | float | None
    exact: bool
    caps: int
    inconclusive: int

    def __str__(self) -> str:
        parts = [f"best m/n = {self.best}"]
        if self.witness:
            parts.append(f"witness n={self.witness[0]}, m={self.witness[1]}")
        if self.upper_bound is not None:
            parts.append(f"upper bound {self.upper_bound}")
        parts.append("exact" if self.exact else f"at caps {self.caps}")
        return "; ".join(parts)


def rate(t: TheoryOracle, a: Any, b: Any, caps: int,
         monotones: Sequence[Monotone] = ()) -> RateResult:
    """The largest ratio m/n, for copy counts n and m up to caps, with n
    copies of a converting to m copies of b.

    The witness is the first such (n, m) in row order: the largest ratio at
    the smallest n.  When the theory has `exact_order` and both a and b
    convert to zero, compatibility decides most cells: n*a -> m*b gives
    n*a -> m'*b for m' <= m (drop copies of b) and (n+1)*a -> m*b (add
    a copy of a).  The convertible m of each row are then 1 up to some M(n),
    and M never falls as n grows, so the scan walks that staircase: each
    row starts at the last row's M and asks up to its first cell that does
    not convert, at most 2*caps questions in all, and finds the full scan's
    witness.  Otherwise every (n, m) is asked.  Results are monotone in caps.
    """
    if caps < 1:
        raise InputError("caps must be at least 1")
    if caps * caps > MAX_ENTRIES:
        raise InputError(f"caps {caps}: the scan asks {caps * caps} questions, beyond the "
                         f"limit of {MAX_ENTRIES} entries")
    best: Fraction | None = None
    witness = None
    inconclusive = 0
    # copies_a[n - 1] is n copies of a, built as ((a+a)+a)+...
    copies_a = list(itertools.accumulate([a] * caps, t.combine))
    copies_b = list(itertools.accumulate([b] * caps, t.combine))
    if t.exact_order and t.geq(a, t.zero()).is_proven and t.geq(b, t.zero()).is_proven:
        top = 0  # M of the last row: n*a -> m*b exactly for m <= top
        for n in range(1, caps + 1):
            while top < caps and t.geq(copies_a[n - 1], copies_b[top]).is_proven:
                top += 1
            if top and (best is None or Fraction(top, n) > best):
                best, witness = Fraction(top, n), (n, top)
    else:
        for n in range(1, caps + 1):
            for m in range(1, caps + 1):
                d = t.geq(copies_a[n - 1], copies_b[m - 1])
                if d.is_unknown:
                    inconclusive += 1
                    continue
                if d.is_proven:
                    ratio = Fraction(m, n)
                    if best is None or ratio > best:
                        best, witness = ratio, (n, m)
    upper = None
    for mono in monotones:
        if mono.kind != "additive":
            continue
        bound = rate_upper_bound(mono, a, b)
        if upper is None or not _geq_values(bound, upper):
            upper = bound
    found = best if best is not None else Fraction(0)
    exact = best is not None and upper is not None and _eq_values(best, upper)
    return RateResult(found, witness, upper, exact, caps, inconclusive)


def rate_upper_bound(m: Monotone, a: Any, b: Any) -> Fraction | float:
    """Value ratio M(a)/M(b) for an additive monotone; infinite when the
    target carries no value.  Only meaningful once `classify` has
    confirmed additivity on the relevant sample."""
    if m.kind != "additive":
        raise InputError(f"rate bound needs an additive monotone, got {m.kind!r}")
    va, vb = m(a), m(b)
    if vb == 0:
        return math.inf
    if isinstance(va, Fraction) and isinstance(vb, Fraction):
        return va / vb
    return float(va) / float(vb)


def entropy_monotone() -> Monotone:
    return Monotone("entropy", shannon_entropy, "additive")


def component_monotone(k: int, kind: MonotoneClass) -> Monotone:
    return Monotone(f"component:{k}", lambda v: Fraction(v[k]), kind)


def normalize_supremal(m: Monotone, t: TheoryOracle) -> Monotone:
    """Shift a supremal monotone so the zero term gets value 0; the same
    impossible conversions stay witnessed."""
    base = m(t.zero())
    if base == 0:
        return m
    return Monotone(m.name, lambda a: m(a) - base, m.kind)


def builtin_monotone(name: str, kind: str, t: TheoryOracle) -> Monotone:
    """Resolve a monotone declaration against its theory: 'entropy' on
    randomness and entanglement theories, 'component:k' on vector
    theories, 'indicator:i' on finite tables, with the index in range.
    The class must be general, additive or supremal."""
    if kind not in get_args(MonotoneClass):
        raise InputError(f"monotone class must be general, additive or supremal, got {kind!r}")
    family, _, raw = name.partition(":")

    def index(size: int) -> int:
        try:
            i = int(raw)
        except ValueError:
            raise InputError(f"{family} index must be an integer, got {raw!r}") from None
        if not 0 <= i < size:
            raise InputError(f"{family} index {i} out of range")
        return i

    if name == "entropy":
        if not isinstance(t, (RandomnessTheory, EntanglementSpectrumTheory)):
            raise InputError("the entropy monotone needs a randomness or entanglement theory")
        m = Monotone("entropy", shannon_entropy, kind)
    elif name.startswith("component:"):
        if not isinstance(t, VectorTheory):
            raise InputError("component monotones need a vector theory")
        m = component_monotone(index(t.arity), kind)
    elif name.startswith("indicator:"):
        if not isinstance(t, FiniteTheoryTable):
            raise InputError("indicator monotones need a finite table theory")
        m = _indicator(name, t, index(t.size), kind)
    else:
        raise InputError(f"unknown monotone {name!r}")
    if kind == "supremal":
        m = normalize_supremal(m, t)
    return m
