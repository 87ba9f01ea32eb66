"""Monotones (order-preserving valuations) and conversion rates.

Rational-valued monotones are compared exactly; real-valued ones (the
entropy) at absolute tolerance 1e-9.  Rates are reported as the best
fraction found within caps together with the additive-monotone upper
bound, never as a claimed limit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Literal, Sequence

from .analysis import PropertyReport, sample_scope
from .core import Decision, FiniteTheoryTable, InputError, TheoryOracle, replicate
from .instances import shannon_entropy

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
    """Check order preservation on every Proven pair of the sample."""
    inconclusive = 0
    for a in sample:
        for b in sample:
            d = t.geq(a, b)
            if d.is_unknown:
                inconclusive += 1
                continue
            if d.is_proven and not _geq_values(m(a), m(b)):
                return PropertyReport(
                    f"monotone:{m.name}",
                    Decision.refuted(("order-violated", a, b, m(a), m(b))),
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
    for a in sample:
        for b in sample:
            combined = m(t.combine(a, b))
            expected: Fraction | float
            if m.kind == "additive":
                expected = m(a) + m(b)
            else:
                expected = max(m(a), m(b))
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

    `best` is the extremal m/n with n copies of the source yielding m
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
         monotones: Sequence[Monotone] = (),
         cache: dict[tuple[int, int], Decision] | None = None,
         minimal: bool = False) -> RateResult:
    """Scan all copy counts n, m up to caps for conversions n*a -> m*b.

    Reports the supremal (or, with minimal=True, infimal) ratio found.
    A cache dict may be shared across calls with growing caps; results
    are monotone in caps.
    """
    if caps < 1:
        raise InputError("caps must be at least 1")
    if cache is None:
        cache = {}
    best: Fraction | None = None
    witness = None
    inconclusive = 0
    # copies_a[n - 1] is n copies of a, built as ((a+a)+a)+...
    copies_a = list(itertools.accumulate([a] * caps, t.combine))
    copies_b = list(itertools.accumulate([b] * caps, t.combine))
    for n in range(1, caps + 1):
        for m in range(1, caps + 1):
            if (n, m) not in cache:
                cache[(n, m)] = t.geq(copies_a[n - 1], copies_b[m - 1])
            d = cache[(n, m)]
            if d.is_unknown:
                inconclusive += 1
                continue
            if d.is_proven:
                ratio = Fraction(m, n)
                better = best is None or (ratio < best if minimal else ratio > best)
                if better:
                    best, witness = ratio, (n, m)
    upper = None
    for mono in monotones:
        if mono.kind != "additive":
            continue
        bound = rate_upper_bound(mono, a, b)
        if upper is None or not _geq_values(bound, upper):
            upper = bound
    found = best if best is not None else Fraction(0)
    exact = best is not None and upper is not None and not minimal \
        and _eq_values(best, upper)
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


def find_activation(t: TheoryOracle, a: Any, b: Any, caps: int) -> Decision:
    """Search for copy counts where conversion fails at k copies but
    succeeds at n > k copies.  No instance ships with the package; the
    search is exposed for experimentation."""
    failing: list[int] = []
    inconclusive = 0
    for n in range(1, caps + 1):
        d = t.geq(replicate(t, n, a), replicate(t, n, b))
        if d.is_proven and failing:
            return Decision.proven(("activation", failing[0], n))
        if d.is_refuted:
            failing.append(n)
        if d.is_unknown:
            inconclusive += 1
    if inconclusive:
        return Decision.unknown(caps, note=f"{inconclusive} copy counts inconclusive")
    return Decision.refuted(("no-activation-up-to", caps))


def entropy_monotone() -> Monotone:
    return Monotone("entropy", lambda p: shannon_entropy(p), "additive")


def component_monotone(k: int, kind: MonotoneClass) -> Monotone:
    return Monotone(f"component:{k}", lambda v: Fraction(v[k]), kind)


def normalize_supremal(m: Monotone, t: TheoryOracle) -> Monotone:
    """Shift a supremal monotone so the zero term gets value 0; the same
    impossible conversions stay witnessed."""
    base = m(t.zero())
    if base == 0:
        return m
    return Monotone(m.name, lambda a: m(a) - base, m.kind)


def builtin_monotone(name: str, kind: MonotoneClass, t: TheoryOracle) -> Monotone:
    """Resolve a monotone declaration: 'entropy', 'component:k', or
    'indicator:i' (the latter only on finite tables)."""
    if name == "entropy":
        m = Monotone("entropy", lambda p: shannon_entropy(p), kind)
    elif name.startswith("component:"):
        m = component_monotone(int(name.split(":", 1)[1]), kind)
    elif name.startswith("indicator:"):
        if not isinstance(t, FiniteTheoryTable):
            raise InputError("indicator monotones need a finite table theory")
        i = int(name.split(":", 1)[1])
        if not 0 <= i < t.size:
            raise InputError(f"indicator index {i} out of range")
        m = _indicator(name, t, i, kind)
    else:
        raise InputError(f"unknown monotone {name!r}")
    if kind == "supremal":
        m = normalize_supremal(m, t)
    return m
