"""Property analyzers for theories of resource convertibility.

Analyzers never promote a bounded search to a theory-level claim: Proven
is reported only when the term domain is finite and exhausted, otherwise
a clean sample yields Unknown with an "unrefuted on sample" note.
Unknown answers from the underlying oracle are propagated as
inconclusive, never as evidence either way.

Each analyzer asks many `geq` questions twice or more, so each public
entry (the five `check_*` and `cross_check_theorems`) wraps its theory in
one `core.QueryMemo` and asks it instead.  The memo answers with verdicts:
every witness an analyzer reports is built from terms, never from a
theory's witness.  The memo lives for that one call:
`cross_check_theorems` hands its memo to the checks it runs, and the CLI's
`properties` command shares one across its five checks, but nothing is
kept between calls and no state is global.

The sum-law checks (quantity-like, non-interacting, catalysis-free) build
the sample's sum table once per call, n^2 `combine`s with the positions of
each distinct sum, and ask every later question per distinct sum rather
than per sample tuple.  They decide each instance from verdicts already
asked where they can: quantity-like from a table of verdicts between
sample positions, non-interacting from per-position columns of split
verdicts, extended only as far as a split-by-split scan would ask.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from random import Random
from typing import Any, Iterable, Sequence

from .core import (MAX_ENTRIES, Decision, FiniteTheoryTable, InputError, QueryMemo,
                   TheoryOracle, Verdict, check_axioms)


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
    if isinstance(t, QueryMemo):
        t = t.theory
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


def _sum_table(t: TheoryOracle, sample: Sequence[Any]) -> tuple[list[Any], dict[Any, list[int]]]:
    """The sample's sums and where each distinct sum occurs.

    Position k = i*n + j holds `t.combine(sample[i], sample[j])`, in the
    order of `itertools.product(sample, repeat=2)`; the dict lists, per
    distinct sum in order of first occurrence, its positions in increasing
    order.
    """
    sums = [t.combine(x, y) for x, y in itertools.product(sample, repeat=2)]
    where: dict[Any, list[int]] = {}
    for k, s in enumerate(sums):
        where.setdefault(s, []).append(k)
    return sums, where


def check_catalysis_free(t: TheoryOracle, sample: Sequence[Any],
                         bound: int = 0) -> PropertyReport:
    """Catalysis-free: a+c converts to b+c only when a converts to b."""
    t = QueryMemo.of(t)
    def outcomes():
        n = len(sample)
        sums, _ = _sum_table(t, sample)
        plus = [sums[i * n:(i + 1) * n] for i in range(n)]
        for (a, a_plus), (b, b_plus) in itertools.product(zip(sample, plus), repeat=2):
            base = t.geq(a, b)
            if base is Verdict.UNKNOWN:
                yield Verdict.UNKNOWN
            if base is not Verdict.REFUTED:
                continue
            for c, ac, bc in zip(sample, a_plus, b_plus):
                lifted = t.geq(ac, bc)
                if lifted is Verdict.PROVEN:
                    yield Decision.refuted(("catalyst-triple", a, b, c))
                if lifted is Verdict.UNKNOWN:
                    yield Verdict.UNKNOWN
    return _property("catalysis-free", t, sample, bound, outcomes())


def check_non_interacting(t: TheoryOracle, sample: Sequence[Any],
                          bound: int = 0) -> PropertyReport:
    """Every conversion onto a combined pair splits into two conversions.

    Refuted requires a complete decomposition enumeration from the
    theory; with only a sampled search a missing split stays Unknown.
    The splits of each a are listed once, on its first Proven top query.
    For each sample position b, the verdicts of a1 -> b and of a2 -> b
    down the split list are kept as a column: proven and unknown bits up
    to a frontier.  A triple (a, b1, b2) fits when its two columns share
    a proven bit; otherwise both are extended one split at a time until
    one fits or the list ends, so the theory is asked exactly the splits
    a scan from the first split to the first fitting one asks.
    """
    t = QueryMemo.of(t)

    def fits(column: list[int], parts: list[Any], b: Any, i: int) -> int:
        """Bit i of the column's proven bits, asking part i -> b when i is
        the column's frontier."""
        if column[2] == i:
            v = t.geq(parts[i], b)
            if v is Verdict.PROVEN:
                column[0] |= 1 << i
            elif v is Verdict.UNKNOWN:
                column[1] |= 1 << i
            column[2] = i + 1
        return column[0] >> i & 1

    def outcomes():
        n = len(sample)
        _, where = _sum_table(t, sample)
        for a in sample:
            onto = []
            for s, ks in where.items():
                top = t.geq(a, s)
                if top is Verdict.UNKNOWN:
                    yield from itertools.repeat(Verdict.UNKNOWN, len(ks))
                if top is Verdict.PROVEN:
                    onto += ks
            if not onto:
                continue
            decomps = t.decompositions(a)
            complete = decomps is not None
            if decomps is None:
                decomps = [(sample[k // n], sample[k % n]) for k in sorted(
                    k for s, ks in where.items()
                    if t.equivalent(s, a) is Verdict.PROVEN for k in ks)]
            firsts = [a1 for a1, _ in decomps]
            seconds = [a2 for _, a2 in decomps]
            # [proven bits, unknown bits, frontier] of a1 -> b and of a2 -> b
            lefts = [[0, 0, 0] for _ in sample]
            rights = [[0, 0, 0] for _ in sample]
            for k in sorted(onto):
                j1, j2 = divmod(k, n)
                left, right = lefts[j1], rights[j2]
                if left[0] & right[0]:
                    continue
                b1, b2 = sample[j1], sample[j2]
                for i in range(min(left[2], right[2]), len(decomps)):
                    if fits(left, firsts, b1, i) & fits(right, seconds, b2, i):
                        break
                else:
                    yield (Decision.refuted(("no-split", a, b1, b2))
                           if complete and not left[1] | right[1] else Verdict.UNKNOWN)
    return _property("non-interacting", t, sample, bound, outcomes())


def check_quantity_like(t: TheoryOracle, sample: Sequence[Any],
                        bound: int = 0) -> PropertyReport:
    """Conservation of value: equal combinations with one side dominating
    force the complementary domination.

    The instances are the pairs (a1+a2, b1+b2) of sample sums, row by row
    in sum-table order.  Each unordered pair of distinct sums is compared
    once (the verdict of `equivalent` is symmetric).  A row's proven
    partners, in table order, fall into runs of equal b1, so a1 -> b1 is
    asked once per run.  Every `geq` asked here is between sample terms,
    so its verdict is kept in an n x n table by position, read first and
    filled through the memo.
    """
    t = QueryMemo.of(t)
    def outcomes():
        n = len(sample)
        sums, where = _sum_table(t, sample)
        # into[j][q]: the verdict of sample[q] -> sample[j], asked on first read
        into: list[list[Verdict | None]] = [[None] * n for _ in sample]
        verdicts: dict[tuple[Any, Any], Verdict] = {}
        rows: dict[Any, tuple[int, list[tuple[int, list[int]]]]] = {}
        for k, a in enumerate(sums):
            row = rows.get(a)
            if row is None:
                unknown, partners = 0, []
                for b, ks in where.items():
                    eq = verdicts.get((b, a))
                    if eq is None:
                        eq = verdicts[a, b] = t.equivalent(a, b)
                    if eq is Verdict.UNKNOWN:
                        unknown += len(ks)
                    if eq is Verdict.PROVEN:
                        partners += ks
                runs = [(b1, [q % n for q in run])
                        for b1, run in itertools.groupby(sorted(partners), lambda q: q // n)]
                row = rows[a] = unknown, runs
            unknown, runs = row
            yield from itertools.repeat(Verdict.UNKNOWN, unknown)
            i, j = divmod(k, n)
            a1, a2, to_a2 = sample[i], sample[j], into[j]
            for b1, b2s in runs:
                d = into[b1][i]
                if d is None:
                    d = into[b1][i] = t.geq(a1, sample[b1])
                if d is Verdict.UNKNOWN:
                    yield from itertools.repeat(Verdict.UNKNOWN, len(b2s))
                if d is not Verdict.PROVEN:
                    continue
                for b2 in b2s:
                    back = to_a2[b2]
                    if back is None:
                        back = to_a2[b2] = t.geq(sample[b2], a2)
                    if back is Verdict.REFUTED:
                        yield Decision.refuted(("quadruple", a1, a2, sample[b1], sample[b2]))
                    if back is Verdict.UNKNOWN:
                        yield Verdict.UNKNOWN
    return _property("quantity-like", t, sample, bound, outcomes())


def check_quality_like(t: TheoryOracle, sample: Sequence[Any],
                       bound: int = 0) -> PropertyReport:
    """Idempotence: a combined with itself is interconvertible with a."""
    t = QueryMemo.of(t)
    def outcomes():
        for a in sample:
            eq = t.equivalent(t.combine(a, a), a)
            if eq is Verdict.REFUTED:
                yield Decision.refuted(("not-idempotent", a))
            if eq is Verdict.UNKNOWN:
                yield Verdict.UNKNOWN
    return _property("quality-like", t, sample, bound, outcomes())


def check_waste_free(t: TheoryOracle, sample: Sequence[Any],
                     bound: int = 0) -> PropertyReport:
    """Every sampled term disposes of itself: a converts to zero.

    When that holds everywhere, the derived whole-covers-part law
    (a+b converts to a) is asserted on sample pairs; a failure there is
    flagged as a theorem violation, i.e. an implementation bug.
    """
    t = QueryMemo.of(t)
    def outcomes():
        z = t.zero()
        disposable = True
        for a in sample:
            d = t.geq(a, z)
            if d is Verdict.REFUTED:
                yield Decision.refuted(("not-disposable", a))
            if d is Verdict.UNKNOWN:
                disposable = False
                yield Verdict.UNKNOWN
        if disposable:
            for a, b in itertools.product(sample, repeat=2):
                if t.geq(t.combine(a, b), a) is Verdict.REFUTED:
                    yield Decision.refuted(("whole-covers-part-fails", a, b),
                                           note="theorem violation: disposability held")
    return _property("waste-free", t, sample, bound, outcomes())


def cross_check_theorems(t: TheoryOracle, sample: Sequence[Any],
                         bound: int = 0) -> list[PropertyReport]:
    """Executable forms of the structural theorems.

    (i) non-interacting + quantity-like forbid catalysis; (ii) in
    quantity-like theories cloning a term is the same as creating it
    from nothing; (iii) in quality-like theories doubling either side of
    a conversion changes nothing.  A Refuted entry here means the
    implementation violated a theorem, not a property of the theory.
    """
    t = QueryMemo.of(t)
    ni = check_non_interacting(t, sample, bound)
    ql = check_quantity_like(t, sample, bound)
    qual = check_quality_like(t, sample, bound)
    cf = check_catalysis_free(t, sample, bound)
    checked = Decision.proven(("checked", len(sample)))

    hypotheses_hold = not ni.decision.is_refuted and not ql.decision.is_refuted
    if hypotheses_hold and cf.decision.is_refuted:
        no_catalysis = Decision.refuted(
            ("theorem-violation", cf.decision.witness),
            note="non-interacting and quantity-like yet a catalyst exists")
    else:
        no_catalysis = Decision.proven(
            ("checked", len(sample)),
            note=None if hypotheses_hold else "hypotheses not satisfied; vacuous")

    if ql.decision.is_refuted:
        cloning = Decision.proven(("vacuous",), note="theory is not quantity-like")
    else:
        z = t.zero()
        bad = next((a for a in sample
                    if _disagree(t.geq(a, t.combine(a, a)), t.geq(z, a))), None)
        cloning = checked if bad is None else Decision.refuted(
            ("theorem-violation", bad), note="cloning and creation from nothing disagree")

    if qual.decision.is_refuted:
        doubling = Decision.proven(("vacuous",), note="theory is not quality-like")
    else:
        bad_pair = next(((a, b) for a in sample for b in sample
                         if _disagree(t.geq(t.combine(a, a), b), t.geq(a, b),
                                      t.geq(a, t.combine(b, b)))), None)
        doubling = checked if bad_pair is None else Decision.refuted(
            ("theorem-violation",) + bad_pair,
            note="doubling changed convertibility in a quality-like theory")

    scope = sample_scope(t, sample)
    return [ni, ql, qual, cf] + [
        PropertyReport(name, d, scope)
        for name, d in (("thm:no-catalysis-criterion", no_catalysis),
                        ("prop:cloning-is-creation", cloning),
                        ("prop:doubling-irrelevant", doubling))]


def _disagree(*verdicts: Verdict) -> bool:
    """Definite answers that differ; an Unknown among them settles nothing."""
    return Verdict.UNKNOWN not in verdicts and verdicts.count(verdicts[0]) != len(verdicts)


def sample_scope(t: TheoryOracle, sample: Sequence[Any]) -> str:
    return "exhaustive" if _is_exhaustive(t, sample) else f"sample of {len(sample)}"


def _property(name: str, t: TheoryOracle, sample: Sequence[Any], bound: int,
              outcomes: Iterable[Decision | Verdict]) -> PropertyReport:
    """The verdict rule shared by the property analyzers.

    `outcomes` yields, instance by instance, a refuting Decision or
    Verdict.UNKNOWN for an inconclusive sub-query.  The first refutation
    is the verdict.  Otherwise an exhausted finite carrier with no
    inconclusive sub-query is Proven, and anything else is Unknown with
    the count.
    """
    inconclusive = 0
    for outcome in outcomes:
        if outcome is Verdict.UNKNOWN:
            inconclusive += 1
        else:
            return PropertyReport(name, outcome, sample_scope(t, sample))
    if _is_exhaustive(t, sample) and not inconclusive:
        return PropertyReport(name, Decision.proven(("exhausted", len(sample))),
                              "exhaustive")
    note = "unrefuted on sample"
    if inconclusive:
        note += f" ({inconclusive} inconclusive sub-queries)"
    return PropertyReport(name, Decision.unknown(bound, note=note),
                          sample_scope(t, sample))


# Random finite theories for stress-testing the theorem battery.

def _base_monoids(n: int) -> list[Any]:
    return [lambda a, b: (a + b) % n,         # cyclic
            lambda a, b: min(a + b, n - 1),   # truncated addition
            lambda a, b: max(a, b)]           # max chain


def _product_monoid(n: int, rng: Random) -> Any | None:
    factors = [(p, n // p) for p in range(2, n) if n % p == 0 and n // p >= 2]
    if not factors:
        return None
    p, q = rng.choice(factors)
    op1 = rng.choice(_base_monoids(p))
    op2 = rng.choice(_base_monoids(q))

    def op(a: int, b: int) -> int:
        a1, a2 = divmod(a, q)
        b1, b2 = divmod(b, q)
        return op1(a1, b1) * q + op2(a2, b2)

    return op


def random_theory_table(rng: Random, size: int, density: float | None = None) -> FiniteTheoryTable:
    """A random theory passing check_axioms.

    The combine table is drawn from small commutative monoid families
    (cyclic, truncated addition, max chains, and products of these); a
    raw rejection sample over all tables has no realistic chance of
    associativity at this size.  The order starts from random pairs and
    closes under reflexivity, transitivity and compatibility.  Both that
    closure and the axiom check take about size^4 steps, so a size whose
    fourth power passes `MAX_ENTRIES` (32 and up) is refused before drawing.
    """
    if size ** 4 > MAX_ENTRIES:
        raise InputError(f"random table size {size}: {size ** 4} compatibility entries "
                         f"(size^4), beyond the limit of {MAX_ENTRIES} entries")
    choices = _base_monoids(size)
    prod = _product_monoid(size, rng)
    if prod is not None:
        choices = choices + [prod]
    op = rng.choice(choices)
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
    violations = check_axioms(t, range(size))
    if violations:
        raise AssertionError(f"generator produced an invalid table: {violations[0]}")
    return t
