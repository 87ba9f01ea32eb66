"""Concrete theories: count vectors, exact probability vectors and
spectra, plus a convenience query for multiset rewrite systems (whose
theory is `presentation.MultisetTheory`).

All decision procedures are exact over rationals; nothing here compares
floats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import log2
from typing import Iterable, Literal, Sequence

from .core import Decision, InputError, TheoryOracle
from .presentation import Multiset, MultisetTheory, ms_make

Vector = tuple[int, ...]


@dataclass(frozen=True)
class VectorTheory(TheoryOracle):
    """Tuples of non-negative integers ordered componentwise.

    Additive mode combines by componentwise sum (extensive goods, e.g.
    pantry stock); supremal mode combines by componentwise max (levels,
    e.g. skill grades).  Both share the same order and zero.
    """

    arity: int
    mode: Literal["additive", "supremal"]

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise InputError("arity must be positive")
        if self.mode not in ("additive", "supremal"):
            raise InputError(f"unknown mode {self.mode!r}")

    def validate_term(self, a: Vector) -> None:
        if len(a) != self.arity or any(x < 0 or not isinstance(x, int) for x in a):
            raise InputError(f"term {a!r} is not a length-{self.arity} vector of naturals")

    def combine(self, a: Vector, b: Vector) -> Vector:
        if self.mode == "additive":
            return tuple(x + y for x, y in zip(a, b))
        return tuple(max(x, y) for x, y in zip(a, b))

    def zero(self) -> Vector:
        return (0,) * self.arity

    def geq(self, a: Vector, b: Vector) -> Decision:
        self.validate_term(a)
        self.validate_term(b)
        for k, (x, y) in enumerate(zip(a, b)):
            if x < y:
                return Decision.refuted(("component", k, x, y))
        return Decision.proven(("componentwise", a, b))

    def enumerate_up_to(self, bound: int) -> list[Vector]:
        return [tuple(v) for v in itertools.product(range(bound + 1), repeat=self.arity)]

    def decompositions(self, a: Vector) -> list[tuple[Vector, Vector]]:
        # Complete: all splittings per component.
        if self.mode == "additive":
            per = [[(i, x - i) for i in range(x + 1)] for x in a]
        else:
            per = [[(i, j) for i in range(x + 1) for j in range(x + 1) if max(i, j) == x]
                   for x in a]
        out = []
        for choice in itertools.product(*per):
            out.append((tuple(c[0] for c in choice), tuple(c[1] for c in choice)))
        return out

    def format_term(self, a: Vector) -> str:
        return "(" + ",".join(map(str, a)) + ")"


@dataclass(frozen=True)
class ProbVector:
    """Probability distribution on a finite set, exact rational entries."""

    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise InputError("probability vector must be non-empty")
        if any(p < 0 for p in self.entries):
            raise InputError("probabilities must be non-negative")
        if sum(self.entries) != 1:
            raise InputError(f"probabilities must sum to 1, got {sum(self.entries)}")

    @staticmethod
    def of(*values) -> "ProbVector":
        return ProbVector(tuple(Fraction(v) for v in values))

    @staticmethod
    def uniform(n: int) -> "ProbVector":
        return ProbVector((Fraction(1, n),) * n)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def tensor(self, other: "ProbVector") -> "ProbVector":
        return ProbVector(tuple(p * q for p in self.entries for q in other.entries))

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.entries) + ")"


def shannon_entropy(p: ProbVector) -> float:
    return -sum(float(x) * log2(float(x)) for x in p.entries if x != 0)


def majorizes(x: ProbVector | Sequence[Fraction], y: ProbVector | Sequence[Fraction]) -> bool:
    """Do the sorted-descending partial sums of x dominate those of y?

    Vectors of different lengths are zero-padded to the longer one.
    """
    xs = list(x.entries if isinstance(x, ProbVector) else x)
    ys = list(y.entries if isinstance(y, ProbVector) else y)
    n = max(len(xs), len(ys))
    xs += [Fraction(0)] * (n - len(xs))
    ys += [Fraction(0)] * (n - len(ys))
    xs.sort(reverse=True)
    ys.sort(reverse=True)
    sx = sy = Fraction(0)
    for a, b in zip(xs, ys):
        sx += a
        sy += b
        if sx < sy:
            return False
    return True


def deterministic_convertible(p: ProbVector, q: ProbVector) -> Decision:
    """Search for a coarse-graining function sending p to q exactly.

    Proven with a partition of p's indices whose block sums are q's
    entries; Refuted after exhausting all assignments.  Backtracking
    assigns the largest entries first and prunes on block overshoot.
    Worst case is exponential; intended for vectors of length <= 12.
    """
    if not isinstance(p, ProbVector) or not isinstance(q, ProbVector):
        raise InputError("both arguments must be probability vectors")
    order = sorted(range(len(p)), key=lambda i: p[i], reverse=True)
    n, k = len(order), len(q)
    sums = [Fraction(0)] * k
    assign = [-1] * n
    # Explicit-stack backtracking; vectors can be long (copy tensors), so
    # recursion depth must not scale with len(p).
    cursor = [0] * (n + 1)
    tried: list[set] = [set() for _ in range(n + 1)]
    pos = 0
    solved = False
    while pos >= 0:
        if pos == n:
            solved = all(s == t for s, t in zip(sums, q.entries))
            if solved:
                break
            pos -= 1
            sums[assign[pos]] -= p[order[pos]]
            continue
        i = order[pos]
        j = cursor[pos]
        moved = False
        while j < k:
            key = (sums[j], q[j])
            # blocks in interchangeable states need only one attempt
            if key not in tried[pos] and sums[j] + p[i] <= q[j]:
                tried[pos].add(key)
                cursor[pos] = j + 1
                sums[j] += p[i]
                assign[pos] = j
                pos += 1
                cursor[pos] = 0
                tried[pos] = set()
                moved = True
                break
            j += 1
        if not moved:
            pos -= 1
            if pos >= 0:
                sums[assign[pos]] -= p[order[pos]]

    if solved:
        blocks: list[list[int]] = [[] for _ in q.entries]
        for i, j in zip(order, assign):
            blocks[j].append(i)
        witness = tuple(tuple(sorted(b)) for b in blocks)
        return Decision.proven(("partition", witness))
    return Decision.refuted(("exhausted-partition-search", len(p), len(q)))


@dataclass(frozen=True)
class RandomnessTheory(TheoryOracle):
    """Distributions under exact coarse-graining; combine is the product
    distribution and the order is decided by partition search."""

    def combine(self, a: ProbVector, b: ProbVector) -> ProbVector:
        return a.tensor(b)

    def zero(self) -> ProbVector:
        return ProbVector.of(1)

    def geq(self, a: ProbVector, b: ProbVector) -> Decision:
        return deterministic_convertible(a, b)

    def enumerate_up_to(self, bound: int) -> list[ProbVector]:
        return enumerate_prob_vectors(max_len=bound, max_den=bound)

    def format_term(self, a: ProbVector) -> str:
        return str(a)


def enumerate_prob_vectors(max_len: int, max_den: int) -> list[ProbVector]:
    """All rational distributions with length <= max_len and a common
    denominator <= max_den, deduplicated, in a deterministic order."""
    seen: set[tuple[Fraction, ...]] = set()
    out: list[ProbVector] = []
    for length in range(1, max_len + 1):
        for den in range(1, max_den + 1):
            for comp in _compositions(den, length):
                entries = tuple(Fraction(k, den) for k in comp)
                if entries not in seen:
                    seen.add(entries)
                    out.append(ProbVector(entries))
    out.sort(key=lambda v: (len(v), v.entries))
    return out


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class EntanglementSpectrumTheory(TheoryOracle):
    """Schmidt/eigenvalue spectra of pure bipartite states.

    combine tensors spectra; a spectrum converts into another exactly
    when the target majorizes the source (the standard partial-sum
    criterion for pure-state transformations under local processing).
    """

    def combine(self, a: ProbVector, b: ProbVector) -> ProbVector:
        return a.tensor(b)

    def zero(self) -> ProbVector:
        return ProbVector.of(1)

    def geq(self, a: ProbVector, b: ProbVector) -> Decision:
        if majorizes(b, a):
            return Decision.proven(("majorization", a.entries, b.entries))
        return Decision.refuted(("majorization-fails", _first_bad_prefix(b, a)))

    def enumerate_up_to(self, bound: int) -> list[ProbVector]:
        return enumerate_prob_vectors(max_len=bound, max_den=bound)

    def format_term(self, a: ProbVector) -> str:
        return str(a)


def _first_bad_prefix(x: ProbVector, y: ProbVector) -> tuple[int, Fraction, Fraction]:
    n = max(len(x), len(y))
    xs = sorted(list(x.entries) + [Fraction(0)] * (n - len(x)), reverse=True)
    ys = sorted(list(y.entries) + [Fraction(0)] * (n - len(y)), reverse=True)
    sx = sy = Fraction(0)
    for k in range(n):
        sx += xs[k]
        sy += ys[k]
        if sx < sy:
            return (k + 1, sx, sy)
    raise AssertionError("no failing prefix; majorization holds")


def entanglement_convertible(s: ProbVector, t: ProbVector) -> bool:
    """Can a pure state with spectrum s be turned into one with spectrum t?"""
    return majorizes(t, s)


def reaction_convertible(a: Multiset | dict, b: Multiset | dict,
                         t: MultisetTheory, bound: int | None = None) -> Decision:
    """Reachability between species multisets under the theory's rules."""
    ma = ms_make(a) if isinstance(a, dict) else a
    mb = ms_make(b) if isinstance(b, dict) else b
    theory = t if bound is None else replace(t, bound=bound)
    return theory.geq(ma, mb)
