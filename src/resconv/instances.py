"""Concrete theories: count vectors, exact probability vectors and
spectra.  Multiset rewrite systems are `presentation.MultisetTheory`.

All decision procedures are exact over rationals; nothing here compares
floats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log2
from typing import Iterable, Literal

from .core import Decision, InputError, TheoryOracle
from .linalg import common_denominator

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
        # the types first, so 5 and ("a", 1) are no TypeError; bool is a subclass of int
        if not isinstance(a, tuple) or len(a) != self.arity \
                or not all(type(x) is int and x >= 0 for x in a):
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


def majorizes(x: ProbVector, y: ProbVector) -> bool:
    """Do the sorted-descending partial sums of x dominate those of y?

    Vectors of different lengths are zero-padded to the longer one.
    """
    return _first_bad_prefix(x, y) is None


def _first_bad_prefix(x: ProbVector, y: ProbVector) -> tuple[int, Fraction, Fraction] | None:
    """The first prefix length k, with the partial sums of x and y, at which
    x's sorted-descending partial sum falls below y's; None if none does."""
    xs = list(x.entries)
    ys = list(y.entries)
    n = max(len(xs), len(ys))
    xs += [Fraction(0)] * (n - len(xs))
    ys += [Fraction(0)] * (n - len(ys))
    xs.sort(reverse=True)
    ys.sort(reverse=True)
    sx = sy = Fraction(0)
    for k, (a, b) in enumerate(zip(xs, ys), start=1):
        sx += a
        sy += b
        if sx < sy:
            return (k, sx, sy)
    return None


def deterministic_convertible(p: ProbVector, q: ProbVector) -> Decision:
    """Search for a coarse-graining function sending p to q exactly.

    Proven with a partition of p's indices whose block sums are q's
    entries; Refuted after exhausting all assignments.  Backtracking
    assigns the largest entries first and prunes on block overshoot.  It
    refutes without searching when p's largest entry exceeds q's, when p
    has fewer nonzero entries than q (every nonzero entry of q needs its
    own nonzero entry of p), or when an entry of q is not a multiple of
    the gcd of p's entries, which divides every block sum.  Equal entries
    are placed in non-decreasing block order, so permutations of them are
    tried once; the partition found is still the first in assignment
    order, since swapping two equal entries placed out of that order gives
    an earlier one.  Worst case is still exponential.
    """
    if not isinstance(p, ProbVector) or not isinstance(q, ProbVector):
        raise InputError("both arguments must be probability vectors")
    refuted = Decision.refuted(("exhausted-partition-search", len(p), len(q)))
    if max(p.entries) > max(q.entries) or \
            sum(1 for x in p.entries if x) < sum(1 for y in q.entries if y):
        return refuted
    # Every block sum is a multiple of g/den, the gcd of p's entries.
    nums, den = common_denominator(p.entries)
    g = gcd(*nums)
    if any(y.numerator * den % (y.denominator * g) for y in q.entries):
        return refuted
    order = sorted(range(len(p)), key=lambda i: p[i], reverse=True)
    targets = q.entries
    sums = [Fraction(0)] * len(q)
    block_of = [0] * len(p)

    def choices(k: int):
        """Put the k-th largest entry in each block it fits, from the block
        of an equal predecessor on, one block per distinct (block sum,
        target) state, undoing each placement on resume."""
        i = order[k]
        x, seen = p[i], set()
        first = block_of[order[k - 1]] if k and p[order[k - 1]] == x else 0
        for j in range(first, len(targets)):
            state = (sums[j], targets[j])
            if state not in seen and sums[j] + x <= targets[j]:
                seen.add(state)
                sums[j] += x
                block_of[i] = j
                yield j
                sums[j] -= x

    # One generator per placed entry, largest entries first; an explicit
    # stack because vectors can be long (copy tensors).  Nothing overshoots
    # and both sides sum to 1, so placing every entry hits q exactly.
    stack = [choices(0)]
    while stack:
        if next(stack[-1], None) is None:
            stack.pop()
        elif len(stack) == len(order):
            blocks: list[list[int]] = [[] for _ in targets]
            for i in range(len(p)):
                blocks[block_of[i]].append(i)
            return Decision.proven(("partition", tuple(map(tuple, blocks))))
        else:
            stack.append(choices(len(stack)))
    return refuted


class _DistributionTheory(TheoryOracle):
    """Probability vectors combined by the product distribution; the
    subclasses differ only in their order."""

    def combine(self, a: ProbVector, b: ProbVector) -> ProbVector:
        return a.tensor(b)

    def zero(self) -> ProbVector:
        return ProbVector.of(1)

    def enumerate_up_to(self, bound: int) -> list[ProbVector]:
        return enumerate_prob_vectors(max_len=bound, max_den=bound)

    def format_term(self, a: ProbVector) -> str:
        return str(a)


@dataclass(frozen=True)
class RandomnessTheory(_DistributionTheory):
    """Distributions under exact coarse-graining; combine is the product
    distribution and the order is decided by partition search."""

    def geq(self, a: ProbVector, b: ProbVector) -> Decision:
        return deterministic_convertible(a, b)


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
class EntanglementSpectrumTheory(_DistributionTheory):
    """Schmidt/eigenvalue spectra of pure bipartite states.

    combine tensors spectra; a spectrum converts into another exactly
    when the target majorizes the source (the standard partial-sum
    criterion for pure-state transformations under local processing).
    """

    def geq(self, a: ProbVector, b: ProbVector) -> Decision:
        bad = _first_bad_prefix(b, a)
        if bad is None:
            return Decision.proven(("majorization", a.entries, b.entries))
        return Decision.refuted(("majorization-fails", bad))


def entanglement_convertible(s: ProbVector, t: ProbVector) -> bool:
    """Can a pure state with spectrum s be turned into one with spectrum t?"""
    return majorizes(t, s)
