"""Concrete theories: count vectors, exact probability vectors and
spectra.  Multiset rewrite systems are `presentation.MultisetTheory`.

All decision procedures are exact over rationals; nothing here compares
floats.  A probability vector is integer weights over one positive
denominator, kept reduced, and the product distribution, the partition
search and the majorization test compute on those integers; `Fraction`s
appear only in the `entries` view and in witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, log2
from typing import Iterable, Literal, Sequence

from .core import MAX_ENTRIES, Decision, InputError, TheoryOracle, entry_ratio

Vector = tuple[int, ...]


@dataclass(frozen=True)
class VectorTheory(TheoryOracle):
    """Tuples of non-negative integers ordered componentwise.

    Additive mode combines by componentwise sum (extensive goods, e.g.
    pantry stock); supremal mode combines by componentwise max (levels,
    e.g. skill grades).  Both share the same order and zero.

    `exact_order`: the componentwise order on naturals is a partial order,
    both sum and max preserve it in each argument, and `geq` compares
    every component, so it never answers Unknown.
    """

    exact_order = True

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
        # arity * (bound+1)^arity entries, multiplied out only until past the limit
        entries, factors = self.arity, self.arity if bound > 0 else 0
        while factors and entries <= MAX_ENTRIES:
            entries, factors = entries * (bound + 1), factors - 1
        if entries > MAX_ENTRIES:
            raise InputError(f"box {bound}: {bound + 1}^{self.arity} vectors of {self.arity} "
                             f"entries exceed the limit of {MAX_ENTRIES} entries")
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


@dataclass(frozen=True, init=False)
class ProbVector:
    """Probability distribution on a finite set, held as integer weights
    over one positive total: entry i is weights[i] / total.

    The form is reduced, gcd(total, *weights) == 1, so equality and
    hashing, which compare (total, weights), are rational equality.
    `entries` is the same distribution as `Fraction`s, built on first read
    and cached.
    """

    total: int
    weights: tuple[int, ...]

    def __init__(self, entries: Iterable[Fraction | int]) -> None:
        """The distribution with the given exact entries, each an int or a
        `Fraction`, checked by `_checked_form`."""
        total, weights = _checked_form([entry_ratio(x) for x in entries])
        self.__dict__.update(total=total, weights=weights)

    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        total = self.total
        return tuple(Fraction(x, total) for x in self.weights)

    @staticmethod
    def of(*values) -> "ProbVector":
        """The distribution with the given entries; a string is read as a
        rational (such as "1/2"), any other value goes to the constructor."""
        return ProbVector(Fraction(v) if isinstance(v, str) else v for v in values)

    @staticmethod
    def uniform(n: int) -> "ProbVector":
        """n entries of 1/n; for n <= 0 the empty vector is rejected."""
        return prob_vector_from_ratios([(1, n)] * n)

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def tensor(self, other: "ProbVector") -> "ProbVector":
        m, n = len(self.weights), len(other.weights)
        if m * n > MAX_ENTRIES:
            raise InputError(f"the product of distributions of {m} and {n} entries has "
                             f"{m * n} entries, beyond the limit of {MAX_ENTRIES} entries")
        # Reduced already: the weights of each side are coprime to their
        # total and sum to it, so for each prime each side has a weight the
        # prime does not divide, and so does their product.
        return _kernel_vector(self.total * other.total,
                              tuple(x * y for x in self.weights for y in other.weights))

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.entries) + ")"


def _checked_form(ratios: Sequence[tuple[int, int]]) -> tuple[int, tuple[int, ...]]:
    """The one check of a distribution given as reduced (numerator,
    denominator) pairs: non-empty, then signs, then the sum.  Returns the
    weights over total, the lcm of the denominators.  That form is already
    reduced: for each prime, the entry whose denominator holds its highest
    power keeps a weight the prime does not divide."""
    if not ratios:
        raise InputError("probability vector must be non-empty")
    if any(n < 0 for n, _ in ratios):
        raise InputError("probabilities must be non-negative")
    total = lcm(*(d for _, d in ratios))
    weights = tuple(n * (total // d) for n, d in ratios)
    if sum(weights) != total:
        raise InputError(f"probabilities must sum to 1, got {Fraction(sum(weights), total)}")
    return total, weights


def prob_vector_from_ratios(ratios: Sequence[tuple[int, int]]) -> ProbVector:
    """The distribution with entries n/d for the reduced pairs `ratios`,
    checked as the public constructor checks its entries, but without
    building a `Fraction`."""
    return _kernel_vector(*_checked_form(ratios))


def _kernel_vector(total: int, weights: tuple[int, ...]) -> ProbVector:
    """A distribution from weights over total, already reduced and
    summing to total, without a check."""
    v = object.__new__(ProbVector)
    v.__dict__.update(total=total, weights=weights)
    return v


def shannon_entropy(p: ProbVector) -> float:
    # int / int is correctly rounded, as float(Fraction) is, so each term
    # is the float of the exact entry
    t = p.total
    return -sum(x / t * log2(x / t) for x in p.weights if x)


def majorizes(x: ProbVector, y: ProbVector) -> bool:
    """Do the sorted-descending partial sums of x dominate those of y?

    Vectors of different lengths are zero-padded to the longer one.
    """
    return _first_bad_prefix(x, y) is None


def _over(p: ProbVector, den: int) -> list[int]:
    """p's weights over den, a multiple of p.total."""
    scale = den // p.total
    return [x * scale for x in p.weights]


def _first_bad_prefix(x: ProbVector, y: ProbVector) -> tuple[int, Fraction, Fraction] | None:
    """The first prefix length k, with the partial sums of x and y, at which
    x's sorted-descending partial sum falls below y's; None if none does."""
    den = lcm(x.total, y.total)
    xs, ys = _over(x, den), _over(y, den)
    n = max(len(xs), len(ys))
    xs += [0] * (n - len(xs))
    ys += [0] * (n - len(ys))
    xs.sort(reverse=True)
    ys.sort(reverse=True)
    sx = sy = 0
    for k, (a, b) in enumerate(zip(xs, ys), start=1):
        sx += a
        sy += b
        if sx < sy:
            return (k, Fraction(sx, den), Fraction(sy, den))
    return None


def _exhausted(p: ProbVector, q: ProbVector) -> Decision:
    """The refutation once no coarse-graining of p can give q."""
    return Decision.refuted(("exhausted-partition-search", len(p), len(q)))


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
    # Both over one denominator, so the search runs on integer weights.
    den = lcm(p.total, q.total)
    ps, targets = _over(p, den), _over(q, den)
    if max(ps) > max(targets) or \
            sum(1 for x in ps if x) < sum(1 for y in targets if y):
        return _exhausted(p, q)
    # Every block sum is a multiple of the gcd of p's weights.
    g = gcd(*ps)
    if any(y % g for y in targets):
        return _exhausted(p, q)
    order = sorted(range(len(ps)), key=ps.__getitem__, reverse=True)
    sums = [0] * len(targets)
    block_of = [0] * len(ps)

    def choices(k: int):
        """Put the k-th largest entry in each block it fits, from the block
        of an equal predecessor on, one block per distinct (block sum,
        target) state, undoing each placement on resume."""
        i = order[k]
        x, seen = ps[i], set()
        first = block_of[order[k - 1]] if k and ps[order[k - 1]] == x else 0
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
            for i in range(len(ps)):
                blocks[block_of[i]].append(i)
            return Decision.proven(("partition", tuple(map(tuple, blocks))))
        else:
            stack.append(choices(len(stack)))
    return _exhausted(p, q)


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
    distribution and the order is decided by partition search.

    `exact_order`: coarse-grainings compose, and the product of two
    coarse-grainings coarse-grains the product distribution, so the order
    is a preorder compatible with combine; the partition search is
    exhaustive, so it never answers Unknown.
    """

    exact_order = True

    def geq(self, a: ProbVector, b: ProbVector) -> Decision:
        return deterministic_convertible(a, b)


def enumerate_prob_vectors(max_len: int, max_den: int) -> list[ProbVector]:
    """All rational distributions with length <= max_len and a common
    denominator <= max_den, deduplicated, in a deterministic order."""
    # Keyed by the weights over one scale, so the key order is the
    # lexicographic order of the entries.
    scale = lcm(*range(1, max_den + 1))
    found: dict[tuple[int, ...], ProbVector] = {}
    for length in range(1, max_len + 1):
        for den in range(1, max_den + 1):
            for comp in _compositions(den, length):
                key = tuple(k * (scale // den) for k in comp)
                if key not in found:
                    g = gcd(den, *comp)
                    found[key] = _kernel_vector(den // g, tuple(k // g for k in comp))
    return [found[key] for key in sorted(found, key=lambda key: (len(key), key))]


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

    `exact_order`: majorization is a preorder, and p -> q gives
    p (x) r -> q (x) r (Nielsen's theorem; local protocols compose and run
    side by side), so it is compatible with combine; the partial-sum test
    is exact, so it never answers Unknown.
    """

    exact_order = True

    def geq(self, a: ProbVector, b: ProbVector) -> Decision:
        bad = _first_bad_prefix(b, a)
        if bad is None:
            return Decision.proven(("majorization", a.entries, b.entries))
        return Decision.refuted(("majorization-fails", bad))


def entanglement_convertible(s: ProbVector, t: ProbVector) -> bool:
    """Can a pure state with spectrum s be turned into one with spectrum t?"""
    return majorizes(t, s)
