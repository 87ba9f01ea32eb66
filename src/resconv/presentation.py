"""Finitely presented strict symmetric monoidal theories, collapsed to a
theory of resource convertibility.

One class, `MultisetTheory`, holds a presentation (object generators,
called species, and morphism generators, called rules) and is its
decategorified theory.  Terms are multisets of species; the order is
bounded reachability by rewriting with the rules, applied inside any
ambient multiset (tensoring with identities) and chained sequentially.
The search and the conservation check both run on species-count vectors
over one rule table.  Queries outside the span of the rule deltas are
refuted by a conserved linear functional before any search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from operator import add, sub

from .core import Decision, InputError, TheoryOracle, shortest_traces
from .linalg import complement_projector

# A multiset is canonically a sorted tuple of (name, count) pairs, counts > 0.
Multiset = tuple[tuple[str, int], ...]


def ms_make(items: dict[str, int] | list[str] | tuple[str, ...]) -> Multiset:
    counts: dict[str, int] = {}
    if isinstance(items, dict):
        pairs = items.items()
    else:
        pairs = ((name, 1) for name in items)
    for name, k in pairs:
        if k < 0:
            raise InputError(f"negative multiplicity for {name!r}")
        if k:
            counts[name] = counts.get(name, 0) + k
    return tuple(sorted(counts.items()))


def ms_add(a: Multiset, b: Multiset) -> Multiset:
    counts = dict(a)
    for name, k in b:
        counts[name] = counts.get(name, 0) + k
    return tuple(sorted(counts.items()))


def ms_format(a: Multiset) -> str:
    if not a:
        return "{}"
    return "{" + ", ".join(f"{k}*{name}" if k > 1 else name for name, k in a) + "}"


@dataclass(frozen=True)
class MorphismGenerator:
    name: str
    source: Multiset
    target: Multiset


@dataclass(frozen=True)
class MultisetTheory(TheoryOracle):
    """The resource theory of a finite presentation, e.g. a chemical
    reaction network: the decategorified theory of its free processes.

    `species` are the object generators and `rules` the morphism
    generators, each rewriting a source multiset into a target multiset.
    Terms are multisets of species; combine is multiset union, zero the
    empty multiset, and geq bounded breadth-first reachability (shortest
    rewrite traces first) to depth `bound` >= 0, pruning states larger than
    the larger side plus `bound`.  Conservation always runs first: the
    query is tested against the rational span of the rule deltas, and a
    target outside the reachable affine lattice is Refuted with a
    conserved linear functional as certificate.  The search runs on
    species-count vectors over the rule table: a rule applies when the
    state holds every count it consumes, and adds its delta.  The species
    index, the rule table and the integer projector onto the complement of
    the deltas' span are built once per instance, on first use, and each
    count difference's certificate once per instance.
    """

    species: tuple[str, ...]
    rules: tuple[MorphismGenerator, ...]
    bound: int = 6

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise InputError(f"bound must be non-negative, got {self.bound}")
        if len(set(self.species)) != len(self.species):
            raise InputError("duplicate object generator names")
        declared = set(self.species)
        for m in self.rules:
            for name, k in m.source + m.target:
                if name not in declared:
                    raise InputError(f"morphism {m.name!r} references undeclared object {name!r}")
                if k < 0:
                    raise InputError(f"morphism {m.name!r} has negative count for {name!r}")

    def combine(self, a: Multiset, b: Multiset) -> Multiset:
        return ms_add(a, b)

    def zero(self) -> Multiset:
        return ()

    @cached_property
    def _index(self) -> dict[str, int]:
        """Position of each declared species in `species`."""
        return {o: i for i, o in enumerate(self.species)}

    def _vector(self, a: Multiset) -> tuple[int, ...]:
        """The species counts of a, in `species` order."""
        idx = self._index
        v = [0] * len(idx)
        for name, k in a:
            if name not in idx:
                raise InputError(f"undeclared species {name!r}")
            if k < 0:
                raise InputError(f"negative multiplicity for {name!r}")
            v[idx[name]] += k
        return tuple(v)

    @cached_property
    def _rule_table(self) -> tuple[tuple[str, tuple[tuple[int, int], ...], tuple[int, ...]], ...]:
        """Per rule, in rule order: its name, the (species index, count)
        pairs it consumes and its delta vector."""
        table = []
        for m in self.rules:
            src, tgt = self._vector(m.source), self._vector(m.target)
            table.append((m.name, tuple((i, k) for i, k in enumerate(src) if k),
                          tuple(y - x for x, y in zip(src, tgt))))
        return tuple(table)

    @cached_property
    def _projector(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Integer projector onto the complement of the rule deltas' span,
        built on the first conservation query and reused by every later one."""
        return complement_projector([d for _, _, d in self._rule_table], len(self.species))

    def validate_term(self, a: Multiset) -> None:
        self._vector(a)

    @cached_property
    def _certificates(self) -> dict[tuple[int, ...], tuple[tuple[str, Fraction], ...] | None]:
        """The conservation certificate of each count difference b - a
        asked so far; it depends on nothing else."""
        return {}

    def conservation_certificate(self, a: Multiset, b: Multiset) -> tuple[tuple[str, Fraction], ...] | None:
        """A linear functional constant on every rule but separating a from b.

        It is the component of b - a orthogonal to the rule deltas, read off
        the cached projector, and computed once per difference b - a; None
        when b - a lies in their span.
        """
        return self._certificate(tuple(map(sub, self._vector(b), self._vector(a))))

    def _certificate(self, delta: tuple[int, ...]) -> tuple[tuple[str, Fraction], ...] | None:
        """`conservation_certificate` of the count difference delta."""
        certificates = self._certificates
        if delta in certificates:
            return certificates[delta]
        rows, den = self._projector
        w = [0] * len(rows)
        for row, d in zip(rows, delta):  # the projector is symmetric
            if d:
                w = [x + d * y for x, y in zip(w, row)]
        cert = certificates[delta] = tuple(
            (o, Fraction(x, den)) for o, x in zip(self.species, w) if x) or None
        return cert

    def geq(self, a: Multiset, b: Multiset) -> Decision:
        start, goal = self._vector(a), self._vector(b)
        if start == goal:
            return Decision.proven(())
        cert = self._certificate(tuple(map(sub, goal, start)))
        if cert is not None:
            return Decision.refuted(("conserved-functional", cert))
        cap = max(sum(start), sum(goal)) + self.bound
        table = self._rule_table

        def moves(state: tuple[int, ...]):
            for name, consumed, delta in table:
                if any(state[i] < k for i, k in consumed):
                    continue
                nxt = tuple(map(add, state, delta))
                if sum(nxt) <= cap:
                    yield nxt, name

        traces = shortest_traces(start, moves, self.bound, (goal,))
        if goal in traces:
            return Decision.proven(traces[goal])
        return Decision.unknown(self.bound)

    def enumerate_up_to(self, bound: int) -> list[Multiset]:
        """Every multiset of at most `bound` species, by size, then term."""
        return [m for n in range(bound + 1)
                for m in sorted(ms_make(c) for c in combinations_with_replacement(self.species, n))]

    def format_term(self, a: Multiset) -> str:
        return ms_format(a)
