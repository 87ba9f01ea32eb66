"""Finitely presented strict symmetric monoidal theories, collapsed to a
theory of resource convertibility.

One class, `MultisetTheory`, holds a presentation (object generators,
called species, and morphism generators, called rules) and is its
decategorified theory.  Terms are multisets of species; the order is
bounded reachability by rewriting with the rules, applied inside any
ambient multiset (tensoring with identities) and chained sequentially.
Queries outside the span of the rule deltas are refuted by a conserved
linear functional before any search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import Decision, InputError, TheoryOracle
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


def ms_contains(a: Multiset, b: Multiset) -> bool:
    counts = dict(a)
    return all(counts.get(name, 0) >= k for name, k in b)


def ms_sub(a: Multiset, b: Multiset) -> Multiset:
    counts = dict(a)
    for name, k in b:
        have = counts.get(name, 0)
        if have < k:
            raise InputError(f"cannot remove {k} x {name!r} from {a}")
        counts[name] = have - k
    return tuple(sorted((n, k) for n, k in counts.items() if k))


def ms_size(a: Multiset) -> int:
    return sum(k for _, k in a)


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
    conserved linear functional as certificate.  The species index
    and the integer projector onto the complement of that span are
    computed once per instance, on first use, so a query costs one
    sparse integer product instead of a fresh Gram-Schmidt.
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
            for name, _ in m.source + m.target:
                if name not in declared:
                    raise InputError(f"morphism {m.name!r} references undeclared object {name!r}")

    def combine(self, a: Multiset, b: Multiset) -> Multiset:
        return ms_add(a, b)

    def zero(self) -> Multiset:
        return ()

    @cached_property
    def _index(self) -> dict[str, int]:
        """Position of each declared species in `species`."""
        return {o: i for i, o in enumerate(self.species)}

    @cached_property
    def _projector(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Integer projector onto the complement of the rule deltas' span,
        built on the first conservation query and reused by every later one."""
        idx = self._index
        deltas = []
        for m in self.rules:
            v = [0] * len(idx)
            for name, k in m.target:
                v[idx[name]] += k
            for name, k in m.source:
                v[idx[name]] -= k
            deltas.append(v)
        return complement_projector(deltas, len(idx))

    def validate_term(self, a: Multiset) -> None:
        for name, _ in a:
            if name not in self._index:
                raise InputError(f"undeclared species {name!r}")

    def conservation_certificate(self, a: Multiset, b: Multiset) -> tuple[tuple[str, Fraction], ...] | None:
        """A linear functional constant on every rule but separating a from b.

        It is the component of b - a orthogonal to the rule deltas, read off
        the cached projector; None when b - a lies in their span.
        """
        rows, den = self._projector
        idx = self._index
        diff = [0] * len(rows)
        for name, k in b:
            diff[idx[name]] += k
        for name, k in a:
            diff[idx[name]] -= k
        w = [0] * len(rows)
        for row, dj in zip(rows, diff):  # the projector is symmetric
            if dj:
                w = [x + dj * y for x, y in zip(w, row)]
        if not any(w):
            return None
        return tuple((o, Fraction(x, den))
                     for o, x in zip(self.species, w) if x)

    def geq(self, a: Multiset, b: Multiset) -> Decision:
        self.validate_term(a)
        self.validate_term(b)
        if a == b:
            return Decision.proven(())
        cert = self.conservation_certificate(a, b)
        if cert is not None:
            return Decision.refuted(("conserved-functional", cert))
        cap = max(ms_size(a), ms_size(b)) + self.bound
        seen = {a}
        frontier: deque[tuple[Multiset, tuple[str, ...]]] = deque([(a, ())])
        depth = 0
        while frontier and depth < self.bound:
            depth += 1
            for _ in range(len(frontier)):
                state, trace = frontier.popleft()
                for rule in self.rules:
                    if not ms_contains(state, rule.source):
                        continue
                    nxt = ms_add(ms_sub(state, rule.source), rule.target)
                    if nxt in seen or ms_size(nxt) > cap:
                        continue
                    nxt_trace = trace + (rule.name,)
                    if nxt == b:
                        return Decision.proven(nxt_trace)
                    seen.add(nxt)
                    frontier.append((nxt, nxt_trace))
        return Decision.unknown(self.bound)

    def enumerate_up_to(self, bound: int) -> list[Multiset]:
        objs = self.species
        out: list[Multiset] = []

        def rec(i: int, remaining: int, acc: list[tuple[str, int]]) -> None:
            out.append(tuple(acc))
            if i == len(objs):
                return
            for k in range(1, remaining + 1):
                acc.append((objs[i], k))
                rec(i + 1, remaining - k, acc)
                acc.pop()
            rec(i + 1, remaining, acc)

        rec(0, bound, [])
        # rec() emits unsorted suffix choices; canonicalize and dedupe.
        canon = sorted({tuple(sorted(m)) for m in out}, key=lambda m: (ms_size(m), m))
        return canon

    def format_term(self, a: Multiset) -> str:
        return ms_format(a)

