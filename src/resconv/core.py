"""Theories of resource convertibility: terms, preorder queries, axiom checks.

A theory is a carrier of terms with a commutative, associative combine
operation (up to interconvertibility), a neutral element, and a preorder
"can be converted into".  Queries answer with a three-valued `Decision`
because some preorders (e.g. rewrite reachability) are only semidecidable
under a search bound.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any, Iterable, Sequence


class InputError(ValueError):
    """Malformed table, term, or file content."""


class Verdict(Enum):
    PROVEN = "Proven"
    REFUTED = "Refuted"
    UNKNOWN = "Unknown"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Decision:
    """Outcome of a convertibility query.

    Proven and Refuted carry a replayable witness; Unknown carries the
    bound at which the search stopped.  `note` is free-form context for
    reports and CLI output.
    """

    verdict: Verdict
    witness: Any = None
    bound: int | None = None
    note: str | None = None

    def __post_init__(self) -> None:
        if self.verdict in (Verdict.PROVEN, Verdict.REFUTED) and self.witness is None:
            raise InputError(f"{self.verdict} decision requires a witness")
        if self.verdict is Verdict.UNKNOWN and self.bound is None:
            raise InputError("Unknown decision requires the search bound")

    @staticmethod
    def proven(witness: Any, note: str | None = None) -> "Decision":
        return Decision(Verdict.PROVEN, witness=witness, note=note)

    @staticmethod
    def refuted(witness: Any, note: str | None = None) -> "Decision":
        return Decision(Verdict.REFUTED, witness=witness, note=note)

    @staticmethod
    def unknown(bound: int, note: str | None = None) -> "Decision":
        return Decision(Verdict.UNKNOWN, bound=bound, note=note)

    @property
    def is_proven(self) -> bool:
        return self.verdict is Verdict.PROVEN

    @property
    def is_refuted(self) -> bool:
        return self.verdict is Verdict.REFUTED

    @property
    def is_unknown(self) -> bool:
        return self.verdict is Verdict.UNKNOWN

    def to_json(self) -> dict:
        """Verdict, witness (Fractions as strings, tuples as lists), bound, note."""
        return {"verdict": str(self.verdict), "witness": _jsonable(self.witness),
                "bound": self.bound, "note": self.note}


def _jsonable(x: Any) -> Any:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    return str(x)


class TheoryOracle(ABC):
    """Interface answering combine/zero/convertibility queries.

    Terms are immutable, hashable values with structural equality.
    Theory-level sameness is always mutual convertibility, never term
    equality.
    """

    @abstractmethod
    def combine(self, a: Any, b: Any) -> Any: ...

    @abstractmethod
    def zero(self) -> Any: ...

    @abstractmethod
    def geq(self, a: Any, b: Any) -> Decision:
        """Can `a` be converted into `b`?"""

    @abstractmethod
    def enumerate_up_to(self, bound: int) -> list[Any]:
        """A finite, deterministic list of terms of size up to `bound`."""

    def decompositions(self, a: Any) -> list[tuple[Any, Any]] | None:
        """All splittings combine(a1, a2) interconvertible with `a`.

        Returns None when the theory cannot enumerate them completely;
        analyzers then fall back to bounded search and report Unknown
        instead of Refuted.
        """
        return None

    def format_term(self, a: Any) -> str:
        return repr(a)


def equivalent(t: TheoryOracle, a: Any, b: Any) -> Decision:
    """Mutual convertibility: Proven iff both directions hold."""
    fwd = t.geq(a, b)
    bwd = t.geq(b, a)
    if fwd.is_proven and bwd.is_proven:
        return Decision.proven((fwd.witness, bwd.witness))
    if fwd.is_refuted:
        return Decision.refuted(("forward", fwd.witness))
    if bwd.is_refuted:
        return Decision.refuted(("backward", bwd.witness))
    bound = max(d.bound or 0 for d in (fwd, bwd) if d.is_unknown)
    return Decision.unknown(bound)


def replicate(t: TheoryOracle, n: int, a: Any) -> Any:
    """n-fold combine of `a` with itself; n = 0 yields the zero term."""
    if n < 0:
        raise InputError(f"replicate count must be non-negative, got {n}")
    if n == 0:
        return t.zero()
    out = a
    for _ in range(n - 1):
        out = t.combine(out, a)
    return out


@dataclass(frozen=True)
class Violation:
    law: str
    elements: tuple
    detail: str

    def __str__(self) -> str:
        return f"{self.law} violated at {self.elements}: {self.detail}"


@dataclass(frozen=True)
class FiniteTheoryTable(TheoryOracle):
    """Explicit closed theory: combine table and preorder matrix on indices."""

    size: int
    table: tuple[tuple[int, ...], ...]
    zero_index: int
    order: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        n = self.size
        if n < 1:
            raise InputError(f"carrier must be non-empty, got size {n}")
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise InputError(f"combine table must be {n}x{n}")
        if len(self.order) != n or any(len(r) != n for r in self.order):
            raise InputError(f"preorder matrix must be {n}x{n}")
        if not all(0 <= e < n for row in self.table for e in row):
            raise InputError("combine table entry out of range")
        if not 0 <= self.zero_index < n:
            raise InputError(f"zero index {self.zero_index} out of range")

    def combine(self, a: int, b: int) -> int:
        return self.table[a][b]

    def zero(self) -> int:
        return self.zero_index

    def geq(self, a: int, b: int) -> Decision:
        if self.order[a][b]:
            return Decision.proven(("order-entry", a, b))
        return Decision.refuted(("order-entry", a, b))

    def enumerate_up_to(self, bound: int) -> list[int]:
        return list(range(self.size))

    def decompositions(self, a: int) -> list[tuple[int, int]]:
        out = []
        for x in range(self.size):
            for y in range(self.size):
                c = self.table[x][y]
                if self.order[c][a] and self.order[a][c]:
                    out.append((x, y))
        return out

    def sim(self, a: int, b: int) -> bool:
        return self.order[a][b] and self.order[b][a]


def check_axioms(t: FiniteTheoryTable) -> list[Violation]:
    """Exhaustively check the preordered-commutative-monoid axioms.

    Returns one violation per failing instance: reflexivity, transitivity,
    commutativity/associativity/unit up to interconvertibility, and
    compatibility of combine with the order.
    """
    n = t.size
    out: list[Violation] = []
    for a in range(n):
        if not t.order[a][a]:
            out.append(Violation("reflexivity", (a,), f"{a} not >= itself"))
    for a in range(n):
        for b in range(n):
            if not t.sim(t.table[a][b], t.table[b][a]):
                out.append(Violation("commutativity", (a, b),
                                     f"{a}+{b} = {t.table[a][b]} != {t.table[b][a]} = {b}+{a}"))
    z = t.zero_index
    for a in range(n):
        if not t.sim(t.table[a][z], a):
            out.append(Violation("unit", (a,), f"{a}+0 = {t.table[a][z]} not equivalent to {a}"))
    for a in range(n):
        for b in range(n):
            if t.order[a][b]:
                for c in range(n):
                    if t.order[b][c] and not t.order[a][c]:
                        out.append(Violation("transitivity", (a, b, c),
                                             f"{a}>={b} and {b}>={c} but not {a}>={c}"))
    for a in range(n):
        for b in range(n):
            ab = t.table[a][b]
            for c in range(n):
                if not t.sim(t.table[ab][c], t.table[a][t.table[b][c]]):
                    out.append(Violation("associativity", (a, b, c),
                                         f"({a}+{b})+{c} not equivalent to {a}+({b}+{c})"))
    for a in range(n):
        for b in range(n):
            if not t.order[a][b]:
                continue
            for c in range(n):
                for d in range(n):
                    if t.order[c][d] and not t.order[t.table[a][c]][t.table[b][d]]:
                        out.append(Violation("compatibility", (a, b, c, d),
                                             f"{a}>={b}, {c}>={d} but not {a}+{c} >= {b}+{d}"))
    return out


def check_oracle_axioms(t: TheoryOracle, terms: Sequence[Any]) -> list[Violation]:
    """Check the same axioms on a list of terms of any theory.

    Compatibility and transitivity are checked on Proven answers only;
    Unknown answers never count as violations.
    """
    out: list[Violation] = []

    def equiv(x: Any, y: Any) -> bool:
        return equivalent(t, x, y).is_proven

    for a in terms:
        if t.geq(a, a).is_refuted:
            out.append(Violation("reflexivity", (a,), "a not >= a"))
        if not equiv(t.combine(a, t.zero()), a):
            out.append(Violation("unit", (a,), "a+0 not equivalent to a"))
    for a in terms:
        for b in terms:
            if not equiv(t.combine(a, b), t.combine(b, a)):
                out.append(Violation("commutativity", (a, b), "a+b not equivalent to b+a"))
            for c in terms:
                if not equiv(t.combine(t.combine(a, b), c), t.combine(a, t.combine(b, c))):
                    out.append(Violation("associativity", (a, b, c),
                                         "(a+b)+c not equivalent to a+(b+c)"))
    proven_pairs = [(a, b) for a in terms for b in terms if t.geq(a, b).is_proven]
    for a, b in proven_pairs:
        for b2, c in proven_pairs:
            if b == b2 and t.geq(a, c).is_refuted:
                out.append(Violation("transitivity", (a, b, c), "chain broken"))
        for c, d in proven_pairs:
            if t.geq(t.combine(a, c), t.combine(b, d)).is_refuted:
                out.append(Violation("compatibility", (a, b, c, d),
                                     "combine does not respect the order"))
    return out


def finite_table_from_oracle(t: TheoryOracle, terms: Iterable[Any]) -> tuple[FiniteTheoryTable, list[Any]]:
    """Tabulate a theory on a combine-closed list of terms.

    Raises InputError when `terms` is not closed under combine or does not
    contain the zero term.  Returns the table and the index->term list.
    """
    elems = list(dict.fromkeys(terms))
    index = {e: i for i, e in enumerate(elems)}
    z = t.zero()
    if z not in index:
        raise InputError("term list must contain the zero term")
    table = []
    for a in elems:
        row = []
        for b in elems:
            c = t.combine(a, b)
            if c not in index:
                raise InputError(f"term list not closed under combine: {a!r} + {b!r} = {c!r}")
            row.append(index[c])
        table.append(tuple(row))
    order = []
    for a in elems:
        row_o = []
        for b in elems:
            d = t.geq(a, b)
            if d.is_unknown:
                raise InputError(f"order undecided between {a!r} and {b!r}; cannot tabulate")
            row_o.append(d.is_proven)
        order.append(tuple(row_o))
    return FiniteTheoryTable(len(elems), tuple(table), index[z], tuple(order)), elems
