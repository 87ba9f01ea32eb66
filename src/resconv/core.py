"""Theories of resource convertibility: terms, preorder queries, axiom checks.

A theory is a carrier of terms with a commutative, associative combine
operation (up to interconvertibility), a neutral element, and a preorder
"can be converted into".  Queries answer with a three-valued `Decision`
because some preorders (e.g. rewrite reachability) are only semidecidable
under a search bound.  `shortest_traces` is the bounded breadth-first
search behind the reachability orders.  `QueryMemo` asks a theory each
`geq` pair once and answers with its `Verdict`, for `check_axioms` and the
analyzers; its `equivalent` is the one rule for mutual convertibility.
`order_cells` walks the order table of a list of terms in row order and,
for a theory with `exact_order`, asks only the cells that transitivity
leaves open; `order_matrix`, the table behind the Hasse diagram, and
`monotones.verify_monotone` read their cells through it.  `bit_indices`
lists the members of a bitset row.
`MAX_ENTRIES` is the one limit on the entries of a table a command builds
or fills; every size guard refuses input beyond it with an InputError.
`entry_ratio` is the one rule for an exact probability entry given in code.
`check_axioms` checks the axioms for any theory, on the given terms;
Unknown is never a violation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence


class InputError(ValueError):
    """Malformed table, term, or file content."""


# The most entries of one table a command builds or fills.
MAX_ENTRIES = 10**6


def entry_ratio(x: Fraction | int) -> tuple[int, int]:
    """An exact probability given in code, as its reduced (numerator,
    denominator) pair.  Only an int or a `Fraction` is exact: bool is a
    subclass of int, and a float has no exact entry to keep."""
    if type(x) is bool or not isinstance(x, (int, Fraction)):
        raise InputError(f"probability {x!r} is not an int or a Fraction")
    return x.numerator, x.denominator


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
    reports and CLI output.  The constructor checks all of this; the
    factories `proven`, `refuted` and `unknown` check only the argument
    they take and build the frozen instance directly, since the verdict
    they set is a `Verdict` by construction.
    """

    verdict: Verdict
    witness: Any = None
    bound: int | None = None
    note: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.verdict, Verdict):
            raise InputError(f"decision verdict {self.verdict!r} is not a Verdict")
        if self.verdict in (Verdict.PROVEN, Verdict.REFUTED) and self.witness is None:
            raise InputError(f"{self.verdict} decision requires a witness")
        if self.verdict is Verdict.UNKNOWN and self.bound is None:
            raise InputError("Unknown decision requires the search bound")

    @staticmethod
    def proven(witness: Any, note: str | None = None) -> "Decision":
        if witness is None:
            raise InputError("Proven decision requires a witness")
        d = object.__new__(Decision)
        d.__dict__.update(verdict=Verdict.PROVEN, witness=witness, bound=None, note=note)
        return d

    @staticmethod
    def refuted(witness: Any, note: str | None = None) -> "Decision":
        if witness is None:
            raise InputError("Refuted decision requires a witness")
        d = object.__new__(Decision)
        d.__dict__.update(verdict=Verdict.REFUTED, witness=witness, bound=None, note=note)
        return d

    @staticmethod
    def unknown(bound: int, note: str | None = None) -> "Decision":
        if bound is None:
            raise InputError("Unknown decision requires the search bound")
        d = object.__new__(Decision)
        d.__dict__.update(verdict=Verdict.UNKNOWN, witness=None, bound=bound, note=note)
        return d

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

    `exact_order` is a class-level promise: set only where it is a theorem
    that `geq` never answers Unknown and that its order is a preorder
    compatible with combine.  `order_cells` and `monotones.rate` then skip
    the questions that transitivity and compatibility decide.  It stays
    False for theories from user data, which may break the axioms, and for
    bounded searches, which may answer Unknown.
    """

    exact_order = False

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


class QueryMemo:
    """Asks the wrapped theory each `geq` question once, keyed by the pair
    of terms, and answers with the verdict alone: its callers build every
    witness they report from terms.  It binds the theory's own other five
    methods, so no interface default can answer for them, and it is no
    `TheoryOracle`, so code that reads a theory's `Decision`s is never
    handed one.  Theories answer deterministically."""

    def __init__(self, theory: TheoryOracle):
        self.theory = theory
        self.combine = theory.combine
        self.zero = theory.zero
        self.enumerate_up_to = theory.enumerate_up_to
        self.decompositions = theory.decompositions
        self.format_term = theory.format_term
        self._geq: dict[tuple[Any, Any], Verdict] = {}

    @staticmethod
    def of(t: TheoryOracle) -> "QueryMemo":
        """`t` itself when it is already a memo, else a fresh memo of `t`."""
        return t if isinstance(t, QueryMemo) else QueryMemo(t)

    def geq(self, a: Any, b: Any) -> Verdict:
        """The verdict of `theory.geq(a, b)`."""
        key = (a, b)
        v = self._geq.get(key)
        if v is None:
            v = self._geq[key] = self.theory.geq(a, b).verdict
        return v

    def equivalent(self, a: Any, b: Any) -> Verdict:
        """Mutual convertibility: Proven iff both directions are, Refuted
        iff either is.  The verdict is symmetric in a and b; b -> a is not
        asked once a -> b is refuted."""
        fwd = self.geq(a, b)
        if fwd is Verdict.REFUTED:
            return fwd
        bwd = self.geq(b, a)
        if bwd is Verdict.REFUTED or bwd is fwd:  # both Proven or both Unknown
            return bwd
        return Verdict.UNKNOWN


def shortest_traces(start: Hashable, moves: Callable[[Any], Iterable[tuple[Hashable, Any]]],
                    depth: int, targets: Iterable[Hashable]) -> dict[Any, tuple]:
    """Breadth-first search from `start`, at most `depth` levels deep.

    `moves(state)` yields (next state, step) pairs in a fixed order.  The
    result maps each reached state to the first trace of steps found for
    it, which is a shortest one; `start` maps to ().  The search returns as
    soon as every target is reached, even in the middle of a level: a
    state's first trace never changes later, so the targets' traces are
    those of the full search.
    """
    traces: dict[Any, tuple] = {start: ()}
    remaining = set(targets) - {start}
    frontier = [start]
    for _ in range(depth):
        if not frontier or not remaining:
            break
        level = frontier
        frontier = []
        for state in level:
            trace = traces[state]
            for nxt, step in moves(state):
                if nxt in traces:
                    continue
                traces[nxt] = trace + (step,)
                frontier.append(nxt)
                remaining.discard(nxt)
                if not remaining:
                    return traces
    return traces


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


def check_axioms(t: TheoryOracle, terms: Iterable[Any]) -> list[Violation]:
    """Check the preordered-commutative-monoid axioms for any theory, on the
    given terms; Unknown is never a violation.

    Pass range(t.size) to check a finite table exhaustively.  Returns one
    violation per failing instance, law by law: reflexivity,
    commutativity, unit, transitivity, associativity and compatibility of
    combine with the order, the monoid laws up to interconvertibility.
    Only Refuted answers are violations; transitivity and compatibility
    run over the Proven pairs.  Each ordered pair is asked once.
    """
    terms = list(terms)
    t = QueryMemo.of(t)
    f = t.format_term
    out: list[Violation] = []
    for a in terms:
        if t.geq(a, a) is Verdict.REFUTED:
            out.append(Violation("reflexivity", (a,), f"{f(a)} not >= itself"))
    for a in terms:
        for b in terms:
            ab, ba = t.combine(a, b), t.combine(b, a)
            if t.equivalent(ab, ba) is Verdict.REFUTED:
                out.append(Violation("commutativity", (a, b),
                                     f"{f(a)}+{f(b)} = {f(ab)} != {f(ba)} = {f(b)}+{f(a)}"))
    z = t.zero()
    for a in terms:
        az = t.combine(a, z)
        if t.equivalent(az, a) is Verdict.REFUTED:
            out.append(Violation("unit", (a,), f"{f(a)}+0 = {f(az)} not equivalent to {f(a)}"))
    proven = [(a, b) for a in terms for b in terms if t.geq(a, b) is Verdict.PROVEN]
    for a, b in proven:
        for c in terms:
            if t.geq(b, c) is Verdict.PROVEN and t.geq(a, c) is Verdict.REFUTED:
                out.append(Violation("transitivity", (a, b, c),
                                     f"{f(a)}>={f(b)} and {f(b)}>={f(c)} "
                                     f"but not {f(a)}>={f(c)}"))
    for a in terms:
        for b in terms:
            ab = t.combine(a, b)
            for c in terms:
                if t.equivalent(t.combine(ab, c), t.combine(a, t.combine(b, c))) is Verdict.REFUTED:
                    out.append(Violation("associativity", (a, b, c),
                                         f"({f(a)}+{f(b)})+{f(c)} not equivalent to "
                                         f"{f(a)}+({f(b)}+{f(c)})"))
    for a, b in proven:
        for c, d in proven:
            if t.geq(t.combine(a, c), t.combine(b, d)) is Verdict.REFUTED:
                out.append(Violation("compatibility", (a, b, c, d),
                                     f"{f(a)}>={f(b)}, {f(c)}>={f(d)} "
                                     f"but not {f(a)}+{f(c)} >= {f(b)}+{f(d)}"))
    return out


def bit_indices(row: int) -> Iterator[int]:
    """The positions of the set bits of `row`, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def order_cells(t: TheoryOracle, terms: Sequence[Any]) -> Iterator[tuple[int, int, Verdict]]:
    """The order table of `terms`, cell by cell in row order: (i, j, the
    verdict of terms[i] -> terms[j]).  A cell is asked of `t` only when the
    walk reaches it, so a caller that stops early asks no further.

    A theory without `exact_order` is asked every cell.  With it, the
    finished rows are kept as bitsets, and a cell that they and the current
    row's answers decide by transitivity is not asked:
    - a Proven i >= j gives row i every cell of the finished row j;
    - a Refuted i >= j refutes i >= q for every finished row q >= j;
    - a finished row p >= i refutes, before row i is asked, every i >= k
      that row p refutes.
    Row 0 has no finished rows before it, so it is asked in full and every
    term reaches the theory.
    """
    if not t.exact_order:
        for i, a in enumerate(terms):
            for j, b in enumerate(terms):
                yield i, j, t.geq(a, b).verdict
        return
    proven: list[int] = []  # finished rows: the j with terms[i] >= terms[j]
    refuted: list[int] = []  # finished rows: the j with terms[i] not >= terms[j]
    above = [0] * len(terms)  # above[j]: the finished rows p with terms[p] >= terms[j]
    for i, a in enumerate(terms):
        ge = no = 0
        for p in bit_indices(above[i]):
            no |= refuted[p]
        for j, b in enumerate(terms):
            bit = 1 << j
            if ge & bit:
                yield i, j, Verdict.PROVEN
                continue
            if no & bit:
                yield i, j, Verdict.REFUTED
                continue
            v = t.geq(a, b).verdict
            if v is Verdict.PROVEN:
                ge |= bit | (proven[j] if j < i else 0)
            elif v is Verdict.REFUTED:
                no |= bit | above[j]
            yield i, j, v
        proven.append(ge)
        refuted.append(no)
        for k in bit_indices(ge):
            above[k] |= 1 << i


def order_matrix(t: TheoryOracle, terms: Sequence[Any]) -> list[int]:
    """Row i as a bitset: bit j is set when terms[i] converts to terms[j].

    Reads the cells through `order_cells`.  Raises InputError before asking
    anything when the table of terms squared would pass `MAX_ENTRIES`, and
    otherwise names the first undecided pair in row order, since the Hasse
    diagram needs definite answers.
    """
    if len(terms) ** 2 > MAX_ENTRIES:
        raise InputError(f"{len(terms)} terms need {len(terms) ** 2} order entries, beyond "
                         f"the limit of {MAX_ENTRIES} entries")
    rows = [0] * len(terms)
    for i, j, v in order_cells(t, terms):
        if v is Verdict.PROVEN:
            rows[i] |= 1 << j
        elif v is Verdict.UNKNOWN:
            raise InputError(f"order undecided between {t.format_term(terms[i])} and "
                             f"{t.format_term(terms[j])}; diagram needs definite answers")
    return rows
