"""Exact finite stochastic maps with strict parallel composition.

Matrices hold `Fraction` entries, rows indexed by the codomain, columns
by the domain; every column sums to exactly 1.  Map equality is
entrywise rational equality, so algebraic laws hold on the nose rather
than up to tolerance.

Product sets use flat element names joined with '|'; the canonical unit
(a singleton named '*') is dropped from products, which makes the tensor
strictly associative and unital on element lists.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Callable, Iterable, Sequence

from .core import Decision, InputError

F0 = Fraction(0)
F1 = Fraction(1)


class CompositionError(ValueError):
    """Domain/codomain mismatch; the message names both types."""


@dataclass(frozen=True)
class FinSet:
    """Finite alphabet.  The label is cosmetic; equality compares elements."""

    label: str = field(compare=False)
    elements: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise InputError(f"finite set {self.label!r} must have at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise InputError(f"finite set {self.label!r} has duplicate element names")

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, name: str) -> int:
        return self.elements.index(name)

    def __str__(self) -> str:
        return f"{self.label}{{{','.join(self.elements)}}}"


UNIT = FinSet("I", ("*",))


def finset(label: str, size: int) -> FinSet:
    return FinSet(label, tuple(f"{label}{i}" for i in range(size)))


def tensor(a: FinSet, b: FinSet) -> FinSet:
    """Strict product: unit factors vanish, names join flat."""
    if a.elements == UNIT.elements:
        return b
    if b.elements == UNIT.elements:
        return a
    return FinSet(f"{a.label}*{b.label}",
                  tuple(f"{x}|{y}" for x in a.elements for y in b.elements))


def tensor_all(sets: Sequence[FinSet]) -> FinSet:
    out = UNIT
    for s in sets:
        out = tensor(out, s)
    return out


@dataclass(frozen=True)
class StochMap:
    """Conditional distribution matrix[output][input] between finite sets."""

    dom: FinSet
    cod: FinSet
    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        rows, cols = len(self.cod), len(self.dom)
        if len(self.matrix) != rows or any(len(r) != cols for r in self.matrix):
            raise InputError(
                f"matrix must be {rows}x{cols} for {self.cod} given {self.dom}")
        for r in self.matrix:
            for x in r:
                if x < 0:
                    raise InputError(f"negative probability {x}")
        for i in range(cols):
            s = sum(self.matrix[j][i] for j in range(rows))
            if s != 1:
                raise InputError(
                    f"column {i} ({self.dom.elements[i]!r}) sums to {s}, not 1")

    def __call__(self, out_name: str, in_name: str) -> Fraction:
        return self.matrix[self.cod.index(out_name)][self.dom.index(in_name)]

    def column(self, i: int) -> tuple[Fraction, ...]:
        return tuple(self.matrix[j][i] for j in range(len(self.cod)))

    def __str__(self) -> str:
        return f"StochMap {self.dom.label} -> {self.cod.label} ({len(self.cod)}x{len(self.dom)})"


def _freeze(matrix: Iterable[Iterable[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in matrix)


def identity(a: FinSet) -> StochMap:
    n = len(a)
    return StochMap(a, a, tuple(tuple(F1 if i == j else F0 for j in range(n))
                                for i in range(n)))


def from_function(dom: FinSet, cod: FinSet, f: Callable[[int], int] | Sequence[int]) -> StochMap:
    """Deterministic map from an index function or index table."""
    table = [f(i) for i in range(len(dom))] if callable(f) else list(f)
    if len(table) != len(dom) or any(not 0 <= j < len(cod) for j in table):
        raise InputError("function table does not match the domain/codomain")
    rows = [[F0] * len(dom) for _ in range(len(cod))]
    for i, j in enumerate(table):
        rows[j][i] = F1
    return StochMap(dom, cod, _freeze(rows))


def state(cod: FinSet, probs: Sequence[Fraction | int | str]) -> StochMap:
    """Distribution on `cod` as a map out of the unit object."""
    col = [Fraction(p) for p in probs]
    return StochMap(UNIT, cod, tuple((p,) for p in col))


def point_state(cod: FinSet, name: str) -> StochMap:
    i = cod.index(name)
    return state(cod, [F1 if j == i else F0 for j in range(len(cod))])


def uniform_state(cod: FinSet) -> StochMap:
    return state(cod, [Fraction(1, len(cod))] * len(cod))


def discard(dom: FinSet) -> StochMap:
    return StochMap(dom, UNIT, (tuple(F1 for _ in dom.elements),))


def compose_seq(q: StochMap, p: StochMap) -> StochMap:
    """q after p: matrix product, summing over the middle alphabet.

    Each output row is accumulated from the nonzero entries of q's row
    times the nonzero entries of p's matching rows; zero terms are
    skipped, so sparse maps (identities, swaps, deterministic maps and
    their tensor products) cost little.  The sums are exact, so the
    result equals the dense product entry for entry.
    """
    if p.cod.elements != q.dom.elements:
        raise CompositionError(
            f"cannot compose {q.dom} -> {q.cod} after {p.dom} -> {p.cod}: "
            f"middle types differ")
    nd = len(p.dom)
    rows = []
    for qrow in q.matrix:
        acc = [F0] * nd
        for w, prow in zip(qrow, p.matrix):
            if w:
                for a, x in enumerate(prow):
                    if x:
                        acc[a] += w * x
        rows.append(tuple(acc))
    return StochMap(p.dom, q.cod, tuple(rows))


def compose_par(p: StochMap, q: StochMap) -> StochMap:
    """Side-by-side execution: Kronecker product on product alphabets.

    Blocks under a zero entry of p are written as zeros without
    multiplying."""
    dom = tensor(p.dom, q.dom)
    cod = tensor(p.cod, q.cod)
    zeros = (F0,) * len(q.dom)
    rows = []
    for prow in p.matrix:
        for qrow in q.matrix:
            row: list[Fraction] = []
            for x in prow:
                row.extend([x * y for y in qrow] if x else zeros)
            rows.append(tuple(row))
    return StochMap(dom, cod, tuple(rows))


def swap(a: FinSet, b: FinSet) -> StochMap:
    """The symmetry (x,y) -> (y,x) as a deterministic map."""
    na, nb = len(a), len(b)
    # (x, y) sits at index x*nb + y of a*b and at y*na + x of b*a
    return from_function(tensor(a, b), tensor(b, a),
                         [(i % nb) * na + i // nb for i in range(na * nb)])


def is_deterministic(p: StochMap) -> bool:
    return all(x == 0 or x == 1 for row in p.matrix for x in row)


def deterministic_function(p: StochMap) -> tuple[int, ...] | None:
    """Index table of a deterministic map, or None if it is not one."""
    if not is_deterministic(p):
        return None
    table = []
    for i in range(len(p.dom)):
        table.append(next(j for j in range(len(p.cod)) if p.matrix[j][i] == 1))
    return tuple(table)


def all_deterministic_maps(dom: FinSet, cod: FinSet) -> list[StochMap]:
    out = []
    for table in itertools.product(range(len(cod)), repeat=len(dom)):
        out.append(from_function(dom, cod, table))
    return out


def random_stoch_map(rng: Random, dom: FinSet, cod: FinSet, max_weight: int = 4) -> StochMap:
    """Random column-stochastic matrix with small rational entries."""
    cols = []
    for _ in range(len(dom)):
        w = [rng.randint(0, max_weight) for _ in range(len(cod))]
        if sum(w) == 0:
            w[rng.randrange(len(cod))] = 1
        total = sum(w)
        cols.append([Fraction(x, total) for x in w])
    rows = tuple(tuple(cols[i][j] for i in range(len(dom))) for j in range(len(cod)))
    return StochMap(dom, cod, rows)


def _split_product_left(product: FinSet, right: FinSet) -> FinSet:
    """Recover X from a product alphabet equal to X tensor `right`."""
    nr = len(right)
    if right.elements == UNIT.elements:
        return product
    if product.elements == right.elements:
        return UNIT
    if len(product) % nr != 0:
        raise CompositionError(
            f"{product} does not factor through {right}: size mismatch")
    k = len(product) // nr
    names = []
    for i in range(k):
        cell = product.elements[i * nr]
        suffix = f"|{right.elements[0]}"
        if not cell.endswith(suffix):
            raise CompositionError(
                f"{product} does not factor as X tensor {right}")
        names.append(cell[: -len(suffix)])
    left = FinSet(f"{product.label}/{right.label}", tuple(names))
    if tensor(left, right).elements != product.elements:
        raise CompositionError(f"{product} does not factor as X tensor {right}")
    return left


@dataclass(frozen=True)
class SharedRandomness:
    """Joint distribution over a pair of correlated alphabets."""

    sa: FinSet
    sb: FinSet
    joint: tuple[tuple[Fraction, ...], ...]  # joint[x][y]

    def __post_init__(self) -> None:
        if len(self.joint) != len(self.sa) or any(len(r) != len(self.sb) for r in self.joint):
            raise InputError("joint distribution shape must be |sa| x |sb|")
        if any(x < 0 for row in self.joint for x in row):
            raise InputError("joint probabilities must be non-negative")
        if sum(x for row in self.joint for x in row) != 1:
            raise InputError("joint distribution must sum to 1")


def trivial_randomness() -> SharedRandomness:
    return SharedRandomness(UNIT, UNIT, ((F1,),))


def simulate_channel(p: StochMap, e: StochMap, d: StochMap,
                     r: SharedRandomness) -> StochMap:
    """Wrap channel p with encoder e, decoder d and shared randomness r.

    e maps (new input, Alice's share) to p's input; d maps (p's output,
    Bob's share) to the new output.  The result is

        Q(b'|a') = sum over a, b, x, y of
                   d(b'|b,y) * p(b|a) * e(a|a',x) * r(x,y)

    computed exactly by explicit contraction.
    """
    if e.cod.elements != p.dom.elements:
        raise CompositionError(f"encoder output {e.cod} does not match channel input {p.dom}")
    b_check = _split_product_left(d.dom, r.sb)
    if b_check.elements != p.cod.elements:
        raise CompositionError(f"decoder input {d.dom} does not factor as {p.cod} tensor {r.sb}")
    a_new = _split_product_left(e.dom, r.sa)
    nx, ny = len(r.sa), len(r.sb)
    na, nb = len(p.dom), len(p.cod)
    rows = []
    for bp in range(len(d.cod)):
        row = []
        for ap in range(len(a_new)):
            total = F0
            for x in range(nx):
                for y in range(ny):
                    rxy = r.joint[x][y]
                    if rxy == 0:
                        continue
                    for a in range(na):
                        ea = e.matrix[a][ap * nx + x]
                        if ea == 0:
                            continue
                        for b in range(nb):
                            pb = p.matrix[b][a]
                            if pb == 0:
                                continue
                            total += d.matrix[bp][b * ny + y] * pb * ea * rxy
            row.append(total)
        rows.append(tuple(row))
    return StochMap(a_new, d.cod, tuple(rows))


@dataclass(frozen=True)
class SimulationWitness:
    encoder: StochMap
    decoder: StochMap
    randomness: SharedRandomness


def _map_from_functions(left: FinSet, shared: FinSet, target: FinSet,
                        funcs: Sequence[tuple[int, ...]]) -> StochMap:
    """Deterministic map left*shared -> target sending (i, x) to funcs[x][i]:
    an encoder or decoder that applies the function picked by the
    shared-randomness value x."""
    dom = tensor(left, shared)
    rows = [[F0] * len(dom) for _ in range(len(target))]
    for i in range(len(left)):
        for x, f in enumerate(funcs):
            rows[f[i]][i * len(shared) + x] = F1
    return StochMap(dom, target, _freeze(rows))


def search_exact_simulation(p: StochMap, target: StochMap,
                            caps: int | tuple[int, int] = 8) -> Decision:
    """Can wrapping `p` with free encodings reproduce `target` exactly?

    The search restricts encoders and decoders to deterministic maps
    conditioned on the shared-randomness value.  Searching genuinely
    stochastic encoders and decoders is a documented gap: whether they
    ever help for exact simulation is left open.

    Proven decisions carry a SimulationWitness that replays through
    simulate_channel.  Refuted is returned only on a sound impossibility
    argument: a channel whose output does not depend on its input can
    only ever simulate channels of the same kind.  Everything else is
    Unknown at the given alphabet caps.
    """
    cap_a, cap_b = caps if isinstance(caps, tuple) else (caps, caps)
    if cap_a < 1 or cap_b < 1:
        raise InputError("caps must be at least 1")

    # Sound refutation: constant channels are closed under wrapping.
    if len(set(p.column(i) for i in range(len(p.dom)))) == 1 \
            and len(set(target.column(i) for i in range(len(target.dom)))) > 1:
        i0, j0 = next((i, j)
                      for i in range(len(target.dom))
                      for j in range(len(target.dom))
                      if target.column(i) != target.column(j))
        return Decision.refuted(("input-independent-channel", i0, j0),
                                note="p ignores its input but target does not")

    n_enc = len(p.dom) ** len(target.dom)
    n_dec = len(target.cod) ** len(p.cod)
    if n_enc * n_dec > 20_000:
        return Decision.unknown(max(cap_a, cap_b),
                                note=f"strategy space has {n_enc * n_dec} pairs; "
                                     "beyond the desk-scale search limit")
    encoders = list(itertools.product(range(len(p.dom)), repeat=len(target.dom)))
    decoders = list(itertools.product(range(len(target.cod)), repeat=len(p.cod)))

    def wrapped(enc: tuple[int, ...], dec: tuple[int, ...]) -> list[Fraction]:
        # Column-major flat entries of dec . p . enc.
        out = []
        for ap in range(len(target.dom)):
            col = [F0] * len(target.cod)
            a = enc[ap]
            for b in range(len(p.cod)):
                col[dec[b]] += p.matrix[b][a]
            out.extend(col)
        return out

    goal = []
    for ap in range(len(target.dom)):
        goal.extend(target.column(ap))

    # No-randomness fast path: a single encoder/decoder pair.
    for enc in encoders:
        for dec in decoders:
            if wrapped(enc, dec) == goal:
                witness = SimulationWitness(
                    _map_from_functions(target.dom, UNIT, p.dom, [enc]),
                    _map_from_functions(p.cod, UNIT, target.cod, [dec]),
                    trivial_randomness())
                return Decision.proven(witness)

    # Exact feasibility over joint mixtures of encoder/decoder pairs.
    from .linalg import feasible_nonneg_solution
    pairs = [(enc, dec) for enc in encoders for dec in decoders]
    columns = [wrapped(enc, dec) for enc, dec in pairs]
    n_eq = len(goal)
    equations = [[columns[k][row] for k in range(len(pairs))] for row in range(n_eq)]
    equations.append([F1] * len(pairs))
    rhs = list(goal) + [F1]
    sol = feasible_nonneg_solution(equations, rhs)
    if sol is not None:
        support = [k for k, w in enumerate(sol) if w != 0]
        used_enc = sorted({pairs[k][0] for k in support})
        used_dec = sorted({pairs[k][1] for k in support})
        if len(used_enc) <= cap_a and len(used_dec) <= cap_b:
            sa = finset("x", len(used_enc))
            sb = finset("y", len(used_dec))
            joint = [[F0] * len(used_dec) for _ in range(len(used_enc))]
            for k in support:
                joint[used_enc.index(pairs[k][0])][used_dec.index(pairs[k][1])] += sol[k]
            witness = SimulationWitness(
                _map_from_functions(target.dom, sa, p.dom, used_enc),
                _map_from_functions(p.cod, sb, target.cod, used_dec),
                SharedRandomness(sa, sb, _freeze(joint)))
            return Decision.proven(witness)
        return Decision.unknown(max(cap_a, cap_b),
                                note="mixture found but its support exceeds the caps")
    return Decision.unknown(max(cap_a, cap_b),
                            note="no deterministic-given-randomness strategy matches")


_StateKey = tuple[tuple[str, ...], tuple[Fraction, ...]]


def _state_key(m: StochMap) -> _StateKey:
    """A state's identity in the closure: (codomain elements, distribution)."""
    return (m.cod.elements, tuple(row[0] for row in m.matrix))


def _free_reachable(s: StochMap, free_generators: Sequence[StochMap], depth: int,
                    targets: set[_StateKey] | None = None,
                    ) -> dict[_StateKey, tuple[StochMap, ...]]:
    """Breadth-first closure of a state under the free generators.

    Keys are (codomain elements, distribution); values are the shortest
    witness circuits, as sequences of one-step maps.  Each step applies a
    single generator, or a parallel pair of generators/identities when
    the state's alphabet factors accordingly.  If `targets` is given the
    search stops early once all of them are found.

    The one-step maps out of an alphabet, with the index table of each
    deterministic one, are built once per alphabet.  A deterministic step
    pushes the state's distribution forward through its table and looks
    the result up by key; a validated StochMap is built only for a state
    not seen before.  Stochastic steps go through compose_seq.
    """
    if s.dom.elements != UNIT.elements:
        raise InputError("search starts from a state (singleton-domain map)")

    by_dom: dict[tuple[str, ...], list[StochMap]] = {}
    idsets: dict[tuple[str, ...], FinSet] = {}
    for g in free_generators:
        by_dom.setdefault(g.dom.elements, []).append(g)
        for fs in (g.dom, g.cod):
            idsets.setdefault(fs.elements, fs)

    def pair_head(d1: FinSet, d2: FinSet) -> str:
        if d1.elements == UNIT.elements:
            return d2.elements[0]
        if d2.elements == UNIT.elements:
            return d1.elements[0]
        return f"{d1.elements[0]}|{d2.elements[0]}"

    pool = list(free_generators) + [identity(fs) for fs in idsets.values()]
    pool_by_size: dict[int, list[StochMap]] = {}
    for g in pool:
        pool_by_size.setdefault(len(g.dom), []).append(g)

    def one_step_maps(cod: FinSet) -> list[tuple[StochMap, tuple[int, ...] | None]]:
        out = list(by_dom.get(cod.elements, []))
        n = len(cod)
        for n1, gs1 in pool_by_size.items():
            if n % n1 != 0 or n // n1 not in pool_by_size:
                continue
            gs2 = pool_by_size[n // n1]
            for g1 in gs1:
                for g2 in gs2:
                    # cheap name pre-filter before building the product
                    if pair_head(g1.dom, g2.dom) != cod.elements[0]:
                        continue
                    if tensor(g1.dom, g2.dom).elements == cod.elements:
                        out.append(compose_par(g1, g2))
        return [(g, deterministic_function(g)) for g in out]

    step_cache: dict[tuple[str, ...], list[tuple[StochMap, tuple[int, ...] | None]]] = {}

    start = _state_key(s)
    found: dict[_StateKey, tuple[StochMap, ...]] = {start: ()}
    frontier = deque([(s, start)])
    remaining = set(targets) if targets is not None else None
    if remaining is not None:
        remaining.discard(start)
    for _ in range(depth):
        if not frontier or (remaining is not None and not remaining):
            break
        for _ in range(len(frontier)):
            cur, (ck, dist) = frontier.popleft()
            if ck not in step_cache:
                step_cache[ck] = one_step_maps(cur.cod)
            trace = found[(ck, dist)]
            for g, fn in step_cache[ck]:
                if fn is not None:
                    col = [F0] * len(g.cod)
                    for i, j in enumerate(fn):
                        col[j] += dist[i]
                    k = (g.cod.elements, tuple(col))
                    if k in found:
                        continue
                    nxt = StochMap(UNIT, g.cod, tuple((x,) for x in col))
                else:
                    nxt = compose_seq(g, cur)
                    k = _state_key(nxt)
                    if k in found:
                        continue
                found[k] = trace + (g,)
                if remaining is not None:
                    remaining.discard(k)
                frontier.append((nxt, k))
    return found


def search_free_transformation_batch(s: StochMap, targets: Sequence[StochMap],
                                     free_generators: Sequence[StochMap],
                                     depth: int) -> list[Decision]:
    """Search for circuits of free generators carrying state s to each target.

    All targets are answered from one closure pass, which stops early once
    every target is found.  Proven witnesses are sequences of one-step
    maps whose composite sends s to the target exactly; replay by folding
    compose_seq.  Parallel structure is explored one pairing per step,
    which covers chains of single and pairwise-parallel generator
    applications.
    """
    keys = []
    for t in targets:
        if t.dom.elements != UNIT.elements:
            raise InputError("targets must be states")
        keys.append(_state_key(t))
    found = _free_reachable(s, free_generators, depth, targets=set(keys))
    return [Decision.proven(("circuit", found[k])) if k in found else Decision.unknown(depth)
            for k in keys]
