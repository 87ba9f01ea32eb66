"""Exact finite stochastic maps with strict parallel composition.

A map holds integer numerators over one positive denominator per map,
rows indexed by the codomain, columns by the domain; every column sums
to exactly 1.  The form is reduced, so map equality is entrywise
rational equality and algebraic laws hold on the nose rather than up to
tolerance.  The kernels and searches read the integers; `matrix`, the
`Fraction` view, is built only when something reads it.

Product sets use flat element names joined with '|'; the canonical unit
(a singleton named '*') is dropped from products, which makes the tensor
strictly associative and unital on element lists.  An alphabet is a
`FinSet`, the tuple of its element names, so alphabets compare and hash
as those tuples.  `tensor` builds each product once: products come from
one process-wide memo of at most `PRODUCT_MEMO_SIZE` entries, keyed by
both factors' labels and names, and holding only products of at most
`PRODUCT_MEMO_NAMES` names.

Only this module indexes product alphabets.  Its two map kernels are
`compose_seq` (q after p, or (id (x) q (x) id) after p without building
that product map) and `compose_par` (p beside q, a product map that is
kept); every other contraction is a composition of these, among them
`combs.comb_tensor` and `simulate_channel`.  Shared randomness is a
state on sa (x) sb, and simulation composes the kernels on it.

One function checks a given map's shape, signs and column sums: the
public `StochMap` constructor reads an int or `Fraction` matrix into it
(`core.entry_ratio` refuses any other entry), and
`from_ratios`, which the file reader uses, hands it (numerator,
denominator) pairs directly, most of them from the reader's memo of
literals it has read before (`jsonio.RATIO_MEMO_SIZE`).  It reads the
signs and the distinct denominators in one pass.  Maps the kernels
build (`from_function`, `compose_seq`, `compose_par` and what is built
from them) are stochastic by construction and are not checked again.
`SharedRandomness` checks its joint itself and keeps the state it computes.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm
from random import Random

from .core import MAX_ENTRIES, Decision, InputError, entry_ratio, shortest_traces
from .linalg import feasible_nonneg_solution

F0 = Fraction(0)
F1 = Fraction(1)


class CompositionError(InputError):
    """Domain/codomain mismatch; the message names both types."""


class FinSet(tuple):
    """Finite alphabet: the tuple of its element names, so equality and
    hashing compare the elements.  The label is cosmetic."""

    label: str

    def __new__(cls, label: str, elements: Sequence[str]) -> FinSet:
        self = super().__new__(cls, elements)
        if not self:
            raise InputError(f"finite set {label!r} must have at least one element")
        if len(set(self)) != len(self):
            raise InputError(f"finite set {label!r} has duplicate element names")
        self.label = label
        return self

    def __getnewargs__(self) -> tuple[str, tuple[str, ...]]:
        return self.label, tuple(self)

    def __str__(self) -> str:
        return f"{self.label}{{{','.join(self)}}}"


UNIT = FinSet("I", ("*",))


def finset(label: str, size: int) -> FinSet:
    return FinSet(label, tuple(f"{label}{i}" for i in range(size)))


# The product memo's bounds: how many products it keeps, least recently
# used first out, and the most names a kept product may have.  Building a
# product is one pass over its names, and every map on it takes at least
# that, so a larger product gains little from the memo and is not kept.
PRODUCT_MEMO_SIZE = 256
PRODUCT_MEMO_NAMES = 256


def _product(a_label: str, a: FinSet, b_label: str, b: FinSet) -> FinSet:
    return FinSet(f"{a_label}*{b_label}", [f"{x}|{y}" for x in a for y in b])


@lru_cache(maxsize=PRODUCT_MEMO_SIZE)
def _memo_product(a_label: str, a: FinSet, b_label: str, b: FinSet) -> FinSet:
    """Keyed by value, labels included, so that alphabets equal as tuples
    but labelled apart get products labelled apart.  A refused product
    (colliding names) raises and is not kept."""
    return _product(a_label, a, b_label, b)


def tensor(a: FinSet, b: FinSet) -> FinSet:
    """Strict product: unit factors vanish, names join flat.  A product of
    at most `PRODUCT_MEMO_NAMES` names comes from one process-wide memo."""
    if a == UNIT:
        return b
    if b == UNIT:
        return a
    build = _memo_product if len(a) * len(b) <= PRODUCT_MEMO_NAMES else _product
    return build(a.label, a, b.label, b)


def tensor_all(sets: Sequence[FinSet]) -> FinSet:
    out = UNIT
    for s in sets:
        out = tensor(out, s)
    return out


# Why an alphabet past the limit is refused; messages put it after the alphabet's name.
TOO_MANY_SYMBOLS = (f"has more than {isqrt(MAX_ENTRIES)} symbols, so its identity would pass "
                    f"the limit of {MAX_ENTRIES} entries")


def product_fits(names: Sequence[str], alphabets: Mapping[str, FinSet]) -> bool:
    """Whether the product of the alphabets `names` pick out has an
    identity, n x n entries, within `MAX_ENTRIES`; asked before the product
    is built."""
    n = 1
    for name in names:
        n *= len(alphabets[name])
        if n * n > MAX_ENTRIES:
            return False
    return True


@dataclass(frozen=True, init=False)
class StochMap:
    """Conditional distribution between finite sets, held as integer
    numerators nums[output][input] over one positive denominator den.

    The form is reduced, gcd(den, *nums) == 1, so equality and hashing,
    which compare (dom, cod, den, nums), are entrywise rational equality.
    `matrix` is the same map as `Fraction` entries, built on first read
    and cached.
    """

    dom: FinSet
    cod: FinSet
    den: int
    nums: tuple[tuple[int, ...], ...]

    def __init__(self, dom: FinSet, cod: FinSet,
                 matrix: Sequence[Sequence[Fraction | int]]) -> None:
        """The exact matrix[output][input], checked by `_checked_form`."""
        den, nums = _checked_form(dom, cod, [[entry_ratio(x) for x in r] for r in matrix])
        self.__dict__.update(dom=dom, cod=cod, den=den, nums=nums)

    @cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.nums)

    def __call__(self, out_name: str, in_name: str) -> Fraction:
        return Fraction(self.nums[self.cod.index(out_name)][self.dom.index(in_name)], self.den)

    def column(self, i: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(row[i], self.den) for row in self.nums)

    def __str__(self) -> str:
        return f"StochMap {self.dom.label} -> {self.cod.label} ({len(self.cod)}x{len(self.dom)})"


def _checked_form(dom: FinSet, cod: FinSet, ratios: Sequence[Sequence[tuple[int, int]]],
                  ) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The one check of a map given as reduced (numerator, denominator)
    pairs ratios[output][input]: shape, then signs (the first negative
    entry in row-major order), then column sums.  Returns the map over den,
    the lcm of the denominators.  That form is already reduced: for each
    prime, the entry whose denominator holds its highest power keeps a
    numerator the prime does not divide."""
    rows, cols = len(cod), len(dom)
    if len(ratios) != rows or any(len(r) != cols for r in ratios):
        raise InputError(f"matrix must be {rows}x{cols} for {cod} given {dom}")
    dens = set()
    for r in ratios:
        for n, d in r:
            if n < 0:
                raise InputError(f"negative probability {Fraction(n, d)}")
            dens.add(d)
    den = lcm(*dens)
    nums = tuple([tuple([n * (den // d) for n, d in r]) for r in ratios])
    for i, total in enumerate(map(sum, zip(*nums))):
        if total != den:
            raise InputError(f"column {i} ({dom[i]!r}) sums to "
                             f"{Fraction(total, den)}, not 1")
    return den, nums


def from_ratios(dom: FinSet, cod: FinSet,
                ratios: Sequence[Sequence[tuple[int, int]]]) -> StochMap:
    """The map with entries n/d for the reduced pairs ratios[output][input],
    checked as the public constructor checks a `Fraction` matrix, but
    without building a `Fraction`."""
    return _kernel_map(dom, cod, *_checked_form(dom, cod, ratios))


def _kernel_map(dom: FinSet, cod: FinSet, den: int,
                nums: tuple[tuple[int, ...], ...]) -> StochMap:
    """A map from nums over den, already reduced, without a check: the
    kernels build from valid maps or index tables, and `from_ratios` and
    `SharedRandomness` have checked already."""
    m = object.__new__(StochMap)
    m.__dict__.update(dom=dom, cod=cod, den=den, nums=nums)
    return m


def identity(a: FinSet) -> StochMap:
    return from_function(a, a, range(len(a)))


def from_function(dom: FinSet, cod: FinSet, f: Sequence[int]) -> StochMap:
    """Deterministic map from an index table: input i goes to output f[i]."""
    table = list(f)
    if len(table) != len(dom) or any(not 0 <= j < len(cod) for j in table):
        raise InputError("function table does not match the domain/codomain")
    rows = [[0] * len(dom) for _ in range(len(cod))]
    for i, j in enumerate(table):
        rows[j][i] = 1
    return _kernel_map(dom, cod, 1, tuple(map(tuple, rows)))


def state(cod: FinSet, probs: Sequence[Fraction | int | str]) -> StochMap:
    """Distribution on `cod` as a map out of the unit object.  A string is
    read as a rational (such as "1/2"); any other entry goes to the
    `StochMap` constructor."""
    return StochMap(UNIT, cod, [(Fraction(p) if isinstance(p, str) else p,) for p in probs])


def point_state(cod: FinSet, name: str) -> StochMap:
    i = cod.index(name)
    return state(cod, [F1 if j == i else F0 for j in range(len(cod))])


def uniform_state(cod: FinSet) -> StochMap:
    return state(cod, [Fraction(1, len(cod))] * len(cod))


def discard(dom: FinSet) -> StochMap:
    return from_function(dom, UNIT, [0] * len(dom))


def compose_seq(q: StochMap, p: StochMap,
                left: FinSet = UNIT, right: FinSet = UNIT) -> StochMap:
    """(id_left (x) q (x) id_right) after p, without building that map;
    with both sides the unit, q after p.

    The same map, alphabets, labels and `CompositionError` text as p
    followed by the product `compose_par(compose_par(identity(left), q),
    identity(right))`, except that a unit side is left off: with both
    sides the unit the result runs to q's own codomain.  The numerators
    are the integer product over q.den * p.den, reduced by one gcd.
    Output row (l, y, r) sums, over q's nonzero entries w = q[y][x], w
    times p's row (l, x, r), skipping zero entries of p's rows; where q's
    row is a single 1, it is p's row itself.  So sparse maps (identities,
    swaps, deterministic maps and their tensor products) cost little.
    """
    dom, cod = q.dom, q.cod
    if left != UNIT:
        dom, cod = tensor(left, dom), tensor(left, cod)
    if right != UNIT:
        dom, cod = tensor(dom, right), tensor(cod, right)
    if p.cod != dom:
        raise CompositionError(
            f"cannot compose {dom} -> {cod} after {p.dom} -> {p.cod}: "
            f"middle types differ")
    nr = len(right)
    block = len(q.dom) * nr
    nd = len(p.dom)
    src = p.nums
    rows: list[Sequence[int]] = []
    for base in range(0, len(src), block):
        # per symbol r of the right side, p's rows (l, x, r) for every x
        strips = [src[r:base + block:nr] for r in range(base, base + nr)]
        for qrow in q.nums:
            # numerators are non-negative: a row summing to 1 is a single 1
            one = qrow.index(1) if sum(qrow) == 1 else -1
            for prows in strips:
                if one >= 0:
                    rows.append(prows[one])
                    continue
                acc = [0] * nd
                for w, prow in zip(qrow, prows):
                    if w:
                        for a, x in enumerate(prow):
                            if x:
                                acc[a] += w * x
                rows.append(acc)
    den = q.den * p.den
    g = gcd(den, *itertools.chain.from_iterable(rows)) if den > 1 else 1
    if g > 1:
        return _kernel_map(p.dom, cod, den // g, tuple(tuple(x // g for x in row) for row in rows))
    return _kernel_map(p.dom, cod, den, tuple(map(tuple, rows)))


def compose_par(p: StochMap, q: StochMap) -> StochMap:
    """Side-by-side execution: Kronecker product on product alphabets.

    The numerators' Kronecker product over p.den * q.den.  Blocks under a
    zero entry of p are written as zeros, and under an entry 1 as q's row,
    without multiplying."""
    dom = tensor(p.dom, q.dom)
    cod = tensor(p.cod, q.cod)
    zeros = (0,) * len(q.dom)
    rows = []
    for prow in p.nums:
        for qrow in q.nums:
            row: list[int] = []
            for x in prow:
                row.extend(qrow if x == 1 else [x * y for y in qrow] if x else zeros)
            rows.append(tuple(row))
    # Already reduced: a prime dividing every product x*y divides, for each
    # pair of columns, all of p's column or all of q's; so it divides all of
    # p or all of q, and then that map's denominator (a column sum) too,
    # which a reduced map rules out.
    return _kernel_map(dom, cod, p.den * q.den, tuple(rows))


def swap(a: FinSet, b: FinSet) -> StochMap:
    """The symmetry (x,y) -> (y,x) as a deterministic map."""
    na, nb = len(a), len(b)
    # (x, y) sits at index x*nb + y of a*b and at y*na + x of b*a
    return from_function(tensor(a, b), tensor(b, a),
                         [(i % nb) * na + i // nb for i in range(na * nb)])


def is_deterministic(p: StochMap) -> bool:
    return p.den == 1


def all_deterministic_maps(dom: FinSet, cod: FinSet) -> list[StochMap]:
    out = []
    for table in itertools.product(range(len(cod)), repeat=len(dom)):
        out.append(from_function(dom, cod, table))
    return out


def random_stoch_map(rng: Random, dom: FinSet, cod: FinSet) -> StochMap:
    """Random column-stochastic matrix with small rational entries: each
    column is integer weights 0..4, normalised."""
    cols = []
    for _ in range(len(dom)):
        w = [rng.randint(0, 4) for _ in range(len(cod))]
        if sum(w) == 0:
            w[rng.randrange(len(cod))] = 1
        total = sum(w)
        cols.append([Fraction(x, total) for x in w])
    rows = tuple(tuple(cols[i][j] for i in range(len(dom))) for j in range(len(cod)))
    return StochMap(dom, cod, rows)


def _split_product_left(product: FinSet, right: FinSet) -> FinSet | None:
    """The X with X tensor `right` equal to `product`, or None if there is none."""
    if right == UNIT:
        return product
    if product == right:
        return UNIT
    nr, suffix = len(right), f"|{right[0]}"
    cells = product[::nr]
    if len(product) % nr or not all(c.endswith(suffix) for c in cells):
        return None
    left = FinSet(f"{product.label}/{right.label}", [c[: -len(suffix)] for c in cells])
    return left if tensor(left, right) == product else None


@dataclass(frozen=True, init=False)
class SharedRandomness:
    """Shared randomness: one state on sa (x) sb, entry (x, y) the chance
    that Alice holds x and Bob holds y.  Equality and hashing compare (sa,
    sb, state); `joint`, its `Fraction` rows, is built on first read and cached."""

    sa: FinSet
    sb: FinSet
    state: StochMap

    def __init__(self, sa: FinSet, sb: FinSet, joint: Sequence[Sequence[Fraction | int]]) -> None:
        """The rows joint[x][y] of ints or `Fraction`s, checked for shape, signs and
        total, kept over the lcm of their denominators (reduced: see `_checked_form`)."""
        if len(joint) != len(sa) or any(len(r) != len(sb) for r in joint):
            raise InputError("joint distribution shape must be |sa| x |sb|")
        ratios = [entry_ratio(x) for row in joint for x in row]
        if any(n < 0 for n, _ in ratios):
            raise InputError("joint probabilities must be non-negative")
        den = lcm(*(d for _, d in ratios))
        nums = tuple((n * (den // d),) for n, d in ratios)
        if sum(n for (n,) in nums) != den:
            raise InputError("joint distribution must sum to 1")
        self.__dict__.update(sa=sa, sb=sb, state=_kernel_map(UNIT, tensor(sa, sb), den, nums))

    @cached_property
    def joint(self) -> tuple[tuple[Fraction, ...], ...]:
        col, nb = self.state.column(0), len(self.sb)
        return tuple(col[i:i + nb] for i in range(0, len(col), nb))


def trivial_randomness() -> SharedRandomness:
    return SharedRandomness(UNIT, UNIT, ((F1,),))


def simulate_channel(p: StochMap, e: StochMap, d: StochMap,
                     r: SharedRandomness) -> StochMap:
    """Wrap channel p with encoder e, decoder d and shared randomness r.

    e maps (new input, Alice's share) to p's input; d maps (p's output,
    Bob's share) to the new output.  The result is

        Q(b'|a') = sum over a, b, x, y of
                   d(b'|b,y) * p(b|a) * e(a|a',x) * r(x,y),

    the kernel composition d . (p (x) id_sb) . (e (x) id_sb) . (id_a' (x) r)
    on r's state: `compose_par` for the first step, then `compose_seq`, with
    sb as the right side in the middle two.  Q is linear in each of e, d
    and r when the other two are fixed.  r was checked when it was built,
    so no step is checked again.
    """
    if e.cod != p.dom:
        raise CompositionError(f"encoder output {e.cod} does not match channel input {p.dom}")
    if d.dom != tensor(p.cod, r.sb):
        raise CompositionError(f"decoder input {d.dom} does not factor as {p.cod} tensor {r.sb}")
    a_new = _split_product_left(e.dom, r.sa)
    if a_new is None:
        raise CompositionError(f"encoder input {e.dom} does not factor as X tensor {r.sa}")
    spread = compose_par(identity(a_new), r.state)
    return compose_seq(d, compose_seq(p, compose_seq(e, spread, right=r.sb), right=r.sb))


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
    return from_function(tensor(left, shared), target,
                         [f[i] for i in range(len(left)) for f in funcs])


def search_exact_simulation(p: StochMap, target: StochMap, caps: int = 8) -> Decision:
    """Can wrapping `p` with free encodings reproduce `target` exactly?

    The search restricts encoders and decoders to deterministic maps
    conditioned on the shared-randomness value.  That loses nothing when
    shared randomness is free: every stochastic map is a mixture of
    deterministic ones and the simulated channel is linear in each of
    the encoder and the decoder, so every strategy's result is a mixture
    of deterministic pairs' results, found by one exact feasibility LP
    over those pairs.  Each distinct wrapped map dec . p . enc is tried
    once, as the first pair giving it (encoders outer, decoders inner):
    one check against the target and one LP column.  A repeat could not
    change the answer (see `feasible_nonneg_solution`).  An infeasible LP
    is still answered Unknown, since the answer would carry no checkable
    witness.

    Proven decisions carry a SimulationWitness that replays through
    simulate_channel; its joint distribution holds the LP's `Fraction`
    weights.  Refuted is returned only on a sound impossibility
    argument: a channel whose output does not depend on its input can
    only ever simulate channels of the same kind.  Everything else is
    Unknown at the given caps.  `caps` bounds both the encoder support
    and the decoder support: a mixture is accepted only if it uses at
    most `caps` distinct encoders and at most `caps` distinct decoders,
    which become the shared-randomness alphabets.
    """
    if caps < 1:
        raise InputError("caps must be at least 1")

    # Columns of integer numerators, over p.den and target.den.
    p_cols, t_cols = list(zip(*p.nums)), list(zip(*target.nums))

    # Sound refutation: constant channels are closed under wrapping.
    if len(set(p_cols)) == 1 and len(set(t_cols)) > 1:
        i0, j0 = next((i, j)
                      for i in range(len(t_cols))
                      for j in range(len(t_cols))
                      if t_cols[i] != t_cols[j])
        return Decision.refuted(("input-independent-channel", i0, j0),
                                note="p ignores its input but target does not")

    n_enc = len(p.dom) ** len(target.dom)
    n_dec = len(target.cod) ** len(p.cod)
    if n_enc * n_dec > 20_000:
        return Decision.unknown(caps, note=f"strategy space has {n_enc * n_dec} pairs; "
                                           "beyond the desk-scale search limit")
    encoders = list(itertools.product(range(len(p.dom)), repeat=len(target.dom)))
    decoders = list(itertools.product(range(len(target.cod)), repeat=len(p.cod)))

    # Each decoder's columns of dec . p, over p.den: the column of
    # dec . p . enc is the encoder's pick of them, one per input of target.
    pushed = []
    for dec in decoders:
        cols = []
        for p_col in p_cols:
            col = [0] * len(target.cod)
            for b, x in enumerate(p_col):
                col[dec[b]] += x
            cols.append(tuple(col))
        pushed.append(cols)

    # A column over p.den matches the target iff it is the target's columns
    # over p.den; when an entry has no such form, no column matches.
    fits = all(y * p.den % target.den == 0 for col in t_cols for y in col)
    goal = tuple(tuple(y * p.den // target.den for y in col) for col in t_cols) if fits else None

    # The first pair of each distinct column keeps it.  One pair matching
    # alone needs no randomness; else the distinct columns go to the LP.
    columns: dict[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for enc in encoders:
        for dec, cols in zip(decoders, pushed):
            column = tuple(cols[a] for a in enc)
            if column in columns:
                continue
            if column == goal:
                return Decision.proven(SimulationWitness(
                    _map_from_functions(target.dom, UNIT, p.dom, [enc]),
                    _map_from_functions(p.cod, UNIT, target.cod, [dec]),
                    trivial_randomness()))
            columns[column] = enc, dec
    pairs = list(columns.values())

    # Exact feasibility over joint mixtures of encoder/decoder pairs.
    # Rational rows, not integer ones: scaling a row would change Bland's
    # phase-1 cost row, and so possibly the pivots and the witness.
    entries = {x for column in columns for col in column for x in col}
    frac = {x: Fraction(x, p.den) for x in entries}
    equations = [[frac[column[i][j]] for column in columns]
                 for i in range(len(t_cols)) for j in range(len(target.cod))]
    equations.append([F1] * len(pairs))
    rhs = [Fraction(y, target.den) for col in t_cols for y in col] + [F1]
    sol = feasible_nonneg_solution(equations, rhs)
    if sol is not None:
        support = [k for k, w in enumerate(sol) if w != 0]
        used_enc = sorted({pairs[k][0] for k in support})
        used_dec = sorted({pairs[k][1] for k in support})
        if len(used_enc) <= caps and len(used_dec) <= caps:
            sa = finset("x", len(used_enc))
            sb = finset("y", len(used_dec))
            joint = [[F0] * len(used_dec) for _ in range(len(used_enc))]
            for k in support:
                joint[used_enc.index(pairs[k][0])][used_dec.index(pairs[k][1])] += sol[k]
            witness = SimulationWitness(
                _map_from_functions(target.dom, sa, p.dom, used_enc),
                _map_from_functions(p.cod, sb, target.cod, used_dec),
                SharedRandomness(sa, sb, joint))
            return Decision.proven(witness)
        return Decision.unknown(caps, note="mixture found but its support exceeds the caps")
    return Decision.unknown(caps, note="no deterministic-given-randomness strategy matches")


_StateKey = tuple[FinSet, int, tuple[int, ...]]
# a one-step map g and its nonzero entries as (domain symbol, codomain
# symbol, weight) triples, integer weights over g.den
_Step = tuple[StochMap, list[tuple[int, int, int]]]


def _reduced_key(cod: FinSet, den: int, nums: Sequence[int]) -> _StateKey:
    """The closure's key for the distribution nums / den on cod, reduced
    so that gcd(den, *nums) = 1 and each distribution has one key."""
    g = gcd(den, *nums)
    return (cod, den // g, tuple(x // g for x in nums)) if g > 1 else (cod, den, tuple(nums))


def _state_key(m: StochMap) -> _StateKey:
    """A state's identity in the closure: (codomain, d, numerators).  A
    state's map is one column, reduced, so this is the reduced key."""
    return m.cod, m.den, tuple(row[0] for row in m.nums)


def _step(g: StochMap) -> _Step:
    """g as a sparse integer step: its nonzero numerators over g.den.
    A deterministic map has one entry of weight 1 per domain symbol and
    denominator 1."""
    return g, [(i, j, x) for j, row in enumerate(g.nums) for i, x in enumerate(row) if x]


def search_free_transformation_batch(s: StochMap, targets: Sequence[StochMap],
                                     free_generators: Sequence[StochMap],
                                     depth: int) -> list[Decision]:
    """Search for circuits of free generators carrying state s to each target.

    All targets are answered from one breadth-first closure of s, which
    stops once every target is found.  A state of the closure is its key
    (codomain, d, numerators): the distribution as integer
    numerators over a denominator d, with gcd(d, *numerators) = 1 so that
    one distribution has one key however it was reached.

    Each step applies a single generator, or a parallel pair g1 (x) g2 of
    generators/identities whose domains tensor to the state's alphabet.
    A domain d1 has at most one right factor r with d1 (x) r equal to the
    alphabet, so each alphabet is factored once over the pool's distinct
    domains and each g1 is paired with the pool maps out of its r.  The
    one-step maps out of an alphabet are built once, each as one sparse
    integer table (see _step) over its denominator g.den; a step pushes
    the numerators through it exactly, to numerators over d * g.den.
    Maps that agree on a state's support give it the same successor, so
    per alphabet and support the tables are restricted to the support and
    each distinct restricted step is tried once, by the first map giving it.

    Proven witnesses are the shortest sequences of one-step maps whose
    composite sends s to the target exactly; replay by folding
    compose_seq.  Parallel structure is explored one pairing per step,
    which covers chains of single and pairwise-parallel generator
    applications.
    """
    keys = []
    for t in targets:
        if t.dom != UNIT:
            raise InputError("targets must be states")
        keys.append(_state_key(t))
    if s.dom != UNIT:
        raise InputError("search starts from a state (singleton-domain map)")

    by_dom: dict[FinSet, list[StochMap]] = {}
    for g in free_generators:
        by_dom.setdefault(g.dom, []).append(g)
    alphabets = list(dict.fromkeys(fs for g in free_generators for fs in (g.dom, g.cod)))

    # The alphabets hold every pool domain.  Left factors run by size class, then
    # in pool order: the first trace found for a state depends on this order.
    pool = list(free_generators) + [identity(fs) for fs in alphabets]
    pool_by_size: dict[int, list[StochMap]] = {}
    pool_by_dom: dict[FinSet, list[StochMap]] = {}
    for g in pool:
        pool_by_size.setdefault(len(g.dom), []).append(g)
        pool_by_dom.setdefault(g.dom, []).append(g)
    lefts = [g for gs in pool_by_size.values() for g in gs]

    def one_step_maps(cod: FinSet) -> list[_Step]:
        right = {d: r for d in alphabets for r in alphabets if len(d) * len(r) == len(cod)
                 and tensor(d, r) == cod}
        pairs = [compose_par(g1, g2) for g1 in lefts if g1.dom in right
                 for g2 in pool_by_dom[right[g1.dom]]]
        return [_step(g) for g in by_dom.get(cod, []) + pairs]

    step_cache: dict[FinSet, list[_Step]] = {}
    # per (alphabet, support): the first map of each distinct
    # (codomain, denominator, table restricted to the support)
    restricted: dict[tuple[FinSet, tuple[int, ...]], list[_Step]] = {}

    def moves(key: _StateKey):
        cod, den, nums = key
        support = tuple(i for i, x in enumerate(nums) if x)
        steps = restricted.get((cod, support))
        if steps is None:
            if cod not in step_cache:
                step_cache[cod] = one_step_maps(cod)
            distinct: dict[tuple, _Step] = {}
            for g, table in step_cache[cod]:
                kept = [(i, j, w) for i, j, w in table if nums[i]]
                distinct.setdefault((g.cod, g.den, tuple(kept)), (g, kept))
            steps = restricted[cod, support] = list(distinct.values())
        for g, table in steps:
            col = [0] * len(g.cod)
            for i, j, w in table:
                col[j] += w * nums[i]
            yield _reduced_key(g.cod, den * g.den, col), g

    found = shortest_traces(_state_key(s), moves, depth, keys)
    return [Decision.proven(("circuit", found[k])) if k in found else Decision.unknown(depth)
            for k in keys]
