"""Combs: circuit fragments with holes for resource processes.

A comb chains stages and ancillas around an ordered sequence of holes.
A one-hole comb is the n = 1 case: a sandwich (ancilla Z, pre, post) with
pre: A' -> A*Z and post: B*Z -> B'; plugging a process f: A -> B yields
post . (f tensor id_Z) . pre.  Equality of the behavior on every plugged
process is decided through the induced four-index tensor, which the
plugged process is contracted against linearly.

Combs plug into each other's holes like a multicategory, and that
plugging is the one composition: sequential composition of one-hole
combs is plugging one into the other's hole.  Allocation transformations
distribute a tuple of processes over several combs.

Where f (x) id_Z would be built only to be applied after the map so far,
as when a comb is applied or an inner comb's first stage is plugged in,
`stoch.compose_local` applies f to its own wires without building the
product.  Products that are kept, such as a plugged comb's later stages,
or that a map is applied after, are built by `compose_par`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import InputError
from .stoch import (UNIT, CompositionError, FinSet, StochMap, compose_local,
                    compose_par, compose_seq, identity, swap, tensor)

HoleType = tuple[FinSet, FinSet]


@dataclass(frozen=True)
class NComb:
    """Comb with one or more holes, filled in the order given by `order`.

    stages[0] feeds the first hole and its ancilla, stages[i] routes hole
    output i-1 to hole input i, stages[n] emits the overall output.
    holes[j] is the process type of hole j; order[i] names the hole
    sitting at chain position i (a permutation of 0..n-1).
    """

    holes: tuple[HoleType, ...]
    order: tuple[int, ...]
    stages: tuple[StochMap, ...]
    ancillas: tuple[FinSet, ...]

    def __post_init__(self) -> None:
        n = len(self.holes)
        if n < 1:
            raise InputError("a comb needs at least one hole")
        if sorted(self.order) != list(range(n)):
            raise InputError(f"order {self.order} is not a permutation of 0..{n - 1}")
        if len(self.stages) != n + 1 or len(self.ancillas) != n:
            raise InputError("need n+1 stages and n ancillas for n holes")
        for i in range(n):
            dom_i, cod_i = self.holes[self.order[i]]
            want_in = tensor(dom_i, self.ancillas[i])
            if self.stages[i].cod != want_in:
                raise CompositionError(
                    f"stage {i} must produce {want_in}, got {self.stages[i].cod}")
            want_out = tensor(cod_i, self.ancillas[i])
            if self.stages[i + 1].dom != want_out:
                raise CompositionError(
                    f"stage {i + 1} must accept {want_out}, got {self.stages[i + 1].dom}")

    @property
    def arity(self) -> int:
        return len(self.holes)

    @property
    def outer_dom(self) -> FinSet:
        return self.stages[0].dom

    @property
    def outer_cod(self) -> FinSet:
        return self.stages[-1].cod


class OneComb(NComb):
    """One-hole comb: the n = 1 comb, named by its one-hole parts.  The
    pre/post maps are expected to come from the free subtheory;
    constructors that build combs from circuits enforce this, direct
    construction trusts the caller."""

    def __init__(self, ancilla: FinSet, pre: StochMap, post: StochMap,
                 hole_dom: FinSet, hole_cod: FinSet) -> None:
        NComb.__init__(self, ((hole_dom, hole_cod),), (0,), (pre, post), (ancilla,))

    @property
    def ancilla(self) -> FinSet:
        return self.ancillas[0]

    @property
    def pre(self) -> StochMap:
        return self.stages[0]

    @property
    def post(self) -> StochMap:
        return self.stages[1]

    @property
    def hole_dom(self) -> FinSet:
        return self.holes[0][0]

    @property
    def hole_cod(self) -> FinSet:
        return self.holes[0][1]


def identity_comb(a: FinSet, b: FinSet) -> OneComb:
    return OneComb(UNIT, identity(a), identity(b), a, b)


def symmetry_comb(first: HoleType, second: HoleType) -> OneComb:
    """The comb turning a process on the joint type into the swapped one."""
    (a1, b1), (a2, b2) = first, second
    return OneComb(UNIT,
                   swap(a2, a1),
                   swap(b1, b2),
                   tensor(a1, a2), tensor(b1, b2))


def apply_comb(k: OneComb, f: StochMap) -> StochMap:
    return apply_ncomb(k, [f])


def apply_comb_in_context(k: OneComb, h: StochMap,
                          side_in: FinSet, side_out: FinSet) -> StochMap:
    """Plug a process h: hole_dom*side_in -> hole_cod*side_out, with the comb
    acting only on the hole factors.  This is the defining behavior that
    comb equivalence quantifies over."""
    if h.dom != tensor(k.hole_dom, side_in):
        raise CompositionError(f"context process input {h.dom} does not match")
    if h.cod != tensor(k.hole_cod, side_out):
        raise CompositionError(f"context process output {h.cod} does not match")
    z = k.ancilla
    stage = compose_par(k.pre, identity(side_in))
    stage = compose_local(swap(z, side_in), stage, left=k.hole_dom)
    stage = compose_local(h, stage, right=z)
    stage = compose_local(swap(side_out, z), stage, left=k.hole_cod)
    return compose_local(k.post, stage, right=side_out)


def comb_tensor(k: OneComb) -> StochMap:
    """The behavior map (id_A (x) (post . swap(Z,B))) . (pre (x) id_B), a
    stochastic map A' (x) B -> A (x) B' that is kernel-built and not checked
    again; the left factor is applied by `compose_local`, not built.  Its
    `.matrix` is the four-index tensor
    W[(a,b')][(a',b)] = sum over z of pre((a,z)|a') * post(b'|(b,z)); two
    combs act identically on every plugged process iff these agree."""
    post = compose_seq(k.post, swap(k.ancilla, k.hole_cod))
    return compose_local(post, compose_par(k.pre, identity(k.hole_cod)), left=k.hole_dom)


def comb_equivalent(k1: OneComb, k2: OneComb) -> bool:
    """Same operational behavior on every plugged process: equal behavior
    maps."""
    if (k1.hole_dom, k1.hole_cod) != (k2.hole_dom, k2.hole_cod):
        raise CompositionError("combs have different hole types")
    if (k1.outer_dom, k1.outer_cod) != (k2.outer_dom, k2.outer_cod):
        raise CompositionError("combs have different outer types")
    return comb_tensor(k1) == comb_tensor(k2)


def compose_combs_seq(k2: OneComb, k1: OneComb) -> OneComb:
    """First transform with k1, then feed the result into k2: k1 plugged
    into k2's hole, seen as a one-hole comb."""
    # plug_ncombs has checked the stage types; the view takes its fields as
    # they are
    k = object.__new__(OneComb)
    k.__dict__.update(plug_ncombs(k2, [k1]).__dict__)
    return k


def compose_combs_par(k1: OneComb, k2: OneComb) -> OneComb:
    """Side-by-side comb acting on a process of the joint hole type."""
    a1, b1, z1 = k1.hole_dom, k1.hole_cod, k1.ancilla
    a2, b2, z2 = k2.hole_dom, k2.hole_cod, k2.ancilla
    pre = compose_par(k1.pre, k2.pre)  # -> A1*Z1*A2*Z2
    pre = compose_local(swap(z1, a2), pre, a1, z2)  # -> A1*A2*Z1*Z2
    post = compose_seq(compose_par(k1.post, k2.post),
                       _mid_shuffle(b1, b2, z1, z2))  # B1*B2*Z1*Z2 -> B1'*B2'
    return OneComb(tensor(z1, z2), pre, post, tensor(a1, a2), tensor(b1, b2))


def _mid_shuffle(w: FinSet, x: FinSet, y: FinSet, z: FinSet) -> StochMap:
    # W*X*Y*Z -> W*Y*X*Z by swapping the middle blocks.
    return compose_par(compose_par(identity(w), swap(x, y)), identity(z))


def apply_ncomb(k: NComb, fs: Sequence[StochMap]) -> StochMap:
    if len(fs) != k.arity:
        raise CompositionError(f"comb has {k.arity} holes, got {len(fs)} processes")
    for j, f in enumerate(fs):
        dom_j, cod_j = k.holes[j]
        if f.dom != dom_j or f.cod != cod_j:
            raise CompositionError(
                f"hole {j} expects {dom_j} -> {cod_j}, got {f.dom} -> {f.cod}")
    cur = k.stages[0]
    for i in range(k.arity):
        f = fs[k.order[i]]
        cur = compose_local(f, cur, right=k.ancillas[i])
        cur = compose_seq(k.stages[i + 1], cur)
    return cur


def plug_ncombs(outer: NComb, inner: Sequence[NComb]) -> NComb:
    """Fill every hole of the outer comb with an inner comb.

    Inner comb j must produce processes of outer hole j's type; the
    result is a comb on the concatenated inner holes (grouped by outer
    hole index) whose application equals nested application exactly.
    """
    if len(inner) != outer.arity:
        raise CompositionError(
            f"outer comb has {outer.arity} holes, got {len(inner)} inner combs")
    for j, inn in enumerate(inner):
        dom_j, cod_j = outer.holes[j]
        if inn.outer_dom != dom_j or inn.outer_cod != cod_j:
            raise CompositionError(
                f"inner comb {j} yields {inn.outer_dom} -> {inn.outer_cod}, "
                f"hole expects {dom_j} -> {cod_j}")

    offsets = []
    acc = 0
    for inn in inner:
        offsets.append(acc)
        acc += inn.arity

    holes: list[HoleType] = []
    for inn in inner:
        holes.extend(inn.holes)

    stages: list[StochMap] = []
    ancillas: list[FinSet] = []
    order: list[int] = []
    pending = outer.stages[0]
    for i in range(outer.arity):
        j = outer.order[i]
        inn = inner[j]
        z_out = outer.ancillas[i]
        stage = compose_local(inn.stages[0], pending, right=z_out)
        for kk in range(inn.arity):
            stages.append(stage)
            ancillas.append(tensor(inn.ancillas[kk], z_out))
            order.append(offsets[j] + inn.order[kk])
            if kk + 1 < inn.arity:
                stage = compose_par(inn.stages[kk + 1], identity(z_out))
        pending = compose_seq(outer.stages[i + 1],
                              compose_par(inn.stages[inn.arity], identity(z_out)))
    stages.append(pending)
    return NComb(tuple(holes), tuple(order), tuple(stages), tuple(ancillas))


@dataclass(frozen=True)
class UCTransformation:
    """Distribute n resource processes over m combs, one comb per output.

    allocation[i] names the output that consumes input i; every input is
    consumed exactly once.  combs[j] is applied to the inputs allocated
    to j, in ascending input order.
    """

    allocation: tuple[int, ...]
    combs: tuple[NComb, ...]

    def __post_init__(self) -> None:
        m = len(self.combs)
        for i, j in enumerate(self.allocation):
            if not 0 <= j < m:
                raise InputError(f"input {i} allocated to unknown output {j}")
        for j, comb in enumerate(self.combs):
            take = [i for i, jj in enumerate(self.allocation) if jj == j]
            if len(take) != comb.arity:
                raise InputError(
                    f"output {j} receives {len(take)} inputs but its comb has "
                    f"{comb.arity} holes")


def apply_uc(t: UCTransformation, fs: Sequence[StochMap]) -> list[StochMap]:
    if len(fs) != len(t.allocation):
        raise CompositionError(
            f"expected {len(t.allocation)} processes, got {len(fs)}")
    outputs = []
    for j, comb in enumerate(t.combs):
        take = [fs[i] for i in range(len(fs)) if t.allocation[i] == j]
        outputs.append(apply_ncomb(comb, take))
    return outputs
