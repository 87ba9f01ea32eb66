import itertools
from fractions import Fraction
from random import Random

import pytest

from resconv.combs import (NComb, OneComb, UCTransformation, apply_comb,
                           apply_comb_in_context, apply_ncomb, apply_uc,
                           comb_equivalent, comb_tensor, compose_combs_par, compose_combs_seq,
                           identity_comb, plug_ncombs, symmetry_comb)
from resconv.core import InputError
from resconv.stoch import (UNIT, CompositionError, all_deterministic_maps, compose_par,
                           compose_seq, discard, finset, from_function, identity, point_state,
                           random_stoch_map, state, tensor, uniform_state)

from conftest import contract_comb_on_process, random_comb

F = Fraction

A2 = finset("a", 2)
B2 = finset("b", 2)
C2 = finset("c", 2)
D2 = finset("d", 2)
Z2 = finset("z", 2)


def test_identity_comb_returns_the_process():
    rng = Random(11)
    k = identity_comb(A2, B2)
    for _ in range(5):
        f = random_stoch_map(rng, A2, B2)
        assert apply_comb(k, f).matrix == f.matrix


def test_discarding_comb_is_constant_in_the_process():
    # pre prepares a fixed input and keeps nothing; post discards the
    # process output and emits a fixed state.
    pre = compose_seq(point_state(A2, "a0"), discard(A2))
    post = constant_post(B2, C2)
    k = OneComb(UNIT, pre, post, A2, B2)
    rng = Random(12)
    results = set()
    for _ in range(5):
        f = random_stoch_map(rng, A2, B2)
        results.add(apply_comb(k, f).matrix)
    assert len(results) == 1


def constant_post(dom, cod):
    return compose_seq(state(cod, ["1/4", "3/4"]), discard(dom))


def test_apply_comb_matches_nested_loop_contraction():
    rng = Random(13)
    for _ in range(20):
        k = random_comb(rng, A2, B2, C2, D2, anc_size=2)
        f = random_stoch_map(rng, A2, B2)
        via_ops = apply_comb(k, f)
        via_loops = contract_comb_on_process(k, f)
        assert [list(r) for r in via_ops.matrix] == via_loops


def reference_comb_tensor(k):
    """comb_tensor as first written: one explicit contraction loop over the
    flat product indices (a, z) -> a*nz + z and (b, z) -> b*nz + z."""
    na, nb = len(k.hole_dom), len(k.hole_cod)
    nap, nbp = len(k.outer_dom), len(k.outer_cod)
    nz = len(k.ancilla)
    rows = []
    for a in range(na):
        for bp in range(nbp):
            row = []
            for ap in range(nap):
                for b in range(nb):
                    total = F(0)
                    for z in range(nz):
                        total += k.pre.matrix[a * nz + z][ap] * k.post.matrix[bp][b * nz + z]
                    row.append(total)
            rows.append(tuple(row))
    return tuple(rows)


def test_comb_tensor_matches_the_contraction_loop():
    rng = Random(17)
    b3, d3, w3 = finset("b", 3), finset("d", 3), finset("w", 3)
    cases = []
    for a, b, z in itertools.product((UNIT, A2), (UNIT, b3), (UNIT, Z2, w3)):
        for ap, bp in ((C2, D2), (UNIT, d3)):
            for _ in range(2):
                cases.append(OneComb(z, random_stoch_map(rng, ap, tensor(a, z)),
                                     random_stoch_map(rng, tensor(b, z), bp), a, b))
    assert len(cases) == 48
    for k in cases:
        assert comb_tensor(k).matrix == reference_comb_tensor(k)


def test_apply_comb_checks_hole_type():
    k = identity_comb(A2, B2)
    with pytest.raises(CompositionError):
        apply_comb(k, identity(finset("w", 3)))


# equivalence

def test_adjoined_discarded_ancilla_is_equivalent():
    rng = Random(14)
    k = random_comb(rng, A2, B2, C2, D2, anc_size=2)
    extra = finset("e", 3)
    pre2 = compose_seq(compose_par(k.pre, uniform_state(extra)), identity(C2))
    post2 = compose_seq(k.post, compose_par(identity(tensor(B2, k.ancilla)), discard(extra)))
    k2 = OneComb(tensor(k.ancilla, extra), pre2, post2, A2, B2)
    assert comb_equivalent(k, k2)


def test_pre_difference_marginalized_by_post_is_equivalent():
    # Two pre maps differing only in the ancilla they emit, discarded by
    # the same post map.
    pre1 = compose_par(identity(A2), point_state(Z2, "z0"))
    pre2 = compose_par(identity(A2), point_state(Z2, "z1"))
    post = compose_par(identity(B2), discard(Z2))
    k1 = OneComb(Z2, pre1, post, A2, B2)
    k2 = OneComb(Z2, pre2, post, A2, B2)
    assert comb_equivalent(k1, k2)


def test_different_constant_outputs_differ():
    pre = compose_seq(point_state(A2, "a0"), discard(A2))
    k1 = OneComb(UNIT, pre, compose_seq(point_state(C2, "c0"), discard(B2)), A2, B2)
    k2 = OneComb(UNIT, pre, compose_seq(point_state(C2, "c1"), discard(B2)), A2, B2)
    assert not comb_equivalent(k1, k2)


def test_equivalence_agrees_with_contextual_application():
    # Definitional cross-check: equal behavior tensors iff equal results
    # on deterministic context processes with side wires up to size 3.
    rng = Random(15)
    pairs = []
    for _ in range(6):
        k1 = random_comb(rng, A2, B2, C2, D2, anc_size=2)
        k2 = random_comb(rng, A2, B2, C2, D2, anc_size=2)
        pairs.append((k1, k2))
        # also a pair made equivalent by construction
        extra = finset("e", 2)
        pre2 = compose_seq(compose_par(k1.pre, uniform_state(extra)), identity(C2))
        post2 = compose_seq(k1.post, compose_par(identity(tensor(B2, k1.ancilla)), discard(extra)))
        pairs.append((k1, OneComb(tensor(k1.ancilla, extra), pre2, post2, A2, B2)))
    hrng = Random(150)
    for k1, k2 in pairs:
        expected = comb_equivalent(k1, k2)
        agree = True
        for side in (1, 2, 3):
            e_in = finset("ein", side)
            e_out = finset("eout", side)
            if side == 1:
                hs = all_deterministic_maps(tensor(A2, e_in), tensor(B2, e_out))
            else:
                hs = [random_stoch_map(hrng, tensor(A2, e_in), tensor(B2, e_out))
                      for _ in range(8)]
            for h in hs:
                r1 = apply_comb_in_context(k1, h, e_in, e_out)
                r2 = apply_comb_in_context(k2, h, e_in, e_out)
                if r1.matrix != r2.matrix:
                    agree = False
                    break
            if not agree:
                break
        assert agree == expected


# composition laws (spot checks; the randomized battery lives in acceptance)

def test_identity_comb_is_a_unit_for_composition():
    rng = Random(16)
    k = random_comb(rng, A2, B2, C2, D2)
    assert comb_equivalent(compose_combs_seq(identity_comb(C2, D2), k), k)
    assert comb_equivalent(compose_combs_seq(k, identity_comb(A2, B2)), k)


def test_sequential_composition_applies_in_order():
    rng = Random(17)
    k1 = random_comb(rng, A2, B2, C2, D2)
    k2 = random_comb(rng, C2, D2, A2, B2)
    f = random_stoch_map(rng, A2, B2)
    assert apply_comb(compose_combs_seq(k2, k1), f).matrix == \
        apply_comb(k2, apply_comb(k1, f)).matrix


def test_parallel_composition_applies_componentwise():
    rng = Random(18)
    k1 = random_comb(rng, A2, B2, C2, D2)
    k2 = random_comb(rng, B2, C2, D2, A2)
    f1 = random_stoch_map(rng, A2, B2)
    f2 = random_stoch_map(rng, B2, C2)
    assert apply_comb(compose_combs_par(k1, k2), compose_par(f1, f2)).matrix == \
        compose_par(apply_comb(k1, f1), apply_comb(k2, f2)).matrix


def test_bifunctoriality_up_to_equivalence():
    rng = Random(19)
    for _ in range(5):
        k1 = random_comb(rng, C2, D2, A2, B2)
        k2 = random_comb(rng, D2, A2, B2, C2)
        k3 = random_comb(rng, A2, B2, C2, D2)
        k4 = random_comb(rng, B2, C2, D2, A2)
        lhs = compose_combs_seq(compose_combs_par(k1, k2), compose_combs_par(k3, k4))
        rhs = compose_combs_par(compose_combs_seq(k1, k3), compose_combs_seq(k2, k4))
        assert comb_equivalent(lhs, rhs)


def test_symmetry_naturality_up_to_equivalence():
    rng = Random(20)
    for _ in range(5):
        k1 = random_comb(rng, A2, B2, C2, D2)
        k2 = random_comb(rng, B2, C2, D2, A2)
        sym_out = symmetry_comb((C2, D2), (D2, A2))
        sym_in = symmetry_comb((A2, B2), (B2, C2))
        lhs = compose_combs_seq(sym_out, compose_combs_par(k1, k2))
        rhs = compose_combs_seq(compose_combs_par(k2, k1), sym_in)
        assert comb_equivalent(lhs, rhs)


def test_waste_free_plugging_yields_the_trivial_process():
    rng = Random(21)
    pre = point_state(A2, "a0")
    k = OneComb(UNIT, pre, discard(B2), A2, B2)
    for _ in range(5):
        f = random_stoch_map(rng, A2, B2)
        out = apply_comb(k, f)
        assert out.dom == UNIT
        assert out.cod == UNIT
        assert out.matrix == ((F(1),),)


# multi-hole combs

def two_comb(rng):
    # chain: stage0; hole0 (A2->B2) with ancilla Z2; stage1; hole1 (B2->C2)
    # with ancilla z'; stage2
    z1 = finset("u", 2)
    stage0 = random_stoch_map(rng, A2, tensor(A2, Z2))
    stage1 = random_stoch_map(rng, tensor(B2, Z2), tensor(B2, z1))
    stage2 = random_stoch_map(rng, tensor(C2, z1), D2)
    return NComb(((A2, B2), (B2, C2)), (0, 1), (stage0, stage1, stage2), (Z2, z1))


def test_ncomb_application_matches_manual_chain():
    rng = Random(22)
    k = two_comb(rng)
    f0 = random_stoch_map(rng, A2, B2)
    f1 = random_stoch_map(rng, B2, C2)
    manual = compose_seq(k.stages[2],
             compose_seq(compose_par(f1, identity(k.ancillas[1])),
             compose_seq(k.stages[1],
             compose_seq(compose_par(f0, identity(k.ancillas[0])),
                         k.stages[0]))))
    assert apply_ncomb(k, [f0, f1]).matrix == manual.matrix


def test_ncomb_respects_its_hole_order():
    # order = (1, 0): hole 1 is plugged first along the chain.
    rng = Random(23)
    z1 = finset("u", 2)
    stage0 = random_stoch_map(rng, A2, tensor(B2, Z2))
    stage1 = random_stoch_map(rng, tensor(C2, Z2), tensor(A2, z1))
    stage2 = random_stoch_map(rng, tensor(B2, z1), D2)
    k = NComb(((A2, B2), (B2, C2)), (1, 0), (stage0, stage1, stage2), (Z2, z1))
    f0 = random_stoch_map(rng, A2, B2)
    f1 = random_stoch_map(rng, B2, C2)
    manual = compose_seq(stage2,
             compose_seq(compose_par(f0, identity(z1)),
             compose_seq(stage1,
             compose_seq(compose_par(f1, identity(Z2)), stage0))))
    assert apply_ncomb(k, [f0, f1]).matrix == manual.matrix


def test_plugging_identity_combs_is_neutral():
    rng = Random(24)
    outer = two_comb(rng)
    composite = plug_ncombs(outer, [identity_comb(A2, B2), identity_comb(B2, C2)])
    f0 = random_stoch_map(rng, A2, B2)
    f1 = random_stoch_map(rng, B2, C2)
    assert apply_ncomb(composite, [f0, f1]).matrix == \
        apply_ncomb(outer, [f0, f1]).matrix


def test_plugging_matches_nested_evaluation():
    rng = Random(25)
    outer = two_comb(rng)
    inner0 = random_comb(rng, C2, D2, A2, B2)
    inner1 = random_comb(rng, D2, A2, B2, C2)
    composite = plug_ncombs(outer, [inner0, inner1])
    g0 = random_stoch_map(rng, C2, D2)
    g1 = random_stoch_map(rng, D2, A2)
    nested = apply_ncomb(outer, [apply_ncomb(inner0, [g0]),
                                 apply_ncomb(inner1, [g1])])
    assert apply_ncomb(composite, [g0, g1]).matrix == nested.matrix
    assert composite.arity == 2


def test_plugging_respects_a_permuted_outer_comb():
    # outer order (1, 0): its second hole is filled first along the chain
    rng = Random(55)
    z1 = finset("u", 2)
    stage0 = random_stoch_map(rng, A2, tensor(B2, Z2))
    stage1 = random_stoch_map(rng, tensor(C2, Z2), tensor(A2, z1))
    stage2 = random_stoch_map(rng, tensor(B2, z1), D2)
    outer = NComb(((A2, B2), (B2, C2)), (1, 0), (stage0, stage1, stage2), (Z2, z1))
    inner0 = random_comb(rng, C2, D2, A2, B2)
    inner1 = random_comb(rng, D2, A2, B2, C2)
    composite = plug_ncombs(outer, [inner0, inner1])
    g0 = random_stoch_map(rng, C2, D2)
    g1 = random_stoch_map(rng, D2, A2)
    nested = apply_ncomb(outer, [apply_ncomb(inner0, [g0]),
                                 apply_ncomb(inner1, [g1])])
    assert apply_ncomb(composite, [g0, g1]).matrix == nested.matrix


def test_plugging_a_two_hole_comb_into_a_one_hole_outer():
    rng = Random(56)
    # inner: 2-comb producing an A2 -> D2 process; outer: 1-comb around it
    z1 = finset("u", 2)
    stage0 = random_stoch_map(rng, A2, tensor(A2, Z2))
    stage1 = random_stoch_map(rng, tensor(B2, Z2), tensor(B2, z1))
    stage2 = random_stoch_map(rng, tensor(C2, z1), D2)
    inner = NComb(((A2, B2), (B2, C2)), (0, 1), (stage0, stage1, stage2), (Z2, z1))
    outer = random_comb(rng, A2, D2, C2, B2)
    composite = plug_ncombs(outer, [inner])
    assert composite.arity == 2
    f0 = random_stoch_map(rng, A2, B2)
    f1 = random_stoch_map(rng, B2, C2)
    nested = apply_ncomb(outer, [apply_ncomb(inner, [f0, f1])])
    assert apply_ncomb(composite, [f0, f1]).matrix == nested.matrix


def test_one_hole_combs_plug_and_allocate_as_n_combs():
    rng = Random(57)
    k1 = random_comb(rng, A2, B2, C2, D2)
    k2 = random_comb(rng, C2, D2, A2, B2)
    f = random_stoch_map(rng, A2, B2)
    composite = plug_ncombs(k2, [k1])
    assert apply_ncomb(composite, [f]) == apply_comb(k2, apply_comb(k1, f))
    assert composite.stages == compose_combs_seq(k2, k1).stages
    assert apply_uc(UCTransformation((0,), (k1,)), [f]) == [apply_comb(k1, f)]


def test_a_plugged_composite_is_a_plain_n_comb():
    # Only one-hole combs carry the `pre`/`post` names; a plug result keeps
    # the n-comb shape even with one hole.
    rng = Random(58)
    composite = plug_ncombs(random_comb(rng, C2, D2, A2, B2), [random_comb(rng, A2, B2, C2, D2)])
    assert composite.arity == 1
    assert not hasattr(composite, "pre")


def test_plugging_type_mismatch_names_the_hole():
    rng = Random(26)
    outer = two_comb(rng)
    wrong = identity_comb(A2, B2)
    with pytest.raises(CompositionError) as exc:
        plug_ncombs(outer, [wrong, wrong])
    assert "inner comb 1" in str(exc.value)


# allocation transformations

def test_single_identity_allocation():
    t = UCTransformation((0,), (identity_comb(A2, B2),))
    rng = Random(27)
    f = random_stoch_map(rng, A2, B2)
    assert apply_uc(t, [f])[0].matrix == f.matrix


def test_two_inputs_consumed_sequentially_into_one_output():
    rng = Random(28)
    comb = two_comb(rng)
    t = UCTransformation((0, 0), (comb,))
    f0 = random_stoch_map(rng, A2, B2)
    f1 = random_stoch_map(rng, B2, C2)
    assert apply_uc(t, [f0, f1])[0].matrix == apply_ncomb(comb, [f0, f1]).matrix


def test_disjoint_allocation_computes_outputs_independently():
    rng = Random(29)
    k0 = random_comb(rng, A2, B2, C2, D2)
    k1 = random_comb(rng, B2, C2, D2, A2)
    t = UCTransformation((0, 1), (k0, k1))
    f0 = random_stoch_map(rng, A2, B2)
    f1 = random_stoch_map(rng, B2, C2)
    out = apply_uc(t, [f0, f1])
    assert out[0].matrix == apply_ncomb(k0, [f0]).matrix
    assert out[1].matrix == apply_ncomb(k1, [f1]).matrix


def test_allocation_arity_mismatch_rejected():
    with pytest.raises(InputError):
        UCTransformation((0, 0), (identity_comb(A2, B2),))


# constructor and type errors name what is wrong

ONE = identity_comb(A2, B2)


@pytest.mark.parametrize("build, error, message", [
    (lambda: OneComb(UNIT, identity(B2), identity(B2), A2, B2), CompositionError,
     "stage 0 must produce a{a0,a1}, got b{b0,b1}"),
    (lambda: OneComb(UNIT, identity(A2), identity(A2), A2, B2), CompositionError,
     "stage 1 must accept b{b0,b1}, got a{a0,a1}"),
    (lambda: NComb((), (), (identity(A2),), ()), InputError, "a comb needs at least one hole"),
    (lambda: NComb(((A2, B2),), (1,), (identity(A2), identity(B2)), (UNIT,)), InputError,
     "order (1,) is not a permutation of 0..0"),
    (lambda: NComb(((A2, B2),), (0,), (identity(A2),), (UNIT,)), InputError,
     "need n+1 stages and n ancillas for n holes"),
    (lambda: NComb(((A2, B2),), (0,), (identity(B2), identity(B2)), (UNIT,)), CompositionError,
     "stage 0 must produce a{a0,a1}, got b{b0,b1}"),
    (lambda: NComb(((A2, B2),), (0,), (identity(A2), identity(A2)), (UNIT,)), CompositionError,
     "stage 1 must accept b{b0,b1}, got a{a0,a1}"),
    (lambda: UCTransformation((1,), (ONE,)), InputError,
     "input 0 allocated to unknown output 1"),
    (lambda: UCTransformation((0, 0), (ONE,)), InputError,
     "output 0 receives 2 inputs but its comb has 1 holes"),
    (lambda: apply_ncomb(ONE, []), CompositionError, "comb has 1 holes, got 0 processes"),
    (lambda: apply_ncomb(ONE, [identity(A2)]), CompositionError,
     "hole 0 expects a{a0,a1} -> b{b0,b1}, got a{a0,a1} -> a{a0,a1}"),
    (lambda: comb_equivalent(identity_comb(A2, B2), identity_comb(A2, C2)), CompositionError,
     "combs have different hole types"),
    (lambda: comb_equivalent(identity_comb(A2, B2),
                             OneComb(UNIT, from_function(C2, A2, [0, 1]), identity(B2), A2, B2)),
     CompositionError, "combs have different outer types"),
    (lambda: compose_combs_seq(identity_comb(A2, B2), identity_comb(C2, B2)), CompositionError,
     "inner comb 0 yields c{c0,c1} -> b{b0,b1}, hole expects a{a0,a1} -> b{b0,b1}"),
], ids=["one-comb-pre", "one-comb-post", "ncomb-no-hole", "ncomb-order", "ncomb-stage-count",
        "ncomb-stage-output", "ncomb-stage-input", "uc-unknown-output", "uc-arity",
        "apply-ncomb-count", "apply-ncomb-type", "equivalent-hole-types",
        "equivalent-outer-types", "compose-seq-types"])
def test_comb_errors_name_the_mismatch(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message
