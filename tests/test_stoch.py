import copy
import itertools
import pickle
import sys
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path
from random import Random

import pytest

import resconv.stoch as stoch_module
from resconv.combs import NComb, apply_ncomb, comb_equivalent, compose_combs_seq, plug_ncombs
from resconv.core import Decision, InputError
from resconv.instances import (ProbVector, deterministic_convertible,
                               enumerate_prob_vectors)
from resconv.jsonio import dump_shared_randomness, load_shared_randomness
from resconv.linalg import feasible_nonneg_solution
from resconv.stoch import (UNIT, CompositionError, FinSet, SharedRandomness, StochMap,
                           all_deterministic_maps, compose_par, compose_seq,
                           discard, finset,
                           from_function, identity, is_deterministic, point_state,
                           random_stoch_map, search_exact_simulation,
                           search_free_transformation_batch, simulate_channel, state,
                           swap, tensor, trivial_randomness, uniform_state)

from conftest import random_comb

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import gen as bench_gen  # noqa: E402
import ops as bench_ops  # noqa: E402

F = Fraction

B2 = finset("b", 2)
B3 = finset("c", 3)
B4 = finset("q", 4)

FLIP = from_function(B2, B2, [1, 0])


def assert_column_stochastic(p: StochMap):
    for i in range(len(p.dom)):
        assert sum(p.matrix[j][i] for j in range(len(p.cod))) == 1
        assert all(p.matrix[j][i] >= 0 for j in range(len(p.cod)))


# sequential / parallel composition

def test_identity_is_a_unit():
    rng = Random(1)
    p = random_stoch_map(rng, B2, B3)
    assert compose_seq(identity(B3), p).matrix == p.matrix
    assert compose_seq(p, identity(B2)).matrix == p.matrix


def test_a_map_prints_its_labels_and_shape():
    assert str(identity(finset("a", 2))) == "StochMap a -> a (2x2)"


def test_two_flips_cancel():
    assert compose_seq(FLIP, FLIP).matrix == identity(B2).matrix


def test_constant_absorbs():
    constant = from_function(B3, B2, [0, 0, 0])
    rng = Random(2)
    p = random_stoch_map(rng, B3, B3)
    assert compose_seq(constant, p).matrix == constant.matrix


def test_type_mismatch_names_both_types():
    with pytest.raises(CompositionError) as exc:
        compose_seq(FLIP, from_function(B3, B3, [0, 1, 2]))
    assert "b" in str(exc.value) and "c" in str(exc.value)


def test_par_with_unit_identity_is_transparent():
    rng = Random(3)
    p = random_stoch_map(rng, B2, B3)
    assert compose_par(p, identity(UNIT)).matrix == p.matrix
    assert compose_par(identity(UNIT), p).matrix == p.matrix


def test_product_of_point_masses():
    s = compose_par(point_state(B2, "b0"), point_state(B2, "b1"))
    assert s.cod == ("b0|b0", "b0|b1", "b1|b0", "b1|b1")
    assert [row[0] for row in s.matrix] == [F(0), F(1), F(0), F(0)]


def test_uniform_tensor_uniform_is_uniform4():
    s = compose_par(uniform_state(B2), uniform_state(B2))
    assert [row[0] for row in s.matrix] == [F(1, 4)] * 4


# swap

def test_swap_2x2_is_the_exchange_permutation():
    sw = swap(B2, B2)
    assert is_deterministic(sw)
    assert sw("b0|b0", "b0|b0") == 1
    assert sw("b1|b0", "b0|b1") == 1
    assert sw("b0|b1", "b1|b0") == 1
    assert compose_seq(swap(B2, B2), sw).matrix == identity(tensor(B2, B2)).matrix


def test_swap_with_unit_is_identity():
    assert swap(B2, UNIT).matrix == identity(B2).matrix


def test_swap_naturality_on_random_maps():
    rng = Random(4)
    for _ in range(10):
        p = random_stoch_map(rng, B2, B2)
        q = random_stoch_map(rng, B2, B2)
        lhs = compose_seq(swap(B2, B2), compose_par(p, q))
        rhs = compose_seq(compose_par(q, p), swap(B2, B2))
        assert lhs.matrix == rhs.matrix


# SMC laws on random instances

def test_sequential_associativity():
    rng = Random(5)
    for _ in range(10):
        p = random_stoch_map(rng, B2, B3)
        q = random_stoch_map(rng, B3, B2)
        r = random_stoch_map(rng, B2, B4)
        assert compose_seq(compose_seq(r, q), p).matrix == \
            compose_seq(r, compose_seq(q, p)).matrix


def test_parallel_associativity_is_strict():
    rng = Random(6)
    p = random_stoch_map(rng, B2, B2)
    q = random_stoch_map(rng, B3, B2)
    r = random_stoch_map(rng, B2, B3)
    a = compose_par(compose_par(p, q), r)
    b = compose_par(p, compose_par(q, r))
    assert a.dom == b.dom
    assert a.matrix == b.matrix


def test_interchange_law():
    rng = Random(7)
    for _ in range(10):
        p = random_stoch_map(rng, B3, B2)
        p2 = random_stoch_map(rng, B2, B3)
        q = random_stoch_map(rng, B2, B4)
        q2 = random_stoch_map(rng, B3, B2)
        lhs = compose_seq(compose_par(p, q), compose_par(p2, q2))
        rhs = compose_par(compose_seq(p, p2), compose_seq(q, q2))
        assert lhs.matrix == rhs.matrix


def test_constructors_stay_column_stochastic():
    rng = Random(8)
    for _ in range(10):
        p = random_stoch_map(rng, B3, B4)
        q = random_stoch_map(rng, B4, B2)
        assert_column_stochastic(compose_seq(q, p))
        assert_column_stochastic(compose_par(p, q))
        assert_column_stochastic(swap(B3, B4))


def test_column_that_does_not_sum_to_one_is_named_with_its_exact_sum():
    with pytest.raises(InputError) as exc:
        StochMap(finset("a", 2), B2, ((F(1), F(1, 2)), (F(0), F(1, 3))))
    assert str(exc.value) == "column 1 ('a1') sums to 5/6, not 1"


def test_negative_entry_is_reported_before_a_wrong_column_sum():
    with pytest.raises(InputError) as exc:
        StochMap(finset("a", 2), B2, ((F(1), F(-1, 2)), (F(1, 2), F(3, 2))))
    assert str(exc.value) == "negative probability -1/2"


def test_kernels_skip_the_public_check_that_the_constructor_keeps(monkeypatch):
    rng = Random(10)
    p, q = random_stoch_map(rng, B2, B3), random_stoch_map(rng, B3, B4)
    checked = []
    real_init = StochMap.__init__

    def checked_init(m, dom, cod, matrix):  # the public constructor, check included
        real_init(m, dom, cod, matrix)
        checked.append(m)

    monkeypatch.setattr(StochMap, "__init__", checked_init)
    built = [from_function(B3, B2, [0, 1, 1]), compose_seq(q, p), compose_par(p, q),
             identity(B2), swap(B2, B3), discard(B4)]
    assert checked == []
    assert StochMap(p.dom, p.cod, p.matrix) == p and checked == [p]
    monkeypatch.undo()
    assert [StochMap(m.dom, m.cod, m.matrix) for m in built] == built
    with pytest.raises(InputError) as exc:
        StochMap(UNIT, B2, ((F(3, 2),), (F(-1, 2),)))
    assert str(exc.value) == "negative probability -1/2"
    with pytest.raises(InputError) as exc:
        StochMap(B2, B2, ((F(1), F(1, 3)), (F(0), F(1, 3))))
    assert str(exc.value) == "column 1 ('b1') sums to 2/3, not 1"


def test_maps_are_reduced_and_equal_by_value_whatever_the_route():
    rng = Random(31)
    sets = [UNIT, B2, B3, B4]
    maps = []
    for _ in range(60):
        a, b, c = (rng.choice(sets) for _ in range(3))
        p, q = random_stoch_map(rng, a, b), random_stoch_map(rng, b, c)
        f = from_function(b, c, [rng.randrange(len(c)) for _ in b])
        w = [rng.randint(0, 3) for _ in b]
        w[0] += 1
        maps += [p, f, compose_seq(q, p), compose_seq(f, p), compose_par(p, q),
                 compose_par(f, p), swap(a, b), identity(c), state(b, [F(x, sum(w)) for x in w])]
        # a composite that is deterministic, against from_function
        constant = rng.randrange(len(c))
        via_p = compose_seq(from_function(b, c, [constant] * len(b)), p)
        direct = from_function(a, c, [constant] * len(a))
        assert via_p == direct and hash(via_p) == hash(direct)
    for m in maps:
        assert m.den > 0 and gcd(m.den, *itertools.chain(*m.nums)) == 1
        rebuilt = StochMap(m.dom, m.cod, m.matrix)
        assert rebuilt == m and hash(rebuilt) == hash(m)
    for x, y in ((B2, B3), (UNIT, B4), (B3, B3)):
        there_and_back = compose_seq(swap(y, x), swap(x, y))
        assert there_and_back == identity(tensor(x, y))
        assert hash(there_and_back) == hash(identity(tensor(x, y)))
    spread = compose_seq(compose_seq(uniform_state(B3), discard(B2)), uniform_state(B2))
    assert spread == uniform_state(B3) and hash(spread) == hash(uniform_state(B3))
    both = compose_par(uniform_state(B2), uniform_state(B3))
    assert both == uniform_state(tensor(B2, B3)) and hash(both) == hash(uniform_state(tensor(B2, B3)))


@pytest.mark.parametrize("build, message", [
    (lambda: FinSet("x", ()), "finite set 'x' must have at least one element"),
    (lambda: FinSet("x", ("a", "a")), "finite set 'x' has duplicate element names"),
    (lambda: SharedRandomness(finset("x", 2), finset("y", 2), ((F(1),),)),
     "joint distribution shape must be |sa| x |sb|"),
    (lambda: SharedRandomness(finset("x", 1), finset("y", 2), ((F(3, 2), F(-1, 2)),)),
     "joint probabilities must be non-negative"),
], ids=["finset-empty", "finset-duplicate", "joint-shape", "joint-negative"])
def test_alphabet_and_joint_errors_name_the_fault(build, message):
    with pytest.raises(InputError) as exc:
        build()
    assert str(exc.value) == message


def test_a_finset_is_the_tuple_of_its_elements():
    a, b = finset("a", 2), FinSet("b", ("a0", "a1"))
    assert a == b == ("a0", "a1")
    assert hash(a) == hash(b) == hash(("a0", "a1"))
    assert (str(a), str(b)) == ("a{a0,a1}", "b{a0,a1}")
    assert not hasattr(a, "elements") and a.index("a1") == 1


def _labels(v) -> list[str]:
    """The labels of every FinSet reachable through v's fields, in order."""
    if isinstance(v, FinSet):
        return [v.label]
    if isinstance(v, tuple):
        return [x for item in v for x in _labels(item)]
    return [x for item in getattr(v, "__dict__", {}).values() for x in _labels(item)]


@pytest.mark.parametrize("round_trip", [lambda v: pickle.loads(pickle.dumps(v)),
                                        copy.deepcopy], ids=["pickle", "deepcopy"])
def test_values_round_trip_with_their_labels(round_trip):
    x, y = finset("x", 2), finset("y", 1)
    values = [B3, compose_par(FLIP, uniform_state(B3)), ProbVector.of(F(1, 3), F(2, 3)),
              random_comb(Random(5), B2, B3, B2, B3),
              SharedRandomness(x, y, ((F(1, 3),), (F(2, 3),)))]
    assert all(_labels(v) for v in values if not isinstance(v, ProbVector))
    for v in values:
        back = round_trip(v)
        assert type(back) is type(v) and back == v and _labels(back) == _labels(v)


def test_joint_distribution_must_sum_to_one():
    x, y = finset("x", 2), finset("y", 1)
    assert SharedRandomness(x, y, ((F(1, 3),), (F(2, 3),))).joint[1] == (F(2, 3),)
    with pytest.raises(InputError, match="must sum to 1"):
        SharedRandomness(x, y, ((F(1, 3),), (F(1, 2),)))


# determinism predicate

def test_is_deterministic_examples():
    assert is_deterministic(identity(B3))
    assert not is_deterministic(uniform_state(B2))
    merge = from_function(B3, B2, [0, 1, 1])
    assert is_deterministic(merge)


# channel simulation

def test_trivial_wrapping_returns_the_channel():
    q = simulate_channel(identity(B2), identity(B2), identity(B2), trivial_randomness())
    assert q.matrix == identity(B2).matrix


def test_flip_encoder_and_decoder_cancel():
    q = simulate_channel(identity(B2), FLIP, FLIP, trivial_randomness())
    assert q.matrix == identity(B2).matrix


def test_one_time_pad_shape_recovers_identity():
    sa = finset("x", 2)
    sb = finset("y", 2)
    corr = SharedRandomness(sa, sb, ((F(1, 2), F(0)), (F(0), F(1, 2))))
    # conditional flips keyed to the shared value
    e = from_function(tensor(B2, sa), B2, [0, 1, 1, 0])
    d = from_function(tensor(B2, sb), B2, [0, 1, 1, 0])
    q = simulate_channel(identity(B2), e, d, corr)
    assert q.matrix == identity(B2).matrix


def reference_simulate_channel(p, e, d, r):
    """simulate_channel as first written: one explicit contraction loop over
    the flat product indices (a', x) -> a'*nx + x and (b, y) -> b*ny + y."""
    nx, ny = len(r.sa), len(r.sb)
    na, nb = len(p.dom), len(p.cod)
    rows = []
    for bp in range(len(d.cod)):
        row = []
        for ap in range(len(e.dom) // nx):
            total = F(0)
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
    return tuple(rows)


def random_joint(rng, sa, sb):
    w = [[rng.randint(0, 3) for _ in range(len(sb))] for _ in range(len(sa))]
    w[rng.randrange(len(sa))][rng.randrange(len(sb))] += 1
    total = sum(map(sum, w))
    return SharedRandomness(sa, sb, tuple(tuple(F(x, total) for x in row) for row in w))


def is_correlated(r):
    px, py = [sum(row) for row in r.joint], [sum(col) for col in zip(*r.joint)]
    return any(r.joint[x][y] != px[x] * py[y] for x in range(len(px)) for y in range(len(py)))


def test_shared_randomness_is_one_state_on_the_product():
    """The joint is kept as the state its check builds; `joint` reads its
    rows back, and int and `Fraction` spellings give one value."""
    x2, y3 = finset("x", 2), finset("y", 3)
    rows = ((F(1, 2), F(0), F(1, 6)), (F(0), F(1, 3), F(0)))
    r = SharedRandomness(x2, y3, rows)
    assert r.state.dom == UNIT and r.state.cod == tensor(x2, y3)
    assert r.state.column(0) == (F(1, 2), 0, F(1, 6), 0, F(1, 3), 0) and r.joint == rows
    assert not hasattr(r, "matrix") and not hasattr(r, "dom")
    assert bench_ops.canon(r) == {"sa": list(x2), "sb": list(y3),
                                  "joint": [["1/2", "0", "1/6"], ["0", "1/3", "0"]]}
    rng = Random(24)
    with_ints = 0
    for _ in range(60):
        sa, sb = finset("x", rng.randint(1, 3)), finset("y", rng.randint(1, 3))
        given = random_joint(rng, sa, sb).joint
        ints = tuple(tuple(int(x) if x.denominator == 1 else x for x in row) for row in given)
        with_ints += any(type(x) is int for row in ints for x in row)
        for rows in (given, ints):
            r = SharedRandomness(sa, sb, rows)
            assert r.state == state(tensor(sa, sb), [x for row in rows for x in row])
            assert r.joint == rows
        a, b = SharedRandomness(sa, sb, given), SharedRandomness(sa, sb, ints)
        assert a == b and hash(a) == hash(b)
        d = dump_shared_randomness(a)
        assert dump_shared_randomness(load_shared_randomness(d)) == d
    assert with_ints > 30


def test_a_prob_vector_and_a_state_carry_across_both_ways():
    """`state(cod, v)` takes a `ProbVector` to a state, and
    `ProbVector(m.column(0))` takes a state back."""
    vectors = enumerate_prob_vectors(4, 6)
    assert len(vectors) == 230
    for v in vectors:
        assert ProbVector(state(finset("n", len(v)), v).column(0)) == v
    rng = Random(17)
    for _ in range(200):
        m = random_stoch_map(rng, UNIT, finset("n", rng.randint(1, 5)))
        assert state(m.cod, ProbVector(m.column(0))) == m


def test_simulate_channel_matches_the_contraction_loop():
    rng = Random(16)
    cases = []
    for sa, sb in itertools.product((UNIT, finset("x", 2)), (UNIT, finset("y", 3))):
        for a_new, a, b, b_new in ((B2, B2, B2, B2), (B3, B2, B3, B4), (UNIT, B3, B2, UNIT)):
            for _ in range(4):
                cases.append((random_stoch_map(rng, a, b),
                              random_stoch_map(rng, tensor(a_new, sa), a),
                              random_stoch_map(rng, tensor(b, sb), b_new),
                              random_joint(rng, sa, sb), a_new))
    assert len(cases) == 48
    assert any(not is_deterministic(e) for _, e, _, _, _ in cases)
    assert any(not is_deterministic(d) for _, _, d, _, _ in cases)
    assert any(is_correlated(r) for *_, r, _ in cases)
    for p, e, d, r, a_new in cases:
        q = simulate_channel(p, e, d, r)
        assert (q.dom, q.cod, q.matrix) == (a_new, d.cod, reference_simulate_channel(p, e, d, r))


def test_simulation_search_finds_trivial_self_simulation():
    rng = Random(9)
    p = random_stoch_map(rng, B2, B3)
    d = search_exact_simulation(p, p, caps=4)
    assert d.is_proven
    w = d.witness
    assert simulate_channel(p, w.encoder, w.decoder, w.randomness).matrix == p.matrix


def test_constant_channel_cannot_simulate_identity():
    const = from_function(B2, B2, [0, 0])
    d = search_exact_simulation(const, identity(B2), caps=8)
    assert d.is_refuted
    assert d.witness[0] == "input-independent-channel"


def test_noiseless_4_simulates_identity_2():
    d = search_exact_simulation(identity(B4), identity(B2), caps=8)
    assert d.is_proven
    w = d.witness
    q = simulate_channel(identity(B4), w.encoder, w.decoder, w.randomness)
    assert q.matrix == identity(B2).matrix


def test_simulation_needing_genuine_mixing():
    # Half identity, half flip is reachable from the identity only by
    # correlating over at least two strategy pairs.
    target = StochMap(B2, B2, ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))
    d = search_exact_simulation(identity(B2), target, caps=8)
    assert d.is_proven
    w = d.witness
    q = simulate_channel(identity(B2), w.encoder, w.decoder, w.randomness)
    assert q.matrix == target.matrix


def test_mixture_over_the_caps_is_unknown_and_proven_within_them():
    target = StochMap(B2, B2, ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))
    d = search_exact_simulation(identity(B2), target, caps=1)
    assert d.is_unknown and d.bound == 1
    assert d.note == "mixture found but its support exceeds the caps"
    d = search_exact_simulation(identity(B2), target, caps=2)
    assert d.is_proven
    w = d.witness
    q = simulate_channel(identity(B2), w.encoder, w.decoder, w.randomness)
    assert q.matrix == target.matrix


def two_loop_exact_simulation(p, target, caps):
    """Reference: the exact-simulation search that tried single pairs in one
    loop, then wrapped every pair again for the mixture LP."""
    S = stoch_module
    if len(set(p.column(i) for i in range(len(p.dom)))) == 1 \
            and len(set(target.column(i) for i in range(len(target.dom)))) > 1:
        i0, j0 = next((i, j) for i in range(len(target.dom)) for j in range(len(target.dom))
                      if target.column(i) != target.column(j))
        return Decision.refuted(("input-independent-channel", i0, j0),
                                note="p ignores its input but target does not")
    n_enc = len(p.dom) ** len(target.dom)
    n_dec = len(target.cod) ** len(p.cod)
    if n_enc * n_dec > 20_000:
        return Decision.unknown(caps, note=f"strategy space has {n_enc * n_dec} pairs; "
                                           "beyond the desk-scale search limit")
    encoders = list(itertools.product(range(len(p.dom)), repeat=len(target.dom)))
    decoders = list(itertools.product(range(len(target.cod)), repeat=len(p.cod)))

    def wrapped(enc, dec):
        out = []
        for ap in range(len(target.dom)):
            col = [F(0)] * len(target.cod)
            for b in range(len(p.cod)):
                col[dec[b]] += p.matrix[b][enc[ap]]
            out.extend(col)
        return out

    goal = [x for ap in range(len(target.dom)) for x in target.column(ap)]
    for enc in encoders:
        for dec in decoders:
            if wrapped(enc, dec) == goal:
                return Decision.proven(S.SimulationWitness(
                    S._map_from_functions(target.dom, UNIT, p.dom, [enc]),
                    S._map_from_functions(p.cod, UNIT, target.cod, [dec]),
                    trivial_randomness()))
    pairs = [(enc, dec) for enc in encoders for dec in decoders]
    columns = [wrapped(enc, dec) for enc, dec in pairs]
    equations = [[columns[k][row] for k in range(len(pairs))] for row in range(len(goal))]
    equations.append([F(1)] * len(pairs))
    sol = feasible_nonneg_solution(equations, list(goal) + [F(1)])
    if sol is None:
        return Decision.unknown(caps, note="no deterministic-given-randomness strategy matches")
    support = [k for k, w in enumerate(sol) if w != 0]
    used_enc = sorted({pairs[k][0] for k in support})
    used_dec = sorted({pairs[k][1] for k in support})
    if len(used_enc) > caps or len(used_dec) > caps:
        return Decision.unknown(caps, note="mixture found but its support exceeds the caps")
    sa, sb = finset("x", len(used_enc)), finset("y", len(used_dec))
    joint = [[F(0)] * len(used_dec) for _ in range(len(used_enc))]
    for k in support:
        joint[used_enc.index(pairs[k][0])][used_dec.index(pairs[k][1])] += sol[k]
    return Decision.proven(S.SimulationWitness(
        S._map_from_functions(target.dom, sa, p.dom, used_enc),
        S._map_from_functions(p.cod, sb, target.cod, used_dec),
        SharedRandomness(sa, sb, tuple(map(tuple, joint)))))


def simulation_kind(d):
    if d.is_refuted:
        return "refuted"
    if d.is_proven:
        return "single" if d.witness.randomness.sa == UNIT else "mixture"
    return d.note.split(";")[0]


def test_exact_simulation_matches_the_two_loop_search(monkeypatch):
    rng = Random(41)
    sets = {n: finset(f"s{n}", n) for n in (1, 2, 3)}
    cases = [(from_function(B2, B2, [0, 0]), identity(B2), 8),  # constant source
             (identity(B4), identity(B4), 8)]  # strategy space over the guard
    for _ in range(80):
        a, b, a2, b2 = (sets[rng.randint(1, 3)] for _ in range(4))
        p = random_stoch_map(rng, a, b) if rng.random() < 0.5 \
            else from_function(a, b, [rng.randrange(len(b)) for _ in range(len(a))])
        wraps = [compose_seq(from_function(b, b2, [rng.randrange(len(b2)) for _ in b]),
                             compose_seq(p, from_function(a2, a, [rng.randrange(len(a))
                                                                   for _ in a2])))
                 for _ in range(2)]
        mix = StochMap(a2, b2, tuple(tuple((x + y) / 2 for x, y in zip(r0, r1))
                                     for r0, r1 in zip(wraps[0].matrix, wraps[1].matrix)))
        target = rng.choice([wraps[0], mix, random_stoch_map(rng, a2, b2)])
        cases.append((p, target, rng.randint(1, 2)))
    # the benchmark's mixture shape: every pair wraps a noiseless channel into
    # one of the four deterministic 2 -> 2 maps
    mixtures = []
    for n in (3, 4):
        for _ in range(3):
            target = random_stoch_map(rng, B2, B2)
            while is_deterministic(target):
                target = random_stoch_map(rng, B2, B2)
            mixtures.append((identity(finset("s", n)), target, 8))
    lps = []
    real = stoch_module.feasible_nonneg_solution

    def recording(equations, rhs):
        lps.append(list(zip(*equations)))
        return real(equations, rhs)

    monkeypatch.setattr(stoch_module, "feasible_nonneg_solution", recording)
    kinds = Counter()
    for k, (p, target, caps) in enumerate(cases + mixtures):
        lps.clear()
        d = search_exact_simulation(p, target, caps)
        assert d == two_loop_exact_simulation(p, target, caps)
        kinds[simulation_kind(d)] += 1
        # the LP's columns, each with its row of ones, are pairwise distinct
        assert all(len(set(columns)) == len(columns) for columns in lps)
        if k >= len(cases):
            assert d.witness.randomness.sa != UNIT
            assert [len(columns) for columns in lps] == [4]
    assert set(kinds) == {"refuted", "single", "mixture", "strategy space has 65536 pairs",
                          "mixture found but its support exceeds the caps",
                          "no deterministic-given-randomness strategy matches"}


# state transformation search

def det_maps_between(sizes):
    sets = {n: finset(f"n{n}", n) for n in sizes}
    maps = []
    for a in sizes:
        for b in sizes:
            maps.extend(all_deterministic_maps(sets[a], sets[b]))
    return sets, maps


def test_merge_reaches_uniform2_from_uniform4():
    sets, maps = det_maps_between([1, 2, 3, 4])
    s = uniform_state(sets[4])
    t = uniform_state(sets[2])
    d = search_free_transformation_batch(s, [t], maps, depth=3)[0]
    assert d.is_proven
    # witness replays: composing the circuit steps onto s reproduces t
    cur = s
    for step in d.witness[1]:
        cur = compose_seq(step, cur)
    assert cur.matrix == t.matrix


def test_empty_circuit_when_target_equals_source():
    sets, maps = det_maps_between([2])
    s = state(sets[2], ["1/3", "2/3"])
    d = search_free_transformation_batch(s, [s], maps, depth=2)[0]
    assert d.is_proven and d.witness[1] == ()


def test_unreachable_target_is_unknown_and_matches_partition_search():
    sets, maps = det_maps_between([1, 2, 3])
    s = uniform_state(sets[2])
    t = state(sets[3], ["1/3", "1/3", "1/3"])
    d = search_free_transformation_batch(s, [t], maps, depth=3)[0]
    assert d.is_unknown
    assert deterministic_convertible(ProbVector.uniform(2),
                                     ProbVector.of("1/3", "1/3", "1/3")).is_refuted


def test_search_applies_stochastic_generators_too():
    sets, _ = det_maps_between([2])
    noisy = StochMap(sets[2], sets[2],
                     ((F(1, 2), F(1, 4)), (F(1, 2), F(3, 4))))
    s = point_state(sets[2], "n20")
    t = state(sets[2], ["1/2", "1/2"])
    d = search_free_transformation_batch(s, [t], [noisy], depth=2)[0]
    assert d.is_proven


def test_search_with_no_generators():
    sets, _ = det_maps_between([2])
    s = uniform_state(sets[2])
    assert search_free_transformation_batch(s, [s], [], depth=2)[0].is_proven
    other = state(sets[2], ["1/4", "3/4"])
    assert search_free_transformation_batch(s, [other], [], depth=2)[0].is_unknown


def test_batch_search_matches_single_queries():
    sets, maps = det_maps_between([1, 2, 3])
    vectors = enumerate_prob_vectors(max_len=3, max_den=3)
    s = state(sets[2], ["1/2", "1/2"])
    targets = [state(sets[len(v)], [str(x) for x in v.entries]) for v in vectors]
    batch = search_free_transformation_batch(s, targets, maps, depth=3)
    for t, d in zip(targets, batch):
        single = search_free_transformation_batch(s, [t], maps, depth=3)[0]
        assert d.verdict == single.verdict


# the closure and the kernels against naive references

def naive_free_reachable(s, free_generators, depth, targets=None):
    """The free closure as first written: it recomputes every step's index
    table at every frontier state and builds a StochMap for every successor."""
    by_dom, idsets = {}, {}
    for g in free_generators:
        by_dom.setdefault(tuple(g.dom), []).append(g)
        for fs in (g.dom, g.cod):
            idsets.setdefault(tuple(fs), fs)
    pool_by_size = {}
    for g in list(free_generators) + [identity(fs) for fs in idsets.values()]:
        pool_by_size.setdefault(len(g.dom), []).append(g)

    def one_step_maps(cod):
        out = list(by_dom.get(tuple(cod), []))
        for n1, gs1 in pool_by_size.items():
            if len(cod) % n1 != 0 or len(cod) // n1 not in pool_by_size:
                continue
            for g1 in gs1:
                for g2 in pool_by_size[len(cod) // n1]:
                    if tensor(g1.dom, g2.dom) == cod:
                        out.append(compose_par(g1, g2))
        return out

    def key(m):
        return (tuple(m.cod), tuple(m.matrix[j][0] for j in range(len(m.cod))))

    found = {key(s): ()}
    frontier = [s]
    remaining = set(targets) - {key(s)} if targets is not None else None
    for _ in range(depth):
        if not frontier or (remaining is not None and not remaining):
            break
        nxt_frontier = []
        for cur in frontier:
            trace = found[key(cur)]
            for g in one_step_maps(cur.cod):
                if is_deterministic(g):
                    col = [F(0)] * len(g.cod)
                    for i in range(len(g.dom)):
                        j = next(j for j in range(len(g.cod)) if g.matrix[j][i] == 1)
                        col[j] += cur.matrix[i][0]
                    nxt = StochMap(UNIT, g.cod, tuple((x,) for x in col))
                else:
                    nxt = compose_seq(g, cur)
                if key(nxt) in found:
                    continue
                found[key(nxt)] = trace + (g,)
                if remaining is not None:
                    remaining.discard(key(nxt))
                nxt_frontier.append(nxt)
        frontier = nxt_frontier
    return found


def closure_case(seed, unit=False):
    """Seeded generators on 1-, 2-, 3-symbol alphabets and the 2x2 product
    (so parallel pairs apply), one stochastic generator, and a start state
    with zero entries; with `unit`, also a state preparation and a discard,
    generators out of and into the unit object."""
    rng = Random(seed)
    b1, b2, b3 = finset("u", 1), finset("b", 2), finset("c", 3)
    b22 = tensor(b2, b2)
    dets = [g for a, b in ((b2, b2), (b2, b3), (b3, b2), (b22, b2), (b2, b1), (b1, b2))
            for g in all_deterministic_maps(a, b)]
    gens = rng.sample(dets, 12)
    gens.append(StochMap(b2, b2, ((F(1, 2), F(1, 4)), (F(1, 2), F(3, 4)))))
    probs = [F(rng.randint(0, 2)) for _ in range(4)]
    probs[rng.randrange(4)] = F(0)
    probs[rng.randrange(4)] += 1
    start = state(b22, [x / sum(probs) for x in probs])
    if unit:
        gens += [state(b2, [F(1, 3), F(2, 3)]), discard(b2)]
    return start, gens


def state_of(k):
    cod, dist = k
    return state(FinSet("t", cod), list(dist))


@pytest.mark.parametrize("seed, unit", [(seed, False) for seed in range(6)] + [(0, True)],
                         ids=[*map(str, range(6)), "unit"])
def test_closure_matches_naive_bfs(seed, unit):
    start, gens = closure_case(seed, unit)
    assert any(0 in row for row in start.matrix)
    full = naive_free_reachable(start, gens, depth=3)
    assert any(len(g.dom) == 4 and len(g.cod) == 4 for w in full.values() for g in w)
    assert any(not is_deterministic(g) for w in full.values() for g in w)
    if unit:  # a discard reaches the unit object, and a pair tensors a prepared b in
        assert (UNIT, (F(1),)) in full
        assert any(g.dom == finset("b", 2) and len(g.cod) == 4 for w in full.values() for g in w)
    unreachable = [state(finset("b", 2), [F(1, 7), F(6, 7)]),
                   state(finset("c", 3), [F(1, 11), F(2, 11), F(8, 11)])]
    # every reachable state plus two that are not: the closure runs to depth
    targets = [state_of(k) for k in full] + unreachable
    batch = search_free_transformation_batch(start, targets, gens, depth=3)
    assert all(d.is_proven for d in batch[:len(full)])
    assert all(d.is_unknown for d in batch[len(full):])
    assert [d.witness[1] for d in batch[:len(full)]] == list(full.values())
    # a few targets only: both stop at the same level with the same witnesses
    few = Random(seed).sample(list(full), 3)
    expected = naive_free_reachable(start, gens, depth=3, targets=set(few))
    batch = search_free_transformation_batch(start, [state_of(k) for k in few], gens, depth=3)
    assert [d.witness[1] for d in batch] == [expected[k] for k in few]


def test_closure_keys_one_distribution_once_across_denominators(monkeypatch):
    # (1/2, 1/2) on b is reached by a merge (raw numerators 2, 2 over 4) and
    # by a generator with thirds (6, 6 over 12): one state, the merge's trace
    c3, b2 = finset("c", 3), finset("b", 2)
    merge = from_function(c3, b2, [0, 1, 1])
    thirds = StochMap(c3, b2, ((F(1, 3), F(2, 3), F(2, 3)), (F(2, 3), F(1, 3), F(1, 3))))
    start = state(c3, [F(1, 2), F(1, 4), F(1, 4)])
    gens = [merge, thirds, FLIP, from_function(b2, c3, [0, 2])]
    expected = naive_free_reachable(start, gens, depth=3)
    assert expected[(b2, (F(1, 2), F(1, 2)))] == (merge,)
    closures = []
    real = stoch_module.shortest_traces

    def recording(*args):
        closures.append(real(*args))
        return closures[-1]

    monkeypatch.setattr(stoch_module, "shortest_traces", recording)
    unreachable = state(b2, [F(1, 7), F(6, 7)])
    targets = [state_of(k) for k in expected] + [unreachable]
    batch = search_free_transformation_batch(start, targets, gens, depth=3)
    assert [d.witness[1] for d in batch[:-1]] == list(expected.values())
    assert batch[-1].is_unknown
    assert len(closures[0]) == len(expected)
    assert (b2, 2, (1, 1)) in closures[0]


def test_index_tables_are_computed_once_per_alphabet(monkeypatch):
    start, gens = closure_case(0)
    found = naive_free_reachable(start, gens, depth=3)
    alphabets = dict.fromkeys(fs for g in gens for fs in (g.dom, g.cod))
    pool = gens + [identity(fs) for fs in alphabets]

    def one_step_maps(cod):
        return [g for g in gens if g.dom == cod] + [
            compose_par(g1, g2) for g1 in pool for g2 in pool if tensor(g1.dom, g2.dom) == cod]

    def distinct_restricted(key):
        # maps that agree on the state's support send it to the same successor
        cod, _, nums = key
        support = [i for i, x in enumerate(nums) if x]
        return len({(g.cod, g.den, tuple(tuple(row[i] for i in support) for row in g.nums))
                    for g in one_step_maps(cod)})

    expanded = [k[0] for k, w in found.items() if len(w) < 3]
    full = {cod: len(one_step_maps(cod)) for cod in expanded}
    tabled, pairs, moves_per_state = [], [], {}
    real_step, real_par, real_traces = (stoch_module._step, stoch_module.compose_par,
                                        stoch_module.shortest_traces)

    def counting_step(g):
        tabled.append(g)
        return real_step(g)

    def counting_par(g1, g2):
        pairs.append(real_par(g1, g2))
        return pairs[-1]

    def counting_traces(start, moves, depth, targets):
        def counted(key):
            out = list(moves(key))
            moves_per_state[key] = len(out)
            return out
        return real_traces(start, counted, depth, targets)

    monkeypatch.setattr(stoch_module, "_step", counting_step)
    monkeypatch.setattr(stoch_module, "compose_par", counting_par)
    monkeypatch.setattr(stoch_module, "shortest_traces", counting_traces)
    unreachable = state(finset("b", 2), [F(1, 7), F(6, 7)])
    assert search_free_transformation_batch(start, [unreachable], gens, depth=3)[0].is_unknown
    assert len(expanded) > len(set(expanded))  # alphabets shared by several states
    assert len(moves_per_state) == len(expanded)
    assert {k[0] for k in moves_per_state} == set(expanded)
    # one table per one-step map of an expanded alphabet, however many states share it
    assert Counter(g.dom for g in tabled) == full
    assert len({id(g) for g in tabled}) == len(tabled)
    # the tables are of the generators out of each alphabet and of each pair built
    assert sorted(map(id, pairs)) == sorted(id(g) for g in tabled if all(g is not h for h in gens))
    # each state tries each distinct restriction of those maps to its support once
    assert moves_per_state == {k: distinct_restricted(k) for k in moves_per_state}
    assert sum(moves_per_state.values()) < sum(full[k[0]] for k in moves_per_state)


def test_closure_builds_no_map_per_reached_state(monkeypatch):
    start, gens = closure_case(0)
    expected = naive_free_reachable(start, gens, depth=3)
    targets = [state_of(k) for k in expected]
    built = []
    real_init, real_kernel = StochMap.__init__, stoch_module._kernel_map

    def checked(m, dom, cod, matrix):
        if dom == UNIT:
            built.append(m)
        real_init(m, dom, cod, matrix)

    def kernel_built(dom, cod, den, nums):
        m = real_kernel(dom, cod, den, nums)
        if dom == UNIT:
            built.append(m)
        return m

    # a map is built either through the public check or by a kernel
    monkeypatch.setattr(StochMap, "__init__", checked)
    monkeypatch.setattr(stoch_module, "_kernel_map", kernel_built)
    batch = search_free_transformation_batch(start, targets, gens, depth=3)
    assert built == []
    assert [d.witness[1] for d in batch] == list(expected.values())


def test_kernels_and_searches_build_no_fraction_view(monkeypatch):
    """The integer path: kernels, closure steps and state keys, and comb
    equivalence never build a map's `Fraction` matrix."""
    rng = Random(33)
    start, gens = closure_case(0)
    unreachable = state(B2, [F(1, 7), F(6, 7)])
    k1, k2, k3 = (random_comb(rng, B2, B2, B2, B2) for _ in range(3))
    z, z2 = finset("z", 2), finset("y", 2)
    outer = NComb(((B2, B3),), (0,), (random_stoch_map(rng, B2, tensor(B2, z)),
                                      random_stoch_map(rng, tensor(B3, z), B2)), (z,))
    inner = NComb(((B3, B2),), (0,), (random_stoch_map(rng, B2, tensor(B3, z2)),
                                      random_stoch_map(rng, tensor(B2, z2), B3)), (z2,))
    g = random_stoch_map(rng, B3, B2)
    views = []
    build = StochMap.matrix.func

    def counted(m):
        views.append(m)
        return build(m)

    monkeypatch.setattr(StochMap, "matrix", property(counted))
    closure = search_free_transformation_batch(start, [unreachable], gens, depth=3)
    assert closure[0].is_unknown
    assert comb_equivalent(compose_combs_seq(k3, compose_combs_seq(k2, k1)),
                           compose_combs_seq(compose_combs_seq(k3, k2), k1))
    plugged = apply_ncomb(plug_ncombs(outer, [inner]), [g])
    assert plugged == apply_ncomb(outer, [apply_ncomb(inner, [g])])
    assert views == []
    assert plugged.matrix == build(plugged) and views == [plugged]


def sparse_map(rng, dom, cod):
    """A random stochastic map whose columns are mostly zero."""
    cols = []
    for _ in range(len(dom)):
        w = [rng.choice((0, 0, 0, 1, 2)) for _ in range(len(cod))]
        if sum(w) == 0:
            w[rng.randrange(len(cod))] = 1
        cols.append([F(x, sum(w)) for x in w])
    return StochMap(dom, cod, tuple(tuple(c[j] for c in cols) for j in range(len(cod))))


def dense_seq(q, p):
    return tuple(tuple(sum((q.matrix[j][b] * p.matrix[b][a] for b in range(len(p.cod))), F(0))
                       for a in range(len(p.dom))) for j in range(len(q.cod)))


def dense_par(p, q):
    return tuple(tuple(p.matrix[bp][ap] * q.matrix[bq][aq]
                       for ap in range(len(p.dom)) for aq in range(len(q.dom)))
                 for bp in range(len(p.cod)) for bq in range(len(q.cod)))


def test_sparse_kernels_match_dense_reference():
    rng = Random(7)
    sets = [UNIT, finset("b", 2), finset("c", 3), finset("q", 4)]

    def some_map(dom, cod):
        kinds = ["sparse", "sparse", "random"]
        if dom == cod:
            kinds.append("identity")
        return {"sparse": lambda: sparse_map(rng, dom, cod),
                "random": lambda: random_stoch_map(rng, dom, cod),
                "identity": lambda: identity(dom)}[rng.choice(kinds)]()

    for _ in range(300):
        a, b, c = (rng.choice(sets) for _ in range(3))
        p, q = some_map(a, b), some_map(b, c)
        r = compose_seq(q, p)
        assert (r.dom, r.cod, r.matrix) == (a, c, dense_seq(q, p))
        p2 = some_map(rng.choice(sets), rng.choice(sets))
        r = compose_par(p, p2)
        assert (r.dom, r.cod, r.matrix) == \
            (tensor(p.dom, p2.dom), tensor(p.cod, p2.cod), dense_par(p, p2))
    for x, y in ((finset("b", 2), finset("c", 3)), (UNIT, finset("b", 2))):
        sw = swap(x, y)
        m = sparse_map(rng, tensor(y, x), tensor(y, x))
        assert compose_seq(m, sw).matrix == dense_seq(m, sw)
        assert compose_seq(swap(y, x), sw).matrix == identity(tensor(x, y)).matrix
        assert compose_par(sw, m).matrix == dense_par(sw, m)
        assert compose_par(m, sw).matrix == dense_par(m, sw)


# (id_left (x) f (x) id_right) after cur, without the product map

def local_reference(f, cur, left, right):
    return compose_seq(compose_par(compose_par(identity(left), f), identity(right)), cur)


def dense_local(f, cur, left, right):
    """The same map by `Fraction` sums over the product, built densely and
    checked by the public constructor: neither `compose_seq` nor
    `compose_par` takes part."""
    lf = StochMap(tensor(left, f.dom), tensor(left, f.cod), dense_par(identity(left), f))
    whole = StochMap(tensor(lf.dom, right), tensor(lf.cod, right), dense_par(lf, identity(right)))
    return dense_seq(whole, cur)


def outcome_of(build):
    """A map's alphabets, labels, denominator and numerators, or the error it raises."""
    try:
        m = build()
    except InputError as exc:
        return type(exc), str(exc)
    return m.dom, m.dom.label, m.cod, m.cod.label, m.den, m.nums


def test_local_kernel_equals_the_product_it_does_not_build():
    rng = Random(32)
    sets = [UNIT, finset("b", 2), finset("c", 3), FinSet("w", ("x", "y"))]

    def some_map(dom, cod):
        return rng.choice([
            lambda: random_stoch_map(rng, dom, cod),
            lambda: sparse_map(rng, dom, cod),
            lambda: from_function(dom, cod, [rng.randrange(len(cod)) for _ in dom])])()

    kinds = Counter()
    for _ in range(1200):
        left, right, x, y = (rng.choice(sets) for _ in range(4))
        f = some_map(x, y)
        cur = some_map(rng.choice(sets), tensor(tensor(left, x), right))
        got = outcome_of(lambda: compose_seq(f, cur, left, right))
        assert got == outcome_of(lambda: local_reference(f, cur, left, right))
        den, nums = got[4:]
        assert tuple(tuple(F(x, den) for x in row) for row in nums) == \
            dense_local(f, cur, left, right)
        assert gcd(den, *itertools.chain.from_iterable(nums)) == 1
        kinds["unit factor"] += UNIT in (left, right, x, y)
        kinds["deterministic f"] += is_deterministic(f)
        kinds["stochastic f"] += not is_deterministic(f)
        kinds["reduced"] += got[4] < f.den * cur.den
    assert min(kinds.values()) >= 100, kinds


def test_local_kernel_refuses_a_mismatch_with_the_products_message():
    rng = Random(33)
    sets = [UNIT, finset("b", 2), finset("c", 3), FinSet("w", ("x", "y"))]
    refused = 0
    for _ in range(300):
        left, right, x, y, z = (rng.choice(sets) for _ in range(5))
        f = random_stoch_map(rng, x, y)
        cur = random_stoch_map(rng, B2, tensor(tensor(left, z), right))
        want = outcome_of(lambda: local_reference(f, cur, left, right))
        assert outcome_of(lambda: compose_seq(f, cur, left, right)) == want
        refused += want[0] is CompositionError
    assert refused >= 100


def test_local_kernel_refuses_colliding_names_as_the_product_does():
    left = FinSet("l", ("x|y", "x"))
    f = identity(FinSet("d", ("z", "y|z")))
    cur = identity(finset("b", 2))
    want = outcome_of(lambda: local_reference(f, cur, left, UNIT))
    assert want == (InputError, "finite set 'l*d' has duplicate element names")
    assert outcome_of(lambda: compose_seq(f, cur, left, UNIT)) == want


def test_unit_sides_keep_the_alphabets_of_q():
    # a product with the unit would relabel an alphabet equal to the unit
    j = FinSet("J", ("*",))
    q = from_function(B2, j, [0, 0])
    for r in (compose_seq(q, identity(B2)), compose_seq(q, identity(B2), UNIT, UNIT)):
        assert (r.cod, r.cod.label) == (j, "J")
    assert compose_par(q, identity(UNIT)).cod.label == "I"


# the product memo

def test_fresh_factors_of_equal_value_give_todays_product():
    products = [tensor(FinSet("a", ("x", "y")), FinSet("b", ("u", "v", "w")))
                for _ in range(2)]
    for p in products:
        assert type(p) is FinSet
        assert p == ("x|u", "x|v", "x|w", "y|u", "y|v", "y|w")
        assert str(p) == "a*b{x|u,x|v,x|w,y|u,y|v,y|w}"
    assert products[0] is products[1]


def test_equal_alphabets_labelled_apart_give_products_labelled_apart():
    a, z, b = FinSet("a", ("x", "y")), FinSet("z", ("x", "y")), FinSet("b", ("u", "v"))
    assert a == z
    assert tensor(a, b) == tensor(z, b)
    assert [tensor(a, b).label, tensor(z, b).label] == ["a*b", "z*b"]
    assert [tensor(b, a).label, tensor(b, z).label] == ["b*a", "b*z"]


def test_the_product_memo_keeps_at_most_its_bound():
    memo = stoch_module._memo_product
    for i in range(stoch_module.PRODUCT_MEMO_SIZE + 50):
        assert tensor(FinSet(f"m{i}", ("p", "q")), B2).label == f"m{i}*b"
    assert memo.cache_info().currsize <= memo.cache_info().maxsize == stoch_module.PRODUCT_MEMO_SIZE
    # a product past PRODUCT_MEMO_NAMES names is built and not kept
    big = finset("big", stoch_module.PRODUCT_MEMO_NAMES)
    before = memo.cache_info()
    assert tensor(big, B2) == tuple(f"{x}|{y}" for x in big for y in B2)
    assert tensor(big, B2) is not tensor(big, B2)
    assert memo.cache_info()[:2] == before[:2]


def test_a_refused_product_raises_on_every_call():
    a, b = FinSet("a", ("x|y", "x")), FinSet("b", ("z", "y|z"))
    for _ in range(3):
        with pytest.raises(InputError, match=r"finite set 'a\*b' has duplicate element names"):
            tensor(a, b)


def test_a_memoised_product_survives_pickle_and_deepcopy():
    p = tensor(FinSet("a", ("x", "y")), B3)
    assert tensor(FinSet("a", ("x", "y")), B3) is p
    for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
        assert (type(q), q, q.label, str(q)) == (FinSet, p, p.label, str(p))
    m = compose_par(identity(FinSet("a", ("x", "y"))), identity(B3))
    assert pickle.loads(pickle.dumps(m)) == m and copy.deepcopy(m) == m


def test_one_channels_round_builds_no_product_twice(monkeypatch, tmp_path):
    import resconv
    from resconv import circuits, jsonio  # noqa: F401  (the executor reads them off the package)
    inputs, op_list = bench_gen.GENERATORS["channels"](0, ROOT / "demo")
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    memo = stoch_module._memo_product
    memo.cache_clear()
    keys, builds = set(), []
    real_product = stoch_module._product

    def looked_up(*key):
        keys.add(key)
        return memo(*key)

    def built(*key):
        builds.append(key)
        return real_product(*key)

    monkeypatch.setattr(stoch_module, "_memo_product", looked_up)
    monkeypatch.setattr(stoch_module, "_product", built)
    for op in op_list:
        bench_ops.channel_op(resconv, op)
    assert 0 < len(builds) <= len(keys)
