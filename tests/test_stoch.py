from fractions import Fraction
from random import Random

import pytest

import resconv.stoch as stoch_module
from resconv.instances import (ProbVector, deterministic_convertible,
                               enumerate_prob_vectors)
from resconv.stoch import (UNIT, CompositionError, FinSet, SharedRandomness, StochMap,
                           all_deterministic_maps, compose_par, compose_seq, finset,
                           from_function, identity, is_deterministic, point_state,
                           random_stoch_map, search_exact_simulation,
                           search_free_transformation_batch, simulate_channel, state,
                           swap, tensor, trivial_randomness, uniform_state)

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
    assert s.cod.elements == ("b0|b0", "b0|b1", "b1|b0", "b1|b1")
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
    assert a.dom.elements == b.dom.elements
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
        by_dom.setdefault(g.dom.elements, []).append(g)
        for fs in (g.dom, g.cod):
            idsets.setdefault(fs.elements, fs)
    pool_by_size = {}
    for g in list(free_generators) + [identity(fs) for fs in idsets.values()]:
        pool_by_size.setdefault(len(g.dom), []).append(g)

    def one_step_maps(cod):
        out = list(by_dom.get(cod.elements, []))
        for n1, gs1 in pool_by_size.items():
            if len(cod) % n1 != 0 or len(cod) // n1 not in pool_by_size:
                continue
            for g1 in gs1:
                for g2 in pool_by_size[len(cod) // n1]:
                    if tensor(g1.dom, g2.dom).elements == cod.elements:
                        out.append(compose_par(g1, g2))
        return out

    def key(m):
        return (m.cod.elements, tuple(m.matrix[j][0] for j in range(len(m.cod))))

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


def closure_case(seed):
    """Seeded generators on 1-, 2-, 3-symbol alphabets and the 2x2 product
    (so parallel pairs apply), one stochastic generator, and a start state
    with zero entries."""
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
    return start, gens


def state_of(k):
    cod, dist = k
    return state(FinSet("t", cod), list(dist))


@pytest.mark.parametrize("seed", range(6))
def test_closure_matches_naive_bfs(seed):
    start, gens = closure_case(seed)
    assert any(0 in row for row in start.matrix)
    full = naive_free_reachable(start, gens, depth=3)
    assert any(len(g.dom) == 4 and len(g.cod) == 4 for w in full.values() for g in w)
    assert any(not is_deterministic(g) for w in full.values() for g in w)
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


def test_index_tables_are_computed_once_per_alphabet(monkeypatch):
    start, gens = closure_case(0)
    calls = []
    real = stoch_module.deterministic_function

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(stoch_module, "deterministic_function", counting)
    found = naive_free_reachable(start, gens, depth=3)
    assert not calls  # the reference does not use the counted function
    unreachable = state(finset("b", 2), [F(1, 7), F(6, 7)])
    assert search_free_transformation_batch(start, [unreachable], gens, depth=3)[0].is_unknown
    expanded = [k[0] for k, w in found.items() if len(w) < 3]
    assert len(expanded) > len(set(expanded))  # alphabets shared by several states
    assert {g.dom.elements for g in calls} == set(expanded)
    assert len({id(g) for g in calls}) == len(calls)  # each one-step map once


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
