"""Acceptance suite: one test per criterion, one PASS line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  Tolerances are pinned here: rational comparisons are exact,
real-valued ones use 1e-9 absolute.
"""

import itertools
import time
from fractions import Fraction
from random import Random

from resconv.analysis import (check_catalysis_free, check_non_interacting,
                              check_quantity_like, find_catalyst, random_theory_table)
from resconv.circuits import (Box, CircuitDiagram, HoleItem, evaluate_circuit,
                              normalize_to_comb)
from resconv.combs import (OneComb, apply_comb, comb_equivalent, compose_combs_par,
                           compose_combs_seq, identity_comb, symmetry_comb)
from resconv.instances import (EntanglementSpectrumTheory, ProbVector, RandomnessTheory,
                               VectorTheory, deterministic_convertible,
                               entanglement_convertible, enumerate_prob_vectors)
from resconv.monotones import (complete_family, complete_family_violations,
                               component_monotone, entropy_monotone, rate)
from resconv.stoch import (all_deterministic_maps, finset, from_function, identity,
                           random_stoch_map, search_exact_simulation,
                           search_free_transformation_batch, simulate_channel, state,
                           swap, tensor)

from conftest import doubly_stochastic_mixable

F = Fraction
REAL_TOL = 1e-9


def report(num, text, started):
    print(f"PASS  criterion {num}: {text}  ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_food_is_catalysis_free():
    started = time.perf_counter()
    food = VectorTheory(2, "additive")
    box = food.enumerate_up_to(4)
    hits = []
    for a in box:
        for b in box:
            if food.geq(a, b).is_proven:
                continue
            for c in box:
                if food.geq(food.combine(a, c), food.combine(b, c)).is_proven:
                    hits.append((a, b, c))
    elapsed = time.perf_counter() - started
    assert hits == []
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget is 5s"
    report(1, "no catalyst triple in the {0..4}^2 box", started)


def test_criterion_2_proficiency_admits_catalysis():
    started = time.perf_counter()
    prof = VectorTheory(2, "supremal")
    d = find_catalyst(prof, (0, 0), (1, 0), prof.enumerate_up_to(2))
    assert d.is_proven
    c = d.witness[1]
    assert prof.geq((0, 0), (1, 0)).is_refuted
    assert prof.geq(prof.combine((0, 0), c), prof.combine((1, 0), c)).is_proven
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(2, f"catalyst {c} enables (0,0) -> (1,0) in the level theory", started)


def _generated_tables(count=200, seed=424242):
    rng = Random(seed)
    return [random_theory_table(rng, rng.randint(2, 6)) for _ in range(count)]


TABLES = _generated_tables()


def test_criterion_3_no_catalysis_when_non_interacting_and_quantity_like():
    started = time.perf_counter()
    checked = 0
    for t in TABLES:
        carrier = list(range(t.size))
        ni = check_non_interacting(t, carrier)
        ql = check_quantity_like(t, carrier)
        if ni.decision.is_proven and ql.decision.is_proven:
            checked += 1
            cf = check_catalysis_free(t, carrier)
            assert cf.decision.is_proven, \
                f"theorem violated on table {t.table} / {t.order}"
    assert checked > 0, "generator produced no table satisfying both hypotheses"
    report(3, f"{len(TABLES)} tables, {checked} satisfied both hypotheses, "
              "all catalysis-free", started)


def test_criterion_4_cloning_iff_creation_on_quantity_like_tables():
    started = time.perf_counter()
    checked = 0
    for t in TABLES:
        carrier = list(range(t.size))
        if not check_quantity_like(t, carrier).decision.is_proven:
            continue
        checked += 1
        for a in carrier:
            clone = t.geq(a, t.combine(a, a)).is_proven
            create = t.geq(t.zero(), a).is_proven
            assert clone == create, f"mismatch at {a} in table {t.table}"
    assert checked > 0
    report(4, f"cloning == creation on all {checked} quantity-like tables", started)


def test_criterion_5_randomness_oracles_agree():
    started = time.perf_counter()
    vectors = enumerate_prob_vectors(max_len=4, max_den=4)
    sets = {n: finset(f"n{n}", n) for n in (1, 2, 3, 4)}
    generators = []
    for a in sets.values():
        for b in sets.values():
            generators.extend(all_deterministic_maps(a, b))
    targets = [state(sets[len(v)], list(v.entries)) for v in vectors]
    pairs = 0
    for p in vectors:
        s = state(sets[len(p)], list(p.entries))
        batch = search_free_transformation_batch(s, targets, generators, depth=3)
        for q, d in zip(vectors, batch):
            expected = deterministic_convertible(p, q)
            assert d.is_proven == expected.is_proven, (p, q)
            assert d.is_unknown == expected.is_refuted, (p, q)
            pairs += 1
    report(5, f"partition search and circuit search agree on {pairs} pairs", started)


def test_criterion_6_majorization_matches_mixing_oracle():
    started = time.perf_counter()
    vectors = enumerate_prob_vectors(max_len=3, max_den=4)
    pairs = 0
    for s in vectors:
        for t in vectors:
            assert entanglement_convertible(s, t) == doubly_stochastic_mixable(s, t), (s, t)
            pairs += 1
    report(6, f"partial-sum criterion equals mixing feasibility on {pairs} pairs", started)


def test_criterion_7_rates_match_monotone_bounds():
    started = time.perf_counter()
    food = VectorTheory(2, "additive")
    apples = component_monotone(0, "additive")
    bananas = component_monotone(1, "additive")
    r = rate(food, (2, 3), (1, 1), caps=8, monotones=[apples, bananas])
    assert r.best == F(2)
    assert r.upper_bound == F(2)
    assert r.exact

    rnd = RandomnessTheory()
    r2 = rate(rnd, ProbVector.uniform(4), ProbVector.uniform(2), caps=6,
              monotones=[entropy_monotone()])
    assert r2.best == F(2)
    assert abs(float(r2.upper_bound) - 2.0) <= REAL_TOL
    report(7, "pantry rate 2 = component bound; uniform-4 -> uniform-2 rate 2 "
              "= entropy bound", started)


# criterion 8: randomized one-hole circuits

TYPE_POOL = (("P", 2), ("Q", 3), ("R", 2), ("S", 3), ("U", 1))
DIM_CAP = 12


def _product(sizes):
    out = 1
    for s in sizes:
        out *= s
    return out


def _random_circuit(rng: Random, tag: int) -> CircuitDiagram:
    types = dict(TYPE_POOL)
    fsets = {n: finset(n, s) for n, s in TYPE_POOL}

    def random_wires(k, cap=DIM_CAP):
        while True:
            ws = [rng.choice(list(types)) for _ in range(k)]
            if _product(types[w] for w in ws) <= cap:
                return ws

    wires = random_wires(rng.randint(1, 3))
    depth = rng.randint(1, 4)
    hole_layer = rng.randrange(depth)
    counter = itertools.count()
    layers = []
    hole_placed = False
    for li in range(depth):
        items = []
        remaining = list(wires)
        place_hole_here = (li == hole_layer)
        while remaining:
            want_hole = place_hole_here and not hole_placed and (
                len(remaining) <= 2 or rng.random() < 0.5)
            take = min(len(remaining), rng.randint(1, 2))
            if want_hole and _product(types[w] for w in remaining[:take]) > 3:
                take = 1
            dom_w = remaining[:take]
            del remaining[:take]
            if want_hole and _product(types[w] for w in dom_w) > 3:
                # keep the deterministic-process enumeration small
                return _random_circuit(rng, tag)
            if want_hole:
                cod_w = random_wires(rng.randint(1, 2), cap=3)
                items.append(HoleItem("h", tuple(dom_w), tuple(cod_w)))
                hole_placed = True
            elif take == 2 and rng.random() < 0.3:
                w, v = dom_w
                items.append(Box(f"swap[{w},{v}]", (w, v), (v, w),
                                 swap(fsets[w], fsets[v]), True))
            elif take == 1 and rng.random() < 0.4:
                (w,) = dom_w
                items.append(Box(f"id[{w}]", (w,), (w,), identity(fsets[w]), True))
            else:
                cod_w = random_wires(rng.randint(1, 2))
                name = f"f{tag}_{next(counter)}"
                dom_fs = fsets[dom_w[0]]
                for w in dom_w[1:]:
                    dom_fs = tensor(dom_fs, fsets[w])
                cod_fs = fsets[cod_w[0]]
                for w in cod_w[1:]:
                    cod_fs = tensor(cod_fs, fsets[w])
                items.append(Box(f"{name}[gen]", tuple(dom_w), tuple(cod_w),
                                 random_stoch_map(rng, dom_fs, cod_fs), True))
            if _product(types[w] for it in items for w in it.cod_wires) > DIM_CAP:
                # overly wide layer; retry the whole circuit
                return _random_circuit(rng, tag)
        layers.append(tuple(items))
        wires = [w for it in layers[-1] for w in it.cod_wires]
        if _product(types[w] for w in wires) > DIM_CAP:
            return _random_circuit(rng, tag)
    if not hole_placed:
        return _random_circuit(rng, tag)
    return CircuitDiagram(TYPE_POOL, (("gen", "gen.json"),),
                          tuple(wires_of(layers[0])), tuple(layers))


def wires_of(layer):
    return sum((it.dom_wires for it in layer), ())


def test_criterion_8_comb_normal_form_matches_direct_evaluation():
    started = time.perf_counter()
    rng = Random(2024)
    circuits = [_random_circuit(rng, i) for i in range(50)]
    total_processes = 0
    for c in circuits:
        comb = normalize_to_comb(c)
        hole = c.hole_items()[0]
        processes = all_deterministic_maps(comb.hole_dom, comb.hole_cod)
        processes += [random_stoch_map(rng, comb.hole_dom, comb.hole_cod)
                      for _ in range(5)]
        for f in processes:
            assert apply_comb(comb, f).matrix == \
                evaluate_circuit(c, {hole.name: f}).matrix
        total_processes += len(processes)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget is 60s"
    report(8, f"50 circuits, {total_processes} plugged processes, exact match", started)


# criterion 9: composition laws on randomized combs

def test_criterion_9_comb_composition_laws():
    started = time.perf_counter()
    rng = Random(31337)
    A, B, C, D = (finset(n, 2) for n in "abcd")

    def rand_comb(hd, hc, od, oc):
        z = finset("z", rng.randint(1, 2))
        return OneComb(z, random_stoch_map(rng, od, tensor(hd, z)),
                       random_stoch_map(rng, tensor(hc, z), oc), hd, hc)

    combs_used = 0
    for _ in range(25):
        # identity laws
        k = rand_comb(A, B, C, D)
        assert comb_equivalent(compose_combs_seq(identity_comb(C, D), k), k)
        assert comb_equivalent(compose_combs_seq(k, identity_comb(A, B)), k)
        combs_used += 1
        # sequential associativity
        k1 = rand_comb(A, B, C, D)
        k2 = rand_comb(C, D, B, A)
        k3 = rand_comb(B, A, D, C)
        lhs = compose_combs_seq(k3, compose_combs_seq(k2, k1))
        rhs = compose_combs_seq(compose_combs_seq(k3, k2), k1)
        assert comb_equivalent(lhs, rhs)
        combs_used += 3
        # bifunctoriality
        k1 = rand_comb(C, D, A, B)
        k2 = rand_comb(D, A, B, C)
        k3 = rand_comb(A, B, C, D)
        k4 = rand_comb(B, C, D, A)
        lhs = compose_combs_seq(compose_combs_par(k1, k2), compose_combs_par(k3, k4))
        rhs = compose_combs_par(compose_combs_seq(k1, k3), compose_combs_seq(k2, k4))
        assert comb_equivalent(lhs, rhs)
        combs_used += 4
        # symmetry naturality
        k1 = rand_comb(A, B, C, D)
        k2 = rand_comb(B, C, D, A)
        lhs = compose_combs_seq(symmetry_comb((C, D), (D, A)),
                                compose_combs_par(k1, k2))
        rhs = compose_combs_seq(compose_combs_par(k2, k1),
                                symmetry_comb((A, B), (B, C)))
        assert comb_equivalent(lhs, rhs)
        combs_used += 2
    assert combs_used >= 200
    report(9, f"identity/associativity/bifunctoriality/naturality on "
              f"{combs_used} random combs", started)


def test_criterion_10_complete_family_characterizes_each_table():
    started = time.perf_counter()
    for t in TABLES:
        family = complete_family(t)
        assert complete_family_violations(t, family) == [], t.table
    report(10, f"indicator family complete on all {len(TABLES)} tables", started)


def test_criterion_11_channel_simulation_cases():
    started = time.perf_counter()
    b2, b4 = finset("b", 2), finset("q", 4)
    d = search_exact_simulation(identity(b4), identity(b2), caps=8)
    assert d.is_proven
    w = d.witness
    assert simulate_channel(identity(b4), w.encoder, w.decoder,
                            w.randomness).matrix == identity(b2).matrix

    const = from_function(b2, b2, [0, 0])
    d2 = search_exact_simulation(const, identity(b2), caps=8)
    assert d2.is_refuted
    assert d2.witness[0] == "input-independent-channel"
    i, j = d2.witness[1], d2.witness[2]
    assert identity(b2).column(i) != identity(b2).column(j)
    assert all(const.column(0) == const.column(x) for x in range(2))
    report(11, "noiseless-4 simulates identity-2; constant channel refuted", started)


def test_criterion_12_entanglement_catalysis_textbook_example():
    # Jonathan & Plenio, PRL 83, 3566 (1999): the spectrum (2/5,2/5,1/10,1/10)
    # cannot be turned into (1/2,1/4,1/4) alone, but can with (3/5,2/5) lent.
    started = time.perf_counter()
    t = EntanglementSpectrumTheory()
    a = ProbVector.of("2/5", "2/5", "1/10", "1/10")
    b = ProbVector.of("1/2", "1/4", "1/4")
    c = ProbVector.of("3/5", "2/5")
    assert t.geq(a, b).is_refuted
    d = find_catalyst(t, a, b, [c])
    assert d.is_proven and d.witness == ("catalyst", c)
    assert entanglement_convertible(t.combine(a, c), t.combine(b, c))
    report(12, "(3/5,2/5) catalyses (2/5,2/5,1/10,1/10) -> (1/2,1/4,1/4)", started)
