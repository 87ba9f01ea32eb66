import math
from fractions import Fraction

from resconv.core import FiniteTheoryTable, replicate
from resconv.instances import (ProbVector, RandomnessTheory, VectorTheory,
                               enumerate_prob_vectors, shannon_entropy)
from resconv.monotones import (Monotone, builtin_monotone, classify, complete_family,
                               complete_family_violations, component_monotone,
                               entropy_monotone, find_activation, rate, rate_upper_bound,
                               verify_monotone)

F = Fraction


def rand_sample():
    return enumerate_prob_vectors(max_len=3, max_den=3)


def test_entropy_is_a_monotone_for_randomness():
    r = verify_monotone(entropy_monotone(), RandomnessTheory(), rand_sample())
    assert not r.decision.is_refuted


def test_apple_count_is_a_monotone_for_food(food):
    m = component_monotone(0, "additive")
    r = verify_monotone(m, food, food.enumerate_up_to(3))
    assert not r.decision.is_refuted


def test_negated_entropy_is_refuted_with_a_merge_witness():
    m = Monotone("neg-entropy", lambda p: -shannon_entropy(p), "general")
    r = verify_monotone(m, RandomnessTheory(), rand_sample())
    assert r.decision.is_refuted
    _, a, b, va, vb = r.decision.witness
    assert RandomnessTheory().geq(a, b).is_proven and va < vb


def test_classification_of_component_monotones(food, proficiency):
    assert classify(component_monotone(0, "additive"), food,
                    food.enumerate_up_to(2)).decision.is_proven
    assert classify(component_monotone(1, "supremal"), proficiency,
                    proficiency.enumerate_up_to(2)).decision.is_proven
    # the wrong law is refuted with the offending pair
    r = classify(component_monotone(0, "supremal"), food, food.enumerate_up_to(2))
    assert r.decision.is_refuted


def test_entropy_is_additive_under_tensor():
    r = classify(entropy_monotone(), RandomnessTheory(),
                 enumerate_prob_vectors(max_len=2, max_den=3))
    assert r.decision.is_proven


# complete families

def chain2():
    return FiniteTheoryTable(2, ((0, 1), (1, 1)), 0,
                             ((True, False), (True, True)))


def antichain_pair():
    # two incomparable nonzero elements over a 3-element join-style monoid
    table = ((0, 1, 2), (1, 1, 1), (2, 1, 2))
    order = ((True, False, False), (False, True, False), (False, False, True))
    return FiniteTheoryTable(3, table, 0, order)


def test_chain_family_separates_the_top():
    t = chain2()
    family = complete_family(t)
    m1 = family[1]
    assert m1(1) == 1 and m1(0) == 0
    assert complete_family_violations(t, family) == []


def test_antichain_family_detects_both_nonconversions():
    t = antichain_pair()
    family = complete_family(t)
    assert family[1](1) == 1 and family[1](2) == 0
    assert family[2](2) == 1 and family[2](1) == 0
    assert complete_family_violations(t, family) == []


def test_singleton_family_is_vacuously_complete():
    t = FiniteTheoryTable(1, ((0,),), 0, ((True,),))
    family = complete_family(t)
    assert len(family) == 1
    assert complete_family_violations(t, family) == []


# rates

def test_food_rate_is_two_with_matching_bounds(food):
    apples = component_monotone(0, "additive")
    bananas = component_monotone(1, "additive")
    result = rate(food, (2, 3), (1, 1), caps=8, monotones=[apples, bananas])
    assert result.best == 2
    assert result.upper_bound == 2
    assert result.exact
    n, m = result.witness
    assert F(m, n) == 2
    assert rate_upper_bound(apples, (2, 3), (1, 1)) == 2
    assert rate_upper_bound(bananas, (2, 3), (1, 1)) == 3


def test_rate_to_itself_is_at_least_one(food):
    assert rate(food, (1, 2), (1, 2), caps=3).best >= 1


def test_randomness_rate_matches_entropy_bound():
    r = RandomnessTheory()
    result = rate(r, ProbVector.uniform(4), ProbVector.uniform(2), caps=6,
                  monotones=[entropy_monotone()])
    assert result.best == 2
    assert abs(result.upper_bound - 2.0) <= 1e-9
    assert result.exact


def test_zero_value_target_gives_infinite_bound(food):
    bananas = component_monotone(1, "additive")
    assert rate_upper_bound(bananas, (2, 3), (1, 0)) == math.inf


def test_rate_zero_when_nothing_converts(food):
    result = rate(food, (0, 0), (1, 0), caps=4)
    assert result.best == 0 and result.witness is None


def test_rate_with_minimal_takes_the_infimum(food):
    result = rate(food, (2, 3), (1, 1), caps=8, minimal=True)
    assert result.best == F(1, 8)


def test_rate_upper_bound_is_the_least_bound_exactly():
    # (n+2)/n and (n+1)/n round to the same float; the least one is reported
    n = 10**17
    monotones = [component_monotone(0, "additive"), component_monotone(1, "additive")]
    result = rate(VectorTheory(2, "additive"), (n + 2, n + 1), (n, n), caps=1,
                  monotones=monotones)
    assert result.upper_bound == F(n + 1, n)


def test_additive_bound_dominates_every_proven_cell(food):
    # executable form of the rate bound: each achieved ratio m/n obeys
    # (m/n) * M(b) <= M(a), exactly, for every additive monotone
    apples = component_monotone(0, "additive")
    bananas = component_monotone(1, "additive")
    a, b = (2, 3), (1, 1)
    for n in range(1, 7):
        for m in range(1, 7):
            if food.geq(replicate(food, n, a), replicate(food, m, b)).is_proven:
                for mono in (apples, bananas):
                    assert F(m, n) * mono(b) <= mono(a)


def test_rate_grows_monotonically_with_caps(food):
    cache = {}
    best = F(0)
    for caps in range(1, 9):
        result = rate(food, (2, 3), (1, 1), caps=caps, cache=cache)
        assert result.best >= best
        best = result.best
    assert best == 2


def test_no_activation_in_food(food):
    d = find_activation(food, (1, 1), (0, 2), caps=5)
    assert d.is_refuted


def test_builtin_monotone_resolution(food):
    t = chain2()
    ind = builtin_monotone("indicator:1", "general", t)
    assert ind(1) == 1 and ind(0) == 0
    comp = builtin_monotone("component:1", "additive", food)
    assert comp((3, 4)) == 4
    shifted = Monotone("const", lambda a: F(5), "supremal")
    from resconv.monotones import normalize_supremal
    norm = normalize_supremal(shifted, food)
    assert norm(food.zero()) == 0
