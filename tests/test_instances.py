from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resconv.core import InputError
from resconv.instances import (ProbVector, RandomnessTheory, deterministic_convertible,
                               entanglement_convertible, enumerate_prob_vectors,
                               majorizes, shannon_entropy)
from resconv.presentation import MorphismGenerator, MultisetTheory, ms_add, ms_make
import resconv.presentation

from conftest import brute_force_coarse_graining, doubly_stochastic_mixable

F = Fraction


# deterministic_convertible

def test_half_quarter_quarter_merges_to_half_half():
    d = deterministic_convertible(ProbVector.of("1/2", "1/4", "1/4"),
                                  ProbVector.of("1/2", "1/2"))
    assert d.is_proven
    assert d.witness == ("partition", ((0,), (1, 2)))


def test_identity_partition_is_singletons():
    p = ProbVector.of("1/6", "1/3", "1/2")
    d = deterministic_convertible(p, p)
    assert d.is_proven
    blocks = d.witness[1]
    assert sorted(sum(blocks, ())) == [0, 1, 2]
    assert all(len(b) == 1 for b in blocks)


def test_uniform_cannot_reach_thirds():
    d = deterministic_convertible(ProbVector.of("1/2", "1/2"),
                                  ProbVector.of("1/3", "2/3"))
    assert d.is_refuted


def test_unnormalized_input_rejected():
    with pytest.raises(InputError):
        ProbVector.of("1/2", "1/3")


def test_partition_search_agrees_with_function_enumeration():
    vectors = enumerate_prob_vectors(max_len=3, max_den=3)
    for p in vectors:
        for q in vectors:
            expected = brute_force_coarse_graining(p, q)
            assert deterministic_convertible(p, q).is_proven == expected, (p, q)


def test_witness_partition_replays():
    vectors = enumerate_prob_vectors(max_len=4, max_den=3)
    for p in vectors:
        for q in vectors:
            d = deterministic_convertible(p, q)
            if d.is_proven:
                blocks = d.witness[1]
                sums = [sum((p[i] for i in b), F(0)) for b in blocks]
                assert tuple(sums) == q.entries


# majorization

def test_point_mass_majorizes_everything():
    assert majorizes(ProbVector.of(1, 0), ProbVector.of("1/2", "1/2"))


def test_uniform_is_majorized_by_all():
    assert not majorizes(ProbVector.of("1/2", "1/2"), ProbVector.of(1, 0))


def test_zero_padding_across_lengths():
    assert majorizes(ProbVector.of("3/5", "2/5"),
                     ProbVector.of("1/2", "3/10", "1/5"))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_tensoring_preserves_majorization(seed_x, seed_y, seed_z):
    vectors = enumerate_prob_vectors(max_len=3, max_den=3)
    x = vectors[seed_x * 7 % len(vectors)]
    y = vectors[seed_y * 11 % len(vectors)]
    z = vectors[seed_z * 13 % len(vectors)]
    if majorizes(x, y):
        assert majorizes(x.tensor(z), y.tensor(z))


# entanglement spectra

def test_uniform_spectrum_converts_anywhere():
    assert entanglement_convertible(ProbVector.of("1/2", "1/2"),
                                    ProbVector.of("3/4", "1/4"))


def test_conversion_cannot_increase_mixedness():
    assert not entanglement_convertible(ProbVector.of("3/4", "1/4"),
                                        ProbVector.of("1/2", "1/2"))


def test_spectrum_self_conversion():
    s = ProbVector.of("2/3", "1/3")
    assert entanglement_convertible(s, s)


def test_majorization_matches_doubly_stochastic_oracle_small():
    vectors = enumerate_prob_vectors(max_len=3, max_den=3)
    for s in vectors:
        for t in vectors:
            assert entanglement_convertible(s, t) == doubly_stochastic_mixable(s, t)


def test_majorization_matches_mixing_oracle_at_length_four():
    vectors = enumerate_prob_vectors(max_len=4, max_den=3)
    for s in vectors:
        for t in vectors:
            assert entanglement_convertible(s, t) == doubly_stochastic_mixable(s, t)


# randomness / entropy interplay

def test_entropy_never_increases_along_conversions():
    vectors = enumerate_prob_vectors(max_len=3, max_den=4)
    for p in vectors:
        for q in vectors:
            if deterministic_convertible(p, q).is_proven:
                assert shannon_entropy(p) >= shannon_entropy(q) - 1e-9


def test_randomness_combine_is_product():
    t = RandomnessTheory()
    p = t.combine(ProbVector.of("1/2", "1/2"), ProbVector.of("1/3", "2/3"))
    assert p.entries == (F(1, 6), F(1, 3), F(1, 6), F(1, 3))


# reactions

def haber():
    return MultisetTheory(
        ("N2", "H2", "NH3"),
        (MorphismGenerator("haber", ms_make({"N2": 1, "H2": 3}), ms_make({"NH3": 2})),),
        bound=5)


def test_haber_process_proven_in_one_step():
    t = haber()
    d = t.geq(ms_make({"N2": 1, "H2": 3}), ms_make({"NH3": 2}))
    assert d.is_proven and d.witness == ("haber",)


def test_reaction_reflexivity_zero_steps():
    t = haber()
    a = ms_make({"NH3": 2})
    d = t.geq(a, a)
    assert d.is_proven and d.witness == ()


def test_ammonia_to_nitrogen_refuted_by_conservation():
    # Bounded search alone cannot rule this out, but no combination of the
    # rule's net changes reaches the difference vector, so a conserved
    # functional separates the two sides.
    t = haber()
    d = t.geq(ms_make({"NH3": 1}), ms_make({"N2": 1}))
    assert d.is_refuted
    kind, cert = d.witness
    assert kind == "conserved-functional"
    weights = dict(cert)
    # certificate replays: constant on the rule, separating on the query
    delta = {"N2": -1, "H2": -3, "NH3": 2}
    assert sum(weights.get(s, F(0)) * delta[s] for s in delta) == 0
    assert weights.get("N2", F(0)) * 1 != weights.get("NH3", F(0)) * 1


def test_same_query_is_unknown_without_conservation_refutation():
    plain = MultisetTheory(
        ("N2", "H2", "NH3"),
        (MorphismGenerator("haber", ms_make({"N2": 1, "H2": 3}), ms_make({"NH3": 2})),),
        bound=4, refute_by_conservation=False)
    d = plain.geq(ms_make({"NH3": 1}), ms_make({"N2": 1}))
    assert d.is_unknown and d.bound == 4


def test_negative_bound_rejected_and_zero_allowed():
    species = ("N2", "H2", "NH3")
    rules = (MorphismGenerator("haber", ms_make({"N2": 1, "H2": 3}), ms_make({"NH3": 2})),)
    with pytest.raises(InputError, match="bound must be non-negative, got -1"):
        MultisetTheory(species, rules, bound=-1)
    t = MultisetTheory(species, rules, bound=0)
    a = ms_make({"N2": 1, "H2": 3})
    assert t.geq(a, a).is_proven
    assert t.geq(a, ms_make({"NH3": 2})).is_unknown


def test_undeclared_species_rejected():
    t = haber()
    with pytest.raises(InputError):
        t.geq(ms_make({"O2": 1}), ms_make({"N2": 1}))


def test_quality_like_idempotence_on_box(proficiency):
    for a in proficiency.enumerate_up_to(3):
        assert proficiency.combine(a, a) == a


def test_reaction_bfs_finds_multi_step_paths():
    t = MultisetTheory(
        ("a", "b", "c"),
        (MorphismGenerator("r1", ms_make(["a"]), ms_make(["b"])),
         MorphismGenerator("r2", ms_make(["b"]), ms_make(["c"])),),
        bound=4)
    d = t.geq(ms_make(["a"]), ms_make(["c"]))
    assert d.is_proven and d.witness == ("r1", "r2")


def gram_schmidt_residual(vectors, target):
    """Reference: component of target orthogonal to span(vectors), by
    textbook Gram-Schmidt over Fractions, or None when it is zero."""
    def dot(u, v):
        return sum((x * y for x, y in zip(u, v)), F(0))

    basis = []
    for v in list(vectors) + [target]:
        r = [F(x) for x in v]
        for u in basis:
            c = dot(r, u) / dot(u, u)
            r = [x - c * y for x, y in zip(r, u)]
        if v is target:
            return tuple(r) if any(r) else None
        if any(r):
            basis.append(r)


def random_network(rng, case):
    """Seeded reaction networks; every case keeps species s0 out of all rules,
    and some add a linearly dependent rule or a rule whose sides agree."""
    species = tuple(f"s{i}" for i in range(rng.randint(2, 6)))
    used = species[1:]

    def side():
        return ms_make({s: rng.randint(0, 2) for s in rng.sample(used, rng.randint(0, len(used)))})

    rules = [MorphismGenerator(f"r{i}", side(), side()) for i in range(rng.randint(1, 4))]
    if case % 3 == 0:  # deltas that are a sum and a multiple of earlier ones
        first, last = rules[0], rules[-1]
        rules.append(MorphismGenerator("both", ms_add(first.source, last.source),
                                       ms_add(first.target, last.target)))
        rules.append(MorphismGenerator("twice", ms_add(first.source, first.source),
                                       ms_add(first.target, first.target)))
    if case % 3 == 1:
        same = side()
        rules.append(MorphismGenerator("idle", same, same))
    return MultisetTheory(species, tuple(rules), bound=2)


def delta(rule, species):
    counts = {s: 0 for s in species}
    for name, k in rule.target:
        counts[name] += k
    for name, k in rule.source:
        counts[name] -= k
    return [counts[s] for s in species]


def test_conservation_certificate_matches_gram_schmidt_reference():
    rng = Random(2024)
    refuted = in_span = 0
    for case in range(60):
        t = random_network(rng, case)
        deltas = [delta(r, t.species) for r in t.rules]
        for _ in range(15):
            a = ms_make({s: rng.randint(0, 3) for s in t.species})
            b = ms_make({s: rng.randint(0, 3) for s in t.species})
            diff = [dict(b).get(s, 0) - dict(a).get(s, 0) for s in t.species]
            expected = gram_schmidt_residual(deltas, diff)
            cert = t.conservation_certificate(a, b)
            if expected is None:
                in_span += 1
                assert cert is None
                continue
            refuted += 1
            assert cert == tuple((s, w) for s, w in zip(t.species, expected) if w)
            weights = dict(cert)
            w = [weights.get(s, F(0)) for s in t.species]
            # zero on every rule delta, positive on b - a
            assert all(sum(x * y for x, y in zip(w, d)) == 0 for d in deltas)
            assert sum(x * y for x, y in zip(w, diff)) > 0
            d = t.geq(a, b)
            assert d.is_refuted and d.witness == ("conserved-functional", cert)
    assert refuted and in_span


def test_unused_species_is_its_own_conserved_functional():
    t = random_network(Random(5), 1)
    cert = t.conservation_certificate((), ms_make({"s0": 2}))
    assert cert == (("s0", F(2)),)


def test_projector_is_computed_once_per_theory(monkeypatch):
    calls = []
    real = resconv.presentation.complement_projector

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(resconv.presentation, "complement_projector", counting)
    t = haber()
    assert calls == []
    for n in range(1, 30):
        assert t.geq(ms_make({"NH3": n}), ms_make({"N2": n})).is_refuted
        t.geq(ms_make({"N2": 1, "H2": 3}), ms_make({"NH3": 2}))
    assert len(calls) == 1
    haber().geq(ms_make({"NH3": 1}), ms_make({"N2": 1}))
    assert len(calls) == 2
