from collections import Counter, deque
from fractions import Fraction
from math import comb, gcd, log2
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resconv.core import InputError, replicate
from resconv.instances import (EntanglementSpectrumTheory, ProbVector, RandomnessTheory,
                               VectorTheory, deterministic_convertible, entanglement_convertible,
                               enumerate_prob_vectors, majorizes, shannon_entropy)
from resconv.presentation import MorphismGenerator, MultisetTheory, ms_add, ms_make
import resconv.presentation

from conftest import brute_force_coarse_graining, doubly_stochastic_mixable, pushforward

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



def reference_partition_search(p, q):
    """Explicit-stack backtracking with per-position cursors and tried-state
    sets: the reference the partition search must match.  Returns whether
    a partition exists and the witness."""
    order = sorted(range(len(p)), key=lambda i: p[i], reverse=True)
    n, k = len(order), len(q)
    sums = [F(0)] * k
    assign = [-1] * n
    cursor = [0] * (n + 1)
    tried = [set() for _ in range(n + 1)]
    pos = 0
    while pos >= 0:
        if pos == n:
            if all(s == t for s, t in zip(sums, q.entries)):
                blocks = [[] for _ in q.entries]
                for i, j in zip(order, assign):
                    blocks[j].append(i)
                return True, ("partition", tuple(tuple(sorted(b)) for b in blocks))
            pos -= 1
            sums[assign[pos]] -= p[order[pos]]
            continue
        i = order[pos]
        for j in range(cursor[pos], k):
            key = (sums[j], q[j])
            if key not in tried[pos] and sums[j] + p[i] <= q[j]:
                tried[pos].add(key)
                cursor[pos] = j + 1
                sums[j] += p[i]
                assign[pos] = j
                pos += 1
                cursor[pos] = 0
                tried[pos] = set()
                break
        else:
            pos -= 1
            if pos >= 0:
                sums[assign[pos]] -= p[order[pos]]
    return False, ("exhausted-partition-search", n, k)


def differential_pairs(rng):
    def vector(n):
        den = rng.randint(1, 12)
        cuts = sorted(rng.randint(0, den) for _ in range(n - 1))  # equal cuts give zeros
        return ProbVector(tuple(F(b - a, den) for a, b in zip([0] + cuts, cuts + [den])))

    def coarse(p):
        f = [rng.randrange(rng.randint(1, len(p))) for _ in p.entries]
        return ProbVector(pushforward(p, f, max(f) + 1))

    for _ in range(730):
        p = vector(rng.randint(1, 9))
        yield p, coarse(p)
        yield p, vector(rng.randint(1, 9))
    for a in range(1, 6):
        for b in range(1, 6):
            yield ProbVector.uniform(4 ** a), ProbVector.uniform(2 ** b)
            yield ProbVector.uniform(2 ** b), ProbVector.uniform(4 ** a)
    # Tensor powers are full of equal entries.
    d3 = ProbVector.of("1/2", "1/4", "1/4")
    for k in range(1, 6):
        for p in (replicate(RandomnessTheory(), k, d3), ProbVector.uniform(2 ** k)):
            for m in range(1, 4):
                yield p, ProbVector.uniform(4 ** m)
            for _ in range(3):
                yield p, coarse(p)
    # Refuted before searching.
    yield ProbVector.uniform(2), ProbVector.uniform(4 ** 6)
    yield ProbVector.of("3/4", "1/4"), ProbVector.uniform(2)
    yield ProbVector.of("1/2", "1/2", 0, 0), ProbVector.of("1/2", "1/4", "1/4")
    # A target entry off the multiples of the gcd of the source's entries.
    for a, b in ((9, 4), (12, 8), (6, 4), (10, 4), (15, 4), (16, 6), (20, 8)):
        yield ProbVector.uniform(a), ProbVector.uniform(b)
    yield ProbVector.of("2/9", "2/9", "2/9", "1/9", "1/9", "1/9"), ProbVector.uniform(4)
    yield ProbVector.of("1/3", "1/6", "1/6", "1/6", "1/6", 0), ProbVector.of("1/4", "3/4")


def test_partition_search_matches_the_reference_search():
    pairs = list(differential_pairs(Random(10)))
    assert len(pairs) == 1582
    for p, q in pairs:
        d = deterministic_convertible(p, q)
        assert (d.is_proven, d.witness) == reference_partition_search(p, q), (p, q)


def test_partition_search_refutes_without_searching():
    # a larger largest entry and fewer nonzero entries than the target
    d = deterministic_convertible(ProbVector.uniform(2), ProbVector.uniform(4 ** 6))
    assert d.is_refuted and d.witness == ("exhausted-partition-search", 2, 4096)
    # a larger largest entry only
    d = deterministic_convertible(ProbVector.of("3/4", "1/4"), ProbVector.uniform(2))
    assert d.is_refuted and d.witness == ("exhausted-partition-search", 2, 2)
    # fewer nonzero entries only
    d = deterministic_convertible(ProbVector.of("1/2", "1/2", 0, 0),
                                  ProbVector.of("1/2", "1/4", "1/4"))
    assert d.is_refuted and d.witness == ("exhausted-partition-search", 4, 3)


def test_partition_search_refutes_off_the_gcd_without_searching():
    # every block sum of a uniform source on 81 outcomes is a multiple of 1/81
    third = replicate(RandomnessTheory(), 4, ProbVector.uniform(3))
    quarter = replicate(RandomnessTheory(), 2, ProbVector.uniform(4))
    d = deterministic_convertible(third, quarter)
    assert d.is_refuted and d.witness == ("exhausted-partition-search", 81, 16)
    d = deterministic_convertible(ProbVector.uniform(81), ProbVector.uniform(16))
    assert d.is_refuted and d.witness == ("exhausted-partition-search", 81, 16)


def test_partition_search_depth_does_not_recurse():
    d = deterministic_convertible(ProbVector.uniform(2048), ProbVector.of("1/2", "1/2"))
    assert d.witness == ("partition", (tuple(range(1024)), tuple(range(1024, 2048))))


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


# integer weights against Fraction arithmetic

def test_integer_weights_agree_with_fraction_arithmetic():
    vectors = enumerate_prob_vectors(max_len=4, max_den=6)
    spectra = EntanglementSpectrumTheory()
    # sorted-descending partial sums on the Fraction entries, zero-padded to
    # the longest length; past both lengths the sums are equal
    partial = {}
    for a in vectors:
        sums = [F(0)]
        for x in sorted(list(a.entries) + [F(0)] * (4 - len(a)), reverse=True):
            sums.append(sums[-1] + x)
        partial[a] = sums
    for a in vectors:
        assert gcd(a.total, *a.weights) == 1
        assert shannon_entropy(a) == -sum(float(x) * log2(float(x)) for x in a.entries if x != 0)
        for b in vectors:
            products = tuple(x * y for x in a.entries for y in b.entries)
            t = a.tensor(b)
            assert t.entries == products and gcd(t.total, *t.weights) == 1
            rebuilt = ProbVector(products)
            assert rebuilt == t and hash(rebuilt) == hash(t)
            assert (a == b) == (a.entries == b.entries)
            bad = next(((k, partial[b][k], partial[a][k]) for k in range(1, 5)
                        if partial[b][k] < partial[a][k]), None)
            d = spectra.geq(a, b)
            if bad is None:
                assert d.witness == ("majorization", a.entries, b.entries)
            else:
                assert d.witness == ("majorization-fails", bad)
                assert all(type(s) is F for s in d.witness[1][1:])


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


def a_to_b():
    return MultisetTheory(("A", "B"), (MorphismGenerator("r", ms_make(["A"]), ms_make(["B"])),))


@pytest.mark.parametrize("a, b, trace", [
    ((("B", 1), ("A", 1)), (("A", 1), ("B", 1)), ()),
    ((("A", 1), ("A", 1)), ms_make({"B": 2}), ("r", "r")),
    ((("A", 0),), (), ()),
], ids=["reordered", "repeated-species", "zero-count"])
def test_non_canonical_terms_are_read_as_their_species_counts(a, b, trace):
    d = a_to_b().geq(a, b)
    assert d.is_proven and d.witness == trace


def test_negative_species_count_rejected():
    with pytest.raises(InputError, match="negative multiplicity for 'A'"):
        a_to_b().geq((("A", -1),), ())


def test_rule_with_negative_count_rejected_at_construction():
    with pytest.raises(InputError, match="morphism 'r' has negative count for 'A'"):
        MultisetTheory(("A", "B"), (MorphismGenerator("r", (("A", -1),), ()),))


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


def test_geq_builds_each_count_vector_once(monkeypatch):
    rng = Random(77)
    built, refuted = [], 0
    real = MultisetTheory._vector

    def counting(self, a):
        built.append(a)
        return real(self, a)

    monkeypatch.setattr(MultisetTheory, "_vector", counting)
    for case in range(20):
        t = random_network(rng, case)
        t._rule_table  # the rules' own vectors, built once per theory
        for _ in range(10):
            a = ms_make({s: rng.randint(0, 3) for s in t.species})
            b = ms_make({s: rng.randint(0, 3) for s in t.species})
            built.clear()
            d = t.geq(a, b)
            assert built == [a, b]
            if d.is_refuted:
                refuted += 1
                assert d.witness == ("conserved-functional", t.conservation_certificate(a, b))
    assert refuted


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


def reference_geq(rules, bound, a, b):
    """Bounded BFS over Counters with MultisetTheory's rule order, size cap
    and early return: the shortest trace it finds, or None."""
    start, goal = Counter(dict(a)), Counter(dict(b))
    if start == goal:
        return ()
    cap = max(start.total(), goal.total()) + bound
    seen = {frozenset(start.items())}
    frontier = deque([(start, ())])
    for _ in range(bound):
        for _ in range(len(frontier)):
            state, trace = frontier.popleft()
            for rule in rules:
                source = Counter(dict(rule.source))
                if any(state[s] < k for s, k in source.items()):
                    continue
                nxt = state - source + Counter(dict(rule.target))
                key = frozenset(nxt.items())
                if key in seen or nxt.total() > cap:
                    continue
                if nxt == goal:
                    return trace + (rule.name,)
                seen.add(key)
                frontier.append((nxt, trace + (rule.name,)))
    return None


SPECIES = ("A", "B", "C")
small_side = st.lists(st.sampled_from(SPECIES), max_size=2).map(ms_make)
small_term = st.lists(st.sampled_from(SPECIES), max_size=3).map(ms_make)


def fire(rules, a, picks):
    """a after firing the picked rules in turn, skipping any that cannot
    fire or would grow the term past 3 species."""
    state = Counter(dict(a))
    for i in picks:
        rule = rules[i % len(rules)]
        source = Counter(dict(rule.source))
        nxt = state - source + Counter(dict(rule.target))
        if all(state[s] >= k for s, k in source.items()) and nxt.total() <= 3:
            state = nxt
    return ms_make(dict(state))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(small_side, small_side), min_size=1, max_size=3),
       st.integers(0, 4), small_term, small_term, st.lists(st.integers(0, 2), min_size=1, max_size=4))
def test_vector_search_matches_a_counter_reference(sides, bound, a, b, picks):
    # b is drawn at random; fire(...) is a target that is often reachable
    rules = tuple(MorphismGenerator(f"r{i}", src, tgt) for i, (src, tgt) in enumerate(sides))
    t = MultisetTheory(SPECIES, rules, bound=bound)
    for target in (b, fire(rules, a, picks)):
        d = t.geq(a, target)
        expected = reference_geq(rules, bound, a, target)
        if expected is not None:
            assert d.is_proven and d.witness == expected
            continue
        assert not d.is_proven
        if d.is_refuted:
            kind, cert = d.witness
            assert kind == "conserved-functional"
            w = [dict(cert).get(s, F(0)) for s in SPECIES]
            assert all(sum(x * y for x, y in zip(w, delta(r, SPECIES))) == 0 for r in rules)
            diff = [dict(target).get(s, 0) - dict(a).get(s, 0) for s in SPECIES]
            assert sum(x * y for x, y in zip(w, diff)) != 0


@pytest.mark.parametrize("k", range(5))
def test_enumeration_lists_each_multiset_once_by_size_then_term(k):
    terms = MultisetTheory(SPECIES, ()).enumerate_up_to(k)
    assert len(terms) == len(set(terms)) == comb(3 + k, k)
    assert all(ms_make(dict(m)) == m and sum(dict(m).values()) <= k for m in terms)
    assert terms == sorted(terms, key=lambda m: (sum(dict(m).values()), m))


# count vectors

@pytest.mark.parametrize("term", [("a", 1), (True, 1), (-1, 0), (1.5, 0), (1,), 5],
                         ids=["string", "boolean", "negative", "fraction", "short", "integer"])
def test_vector_term_that_is_not_a_count_vector_names_itself(term):
    with pytest.raises(InputError) as exc:
        VectorTheory(2, "additive").geq(term, (0, 0))
    assert str(exc.value) == f"term {term!r} is not a length-2 vector of naturals"
