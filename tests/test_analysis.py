import itertools
from random import Random

from resconv.analysis import (check_catalysis_free, check_non_interacting,
                              check_quality_like, check_quantity_like,
                              check_riesz_interpolation, check_waste_free,
                              cross_check_theorems, find_catalyst, random_theory_table)
from resconv.core import FiniteTheoryTable, check_axioms, equivalent
from resconv.presentation import MorphismGenerator, MultisetTheory, ms_make


def box(t, size):
    return t.enumerate_up_to(size)


# catalyst search

def test_proficiency_admits_a_catalyst(proficiency):
    d = find_catalyst(proficiency, (0, 0), (1, 0), [(1, 0)])
    assert d.is_proven
    assert d.witness == ("catalyst", (1, 0))
    # witness replays against the definition
    c = d.witness[1]
    assert proficiency.geq((0, 0), (1, 0)).is_refuted
    assert proficiency.geq(proficiency.combine((0, 0), c),
                           proficiency.combine((1, 0), c)).is_proven


def test_food_has_no_catalyst_for_creating_an_apple(food):
    d = find_catalyst(food, (0, 0), (1, 0), box(food, 4))
    assert d.is_refuted
    assert d.witness[0] == "no-catalyst-in-candidates"


def test_catalyst_moot_when_already_convertible(food):
    d = find_catalyst(food, (2, 2), (1, 1), box(food, 2))
    assert d.is_refuted and "no catalyst needed" in d.note


def test_catalysis_free_table_proven_exhaustively():
    t = truncated_max_table()
    r = check_catalysis_free(t, list(range(t.size)))
    assert r.decision.is_unknown is False
    # supremal theories admit catalysis, so this one is refuted...
    assert r.decision.is_refuted
    a, b, c = r.decision.witness[1:]
    assert t.geq(a, b).is_refuted
    assert t.geq(t.combine(a, c), t.combine(b, c)).is_proven


def truncated_max_table():
    elems = list(itertools.product(range(2), repeat=2))
    idx = {e: i for i, e in enumerate(elems)}
    table = tuple(tuple(idx[tuple(map(max, a, b))] for b in elems) for a in elems)
    order = tuple(tuple(all(x >= y for x, y in zip(a, b)) for b in elems) for a in elems)
    return FiniteTheoryTable(len(elems), table, idx[(0, 0)], order)


def additive_box_table(size):
    # capped componentwise addition stays inside the box
    elems = list(itertools.product(range(size + 1), repeat=2))
    idx = {e: i for i, e in enumerate(elems)}
    cap = lambda v: tuple(min(x, size) for x in v)
    table = tuple(tuple(idx[cap((a[0] + b[0], a[1] + b[1]))] for b in elems) for a in elems)
    order = tuple(tuple(all(x >= y for x, y in zip(a, b)) for b in elems) for a in elems)
    return FiniteTheoryTable(len(elems), table, idx[(0, 0)], order)


# structural properties on the two vector theories

def test_food_is_quantity_like_on_sample(food):
    r = check_quantity_like(food, box(food, 2))
    assert not r.decision.is_refuted
    assert "unrefuted on sample" in r.decision.note


def test_proficiency_is_not_quantity_like(proficiency):
    r = check_quantity_like(proficiency, box(proficiency, 1))
    assert r.decision.is_refuted
    a1, a2, b1, b2 = r.decision.witness[1:]
    assert equivalent(proficiency, proficiency.combine(a1, a2),
                      proficiency.combine(b1, b2)).is_proven
    assert proficiency.geq(a1, b1).is_proven
    assert proficiency.geq(b2, a2).is_refuted


def test_food_is_not_quality_like(food):
    r = check_quality_like(food, box(food, 2))
    assert r.decision.is_refuted
    a = r.decision.witness[1]
    assert equivalent(food, food.combine(a, a), a).is_refuted


def test_proficiency_is_quality_like_on_sample(proficiency):
    r = check_quality_like(proficiency, box(proficiency, 3))
    assert not r.decision.is_refuted


def test_food_is_waste_free_on_sample(food):
    r = check_waste_free(food, box(food, 3))
    assert not r.decision.is_refuted


def test_non_interacting_holds_for_both_vector_theories(food, proficiency):
    assert not check_non_interacting(food, box(food, 2)).decision.is_refuted
    assert not check_non_interacting(proficiency, box(proficiency, 2)).decision.is_refuted


def test_non_interacting_refuted_with_replayable_witness():
    # Truncated addition on the chain {0,1,2} with 1 above 2: one copy of
    # 1 yields 1+1 = 2 but cannot split into two halves each above 1.
    table = tuple(tuple(min(a + b, 2) for b in range(3)) for a in range(3))
    order = ((True, False, False), (False, True, True), (False, False, True))
    t = FiniteTheoryTable(3, table, 0, order)
    assert check_axioms(t) == []
    r = check_non_interacting(t, list(range(3)))
    assert r.decision.is_refuted
    a, b1, b2 = r.decision.witness[1:]
    assert t.geq(a, t.combine(b1, b2)).is_proven
    for a1, a2 in t.decompositions(a):
        assert not (t.geq(a1, b1).is_proven and t.geq(a2, b2).is_proven)


def test_unknown_subanswers_never_prove_or_refute():
    t = MultisetTheory(("a", "b"),
                       (MorphismGenerator("r", ms_make(["a", "a"]), ms_make(["b"])),),
                       bound=1, refute_by_conservation=False)
    sample = t.enumerate_up_to(2)
    for report in (check_quality_like(t, sample),
                   check_quantity_like(t, sample),
                   check_catalysis_free(t, sample)):
        assert report.decision.is_unknown
        assert "inconclusive" in report.decision.note


# Riesz interpolation

def test_food_interpolates_between_families(food):
    r = check_riesz_interpolation(food, [(2, 2), (3, 1)], [(1, 1), (0, 1)], bound=3)
    assert r.decision.is_proven
    c = r.decision.witness[1]
    for a in [(2, 2), (3, 1)]:
        assert food.geq(a, c).is_proven
    for b in [(1, 1), (0, 1)]:
        assert food.geq(c, b).is_proven


def test_interpolation_refuted_on_the_sink_table():
    n = 6
    table = tuple(tuple(j if i == 0 else (i if j == 0 else 5) for j in range(n))
                  for i in range(n))
    order = [[i == j for j in range(n)] for i in range(n)]
    for i, j in [(1, 3), (1, 4), (2, 3), (2, 4)]:
        order[i][j] = True
    t = FiniteTheoryTable(n, table, 0, tuple(tuple(r) for r in order))
    r = check_riesz_interpolation(t, [1, 2], [3, 4], bound=n)
    assert r.decision.is_refuted


def test_interpolation_precondition_reported(food):
    r = check_riesz_interpolation(food, [(0, 0)], [(1, 1)], bound=2)
    assert r.scope == "precondition"


# theorem cross-checks

def test_cross_checks_on_vector_theories(food, proficiency):
    for t in (food, proficiency):
        reports = cross_check_theorems(t, box(t, 2))
        for r in reports:
            if r.name.startswith(("thm:", "prop:")):
                assert not r.decision.is_refuted, str(r)


def test_cross_checks_on_capped_additive_table():
    t = additive_box_table(2)
    reports = cross_check_theorems(t, list(range(t.size)))
    for r in reports:
        if r.name.startswith(("thm:", "prop:")):
            assert not r.decision.is_refuted, str(r)


# random table generator

def test_random_tables_pass_axioms_and_are_deterministic():
    tables = [random_theory_table(Random(7), 5) for _ in range(3)]
    assert tables[0] == tables[1] == tables[2]
    rng = Random(123)
    seen = set()
    for _ in range(30):
        t = random_theory_table(rng, rng.randint(2, 6))
        assert check_axioms(t) == []
        seen.add((t.size, t.table, tuple(t.order)))
    assert len(seen) > 10  # actual variety


def test_random_tables_satisfy_theorem_battery():
    rng = Random(99)
    for _ in range(40):
        t = random_theory_table(rng, rng.randint(2, 5))
        for r in cross_check_theorems(t, list(range(t.size))):
            if r.name.startswith(("thm:", "prop:")):
                assert not r.decision.is_refuted, str(r)


def replay_refutation(t, report):
    """Re-derive a Refuted property verdict from its witness alone."""
    kind, *terms = report.decision.witness
    if kind == "catalyst-triple":
        a, b, c = terms
        return t.geq(a, b).is_refuted and \
            t.geq(t.combine(a, c), t.combine(b, c)).is_proven
    if kind == "no-split":
        a, b1, b2 = terms
        if not t.geq(a, t.combine(b1, b2)).is_proven:
            return False
        return all(not (t.geq(a1, b1).is_proven and t.geq(a2, b2).is_proven)
                   for a1, a2 in t.decompositions(a))
    if kind == "quadruple":
        a1, a2, b1, b2 = terms
        return equivalent(t, t.combine(a1, a2), t.combine(b1, b2)).is_proven \
            and t.geq(a1, b1).is_proven and t.geq(b2, a2).is_refuted
    if kind == "not-idempotent":
        (a,) = terms
        return equivalent(t, t.combine(a, a), a).is_refuted
    if kind == "not-disposable":
        (a,) = terms
        return t.geq(a, t.zero()).is_refuted
    raise AssertionError(f"unexpected witness kind {kind!r}")


def test_every_refuted_report_replays_on_random_tables():
    rng = Random(2718)
    replayed = 0
    for _ in range(60):
        t = random_theory_table(rng, rng.randint(2, 6))
        carrier = list(range(t.size))
        reports = [check_catalysis_free(t, carrier),
                   check_non_interacting(t, carrier),
                   check_quantity_like(t, carrier),
                   check_quality_like(t, carrier),
                   check_waste_free(t, carrier)]
        for r in reports:
            if r.decision.is_refuted:
                assert replay_refutation(t, r), str(r)
                replayed += 1
    assert replayed > 20  # the generator produces enough refutations to matter
