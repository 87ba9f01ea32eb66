import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resconv.core import (Decision, FiniteTheoryTable, InputError, Verdict,
                          check_axioms, check_oracle_axioms, equivalent,
                          finite_table_from_oracle, replicate)
from resconv.instances import ProbVector, RandomnessTheory
from resconv.presentation import MorphismGenerator, MultisetTheory, ms_make


def test_decision_invariants():
    with pytest.raises(InputError):
        Decision(Verdict.PROVEN)
    with pytest.raises(InputError):
        Decision(Verdict.UNKNOWN)
    d = Decision.unknown(5)
    assert d.bound == 5 and d.is_unknown


# check_axioms

def max_table(levels_per_axis):
    # Supremal vectors over a finite box, tabulated.
    import itertools
    elems = list(itertools.product(*[range(k) for k in levels_per_axis]))
    idx = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    table = tuple(tuple(idx[tuple(map(max, a, b))] for b in elems) for a in elems)
    order = tuple(tuple(all(x >= y for x, y in zip(a, b)) for b in elems) for a in elems)
    return FiniteTheoryTable(n, table, idx[(0,) * len(levels_per_axis)], order), elems


def test_truncated_proficiency_table_has_no_violations():
    t, _ = max_table((3, 3))
    assert check_axioms(t) == []


def test_broken_transitivity_is_reported_with_the_triple():
    # 0 >= 1, 1 >= 2, but not 0 >= 2; combine = max to keep the rest sane.
    table = tuple(tuple(max(a, b) for b in range(3)) for a in range(3))
    order = ((True, True, False), (False, True, True), (False, False, True))
    t = FiniteTheoryTable(3, table, 0, order)
    violations = check_axioms(t)
    trans = [v for v in violations if v.law == "transitivity"]
    assert any(v.elements == (0, 1, 2) for v in trans)


def test_single_element_theory_is_clean():
    t = FiniteTheoryTable(1, ((0,),), 0, ((True,),))
    assert check_axioms(t) == []


def test_malformed_table_rejected():
    with pytest.raises(InputError):
        FiniteTheoryTable(2, ((0, 1),), 0, ((True, False), (False, True)))
    with pytest.raises(InputError):
        FiniteTheoryTable(2, ((0, 5), (1, 0)), 0, ((True, False), (False, True)))


# equivalent / replicate

def test_equivalent_food_examples(food):
    assert equivalent(food, (1, 2), (1, 2)).is_proven
    assert equivalent(food, (2, 0), (0, 2)).is_refuted


def test_equivalent_unknown_propagates():
    t = MultisetTheory(("a", "b"), (MorphismGenerator("r", ms_make(["a"]), ms_make(["b"])),),
                       bound=2, refute_by_conservation=False)
    d = equivalent(t, ms_make(["a"]), ms_make(["b"]))
    # forward is provable, backward exhausts the bound
    assert d.is_unknown and d.bound == 2


def test_replicate_examples(food, proficiency):
    assert replicate(food, 3, (1, 0)) == (3, 0)
    assert replicate(proficiency, 3, (2, 1)) == (2, 1)
    r = RandomnessTheory()
    u2 = ProbVector.uniform(2)
    assert replicate(r, 2, u2) == ProbVector.uniform(4)
    assert replicate(food, 0, (5, 5)) == (0, 0)
    assert replicate(food, 1, (4, 2)) == (4, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3),
       st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_replicate_splits_as_combine(n, m, a):
    food = VectorTheoryCached()
    if n + m == 0 or n + m > 6:
        return
    whole = replicate(food, n + m, a)
    parts = food.combine(replicate(food, n, a), replicate(food, m, a))
    assert equivalent(food, whole, parts).is_proven


class VectorTheoryCached:
    # tiny helper so hypothesis does not rebuild dataclasses every example
    def __new__(cls):
        from resconv.instances import VectorTheory
        return VectorTheory(2, "additive")


# decategorified presentations

def chemistry():
    return (
        ("NaOH", "HCl", "NaCl", "H2O"),
        (MorphismGenerator("neutralize",
                           ms_make(["NaOH", "HCl"]),
                           ms_make(["NaCl", "H2O"])),))


def test_neutralization_is_one_step():
    t = MultisetTheory(*chemistry(), bound=4, refute_by_conservation=False)
    d = t.geq(ms_make(["NaOH", "HCl"]), ms_make(["NaCl", "H2O"]))
    assert d.is_proven
    assert d.witness == ("neutralize",)


def test_reflexive_via_empty_circuit():
    t = MultisetTheory(*chemistry(), bound=4, refute_by_conservation=False)
    a = ms_make(["NaCl", "NaOH"])
    d = t.geq(a, a)
    assert d.is_proven and d.witness == ()


def test_reverse_reaction_unknown_at_bound():
    t = MultisetTheory(*chemistry(), bound=4, refute_by_conservation=False)
    d = t.geq(ms_make(["NaCl", "H2O"]), ms_make(["NaOH", "HCl"]))
    assert d.is_unknown and d.bound == 4


def test_decategorified_oracle_satisfies_axioms():
    t = MultisetTheory(*chemistry(), bound=3, refute_by_conservation=False)
    terms = [m for m in t.enumerate_up_to(2) if len(m) <= 2]
    assert check_oracle_axioms(t, 2, terms=terms) == []


def test_oracle_axiom_check_on_vector_theories(food, proficiency):
    sample = [(0, 0), (1, 0), (0, 1), (2, 1)]
    assert check_oracle_axioms(food, 2, terms=sample) == []
    assert check_oracle_axioms(proficiency, 2, terms=sample) == []


def test_finite_table_from_oracle_roundtrip(proficiency):
    import itertools
    box = [tuple(v) for v in itertools.product(range(3), repeat=2)]
    table, elems = finite_table_from_oracle(proficiency, box)
    assert table.size == 9
    assert check_axioms(table) == []
    i = elems.index((2, 1))
    j = elems.index((1, 1))
    assert table.order[i][j] and not table.order[j][i]


def test_finite_table_from_oracle_requires_closure(food):
    with pytest.raises(InputError):
        finite_table_from_oracle(food, [(0, 0), (1, 0)])  # (1,0)+(1,0) escapes
