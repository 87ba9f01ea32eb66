import copy
import dataclasses
import pickle
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resconv.core import (Decision, FiniteTheoryTable, InputError, QueryMemo, TheoryOracle,
                          Verdict, Violation, check_axioms, replicate)
from resconv.instances import ProbVector, RandomnessTheory
from resconv.presentation import MorphismGenerator, MultisetTheory, ms_make


def test_decision_invariants():
    with pytest.raises(InputError):
        Decision(Verdict.PROVEN)
    with pytest.raises(InputError):
        Decision(Verdict.UNKNOWN)
    d = Decision.unknown(5)
    assert d.bound == 5 and d.is_unknown


def test_decision_json_writes_fraction_witnesses_as_strings():
    assert Decision.proven({"k": Fraction(1, 2)}).to_json()["witness"] == {"k": "1/2"}


FACTORY_BUILT = [
    (Decision.proven(("partition", ((0, 1), (2,))), note="n"),
     Decision(Verdict.PROVEN, witness=("partition", ((0, 1), (2,))), note="n")),
    (Decision.refuted({"k": Fraction(1, 3)}),
     Decision(Verdict.REFUTED, witness={"k": Fraction(1, 3)})),
    (Decision.unknown(7, note="bound"), Decision(Verdict.UNKNOWN, bound=7, note="bound")),
]


@pytest.mark.parametrize("built, constructed", FACTORY_BUILT)
def test_factory_decisions_are_constructor_decisions(built, constructed):
    assert type(built) is Decision and built == constructed
    assert repr(built) == repr(constructed)
    assert built.to_json() == constructed.to_json()
    for again in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built), copy.copy(built)):
        assert again == constructed and type(again) is Decision
    assert dataclasses.replace(built, note="other") == dataclasses.replace(constructed,
                                                                          note="other")
    if not isinstance(built.witness, dict):
        assert hash(built) == hash(constructed)


@pytest.mark.parametrize("built", [b for b, _ in FACTORY_BUILT])
def test_factory_decisions_are_frozen(built):
    with pytest.raises(dataclasses.FrozenInstanceError):
        built.verdict = Verdict.REFUTED
    with pytest.raises(dataclasses.FrozenInstanceError):
        built.extra = 1


def test_factories_refuse_a_missing_witness_or_bound():
    for make, message in [(Decision.proven, "Proven decision requires a witness"),
                          (Decision.refuted, "Refuted decision requires a witness"),
                          (Decision.unknown, "Unknown decision requires the search bound")]:
        with pytest.raises(InputError, match=f"^{message}$"):
            make(None)


@pytest.mark.parametrize("verdict", ["Proven", None, True, 1])
def test_decision_refuses_a_verdict_that_is_not_a_verdict(verdict):
    with pytest.raises(InputError, match=f"decision verdict {verdict!r} is not a Verdict"):
        Decision(verdict, witness=1, bound=1)


def test_an_analyzers_round_builds_no_decision_through_the_constructor(monkeypatch):
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import gen as bench_gen
    import ops as bench_ops

    import resconv
    from resconv import jsonio, monotones  # noqa: F401
    calls = []
    checked = Decision.__post_init__
    monkeypatch.setattr(Decision, "__post_init__", lambda d: calls.append(checked(d)))
    Decision(Verdict.UNKNOWN, bound=1)
    assert len(calls) == 1  # the counter sees the constructor
    calls.clear()
    _, op_list = bench_gen.GENERATORS["analyzers"](21, root / "demo")
    bench_ops.materialize_tables(resconv, op_list)
    for op in op_list:
        bench_ops.analyzer_op(resconv, op)
    assert calls == []


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
    assert check_axioms(t, range(t.size)) == []


def test_broken_transitivity_is_reported_with_the_triple():
    # 0 >= 1, 1 >= 2, but not 0 >= 2; combine = max to keep the rest sane.
    table = tuple(tuple(max(a, b) for b in range(3)) for a in range(3))
    order = ((True, True, False), (False, True, True), (False, False, True))
    t = FiniteTheoryTable(3, table, 0, order)
    violations = check_axioms(t, range(t.size))
    trans = [v for v in violations if v.law == "transitivity"]
    assert any(v.elements == (0, 1, 2) for v in trans)


def test_single_element_theory_is_clean():
    t = FiniteTheoryTable(1, ((0,),), 0, ((True,),))
    assert check_axioms(t, range(t.size)) == []


def reference_table_axioms(t):
    """The table-only axiom check the general one replaced: it reads the
    combine table and the order matrix directly."""
    n, z = t.size, t.zero_index
    tab, order = t.table, t.order

    def sim(a, b):
        return order[a][b] and order[b][a]

    out = []
    for a in range(n):
        if not order[a][a]:
            out.append(("reflexivity", (a,), f"{a} not >= itself"))
    for a in range(n):
        for b in range(n):
            if not sim(tab[a][b], tab[b][a]):
                out.append(("commutativity", (a, b),
                            f"{a}+{b} = {tab[a][b]} != {tab[b][a]} = {b}+{a}"))
    for a in range(n):
        if not sim(tab[a][z], a):
            out.append(("unit", (a,), f"{a}+0 = {tab[a][z]} not equivalent to {a}"))
    for a in range(n):
        for b in range(n):
            if order[a][b]:
                for c in range(n):
                    if order[b][c] and not order[a][c]:
                        out.append(("transitivity", (a, b, c),
                                    f"{a}>={b} and {b}>={c} but not {a}>={c}"))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if not sim(tab[tab[a][b]][c], tab[a][tab[b][c]]):
                    out.append(("associativity", (a, b, c),
                                f"({a}+{b})+{c} not equivalent to {a}+({b}+{c})"))
    for a in range(n):
        for b in range(n):
            if not order[a][b]:
                continue
            for c in range(n):
                for d in range(n):
                    if order[c][d] and not order[tab[a][c]][tab[b][d]]:
                        out.append(("compatibility", (a, b, c, d),
                                    f"{a}>={b}, {c}>={d} but not {a}+{c} >= {b}+{d}"))
    return out


def broken_tables(rng, count):
    """Random combine tables and random, mostly unclosed orders, sizes 1-5."""
    for _ in range(count):
        n = rng.randint(1, 5)
        table = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
        density = rng.random()
        order = tuple(tuple(a == b and rng.random() < 0.9 or rng.random() < density
                            for b in range(n)) for a in range(n))
        yield FiniteTheoryTable(n, table, rng.randrange(n), order)


def test_axiom_check_matches_the_table_reference():
    laws = set()
    for t in broken_tables(Random(12), 300):
        got = [(v.law, v.elements, v.detail) for v in check_axioms(t, range(t.size))]
        assert got == reference_table_axioms(t), t
        laws.update(law for law, _, _ in got)
    assert laws == {"reflexivity", "commutativity", "unit", "transitivity",
                    "associativity", "compatibility"}


@dataclass(frozen=True)
class WordTheory(TheoryOracle):
    """Words under concatenation, a non-canonical combine: ab and ba are
    different terms.  Equal words convert; distinct words answer Unknown,
    or Refuted when `decided`."""

    decided: bool = False

    def combine(self, a, b):
        return a + b

    def zero(self):
        return ""

    def geq(self, a, b):
        if a == b:
            return Decision.proven(("same", a))
        return Decision.refuted(("differ", a, b)) if self.decided else Decision.unknown(1)

    def enumerate_up_to(self, bound):
        return ["", "a", "b"]

    def format_term(self, a):
        return f"<{a}>"


def test_only_definite_answers_are_violations():
    assert check_axioms(WordTheory(), ["", "a", "b"]) == []
    violations = check_axioms(WordTheory(decided=True), ["", "a", "b"])
    assert {v.law for v in violations} == {"commutativity"}
    assert violations[0] == Violation("commutativity", ("a", "b"),
                                      "<a>+<b> = <ab> != <ba> = <b>+<a>")


def test_memo_answers_with_the_theory_s_own_methods(food):
    memo = QueryMemo.of(food)
    assert not isinstance(memo, TheoryOracle) and QueryMemo.of(memo) is memo
    assert memo.format_term((1, 2)) == "(1,2)"
    assert memo.decompositions((1, 0)) == [((0, 0), (1, 0)), ((1, 0), (0, 0))]
    assert (memo.combine((1, 0), (0, 1)), memo.zero()) == ((1, 1), (0, 0))
    assert memo.enumerate_up_to(1) == food.enumerate_up_to(1)
    with pytest.raises(AttributeError):
        memo.validate_term  # only the five theory methods are bound


def test_malformed_table_rejected():
    with pytest.raises(InputError):
        FiniteTheoryTable(2, ((0, 1),), 0, ((True, False), (False, True)))
    with pytest.raises(InputError):
        FiniteTheoryTable(2, ((0, 5), (1, 0)), 0, ((True, False), (False, True)))


# equivalent / replicate

def test_equivalent_food_examples(food):
    memo = QueryMemo(food)
    assert memo.equivalent((1, 2), (1, 2)) is Verdict.PROVEN
    assert memo.equivalent((2, 0), (0, 2)) is Verdict.REFUTED


def test_equivalent_unknown_propagates():
    t = MultisetTheory(("a", "b"), (MorphismGenerator("r", ms_make(["a"]), ms_make(["b"])),),
                       bound=2)
    # forward is provable, backward exhausts the bound
    assert t.geq(ms_make(["b"]), ms_make(["a"])).bound == 2
    assert QueryMemo(t).equivalent(ms_make(["a"]), ms_make(["b"])) is Verdict.UNKNOWN


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
    assert QueryMemo(food).equivalent(whole, parts) is Verdict.PROVEN


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
    t = MultisetTheory(*chemistry(), bound=4)
    d = t.geq(ms_make(["NaOH", "HCl"]), ms_make(["NaCl", "H2O"]))
    assert d.is_proven
    assert d.witness == ("neutralize",)


def test_reflexive_via_empty_circuit():
    t = MultisetTheory(*chemistry(), bound=4)
    a = ms_make(["NaCl", "NaOH"])
    d = t.geq(a, a)
    assert d.is_proven and d.witness == ()


def test_reverse_reaction_unknown_at_bound():
    t = MultisetTheory(*chemistry(), bound=4)
    d = t.geq(ms_make(["NaCl", "H2O"]), ms_make(["NaOH", "HCl"]))
    assert d.is_unknown and d.bound == 4


def test_decategorified_oracle_satisfies_axioms():
    t = MultisetTheory(*chemistry(), bound=3)
    terms = [m for m in t.enumerate_up_to(2) if len(m) <= 2]
    assert check_axioms(t, terms) == []


def test_oracle_axiom_check_on_vector_theories(food, proficiency):
    sample = [(0, 0), (1, 0), (0, 1), (2, 1)]
    assert check_axioms(food, sample) == []
    assert check_axioms(proficiency, sample) == []
