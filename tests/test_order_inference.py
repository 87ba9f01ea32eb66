"""Asking only what the axioms leave open.

`core.order_cells` skips the order cells that transitivity decides on a
theory with `exact_order`, and `monotones.rate` walks a staircase there.
These tests pin the answers against the full scans they replace, and which
questions are asked: fewer on the exact kinds, all of them on a table that
may break the axioms and on a bounded search that answers Unknown."""

import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from resconv.analysis import PropertyReport, random_theory_table, sample_scope
from resconv.core import (Decision, FiniteTheoryTable, InputError, TheoryOracle, Verdict,
                          order_cells, order_matrix)
from resconv.hasse import hasse_classes, hasse_dot
from resconv.instances import (EntanglementSpectrumTheory, ProbVector, RandomnessTheory,
                               VectorTheory, shannon_entropy)
from resconv.monotones import (Monotone, RateResult, _geq_values, component_monotone,
                               entropy_monotone, rate, verify_monotone)
from resconv.presentation import MorphismGenerator, MultisetTheory, ms_make

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import gen as bench_gen  # noqa: E402

F = Fraction


class Recording(TheoryOracle):
    """A theory that records every `geq` question it is asked.  With
    `exact_order=False` it also hides the wrapped theory's promise, so the
    callers fall back to their full scans."""

    def __init__(self, theory: TheoryOracle, exact_order: bool | None = None):
        self.theory = theory
        self.exact_order = theory.exact_order if exact_order is None else exact_order
        self.asked: list[tuple] = []

    def geq(self, a, b):
        self.asked.append((a, b))
        return self.theory.geq(a, b)

    def combine(self, a, b):
        return self.theory.combine(a, b)

    def zero(self):
        return self.theory.zero()

    def enumerate_up_to(self, bound):
        return self.theory.enumerate_up_to(bound)

    def format_term(self, a):
        return self.theory.format_term(a)


def full_rows(t, terms):
    """Reference: every cell asked, row i as a bitset of the Proven j."""
    return [sum(1 << j for j, b in enumerate(terms) if t.geq(a, b).is_proven) for a in terms]


EXACT_SAMPLES = (
    [(f"vector{k}-{mode}", VectorTheory(k, mode), VectorTheory(k, mode).enumerate_up_to(3))
     for k in (1, 2, 3) for mode in ("additive", "supremal")]
    + [(f"{t.__class__.__name__}-box{box}", t, t.enumerate_up_to(box))
       for t in (RandomnessTheory(), EntanglementSpectrumTheory()) for box in (2, 3, 4)])


@pytest.mark.parametrize("name, theory, terms", EXACT_SAMPLES, ids=[s[0] for s in EXACT_SAMPLES])
def test_the_inferred_table_is_the_full_table(name, theory, terms):
    assert theory.exact_order
    recording = Recording(theory)
    assert order_matrix(recording, terms) == full_rows(theory, terms)
    n = len(terms)
    assert len(recording.asked) <= n * n
    assert len(set(recording.asked)) == len(recording.asked)  # no cell asked twice
    assert recording.asked[:n] == [(terms[0], b) for b in terms]  # row 0 in full


def test_fewer_questions_are_asked_on_randomness_box_3():
    t = RandomnessTheory()
    terms = t.enumerate_up_to(3)
    exact, full = Recording(t), Recording(t, exact_order=False)
    assert order_matrix(exact, terms) == order_matrix(full, terms)
    assert len(full.asked) == len(terms) ** 2
    assert len(exact.asked) < len(full.asked)
    # the questions come in row order, a subsequence of the full scan's
    position = {q: k for k, q in enumerate(full.asked)}
    assert [position[q] for q in exact.asked] == sorted(position[q] for q in exact.asked)


def intransitive_table():
    """0 >= 1 and 1 >= 2 but not 0 >= 2: no theory, but valid user data."""
    order = ((True, True, False), (False, True, True), (False, False, True))
    return FiniteTheoryTable(3, ((0, 1, 2), (1, 1, 2), (2, 2, 2)), 0, order)


def chain_network():
    """A -> B -> C, searched one step deep: A -> C is out of reach."""
    return MultisetTheory(("A", "B", "C"),
                          (MorphismGenerator("ab", ms_make(["A"]), ms_make(["B"])),
                           MorphismGenerator("bc", ms_make(["B"]), ms_make(["C"]))),
                          bound=1)


def test_a_table_that_breaks_transitivity_is_asked_every_cell():
    t = intransitive_table()
    assert not t.exact_order
    recording = Recording(t)
    cells = list(order_cells(recording, range(3)))
    assert recording.asked == [(a, b) for a in range(3) for b in range(3)]
    assert [v is Verdict.PROVEN for _, _, v in cells] == [x for row in t.order for x in row]
    assert order_matrix(t, range(3)) == [0b011, 0b110, 0b100]


def test_a_bounded_search_with_unknowns_is_asked_every_cell():
    t = chain_network()
    assert not t.exact_order
    terms = t.enumerate_up_to(2)
    recording = Recording(t)
    cells = list(order_cells(recording, terms))
    assert recording.asked == [(a, b) for a in terms for b in terms]
    assert [v for _, _, v in cells] == [t.geq(a, b).verdict for a in terms for b in terms]
    assert sum(v is Verdict.UNKNOWN for _, _, v in cells) == 28


def reference_verify_monotone(m, t, sample):
    """The row-order scan that asks every pair."""
    inconclusive = 0
    values = [m(a) for a in sample]
    for a, ma in zip(sample, values):
        for b, mb in zip(sample, values):
            d = t.geq(a, b)
            if d.is_unknown:
                inconclusive += 1
                continue
            if d.is_proven and not _geq_values(ma, mb):
                return PropertyReport(f"monotone:{m.name}",
                                      Decision.refuted(("order-violated", a, b, ma, mb)),
                                      sample_scope(t, sample))
    note = "unrefuted on sample"
    if inconclusive:
        note += f" ({inconclusive} inconclusive pairs)"
    return PropertyReport(f"monotone:{m.name}", Decision.unknown(0, note=note),
                          sample_scope(t, sample))


def seeded_valuation(seed):
    """A valuation with no order behind it, so most theories violate it
    somewhere, at a place that moves with the seed."""
    return Monotone(f"random:{seed}", lambda a: F(hash((seed, a)) % 7))


def monotones_for(t):
    if isinstance(t, VectorTheory):
        ms = [component_monotone(k, "general") for k in range(t.arity)]
        ms.append(Monotone("neg-sum", lambda v: -F(sum(v))))
    else:
        ms = [entropy_monotone(), Monotone("neg-entropy", lambda p: -shannon_entropy(p)),
              Monotone("length", lambda p: F(len(p)))]
    return ms + [seeded_valuation(s) for s in range(4)]


@pytest.mark.parametrize("name, theory, terms", EXACT_SAMPLES, ids=[s[0] for s in EXACT_SAMPLES])
def test_verify_monotone_matches_the_full_scan(name, theory, terms):
    refuted = 0
    for m in monotones_for(theory):
        got = verify_monotone(m, theory, terms)
        assert got == reference_verify_monotone(m, theory, terms)
        refuted += got.decision.is_refuted
    assert refuted  # the first violation is compared, not only the clean runs


def test_verify_monotone_on_tables_and_searches_matches_the_full_scan():
    t = chain_network()
    size = Monotone("size", lambda a: F(sum(n for _, n in a)))
    assert verify_monotone(size, t, t.enumerate_up_to(2)) == \
        reference_verify_monotone(size, t, t.enumerate_up_to(2))
    for seed in range(10):
        table = random_theory_table(Random(seed), 6)
        for m in [seeded_valuation(s) for s in range(3)]:
            assert verify_monotone(m, table, range(6)) == \
                reference_verify_monotone(m, table, range(6))


@pytest.mark.parametrize("sample", [
    [(0, 0), (1, 0), (1,), (0, 1)],
    [(1,), (0, 0)],
    [(0, 0), (2, 1), (1, -1)],
    [(1, 1), (0, 0), "x"],
])
def test_an_invalid_term_raises_the_same_error(sample):
    t = VectorTheory(2, "additive")
    zero = Monotone("zero", lambda a: F(0))
    with pytest.raises(InputError) as expected:
        reference_verify_monotone(zero, t, sample)
    with pytest.raises(InputError) as got:
        verify_monotone(zero, t, sample)
    assert str(got.value) == str(expected.value)
    with pytest.raises(InputError) as got:
        order_matrix(t, sample)
    assert str(got.value) == str(expected.value)


def test_axiom_abiding_tables_may_promise_an_exact_order():
    """`random_theory_table` passes `check_axioms`, so its order is a
    compatible preorder: with the promise made, the inferred table and the
    staircase give the full scans' answers."""
    for seed in range(30):
        rng = Random(seed)
        t = random_theory_table(rng, rng.randint(2, 9))
        terms = list(range(t.size))
        rng.shuffle(terms)
        exact = Recording(t, exact_order=True)
        assert order_matrix(exact, terms) == full_rows(t, terms)
        for a in terms[:3]:
            for b in terms[:3]:
                got = rate(Recording(t, exact_order=True), a, b, 5)
                assert got == rate(t, a, b, 5)


# -- the staircase in rate -----------------------------------------------------

def reference_rate(t, a, b, caps):
    """Best ratio, witness and inconclusive count of the scan over every (n, m)."""
    best, witness, inconclusive = None, None, 0
    copies_a = [a]
    copies_b = [b]
    for _ in range(caps - 1):
        copies_a.append(t.combine(copies_a[-1], a))
        copies_b.append(t.combine(copies_b[-1], b))
    for n in range(1, caps + 1):
        for m in range(1, caps + 1):
            d = t.geq(copies_a[n - 1], copies_b[m - 1])
            if d.is_unknown:
                inconclusive += 1
            elif d.is_proven and (best is None or F(m, n) > best):
                best, witness = F(m, n), (n, m)
    return (best if best is not None else F(0)), witness, inconclusive


def check_staircase(t, a, b, caps, monotones=()):
    stair, full = Recording(t), Recording(t, exact_order=False)
    got = rate(stair, a, b, caps, monotones)
    assert got == rate(full, a, b, caps, monotones)  # every field
    assert (got.best, got.witness, got.inconclusive) == reference_rate(t, a, b, caps)
    assert len(full.asked) == caps * caps
    assert len(stair.asked) <= 2 * caps + 2
    return got


def test_the_staircase_matches_the_full_scan_on_the_benchmark_pairs():
    pairs = {k: ProbVector.of(*v) for k, v in bench_gen.RATE_PAIRS.items()}
    for t in (RandomnessTheory(), EntanglementSpectrumTheory()):
        for sa, a in pairs.items():
            for sb, b in pairs.items():
                for caps in (1, 2, 4):
                    check_staircase(t, a, b, caps, [entropy_monotone()])
    for sa, sb in bench_gen.RATE_CAPS6:
        check_staircase(RandomnessTheory(), pairs[sa], pairs[sb], 6, [entropy_monotone()])


def random_distribution(rng):
    weights = [rng.randint(0, 4) for _ in range(rng.randint(1, 3))]
    weights[0] += 1
    return ProbVector([F(w, sum(weights)) for w in weights])


def test_the_staircase_matches_the_full_scan_on_seeded_pairs():
    rng = Random(20)
    witnessed = 0
    for _ in range(40):
        k = rng.randint(1, 3)
        vectors = [VectorTheory(k, "additive"), VectorTheory(k, "supremal")]
        for t in vectors:
            a = tuple(rng.randint(0, 4) for _ in range(k))
            b = tuple(rng.randint(0, 4) for _ in range(k))
            monos = [component_monotone(j, "additive") for j in range(k)]
            witnessed += check_staircase(t, a, b, rng.randint(1, 7), monos).witness is not None
        a, b = random_distribution(rng), random_distribution(rng)
        for t in (RandomnessTheory(), EntanglementSpectrumTheory()):
            witnessed += check_staircase(t, a, b, rng.randint(1, 4),
                                         [entropy_monotone()]).witness is not None
    assert witnessed > 40


def test_the_staircase_asks_at_most_two_questions_a_row():
    u2 = ProbVector.uniform(2)
    stair = Recording(RandomnessTheory())
    assert rate(stair, u2, u2, 6) == RateResult(F(1), (1, 1), None, False, 6, 0)
    # a -> 0, b -> 0, then per row n: n copies -> n copies, -> n + 1 copies
    assert len(stair.asked) == 2 + 6 + 5


def test_rate_on_a_bounded_search_scans_every_cell():
    t = chain_network()
    a, b = ms_make(["A"]), ms_make(["C"])
    recording = Recording(t)
    got = rate(recording, a, b, 3)
    assert len(recording.asked) == 9
    assert (got.best, got.witness, got.inconclusive) == reference_rate(t, a, b, 3)
    assert got.inconclusive


# -- covers from bitset rows ---------------------------------------------------

def reference_hasse_classes(t, terms):
    """Classes and covers with the cubic loop over a boolean table."""
    elems = list(dict.fromkeys(terms))
    ge = [[t.geq(a, b).is_proven for b in elems] for a in elems]
    classes, reps = [], []
    for i in range(len(elems)):
        for c, r in enumerate(reps):
            if ge[i][r] and ge[r][i]:
                classes[c].append(elems[i])
                break
        else:
            classes.append([elems[i]])
            reps.append(i)
    m = len(classes)
    above = [[c1 != c2 and ge[r1][r2] for c2, r2 in enumerate(reps)]
             for c1, r1 in enumerate(reps)]
    edges = [(c1, c2) for c1 in range(m) for c2 in range(m) if above[c1][c2]
             and not any(above[c1][mid] and above[mid][c2] for mid in range(m))]
    return classes, edges


def test_covers_match_the_cubic_loop_on_random_tables():
    for seed in range(30):
        rng = Random(seed)
        t = random_theory_table(rng, rng.randint(2, 9))
        terms = list(range(t.size))
        rng.shuffle(terms)
        got = hasse_classes(t, terms)
        assert got == reference_hasse_classes(t, terms)
        assert hasse_dot(t, got) == hasse_dot(t, reference_hasse_classes(t, terms))
    t = intransitive_table()
    assert hasse_classes(t, range(3)) == reference_hasse_classes(t, range(3))


def swap_network():
    """A <-> B beside an inert C: every question is decided, by search or
    by conservation."""
    rules = (MorphismGenerator("ab", ms_make(["A"]), ms_make(["B"])),
             MorphismGenerator("ba", ms_make(["B"]), ms_make(["A"])))
    return MultisetTheory(("A", "B", "C"), rules, bound=6)


HASSE_SAMPLES = EXACT_SAMPLES + [("reaction", swap_network(), swap_network().enumerate_up_to(3))]


@pytest.mark.parametrize("name, theory, terms", HASSE_SAMPLES, ids=[s[0] for s in HASSE_SAMPLES])
def test_covers_match_the_cubic_loop_on_every_kind(name, theory, terms):
    got = hasse_classes(theory, terms)
    assert got == reference_hasse_classes(theory, terms)
    assert hasse_dot(theory, got) == hasse_dot(theory, reference_hasse_classes(theory, terms))

