import itertools
from collections import Counter
from pathlib import Path
from random import Random

import resconv.cli
from resconv.analysis import (_property, _sum_table, check_catalysis_free, check_non_interacting,
                              check_quality_like, check_quantity_like, check_waste_free,
                              cross_check_theorems, find_catalyst, random_theory_table)
from resconv.cli import run
from resconv.core import (Decision, FiniteTheoryTable, QueryMemo, TheoryOracle, Verdict,
                          check_axioms)
from resconv.instances import (EntanglementSpectrumTheory, RandomnessTheory, VectorTheory,
                               enumerate_prob_vectors)
from resconv.jsonio import load_theory, read_json
from resconv.presentation import MorphismGenerator, MultisetTheory, ms_make

DEMO = Path(__file__).resolve().parent.parent / "demo"
GOLDEN = Path(__file__).resolve().parent / "golden"


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
    assert QueryMemo(proficiency).equivalent(proficiency.combine(a1, a2),
                                             proficiency.combine(b1, b2)) is Verdict.PROVEN
    assert proficiency.geq(a1, b1).is_proven
    assert proficiency.geq(b2, a2).is_refuted


def test_food_is_not_quality_like(food):
    r = check_quality_like(food, box(food, 2))
    assert r.decision.is_refuted
    a = r.decision.witness[1]
    assert QueryMemo(food).equivalent(food.combine(a, a), a) is Verdict.REFUTED


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
    assert check_axioms(t, range(t.size)) == []
    r = check_non_interacting(t, list(range(3)))
    assert r.decision.is_refuted
    a, b1, b2 = r.decision.witness[1:]
    assert t.geq(a, t.combine(b1, b2)).is_proven
    for a1, a2 in t.decompositions(a):
        assert not (t.geq(a1, b1).is_proven and t.geq(a2, b2).is_proven)


def count_calls(monkeypatch, cls, name):
    """Count, per pair of terms, the calls that reach `cls.<name>`."""
    asked = Counter()
    method = getattr(cls, name)

    def counted(self, a, b):
        asked[a, b] += 1
        return method(self, a, b)

    monkeypatch.setattr(cls, name, counted)
    return asked


def test_non_interacting_lists_the_splits_of_each_term_once(monkeypatch):
    # A reaction network has no decompositions, so the splits of a come
    # from a sample-squared equivalence sweep, at most once per a; with
    # each pair asked once the theory answers at most 10^3 questions.
    t = load_theory(read_json(DEMO / "haber.json"), bound=6)
    asked = count_calls(monkeypatch, type(t), "geq")
    report = check_non_interacting(t, box(t, 2), 6)
    assert sum(asked.values()) <= 1000
    assert str(report) == ("non-interacting: Unknown (sample of 10) "
                           "[unrefuted on sample (2 inconclusive sub-queries)]")


def test_each_cross_check_run_asks_the_theory_each_pair_once(monkeypatch, capsys):
    asked = count_calls(monkeypatch, FiniteTheoryTable, "geq")
    most = []

    def counted_run(*args):
        asked.clear()
        reports = cross_check_theorems(*args)
        most.append(max(asked.values()))
        return reports

    monkeypatch.setattr(resconv.cli, "cross_check_theorems", counted_run)
    assert run(["properties", "--random-tables", "50", "--size", "5", "--seed", "7",
                "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "properties-random.stdout").read_text()
    assert most == [1] * 50


def test_a_properties_run_asks_the_theory_each_pair_once(monkeypatch, capsys):
    asked = count_calls(monkeypatch, VectorTheory, "geq")
    assert run(["properties", str(DEMO / "prof.json"), "--sample-box", "3", "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "properties-prof.stdout").read_text()
    assert max(asked.values()) == 1


def test_check_axioms_and_hasse_ask_the_theory_each_pair_once(monkeypatch, capsys):
    asked = count_calls(monkeypatch, FiniteTheoryTable, "geq")
    assert run(["check-axioms", str(DEMO / "table.json"), "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "check-axioms.stdout").read_text()
    assert max(asked.values()) == 1
    asked = count_calls(monkeypatch, VectorTheory, "geq")
    assert run(["hasse", str(DEMO / "prof.json"), "--box", "2"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "hasse-prof.prof.dot").read_text()
    assert max(asked.values()) == 1


def quadruple_quantity_like(t, sample, bound=0):
    """Reference: the quantity-like check that combines both pairs of every
    sample quadruple afresh."""
    t = QueryMemo.of(t)

    def outcomes():
        for a1, a2, b1, b2 in itertools.product(sample, repeat=4):
            eq = t.equivalent(t.combine(a1, a2), t.combine(b1, b2))
            if eq is Verdict.UNKNOWN:
                yield Verdict.UNKNOWN
            if eq is not Verdict.PROVEN:
                continue
            d = t.geq(a1, b1)
            if d is Verdict.UNKNOWN:
                yield Verdict.UNKNOWN
            if d is not Verdict.PROVEN:
                continue
            back = t.geq(b2, a2)
            if back is Verdict.REFUTED:
                yield Decision.refuted(("quadruple", a1, a2, b1, b2))
            if back is Verdict.UNKNOWN:
                yield Verdict.UNKNOWN
    return _property("quantity-like", t, sample, bound, outcomes())


def triple_non_interacting(t, sample, bound=0):
    """Reference: the non-interacting check that combines every top pair
    afresh and sweeps the sample squared for the splits of a term."""
    t = QueryMemo.of(t)

    def outcomes():
        for a in sample:
            decomps = None
            for b1, b2 in itertools.product(sample, repeat=2):
                top = t.geq(a, t.combine(b1, b2))
                if top is Verdict.UNKNOWN:
                    yield Verdict.UNKNOWN
                if top is not Verdict.PROVEN:
                    continue
                if decomps is None:
                    decomps = t.decompositions(a)
                    complete = decomps is not None
                    if decomps is None:
                        decomps = [(x, y) for x in sample for y in sample
                                   if t.equivalent(t.combine(x, y), a) is Verdict.PROVEN]
                saw_unknown = False
                for a1, a2 in decomps:
                    d1 = t.geq(a1, b1)
                    d2 = t.geq(a2, b2)
                    if d1 is Verdict.PROVEN and d2 is Verdict.PROVEN:
                        break
                    saw_unknown = saw_unknown or Verdict.UNKNOWN in (d1, d2)
                else:
                    yield (Decision.refuted(("no-split", a, b1, b2))
                           if complete and not saw_unknown else Verdict.UNKNOWN)
    return _property("non-interacting", t, sample, bound, outcomes())


def triple_catalysis_free(t, sample, bound=0):
    """Reference: the catalysis-free check that combines both sides of
    every lifted pair afresh."""
    t = QueryMemo.of(t)

    def outcomes():
        for a, b in itertools.product(sample, repeat=2):
            base = t.geq(a, b)
            if base is Verdict.UNKNOWN:
                yield Verdict.UNKNOWN
            if base is not Verdict.REFUTED:
                continue
            for c in sample:
                lifted = t.geq(t.combine(a, c), t.combine(b, c))
                if lifted is Verdict.PROVEN:
                    yield Decision.refuted(("catalyst-triple", a, b, c))
                if lifted is Verdict.UNKNOWN:
                    yield Verdict.UNKNOWN
    return _property("catalysis-free", t, sample, bound, outcomes())


def reference_cases(food, proficiency):
    """Theories with samples for the reference comparisons: random theory
    tables on their carriers, random tables that break the axioms on
    random sub-samples, boxes of the demo theories in two orders, and
    samples of `LiftedUnknown`, `SplitUnknown`, `SPANNING` and random
    `UndecidedTable`s, whose undecided questions reach the inconclusive
    branches."""
    rng = Random(31)
    cases = []
    for _ in range(60):
        t = random_theory_table(rng, rng.randint(1, 6))
        cases.append((t, list(range(t.size))))
    for _ in range(60):
        n = rng.randint(1, 5)
        t = FiniteTheoryTable(n, tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)),
                              0, tuple(tuple(rng.random() < 0.5 for _ in range(n))
                                       for _ in range(n)))
        cases.append((t, rng.sample(range(n), rng.randint(1, n))))
    haber = load_theory(read_json(DEMO / "haber.json"), bound=6)
    for t, size in ((food, 2), (food, 3), (proficiency, 1), (proficiency, 2), (haber, 2)):
        sample = box(t, size)
        cases += [(t, sample), (t, rng.sample(sample, len(sample)))]
    for sample in ([], [0, 1], [1, 0, 2], [0, 1, 2, 3], [3, 0, 2, 1, 4]):
        cases.append((LiftedUnknown(), sample))
    for sample in ([1, 3], [3, 2, 1, 0]):
        cases.append((SplitUnknown(), sample))
    cases.append((SPANNING, SPANNING.enumerate_up_to(2)))
    for _ in range(40):
        n = rng.randint(2, 4)
        cases.append((UndecidedTable(
            tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)),
            tuple(tuple(rng.choice(list(Verdict)) for _ in range(n)) for _ in range(n))),
            list(range(n))))
    return cases


def assert_matches_reference(check, reference, cases):
    """Each case's report equals the reference loop's, and the cases give
    all three verdicts and an Unknown with inconclusive sub-queries."""
    verdicts = Counter()
    for t, sample in cases:
        report = check(t, sample, 6)
        assert report == reference(t, sample, 6), (t, sample)
        verdicts[report.decision.verdict] += 1
        verdicts["inconclusive"] += "inconclusive" in (report.decision.note or "")
    assert all(verdicts[v] for v in Verdict)
    assert verdicts["inconclusive"]


def test_quantity_like_matches_the_quadruple_loop(food, proficiency):
    assert_matches_reference(check_quantity_like, quadruple_quantity_like,
                             reference_cases(food, proficiency))


def test_non_interacting_matches_the_reference_loop(food, proficiency):
    assert_matches_reference(check_non_interacting, triple_non_interacting,
                             reference_cases(food, proficiency))


def test_catalysis_free_matches_the_reference_loop(food, proficiency):
    assert_matches_reference(check_catalysis_free, triple_catalysis_free,
                             reference_cases(food, proficiency))


def test_checks_combine_each_sample_pair_once_and_compare_distinct_sums(monkeypatch):
    # Size-6 carriers: at most 6^2 = 36 combines per check, and in
    # quantity-like at most one equivalence question per unordered pair of
    # the D distinct sums.
    rng = Random(6)
    for _ in range(10):
        t = random_theory_table(rng, 6)
        carrier = list(range(t.size))
        distinct = len({s for row in t.table for s in row})
        for check in (check_quantity_like, check_non_interacting, check_catalysis_free):
            combined = count_calls(monkeypatch, FiniteTheoryTable, "combine")
            compared = count_calls(monkeypatch, QueryMemo, "equivalent")
            check(t, carrier)
            monkeypatch.undo()
            assert sum(combined.values()) <= len(carrier) ** 2, check.__name__
            if check is check_quantity_like:
                assert sum(compared.values()) <= distinct * (distinct + 1) // 2


def scan_non_interacting(t, sample, bound=0):
    """Reference for the questions asked: the non-interacting check that
    scans each triple's splits from the first to the first that fits."""
    t = QueryMemo.of(t)

    def outcomes():
        pairs = list(itertools.product(sample, repeat=2))
        _, where = _sum_table(t, sample)
        for a in sample:
            onto = []
            for s, ks in where.items():
                top = t.geq(a, s)
                if top is Verdict.UNKNOWN:
                    yield from itertools.repeat(Verdict.UNKNOWN, len(ks))
                if top is Verdict.PROVEN:
                    onto += ks
            if not onto:
                continue
            decomps = t.decompositions(a)
            complete = decomps is not None
            if decomps is None:
                decomps = [pairs[k] for k in sorted(
                    k for s, ks in where.items()
                    if t.equivalent(s, a) is Verdict.PROVEN for k in ks)]
            for k in sorted(onto):
                b1, b2 = pairs[k]
                saw_unknown = False
                for a1, a2 in decomps:
                    d1 = t.geq(a1, b1)
                    d2 = t.geq(a2, b2)
                    if d1 is Verdict.PROVEN and d2 is Verdict.PROVEN:
                        break
                    saw_unknown = saw_unknown or Verdict.UNKNOWN in (d1, d2)
                else:
                    yield (Decision.refuted(("no-split", a, b1, b2))
                           if complete and not saw_unknown else Verdict.UNKNOWN)
    return _property("non-interacting", t, sample, bound, outcomes())


def scan_quantity_like(t, sample, bound=0):
    """Reference for the questions asked: the quantity-like check that
    compares distinct sums once, asks a1 -> b1 once per run of equal b1
    and scans the run's b2 -> a2 up to the first refuted."""
    t = QueryMemo.of(t)

    def outcomes():
        n = len(sample)
        sums, where = _sum_table(t, sample)
        verdicts = {}
        rows = {}
        for k, a in enumerate(sums):
            row = rows.get(a)
            if row is None:
                unknown, partners = 0, []
                for b, ks in where.items():
                    eq = verdicts.get((b, a))
                    if eq is None:
                        eq = verdicts[a, b] = t.equivalent(a, b)
                    if eq is Verdict.UNKNOWN:
                        unknown += len(ks)
                    if eq is Verdict.PROVEN:
                        partners += ks
                runs = [(b1, [sample[q % n] for q in run])
                        for b1, run in itertools.groupby(sorted(partners), lambda q: q // n)]
                row = rows[a] = unknown, runs
            unknown, runs = row
            yield from itertools.repeat(Verdict.UNKNOWN, unknown)
            i, j = divmod(k, n)
            a1, a2 = sample[i], sample[j]
            for b1, b2s in runs:
                d = t.geq(a1, sample[b1])
                if d is Verdict.UNKNOWN:
                    yield from itertools.repeat(Verdict.UNKNOWN, len(b2s))
                if d is not Verdict.PROVEN:
                    continue
                for b2 in b2s:
                    back = t.geq(b2, a2)
                    if back is Verdict.REFUTED:
                        yield Decision.refuted(("quadruple", a1, a2, sample[b1], b2))
                        break
                    if back is Verdict.UNKNOWN:
                        yield Verdict.UNKNOWN
    return _property("quantity-like", t, sample, bound, outcomes())


class Recorded(TheoryOracle):
    """Answers as `theory` and records every pair its `geq` is asked."""

    def __init__(self, theory):
        self.theory = theory
        self.asked = set()

    def combine(self, a, b):
        return self.theory.combine(a, b)

    def zero(self):
        return self.theory.zero()

    def geq(self, a, b):
        self.asked.add((a, b))
        return self.theory.geq(a, b)

    def enumerate_up_to(self, bound):
        return self.theory.enumerate_up_to(bound)

    def decompositions(self, a):
        return self.theory.decompositions(a)


def test_checks_ask_the_theory_the_questions_of_the_scans(food, proficiency):
    # Deciding from kept verdicts must not ask the theory anything the
    # scans would not: asking every split, say, asks more.
    for check, reference in ((check_non_interacting, scan_non_interacting),
                             (check_quantity_like, scan_quantity_like)):
        for t, sample in reference_cases(food, proficiency):
            ours, theirs = Recorded(t), Recorded(t)
            assert check(ours, sample, 6) == reference(theirs, sample, 6), (t, sample)
            assert ours.asked == theirs.asked, (check.__name__, t, sample)


def mutual(forward, backward):
    """Mutual convertibility from the two direct verdicts."""
    if Verdict.REFUTED in (forward, backward):
        return Verdict.REFUTED
    if forward is backward is Verdict.PROVEN:
        return Verdict.PROVEN
    return Verdict.UNKNOWN


def test_the_memo_answers_the_theory_s_verdicts(food, proficiency):
    haber = load_theory(read_json(DEMO / "haber.json"), bound=6)
    vectors = enumerate_prob_vectors(3, 3)
    cases = [(food, box(food, 2)), (proficiency, box(proficiency, 2)), (haber, box(haber, 2)),
             (RandomnessTheory(), vectors), (EntanglementSpectrumTheory(), vectors),
             (random_theory_table(Random(5), 5), list(range(5))),
             (LiftedUnknown(), [0, 1, 2, 3]), (SplitUnknown(), [0, 1, 2, 3])]
    seen = Counter()
    for t, sample in cases:
        memo = QueryMemo(t)
        for a, b in itertools.product(sample, repeat=2):
            forward, backward = t.geq(a, b).verdict, t.geq(b, a).verdict
            assert memo.geq(a, b) is forward
            recorded = Recorded(t)
            assert QueryMemo(recorded).equivalent(a, b) is mutual(forward, backward)
            assert recorded.asked == ({(a, b)} if forward is Verdict.REFUTED
                                      else {(a, b), (b, a)})
            seen[memo.equivalent(a, b)] += 1
    assert all(seen[v] for v in Verdict)


class LiftedUnknown(TheoryOracle):
    """Integers under addition: 0 and 1 are incomparable, every other pair
    of distinct terms is undecided.  No shipped theory refutes a -> b yet
    leaves a+c -> b+c undecided, since a conserved functional that refutes
    the one refutes the other."""

    def combine(self, a, b):
        return a + b

    def zero(self):
        return 0

    def geq(self, a, b):
        if a == b:
            return Decision.proven(("equal", a))
        if max(a, b) < 2:
            return Decision.refuted(("incomparable", a, b))
        return Decision.unknown(1)

    def enumerate_up_to(self, bound):
        return list(range(bound + 1))


class SplitUnknown(TheoryOracle):
    """Naturals under addition with every split listed: a -> b is Proven
    when a = b or when a is odd and b = a - 1, Refuted when a < b, and
    undecided otherwise.  So 3 -> 1+1 holds, yet each split of 3 leaves
    a part's conversion undecided."""

    def combine(self, a, b):
        return a + b

    def zero(self):
        return 0

    def geq(self, a, b):
        if a == b or (a % 2 and b == a - 1):
            return Decision.proven(("step", a, b))
        if a < b:
            return Decision.refuted(("smaller", a, b))
        return Decision.unknown(1)

    def enumerate_up_to(self, bound):
        return list(range(bound + 1))

    def decompositions(self, a):
        return [(x, a - x) for x in range(a + 1)]


class UndecidedTable(TheoryOracle):
    """A combine table on 0..n-1 with a three-valued order, and every pair
    combining to a listed as a split of a: one split's part may be
    undecided while the other part's questions are all decided."""

    def __init__(self, table, order):
        self.table, self.order = table, order

    def combine(self, a, b):
        return self.table[a][b]

    def zero(self):
        return 0

    def geq(self, a, b):
        verdict = self.order[a][b]
        if verdict is Verdict.UNKNOWN:
            return Decision.unknown(1)
        return Decision(verdict, witness=("entry", a, b))

    def enumerate_up_to(self, bound):
        return list(range(len(self.table)))

    def decompositions(self, a):
        return [(x, y) for x, row in enumerate(self.table) for y, c in enumerate(row) if c == a]


def test_catalyst_search_counts_inconclusive_candidates():
    d = find_catalyst(LiftedUnknown(), 0, 1, [0, 2, 3], bound=1)
    assert d.is_unknown and d.bound == 1
    assert d.note == "2 candidate(s) inconclusive"


def test_catalysis_free_unknown_when_only_a_lifted_query_is():
    r = check_catalysis_free(LiftedUnknown(), [0, 1], bound=1)
    assert r.decision.is_unknown
    assert r.decision.note == "unrefuted on sample (2 inconclusive sub-queries)"


def test_waste_free_unknown_when_a_disposal_is_undecided():
    # B disposes of itself in one step, A needs two: past bound 1
    t = MultisetTheory(("A", "B"),
                       (MorphismGenerator("ab", ms_make(["A"]), ms_make(["B"])),
                        MorphismGenerator("b0", ms_make(["B"]), ms_make([]))),
                       bound=1)
    r = check_waste_free(t, box(t, 1), bound=1)
    assert str(r) == ("waste-free: Unknown (sample of 3) "
                      "[unrefuted on sample (1 inconclusive sub-queries)]")


# The rule deltas span both species, so conservation refutes nothing and
# the one-step search leaves many questions undecided.
SPANNING = MultisetTheory(("a", "b"),
                          (MorphismGenerator("r", ms_make(["a", "a"]), ms_make(["b"])),
                           MorphismGenerator("s", ms_make(["b"]), ms_make(["b", "b"]))),
                          bound=1)


def test_unknown_subanswers_never_prove_or_refute():
    t = SPANNING
    sample = t.enumerate_up_to(2)
    for report in (check_quality_like(t, sample),
                   check_quantity_like(t, sample),
                   check_catalysis_free(t, sample)):
        assert report.decision.is_unknown
        assert "inconclusive" in report.decision.note


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


# Refuting branches, reached only on tables that violate the axioms: the
# theorems assume a theory, so a Refuted line flags an implementation or
# input fault.

T, F = True, False
NO_CATALYSIS_BREAKER = FiniteTheoryTable(2, ((1, 0), (1, 0)), 0, ((T, F), (F, T)))
DOUBLING_BREAKER = FiniteTheoryTable(3, ((2, 2, 1), (0, 1, 2), (2, 1, 2)), 0,
                                     ((T, F, T), (T, T, F), (T, F, T)))


def theorem_report(t, name):
    return next(r for r in cross_check_theorems(t, list(range(t.size))) if r.name == name)


def test_no_catalysis_criterion_refuted_on_a_non_theory():
    t = NO_CATALYSIS_BREAKER
    assert check_axioms(t, range(t.size)) != []
    r = theorem_report(t, "thm:no-catalysis-criterion")
    assert r.decision.is_refuted
    assert r.decision.witness == ("theorem-violation", ("catalyst-triple", 0, 1, 0))
    assert r.decision.note == "non-interacting and quantity-like yet a catalyst exists"


def test_cloning_is_creation_refuted_on_a_non_theory():
    r = theorem_report(NO_CATALYSIS_BREAKER, "prop:cloning-is-creation")
    assert r.decision.is_refuted
    assert r.decision.witness == ("theorem-violation", 0)
    assert r.decision.note == "cloning and creation from nothing disagree"


def test_doubling_irrelevant_refuted_on_a_non_theory():
    t = DOUBLING_BREAKER
    assert check_axioms(t, range(t.size)) != []
    r = theorem_report(t, "prop:doubling-irrelevant")
    assert r.decision.is_refuted
    assert r.decision.witness == ("theorem-violation", 1, 0)
    assert r.decision.note == "doubling changed convertibility in a quality-like theory"


def test_whole_covers_part_refuted_on_a_non_theory():
    t = FiniteTheoryTable(3, ((1, 2, 2), (2, 0, 1), (0, 2, 0)), 0,
                          ((T, F, F), (T, T, T), (T, F, T)))
    assert check_axioms(t, range(t.size)) != []
    r = check_waste_free(t, list(range(3)))
    assert r.decision.is_refuted
    assert r.decision.witness == ("whole-covers-part-fails", 1, 0)
    assert r.decision.note == "theorem violation: disposability held"


# random table generator

def test_random_tables_pass_axioms_and_are_deterministic():
    tables = [random_theory_table(Random(7), 5) for _ in range(3)]
    assert tables[0] == tables[1] == tables[2]
    rng = Random(123)
    seen = set()
    for _ in range(30):
        t = random_theory_table(rng, rng.randint(2, 6))
        assert check_axioms(t, range(t.size)) == []
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
        return QueryMemo(t).equivalent(t.combine(a1, a2), t.combine(b1, b2)) is Verdict.PROVEN \
            and t.geq(a1, b1).is_proven and t.geq(b2, a2).is_refuted
    if kind == "not-idempotent":
        (a,) = terms
        return QueryMemo(t).equivalent(t.combine(a, a), a) is Verdict.REFUTED
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
