from fractions import Fraction
from random import Random

import resconv.stoch as stoch
from resconv.linalg import feasible_nonneg_solution
from resconv.stoch import StochMap, finset, search_exact_simulation

F = Fraction


def reference_simplex(equations, rhs):
    """The phase-1 simplex over a `Fraction` tableau, as first written: the
    reference the fraction-free tableau must match.  Returns the solution
    (or None) and the number of ratio-test ties broken by the basis rule."""
    m = len(equations)
    if m == 0:
        return [], 0
    n = len(equations[0])
    tab = []
    for i in range(m):
        row = [F(x) for x in equations[i]]
        b = F(rhs[i])
        if b < 0:
            row = [-x for x in row]
            b = -b
        tab.append(row + [F(int(j == i)) for j in range(m)] + [b])
    basis = [n + i for i in range(m)]
    total = n + m
    cost = [F(0)] * (total + 1)
    for k in range(m):
        cost[n + k] = F(1)
    for i in range(m):
        cost = [x - y for x, y in zip(cost, tab[i])]
    ties = 0
    while True:
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][total] / a
                ties += ratio == best
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        f = cost[enter]
        cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter
    if cost[total] != 0:
        return None, ties
    x = [F(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][total]
        elif tab[i][total] != 0:
            return None, ties
    return x, ties


def seeded_lp(rng):
    """A small LP with rational entries: random right-hand sides (often
    infeasible, sometimes negative), or b = A x0 for a sparse x0 >= 0 with
    repeated rows and zeros (feasible and degenerate, with ratio-test ties)."""
    m, n = rng.randint(1, 6), rng.randint(1, 12)

    def entry():
        return F(rng.randint(-3, 4), rng.randint(1, 4)) if rng.random() < 0.7 else F(0)

    a = [[entry() for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        b = [entry() for _ in range(m)]
    else:
        x0 = [F(rng.randint(0, 3), rng.randint(1, 3)) if rng.random() < 0.4 else F(0)
              for _ in range(n)]
        if m > 1 and rng.random() < 0.5:
            a[rng.randrange(m)] = list(a[0])
        b = [sum((r[j] * x0[j] for j in range(n)), F(0)) for r in a]
        if rng.random() < 0.3:
            b = [-x for x in b]
            a = [[-x for x in r] for r in a]
    return a, b


def test_simplex_matches_the_fraction_tableau_on_seeded_lps():
    rng = Random(14)
    infeasible = negative_rhs = tied = 0
    for _ in range(1500):
        a, b = seeded_lp(rng)
        expected, ties = reference_simplex(a, b)
        assert feasible_nonneg_solution(a, b) == expected, (a, b)
        infeasible += expected is None
        negative_rhs += any(x < 0 for x in b)
        tied += ties > 0
    assert (infeasible, negative_rhs, tied) == (366, 820, 606)


def test_later_copies_of_columns_stay_at_zero():
    rng = Random(15)
    feasible = copies_of_support = 0
    for _ in range(1000):
        a, b = seeded_lp(rng)
        order = [(j, False) for j in range(len(a[0]))]  # (source column, is a copy)
        for _ in range(rng.randint(1, 4)):
            j = rng.randrange(len(a[0]))
            order.insert(rng.randint(order.index((j, False)) + 1, len(order)), (j, True))
        sol = feasible_nonneg_solution(a, b)
        with_copies = [[row[j] for j, _ in order] for row in a]
        expected = None if sol is None else [F(0) if copy else sol[j] for j, copy in order]
        assert feasible_nonneg_solution(with_copies, b) == expected, (a, b, order)
        feasible += sol is not None
        copies_of_support += sol is not None and any(copy and sol[j] for j, copy in order)
    assert (feasible, copies_of_support) == (737, 299)


def channel(n, matrix):
    return StochMap(finset("a", n), finset("b", len(matrix)), tuple(map(tuple, matrix)))


def simulation_lps(monkeypatch, cases):
    """The mixture LPs that `search_exact_simulation` hands the simplex."""
    lps = []
    real = stoch.feasible_nonneg_solution

    def recording(equations, rhs):
        lps.append((equations, rhs))
        return real(equations, rhs)

    monkeypatch.setattr(stoch, "feasible_nonneg_solution", recording)
    for p, target in cases:
        search_exact_simulation(p, target)
    return lps


def test_simplex_matches_the_fraction_tableau_on_simulation_lps(monkeypatch):
    rng = Random(5)
    cases = []
    for n in (3, 4):
        identity = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        for _ in range(4):
            w = [rng.randint(1, 4) for _ in range(4)]
            noisy = [[F(w[0], w[0] + w[1]), F(w[2], w[2] + w[3])],
                     [F(w[1], w[0] + w[1]), F(w[3], w[2] + w[3])]]
            cases.append((channel(n, identity), channel(2, noisy)))
    for w in (1, 3):
        noisy = [[F(4 - w, 4), F(w, 4)], [F(w, 4), F(4 - w, 4)]]
        cases.append((channel(2, noisy), channel(2, [[F(1), F(0)], [F(0), F(1)]])))
    lps = simulation_lps(monkeypatch, cases)
    assert len(lps) == len(cases)
    results = [reference_simplex(a, b)[0] for a, b in lps]
    assert [feasible_nonneg_solution(a, b) for a, b in lps] == results
    assert [r is None for r in results] == [False] * 8 + [True] * 2


def test_simplex_edge_cases():
    assert feasible_nonneg_solution([], []) == []
    assert feasible_nonneg_solution([[F(1), F(1)]], [F(-1)]) is None
    assert feasible_nonneg_solution([[F(-1), F(0)]], [F(-1, 2)]) == [F(1, 2), F(0)]
    assert feasible_nonneg_solution([[F(0), F(0)]], [F(0)]) == [F(0), F(0)]
    assert feasible_nonneg_solution([[F(0)]], [F(1)]) is None

