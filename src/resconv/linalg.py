"""Exact rational linear algebra used by the decision procedures.

Rational inputs and results are `fractions.Fraction`s; inside, both
kernels compute fraction-free over Python integers (integer numerators
over one positive denominator per row), as Edmonds and Bareiss do for
elimination.  No floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

F0 = Fraction(0)


def complement_projector(vectors: Sequence[Sequence[int]],
                         dim: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Orthogonal projector onto the complement of span(vectors) in Q^dim.

    Returned as (N, d): integer numerators N over one denominator d > 0.
    Fraction-free Gram-Schmidt keeps every orthogonal basis vector u
    integral (each step scales by |u|^2 instead of dividing, then divides
    out the content), so P = I - sum u u^T / |u|^2 needs only integers.
    P is symmetric, and P x is the component of x orthogonal to the span:
    zero exactly when x lies in the span, and otherwise a functional w with
    w . v = 0 on the span and w . x = |w|^2 > 0.
    """
    basis: list[tuple[list[int], int]] = []
    for v in vectors:
        r = list(v)
        for u, uu in basis:
            c = sum(a * b for a, b in zip(r, u))
            if c:
                r = [uu * a - c * b for a, b in zip(r, u)]
        g = gcd(*r)
        if g:
            r = [a // g for a in r]
            basis.append((r, sum(a * a for a in r)))
    d = lcm(*(uu for _, uu in basis))
    rows = [[d if i == j else 0 for j in range(dim)] for i in range(dim)]
    for u, uu in basis:
        k = d // uu
        for i, ui in enumerate(u):
            if ui:
                row = rows[i]
                for j, uj in enumerate(u):
                    row[j] -= k * ui * uj
    g = gcd(d, *(x for row in rows for x in row))
    return tuple(tuple(x // g for x in row) for row in rows), d // g


def feasible_nonneg_solution(equations: Sequence[Sequence[Fraction]],
                             rhs: Sequence[Fraction]) -> list[Fraction] | None:
    """Solve A x = b, x >= 0 exactly, or return None when infeasible.

    Phase-1 simplex with Bland's rule (least index), which terminates on
    every rational input.  The returned solution is basic, so at most
    len(equations) entries are nonzero.  A column equal to an earlier one
    has that column's cost entry at every step, so it never enters the
    basis: inserting later copies of columns leaves the solution as it was,
    with 0 at every copy.

    The tableau is fraction-free (Edmonds 1967; Bareiss 1968).  Row i,
    scaled by the lcm L_i of its denominators, is [A_i | L_i e_i | b_i]
    in integers, with b_i made non-negative; its basic column's entry is
    the row's positive denominator, so the row read as rationals is the
    row of the textbook tableau.  A pivot replaces r_i by piv r_i - f r_l
    and divides out the row's gcd; the ratio test compares b_i / a_i by
    cross-multiplication.  The cost row is integers over one positive
    denominator.  Every sign and comparison is that of the rational
    tableau, so the pivots and the basic solution are the same.
    """
    m = len(equations)
    if m == 0:
        return []
    n = len(equations[0])
    total = n + m
    tab: list[list[int]] = []
    for i in range(m):
        row = [*equations[i], rhs[i]]
        den = lcm(*(x.denominator for x in row))
        nums = [x.numerator * (den // x.denominator) for x in row]
        if nums[-1] < 0:
            nums = [-x for x in nums]
        tab.append(nums[:n] + [den if j == i else 0 for j in range(m)] + nums[n:])
    basis = [n + i for i in range(m)]
    # Objective: minimize sum of artificials.  The raw cost row (1 on each
    # artificial column) less every row divided by its denominator.
    cden = lcm(*(tab[i][n + i] for i in range(m)))
    cost = [cden if n <= j < total else 0 for j in range(total + 1)]
    for i in range(m):
        k = cden // tab[i][n + i]
        cost = [c - k * x for c, x in zip(cost, tab[i])]

    while True:
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                here, best = tab[i][total] * tab[leave][enter], tab[leave][total] * a
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            # unreachable: the phase-1 objective is bounded below by 0
            raise RuntimeError("phase-1 simplex found no leaving row")
        prow = tab[leave]
        piv = prow[enter]
        for i in range(m):
            f = tab[i][enter]
            if i != leave and f:
                row = [piv * x - f * y for x, y in zip(tab[i], prow)]
                g = gcd(*row)
                tab[i] = [x // g for x in row] if g > 1 else row
        f = cost[enter]
        cost = [piv * x - f * y for x, y in zip(cost, prow)]
        cden *= piv
        g = gcd(cden, *cost)
        if g > 1:
            cost = [x // g for x in cost]
            cden //= g
        basis[leave] = enter

    # cost[total] is -cden times the sum of the artificials' values, so at
    # zero every artificial still in the basis sits at zero as well.
    if cost[total] != 0:
        return None
    x = [F0] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = Fraction(tab[i][total], tab[i][bv])
    return x
