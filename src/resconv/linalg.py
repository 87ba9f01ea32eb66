"""Exact rational linear algebra used by the decision procedures.

Everything here works over `fractions.Fraction` or Python integers; no
floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

F0 = Fraction(0)
F1 = Fraction(1)


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
    len(equations) entries are nonzero.
    """
    m = len(equations)
    if m == 0:
        return []
    n = len(equations[0])
    # Tableau rows: [A | I | b] with b made non-negative.
    tab: list[list[Fraction]] = []
    for i in range(m):
        row = [Fraction(x) for x in equations[i]]
        b = Fraction(rhs[i])
        if b < 0:
            row = [-x for x in row]
            b = -b
        art = [F1 if j == i else F0 for j in range(m)]
        tab.append(row + art + [b])
    basis = [n + i for i in range(m)]
    total = n + m
    # Objective: minimize sum of artificials.  Start from the raw cost row
    # (1 on artificial columns) and eliminate the basic columns.
    cost = [F0] * (total + 1)
    for k in range(m):
        cost[n + k] = F1
    for i in range(m):
        cost = [x - y for x, y in zip(cost, tab[i])]

    while True:
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][total] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            # Unbounded phase-1 objective cannot happen; defensive guard.
            return None
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter

    if -cost[total] != 0:
        return None
    x = [F0] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][total]
        elif tab[i][total] != 0:
            return None  # artificial stuck at a nonzero level
    return x
