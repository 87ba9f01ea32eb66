"""Independent exact arithmetic for generating inputs and checking answers.

Nothing here imports resconv: the checker must not share code with the
program it judges.  Matrices are lists of rows of Fractions, rows indexed
by the output, columns by the input, as in the program's JSON format.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction

F0, F1 = Fraction(0), Fraction(1)
UNIT = ["*"]


def frac(x) -> Fraction:
    return Fraction(str(x))


def parse_map(d: dict) -> tuple[list[str], list[str], list[list[Fraction]]]:
    return list(d["dom"]), list(d["cod"]), [[frac(x) for x in row] for row in d["matrix"]]


def map_dict(dom, cod, m) -> dict:
    return {"dom": list(dom), "cod": list(cod), "matrix": [[str(x) for x in row] for row in m]}


def is_stochastic(m: list[list[Fraction]]) -> bool:
    if not m:
        return False
    cols = len(m[0])
    return all(len(r) == cols for r in m) and all(x >= 0 for r in m for x in r) \
        and all(sum(r[i] for r in m) == 1 for i in range(cols))


def mm(q, p):
    """q after p."""
    inner = len(p)
    return [[sum((q[j][b] * p[b][a] for b in range(inner)), F0) for a in range(len(p[0]))]
            for j in range(len(q))]


def kron(p, q):
    return [[p[i][a] * q[k][c] for a in range(len(p[0])) for c in range(len(q[0]))]
            for i in range(len(p)) for k in range(len(q))]


def ident(n: int):
    return [[F1 if i == j else F0 for j in range(n)] for i in range(n)]


def swap_matrix(na: int, nb: int):
    """(x, y) -> (y, x) on an na*nb product."""
    m = [[F0] * (na * nb) for _ in range(na * nb)]
    for ia in range(na):
        for ib in range(nb):
            m[ib * na + ia][ia * nb + ib] = F1
    return m


def tensor_names(a: list[str], b: list[str]) -> list[str]:
    if a == UNIT:
        return list(b)
    if b == UNIT:
        return list(a)
    return [f"{x}|{y}" for x in a for y in b]


def deterministic_maps(na: int, nb: int):
    for table in itertools.product(range(nb), repeat=na):
        m = [[F0] * na for _ in range(nb)]
        for i, j in enumerate(table):
            m[j][i] = F1
        yield m


def is_deterministic(m) -> bool:
    return all(x in (0, 1) for r in m for x in r) and is_stochastic(m)


# -- convertibility oracles ------------------------------------------------

def majorizes(x: list[Fraction], y: list[Fraction]) -> bool:
    n = max(len(x), len(y))
    xs = sorted(list(x) + [F0] * (n - len(x)), reverse=True)
    ys = sorted(list(y) + [F0] * (n - len(y)), reverse=True)
    sx = sy = F0
    for a, b in zip(xs, ys):
        sx += a
        sy += b
        if sx < sy:
            return False
    return True


def coarse_grains(p: list[Fraction], q: list[Fraction], budget: int = 200_000) -> bool | None:
    """Is there a function on p's indices whose pushforward of p is q?

    Short vectors are settled by plain enumeration of all functions; longer
    ones by a depth-first search over items grouped by value, which gives
    up (None) after `budget` nodes.  Necessary conditions refute first.
    """
    if sum(p) != 1 or sum(q) != 1:
        return None
    if not majorizes(q, p) or sum(1 for x in p if x) < sum(1 for x in q if x):
        return False
    k = len(q)
    if len(p) <= 8 and k ** len(p) <= 70_000:
        for f in itertools.product(range(k), repeat=len(p)):
            sums = [F0] * k
            for i, j in enumerate(f):
                sums[j] += p[i]
            if sums == list(q):
                return True
        return False
    items = sorted((x for x in p if x), reverse=True)
    bins = [x for x in q]
    nodes = 0

    def rec(i: int) -> bool | None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            return None
        if i == len(items):
            return all(b == 0 for b in bins)
        tried = set()
        unsure = False
        for j in range(k):
            if bins[j] >= items[i] and bins[j] not in tried:
                tried.add(bins[j])
                bins[j] -= items[i]
                r = rec(i + 1)
                bins[j] += items[i]
                if r:
                    return True
                unsure = unsure or r is None
        return None if unsure else False

    return rec(0)


def tensor_power(p: list[Fraction], n: int) -> list[Fraction]:
    out = [F1]
    for _ in range(n):
        out = [a * b for a in out for b in p]
    return out


def ms_dict(raw) -> dict[str, int]:
    if isinstance(raw, dict):
        return {str(k): int(v) for k, v in raw.items() if int(v)}
    out: dict[str, int] = {}
    for name, k in raw:
        if k:
            out[str(name)] = out.get(str(name), 0) + int(k)
    return out


def ms_key(d: dict[str, int]) -> tuple:
    return tuple(sorted((k, v) for k, v in d.items() if v))


def ms_plus(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


class Reaction:
    """Rewrite rules on species multisets, with span refutation and BFS."""

    def __init__(self, data: dict):
        self.species = [str(s) for s in data["objects"]]
        self.rules = [(str(m["name"]), ms_dict(m["from"]), ms_dict(m["to"]))
                      for m in data["morphisms"]]

    def delta(self, rule) -> list[Fraction]:
        _, src, dst = rule
        return [Fraction(dst.get(s, 0) - src.get(s, 0)) for s in self.species]

    def in_span(self, target: list[Fraction]) -> bool:
        rows = [self.delta(r) for r in self.rules] + [list(target)]
        return _rank(rows[:-1]) == _rank(rows)

    def separated(self, a: dict, b: dict) -> bool:
        """b - a lies outside the span of the rule deltas, so a cannot reach b."""
        return not self.in_span([Fraction(b.get(s, 0) - a.get(s, 0)) for s in self.species])

    def reaches(self, a: dict, b: dict, depth: int, limit: int = 20_000) -> bool | None:
        """Breadth-first search without a size cap; None if not found."""
        start, goal = ms_key(a), ms_key(b)
        if start == goal:
            return True
        seen = {start}
        frontier = deque([start])
        for _ in range(depth):
            for _ in range(len(frontier)):
                cur = dict(frontier.popleft())
                for _, src, dst in self.rules:
                    if all(cur.get(k, 0) >= v for k, v in src.items()):
                        nxt = dict(cur)
                        for k, v in src.items():
                            nxt[k] -= v
                        key = ms_key(ms_plus(nxt, dst))
                        if key == goal:
                            return True
                        if key not in seen and len(seen) < limit:
                            seen.add(key)
                            frontier.append(key)
        return None

    def apply_trace(self, a: dict, trace: list[str]) -> dict | None:
        by_name = {name: (src, dst) for name, src, dst in self.rules}
        cur = dict(a)
        for name in trace:
            if name not in by_name:
                return None
            src, dst = by_name[name]
            if any(cur.get(k, 0) < v for k, v in src.items()):
                return None
            for k, v in src.items():
                cur[k] -= v
            cur = ms_plus({k: v for k, v in cur.items() if v}, dst)
        return cur

    def conserved(self, w: dict[str, Fraction], a: dict, b: dict) -> bool:
        """w is constant on every rule and separates a from b."""
        def val(m):
            return sum((w.get(s, F0) * k for s, k in m.items()), F0)
        return all(val(dst) == val(src) for _, src, dst in self.rules) and val(a) != val(b)


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def entropy(p: list[Fraction]) -> float:
    return -sum(float(x) * math.log2(float(x)) for x in p if x)
