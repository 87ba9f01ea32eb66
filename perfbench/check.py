"""The benchmark's own answer checker.

It replays every witness kind the workloads produce and compares verdicts
with independent oracles (componentwise order, brute force on finite
tables, partial sums for majorization, enumeration for coarse-graining of
short vectors, span tests and plain search for reaction networks).  It
reads the canonical JSON form of results and never calls resconv.

`check(workload, op, out, ctx)` returns the failure labels of one op
(empty when the answer is right) plus its decision and Unknown counts.
An Unknown answer is never a failure.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from random import Random

from exact import (F0, F1, Reaction, coarse_grains, deterministic_maps, entropy, frac, ident,
                   is_deterministic, is_stochastic, kron, majorizes, mm, ms_dict, ms_key,
                   ms_plus, parse_map, swap_matrix, tensor_power)
from gen import prob_states

TOL = 1e-9


class Theory:
    """An independent view of a theory file: terms, combine and an oracle
    answering True, False or None (cannot tell)."""

    def __init__(self, data: dict, bound: int = 6):
        self.data = data
        self.bound = bound
        if "carrier" in data:
            self.kind = "table"
            self.n = int(data["carrier"])
            self.table = data["combine"]
            self.order = [[bool(x) for x in row] for row in data["geq"]]
        elif "objects" in data:
            self.kind = "reaction"
            self.rx = Reaction(data)
        else:
            self.kind = data["kind"]
            self.arity = int(data.get("arity", 0))
            self.mode = data.get("mode")

    def term(self, raw):
        if self.kind == "table":
            return int(raw)
        if self.kind == "reaction":
            return ms_key(ms_dict(raw))
        if self.kind == "vector":
            return tuple(int(x) for x in raw)
        return tuple(frac(x) for x in raw)

    def zero(self):
        if self.kind == "table":
            return int(self.data["zero"])
        if self.kind == "reaction":
            return ()
        return (0,) * self.arity if self.kind == "vector" else (F1,)

    def combine(self, a, b):
        if self.kind == "table":
            return self.table[a][b]
        if self.kind == "reaction":
            return ms_key(ms_plus(dict(a), dict(b)))
        if self.kind == "vector":
            op = (lambda x, y: x + y) if self.mode == "additive" else max
            return tuple(op(x, y) for x, y in zip(a, b))
        return tuple(x * y for x in a for y in b)

    def geq(self, a, b):
        if self.kind == "table":
            return self.order[a][b]
        if self.kind == "vector":
            return all(x >= y for x, y in zip(a, b))
        if self.kind == "entanglement":
            return majorizes(list(b), list(a))
        if self.kind == "randomness":
            return coarse_grains(list(a), list(b), budget=20_000)
        da, db = dict(a), dict(b)
        if self.rx.separated(da, db):
            return False
        return self.rx.reaches(da, db, self.bound)

    def equiv(self, a, b):
        x, y = self.geq(a, b), self.geq(b, a)
        if x is False or y is False:
            return False
        return True if x and y else None

    def enumerate(self, box: int) -> list:
        if self.kind == "table":
            return list(range(self.n))
        if self.kind == "vector":
            return list(itertools.product(range(box + 1), repeat=self.arity))
        if self.kind == "reaction":
            out = set()
            for size in range(box + 1):
                for combo in itertools.combinations_with_replacement(self.rx.species, size):
                    d: dict[str, int] = {}
                    for s in combo:
                        d[s] = d.get(s, 0) + 1
                    out.add(ms_key(d))
            return sorted(out)
        seen = set()
        for n in range(1, box + 1):
            for den in range(1, box + 1):
                for comp in itertools.product(range(den + 1), repeat=n):
                    if sum(comp) == den:
                        seen.add(tuple(Fraction(k, den) for k in comp))
        return sorted(seen)

    def decompositions(self, a):
        if self.kind == "vector":
            if self.mode == "additive":
                per = [[(i, x - i) for i in range(x + 1)] for x in a]
            else:
                per = [[(i, j) for i in range(x + 1) for j in range(x + 1) if max(i, j) == x]
                       for x in a]
            return [(tuple(c[0] for c in ch), tuple(c[1] for c in ch))
                    for ch in itertools.product(*per)]
        if self.kind == "table":
            return [(x, y) for x in range(self.n) for y in range(self.n)
                    if self.order[self.table[x][y]][a] and self.order[a][self.table[x][y]]]
        return None

    def fmt(self, a) -> str:
        if self.kind == "vector":
            return "(" + ",".join(map(str, a)) + ")"
        return repr(a)

    def monotone(self, decl: dict):
        name, cls = decl["name"], decl.get("class", "general")
        if name == "entropy":
            fn = lambda p: entropy(list(p))  # noqa: E731
        elif name.startswith("component:"):
            k = int(name.split(":")[1])
            fn = lambda v: Fraction(v[k])  # noqa: E731
        else:
            i = int(name.split(":")[1])
            fn = lambda a: F1 if self.order[a][i] else F0  # noqa: E731
        if cls == "supremal":
            base = fn(self.zero())
            if base != 0:
                return lambda a: fn(a) - base
        return fn


def _num(x) -> float:
    if isinstance(x, (int, float)):
        return float(x)
    if x in ("inf", "Infinity"):
        return math.inf
    return float(Fraction(str(x)))


class Verdicts:
    """Failure labels collected for one op."""

    def __init__(self):
        self.fails: list[str] = []

    def fail(self, label: str) -> None:
        self.fails.append(label)

    def claim(self, th: Theory, a, b, expect: bool) -> None:
        """A fact the program relied on; contradicted only by a definite oracle."""
        r = th.geq(a, b)
        if r is not None and r != expect:
            self.fail("bad-witness")


def count_decisions(x) -> tuple[int, int]:
    """(decisions, unknowns) in a canonical result or CLI payload."""
    if isinstance(x, dict):
        if "verdict" in x:
            n, u = 1, int(x["verdict"] == "Unknown")
        elif "inconclusive" in x and "caps" in x:
            n, u = x["caps"] ** 2, x["inconclusive"]
        else:
            n = u = 0
        for v in x.values():
            dn, du = count_decisions(v)
            n, u = n + dn, u + du
        return n, u
    if isinstance(x, list):
        n = u = 0
        for v in x:
            dn, du = count_decisions(v)
            n, u = n + dn, u + du
        return n, u
    return 0, 0


# -- decisions --------------------------------------------------------------

def check_convert(v: Verdicts, th: Theory, a, b, d: dict) -> None:
    verdict, w = d["verdict"], d["witness"]
    ref = th.geq(a, b)
    if (verdict == "Proven" and ref is False) or (verdict == "Refuted" and ref is True):
        v.fail("wrong-verdict")
        return
    if verdict == "Unknown":
        return
    try:
        ok = _witness_ok(th, a, b, verdict, w)
    except (TypeError, ValueError, KeyError, IndexError, ZeroDivisionError):
        ok = False
    if not ok:
        v.fail("bad-witness")


def _witness_ok(th: Theory, a, b, verdict: str, w) -> bool:
    if th.kind == "table":
        return w == ["order-entry", a, b] and th.order[a][b] == (verdict == "Proven")
    if th.kind == "vector":
        if verdict == "Proven":
            return w[0] == "componentwise" and th.term(w[1]) == a and th.term(w[2]) == b \
                and th.geq(a, b)
        k, x, y = w[1], w[2], w[3]
        return w[0] == "component" and a[k] == x and b[k] == y and x < y
    if th.kind == "randomness":
        if verdict == "Proven":
            blocks = w[1]
            idx = sorted(i for blk in blocks for i in blk)
            return w[0] == "partition" and idx == list(range(len(a))) \
                and len(blocks) == len(b) \
                and all(sum((a[i] for i in blk), F0) == b[j] for j, blk in enumerate(blocks))
        return w[0] == "exhausted-partition-search" and w[1:] == [len(a), len(b)]
    if th.kind == "entanglement":
        if verdict == "Proven":
            return w[0] == "majorization" and majorizes(list(b), list(a))
        k, sx, sy = w[1][0], frac(w[1][1]), frac(w[1][2])
        n = max(len(a), len(b))
        xs = sorted(list(b) + [F0] * (n - len(b)), reverse=True)
        ys = sorted(list(a) + [F0] * (n - len(a)), reverse=True)
        return w[0] == "majorization-fails" and sum(xs[:k], F0) == sx \
            and sum(ys[:k], F0) == sy and sx < sy
    if verdict == "Proven":
        end = th.rx.apply_trace(dict(a), list(w))
        return end is not None and ms_key(end) == b and len(w) <= th.bound
    return w[0] == "conserved-functional" and th.rx.conserved(
        {str(s): frac(c) for s, c in w[1]}, dict(a), dict(b))


def check_catalyst(v: Verdicts, th: Theory, a, b, box: int, d: dict) -> None:
    verdict, w = d["verdict"], d["witness"]
    if verdict == "Proven":
        c = th.term(w[1])
        v.claim(th, a, b, False)
        v.claim(th, th.combine(a, c), th.combine(b, c), True)
    elif verdict == "Refuted" and w[0] == "already-convertible":
        v.claim(th, a, b, True)
    elif verdict == "Refuted":
        cands = th.enumerate(box)
        if w[1] != len(cands):
            v.fail("bad-witness")
        v.claim(th, a, b, False)
        for c in cands:
            v.claim(th, th.combine(a, c), th.combine(b, c), False)


def check_rate(v: Verdicts, th: Theory, a, b, monos: list[dict], out: dict) -> None:
    best = frac(out["best"])
    w = out["witness"]
    if w:
        n, m = w
        if best != Fraction(m, n) or max(n, m) > out["caps"]:
            v.fail("bad-witness")
        if th.kind == "randomness":
            r = coarse_grains(tensor_power(list(a), n), tensor_power(list(b), m), budget=50_000)
        else:
            big_a = tuple(x * n for x in a) if th.mode == "additive" else a
            big_b = tuple(x * m for x in b) if th.mode == "additive" else b
            r = th.geq(big_a, big_b)
        if r is False:
            v.fail("wrong-verdict")
    elif best != 0:
        v.fail("bad-witness")
    upper = None
    for decl in monos:
        if decl.get("class") != "additive":
            continue
        fn = th.monotone(decl)
        va, vb = fn(a), fn(b)
        bound = math.inf if vb == 0 else (va / vb if isinstance(va, Fraction) and
                                          isinstance(vb, Fraction) else float(va) / float(vb))
        if upper is None or float(bound) < float(upper):
            upper = bound
    got = out["upper_bound"]
    if (upper is None) != (got is None):
        v.fail("wrong-verdict")
    elif upper is not None:
        if abs(_num(got) - float(upper)) > TOL and not (math.isinf(float(upper))
                                                        and math.isinf(_num(got))):
            v.fail("wrong-verdict")
        if float(best) > float(upper) + TOL:
            v.fail("wrong-verdict")
        if out["exact"] and abs(float(best) - float(upper)) > TOL:
            v.fail("wrong-verdict")


def check_report(v: Verdicts, th: Theory, rep: dict, box: int | None) -> None:
    name, verdict, w = rep["property"], rep["verdict"], rep["witness"]
    if name.startswith(("thm:", "prop:")):
        if verdict == "Refuted":
            v.fail("wrong-verdict")
        return
    if name.startswith("monotone:") or name.startswith("class:"):
        return
    if th.kind == "table" and verdict != "Unknown":
        holds = table_property(th, name)
        if holds != (verdict == "Proven"):
            v.fail("wrong-verdict")
    if verdict != "Refuted":
        return
    tag = w[0]
    t = [th.term(x) for x in w[1:]] if tag != "theorem-violation" else []
    if tag == "quadruple":
        a1, a2, b1, b2 = t
        v.claim(th, th.combine(a1, a2), th.combine(b1, b2), True)
        v.claim(th, th.combine(b1, b2), th.combine(a1, a2), True)
        v.claim(th, a1, b1, True)
        v.claim(th, b2, a2, False)
    elif tag == "catalyst-triple":
        a, b, c = t
        v.claim(th, a, b, False)
        v.claim(th, th.combine(a, c), th.combine(b, c), True)
    elif tag == "not-idempotent":
        if th.equiv(th.combine(t[0], t[0]), t[0]) is True:
            v.fail("bad-witness")
    elif tag == "not-disposable":
        v.claim(th, t[0], th.zero(), False)
    elif tag == "whole-covers-part-fails":
        v.claim(th, th.combine(t[0], t[1]), t[0], False)
    elif tag == "no-split":
        a, b1, b2 = t
        v.claim(th, a, th.combine(b1, b2), True)
        for x, y in th.decompositions(a) or []:
            if th.geq(x, b1) is True and th.geq(y, b2) is True:
                v.fail("bad-witness")
                break
    else:
        v.fail("bad-witness")


def table_property(th: Theory, name: str) -> bool:
    n, add, ge = range(th.n), th.combine, th.geq
    sim = lambda x, y: ge(x, y) and ge(y, x)  # noqa: E731
    if name == "quality-like":
        return all(sim(add(a, a), a) for a in n)
    if name == "quantity-like":
        return all(ge(b2, a2) for a1, a2, b1, b2 in itertools.product(n, repeat=4)
                   if sim(add(a1, a2), add(b1, b2)) and ge(a1, b1))
    if name == "non-interacting":
        return all(any(ge(x, b1) and ge(y, b2) for x, y in th.decompositions(a))
                   for a, b1, b2 in itertools.product(n, repeat=3) if ge(a, add(b1, b2)))
    if name == "waste-free":
        return all(ge(a, th.zero()) for a in n)
    if name == "catalysis-free":
        return all(ge(a, b) for a, b, c in itertools.product(n, repeat=3)
                   if ge(add(a, c), add(b, c)))
    raise KeyError(name)


def check_monotone_report(v: Verdicts, th: Theory, decl: dict, box: int, rep: dict) -> None:
    verdict, w = rep["verdict"], rep["witness"]
    fn = th.monotone(decl)

    def ge(x, y):
        if isinstance(x, Fraction) and isinstance(y, Fraction):
            return x >= y
        return float(x) >= float(y) - TOL

    def law(a, b) -> bool:
        c = fn(th.combine(a, b))
        e = fn(a) + fn(b) if decl["class"] == "additive" else max(fn(a), fn(b))
        if isinstance(c, Fraction) and isinstance(e, Fraction):
            return c == e
        return abs(float(c) - float(e)) <= TOL

    if rep["property"].startswith("monotone:") and verdict == "Refuted":
        a, b = th.term(w[1]), th.term(w[2])
        v.claim(th, a, b, True)
        if ge(fn(a), fn(b)):
            v.fail("bad-witness")
    elif rep["property"].startswith("class:") and verdict == "Refuted":
        if law(th.term(w[1]), th.term(w[2])):
            v.fail("bad-witness")
    elif rep["property"].startswith("class:") and verdict == "Proven" \
            and decl.get("class", "general") != "general":
        sample = th.enumerate(box)
        if w[1] != len(sample) or not all(law(a, b) for a in sample for b in sample):
            v.fail("wrong-verdict")


# -- maps, combs, circuits --------------------------------------------------

def mat(d: dict):
    return parse_map(d)[2]


def contract(p, e, dm, r: dict):
    """Q(b'|a') = sum d(b'|b,y) p(b|a) e(a|a',x) r(x,y)."""
    joint = [[frac(x) for x in row] for row in r["joint"]]
    nx, ny = len(joint), len(joint[0])
    na_new = len(e[0]) // nx
    return [[sum((dm[bp][b * ny + y] * p[b][a] * e[a][ap * nx + x] * joint[x][y]
                  for x in range(nx) for y in range(ny) for a in range(len(p[0]))
                  for b in range(len(p))), F0)
             for ap in range(na_new)] for bp in range(len(dm))]


def check_simulation(v: Verdicts, p, target, d: dict) -> None:
    verdict, w = d["verdict"], d.get("witness")
    if verdict == "Proven":
        try:
            e, dm = mat(w["encoder"]), mat(w["decoder"])
            joint = [frac(x) for row in w["randomness"]["joint"] for x in row]
            ok = is_stochastic(e) and is_stochastic(dm) and all(x >= 0 for x in joint) \
                and sum(joint) == 1 and contract(p, e, dm, w["randomness"]) == target
        except (KeyError, IndexError, TypeError, ValueError):
            ok = False
        if not ok:
            v.fail("bad-witness")
    elif verdict == "Refuted":
        # A channel that ignores its input only simulates channels that do too.
        cols = {tuple(r[i] for r in p) for i in range(len(p[0]))}
        tcols = [tuple(r[i] for r in target) for i in range(len(target[0]))]
        if len(cols) != 1 or len(set(tcols)) == 1:
            v.fail("wrong-verdict")
        elif w is not None and (w[0] != "input-independent-channel"
                                or tcols[w[1]] == tcols[w[2]]):
            v.fail("bad-witness")


def eval_circuit(spec: dict, lib: dict, h):
    sizes = spec["sizes"]
    acc = ident(math.prod(sizes[w] for w in spec["input"]))
    for layer in spec["layers"]:
        m = None
        for it in layer:
            if it[0] == "box":
                x = [[frac(y) for y in row] for row in lib["maps"][it[1]]["matrix"]]
            elif it[0] == "id":
                x = ident(sizes[it[1]])
            elif it[0] == "swap":
                x = swap_matrix(sizes[it[1]], sizes[it[2]])
            else:
                x = h
            m = x if m is None else kron(m, x)
        acc = mm(m, acc)
    return acc


def apply_comb(comb: dict, h):
    return mm(mat(comb["post"]), mm(kron(h, ident(len(comb["ancilla"]))), mat(comb["pre"])))


def check_comb(v: Verdicts, comb: dict, spec: dict, lib: dict) -> None:
    sizes = spec["sizes"]
    hole = next(it for layer in spec["layers"] for it in layer if it[0] == "hole")
    na = math.prod(sizes[w] for w in hole[1])
    nb = math.prod(sizes[w] for w in hole[2])
    try:
        ok = all(apply_comb(comb, h) == eval_circuit(spec, lib, h)
                 for h in deterministic_maps(na, nb))
    except (KeyError, IndexError, TypeError, ValueError):
        ok = False
    if not ok:
        v.fail("wrong-verdict")


def apply_ncomb(k: dict, fs: list) -> list:
    cur = mat(k["stages"][0])
    for i, j in enumerate(k["order"]):
        cur = mm(kron(fs[j], ident(len(k["ancillas"][i]))), cur)
        cur = mm(mat(k["stages"][i + 1]), cur)
    return cur


def check_plug(v: Verdicts, comp: dict, outer: dict, inner: list[dict], fs: list | None) -> list:
    if fs is None:
        rng = Random(0)
        fs = []
        for h in comp["holes"]:
            n_in, n_out = len(h["dom"]), len(h["cod"])
            cols = []
            for _ in range(n_in):
                w = [rng.randint(1, 3) for _ in range(n_out)]
                cols.append([Fraction(x, sum(w)) for x in w])
            fs.append([[cols[c][r] for c in range(n_in)] for r in range(n_out)])
    nested, at = [], 0
    for inn in inner:
        k = len(inn["holes"])
        nested.append(apply_ncomb(inn, fs[at:at + k]))
        at += k
    got = apply_ncomb(comp, fs)
    if got != apply_ncomb(outer, nested):
        v.fail("wrong-verdict")
    return got


def check_batch(v: Verdicts, op: dict, decisions: list[dict]) -> None:
    start = [frac(x) for x in op["start"]]
    targets = prob_states(op["max_n"], 4)
    if len(decisions) != len(targets):
        v.fail("wrong-verdict")
        return
    for q, d in zip(targets, decisions):
        if d["verdict"] == "Unknown":
            continue
        if d["verdict"] != "Proven" or coarse_grains(start, q) is False:
            v.fail("wrong-verdict")
            continue
        col = [[x] for x in start]
        names = [f"n{len(start)}{i}" for i in range(len(start))]
        try:
            for step in d["witness"][1]:
                dom, cod, m = parse_map(step)
                if dom != names or not is_deterministic(m):
                    raise ValueError("step does not chain or is not free")
                col, names = mm(m, col), cod
            ok = names == [f"n{len(q)}{i}" for i in range(len(q))] and [r[0] for r in col] == q
        except (KeyError, IndexError, TypeError, ValueError):
            ok = False
        if not ok:
            v.fail("bad-witness")


# -- axioms and diagrams --------------------------------------------------------

def axiom_violations(d: dict) -> int:
    n, t, o = d["carrier"], d["combine"], [[bool(x) for x in r] for r in d["geq"]]
    z = d["zero"]
    sim = lambda a, b: o[a][b] and o[b][a]  # noqa: E731
    r = range(n)
    count = sum(not o[a][a] for a in r)
    count += sum(not sim(t[a][b], t[b][a]) for a in r for b in r)
    count += sum(not sim(t[a][z], a) for a in r)
    count += sum(o[a][b] and o[b][c] and not o[a][c] for a in r for b in r for c in r)
    count += sum(not sim(t[t[a][b]][c], t[a][t[b][c]]) for a in r for b in r for c in r)
    count += sum(o[a][b] and o[c][dd] and not o[t[a][c]][t[b][dd]]
                 for a in r for b in r for c in r for dd in r)
    return count


def hasse_shape(th: Theory, box: int) -> tuple[set[str], int]:
    elems = list(dict.fromkeys(th.enumerate(box)))
    classes: list[list] = []
    for x in elems:
        for cls in classes:
            if th.geq(x, cls[0]) and th.geq(cls[0], x):
                cls.append(x)
                break
        else:
            classes.append([x])
    reps = [c[0] for c in classes]
    above = [[i != j and th.geq(a, b) for j, b in enumerate(reps)] for i, a in enumerate(reps)]
    m = len(reps)
    edges = sum(1 for i in range(m) for j in range(m) if above[i][j]
                and not any(above[i][k] and above[k][j] for k in range(m)))
    labels = {", ".join(sorted(th.fmt(x) for x in c)) for c in classes}
    return labels, edges


# -- per-op dispatch ------------------------------------------------------------

def check(workload: str, op: dict, out, ctx) -> tuple[list[str], int, int]:
    v = Verdicts()
    if workload == "interactive":
        payload = check_cli(v, op, out, ctx)
    elif isinstance(out, dict) and "raised" in out:
        v.fail("raised")
        payload = None
    else:
        payload = out
        (check_analyzer if workload == "analyzers" else check_channel)(v, op, out)
    n, u = count_decisions(payload)
    return v.fails, n, u


def check_cli(v: Verdicts, op: dict, out: dict, ctx):
    rc, exc = out["rc"], out["exception"]
    meta = op["meta"]
    if op["kind"] == "malformed":
        kind = meta["malformed"]
        if exc is not None:
            v.fail(f"malformed:{kind}:traceback")
        elif rc != 2:
            v.fail(f"malformed:{kind}:exit-{rc}")
        return None
    if exc is not None:
        v.fail("traceback")
        return None
    if rc == 2:
        v.fail("exit-2-on-valid")
        return None
    try:
        payload = json.loads(out["stdout"])
    except json.JSONDecodeError:
        v.fail("bad-output")
        return None
    kind = meta.get("theory")
    th = Theory(ctx.json(kind)) if kind else None
    want_rc = 0
    k = op["kind"]
    if k == "convert":
        a, b = th.term(meta["a"]), th.term(meta["b"])
        check_convert(v, th, a, b, payload)
        want_rc = 0 if payload["verdict"] == "Proven" else 1
    elif k == "catalyst":
        a, b = th.term(meta["a"]), th.term(meta["b"])
        check_catalyst(v, th, a, b, meta["box"], payload)
        want_rc = 0 if payload["verdict"] == "Proven" else 1
    elif k == "rate":
        check_rate(v, th, th.term(meta["a"]), th.term(meta["b"]),
                   th.data.get("monotones", []), payload)
    elif k == "monotones":
        decls = th.data.get("monotones", [])
        for i, rep in enumerate(payload):
            check_monotone_report(v, th, decls[i // 2], meta["box"], rep)
        want_rc = 1 if any(r["verdict"] == "Refuted" for r in payload) else 0
    elif k == "hasse":
        labels, edges = hasse_shape(th, meta["box"])
        dot = ctx.text(meta["out"])
        got_labels = {line.split('label="', 1)[1].rsplit('"', 1)[0]
                      for line in dot.splitlines() if "label=" in line}
        if got_labels != labels or dot.count("->") != edges or payload["nodes"] != len(labels):
            v.fail("wrong-verdict")
    elif k == "check-axioms":
        if len(payload["violations"]) != axiom_violations(th.data):
            v.fail("wrong-verdict")
        want_rc = 1 if payload["violations"] else 0
    elif k == "simulate-channel-search":
        p, t = mat(ctx.json(meta["channel"])), mat(ctx.json(meta["target"]))
        check_simulation(v, p, t, payload)
        want_rc = 0 if payload["verdict"] == "Proven" else 1
    elif k == "simulate-channel-replay":
        want = contract(mat(ctx.json(meta["channel"])), mat(ctx.json(meta["encoder"])),
                        mat(ctx.json(meta["decoder"])), ctx.json(meta["randomness"]))
        if mat(payload) != want:
            v.fail("wrong-verdict")
    elif k == "normalize-circuit":
        check_comb(v, payload, meta["spec"], ctx.json(meta["library"]))
    elif k == "plug":
        check_plug(v, payload, ctx.json(meta["outer"]), [ctx.json(x) for x in meta["inner"]],
                   None)
    elif k == "uc-apply":
        uc = ctx.json(meta["uc"])
        fs = [mat(ctx.json(x)) for x in meta["processes"]]
        for j, comb in enumerate(uc["combs"]):
            take = [f for f, a in zip(fs, uc["allocation"]) if a == j]
            if mat(payload[j]) != apply_ncomb(comb, take):
                v.fail("wrong-verdict")
    if rc != want_rc:
        v.fail("bad-exit-code")
    return payload


def check_analyzer(v: Verdicts, op: dict, out) -> None:
    k = op["kind"]
    th = Theory(op["theory"])
    if k.startswith("check_") or k == "cross_check_theorems":
        for rep in out if isinstance(out, list) else [out]:
            check_report(v, th, rep, op.get("box"))
    elif k in ("verify_monotone", "classify"):
        check_monotone_report(v, th, op["monotone"], op["box"], out)
    elif k == "find_catalyst":
        check_catalyst(v, th, th.term(op["a"]), th.term(op["b"]), op["box"], out)
    elif k == "rate":
        check_rate(v, th, th.term(op["a"]), th.term(op["b"]), op["monotones"], out)


def check_channel(v: Verdicts, op: dict, out) -> None:
    k = op["kind"]
    if k == "search_free_transformation_batch":
        check_batch(v, op, out)
    elif k == "search_exact_simulation":
        check_simulation(v, mat(op["channel"]), mat(op["target"]), out)
    elif k == "normalize_to_comb":
        check_comb(v, out["comb"], op["spec"], op["library"])
        for raw, direct in zip(op["processes"], out["direct"]):
            if mat(direct) != eval_circuit(op["spec"], op["library"], mat(raw)):
                v.fail("wrong-verdict")
        if not all(out["agree"]):
            v.fail("wrong-verdict")
    elif k == "comb_law":
        if not all(out["holds"]):
            v.fail("wrong-verdict")
    elif k == "plug_ncombs":
        fs = [mat(d) for d in op["processes"]]
        got = check_plug(v, out["composite"], op["outer"], op["inner"], fs)
        if mat(out["outputs"][0]) != got or \
                mat(out["outputs"][1]) != apply_ncomb(op["other"], [mat(op["other_process"])]):
            v.fail("wrong-verdict")
