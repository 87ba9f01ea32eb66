"""Executors for one op of each workload, and the canonical form of results.

Executors take the imported resconv package and look functions up on its
modules at call time, so the tracer's wrappers (installed on those modules)
see every call.  Theories,
maps and combs are built from dicts through `jsonio`, never through class
constructors, so the benchmark keeps running when classes are merged.
"""

from __future__ import annotations

import contextlib
import io
from enum import Enum
from fractions import Fraction
from random import Random

from gen import prob_states

def canon(x):
    """JSON-ready form of any result, by shape rather than by class."""
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Enum):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    if hasattr(x, "verdict") and hasattr(x, "witness"):
        return {"verdict": str(x.verdict), "witness": canon(x.witness),
                "bound": x.bound, "note": x.note}
    if hasattr(x, "decision") and hasattr(x, "scope"):
        return dict(canon(x.decision), property=x.name, scope=x.scope)
    if hasattr(x, "matrix") and hasattr(x, "dom"):
        return {"dom": canon(x.dom), "cod": canon(x.cod), "matrix": canon(x.matrix)}
    if hasattr(x, "joint"):
        return {"sa": canon(x.sa), "sb": canon(x.sb), "joint": canon(x.joint)}
    if hasattr(x, "encoder"):
        return {"encoder": canon(x.encoder), "decoder": canon(x.decoder),
                "randomness": canon(x.randomness)}
    if hasattr(x, "pre") and hasattr(x, "post"):
        return {"ancilla": canon(x.ancilla), "hole_dom": canon(x.hole_dom),
                "hole_cod": canon(x.hole_cod), "pre": canon(x.pre), "post": canon(x.post)}
    if hasattr(x, "stages"):
        return {"holes": [{"dom": canon(d), "cod": canon(c)} for d, c in x.holes],
                "order": list(x.order), "stages": canon(x.stages), "ancillas": canon(x.ancillas)}
    if hasattr(x, "elements"):
        return list(x.elements)
    if hasattr(x, "entries"):
        return canon(x.entries)
    if hasattr(x, "best") and hasattr(x, "inconclusive"):
        return {"best": canon(x.best), "witness": canon(x.witness),
                "upper_bound": canon(x.upper_bound), "exact": x.exact, "caps": x.caps,
                "inconclusive": x.inconclusive}
    return {"unrecognized": type(x).__name__, "repr": repr(x)}


# -- interactive -----------------------------------------------------------

def cli_op(pkg, op: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    exc = None
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = pkg.cli.run(list(op["argv"]))
        except Exception as e:  # the real CLI would print a traceback and exit 1
            exc = f"{type(e).__name__}: {e}"
    return {"rc": rc, "stdout": out.getvalue(), "exception": exc}


# -- analyzers -------------------------------------------------------------

def analyzer_op(pkg, op: dict):
    kind = op["kind"]
    if kind.startswith("check_"):
        t = pkg.jsonio.load_theory(op["theory"], bound=6)
        return getattr(pkg.analysis, kind)(t, t.enumerate_up_to(op["box"]), 6)
    if kind == "cross_check_theorems":
        t = pkg.jsonio.load_theory(op["theory"], bound=6)
        return pkg.analysis.cross_check_theorems(t, list(range(op["theory"]["carrier"])), 6)
    if kind in ("verify_monotone", "classify"):
        t = pkg.jsonio.load_theory(op["theory"], bound=6)
        m = pkg.jsonio.load_theory_monotones({"monotones": [op["monotone"]]}, t)[0]
        return getattr(pkg.monotones, kind)(m, t, t.enumerate_up_to(op["box"]))
    if kind == "find_catalyst":
        t = pkg.jsonio.load_theory(op["theory"], bound=6)
        a = pkg.jsonio.parse_term(t, op["a"])
        b = pkg.jsonio.parse_term(t, op["b"])
        return pkg.analysis.find_catalyst(t, a, b, t.enumerate_up_to(op["box"]), bound=6)
    if kind == "rate":
        t = pkg.jsonio.load_theory(op["theory"], bound=6)
        monos = pkg.jsonio.load_theory_monotones({"monotones": op["monotones"]}, t)
        a = pkg.jsonio.parse_term(t, op["a"])
        b = pkg.jsonio.parse_term(t, op["b"])
        return pkg.monotones.rate(t, a, b, op["caps"], monos)
    raise ValueError(f"unknown analyzer op {kind!r}")


def materialize_tables(pkg, ops: list[dict]) -> None:
    """Draw the seeded random theory tables through the program's own
    generator, once, before timing; ops then load them as plain dicts."""
    for op in ops:
        if op["kind"] == "cross_check_theorems" and "theory" not in op:
            t = pkg.analysis.random_theory_table(Random(op["table_seed"]), op["size"],
                                               op["density"])
            op["theory"] = {"carrier": t.size, "combine": [list(r) for r in t.table],
                            "zero": t.zero_index,
                            "geq": [[1 if x else 0 for x in r] for r in t.order]}


# -- channels --------------------------------------------------------------

def channel_op(pkg, op: dict):
    kind = op["kind"]
    js, st = pkg.jsonio, pkg.stoch
    if kind == "search_free_transformation_batch":
        sets = {n: st.finset(f"n{n}", n) for n in range(1, op["max_n"] + 1)}
        gens = [g for a in sets.values() for b in sets.values()
                for g in st.all_deterministic_maps(a, b)]
        targets = [st.state(sets[len(v)], v) for v in prob_states(op["max_n"], 4)]
        start = [Fraction(x) for x in op["start"]]
        s = st.state(sets[len(start)], start)
        return st.search_free_transformation_batch(s, targets, gens, op["depth"])
    if kind == "search_exact_simulation":
        return st.search_exact_simulation(js.load_stoch_map(op["channel"]),
                                          js.load_stoch_map(op["target"]), caps=op["caps"])
    if kind == "normalize_to_comb":
        c = pkg.circuits.parse_circuit(op["text"], library_files={"lib.json": op["library"]})
        comb = pkg.circuits.normalize_to_comb(c)
        direct, same = [], []
        for raw in op["processes"]:
            f = js.load_stoch_map(raw)
            d = pkg.circuits.evaluate_circuit(c, {"h": f})
            direct.append(d)
            same.append(pkg.combs.apply_comb(comb, f).matrix == d.matrix)
        return {"comb": comb, "direct": direct, "agree": same}
    if kind == "comb_law":
        cb = pkg.combs
        k1, k2, k3, k4 = (js.load_one_comb(d) for d in op["combs"])
        if op["law"] == "seq-assoc":
            lhs = cb.compose_combs_seq(k3, cb.compose_combs_seq(k2, k1))
            rhs = cb.compose_combs_seq(cb.compose_combs_seq(k3, k2), k1)
            return {"holds": [cb.comb_equivalent(lhs, rhs)]}
        if op["law"] == "interchange":
            lhs = cb.compose_combs_seq(cb.compose_combs_par(k1, k2), cb.compose_combs_par(k3, k4))
            rhs = cb.compose_combs_par(cb.compose_combs_seq(k1, k3), cb.compose_combs_seq(k2, k4))
            return {"holds": [cb.comb_equivalent(lhs, rhs)]}
        inner = cb.identity_comb(k1.hole_dom, k1.hole_cod)
        outer = cb.identity_comb(k1.outer_dom, k1.outer_cod)
        return {"holds": [cb.comb_equivalent(cb.compose_combs_seq(k1, inner), k1),
                          cb.comb_equivalent(cb.compose_combs_seq(outer, k1), k1)]}
    if kind == "plug_ncombs":
        outer = js.load_ncomb(op["outer"])
        inner = [js.load_ncomb(d) for d in op["inner"]]
        comp = pkg.combs.plug_ncombs(outer, inner)
        uc = js.load_uc({"allocation": [0] * len(op["processes"]) + [1],
                         "combs": [canon(comp), op["other"]]})
        fs = [js.load_stoch_map(d) for d in op["processes"] + [op["other_process"]]]
        return {"composite": comp, "outputs": pkg.combs.apply_uc(uc, fs)}
    raise ValueError(f"unknown channel op {kind!r}")


EXECUTORS = {"interactive": cli_op, "analyzers": analyzer_op, "channels": channel_op}
