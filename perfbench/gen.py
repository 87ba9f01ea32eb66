"""Seeded inputs for the three workloads.

Every generator returns the files to write (name -> text) and one round of
ops.  A round has fixed counts per op kind; the seed picks the contents
and the order.  Inputs are plain JSON written with `json`, so they do not
depend on any dump helper of the program.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path
from random import Random

from exact import UNIT, F0, F1, Reaction, map_dict, ms_dict, ms_key, ms_plus, tensor_names

DEMO_FILES = ("d.json", "e.json", "f1.json", "f2.json", "food.json", "haber.json",
              "inner1.json", "maps.json", "outer.json", "p.json", "prof.json",
              "r.json", "randomness.json", "sandwich.circ", "t.json", "table.json",
              "uc.json")

HABER = {"objects": ["N2", "H2", "NH3"],
         "morphisms": [{"name": "haber", "from": {"N2": 1, "H2": 3}, "to": {"NH3": 2}}]}

# Source/target pairs whose exact rate scan stays small at the given caps.
RATE_PAIRS = {
    "u2": ["1/2", "1/2"], "u4": ["1/4"] * 4, "d3": ["1/2", "1/4", "1/4"],
    "d4": ["1/2", "1/4", "1/8", "1/8"]}
RATE_CHEAP = [("u2", "u4"), ("u4", "u2"), ("d3", "u2"), ("d3", "u4"), ("d4", "u4"),
              ("d4", "u2")]
RATE_CAPS5 = [("u4", "u2"), ("d4", "u2"), ("d4", "u4"), ("u2", "u4"), ("d3", "u2"),
              ("d3", "u4")]
RATE_CAPS6 = [("u2", "u4"), ("d3", "u2"), ("d3", "u4")]


def dumps(x) -> str:
    return json.dumps(x, indent=1, sort_keys=True) + "\n"


def names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def rand_stoch(rng: Random, rows: int, cols: int, weight: int = 4) -> list[list[Fraction]]:
    colvals = []
    for _ in range(cols):
        w = [rng.randint(0, weight) for _ in range(rows)]
        if not any(w):
            w[rng.randrange(rows)] = 1
        colvals.append([Fraction(x, sum(w)) for x in w])
    return [[colvals[c][r] for c in range(cols)] for r in range(rows)]


def rand_det(rng: Random, rows: int, cols: int) -> list[list[Fraction]]:
    m = [[F0] * cols for _ in range(rows)]
    for c in range(cols):
        m[rng.randrange(rows)][c] = F1
    return m


def rand_prob(rng: Random, max_len: int = 5, max_den: int = 6) -> list[Fraction]:
    n = rng.randint(1, max_len)
    w = [rng.randint(0, max_den) for _ in range(n)]
    if not any(w):
        w[0] = 1
    return [Fraction(x, sum(w)) for x in w]


def coarse(rng: Random, p: list[Fraction]) -> list[Fraction]:
    k = rng.randint(1, len(p))
    q = [F0] * k
    for x in p:
        q[rng.randrange(k)] += x
    return q


def pstr(p: list[Fraction]) -> list[str]:
    return [str(x) for x in p]


# -- theories as plain dicts ---------------------------------------------

def vector_theory(arity: int, mode: str, declare: str | None = None) -> dict:
    d = {"kind": "vector", "arity": arity, "mode": mode}
    if declare:
        d["monotones"] = [{"name": f"component:{k}", "class": declare} for k in range(arity)]
    return d


def table_theory(rng: Random, size: int) -> dict:
    """A commutative monoid from a small family with an order closed under
    reflexivity, transitivity and compatibility with combine."""
    family = rng.choice(["cyclic", "truncated", "max"])
    if family == "cyclic":
        op = lambda a, b: (a + b) % size  # noqa: E731
    elif family == "truncated":
        op = lambda a, b: min(a + b, size - 1)  # noqa: E731
    else:
        op = max
    table = [[op(a, b) for b in range(size)] for a in range(size)]
    rel = [[a == b for b in range(size)] for a in range(size)]
    density = rng.choice([0.0, 0.1, 0.2, 0.35])
    for a in range(size):
        for b in range(size):
            if a != b and rng.random() < density:
                rel[a][b] = True
    changed = True
    while changed:
        changed = False
        for a, b in itertools.product(range(size), repeat=2):
            if not rel[a][b]:
                continue
            for c in range(size):
                if rel[b][c] and not rel[a][c]:
                    rel[a][c] = changed = True
            for c, d in itertools.product(range(size), repeat=2):
                if rel[c][d] and not rel[table[a][c]][table[b][d]]:
                    rel[table[a][c]][table[b][d]] = changed = True
    return {"carrier": size, "combine": table, "zero": 0,
            "geq": [[1 if x else 0 for x in row] for row in rel]}


def broken_table(rng: Random, size: int) -> dict:
    d = table_theory(rng, size)
    a, b = rng.randrange(size), rng.randrange(size)
    d["geq"][a][b] = 1 - d["geq"][a][b]
    return d


def reaction_theory(rng: Random, n_species: int, n_rules: int) -> dict:
    species = rng.sample(["A", "B", "C", "D", "E"], n_species)
    rules = []
    for i in range(n_rules):
        src: dict[str, int] = {}
        dst: dict[str, int] = {}
        for _ in range(rng.randint(1, 2)):
            s = rng.choice(species)
            src[s] = src.get(s, 0) + 1
        for _ in range(rng.randint(1, 2)):
            s = rng.choice(species)
            dst[s] = dst.get(s, 0) + 1
        rules.append({"name": f"r{i}", "from": src, "to": dst})
    return {"objects": species, "morphisms": rules}


def rand_multiset(rng: Random, species: list[str], max_size: int = 3) -> dict[str, int]:
    out: dict[str, int] = {}
    for _ in range(rng.randint(0, max_size)):
        s = rng.choice(species)
        out[s] = out.get(s, 0) + 1
    return out


def rewrite(rng: Random, data: dict, a: dict[str, int], steps: int) -> dict[str, int]:
    cur = dict(a)
    for _ in range(steps):
        ok = [m for m in data["morphisms"]
              if all(cur.get(k, 0) >= v for k, v in ms_dict(m["from"]).items())]
        if not ok:
            break
        m = rng.choice(ok)
        for k, v in ms_dict(m["from"]).items():
            cur[k] -= v
        cur = ms_plus({k: v for k, v in cur.items() if v}, ms_dict(m["to"]))
    return cur


def reaction_pair(rng: Random, data: dict, want: str) -> tuple[dict, dict] | None:
    """A multiset pair whose answer is of the wanted class by the checker's
    own oracle: reachable within the bound, separated by a conserved
    quantity, or neither (the program can only answer Unknown).  Fixing
    the class mix keeps Unknown counts from drifting with the seed."""
    rx = Reaction(data)
    for _ in range(200):
        a = rand_multiset(rng, data["objects"])
        if want != "refuted":
            # start from some rule's source so that at least one rule applies
            a = ms_plus(ms_dict(rng.choice(data["morphisms"])["from"]),
                        rand_multiset(rng, data["objects"], 1))
        if want == "refuted":
            b = rand_multiset(rng, data["objects"])
        else:
            # a rewrite is reachable; run backwards it is in the span but
            # (unless the rules are reversible) out of reach
            b = rewrite(rng, data, a, rng.randint(1, 3))
            if want == "unknown":
                a, b = b, a
        if ms_key(a) == ms_key(b):
            continue
        got = "refuted" if rx.separated(a, b) else \
            "proven" if rx.reaches(a, b, 6) else "unknown"
        if got == want:
            return dict(ms_key(a)), dict(ms_key(b))
    return None


def classy_network(rng: Random, n_species: int, n_rules: int) -> dict:
    """A seeded network on which pairs of all three answer classes exist."""
    for _ in range(1000):
        net = reaction_theory(rng, n_species, n_rules)
        if all(reaction_pair(rng, net, want) for want in ("proven", "refuted", "unknown")):
            return net
    raise RuntimeError("no network with all three answer classes")


def term_for(rng: Random, data: dict, i: int = 0):
    """A seeded (source, target) pair for a theory; the slot index i fixes
    which kind of pair it is."""
    if "carrier" in data:
        return rng.randrange(data["carrier"]), rng.randrange(data["carrier"])
    if "objects" in data:
        return reaction_pair(rng, data, ("proven", "refuted", "unknown")[i % 3])
    if data["kind"] == "vector":
        a = [rng.randint(0, 4) for _ in range(data["arity"])]
        b = [rng.randint(0, 4) for _ in range(data["arity"])]
        return a, b
    p = rand_prob(rng)
    q = coarse(rng, p) if data["kind"] == "randomness" and i % 2 else rand_prob(rng, 4)
    return pstr(p), pstr(q)


# -- stochastic maps, combs, circuits --------------------------------------

def ncomb(rng: Random, holes: list[tuple[list[str], list[str]]], outer_dom: list[str],
          outer_cod: list[str], shape: int = 0) -> dict:
    n = len(holes)
    order = list(range(n))
    rng.shuffle(order)
    ancillas = [UNIT if (j + shape) % 2 else names("z", 2) for j in range(n)]
    stages = []
    prev = outer_dom
    for i in range(n):
        dom_i, cod_i = holes[order[i]]
        nxt = tensor_names(dom_i, ancillas[i])
        stages.append(map_dict(prev, nxt, rand_stoch(rng, len(nxt), len(prev))))
        prev = tensor_names(cod_i, ancillas[i])
    stages.append(map_dict(prev, outer_cod, rand_stoch(rng, len(outer_cod), len(prev))))
    return {"holes": [{"dom": d, "cod": c} for d, c in holes], "order": order,
            "stages": stages, "ancillas": ancillas}


def plug_case(rng: Random, i: int) -> dict:
    """An outer comb with 1-2 holes and one inner comb per hole; the slot
    index i fixes the shapes, the seed the stages."""
    outer_holes = [(names("a", 2 + (i + j) % 2), names("b", 2)) for j in range(1 + i % 2)]
    outer = ncomb(rng, outer_holes, names("p", 2), names("q", 2), i)
    inner = []
    for j, (dom, cod) in enumerate(outer_holes):
        h = [(names("c", 2), names("d", 2 + (i + k) % 2)) for k in range(1 + (i // 2 + j) % 2)]
        inner.append(ncomb(rng, h, dom, cod, i + j))
    return {"outer": outer, "inner": inner}


def uc_case(rng: Random, i: int) -> dict:
    """An allocation over two combs and the processes it distributes."""
    n_inputs = 2 + i % 2
    alloc = [0, 1] + [(i // 2) % 2] * (n_inputs - 2)
    rng.shuffle(alloc)
    combs = []
    hole_types = [(names("b", 2), names("b", 2)) for _ in range(n_inputs)]
    for j in (0, 1):
        holes = [hole_types[k] for k in range(n_inputs) if alloc[k] == j]
        combs.append(ncomb(rng, holes, names("b", 2), names("b", 2), i + j))
    procs = [map_dict(d, c, rand_stoch(rng, len(c), len(d))) for d, c in hole_types]
    return {"uc": {"allocation": alloc, "combs": combs}, "processes": procs}


def circuit_case(rng: Random, lib_name: str, i: int) -> dict:
    """A one-hole circuit, its library and a structural description the
    checker evaluates on its own.  The slot index i fixes the wire sizes
    and the layout, the seed the maps."""
    sizes = {"A": 2 + i % 2, "B": 2 + (i // 2) % 2, "Z": 2, "C": 2 + (i // 4) % 2}
    f = rand_stoch(rng, sizes["A"] * sizes["Z"], sizes["A"])
    g = rand_stoch(rng, sizes["C"], sizes["B"] * sizes["Z"])
    lib = {"maps": {"f": {"dom": ["A"], "cod": ["A", "Z"], "free": True,
                          "matrix": [[str(x) for x in r] for r in f]},
                    "g": {"dom": ["B", "Z"], "cod": ["C"], "free": True,
                          "matrix": [[str(x) for x in r] for r in g]}}}
    if i % 3:
        layers = [[["box", "f"]], [["hole", ["A"], ["B"]], ["id", "Z"]], [["box", "g"]]]
    else:
        layers = [[["box", "f"]], [["swap", "A", "Z"]], [["id", "Z"], ["hole", ["A"], ["B"]]],
                  [["swap", "Z", "B"]], [["box", "g"]]]
    lines = ["types: " + ", ".join(f"{k}={v}" for k, v in sizes.items()),
             f"library: lib = {lib_name}", "input: A"]
    for layer in layers:
        items = []
        for it in layer:
            if it[0] == "box":
                items.append(f"{it[1]}[lib]")
            elif it[0] == "id":
                items.append(f"id[{it[1]}]")
            elif it[0] == "swap":
                items.append(f"swap[{it[1]},{it[2]}]")
            else:
                items.append(f"hole h({', '.join(it[1])} -> {', '.join(it[2])})")
        lines.append("layer: " + " ; ".join(items))
    return {"text": "\n".join(lines) + "\n", "library": lib,
            "spec": {"sizes": sizes, "input": ["A"], "layers": layers}}


def simulation_case(rng: Random, i: int) -> dict:
    """Channel, encoder, decoder and shared randomness with matching shapes."""
    n_in, n_out = 2 + i % 2, 2 + (i // 2) % 2
    a_new, b_new = names("u", 2), names("v", 2)
    sa, sb = names("x", 1 + (i // 4) % 2), names("y", 2 - i % 2)
    p_dom, p_cod = names("a", n_in), names("b", n_out)
    e_dom, d_dom = tensor_names(a_new, sa), tensor_names(p_cod, sb)
    joint = rand_stoch(rng, len(sa) * len(sb), 1)
    return {
        "channel": map_dict(p_dom, p_cod, rand_stoch(rng, n_out, n_in)),
        "encoder": map_dict(e_dom, p_dom, rand_stoch(rng, n_in, len(e_dom))),
        "decoder": map_dict(d_dom, b_new, rand_stoch(rng, 2, len(d_dom))),
        "randomness": {"sa": sa, "sb": sb,
                       "joint": [[str(joint[i * len(sb) + j][0]) for j in range(len(sb))]
                                 for i in range(len(sa))]}}


def search_case(rng: Random, variant: str, i: int) -> dict:
    """A (channel, target) pair for the exact-simulation search.

    single: a noiseless channel and a deterministic target (one strategy
    pair suffices); mixture: a noiseless channel and a noisy target (needs
    shared randomness, solved by the simplex); constant: an
    input-independent channel (Refuted); noisy: a noisy channel asked for
    a noiseless target (no strategy).
    """
    n = 3 + i % 2
    t = names("t", 2)
    noiseless = map_dict(names("q", n), names("q", n), [[F1 if i == j else F0 for j in range(n)]
                                                        for i in range(n)])
    if variant == "single":
        return {"channel": noiseless, "target": map_dict(t, t, rand_det(rng, 2, 2))}
    if variant == "mixture":
        target = rand_stoch(rng, 2, 2)
        while all(x in (0, 1) for r in target for x in r):
            target = rand_stoch(rng, 2, 2)
        return {"channel": noiseless, "target": map_dict(t, t, target)}
    if variant == "constant":
        col = rand_stoch(rng, n, 1)
        return {"channel": map_dict(names("q", n), names("q", n), [r * n for r in col]),
                "target": map_dict(t, t, [[F1, F0], [F0, F1]])}
    w = 1 + 2 * (i % 2)
    noisy = [[Fraction(4 - w, 4), Fraction(w, 4)], [Fraction(w, 4), Fraction(4 - w, 4)]]
    return {"channel": map_dict(t, t, noisy), "target": map_dict(t, t, [[F1, F0], [F0, F1]])}


# -- interactive ------------------------------------------------------------

def demo_ops() -> list[dict]:
    """The README demo commands, minus `properties` and rates above caps 4."""
    cmds = [
        (["convert", "food.json", "[2,3]", "[1,1]"], "convert",
         {"theory": "food.json", "a": [2, 3], "b": [1, 1]}),
        (["convert", "haber.json", '{"N2":1,"H2":3}', '{"NH3":2}'], "convert",
         {"theory": "haber.json", "a": {"N2": 1, "H2": 3}, "b": {"NH3": 2}}),
        (["catalyst", "prof.json", "[0,0]", "[1,0]", "--box", "2"], "catalyst",
         {"theory": "prof.json", "a": [0, 0], "b": [1, 0], "box": 2}),
        (["rate", "randomness.json", '["1/4","1/4","1/4","1/4"]', '["1/2","1/2"]', "--caps", "4"],
         "rate", {"theory": "randomness.json", "a": ["1/4"] * 4, "b": ["1/2", "1/2"], "caps": 4}),
        (["monotones", "food.json", "--sample-box", "3"], "monotones",
         {"theory": "food.json", "box": 3}),
        (["hasse", "prof.json", "--box", "2", "--out", "prof.dot"], "hasse",
         {"theory": "prof.json", "box": 2, "out": "prof.dot"}),
        (["normalize-circuit", "sandwich.circ"], "normalize-circuit",
         {"library": "maps.json", "spec": {
             "sizes": {"A": 2, "B": 2, "Z": 2}, "input": ["A"],
             "layers": [[["box", "copy"]], [["hole", ["A"], ["B"]], ["id", "Z"]],
                        [["box", "xor"]]]}}),
        (["check-axioms", "table.json"], "check-axioms", {"theory": "table.json"}),
        (["simulate-channel", "p.json", "--target", "t.json", "--caps", "8"],
         "simulate-channel-search", {"channel": "p.json", "target": "t.json", "caps": 8}),
        (["simulate-channel", "t.json", "--encoder", "e.json", "--decoder", "d.json",
          "--randomness", "r.json"], "simulate-channel-replay",
         {"channel": "t.json", "encoder": "e.json", "decoder": "d.json", "randomness": "r.json"}),
        (["plug", "outer.json", "inner1.json", "--out", "composite.json"], "plug",
         {"outer": "outer.json", "inner": ["inner1.json"]}),
        (["uc-apply", "uc.json", "f1.json", "f2.json"], "uc-apply",
         {"uc": "uc.json", "processes": ["f1.json", "f2.json"]}),
    ]
    return [{"kind": kind, "argv": argv + ["--json"], "meta": dict(meta, demo=True)}
            for argv, kind, meta in cmds]


MALFORMED_KINDS = ("bad-rational", "column-sum", "wrong-arity", "undeclared-name",
                   "unparsable-json", "missing-field", "wrong-type")


def malformed_op(kind: str, j: int, files: dict[str, str], tag: str) -> list[str]:
    """The j-th malformed invocation of the given kind, cycling through its
    variants; writes its own files.  The slice is the same for every seed, so
    a crash on malformed input fails the same ops in every run."""
    good_map = map_dict(["b0", "b1"], ["b0", "b1"], [[F1, F0], [F0, F1]])

    def put(name: str, content) -> str:
        files[f"bad_{tag}_{name}"] = content if isinstance(content, str) else dumps(content)
        return f"bad_{tag}_{name}"

    variants = {
        "bad-rational": [
            lambda: ["convert", put("rnd.json", {"kind": "randomness"}), '["1/0","1"]', '["1"]'],
            lambda: ["uc-apply", "uc.json", put("f.json", dict(good_map, matrix=[["abc", "0"], ["0", "1"]])),
                     "f2.json"],
            lambda: ["simulate-channel", "t.json", "--encoder", "e.json", "--decoder", "d.json",
                     "--randomness", put("r.json", {"sa": ["x0", "x1"], "sb": ["y0", "y1"],
                                                    "joint": [["1//2", "0"], ["0", "1/2"]]})],
        ],
        "column-sum": [
            lambda: ["simulate-channel", put("p.json", dict(good_map, matrix=[["1/2", "0"], ["1/4", "1"]])),
                     "--target", "t.json"],
            lambda: ["uc-apply", "uc.json", "f1.json",
                     put("f.json", dict(good_map, matrix=[["1", "1"], ["1", "0"]]))],
            lambda: ["convert", put("rnd.json", {"kind": "randomness"}), '["1/2","1/3"]', '["1"]'],
        ],
        "wrong-arity": [
            lambda: ["convert", put("vec.json", vector_theory(2, "additive")), "[1,2,3]", "[1,1]"],
            lambda: ["plug", "outer.json", "inner1.json", "inner1.json"],
            lambda: ["uc-apply", "uc.json", "f1.json"],
        ],
        "undeclared-name": [
            lambda: ["convert", "haber.json", '{"Zz":1}', '{"NH3":1}'],
            lambda: ["convert", put("rx.json", {"objects": ["A"], "morphisms": [
                {"name": "r", "from": {"A": 1}, "to": {"Q": 1}}]}), '{"A":1}', '{"A":1}'],
            lambda: ["normalize-circuit", put("c.circ", "types: A=2\ninput: A\nlayer: id[W]\n")],
        ],
        "unparsable-json": [
            lambda: ["convert", put("th.json", '{"kind": "vector", "arity": 2,'), "[1,1]", "[0,0]"],
            lambda: ["convert", "food.json", "[1,", "[0,0]"],
            lambda: ["simulate-channel", put("p.json", '{"dom": ["b0"], "cod": '), "--target", "t.json"],
        ],
        "missing-field": [
            lambda: ["convert", put("vec.json", {"kind": "vector", "arity": 2}), "[1,1]", "[0,0]"],
            lambda: ["convert", put("vec.json", {"kind": "vector", "mode": "additive"}), "[1,1]", "[0,0]"],
            lambda: ["simulate-channel", "t.json", "--encoder", "e.json", "--decoder", "d.json",
                     "--randomness", put("r.json", {"sb": ["y0", "y1"],
                                                    "joint": [["1/2", "0"], ["0", "1/2"]]})],
            lambda: ["simulate-channel", put("p.json", {"cod": ["b0"], "matrix": [["1"]]}),
                     "--target", "t.json"],
            lambda: ["check-axioms", put("tab.json", {"carrier": 1, "combine": [[0]], "geq": [[1]]})],
            lambda: ["convert", put("rx.json", {"objects": ["A"], "morphisms": [
                {"name": "r", "from": {"A": 1}}]}), '{"A":1}', '{"A":1}'],
        ],
        "wrong-type": [
            lambda: ["simulate-channel", put("p.json", dict(good_map, matrix=5)), "--target", "t.json"],
            lambda: ["convert", put("vec.json", {"kind": "vector", "arity": "two", "mode": "additive"}),
                     "[1,1]", "[0,0]"],
            lambda: ["check-axioms", put("tab.json", {"carrier": [2], "combine": [[0]], "zero": 0,
                                                      "geq": [[1]]})],
        ],
    }
    return variants[kind][j % len(variants[kind])]()


# every variant of every kind at least once, and the same count per kind
MALFORMED_PER_KIND = 6


INTERACTIVE_COUNTS = {"convert-per-theory": 22, "catalyst": 10, "rate": 8, "monotones": 8,
                      "hasse": 8, "check-axioms": 8, "simulate-channel-replay": 6,
                      "simulate-channel-search": 6, "normalize-circuit": 6, "plug": 6,
                      "uc-apply": 6, "malformed-per-kind": MALFORMED_PER_KIND}
# Slots fix everything that sets an op's cost or answer class (arities,
# sizes, which file an op uses); the seed fills in terms, maps and rules.
VECTOR_SLOTS = [(1, "additive"), (2, "supremal"), (2, "additive"), (3, "supremal")]
MONOTONE_SLOTS = [("vec0", 3, False), ("vec1", 3, False), ("vec2", 3, True), ("vec3", 1, False),
                  ("rnd", 2, False), ("vec1", 3, True), ("vec0", 3, True), ("rnd", 2, False)]
SEARCH_VARIANTS = ["single", "mixture", "mixture", "single", "constant", "noisy"]


def interactive(seed: int, demo_dir: Path) -> tuple[dict[str, str], list[dict]]:
    rng = Random(f"interactive:{seed}")
    files = {name: (demo_dir / name).read_text() for name in DEMO_FILES}
    ops = demo_ops()
    c = INTERACTIVE_COUNTS

    def add(name: str, data) -> str:
        files[name] = data if isinstance(data, str) else dumps(data)
        return name

    def cli(kind: str, argv: list[str], **meta) -> None:
        ops.append({"kind": kind, "argv": argv, "meta": meta})

    theories = {
        "vector": [add(f"vec{i}.json", vector_theory(arity, mode, mode))
                   for i, (arity, mode) in enumerate(VECTOR_SLOTS)],
        "randomness": [add("rnd.json", {"kind": "randomness",
                                        "monotones": [{"name": "entropy", "class": "additive"}]})],
        "entanglement": [add("ent.json", {"kind": "entanglement"})],
        "table": [add(f"tab{i}.json", table_theory(rng, size)) for i, size in enumerate((3, 4, 5, 6))],
        "reaction": [add(f"rxn{i}.json", classy_network(rng, ns, nr))
                     for i, (ns, nr) in enumerate(((3, 1), (3, 2), (4, 2)))] + [add("haber2.json", HABER)]}
    data = {name: json.loads(files[name]) for names_ in theories.values() for name in names_}

    for tnames in theories.values():
        for i in range(c["convert-per-theory"]):
            th = tnames[i % len(tnames)]
            a, b = term_for(rng, data[th], i // len(tnames))
            cli("convert", ["convert", th, json.dumps(a), json.dumps(b)], theory=th, a=a, b=b)

    cat_pool = theories["vector"] + theories["table"] + theories["reaction"]
    for i in range(c["catalyst"]):
        th = cat_pool[i % len(cat_pool)]
        # reaction pairs separated by a conserved quantity: the search then runs to the end
        a, b = term_for(rng, data[th], 1)
        box = 1 if "objects" in data[th] else 2
        cli("catalyst", ["catalyst", th, json.dumps(a), json.dumps(b), "--box", str(box)],
            theory=th, a=a, b=b, box=box)

    for i in range(c["rate"]):
        if i % 2:
            th = theories["vector"][(i // 2) % 2 * 2]
            a, b = term_for(rng, data[th])
            a, b = [x + 1 for x in a], [x + 1 for x in b]
        else:
            th = "rnd.json"
            sa, sb = RATE_CHEAP[(i // 2) % len(RATE_CHEAP)]
            a, b = RATE_PAIRS[sa][:], RATE_PAIRS[sb][:]
            rng.shuffle(a)
        caps = 2 + (i // 2) % 3
        cli("rate", ["rate", th, json.dumps(a), json.dumps(b), "--caps", str(caps)],
            theory=th, a=a, b=b, caps=caps)

    for i, (stem, box, misdeclared) in enumerate(MONOTONE_SLOTS):
        th = f"{stem}.json"
        if misdeclared:
            # one law declared wrongly, which classify must refute
            wrong = dict(data[th])
            wrong["monotones"] = [{"name": "component:0", "class": "supremal"
                                   if wrong["mode"] == "additive" else "additive"}]
            th = add(f"mono{i}.json", wrong)
        cli("monotones", ["monotones", th, "--sample-box", str(box)], theory=th, box=box)

    hasse_pool = [t for t in theories["vector"] if data[t]["arity"] <= 2] + theories["table"]
    for i in range(c["hasse"]):
        th, box, out = hasse_pool[i % len(hasse_pool)], 1 + i % 2, f"hasse{i}.dot"
        cli("hasse", ["hasse", th, "--box", str(box), "--out", out], theory=th, box=box, out=out)

    for i in range(c["check-axioms"]):
        th = add(f"axioms{i}.json", (broken_table if i % 2 else table_theory)(rng, 2 + i % 4))
        cli("check-axioms", ["check-axioms", th], theory=th)

    for i in range(c["simulate-channel-replay"]):
        meta = {k: add(f"sim{i}_{k}.json", v) for k, v in simulation_case(rng, i).items()}
        cli("simulate-channel-replay",
            ["simulate-channel", meta["channel"], "--encoder", meta["encoder"],
             "--decoder", meta["decoder"], "--randomness", meta["randomness"]], **meta)

    for i in range(c["simulate-channel-search"]):
        case = search_case(rng, SEARCH_VARIANTS[i % len(SEARCH_VARIANTS)], i)
        meta = {k: add(f"search{i}_{k}.json", v) for k, v in case.items()}
        cli("simulate-channel-search", ["simulate-channel", meta["channel"], "--target",
                                        meta["target"], "--caps", "8"], caps=8, **meta)

    for i in range(c["normalize-circuit"]):
        lib = f"lib{i}.json"
        case = circuit_case(rng, lib, i)
        add(lib, case["library"])
        circ = add(f"circ{i}.circ", case["text"])
        cli("normalize-circuit", ["normalize-circuit", circ, "--seed", str(i)],
            library=lib, spec=case["spec"])

    for i in range(c["plug"]):
        case = plug_case(rng, i)
        outer = add(f"plug{i}_outer.json", case["outer"])
        inner = [add(f"plug{i}_inner{j}.json", x) for j, x in enumerate(case["inner"])]
        cli("plug", ["plug", outer, *inner, "--out", f"plug{i}_out.json"], outer=outer, inner=inner)

    for i in range(c["uc-apply"]):
        case = uc_case(rng, i)
        uc = add(f"uc{i}.json", case["uc"])
        procs = [add(f"uc{i}_f{j}.json", p) for j, p in enumerate(case["processes"])]
        cli("uc-apply", ["uc-apply", uc, *procs], uc=uc, processes=procs)

    for kind in MALFORMED_KINDS:
        for j in range(c["malformed-per-kind"]):
            cli("malformed", malformed_op(kind, j, files, f"{kind}{j}"), malformed=kind)

    for op in ops:
        if op["argv"][-1] != "--json":
            op["argv"].append("--json")
    rng.shuffle(ops)
    return files, ops


# -- analyzers --------------------------------------------------------------

CHECKS = ("check_quality_like", "check_quantity_like", "check_non_interacting",
          "check_waste_free", "check_catalysis_free")
# Rounds are kept near two seconds so that a run repeats every op often
# enough for its fastest repeat to be undisturbed; the checks that take most
# of a second (quantity-like at box 3, non-interacting on haber at box 2)
# are therefore left out.
VECTOR_TEMPLATES = [(1, 4, "additive"), (1, 4, "supremal"), (2, 2, "additive"),
                    (2, 2, "supremal"), (3, 1, "additive"), (3, 1, "supremal")]
NETWORK_SHAPES = [(3, 1), (3, 2), (4, 1), (4, 2), (3, 2), (4, 2)]
# (caps, source, target): every round scans the same pairs; the seed permutes entries.
RATE_OPS = [(5, "d3", "u4"), (5, "u2", "u4"), (6, "u2", "u4")]


def analyzers(seed: int, demo_dir: Path) -> tuple[dict[str, str], list[dict]]:
    """Library calls over shared samples.  Vector theories, the reaction
    networks and the rate pairs are fixed templates; random tables,
    monotones, catalyst queries and the order are seeded within fixed shapes."""
    rng = Random(f"analyzers:{seed}")
    haber = json.loads((demo_dir / "haber.json").read_text())
    ops: list[dict] = []
    for arity, box, mode in VECTOR_TEMPLATES:
        for check in CHECKS:
            ops.append({"kind": check, "theory": vector_theory(arity, mode), "box": box})
    for check in CHECKS:
        ops.append({"kind": check, "theory": haber, "box": 1})
    for check in ("check_quality_like", "check_waste_free", "check_catalysis_free"):
        ops.append({"kind": check, "theory": haber, "box": 2})
    # The networks are the same for every seed: their checks take a third of
    # the round, and seeded networks moved the round's time by a fifth.
    fixed = Random("analyzers:networks")
    for ns, nr in NETWORK_SHAPES:
        net = reaction_theory(fixed, ns, nr)
        for check in CHECKS:
            ops.append({"kind": check, "theory": net, "box": 1})
    # Many cheap seeded ops make the latency distribution dense around its
    # median, so the median does not jump with the seed.
    for i in range(80):
        ops.append({"kind": "cross_check_theorems", "table_seed": rng.randrange(10**9),
                    "size": 3 + i % 4, "density": (0.0, 0.05, 0.1, 0.2, 0.35)[i // 4 % 5]})
    for i in range(12):
        for kind in ("verify_monotone", "classify"):
            if i % 4 == 3:
                ops.append({"kind": kind, "theory": {"kind": "randomness"},
                            "monotone": {"name": "entropy", "class": "additive"}, "box": 3})
                continue
            arity, mode = 1 + i % 2, ("additive", "supremal")[i // 2 % 2]
            declared = ("additive", "supremal")[(i + (kind == "classify")) % 2]
            ops.append({"kind": kind, "theory": vector_theory(arity, mode),
                        "monotone": {"name": f"component:{rng.randrange(arity)}", "class": declared},
                        "box": 3})
    for i in range(16):
        th = (vector_theory(2, ("supremal", "additive")[i % 2]) if i % 4 < 2
              else classy_network(rng, 3, 2) if i % 4 == 2 else table_theory(rng, 5))
        a, b = term_for(rng, th, 1)
        ops.append({"kind": "find_catalyst", "theory": th, "a": a, "b": b,
                    "box": 1 if "objects" in th else 3})
    for caps, sa, sb in RATE_OPS:
        a = RATE_PAIRS[sa][:]
        rng.shuffle(a)
        ops.append({"kind": "rate", "theory": {"kind": "randomness"}, "a": a,
                    "b": RATE_PAIRS[sb][:], "caps": caps,
                    "monotones": [{"name": "entropy", "class": "additive"}]})
    rng.shuffle(ops)
    return {}, ops



# -- channels ---------------------------------------------------------------

def prob_states(max_len: int, max_den: int) -> list[list[Fraction]]:
    """Distributions of length <= max_len with a common denominator
    <= max_den, deduplicated, in a fixed order (the criterion-5 targets)."""
    seen: dict[tuple, None] = {}
    for n in range(1, max_len + 1):
        for den in range(1, max_den + 1):
            for comp in itertools.product(range(den + 1), repeat=n):
                if sum(comp) == den:
                    seen.setdefault(tuple(Fraction(k, den) for k in comp))
    return [list(p) for p in seen]


def channels(seed: int, demo_dir: Path) -> tuple[dict[str, str], list[dict]]:
    rng = Random(f"channels:{seed}")
    ops: list[dict] = []
    # Start states with exactly three nonzero entries keep the closure size,
    # and so the op's cost, about the same whatever the seed picks.
    for max_n, depth, count in ((3, 3, 12), (4, 2, 1)):
        pool = [p for p in prob_states(max_n, 4) if len(p) == max_n
                and sum(1 for x in p if x) == 3 and all((4 * x).denominator == 1 for x in p)]
        for _ in range(count):
            ops.append({"kind": "search_free_transformation_batch", "max_n": max_n,
                        "depth": depth, "start": pstr(rng.choice(pool))})
    for variant, count in (("single", 20), ("mixture", 28), ("constant", 6), ("noisy", 6)):
        for i in range(count):
            ops.append(dict(search_case(rng, variant, i), kind="search_exact_simulation",
                            variant=variant, caps=8))
    for i in range(24):
        case = circuit_case(rng, "lib.json", i)
        na, nb = case["spec"]["sizes"]["A"], case["spec"]["sizes"]["B"]
        procs = [map_dict(names("A", na), names("B", nb), rand_stoch(rng, nb, na))
                 for _ in range(3)]
        ops.append({"kind": "normalize_to_comb", "text": case["text"],
                    "library": case["library"], "spec": case["spec"], "processes": procs})
    # Fixed ancilla sizes per law keep each law's cost independent of the seed.
    for law, count, ancillas in (("seq-assoc", 16, (2, 1, 2, 1)), ("interchange", 2, (1, 2, 2, 1)),
                                 ("seq-unit", 16, (2, 1, 1, 1))):
        for _ in range(count):
            ops.append({"kind": "comb_law", "law": law,
                        "combs": [one_comb(rng, z) for z in ancillas]})
    for i in range(48):
        case = plug_case(rng, i)
        fs = [map_dict(h["dom"], h["cod"], rand_stoch(rng, len(h["cod"]), len(h["dom"])))
              for inner in case["inner"] for h in inner["holes"]]
        other = ncomb(rng, [(names("b", 2), names("b", 2))], names("b", 2), names("b", 2), i)
        other_f = map_dict(names("b", 2), names("b", 2), rand_stoch(rng, 2, 2))
        ops.append({"kind": "plug_ncombs", "outer": case["outer"], "inner": case["inner"],
                    "processes": fs, "other": other, "other_process": other_f})
    rng.shuffle(ops)
    return {}, ops


def one_comb(rng: Random, ancilla: int) -> dict:
    """A one-hole comb on a 2-symbol hole with 2-symbol outer wires; equal
    hole and outer types let the law ops chain and nest combs."""
    b = names("b", 2)
    z = UNIT if ancilla == 1 else names("z", ancilla)
    pre_cod, post_dom = tensor_names(b, z), tensor_names(b, z)
    return {"ancilla": z, "hole_dom": b, "hole_cod": b,
            "pre": map_dict(b, pre_cod, rand_stoch(rng, len(pre_cod), 2)),
            "post": map_dict(post_dom, b, rand_stoch(rng, 2, len(post_dom)))}


GENERATORS = {"interactive": interactive, "analyzers": analyzers, "channels": channels}


def inputs_digest(files: dict[str, str], ops: list[dict]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    h.update(json.dumps(ops, sort_keys=True, default=str).encode())
    return h.hexdigest()

