"""One workload in one fresh process: set up, run whole rounds of ops in a
closed loop (one client, single-threaded) for the given time, check every
answer, and print one JSON record as the last line of standard output.

Run by run.py; `python3 perfbench/worker.py --help` lists the options.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import check
import gen
from exact import mm
import ops as ops_mod
from spans import Tracer

OUT_DIR = ".perfbench_out"
# Time of `reference()` on the host the bounds were set on (2-core x86-64
# sandbox, Python 3.11.7).  Every timing is scaled by this over the
# reference's time measured next to it, which cancels the host's slow spells.
REFERENCE_S = 0.0027
REFERENCE_EVERY = 20  # ops between reference runs; each scales the ops after it
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(per_round: int) -> float:
    """Highest ladder percentile leaving at least 10 ops of one round beyond
    it.  Every round repeats the same ops, so basing the choice on the
    round keeps it independent of how many rounds fit in the run."""
    return next((p for p in TAIL_LADDER if per_round * (1 - p / 100) >= 10), 50.0)


def percentile(values: list[float], p: float) -> float:
    s = sorted(values)
    k = max(0, min(len(s) - 1, math.ceil(p / 100 * len(s)) - 1))
    return s[k]


def import_program(root: Path):
    src = root / "src"
    if not (src / "resconv" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'resconv'} not found; run from the repository root")
    sys.path.insert(0, str(src))
    import resconv
    from resconv import (analysis, circuits, cli, combs, core, hasse, instances,  # noqa: F401
                         jsonio, linalg, monotones, presentation, stoch)
    if Path(resconv.__file__).resolve().parent != (src / "resconv").resolve():
        raise SystemExit(f"error: imported resconv from {resconv.__file__}, not {src}")
    return resconv


class Files:
    """Read access to the interactive workload's files, for the checker."""

    def __init__(self, base: Path):
        self.base = base
        self._json: dict[str, object] = {}

    def json(self, name: str):
        if name not in self._json:
            self._json[name] = json.loads((self.base / name).read_text())
        return self._json[name]

    def text(self, name: str) -> str:
        return (self.base / name).read_text()


def plant(kind: str, op_list: list[dict], outputs: list) -> None:
    """Corrupt one answer after the fact, to prove the checker catches it:
    flip a definite verdict, or point a witness at the wrong term."""
    for i, op in enumerate(op_list):
        if op["kind"] != "convert" or not op["meta"]["theory"].startswith("vec"):
            continue
        payload = json.loads(outputs[i]["stdout"])
        if kind == "wrong-verdict" and payload["verdict"] == "Refuted":
            payload["verdict"] = "Proven"
        elif kind == "bad-witness" and payload["verdict"] == "Proven":
            payload["witness"][1] = [x + 1 for x in payload["witness"][1]]
        else:
            continue
        outputs[i] = dict(outputs[i], stdout=json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    raise SystemExit(f"error: nothing to plant {kind!r} on")


REFERENCE_DOC = json.dumps({"dom": [f"a{i}" for i in range(6)],
                            "matrix": [[f"{i}/{j + 7}" for i in range(6)] for j in range(6)]})


def reference() -> int:
    """A fixed pure-Python load with the program's mix of work (Fraction
    matrix products, tuple and dict churn over a small sample, JSON
    parsing), used to gauge the host's current speed.  It is not resconv
    code, so no change to the program moves it."""
    m = [[Fraction(i + 1, j + 2) for j in range(5)] for i in range(5)]
    for _ in range(3):
        m = mm(m, m)
        m = [[x / (1 + x) for x in row] for row in m]
    sample = [(a, b) for a in range(5) for b in range(5)]
    seen: dict = {}
    for x in sample:
        for y in sample:
            z = tuple(p + q for p, q in zip(x, y))
            seen[z] = seen.get(z, 0) + (x >= y)
    doc = json.loads(REFERENCE_DOC)
    return len(seen) + len(doc["matrix"]) + m[0][0].denominator % 7


def reference_time() -> float:
    t = time.perf_counter()
    reference()
    return time.perf_counter() - t


def run_rounds(execute, op_list, seconds: float, rounds: int | None, first, tracer=None):
    """Run whole rounds until `seconds` have passed (or exactly `rounds`).

    Returns the latencies of each round, the reference kernel's times
    (interleaved with the ops, outside their timing), and per-op counts of
    answers that differ from round one.
    """
    lats: list[list[float]] = []
    refs: list[list[float]] = []
    mismatch = [0] * len(op_list)
    perf = time.perf_counter
    start = perf()
    while True:
        lat: list[float] = []
        ref: list[float] = []
        for i, op in enumerate(op_list):
            if i % REFERENCE_EVERY == 0:
                ref.append(reference_time())
            if tracer is not None:
                tracer.op_id = i
            t = perf()
            try:
                out = execute(op)
            except Exception as exc:  # a raising op is a failed op, not a crash
                out = {"raised": f"{type(exc).__name__}: {exc}"}
            lat.append(perf() - t)
            c = ops_mod.canon(out)
            h = hashlib.sha256(json.dumps(c, sort_keys=True).encode()).hexdigest()
            if len(first) <= i:
                first.append([c, h])
            elif first[i][1] != h:
                mismatch[i] += 1
        lats.append(lat)
        refs.append(ref)
        if len(lats) == rounds or (rounds is None and perf() - start >= seconds):
            return lats, refs, mismatch


def per_op(lats: list[list[float]], refs: list[list[float]] | None = None) -> list[float]:
    """Each op's latency: its median over the rounds, after scaling each
    repeat by REFERENCE_S over the reference run just before its block.

    On a shared host the same loop runs up to 1.8 times slower for spells
    of seconds to minutes.  Scaling each block by the reference timed next
    to it follows those spells, and the median over the rounds drops the
    repeats whose reference sample was itself disturbed.  Without `refs`
    the figures are unscaled."""
    if refs is not None:
        lats = [[t * REFERENCE_S / ref[i // REFERENCE_EVERY] for i, t in enumerate(lat)]
                for lat, ref in zip(lats, refs)]
    return [statistics.median(col) for col in zip(*lats)]


def kind_time(op_list: list[dict], lat: list[float]) -> Counter:
    """Latency per op kind in one round."""
    total: Counter = Counter()
    for op, t in zip(op_list, lat):
        total[op["kind"]] += t
    return total


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, help="time.monotonic() when the parent spawned us")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--round-ops", type=int, help="truncate the round (self-test only)")
    ap.add_argument("--plant", choices=("wrong-verdict", "bad-witness"))
    args = ap.parse_args()
    t0 = args.t0 if args.t0 is not None else time.monotonic()
    # a terminated worker still removes its temporary directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()

    package = import_program(root)
    files, op_list = gen.GENERATORS[args.workload](args.seed, root / "demo")
    if args.round_ops:
        op_list = op_list[:args.round_ops]
    if args.workload == "analyzers":
        ops_mod.materialize_tables(package, op_list)
    inputs_digest = gen.inputs_digest(files, op_list)
    execute = functools.partial(ops_mod.EXECUTORS[args.workload], package)

    tmp = root / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        if files:
            tmp.mkdir(parents=True)
            for name, text in files.items():
                (tmp / name).write_text(text)
            os.chdir(tmp)
        # warm-up: one op, so lazily built state is not charged to the first timed op
        execute(op_list[0])
        setup_raw = time.monotonic() - t0
        setup_s = setup_raw * REFERENCE_S / statistics.median(reference_time() for _ in range(5))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
            return
        record = measure(args, op_list, execute, tmp, root)
    finally:
        os.chdir(root)
        shutil.rmtree(tmp, ignore_errors=True)
    record.update(setup_s=setup_s, setup_raw_s=setup_raw, inputs_digest=inputs_digest,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(record))


def measure(args, op_list: list[dict], execute, tmp: Path, root: Path) -> dict:
    first: list = []
    seconds = args.seconds / 2 if args.trace else args.seconds
    lats, refs, mismatch = run_rounds(execute, op_list, seconds, None, first)
    rounds = len(lats)
    record: dict = {}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            t_lats, t_refs, t_mismatch = run_rounds(execute, op_list, 0, rounds, first, tracer)
        finally:
            tracer.uninstall()
        mismatch = [a + b for a, b in zip(mismatch, t_mismatch)]
        layer = tracer.metrics()
        layer["trace.overhead_frac"] = (1 - sum(per_op(lats, refs)) / sum(per_op(t_lats, t_refs)),
                                        "ratio")
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        record["absent"] = tracer.absent
        spans = root / OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans)
        record["spans_file"] = str(spans.relative_to(root))
        rounds *= 2

    outputs = [c for c, _ in first]
    if args.plant:
        plant(args.plant, op_list, outputs)
    ctx = Files(tmp)
    failures: Counter = Counter()
    failed = decisions = unknowns = 0
    digest = hashlib.sha256()
    for i, op in enumerate(op_list):
        digest.update(first[i][1].encode())
        try:
            fails, n, u = check.check(args.workload, op, outputs[i], ctx)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            # an answer the checker cannot read is not a right answer
            fails, n, u = [f"unreadable-answer ({type(exc).__name__})"], 0, 0
        decisions += n
        unknowns += u
        # Every round replays the same ops, so an op is counted once: it
        # fails if its answer is wrong or differs in any later round.  The
        # counts then do not depend on how many rounds fit in the run.
        if fails:
            failed += 1
            for label in set(fails):
                failures[f"{op['kind']}:{label}" if not label.startswith("malformed:") else label] += 1
        elif mismatch[i]:
            failed += 1
            failures[f"{op['kind']}:nondeterministic"] += 1
    attempted = len(op_list)
    p_tail = tail_percentile(len(op_list))
    speed = REFERENCE_S / statistics.median(t for ref in refs for t in ref)
    raw = per_op(lats)
    lat = per_op(lats, refs)
    record.update(
        workload=args.workload, seed=args.seed, rounds=rounds, ops_per_round=len(op_list),
        attempted=attempted, failed=failed,
        correct=not any(not k.startswith("malformed:") for k in failures),
        failures_by_kind=dict(sorted(failures.items())), digest=digest.hexdigest(),
        op_kinds=dict(sorted(Counter(op["kind"] for op in op_list).items())),
        kind_s_per_round={k: round(v, 4) for k, v in sorted(kind_time(op_list, lat).items())},
        host_speed=speed,
        raw={"ops_per_s": len(op_list) / sum(raw), "op_p50_ms": statistics.median(raw) * 1000,
             "op_tail_ms": percentile(raw, p_tail) * 1000},
        ops_per_s=len(op_list) / sum(lat),
        op_p50_ms=statistics.median(lat) * 1000,
        op_tail_ms=percentile(lat, p_tail) * 1000, tail_percentile=p_tail,
        timed_ops=len(op_list) * len(lats),
        failed_frac=failed / attempted,
        unknown_frac=unknowns / decisions if decisions else 0.0)
    return record


if __name__ == "__main__":
    main()
