"""resconv benchmark: three seeded workloads, timed end to end and per module.

    python3 perfbench/run.py                      # all workloads, summary table
    python3 perfbench/run.py --workload channels --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  Each workload runs in fresh processes
(worker.py): a few set-up-only processes give the median set-up time, then
one process runs the closed loop and checks every answer.  With --trace 1
the worker also runs the same rounds with span recorders installed and
reports per-module metrics instead.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("interactive", "analyzers", "channels")
SETUP_PROBES = 8
CHILD_TIMEOUT = 170
# Metrics shown next to the end-to-end ones.  failed_frac is carried in the
# result line by `failed`/`attempted` (ops of one round); it is 0 on some
# workloads, so it is not a gated metric.
EXTRA = ("failed_frac",)
UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "unknown_frac": "ratio", "peak_rss_mb": "MB", "failed_frac": "ratio"}


def spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text()) \
        if (HERE.parent / "BENCHMARK.json").is_file() else {}


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def provenance(root: Path, seed: int) -> dict:
    return {"python": sys.version.split()[0], "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "seed": seed, "commit": git_commit(root)}


def worker(root: Path, args: list[str]) -> dict:
    """Run worker.py in a fresh process and return its JSON record."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)],
                            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    finally:
        # a worker killed before its own clean-up leaves its directory behind
        shutil.rmtree(root / ".perfbench_tmp" / f"{args[1]}-{proc.pid}", ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / ".perfbench_tmp").rmdir()
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"error: worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int,
                 extra: list[str] = ()) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), *extra]
    record = worker(root, base + ["--trace", str(trace)])
    if not trace:
        probes = [worker(root, base + ["--setup-only"]) for _ in range(SETUP_PROBES)]
        record["setup_samples_s"] = [p["setup_s"] for p in probes] + [record["setup_s"]]
        record["setup_raw_samples_s"] = [p["setup_raw_s"] for p in probes] + [record["setup_raw_s"]]
        record["setup_s"] = statistics.median(record["setup_samples_s"])
    record["provenance"] = provenance(root, seed)
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def end_to_end(record: dict, names: list[str]) -> dict:
    return {n: {"value": record[n], "unit": UNITS[n]} for n in names}


def report(record: dict, metrics: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    p = record["provenance"]
    print(f"# {record['workload']} seed={p['seed']} commit={p['commit']} python={p['python']} "
          f"platform={p['platform']} nproc={p['nproc']}")
    print(f"# rounds={record['rounds']} ops/round={record['ops_per_round']} "
          f"attempted={record['attempted']} failed={record['failed']} digest={record['digest']}")
    for name, m in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{record['tail_percentile']:g} of {record['ops_per_round']} per-op medians"
                    f" over {record['rounds']} rounds, {record['timed_ops']} timed ops)")
        print(f"{name:64s} {m['value']:.6g} {m['unit']}{note}")
    if "setup_raw_samples_s" in record:
        raw = record["raw"]
        print(f"# timings above are scaled by host speed {record['host_speed']:.4f}; raw: "
              f"ops_per_s {raw['ops_per_s']:.6g}, op_p50_ms {raw['op_p50_ms']:.6g}, "
              f"op_tail_ms {raw['op_tail_ms']:.6g}, setup_s "
              f"{statistics.median(record['setup_raw_samples_s']):.6g}")
    for kind, n in record["failures_by_kind"].items():
        print(f"# failure {kind}: {n}")
    for name in record.get("absent", []):
        print(f"# absent {name}: the traced function no longer exists")


def result_line(record: dict, metrics: dict) -> str:
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def run_all(root: Path, seed: int, seconds: float) -> None:
    names = [m["name"] for m in spec().get("end_to_end", [])] or list(UNITS)
    names += [n for n in EXTRA if n not in names]
    rows = {w: run_workload(root, w, seed, seconds, 0) for w in WORKLOADS}
    print(f"{'metric':16s} {'unit':6s} " + " ".join(f"{w:>14s}" for w in WORKLOADS))
    for n in names:
        print(f"{n:16s} {UNITS[n]:6s} " + " ".join(f"{rows[w][n]:14.6g}" for w in WORKLOADS))
    for w in WORKLOADS:
        r = rows[w]
        print(f"# {w}: p{r['tail_percentile']:g} tail of {r['ops_per_round']} per-op medians, "
              f"{r['timed_ops']} timed ops; "
              f"failures {r['failures_by_kind'] or 'none'}; digest {r['digest']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec().get("run_seconds", 20))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    root = Path.cwd()
    if not (root / "src" / "resconv" / "__init__.py").is_file() or not (root / "demo").is_dir():
        print("error: run from the repository root (src/resconv and demo/ are needed)",
              file=sys.stderr)
        return 2
    if args.selftest:
        import selftest
        return selftest.main(root, run_workload, spec())
    if args.workload is None:
        run_all(root, args.seed, args.seconds)
        return 0
    record = run_workload(root, args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        metrics = record["per_layer"]
        names = [m["name"] for m in spec().get("per_layer", [])] or list(metrics)
        metrics = {n: metrics[n] for n in names}
    else:
        names = [m["name"] for m in spec().get("end_to_end", [])] or list(UNITS)
        metrics = end_to_end(record, names)
    report(record, metrics if args.trace else dict(metrics, **end_to_end(record, list(EXTRA))))
    print(result_line(record, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
