"""Quick self-test of the benchmark, run by `python3 perfbench/run.py --selftest`.

Checks, on short truncated rounds:
  - every end-to-end and per-layer metric is produced, with its unit;
  - a planted wrong verdict and a planted bad witness both raise failed;
  - two seeds fail the same ops out of the same number attempted;
  - the same seed generates byte-identical inputs;
  - a second seed keeps the same op-kind proportions.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter

import gen
import run

SEED = 11
ROUND_OPS = ["--round-ops", "30"]


def main(root, run_workload, spec: dict) -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    e2e = [m["name"] for m in spec["end_to_end"]]
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in run.WORKLOADS:
        for trace in (0, 1):
            record = run_workload(root, w, SEED, 0.1, trace, ROUND_OPS)
            if trace:
                got = {k: v for k, v in record["per_layer"].items() if k in layer_units}
                units_ok = all(got[k]["unit"] == u for k, u in layer_units.items() if k in got)
                metrics = got
                names = list(layer_units)
            else:
                metrics = run.end_to_end(record, e2e + list(run.EXTRA))
                units_ok = all(m["unit"] for m in metrics.values())
                names = e2e + list(run.EXTRA)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                run.report(record, metrics)
                print(run.result_line(record, metrics))
            printed = buf.getvalue()
            last = json.loads(printed.strip().splitlines()[-1])
            shown = all(f"{n} " in printed for n in names) and set(last["metrics"]) == set(names)
            expect(shown and units_ok, f"{w} trace={trace}: {len(names)} metrics printed with units")

    base = run_workload(root, "interactive", SEED, 0.1, 0)
    for kind in ("wrong-verdict", "bad-witness"):
        planted = run_workload(root, "interactive", SEED, 0.1, 0, ["--plant", kind])
        caught = planted["failed_frac"] > base["failed_frac"] and not planted["correct"]
        expect(caught, f"planted {kind} raises failed_frac "
                       f"({base['failed_frac']:.4f} -> {planted['failed_frac']:.4f})")
    expect(base["correct"] and all(k.startswith("malformed:") for k in base["failures_by_kind"]),
           f"unplanted interactive run fails only on malformed input: {base['failures_by_kind']}")
    other = run_workload(root, "interactive", SEED + 1, 0.1, 0)
    expect((other["attempted"], other["failures_by_kind"]) == (base["attempted"], base["failures_by_kind"]),
           f"seeds {SEED} and {SEED + 1} fail the same malformed ops "
           f"({base['failed']} and {other['failed']} of {base['attempted']})")
    expect(planted["inputs_digest"] == base["inputs_digest"],
           "workers given the same seed report identical inputs")

    for w, make in gen.GENERATORS.items():
        a = gen.inputs_digest(*make(SEED, root / "demo"))
        b = gen.inputs_digest(*make(SEED, root / "demo"))
        expect(a == b, f"{w}: same seed, byte-identical inputs")
        kinds = [Counter(op["kind"] for op in make(s, root / "demo")[1]) for s in (SEED, SEED + 1)]
        expect(kinds[0] == kinds[1], f"{w}: seeds {SEED} and {SEED + 1} keep op-kind proportions")

    print("selftest:", "ok" if not failures else f"{len(failures)} failed")
    return 1 if failures else 0
