"""One round of each benchmark workload gives the published output digests.

`perfbench/` is read, never changed: its generator builds the round at
seed 21, its executors run each op through the package and its checker
replays every answer.  The digest is the one `perfbench/worker.py`
reports: a sha256 over each op's sha256 of `json.dumps(canon(out),
sort_keys=True)`.  A change that alters output on purpose updates the
constants below and says so.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import resconv
from resconv import (analysis, circuits, cli, combs, jsonio, monotones,  # noqa: F401
                     stoch)

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import check as bench_check  # noqa: E402
import gen as bench_gen  # noqa: E402
import ops as bench_ops  # noqa: E402
from worker import Files  # noqa: E402

SEED = 21
DIGESTS = {
    "interactive": "5dab1c529dbd8f0905807bf3be9463dc34b275113a491c08d16a9686004a0649",
    "analyzers": "fd4bf75661d37e394f891ce058d45f8844099bc55312dfe678572964e56f50c9",
    "channels": "750b21ccf31e9493b5002e8b2c21a2f8cec98fbf6a5c94b5b9f4818267d68773",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_one_round_matches_the_published_digest(workload, tmp_path, monkeypatch):
    inputs, op_list = bench_gen.GENERATORS[workload](SEED, ROOT / "demo")
    if workload == "analyzers":
        bench_ops.materialize_tables(resconv, op_list)
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    execute = bench_ops.EXECUTORS[workload]
    ctx = Files(tmp_path)
    digest = hashlib.sha256()
    failures = []
    for op in op_list:
        out = bench_ops.canon(execute(resconv, op))
        digest.update(hashlib.sha256(json.dumps(out, sort_keys=True).encode())
                      .hexdigest().encode())
        fails, _, _ = bench_check.check(workload, op, out, ctx)
        failures += [f"{op['kind']}:{label}" for label in fails]
    assert failures == []
    assert digest.hexdigest() == DIGESTS[workload]
