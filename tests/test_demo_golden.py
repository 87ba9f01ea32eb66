"""Byte-for-byte goldens of the README demo commands with `--json`.

Each command runs through `cli.run` inside a temporary copy of `demo/`;
its stdout, its exit code and any file it writes with `--out` must match
the files under `tests/golden/`.  To regenerate them after an intended
output change, run `PYTHONPATH=src python tests/test_demo_golden.py`.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from resconv.cli import run

TESTS = Path(__file__).resolve().parent
DEMO = TESTS.parent / "demo"
GOLDEN = TESTS / "golden"

# (id, argv without --json, file written by --out or None); README order.
DEMOS = [
    ("convert-food", ["convert", "food.json", "[2,3]", "[1,1]"], None),
    ("convert-haber", ["convert", "haber.json", '{"N2":1,"H2":3}', '{"NH3":2}'], None),
    ("catalyst-prof", ["catalyst", "prof.json", "[0,0]", "[1,0]", "--box", "2"], None),
    ("properties-prof", ["properties", "prof.json", "--sample-box", "3"], None),
    ("properties-random", ["properties", "--random-tables", "50", "--size", "5",
                           "--seed", "7"], None),
    ("rate-food", ["rate", "food.json", "[2,3]", "[1,1]", "--caps", "8"], None),
    ("rate-randomness", ["rate", "randomness.json", '["1/4","1/4","1/4","1/4"]',
                         '["1/2","1/2"]', "--caps", "4"], None),
    ("monotones-food", ["monotones", "food.json", "--sample-box", "3"], None),
    ("hasse-prof", ["hasse", "prof.json", "--box", "2", "--out", "prof.dot"], "prof.dot"),
    ("normalize-circuit", ["normalize-circuit", "sandwich.circ"], None),
    ("check-axioms", ["check-axioms", "table.json"], None),
    ("simulate-search", ["simulate-channel", "p.json", "--target", "t.json",
                         "--caps", "8"], None),
    ("simulate-apply", ["simulate-channel", "t.json", "--encoder", "e.json",
                        "--decoder", "d.json", "--randomness", "r.json"], None),
    ("plug", ["plug", "outer.json", "inner1.json", "--out", "composite.json"],
     "composite.json"),
    ("uc-apply", ["uc-apply", "uc.json", "f1.json", "f2.json"], None),
]


def run_demo(workdir: Path, argv: list[str],
             out_file: str | None) -> tuple[int, str, str | None]:
    """Run one demo in a fresh copy of demo/; (exit code, stdout, --out text)."""
    shutil.copytree(DEMO, workdir)
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = run(argv + ["--json"])
    finally:
        os.chdir(cwd)
    written = (workdir / out_file).read_text() if out_file else None
    return code, stdout.getvalue(), written


@pytest.mark.parametrize("name, argv, out_file", DEMOS, ids=[d[0] for d in DEMOS])
def test_demo_output_matches_golden(tmp_path, name, argv, out_file):
    code, out, written = run_demo(tmp_path / "demo", argv, out_file)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[name]
    assert out == (GOLDEN / f"{name}.stdout").read_text()
    if out_file:
        assert written == (GOLDEN / f"{name}.{out_file}").read_text()


def test_fresh_process_under_optimize(tmp_path):
    """`python -O -m resconv.cli` builds its parser at import and must agree
    with the in-process run: same stdout, and exit 2 without a traceback on
    a usage error."""
    workdir = tmp_path / "demo"
    shutil.copytree(DEMO, workdir)
    paths = [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))

    def cli(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-O", "-m", "resconv.cli", *argv],
                              cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=120)

    ok = cli("convert", "food.json", "[2,3]", "[1,1]", "--json")
    assert ok.returncode == json.loads((GOLDEN / "exit_codes.json").read_text())["convert-food"]
    assert ok.stdout == (GOLDEN / "convert-food.stdout").read_text()
    assert ok.stderr == ""
    bad = cli("convert", "food.json", "[2,3]", "[1,1]", "--bound", "-1")
    assert bad.returncode == 2 and bad.stdout == ""
    assert "argument --bound: expected a non-negative integer" in bad.stderr
    assert "Traceback" not in bad.stderr


def test_readme_library_example_runs():
    """The README's "Library use" block runs as written: every name it
    imports from the top-level package is still there, and its asserts hold."""
    section = (TESTS.parent / "README.md").read_text().split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md (Library use)", "exec"), {})


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv, out_file in DEMOS:
        with tempfile.TemporaryDirectory() as tmp:
            code, out, written = run_demo(Path(tmp) / "demo", argv, out_file)
        codes[name] = code
        (GOLDEN / f"{name}.stdout").write_text(out)
        if out_file:
            (GOLDEN / f"{name}.{out_file}").write_text(written)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
