"""The benchmark's traced function names still resolve in the package.

`perfbench/spans.py` names the functions it wraps as (module, qualified
name) pairs and reports a name it cannot find as "absent", so a renamed
function would silently drop out of the per-layer metrics.  This test
installs the tracer once, reads which names it could not resolve, and
removes the wrappers again.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Names the benchmark spec lists for functions the package no longer has.
KNOWN_ABSENT = {"core.equivalent", "instances.ReactionTheory.geq", "linalg.in_span",
                "linalg.orthogonal_residual", "stoch.deterministic_function"}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_the_known_span_names_are_absent():
    spans = load_spans()
    for name in spans.MODULES:
        importlib.import_module(f"resconv.{name}")
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert set(tracer.absent) == KNOWN_ABSENT
    assert len(tracer.names) + len(tracer.absent) == len(spans.TRACED) + len(spans.EXTRA)
    stoch = importlib.import_module("resconv.stoch")
    assert not hasattr(stoch.compose_seq, "__wrapped__")  # the wrappers are gone again
