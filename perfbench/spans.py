"""Span recorder around calls into resconv's public functions.

Wrappers are installed from outside the package: each traced function is
replaced in every resconv module namespace that holds a reference to it
(so `combs.compose_seq` is wrapped as well as `stoch.compose_seq`), and
methods are replaced on their class.  A span records name, start, end,
parent span and op id.  Aggregates (calls, self time, verdict counts) are
updated as spans close; the raw spans stay in memory, up to a cap, and
are written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# (module, qualified name) pairs that get per-function metrics.
TRACED = [
    ("core", "equivalent"), ("core", "check_axioms"),
    ("instances", "VectorTheory.geq"), ("instances", "deterministic_convertible"),
    ("instances", "majorizes"), ("instances", "ReactionTheory.geq"),
    ("presentation", "MultisetTheory.geq"), ("presentation", "MultisetTheory.conservation_certificate"),
    ("linalg", "in_span"), ("linalg", "orthogonal_residual"), ("linalg", "feasible_nonneg_solution"),
    ("stoch", "StochMap"), ("stoch", "compose_seq"), ("stoch", "compose_par"),
    ("stoch", "deterministic_function"), ("stoch", "simulate_channel"),
    ("stoch", "search_exact_simulation"), ("stoch", "search_free_transformation_batch"),
    ("combs", "comb_tensor"), ("combs", "apply_comb"), ("combs", "compose_combs_seq"),
    ("combs", "compose_combs_par"), ("combs", "plug_ncombs"), ("combs", "apply_uc"),
    ("circuits", "parse_circuit"), ("circuits", "normalize_to_comb"), ("circuits", "evaluate_circuit"),
    ("analysis", "check_quality_like"), ("analysis", "check_quantity_like"),
    ("analysis", "check_non_interacting"), ("analysis", "check_waste_free"),
    ("analysis", "check_catalysis_free"), ("analysis", "find_catalyst"),
    ("analysis", "cross_check_theorems"),
    ("monotones", "rate"), ("monotones", "verify_monotone"), ("monotones", "classify"),
    ("hasse", "hasse_classes"),
    ("jsonio", "read_json"), ("jsonio", "load_theory"), ("jsonio", "parse_term"),
    ("jsonio", "load_stoch_map"),
    ("cli", "run"),
]
# Theory oracles without their own metric, traced so that `analysis.geq_calls`
# counts every theory and their time leaves the caller's self time.
EXTRA = [("core", "FiniteTheoryTable.geq"), ("instances", "RandomnessTheory.geq"),
         ("instances", "EntanglementSpectrumTheory.geq")]
MODULES = ["core", "instances", "presentation", "linalg", "stoch", "combs", "circuits",
           "analysis", "monotones", "hasse", "jsonio", "cli"]
VERDICTS = ["instances.deterministic_convertible", "presentation.MultisetTheory.geq",
            "stoch.search_exact_simulation"]
SPAN_CAP = 100_000


class Tracer:
    def __init__(self, package: str = "resconv"):
        self.package = package
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.verdicts = {n: {"proven": 0, "refuted": 0, "unknown": 0} for n in VERDICTS}
        self.targets = {"proven": 0, "unknown": 0}
        self.geq_calls = 0
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = -1
        self._stack: list[list] = []   # [span id, start, child time, span index]
        self._analysis_depth = 0
        self._geq_depth = 0
        self._undo: list[tuple] = []

    def install(self) -> None:
        for module, qual in TRACED + EXTRA:
            mod = sys.modules.get(f"{self.package}.{module}")
            # a class name alone stands for its construction
            path = f"{qual}.__init__" if qual == "StochMap" else qual
            owner_name, _, target = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, target, None)
            name = f"{module}.{qual}"
            if fn is None:
                self.absent.append(name)
                continue
            sid = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            wrapped = self._wrap(fn, sid, name)
            if owner_name:
                self._undo.append((owner, target, fn))
                setattr(owner, target, wrapped)
                continue
            for mname, m in list(sys.modules.items()):
                if m is None or not (mname == self.package or mname.startswith(self.package + ".")):
                    continue
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._undo.append((m, key, fn))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()

    def _wrap(self, fn, sid: int, name: str):
        stack = self._stack
        perf = time.perf_counter
        is_analysis = name.startswith("analysis.")
        is_geq = name.endswith(".geq")
        verdicts = self.verdicts.get(name)
        is_batch = name == "stoch.search_free_transformation_batch"
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][3] if stack else -1
            if len(tracer.spans) < SPAN_CAP:
                index = len(tracer.spans)
                tracer.spans.append(None)
            else:
                index = -1
                tracer.dropped += 1
            if is_geq:
                if tracer._analysis_depth and not tracer._geq_depth:
                    tracer.geq_calls += 1
                tracer._geq_depth += 1
            if is_analysis:
                tracer._analysis_depth += 1
            frame = [sid, perf(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[1]
                tracer.calls[sid] += 1
                tracer.self_s[sid] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if index >= 0:
                    tracer.spans[index] = (sid, frame[1], end, parent, tracer.op_id)
                if is_geq:
                    tracer._geq_depth -= 1
                if is_analysis:
                    tracer._analysis_depth -= 1
            if verdicts is not None:
                verdicts[str(result.verdict).lower()] += 1
            elif is_batch:
                for d in result:
                    key = "proven" if d.is_proven else "unknown" if d.is_unknown else None
                    if key:
                        tracer.targets[key] += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        by_name = dict(zip(self.names, range(len(self.names))))
        rollup = {m: 0.0 for m in MODULES}
        for sid, name in enumerate(self.names):
            rollup[name.split(".")[0]] += self.self_s[sid]
        for module, qual in TRACED:
            name = f"{module}.{qual}"
            sid = by_name.get(name)
            out[f"{name}.calls"] = (self.calls[sid] if sid is not None else 0, "count")
            out[f"{name}.self_s"] = (self.self_s[sid] if sid is not None else 0.0, "s")
        for m in MODULES:
            out[f"{m}.self_s"] = (rollup[m], "s")
        for name, counts in self.verdicts.items():
            for k, n in counts.items():
                out[f"{name}.{k}"] = (n, "count")
        out["stoch.search_free_transformation_batch.targets_proven"] = (self.targets["proven"], "count")
        out["stoch.search_free_transformation_batch.targets_unknown"] = (self.targets["unknown"], "count")
        out["analysis.geq_calls"] = (self.geq_calls, "count")
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"names": self.names, "absent": self.absent,
                                 "dropped": self.dropped,
                                 "fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for span in self.spans:
                if span is not None:
                    sid, start, end, parent, op = span
                    fh.write(f'["{self.names[sid]}",{start:.9f},{end:.9f},{parent},{op}]\n')
