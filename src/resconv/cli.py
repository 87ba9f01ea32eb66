"""Command-line surface.

Exit codes: 0 on success, 1 when the queried fact is Refuted/not found,
2 on input errors, including a path that cannot be read or written and a
negative bound or box.  `--json` switches to machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from random import Random
from typing import Any

from . import jsonio
from .analysis import (PropertyReport, check_catalysis_free,
                       check_non_interacting, check_quality_like,
                       check_quantity_like, check_waste_free,
                       cross_check_theorems, find_catalyst,
                       random_theory_table)
from .circuits import evaluate_circuit, normalize_to_comb, parse_circuit
from .combs import apply_comb, apply_uc, plug_ncombs
from .core import FiniteTheoryTable, InputError, TheoryOracle, check_axioms
from .hasse import hasse_dot
from .monotones import classify, rate, verify_monotone
from .stoch import (CompositionError, all_deterministic_maps, random_stoch_map,
                    search_exact_simulation, simulate_channel)


def _load_theory(args: argparse.Namespace) -> tuple[TheoryOracle, dict]:
    """The theory named by `args.theory`, with `args.bound`, and its raw JSON."""
    data = jsonio.read_json(args.theory)
    return jsonio.load_theory(data, bound=args.bound), data


def _emit(args: argparse.Namespace, payload: Any, human: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human:
            print(line)


def cmd_check_axioms(args: argparse.Namespace) -> int:
    theory, _ = _load_theory(args)
    if not isinstance(theory, FiniteTheoryTable):
        raise InputError("check-axioms expects a finite table theory")
    violations = check_axioms(theory)
    payload = [str(v) for v in violations]
    human = [f"{len(violations)} violation(s)"] + payload
    if not violations:
        human = ["no violations"]
    _emit(args, {"violations": payload}, human)
    return 1 if violations else 0


def cmd_convert(args: argparse.Namespace) -> int:
    theory, _ = _load_theory(args)
    a = jsonio.parse_term(theory, json.loads(args.source))
    b = jsonio.parse_term(theory, json.loads(args.target))
    d = theory.geq(a, b)
    payload = d.to_json()
    human = [str(d.verdict)]
    if d.witness is not None:
        human.append(f"witness: {payload['witness']}")
    if d.note:
        human.append(f"note: {d.note}")
    _emit(args, payload, human)
    return 0 if d.is_proven else 1


def cmd_catalyst(args: argparse.Namespace) -> int:
    theory, _ = _load_theory(args)
    a = jsonio.parse_term(theory, json.loads(args.source))
    b = jsonio.parse_term(theory, json.loads(args.target))
    candidates = theory.enumerate_up_to(args.box)
    d = find_catalyst(theory, a, b, candidates, bound=args.bound)
    human = [f"catalyst search over {len(candidates)} candidates: {d.verdict}"]
    if d.is_proven:
        human.append(f"catalyst: {theory.format_term(d.witness[1])}")
    if d.note:
        human.append(f"note: {d.note}")
    _emit(args, d.to_json(), human)
    return 0 if d.is_proven else 1


def cmd_properties(args: argparse.Namespace) -> int:
    if args.random_tables:
        rng = Random(args.seed)
        human = []
        payload = []
        for i in range(args.random_tables):
            table = random_theory_table(rng, args.size)
            batch = cross_check_theorems(table, list(range(table.size)), args.bound)
            payload.append({"table": i, "reports": [r.to_json() for r in batch]})
            bad = [r for r in batch if r.name.startswith(("thm:", "prop:"))
                   and r.decision.is_refuted]
            human.append(f"table {i}: {'THEOREM VIOLATION' if bad else 'consistent'}")
        _emit(args, payload, human)
        return 0
    if not args.theory:
        raise InputError("properties needs a theory file or --random-tables")
    theory, _ = _load_theory(args)
    sample = theory.enumerate_up_to(args.sample_box)
    reports = [
        check_quality_like(theory, sample, args.bound),
        check_quantity_like(theory, sample, args.bound),
        check_non_interacting(theory, sample, args.bound),
        check_waste_free(theory, sample, args.bound),
        check_catalysis_free(theory, sample, args.bound),
    ]
    _emit(args, [r.to_json() for r in reports], [str(r) for r in reports])
    return 0


def cmd_rate(args: argparse.Namespace) -> int:
    theory, data = _load_theory(args)
    monotones = jsonio.load_theory_monotones(data, theory)
    a = jsonio.parse_term(theory, json.loads(args.source))
    b = jsonio.parse_term(theory, json.loads(args.target))
    result = rate(theory, a, b, args.caps, monotones, minimal=args.minimal)
    payload = {"best": str(result.best), "witness": result.witness,
               "upper_bound": None if result.upper_bound is None else str(result.upper_bound),
               "exact": result.exact, "caps": result.caps,
               "inconclusive": result.inconclusive}
    _emit(args, payload, [str(result)])
    return 0


def cmd_monotones(args: argparse.Namespace) -> int:
    theory, data = _load_theory(args)
    monotones = jsonio.load_theory_monotones(data, theory)
    if not monotones:
        raise InputError("theory file declares no monotones")
    sample = theory.enumerate_up_to(args.sample_box)
    reports: list[PropertyReport] = []
    for m in monotones:
        reports.append(verify_monotone(m, theory, sample))
        reports.append(classify(m, theory, sample))
    _emit(args, [r.to_json() for r in reports], [str(r) for r in reports])
    return 1 if any(r.decision.is_refuted for r in reports) else 0


def cmd_hasse(args: argparse.Namespace) -> int:
    theory, _ = _load_theory(args)
    terms = theory.enumerate_up_to(args.box)
    dot = hasse_dot(theory, terms)
    if args.out:
        Path(args.out).write_text(dot)
        _emit(args, {"out": args.out, "nodes": dot.count("label=")},
              [f"wrote {args.out}"])
    else:
        print(dot, end="")
    return 0


def cmd_simulate_channel(args: argparse.Namespace) -> int:
    p = jsonio.load_stoch_map(jsonio.read_json(args.channel))
    if args.target:
        target = jsonio.load_stoch_map(jsonio.read_json(args.target))
        d = search_exact_simulation(p, target, caps=args.caps)
        human = [f"exact simulation: {d.verdict}"]
        payload: dict[str, Any] = {"verdict": str(d.verdict), "note": d.note}
        if d.is_proven:
            w = d.witness
            q = simulate_channel(p, w.encoder, w.decoder, w.randomness)
            if q.matrix != target.matrix:
                raise RuntimeError("exact-simulation witness does not replay "
                                   "through simulate_channel")
            human.append("witness re-verified through simulate_channel")
            payload["witness"] = {
                "encoder": jsonio.dump_stoch_map(w.encoder),
                "decoder": jsonio.dump_stoch_map(w.decoder),
                "randomness": jsonio.dump_shared_randomness(w.randomness)}
        elif d.note:
            human.append(f"note: {d.note}")
        _emit(args, payload, human)
        return 0 if d.is_proven else 1
    if not (args.encoder and args.decoder and args.randomness):
        raise InputError("simulate-channel needs --target or all of "
                         "--encoder/--decoder/--randomness")
    e = jsonio.load_stoch_map(jsonio.read_json(args.encoder))
    dmap = jsonio.load_stoch_map(jsonio.read_json(args.decoder))
    r = jsonio.load_shared_randomness(jsonio.read_json(args.randomness))
    q = simulate_channel(p, e, dmap, r)
    _emit(args, jsonio.dump_stoch_map(q),
          [f"simulated channel {q.dom.label} -> {q.cod.label}:"]
          + [" ".join(str(x) for x in row) for row in q.matrix])
    return 0


def cmd_normalize_circuit(args: argparse.Namespace) -> int:
    path = Path(args.circuit)
    if not path.exists():
        raise InputError(f"file not found: {path}")
    circuit = parse_circuit(path.read_text(), base_dir=path.parent)
    comb = normalize_to_comb(circuit)
    hole = circuit.hole_items()[0]
    rng = Random(args.seed)
    basis = all_deterministic_maps(comb.hole_dom, comb.hole_cod)
    extra = [random_stoch_map(rng, comb.hole_dom, comb.hole_cod) for _ in range(5)]
    for f in basis + extra:
        direct = evaluate_circuit(circuit, {hole.name: f})
        if apply_comb(comb, f).matrix != direct.matrix:
            raise AssertionError("normal form disagrees with direct evaluation")
    human = [
        f"hole {hole.name}: {comb.hole_dom.label}({len(comb.hole_dom)}) -> "
        f"{comb.hole_cod.label}({len(comb.hole_cod)})",
        f"ancilla size {len(comb.ancilla)}",
        f"pre: {len(comb.pre.cod)}x{len(comb.pre.dom)}, post: {len(comb.post.cod)}x{len(comb.post.dom)}",
        f"matches circuit on {len(basis)} basis processes (and {len(extra)} random ones)",
    ]
    payload = jsonio.dump_one_comb(comb)
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        human.append(f"wrote {args.out}")
    _emit(args, payload, human)
    return 0


def cmd_plug(args: argparse.Namespace) -> int:
    outer = jsonio.load_ncomb(jsonio.read_json(args.outer))
    inner = [jsonio.load_ncomb(jsonio.read_json(p)) for p in args.inner]
    composite = plug_ncombs(outer, inner)
    payload = jsonio.dump_ncomb(composite)
    human = [f"composite comb with {composite.arity} hole(s), "
             f"outer {composite.outer_dom.label} -> {composite.outer_cod.label}"]
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        human.append(f"wrote {args.out}")
    _emit(args, payload, human)
    return 0


def cmd_uc_apply(args: argparse.Namespace) -> int:
    uc = jsonio.load_uc(jsonio.read_json(args.uc))
    fs = [jsonio.load_stoch_map(jsonio.read_json(p)) for p in args.process]
    outputs = apply_uc(uc, fs)
    payload = [jsonio.dump_stoch_map(q) for q in outputs]
    human = []
    for j, q in enumerate(outputs):
        human.append(f"output {j}: {q.dom.label} -> {q.cod.label}")
        human += ["  " + " ".join(str(x) for x in row) for row in q.matrix]
    _emit(args, payload, human)
    return 0


def _non_negative_int(text: str) -> int:
    """argparse `type=` for a search bound, an enumeration box or a count."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="resconv",
        description="Analyze theories of resource convertibility: conversions, "
                    "catalysis, monotones, rates, combs and channel simulation.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, theory: bool = True) -> None:
        # Only the subcommands that load a theory file take --bound.
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if theory:
            p.add_argument("--bound", type=_non_negative_int, default=6,
                           help="search depth for reachability theories (default 6)")

    p = sub.add_parser("check-axioms", help="verify a finite table exhaustively")
    p.add_argument("theory")
    common(p)
    p.set_defaults(fn=cmd_check_axioms)

    p = sub.add_parser("convert", help="is the source convertible to the target?")
    p.add_argument("theory")
    p.add_argument("source", help="term as JSON, e.g. '[2,3]'")
    p.add_argument("target")
    common(p)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("catalyst", help="search for a catalyst enabling a conversion")
    p.add_argument("theory")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--box", type=_non_negative_int, default=4,
                   help="candidate enumeration bound")
    common(p)
    p.set_defaults(fn=cmd_catalyst)

    p = sub.add_parser("properties", help="run the structural property analyzers")
    p.add_argument("theory", nargs="?")
    p.add_argument("--sample-box", type=_non_negative_int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random-tables", type=_non_negative_int, default=0,
                   help="instead of a file, cross-check N random finite theories")
    p.add_argument("--size", type=int, default=4, help="carrier size for random tables")
    common(p)
    p.set_defaults(fn=cmd_properties)

    p = sub.add_parser("rate", help="enumerate copy-conversion ratios")
    p.add_argument("theory")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--caps", type=int, default=8)
    p.add_argument("--minimal", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_rate)

    p = sub.add_parser("monotones", help="verify and classify declared monotones")
    p.add_argument("theory")
    p.add_argument("--sample-box", type=_non_negative_int, default=4)
    common(p)
    p.set_defaults(fn=cmd_monotones)

    p = sub.add_parser("hasse", help="covering-relation diagram as DOT")
    p.add_argument("theory")
    p.add_argument("--box", type=_non_negative_int, default=4)
    p.add_argument("--out")
    common(p)
    p.set_defaults(fn=cmd_hasse)

    p = sub.add_parser("simulate-channel",
                       help="wrap a channel with encodings, or search for them")
    p.add_argument("channel")
    p.add_argument("--encoder")
    p.add_argument("--decoder")
    p.add_argument("--randomness")
    p.add_argument("--target")
    p.add_argument("--caps", type=int, default=8)
    common(p, theory=False)
    p.set_defaults(fn=cmd_simulate_channel)

    p = sub.add_parser("normalize-circuit", help="one-hole circuit to comb form")
    p.add_argument("circuit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    common(p, theory=False)
    p.set_defaults(fn=cmd_normalize_circuit)

    p = sub.add_parser("plug", help="plug inner combs into an outer comb")
    p.add_argument("outer")
    p.add_argument("inner", nargs="+")
    p.add_argument("--out")
    common(p, theory=False)
    p.set_defaults(fn=cmd_plug)

    p = sub.add_parser("uc-apply", help="apply an allocation transformation")
    p.add_argument("uc")
    p.add_argument("process", nargs="+")
    common(p, theory=False)
    p.set_defaults(fn=cmd_uc_apply)
    return top


# Built once per process and reused by every `run`: the tree never changes,
# and each `parse_args` call fills a fresh Namespace.
_PARSER = _build_parser()


def run(argv: list[str]) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (InputError, CompositionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
