"""``python -m repro.bench`` — run the kernel registry, emit JSON.

The default full run writes ``benchmarks/results/BENCH_micro.json``
(relative to the working directory); ``--smoke`` runs only the
``quick``-tagged kernels with one repetition and a reduced scale — the
CI configuration, there to prove the harness and schema stay healthy,
not to produce stable numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench.harness import BenchContext, run_kernels
from repro.bench.kernels import kernel_names, select_kernels
from repro.bench.schema import document_from_results, validate_document
from repro.core.analysis.tables import format_table
from repro.errors import ConfigurationError

DEFAULT_OUT = "benchmarks/results/BENCH_micro.json"
SMOKE_OUT = "benchmarks/results/BENCH_smoke.json"


def _render(results) -> str:
    rows = []
    for r in results:
        fmt = "{:,.0f}" if r.better == "higher" else "{:.4f}"
        rows.append(
            (
                r.name,
                r.unit,
                fmt.format(r.median),
                fmt.format(r.p10),
                fmt.format(r.p90),
                f"{r.reps}x{r.ops_per_rep}",
            )
        )
    return format_table(
        ["kernel", "unit", "median", "p10", "p90", "reps x ops"], rows
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Time the simulator's hot-path kernels and write a "
        "schema-versioned JSON document (see docs/performance.md).",
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered kernels and exit"
    )
    parser.add_argument(
        "--only",
        metavar="NAMES",
        help="comma-separated kernel names to run (default: all)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: quick kernels only, warmup=0, reps=1, scale<=0.1",
    )
    parser.add_argument(
        "--guard",
        action="store_true",
        help="overhead-budget check: time sim.dispatch against the "
        "obs-disabled variant and the flight-recorder feed variant in "
        "interleaved rounds and exit 1 if either candidate loses more "
        "than the 2%% budget",
    )
    parser.add_argument(
        "--guard-rounds",
        type=int,
        default=5,
        help="interleaved A/B rounds for --guard (default: 5)",
    )
    parser.add_argument(
        "--guard-budget",
        type=float,
        default=None,
        help="override the allowed throughput loss fraction "
        "(default: 0.02); tests use this to pin both verdicts",
    )
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="work multiplier applied to each kernel's op count",
    )
    parser.add_argument("--warmup", type=int, default=2)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument(
        "--out",
        metavar="PATH",
        help=f"output JSON path (default: {DEFAULT_OUT}, or "
        f"{SMOKE_OUT} with --smoke); '-' to skip writing",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in kernel_names():
            print(name)
        return 0

    if args.guard:
        from repro.bench.harness import (
            GUARD_BUDGET,
            GUARD_CANDIDATE,
            GUARD_FLIGHTREC_CANDIDATE,
            run_overhead_guard,
        )

        ctx = BenchContext(scale=args.scale, seed=args.seed)
        budget = GUARD_BUDGET if args.guard_budget is None else args.guard_budget
        labels = {
            GUARD_CANDIDATE: "obs disabled-path guard",
            GUARD_FLIGHTREC_CANDIDATE: "flight-recorder feed guard",
        }
        status = 0
        for candidate, label in labels.items():
            try:
                verdict = run_overhead_guard(
                    ctx,
                    rounds=args.guard_rounds,
                    budget=budget,
                    candidate=candidate,
                    progress=lambda msg: print(msg, file=sys.stderr),
                )
            except ConfigurationError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(
                f"{label}: median throughput ratio "
                f"{verdict['median_ratio']:.4f} over {verdict['rounds']} "
                f"round(s), budget {verdict['budget']:.0%} -> "
                f"{'PASS' if verdict['ok'] else 'FAIL'}"
            )
            if not verdict["ok"]:
                status = 1
        return status

    only = [n.strip() for n in args.only.split(",") if n.strip()] if args.only else None

    warmup, reps, scale = args.warmup, args.reps, args.scale
    if args.smoke:
        warmup, reps, scale = 0, 1, min(scale, 0.1)
    try:
        kernels = select_kernels(only, smoke=args.smoke)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not kernels:
        print("error: kernel selection is empty", file=sys.stderr)
        return 2

    ctx = BenchContext(scale=scale, seed=args.seed)
    results = run_kernels(
        kernels,
        ctx,
        warmup=warmup,
        reps=reps,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    print(_render(results))

    out = args.out or (SMOKE_OUT if args.smoke else DEFAULT_OUT)
    if out == "-":
        return 0
    doc = document_from_results(results, ctx=ctx, warmup=warmup, reps=reps)
    problems = validate_document(doc)
    if problems:  # pragma: no cover - guards harness bugs
        for p in problems:
            print(f"schema error: {p}", file=sys.stderr)
        return 1
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"results written to {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
