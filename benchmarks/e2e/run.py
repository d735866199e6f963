"""End-to-end benchmark of the reproduction: the serial suite and the
event-mode experiments.

Run from the repository root::

    python benchmarks/e2e/run.py --seed 2021 [--workload NAME ...] [--seconds S]
                                 [--trace 0|1] [--json OUT] [--smoke]

Each workload runs in a fresh ``worker.py`` process.  With ``--trace 0``
the run prints every end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` every per-layer metric, the tracing overhead, and a
Chrome-trace file under ``.e2e/``.  Times are reported at the reference
host's speed (see ``hostspeed.py``); the wall-clock medians and the
host's speed are printed beside them.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (keyed ``metric@workload`` when more than one workload ran).
The exit code is 0 when every check passed, 1 when one failed, and 2
when the program's sources are missing.  See README.md for the
workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Files the workloads need besides this directory.
PROGRAM = ["src/repro/__init__.py", "tests/golden/suite_seed2021_scale0.02.json"]
WORKER_TIMEOUT_S = 175


def run_worker(workload: str, args: argparse.Namespace, seconds: float) -> dict[str, Any]:
    """Run one workload in a fresh process; its JSON result, or an error."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [
        sys.executable, str(HERE / "worker.py"), workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace),
    ]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    lines = out.strip().splitlines()
    if proc.returncode or not lines:
        return {"error": f"worker exited {proc.returncode}"}
    return json.loads(lines[-1])


def end_to_end(result: dict[str, Any]) -> dict[str, float]:
    """Medians of the worker's rescaled timings; a metric with no samples
    is absent."""
    timings = {"setup_s": result["setup"]["scaled"], "op_s": result["ops"]["scaled"]}
    values = {name: statistics.median(v) for name, v in timings.items() if v}
    values["peak_rss_mb"] = result["peak_rss_mb"]
    return values


def report(workload: str, result: dict[str, Any], declared: list[dict[str, Any]], trace: bool) -> dict[str, float]:
    """Print one workload's metrics for people; return the declared ones."""
    print(f"== {workload} ==")
    if "error" in result:
        print(f"  FAILED: {result['error']}")
        return {}
    values = result["trace"]["layers"] if trace else end_to_end(result)
    timings = {"setup_s": result["setup"], "op_s": result["ops"]}
    for metric in declared:
        name = metric["name"]
        shown = f"{values[name]:>12.6g}" if name in values else f"{'missing':>12}"
        note = ""
        if name in timings and timings[name]["wall"]:
            t = timings[name]
            note = (f"  (median of {len(t['wall'])}; wall {statistics.median(t['wall']):.6g} s"
                    f" at host speed {statistics.median(t['speed']):.3f})")
        print(f"  {name:<40} {shown} {metric['unit']}{note}")
    print(f"  {'failed_frac':<40} {result['failed'] / max(1, result['attempted']):>12.6g}"
          f"  ({result['failed']} of {result['attempted']} operations)")
    for key, value in sorted(result["detail"].items()):
        print(f"  {key}: {value}")
    if trace:
        for key in ("overhead", "coverage", "settle_share", "trace_file"):
            if key in result["trace"]:
                print(f"  trace.{key}: {result['trace'][key]}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    return values


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names, help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"], help="measuring window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    parser.add_argument("--json", metavar="OUT", help="also write every result, with raw samples, to OUT")
    parser.add_argument("--smoke", action="store_true", help="shortened workloads that only prove the harness works")
    args = parser.parse_args(argv)

    missing = [p for p in PROGRAM if not (ROOT / p).exists()]
    if missing:
        print(f"cannot benchmark: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2

    workloads = args.workload or names
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    seconds = 1.0 if args.smoke else args.seconds
    results: dict[str, Any] = {}
    metrics: dict[str, dict[str, Any]] = {}
    attempted = failed = 0
    for workload in workloads:
        result = run_worker(workload, args, seconds)
        results[workload] = result
        values = report(workload, result, declared, bool(args.trace))
        attempted += result.get("attempted", 0)
        failed += result.get("failed", 0) + ("error" in result)
        suffix = f"@{workload}" if len(workloads) > 1 else ""
        for metric in declared:
            if metric["name"] in values:
                metrics[metric["name"] + suffix] = {"value": values[metric["name"]], "unit": metric["unit"]}
    correct = failed == 0 and len(metrics) == len(declared) * len(workloads)
    if args.json:
        doc = {"seed": args.seed, "seconds": seconds, "trace": args.trace, "smoke": args.smoke,
               "correct": correct, "results": results, "metrics": metrics}
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
