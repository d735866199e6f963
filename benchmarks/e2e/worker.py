# lint: disable-file=DET001 — the benchmark worker reads the host clock to
# time the program from outside; timings feed only the benchmark report,
# never simulated state.
"""One workload in a fresh process: ``python worker.py WORKLOAD ...``.

``run.py`` starts this file once per workload and reads the JSON object
it prints as its last line.  ``python worker.py --probe`` is the set-up
probe: under a :class:`hostspeed.HostSpeed`, it imports the program,
builds one ``Machine`` and prints ``ready`` with its kernel samples.
Each workload times several probes for ``setup_s``.

Every timed operation yields its wall time and the kernel samples taken
by the process that did the work; ``run.py`` reports the operation at
reference host speed (``hostspeed.rescale``).  An operation counts as
failed when any check on its output fails.  Module-level imports are
standard library only, so a probe times the program's set-up, not this
file's.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from hostspeed import HostSpeed, rescale, speed  # noqa: E402

#: Set-up probes before and again after the measured operations, so a
#: burst of host contention cannot skew every probe of a run.
SETUP_PROBES = 4
#: Seconds between kernel samples: about 2% of every timed operation.
INTERVAL_S = 0.01
SUBPROCESS_TIMEOUT_S = 150

SUITE_SCALE = 0.02
EVENT_SCALE = 0.1
EVENT_ENTRIES = [
    "fig3_transition_delay",
    "fig8_cstate_latency",
    "sec7_rapl_update_rate",
    "sec5a_idle_sibling",
]
SMOKE_ENTRIES = ["sec5a_idle_sibling", "tab1_mixed_frequencies", "fig7_idle_power"]
GOLDEN = ROOT / "tests" / "golden" / "suite_seed2021_scale0.02.json"


def now() -> float:
    return time.perf_counter()


@dataclass
class Ctx:
    workload: str
    seed: int
    seconds: float
    smoke: bool
    expected: dict[str, Any]

    @property
    def suite_seed(self) -> int:
        """The suite seed for ``--seed``: itself when pinned, else a pinned one.

        Some seeds miss a paper band at 2% scale (seed 1 fails fig10), and
        only pinned seeds have recorded result digests, so every suite run
        uses a seed whose documents are known to be right.
        """
        pinned = self.expected["suite_seeds"]
        return self.seed if self.seed in pinned else pinned[self.seed % len(pinned)]

    def digest(self, key: str) -> str | None:
        table = self.expected["digests"][key + ("/smoke" if self.smoke else "")]
        return table.get(str(self.suite_seed))


@dataclass
class Timings:
    """Timed operations: wall seconds, the same at reference speed, and the
    host's mean speed during each."""

    wall: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)

    def add(self, wall: float, samples: list[float]) -> None:
        self.wall.append(wall)
        self.scaled.append(rescale(wall, samples))
        self.speed.append(speed(samples) if samples else 1.0)


@dataclass
class Run:
    """What one workload measured and checked."""

    ops: Timings = field(default_factory=Timings)
    setup: Timings = field(default_factory=Timings)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    detail: dict[str, Any] = field(default_factory=dict)
    #: per-layer values the workload measures itself
    reported: dict[str, float] = field(default_factory=dict)
    #: traced operation time over untraced, when the workload has one
    overhead: float | None = None

    def check(self, problems: list[str]) -> None:
        """Count one attempted operation, failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def timed_loop(op: Callable[[], tuple[float, list[float]]], timings: Timings, seconds: float) -> None:
    """Run ``op`` once, then again while another call is expected to end
    within ``seconds`` of the start."""
    start = now()
    while not timings.wall or now() - start + statistics.median(timings.wall) <= seconds:
        timings.add(*op())


def in_process(fn: Callable[[], Any]) -> tuple[float, list[float]]:
    """Call ``fn`` under a :class:`HostSpeed`; its wall time and samples."""
    with HostSpeed(INTERVAL_S) as hs:
        t0 = now()
        fn()
        wall = now() - t0
    return wall, hs.samples


def probe_setup(run: Run) -> None:
    """Time one start of ``worker.py --probe`` until it prints ``ready``."""
    t0 = now()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__)), "--probe"], cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    try:
        line = proc.stdout.readline()
        elapsed = now() - t0
        proc.communicate(timeout=SUBPROCESS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    word, _, samples = line.partition(" ")
    ready = word == "ready" and proc.returncode == 0
    if ready:
        run.setup.add(elapsed, json.loads(samples))
    run.check([] if ready else [f"set-up probe exited {proc.returncode} after printing {line[:80]!r}"])


def setup_probes(ctx: Ctx, run: Run) -> None:
    """``setup_s`` samples: a fresh process importing the program and
    building one ``Machine``."""
    for _ in range(1 if ctx.smoke else SETUP_PROBES):
        probe_setup(run)


def suite_problems(doc: dict[str, Any], expected: str | None, first: list[str]) -> list[str]:
    """Checks on one suite document: verdict, expected digest, same as the
    run's first document."""
    from repro.core.serialize import document_digest

    problems = []
    digest = document_digest(doc)
    if not doc.get("all_ok"):
        problems.append(f"seed {doc.get('seed')}: all_ok is false")
    if expected is not None and digest != expected:
        problems.append(f"seed {doc.get('seed')}: digest {digest[:16]} != expected {expected[:16]}")
    if not first:
        first.append(digest)
    elif digest != first[0]:
        problems.append(f"seed {doc.get('seed')}: digest differs from the run's first document")
    return problems


# --- suite_serial and event_timing: in-process passes -----------------------


def suite_passes(ctx: Ctx, run: Run, rec, key: str, scale: float, only: list[str] | None) -> None:
    from repro.core.experiment import ExperimentConfig
    from repro.core.serialize import document_digest, load_json
    from repro.core.suite import run_suite, suite_to_dict

    cfg = ExperimentConfig(seed=ctx.suite_seed, scale=scale)
    expected = ctx.digest(key)
    if key == "suite_serial" and not ctx.smoke and ctx.suite_seed == 2021:
        expected = document_digest(load_json(str(GOLDEN)))
    first: list[str] = []

    def one_pass() -> None:
        doc = suite_to_dict(run_suite(cfg, only=only, parallel=1, cache=None))
        run.check(suite_problems(doc, expected, first))

    run.detail.update(suite_seed=ctx.suite_seed, scale=scale)
    if rec is None:
        timed_loop(lambda: in_process(one_pass), run.ops, ctx.seconds)
        return
    from layers import install

    t0 = now()
    one_pass()
    untraced = now() - t0
    install(rec)
    try:
        rec.span("pass", one_pass)
    finally:
        rec.restore()
    run.overhead = rec.total_s("pass") / untraced


def suite_serial(ctx: Ctx, run: Run, rec=None) -> None:
    suite_passes(ctx, run, rec, "suite_serial", SUITE_SCALE, SMOKE_ENTRIES if ctx.smoke else None)


def event_timing(ctx: Ctx, run: Run, rec=None) -> None:
    suite_passes(ctx, run, rec, "event_timing", 0.01 if ctx.smoke else EVENT_SCALE, EVENT_ENTRIES)


WORKLOADS: dict[str, Callable[..., None]] = {
    "suite_serial": suite_serial,
    "event_timing": event_timing,
}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def trace_report(ctx: Ctx, run: Run, rec) -> dict[str, Any]:
    """Per-layer values, tracing overhead and coverage; writes the trace."""
    from layers import layer_values, settle_share

    with open(ROOT / "BENCHMARK.json") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    report: dict[str, Any] = {"layers": layer_values(names, rec, run.reported), "overhead": run.overhead}
    if rec.calls("pass"):
        wall = rec.total_s("pass")
        report["coverage"] = 1.0 - rec.self_s("pass") / wall
        report["settle_share"] = settle_share(rec, wall)
    path = ROOT / ".e2e" / f"{ctx.workload}.trace.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(rec.chrome_trace(workload=ctx.workload, seed=ctx.seed), fh)
    report["trace_file"] = str(path.relative_to(ROOT))
    return report


def probe() -> int:
    with HostSpeed(INTERVAL_S) as hs:
        import repro.cli  # noqa: F401  (the import is what set-up pays for)
        from repro.machine import Machine

        Machine()
    print("ready", json.dumps(hs.samples), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--probe"]:
        return probe()

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)
    ctx = Ctx(args.workload, args.seed, args.seconds, args.smoke, expected)
    run = Run()
    rec = None
    if args.trace:
        from spans import SpanRecorder

        rec = SpanRecorder()
        t0 = now()
        import repro.cli  # noqa: F401

        run.reported["setup.import_s"] = now() - t0
    else:
        setup_probes(ctx, run)
    WORKLOADS[ctx.workload](ctx, run, rec)
    if rec is None:
        setup_probes(ctx, run)
    result: dict[str, Any] = {
        "ops": vars(run.ops),
        "setup": vars(run.setup),
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems[:20],
        "peak_rss_mb": peak_rss_mb(),
        "detail": run.detail,
    }
    if rec is not None:
        result["trace"] = trace_report(ctx, run, rec)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
