"""``python -m repro.service`` / ``repro-zen2 serve`` — run the daemon.

``serve`` (the default) starts the HTTP experiment service and blocks
until SIGTERM/SIGINT, then drains gracefully and exits 0.  ``smoke``
runs the self-contained end-to-end demo from :mod:`repro.service.smoke`
(spawns a daemon subprocess, hammers it with concurrent clients, checks
dedup counters and byte-identical results, SIGTERMs it) — the CI job.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.cache import ResultCache
from repro.service.queue import ServiceLimits
from repro.service.server import ExperimentService


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="HTTP experiment service for the Zen 2 reproduction "
        "suite (see docs/service.md).",
    )
    parser.add_argument(
        "command",
        nargs="?",
        choices=["serve", "smoke"],
        default="serve",
        help="serve (default): run the daemon; smoke: end-to-end self-test",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787)
    parser.add_argument(
        "--pool-jobs",
        type=int,
        default=2,
        help="worker processes per suite run (run_suite parallel=N)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="concurrent jobs the queue executes",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=32,
        help="total in-flight (queued+running) job budget",
    )
    parser.add_argument(
        "--tenant-quota",
        type=int,
        default=8,
        help="in-flight jobs one tenant may own",
    )
    parser.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        help="per-entry execution timeout inside the pool",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="run without the shared result cache (every job recomputes)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-zen2)",
    )
    parser.add_argument(
        "--log-jsonl",
        default=None,
        help="append structured JSON-line logs to PATH ('-' for stderr)",
    )
    args = parser.parse_args(argv)

    if args.command == "smoke":
        from repro.service.smoke import run_smoke

        return run_smoke()

    from repro.obs import Obs

    obs = Obs(
        log_stream=sys.stderr if args.log_jsonl == "-" else None,
        log_path=None if args.log_jsonl in (None, "-") else args.log_jsonl,
    )
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    service = ExperimentService(
        cache=cache,
        limits=ServiceLimits(
            queue_limit=args.queue_limit,
            tenant_quota=args.tenant_quota,
            workers=args.workers,
        ),
        pool_jobs=args.pool_jobs,
        timeout_s=args.timeout_s,
        obs=obs,
    )
    asyncio.run(service.serve(args.host, args.port))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
