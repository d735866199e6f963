"""Command-line entry point: ``repro-zen2 <experiment>``.

Every experiment command is one :func:`~repro.core.suite.run_suite`
call.  ``repro-zen2 <entry>`` runs one :data:`~repro.core.suite.SUITE`
entry, named by its key (``fig3_transition_delay``) or its short form,
the key up to the first ``_`` (``fig3``); ``all`` and ``suite`` run
every entry, and ``--only`` narrows them.  Every flag applies to every
experiment command, and the exit status is 1 whenever a band fails.

Module scope imports only the standard library, so ``import repro.cli``
loads no runner module; :func:`main` imports the suite.
"""

from __future__ import annotations

import argparse
import json
import sys


def _short(key: str) -> str:
    """A suite key's short form: the key up to its first ``_``."""
    return key.split("_", 1)[0]


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # `repro-zen2 lint [...]` forwards to the static-analysis CLI
        # (also reachable as `python -m repro.lint` / `repro-lint`).
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "obs":
        # `repro-zen2 obs [...]` forwards to the observability inspector
        # (also reachable as `python -m repro.obs`).
        from repro.obs.cli import main as obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == "serve":
        # `repro-zen2 serve [...]` runs the HTTP experiment service
        # (also reachable as `python -m repro.service`).
        from repro.service.cli import main as service_main

        return service_main(["serve", *argv[1:]])

    from repro.cache import ResultCache
    from repro.console import say
    from repro.core.experiment import ExperimentConfig
    from repro.core.serialize import dump_json
    from repro.core.suite import SUITE, run_suite, suite_to_dict, suite_trace_document
    from repro.errors import ConfigurationError

    parser = argparse.ArgumentParser(
        prog="repro-zen2",
        description="Reproduce the CLUSTER 2021 Zen 2 energy-efficiency paper "
        "(run 'repro-zen2 lint --help' for the static-analysis pass, "
        "'repro-zen2 obs --help' for the trace/metrics inspector, "
        "'repro-zen2 serve --help' for the HTTP experiment service)",
    )
    parser.add_argument(
        "experiment",
        choices=[*SUITE, *map(_short, SUITE), "all", "suite", "selfcheck"],
        help="one suite entry, by key or short form (e.g. 'fig7'); 'all' "
        "or 'suite' runs every entry; 'selfcheck' verifies the "
        "calibration anchors in seconds",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=0.02,
        help="fraction of the paper's sample counts (1.0 = full scale)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the structured report to PATH",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run experiments across N worker processes "
        "(default 1 = serial in-process; results are byte-identical)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute everything, bypassing the content-addressed "
        "result cache (REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print cache hit/miss/latency counters",
    )
    parser.add_argument(
        "--monitor",
        action="store_true",
        help="attach the runtime invariant monitor to every machine and "
        "fail on violations (slower; bypasses the cache)",
    )
    parser.add_argument(
        "--only",
        metavar="NAME",
        action="append",
        choices=list(SUITE),
        help="with 'all'/'suite': run only this entry key (repeatable)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="export a Perfetto-loadable repro.obs/trace JSON of the run "
        "(suite/experiment/measure/dispatch spans)",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="write Prometheus text exposition to PATH and the "
        "repro.obs/metrics JSON snapshot to PATH.json",
    )
    args = parser.parse_args(argv)

    try:
        cfg = ExperimentConfig(seed=args.seed, scale=args.scale)
    except ConfigurationError as err:
        parser.error(f"argument --scale: {err}")

    if args.jobs < 1:
        parser.error(f"argument --jobs: must be at least 1, got {args.jobs}")
    if args.only and len(set(args.only)) != len(args.only):
        parser.error("argument --only: an entry is named more than once")

    if args.experiment == "selfcheck":
        unused = [
            f"--{name}" for name in ("json", "trace", "metrics", "only")
            if getattr(args, name)
        ]
        if unused:
            parser.error(f"'selfcheck' does not take {', '.join(unused)}")
        from repro.core.selfcheck import selfcheck

        machine = cfg.build_machine()
        table = selfcheck(machine)
        machine.shutdown()
        say(table.render())
        return 0 if table.all_ok else 1

    if args.experiment in ("all", "suite"):
        only = args.only
    elif args.only:
        parser.error("--only goes with 'all' or 'suite', not with an entry")
    else:
        only = [key for key in SUITE if args.experiment in (key, _short(key))]

    cache = None if (args.no_cache or args.monitor) else ResultCache()
    obs = None
    if args.trace or args.metrics:
        from repro.obs import Obs

        obs = Obs()
    result = run_suite(
        cfg,
        only=only,
        parallel=args.jobs,
        cache=cache,
        monitor=args.monitor,
        obs=obs,
    )
    say(result.render())
    say(f"\nsuite verdict: {'OK' if result.all_ok else 'FAILURES'}")
    if args.cache_stats and cache is not None:
        say("cache stats: " + json.dumps(cache.stats.as_dict(), sort_keys=True))
    if args.json:
        dump_json(suite_to_dict(result), args.json)
        say(f"structured report written to {args.json}")
    if args.trace:
        # Merged timeline: the parent document plus every worker-
        # shipped trace of a parallel run (serial runs merge one).
        dump_json(suite_trace_document(result), args.trace)
        say(f"trace written to {args.trace}")
    if args.metrics:
        with open(args.metrics, "w") as fh:
            fh.write(obs.to_prometheus())
        dump_json(obs.metrics_snapshot(), f"{args.metrics}.json")
        say(
            f"metrics written to {args.metrics} "
            f"(JSON snapshot: {args.metrics}.json)"
        )
    return 0 if result.all_ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
