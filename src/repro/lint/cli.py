"""``python -m repro.lint`` / ``repro-lint`` / ``repro-zen2 lint``.

Exit codes: 0 clean, 1 unsuppressed error findings (or a failed
ordering check), 2 usage errors (bad paths, a bad manifest, bad
``--ordering-seeds``).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.errors import LintError
from repro.lint.engine import lint_paths
from repro.lint.formatters import format_human, format_json, format_sarif
from repro.lint.manifest import DEFAULT_MANIFEST
from repro.lint.rules import all_rules, rules_by_id


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Simulator-aware static analysis for the repro codebase",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=["human", "json", "sarif"],
        default="human",
        help="output format",
    )
    parser.add_argument(
        "--deep",
        action="store_true",
        help="also run the whole-program flow, effects and contracts "
        "analyses (DIM/DET002, HOT/OBS/PAR, CON rules) over one shared "
        "program, with one digest-keyed result cache",
    )
    parser.add_argument(
        "--manifest",
        metavar="FILE",
        help=f"lint manifest for --deep (default: {DEFAULT_MANIFEST} in "
        "the working directory, if present)",
    )
    parser.add_argument(
        "--update-schema-registry",
        action="store_true",
        help="rewrite the manifest's schemas section from the analyzed "
        "tree before checking (implies --deep)",
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help="report findings only for files changed vs git HEAD "
        "(falls back to a full run outside a git checkout)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--ordering-check",
        action="store_true",
        help="also run the event-order shuffle race detector (re-runs the "
        "machine selfcheck under randomized same-timestamp tie-breaking)",
    )
    parser.add_argument(
        "--ordering-seeds",
        default="1,2,3",
        metavar="S1,S2,...",
        help="shuffle seeds for --ordering-check (default: 1,2,3)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        from repro.lint.sarif import rule_titles

        for rule_id, title in sorted(rule_titles().items()):
            print(f"{rule_id}  {title}")
        return 0

    try:
        seeds = tuple(int(seed) for seed in args.ordering_seeds.split(","))
    except ValueError:
        seeds = ()
    if not seeds:
        print(
            "repro-lint: --ordering-seeds needs a comma-separated list of "
            f"integers, got {args.ordering_seeds!r}",
            file=sys.stderr,
        )
        return 2

    manifest = args.manifest
    if manifest is None and os.path.exists(DEFAULT_MANIFEST):
        manifest = DEFAULT_MANIFEST
    try:
        select = (
            [r.strip() for r in args.select.split(",") if r.strip()]
            if args.select
            else None
        )
        rules = all_rules(select)
        report = lint_paths(
            args.paths,
            rules,
            deep=args.deep,
            manifest=manifest,
            update_schema_registry=args.update_schema_registry,
            changed_only=args.changed_only,
        )
    except LintError as err:
        print(f"repro-lint: {err}", file=sys.stderr)
        return 2

    formatters = {"json": format_json, "sarif": format_sarif, "human": format_human}
    print(formatters[args.format](report))
    status = 0 if report.clean else 1

    if args.ordering_check:
        from repro.lint.shuffle import selfcheck_ordering

        ordering = selfcheck_ordering(seeds=seeds)
        print(ordering.render())
        if not ordering.deterministic:
            status = 1

    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
