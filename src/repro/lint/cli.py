"""``python -m repro.lint`` / ``repro-lint`` / ``repro-zen2 lint``.

Exit codes: 0 clean, 1 unsuppressed error findings (or a failed
ordering check), 2 usage errors (bad paths, a bad manifest, bad
``--ordering-seeds``).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.console import say
from repro.errors import LintError
from repro.lint.engine import lint_paths
from repro.lint.formatters import format_human, format_json, format_sarif
from repro.lint.manifest import DEFAULT_MANIFEST
from repro.lint.rules import all_rules, rules_by_id
from repro.lint.sarif import rule_titles


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
        "--manifest",
        metavar="FILE",
        help=f"layer manifest for CON010 (default: {DEFAULT_MANIFEST} in "
        "the working directory, if present)",
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
        help="comma-separated rule ids to report, from --list-rules "
        "(default: all)",
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
        for rule_id, title in sorted(rule_titles().items()):
            say(f"{rule_id}  {title}")
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
    select = None
    if args.select:
        select = {r.strip() for r in args.select.split(",") if r.strip()}
        unknown = select - set(rule_titles())
        if unknown:
            print(
                f"repro-lint: unknown lint rule(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2
    try:
        rules = all_rules(
            None if select is None else sorted(select & set(rules_by_id()))
        )
        report = lint_paths(
            args.paths, rules, manifest=manifest, changed_only=args.changed_only
        )
    except LintError as err:
        print(f"repro-lint: {err}", file=sys.stderr)
        return 2
    if select is not None:
        # The engine-level rules run whatever is selected; a file that
        # does not parse was checked by no rule, so its PARSE finding stays.
        report.findings = [
            f for f in report.findings if f.rule in select or f.rule == "PARSE"
        ]

    formatters = {"json": format_json, "sarif": format_sarif, "human": format_human}
    say(formatters[args.format](report))
    status = 0 if report.clean else 1

    if args.ordering_check:
        from repro.lint.shuffle import selfcheck_ordering

        ordering = selfcheck_ordering(seeds=seeds)
        say(ordering.render())
        if not ordering.deterministic:
            status = 1

    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
