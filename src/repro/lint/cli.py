"""``python -m repro.lint`` / ``repro-lint`` / ``repro-zen2 lint``.

Exit codes: 0 clean, 1 unsuppressed error findings (or a failed
ordering check), 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import LintError
from repro.lint.engine import lint_paths
from repro.lint.formatters import format_human, format_json, format_sarif
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
        "--flow",
        action="store_true",
        help="also run the whole-program dimensional-dataflow and "
        "determinism-taint analysis (rules DIM001-DIM003, DET002)",
    )
    parser.add_argument(
        "--no-flow-cache",
        action="store_true",
        help="bypass the flow-analysis result cache (forces a cold run)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="baseline file of accepted flow findings; matching findings "
        "are filtered from the report (implies --flow)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the --baseline file from this run's flow findings",
    )
    parser.add_argument(
        "--effects",
        action="store_true",
        help="also run the whole-program effect and hot-path budget "
        "analysis (rules HOT001-HOT003, OBS001, PAR001)",
    )
    parser.add_argument(
        "--no-effects-cache",
        action="store_true",
        help="bypass the effects-analysis result cache (forces a cold run)",
    )
    parser.add_argument(
        "--effects-baseline",
        metavar="FILE",
        help="baseline file of accepted effects findings; matching "
        "findings are filtered from the report (implies --effects)",
    )
    parser.add_argument(
        "--update-effects-baseline",
        action="store_true",
        help="rewrite the --effects-baseline file from this run's "
        "effects findings",
    )
    parser.add_argument(
        "--regions",
        metavar="FILE",
        help="hot-region manifest for --effects (default: "
        "lint-effects.regions.json in the working directory, if present)",
    )
    parser.add_argument(
        "--contracts",
        action="store_true",
        help="also run the whole-program structural-contract analysis "
        "(rules CON010 layer boundaries, CON020-CON021 schema registry)",
    )
    parser.add_argument(
        "--no-contracts-cache",
        action="store_true",
        help="bypass the contracts-analysis result cache (forces a cold run)",
    )
    parser.add_argument(
        "--contracts-baseline",
        metavar="FILE",
        help="baseline file of accepted contracts findings; matching "
        "findings are filtered from the report (implies --contracts)",
    )
    parser.add_argument(
        "--update-contracts-baseline",
        action="store_true",
        help="rewrite the --contracts-baseline file from this run's "
        "contracts findings",
    )
    parser.add_argument(
        "--pairs",
        metavar="FILE",
        help="contracts manifest (layer DAG, CON021 tests root) for "
        "--contracts (default: "
        "lint-contracts.pairs.json in the working directory, if present)",
    )
    parser.add_argument(
        "--schema-registry",
        metavar="FILE",
        help="schema registry snapshot for --contracts (default: "
        "lint-contracts.schemas.json in the working directory, if present)",
    )
    parser.add_argument(
        "--update-schema-registry",
        action="store_true",
        help="rewrite the schema registry snapshot from the analyzed "
        "tree before checking (implies --contracts)",
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

    if args.update_baseline and not args.baseline:
        print("repro-lint: --update-baseline requires --baseline", file=sys.stderr)
        return 2
    if args.update_effects_baseline and not args.effects_baseline:
        print(
            "repro-lint: --update-effects-baseline requires --effects-baseline",
            file=sys.stderr,
        )
        return 2
    if args.update_contracts_baseline and not args.contracts_baseline:
        print(
            "repro-lint: --update-contracts-baseline requires "
            "--contracts-baseline",
            file=sys.stderr,
        )
        return 2

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
            flow=args.flow or args.baseline is not None,
            flow_cache=not args.no_flow_cache,
            baseline=args.baseline,
            update_baseline=args.update_baseline,
            effects=args.effects or args.effects_baseline is not None,
            effects_cache=not args.no_effects_cache,
            effects_baseline=args.effects_baseline,
            update_effects_baseline=args.update_effects_baseline,
            regions=args.regions,
            contracts=args.contracts
            or args.contracts_baseline is not None
            or args.update_schema_registry,
            contracts_cache=not args.no_contracts_cache,
            contracts_baseline=args.contracts_baseline,
            update_contracts_baseline=args.update_contracts_baseline,
            pairs=args.pairs,
            schema_registry=args.schema_registry,
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

        seeds = tuple(int(s) for s in args.ordering_seeds.split(",") if s.strip())
        ordering = selfcheck_ordering(seeds=seeds)
        print(ordering.render())
        if not ordering.deterministic:
            status = 1

    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
