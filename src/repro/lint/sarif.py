"""Shared SARIF 2.1.0 writer and merged rule catalogue.

One emitter for every rule: the registered per-module rules and the
engine-level CON010, LINT001 and LINT002 all publish their metadata
through :func:`rule_catalogue`, and every lint invocation produces a
single SARIF run carrying the merged catalogue.  ``--list-rules``
prints the same table, so the CLI, the SARIF log, and the docs cannot
drift apart.  ``startColumn`` is :attr:`Finding.col` unchanged: both
are 1-based and count characters (``columnKind: unicodeCodePoints``).
"""

from __future__ import annotations

import json

from repro.lint.engine import LintReport

TOOL_NAME = "repro-lint"
TOOL_URI = "https://example.invalid/repro-zen2"


def rule_titles() -> dict[str, str]:
    """rule id -> one-line title, for every rule this tool can emit."""
    from repro.lint.engine import SUPPRESSION_REASON_RULE, UNUSED_SUPPRESSION_RULE
    from repro.lint.layers import RULE_LAYER
    from repro.lint.rules import rules_by_id

    titles: dict[str, str] = {
        rule_id: cls.title for rule_id, cls in rules_by_id().items()
    }
    titles[RULE_LAYER] = "module-scope import crosses a declared layer boundary"
    titles[UNUSED_SUPPRESSION_RULE] = "unused lint suppression comment"
    titles[SUPPRESSION_REASON_RULE] = (
        "reason-requiring suppression without a reason= token"
    )
    return titles


def rule_catalogue() -> list[dict]:
    """SARIF rule metadata for every rule this tool can emit."""
    return [
        {"id": rule_id, "shortDescription": {"text": title}}
        for rule_id, title in sorted(rule_titles().items())
    ]


def format_sarif(report: LintReport) -> str:
    """SARIF 2.1.0 log for code-scanning upload and IDE ingestion."""
    results = [
        {
            "ruleId": f.rule,
            "level": "warning" if f.severity == "warning" else "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path.replace("\\", "/"),
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": max(f.line, 1),
                            "startColumn": f.col,
                        },
                    }
                }
            ],
        }
        for f in report.findings
    ]
    log = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": TOOL_URI,
                        "rules": rule_catalogue(),
                    }
                },
                "columnKind": "unicodeCodePoints",
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True)
