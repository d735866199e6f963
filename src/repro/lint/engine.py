"""File discovery, parsing, rule dispatch and suppression filtering."""

from __future__ import annotations

import ast
import os
import subprocess
import tokenize
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.errors import LintError
from repro.lint.findings import (
    _FILE_RE,
    _LINE_RE,
    _comment_lines,
    _split,
    SEVERITY_WARNING,
    Finding,
    SuppressionIndex,
)
from repro.lint.rules import LintRule, ModuleContext, all_rules

#: Pruned while walking directory arguments.  ``fixtures`` holds test
#: *data* — deliberately-buggy inputs — linted only when named directly.
_SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".hypothesis",
    ".pytest_cache",
    "build",
    "dist",
    "fixtures",
}

#: Engine-level rule: a ``# lint: disable=RULE`` that excused nothing.
UNUSED_SUPPRESSION_RULE = "LINT001"

#: Engine-level rule: an OBS/CON suppression without a ``reason=``.
SUPPRESSION_REASON_RULE = "LINT002"

#: Rule-id prefixes whose suppressions must carry a ``reason=`` token.
#: Effects and contracts findings gate the obs guard and the layer DAG;
#: excusing one without a recorded justification defeats the review
#: trail.
REASON_REQUIRED_PREFIXES = ("OBS", "CON")


@dataclass
class ParsedModule:
    """One source file, parsed once and shared by every analysis pass."""

    path: str
    source: str
    suppressions: SuppressionIndex
    ctx: ModuleContext | None = None
    parse_finding: Finding | None = None


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    #: Statistics of the whole-program ``deep`` run, when it ran
    #: (program and analyzer counts, cache status, wall time).
    deep: dict[str, Any] | None = None

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def clean(self) -> bool:
        return not self.errors

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts


def iter_python_files(paths: Sequence[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                found.append(path)
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d not in _SKIP_DIRS)
                found.extend(
                    os.path.join(root, f) for f in sorted(files) if f.endswith(".py")
                )
        else:
            raise LintError(f"no such file or directory: {path}")
    return sorted(set(found))


def read_source(path: str) -> str:
    """Read a Python source file the way the interpreter would.

    ``tokenize.open`` honours a PEP 263 ``# -*- coding: ... -*-`` cookie
    and a UTF-8/UTF-16 BOM, defaulting to UTF-8 — never the platform
    default encoding, so results do not depend on the host locale.
    """
    try:
        with tokenize.open(path) as handle:
            return handle.read()
    except (SyntaxError, UnicodeDecodeError) as err:
        # A bogus cookie or undecodable bytes: surface as a lint error
        # rather than crashing the whole run.
        raise LintError(f"cannot decode {path}: {err}") from err


def parse_module(source: str, path: str = "<string>") -> ParsedModule:
    """Parse one source string into the shared per-module record."""
    parsed = ParsedModule(
        path=path, source=source, suppressions=SuppressionIndex(source)
    )
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as err:
        parsed.parse_finding = Finding(
            path=path,
            line=err.lineno or 1,
            col=(err.offset or 0) + 1,
            rule="PARSE",
            message=f"syntax error: {err.msg}",
        )
        return parsed
    parsed.ctx = ModuleContext(path, source, tree)
    return parsed


def _apply_rules(
    parsed: ParsedModule, rules: Sequence[LintRule]
) -> tuple[list[Finding], int]:
    """Run ``rules`` over one parsed module, filtering suppressions."""
    if parsed.ctx is None:
        assert parsed.parse_finding is not None
        return [parsed.parse_finding], 0
    kept: list[Finding] = []
    suppressed = 0
    for rule in rules:
        for finding in rule.check(parsed.ctx):
            if parsed.suppressions.suppresses(finding):
                suppressed += 1
            else:
                kept.append(finding)
    return kept, suppressed


def unused_suppression_findings(
    parsed: ParsedModule, checkable: set[str]
) -> tuple[list[Finding], int]:
    """LINT001 warnings for stale suppressions in one module.

    A LINT001 finding is itself suppressible (``# lint:
    disable=LINT001`` on the stale comment's line), which the second
    return value counts.
    """
    kept: list[Finding] = []
    suppressed = 0
    for lineno, rule in parsed.suppressions.unused(checkable):
        finding = Finding(
            path=parsed.path,
            line=lineno,
            col=1,
            rule=UNUSED_SUPPRESSION_RULE,
            message=(
                f"suppression of {rule} never matched a finding; "
                "remove the stale '# lint: disable' comment"
            ),
            severity=SEVERITY_WARNING,
        )
        if parsed.suppressions.suppresses(finding):
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed


def suppression_reason_findings(parsed: ParsedModule) -> tuple[list[Finding], int]:
    """LINT002 findings: OBS and CON suppressions must state a reason.

    Any ``# lint: disable[-file]=`` comment naming an OBS or CON rule
    must carry a ``reason=`` token in the same comment, e.g.::

        import repro.obs  # lint: disable=CON010 reason=bootstrap shim

    Purely syntactic, so it runs whether or not ``--deep`` does.
    """
    kept: list[Finding] = []
    suppressed = 0
    for lineno, text in _comment_lines(parsed.source):
        match = _FILE_RE.search(text) or _LINE_RE.search(text)
        if match is None:
            continue
        needing = sorted(
            rule
            for rule in _split(match.group(1))
            if rule.startswith(REASON_REQUIRED_PREFIXES)
        )
        if not needing or "reason=" in text:
            continue
        finding = Finding(
            path=parsed.path,
            line=lineno,
            col=1,
            rule=SUPPRESSION_REASON_RULE,
            message=(
                f"suppression of {', '.join(needing)} lacks a 'reason=' "
                "token; OBS and CON suppressions must record their "
                "justification inline"
            ),
        )
        if parsed.suppressions.suppresses(finding):
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed


def changed_files() -> set[str] | None:
    """Absolute paths changed vs HEAD (tracked diffs plus untracked).

    Returns ``None`` when git is unavailable or the working directory is
    not a repository — callers fall back to a full run.
    """
    def _git(*args: str) -> str:
        return subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            check=True,
            timeout=30,
        ).stdout

    try:
        top = _git("rev-parse", "--show-toplevel").strip()
        listing = _git("diff", "--name-only", "HEAD") + _git(
            "ls-files", "--others", "--exclude-standard"
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return {
        os.path.abspath(os.path.join(top, line.strip()))
        for line in listing.splitlines()
        if line.strip()
    }


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Iterable[LintRule] | None = None,
    *,
    unused_check: bool = True,
) -> tuple[list[Finding], int]:
    """Lint one source string; returns (findings, n_suppressed)."""
    rules = list(rules) if rules is not None else all_rules()
    parsed = parse_module(source, path)
    kept, suppressed = _apply_rules(parsed, rules)
    reasoned, reason_suppressed = suppression_reason_findings(parsed)
    kept.extend(reasoned)
    suppressed += reason_suppressed
    if unused_check and parsed.ctx is not None:
        checkable = {rule.rule_id for rule in rules} | {SUPPRESSION_REASON_RULE}
        stale, stale_suppressed = unused_suppression_findings(parsed, checkable)
        kept.extend(stale)
        suppressed += stale_suppressed
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept, suppressed


def lint_paths(
    paths: Sequence[str],
    rules: Iterable[LintRule] | None = None,
    *,
    unused_check: bool = True,
    deep: bool = False,
    manifest: str | None = None,
    changed_only: bool = False,
) -> LintReport:
    """Lint every python file under ``paths``.

    With ``deep=True`` the whole-program effects and contracts
    analyzers (:mod:`repro.lint.deep`) run over the same parsed modules
    against the ``manifest`` file (``None``: the empty manifest) and
    their findings join the report.

    ``changed_only`` restricts reported findings to files changed vs
    ``git HEAD`` (plus untracked files).  Every file is still *parsed*
    — the whole-program passes need the complete module set — but
    per-module rules run only on the changed seeds and whole-program
    findings outside them are dropped, so a warm pre-commit run stays
    fast and quiet.  Without git the full run happens.
    """
    rules = list(rules) if rules is not None else all_rules()
    report = LintReport()
    modules: list[ParsedModule] = []
    seeds: set[str] | None = None
    if changed_only:
        changed = changed_files()
        if changed is not None:
            seeds = changed

    def in_seeds(path: str) -> bool:
        return seeds is None or os.path.abspath(path) in seeds

    seeded: list[ParsedModule] = []
    for path in iter_python_files(paths):
        parsed = parse_module(read_source(path), path)
        modules.append(parsed)
        if not in_seeds(path):
            continue
        seeded.append(parsed)
        findings, suppressed = _apply_rules(parsed, rules)
        report.findings.extend(findings)
        report.suppressed += suppressed
        report.files_checked += 1
        reasoned, reason_suppressed = suppression_reason_findings(parsed)
        report.findings.extend(reasoned)
        report.suppressed += reason_suppressed

    checkable = {rule.rule_id for rule in rules} | {SUPPRESSION_REASON_RULE}
    if deep:
        from repro.lint.deep import DEEP_RULE_IDS, analyze_modules

        deep_report = analyze_modules(modules, manifest)
        report.findings.extend(
            f for f in deep_report.findings if in_seeds(f.path)
        )
        report.suppressed += deep_report.suppressed
        report.deep = deep_report.stats
        checkable |= DEEP_RULE_IDS

    if unused_check:
        for parsed in seeded:
            if parsed.ctx is None:
                continue
            stale, stale_suppressed = unused_suppression_findings(parsed, checkable)
            report.findings.extend(stale)
            report.suppressed += stale_suppressed

    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report
