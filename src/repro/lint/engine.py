"""File discovery, parsing, rule dispatch and suppression filtering."""

from __future__ import annotations

import ast
import os
import subprocess
import tokenize
from dataclasses import dataclass, field
from typing import Iterable, Sequence

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
from repro.lint.layers import RULE_LAYER, layer_findings, manifest_findings
from repro.lint.manifest import Manifest, load_manifest
from repro.lint.rules import LintRule, ModuleContext, all_rules, module_name_for

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
#: OBS and CON findings gate the obs guard and the layer DAG; excusing
#: one without a recorded justification defeats the review trail.
REASON_REQUIRED_PREFIXES = ("OBS", "CON")


@dataclass
class ParsedModule:
    """One source file, parsed once and shared by every rule."""

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
            col=err.offset or 1,
            rule="PARSE",
            message=f"syntax error: {err.msg}",
        )
        return parsed
    parsed.ctx = ModuleContext(path, source, tree)
    return parsed


def _filter(
    parsed: ParsedModule, findings: Iterable[Finding]
) -> tuple[list[Finding], int]:
    """Split one module's findings into (kept, n_suppressed)."""
    kept: list[Finding] = []
    suppressed = 0
    for finding in findings:
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
    stale = [
        Finding(
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
        for lineno, rule in parsed.suppressions.unused(checkable)
    ]
    return _filter(parsed, stale)


def suppression_reason_findings(parsed: ParsedModule) -> tuple[list[Finding], int]:
    """LINT002 findings: OBS and CON suppressions must state a reason.

    Any ``# lint: disable[-file]=`` comment naming an OBS or CON rule
    must carry a ``reason=`` token in the same comment, e.g.::

        import repro.obs  # lint: disable=CON010 reason=bootstrap shim

    Purely syntactic, so it runs whatever rules are selected.
    """
    found: list[Finding] = []
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
        found.append(
            Finding(
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
        )
    return _filter(parsed, found)


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


def _lint_module(
    parsed: ParsedModule,
    rules: Sequence[LintRule],
    manifest: Manifest,
    unused_check: bool,
) -> tuple[list[Finding], int]:
    """Every check on one module: ``rules`` and CON010, LINT002, then
    LINT001 over the suppressions those left unused."""
    if parsed.ctx is None:
        assert parsed.parse_finding is not None
        kept, suppressed = [parsed.parse_finding], 0
    else:
        kept, suppressed = _filter(
            parsed,
            [
                *(f for rule in rules for f in rule.check(parsed.ctx)),
                *layer_findings(parsed.ctx, manifest),
            ],
        )
    reasoned, reason_suppressed = suppression_reason_findings(parsed)
    kept.extend(reasoned)
    suppressed += reason_suppressed
    if unused_check and parsed.ctx is not None:
        checkable = {rule.rule_id for rule in rules}
        checkable |= {SUPPRESSION_REASON_RULE, RULE_LAYER}
        stale, stale_suppressed = unused_suppression_findings(parsed, checkable)
        kept.extend(stale)
        suppressed += stale_suppressed
    return kept, suppressed


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Iterable[LintRule] | None = None,
    *,
    unused_check: bool = True,
) -> tuple[list[Finding], int]:
    """Lint one source string; returns (findings, n_suppressed).

    No manifest applies, so CON010 constrains nothing.
    """
    rules = list(rules) if rules is not None else all_rules()
    kept, suppressed = _lint_module(
        parse_module(source, path), rules, Manifest(), unused_check
    )
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept, suppressed


def lint_paths(
    paths: Sequence[str],
    rules: Iterable[LintRule] | None = None,
    *,
    unused_check: bool = True,
    manifest: str | None = None,
    changed_only: bool = False,
) -> LintReport:
    """Lint every python file under ``paths``.

    Each module gets ``rules`` (default: every registered rule) and
    CON010 against the layer DAG of the ``manifest`` file (``None``:
    the empty manifest, which constrains nothing).  CON010's manifest
    health matches the ``assign`` prefixes against the module names of
    every file under ``paths``.

    ``changed_only`` lints only the files changed vs ``git HEAD`` (plus
    untracked files), and reports manifest health only when the
    manifest itself changed.  Without git the full run happens.
    """
    rules = list(rules) if rules is not None else all_rules()
    loaded = load_manifest(manifest)
    files = iter_python_files(paths)
    seeds = changed_files() if changed_only else None

    def in_seeds(path: str) -> bool:
        return seeds is None or os.path.abspath(path) in seeds

    report = LintReport()
    for path in filter(in_seeds, files):
        parsed = parse_module(read_source(path), path)
        findings, suppressed = _lint_module(parsed, rules, loaded, unused_check)
        report.findings.extend(findings)
        report.suppressed += suppressed
        report.files_checked += 1
    report.findings.extend(
        f
        for f in manifest_findings(loaded, map(module_name_for, files))
        if in_seeds(f.path)
    )
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report
