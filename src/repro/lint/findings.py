"""Finding records and inline-suppression bookkeeping.

A finding pins one rule violation to a file/line/column.  Suppressions
are comment-driven so they live next to the code they excuse:

* ``# lint: disable=RULE[,RULE...]`` — suppresses matching findings on
  that physical line (put it on the line the linter reports).
* ``# lint: disable-file=RULE[,RULE...]`` — suppresses a rule for the
  whole file; reserved for modules that *are* the authority the rule
  defends (e.g. :mod:`repro.units` legitimately mixes unit suffixes).
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import asdict, dataclass

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    #: 1-based, as the human, JSON and SARIF outputs all print it.
    col: int
    rule: str
    message: str
    severity: str = SEVERITY_ERROR

    def to_dict(self) -> dict:
        return asdict(self)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


_LINE_RE = re.compile(r"#\s*lint:\s*disable=([A-Z]+[0-9]*(?:\s*,\s*[A-Z]+[0-9]*)*)")
_FILE_RE = re.compile(r"#\s*lint:\s*disable-file=([A-Z]+[0-9]*(?:\s*,\s*[A-Z]+[0-9]*)*)")


def _split(group: str) -> set[str]:
    return {rule.strip() for rule in group.split(",") if rule.strip()}


#: Sentinel line number for file-level (``disable-file=``) suppressions.
FILE_LEVEL = 0


def _comment_lines(source: str) -> list[tuple[int, str]]:
    """(line, text) of every real comment token.

    Tokenizing keeps suppression syntax inside string literals inert
    (test code quotes it constantly); source that will not tokenize
    falls back to a plain line scan so suppressions still work in files
    the parser rejects.
    """
    try:
        return [
            (token.start[0], token.string)
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return list(enumerate(source.splitlines(), start=1))


class SuppressionIndex:
    """Per-file map of which rules are disabled on which lines.

    The index also tracks *usage*: every suppression that actually hides
    a finding is recorded, so the engine can report stale
    ``# lint: disable=RULE`` comments (rule LINT001) that no longer
    excuse anything.
    """

    def __init__(self, source: str) -> None:
        self.line_rules: dict[int, set[str]] = {}
        self.file_rules: set[str] = set()
        #: rule -> line of the ``disable-file=`` comment declaring it.
        self.file_rule_lines: dict[str, int] = {}
        #: (line, rule) pairs that suppressed at least one finding;
        #: file-level usage is recorded with line ``FILE_LEVEL``.
        self.used: set[tuple[int, str]] = set()
        #: (line, rules, has ``reason=``) of every disable comment, in
        #: source order (LINT002 reads these).
        self.comments: list[tuple[int, set[str], bool]] = []
        for lineno, text in _comment_lines(source):
            file_match = _FILE_RE.search(text)
            match = file_match or _LINE_RE.search(text)
            if match is None:
                continue
            rules = _split(match.group(1))
            self.comments.append((lineno, rules, "reason=" in text))
            if file_match:
                for rule in rules:
                    self.file_rules.add(rule)
                    self.file_rule_lines.setdefault(rule, lineno)
            else:
                self.line_rules.setdefault(lineno, set()).update(rules)

    def suppresses(self, finding: Finding) -> bool:
        """Whether ``finding`` is excused; marks the suppression used."""
        if finding.rule in self.file_rules:
            self.used.add((FILE_LEVEL, finding.rule))
            return True
        if finding.rule in self.line_rules.get(finding.line, ()):
            self.used.add((finding.line, finding.rule))
            return True
        return False

    def unused(self, checkable: set[str]) -> list[tuple[int, str]]:
        """(line, rule) of declared-but-unused suppressions.

        Only rules in ``checkable`` (the rules that actually ran) are
        reported: an inactive rule cannot prove its suppressions stale.
        File-level entries report the line of the declaring comment.
        """
        stale: list[tuple[int, str]] = []
        for lineno, rules in self.line_rules.items():
            for rule in rules:
                if rule in checkable and (lineno, rule) not in self.used:
                    stale.append((lineno, rule))
        for rule in sorted(self.file_rules):
            if rule in checkable and (FILE_LEVEL, rule) not in self.used:
                stale.append((self.file_rule_lines[rule], rule))
        return sorted(stale)
