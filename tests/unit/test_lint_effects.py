"""The obs guard rule OBS001: fixtures, LINT002, an injection into the
real tree, the real tree itself and the --changed-only plumbing.

The corpus runs through ``lint_paths``, so these tests also prove the
layer rule stays silent on it.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.lint.engine import (
    lint_paths,
    lint_source,
    parse_module,
    read_source,
    suppression_reason_findings,
)
from repro.lint.formatters import format_sarif
from repro.lint.rules import all_rules
from tests.unit.test_lint_contracts import FIXTURE_FILES as CONTRACTS_FILES
from tests.unit.test_lint_contracts import MANIFEST as CONTRACTS_MANIFEST

FIXTURES = os.path.join("tests", "fixtures", "effects")
MANIFEST = os.path.join(FIXTURES, "lint.json")

#: Every seeded true positive in the fixture corpus, by (rule, file, line).
EXPECTED = {
    ("OBS001", "obs_wiring.py", 11),  # unguarded obs use
    ("OBS001", "obs_wiring.py", 16),  # use on the proven-None branch
    ("OBS001", "obs_wiring.py", 31),  # unguarded, though its one caller guards
}

#: Lines that look like positives but must stay silent (negatives).
NEGATIVE_LINES = {
    ("obs_wiring.py", 21),  # guarded use
    ("obs_wiring.py", 27),  # early-exit guard promotes non-null
    ("obs_wiring.py", 40),  # suppressed with a reason
    ("obs_wiring.py", 44),  # suppressed (LINT002's job, not OBS001's)
}


def _run_fixture():
    return lint_paths([FIXTURES], manifest=MANIFEST)


def _obs_and_layer(findings):
    """(rule, file, line) of the OBS001 and CON010 findings: LINT002
    keeps its own finding on line 44."""
    return {
        (f.rule, os.path.basename(f.path), f.line)
        for f in findings
        if f.rule in ("OBS001", "CON010")
    }


class TestFixtureCorpus:
    def test_every_seeded_bug_is_found(self):
        assert _obs_and_layer(_run_fixture().findings) == EXPECTED

    def test_all_rules_are_exercised(self):
        report = _run_fixture()
        assert {f.rule for f in report.findings} == {"OBS001", "LINT002"}

    def test_negatives_stay_silent(self):
        found = _obs_and_layer(_run_fixture().findings)
        assert not {(path, line) for _, path, line in found} & NEGATIVE_LINES

    def test_severities(self):
        report = _run_fixture()
        by_rule = {f.rule: f.severity for f in report.findings}
        assert by_rule == {"OBS001": "error", "LINT002": "error"}

    def test_suppressions_are_counted(self):
        report = _run_fixture()
        assert report.suppressed == 2


class TestSuppressionReason:
    def test_reasonless_effects_suppression_is_flagged(self):
        path = os.path.join(FIXTURES, "obs_wiring.py")
        parsed = parse_module(read_source(path), path)
        findings, _ = suppression_reason_findings(parsed)
        assert [(f.rule, f.line) for f in findings] == [("LINT002", 44)]
        assert findings[0].severity == "error"
        assert "reason=" in findings[0].message

    def test_reasoned_and_base_rule_suppressions_pass(self):
        src = (
            "x = (1, 2)  # lint: disable=OBS001 reason=metering helper\n"
            "import os  # lint: disable=IMP001\n"
        )
        findings, _ = suppression_reason_findings(parse_module(src, "m.py"))
        assert findings == []


class TestObsGuardInjection:
    """OBS001 must fire on an unguarded obs call injected into the real
    Simulator.run_until, and stay silent on the committed source."""

    PATH = os.path.join("src", "repro", "sim", "engine.py")
    NEEDLE = (
        "                self._now_ns = head[0]\n"
        "                event.callback()"
    )

    def test_committed_run_until_is_silent(self):
        src = read_source(self.PATH)
        assert self.NEEDLE in src  # keep the probe honest as code drifts
        findings, _ = lint_source(src, self.PATH, all_rules(["OBS001"]))
        assert findings == []

    def test_injected_unguarded_obs_call_fires(self):
        src = read_source(self.PATH)
        injected = src.replace(
            self.NEEDLE,
            self.NEEDLE + "\n                self._obs_dispatched.inc(1)",
        )
        findings, _ = lint_source(injected, self.PATH, all_rules(["OBS001"]))
        assert [f.rule for f in findings] == ["OBS001"]
        assert "not dominated" in findings[0].message


class TestRealTree:
    def test_src_is_clean_beyond_baseline(self, src_lint_report):
        # There is no baseline: the real tree has no OBS001 findings at all.
        obs = [f for f in src_lint_report.findings if f.rule == "OBS001"]
        assert obs == [], "\n".join(f.render() for f in obs)


class TestChangedOnly:
    """The OBS001 corpus beside the CON010 corpus, whose findings sit
    in files outside the seed."""

    def test_findings_restricted_to_changed_seeds(self, monkeypatch):
        import repro.lint.engine as engine

        seed = os.path.abspath(os.path.join(FIXTURES, "obs_wiring.py"))
        monkeypatch.setattr(engine, "changed_files", lambda: {seed})
        report = lint_paths(
            [FIXTURES, *CONTRACTS_FILES],
            manifest=CONTRACTS_MANIFEST,
            changed_only=True,
        )
        assert report.files_checked == 1
        paths = {os.path.basename(f.path) for f in report.findings}
        assert paths == {"obs_wiring.py"}

    def test_without_git_falls_back_to_full_run(self, monkeypatch):
        import repro.lint.engine as engine

        monkeypatch.setattr(engine, "changed_files", lambda: None)
        report = lint_paths(
            [FIXTURES, *CONTRACTS_FILES],
            manifest=CONTRACTS_MANIFEST,
            changed_only=True,
        )
        assert report.files_checked == 3
        got = {
            (f.rule, os.path.basename(f.path), f.line)
            for f in report.findings
            if f.rule == "OBS001"
        }
        assert got == EXPECTED


class TestSarif:
    def test_sarif_catalogue_includes_effects_rules(self):
        report = lint_paths([FIXTURES], manifest=MANIFEST)
        log = json.loads(format_sarif(report))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"OBS001", "LINT002"} <= rule_ids
        levels = {r["ruleId"]: r["level"] for r in run["results"]}
        assert levels == {"OBS001": "error", "LINT002": "error"}
        lines = [
            r["locations"][0]["physicalLocation"]["region"]["startLine"]
            for r in run["results"]
        ]
        assert all(line >= 1 for line in lines)


class TestCli:
    def test_effects_flags_and_exit_code(self, capsys):
        from repro.lint.cli import main

        status = main([FIXTURES, "--manifest", MANIFEST, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert status == 1  # seeded errors fail the run
        assert payload["counts_by_rule"] == {"OBS001": 3, "LINT002": 1}

    @pytest.mark.parametrize(
        "select, status, counts",
        [
            ("OBS001", 1, {"OBS001": 3}),
            ("DET001", 0, {}),  # no OBS001/LINT002 finding slips in
            ("NOPE999", 2, None),
            ("HOT001", 2, None),  # a removed rule is unknown
            ("PAR001", 2, None),
        ],
        ids=["OBS001", "DET001", "NOPE999", "HOT001", "PAR001"],
    )
    def test_select_filters_every_pass(self, select, status, counts, capsys):
        # --select takes any id --list-rules prints and keeps only those
        # rules' findings, the engine-level rules' included.
        from repro.lint.cli import main

        argv = [FIXTURES, "--manifest", MANIFEST, "--format", "json"]
        assert main([*argv, "--select", select]) == status
        captured = capsys.readouterr()
        if counts is None:
            assert f"unknown lint rule(s): {select}" in captured.err
        else:
            assert json.loads(captured.out)["counts_by_rule"] == counts

    def test_list_rules_covers_effects_catalogue(self, capsys):
        from repro.lint.cli import main

        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("OBS001", "LINT002"):
            assert rule in out
