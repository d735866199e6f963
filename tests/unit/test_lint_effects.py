"""Whole-program effects analysis: fixtures, call resolution, guards,
LINT002, the cache, the real tree and the --changed-only plumbing.

The corpus runs through the one ``lint --deep`` driver, so these tests
also prove the contracts analyzer stays silent on it.
"""

from __future__ import annotations

import ast
import json
import os

import pytest

from repro.lint.deep import analyze_modules, analyze_paths
from repro.lint.effects import EFFECTS_RULE_IDS
from repro.lint.effects.resolver import Resolver
from repro.lint.engine import (
    iter_python_files,
    lint_paths,
    parse_module,
    read_source,
    suppression_reason_findings,
)
from repro.lint.formatters import format_sarif
from repro.lint.program import build_program
from tests.unit.test_lint_contracts import FIXTURE_FILES as CONTRACTS_FILES
from tests.unit.test_lint_contracts import MANIFEST as CONTRACTS_MANIFEST

FIXTURES = os.path.join("tests", "fixtures", "effects")
MANIFEST = os.path.join(FIXTURES, "lint.json")

#: Every seeded true positive in the fixture corpus, by (rule, file, line).
EXPECTED = {
    ("OBS001", "obs_wiring.py", 11),  # unguarded obs use
    ("OBS001", "obs_wiring.py", 16),  # use on the proven-None branch
}

#: Lines that look like positives but must stay silent (negatives).
NEGATIVE_LINES = {
    ("obs_wiring.py", 21),  # guarded use
    ("obs_wiring.py", 27),  # early-exit guard promotes non-null
    ("obs_wiring.py", 31),  # excused: every call site is guarded
    ("obs_wiring.py", 40),  # suppressed with a reason
    ("obs_wiring.py", 44),  # suppressed (LINT002's job, not OBS001's)
}


def _run_fixture():
    return analyze_paths([FIXTURES], MANIFEST)


def _parse_fixtures():
    return [
        parse_module(read_source(path), path)
        for path in iter_python_files([FIXTURES])
    ]


def _resolver(module_name: str):
    program = build_program(_parse_fixtures())
    return program, Resolver(program, program.modules[module_name])


class TestFixtureCorpus:
    def test_every_seeded_bug_is_found(self):
        report = _run_fixture()
        got = {
            (f.rule, os.path.basename(f.path), f.line) for f in report.findings
        }
        assert got == EXPECTED

    def test_all_rules_are_exercised(self):
        report = _run_fixture()
        assert {f.rule for f in report.findings} == EFFECTS_RULE_IDS

    def test_negatives_stay_silent(self):
        report = _run_fixture()
        hits = {(os.path.basename(f.path), f.line) for f in report.findings}
        assert not hits & NEGATIVE_LINES

    def test_severities(self):
        report = _run_fixture()
        by_rule = {f.rule: f.severity for f in report.findings}
        assert by_rule == {"OBS001": "error"}

    def test_suppressions_are_counted(self):
        report = _run_fixture()
        assert report.suppressed == 2


class TestResolver:
    def test_resolves_self_methods_and_imported_names(self):
        program, resolver = _resolver("obs_wiring")
        caller = program.functions["obs_wiring.Engine.run_caller_guarded"]
        call = caller.node.body[-1].value
        resolved = resolver.resolve_call(call, caller, {})
        assert (resolved.kind, resolved.target) == (
            "func",
            "obs_wiring.Engine._helper",
        )
        modules = [parse_module(read_source(p), p) for p in CONTRACTS_FILES]
        program = build_program(modules)
        resolver = Resolver(program, program.modules["layer_low"])
        compute = program.functions["layer_low.compute"]
        call = compute.node.body[-1].value  # layer_high.exporter(helper() + ...)
        resolved = resolver.resolve_call(call, compute, {})
        assert (resolved.kind, resolved.target) == ("func", "layer_high.exporter")
        resolved = resolver.resolve_call(call.args[0].left, compute, {})
        assert (resolved.kind, resolved.target) == ("func", "layer_high.helper")
        # A name bound outside the analyzed program stays unresolved.
        outside = ast.parse("TYPE_CHECKING()", mode="eval").body
        assert resolver.resolve_call(outside, compute, {}) is None


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
        report = analyze_modules([parse_module(src, self.PATH)])
        assert report.findings == []

    def test_injected_unguarded_obs_call_fires(self):
        src = read_source(self.PATH)
        injected = src.replace(
            self.NEEDLE,
            self.NEEDLE + "\n                self._obs_dispatched.inc(1)",
        )
        report = analyze_modules([parse_module(injected, self.PATH)])
        assert [f.rule for f in report.findings] == ["OBS001"]
        assert "not dominated" in report.findings[0].message


class TestCache:
    def test_warm_run_replays_without_reanalysis(self):
        cold_modules = _parse_fixtures()
        cold = analyze_modules(cold_modules, MANIFEST)
        warm_modules = _parse_fixtures()
        warm = analyze_modules(warm_modules, MANIFEST)
        assert not cold.stats["cache_hit"] and cold.findings
        assert warm.stats["cache_hit"]
        assert [f.to_dict() for f in warm.findings] == [
            f.to_dict() for f in cold.findings
        ]
        assert warm.suppressed == cold.suppressed == 2  # replayed, not lost
        assert [m.suppressions.used for m in warm_modules] == [
            m.suppressions.used for m in cold_modules
        ]

    def test_manifest_edit_invalidates(self, tmp_path):
        manifest = tmp_path / "lint.json"
        manifest.write_text(read_source(MANIFEST))
        first = analyze_paths([FIXTURES], str(manifest))
        assert not first.stats["cache_hit"]
        assert analyze_paths([FIXTURES], str(manifest)).stats["cache_hit"]
        doc = json.loads(manifest.read_text())
        doc["layers"] = {"assign": {"wiring": ["obs_wiring"]}, "allow": {}}
        manifest.write_text(json.dumps(doc))
        edited = analyze_paths([FIXTURES], str(manifest))
        assert not edited.stats["cache_hit"]


class TestRealTree:
    def test_src_is_clean_beyond_baseline(self, deep_src_run):
        # There is no baseline: the real tree has no effects findings at all.
        report, _ = deep_src_run
        effects = [f for f in report.findings if f.rule in EFFECTS_RULE_IDS]
        assert effects == [], "\n".join(f.render() for f in effects)

    def test_scales_to_the_whole_package(self, deep_src_run):
        stats = deep_src_run[0].deep
        assert stats["modules"] > 100 and stats["functions"] > 500


class TestChangedOnly:
    """The effects corpus beside the CON010 corpus, whose findings sit
    in files outside the seed."""

    def test_findings_restricted_to_changed_seeds(self, monkeypatch):
        import repro.lint.engine as engine

        seed = os.path.abspath(os.path.join(FIXTURES, "obs_wiring.py"))
        monkeypatch.setattr(engine, "changed_files", lambda: {seed})
        report = lint_paths(
            [FIXTURES, *CONTRACTS_FILES],
            deep=True,
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
            deep=True,
            manifest=CONTRACTS_MANIFEST,
            changed_only=True,
        )
        assert report.files_checked == 3
        got = {
            (f.rule, os.path.basename(f.path), f.line)
            for f in report.findings
            if f.rule in EFFECTS_RULE_IDS
        }
        assert got == EXPECTED


class TestSarif:
    def test_sarif_catalogue_includes_effects_rules(self):
        report = lint_paths([FIXTURES], deep=True, manifest=MANIFEST)
        log = json.loads(format_sarif(report))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert EFFECTS_RULE_IDS <= rule_ids and "LINT002" in rule_ids
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

        status = main(
            [FIXTURES, "--deep", "--manifest", MANIFEST, "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert status == 1  # seeded errors fail the run
        assert payload["counts_by_rule"] == {"OBS001": 2, "LINT002": 1}

    @pytest.mark.parametrize(
        "select, status, counts",
        [
            ("OBS001", 1, {"OBS001": 2}),
            ("DET001", 0, {}),  # no OBS001/LINT002 finding slips in
            ("NOPE999", 2, None),
            ("HOT001", 2, None),  # a removed rule is unknown
            ("PAR001", 2, None),
        ],
        ids=["OBS001", "DET001", "NOPE999", "HOT001", "PAR001"],
    )
    def test_select_filters_every_pass(self, select, status, counts, capsys):
        # --select takes any id --list-rules prints and keeps only those
        # rules' findings, the --deep pass's included.
        from repro.lint.cli import main

        argv = [FIXTURES, "--deep", "--manifest", MANIFEST, "--format", "json"]
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
        for rule in sorted(EFFECTS_RULE_IDS) + ["LINT002"]:
            assert rule in out
