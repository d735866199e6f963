"""Whole-program effects analysis: fixtures, regions, summaries, guards,
parallel safety, LINT002, the cache, the real tree and the
--changed-only plumbing.

The corpus runs through the one ``lint --deep`` driver, so these tests
also prove the flow and contracts analyzers stay silent on it.
"""

from __future__ import annotations

import json
import os

from repro.lint.deep import analyze_modules, analyze_paths
from repro.lint.effects import EFFECTS_RULE_IDS
from repro.lint.effects.summaries import summarize_program
from repro.lint.engine import (
    iter_python_files,
    lint_paths,
    parse_module,
    read_source,
    suppression_reason_findings,
)
from repro.lint.flow.graph import build_program
from repro.lint.formatters import format_sarif

FIXTURES = os.path.join("tests", "fixtures", "effects")
MANIFEST = os.path.join(FIXTURES, "lint.json")

#: Every seeded true positive in the fixture corpus, by (rule, file, line).
#: HOT001 transitive findings sit at the *call site* inside the hot
#: region, with the allocating callee named in the witness chain.
EXPECTED = {
    ("HOT001", "hot_engine.py", 22),  # tuple display
    ("HOT001", "hot_engine.py", 23),  # list comprehension
    ("HOT001", "hot_engine.py", 24),  # f-string formatting
    ("HOT001", "hot_engine.py", 25),  # dict display
    ("HOT001", "hot_engine.py", 26),  # allocating callee make_key()
    ("HOT001", "hot_engine.py", 28),  # per-event closure definition
    ("HOT003", "hot_engine.py", 31),  # try/except control flow
    ("HOT002", "hot_engine.py", 37),  # self.count read twice per loop
    ("OBS001", "obs_wiring.py", 11),  # unguarded obs use
    ("OBS001", "obs_wiring.py", 16),  # use on the proven-None branch
    ("PAR001", "par_submit.py", 15),  # lambda callable
    ("PAR001", "par_submit.py", 22),  # nested-function callable
    ("PAR001", "par_submit.py", 27),  # open file handle argument
    ("PAR001", "par_submit.py", 31),  # threading lock argument
}

#: Lines that look like positives but must stay silent (negatives).
NEGATIVE_LINES = {
    ("hot_engine.py", 19),  # cold-marked compute_slow body
    ("hot_engine.py", 41),  # allocation inside a raise is exempt
    ("hot_engine.py", 42),  # call into a declared cold boundary
    ("hot_engine.py", 43),  # small a, b = x, y unpack
    ("hot_engine.py", 44),  # suppressed with a reason
    ("hot_engine.py", 45),  # suppressed (LINT002's job, not HOT001's)
    ("obs_wiring.py", 21),  # guarded use
    ("obs_wiring.py", 27),  # early-exit guard promotes non-null
    ("obs_wiring.py", 31),  # excused: every call site is guarded
    ("par_submit.py", 35),  # module-level callable
    ("par_submit.py", 39),  # functools.partial over module-level fn
}


def _run_fixture():
    return analyze_paths([FIXTURES], MANIFEST)


def _parse_fixtures():
    return [
        parse_module(read_source(path), path)
        for path in iter_python_files([FIXTURES])
    ]


def _summaries():
    return summarize_program(build_program(_parse_fixtures()))


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
        assert by_rule["HOT002"] == "warning"
        for rule in ("HOT001", "HOT003", "OBS001", "PAR001"):
            assert by_rule[rule] == "error"

    def test_transitive_finding_carries_witness_chain(self):
        report = _run_fixture()
        chain = next(
            f for f in report.findings if f.rule == "HOT001" and f.line == 26
        )
        assert "call chain" in chain.message
        assert "make_key" in chain.message

    def test_suppressions_are_counted(self):
        report = _run_fixture()
        assert report.suppressed == 2

    def test_unmatched_manifest_entry_is_reported(self, tmp_path):
        manifest = tmp_path / "lint.json"
        manifest.write_text(
            json.dumps(
                {
                    "version": 1,
                    "hot": [{"function": "no.such.fn", "reason": "x"}],
                    "cold": [],
                }
            )
        )
        report = analyze_paths([FIXTURES], str(manifest))
        stale = [f for f in report.findings if f.path == str(manifest)]
        assert len(stale) == 1
        assert stale[0].rule == "HOT001" and "no.such.fn" in stale[0].message


class TestSummaries:
    def test_effect_bits_reach_summaries(self):
        summaries = _summaries()
        dispatch = summaries["hot_engine.Queue.dispatch"]
        assert dispatch.allocates and dispatch.raises
        make_key = summaries["hot_engine.Queue.make_key"]
        assert make_key.allocates and not make_key.raises

    def test_transitive_bits_propagate(self):
        summaries = _summaries()
        caller = summaries["par_submit.build_bad_handle"]
        assert caller.crosses_process


class TestSuppressionReason:
    def test_reasonless_effects_suppression_is_flagged(self):
        path = os.path.join(FIXTURES, "hot_engine.py")
        parsed = parse_module(read_source(path), path)
        findings, _ = suppression_reason_findings(parsed)
        assert [(f.rule, f.line) for f in findings] == [("LINT002", 45)]
        assert findings[0].severity == "error"
        assert "reason=" in findings[0].message

    def test_reasoned_and_base_rule_suppressions_pass(self):
        src = (
            "x = (1, 2)  # lint: disable=HOT001 reason=hoisted upstream\n"
            "import os  # lint: disable=IMP001\n"
        )
        findings, _ = suppression_reason_findings(parse_module(src, "m.py"))
        assert findings == []


class TestObsGuardInjection:
    """OBS001 must fire on an unguarded obs call injected into the real
    Simulator.run_until, and stay silent on the committed source."""

    PATH = os.path.join("src", "repro", "sim", "engine.py")
    NEEDLE = (
        "                    self._now_ns = head[0]\n"
        "                    event.callback()"
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
            self.NEEDLE + "\n                    self._obs_dispatched.inc(1)",
        )
        report = analyze_modules([parse_module(injected, self.PATH)])
        assert [f.rule for f in report.findings] == ["OBS001"]
        assert "proven None" in report.findings[0].message


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
        doc["hot"][0]["reason"] = "edited"
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
        assert stats["regions"] >= 8  # manifest entries plus inline markers


class TestChangedOnly:
    def test_findings_restricted_to_changed_seeds(self, monkeypatch):
        import repro.lint.engine as engine

        seed = os.path.abspath(os.path.join(FIXTURES, "obs_wiring.py"))
        monkeypatch.setattr(engine, "changed_files", lambda: {seed})
        report = lint_paths(
            [FIXTURES], deep=True, manifest=MANIFEST, changed_only=True
        )
        assert report.files_checked == 1
        paths = {os.path.basename(f.path) for f in report.findings}
        assert paths == {"obs_wiring.py"}

    def test_without_git_falls_back_to_full_run(self, monkeypatch):
        import repro.lint.engine as engine

        monkeypatch.setattr(engine, "changed_files", lambda: None)
        report = lint_paths(
            [FIXTURES], deep=True, manifest=MANIFEST, changed_only=True
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
        run = log["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert EFFECTS_RULE_IDS <= rule_ids and "LINT002" in rule_ids
        levels = {r["ruleId"]: r["level"] for r in run["results"]}
        assert levels["HOT001"] == "error" and levels["HOT002"] == "warning"


class TestCli:
    def test_effects_flags_and_exit_code(self, capsys):
        from repro.lint.cli import main

        status = main(
            [FIXTURES, "--deep", "--manifest", MANIFEST, "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert status == 1  # seeded errors fail the run
        assert payload["counts_by_rule"]["HOT001"] == 6
        assert payload["counts_by_rule"]["PAR001"] == 4

    def test_list_rules_covers_effects_catalogue(self, capsys):
        from repro.lint.cli import main

        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in sorted(EFFECTS_RULE_IDS) + ["LINT002"]:
            assert rule in out
