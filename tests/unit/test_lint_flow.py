"""Whole-program flow analysis: fixtures, lattice, cache, real tree,
SARIF, CLI.

The corpus runs through the one ``lint --deep`` driver, so these tests
also prove the effects and contracts analyzers stay silent on it.
"""

from __future__ import annotations

import json
import os

from repro.lint.deep import analyze_modules, analyze_paths
from repro.lint.engine import lint_paths, parse_module
from repro.lint.flow import FLOW_RULE_IDS
from repro.lint.flow.lattice import (
    AbsValue,
    Dim,
    binop,
    dim_for_suffix,
    join,
)
from repro.lint.formatters import format_sarif

FIXTURES = os.path.join("tests", "fixtures", "flow")

#: Every seeded true positive in the fixture corpus, by (rule, file, line).
#: DET002 lines sit where the tainted value is *stored into state*, which
#: for taints arriving through a call is inside the callee body.
EXPECTED = {
    ("DIM001", "power_model.py", 13),  # power + time
    ("DIM001", "power_model.py", 17),  # us argument into dt_ns param
    ("DIM002", "power_model.py", 26),  # bare literal 250 into limit_ns
    ("DIM003", "power_model.py", 28),  # cross-module float into now_ns
    ("DET002", "sim_machine.py", 22),  # set-iteration taint via advance()
    ("DIM001", "sim_machine.py", 25),  # energy_j += W * ns (missing rescale)
    ("DET002", "sim_machine.py", 31),  # rng taint via schedule_at()
    ("DIM003", "sim_machine.py", 36),  # float return of latency_ns()
    ("DIM003", "sim_machine.py", 44),  # float into the t_ns local
    ("DIM001", "sim_machine.py", 47),  # ns + us arithmetic
    ("DET002", "sim_machine.py", 50),  # wall-clock into Machine.now_ns
    ("DIM003", "sim_machine.py", 51),  # float jitter into t_ns argument
}


def _run_fixture():
    return analyze_paths([FIXTURES])


class TestFixtureCorpus:
    def test_every_seeded_bug_is_found(self):
        report = _run_fixture()
        got = {
            (f.rule, os.path.basename(f.path), f.line) for f in report.findings
        }
        assert got == EXPECTED

    def test_all_rules_are_exercised(self):
        report = _run_fixture()
        assert {f.rule for f in report.findings} == FLOW_RULE_IDS

    def test_clean_module_stays_silent(self):
        report = _run_fixture()
        assert not [
            f for f in report.findings if f.path.endswith("clean_model.py")
        ]

    def test_severities(self):
        report = _run_fixture()
        by_rule = {f.rule: f.severity for f in report.findings}
        assert by_rule["DIM002"] == "warning"
        assert by_rule["DIM001"] == "error"
        assert by_rule["DIM003"] == "error"
        assert by_rule["DET002"] == "error"

    def test_taint_messages_carry_source_witness(self):
        report = _run_fixture()
        wall = [
            f
            for f in report.findings
            if f.rule == "DET002" and "wall-clock" in f.message
        ]
        assert wall and all("time.monotonic()" in f.message for f in wall)


class TestLattice:
    def test_same_kind_different_scale_is_a_mismatch(self):
        ns = AbsValue(dim=dim_for_suffix("ns"), rep="int")
        us = AbsValue(dim=dim_for_suffix("us"), rep="int")
        result = binop("add", ns, us)
        assert result.mismatch is not None
        assert "different scale" in result.mismatch

    def test_power_times_time_is_energy(self):
        w = AbsValue(dim=dim_for_suffix("w"), rep="float")
        s = AbsValue(dim=dim_for_suffix("s"), rep="float")
        result = binop("mult", w, s)
        assert result.value.dim == Dim("energy", 1.0)

    def test_scale_constant_numerator_rescales_quotient(self):
        # NS_PER_S / rate_hz is a nanosecond count, not seconds.
        ns_per_s = AbsValue(
            dim=Dim("dimensionless", 1.0), rep="int", const=1e9, scale_const=True
        )
        hz = AbsValue(dim=dim_for_suffix("hz"), rep="float")
        result = binop("div", ns_per_s, hz)
        assert result.value.dim == Dim("time", 1e-9)
        assert result.mismatch is None

    def test_join_widens_factor_not_kind(self):
        ns = AbsValue(dim=dim_for_suffix("ns"))
        us = AbsValue(dim=dim_for_suffix("us"))
        joined = join(ns, us)
        assert joined.dim == Dim("time", None)


class TestCache:
    def test_warm_run_replays_without_reanalysis(self):
        cold = _run_fixture()
        warm = _run_fixture()
        assert not cold.stats["cache_hit"] and cold.findings
        assert warm.stats["cache_hit"]
        assert [f.to_dict() for f in warm.findings] == [
            f.to_dict() for f in cold.findings
        ]

    def test_source_edit_invalidates(self):
        src = "def f(t_ns):\n    return t_ns\n"
        first = analyze_modules([parse_module(src, "m.py")])
        again = analyze_modules([parse_module(src, "m.py")])
        edited = analyze_modules([parse_module(src + "\nX = 1\n", "m.py")])
        assert not first.stats["cache_hit"] and again.stats["cache_hit"]
        assert not edited.stats["cache_hit"]

    def test_cached_run_replays_suppression_usage(self, tmp_path):
        # A suppression used only by a flow finding must stay "used" on a
        # cache hit, or LINT001 would flag it as stale.
        path = tmp_path / "mem.py"
        path.write_text(
            "def f(t_ns, t_us):\n"
            "    return t_ns + t_us  # lint: disable=DIM001\n"
        )
        for hit in (False, True):  # cold, then warm
            report = lint_paths([str(path)], deep=True)
            assert report.deep["cache_hit"] is hit
            assert report.findings == []
            assert report.suppressed == 1


class TestRealTree:
    def test_src_is_clean_beyond_baseline(self, deep_src_run):
        # There is no baseline: the real tree has no flow findings at all.
        report, _ = deep_src_run
        flow = [f for f in report.findings if f.rule in FLOW_RULE_IDS]
        assert flow == [], "\n".join(f.render() for f in flow)

    def test_scales_to_the_whole_package(self, deep_src_run):
        stats = deep_src_run[0].deep
        assert stats["modules"] > 100 and stats["functions"] > 500
        assert stats["rounds"] < 20


class TestSarif:
    def test_sarif_log_structure(self):
        report = lint_paths([FIXTURES], deep=True)
        log = json.loads(format_sarif(report))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert FLOW_RULE_IDS <= rule_ids and "LINT001" in rule_ids
        levels = {r["ruleId"]: r["level"] for r in run["results"]}
        assert levels["DIM002"] == "warning" and levels["DIM001"] == "error"
        lines = [
            r["locations"][0]["physicalLocation"]["region"]["startLine"]
            for r in run["results"]
        ]
        assert all(line >= 1 for line in lines)


class TestCli:
    def test_flow_flags_and_exit_code(self, tmp_path, capsys):
        from repro.lint.cli import main

        manifest = tmp_path / "lint.json"
        manifest.write_text('{"version": 1}')
        status = main(
            [FIXTURES, "--deep", "--manifest", str(manifest), "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert status == 1  # seeded errors fail the run
        assert payload["counts_by_rule"]["DIM001"] == 4
