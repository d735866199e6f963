"""Whole-program contracts analysis: fixture corpus, manifest health,
the cache, and the acceptance mutation demo (schema field drift must surface
exactly one finding).

The corpus runs through the one ``lint --deep`` driver, so these tests
also prove the effects analyzer stays silent on it.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import pytest

from repro.errors import LintError
from repro.lint.contracts import CONTRACTS_RULE_IDS
from repro.lint.deep import analyze_paths, cache_key
from repro.lint.engine import parse_module, read_source
from repro.lint.manifest import load_manifest
from repro.lint.sarif import rule_titles

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = os.path.join("tests", "fixtures", "contracts")
MANIFEST = os.path.join(FIXTURES, "lint.json")

#: The fixture walk is an explicit file list: the lint walker prunes
#: ``fixtures`` directories from subtree scans, and ``testsrc/`` is
#: CON021 corpus data, not analyzed source.
FIXTURE_FILES = [
    os.path.join(FIXTURES, name)
    for name in (
        "layer_high.py",
        "layer_low.py",
        "schema_mod.py",
    )
]

#: Every seeded true positive in the fixture corpus, by (rule, file, line).
EXPECTED = {
    ("CON010", "layer_low.py", 10),  # module-scope import layer_high
    ("CON010", "layer_low.py", 11),  # module-scope from-import
    ("CON020", "lint.json", 1),  # stale 'ghost' entry
    ("CON020", "schema_mod.py", 17),  # alpha field drift, no version bump
    ("CON020", "schema_mod.py", 37),  # second writer site for 'dual'
    ("CON020", "schema_mod.py", 45),  # unregistered schema
    ("CON020", "schema_mod.py", 49),  # writer with no validator
    ("CON020", "schema_mod.py", 53),  # validator with no writer
    ("CON021", "schema_mod.py", 41),  # validate_dual named by no test
}

#: Lines that look like positives but must stay silent (negatives).
NEGATIVE_LINES = {
    ("layer_low.py", 14),  # TYPE_CHECKING import is exempt
    ("layer_low.py", 23),  # function-level lazy import is exempt
    ("schema_mod.py", 33),  # the FIRST dual writer is not the extra one
    ("schema_mod.py", 27),  # validate_alpha is test-covered
}


def _run_fixture():
    return analyze_paths(FIXTURE_FILES, MANIFEST)


class TestFixtureCorpus:
    def test_every_seeded_bug_is_found(self):
        report = _run_fixture()
        got = {
            (f.rule, os.path.basename(f.path), f.line) for f in report.findings
        }
        assert got == EXPECTED
        assert len(report.findings) == 9

    def test_all_rules_are_exercised(self):
        report = _run_fixture()
        assert {f.rule for f in report.findings} == CONTRACTS_RULE_IDS

    def test_negatives_stay_silent(self):
        report = _run_fixture()
        hits = {(os.path.basename(f.path), f.line) for f in report.findings}
        assert not hits & NEGATIVE_LINES

    def test_severities(self):
        report = _run_fixture()
        by_rule = {f.rule: f.severity for f in report.findings}
        assert by_rule["CON021"] == "warning"
        for rule in ("CON010", "CON020"):
            assert by_rule[rule] == "error"

    def test_stats_shape(self):
        report = _run_fixture()
        stats = report.stats
        assert stats["modules"] == 3
        assert stats["layers"] == 2
        # alpha/dual/unregistered/noval/orphan; the stale ghost entry
        # exists only in the snapshot, not in code.
        assert stats["schemas"] == 5
        assert stats["findings"] == 9


class TestManifestHealth:
    @pytest.mark.parametrize(
        "doc, key",
        [
            pytest.param({"pairs": []}, "pairs", id="pairs"),
            pytest.param({"bogus": []}, "bogus", id="bogus"),
            pytest.param({"regions": []}, "regions", id="regions"),
            pytest.param(
                {"layers": {"assign": {}, "allow": {}, "deny": {}}},
                "deny",
                id="layers-key",
            ),
            pytest.param(
                {"hot": [{"function": "f", "reason": "r", "budget": 1}]},
                "budget",
                id="hot-entry-key",
            ),
        ],
    )
    def test_unknown_top_level_key_fails_closed(self, tmp_path, doc, key):
        # A leftover section would otherwise enforce nothing, silently.
        manifest = tmp_path / "lint.json"
        manifest.write_text(json.dumps({"version": 1, **doc}))
        with pytest.raises(LintError, match=repr(key)):
            analyze_paths(FIXTURE_FILES[:1], str(manifest))

    def test_unmatched_layer_prefix_is_reported(self, tmp_path):
        manifest = tmp_path / "lint.json"
        manifest.write_text(
            json.dumps(
                {
                    "version": 1,
                    "layers": {
                        "assign": {"ghost": ["no_such_module"]},
                        "allow": {"ghost": []},
                    },
                }
            )
        )
        report = analyze_paths(FIXTURE_FILES[:1], str(manifest))
        assert any(
            f.rule == "CON010" and "no_such_module" in f.message
            for f in report.findings
        )

    def test_allow_cycle_is_reported(self, tmp_path):
        manifest = tmp_path / "lint.json"
        manifest.write_text(
            json.dumps(
                {
                    "version": 1,
                    "layers": {
                        "assign": {
                            "low": ["layer_low"],
                            "high": ["layer_high"],
                        },
                        "allow": {"low": ["high"], "high": ["low"]},
                    },
                }
            )
        )
        report = analyze_paths(FIXTURE_FILES, str(manifest))
        assert any(
            f.rule == "CON010" and "cycle" in f.message for f in report.findings
        )


class TestUpdateSchemaRegistry:
    def test_rewrites_only_the_schemas_section(self, tmp_path):
        manifest = tmp_path / "lint.json"
        shutil.copy(MANIFEST, manifest)
        before = json.loads(manifest.read_text())
        report = analyze_paths(
            FIXTURE_FILES, str(manifest), update_schema_registry=True
        )
        after = json.loads(manifest.read_text())
        assert {k: v for k, v in after.items() if k != "schemas"} == {
            k: v for k, v in before.items() if k != "schemas"
        }
        assert "repro.fixture/ghost" not in after["schemas"]
        # The recorded snapshot clears the stale entry and the field drift.
        got = {(f.rule, os.path.basename(f.path), f.line) for f in report.findings}
        assert ("CON020", "lint.json", 1) not in got
        assert ("CON020", "schema_mod.py", 17) not in got
        text = manifest.read_text()
        analyze_paths(FIXTURE_FILES, str(manifest), update_schema_registry=True)
        assert manifest.read_text() == text

    def test_update_needs_a_manifest_file(self):
        with pytest.raises(LintError, match="manifest"):
            analyze_paths(FIXTURE_FILES, None, update_schema_registry=True)


class TestCacheAndBaseline:
    """The corpus through the one deep cache.  There is no baseline: an
    inline ``reason=`` suppression is the only way to accept a finding."""

    def test_second_run_hits_the_cache(self):
        cold = _run_fixture()
        warm = _run_fixture()
        assert not cold.stats["cache_hit"]
        assert warm.stats["cache_hit"]
        assert [f.to_dict() for f in warm.findings] == [
            f.to_dict() for f in cold.findings
        ]

    def test_editing_the_manifest_invalidates_the_key(self, tmp_path):
        modules = [
            parse_module(read_source(path), path) for path in FIXTURE_FILES
        ]
        manifest = tmp_path / "lint.json"
        manifest.write_text(read_source(MANIFEST))
        before = cache_key(modules, load_manifest(str(manifest)))
        doc = json.loads(manifest.read_text())
        del doc["schemas"]["repro.fixture/ghost"]
        manifest.write_text(json.dumps(doc))
        after = cache_key(modules, load_manifest(str(manifest)))
        assert before != after


class TestSarifCatalogue:
    def test_merged_catalogue_covers_every_family(self):
        titles = rule_titles()
        for rule_id in (
            "CON010",
            "CON020",
            "CON021",
            "HOT001",
            "OBS001",
            "PAR001",
            "DET001",
            "LINT001",
            "LINT002",
        ):
            assert rule_id in titles, rule_id


def _copy_real_tree(tmp_path):
    dest = tmp_path / "repro"
    shutil.copytree(REPO_ROOT / "src" / "repro", dest)
    return dest


def _analyze_real_copy(dest):
    return analyze_paths([str(dest)], str(REPO_ROOT / "lint.json"))


class TestAcceptanceMutations:
    """A mutation of the real tree yields exactly one finding with a
    file/line witness."""

    def test_schema_field_drift_without_bump_trips_con020(self, tmp_path):
        dest = _copy_real_tree(tmp_path)
        schema = dest / "service" / "schema.py"
        text = schema.read_text()
        anchor = '        "diagnostics_ready": job.diagnostics is not None,'
        assert text.count(anchor) == 1
        schema.write_text(
            text.replace(anchor, anchor + '\n        "hostname": "x",')
        )
        report = _analyze_real_copy(dest)
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.rule == "CON020"
        assert "schema_version bump" in finding.message
        assert "hostname" in finding.message
        assert finding.path.endswith("schema.py") and finding.line > 0
