"""Whole-program contracts analysis: the CON010 fixture corpus,
manifest health and the cache.

The corpus runs through the one ``lint --deep`` driver, so these tests
also prove the effects analyzer stays silent on it.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import LintError
from repro.lint.contracts import CONTRACTS_RULE_IDS
from repro.lint.deep import analyze_paths, cache_key
from repro.lint.engine import parse_module, read_source
from repro.lint.manifest import load_manifest
from repro.lint.sarif import rule_titles

FIXTURES = os.path.join("tests", "fixtures", "contracts")
MANIFEST = os.path.join(FIXTURES, "lint.json")

#: The fixture walk is an explicit file list: the lint walker prunes
#: ``fixtures`` directories from subtree scans.
FIXTURE_FILES = [
    os.path.join(FIXTURES, name) for name in ("layer_high.py", "layer_low.py")
]

#: Every seeded true positive in the fixture corpus, by (rule, file, line).
EXPECTED = {
    ("CON010", "layer_low.py", 10),  # module-scope import layer_high
    ("CON010", "layer_low.py", 11),  # module-scope from-import
}

#: Lines that look like positives but must stay silent (negatives).
NEGATIVE_LINES = {
    ("layer_low.py", 14),  # TYPE_CHECKING import is exempt
    ("layer_low.py", 23),  # function-level lazy import is exempt
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
        assert len(report.findings) == 2

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
        assert by_rule == {"CON010": "error"}

    def test_stats_shape(self):
        report = _run_fixture()
        stats = report.stats
        assert stats["modules"] == 2
        assert stats["layers"] == 2
        assert stats["findings"] == 2


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
            # The removed hot-path sections fail closed like any other.
            pytest.param(
                {"hot": [{"function": "f", "reason": "r"}]},
                "hot",
                id="hot-entry-key",
            ),
            pytest.param({"cold": []}, "cold", id="cold"),
            # So do the removed schema-registry sections.
            pytest.param({"schemas": {}}, "schemas", id="schemas"),
            pytest.param({"tests_root": "tests"}, "tests_root", id="tests_root"),
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
        doc["layers"]["allow"]["low"] = ["high"]
        manifest.write_text(json.dumps(doc))
        after = cache_key(modules, load_manifest(str(manifest)))
        assert before != after


class TestSarifCatalogue:
    def test_merged_catalogue_covers_every_family(self):
        titles = rule_titles()
        for rule_id in ("CON010", "OBS001", "DET001", "LINT001", "LINT002"):
            assert rule_id in titles, rule_id

