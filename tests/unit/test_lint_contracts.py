"""The layer rule CON010: the fixture corpus, manifest health, the
manifest's value types and an injection into the real tree.

The corpus runs through ``lint_paths``, so these tests also prove the
other rules stay silent on it.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import LintError
from repro.lint.engine import lint_paths, read_source
from repro.lint.formatters import format_json
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
    return lint_paths(FIXTURE_FILES, manifest=MANIFEST)


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
        assert {f.rule for f in report.findings} == {"CON010"}

    def test_negatives_stay_silent(self):
        report = _run_fixture()
        hits = {(os.path.basename(f.path), f.line) for f in report.findings}
        assert not hits & NEGATIVE_LINES

    def test_severities(self):
        report = _run_fixture()
        by_rule = {f.rule: f.severity for f in report.findings}
        assert by_rule == {"CON010": "error"}

    def test_stats_shape(self):
        stats = json.loads(format_json(_run_fixture()))
        assert stats["files_checked"] == 2
        assert stats["counts_by_rule"] == {"CON010": 2}
        assert stats["suppressed"] == 0


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
            lint_paths(FIXTURE_FILES[:1], manifest=str(manifest))

    @pytest.mark.parametrize(
        "doc, match",
        [
            pytest.param(
                {"layers": {"assign": {"core": None}}},
                r"layers\.assign\['core'\] must be a list of strings",
                id="assign-null",
            ),
            pytest.param(
                {"layers": {"assign": {"core": []}, "allow": {"core": None}}},
                r"layers\.allow\['core'\] must be a list of strings",
                id="allow-null",
            ),
            # A string would be read letter by letter.
            pytest.param(
                {"layers": {"assign": {"core": "repro.core"}}},
                r"layers\.assign\['core'\] must be a list of strings",
                id="assign-string",
            ),
            pytest.param(
                {"layers": {"assign": {"core": []}, "allow": {"core": "repro"}}},
                r"layers\.allow\['core'\] must be a list of strings",
                id="allow-string",
            ),
            pytest.param(
                {"layers": {"assign": {"core": [["repro.core"]]}}},
                r"layers\.assign\['core'\] must be a list of strings",
                id="assign-nested-list",
            ),
            # `True == 1` and `1.0 == 1`, but neither is version 1.
            pytest.param({"version": True}, "version True is not 1", id="version-true"),
            pytest.param({"version": 1.0}, "version 1.0 is not 1", id="version-float"),
        ],
    )
    def test_wrong_value_type_fails_closed(self, tmp_path, doc, match):
        manifest = tmp_path / "lint.json"
        manifest.write_text(json.dumps({"version": 1, **doc}))
        with pytest.raises(LintError, match=match):
            load_manifest(str(manifest))

    def test_wrong_value_type_exits_two(self, tmp_path, capsys):
        from repro.lint.cli import main

        manifest = tmp_path / "lint.json"
        manifest.write_text(json.dumps({"layers": {"assign": {"core": None}}}))
        assert main([*FIXTURE_FILES, "--manifest", str(manifest)]) == 2
        assert "layers.assign['core']" in capsys.readouterr().err

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
        report = lint_paths(FIXTURE_FILES[:1], manifest=str(manifest))
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
        report = lint_paths(FIXTURE_FILES, manifest=str(manifest))
        assert any(
            f.rule == "CON010" and "cycle" in f.message for f in report.findings
        )


class TestLayerInjection:
    """CON010 must fire on a module-scope ``repro.obs`` import injected
    into a copy of the simulator, against the committed lint.json.

    The copy is the only module linted, so the manifest's other eight
    prefixes match nothing; those health findings sit at lint.json and
    are not counted here.
    """

    PATH = os.path.join("src", "repro", "sim", "engine.py")
    NEEDLE = "from __future__ import annotations\n"

    def _lint_copy(self, tmp_path, source):
        copy = tmp_path / "repro" / "sim" / "engine.py"
        copy.parent.mkdir(parents=True)
        copy.write_text(source)
        report = lint_paths([str(copy)], manifest="lint.json")
        return [
            f.line
            for f in report.findings
            if f.rule == "CON010" and f.path == str(copy)
        ]

    def test_committed_engine_is_silent(self, tmp_path):
        src = read_source(self.PATH)
        assert self.NEEDLE in src  # keep the probe honest as code drifts
        assert self._lint_copy(tmp_path, src) == []

    def test_module_scope_obs_import_fires(self, tmp_path):
        src = read_source(self.PATH)
        injected = src.replace(self.NEEDLE, self.NEEDLE + "import repro.obs\n")
        line = injected.splitlines().index("import repro.obs") + 1
        assert self._lint_copy(tmp_path, injected) == [line]


class TestSarifCatalogue:
    def test_merged_catalogue_covers_every_family(self):
        titles = rule_titles()
        for rule_id in ("CON010", "OBS001", "DET001", "LINT001", "LINT002"):
            assert rule_id in titles, rule_id
