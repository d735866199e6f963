"""The one whole-program driver (``lint --deep``): the three corpora in one
shared program, the one result cache, and the CLI's manifest lookup."""

from __future__ import annotations

import json
import os
import shutil

import repro.lint.deep as deep
from repro.lint.deep import analyze_paths, cache_key
from repro.lint.engine import read_source
from repro.lint.manifest import Manifest
from tests.unit.test_lint_contracts import EXPECTED as CONTRACTS_EXPECTED
from tests.unit.test_lint_contracts import FIXTURE_FILES as CONTRACTS_FILES
from tests.unit.test_lint_contracts import MANIFEST as CONTRACTS_MANIFEST
from tests.unit.test_lint_effects import EXPECTED as EFFECTS_EXPECTED
from tests.unit.test_lint_effects import FIXTURES as EFFECTS_FIXTURES
from tests.unit.test_lint_effects import MANIFEST as EFFECTS_MANIFEST
from tests.unit.test_lint_flow import EXPECTED as FLOW_EXPECTED
from tests.unit.test_lint_flow import FIXTURES as FLOW_FIXTURES


class TestJointCorpus:
    def test_three_corpora_share_one_program(self, tmp_path):
        merged = tmp_path / "lint.json"
        merged.write_text(
            json.dumps(
                {
                    **json.loads(read_source(EFFECTS_MANIFEST)),
                    **json.loads(read_source(CONTRACTS_MANIFEST)),
                }
            )
        )
        report = analyze_paths(
            [FLOW_FIXTURES, EFFECTS_FIXTURES, *CONTRACTS_FILES], str(merged)
        )
        got = {
            (f.rule, os.path.basename(f.path), f.line) for f in report.findings
        }
        assert got == FLOW_EXPECTED | EFFECTS_EXPECTED | CONTRACTS_EXPECTED
        assert len(report.findings) == 35
        assert report.suppressed == 2


class TestCache:
    """Cache-key inputs no single corpus covers; each corpus suite checks
    the warm replay and its own edits."""

    def test_tests_corpus_edit_invalidates(self, tmp_path):
        corpus = tmp_path / "tests"
        corpus.mkdir()
        (corpus / "test_x.py").write_text("def test_x():\n    pass\n")
        manifest = Manifest(tests_root=str(corpus))
        before = cache_key([], manifest)
        (corpus / "test_x.py").write_text("def test_x():\n    validate_y()\n")
        assert cache_key([], manifest) != before

    def test_lint_source_edit_invalidates(self, tmp_path, monkeypatch):
        copy = tmp_path / "lint"
        shutil.copytree(
            deep.LINT_PACKAGE_DIR, copy, ignore=shutil.ignore_patterns("__pycache__")
        )
        monkeypatch.setattr(deep, "LINT_PACKAGE_DIR", str(copy))
        before = cache_key([], Manifest())
        with open(copy / "deep.py", "a", encoding="utf-8") as handle:
            handle.write("# an analyzer change\n")
        assert cache_key([], Manifest()) != before


class TestCli:
    def test_manifest_defaults_to_lint_json_in_working_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.lint.cli import main

        shutil.copytree(EFFECTS_FIXTURES, tmp_path / "corpus")
        shutil.copy(EFFECTS_MANIFEST, tmp_path / "lint.json")
        monkeypatch.chdir(tmp_path)
        assert main(["corpus", "--deep", "--format", "json"]) == 1
        with_manifest = json.loads(capsys.readouterr().out)["counts_by_rule"]
        os.remove("lint.json")
        main(["corpus", "--deep", "--format", "json"])
        without = json.loads(capsys.readouterr().out)["counts_by_rule"]
        assert with_manifest["HOT001"] == 6
        assert without.get("HOT001", 0) < 6
