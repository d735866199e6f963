"""The OBS001 and CON010 corpora in one lint run, the CLI's manifest
lookup, and the removed ``--deep`` flag."""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.lint.engine import lint_paths, read_source
from tests.unit.test_lint_contracts import EXPECTED as CONTRACTS_EXPECTED
from tests.unit.test_lint_contracts import FIXTURE_FILES as CONTRACTS_FILES
from tests.unit.test_lint_contracts import MANIFEST as CONTRACTS_MANIFEST
from tests.unit.test_lint_effects import EXPECTED as EFFECTS_EXPECTED
from tests.unit.test_lint_effects import FIXTURES as EFFECTS_FIXTURES
from tests.unit.test_lint_effects import MANIFEST as EFFECTS_MANIFEST


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
        report = lint_paths(
            [EFFECTS_FIXTURES, *CONTRACTS_FILES], manifest=str(merged)
        )
        got = {
            (f.rule, os.path.basename(f.path), f.line)
            for f in report.findings
            if f.rule in ("OBS001", "CON010")
        }
        assert got == EFFECTS_EXPECTED | CONTRACTS_EXPECTED
        assert report.counts_by_rule() == {"OBS001": 3, "CON010": 2, "LINT002": 1}
        assert report.suppressed == 2


class TestCli:
    def test_manifest_defaults_to_lint_json_in_working_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.lint.cli import main

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for path in CONTRACTS_FILES:
            shutil.copy(path, corpus)
        shutil.copy(CONTRACTS_MANIFEST, tmp_path / "lint.json")
        monkeypatch.chdir(tmp_path)
        assert main(["corpus", "--format", "json"]) == 1
        with_manifest = json.loads(capsys.readouterr().out)["counts_by_rule"]
        os.remove("lint.json")
        main(["corpus", "--format", "json"])
        without = json.loads(capsys.readouterr().out)["counts_by_rule"]
        assert with_manifest["CON010"] == 2
        assert "CON010" not in without

    def test_deeply_nested_manifest_exits_two(self, tmp_path, capsys):
        from repro.lint.cli import main

        manifest = tmp_path / "lint.json"
        manifest.write_text("[" * 100_000 + "]" * 100_000)
        argv = [EFFECTS_FIXTURES, "--manifest", str(manifest)]
        assert main(argv) == 2
        assert "cannot read manifest" in capsys.readouterr().err

    def test_deep_flag_is_a_usage_error(self, capsys):
        from repro.lint.cli import main

        with pytest.raises(SystemExit) as exited:
            main([EFFECTS_FIXTURES, "--deep"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --deep" in capsys.readouterr().err
