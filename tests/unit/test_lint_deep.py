"""The one whole-program driver (``lint --deep``): the OBS001 and
CON010 corpora in one shared program, the one result cache, and the
CLI's manifest lookup."""

from __future__ import annotations

import json
import os
import shutil

import pytest

import repro.lint.deep as deep
from repro.cache.store import ResultCache
from repro.lint.deep import analyze_modules, analyze_paths, cache_key
from repro.lint.engine import iter_python_files, parse_module, read_source
from repro.lint.manifest import Manifest, load_manifest
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
        report = analyze_paths([EFFECTS_FIXTURES, *CONTRACTS_FILES], str(merged))
        got = {
            (f.rule, os.path.basename(f.path), f.line) for f in report.findings
        }
        assert got == EFFECTS_EXPECTED | CONTRACTS_EXPECTED
        assert len(report.findings) == 4
        assert report.suppressed == 2


class TestCache:
    """Cache-key inputs no single corpus covers; each corpus suite checks
    the warm replay and its own edits."""

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

    def test_source_edit_invalidates(self):
        src = "def f(t_ns):\n    return t_ns\n"
        first = analyze_modules([parse_module(src, "m.py")])
        again = analyze_modules([parse_module(src, "m.py")])
        edited = analyze_modules([parse_module(src + "\nX = 1\n", "m.py")])
        assert not first.stats["cache_hit"] and again.stats["cache_hit"]
        assert not edited.stats["cache_hit"]

    @pytest.mark.parametrize(
        "doc",
        [
            {"findings": []},
            {"findings": [{"path": "x"}], "counts": {}},
        ],
        ids=["no-counts", "partial-finding"],
    )
    def test_malformed_cached_document_is_a_miss(self, doc):
        # Cache files come from outside the process: a document of the
        # wrong shape is recomputed and overwritten, never replayed.
        modules = [
            parse_module(read_source(path), path)
            for path in iter_python_files([EFFECTS_FIXTURES])
        ]
        cold = analyze_modules(modules, EFFECTS_MANIFEST)
        key = cache_key(modules, load_manifest(EFFECTS_MANIFEST))
        ResultCache().put(key, doc)
        recomputed = analyze_modules(modules, EFFECTS_MANIFEST)
        assert not recomputed.stats["cache_hit"]
        assert recomputed.findings == cold.findings
        assert recomputed.suppressed == cold.suppressed == 2
        assert analyze_modules(modules, EFFECTS_MANIFEST).stats["cache_hit"]


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
        assert main(["corpus", "--deep", "--format", "json"]) == 1
        with_manifest = json.loads(capsys.readouterr().out)["counts_by_rule"]
        os.remove("lint.json")
        main(["corpus", "--deep", "--format", "json"])
        without = json.loads(capsys.readouterr().out)["counts_by_rule"]
        assert with_manifest["CON010"] == 2
        assert "CON010" not in without

    def test_deeply_nested_manifest_exits_two(self, tmp_path, capsys):
        from repro.lint.cli import main

        manifest = tmp_path / "lint.json"
        manifest.write_text("[" * 100_000 + "]" * 100_000)
        argv = [EFFECTS_FIXTURES, "--deep", "--manifest", str(manifest)]
        assert main(argv) == 2
        assert "cannot read manifest" in capsys.readouterr().err
