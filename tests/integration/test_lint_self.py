"""The linter eats its own dogfood: src/repro must be clean.

The real-tree checks share one ``lint --deep`` run over src/repro.
Also drives the CLI end-to-end on a deliberately bad fixture (all four
rules must fire with a non-zero exit) and the event-order shuffle
self-check (results must not depend on same-timestamp tie-breaking).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import lint_paths, selfcheck_ordering
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"
MANIFEST = str(REPO_ROOT / "lint.json")

BAD_FIXTURE = '''\
import time


def measure(delay_ns: float):
    t = time.time()
    if t < 0:
        raise RuntimeError("bad clock")
    return t


def cb():
    sim.run_until(10)


sim.schedule_after(5, cb)
'''


def test_src_repro_is_lint_clean(deep_src_run):
    report, _ = deep_src_run
    assert report.files_checked > 100
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.findings == [], f"unsuppressed lint findings:\n{rendered}"


def test_tests_tree_is_lint_clean():
    report = lint_paths([str(REPO_ROOT / "tests")])
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.clean, f"unsuppressed lint findings:\n{rendered}"


def test_cli_clean_tree_exits_zero(capsys):
    assert lint_main([str(SRC_REPRO)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_cli_bad_fixture_fires_all_rules(tmp_path, capsys):
    bad = tmp_path / "bad_fixture.py"
    bad.write_text(BAD_FIXTURE)
    assert lint_main([str(bad), "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert set(data["counts_by_rule"]) >= {"DET001", "UNIT001", "EXC001", "SIM001"}


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "UNIT001", "EXC001", "SIM001"):
        assert rule_id in out


def test_cli_bad_path_exits_two(capsys):
    assert lint_main(["/no/such/path-xyz"]) == 2


def test_contracts_pass_is_clean_on_real_tree(deep_src_run):
    report, _ = deep_src_run
    assert not [f for f in report.findings if f.rule.startswith("CON")]
    assert report.deep["layers"] == 9


def test_cli_contracts_clean_tree_exits_zero(deep_src_run, monkeypatch, capsys):
    # The contracts rules run in the deep pass; reusing the shared run's
    # cache makes this a warm hit.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(deep_src_run[1]))
    rc = lint_main([str(SRC_REPRO), "--deep", "--manifest", MANIFEST])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "0 finding(s)" in out


def test_selfcheck_is_event_order_independent():
    report = selfcheck_ordering(seeds=(1, 2, 3))
    assert len(report.digests) == 4  # stable + three shuffles
    assert report.deterministic, report.render()


def test_cli_ordering_check(capsys):
    assert lint_main(["--ordering-check", "--ordering-seeds", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "order-independent" in out


@pytest.mark.parametrize("seeds", ["1,x", ","])
def test_cli_bad_ordering_seeds_exit_two(seeds, monkeypatch, capsys):
    # Rejected before any lint work starts, and never an empty check.
    def no_lint(*args, **kwargs):
        pytest.fail("linted before the seeds were checked")

    monkeypatch.setattr("repro.lint.cli.lint_paths", no_lint)
    assert lint_main(["--ordering-check", "--ordering-seeds", seeds]) == 2
    assert "--ordering-seeds" in capsys.readouterr().err
