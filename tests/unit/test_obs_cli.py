"""The ``repro-zen2 obs`` inspector: summarize / validate / merge."""

from __future__ import annotations

import json

import pytest

from repro.obs import Obs
from repro.obs.cli import main as obs_main
from repro.obs.schema import validate_trace_document


def _write_artifacts(tmp_path):
    obs = Obs()
    with obs.tracer.span("suite"):
        track = obs.tracer.new_track("machine")
        obs.tracer.complete(
            "sim.dispatch", track=track, t0_wall_ns=0, sim_t0_ns=0, sim_t1_ns=500
        )
    obs.counter("suite.entries", source="executed").inc(2)
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    trace.write_text(json.dumps(obs.trace_document()))
    metrics.write_text(json.dumps(obs.metrics_snapshot()))
    return trace, metrics


def test_validate_accepts_good_documents(tmp_path, capsys):
    trace, metrics = _write_artifacts(tmp_path)
    assert obs_main(["validate", str(trace), str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "ok (repro.obs/trace)" in out
    assert "ok (repro.obs/metrics)" in out


def test_validate_rejects_corrupt_document(tmp_path, capsys):
    trace, _ = _write_artifacts(tmp_path)
    doc = json.loads(trace.read_text())
    doc["traceEvents"].append({"ph": "X", "name": 3})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert obs_main(["validate", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_summarize_both_document_kinds(tmp_path, capsys):
    trace, metrics = _write_artifacts(tmp_path)
    assert obs_main(["summarize", str(trace)]) == 0
    assert "sim.dispatch" in capsys.readouterr().out
    assert obs_main(["summarize", str(metrics)]) == 0
    assert "suite.entries" in capsys.readouterr().out


def test_summarize_unknown_schema_fails(tmp_path, capsys):
    other = tmp_path / "other.json"
    other.write_text('{"schema": "something/else"}')
    assert obs_main(["summarize", str(other)]) == 1


def test_merge_produces_valid_trace(tmp_path, capsys):
    trace, metrics = _write_artifacts(tmp_path)
    out = tmp_path / "merged.json"
    assert obs_main(["merge", str(out), str(trace), str(trace)]) == 0
    merged = json.loads(out.read_text())
    assert validate_trace_document(merged) == []
    assert merged["otherData"]["merged"] == 2
    # Metrics snapshots are not mergeable trace documents.
    assert obs_main(["merge", str(out), str(metrics)]) == 1


def test_unreadable_file_is_a_clean_error(tmp_path):
    with pytest.raises(SystemExit):
        obs_main(["validate", str(tmp_path / "missing.json")])


@pytest.mark.parametrize(
    "command",
    [["validate"], ["summarize"], ["merge", "out.json"]],
    ids=["validate", "summarize", "merge"],
)
def test_deeply_nested_file_is_a_clean_error(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nested.json").write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(SystemExit, match="cannot read nested.json"):
        obs_main([*command, "nested.json"])


def test_top_level_cli_forwards_obs(tmp_path, capsys):
    from repro.cli import main as top_main

    trace, _ = _write_artifacts(tmp_path)
    assert top_main(["obs", "validate", str(trace)]) == 0
    assert "ok" in capsys.readouterr().out
