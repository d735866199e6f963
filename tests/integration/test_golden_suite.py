"""Golden-snapshot regression harness for the structured suite.

``tests/golden/suite_seed2021_scale0.02.json`` is the committed
``suite_to_dict`` document of a full suite run at the integration
configuration (seed 2021, scale 0.02).  A fresh run — serial or
parallel — must reproduce it within a tight float tolerance; any model
change that shifts a measured quantity shows up as a named-path diff.

Regenerate deliberately with ``pytest tests/integration/test_golden_suite.py
--update-golden`` (or ``make golden``) and review the JSON diff before
committing.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.golden import DEFAULT_RTOL, diff_documents, render_diff
from repro.core.serialize import dump_json, load_json
from repro.core.suite import SUITE, run_suite, suite_to_dict

GOLDEN_PATH = (
    Path(__file__).resolve().parents[1]
    / "golden"
    / "suite_seed2021_scale0.02.json"
)


@pytest.mark.parametrize("jobs", [1, 4], ids=["serial", "parallel4"])
def test_suite_matches_golden(cfg, jobs, update_golden):
    doc = suite_to_dict(run_suite(cfg, parallel=jobs))
    if update_golden:
        if jobs != 1:
            pytest.skip("golden regenerated by the serial variant")
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        dump_json(doc, str(GOLDEN_PATH))
        pytest.skip(f"golden updated: {GOLDEN_PATH}")
    golden = load_json(str(GOLDEN_PATH))
    diffs = diff_documents(golden, doc, rtol=DEFAULT_RTOL)
    assert not diffs, render_diff(diffs)
    # The simulator is deterministic, so serial and parallel runs must
    # reproduce the golden exactly, not merely within tolerance.
    assert doc == golden, (
        "suite document drifted within tolerance; "
        "the golden must reproduce byte-identically"
    )


def test_golden_covers_every_registry_entry():
    """The snapshot goes stale structurally if the registry grows."""
    golden = load_json(str(GOLDEN_PATH))
    assert golden["seed"] == 2021
    assert golden["scale"] == 0.02
    assert golden["all_ok"] is True
    assert set(golden["experiments"]) == set(SUITE)
