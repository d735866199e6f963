"""Shared fixtures.

``machine`` is function-scoped and cheap to build (~10 ms); experiments
that need paper-scale sampling live in ``tests/integration`` and build
their own configured machines.
"""

from __future__ import annotations

import pytest

from repro.machine import Machine
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate checked-in golden snapshots instead of "
        "comparing against them (review the diff before committing)",
    )


@pytest.fixture
def update_golden(request) -> bool:
    """Whether this run should rewrite golden snapshots."""
    return request.config.getoption("--update-golden")


@pytest.fixture(autouse=True)
def _isolated_cache_dir(tmp_path, monkeypatch):
    """Point the result cache at a per-test directory.

    Keeps tests hermetic: nothing reads or pollutes the developer's
    ``~/.cache/repro-zen2``, and cross-test cache hits are impossible.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture(scope="session")
def src_lint_report():
    """One lint run over src/repro against the committed lint.json,
    shared by every real-tree lint test."""
    from pathlib import Path

    from repro.lint import lint_paths

    root = Path(__file__).resolve().parents[1]
    return lint_paths([str(root / "src" / "repro")], manifest=str(root / "lint.json"))


@pytest.fixture(params=["reference"])
def sim(request) -> Simulator:
    """A fresh simulator on the heap-based reference engine (DESIGN §2.1).

    The single ``reference`` param only names the engine in the test id
    (``test_x[reference]``), so consumers keep stable ids.
    """
    return Simulator()


@pytest.fixture
def rng_factory() -> RngFactory:
    return RngFactory(1234)


@pytest.fixture
def machine() -> Machine:
    m = Machine("EPYC 7502", seed=99)
    yield m
    m.shutdown()


@pytest.fixture
def small_machine() -> Machine:
    """Single-socket 16-core part: faster for sweep-style unit tests."""
    m = Machine("EPYC 7302", n_packages=1, seed=99)
    yield m
    m.shutdown()
