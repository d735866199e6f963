"""Simulator-aware static analysis and runtime invariant sanitizing.

Two halves (DESIGN.md §7's determinism contract, enforced):

* **Static**: ``python -m repro.lint src/ tests/`` parses every module and
  applies simulator-aware rules, one module at a time — DET001 (no
  wall-clock/unseeded randomness), UNIT001 (suffix-driven unit
  consistency), EXC001 (:class:`~repro.errors.ReproError` discipline),
  SIM001 (no simulator re-entry from event callbacks), OBS001 (every obs
  use behind the ``is None`` guard) and CON010 (module-scope imports
  respect the layer DAG declared in ``lint.json``).  Findings support
  inline ``# lint: disable=RULE`` suppressions and JSON/SARIF output.
* **Runtime**: :class:`~repro.lint.monitor.InvariantMonitor` hooks a
  :class:`~repro.machine.Machine` and asserts physical invariants after
  every event batch; :mod:`repro.lint.shuffle` re-runs scenarios under
  randomized same-timestamp tie-breaking to detect event-ordering races.
"""

from repro.lint.engine import LintReport, lint_paths, lint_source
from repro.lint.findings import Finding, SuppressionIndex
from repro.lint.monitor import InvariantMonitor
from repro.lint.rules import all_rules, rules_by_id
from repro.lint.shuffle import OrderingReport, ordering_check, selfcheck_ordering

__all__ = [
    "Finding",
    "InvariantMonitor",
    "LintReport",
    "OrderingReport",
    "SuppressionIndex",
    "all_rules",
    "lint_paths",
    "lint_source",
    "ordering_check",
    "rules_by_id",
    "selfcheck_ordering",
]
