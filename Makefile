PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-changed update-schema-registry ordering-check selfcheck suite-parallel suite-traced golden bench-guard serve service-smoke

# The default gate: static analysis first (DET001/SIM001/... keep the
# cache/parallel code deterministic), then the full pytest tree — which
# includes the golden-snapshot suite regression.
test: lint
	$(PYTHON) -m pytest -x -q

# Per-module rules plus the whole-program effects and contracts passes
# (one `--deep` run against lint.json, one result cache) over src/repro,
# then per-module rules over the rest of the tree.
lint:
	$(PYTHON) -m repro.lint src/repro --deep
	$(PYTHON) -m repro.lint tests benchmarks examples

# Re-snapshot the schema registry (the `schemas` section of lint.json)
# after a deliberate schema_version bump; review the JSON diff like any
# other contract change.
update-schema-registry:
	$(PYTHON) -m repro.lint src/repro --deep --update-schema-registry

# Pre-commit convenience: the `lint` runs, findings reported only for
# files changed vs git HEAD (falls back to a full run without git).
lint-changed:
	$(PYTHON) -m repro.lint src/repro --deep --changed-only
	$(PYTHON) -m repro.lint tests benchmarks examples --changed-only

ordering-check:
	$(PYTHON) -m repro.lint --ordering-check --ordering-seeds 1,2,3

selfcheck:
	$(PYTHON) -m repro.cli selfcheck

# Full suite across 4 worker processes with the result cache + counters.
suite-parallel:
	$(PYTHON) -m repro.cli suite --jobs 4 --cache-stats

# Traced smoke suite: two quick entries with the repro.obs bundle
# attached, exporting + validating the Perfetto trace and Prometheus
# metrics artifacts (the CI observability job; see docs/observability.md).
suite-traced:
	$(PYTHON) -m repro.cli suite --no-cache \
	  --only sec5a_idle_sibling --only sec7_rapl_update_rate \
	  --trace suite_trace.json --metrics suite_metrics.prom
	$(PYTHON) -m repro.cli obs validate suite_trace.json suite_metrics.prom.json
	$(PYTHON) -m repro.cli obs summarize suite_trace.json

# Deliberately regenerate the checked-in golden snapshot; review the
# JSON diff before committing (see docs/parallelism.md).
golden:
	$(PYTHON) -m pytest tests/integration/test_golden_suite.py --update-golden -q

# Overhead budget check: the obs-disabled dispatch path and the
# flight-recorder feed must each keep >=98% of bare sim.dispatch
# throughput (interleaved rounds, median ratio; see docs/performance.md).
bench-guard:
	$(PYTHON) -m repro.bench

# Run the HTTP experiment service in the foreground (SIGTERM/Ctrl-C
# drains gracefully; see docs/service.md).
serve:
	$(PYTHON) -m repro.service serve

# End-to-end service demo: daemon subprocess, 8 concurrent clients over
# 4 unique configs, exactly 4 executions (dedup counters), byte-identical
# result documents, graceful SIGTERM drain (the CI job).
service-smoke:
	$(PYTHON) -m repro.service smoke
