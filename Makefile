PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-changed selfcheck suite-parallel suite-traced golden serve service-smoke

# The default gate: static analysis first (DET001/SIM001/... keep the
# cache/parallel code deterministic), then the full pytest tree — which
# includes the golden-snapshot suite regression.
test: lint
	$(PYTHON) -m pytest -x -q

# Every rule over the whole tree in one run, CON010 against ./lint.json's
# layer DAG. The run must include src/repro: the manifest's prefixes name
# its modules, and a prefix that matches no linted module is a finding.
lint:
	$(PYTHON) -m repro.lint src/repro tests benchmarks examples

# Pre-commit convenience: the `lint` run over the files changed vs git
# HEAD only (falls back to a full run without git).
lint-changed:
	$(PYTHON) -m repro.lint src/repro tests benchmarks examples --changed-only

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

# Deliberately regenerate both checked-in golden snapshots: the scale-0.02
# suite the tests compare against and the scale-1.0 suite CI diffs
# against; review the JSON diffs before committing (see docs/parallelism.md).
golden:
	$(PYTHON) -m pytest tests/integration/test_golden_suite.py --update-golden -q
	$(PYTHON) -m repro.cli all --seed 2021 --scale 1.0 --no-cache \
	  --json tests/golden/suite_seed2021_scale1.0.json

# Run the HTTP experiment service in the foreground (SIGTERM/Ctrl-C
# drains gracefully; see docs/service.md).
serve:
	$(PYTHON) -m repro.service serve

# End-to-end service demo: daemon subprocess, 8 concurrent clients over
# 4 unique configs, exactly 4 executions (dedup counters), byte-identical
# result documents, graceful SIGTERM drain (the CI job).
service-smoke:
	$(PYTHON) -m repro.service smoke
