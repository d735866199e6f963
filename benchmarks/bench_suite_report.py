"""The structured suite: every paper artifact in one run, archived.

Produces ``benchmarks/results/suite_report.json`` (regression-trackable)
and ``suite_report.md`` (the EXPERIMENTS.md shape) from a single seeded
execution of all ten experiment runners.
"""

import os

from repro.core.report_md import render_markdown
from repro.core.serialize import dump_json
from repro.core.suite import run_suite, suite_to_dict

from _common import BENCH_JOBS, RESULTS_DIR, bench_cache, bench_config, publish


def test_suite_report():
    cfg = bench_config(scale=0.02)
    cache = bench_cache()
    result = run_suite(cfg, parallel=BENCH_JOBS, cache=cache)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    dump_json(suite_to_dict(result), os.path.join(RESULTS_DIR, "suite_report.json"))
    with open(os.path.join(RESULTS_DIR, "suite_report.md"), "w") as fh:
        fh.write(render_markdown(result) + "\n")

    summary = "\n".join(
        f"  {'ok ' if table.all_ok else 'FAIL'}  {name}  "
        f"({len(table.comparisons)} quantities)"
        for name, table in result.tables.items()
    )
    publish(
        "suite_summary",
        "== Structured suite: all paper artifacts, one seeded run ==\n"
        + summary
        + f"\n\nverdict: {'all within acceptance bands' if result.all_ok else 'FAILURES'}"
        + "\nartifacts: suite_report.json / suite_report.md",
    )
    assert result.all_ok, result.render()
    assert len(result.tables) == 10
