"""A turbostat-style live status reporter.

``turbostat`` on Linux summarizes per-core frequency, idle-state
residency and RAPL power; operators use it as the first diagnostic for
every effect this paper measures.  :func:`report` renders the same
summary from the simulated machine — the examples use it to show the
machine state the way an operator would see it.
"""

from __future__ import annotations

from repro.core.analysis.tables import format_table
from repro.msr.definitions import MSR_PKG_ENERGY_STAT
from repro.units import RAPL_ENERGY_UNIT_J


def core_rows(machine) -> list[tuple]:
    """One row per core: clock, busy %, idle states, workload."""
    rows = []
    for core in machine.topology.cores():
        busy = core.active_thread_count
        states = "/".join(t.effective_cstate for t in core.threads)
        wl = next(
            (t.workload.name for t in core.threads if t.workload is not None),
            "-",
        )
        rows.append(
            (
                f"core{core.global_index}",
                core.package.index,
                core.applied_freq_hz / 1e9,
                f"{50 * busy}%",
                states,
                wl,
            )
        )
    return rows


def package_rows(machine, interval_s: float = 1.0) -> list[tuple]:
    """Per-package RAPL power over a sampling interval."""
    rows = []
    before = [
        machine.msr.read(pkg.threads().__next__().cpu_id, MSR_PKG_ENERGY_STAT)
        for pkg in machine.topology.packages
    ]
    machine.measure(interval_s)
    for pkg, raw0 in zip(machine.topology.packages, before):
        cpu = next(pkg.threads()).cpu_id
        raw1 = machine.msr.read(cpu, MSR_PKG_ENERGY_STAT)
        joules = ((raw1 - raw0) % 2**32) * RAPL_ENERGY_UNIT_J
        rows.append(
            (
                f"package{pkg.index}",
                joules / interval_s,
                machine.thermal_state.temps_c[pkg.index],
                pkg.io_die.fclk_hz / 1e9,
            )
        )
    return rows


def report(machine, *, max_cores: int | None = 8, interval_s: float = 1.0) -> str:
    """The full textual report (truncated to ``max_cores`` core rows)."""
    cores = core_rows(machine)
    shown = cores if max_cores is None else cores[:max_cores]
    core_table = format_table(
        ["core", "pkg", "GHz", "busy", "thread states", "workload"],
        shown,
        float_fmt="{:.2f}",
    )
    if max_cores is not None and len(cores) > max_cores:
        core_table += f"\n... ({len(cores) - max_cores} more cores)"
    pkg_table = format_table(
        ["domain", "RAPL W", "temp C", "fclk GHz"],
        package_rows(machine, interval_s),
        float_fmt="{:.1f}",
    )
    return core_table + "\n\n" + pkg_table
