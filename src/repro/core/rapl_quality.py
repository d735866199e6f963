"""§VII-A: quality of the integrated power measurement (Fig 9).

Procedure (after Hackenberg et al.): run a grid of configurations —
workload x thread placement x frequency x C-state setting — for 10 s
each; record RAPL package energy, RAPL core energy and the reference AC
power; then examine whether a single function maps RAPL readings to the
reference (it does not: the data is modelled, memory power is missing,
and there is no DRAM domain).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.experiment import ExperimentConfig
from repro.core.report import ComparisonTable
from repro.units import ghz
from repro.workloads import WORKLOAD_SET, Workload


@dataclass(frozen=True)
class RaplQualityPoint:
    """One configuration's readings (a point in Fig 9a/9b)."""

    workload: str
    freq_ghz: float
    n_threads: int
    smt: bool
    ac_w: float
    rapl_pkg_w: float
    rapl_core_w: float

    @property
    def pkg_minus_core_w(self) -> float:
        return self.rapl_pkg_w - self.rapl_core_w


@dataclass
class RaplQualityResult:
    """The full sweep."""

    points: list[RaplQualityPoint] = field(default_factory=list)

    def of_workload(self, name: str) -> list[RaplQualityPoint]:
        return [p for p in self.points if p.workload == name]

    def memory_workloads(self) -> list[RaplQualityPoint]:
        return [
            p
            for p in self.points
            if p.workload in ("memory_read", "memory_write", "stream_triad")
        ]

    def compute_workloads(self) -> list[RaplQualityPoint]:
        return [
            p
            for p in self.points
            if p.workload in ("sqrt", "add_pd", "mul_pd", "vxorps", "mov_rr", "spin")
        ]


class RaplQualityExperiment:
    """Runs the Fig 9 sweep."""

    FREQS_GHZ = (1.5, 2.2, 2.5)

    def __init__(self, config: ExperimentConfig | None = None) -> None:
        self.config = config or ExperimentConfig()

    def measure(
        self,
        workloads: tuple[Workload, ...] = WORKLOAD_SET,
        *,
        placements: tuple[str, ...] = ("all", "half", "one_socket"),
        interval_s: float | None = None,
    ) -> RaplQualityResult:
        cfg = self.config
        dur = cfg.interval_s if interval_s is None else interval_s
        result = RaplQualityResult()
        for wl in workloads:
            for freq in self.FREQS_GHZ:
                for placement in placements:
                    machine = cfg.build_machine()
                    with machine.batch():
                        machine.os.set_all_frequencies(ghz(freq))
                        cpus = self._place(machine, placement)
                        if wl.name != "idle":
                            machine.os.run(wl, cpus)
                    machine.preheat()
                    rec = machine.measure(dur)
                    result.points.append(
                        RaplQualityPoint(
                            workload=wl.name,
                            freq_ghz=freq,
                            n_threads=len(cpus),
                            smt=placement == "all",
                            ac_w=rec.ac_mean_w,
                            rapl_pkg_w=float(sum(rec.rapl_pkg_w)),
                            rapl_core_w=float(sum(rec.rapl_core_w)),
                        )
                    )
                    machine.shutdown()
                    if wl.name == "idle":
                        break  # placement is meaningless when idle
        return result

    @staticmethod
    def _place(machine, placement: str) -> list[int]:
        if placement == "all":
            return machine.os.all_cpus()
        if placement == "half":
            return machine.os.first_thread_cpus()
        if placement == "one_socket":
            return [
                t.cpu_id
                for t in machine.topology.packages[0].threads()
            ]
        # EXC001: caller-supplied argument validation; tests pin ValueError
        raise ValueError(f"unknown placement {placement!r}")

    # ------------------------------------------------------------------

    def compare_with_paper(self, result: RaplQualityResult) -> ComparisonTable:
        """Encodes Fig 9's structural findings as indicator quantities."""
        table = ComparisonTable("Fig 9: RAPL vs AC reference")
        pts = result.points
        # (1) RAPL pkg is significantly lower than AC everywhere.
        frac_below = float(np.mean([p.rapl_pkg_w < p.ac_w - 50 for p in pts]))
        table.add("RAPL pkg far below AC (fraction)", 1.0, frac_below, "", 0.0)
        # (2) No single mapping: spread of AC at similar RAPL readings.
        spread = self._mapping_spread(pts)
        table.add("AC spread at fixed RAPL (>25 W)", 1.0, 1.0 if spread > 25.0 else 0.0, "", 0.0)
        # (3) Memory workloads: larger AC-minus-RAPL residual than compute.
        mem = np.mean([p.ac_w - p.rapl_pkg_w for p in result.memory_workloads()])
        comp = np.mean([p.ac_w - p.rapl_pkg_w for p in result.compute_workloads()])
        table.add("memory residual > compute residual", 1.0, 1.0 if mem > comp else 0.0, "", 0.0)
        # (4) Fig 9b: pkg-core is ~constant for compute workloads ...
        comp_gap = [p.pkg_minus_core_w for p in result.compute_workloads()]
        cv = float(np.std(comp_gap) / np.mean(comp_gap))
        table.add("pkg-core stable for compute (CV)", 0.0, cv, "", 0.35)
        # ... while memory/idle gaps differ from the compute gap.
        mem_gap = float(np.mean([p.pkg_minus_core_w for p in result.memory_workloads()]))
        table.add(
            "memory pkg-core gap exceeds compute gap",
            1.0,
            1.0 if mem_gap > np.mean(comp_gap) * 1.3 else 0.0,
            "",
            0.0,
        )
        return table

    @staticmethod
    def _mapping_spread(pts: list[RaplQualityPoint], bin_w: float = 20.0) -> float:
        """Max AC range among points whose RAPL pkg readings are close."""
        best = 0.0
        arr = sorted(pts, key=lambda p: p.rapl_pkg_w)
        for i, p in enumerate(arr):
            acs = [
                q.ac_w
                for q in arr[i:]
                if q.rapl_pkg_w - p.rapl_pkg_w <= bin_w
            ]
            if len(acs) >= 2:
                best = max(best, max(acs) - min(acs))
        return best
