"""§VII-B: data-dependent power and what RAPL sees of it (Fig 10).

Procedure: unrolled single-instruction blocks on all hardware threads;
each block randomly draws a relative operand Hamming weight from
{0, 0.5, 1}; blocks run 10 s each; RAPL energies are collected between
blocks; ~1000 blocks per weight.  Analysis plots empirical cumulative
distributions per weight (ten random subsets each, to confirm the
distributions are stable).

Expected outcome (the paper's):

* ``vxorps``: full-system AC spreads by 21 W (7.6 %) between weights 0
  and 1, with *no overlap* between the distributions; RAPL averages stay
  within 0.08 % — overlapping, ordering not preserved.
* ``shr`` (shift by zero, operand held): AC within 0.9 %; RAPL core
  within 0.015 %.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.analysis.stats import ecdf, ks_distance, overlap_fraction
from repro.core.experiment import ExperimentConfig
from repro.core.report import ComparisonTable
from repro.units import ghz
from repro.workloads import instruction_block

WEIGHTS = (0.0, 0.5, 1.0)


@dataclass
class OperandWeightSamples:
    """Per-weight sample arrays for one instrument channel."""

    weight: float
    ac_w: np.ndarray
    rapl_pkg_w: np.ndarray
    rapl_core_w: np.ndarray


@dataclass
class DataPowerResult:
    """The Fig 10 dataset for one instruction."""

    instruction: str
    samples: dict[float, OperandWeightSamples] = field(default_factory=dict)

    # --- summary statistics ------------------------------------------------

    def ac_means(self) -> dict[float, float]:
        return {w: float(s.ac_w.mean()) for w, s in self.samples.items()}

    def rapl_pkg_means(self) -> dict[float, float]:
        return {w: float(s.rapl_pkg_w.mean()) for w, s in self.samples.items()}

    def rapl_core_means(self) -> dict[float, float]:
        return {w: float(s.rapl_core_w.mean()) for w, s in self.samples.items()}

    def ac_spread_w(self) -> float:
        means = self.ac_means()
        return means[1.0] - means[0.0]

    def ac_spread_rel(self) -> float:
        means = self.ac_means()
        return self.ac_spread_w() / means[0.5]

    def rapl_pkg_spread_rel(self) -> float:
        means = self.rapl_pkg_means()
        return (max(means.values()) - min(means.values())) / means[0.5]

    def rapl_core_spread_rel(self) -> float:
        means = self.rapl_core_means()
        return (max(means.values()) - min(means.values())) / means[0.5]

    def ac_overlap(self) -> float:
        """Distribution overlap of the extreme weights' AC samples."""
        return overlap_fraction(self.samples[0.0].ac_w, self.samples[1.0].ac_w)

    def rapl_pkg_overlap(self) -> float:
        return overlap_fraction(
            self.samples[0.0].rapl_pkg_w, self.samples[1.0].rapl_pkg_w
        )

    def ac_ks(self) -> float:
        """KS distance of the extreme weights' AC samples (~1 = separated)."""
        return ks_distance(self.samples[0.0].ac_w, self.samples[1.0].ac_w)

    def rapl_pkg_ks(self) -> float:
        """KS distance of the extreme weights' RAPL samples (small = overlap)."""
        return ks_distance(self.samples[0.0].rapl_pkg_w, self.samples[1.0].rapl_pkg_w)

    def ecdf_subsets(
        self, weight: float, channel: str = "ac", n_subsets: int = 10, seed: int = 0
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Fig 10's ten-random-subset ECDFs for one weight/channel."""
        arr = getattr(self.samples[weight], {"ac": "ac_w", "pkg": "rapl_pkg_w", "core": "rapl_core_w"}[channel])
        rng = np.random.default_rng(seed)
        perm = rng.permutation(arr.size)
        return [ecdf(arr[perm[k::n_subsets]]) for k in range(n_subsets)]


class DataPowerExperiment:
    """Runs the Fig 10 methodology."""

    def __init__(self, config: ExperimentConfig | None = None) -> None:
        self.config = config or ExperimentConfig()

    def measure(
        self,
        instruction: str = "vxorps",
        n_blocks: int | None = None,
        block_s: float | None = None,
    ) -> DataPowerResult:
        cfg = self.config
        n = cfg.scaled(3000, minimum=90) if n_blocks is None else n_blocks
        dur = cfg.interval_s if block_s is None else block_s
        machine = cfg.build_machine()
        rng = machine.rng.child(f"data-power-{instruction}")
        blocks = {w: instruction_block(instruction, w) for w in WEIGHTS}
        cpus = machine.os.all_cpus()

        # Pre-heat at the mid weight so the block sequence starts settled.
        with machine.batch():
            machine.os.set_all_frequencies(ghz(2.5))
            machine.os.run(blocks[0.5], cpus)
        machine.preheat()

        acc: dict[float, dict[str, list[float]]] = {
            w: {"ac": [], "pkg": [], "core": []} for w in WEIGHTS
        }
        for _ in range(n):
            weight = float(rng.choice(WEIGHTS))
            machine.os.run(blocks[weight], cpus)
            rec = machine.measure(dur)
            acc[weight]["ac"].append(rec.ac_mean_w)
            acc[weight]["pkg"].append(float(sum(rec.rapl_pkg_w)))
            acc[weight]["core"].append(float(sum(rec.rapl_core_w)))
        machine.shutdown()

        result = DataPowerResult(instruction=instruction)
        for w in WEIGHTS:
            result.samples[w] = OperandWeightSamples(
                weight=w,
                ac_w=np.asarray(acc[w]["ac"]),
                rapl_pkg_w=np.asarray(acc[w]["pkg"]),
                rapl_core_w=np.asarray(acc[w]["core"]),
            )
        return result

    # ------------------------------------------------------------------

    def compare_with_paper(self, vxorps: DataPowerResult, shr: DataPowerResult | None = None) -> ComparisonTable:
        table = ComparisonTable("Fig 10: operand-dependent power")
        table.add("vxorps AC spread", 21.0, vxorps.ac_spread_w(), "W", 0.10)
        table.add("vxorps AC spread rel", 0.076, vxorps.ac_spread_rel(), "", 0.10)
        table.add("vxorps AC overlap (none)", 0.0, vxorps.ac_overlap(), "", 0.02)
        table.add(
            "vxorps RAPL pkg spread rel (< 0.08 %)",
            0.0,
            vxorps.rapl_pkg_spread_rel(),
            "",
            0.0008,
        )
        table.add(
            "vxorps RAPL distributions overlap strongly",
            1.0,
            1.0 if vxorps.rapl_pkg_overlap() > 0.5 else 0.0,
            "",
            0.0,
        )
        # KS sharpening of the same claims: AC fully separated (D = 1),
        # RAPL distinguishable-but-overlapping (0 < D << 1) — the paper's
        # "conceivable ... to leak information ... through very small
        # differences in the distribution".
        table.add("vxorps AC KS distance", 1.0, vxorps.ac_ks(), "", 0.01)
        table.add(
            "vxorps RAPL KS small but nonzero",
            1.0,
            1.0 if 0.0 < vxorps.rapl_pkg_ks() < 0.6 else 0.0,
            "",
            0.0,
        )
        if shr is not None:
            table.add("shr AC spread rel (< 0.9 %)", 0.0, shr.ac_spread_rel(), "", 0.009)
            table.add(
                "shr RAPL core spread rel (< 0.015 %)",
                0.0,
                shr.rapl_core_spread_rel(),
                "",
                0.00015,
            )
        return table
