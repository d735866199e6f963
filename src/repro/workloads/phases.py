"""Phased applications: sequences of (workload, duration) steps.

HPC applications alternate compute and memory phases; per-phase DVFS
runtimes (Adagio, MERIC — §V-B's motivation) operate on exactly this
structure.  :class:`PhasedApplication` describes the sequence;
:func:`play` executes it on a machine with an optional per-phase tuning
policy and accounts energy/runtime, including the transition-latency
reality check from Fig 3: a frequency request only settles within a
phase that outlives the SMU's worst-case request-to-effect latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import WorkloadError
from repro.units import ghz
from repro.workloads.base import Workload

#: Fig 3 worst case: 1 ms slot wait + 390 us execution.
WORST_CASE_TRANSITION_S = 0.00139


@dataclass(frozen=True)
class Phase:
    """One application phase."""

    workload: Workload
    duration_s: float
    #: Fraction of the phase's work that scales with core frequency.
    freq_sensitivity: float = 1.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise WorkloadError(f"phase duration must be positive, got {self.duration_s}")
        if not 0.0 <= self.freq_sensitivity <= 1.0:
            raise WorkloadError("freq_sensitivity must be in [0, 1]")


@dataclass
class PhasedApplication:
    """A named sequence of phases."""

    name: str
    phases: list[Phase] = field(default_factory=list)

    def add(self, workload: Workload, duration_s: float, freq_sensitivity: float = 1.0) -> "PhasedApplication":
        self.phases.append(Phase(workload, duration_s, freq_sensitivity))
        return self

    @property
    def total_duration_s(self) -> float:
        return sum(p.duration_s for p in self.phases)


@dataclass(frozen=True)
class PlaybackResult:
    """Energy/runtime accounting of one playback."""

    energy_j: float
    runtime_s: float
    phase_energies_j: tuple[float, ...]

    @property
    def average_power_w(self) -> float:
        return self.energy_j / self.runtime_s if self.runtime_s else 0.0


def play(
    machine,
    app: PhasedApplication,
    cpu_ids: list[int],
    *,
    policy: Callable[[Phase], float] | None = None,
) -> PlaybackResult:
    """Run ``app`` on ``cpu_ids``; ``policy`` maps a phase to a frequency.

    Phases shorter than the worst-case transition latency execute at the
    *previous* frequency — requests cannot land in time (Fig 3).
    """
    energy = 0.0
    runtime = 0.0
    per_phase: list[float] = []
    nominal = machine.sku.nominal_freq_hz
    current_f = nominal
    for phase in app.phases:
        target = nominal if policy is None else policy(phase)
        if phase.duration_s >= WORST_CASE_TRANSITION_S:
            current_f = target
        with machine.batch():
            for cpu in cpu_ids:
                machine.os.set_frequency(cpu, current_f)
            machine.os.run(phase.workload, cpu_ids)

        applied = machine.topology.thread(cpu_ids[0]).core.applied_freq_hz
        slowdown = phase.freq_sensitivity * (ghz(2.5) / applied) + (
            1.0 - phase.freq_sensitivity
        )
        duration = phase.duration_s * slowdown
        power = machine.power_model.system_power_w(
            machine, machine.thermal_state.temps_c
        )
        e = power * duration
        energy += e
        runtime += duration
        per_phase.append(e)
    machine.os.stop(cpu_ids)
    return PlaybackResult(energy, runtime, tuple(per_phase))
