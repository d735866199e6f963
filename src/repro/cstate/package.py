"""Package- and system-level sleep states (§III-C, §VI-A).

Burd et al. (cited in §III-C) describe a package C-state **PC6** "in
which the CPU power plane can be brought to a low voltage when there are
no active CPU cores", an I/O-die low-power state in which "most of the
IO and memory interfaces are disabled", and the possibility to lower the
inter-socket xGMI link width.

The paper's measurement (§VI-A) pins down the entry criterion on Rome:
"There appears to be only one criterion for deep package sleep states:
All threads of all packages must be in the deepest sleep state."  That
is, the two sockets sleep *together* — the xGMI link needs both ends —
which is why a single C1 thread anywhere costs the full +81.2 W.

This module makes those states explicit objects so the power model and
experiments can interrogate *why* the system is (not) sleeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.cstate.controller import CStateController
from repro.cstate.states import depth_of
from repro.topology.components import SystemTopology


class PackageSleepState(Enum):
    """Per-package deep-sleep level."""

    ACTIVE = "active"  # at least one core clock running
    CORES_GATED = "cores_gated"  # all cores C1+, package awake
    PC6 = "pc6"  # CPU power plane at low voltage


class XgmiLinkState(Enum):
    """Inter-socket link width (Burd et al.)."""

    FULL_WIDTH = "x16"
    REDUCED_WIDTH = "x8"
    LOW_POWER = "lp"


@dataclass(frozen=True)
class SystemSleepReport:
    """Why the system is or is not in its deepest sleep."""

    in_deep_sleep: bool
    package_states: tuple[PackageSleepState, ...]
    xgmi_state: XgmiLinkState
    io_dies_low_power: bool
    #: Logical CPUs preventing deep sleep (empty when sleeping).
    blockers: tuple[int, ...]


class PackageSleepResolver:
    """Derives package/system sleep levels from effective C-states."""

    def __init__(self, topo: SystemTopology, cstates: CStateController) -> None:
        self.topo = topo
        self.cstates = cstates

    def package_state(self, pkg_index: int) -> PackageSleepState:
        """Sleep level of one package, considered in isolation."""
        pkg = self.topo.packages[pkg_index]
        depths = [depth_of(t.effective_cstate) for t in pkg.threads()]
        if any(d == 0 for d in depths):
            return PackageSleepState.ACTIVE
        if all(d >= 2 for d in depths) and self.cstates.system_in_deep_sleep():
            # PC6 additionally requires the *system* criterion (§VI-A):
            # both packages' threads must be in the deepest state.
            return PackageSleepState.PC6
        return PackageSleepState.CORES_GATED

    def blockers(self) -> tuple[int, ...]:
        """CPUs whose state is shallower than C2 (deep-sleep blockers)."""
        return tuple(
            t.cpu_id
            for t in self.topo.threads()
            if depth_of(t.effective_cstate) < 2
        )

    def xgmi_state(self) -> XgmiLinkState:
        """Link width follows the deepest common package state."""
        if len(self.topo.packages) < 2:
            return XgmiLinkState.LOW_POWER
        states = [self.package_state(i) for i in range(len(self.topo.packages))]
        if all(s is PackageSleepState.PC6 for s in states):
            return XgmiLinkState.LOW_POWER
        if all(s is not PackageSleepState.ACTIVE for s in states):
            return XgmiLinkState.REDUCED_WIDTH
        return XgmiLinkState.FULL_WIDTH

    def report(self) -> SystemSleepReport:
        """Full explanation of the current sleep situation."""
        states = tuple(
            self.package_state(i) for i in range(len(self.topo.packages))
        )
        deep = all(s is PackageSleepState.PC6 for s in states)
        return SystemSleepReport(
            in_deep_sleep=deep,
            package_states=states,
            xgmi_state=self.xgmi_state(),
            io_dies_low_power=deep,
            blockers=self.blockers(),
        )
