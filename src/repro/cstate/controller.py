"""C-state resolution: requested states -> effective states -> gating.

Reproduced findings (§VI):

* An idle hardware thread enters the deepest *enabled* state the OS
  requests; with C2 disabled in sysfs it falls back to C1.
* A core is clock-gated when **both** threads are in C1 or deeper
  (the counters of C1 cores do not advance, §VI-A).
* The system reaches its deep-sleep power level only when **all threads
  of all packages** are in the deepest state — "There appears to be only
  one criterion for deep package sleep states" (§VI-A).  A single C1
  thread anywhere costs the full +81.2 W wake penalty.
* **Offline-thread anomaly (§VI-B):** offlining a hardware thread can
  leave it parked in C1 rather than C2; power stays at the C1 level
  "as long as the disabled hardware threads are offline.  Only an
  explicit enabling of the disabled threads will fix this behavior."
  The anomaly is a quirk flag (default on, as observed on Rome) so the
  Intel-like behaviour can be compared.
"""

from __future__ import annotations

from repro.cstate.states import depth_of
from repro.topology.components import HardwareThread, SystemTopology


class CStateController:
    """Maintains requested/effective idle states across the topology."""

    def __init__(
        self,
        topo: SystemTopology,
        *,
        offline_parks_in_c1: bool = True,
    ) -> None:
        self.topo = topo
        #: §VI-B quirk: offlined threads are elevated to C1.
        self.offline_parks_in_c1 = offline_parks_in_c1
        #: Per-cpu set of *disabled* idle states (sysfs
        #: ``cpuidle/stateN/disable``).  C0 cannot be disabled.
        self._disabled: dict[int, set[str]] = {}
        #: Optional cpuidle governor (set by the machine); when present,
        #: idle threads enter the governor's selection rather than
        #: blindly the deepest enabled state.
        self.governor = None

    # --- sysfs-backed configuration -----------------------------------------

    def disable_state(self, cpu_id: int, name: str) -> None:
        """Disable an idle state for one logical CPU (sysfs write 1)."""
        depth_of(name)  # validate
        if name == "C0":
            raise ValueError("C0 cannot be disabled")  # EXC001: argument validation, test-pinned
        self._disabled.setdefault(cpu_id, set()).add(name)
        self.refresh()

    def enable_state(self, cpu_id: int, name: str) -> None:
        """Re-enable an idle state (sysfs write 0)."""
        depth_of(name)
        self._disabled.get(cpu_id, set()).discard(name)
        self.refresh()

    def is_disabled(self, cpu_id: int, name: str) -> bool:
        return name in self._disabled.get(cpu_id, ())

    def deepest_enabled(self, cpu_id: int) -> str:
        """Deepest state the OS may request on this CPU."""
        for name in ("C2", "C1"):
            if not self.is_disabled(cpu_id, name):
                return name
        return "C0"

    # --- resolution -----------------------------------------------------------

    def refresh(self) -> None:
        """Recompute requested/effective states for every thread.

        An online idle thread whose CPU has no disabled state and no
        wake-up source gets the same answer as every other such thread,
        so that answer is decided once per call.  A running thread is in
        C0.  Offline threads and the CPUs with a disabled state or a
        wake-up source are resolved one by one.
        """
        own_state = {cpu_id for cpu_id, names in self._disabled.items() if names}
        if self.governor is not None:
            own_state.update(self.governor.interrupts.cpus_with_sources())
        quiet_state = None
        # Every OS call refreshes: read the fields behind the ``online``
        # and ``workload`` properties without the property calls.
        for thread in self.topo.threads():
            if not thread._online or thread.cpu_id in own_state:
                self._resolve_thread(thread)
                continue
            if thread._workload is not None:
                state = "C0"
            else:
                if quiet_state is None:
                    quiet_state = self._idle_state(thread.cpu_id)
                state = quiet_state
            thread.requested_cstate = state
            thread.effective_cstate = state

    def _idle_state(self, cpu_id: int) -> str:
        """The state the OS requests for an online idle CPU."""
        requested = self.deepest_enabled(cpu_id)
        if self.governor is not None:
            requested = self.governor.select(cpu_id, requested)
        return requested

    def _resolve_thread(self, thread: HardwareThread) -> None:
        if not thread.online:
            # sysfs offline: the OS no longer schedules on the thread.
            if self.offline_parks_in_c1:
                # The Rome/Linux interaction the paper observed: the
                # offlined thread sits in C1, blocking system sleep.
                thread.requested_cstate = "C1"
                thread.effective_cstate = "C1"
            else:
                thread.requested_cstate = "C2"
                thread.effective_cstate = "C2"
            return
        if thread.workload is not None:
            thread.requested_cstate = "C0"
            thread.effective_cstate = "C0"
            return
        requested = self._idle_state(thread.cpu_id)
        thread.requested_cstate = requested
        thread.effective_cstate = requested

    # --- aggregate queries -----------------------------------------------------

    def core_gated(self, core) -> bool:
        """True when both threads idle at C1+ (core clock gates, §VI-A)."""
        return all(depth_of(t.effective_cstate) >= 1 for t in core.threads)

    def system_in_deep_sleep(self) -> bool:
        """The §VI-A criterion: every thread of every package in C2."""
        return all(
            depth_of(t.effective_cstate) >= 2 for t in self.topo.threads()
        )

    def count_by_effective_state(self) -> dict[str, int]:
        """Histogram of effective thread states (for experiment tables)."""
        counts = {"C0": 0, "C1": 0, "C2": 0}
        for t in self.topo.threads():
            counts[t.effective_cstate] += 1
        return counts

    def cores_by_shallowest_state(self) -> dict[str, int]:
        """Number of cores whose shallowest thread state is C0/C1/C2."""
        counts = {"C0": 0, "C1": 0, "C2": 0}
        for core in self.topo.cores():
            counts[core.deepest_common_cstate_is] += 1
        return counts
