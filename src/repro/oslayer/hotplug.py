"""CPU hotplug (sysfs ``online``) and the §VI-B anomaly.

Offlining a hardware thread removes it from scheduling; on the paper's
Rome system this can leave the thread "elevated ... to C1", pinning the
whole system at the C1 power level until the thread is explicitly
re-onlined.  The C-state controller implements the parking; this module
owns the OS-visible transitions and their side effects (migrating
workloads away, refreshing idle states).
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class Hotplug:
    """Online/offline state machine for logical CPUs."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel

    def set_offline(self, cpu_id: int) -> None:
        """Take a logical CPU offline (``echo 0 > .../online``)."""
        machine = self.kernel.machine
        thread = machine.topology.thread(cpu_id)
        if cpu_id == 0:
            raise ConfigurationError("cpu0 cannot be offlined (boot CPU)")
        if not thread.online:
            return
        if thread.workload is not None:
            # The kernel migrates running tasks away before offlining.
            thread.workload = None
        thread.online = False
        machine.cstates.refresh()
        machine.changed()

    def set_online(self, cpu_id: int) -> None:
        """Bring a logical CPU back online (``echo 1 > .../online``).

        This is the paper's remedy for the anomaly: "Only an explicit
        enabling of the disabled threads will fix this behavior" (§VI-B).
        """
        machine = self.kernel.machine
        thread = machine.topology.thread(cpu_id)
        if thread.online:
            return
        thread.online = True
        machine.cstates.refresh()
        machine.changed()
