"""The kernel facade: ties sysfs, cpufreq, hotplug, perf and placement.

Experiments interact with the machine almost exclusively through this
object, mirroring how the paper's measurement programs interact with
Linux.  Convenience helpers cover the recurring placement patterns
(pin a workload to a CPU list, fill a CCX, fill cores-then-threads in
the §VI-A sweep order).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.oslayer.cpufreq import CpufreqPolicy
from repro.oslayer.hotplug import Hotplug
from repro.oslayer.perf import PerfStat
from repro.oslayer.procfs import ProcFs
from repro.oslayer.sysfs import SysfsTree
from repro.topology.components import bind_workload
from repro.workloads.base import Workload


class Kernel:
    """OS-level control surface over a :class:`repro.machine.Machine`."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.sysfs = SysfsTree(self)
        self.proc = ProcFs(machine)
        self.hotplug = Hotplug(self)
        self.perf = PerfStat(machine)
        self._policies: dict[int, CpufreqPolicy] = {}

    # --- cpufreq -------------------------------------------------------------

    def cpufreq_policy(self, cpu_id: int) -> CpufreqPolicy:
        """The cpufreq policy object for a logical CPU."""
        policy = self._policies.get(cpu_id)
        if policy is None:
            thread = self.machine.topology.thread(cpu_id)
            policy = CpufreqPolicy(
                thread,
                self.machine.sku.available_freqs_hz,
                self.machine.on_freq_request,
            )
            self._policies[cpu_id] = policy
        return policy

    def set_frequency(self, cpu_id: int, freq_hz: float) -> None:
        """userspace-governor setspeed for one CPU."""
        self.cpufreq_policy(cpu_id).set_speed(freq_hz)

    def set_all_frequencies(self, freq_hz: float) -> None:
        """Set every logical CPU's request (the paper's baseline step).

        The frequency and every CPU's governor are checked before any
        request is written, so a refused call leaves the machine as it
        was.  The requests are then written and notified in ascending CPU
        order inside one batch: one settle in steady-state mode, and
        :meth:`set_frequency`'s per-request order in event mode.
        """
        machine = self.machine
        policies = [self.cpufreq_policy(cpu_id) for cpu_id in sorted(machine.topology.cpus)]
        # Every policy offers the SKU's frequencies: one check covers all.
        policies[0].check_frequency(freq_hz)
        for policy in policies:
            policy.check_governor()
        notify = machine.on_freq_request
        with machine.batch():
            for policy in policies:
                thread = policy.thread
                thread.requested_freq_hz = freq_hz
                notify(thread)

    # --- scheduling / placement -------------------------------------------------

    def run(self, workload: Workload, cpu_ids: list[int]) -> None:
        """Pin ``workload`` to each listed logical CPU.

        Every CPU is looked up and checked before any is bound, so an
        unknown or offline CPU leaves the machine as it was.
        """
        threads = [self.machine.topology.thread(cpu_id) for cpu_id in cpu_ids]
        for thread in threads:
            if not thread.online:
                raise ConfigurationError(f"cpu{thread.cpu_id} is offline")
        bind_workload(threads, workload)
        self.machine.cstates.refresh()
        self.machine.changed()

    def stop(self, cpu_ids: list[int] | None = None) -> None:
        """Remove workloads (all CPUs when ``cpu_ids`` is None).

        An unknown CPU raises before any workload is removed.
        """
        topo = self.machine.topology
        ids = sorted(topo.cpus) if cpu_ids is None else cpu_ids
        bind_workload([topo.thread(cpu_id) for cpu_id in ids], None)
        self.machine.cstates.refresh()
        self.machine.changed()

    # --- interrupts -------------------------------------------------------------

    def register_interrupt(self, name: str, cpu_id: int, rate_hz: float) -> None:
        """Pin a periodic wake-up source to a CPU (timer, NIC queue...).

        High rates keep the CPU out of C2 via the menu governor — see
        :mod:`repro.oslayer.cpuidle`.
        """
        self.machine.interrupts.register(name, cpu_id, rate_hz)
        self.machine.cstates.refresh()
        self.machine.changed()

    def unregister_interrupt(self, name: str) -> None:
        """Remove a wake-up source and let the CPU sleep again."""
        self.machine.interrupts.unregister(name)
        self.machine.cstates.refresh()
        self.machine.changed()

    # --- placement helpers ----------------------------------------------------------

    def cpus_of_ccx(self, ccx_global_index: int, *, smt: bool = False) -> list[int]:
        """Logical CPUs of one CCX (first threads, plus siblings if smt)."""
        for ccx in self.machine.topology.ccxs():
            if ccx.global_index == ccx_global_index:
                ids = [c.threads[0].cpu_id for c in ccx.cores]
                if smt:
                    ids += [c.threads[1].cpu_id for c in ccx.cores]
                return ids
        raise ConfigurationError(f"no such CCX: {ccx_global_index}")

    def first_thread_cpus(self, n_cores: int | None = None) -> list[int]:
        """First hardware thread of every core, compact order."""
        ids = [core.threads[0].cpu_id for core in self.machine.topology.cores()]
        ids.sort()
        return ids if n_cores is None else ids[:n_cores]

    def all_cpus(self) -> list[int]:
        """Every logical CPU id."""
        return sorted(self.machine.topology.cpus)

    def compact_cpus(self, n_threads: int) -> list[int]:
        """Compact placement: fill cores of CCX 0 first, then spill.

        Matches the §V-D STREAM placement ("additional well placed
        threads"): one thread per core, packing CCXs in order.
        """
        ordered: list[int] = []
        for ccx in self.machine.topology.ccxs():
            for core in ccx.cores:
                ordered.append(core.threads[0].cpu_id)
        if n_threads > len(ordered):
            raise ConfigurationError(
                f"requested {n_threads} threads, only {len(ordered)} cores"
            )
        return ordered[:n_threads]
