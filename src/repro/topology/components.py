"""Component classes for the Rome topology tree.

Naming follows the paper (§III-A) and AMD's documents: CCX = Core Complex
(4 cores sharing 16 MiB of L3), CCD = Core Complex Die (2 CCXs), I/O die =
central die carrying memory controllers and Infinity Fabric switches.

State conventions
-----------------
* ``HardwareThread.requested_freq_hz`` is the cpufreq (P-state) request of
  the *logical CPU*.  The paper's §V-A finding is that the effective core
  clock honours the **maximum** request over the core's threads even if a
  thread idles or is offline; the resolution itself happens in
  :class:`repro.pstate.resolver.FrequencyResolver`.
* ``HardwareThread.online`` models the sysfs ``cpuN/online`` switch.
* A thread is *active* when it is online and runs a workload.  Every
  write to ``workload`` or ``online`` refreshes the core's
  ``active_thread_count`` and ``active_workload``, so the settle, power
  and RAPL terms read those two fields instead of walking the threads.
  :func:`bind_workload` writes many threads and refreshes each touched
  core once.
* C-state bookkeeping (requested vs. effective idle state) lives on the
  thread; core/package aggregation lives in
  :class:`repro.cstate.controller.CStateController`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.errors import TopologyError
from repro.units import ghz

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.base import Workload


#: Depth of each idle state, for :attr:`Core.deepest_common_cstate_is`.
_CSTATE_ORDER = {"C0": 0, "C1": 1, "C2": 2}


class HardwareThread:
    """One SMT hardware thread (a Linux "logical CPU")."""

    def __init__(self, core: "Core", smt_index: int) -> None:
        self.core = core
        self.smt_index = smt_index
        #: Linux logical CPU number; assigned by the enumerator.
        self.cpu_id: int = -1
        #: cpufreq target frequency for this logical CPU.
        self.requested_freq_hz: float = ghz(1.5)
        # sysfs cpuN/online and the bound workload: properties, whose
        # setters keep the core's activity fields current.
        self._online = True
        self._workload: Optional["Workload"] = None
        #: Name of the C-state the OS most recently requested for this
        #: thread ("C0" while something runs).  Maintained by the
        #: C-state controller.
        self.requested_cstate: str = "C2"
        #: The idle state actually in effect (can differ from the request,
        #: e.g. the offline-thread anomaly parks threads in C1).
        self.effective_cstate: str = "C2"
        #: Free-running counters (advanced by the perf model; halted in C1+).
        self.aperf_cycles: float = 0.0
        self.mperf_cycles: float = 0.0
        self.instructions: float = 0.0
        #: Residency accounting (sysfs cpuidle stateN/time + usage).
        self.cstate_time_ns: dict[str, float] = {"C0": 0.0, "C1": 0.0, "C2": 0.0}
        self.cstate_usage: dict[str, int] = {"C0": 0, "C1": 0, "C2": 0}

    @property
    def sibling(self) -> "HardwareThread":
        """The other hardware thread of the same core."""
        return self.core.threads[1 - self.smt_index]

    @property
    def online(self) -> bool:
        """sysfs cpuN/online."""
        return self._online

    @online.setter
    def online(self, value: bool) -> None:
        self._online = value
        self.core._refresh_activity()

    @property
    def workload(self) -> Optional["Workload"]:
        """Currently bound workload, if any."""
        return self._workload

    @workload.setter
    def workload(self, value: Optional["Workload"]) -> None:
        self._workload = value
        self.core._refresh_activity()

    @property
    def is_active(self) -> bool:
        """True when a workload occupies the thread (C0)."""
        return self._online and self._workload is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<HardwareThread cpu{self.cpu_id} core={self.core.global_index}>"


class Core:
    """A Zen 2 core: two SMT threads, private L1/L2, one clock domain."""

    def __init__(self, ccx: "CCX", index_in_ccx: int) -> None:
        self.ccx = ccx
        self.index_in_ccx = index_in_ccx
        #: Global core index across the whole system (assigned by builder).
        self.global_index: int = -1
        self.threads = (HardwareThread(self, 0), HardwareThread(self, 1))
        #: Active (online, workload-bound) threads, and the workload of the
        #: first of them in thread order; kept by the threads' setters.
        self.active_thread_count = 0
        self.active_workload: Optional["Workload"] = None
        #: Frequency currently applied by the SMU to this core's domain.
        self.applied_freq_hz: float = ghz(1.5)

    @property
    def package(self) -> "Package":
        return self.ccx.ccd.package

    @property
    def has_active_thread(self) -> bool:
        return self.active_thread_count != 0

    def _refresh_activity(self) -> None:
        """Recount the active threads after a ``workload``/``online`` write."""
        count = 0
        workload = None
        for thread in self.threads:
            if thread._online and thread._workload is not None:
                if not count:
                    workload = thread._workload
                count += 1
        self.active_thread_count = count
        self.active_workload = workload

    @property
    def deepest_common_cstate_is(self) -> str:
        """Shallowest effective C-state across the two threads.

        The *core* can only clock/power gate as deep as its shallowest
        thread; "C0" < "C1" < "C2" in depth (string compare works for
        these names, but we keep it explicit)."""
        s0 = self.threads[0].effective_cstate
        s1 = self.threads[1].effective_cstate
        return s1 if _CSTATE_ORDER[s1] < _CSTATE_ORDER[s0] else s0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Core {self.global_index} ccx={self.ccx.global_index}>"


def bind_workload(
    threads: Iterable[HardwareThread], workload: Optional["Workload"]
) -> None:
    """Bind ``workload`` (None: unbind) to every thread, then recount each
    touched core once.

    The end state equals one ``thread.workload = workload`` write per
    thread.
    """
    touched: dict[Core, None] = {}
    for thread in threads:
        thread._workload = workload
        touched[thread.core] = None
    for core in touched:
        core._refresh_activity()


class CCX:
    """Core Complex: four cores sharing a 16 MiB L3 (§III-A)."""

    L3_SIZE_BYTES = 16 * 1024 * 1024
    L3_SLICES = 4

    def __init__(self, ccd: "CCD", index_in_ccd: int, n_cores: int = 4) -> None:
        if not 1 <= n_cores <= 4:
            raise TopologyError(f"CCX supports 1..4 cores, got {n_cores}")
        self.ccd = ccd
        self.index_in_ccd = index_in_ccd
        self.global_index: int = -1
        self.cores = tuple(Core(self, i) for i in range(n_cores))
        #: L3 clock currently applied (follows max core clock; see
        #: :class:`repro.pstate.resolver.FrequencyResolver`).
        self.l3_freq_hz: float = ghz(1.5)

    @property
    def package(self) -> "Package":
        return self.ccd.package

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CCX {self.global_index}>"


class CCD:
    """Core Complex Die: two CCXs and one on-die SMU."""

    def __init__(self, package: "Package", index_in_package: int, cores_per_ccx: int = 4) -> None:
        self.package = package
        self.index_in_package = index_in_package
        self.global_index: int = -1
        self.ccxs = (CCX(self, 0, cores_per_ccx), CCX(self, 1, cores_per_ccx))
        self._cores = tuple(core for ccx in self.ccxs for core in ccx.cores)

    def cores(self) -> Iterator[Core]:
        return iter(self._cores)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CCD {self.global_index}>"


class IODie:
    """The central I/O die: IF switches, memory controllers, xGMI/PCIe.

    Carries its own voltage/frequency domain (fclk); the control policy
    lives in :class:`repro.iodie.fclk.FclkController`.
    """

    #: Number of unified memory controllers (UMC pairs -> 8 DDR4 channels).
    N_MEMORY_CHANNELS = 8
    #: IF switches connecting CCD pairs + a UMC each (quadrants).
    N_QUADRANTS = 4

    def __init__(self, package: "Package") -> None:
        self.package = package
        #: Applied I/O die clock (fclk).
        self.fclk_hz: float = ghz(1.467)
        #: Memory clock (MEMCLK, "DDR4-3200" = 1.6 GHz).
        self.memclk_hz: float = ghz(1.6)


class Package:
    """One socket: up to eight CCDs around an I/O die."""

    def __init__(self, system: "SystemTopology", index: int, n_ccds: int, cores_per_ccx: int) -> None:
        self.system = system
        self.index = index
        self.io_die = IODie(self)
        self.ccds = tuple(CCD(self, i, cores_per_ccx) for i in range(n_ccds))
        # Built once: every settle walks these several times.
        self._ccxs = tuple(ccx for ccd in self.ccds for ccx in ccd.ccxs)
        self._cores = tuple(core for ccx in self._ccxs for core in ccx.cores)
        self._threads = tuple(t for core in self._cores for t in core.threads)

    def cores(self) -> Iterator[Core]:
        return iter(self._cores)

    def ccxs(self) -> Iterator[CCX]:
        return iter(self._ccxs)

    def threads(self) -> Iterator[HardwareThread]:
        return iter(self._threads)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Package {self.index}>"


#: Socket counts the model supports: EPYC Rome systems carry one or two
#: packages, and the paper's test system has two.
PACKAGE_COUNTS = (1, 2)


class SystemTopology:
    """The full machine: one or two packages plus lookup tables."""

    def __init__(self, n_packages: int, n_ccds: int, cores_per_ccx: int, sku_name: str = "custom") -> None:
        if n_packages not in PACKAGE_COUNTS:
            raise TopologyError(f"1 or 2 packages supported, got {n_packages}")
        if not 1 <= n_ccds <= 8:
            raise TopologyError(f"1..8 CCDs per package supported, got {n_ccds}")
        self.sku_name = sku_name
        self.packages = tuple(
            Package(self, i, n_ccds, cores_per_ccx) for i in range(n_packages)
        )
        self._ccxs = tuple(ccx for pkg in self.packages for ccx in pkg.ccxs())
        self._cores = tuple(core for pkg in self.packages for core in pkg.cores())
        self._threads = tuple(t for pkg in self.packages for t in pkg.threads())
        self._assign_global_indices()
        #: cpu_id -> HardwareThread; populated by the enumerator.
        self.cpus: dict[int, HardwareThread] = {}

    def _assign_global_indices(self) -> None:
        core_idx = ccx_idx = ccd_idx = 0
        for pkg in self.packages:
            for ccd in pkg.ccds:
                ccd.global_index = ccd_idx
                ccd_idx += 1
                for ccx in ccd.ccxs:
                    ccx.global_index = ccx_idx
                    ccx_idx += 1
                    for core in ccx.cores:
                        core.global_index = core_idx
                        core_idx += 1

    # --- iteration helpers -------------------------------------------------

    def cores(self) -> Iterator[Core]:
        return iter(self._cores)

    def ccxs(self) -> Iterator[CCX]:
        return iter(self._ccxs)

    def threads(self) -> Iterator[HardwareThread]:
        return iter(self._threads)

    def thread(self, cpu_id: int) -> HardwareThread:
        """Look up a hardware thread by its Linux logical CPU number."""
        try:
            return self.cpus[cpu_id]
        except KeyError:
            raise TopologyError(f"no such logical CPU: {cpu_id}") from None

    @property
    def n_cores(self) -> int:
        return len(self._cores)

    @property
    def n_threads(self) -> int:
        return len(self._threads)

    def core_by_global_index(self, index: int) -> Core:
        for core in self.cores():
            if core.global_index == index:
                return core
        raise TopologyError(f"no such core: {index}")

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<SystemTopology {self.sku_name}: {len(self.packages)} pkg, "
            f"{self.n_cores} cores, {self.n_threads} threads>"
        )
