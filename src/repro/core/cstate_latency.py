"""§VI-C: power-state transition times (Fig 8).

Procedure (after Ilsche et al., with the paper's ``sched_waking`` event
change): a caller thread signals a callee idling in a chosen C-state via
``pthread_cond_signal``; the wake-up latency is the time from the
signal to the callee running.  200 samples per combination of C-state
(C0/poll, C1, C2), frequency (1.5/2.2/2.5 GHz) and locality (same CCX
vs. other socket).  The caller stays active, which — as §VI-C notes —
prevents package C-states, so package-level exits never appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.experiment import ExperimentConfig
from repro.core.report import ComparisonTable
from repro.units import ghz
from repro.workloads import SPIN


@dataclass
class WakeupSamples:
    """Latency samples for one (state, freq, locality) combination."""

    state: str
    freq_ghz: float
    remote: bool
    latencies_us: np.ndarray

    @property
    def median_us(self) -> float:
        return float(np.median(self.latencies_us))


@dataclass
class CStateLatencyResult:
    """The full Fig 8 grid."""

    samples: list[WakeupSamples] = field(default_factory=list)

    def get(self, state: str, freq_ghz: float, remote: bool = False) -> WakeupSamples:
        for s in self.samples:
            if s.state == state and abs(s.freq_ghz - freq_ghz) < 1e-9 and s.remote == remote:
                return s
        # EXC001: mapping-style lookup facade; callers expect KeyError
        raise KeyError((state, freq_ghz, remote))


class CStateLatencyExperiment:
    """Runs the caller/callee wake-up timing."""

    STATES = ("C0", "C1", "C2")
    FREQS_GHZ = (1.5, 2.2, 2.5)

    def __init__(self, config: ExperimentConfig | None = None) -> None:
        self.config = config or ExperimentConfig()

    def measure(
        self, n_samples: int | None = None, *, include_remote: bool = True
    ) -> CStateLatencyResult:
        cfg = self.config
        n = cfg.scaled(200, minimum=50) if n_samples is None else n_samples
        machine = cfg.build_machine()
        result = CStateLatencyResult()

        for remote in ((False, True) if include_remote else (False,)):
            caller_cpu = machine.os.cpus_of_ccx(0)[0]
            if remote:
                # callee on the other socket's first core
                other_pkg_core = next(machine.topology.packages[1].cores())
                callee_cpu = other_pkg_core.threads[0].cpu_id
            else:
                callee_cpu = machine.os.cpus_of_ccx(0)[1]
            machine.os.run(SPIN, [caller_cpu])  # caller stays active

            for state in self.STATES:
                for freq in self.FREQS_GHZ:
                    machine.os.set_frequency(callee_cpu, ghz(freq))
                    self._prepare_callee(machine, callee_cpu, state)
                    # The callee idles; the hardware enters the requested
                    # state (the caller prevents anything deeper).  Each
                    # signal/wake pair is logged through the tracepoint
                    # buffer (the paper's sched_waking-based timing).
                    lat_ns = machine.wakeup.sample_ns(
                        state, ghz(freq), remote=remote, n=n
                    )
                    machine.trace.clear()
                    t = machine.sim.now_ns
                    for sample in lat_ns:
                        machine.trace.emit(t, "sched_waking", caller_cpu)
                        machine.trace.emit(
                            t + int(sample), "sched_switch", callee_cpu
                        )
                        t += int(sample) + 100_000  # inter-sample gap
                    traced = machine.trace.pairwise_latencies_ns(
                        "sched_waking", "sched_switch"
                    )
                    result.samples.append(
                        WakeupSamples(
                            state=state,
                            freq_ghz=freq,
                            remote=remote,
                            latencies_us=np.asarray(traced, dtype=float) / 1000.0,
                        )
                    )
            machine.os.stop()
        machine.shutdown()
        return result

    def measure_entry(
        self, n_samples: int | None = None
    ) -> dict[tuple[str, float], float]:
        """Median *entry* latencies (the Ilsche et al. companion metric).

        Returns ``{(state, freq_ghz): median_us}`` for the idle states.
        """
        cfg = self.config
        n = cfg.scaled(200, minimum=50) if n_samples is None else n_samples
        machine = cfg.build_machine()
        out: dict[tuple[str, float], float] = {}
        for state in ("C1", "C2"):
            for freq in self.FREQS_GHZ:
                samples = machine.wakeup.sample_entry_ns(state, ghz(freq), n=n)
                out[(state, freq)] = float(np.median(samples)) / 1000.0
        machine.shutdown()
        return out

    @staticmethod
    def _prepare_callee(machine, cpu: int, state: str) -> None:
        """Configure sysfs so the callee's deepest reachable state is ``state``."""
        base = f"/sys/devices/system/cpu/cpu{cpu}/cpuidle"
        with machine.batch():
            # reset
            machine.os.sysfs.write(f"{base}/state1/disable", "0")
            machine.os.sysfs.write(f"{base}/state2/disable", "0")
            if state == "C0":
                machine.os.sysfs.write(f"{base}/state1/disable", "1")
                machine.os.sysfs.write(f"{base}/state2/disable", "1")
            elif state == "C1":
                machine.os.sysfs.write(f"{base}/state2/disable", "1")

    # ------------------------------------------------------------------

    def compare_with_paper(self, result: CStateLatencyResult) -> ComparisonTable:
        table = ComparisonTable("Fig 8: C-state wake-up latencies (local)")
        table.add("C1 @2.5 GHz", 1.0, result.get("C1", 2.5).median_us, "us", 0.15)
        table.add("C1 @2.2 GHz", 1.1, result.get("C1", 2.2).median_us, "us", 0.15)
        table.add("C1 @1.5 GHz", 1.5, result.get("C1", 1.5).median_us, "us", 0.15)
        c2_meds = [result.get("C2", f).median_us for f in self.FREQS_GHZ]
        table.add("C2 in 20..25 us band (min)", 20.0, min(c2_meds), "us", 0.12)
        table.add("C2 in 20..25 us band (max)", 25.0, max(c2_meds), "us", 0.12)
        try:
            remote_extra = (
                result.get("C1", 2.5, remote=True).median_us
                - result.get("C1", 2.5).median_us
            )
            table.add("remote extra", 1.0, remote_extra, "us", 0.25)
        except KeyError:
            pass
        return table
