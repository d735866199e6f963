"""§V-B: frequency-transition delay measurement (Fig 3).

The paper's methodology, reimplemented step by step:

1. request the target frequency (cpufreq userspace write);
2. repeatedly run a minimal workload and measure its runtime until the
   expected performance of the target frequency is observed — here the
   polling loop watches the core's applied clock with the workload's
   runtime as the polling quantum, so the measured latency carries the
   same quantization the real benchmark has;
3. validate with 100 further measurements under a 95 % confidence
   interval; discard the sample (and the next) if validation fails;
4. switch back, probe again, wait a random 0–10 ms, repeat.

Each (initial, target) pair is sampled ``n_samples`` times (100 000 in
the paper; the distribution converges far earlier).  Other cores sit at
the minimum frequency, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.analysis.histogram import Histogram
from repro.core.analysis.stats import rows_within_interval
from repro.core.experiment import ExperimentConfig
from repro.core.report import ComparisonTable
from repro.errors import MeasurementError
from repro.units import ghz, ms, ns_to_us, us
from repro.workloads import SPIN

#: Runtime of the paper's "minimal workload" at nominal frequency.  The
#: polling loop's quantization — latency resolution — is this runtime.
MINIMAL_WORKLOAD_NS_AT_NOMINAL = 2_000

#: The nominal clock that runtime is quoted at.
NOMINAL_HZ = ghz(2.5)

#: Give up on a transition after this long (flags a broken sample).
SAMPLE_TIMEOUT_NS = ms(20)

#: Performance probes that validate one switch (§V-B).
VALIDATION_PROBES = 100

#: Samples whose validation one CI call judges.  The round's probes take
#: about 100 KB; 512 rows run no faster, and 2,048 rows add about 4 MB
#: (11 %) to the peak RSS of a process that measures one pair.
ROUND_SAMPLES = 128


@dataclass
class TransitionDelayResult:
    """Samples and diagnostics for one frequency pair."""

    from_hz: float
    to_hz: float
    latencies_us: np.ndarray
    n_invalid: int
    histogram: Histogram = field(init=False)

    def __post_init__(self) -> None:
        self.histogram = Histogram.from_samples(self.latencies_us, bin_width=25.0)

    @property
    def min_us(self) -> float:
        return float(self.latencies_us.min())

    @property
    def max_us(self) -> float:
        return float(self.latencies_us.max())

    @property
    def mean_us(self) -> float:
        return float(self.latencies_us.mean())


class FrequencyTransitionExperiment:
    """Runs the §V-B methodology on a simulated machine."""

    def __init__(self, config: ExperimentConfig | None = None) -> None:
        self.config = config or ExperimentConfig()

    # ------------------------------------------------------------------

    def measure_pair(
        self,
        from_hz: float,
        to_hz: float,
        n_samples: int | None = None,
        *,
        min_wait_ms: float = 0.0,
        max_wait_ms: float = 10.0,
    ) -> TransitionDelayResult:
        """Sample the request-to-effect latency for one frequency pair.

        ``min_wait_ms``/``max_wait_ms`` bound the random pause between
        samples; the paper notes the 2.2<->2.5 GHz fast-return effect
        "disappears with random wait times of at least 5 ms", which
        callers reproduce by raising ``min_wait_ms``.
        """
        cfg = self.config
        n = cfg.scaled(100_000) if n_samples is None else n_samples
        machine = cfg.build_machine()
        machine.enable_event_mode()
        rng = machine.rng.child("freq-transition-experiment")

        cpu = 0
        thread = machine.topology.thread(cpu)
        core = thread.core
        # Pin the measured thread's workload; all other cores idle at the
        # minimum frequency (the build default).
        machine.os.run(SPIN, [cpu])
        machine.os.set_frequency(cpu, from_hz)
        self._await_frequency(machine, core, from_hz)
        # Decorrelate the start phase from the SMU slot grid.
        machine.sim.run_for(int(rng.integers(0, ms(1))))

        latencies = np.empty(n, dtype=float)
        n_invalid = 0
        filled = 0
        discard_next = False
        # One round's forward switches: a row of validation probes each.
        # A switch that timed out drew none; its row is zeroed and its
        # verdict masked to invalid.
        drawn = np.zeros(ROUND_SAMPLES, dtype=bool)
        probes = np.zeros((ROUND_SAMPLES, VALIDATION_PROBES))
        while filled < n:
            # A verdict only decides which latencies are kept: the machine,
            # the RNG stream and every later switch are the same whatever
            # it says.  So a round runs its switches first and judges them
            # after.  Each switch fills at most one sample, so the next
            # ``k`` switches run in the sequential loop too.
            k = min(ROUND_SAMPLES, n - filled)
            round_ns = []
            for i in range(k):
                # --- forward switch: the measured sample ---
                latency_ns, jitter = self._one_switch(machine, cpu, core, to_hz, rng)
                round_ns.append(latency_ns)
                drawn[i] = jitter is not None
                probes[i] = 0.0 if jitter is None else jitter
                # --- return switch + random pause ---
                self._one_switch(machine, cpu, core, from_hz, rng)
                wait_ns = int(rng.uniform(ms(min_wait_ms), ms(max_wait_ms)))
                machine.sim.run_for(wait_ns)
            # The probes are ``target_hz * (1.0 + jitter)``; IEEE + and *
            # commute, so building them in place gives the same values.
            round_probes = probes[:k]
            round_probes += 1.0
            round_probes *= to_hz
            valid = rows_within_interval(to_hz, round_probes) & drawn[:k]
            # Replay the sequential keep/discard rule in sample order.
            for ok, latency_ns in zip(valid.tolist(), round_ns):
                if not ok or discard_next:
                    n_invalid += int(not ok)
                    discard_next = not ok  # discard this and the next sample
                else:
                    latencies[filled] = ns_to_us(latency_ns)
                    filled += 1

        machine.shutdown()
        return TransitionDelayResult(
            from_hz=from_hz, to_hz=to_hz, latencies_us=latencies, n_invalid=n_invalid
        )

    # ------------------------------------------------------------------

    def _poll_quantum_ns(self, core) -> int:
        """Runtime of the minimal workload at the current clock."""
        scale = NOMINAL_HZ / core.applied_freq_hz
        return max(1, int(MINIMAL_WORKLOAD_NS_AT_NOMINAL * scale))

    def _one_switch(
        self, machine, cpu: int, core, target_hz: float, rng
    ) -> tuple[int, np.ndarray | None]:
        """Request ``target_hz``, poll until performance matches, then probe.

        Returns (latency_ns, jitter): the relative jitter of the 100
        validation probes, or None when the switch timed out and drew
        none.  The polling loop advances the simulator in
        minimal-workload quanta; detection is therefore quantized
        exactly like the real benchmark's runtime probe.
        """
        sim = machine.sim
        t0 = sim.now_ns
        machine.os.set_frequency(cpu, target_hz)
        quantum = self._poll_quantum_ns(core)
        while abs(core.applied_freq_hz - target_hz) > 1e3:
            # Machine state only changes inside event callbacks: skip the
            # quanta that dispatch nothing, up to the one where the timeout
            # trips.
            sim.run_quanta(quantum, (t0 + SAMPLE_TIMEOUT_NS - sim.now_ns) // quantum + 1)
            if sim.now_ns - t0 > SAMPLE_TIMEOUT_NS:
                return sim.now_ns - t0, None
            quantum = self._poll_quantum_ns(core)
        latency_ns = sim.now_ns - t0
        # Validation: 100 more performance probes, which carry small jitter.
        jitter = rng.normal(0.0, 1e-4, size=VALIDATION_PROBES)
        sim.run_for(VALIDATION_PROBES * self._poll_quantum_ns(core))
        return latency_ns, jitter

    @staticmethod
    def _await_frequency(machine, core, target_hz: float) -> None:
        guard = 0
        while abs(core.applied_freq_hz - target_hz) > 1e3:
            if not machine.sim.step():
                machine.sim.run_for(us(100))
            guard += 1
            if guard > 100_000:
                raise MeasurementError("initial frequency never settled")

    # ------------------------------------------------------------------

    def compare_with_paper(self, result: TransitionDelayResult) -> ComparisonTable:
        """Fig 3 acceptance: U(390, 1390) µs for a down-switch."""
        table = ComparisonTable("Fig 3: frequency transition delay (2.2 -> 1.5 GHz)")
        table.add("min latency", 390.0, result.min_us, "us", tolerance_rel=0.10)
        table.add("max latency", 1390.0, result.max_us, "us", tolerance_rel=0.10)
        table.add("mean latency", 890.0, result.mean_us, "us", tolerance_rel=0.10)
        # The CV of interior bin counts is ~1/sqrt(samples/bins) even for
        # a perfectly uniform source; 0.25 admits >= ~650 samples.
        table.add(
            "uniformity CV (flat histogram)",
            0.0,
            result.histogram.uniformity_cv(),
            "",
            tolerance_rel=0.25,  # absolute via paper_value=0 convention
        )
        return table
