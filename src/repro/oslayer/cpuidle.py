# lint: disable-file=UNIT001 — the governor's sleep-length prediction is a
# fractional-ns analytic estimate, not an event-engine timestamp.
"""The cpuidle menu governor.

Linux's menu governor predicts how long the CPU will sleep (here: the
inverse of its wake-up rate) and picks the deepest idle state whose
*target residency* fits the prediction — entering a deep state for a
short sleep wastes more energy on the transition than it saves.

Target residencies follow the usual scale for these states: C1 pays off
after ~2 µs, C2 (with its ~22 µs measured exit latency, Fig 8) after
~100 µs.  The operationally interesting regime is a CPU with a
high-frequency wake-up source: above ~10 kHz the predicted sleep drops
under the C2 residency, the governor holds the CPU at C1, and the
system loses the deep-sleep power level (§VI-A's +81 W) — without any
C-state being disabled.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.oslayer.interrupts import InterruptModel
from repro.units import NS_PER_S, us


@dataclass(frozen=True)
class ResidencyEntry:
    """Target residency for one idle state."""

    state: str
    target_residency_ns: int


#: Depth of each idle state (C0 shallowest).
_DEPTH = {"C0": 0, "C1": 1, "C2": 2}

#: Governor table (deepest first).
RESIDENCY_TABLE: tuple[ResidencyEntry, ...] = (
    ResidencyEntry("C2", us(100)),
    ResidencyEntry("C1", us(2)),
)


class MenuGovernor:
    """Selects idle states from predicted sleep lengths."""

    def __init__(self, interrupts: InterruptModel) -> None:
        self.interrupts = interrupts

    def predicted_sleep_ns(self, cpu_id: int) -> float:
        """Expected time until the next wake-up."""
        rate = self.interrupts.wakeup_rate_hz(cpu_id)
        return NS_PER_S / rate

    def select(self, cpu_id: int, deepest_enabled: str) -> str:
        """The state the governor requests for an idle CPU.

        Never deeper than ``deepest_enabled`` (the sysfs disable mask
        still wins); never deeper than the prediction allows.
        """
        prediction = self.predicted_sleep_ns(cpu_id)
        max_depth = _DEPTH[deepest_enabled]
        for entry in RESIDENCY_TABLE:
            if _DEPTH[entry.state] > max_depth:
                continue
            if prediction >= entry.target_residency_ns:
                return entry.state
        return "C1" if max_depth >= 1 else "C0"

    def breakeven_rate_hz(self, state: str = "C2") -> float:
        """Wake-up rate above which ``state`` stops being selected."""
        for entry in RESIDENCY_TABLE:
            if entry.state == state:
                return NS_PER_S / entry.target_residency_ns
        raise KeyError(f"no residency entry for {state!r}")  # EXC001: dict-like lookup
