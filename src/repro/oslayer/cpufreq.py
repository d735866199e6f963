"""cpufreq emulation: governors and the userspace setspeed path (§IV).

The paper uses the ``userspace`` governor so the experiment controls
frequencies explicitly.  ``performance`` and ``powersave`` pin the
request at the policy limits; ``schedutil`` is accepted but degenerates
to ``performance`` for active threads (we model no utilization ramp —
no experiment depends on it).
"""

from __future__ import annotations

from enum import Enum

from repro.errors import ConfigurationError, PStateError
from repro.topology.components import HardwareThread


class Governor(Enum):
    """Supported scaling governors."""

    USERSPACE = "userspace"
    PERFORMANCE = "performance"
    POWERSAVE = "powersave"
    SCHEDUTIL = "schedutil"


class CpufreqPolicy:
    """Per-logical-CPU cpufreq policy."""

    def __init__(self, thread: HardwareThread, available_freqs_hz: tuple[float, ...], notify) -> None:
        self.thread = thread
        self.available_freqs_hz = tuple(sorted(available_freqs_hz))
        self.governor = Governor.USERSPACE
        self._notify = notify

    @property
    def scaling_min_hz(self) -> float:
        return self.available_freqs_hz[0]

    @property
    def scaling_max_hz(self) -> float:
        return self.available_freqs_hz[-1]

    def set_governor(self, name: str) -> None:
        """Switch governor (sysfs ``scaling_governor`` write)."""
        try:
            governor = Governor(name)
        except ValueError:
            known = ", ".join(g.value for g in Governor)
            raise ConfigurationError(f"unknown governor {name!r}; known: {known}") from None
        self.governor = governor
        if governor is Governor.PERFORMANCE or governor is Governor.SCHEDUTIL:
            self._apply(self.scaling_max_hz)
        elif governor is Governor.POWERSAVE:
            self._apply(self.scaling_min_hz)

    def set_speed(self, freq_hz: float) -> None:
        """sysfs ``scaling_setspeed``: only valid under userspace."""
        self.check_governor()
        self.check_frequency(freq_hz)
        self._apply(freq_hz)

    def check_governor(self) -> None:
        """Raise unless the policy takes ``scaling_setspeed`` writes."""
        if self.governor is not Governor.USERSPACE:
            raise ConfigurationError(
                f"scaling_setspeed requires the userspace governor "
                f"(cpu{self.thread.cpu_id} uses {self.governor.value})"
            )

    def check_frequency(self, freq_hz: float) -> None:
        """Raise unless ``freq_hz`` is one of the available frequencies."""
        if not any(abs(freq_hz - f) < 1e3 for f in self.available_freqs_hz):
            mhz = ", ".join(f"{f/1e6:.0f}" for f in self.available_freqs_hz)
            raise PStateError(
                f"cpu{self.thread.cpu_id}: {freq_hz/1e6:.0f} MHz not in "
                f"available frequencies [{mhz}] MHz"
            )

    def _apply(self, freq_hz: float) -> None:
        self.thread.requested_freq_hz = freq_hz
        self._notify(self.thread)
