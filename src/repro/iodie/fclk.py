"""I/O die P-states (fclk) — §III-C and §V-D.

The I/O die has a voltage/frequency domain decoupled from the cores.  The
BIOS exposes fixed P-states (P0 highest fclk) plus an "Auto" mode in which
a hardware control loop picks the clock — and, crucially for latency,
keeps the fabric clock *synchronized* with the memory clock where
possible.  The paper finds (Fig 5 discussion):

* lower fclk (higher P-state index) costs bandwidth but saves power;
* Auto matches the best fixed state for bandwidth;
* for latency, Auto (92.0 ns) beats fixed P0 (96.0 ns), and at the higher
  DRAM frequency even fixed P2 beats P0 — attributed to "a better match
  between the frequency domains for memory and I/O die".

The model: a fixed P-state pays an asynchronous-crossing penalty unless
``memclk / fclk`` is (close to) an integer ratio; Auto couples fclk to
memclk up to the 1.467 GHz fabric ceiling, leaving only a small residual
mismatch when memclk exceeds the ceiling.
"""

from __future__ import annotations

from enum import Enum

from repro.errors import ConfigurationError
from repro.power.calibration import CALIBRATION, Calibration
from repro.topology.components import IODie
from repro.units import ghz

#: The fabric-coupled ceiling: above this MEMCLK the domains decouple.
FCLK_COUPLED_CEILING_HZ = ghz(1.467)


class FclkMode(Enum):
    """BIOS I/O-die P-state selection."""

    AUTO = "auto"
    P0 = 0
    P1 = 1
    P2 = 2


class FclkController:
    """Applies an :class:`FclkMode` to an I/O die."""

    def __init__(self, io_die: IODie, calibration: Calibration = CALIBRATION) -> None:
        self.io_die = io_die
        self.cal = calibration
        self.mode = FclkMode.AUTO
        self.apply(self.mode)

    def apply(self, mode: FclkMode) -> None:
        """Set the BIOS option and update the applied fclk."""
        self.mode = mode
        self.io_die.fclk_hz = self.fclk_for(mode, self.io_die.memclk_hz)

    def on_memclk_change(self) -> None:
        """Re-evaluate Auto coupling after a DRAM-frequency change."""
        self.apply(self.mode)

    def fclk_for(self, mode: FclkMode, memclk_hz: float) -> float:
        """The fclk a mode yields with a given memory clock."""
        if mode is FclkMode.AUTO:
            return min(FCLK_COUPLED_CEILING_HZ, memclk_hz)
        try:
            return self.cal.fclk_pstates_hz[mode.value]
        except (IndexError, TypeError):
            raise ConfigurationError(f"invalid fclk mode {mode!r}") from None

    # --- domain matching -------------------------------------------------------

    def mismatch_factor(self, memclk_hz: float | None = None) -> float:
        """Asynchronous-crossing severity in [0, 1].

        0 when the domains are synchronized (Auto with MEMCLK at or below
        the fabric ceiling, or a fixed fclk with an integer MEMCLK/fclk
        ratio); 1 for a fully asynchronous crossing.  Auto above the
        ceiling retains a residual factor — the control loop tracks but
        cannot fully couple (this is what makes Auto's 92.0 ns beat fixed
        P0's 96.0 ns while not being perfect).
        """
        memclk = self.io_die.memclk_hz if memclk_hz is None else memclk_hz
        fclk = self.fclk_for(self.mode, memclk)
        if self.mode is FclkMode.AUTO:
            if memclk <= FCLK_COUPLED_CEILING_HZ + 1e6:
                return 0.0
            return self.cal.mem_auto_residual_mismatch
        ratio = memclk / fclk
        if abs(ratio - round(ratio)) < 0.05 and round(ratio) >= 1:
            return 0.0
        return 1.0

    # --- power -------------------------------------------------------------------

    def extra_power_w(self, fclk_hz: float | None = None) -> float:
        """I/O-die power relative to the *default* operating point.

        The paper's idle-staircase constants (Fig 7) were measured with
        the Auto fclk at DDR4-3200, i.e. fclk = 1.467 GHz — that power is
        already inside the +81.2 W system-wake term.  This term is the
        *deviation* from that reference: higher I/O die P-states (lower
        fclk) "reduce power consumption but also lower memory bandwidth"
        (§V-D), so it goes negative for P1/P2.  ``fclk_hz`` defaults to
        the applied fclk.
        """
        fclk = self.io_die.fclk_hz if fclk_hz is None else fclk_hz
        return self.cal.iodie_w_per_fclk_ghz * ((fclk - FCLK_COUPLED_CEILING_HZ) / ghz(1))
