"""Lumped thermal model per package.

A single RC node per package: ``C dT/dt = P - (T - T_amb)/R``.  This is
all the fidelity the paper's effects need:

* FIRESTARTER pre-heats for 15 minutes "to create a stable temperature"
  (§V-E) — the RC time constant makes short runs thermally unsettled;
* leakage power rises with temperature, which is the indirect channel
  through which operand-dependent power becomes (barely) visible to RAPL
  (§VII-B: "indirect effects, e.g., an increased temperature based on the
  number of set bits").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.power.calibration import CALIBRATION, Calibration


@dataclass
class ThermalState:
    """Per-package temperatures in degrees Celsius."""

    temps_c: list[float] = field(default_factory=list)

    @classmethod
    def ambient(cls, n_packages: int, calibration: Calibration = CALIBRATION) -> "ThermalState":
        return cls([calibration.ambient_temp_c] * n_packages)


class ThermalModel:
    """Evolution and equilibria of the per-package RC node."""

    def __init__(self, calibration: Calibration = CALIBRATION) -> None:
        self.cal = calibration

    @property
    def time_constant_s(self) -> float:
        """RC time constant (about a minute for the default constants)."""
        return self.cal.thermal_resistance_k_per_w * self.cal.thermal_capacitance_j_per_k

    def equilibrium_c(self, package_power_w: float) -> float:
        """Steady-state temperature under constant package power."""
        return (
            self.cal.ambient_temp_c
            + self.cal.thermal_resistance_k_per_w * package_power_w
        )

    def evolve_c(self, temp_c: float, package_power_w: float, dt_s: float) -> float:
        """Temperature after ``dt_s`` seconds of constant power."""
        if dt_s < 0:
            raise ValueError(f"negative dt {dt_s}")  # EXC001: argument validation
        eq = self.equilibrium_c(package_power_w)
        return eq + (temp_c - eq) * math.exp(-dt_s / self.time_constant_s)

    def trajectories_c(
        self, temps_c: list[float], package_powers_w: list[float], times_s
    ) -> list[np.ndarray]:
        """Each package's temperatures at each of ``times_s`` (seconds from now).

        Package ``i`` starts at ``temps_c[i]`` under constant power
        ``package_powers_w[i]``.  The decay factor ``exp(-t/tau)`` of each
        instant is computed once and shared by all packages.  Each
        element is the same float as ``eq + (temp - eq) * math.exp(-t /
        tau)``: the array operations round each product and sum as the
        scalar ones do.
        """
        tau = self.time_constant_s
        decay = np.array([math.exp(-t / tau) for t in np.asarray(times_s).tolist()])
        trajectories = []
        for temp_c, power_w in zip(temps_c, package_powers_w):
            eq = self.equilibrium_c(power_w)
            trajectories.append(eq + (temp_c - eq) * decay)
        return trajectories

    def settle(self, package_power_w: float) -> float:
        """Pre-heated temperature (the §V-E 15-minute warm-up)."""
        return self.equilibrium_c(package_power_w)
