"""Experiment plumbing shared by all reproductions.

:class:`ExperimentConfig` standardizes the knobs every experiment has
(seed, scale factor for sample counts, measurement duration) so benches
can run a fast configuration while tests pin down behaviour at paper
scale where affordable.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from repro.errors import ConfigurationError
from repro.machine import Machine
from repro.topology.components import PACKAGE_COUNTS
from repro.topology.skus import sku_by_name

#: Active machine-construction hooks (see :func:`machine_hook`).
_MACHINE_HOOKS: list[Callable[[Machine], None]] = []


@contextmanager
def machine_hook(hook: Callable[[Machine], None]) -> Iterator[None]:
    """Run ``hook`` on every machine built while the context is active.

    This is how cross-cutting observers (the runtime invariant monitor,
    tracing) reach machines that experiments construct internally —
    every experiment funnels through :meth:`ExperimentConfig.build_machine`.
    Hooks nest; each ``with`` removes exactly the hook it added.
    """
    _MACHINE_HOOKS.append(hook)
    try:
        yield
    finally:
        _MACHINE_HOOKS.remove(hook)


@dataclass(frozen=True)
class ExperimentConfig:
    """Common experiment knobs.

    ``scale`` multiplies the paper's sample counts: 1.0 runs the full
    published methodology (e.g. 100 000 transition samples); benches use
    smaller scales since the distributions converge long before that.
    """

    seed: int = 0
    scale: float = 1.0
    interval_s: float = 10.0
    sku: str = "EPYC 7502"
    n_packages: int = 2

    def __post_init__(self) -> None:
        for name in ("seed", "n_packages"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if self.n_packages not in PACKAGE_COUNTS:
            raise ConfigurationError(
                f"n_packages must be one of {PACKAGE_COUNTS}, got {self.n_packages!r}"
            )
        sku_by_name(self.sku)
        for name in ("scale", "interval_s"):
            value = getattr(self, name)
            # NaN and infinity pass float() and json.loads alike; neither
            # is a usable scale or interval, and NaN is not valid JSON.
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or not 0 < value < math.inf
            ):
                raise ConfigurationError(
                    f"{name} must be a positive finite number, got {value!r}"
                )

    def scaled(self, count: int, minimum: int = 10) -> int:
        """A paper sample count scaled down, but never below ``minimum``."""
        return max(minimum, int(round(count * self.scale)))

    def with_scale(self, scale: float) -> "ExperimentConfig":
        return replace(self, scale=scale)

    def build_machine(self, **kwargs) -> Machine:
        """A fresh machine for this experiment."""
        machine = Machine(
            self.sku, n_packages=self.n_packages, seed=self.seed, **kwargs
        )
        for hook in _MACHINE_HOOKS:
            hook(machine)
        return machine
