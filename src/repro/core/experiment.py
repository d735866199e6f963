"""Experiment plumbing shared by all reproductions.

:class:`ExperimentConfig` standardizes the knobs every experiment has
(seed, scale factor for sample counts, measurement duration) so benches
can run a fast configuration while tests pin down behaviour at paper
scale where affordable.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from repro.machine import Machine

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
