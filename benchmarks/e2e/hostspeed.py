# lint: disable-file=DET001 — host-speed calibration reads the host clock
# to time a fixed kernel; the samples feed only the benchmark report,
# never simulated state.
"""Host-speed calibration: seconds rescaled to the reference host's speed.

The reference host is a shared virtual machine whose neighbours slow a
compute-bound process by up to 2x, in bursts from milliseconds to
minutes.  A whole run can land in a slow stretch, so neither longer runs
nor medians of wall time hold still from one run to the next.

While a :class:`HostSpeed` is active, a ``SIGALRM`` timer interrupts the
main thread every ``interval_s`` and times :func:`kernel`, a fixed piece
of pure-Python work that uses nothing of the program.  The samples are
spread evenly over the operation, so ``REF_KERNEL_S / sample`` is the
host's speed at that moment relative to the reference host uncontended.
:meth:`HostSpeed.rescale` subtracts the time the kernel itself took and
multiplies what is left by the mean of those speeds: the seconds the
operation would have taken on the reference host with no neighbours.  A
change to the program moves the operation's time but not the kernel's,
so it shows in full.  This holds only while the work slows as much as the
kernel does; README.md says where it was measured to hold and where not.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import Any

#: Seconds :func:`kernel` takes on the reference host (2-vCPU Intel Xeon
#: virtual machine, Python 3.11) when nothing contends.  Back-to-back
#: samples there cluster at ~225 µs, and at ~400 µs in slow stretches.
REF_KERNEL_S = 0.000225
KERNEL_STEPS = 400


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value

    def bump(self, x: float) -> float:
        self.value = self.value * 0.5 + x
        return self.value


def kernel(steps: int = KERNEL_STEPS) -> float:
    """Fixed interpreter work shaped like the simulator's: attribute and
    dict traffic, method calls, float arithmetic and a small heap."""
    cells: dict[int, _Cell] = {}
    heap: list[tuple[float, int]] = []
    acc = 0.0
    for i in range(steps):
        key = i & 31
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = _Cell(key, 0.0)
        acc += cell.bump(i * 1e-3)
        heapq.heappush(heap, (acc % 7.0, i))
        if len(heap) > 16:
            heapq.heappop(heap)
    return acc


class HostSpeed:
    """Times :func:`kernel` every ``interval_s`` while the ``with`` block runs.

    Main thread only: ``SIGALRM`` handlers run there, between bytecodes.
    """

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._previous: Any = None

    def _sample(self, signum: int, frame: Any) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescale(self, wall_s: float) -> float:
        """``wall_s``, measured around the ``with`` block, at reference speed."""
        return rescale(wall_s, self.samples)


def speed(samples: list[float]) -> float:
    """Mean host speed over ``samples``, relative to the reference host."""
    return REF_KERNEL_S * statistics.fmean(1.0 / s for s in samples)


def rescale(wall_s: float, samples: list[float]) -> float:
    """Seconds of ``wall_s`` not spent in the kernel, at reference speed.

    With no samples the operation was shorter than one interval, and
    ``wall_s`` is returned as measured.
    """
    if not samples:
        return wall_s
    return (wall_s - sum(samples)) * speed(samples)
