"""Statistics used by the measurement methodology.

The frequency-transition methodology (§V-B) validates performance levels
with a 95 % confidence interval; the data-power experiment (§VII-B) uses
empirical cumulative distributions.  :func:`mean_std` runs numpy's own
reductions directly, without the Python wrappers of ``ndarray.mean`` and
``ndarray.std``, and must equal ``arr.mean()`` and ``arr.std(ddof=1)``
bit for bit, so every CI bound and validity decision does too.
:func:`rows_within_interval` judges many validation sets in one call,
with :func:`within_interval`'s decision on every row.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.errors import MeasurementError


def mean_std(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and (ddof=1) standard deviation.

    These are the operations numpy's ``_mean``, ``_var`` and ``_std`` run
    on float64 input, in the same order, for any shape or strides.
    """
    arr = np.asarray(samples, dtype=float)
    n = arr.size
    if n == 0:
        raise MeasurementError("no samples")
    if n == 1:
        return float(arr.flat[0]), 0.0
    mean = np.add.reduce(arr, None) / n
    d = arr - mean
    return float(mean), math.sqrt(np.add.reduce(d * d, None) / (n - 1))


def confidence_interval(samples: np.ndarray, level: float = 0.95) -> tuple[float, float]:
    """Normal-approximation CI for the mean of ``samples``.

    The methodology takes 100 validation samples per step (§V-B), large
    enough that the normal approximation matches the t interval to well
    under the measurement noise.
    """
    if not 0.0 < level < 1.0:
        raise MeasurementError(f"confidence level must be in (0,1), got {level}")
    mean, std = mean_std(samples)
    n = np.asarray(samples).size
    if n < 2:
        return mean, mean
    half = _z(level) * std / math.sqrt(n)
    return mean - half, mean + half


@functools.lru_cache(maxsize=8)
def _z(level: float) -> float:
    """Two-sided standard-normal quantile for ``level``, via the error function."""
    return math.sqrt(2.0) * _erfinv(level)


def _erfinv(y: float) -> float:
    """Inverse error function (Winitzki's approximation, <2e-3 rel err)."""
    a = 0.147
    ln1my2 = math.log(1.0 - y * y)
    term = 2.0 / (math.pi * a) + ln1my2 / 2.0
    return math.copysign(math.sqrt(math.sqrt(term * term - ln1my2 / a) - term), y)


def within_interval(value: float, samples: np.ndarray, level: float = 0.95) -> bool:
    """The §V-B validation predicate: does ``value`` sit in the CI?"""
    lo, hi = confidence_interval(samples, level)
    return lo <= value <= hi


def mean_std_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`mean_std` of each row of a 2-D array, bit for bit.

    ``np.add.reduce(rows, axis=1)`` sums each row of a C-contiguous array
    in the pairwise order the 1-D reduction uses, and every other step is
    the same elementwise operation on the same operands.
    """
    arr = np.ascontiguousarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise MeasurementError(f"need rows of at least 2 samples, got shape {arr.shape}")
    n = arr.shape[1]
    mean = np.add.reduce(arr, axis=1) / n
    d = arr - mean[:, None]
    return mean, np.sqrt(np.add.reduce(d * d, axis=1) / (n - 1))


def rows_within_interval(value: float, rows: np.ndarray, level: float = 0.95) -> np.ndarray:
    """:func:`within_interval` of ``value`` against each row, in one call."""
    if not 0.0 < level < 1.0:
        raise MeasurementError(f"confidence level must be in (0,1), got {level}")
    mean, std = mean_std_rows(rows)
    half = _z(level) * std / math.sqrt(np.shape(rows)[1])
    return (mean - half <= value) & (value <= mean + half)


def ecdf(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: (sorted values, cumulative probabilities].

    Matches the plotting convention of Fig 10 ("empirical cumulative
    distribution plots ... to avoid smoothing").
    """
    arr = np.sort(np.asarray(samples, dtype=float))
    if arr.size == 0:
        raise MeasurementError("no samples")
    probs = np.arange(1, arr.size + 1) / arr.size
    return arr, probs


def ecdf_quantile(samples: np.ndarray, q: float) -> float:
    """Quantile of the empirical distribution."""
    return float(np.quantile(np.asarray(samples, dtype=float), q))


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (max ECDF gap).

    The sharp version of the Fig 10 separation claims: ~1.0 for the AC
    distributions of different operand weights (fully separated), small
    for the strongly-overlapping RAPL distributions.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise MeasurementError("ks_distance needs non-empty samples")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def overlap_fraction(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of distribution overlap in [0, 1].

    1.0 = identical supports, 0.0 = fully separated.  Used to state the
    Fig 10 findings quantitatively: AC distributions for different
    operand weights have *no* overlap; RAPL distributions overlap
    strongly.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lo = max(a.min(), b.min())
    hi = min(a.max(), b.max())
    if hi <= lo:
        return 0.0
    frac_a = float(np.mean((a >= lo) & (a <= hi)))
    frac_b = float(np.mean((b >= lo) & (b <= hi)))
    return min(1.0, (frac_a + frac_b) / 2.0)
