"""Properties of the analysis statistics."""

import math

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays

from repro.core.analysis.histogram import Histogram
from repro.core.analysis.stats import (
    _erfinv,
    confidence_interval,
    ecdf,
    mean_std,
    mean_std_rows,
    overlap_fraction,
    rows_within_interval,
    within_interval,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def numpy_mean_std(samples) -> tuple[float, float]:
    """The reference: numpy's own ``mean`` and ``std(ddof=1)`` methods."""
    a = np.asarray(samples, dtype=float)
    return float(a.mean()), float(a.std(ddof=1))


def numpy_interval(samples, level: float = 0.95) -> tuple[float, float]:
    """The CI bounds from numpy's methods and the erfinv quantile."""
    mean, std = numpy_mean_std(samples)
    half = math.sqrt(2.0) * _erfinv(level) * std / math.sqrt(np.size(samples))
    return mean - half, mean + half


def numpy_within_interval(value: float, samples, level: float = 0.95) -> bool:
    """The §V-B predicate on :func:`numpy_interval`."""
    lo, hi = numpy_interval(samples, level)
    return lo <= value <= hi


def _value_source(draw):
    """A function of ``size`` that returns float64 values of one kind.

    Magnitudes run from 1e-6 to 1e12; ``probes`` is fig3's validation
    shape ``t * (1 + N(0, 1e-4))``, whose near-equal values make the
    summation order visible in the last bits.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(min_value=1e-6, max_value=1e12))
    kind = draw(st.sampled_from(["probes", "spread", "offset"]))

    def values(size):
        if kind == "probes":
            return scale * (1.0 + rng.normal(0.0, 1e-4, size=size))
        if kind == "spread":
            return rng.uniform(-scale, scale, size=size)
        return scale + rng.normal(0.0, scale * 1e-3, size=size)

    return values


@st.composite
def sample_sets(draw):
    """2-1,000 float64 values, as an array of some layout or a list."""
    values = _value_source(draw)
    layout = draw(st.sampled_from(["1-d", "2-d", "transposed", "strided", "list"]))

    if layout in ("2-d", "transposed"):
        rows = draw(st.integers(2, 40))
        grid = values((rows, draw(st.integers(1, 1000 // rows))))
        return grid if layout == "2-d" else grid.T
    if layout == "strided":
        step = draw(st.integers(2, 4))
        return values(step * draw(st.integers(2, 1000)))[::step]
    sample = values(draw(st.integers(2, 1000)))
    return sample if layout == "1-d" else sample.tolist()


any_samples = st.one_of(
    sample_sets(),
    arrays(
        np.float64,
        st.integers(2, 50),
        elements=st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
    ),
)


@given(samples=any_samples)
@settings(max_examples=500, deadline=None)
def test_mean_std_equals_numpy_methods_bit_for_bit(samples):
    got = mean_std(samples)
    want = numpy_mean_std(samples)
    assert [v.hex() for v in got] == [v.hex() for v in want]


@given(
    samples=any_samples,
    level=st.one_of(st.just(0.95), st.floats(min_value=0.01, max_value=0.999)),
    where=st.sampled_from(
        ["mean", "lo", "hi", "below lo", "above lo", "below hi", "above hi", "random"]
    ),
    u=st.floats(min_value=-1.0, max_value=2.0),
)
@settings(max_examples=500, deadline=None)
def test_within_interval_equals_numpy_reference(samples, level, where, u):
    lo, hi = numpy_interval(samples, level)
    value = {
        "mean": numpy_mean_std(samples)[0],
        "lo": lo,
        "hi": hi,
        "below lo": np.nextafter(lo, -np.inf),
        "above lo": np.nextafter(lo, np.inf),
        "below hi": np.nextafter(hi, -np.inf),
        "above hi": np.nextafter(hi, np.inf),
        "random": lo + u * (hi - lo),
    }[where]
    assert within_interval(value, samples, level) == numpy_within_interval(
        value, samples, level
    )


@st.composite
def probe_rounds(draw):
    """1-300 rows of 2-200 values each, fig3's 100 among the widths."""
    values = _value_source(draw)
    width = draw(st.one_of(st.just(100), st.integers(2, 200)))
    return values((draw(st.integers(1, 300)), width))


@given(
    rows=probe_rounds(),
    level=st.one_of(st.just(0.95), st.floats(min_value=0.01, max_value=0.999)),
    pick=st.integers(0, 299),
    where=st.sampled_from(
        ["lo", "hi", "below lo", "above lo", "below hi", "above hi", "mean"]
    ),
)
@settings(max_examples=300, deadline=None)
def test_rows_within_interval_equals_per_row_predicates(rows, level, pick, where):
    # The value sits at one row's bound or one ulp beside it.
    lo, hi = numpy_interval(rows[pick % len(rows)], level)
    value = {
        "lo": lo,
        "hi": hi,
        "below lo": np.nextafter(lo, -np.inf),
        "above lo": np.nextafter(lo, np.inf),
        "below hi": np.nextafter(hi, -np.inf),
        "above hi": np.nextafter(hi, np.inf),
        "mean": (lo + hi) / 2,
    }[where]
    means, stds = mean_std_rows(rows)
    decisions = rows_within_interval(value, rows, level)
    assert decisions.shape == (len(rows),)
    for row, mean, std, ok in zip(rows, means.tolist(), stds.tolist(), decisions.tolist()):
        assert [mean.hex(), std.hex()] == [v.hex() for v in mean_std(row)]
        assert ok == within_interval(value, row, level)
        assert ok == numpy_within_interval(value, row, level)


@given(samples=arrays(np.float64, st.integers(2, 200), elements=finite_floats))
def test_ci_brackets_the_sample_mean(samples):
    lo, hi = confidence_interval(samples)
    assert lo <= samples.mean() <= hi


@given(samples=arrays(np.float64, st.integers(1, 200), elements=finite_floats))
def test_ecdf_is_monotone_cdf(samples):
    vals, probs = ecdf(samples)
    assert np.all(np.diff(vals) >= 0)
    assert np.all(np.diff(probs) > 0)
    assert probs[0] > 0
    assert probs[-1] == 1.0
    assert vals.size == samples.size


@given(
    a=arrays(np.float64, st.integers(2, 100), elements=finite_floats),
    b=arrays(np.float64, st.integers(2, 100), elements=finite_floats),
)
def test_overlap_symmetric_and_bounded(a, b):
    o1 = overlap_fraction(a, b)
    o2 = overlap_fraction(b, a)
    assert 0.0 <= o1 <= 1.0
    assert o1 == o2


@given(
    samples=arrays(
        np.float64,
        st.integers(10, 500),
        elements=st.floats(min_value=0.0, max_value=1000.0),
    ),
    bin_width=st.floats(min_value=0.5, max_value=100.0),
)
@settings(max_examples=50)
def test_histogram_conserves_samples(samples, bin_width):
    h = Histogram.from_samples(samples, bin_width)
    assert h.n_samples == samples.size


@given(
    samples=arrays(
        np.float64,
        st.integers(10, 500),
        elements=st.floats(min_value=0.0, max_value=1000.0),
    ),
)
@settings(max_examples=50)
def test_histogram_support_brackets_data(samples):
    h = Histogram.from_samples(samples, 10.0)
    lo, hi = h.support
    assert lo <= samples.min()
    assert hi >= samples.max()
