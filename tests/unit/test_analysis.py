"""Statistics, histogram and table helpers."""

import numpy as np
import pytest

from repro.core.analysis.histogram import Histogram
from repro.core.analysis.stats import (
    confidence_interval,
    ecdf,
    ecdf_quantile,
    mean_std,
    overlap_fraction,
    within_interval,
)
from repro.core.analysis.tables import format_table
from repro.errors import MeasurementError


class TestStats:
    def test_mean_std(self):
        mean, std = mean_std(np.array([1.0, 2.0, 3.0]))
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(1.0)

    def test_single_sample(self):
        assert mean_std(np.array([5.0])) == (5.0, 0.0)

    @pytest.mark.parametrize("sample", [5.0, [[5.0]]], ids=["scalar", "2-d"])
    def test_single_sample_of_any_shape(self, sample):
        assert mean_std(sample) == (5.0, 0.0)

    def test_empty_raises(self):
        with pytest.raises(MeasurementError):
            mean_std(np.array([]))

    def test_ci_contains_mean(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(10.0, 1.0, 100)
        lo, hi = confidence_interval(samples)
        assert lo < samples.mean() < hi

    def test_ci_width_shrinks_with_n(self):
        rng = np.random.default_rng(0)
        small = rng.normal(0, 1, 30)
        large = rng.normal(0, 1, 3000)
        lo_s, hi_s = confidence_interval(small)
        lo_l, hi_l = confidence_interval(large)
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_ci_level_validation(self):
        with pytest.raises(MeasurementError):
            confidence_interval(np.array([1.0, 2.0]), level=1.5)

    def test_ci_coverage_near_95pct(self):
        # frequentist check of the methodology's validation predicate
        rng = np.random.default_rng(42)
        hits = sum(
            within_interval(0.0, rng.normal(0.0, 1.0, 100)) for _ in range(400)
        )
        assert 0.90 <= hits / 400 <= 0.99

    def test_ecdf_shape(self):
        vals, probs = ecdf(np.array([3.0, 1.0, 2.0]))
        assert list(vals) == [1.0, 2.0, 3.0]
        assert probs[-1] == 1.0
        assert np.all(np.diff(probs) > 0)

    def test_ecdf_empty(self):
        with pytest.raises(MeasurementError):
            ecdf(np.array([]))

    def test_ecdf_quantile(self):
        assert ecdf_quantile(np.arange(101.0), 0.5) == pytest.approx(50.0)

    def test_overlap_disjoint(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([10.0, 11.0])
        assert overlap_fraction(a, b) == 0.0

    def test_overlap_identical(self):
        a = np.array([1.0, 2.0, 3.0])
        assert overlap_fraction(a, a) == 1.0

    def test_overlap_partial(self):
        a = np.arange(0.0, 10.0)
        b = np.arange(5.0, 15.0)
        assert 0.0 < overlap_fraction(a, b) < 1.0


class TestHistogram:
    def test_uniform_has_low_cv(self):
        rng = np.random.default_rng(0)
        h = Histogram.from_samples(rng.uniform(390, 1390, 50_000), bin_width=25.0)
        assert h.uniformity_cv() < 0.1

    def test_gaussian_has_high_cv(self):
        rng = np.random.default_rng(0)
        h = Histogram.from_samples(rng.normal(900, 100, 50_000), bin_width=25.0)
        assert h.uniformity_cv() > 0.5

    def test_support(self):
        h = Histogram.from_samples(np.array([100.0, 200.0, 300.0]), bin_width=50.0)
        lo, hi = h.support
        assert lo <= 100.0 and hi >= 300.0

    def test_n_samples(self):
        h = Histogram.from_samples(np.arange(77.0), bin_width=10.0)
        assert h.n_samples == 77

    def test_empty_raises(self):
        with pytest.raises(MeasurementError):
            Histogram.from_samples(np.array([]), bin_width=1.0)

    def test_single_value(self):
        h = Histogram.from_samples(np.array([5.0, 5.0]), bin_width=1.0)
        assert h.n_samples == 2

    def test_render_ascii(self):
        h = Histogram.from_samples(np.arange(100.0), bin_width=25.0)
        out = h.render_ascii()
        assert "#" in out
        assert len(out.splitlines()) == len(h.counts)


class TestTables:
    def test_alignment(self):
        out = format_table(["a", "bb"], [["x", 1.5], ["yyyy", 2.25]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "1.500" in out

    def test_custom_float_format(self):
        out = format_table(["v"], [[1.23456]], float_fmt="{:.1f}")
        assert "1.2" in out and "1.23" not in out

    def test_non_float_cells(self):
        out = format_table(["k", "v"], [["key", 42]])
        assert "42" in out


class TestKsDistance:
    def test_identical_distributions_zero(self):
        from repro.core.analysis.stats import ks_distance

        a = np.arange(100.0)
        assert ks_distance(a, a) == 0.0

    def test_disjoint_distributions_one(self):
        from repro.core.analysis.stats import ks_distance

        assert ks_distance(np.arange(0.0, 10.0), np.arange(20.0, 30.0)) == 1.0

    def test_partial_overlap_in_between(self):
        from repro.core.analysis.stats import ks_distance

        rng = np.random.default_rng(0)
        d = ks_distance(rng.normal(0, 1, 500), rng.normal(0.5, 1, 500))
        assert 0.05 < d < 0.6

    def test_symmetric(self):
        from repro.core.analysis.stats import ks_distance

        rng = np.random.default_rng(1)
        a, b = rng.normal(0, 1, 100), rng.normal(1, 2, 150)
        assert ks_distance(a, b) == ks_distance(b, a)

    def test_empty_rejected(self):
        from repro.core.analysis.stats import ks_distance
        from repro.errors import MeasurementError

        with pytest.raises(MeasurementError):
            ks_distance(np.array([]), np.array([1.0]))

    def test_matches_scipy(self):
        from scipy import stats as sps

        from repro.core.analysis.stats import ks_distance

        rng = np.random.default_rng(2)
        a, b = rng.normal(0, 1, 200), rng.exponential(1.0, 300)
        assert ks_distance(a, b) == pytest.approx(sps.ks_2samp(a, b).statistic)
