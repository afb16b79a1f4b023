import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from enfcapon.errors import IncompatibleInputError, UndefinedCorrelationError
from enfcapon.matching import best_lag, correlation, fisher_test
from oracle import best_lag_scan


def assert_same_match(f, g, centered):
    """best_lag equals the scan of every lag, or both find no lag.

    MatchResult reprs hold the float's shortest round-trip form, so equal
    reprs mean a bit-equal correlation and an int lag.
    """
    try:
        expected = best_lag_scan(f, g, centered)
    except UndefinedCorrelationError:
        with pytest.raises(UndefinedCorrelationError):
            best_lag(f, g, centered)
        return
    assert repr(best_lag(f, g, centered)) == repr(expected)


def draw_values(draw, rng, kind, size):
    if kind == "enf":  # 60 Hz with milli-hertz variation
        return 60.0 + 1e-3 * np.cumsum(rng.normal(size=size))
    if kind == "periodic":  # exact ties between lags a period apart
        return np.resize(rng.normal(size=draw(st.integers(1, 12))), size)
    if kind == "integers":
        return rng.integers(-3, 4, size=size).astype(np.float64)
    if kind == "stretch":  # a constant stretch inside ENF values
        values = 60.0 + 1e-3 * rng.normal(size=size)
        start, stop = sorted(draw(st.lists(st.integers(0, size), min_size=2, max_size=2)))
        values[start:stop] = 60.0
        return values
    return rng.normal(size=size)


def spoil(draw, rng, values):
    """NaN runs, scattered NaNs and an optional infinity."""
    values = values.copy()
    if values.size:
        start = draw(st.integers(0, values.size - 1))
        values[start : start + draw(st.integers(0, 50))] = np.nan
        values[rng.random(values.size) < draw(st.sampled_from([0.0, 0.1, 0.4]))] = np.nan
        infinity = draw(st.sampled_from([None, np.inf, -np.inf]))
        if infinity is not None:
            values[draw(st.integers(0, values.size - 1))] = infinity
    return values


@st.composite
def match_inputs(draw):
    k = draw(st.integers(0, 60))
    g_len = draw(st.integers(k, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["enf", "periodic", "integers", "stretch", "normal"]))
    g = draw_values(draw, rng, kind, g_len)
    if draw(st.booleans()):  # a piece of the reference, maybe with noise
        lag = draw(st.integers(0, g_len - k))
        noise = draw(st.sampled_from([0.0, 1e-9, 1e-4]))
        f = g[lag : lag + k] + noise * rng.normal(size=k)
    else:
        f = draw_values(draw, rng, kind, k)
    return spoil(draw, rng, f), spoil(draw, rng, g)


class TestCorrelation:
    def test_self_correlation_is_one(self, rng):
        f = rng.normal(size=20)
        assert correlation(f, f) == pytest.approx(1.0, abs=1e-12)

    def test_centered_constant_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            correlation(np.full(10, 3.0), np.arange(10.0), centered=True)

    def test_zero_vector_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            correlation(np.zeros(10), np.ones(10))

    def test_pearson_hand_case(self):
        assert correlation([1, 2, 3], [3, 2, 1], centered=True) == pytest.approx(-1.0)

    def test_scale_invariance(self, rng):
        f = rng.normal(size=30) + 5.0
        g = rng.normal(size=30) + 5.0
        base = correlation(f, g)
        assert correlation(3.0 * f, 0.5 * g) == pytest.approx(base, rel=1e-12)
        centered = correlation(f, g, centered=True)
        assert correlation(2.0 * f + 7.0, g - 3.0, centered=True) == pytest.approx(
            centered, rel=1e-12
        )

    @pytest.mark.parametrize("centered", [False, True])
    def test_infinite_entry_undefined(self, centered):
        g = np.arange(1.0, 11.0)
        g[3] = -np.inf
        with pytest.raises(UndefinedCorrelationError, match="infinite norm"):
            correlation(np.ones(10) + np.arange(10.0), g, centered=centered)

    def test_nan_pairwise_deletion(self):
        f = np.array([1.0, np.nan, 3.0, 4.0])
        g = np.array([1.0, 2.0, 3.0, np.nan])
        assert correlation(f, g) == pytest.approx(1.0)


class TestBestLag:
    def test_planted_segment(self, rng):
        f = rng.normal(size=40) + 60.0
        g = rng.normal(size=300) * 0.01
        g[37 : 37 + 40] = f
        result = best_lag(f, g)
        assert result.best_lag == 37
        assert result.correlation == pytest.approx(1.0, abs=1e-12)
        assert result.n_used == 40

    def test_single_lag(self, rng):
        f = rng.normal(size=10) + 1.0
        result = best_lag(f, f)
        assert result.best_lag == 0
        assert result.lag_one_based == 1

    def test_argmax_prefers_positive_correlation(self, rng):
        # a negated copy at one lag loses to a positive copy elsewhere
        f = rng.normal(size=20)
        g = np.concatenate([-f, rng.normal(size=5) * 0.01, f])
        result = best_lag(f, g, centered=True)
        assert result.best_lag == 25
        assert result.correlation == pytest.approx(1.0, abs=1e-12)

    def test_infinite_reference_entry_skips_its_lags(self, rng):
        # The lags whose segment holds g[0] = inf have no correlation; they
        # used to win with NaN because c > NaN is never true.
        f = rng.normal(size=40) + 60.0
        g = rng.normal(size=300) * 0.01 + 60.0
        g[50:90] = f
        g[0] = np.inf
        result = best_lag(f, g, centered=True)
        assert result.best_lag == 50
        assert result.correlation == pytest.approx(1.0, abs=1e-12)

    def test_reference_too_short(self):
        with pytest.raises(ValueError):
            best_lag(np.ones(10), np.ones(5))

    def test_matches_brute_force(self, rng):
        for _ in range(100):
            f = rng.normal(size=50)
            g = rng.normal(size=500)
            for centered in (False, True):
                assert_same_match(f, g, centered)

    @settings(max_examples=300, deadline=None)
    @given(inputs=match_inputs())
    def test_matches_scan_on_irregular_tracks(self, inputs):
        f, g = inputs
        for centered in (False, True):
            assert_same_match(f, g, centered)

    def test_copy_planted_next_to_block_edges(self):
        # For a 40-frame query the lags go through the FFT in blocks of
        # 8,153; a copy planted at each lag around two block edges is found.
        rng = np.random.default_rng(4)
        f = 60.0 + 1e-3 * rng.normal(size=40)
        for lag in [*range(8149, 8157), *range(16302, 16310)]:
            g = 60.0 + 1e-3 * rng.normal(size=20000)
            g[lag : lag + 40] = f
            for centered in (False, True):
                assert best_lag(f, g, centered).best_lag == lag

    def test_ties_nans_and_infinities_across_blocks_match_scan(self):
        rng = np.random.default_rng(3)
        g = 60.0 + 1e-3 * rng.normal(size=20000)
        g[8200:] = np.resize(g[8200:8297], 11800)  # period 97: exact ties
        g[8100:8300] = np.nan
        g[16250] = np.inf
        f = g[9000:9040].copy()
        f[7] = np.nan
        for centered in (False, True):
            assert_same_match(f, g, centered)
            assert_same_match(f + 1e-9 * rng.normal(size=f.size), g, centered)

    def test_day_long_reference_matches_scan(self):
        # A 30-minute query in a 24-hour reference at 1 s frames.
        rng = np.random.default_rng(86400)
        g = 60.0 + np.cumsum(rng.normal(0.0, 0.002, 86400))
        for start in rng.integers(0, 86000, size=6):
            g[start : start + rng.integers(50, 400)] = np.nan
        lag = 51234
        f = g[lag : lag + 1800] + rng.normal(0.0, 1e-3, 1800)
        f[rng.choice(1800, size=18, replace=False)] = np.nan
        for centered in (False, True):
            result = best_lag(f, g, centered)
            assert result.best_lag == lag
            assert repr(result) == repr(best_lag_scan(f, g, centered))

    def test_gap_handling(self, rng):
        f = rng.normal(size=30) + 60.0
        f[5] = np.nan
        g = np.concatenate([rng.normal(size=50) * 0.01, f + 0.0])
        g[50 + 5] = 17.0  # value at the gap position is ignored
        result = best_lag(f, g)
        assert result.best_lag == 50
        assert result.n_used == 29


class TestFisher:
    def test_equal_correlations(self):
        result = fisher_test(0.9, 0.9, 100)
        assert result.q == 0.0
        assert not result.reject

    def test_close_high_correlations_still_reject(self):
        result = fisher_test(0.9990, 0.9847, 1800)
        expected_q = math.sqrt(1797) * (math.atanh(0.9990) - math.atanh(0.9847))
        assert result.q == pytest.approx(expected_q, abs=1e-12)
        assert abs(result.q) > 1.96
        assert result.reject

    def test_small_sample_tiny_effect(self):
        result = fisher_test(0.51, 0.50, 4)
        assert abs(result.q) < 1.96
        assert not result.reject

    def test_antisymmetry(self):
        a = fisher_test(0.8, 0.3, 50)
        b = fisher_test(0.3, 0.8, 50)
        assert a.q == pytest.approx(-b.q)

    def test_critical_value(self):
        assert fisher_test(0.5, 0.4, 100).critical == pytest.approx(1.959963984540054)

    def test_critical_value_matches_scipy_norm_isf(self):
        for alpha in [*np.logspace(-300, math.log10(0.98), 301), 1e-320]:
            expected = norm.isf(alpha / 2.0)
            assert fisher_test(0.5, 0.4, 100, alpha).critical == pytest.approx(expected, rel=2e-15)

    def test_tiny_alpha_gives_finite_critical_value(self):
        result = fisher_test(0.5, 0.4, 100, alpha=1e-320)
        assert result.critical == pytest.approx(38.29, abs=0.01)
        assert not result.reject

    def test_alpha_without_finite_critical_value_rejected(self):
        with pytest.raises(ValueError, match="finite critical value"):
            fisher_test(0.5, 0.4, 100, alpha=5e-324)

    @pytest.mark.parametrize("args", [
        (1.0, 0.5, 100, 0.05), (0.5, math.nan, 100, 0.05), (0.5, 0.4, 3, 0.05),
        (0.5, 0.4, 10**400, 0.05), (0.5, 0.4, 100, 0.0), (0.5, 0.4, 100, 5e-324),
    ])
    def test_every_rejection_is_incompatible_input(self, args):
        with pytest.raises(IncompatibleInputError):
            fisher_test(*args)

    def test_largest_float_n_accepted(self):
        n = int(np.finfo(np.float64).max)
        assert fisher_test(0.5, 0.4, n).n == n

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fisher_test(1.0, 0.5, 100)
        with pytest.raises(ValueError):
            fisher_test(0.5, 0.4, 3)
