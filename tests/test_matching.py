import math

import numpy as np
import pytest

from enfcapon.errors import UndefinedCorrelationError
from enfcapon.matching import best_lag, correlation, fisher_test


def brute_force_best_lag(f, g, centered=False):
    """Independent re-scan oracle."""
    best_lag_idx, best_c = None, -np.inf
    for lag in range(len(g) - len(f) + 1):
        seg = g[lag : lag + len(f)]
        a, b = np.asarray(f, float), np.asarray(seg, float)
        if centered:
            a, b = a - a.mean(), b - b.mean()
        denom = np.linalg.norm(a) * np.linalg.norm(b)
        if denom == 0:
            continue
        c = a @ b / denom
        if c > best_c:
            best_lag_idx, best_c = lag, c
    return best_lag_idx, best_c


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

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
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

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
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
            result = best_lag(f, g)
            oracle_lag, oracle_c = brute_force_best_lag(f, g)
            assert result.best_lag == oracle_lag
            assert result.correlation == pytest.approx(oracle_c, abs=1e-12)

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

    def test_tiny_alpha_gives_finite_critical_value(self):
        result = fisher_test(0.5, 0.4, 100, alpha=1e-320)
        assert result.critical == pytest.approx(38.29, abs=0.01)
        assert not result.reject

    def test_alpha_without_finite_critical_value_rejected(self):
        with pytest.raises(ValueError, match="finite critical value"):
            fisher_test(0.5, 0.4, 100, alpha=5e-324)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fisher_test(1.0, 0.5, 100)
        with pytest.raises(ValueError):
            fisher_test(0.5, 0.4, 3)
