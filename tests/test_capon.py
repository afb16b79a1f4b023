import numpy as np
import pytest
from scipy.linalg import toeplitz

from conftest import make_tone, random_pd_toeplitz
from enfcapon.capon import (
    capon_psd,
    capon_psd_dense,
    denom_coeffs,
    estimate_autocovariance,
    gs_factors,
    levinson_solve,
)
from enfcapon.errors import NotPositiveDefiniteError, SpectrumDegeneracyError
from enfcapon.pipeline import estimate_frames
from enfcapon.spectral import band_bins, band_peak
from enfcapon.windowing import make_window
from oracle import denominator_quadratic_form, inverse_from_gs, sample_covariance


def two_by_two_factors(r):
    """Analytic GS factors for rho = (1, r)."""
    w, alpha = np.array([-r]), 1.0 - r * r
    return gs_factors(w, alpha)


def fast_psd(col, grid_size):
    w, alpha, valid = levinson_solve(col)
    assert valid
    return capon_psd(denom_coeffs(*gs_factors(w, alpha)), grid_size)


def peak_bin(values, band, rate):
    bins = band_bins(band, values.size, rate)
    freq, _ = band_peak(values[bins], bins, values.size, rate, interpolate=False)
    return int(round(freq * values.size / rate))


class TestAutocovariance:
    def test_zero_frame_degenerate(self):
        rho = estimate_autocovariance(np.zeros(32), 4)
        assert np.all(rho == 0.0)
        assert not levinson_solve(rho)[2]

    def test_unit_impulse(self):
        frame = np.zeros(8)
        frame[0] = 1.0
        rho = estimate_autocovariance(frame, 2)
        np.testing.assert_allclose(rho, [1.0 / 8.0, 0.0, 0.0])

    def test_white_noise(self):
        rng = np.random.default_rng(3)
        frame = rng.normal(0.0, 2.0, 441)
        rho = estimate_autocovariance(frame, 10)
        assert rho[0] == pytest.approx(4.0, rel=0.25)
        assert np.all(np.abs(rho[1:]) / rho[0] < 0.2)

    def test_too_short(self):
        with pytest.raises(ValueError):
            estimate_autocovariance(np.ones(5), 10)

    def test_matches_definition(self, rng):
        frames = rng.normal(size=(3, 50))
        rho = estimate_autocovariance(frames, 3)
        assert rho.shape == (3, 4)
        for frame, row in zip(frames, rho):
            for k in range(4):
                expected = sum(frame[t] * frame[t - k] for t in range(k, 50)) / 50
                assert row[k] == pytest.approx(expected)


class TestLevinson:
    def test_identity_covariance(self):
        w, alpha, valid = levinson_solve(np.r_[1.0, np.zeros(10)])
        assert np.all(w == 0.0)
        assert alpha == 1.0
        assert valid

    def test_order_two_hand_solve(self):
        r = 0.6
        w, alpha, _ = levinson_solve(np.array([1.0, r]))
        np.testing.assert_allclose(w, [-r])
        assert alpha == pytest.approx(1.0 - r * r)

    def test_against_dense_solve(self, rng):
        cols = np.array([random_pd_toeplitz(rng, 11) for _ in range(50)])
        w, alpha, valid = levinson_solve(cols)
        assert np.all(valid)
        for col, w_row, alpha_row in zip(cols, w, alpha):
            dense = np.linalg.solve(toeplitz(col[:-1]), -col[1:])
            np.testing.assert_allclose(w_row, dense, rtol=1e-10, atol=1e-12)
            assert alpha_row == pytest.approx(col[0] + col[1:] @ w_row, rel=1e-10)

    def test_rejects_non_positive_definite(self):
        _, alpha, valid = levinson_solve(np.array([[1.0, 1.2], [0.0, 0.0], [1.0, 0.5]]))
        np.testing.assert_array_equal(valid, [False, False, True])
        assert np.all(alpha > 0.0)

    def test_pd_agreement_with_eigenvalues(self, rng):
        # Levinson succeeds exactly when the dense matrix is PD.
        cols = []
        for i in range(200):
            col = random_pd_toeplitz(rng, 8, near_singular=(i % 3 == 0))
            if i % 5 == 0:
                col[1] = col[0] * rng.uniform(0.9, 1.5)  # sometimes indefinite
            cols.append(col)
        dense_pd = [np.all(np.linalg.eigvalsh(toeplitz(col)) > 0.0) for col in cols]
        np.testing.assert_array_equal(levinson_solve(np.array(cols))[2], dense_pd)


class TestGsFactors:
    def test_identity(self):
        gamma, delta = gs_factors(np.zeros(10), 1.0)
        assert gamma[0] == 1.0
        assert np.all(gamma[1:] == 0.0)
        assert np.all(delta == 0.0)

    def test_order_two_analytic(self):
        r = 0.4
        gamma, delta = two_by_two_factors(r)
        scale = 1.0 / np.sqrt(1.0 - r * r)
        np.testing.assert_allclose(gamma, [scale, -r * scale])
        np.testing.assert_allclose(delta, [0.0, -r * scale])

    def test_invariants(self, rng):
        w = rng.normal(size=(4, 10)) * 0.1
        alpha = np.array([0.7, 1.0, 2.5, 0.1])
        gamma, delta = gs_factors(w, alpha)
        np.testing.assert_allclose(gamma[:, 0] * np.sqrt(alpha), 1.0)
        assert np.all(delta[:, 0] == 0.0)
        np.testing.assert_allclose(delta[:, 1:] * np.sqrt(alpha)[:, None], w[:, ::-1])

    def test_rejects_bad_alpha(self):
        with pytest.raises(NotPositiveDefiniteError):
            gs_factors(np.zeros(3), 0.0)


class TestInverseFromGs:
    def test_identity_covariance(self):
        gamma, delta = gs_factors(np.zeros(10), 1.0)
        np.testing.assert_allclose(inverse_from_gs(gamma, delta), np.eye(11))

    def test_order_two_analytic(self):
        r = 0.3
        inv = inverse_from_gs(*two_by_two_factors(r))
        expected = np.array([[1.0, -r], [-r, 1.0]]) / (1.0 - r * r)
        np.testing.assert_allclose(inv, expected)

    def test_against_dense_inverse(self, rng):
        for _ in range(50):
            col = random_pd_toeplitz(rng, 11)
            w, alpha, _ = levinson_solve(col)
            inv = inverse_from_gs(*gs_factors(w, alpha))
            dense = np.linalg.inv(toeplitz(col))
            rel = np.linalg.norm(inv - dense) / np.linalg.norm(dense)
            assert rel < 1e-8


class TestDenomCoeffs:
    def test_identity_trace(self):
        coeffs = denom_coeffs(*gs_factors(np.zeros(10), 1.0))
        assert coeffs[0] == pytest.approx(11.0)
        assert np.all(coeffs[1:] == 0.0)

    def test_order_two_analytic(self):
        r = 0.25
        coeffs = denom_coeffs(*two_by_two_factors(r))
        np.testing.assert_allclose(coeffs, [2.0 / (1 - r * r), -r / (1 - r * r)])

    def test_matches_dense_diagonal_sums(self, rng):
        cols = np.array([random_pd_toeplitz(rng, 11) for _ in range(50)])
        w, alpha, _ = levinson_solve(cols)
        gamma, delta = gs_factors(w, alpha)
        coeffs = denom_coeffs(gamma, delta)
        for row, g, d in zip(coeffs, gamma, delta):
            dense = inverse_from_gs(g, d)
            for i in range(11):
                assert row[i] == pytest.approx(
                    np.trace(dense, offset=i), rel=1e-10, abs=1e-12
                )

    def test_full_sequence_symmetric(self, pd_cov):
        w, alpha, _ = levinson_solve(pd_cov)
        half = denom_coeffs(*gs_factors(w, alpha))
        dense = inverse_from_gs(*gs_factors(w, alpha))
        for i in range(1, 11):
            assert np.trace(dense, offset=-i) == pytest.approx(half[i], rel=1e-10)


class TestCaponPsd:
    def test_identity_covariance_flat(self):
        coeffs = denom_coeffs(*gs_factors(np.zeros(10), 1.0))
        np.testing.assert_allclose(capon_psd(coeffs, 128), 1.0)

    def test_matches_direct_quadratic_form(self, rng):
        col = random_pd_toeplitz(rng, 11)
        psd = fast_psd(col, 64)
        dense = toeplitz(col)
        for q in rng.choice(64, size=16, replace=False):
            direct = 11.0 / denominator_quadratic_form(dense, 2 * np.pi * q / 64)
            assert psd[q] == pytest.approx(direct, rel=1e-9)

    def test_matches_dense_path(self, rng):
        col = random_pd_toeplitz(rng, 11)
        np.testing.assert_allclose(
            fast_psd(col, 128), capon_psd_dense(toeplitz(col), 128), rtol=1e-9
        )

    def test_grid_too_small(self, pd_cov):
        w, alpha, _ = levinson_solve(pd_cov)
        with pytest.raises(ValueError):
            capon_psd(denom_coeffs(*gs_factors(w, alpha)), 20)

    def test_degenerate_denominator_reported(self):
        with pytest.raises(SpectrumDegeneracyError):
            capon_psd(np.array([0.0, 1.0]), 32)

    def test_sinusoid_peak_near_tone(self):
        rng = np.random.default_rng(11)
        frame = make_tone(120.0, 441, 1.0) + rng.normal(0.0, 0.1, 441)
        psd = fast_psd(estimate_autocovariance(frame, 10), 4 * 441)
        q_max = peak_bin(psd, (100.0, 140.0), 441.0)
        bin_hz = 441.0 / psd.size
        assert abs(q_max * bin_hz - 120.0) <= bin_hz
        # cross-check against the periodogram peak
        periodogram = np.abs(np.fft.fft(frame, 4 * 441)) ** 2 / 441
        stft_q = peak_bin(periodogram, (100.0, 140.0), 441.0)
        assert abs(q_max - stft_q) <= 2


class TestScaleEquivariance:
    def test_scaling_relations(self, rng):
        frame = rng.normal(size=200)
        c = 3.7
        rho = estimate_autocovariance(frame, 6)
        rho_scaled = estimate_autocovariance(c * frame, 6)
        np.testing.assert_allclose(rho_scaled, c * c * rho, rtol=1e-12)
        w, alpha, _ = levinson_solve(rho)
        w_scaled, alpha_scaled, _ = levinson_solve(rho_scaled)
        np.testing.assert_allclose(w_scaled, w, rtol=1e-10)
        assert alpha_scaled == pytest.approx(c * c * alpha, rel=1e-10)
        psd = fast_psd(rho, 256)
        psd_scaled = fast_psd(rho_scaled, 256)
        assert np.argmax(psd) == np.argmax(psd_scaled)
        np.testing.assert_allclose(psd_scaled, c * c * psd, rtol=1e-9)


class TestEstimateFrame:
    def test_noiseless_tone(self):
        frame = make_tone(180.0, 441, 1.0) * make_window("parzen", 441).taps
        est = estimate_frames(frame[None, :], 441.0, (177.0, 183.0))
        assert est[0] == pytest.approx(180.0, abs=0.05)

    def test_zero_frame_flagged(self):
        tone = make_tone(180.0, 441, 1.0)
        est = estimate_frames(np.stack([tone, np.zeros(441)]), 441.0, (177.0, 183.0))
        assert np.isfinite(est[0])
        assert np.isnan(est[1])

    def test_monte_carlo_median_error(self):
        rng = np.random.default_rng(21)
        window = make_window("parzen", 441)
        noise_std = np.sqrt(0.5 / 10 ** (20 / 10.0))  # 20 dB SNR
        frames = np.stack([
            (make_tone(180.05, 441, 1.0, phase=rng.uniform(0, 2 * np.pi))
             + rng.normal(0.0, noise_std, 441)) * window.taps
            for _ in range(100)
        ])
        errors = np.abs(estimate_frames(frames, 441.0, (177.0, 183.0)) - 180.05)
        assert np.median(errors) < 0.02


def test_sample_covariance_reference_mode():
    # Eq-style averaged outer products vs the Toeplitz-constrained
    # estimate: both must localize a strong tone to the same region.
    rng = np.random.default_rng(5)
    frame = make_tone(120.0, 441, 1.0) + rng.normal(0.0, 0.05, 441)
    dense_cov = sample_covariance(frame, 10)
    assert dense_cov.shape == (11, 11)
    # symmetric but in general not exactly Toeplitz
    np.testing.assert_allclose(dense_cov, dense_cov.T, rtol=1e-12)
    psd_dense = capon_psd_dense(dense_cov, 4 * 441)
    psd_fast = fast_psd(estimate_autocovariance(frame, 10), 4 * 441)
    q_dense = peak_bin(psd_dense, (100.0, 140.0), 441.0)
    q_fast = peak_bin(psd_fast, (100.0, 140.0), 441.0)
    assert abs(q_dense - q_fast) <= 2
