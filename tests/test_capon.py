import numpy as np
import pytest
from scipy.linalg import toeplitz

from conftest import make_tone, random_pd_toeplitz
from enfcapon.bench import dense_band_power
from enfcapon.capon import (
    capon_coeffs,
    capon_power,
    cosine_table,
    denom_coeffs,
    estimate_autocovariance,
    gs_factors,
    levinson_solve,
)
from enfcapon.pipeline import MAX_CAPON_ORDER, estimate_frames, power_config
from enfcapon.signal_io import BLOCK_SAMPLES
from enfcapon.spectral import band_bins
from enfcapon.windowing import make_window
from oracle import (
    capon_psd,
    capon_psd_dense,
    denominator_quadratic_form,
    gs_delta,
    inverse_from_gs,
    loaded_covariance,
    sample_covariance,
    stage_band_power,
)


def two_by_two_factors(r):
    """Analytic GS factors for rho = (1, r)."""
    w, alpha = np.array([-r]), 1.0 - r * r
    return gs_factors(w, alpha)


def full_grid_power(frames, grid_size, order=10):
    """Capon power of every frame at every bin q = 0..Q-1."""
    power, valid = stage_band_power(frames, np.arange(grid_size), grid_size, order)
    assert np.all(valid)
    return power


def peak_bin(values, band, rate):
    bins = band_bins(band, values.size, rate)[1:-1]
    return int(bins[np.argmax(values[bins])])


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

    def test_failed_rows_reset_and_valid_rows_unchanged(self, rng):
        good = np.array([random_pd_toeplitz(rng, 11) for _ in range(4)])
        bad = good.copy()
        bad[1, 1] = 1.2 * bad[1, 0]   # fails at the first step
        bad[2] = 0.0                  # no energy
        bad[3, 5] = 3.0 * bad[3, 0]   # fails at a later step
        w, alpha, valid = levinson_solve(bad)
        np.testing.assert_array_equal(valid, [True, False, False, False])
        np.testing.assert_array_equal(w[1:], 0.0)
        np.testing.assert_array_equal(alpha[1:], 1.0)
        w_good, alpha_good, _ = levinson_solve(good)
        assert np.array_equal(w[0], w_good[0]) and alpha[0] == alpha_good[0]

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
        gamma = gs_factors(np.zeros(10), 1.0)
        assert gamma[0] == 1.0
        assert np.all(gamma[1:] == 0.0)
        assert np.all(gs_delta(gamma) == 0.0)

    def test_order_two_analytic(self):
        r = 0.4
        gamma = two_by_two_factors(r)
        scale = 1.0 / np.sqrt(1.0 - r * r)
        np.testing.assert_allclose(gamma, [scale, -r * scale])
        np.testing.assert_allclose(gs_delta(gamma), [0.0, -r * scale])

    def test_invariants(self, rng):
        w = rng.normal(size=(4, 10)) * 0.1
        alpha = np.array([0.7, 1.0, 2.5, 0.1])
        gamma = gs_factors(w, alpha)
        delta = gs_delta(gamma)
        np.testing.assert_allclose(gamma[:, 0] * np.sqrt(alpha), 1.0)
        np.testing.assert_allclose(gamma[:, 1:] * np.sqrt(alpha)[:, None], w)
        assert np.all(delta[:, 0] == 0.0)
        np.testing.assert_allclose(delta[:, 1:] * np.sqrt(alpha)[:, None], w[:, ::-1])


class TestInverseFromGs:
    def test_identity_covariance(self):
        np.testing.assert_allclose(inverse_from_gs(gs_factors(np.zeros(10), 1.0)), np.eye(11))

    def test_order_two_analytic(self):
        r = 0.3
        inv = inverse_from_gs(two_by_two_factors(r))
        expected = np.array([[1.0, -r], [-r, 1.0]]) / (1.0 - r * r)
        np.testing.assert_allclose(inv, expected)

    def test_against_dense_inverse(self, rng):
        for _ in range(50):
            col = random_pd_toeplitz(rng, 11)
            w, alpha, _ = levinson_solve(col)
            inv = inverse_from_gs(gs_factors(w, alpha))
            dense = np.linalg.inv(toeplitz(col))
            rel = np.linalg.norm(inv - dense) / np.linalg.norm(dense)
            assert rel < 1e-8


class TestDenomCoeffs:
    def test_identity_trace(self):
        coeffs = denom_coeffs(gs_factors(np.zeros(10), 1.0))
        assert coeffs[0] == pytest.approx(11.0)
        assert np.all(coeffs[1:] == 0.0)

    def test_order_two_analytic(self):
        r = 0.25
        coeffs = denom_coeffs(two_by_two_factors(r))
        np.testing.assert_allclose(coeffs, [2.0 / (1 - r * r), -r / (1 - r * r)])

    # Orders 1, 2, the default 10 and the largest the config allows.
    @pytest.mark.parametrize("size", [2, 3, 11, MAX_CAPON_ORDER + 1])
    def test_matches_dense_diagonal_sums(self, rng, size):
        cols = np.array([random_pd_toeplitz(rng, size) for _ in range(50)])
        w, alpha, _ = levinson_solve(cols)
        gamma = gs_factors(w, alpha)
        for row, g in zip(denom_coeffs(gamma), gamma):
            dense = inverse_from_gs(g)
            for i in range(size):
                assert row[i] == pytest.approx(
                    np.trace(dense, offset=i), rel=1e-10, abs=1e-12
                )

    def test_full_sequence_symmetric(self, pd_cov):
        w, alpha, _ = levinson_solve(pd_cov)
        gamma = gs_factors(w, alpha)
        half = denom_coeffs(gamma)
        dense = inverse_from_gs(gamma)
        for i in range(1, 11):
            assert np.trace(dense, offset=-i) == pytest.approx(half[i], rel=1e-10)

    @pytest.mark.parametrize("split", [1, 7])
    def test_row_bits_do_not_depend_on_the_batch(self, rng, split):
        # A matrix-vector product per diagonal moved 1,785 of these rows
        # under 1-row splits and 372 under 7-row splits.
        frames = rng.normal(size=(1797, 441)) * make_window("parzen", 441)
        w, alpha, _ = levinson_solve(estimate_autocovariance(frames))
        gamma = gs_factors(w, alpha)
        parts = [denom_coeffs(gamma[i : i + split]) for i in range(0, len(gamma), split)]
        assert np.concatenate(parts).tobytes() == denom_coeffs(gamma).tobytes()


class TestCaponPower:
    @pytest.mark.parametrize("frame_len_s", [1.0, 20.0])
    def test_row_bits_do_not_depend_on_the_batch(self, rng, frame_len_s):
        # 30 minutes of noise framed as the pipeline frames it.  A BLAS
        # coeffs @ table moved every row under 1-row splits, and at 20 s
        # 1,565 of 1,781 rows under 7-row splits and 169 under the
        # pipeline's 275-row spectrum blocks (one BLAS thread).
        config = power_config(frame_len_s=frame_len_s)
        (n, shift), bins = config.frame_samples, config.search_bins
        rows = np.lib.stride_tricks.sliding_window_view(rng.normal(size=1800 * 441), n)[::shift]
        window = make_window("parzen", n)
        coeffs, valid = capon_coeffs(np.concatenate(
            [estimate_autocovariance(rows[i : i + 100] * window)
             for i in range(0, len(rows), 100)]))
        table = cosine_table(bins, config.grid_size)
        whole = capon_power(coeffs, valid, table)
        for split in (1, 7, BLOCK_SAMPLES // 2 // bins.size):
            parts = [capon_power(coeffs[i : i + split], valid[i : i + split], table)
                     for i in range(0, len(coeffs), split)]
            assert np.concatenate([power for power, _ in parts]).tobytes() == whole[0].tobytes()
            np.testing.assert_array_equal(np.concatenate([v for _, v in parts]), whole[1])


class TestCaponPsd:
    def test_identity_covariance_flat(self):
        # A unit impulse has autocovariance (1/N, 0, ..., 0), a scaled identity.
        frame = np.zeros(64)
        frame[0] = 1.0
        power = full_grid_power(frame[None, :], 128)
        np.testing.assert_allclose(power, power[0, 0], rtol=1e-12)

    def test_matches_direct_quadratic_form(self, rng):
        frame = rng.normal(size=200)
        bins = rng.choice(64, size=16, replace=False)
        power, valid = stage_band_power(frame[None, :], bins, 64)
        assert valid[0]
        dense = loaded_covariance(frame, 10)
        for q, value in zip(bins, power[0]):
            direct = 11.0 / denominator_quadratic_form(dense, 2 * np.pi * q / 64)
            assert value == pytest.approx(direct, rel=1e-9)

    def test_matches_dense_path(self, rng):
        frames = rng.normal(size=(4, 200))
        for frame, row in zip(frames, full_grid_power(frames, 128)):
            np.testing.assert_allclose(
                row, capon_psd_dense(loaded_covariance(frame, 10), 128), rtol=1e-9
            )

    @pytest.mark.parametrize("grid_size", [21, 64, 1764, 1765, 3528])
    def test_matches_symmetric_padding_ifft(self, rng, grid_size):
        frame = rng.normal(size=200)
        dense = loaded_covariance(frame, 10)
        np.testing.assert_allclose(
            full_grid_power(frame[None, :], grid_size)[0],
            capon_psd_dense(dense, grid_size),
            rtol=1e-9,
        )
        # The Hermitian-FFT reference equals the symmetrically padded IFFT.
        w, alpha, _ = levinson_solve(dense[0])
        coeffs = denom_coeffs(gs_factors(w, alpha))
        padded = np.zeros(grid_size)
        padded[:11] = coeffs
        padded[grid_size - 10 :] = coeffs[:0:-1]
        expected = 11.0 / (np.fft.ifft(padded).real * grid_size)
        np.testing.assert_allclose(capon_psd(coeffs, grid_size), expected, rtol=1e-12)

    def test_grid_below_2m_minus_1(self, rng):
        # The cosine sum needs no minimum grid; only a Hermitian FFT needs Q >= 2M-1.
        frame = rng.normal(size=200)
        np.testing.assert_allclose(
            full_grid_power(frame[None, :], 20)[0],
            capon_psd_dense(loaded_covariance(frame, 10), 20),
            rtol=1e-9,
        )

    def test_degenerate_frame_reported(self, rng):
        frames = np.stack([np.zeros(200), rng.normal(size=200)])
        power, valid = stage_band_power(frames, np.arange(64), 64)
        np.testing.assert_array_equal(valid, [False, True])
        assert np.all(np.isfinite(power[1]))

    def test_sinusoid_peak_near_tone(self):
        rng = np.random.default_rng(11)
        frame = make_tone(120.0, 441, 1.0) + rng.normal(0.0, 0.1, 441)
        psd = full_grid_power(frame[None, :], 4 * 441)[0]
        q_max = peak_bin(psd, (100.0, 140.0), 441.0)
        bin_hz = 441.0 / psd.size
        assert abs(q_max * bin_hz - 120.0) <= bin_hz
        # cross-check against the periodogram peak
        periodogram = np.abs(np.fft.fft(frame, 4 * 441)) ** 2 / 441
        stft_q = peak_bin(periodogram, (100.0, 140.0), 441.0)
        assert abs(q_max - stft_q) <= 2


@pytest.mark.parametrize("order", [1, 2, 10, MAX_CAPON_ORDER])
def test_bench_dense_baseline_matches_fast_path(rng, order):
    frames = rng.normal(size=(50, 441)) * make_window("parzen", 441)
    bins = np.arange(710, 740)
    fast, valid = stage_band_power(frames, bins, 1764, order)
    assert np.all(valid)
    np.testing.assert_allclose(dense_band_power(frames, bins, 1764, order), fast, rtol=1e-9)


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
        psd = full_grid_power(frame[None, :], 256, order=6)
        psd_scaled = full_grid_power(c * frame[None, :], 256, order=6)
        assert np.argmax(psd) == np.argmax(psd_scaled)
        np.testing.assert_allclose(psd_scaled, c * c * psd, rtol=1e-9)


class TestEstimateFrame:
    def test_noiseless_tone(self):
        frame = make_tone(180.0, 441, 1.0) * make_window("parzen", 441)
        est = estimate_frames(frame[None, :], power_config())
        assert est[0] == pytest.approx(180.0, abs=0.05)

    def test_zero_frame_flagged(self):
        tone = make_tone(180.0, 441, 1.0)
        est = estimate_frames(np.stack([tone, np.zeros(441)]), power_config())
        assert np.isfinite(est[0])
        assert np.isnan(est[1])

    @pytest.mark.parametrize("estimator", ["capon", "stft"])
    def test_no_frames_give_no_estimates(self, estimator):
        est = estimate_frames(np.zeros((0, 441)), power_config(estimator=estimator))
        assert est.shape == (0,)

    def test_monte_carlo_median_error(self):
        rng = np.random.default_rng(21)
        window = make_window("parzen", 441)
        noise_std = np.sqrt(0.5 / 10 ** (20 / 10.0))  # 20 dB SNR
        frames = np.stack([
            (make_tone(180.05, 441, 1.0, phase=rng.uniform(0, 2 * np.pi))
             + rng.normal(0.0, noise_std, 441)) * window
            for _ in range(100)
        ])
        errors = np.abs(estimate_frames(frames, power_config()) - 180.05)
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
    psd_fast = full_grid_power(frame[None, :], 4 * 441)[0]
    q_dense = peak_bin(psd_dense, (100.0, 140.0), 441.0)
    q_fast = peak_bin(psd_fast, (100.0, 140.0), 441.0)
    assert abs(q_dense - q_fast) <= 2
