"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The end-to-end criteria share one seeded 30-minute synthetic
power fixture.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from conftest import make_tone, random_pd_toeplitz, traced_peak
from enfcapon.bench import run_bench
from enfcapon.capon import denom_coeffs, estimate_autocovariance, gs_factors, levinson_solve
from enfcapon.matching import best_lag, correlation, fisher_test
from enfcapon.pipeline import (VALID_ENVELOPE_HZ, PipelineConfig, estimate, estimate_frames,
                               extract_enf, power_config, prepare)
from enfcapon.signal_io import BLOCK_SAMPLES, SampledSignal
from enfcapon.spectral import band_peak
from enfcapon.synthetic import make_power_fixture
from enfcapon.windowing import WINDOW_KINDS, make_window
from oracle import capon_psd, inverse_from_gs, per_frame_track, stage_peaks

FIXTURE_SEED = 20260823
PSD_GRID = 64


def report(number, name):
    print(f"ACCEPTANCE {number} {name}: PASS")


def ground_truth_for_track(fixture, track, config):
    """Per-frame ground-truth fundamental aligned with a track's frames.

    Each value is the mean instantaneous fundamental over the frame's
    sample support in the fixture signal.
    """
    rate = fixture.signal.sample_rate_hz
    frame_len = int(round(config.frame_len_s * rate))
    out = np.empty(len(track))
    for i, t0 in enumerate(track.time_s):
        start = int(round(t0 * rate))
        out[i] = fixture.enf_hz[start : start + frame_len].mean()
    return out


@pytest.fixture(scope="module")
def gs_suite():
    rng = np.random.default_rng(1)
    return [
        random_pd_toeplitz(rng, 11, near_singular=(i % 10 == 0))
        for i in range(1000)
    ]


@pytest.fixture(scope="module")
def power_fixture():
    return make_power_fixture(FIXTURE_SEED)


@pytest.fixture(scope="module")
def fixture_runs(power_fixture):
    """Extraction runs shared by criteria 3-5, with ground-truth correlations."""
    runs = {}
    for estimator, window in (
        ("capon", "parzen"),
        ("capon", "rect"),
        ("stft", "parzen"),
    ):
        config = power_config(estimator=estimator, window=window)
        t0 = time.perf_counter()
        track = extract_enf(power_fixture.signal, config)
        elapsed = time.perf_counter() - t0
        truth = ground_truth_for_track(power_fixture, track, config)
        corr = correlation(track.freq_hz, truth, centered=True)
        runs[(estimator, window)] = {"corr": corr, "elapsed": elapsed}
    return runs


def test_criterion_1_gs_correctness(gs_suite):
    t0 = time.perf_counter()
    omegas = 2.0 * np.pi * np.arange(PSD_GRID) / PSD_GRID
    w, alpha, valid = levinson_solve(np.array(gs_suite))
    assert np.all(valid)
    gammas = gs_factors(w, alpha)
    coeffs = denom_coeffs(gammas)
    for col, gamma, half in zip(gs_suite, gammas, coeffs):
        dense_matrix = toeplitz(col)

        gs_inverse = inverse_from_gs(gamma)
        dense_inverse = np.linalg.inv(dense_matrix)
        rel = np.linalg.norm(gs_inverse - dense_inverse) / np.linalg.norm(dense_inverse)
        assert rel < 1e-8

        psd = capon_psd(half, PSD_GRID)
        inv_steering = np.exp(-1j * np.outer(omegas, np.arange(11)))
        direct_den = np.real(
            np.einsum("qi,ij,qj->q", inv_steering.conj(), dense_inverse, inv_steering)
        )
        np.testing.assert_allclose(psd, 11.0 / direct_den, rtol=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, f"GS correctness (1000 matrices, {elapsed:.1f}s)")


def test_criterion_2_levinson_correctness(gs_suite):
    ws, alphas, valid = levinson_solve(np.array(gs_suite))
    assert np.all(valid)
    for col, w, alpha in zip(gs_suite, ws, alphas):
        dense_w = np.linalg.solve(toeplitz(col[:-1]), -col[1:])
        np.testing.assert_allclose(w, dense_w, rtol=1e-10, atol=1e-13)
        dense_alpha = col[0] + col[1:] @ dense_w
        assert alpha == pytest.approx(dense_alpha, rel=1e-10)
    report(2, "Levinson correctness (1000 matrices)")


def test_criterion_3_capon_end_to_end(fixture_runs):
    run = fixture_runs[("capon", "parzen")]
    assert run["elapsed"] < 120.0
    assert run["corr"] >= 0.99
    report(3, f"Capon+Parzen end-to-end (corr={run['corr']:.4f}, "
              f"{run['elapsed']:.1f}s)")


def test_criterion_4_window_ordering(fixture_runs):
    parzen = fixture_runs[("capon", "parzen")]["corr"]
    rectangular = fixture_runs[("capon", "rect")]["corr"]
    assert parzen >= rectangular
    report(4, f"window ordering (parzen={parzen:.4f} >= rect={rectangular:.4f})")


def test_criterion_5_stft_with_parzen(fixture_runs):
    corr = fixture_runs[("stft", "parzen")]["corr"]
    assert corr >= 0.98
    report(5, f"STFT+Parzen end-to-end (corr={corr:.4f})")


def test_batched_matches_per_frame_oracle(power_fixture):
    samples = power_fixture.signal.samples.copy()
    samples[600 * 441 : 660 * 441] = 0.0  # a one-minute dropout
    spliced = SampledSignal(samples, power_fixture.signal.sample_rate_hz)
    worst = 0.0
    for signal in (power_fixture.signal, spliced):
        for estimator, window in (
            ("capon", "parzen"),
            ("capon", "rect"),
            ("stft", "parzen"),
        ):
            config = power_config(estimator=estimator, window=window)
            batched = extract_enf(signal, config).freq_hz
            oracle = per_frame_track(signal, config)
            np.testing.assert_array_equal(np.isnan(batched), np.isnan(oracle))
            worst = max(worst, float(np.nanmax(np.abs(batched - oracle))))
    assert worst <= 1e-9
    report(10, f"batched track equals per-frame oracle (max |df| {worst:.1e} Hz)")


def test_estimate_blocks_keep_the_bits_of_one_whole_array_pass(power_fixture):
    # At 1 s frames the autocovariance runs in chunks of 297 of the 1,797
    # frames, and the recursions and the cosine sum each in one block:
    # the track has the bits of each stage called once over all frames.
    config = power_config()
    filtered = prepare(power_fixture.signal, config)
    n, shift = config.frame_samples
    frames = np.lib.stride_tricks.sliding_window_view(filtered.samples, n)[::shift]
    frames = frames * make_window(config.window, n)
    half = BLOCK_SAMPLES // 2
    assert 2 * (half // n) < len(frames) <= half // max(5 * (config.capon_order + 1),
                                                        config.search_bins.size)
    whole = stage_peaks(frames, config) / config.harmonic
    whole[np.abs(whole - config.nominal_hz) > VALID_ENVELOPE_HZ] = np.nan
    assert estimate(filtered, config).freq_hz.tobytes() == whole.tobytes()


@pytest.fixture(scope="module")
def five_minute_fixture():
    return make_power_fixture(FIXTURE_SEED, duration_s=300.0)


@pytest.mark.parametrize("frame_len_s, shift_s",
                         [(2.0, 1.0), (1.5, 0.7), (20.0, 1.0), (5.0, 1.0)])
@pytest.mark.parametrize("estimator, window", [("capon", "parzen"), ("stft", "hamming")])
def test_overlapping_layouts_match_per_frame_oracle(five_minute_fixture, frame_len_s,
                                                    shift_s, estimator, window):
    # Overlapping frames and lengths that are not whole multiples of the
    # shift.  20 s frames give 278 rows estimated in blocks of 14, the
    # last block short.
    config = power_config(estimator=estimator, window=window,
                          frame_len_s=frame_len_s, shift_s=shift_s)
    batched = extract_enf(five_minute_fixture.signal, config).freq_hz
    oracle = per_frame_track(five_minute_fixture.signal, config)
    np.testing.assert_array_equal(np.isnan(batched), np.isnan(oracle))
    assert float(np.nanmax(np.abs(batched - oracle))) <= 1e-9


# Worst |df| over 60 seeds (0-59) of 30 s fixtures at 1 s frames: 1.8e-10,
# 4.1e-10 and 1.06e-9 Hz; each bound is ~2.8x that.
@pytest.mark.parametrize("order, bound_hz", [(16, 5e-10), (32, 1.2e-9), (64, 3e-9)])
def test_high_capon_orders_match_per_frame_oracle(order, bound_hz):
    signal = make_power_fixture(FIXTURE_SEED, duration_s=30.0).signal
    config = power_config(capon_order=order)
    batched = extract_enf(signal, config).freq_hz
    oracle = per_frame_track(signal, config)
    np.testing.assert_array_equal(np.isnan(batched), np.isnan(oracle))
    assert float(np.nanmax(np.abs(batched - oracle))) <= bound_hz


@pytest.mark.parametrize("factor", [2, 3, 10])
def test_full_rate_zero_run_matches_per_frame_oracle(factor):
    # Digital silence in a recording above the working rate: decimation
    # keeps it exactly zero, so the frames inside it are NaN in both chains.
    rate = 441.0 * factor
    samples = make_power_fixture(FIXTURE_SEED, duration_s=40.0, sample_rate_hz=rate).signal.samples
    samples[round(15 * rate) : round(30 * rate)] = 0.0
    signal = SampledSignal(samples, rate)
    for estimator in ("capon", "stft"):
        config = power_config(estimator=estimator)
        batched = extract_enf(signal, config).freq_hz
        np.testing.assert_array_equal(np.isnan(batched), np.isnan(per_frame_track(signal, config)))
        assert 0 < np.isnan(batched).sum() < batched.size


@pytest.mark.parametrize("estimator, pad_factor",
                         [("capon", 4), ("capon", 64), ("stft", 4), ("stft", 64)])
def test_long_overlapping_frames_stay_within_a_few_signal_copies(five_minute_fixture,
                                                                 estimator, pad_factor):
    signal = five_minute_fixture.signal
    config = power_config(estimator=estimator, pad_factor=pad_factor,
                          frame_len_s=20.0, shift_s=1.0)
    peak = traced_peak(lambda: extract_enf(signal, config))[1]
    # The filtered signal, one block of windowed frames and the
    # estimator's work arrays, not one copy per overlapping frame.
    assert peak <= 12 * 8 * len(signal)


def test_long_stft_estimate_stays_within_two_signal_copies():
    # Two hours at 1 s frames run as one block of 7,200 windowed frames,
    # the size of the signal; the chirp-z's complex arrays come on top
    # of it one FFT chunk at a time, not for every frame at once.
    config = power_config(estimator="stft")
    rate = config.working_rate_hz
    n = int(2 * 3600 * rate)
    filtered = SampledSignal(np.cos(2 * np.pi * config.center_hz / rate * np.arange(n)), rate)
    assert traced_peak(lambda: estimate(filtered, config))[1] <= 2 * filtered.samples.nbytes


def test_criterion_6_quadratic_interpolation_exactness():
    rng = np.random.default_rng(6)
    grid = np.arange(256, dtype=float)
    for _ in range(100):
        offset = rng.uniform(-0.5, 0.5)
        q0 = int(rng.integers(10, 110))
        curvature = rng.uniform(0.1, 3.0)
        log_values = -curvature * (grid - (q0 + offset)) ** 2 + rng.uniform(-1, 1)
        bins = np.arange(q0 - 4, q0 + 5)  # peak search over q0 +/- 3
        recovered, _ = band_peak(np.exp(log_values)[bins], bins, 256, 256.0)
        assert abs(recovered - (q0 + offset)) < 1e-6
    report(6, "quadratic interpolation exactness (100 offsets)")


def test_criterion_7_matching():
    rng = np.random.default_rng(7)
    for _ in range(100):
        f = rng.normal(size=50) + 60.0
        g = rng.normal(size=500) * 0.01
        lag = int(rng.integers(0, 451))
        g[lag : lag + 50] = f
        result = best_lag(f, g)
        assert result.best_lag == lag

    assert fisher_test(0.77, 0.77, 1800).q == 0.0
    for _ in range(50):
        c1, c2 = rng.uniform(-0.99, 0.99, 2)
        n = int(rng.integers(10, 5000))
        expected = math.sqrt(n - 3) * (math.atanh(c1) - math.atanh(c2))
        assert fisher_test(c1, c2, n).q == pytest.approx(expected, abs=1e-12)

    table_pair = fisher_test(0.9990, 0.9847, 1800)
    assert table_pair.reject
    report(7, "matching and Fisher test")


def test_criterion_8_performance_smoke():
    result = run_bench(trials=25, seed=8)
    speedup = result["speedup"]
    assert speedup > 1.0
    report(8, f"fast path speedup {speedup:.1f}x at {result['bins']} bins of Q=1764")


class TestCriterion9Properties:
    @settings(max_examples=500, deadline=None)
    @given(
        kind=st.sampled_from(WINDOW_KINDS),
        n_points=st.integers(min_value=1, max_value=2000),
    )
    def test_window_symmetry(self, kind, n_points):
        taps = make_window(kind, n_points)
        assert np.max(np.abs(taps - taps[::-1])) < 1e-12

    @settings(max_examples=500, deadline=None)
    @given(n_points=st.integers(min_value=1024, max_value=10000))
    def test_parzen_branch_continuity(self, n_points):
        # branch gap is 1/N^3 exactly, so 1e-9 requires N > 1000
        boundary = (n_points - 1) / 4.0
        a = boundary / (n_points / 2.0)
        inner = 1.0 - 6.0 * a**2 + 6.0 * a**3
        outer = 2.0 * (1.0 - a) ** 3
        assert abs(inner - outer) < 1e-9

    @settings(max_examples=500, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        scale=st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scale_equivariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        frame = rng.normal(size=64)
        rho = estimate_autocovariance(frame, 4)
        rho_scaled = estimate_autocovariance(scale * frame, 4)
        np.testing.assert_allclose(rho_scaled, scale**2 * rho, rtol=1e-9)
        w, alpha, _ = levinson_solve(rho)
        w_scaled, alpha_scaled, _ = levinson_solve(rho_scaled)
        np.testing.assert_allclose(w_scaled, w, rtol=1e-8, atol=1e-12)
        assert alpha_scaled == pytest.approx(scale**2 * alpha, rel=1e-8)

    @settings(max_examples=500, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_denominator_coefficient_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        col = random_pd_toeplitz(rng, 6)
        w, alpha, _ = levinson_solve(col)
        gamma = gs_factors(w, alpha)
        half = denom_coeffs(gamma)
        dense = inverse_from_gs(gamma)
        lower = [np.trace(dense, offset=-i) for i in range(6)]
        np.testing.assert_allclose(lower, half, rtol=1e-9, atol=1e-12)

    @settings(max_examples=500, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_frame_estimate_determinism(self, seed):
        rng = np.random.default_rng(seed)
        frame = make_tone(25.0, 100, 0.8) + rng.normal(0.0, 0.3, 80)
        # Estimation band (19.99, 30.01) Hz
        config = PipelineConfig(nominal_hz=25, harmonic=1, frame_len_s=0.8, taps=133,
                                capon_order=6, working_rate_hz=100)
        first = estimate_frames(frame[None, :], config)
        second = estimate_frames(frame[None, :], config)
        np.testing.assert_array_equal(first, second)

    def test_pipeline_determinism(self):
        fixture = make_power_fixture(99, duration_s=60.0)
        a = extract_enf(fixture.signal, power_config())
        b = extract_enf(fixture.signal, power_config())
        np.testing.assert_array_equal(a.freq_hz, b.freq_hz)
        report(9, "property suites (500 cases each)")
