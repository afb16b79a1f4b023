import numpy as np
import pytest
from scipy.signal import firwin

from conftest import make_tone, overlap_save_call, traced_peak
from enfcapon import bandpass
from enfcapon.bandpass import _PAIRS_PER_CALL, _block_length, apply_zero_phase, design_bandpass
from enfcapon.signal_io import BLOCK_SAMPLES, SampledSignal
from oracle import apply_zero_phase_full


def response_by_summation(coeffs, freq_hz, sample_rate_hz):
    """Independent frequency-response oracle."""
    k = np.arange(len(coeffs))
    return sum(coeffs * np.exp(-2j * np.pi * freq_hz * k / sample_rate_hz))


@pytest.fixture(scope="module")
def power_filter():
    return design_bandpass(441.0, 180.0, 0.1, 1001)


class TestDesign:
    def test_unit_gain_at_center(self, power_filter):
        gain = abs(response_by_summation(power_filter, 180.0, 441.0))
        assert 0.9 <= gain <= 1.1

    @pytest.mark.parametrize("rate, center, passband, taps", [
        (441.0, 180.0, 0.1, 1001), (441.0, 120.0, 0.1, 4801),
        (441.0, 150.0, 0.1, 1001), (4410.0, 180.0, 0.1, 1001),
    ])
    def test_firwin_scaling_gives_exact_unit_gain(self, rate, center, passband, taps):
        flt = design_bandpass(rate, center, passband, taps)
        assert abs(abs(response_by_summation(flt, center, rate)) - 1.0) <= 1e-12

    def test_dc_rejection(self, power_filter):
        assert abs(response_by_summation(power_filter, 0.0, 441.0)) <= 0.01

    def test_three_tap_wide_band_symmetric(self):
        flt = design_bandpass(441.0, 110.0, 100.0, 3)
        assert np.max(np.abs(flt - flt[::-1])) < 1e-12

    def test_symmetric_coeffs(self, power_filter):
        assert np.max(np.abs(power_filter - power_filter[::-1])) < 1e-12

    @pytest.mark.parametrize("rate, center, passband, taps", [
        (441.0, 180.0, 0.1, 1001), (441.0, 120.0, 0.1, 4801),
        (441.0, 110.0, 100.0, 3), (4410.0, 180.0, 0.1, 101),
    ])
    def test_matches_scipy_firwin(self, rate, center, passband, taps):
        expected = firwin(taps, [center - passband / 2.0, center + passband / 2.0],
                          pass_zero=False, fs=rate, window="hamming")
        flt = design_bandpass(rate, center, passband, taps)
        assert np.max(np.abs(flt - expected)) <= 1e-13 * np.max(np.abs(expected))


class TestApplyZeroPhase:
    def test_in_band_tone_zero_phase(self, power_filter):
        signal = SampledSignal(make_tone(180.0, 441, 30.0), 441.0)
        out = apply_zero_phase(power_filter, signal)
        delay = (power_filter.size - 1) // 2
        aligned_input = signal.samples[delay : delay + len(out)]
        # amplitude preserved within design ripple
        assert np.std(out.samples) == pytest.approx(np.std(aligned_input), rel=0.02)
        # cross-correlation peaks at lag 0 exactly
        lags = np.arange(-5, 6)
        xcorr = [
            np.dot(out.samples[5:-5], aligned_input[5 + lag : len(out) - 5 + lag])
            for lag in lags
        ]
        assert lags[int(np.argmax(xcorr))] == 0

    def test_out_of_band_tone_rejected(self, power_filter):
        signal = SampledSignal(make_tone(160.0, 441, 30.0), 441.0)
        out = apply_zero_phase(power_filter, signal)
        assert np.sqrt(np.mean(out.samples**2)) <= 0.01 * np.sqrt(
            np.mean(signal.samples**2)
        )

    def test_impulse_yields_coefficients(self):
        flt = design_bandpass(441.0, 180.0, 10.0, 101)
        samples = np.zeros(501)
        position = 250
        samples[position] = 1.0
        out = apply_zero_phase(flt, SampledSignal(samples, 441.0))
        start = position - len(flt) + 1
        np.testing.assert_allclose(
            out.samples[start : start + len(flt)], flt, atol=1e-15
        )

    def test_offset_accounting(self, power_filter):
        signal = SampledSignal(make_tone(180.0, 441, 10.0), 441.0, origin_offset_s=2.0)
        out = apply_zero_phase(power_filter, signal)
        assert out.origin_offset_s == pytest.approx(2.0 + 500 / 441.0)
        assert len(out) == len(signal) - len(power_filter) + 1

    def test_linearity(self, rng):
        flt = design_bandpass(441.0, 180.0, 1.0, 201)
        x = SampledSignal(rng.normal(size=1000), 441.0)
        y = SampledSignal(rng.normal(size=1000), 441.0)
        combo = SampledSignal(2.5 * x.samples - 1.5 * y.samples, 441.0)
        lhs = apply_zero_phase(flt, combo).samples
        rhs = (
            2.5 * apply_zero_phase(flt, x).samples
            - 1.5 * apply_zero_phase(flt, y).samples
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("taps", [1001, 4801])
    def test_matches_full_fft_convolution(self, rng, taps):
        flt = design_bandpass(441.0, 180.0, 0.1, taps)
        samples = make_tone(180.01, 441, 1800.0) + rng.normal(0.0, 0.5, 1800 * 441)
        signal = SampledSignal(samples, 441.0, origin_offset_s=1.5)
        out = apply_zero_phase(flt, signal)
        expected = apply_zero_phase_full(flt, signal)
        assert len(out) == len(expected)
        assert out.origin_offset_s == expected.origin_offset_s
        assert np.max(np.abs(out.samples - expected.samples)) <= 1e-12

    def test_silent_stretch_filters_to_exact_zero(self, power_filter):
        samples = make_tone(180.0, 441, 30.0)
        samples[5000:8000] = 0.0
        out = apply_zero_phase(power_filter, SampledSignal(samples, 441.0))
        # Output i reads input samples i .. i + 1000.
        assert np.all(out.samples[5000:7000] == 0.0)
        assert np.all(out.samples[4000:5000] != 0.0)
        assert np.all(out.samples[7000:8000] != 0.0)


def _block_step(taps):
    return _block_length(taps) - (taps - 1)


def _layout_lengths(taps):
    """Signal lengths at the edges of the overlap-save layout: one output
    more than the taps need, a signal one short of a block, output counts
    at, and one either side of, one and five block steps, and output
    counts that leave 1, 2, 3, 2 * _PAIRS_PER_CALL - 1 and 2 * _PAIRS_PER_CALL
    blocks in a padded last call; odd counts leave a lone last block to
    pair with zeros."""
    step = _block_step(taps)
    call = overlap_save_call(taps)
    lengths = {taps + 1, _block_length(taps) - 1}
    for k in (1, 5):
        for delta in (-1, 0, 1):
            lengths.add(k * step + delta + taps - 1)
    for r in (1, step - 1, step, step + 1, 2 * step + 1, call - step, call - 1):
        lengths.add(call + r + taps - 1)
    return sorted(lengths)


@pytest.mark.parametrize("taps, n", [
    (taps, n) for taps in (3, 1001, 4801) for n in _layout_lengths(taps)
])
def test_block_layout_edges_match_full_fft_convolution(rng, taps, n):
    flt = (design_bandpass(441.0, 110.0, 100.0, taps) if taps == 3
           else design_bandpass(441.0, 180.0, 0.1, taps))
    samples = np.sin(2 * np.pi * 180.01 * np.arange(n) / 441.0) + rng.normal(0.0, 0.5, n)
    signal = SampledSignal(samples, 441.0)
    out = apply_zero_phase(flt, signal)
    expected = apply_zero_phase_full(flt, signal)
    assert len(out) == len(expected) == n - taps + 1
    assert np.max(np.abs(out.samples - expected.samples)) <= 1e-12


@pytest.mark.parametrize("taps", [1001, 4801])
def test_a_quiet_block_keeps_its_pairs_roundoff(rng, taps):
    # Blocks 0 and 1 share one complex transform, so block 0's roundoff
    # scales with the pair's norm, not its own: with block 0's inputs at
    # 1e-6 of block 1's, it read 9.3e-16 and 8.0e-16 of the pair's RMS
    # against direct convolution at 1,001 and 4,801 taps (6.3e-10 and
    # 4.9e-10 of its own RMS), and block 1 2.3e-15 and 1.8e-15.
    flt = design_bandpass(441.0, 180.0, 0.1, taps)
    step = _block_step(taps)
    n = 2 * step + taps - 1
    samples = np.sin(2 * np.pi * 180.01 * np.arange(n) / 441.0) + rng.normal(0.0, 0.5, n)
    samples[: step + taps - 1] *= 1e-6  # every input of block 0's outputs
    out = apply_zero_phase(flt, SampledSignal(samples, 441.0)).samples
    direct = np.convolve(samples, flt, mode="valid")
    pair_rms = np.sqrt(np.mean(direct**2))
    assert np.max(np.abs(out[:step] - direct[:step])) <= 1e-13 * pair_rms
    assert np.max(np.abs(out[step:] - direct[step:])) <= 1e-13 * pair_rms


@pytest.mark.parametrize("boundary_blocks", [1, 2, 5, 2 * _PAIRS_PER_CALL])
def test_silence_across_a_block_boundary_filters_to_exact_zero(rng, power_filter,
                                                               boundary_blocks):
    # One call's full blocks, one more and a partial one; the zero run's
    # outputs straddle the first output of block boundary_blocks, inside a
    # pair, at a pair edge or at a call edge.
    taps = power_filter.size
    step = _block_step(taps)
    samples = rng.normal(size=(2 * _PAIRS_PER_CALL + 1) * step + step // 2 + taps - 1)
    boundary = boundary_blocks * step
    samples[boundary - 1500 : boundary + 1500] = 0.0
    out = apply_zero_phase(power_filter, SampledSignal(samples, 441.0)).samples
    # Output i reads input samples i .. i + taps - 1.
    assert np.all(out[boundary - 1500 : boundary + 1500 - taps + 1] == 0.0)
    assert np.all(out[boundary - 1500 - 200 : boundary - 1500] != 0.0)
    assert np.all(out[boundary + 1500 - taps + 1 : boundary + 1500 - taps + 201] != 0.0)


@pytest.mark.parametrize("taps", [1001, 4801])
def test_extending_the_signal_keeps_earlier_outputs_bit_for_bit(rng, taps):
    # Blocks and calls are laid out from the first sample at sizes fixed by
    # the taps alone, so a prefix ending on a call edge is filtered by the
    # same transforms as the start of the longer signal.  The longer one
    # ends in a partial call and block, and zero runs cross both cuts.
    flt = design_bandpass(441.0, 180.0, 0.1, taps)
    call = overlap_save_call(taps)
    samples = rng.normal(size=2 * call + call // 3 + taps - 1)
    for k in (1, 2):
        samples[k * call - taps - 500 : k * call + taps + 500] = 0.0
    full = apply_zero_phase(flt, SampledSignal(samples, 441.0)).samples
    for k in (1, 2):
        prefix = samples[: k * call + taps - 1]
        out = apply_zero_phase(flt, SampledSignal(prefix, 441.0)).samples
        assert out.size == k * call
        assert np.all(out[k * call - taps - 500 :] == 0.0)
        assert out.tobytes() == full[: k * call].tobytes()


_IN_PLACE_LENGTHS = [(1, 0), (2.5, 0), (3 + 1 / 7, 0), (2, 1), (3, -1)]


@pytest.mark.parametrize("calls, extra", _IN_PLACE_LENGTHS,
                         ids=[f"{c}{e:+}" if e else str(c) for c, e in _IN_PLACE_LENGTHS])
def test_filtering_in_place_gives_the_same_bits(rng, power_filter, calls, extra):
    # out may be the head of the input: each FFT call reads its run before
    # it writes, and later calls read only past its writes.  The lengths
    # end on a call edge, inside a call and inside a block, and leave 1 or
    # call - 1 outputs in a padded last call, with zero runs across the
    # first call edge and at the end.
    taps = power_filter.size
    call = overlap_save_call(taps)
    n_out = int(calls * call) + extra
    samples = rng.normal(size=n_out + taps - 1)
    samples[call - taps - 300 : call + taps] = 0.0
    samples[-2 * taps :] = 0.0
    signal = SampledSignal(samples.copy(), 441.0, 0.5)
    copied = apply_zero_phase(power_filter, signal)
    assert signal.samples.tobytes() == samples.tobytes()
    in_place = apply_zero_phase(power_filter, signal, out=signal.samples[:n_out])
    assert np.shares_memory(in_place.samples, signal.samples)
    assert in_place.samples.tobytes() == copied.samples.tobytes()
    assert in_place.origin_offset_s == copied.origin_offset_s
    assert np.all(copied.samples[-taps:] == 0.0)


def test_out_must_hold_every_output(power_filter):
    signal = SampledSignal(np.ones(2000), 441.0)
    with pytest.raises(ValueError, match="out must hold 1000 samples"):
        apply_zero_phase(power_filter, signal, out=signal.samples)


def test_zero_runs_across_overlap_save_calls_filter_to_exact_zero(rng, power_filter):
    # Each FFT call finds the silent outputs of its own run.  Runs of zeros
    # start the signal, end it, and cross or touch a call's edge.  Calls 1-6
    # each hold one run of exactly taps or taps - 1 zeros, at offset 0, 1
    # or taps - 1 from the call's first sample; a call whose run is checked
    # for zeros at a stride longer than taps would miss some of them.
    taps = power_filter.size
    call = overlap_save_call(taps)
    samples = rng.normal(size=3 * BLOCK_SAMPLES + 5000)
    runs = [(0, 2000), (BLOCK_SAMPLES - 1500, BLOCK_SAMPLES + 1500),
            (2 * BLOCK_SAMPLES - taps, 2 * BLOCK_SAMPLES),
            (2 * BLOCK_SAMPLES + 1, 2 * BLOCK_SAMPLES + 1 + taps),
            (samples.size - 1500, samples.size),
            # Silent outputs that end on call 7's last output and start on
            # call 10's first.
            (8 * call - 2000, 8 * call + taps - 1), (10 * call, 10 * call + 2000)]
    for k, (length, offset) in enumerate(
            [(n, r) for n in (taps, taps - 1) for r in (0, 1, taps - 1)], start=1):
        runs.append((k * call + offset, k * call + offset + length))
    for start, stop in runs:
        samples[start:stop] = 0.0
    out = apply_zero_phase(power_filter, SampledSignal(samples, 441.0)).samples
    # Output t is exactly zero where input samples t .. t + taps - 1 all are.
    nonzero = np.concatenate(([0], np.cumsum(samples != 0.0)))
    silent = nonzero[taps:] == nonzero[:-taps]
    np.testing.assert_array_equal(out == 0.0, silent)
    assert silent[10 * call] and not silent[10 * call - 1]
    assert silent[8 * call - 1] and not silent[8 * call]


@pytest.mark.parametrize("taps", [3, 1001, 4801])
def test_blocks_per_call_never_move_a_bit(rng, monkeypatch, taps):
    # Every pair's transform is the same whether or not it shares an FFT
    # call, so the padded last call and any retuning of _PAIRS_PER_CALL
    # leave the output as it is.  Zero runs cross call edges for every
    # batching tried, and the signal ends inside a call, in a lone block
    # paired with zeros.
    flt = (design_bandpass(441.0, 110.0, 100.0, 3) if taps == 3
           else design_bandpass(441.0, 180.0, 0.1, taps))
    step = _block_step(taps)
    samples = rng.normal(size=16 * step + step // 3 + taps - 1)
    for k in (1, 2, 3, 8, 12):
        samples[k * step - taps - 50 : k * step + taps + 50] = 0.0
    signal = SampledSignal(samples, 441.0)
    expected = apply_zero_phase(flt, signal).samples.tobytes()
    for pairs_per_call in (1, 2, 3, 4):
        monkeypatch.setattr(bandpass, "_PAIRS_PER_CALL", pairs_per_call)
        assert apply_zero_phase(flt, signal).samples.tobytes() == expected


@pytest.mark.parametrize("taps", [1001, 4801])
def test_traced_peak_stays_within_two_signal_copies(rng, taps):
    # The output is one signal copy; the blocks in flight may add at most
    # another.  A padded copy of the whole signal, or the spectra of all
    # its blocks at once, would not fit.
    flt = design_bandpass(441.0, 180.0, 0.1, taps)
    signal = SampledSignal(rng.normal(size=1800 * 441), 441.0)
    assert traced_peak(lambda: apply_zero_phase(flt, signal))[1] <= 2 * 8 * len(signal)


@pytest.mark.parametrize("taps", [1001, 4801])
def test_filtering_in_place_holds_one_call_in_flight(rng, taps):
    # In place, the transient is the FFT call in flight: one complex
    # buffer of its block pairs, filled from the run, transformed in place
    # and written straight into the output, within twice its bytes (1.05
    # and 2.10 MB at 4 pairs of 8,192 and 16,384 points).  It traced 0.66
    # and 1.31 MB; zero-padding the last run on the way traced 1.23 and
    # 2.08 MB, and the real-FFT blocks this layout replaced 0.98 and 3.41.
    flt = design_bandpass(441.0, 180.0, 0.1, taps)
    samples = rng.normal(size=1800 * 441)
    signal = SampledSignal(samples, 441.0)
    out = samples[: samples.size - taps + 1]
    budget = 2 * _PAIRS_PER_CALL * _block_length(taps) * 16
    assert traced_peak(lambda: apply_zero_phase(flt, signal, out=out))[1] <= budget
