"""Differential test from WAV file to track (McKeeman, "Differential
testing for software", Digital Technical Journal 10(1), 1998).

extract_enf reads a PcmRecording a block at a time, decimates by
polyphase products, band-passes by overlap-save and estimates every
frame at once; oracle.per_frame_track converts the whole data chunk,
filters at the full rate with one FFT convolution and estimates one
frame at a time.  Drawn recordings (mono or stereo, file or pipe, 441 Hz
to 44.1 kHz, with or without digital silence) and configs (either
estimator, every window, Capon orders 1-24) must give both chains the
same NaN frames and peak frequencies within a bound per Capon order.
"""

import os
import tempfile
import wave
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import fed_pipe
from enfcapon.pipeline import PipelineConfig, extract_enf
from enfcapon.signal_io import SampledSignal, read_wav
from enfcapon.synthetic import make_power_fixture
from enfcapon.windowing import WINDOW_KINDS
from oracle import per_frame_track, wav_floats, windowed_frames

# Worst |df| in Hz over 8,000 draws of this test's space (Hypothesis
# seeds 0-79, 100 draws each, one BLAS thread): 1.7e-11 for the STFT and,
# by Capon order, 1.7e-10 (1-3), 4.6e-10 (4-10), 1.09e-9 (11-20) and
# 2.89e-9 (21-24).  Each bound is 2.9-5.9x that.
STFT_BOUND_HZ = 1e-10
CAPON_BOUNDS_HZ = ((3, 5e-10), (10, 1.5e-9), (20, 3.5e-9), (24, 1e-8))


def bound_hz(config):
    if config.estimator == "stft":
        return STFT_BOUND_HZ
    return next(bound for order, bound in CAPON_BOUNDS_HZ if config.capon_order <= order)


@st.composite
def recordings(draw):
    """(codes (frames, channels) int16, sample rate, config) of a drawn
    power-mains recording at 441 x {1, 2, 10, 100} Hz."""
    nominal, harmonic = draw(st.sampled_from([(50, 1), (50, 2), (50, 3),
                                              (60, 1), (60, 2), (60, 3)]))
    config = PipelineConfig(
        nominal_hz=nominal, harmonic=harmonic,
        estimator=draw(st.sampled_from(["capon", "stft"])),
        window=draw(st.sampled_from(WINDOW_KINDS)),
        capon_order=draw(st.integers(1, 24)),
        frame_len_s=draw(st.sampled_from([0.5, 1.0, 2.0])),
        shift_s=draw(st.sampled_from([0.5, 1.0])),
        pad_factor=draw(st.sampled_from([2, 4, 8])),
        taps=draw(st.sampled_from([255, 501, 1001])))
    rate = 441 * draw(st.sampled_from([1, 2, 10, 100]))
    fixture = make_power_fixture(draw(st.integers(0, 2**32 - 1)),
                                 duration_s=draw(st.floats(5.0, 10.0)),
                                 sample_rate_hz=float(rate), nominal_hz=nominal,
                                 harmonic=harmonic)
    samples = fixture.signal.samples
    channels = [samples, np.roll(samples, rate // 3)][: draw(st.integers(1, 2))]
    codes = np.round(np.stack(channels, axis=1) * (20000.0 / np.abs(samples).max()))
    if draw(st.booleans()):  # digital silence, from a sample to 3 s long
        start = draw(st.integers(0, len(codes) - 1))
        codes[start : start + draw(st.integers(1, 3 * rate))] = 0
    return codes.astype("<i2"), rate, config


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn=recordings(), source=st.sampled_from(["file", "pipe"]))
def test_wav_to_track_matches_the_per_frame_oracle(drawn, source):
    codes, rate, config = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.wav"
        with wave.open(str(path), "wb") as writer:
            writer.setnchannels(codes.shape[1])
            writer.setsampwidth(2)
            writer.setframerate(rate)
            writer.writeframes(codes.tobytes())
        if source == "pipe" and hasattr(os, "mkfifo"):
            with fed_pipe(Path(tmp) / "pipe.wav", path.read_bytes()) as pipe:
                track = extract_enf(read_wav(pipe), config).freq_hz
        else:
            track = extract_enf(read_wav(path), config).freq_hz
        signal = SampledSignal(wav_floats(path), float(rate))
    expected = per_frame_track(signal, config)
    compared = np.ones(len(track), dtype=bool)
    if config.estimator == "stft":
        # A frame of one nonzero sample, where digital silence starts, has
        # a flat spectrum, so each chain's roundoff picks its peak bin.
        compared = np.count_nonzero(windowed_frames(signal, config), axis=1) != 1
    track, expected = track[compared], expected[compared]
    np.testing.assert_array_equal(np.isnan(track), np.isnan(expected))
    if not np.all(np.isnan(track)):
        assert np.nanmax(np.abs(track - expected)) <= bound_hz(config)
