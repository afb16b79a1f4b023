"""Seeded synthetic fixtures standing in for mains/speech recordings.

The power-style fixture carries a slow random-walk fundamental observed
through one harmonic, broadband noise at a configurable SNR, and an
optional strong out-of-band interfering tone that exercises window
sidelobe leakage the way near-band disturbances do in real recordings.
"""

from dataclasses import dataclass

import numpy as np

from .signal_io import SampledSignal


@dataclass(frozen=True)
class PowerFixture:
    signal: SampledSignal
    enf_hz: np.ndarray          # instantaneous fundamental, per sample


def _folded_walk(rng, steps, step_std, bound):
    """Random walk folded back into [-bound, bound] (triangle reflection)."""
    walk = np.cumsum(rng.normal(0.0, step_std, steps))
    period = 4.0 * bound
    return np.abs((walk + bound) % period - 2.0 * bound) - bound


def make_power_fixture(seed, duration_s=1800.0, sample_rate_hz=441.0,
                       nominal_hz=60.0, harmonic=3, deviation_hz=0.02,
                       step_std_hz=0.006, snr_db=10.0,
                       interference_offset_hz=-6.0, interference_amp=100.0):
    """Synthetic power-mains recording with known ground truth.

    The fundamental wanders around nominal within +/- deviation_hz at a
    1-second cadence (linearly interpolated between seconds).  The tone
    is emitted at the given harmonic with unit amplitude, white Gaussian
    noise sets the SNR, and the interferer (amplitude before band-pass
    filtering) sits interference_offset_hz away from the harmonic band.
    Set interference_amp to 0 to disable it.
    """
    rng = np.random.default_rng(seed)
    n_samples = int(round(duration_s * sample_rate_hz))
    n_seconds = int(np.ceil(duration_s)) + 1

    walk = _folded_walk(rng, n_seconds, step_std_hz, deviation_hz)
    t = np.arange(n_samples) / sample_rate_hz
    enf = nominal_hz + np.interp(t, np.arange(n_seconds, dtype=np.float64), walk)

    phase = 2.0 * np.pi * np.cumsum(harmonic * enf) / sample_rate_hz
    tone_phase0 = rng.uniform(0.0, 2.0 * np.pi)
    samples = np.cos(phase + tone_phase0)

    if interference_amp > 0.0:
        f_int = harmonic * nominal_hz + interference_offset_hz
        samples = samples + interference_amp * np.cos(
            2.0 * np.pi * f_int * t + rng.uniform(0.0, 2.0 * np.pi)
        )

    # SNR is defined for the unit-amplitude harmonic tone (power 1/2).
    noise_power = 0.5 / 10.0 ** (snr_db / 10.0)
    samples = samples + rng.normal(0.0, np.sqrt(noise_power), n_samples)

    return PowerFixture(SampledSignal(samples, sample_rate_hz), enf)
