"""Seeded inputs for the benchmark workloads.

Runs as its own process, before the measured one, so generating inputs
costs the measured process neither time nor memory: it only reads the
files.  It writes into one directory:

- ``params.json``: what was generated (recorded in every result);
- extract workloads: ``recording.wav`` (mono PCM 16-bit) and
  ``expected.npz`` with the frame timestamps the pipeline must report and
  the ground-truth fundamental averaged over each frame's support;
- ``match_24h``: ``query.csv`` and ``reference.csv`` in the track CSV
  schema, and ``expected.npz`` with the planted lag and both series (the
  gate recomputes the correlation at that lag from them).

The signal model mirrors ``enfcapon.synthetic.make_power_fixture`` (a
folded random-walk fundamental seen through the 3rd harmonic, white noise
at 10 dB SNR and a strong tone 6 Hz below the band), but is generated here
in blocks, so a 44.1 kHz recording never needs more than one block of
memory and the inputs do not change when the package changes.

Usage: python3 perfbench/fixtures.py --workload NAME --seed N --out DIR
       [--size full|tiny]
"""

import argparse
import json
import math
import os
import wave

import numpy as np

NOMINAL_HZ = 60.0
HARMONIC = 3
DEVIATION_HZ = 0.02
STEP_STD_HZ = 0.006
SNR_DB = 10.0
INTERFERENCE_OFFSET_HZ = -6.0
INTERFERENCE_AMP = 100.0
# Peak of tone + interferer + noise stays below 102.5, so this scale keeps
# the PCM code well inside full scale (clipping is checked, not assumed).
PCM_SCALE = 1.0 / 128.0
BLOCK_SAMPLES = 1 << 20

# Pipeline layout the extract workloads run with (PipelineConfig defaults,
# passed explicitly by the measured process).
WORKING_RATE_HZ = 441.0
TAPS = 1001
FRAME_LEN_S = 1.0
SHIFT_S = 1.0

# Query measurement noise and missing-data pattern for match_24h.
QUERY_NOISE_HZ = 0.001
QUERY_NAN_SHARE = 0.01
REFERENCE_NAN_RUN_EVERY = 2000
REFERENCE_NAN_RUN_MAX = 120

WORKLOADS = {
    "extract_441_capon": {
        "kind": "extract", "estimator": "capon", "window": "parzen",
        "reference": "calls",
        "sizes": {"full": {"sample_rate_hz": 441.0, "duration_s": 1800.0},
                  "tiny": {"sample_rate_hz": 441.0, "duration_s": 60.0}},
    },
    "extract_44k1_stft": {
        "kind": "extract", "estimator": "stft", "window": "parzen",
        "reference": "fft",
        "sizes": {"full": {"sample_rate_hz": 44100.0, "duration_s": 300.0},
                  "tiny": {"sample_rate_hz": 44100.0, "duration_s": 20.0}},
    },
    "match_24h": {
        "kind": "match", "reference": "calls",
        "sizes": {"full": {"reference_frames": 86400, "query_frames": 1800},
                  "tiny": {"reference_frames": 3600, "query_frames": 300}},
    },
}


def folded_walk(rng, steps):
    """Random walk of the fundamental, folded into +/- DEVIATION_HZ."""
    walk = np.cumsum(rng.normal(0.0, STEP_STD_HZ, steps))
    period = 4.0 * DEVIATION_HZ
    return np.abs((walk + DEVIATION_HZ) % period - 2.0 * DEVIATION_HZ) - DEVIATION_HZ


def expected_layout(n_input, sample_rate_hz):
    """Frame count and timestamps implied by decimation, the zero-phase
    band-pass (which trims (TAPS-1)/2 samples at each end) and framing."""
    factor = int(round(sample_rate_hz / WORKING_RATE_HZ))
    n_working = -(-n_input // factor)
    n_filtered = n_working - TAPS + 1
    frame_len = int(round(FRAME_LEN_S * WORKING_RATE_HZ))
    shift = int(round(SHIFT_S * WORKING_RATE_HZ))
    frames = (n_filtered - frame_len) // shift + 1
    delay = (TAPS - 1) // 2
    starts = delay + shift * np.arange(frames)
    return n_working, starts, frame_len, starts / WORKING_RATE_HZ


def write_recording(path, rng, sample_rate_hz, duration_s):
    """Write the recording block by block; return the walk and sample count."""
    n = int(round(duration_s * sample_rate_hz))
    seconds = np.arange(int(math.ceil(duration_s)) + 1, dtype=np.float64)
    walk = folded_walk(rng, seconds.size)
    tone_phase0, int_phase0 = rng.uniform(0.0, 2.0 * np.pi, 2)
    f_int = HARMONIC * NOMINAL_HZ + INTERFERENCE_OFFSET_HZ
    noise_std = math.sqrt(0.5 / 10.0 ** (SNR_DB / 10.0))
    phase = tone_phase0
    with wave.open(str(path), "wb") as out:
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(int(round(sample_rate_hz)))
        for start in range(0, n, BLOCK_SAMPLES):
            t = np.arange(start, min(n, start + BLOCK_SAMPLES)) / sample_rate_hz
            enf = NOMINAL_HZ + np.interp(t, seconds, walk)
            tone = phase + np.cumsum(2.0 * np.pi * HARMONIC * enf / sample_rate_hz)
            phase = tone[-1] % (2.0 * np.pi)
            x = np.cos(tone)
            x += INTERFERENCE_AMP * np.cos(2.0 * np.pi * f_int * t + int_phase0)
            x += rng.normal(0.0, noise_std, t.size)
            code = np.round(x * (PCM_SCALE * 32768.0))
            if np.any(np.abs(code) > 32767):
                raise RuntimeError("fixture sample outside PCM 16-bit range")
            out.writeframes(code.astype("<i2").tobytes())
    return walk, seconds, n


def make_extract(out_dir, rng, spec, size):
    params = dict(spec["sizes"][size])
    walk, seconds, n = write_recording(
        os.path.join(out_dir, "recording.wav"), rng,
        params["sample_rate_hz"], params["duration_s"],
    )
    n_working, starts, frame_len, time_s = expected_layout(n, params["sample_rate_hz"])
    enf = NOMINAL_HZ + np.interp(np.arange(n_working) / WORKING_RATE_HZ, seconds, walk)
    csum = np.concatenate([[0.0], np.cumsum(enf)])
    truth = (csum[starts + frame_len] - csum[starts]) / frame_len
    np.savez(os.path.join(out_dir, "expected.npz"), time_s=time_s, truth_hz=truth)
    params.update(
        samples=n, frames=int(time_s.size), estimator=spec["estimator"],
        window=spec["window"], nominal_hz=NOMINAL_HZ, harmonic=HARMONIC,
        taps=TAPS, frame_len_s=FRAME_LEN_S, shift_s=SHIFT_S,
        working_rate_hz=WORKING_RATE_HZ, deviation_hz=DEVIATION_HZ,
        step_std_hz=STEP_STD_HZ, snr_db=SNR_DB,
        interference_offset_hz=INTERFERENCE_OFFSET_HZ,
        interference_amp=INTERFERENCE_AMP, pcm_scale=PCM_SCALE,
    )
    return params


def write_track_csv(path, freq_hz):
    """Track CSV in the package's schema: frame_index,time_s,freq_hz."""
    lines = ["frame_index,time_s,freq_hz"]
    lines += [f"{i},{float(i)!r},{float(f)!r}" for i, f in enumerate(freq_hz)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def make_match(out_dir, rng, spec, size):
    params = dict(spec["sizes"][size])
    g_len, k_len = params["reference_frames"], params["query_frames"]
    reference = NOMINAL_HZ + folded_walk(rng, g_len)
    lag = int(rng.integers(0, g_len - k_len + 1))
    query = reference[lag : lag + k_len] + rng.normal(0.0, QUERY_NOISE_HZ, k_len)
    query[rng.choice(k_len, size=round(QUERY_NAN_SHARE * k_len), replace=False)] = np.nan
    runs = max(1, g_len // REFERENCE_NAN_RUN_EVERY)
    for start, length in zip(rng.integers(0, g_len, runs),
                             rng.integers(5, REFERENCE_NAN_RUN_MAX + 1, runs)):
        reference[start : start + length] = np.nan
    write_track_csv(os.path.join(out_dir, "query.csv"), query)
    write_track_csv(os.path.join(out_dir, "reference.csv"), reference)
    np.savez(os.path.join(out_dir, "expected.npz"), lag=lag, query_hz=query,
             reference_hz=reference)
    params.update(
        nominal_hz=NOMINAL_HZ, deviation_hz=DEVIATION_HZ, step_std_hz=STEP_STD_HZ,
        query_noise_hz=QUERY_NOISE_HZ, query_nan_frames=int(np.isnan(query).sum()),
        reference_nan_runs=runs, reference_nan_frames=int(np.isnan(reference).sum()),
    )
    return params


def generate(workload, seed, out_dir, size="full"):
    spec = WORKLOADS[workload]
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    make = make_extract if spec["kind"] == "extract" else make_match
    params = make(out_dir, rng, spec, size)
    params.update(workload=workload, kind=spec["kind"], reference=spec["reference"],
                  seed=seed, size=size)
    with open(os.path.join(out_dir, "params.json"), "w", encoding="utf-8") as fh:
        json.dump(params, fh, indent=1, sort_keys=True)
    return params


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out, args.size)


if __name__ == "__main__":
    main()
