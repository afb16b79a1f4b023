"""Command-line front end.

Exit codes: 0 success; 2 for a file or setting the tool cannot use; 3 for
well-formed input with no usable content.
"""

import contextlib
import dataclasses
import functools
import hashlib
import json
import sys
import time

import click
import numpy as np

from . import __version__
from .bench import run_bench
from .errors import DegenerateInputError, EnfError
from .matching import best_lag, fisher_test
from .pipeline import ESTIMATORS, PipelineConfig, estimate, power_config, prepare, speech_config
from .signal_io import SampledSignal, read_wav, write_wav
from .synthetic import make_power_fixture
from .track import CADENCE_TOL_S, EnfTrack, read_track, write_track
from .windowing import WINDOW_KINDS

MANIFEST_SCHEMA = 2

EXIT_DEGENERATE = 3

# Past about +/-3080 dB, 10 ** (snr / 10) or the noise power 0.5 / that overflows.
MAX_SNR_DB = 3000.0

# synth builds the whole recording in memory: a day at 441 Hz is 38 M samples,
# ~300 MB per float64 array.
MAX_SYNTH_SECONDS = 86400.0


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@contextlib.contextmanager
def _timed(timings, key):
    t0 = time.perf_counter()
    yield
    timings[key] = time.perf_counter() - t0


@contextlib.contextmanager
def _exit_codes():
    """The one map from package and OS errors to exit codes: 3 for
    degenerate input, 2 (a usage error) for any other, such as an output
    path that cannot be written."""
    try:
        yield
    except DegenerateInputError as exc:
        click.echo(f"error: degenerate input: {exc}", err=True)
        sys.exit(EXIT_DEGENERATE)
    except EnfError as exc:
        raise click.UsageError(str(exc))
    except OSError as exc:
        raise click.UsageError(f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc))


def _write_manifest(out_path, command, config, inputs, timings, outputs):
    manifest = {
        "schema_version": MANIFEST_SCHEMA,
        "tool_version": __version__,
        "command": command,
        "config": config,
        "inputs": [{"path": str(p), "sha256": _sha256(p)} for p in inputs],
        "timings_s": timings,
        "outputs": [str(p) for p in outputs],
    }
    path = f"{out_path}.manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return path


def pipeline_options(estimator=PipelineConfig.estimator):
    """Decorator adding the pipeline options; their help shows PipelineConfig's defaults."""
    opts = [
        click.option("--mode", type=click.Choice(["power", "speech"]), default="power",
                     show_default=True, help="Parameter preset."),
        click.option("--nominal-hz", type=click.Choice(["50", "60"]), default=None,
                     help=f"Nominal grid frequency.  [default: {PipelineConfig.nominal_hz:g}]"),
        click.option("--harmonic", type=int, default=None,
                     help="Harmonic to analyze.  [default: per mode]"),
        click.option("--shift-seconds", "shift_s", type=float, default=None,
                     help=f"Frame shift in seconds.  [default: {PipelineConfig.shift_s:g}]"),
        click.option("--estimator", type=click.Choice(ESTIMATORS), default=estimator,
                     show_default=True, help="Per-frame estimator."),
        click.option("--taps", type=int, default=None,
                     help="Band-pass FIR length.  [default: per mode]"),
        click.option("--passband-hz", type=float, default=None,
                     help=f"Band-pass total width.  [default: {PipelineConfig.passband_hz:g}]"),
        click.option("--capon-order", "capon_order", type=int, default=None,
                     help=f"Capon covariance order m.  [default: {PipelineConfig.capon_order}]"),
        click.option("--pad-factor", "pad_factor", type=int, default=None,
                     help=f"Grid density Q = pad * N.  [default: {PipelineConfig.pad_factor}]"),
    ]
    return lambda fn: functools.reduce(lambda f, opt: opt(f), reversed(opts), fn)


def _gather_config(mode, nominal_hz, **kw):
    """The preset for mode with every option given; PipelineConfig checks it."""
    if nominal_hz is not None:
        kw["nominal_hz"] = float(nominal_hz)
    preset = power_config if mode == "power" else speech_config
    return preset(**{k: v for k, v in kw.items() if v is not None})


@click.group()
@click.version_option(__version__, prog_name="enf")
def main():
    """ENF track extraction and matching."""


@main.command()
@click.argument("wav", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False),
              help="Output track CSV.")
@click.option("--json", "as_json", is_flag=True, help="Print a JSON summary.")
@click.option("--frame-seconds", "frame_len_s", type=float, default=None,
              help=f"Frame length in seconds.  [default: {PipelineConfig.frame_len_s:g}]")
@click.option("--window", type=click.Choice(WINDOW_KINDS), default=None,
              help=f"Temporal window.  [default: {PipelineConfig.window}]")
@pipeline_options()
def extract(wav, output, as_json, **kw):
    """Extract an ENF track from a WAV recording."""
    timings = {}
    with _exit_codes():
        config = _gather_config(**kw)
        with _timed(timings, "load"):
            signal = read_wav(wav)
        with _timed(timings, "prepare"):
            filtered = prepare(signal, config)
        del signal  # the full-rate recording is not needed past prepare
        with _timed(timings, "estimate"):
            track = estimate(filtered, config)
        with _timed(timings, "write"):
            write_track(track, output)
        manifest = _write_manifest(output, "extract", dataclasses.asdict(config), [wav],
                                   timings, [output])

    summary = {
        "frames": len(track),
        "valid": int(track.valid.sum()),
        "output": output,
        "manifest": manifest,
    }
    if as_json:
        click.echo(json.dumps(summary))
    else:
        click.echo(
            f"wrote {summary['frames']} frames ({summary['valid']} valid) to {output}"
        )


def _check_cadences(query, reference):
    """The reference's frame shift; a usage error unless both tracks have
    uniformly spaced times at the same frame shift (a one-row track has no
    cadence and passes)."""
    shifts = []
    for name, track in (("query", query), ("reference", reference)):
        shifts.append(track.shift_s)
        if shifts[-1] is None and len(track) > 1:
            raise click.UsageError(f"{name} track times are not uniformly spaced")
    query_shift, reference_shift = shifts
    if (query_shift is not None and reference_shift is not None
            and abs(query_shift - reference_shift) > CADENCE_TOL_S):
        raise click.UsageError(
            f"query frame shift {query_shift:g} s differs from reference "
            f"frame shift {reference_shift:g} s"
        )
    return reference_shift


@main.command()
@click.argument("extracted", type=click.Path(exists=True, dir_okay=False))
@click.argument("reference", type=click.Path(exists=True, dir_okay=False))
@click.option("--centered", is_flag=True,
              help="Pearson correlation instead of the uncentered form.")
def match(extracted, reference, centered):
    """Best-lag correlation of an extracted track against a reference."""
    with _exit_codes():
        f = read_track(extracted)
        g = read_track(reference)
        shift_s = _check_cadences(f, g)
        result = best_lag(f.freq_hz, g.freq_hz, centered=centered)
    # A defined correlation needs two pairs, so shift_s is known here.
    click.echo(json.dumps({
        "lag": result.lag_one_based,
        "lag_seconds": float(result.best_lag * shift_s),
        "correlation": result.correlation,
        "centered": result.centered,
        "n_used": result.n_used,
    }))


@main.command()
@click.argument("c1", type=float)
@click.argument("c2", type=float)
@click.argument("n", type=int)
@click.option("--alpha", type=float, default=0.05, show_default=True)
def fisher(c1, c2, n, alpha):
    """Fisher-z significance test between two correlation coefficients."""
    with _exit_codes():
        result = fisher_test(c1, c2, n, alpha)
    click.echo(json.dumps(dataclasses.asdict(result)))


@main.command()
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--duration-seconds", type=float, default=1800.0, show_default=True)
@click.option("--snr-db", type=float, default=10.0, show_default=True)
@click.option("--wav", "wav_out", required=True, type=click.Path(dir_okay=False),
              help="Output WAV path for the synthetic recording.")
@click.option("--reference", "ref_out", required=True, type=click.Path(dir_okay=False),
              help="Output CSV path for the ground-truth track.")
def synth(seed, duration_seconds, snr_db, wav_out, ref_out):
    """Generate a seeded synthetic power-mains fixture plus ground truth."""
    if not 1.0 <= duration_seconds <= MAX_SYNTH_SECONDS:
        raise click.BadParameter(f"must lie between 1 and {MAX_SYNTH_SECONDS:g} s",
                                 param_hint="'--duration-seconds'")
    if not abs(snr_db) <= MAX_SNR_DB:
        raise click.BadParameter(f"must be finite and within +/-{MAX_SNR_DB:g} dB",
                                 param_hint="'--snr-db'")
    fixture = make_power_fixture(seed, duration_s=duration_seconds, snr_db=snr_db)
    signal = fixture.signal
    peak = np.max(np.abs(signal.samples))
    rate = signal.sample_rate_hz
    seconds = np.arange(int(duration_seconds), dtype=np.int64)
    truth = EnfTrack(
        seconds,
        seconds.astype(np.float64),
        fixture.enf_hz[(seconds * int(rate)).clip(max=len(signal) - 1)],
    )
    config = {"seed": seed, "duration_s": duration_seconds, "snr_db": snr_db}
    with _exit_codes():
        write_wav(SampledSignal(signal.samples / peak * 0.99, rate), wav_out)
        write_track(truth, ref_out)
        _write_manifest(ref_out, "synth", config, [], {}, [wav_out, ref_out])
    click.echo(f"wrote {wav_out} and {ref_out} (seed {seed})")


@main.command("compare-windows")
@click.argument("wav", type=click.Path(exists=True, dir_okay=False))
@click.option("--reference", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Reference track CSV.")
@click.option("--windows", default=",".join(WINDOW_KINDS), show_default=True,
              help="Comma-separated window kinds.")
@click.option("--frame-lengths", default="1,5,10,20", show_default=True,
              help="Comma-separated frame lengths in seconds.")
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False),
              help="Output correlation matrix CSV.")
@click.option("--centered/--uncentered", default=True, show_default=True,
              help="Correlation mode used against the reference.")
@pipeline_options("stft")  # the window study is STFT-based
def compare_windows(wav, reference, windows, frame_lengths, output, centered, **kw):
    """Correlation matrix over window kinds and frame lengths."""
    # Each window is checked when its cells' configs are built.
    window_list = [w.strip() for w in windows.split(",") if w.strip()]
    try:
        lengths = [float(x) for x in frame_lengths.split(",") if x.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad frame length: {exc}")
    if not window_list or not lengths:
        raise click.UsageError("need at least one window and one frame length")

    rows, timings = [], {}
    with _exit_codes():
        # Cells differ only in window and frame length, so they share one
        # prepared (decimated, band-passed) signal.
        configs = [[_gather_config(window=win, frame_len_s=length, **kw) for length in lengths]
                   for win in window_list]
        with _timed(timings, "load"):
            ref = read_track(reference)
            signal = read_wav(wav)
        with _timed(timings, "prepare"):
            filtered = prepare(signal, configs[0][0])
        del signal
        with _timed(timings, "cells"):
            for win, row in zip(window_list, configs):
                cells = []
                for config in row:
                    track = estimate(filtered, config)
                    _check_cadences(track, ref)
                    result = best_lag(track.freq_hz, ref.freq_hz, centered=centered)
                    cells.append(result.correlation)
                rows.append((win, cells))

        with _timed(timings, "write"):
            lines = ["window," + ",".join(f"{length:g}" for length in lengths)]
            lines += [win + "," + ",".join(f"{c!r}" for c in cells) for win, cells in rows]
            with open(output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(lines) + "\n")
        # The cells' shared config, with the window and frame length lists that ran.
        record = dict(dataclasses.asdict(configs[0][0]), window=window_list,
                      frame_len_s=lengths, centered=centered)
        _write_manifest(output, "compare-windows", record, [wav, reference], timings,
                        [output])
    click.echo(f"wrote {output}")


@main.command()
@click.option("--trials", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def bench(trials, seed):
    """Time the pipeline's in-band Capon kernel against an explicit inverse,
    and its decimator against scipy's upfirdn."""
    click.echo(json.dumps(run_bench(trials=trials, seed=seed), indent=1))


if __name__ == "__main__":
    main()
