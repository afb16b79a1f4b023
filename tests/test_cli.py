import dataclasses
import gc
import hashlib
import json
import math
import os
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import UNDECODABLE_TRACKS, fed_pipe, make_tone, needs_pipes
from enfcapon import cli, pipeline
from enfcapon.cli import main
from enfcapon.matching import best_lag
from enfcapon.pipeline import PipelineConfig, extract_enf, power_config
from enfcapon.signal_io import SampledSignal, read_wav, write_wav
from enfcapon.synthetic import make_power_fixture
from enfcapon.track import EnfTrack, read_track, write_track
from enfcapon.windowing import WINDOW_KINDS


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text):
    """json.loads that refuses NaN and +/-Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.fixture
def wav_reads(monkeypatch):
    """Paths handed to cli.read_wav during the test."""
    paths = []

    def counting(path):
        paths.append(path)
        return read_wav(path)

    monkeypatch.setattr(cli, "read_wav", counting)
    return paths


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory, runner):
    path = tmp_path_factory.mktemp("fixture")
    wav = path / "fix.wav"
    ref = path / "ref.csv"
    result = runner.invoke(
        main,
        ["synth", "--seed", "5", "--duration-seconds", "60",
         "--wav", str(wav), "--reference", str(ref)],
    )
    assert result.exit_code == 0, result.output
    return wav, ref


class TestExtract:
    def test_extract_and_manifest(self, runner, fixture_files, tmp_path):
        wav, _ = fixture_files
        out = tmp_path / "track.csv"
        result = runner.invoke(
            main, ["extract", str(wav), "-o", str(out), "--json"]
        )
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output)
        assert summary["frames"] > 50
        track = read_track(out)
        assert len(track) == summary["frames"]
        manifest = json.loads((tmp_path / "track.csv.manifest.json").read_text())
        assert manifest["tool_version"]
        assert manifest["config"]["estimator"] == "capon"
        assert manifest["inputs"][0]["sha256"]
        assert set(manifest["timings_s"]) == {"load", "prepare", "estimate", "write"}

    def test_flags(self, runner, fixture_files, tmp_path):
        wav, _ = fixture_files
        out = tmp_path / "track.csv"
        result = runner.invoke(
            main,
            ["extract", str(wav), "-o", str(out), "--estimator", "stft",
             "--window", "kaiser", "--frame-seconds", "2"],
        )
        assert result.exit_code == 0, result.output
        assert len(read_track(out)) > 0
        config = json.loads((tmp_path / "track.csv.manifest.json").read_text())["config"]
        assert (config["estimator"], config["window"], config["frame_len_s"]) == (
            "stft", "kaiser", 2.0)

    def test_inconsistent_chunk_size_exit_code(self, runner, fixture_files, tmp_path):
        wav, _ = fixture_files
        bad = tmp_path / "bad.wav"
        data = bytearray(wav.read_bytes())
        data[16] = 127  # the fmt chunk's size now runs past its end
        bad.write_bytes(bytes(data))
        result = runner.invoke(main, ["extract", str(bad), "-o", str(tmp_path / "x.csv")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "chunk size is inconsistent" in result.output

    def test_degenerate_input_exit_code(self, runner, tmp_path):
        short = tmp_path / "short.wav"
        write_wav(SampledSignal(np.zeros(441), 441.0), short)
        result = runner.invoke(
            main, ["extract", str(short), "-o", str(tmp_path / "x.csv")]
        )
        assert result.exit_code == 3

    def test_bad_arguments_exit_code(self, runner, fixture_files, tmp_path):
        wav, _ = fixture_files
        result = runner.invoke(
            main,
            ["extract", str(wav), "-o", str(tmp_path / "x.csv"), "--harmonic", "9"],
        )
        assert result.exit_code == 2

    def test_rate_not_multiple_of_working_rate_exit_code(self, runner, tmp_path):
        wav = tmp_path / "48k.wav"
        write_wav(SampledSignal(0.5 * make_tone(180.0, 48000, 1.0), 48000.0), wav)
        result = runner.invoke(main, ["extract", str(wav), "-o", str(tmp_path / "x.csv")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "not an integer multiple" in result.output

    def test_signal_exactly_taps_long_exit_code(self, runner, tmp_path):
        wav = tmp_path / "taps.wav"
        write_wav(SampledSignal(0.5 * make_tone(180.0, 441, 1001 / 441), 441.0), wav)
        result = runner.invoke(main, ["extract", str(wav), "-o", str(tmp_path / "x.csv")])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("estimator", ["capon", "stft"])
    def test_frames_too_short_exit_code(self, runner, fixture_files, tmp_path, estimator):
        wav, _ = fixture_files
        result = runner.invoke(
            main,
            ["extract", str(wav), "-o", str(tmp_path / "x.csv"),
             "--frame-seconds", "0.01", "--estimator", estimator],
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Error" in result.output


    def test_huge_pad_factor_exit_code(self, runner, fixture_files, tmp_path):
        wav, _ = fixture_files
        result = runner.invoke(
            main,
            ["extract", str(wav), "-o", str(tmp_path / "x.csv"), "--pad-factor", "1000000000"],
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "pad factor must be at most 64" in result.output

    def test_overflowing_frame_length_called_too_long(self, runner, fixture_files, tmp_path,
                                                      wav_reads):
        wav, _ = fixture_files
        result = runner.invoke(main, ["extract", str(wav), "-o", str(tmp_path / "x.csv"),
                                      "--frame-seconds", "1e306"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "frame length or shift is too long" in result.output
        assert wav_reads == []

    def test_frame_longer_than_recording_quoted_briefly(self, runner, fixture_files, tmp_path):
        wav, _ = fixture_files
        result = runner.invoke(main, ["extract", str(wav), "-o", str(tmp_path / "x.csv"),
                                      "--frame-seconds", "1e300"])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "shorter than one 4.41e+302-sample frame (1e+300 s)" in result.output
        assert len(result.output) < 200

    @pytest.mark.parametrize("options, message", [
        (["--estimator", "stft", "--frame-seconds", "0.05"], "fewer than 3 grid points"),
        (["--capon-order", "65", "--frame-seconds", "100"], "capon order must be at most 64"),
    ])
    def test_unusable_layout_rejected_before_the_wav_is_read(
            self, runner, fixture_files, tmp_path, wav_reads, options, message):
        wav, _ = fixture_files
        result = runner.invoke(main, ["extract", str(wav), "-o", str(tmp_path / "x.csv"),
                                      *options])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert message in result.output
        assert wav_reads == []

    def test_help_gives_estimator_default(self, runner):
        result = runner.invoke(main, ["extract", "--help"])
        assert "[default: capon]" in " ".join(result.output.split())

    def test_non_wav_file_exit_code(self, runner, tmp_path):
        junk = tmp_path / "junk.wav"
        junk.write_bytes(b"RIFF")
        result = runner.invoke(main, ["extract", str(junk), "-o", str(tmp_path / "x.csv")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "WAV header" in result.output

    @pytest.mark.parametrize("tag", [3, 6])  # IEEE float, A-law
    def test_non_pcm_format_tag_exit_code(self, runner, fixture_files, tmp_path, tag):
        wav, _ = fixture_files
        data = bytearray(wav.read_bytes())
        data[20:22] = tag.to_bytes(2, "little")  # the fmt chunk's format tag
        bad = tmp_path / "bad.wav"
        bad.write_bytes(bytes(data))
        result = runner.invoke(main, ["extract", str(bad), "-o", str(tmp_path / "x.csv")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"unknown format: {tag}" in result.output

    def test_wav_without_frames_exit_code(self, runner, tmp_path):
        empty = tmp_path / "empty.wav"
        write_wav(SampledSignal(np.zeros(1), 441.0), empty)
        empty.write_bytes(empty.read_bytes()[:-2])
        result = runner.invoke(main, ["extract", str(empty), "-o", str(tmp_path / "x.csv")])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "no audio frames" in result.output

    @pytest.mark.parametrize("window", WINDOW_KINDS)
    def test_manifest_window_is_accepted_by_window_option(self, runner, fixture_files,
                                                          tmp_path, window):
        wav, _ = fixture_files
        recorded = None
        for out in (tmp_path / "a.csv", tmp_path / "b.csv"):
            result = runner.invoke(main, ["extract", str(wav), "-o", str(out),
                                          "--window", recorded or window])
            assert result.exit_code == 0, result.output
            manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
            recorded = manifest["config"]["window"]
            assert recorded == window
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("option, message", [
        ("--harmonic", "harmonic must be a positive integer"),
        ("--taps", "taps must be odd"),
    ])
    def test_integer_beyond_float_range_exit_code(self, runner, fixture_files, tmp_path,
                                                  option, message):
        wav, _ = fixture_files
        result = runner.invoke(main, ["extract", str(wav), "-o", str(tmp_path / "x.csv"),
                                      option, str(10**400 + 1)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert message in result.output


def write_cadence_track(path, n, shift_s, freqs=None):
    freqs = np.full(n, 60.0) if freqs is None else freqs
    write_track(EnfTrack(np.arange(n), 3.0 + shift_s * np.arange(n), freqs), path)


class TestMatch:
    def test_match_json(self, runner, fixture_files, tmp_path):
        wav, ref = fixture_files
        out = tmp_path / "track.csv"
        assert runner.invoke(main, ["extract", str(wav), "-o", str(out)]).exit_code == 0
        result = runner.invoke(main, ["match", str(out), str(ref), "--centered"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["centered"] is True
        assert payload["correlation"] > 0.9
        assert payload["lag"] >= 1

    @pytest.mark.parametrize("centered", [False, True])
    def test_reference_with_utf8_bom_matches_as_plain(self, runner, fixture_files, tmp_path,
                                                      centered):
        _, ref = fixture_files
        query, bom = tmp_path / "q.csv", tmp_path / "bom.csv"
        track = read_track(ref)
        write_track(EnfTrack(np.arange(30), track.time_s[:30], track.freq_hz[10:40]), query)
        bom.write_bytes(b"\xef\xbb\xbf" + ref.read_bytes())
        flag = ["--centered"] if centered else []
        plain = runner.invoke(main, ["match", str(query), str(ref), *flag])
        marked = runner.invoke(main, ["match", str(query), str(bom), *flag])
        assert plain.exit_code == 0, plain.output
        assert marked.exit_code == 0, marked.output
        assert marked.output == plain.output

    def test_query_longer_than_reference_exit_code(self, runner, fixture_files, tmp_path):
        _, ref = fixture_files
        short = tmp_path / "short.csv"
        write_track(EnfTrack(np.arange(5), np.arange(5.0), np.full(5, 60.0)), short)
        result = runner.invoke(main, ["match", str(ref), str(short)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "shorter than track length" in result.output

    def test_mismatched_cadence_exit_code(self, runner, fixture_files, tmp_path):
        _, ref = fixture_files
        query = tmp_path / "half.csv"
        write_cadence_track(query, 40, 0.5, 60.0 + 0.01 * np.sin(np.arange(40.0)))
        result = runner.invoke(main, ["match", str(query), str(ref)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "differs from reference frame shift 1 s" in result.output

    def test_non_uniform_reference_exit_code(self, runner, tmp_path):
        query, ref = tmp_path / "q.csv", tmp_path / "r.csv"
        write_cadence_track(query, 5, 1.0)
        write_track(EnfTrack(np.arange(3), np.array([0.0, 1.0, 3.0]), np.full(3, 60.0)), ref)
        result = runner.invoke(main, ["match", str(query), str(ref)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "not uniformly spaced" in result.output

    def test_infinite_reference_frequency_exit_code(self, runner, tmp_path):
        query, ref = tmp_path / "q.csv", tmp_path / "r.csv"
        freqs = 60.0 + 0.01 * np.sin(np.arange(100.0))
        write_cadence_track(query, 40, 1.0, freqs[50:90])
        freqs[0] = np.inf
        write_cadence_track(ref, 100, 1.0, freqs)
        result = runner.invoke(main, ["match", str(query), str(ref), "--centered"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "line 2: infinite frequency" in result.output

    def test_gap_in_frame_indices_exit_code(self, runner, tmp_path):
        query, ref = tmp_path / "q.csv", tmp_path / "r.csv"
        write_cadence_track(query, 5, 1.0)
        ref.write_text("frame_index,time_s,freq_hz\n0,0.0,60.0\n2,1.0,60.0\n")
        result = runner.invoke(main, ["match", str(query), str(ref)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "frame indices must be consecutive" in result.output

    @pytest.mark.parametrize("name", UNDECODABLE_TRACKS)
    def test_undecodable_reference_exit_code(self, runner, tmp_path, name):
        query, ref = tmp_path / "q.csv", tmp_path / name
        write_cadence_track(query, 2, 1.0)
        content, message = UNDECODABLE_TRACKS[name]
        ref.write_bytes(content)
        result = runner.invoke(main, ["match", str(query), str(ref)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert message in result.output

    @pytest.mark.parametrize("bad", [0, 1])
    def test_names_the_track_that_failed_to_parse(self, runner, tmp_path, bad):
        paths = [tmp_path / "q.csv", tmp_path / "r.csv"]
        write_cadence_track(paths[1 - bad], 5, 1.0)
        paths[bad].write_text("frame_index,time_s,freq_hz\n0,0.0,60.0\n2,1.0,60.0\n")
        result = runner.invoke(main, ["match", *map(str, paths)])
        assert result.exit_code == 2
        assert f"{paths[bad]}: frame indices must be consecutive" in result.output
        assert str(paths[1 - bad]) not in result.output

    def test_constant_query_centered_exit_code(self, runner, fixture_files, tmp_path):
        _, ref = fixture_files
        query = tmp_path / "flat.csv"
        write_cadence_track(query, 40, 1.0, np.full(40, 60.01))
        result = runner.invoke(main, ["match", str(query), str(ref), "--centered"])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "correlation undefined at every lag" in result.output

    def test_lag_seconds_uses_track_cadence(self, runner, tmp_path):
        rng = np.random.default_rng(9)
        freqs = 60.0 + 0.01 * rng.normal(size=200)
        query, ref = tmp_path / "q.csv", tmp_path / "r.csv"
        write_cadence_track(ref, 200, 0.5, freqs)
        write_cadence_track(query, 60, 0.5, freqs[40:100])
        result = runner.invoke(main, ["match", str(query), str(ref), "--centered"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["lag"] == 41
        assert payload["lag_seconds"] == (payload["lag"] - 1) * 0.5


class TestFisher:
    def test_fisher_json(self, runner):
        result = runner.invoke(main, ["fisher", "0.9990", "0.9847", "1800"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["reject"] is True
        assert payload["q"] == pytest.approx(57.9704, abs=1e-3)

    def test_fisher_bad_args(self, runner):
        assert runner.invoke(main, ["fisher", "1.0", "0.5", "100"]).exit_code == 2

    def test_tiny_alpha_prints_strict_json(self, runner):
        result = runner.invoke(main, ["fisher", "0.5", "0.4", "100", "--alpha", "1e-320"])
        assert result.exit_code == 0, result.output
        assert strict_json(result.output)["critical"] == pytest.approx(38.29, abs=0.01)

    def test_alpha_without_finite_critical_value_exit_code(self, runner):
        result = runner.invoke(main, ["fisher", "0.5", "0.4", "100", "--alpha", "5e-324"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "finite critical value" in result.output


    def test_n_beyond_float_range_exit_code(self, runner):
        result = runner.invoke(main, ["fisher", "0.5", "0.4", str(10**400)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "need 3 < n <=" in result.output


class TestCompareWindows:
    def test_matrix_shape(self, runner, fixture_files, tmp_path):
        wav, ref = fixture_files
        out = tmp_path / "cmp.csv"
        result = runner.invoke(
            main,
            ["compare-windows", str(wav), "--reference", str(ref),
             "--frame-lengths", "1,2", "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0] == "window,1,2"
        assert len(lines) == 5  # header + 4 windows
        cells = [float(v) for line in lines[1:] for v in line.split(",")[1:]]
        assert len(cells) == 8
        assert all(-1.0 <= c <= 1.0 for c in cells)

    def test_manifest_records_the_matrix(self, runner, fixture_files, tmp_path, wav_reads):
        wav, ref = fixture_files
        out = tmp_path / "cmp.csv"
        result = runner.invoke(
            main,
            ["compare-windows", str(wav), "--reference", str(ref), "--windows", "parzen,rect",
             "--frame-lengths", "1,2", "--harmonic", "2", "--taps", "801", "--uncentered",
             "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "cmp.csv.manifest.json").read_text())
        config = manifest["config"]
        assert (config["estimator"], config["harmonic"], config["taps"]) == ("stft", 2, 801)
        assert config["window"] == ["parzen", "rect"]
        assert config["frame_len_s"] == [1.0, 2.0]
        assert config["centered"] is False
        assert set(manifest["timings_s"]) == {"load", "prepare", "cells", "write"}
        assert wav_reads == [str(wav)]

    def test_manifest_windows_equal_csv_labels(self, runner, fixture_files, tmp_path):
        wav, ref = fixture_files
        out = tmp_path / "cmp.csv"
        result = runner.invoke(main, ["compare-windows", str(wav), "--reference", str(ref),
                                      "--frame-lengths", "1", "-o", str(out)])
        assert result.exit_code == 0, result.output
        labels = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        manifest = json.loads((tmp_path / "cmp.csv.manifest.json").read_text())
        assert manifest["config"]["window"] == labels == list(WINDOW_KINDS)

    def test_names_the_reference_that_failed_to_parse(self, runner, fixture_files, tmp_path):
        wav, _ = fixture_files
        ref = tmp_path / "gap.csv"
        ref.write_text("frame_index,time_s,freq_hz\n0,0.0,60.0\n2,1.0,60.0\n")
        result = runner.invoke(main, ["compare-windows", str(wav), "--reference", str(ref),
                                      "--windows", "parzen", "--frame-lengths", "1",
                                      "-o", str(tmp_path / "x.csv")])
        assert result.exit_code == 2
        assert f"{ref}: frame indices must be consecutive" in result.output

    def test_help_gives_estimator_default(self, runner):
        result = runner.invoke(main, ["compare-windows", "--help"])
        assert "[default: stft]" in " ".join(result.output.split())

    def test_single_cell_consistent_with_match(self, runner, fixture_files, tmp_path):
        wav, ref = fixture_files
        out = tmp_path / "cmp.csv"
        result = runner.invoke(
            main,
            ["compare-windows", str(wav), "--reference", str(ref),
             "--windows", "parzen", "--frame-lengths", "1",
             "--estimator", "stft", "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        cell = float(out.read_text().splitlines()[1].split(",")[1])

        track_path = tmp_path / "t.csv"
        assert runner.invoke(
            main,
            ["extract", str(wav), "-o", str(track_path), "--estimator", "stft"],
        ).exit_code == 0
        match = runner.invoke(
            main, ["match", str(track_path), str(ref), "--centered"]
        )
        assert cell == pytest.approx(json.loads(match.output)["correlation"])

    def test_prepares_the_recording_once(self, runner, fixture_files, tmp_path,
                                         monkeypatch):
        filtered, apply_zero_phase = [], pipeline.apply_zero_phase

        def counting(coeffs, signal, **kwargs):
            filtered.append(len(signal))
            return apply_zero_phase(coeffs, signal, **kwargs)

        monkeypatch.setattr(pipeline, "apply_zero_phase", counting)
        wav, ref = fixture_files
        result = runner.invoke(
            main,
            ["compare-windows", str(wav), "--reference", str(ref), "--windows",
             "parzen,hamming", "--frame-lengths", "1,2", "-o", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 0, result.output
        assert len(filtered) == 1

    @pytest.mark.parametrize("estimator", ["stft", "capon"])
    def test_cells_equal_extract_then_best_lag(self, runner, tmp_path, estimator):
        # 44.1 kHz input, so every cell's track goes through decimation.
        fixture = make_power_fixture(8, duration_s=30.0, sample_rate_hz=44100.0,
                                     interference_amp=0.0)
        wav, ref = tmp_path / "full_rate.wav", tmp_path / "ref.csv"
        samples = fixture.signal.samples
        write_wav(SampledSignal(0.5 * samples / np.max(np.abs(samples)), 44100.0), wav)
        write_cadence_track(ref, 30, 1.0, fixture.enf_hz[::44100])
        out = tmp_path / "cmp.csv"
        result = runner.invoke(
            main,
            ["compare-windows", str(wav), "--reference", str(ref), "--windows",
             "parzen,kaiser", "--frame-lengths", "1,3", "--estimator", estimator,
             "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        signal, reference = read_wav(wav), read_track(ref).freq_hz
        for line in out.read_text().splitlines()[1:]:
            window, *cells = line.split(",")
            for length, cell in zip([1.0, 3.0], cells):
                config = power_config(window=window, frame_len_s=length, estimator=estimator)
                track = extract_enf(signal, config)
                expected = best_lag(track.freq_hz, reference, centered=True)
                assert float(cell) == expected.correlation

    def test_bad_cell_option_rejected_before_the_wav_is_read(self, runner, fixture_files,
                                                             tmp_path):
        _, ref = fixture_files
        junk = tmp_path / "junk.wav"
        junk.write_bytes(b"RIFF")
        result = runner.invoke(
            main,
            ["compare-windows", str(junk), "--reference", str(ref), "--frame-lengths",
             "1,0", "-o", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "round to at least 1 sample" in result.output

    @pytest.mark.parametrize("options, message", [
        (["--frame-lengths", "1,0.05"], "fewer than 3 grid points"),
        (["--estimator", "capon", "--capon-order", "65", "--frame-lengths", "100"],
         "capon order must be at most 64"),
        (["--frame-lengths", "1,x"], "bad frame length"),
        (["--frame-lengths", ","], "need at least one window and one frame length"),
        (["--windows", " , "], "need at least one window and one frame length"),
    ])
    def test_unusable_layout_rejected_before_the_wav_is_read(
            self, runner, fixture_files, tmp_path, wav_reads, options, message):
        wav, ref = fixture_files
        result = runner.invoke(main, ["compare-windows", str(wav), "--reference", str(ref),
                                      "-o", str(tmp_path / "x.csv"), *options])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert message in result.output
        assert wav_reads == []

    @pytest.mark.parametrize("name", UNDECODABLE_TRACKS)
    def test_undecodable_reference_exit_code(self, runner, fixture_files, tmp_path, name):
        wav, _ = fixture_files
        ref = tmp_path / name
        content, message = UNDECODABLE_TRACKS[name]
        ref.write_bytes(content)
        result = runner.invoke(
            main,
            ["compare-windows", str(wav), "--reference", str(ref), "--windows", "parzen",
             "--frame-lengths", "1", "-o", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert message in result.output

    def test_undefined_correlation_exit_code(self, runner, fixture_files, tmp_path):
        wav, _ = fixture_files
        flat = tmp_path / "flat.csv"
        n = 200
        write_track(EnfTrack(np.arange(n), np.arange(float(n)), np.full(n, 60.0)), flat)
        result = runner.invoke(
            main,
            ["compare-windows", str(wav), "--reference", str(flat), "--windows", "parzen",
             "--frame-lengths", "1", "--centered", "-o", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "undefined" in result.output

    def test_non_wav_file_exit_code(self, runner, fixture_files, tmp_path):
        _, ref = fixture_files
        junk = tmp_path / "junk.wav"
        junk.write_bytes(b"RIFF")
        result = runner.invoke(
            main,
            ["compare-windows", str(junk), "--reference", str(ref), "-o", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "WAV header" in result.output

    def test_mismatched_cadence_exit_code(self, runner, fixture_files, tmp_path):
        wav, _ = fixture_files
        ref = tmp_path / "ref.csv"
        write_cadence_track(ref, 200, 1.0, 60.0 + 0.01 * np.sin(np.arange(200.0)))
        result = runner.invoke(
            main,
            ["compare-windows", str(wav), "--reference", str(ref), "--windows", "parzen",
             "--frame-lengths", "1", "--shift-seconds", "0.5", "-o", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "differs from reference frame shift 1 s" in result.output

    def test_wrapping_frame_indices_exit_code(self, runner, fixture_files, tmp_path):
        wav, _ = fixture_files
        ref = tmp_path / "ref.csv"
        ref.write_text("frame_index,time_s,freq_hz\n"
                       "9223372036854775807,0.0,60.0\n-9223372036854775808,1.0,60.0\n")
        result = runner.invoke(
            main,
            ["compare-windows", str(wav), "--reference", str(ref), "--windows", "parzen",
             "--frame-lengths", "1", "-o", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "frame indices must be consecutive" in result.output

    @pytest.mark.parametrize("option, value, superseding", [
        ("--window", "kaiser", "--windows"),
        ("--frame-seconds", "7", "--frame-lengths"),
    ])
    def test_single_run_options_rejected(self, runner, fixture_files, tmp_path, option,
                                         value, superseding):
        wav, ref = fixture_files
        result = runner.invoke(
            main,
            ["compare-windows", str(wav), "--reference", str(ref), "--windows", "parzen",
             option, value, "-o", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert option in result.output and superseding in result.output

    def test_huge_pad_factor_exit_code(self, runner, fixture_files, tmp_path):
        wav, ref = fixture_files
        result = runner.invoke(
            main,
            ["compare-windows", str(wav), "--reference", str(ref), "--windows", "parzen",
             "--frame-lengths", "1", "--pad-factor", "65", "-o", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "pad factor must be at most 64" in result.output

    def test_unknown_window_rejected(self, runner, fixture_files, tmp_path):
        wav, ref = fixture_files
        result = runner.invoke(
            main,
            ["compare-windows", str(wav), "--reference", str(ref),
             "--windows", "tukey", "-o", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2


# Reference tracks that match and compare-windows must reject with the same
# code: 2 for a file that cannot be read, 3 for a readable track whose
# (centered) correlation with the query is undefined at every lag.
SHARED_REFERENCES = {
    **{name: (content, 2) for name, (content, _) in UNDECODABLE_TRACKS.items()},
    "gap.csv": (b"frame_index,time_s,freq_hz\n0,0.0,60.0\n2,1.0,60.0\n", 2),
    "infinite.csv": (b"frame_index,time_s,freq_hz\n0,0.0,inf\n1,1.0,60.0\n", 2),
    "flat.csv": (b"frame_index,time_s,freq_hz\n"
                 + b"".join(b"%d,%d.0,60.0\n" % (i, i) for i in range(200)), 3),
}


@pytest.mark.parametrize("name", SHARED_REFERENCES)
def test_match_and_compare_windows_share_exit_codes(runner, fixture_files, tmp_path, name):
    wav, query = fixture_files
    ref = tmp_path / name
    content, code = SHARED_REFERENCES[name]
    ref.write_bytes(content)
    for args in (["match", str(query), str(ref), "--centered"],
                 ["compare-windows", str(wav), "--reference", str(ref), "--windows", "parzen",
                  "--frame-lengths", "1", "--centered", "-o", str(tmp_path / "x.csv")]):
        result = runner.invoke(main, args)
        assert result.exit_code == code, (args[0], result.output)
        assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("command", [
    "extract", "compare-windows", "synth",
    pytest.param("synth --reference", id="synth-reference"),
])
def test_unwritable_output_exit_code(runner, fixture_files, tmp_path, monkeypatch, wav_reads,
                                     command):
    wav, ref = fixture_files
    missing = tmp_path / "missing" / ("s.wav" if command == "synth" else "out.csv")
    args = {"extract": [str(wav), "-o", str(missing)],
            "compare-windows": [str(wav), "--reference", str(ref), "--windows", "parzen",
                                "--frame-lengths", "1", "-o", str(missing)],
            "synth": ["--duration-seconds", "2", "--wav", str(missing),
                      "--reference", str(tmp_path / "r.csv")],
            "synth --reference": ["--duration-seconds", "2", "--wav", str(tmp_path / "s.wav"),
                                  "--reference", str(missing)]}[command]
    # A writer left half-built by the failed open, such as wave's, can fail
    # again when collected, and Python prints that traceback to stderr.
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    result = runner.invoke(main, [command.split()[0], *args])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert f"{missing}: No such file or directory" in result.output
    assert "Traceback" not in result.output
    # Checked before the recording is read, or synth's WAV is written.
    assert wav_reads == []
    assert not (tmp_path / "s.wav").exists()
    del result
    gc.collect()
    assert unraisable == []


@pytest.mark.parametrize("command, output", [
    ("extract", "in.wav"), ("extract", "link.wav"), ("compare-windows", "in.wav"),
    ("compare-windows", "sub/../ref.csv"), ("synth", "in.wav"), ("synth", "new.wav"),
    # The manifest of t.csv is the WAV (synth's --wav) or, for compare-windows, the reference.
    ("extract", "t.csv"), ("compare-windows", "t.csv"), ("synth", "t.csv"),
])
def test_output_naming_an_input_exit_code(runner, fixture_files, tmp_path, command, output):
    wav, ref = tmp_path / "in.wav", tmp_path / "ref.csv"
    manifest_case = output == "t.csv"
    if manifest_case:
        manifest = tmp_path / "t.csv.manifest.json"
        wav, ref = (wav, manifest) if command == "compare-windows" else (manifest, ref)
    wav.write_bytes(fixture_files[0].read_bytes())
    ref.write_bytes(fixture_files[1].read_bytes())
    (tmp_path / "link.wav").symlink_to(wav)
    (tmp_path / "sub").mkdir()
    before = {path: path.read_bytes() for path in (wav, ref)}
    output = str(tmp_path / output)
    synth_outputs = ([str(wav), output] if manifest_case
                     else [output, str(tmp_path / "sub" / ".." / Path(output).name)])
    args = {"extract": [str(wav), "-o", output],
            "compare-windows": [str(wav), "--reference", str(ref), "--windows", "parzen",
                                "--frame-lengths", "1", "-o", output],
            "synth": ["--duration-seconds", "2", "--wav", synth_outputs[0],
                      "--reference", synth_outputs[1]]}[command]
    result = runner.invoke(main, [command, *args])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    named = output + ".manifest.json" if manifest_case else output
    assert f"output {named} is the same file as" in result.output
    assert {path: path.read_bytes() for path in (wav, ref)} == before
    assert (sorted(p.name for p in tmp_path.iterdir())
            == sorted([wav.name, "link.wav", ref.name, "sub"]))


@pytest.mark.parametrize("command", ["extract", "compare-windows"])
def test_full_rate_recording_released_after_prepare(runner, fixture_files, tmp_path,
                                                    monkeypatch, command):
    seconds, rate = 20, 44100
    wav = tmp_path / "full_rate.wav"
    write_wav(SampledSignal(0.5 * make_tone(180.0, rate, seconds), float(rate)), wav)
    traced = []

    def tracing_estimate(filtered, config):
        if not traced:
            traced.append(tracemalloc.get_traced_memory()[0])
        return pipeline.estimate(filtered, config)

    monkeypatch.setattr(cli, "estimate", tracing_estimate)
    args = {"extract": [str(wav)],
            "compare-windows": [str(wav), "--reference", str(fixture_files[1]),
                                "--windows", "parzen", "--frame-lengths", "1"]}[command]
    tracemalloc.start()
    try:
        result = runner.invoke(main, [command, *args, "-o", str(tmp_path / "x.csv")])
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    assert traced[0] < 0.5 * 8 * seconds * rate  # half the float64 recording


@pytest.mark.parametrize("command", ["extract", "compare-windows"])
def test_recording_dropped_before_estimate(runner, fixture_files, tmp_path, monkeypatch,
                                           command):
    # A recording holds its file open, and the file is not needed past
    # prepare.
    recordings, alive = [], []

    def keeping_read_wav(path):
        recording = read_wav(path)
        recordings.append(weakref.ref(recording))
        return recording

    def checking_estimate(filtered, config):
        alive.append(recordings[0]() is not None)
        return pipeline.estimate(filtered, config)

    monkeypatch.setattr(cli, "read_wav", keeping_read_wav)
    monkeypatch.setattr(cli, "estimate", checking_estimate)
    wav, ref = fixture_files
    args = {"extract": [str(wav)],
            "compare-windows": [str(wav), "--reference", str(ref),
                                "--windows", "parzen", "--frame-lengths", "1"]}[command]
    result = runner.invoke(main, [command, *args, "-o", str(tmp_path / "x.csv")])
    assert result.exit_code == 0, result.output
    assert alive == [False]


def test_extract_of_a_file_truncated_after_it_was_opened(runner, tmp_path, monkeypatch):
    # read_wav checks the header; the samples are read in prepare, where a
    # file cut in between is caught.
    seconds, rate = 20, 44100
    wav = tmp_path / "full_rate.wav"
    write_wav(SampledSignal(0.5 * make_tone(180.0, rate, seconds), float(rate)), wav)

    def truncating_read_wav(path):
        recording = read_wav(path)
        os.truncate(path, 44 + 2 * 5 * rate)  # 5 s of 20 left
        return recording

    monkeypatch.setattr(cli, "read_wav", truncating_read_wav)
    out = tmp_path / "track.csv"
    result = runner.invoke(main, ["extract", str(wav), "-o", str(out)])
    assert result.exit_code == 2
    assert f"{wav}: data ends at frame {5 * rate} of {seconds * rate}" in result.output
    assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_extract_from_a_named_pipe(runner, tmp_path):
    # The pipe is written once.  Only a regular file is hashed, so the run
    # ends without waiting for a second writer and records no hash.
    seconds, rate = 20, 44100
    wav = tmp_path / "full_rate.wav"
    write_wav(SampledSignal(0.5 * make_tone(180.0, rate, seconds), float(rate)), wav)
    data = wav.read_bytes()
    pipe = tmp_path / "pipe.wav"
    os.mkfifo(pipe)

    def serve_once():
        with open(pipe, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=serve_once, daemon=True)
    writer.start()
    try:
        piped = runner.invoke(main, ["extract", str(pipe), "-o", str(tmp_path / "piped.csv")])
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert piped.exit_code == 0, piped.output
    result = runner.invoke(main, ["extract", str(wav), "-o", str(tmp_path / "file.csv")])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "piped.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()
    manifest = json.loads((tmp_path / "piped.csv.manifest.json").read_text())
    assert manifest["inputs"] == [{"path": str(pipe), "sha256": None}]
    manifest = json.loads((tmp_path / "file.csv.manifest.json").read_text())
    assert manifest["inputs"][0]["sha256"] == hashlib.sha256(data).hexdigest()


@needs_pipes
def test_tracks_from_named_pipes(runner, tmp_path):
    # A track file is read once, so a pipe written once reads as the file.
    rng = np.random.default_rng(5)
    freqs = 60.0 + np.cumsum(rng.normal(0.0, 1e-3, 3000))
    freqs[rng.random(3000) < 0.05] = np.nan
    reference = EnfTrack(np.arange(3000), np.arange(3000.0), freqs)
    query = EnfTrack(np.arange(300), np.arange(300.0), freqs[1234:1534] + 1e-4)
    reference_csv, query_csv = tmp_path / "reference.csv", tmp_path / "query.csv"
    write_track(reference, reference_csv)
    write_track(query, query_csv)
    with fed_pipe(tmp_path / "reference.pipe", reference_csv.read_bytes()) as pipe:
        piped = read_track(pipe)
    loaded = read_track(reference_csv)
    for name in ("frame_index", "time_s", "freq_hz"):
        assert getattr(piped, name).tobytes() == getattr(loaded, name).tobytes()

    expected = runner.invoke(main, ["match", str(query_csv), str(reference_csv)])
    assert expected.exit_code == 0, expected.output
    assert json.loads(expected.output)["lag"] == 1235
    with (fed_pipe(tmp_path / "query.fifo", query_csv.read_bytes()) as query_pipe,
          fed_pipe(tmp_path / "reference.fifo", reference_csv.read_bytes()) as reference_pipe):
        result = runner.invoke(main, ["match", str(query_pipe), str(reference_pipe)])
    assert result.exit_code == 0, result.output
    assert result.output == expected.output


class TestBench:
    def test_report_shape(self, runner):
        result = runner.invoke(main, ["bench", "--trials", "3"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["trials"] == 3
        assert (report["frames"], report["frame_len"]) == (1797, 441)
        assert (report["grid_size"], report["bins"]) == (1764, 25)
        assert report["speedup"] > 0
        lengths = report["frame_lengths"]
        assert [(row["frame_len_s"], row["frames"], row["frame_len"], row["bins"])
                for row in lengths] == [(1.0, 60, 441, 25), (5.0, 60, 2205, 121),
                                        (10.0, 60, 4410, 239), (20.0, 60, 8820, 475)]
        bandpass = report["bandpass"]
        assert [(row["taps"], row["samples"]) for row in bandpass] == [(1001, 793800),
                                                                      (4801, 793800)]
        scan = report["lag_scan"]
        assert (scan["query_frames"], scan["reference_frames"]) == (1800, 86400)
        for row, prefix in [(report, "fast_"), (report, "dense_"),
                            *((r, p) for r in lengths for p in ("capon_", "stft_")),
                            *((r, "") for r in bandpass),
                            (scan, "uncentered_"), (scan, "centered_")]:
            spread = [row[f"{prefix}{name}_s"] for name in ("min", "q1", "median", "q3")]
            assert 0 < spread[0] <= spread[1] <= spread[2] <= spread[3]
        assert "decimate" not in report
        host = report["host"]
        assert host["cpu_model"] and host["cpu_count"] >= 1
        assert set(host["threads"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"}

    def test_single_trial_well_formed(self, runner):
        result = runner.invoke(main, ["bench", "--trials", "1"])
        assert result.exit_code == 0
        assert json.loads(result.output)["fast_median_s"] > 0

    @pytest.mark.parametrize("option, value", [("--trials", "0"), ("--seed", "-1")])
    def test_out_of_range_rejected(self, runner, option, value):
        result = runner.invoke(main, ["bench", option, value])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"'{option}'" in result.output


PIPELINE_OPTIONS = {"--mode", "--nominal-hz", "--harmonic", "--shift-seconds", "--estimator",
                    "--taps", "--passband-hz", "--capon-order", "--pad-factor"}

# Every command's options: a new knob is an edit to this table.
OPTION_CENSUS = {
    "extract": {"--output", "--json", "--frame-seconds", "--window", *PIPELINE_OPTIONS},
    "compare-windows": {"--reference", "--windows", "--frame-lengths", "--output",
                        "--centered", *PIPELINE_OPTIONS},
    "match": {"--centered"},
    "fisher": {"--alpha"},
    "synth": {"--seed", "--duration-seconds", "--snr-db", "--wav", "--reference"},
    "bench": {"--trials", "--seed"},
}


def test_option_census():
    options = {name: sorted(opt for param in command.params if isinstance(param, click.Option)
                            for opt in param.opts if opt.startswith("--"))
               for name, command in main.commands.items()}
    assert options == {name: sorted(opts) for name, opts in OPTION_CENSUS.items()}
    assert [len(options[name]) for name in OPTION_CENSUS] == [13, 14, 1, 1, 5, 2]


class TestConfigParity:
    """PipelineConfig and the pipeline options name the same settings."""

    FIELDS = {"nominal_hz", "harmonic", "frame_len_s", "shift_s", "window", "estimator",
              "taps", "passband_hz", "capon_order", "pad_factor", "working_rate_hz"}

    def test_config_fields(self):
        assert {field.name for field in dataclasses.fields(PipelineConfig)} == self.FIELDS

    @pytest.mark.parametrize("command, not_options", [
        ("extract", {"working_rate_hz"}),
        # compare-windows sweeps --windows and --frame-lengths instead.
        ("compare-windows", {"working_rate_hz", "window", "frame_len_s"}),
    ])
    def test_every_field_is_an_option(self, command, not_options):
        params = {param.name for param in main.commands[command].params}
        assert self.FIELDS & params == self.FIELDS - not_options

    def test_extract_help_shows_the_config_defaults(self):
        command = main.commands["extract"]
        ctx = click.Context(command)
        helps = {param.name: param.get_help_record(ctx)[1] for param in command.params
                 if param.name in self.FIELDS}
        for name, help_text in helps.items():
            default = getattr(PipelineConfig, name)
            if name in ("harmonic", "taps"):  # set by the --mode preset
                shown = "per mode"
            else:
                shown = default if isinstance(default, str) else f"{default:g}"
            assert help_text.endswith(f"[default: {shown}]"), name

    @pytest.mark.parametrize("args", [
        ["extract", "--kaiser-beta", "8.6"],
        ["extract", "--no-interpolate"],
        ["extract", "--format", "json"],
        ["extract", "--skip-seconds", "5"],
        ["compare-windows", "--kaiser-beta", "8.6"],
        ["compare-windows", "--no-interpolate"],
        ["compare-windows", "--plot-data", "p.csv"],
        ["bench", "--order", "10"],
    ], ids=" ".join)
    def test_deleted_options_are_unknown(self, runner, fixture_files, tmp_path, args):
        wav, ref = fixture_files
        paths = {"extract": [str(wav), "-o", str(tmp_path / "x.csv")],
                 "compare-windows": [str(wav), "--reference", str(ref),
                                     "-o", str(tmp_path / "x.csv")],
                 "bench": ["--trials", "1"]}[args[0]]
        result = runner.invoke(main, [args[0], *paths, *args[1:]])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "No such option" in result.output and args[1] in result.output


class TestSynthDeterminism:
    def test_same_seed_same_files(self, runner, tmp_path):
        outputs = []
        for name in ("a", "b"):
            wav = tmp_path / f"{name}.wav"
            ref = tmp_path / f"{name}.csv"
            result = runner.invoke(
                main,
                ["synth", "--seed", "11", "--duration-seconds", "10",
                 "--wav", str(wav), "--reference", str(ref)],
            )
            assert result.exit_code == 0
            outputs.append((wav.read_bytes(), ref.read_text()))
        assert outputs[0] == outputs[1]

    def test_manifest_settings_regenerate_the_reference(self, runner, tmp_path):
        wav, ref = tmp_path / "s.wav", tmp_path / "r.csv"
        result = runner.invoke(main, ["synth", "--seed", "3", "--duration-seconds", "4",
                                      "--snr-db", "20", "--wav", str(wav),
                                      "--reference", str(ref)])
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        config = manifest["config"]
        assert config == {"seed": 3, "duration_s": 4.0, "snr_db": 20.0}
        assert manifest["outputs"] == [str(wav), str(ref)]
        again = tmp_path / "again.csv"
        result = runner.invoke(main, ["synth", "--seed", str(config["seed"]),
                                      "--duration-seconds", repr(config["duration_s"]),
                                      "--snr-db", repr(config["snr_db"]),
                                      "--wav", str(tmp_path / "again.wav"),
                                      "--reference", str(again)])
        assert result.exit_code == 0, result.output
        assert again.read_bytes() == ref.read_bytes()


class TestSynthValidation:
    def run_synth(self, runner, tmp_path, *options):
        return runner.invoke(
            main,
            ["synth", *options, "--wav", str(tmp_path / "s.wav"),
             "--reference", str(tmp_path / "s.csv")],
        )

    @pytest.mark.parametrize("seconds", ["nan", "inf", "-5", "0", "0.5", "86401", "1e300"])
    def test_bad_duration_exit_code(self, runner, tmp_path, seconds):
        result = self.run_synth(runner, tmp_path, "--duration-seconds", seconds)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "--duration-seconds" in result.output
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("snr_db", ["nan", "inf", "-inf", "1e9"])
    def test_bad_snr_exit_code(self, runner, tmp_path, snr_db):
        result = self.run_synth(runner, tmp_path, "--duration-seconds", "2",
                                "--snr-db", snr_db)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "--snr-db" in result.output

    def test_negative_seed_exit_code(self, runner, tmp_path):
        result = self.run_synth(runner, tmp_path, "--duration-seconds", "2", "--seed", "-1")
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "--seed" in result.output


@pytest.fixture(scope="module")
def short_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("short") / "tone.wav"
    rng = np.random.default_rng(4)
    samples = 0.3 * make_tone(180.02, 441, 20.0) + rng.normal(0.0, 0.05, 20 * 441)
    write_wav(SampledSignal(samples, 441.0), path)
    return path


def optional(strategy):
    return st.none() | strategy


def float_option(lo, hi):
    return optional(st.floats(lo, hi) | st.sampled_from([math.inf, -math.inf, math.nan]))


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    mode=st.sampled_from(["power", "speech"]),
    options=st.fixed_dictionaries({
        "--nominal-hz": optional(st.sampled_from(["50", "60"])),
        "--harmonic": optional(st.integers(0, 4)),
        "--frame-seconds": float_option(0.0, 25.0),
        "--shift-seconds": float_option(0.0, 5.0),
        "--window": optional(st.sampled_from(WINDOW_KINDS)),
        "--estimator": optional(st.sampled_from(["capon", "stft"])),
        "--taps": optional(st.integers(0, 4500).map(lambda k: 2 * k + 1)),
        "--passband-hz": float_option(0.0, 3.0),
        "--capon-order": optional(st.integers(0, 40) | st.integers(65, 10**12)),
        "--pad-factor": optional(st.integers(0, 8) | st.integers(65, 10**12)),
    }),
)
def test_extract_option_space_never_crashes(short_wav, tmp_path, mode, options):
    args = ["extract", str(short_wav), "-o", str(tmp_path / "t.csv"), "--mode", mode]
    for name, value in options.items():
        if value is not None:
            args += [name, str(value)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2, 3), (args, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), args
    assert "Traceback" not in result.output


@st.composite
def track_rows(draw):
    """Frame times at a 0.5, 1 or 2 s cadence, optionally jittered, with
    frequencies that may be missing, constant or infinite."""
    n = draw(st.integers(0, 40))
    shift_s = draw(st.sampled_from([0.5, 1.0, 2.0]))
    times = draw(st.floats(0.0, 100.0)) + shift_s * np.arange(n)
    if draw(st.booleans()):
        times = times + np.array(draw(st.lists(st.floats(-0.4, 0.4), min_size=n, max_size=n)))
    freqs = draw(st.lists(st.sampled_from([math.nan, 60.0, math.inf, -math.inf])
                          | st.floats(59.9, 60.1),
                          min_size=n, max_size=n))
    return EnfTrack(np.arange(n), times, np.array(freqs))


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(query=track_rows(), reference=track_rows(), centered=st.booleans())
def test_match_track_space_never_crashes(tmp_path, query, reference, centered):
    paths = [tmp_path / "query.csv", tmp_path / "reference.csv"]
    write_track(query, paths[0])
    write_track(reference, paths[1])
    args = ["match", *map(str, paths)] + (["--centered"] if centered else [])
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2, 3), (args, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), args
    assert "Traceback" not in result.output
    if result.exit_code == 0:
        payload = strict_json(result.output)
        shift_s = read_track(paths[1]).shift_s
        assert payload["lag_seconds"] == (payload["lag"] - 1) * shift_s



NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def option_values(draw, valid, wild):
    """Every option drawn from its valid strategy, except that at most one
    option, chosen per example, takes a value from its wild strategy."""
    values = {name: draw(strategy) for name, strategy in valid.items()}
    name = draw(st.sampled_from([None, *wild]))
    if name is not None:
        values[name] = draw(wild[name])
    return values


def as_args(options):
    return [str(token) for item in options.items() for token in item]


def assert_clean_exit(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2, 3), (args, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), args
    assert "Traceback" not in result.output
    return result


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(options=option_values(
    valid={"--seed": st.integers(0, 2**64), "--duration-seconds": st.floats(1.0, 5.0),
           "--snr-db": st.floats(-40.0, 60.0)},
    wild={"--seed": st.integers(max_value=-1),
          "--duration-seconds": st.floats(max_value=1.0, exclude_max=True)
          | st.floats(min_value=86400.0, exclude_min=True) | NON_FINITE,
          "--snr-db": st.floats() | NON_FINITE},
))
def test_synth_option_space_never_crashes(tmp_path, options):
    assert_clean_exit(["synth", *as_args(options), "--wav", str(tmp_path / "s.wav"),
                       "--reference", str(tmp_path / "s.csv")])


@pytest.fixture(scope="module")
def long_reference(tmp_path_factory):
    path = tmp_path_factory.mktemp("reference") / "ref.csv"
    rng = np.random.default_rng(6)
    write_cadence_track(path, 60, 1.0, 60.0 + 0.01 * rng.normal(size=60))
    return path


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(options=option_values(
    valid={"--windows": st.sampled_from(WINDOW_KINDS),
           "--frame-lengths": st.floats(0.5, 10.0),
           "--mode": st.sampled_from(["power", "speech"]),
           "--nominal-hz": st.sampled_from(["50", "60"]),
           "--harmonic": st.integers(1, 3),
           "--shift-seconds": st.just(1.0),
           "--estimator": st.sampled_from(["capon", "stft"]),
           "--taps": st.integers(1, 1500).map(lambda k: 2 * k + 1),
           "--passband-hz": st.floats(0.05, 2.0),
           "--capon-order": st.integers(1, 20),
           "--pad-factor": st.integers(1, 8)},
    wild={"--frame-lengths": st.floats(-1.0, 25.0) | NON_FINITE,
          "--harmonic": st.integers(max_value=0) | st.integers(4, 10),
          "--shift-seconds": st.floats(-1.0, 5.0) | NON_FINITE,
          "--taps": st.integers(-2, 5000),
          "--passband-hz": st.floats(-1.0, 1e300) | NON_FINITE,
          "--capon-order": st.integers(-2, 500),
          "--pad-factor": st.integers(-2, 0) | st.integers(65, 10**12)},
), centered=st.booleans())
def test_compare_windows_option_space_never_crashes(short_wav, long_reference, tmp_path,
                                                    options, centered):
    assert_clean_exit(["compare-windows", str(short_wav), "--reference", str(long_reference),
                       "-o", str(tmp_path / "cmp.csv"), *as_args(options),
                       "--centered" if centered else "--uncentered"])


@settings(max_examples=50, deadline=None)
@given(options=option_values(
    valid={"alpha": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           "c1": st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
           "c2": st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
           "n": st.integers(4, 10**6)},
    wild={"alpha": st.floats() | NON_FINITE, "c1": st.floats() | NON_FINITE,
          "c2": st.floats() | NON_FINITE, "n": st.integers() | st.just(10**400)},
))
def test_fisher_argument_space_never_crashes(options):
    result = assert_clean_exit(["fisher", "--alpha", str(options["alpha"]), "--",
                                *(str(options[k]) for k in ("c1", "c2", "n"))])
    if result.exit_code == 0:
        strict_json(result.output)
