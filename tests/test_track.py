import numpy as np
import pytest

from conftest import UNDECODABLE_TRACKS
from enfcapon.errors import TrackFormatError
from enfcapon.track import EnfTrack, read_track, write_track


def small_track():
    return EnfTrack(
        np.array([0, 1, 2]),
        np.array([0.0, 1.0, 2.0]),
        np.array([59.98, 60.017654321987654, np.nan]),
        frame_len_s=1.0,
        shift_s=1.0,
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_round_trip_is_lossless(tmp_path, fmt):
    path = tmp_path / f"track.{fmt}"
    track = small_track()
    write_track(track, path, fmt)
    loaded = read_track(path)
    assert np.array_equal(loaded.frame_index, track.frame_index)
    assert np.array_equal(loaded.time_s, track.time_s)
    np.testing.assert_array_equal(loaded.freq_hz[:2], track.freq_hz[:2])
    assert np.isnan(loaded.freq_hz[2])


def test_csv_row_format(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("frame_index,time_s,freq_hz\n0,0.0,59.98\n")
    loaded = read_track(path)
    assert loaded.frame_index[0] == 0
    assert loaded.time_s[0] == 0.0
    assert loaded.freq_hz[0] == 59.98


def test_csv_header_line(tmp_path):
    path = tmp_path / "t.csv"
    write_track(small_track(), path, "csv")
    text = path.read_text()
    assert text.startswith("frame_index,time_s,freq_hz\n")
    assert "\r" not in text


def test_non_numeric_freq_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("frame_index,time_s,freq_hz\n0,0.0,59.98\n1,1.0,sixty\n")
    with pytest.raises(TrackFormatError) as err:
        read_track(path)
    assert err.value.line == 3
    assert "line 3" in str(err.value)


@pytest.mark.parametrize("value", ["inf", "-inf", "Infinity"])
def test_infinite_freq_names_line(tmp_path, value):
    path = tmp_path / "inf.csv"
    path.write_text(f"frame_index,time_s,freq_hz\n0,0.0,59.98\n1,1.0,{value}\n")
    with pytest.raises(TrackFormatError) as err:
        read_track(path)
    assert err.value.line == 3
    assert "infinite frequency" in str(err.value)


def test_infinite_freq_in_json_rejected(tmp_path):
    path = tmp_path / "inf.json"
    path.write_text('[{"frame_index": 0, "time_s": 0.0, "freq_hz": Infinity}]')
    with pytest.raises(TrackFormatError, match="bad entry 0: infinite frequency"):
        read_track(path)


def test_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,0.0,59.98\n")
    with pytest.raises(TrackFormatError):
        read_track(path)


def test_non_consecutive_indices_rejected():
    with pytest.raises(ValueError):
        EnfTrack(np.array([0, 2]), np.array([0.0, 2.0]), np.array([60.0, 60.0]))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_read_infers_uniform_cadence(tmp_path, fmt):
    n = 1000
    times = 12.3 + 0.5 * np.arange(n)
    path = tmp_path / f"track.{fmt}"
    write_track(EnfTrack(np.arange(n), times, np.full(n, 60.0)), path, fmt)
    assert read_track(path).shift_s == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("times", [
    [0.0, 1.0, 2.5],
    [0.0, np.nan, 2.0],
    [0.0, 0.0, 0.0],
    [2.0, 1.0, 0.0],
    [0.0, np.inf],
    [0.0],
])
def test_read_leaves_cadence_undefined(tmp_path, times):
    n = len(times)
    path = tmp_path / "track.csv"
    write_track(EnfTrack(np.arange(n), np.array(times), np.full(n, 60.0)), path)
    assert read_track(path).shift_s is None


@pytest.mark.parametrize("name, text, message", [
    ("gap.csv", "frame_index,time_s,freq_hz\n0,0.0,60.0\n2,1.0,60.0\n",
     "frame indices must be consecutive"),
    ("huge.csv", "frame_index,time_s,freq_hz\n99999999999999999999999,0.0,60.0\n",
     "frame index outside the int64 range"),
    ("inf.json", '[{"frame_index": 1e999, "time_s": 0.0, "freq_hz": 60.0}]',
     "bad entry 0: cannot convert float infinity"),
    ("half.json", '[{"frame_index": 0, "time_s": 0.0, "freq_hz": 60.0},'
                  ' {"frame_index": 0.5, "time_s": 1.0, "freq_hz": 60.0}]',
     "bad entry 1: frame index 0.5 is not an integer"),
    ("bool.json", '[{"frame_index": false, "time_s": 0.0, "freq_hz": 60.0},'
                  ' {"frame_index": true, "time_s": 1.0, "freq_hz": 60.0}]',
     "bad entry 0: frame index False is not an integer"),
    # np.diff wraps int64, so this pair differs by "1".
    ("wrap.csv",
     "frame_index,time_s,freq_hz\n9223372036854775807,0.0,60.0\n-9223372036854775808,1.0,60.0\n",
     "frame indices must be consecutive"),
], ids=["gap", "int64-overflow", "json-infinite", "json-fractional", "json-boolean",
        "int64-wrap"])
def test_malformed_frame_indices_rejected(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(TrackFormatError, match=message):
        read_track(path)


@pytest.mark.parametrize("entry", [
    '{"frame_index": 0, "time_s": true, "freq_hz": 60.0}',
    '{"frame_index": 0, "time_s": 0.0, "freq_hz": false}',
], ids=["time", "frequency"])
def test_boolean_time_or_frequency_rejected(tmp_path, entry):
    path = tmp_path / "bool.json"
    path.write_text(f"[{entry}]")
    with pytest.raises(TrackFormatError, match="bad entry 0: .* is not a number"):
        read_track(path)


@pytest.mark.parametrize("name", UNDECODABLE_TRACKS)
def test_undecodable_track_rejected(tmp_path, name):
    content, message = UNDECODABLE_TRACKS[name]
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(TrackFormatError, match=message):
        read_track(path)
