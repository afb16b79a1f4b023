import codecs
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import UNDECODABLE_TRACKS, traced_peak
from enfcapon import track as track_module
from enfcapon.errors import TrackFormatError
from enfcapon.track import CSV_HEADER, EnfTrack, read_track, write_track


def small_track():
    return EnfTrack(
        np.array([0, 1, 2]),
        np.array([0.0, 1.0, 2.0]),
        np.array([59.98, 60.017654321987654, np.nan]),
    )


def test_round_trip_is_lossless(tmp_path):
    path = tmp_path / "track.csv"
    track = small_track()
    write_track(track, path)
    loaded = read_track(path)
    assert np.array_equal(loaded.frame_index, track.frame_index)
    assert np.array_equal(loaded.time_s, track.time_s)
    np.testing.assert_array_equal(loaded.freq_hz[:2], track.freq_hz[:2])
    assert np.isnan(loaded.freq_hz[2])


def test_leading_utf8_bom_is_dropped(tmp_path):
    # Spreadsheet and Notepad "UTF-8 with BOM" saves start with U+FEFF.
    path, bom = tmp_path / "track.csv", tmp_path / "bom.csv"
    write_track(small_track(), path)
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    plain, loaded = read_track(path), read_track(bom)
    for name in ("frame_index", "time_s", "freq_hz"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(plain, name))


def test_csv_row_format(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("frame_index,time_s,freq_hz\n0,0.0,59.98\n")
    loaded = read_track(path)
    assert loaded.frame_index[0] == 0
    assert loaded.time_s[0] == 0.0
    assert loaded.freq_hz[0] == 59.98


def test_csv_header_line(tmp_path):
    path = tmp_path / "t.csv"
    write_track(small_track(), path)
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


@pytest.mark.parametrize("name, content, message", [
    ("bad.csv", "frame_index,time_s,freq_hz\n0,0.0,59.98\n1,1.0,sixty\n", "line 3: "),
    ("gap.csv", "frame_index,time_s,freq_hz\n0,0.0,60.0\n2,1.0,60.0\n", "frame indices"),
    ("latin1.csv", b"frame_index,time_s,freq_hz\n0,0.0,60.0\xff\n", "not UTF-8 text"),
])
def test_errors_start_with_the_path(tmp_path, name, content, message):
    path = tmp_path / name
    (path.write_bytes if isinstance(content, bytes) else path.write_text)(content)
    with pytest.raises(TrackFormatError) as err:
        read_track(path)
    assert str(err.value).startswith(f"{path}: {message}")
    assert err.value.line == (3 if message == "line 3: " else None)


@pytest.mark.parametrize("value", ["inf", "-inf", "Infinity"])
def test_infinite_freq_names_line(tmp_path, value):
    path = tmp_path / "inf.csv"
    path.write_text(f"frame_index,time_s,freq_hz\n0,0.0,59.98\n1,1.0,{value}\n")
    with pytest.raises(TrackFormatError) as err:
        read_track(path)
    assert err.value.line == 3
    assert "infinite frequency" in str(err.value)


def test_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,0.0,59.98\n")
    with pytest.raises(TrackFormatError):
        read_track(path)


def test_non_consecutive_indices_rejected():
    with pytest.raises(ValueError):
        EnfTrack(np.array([0, 2]), np.array([0.0, 2.0]), np.array([60.0, 60.0]))


def test_unequal_columns_rejected():
    with pytest.raises(ValueError, match="equal-length"):
        EnfTrack(np.array([0, 1]), np.array([0.0, 1.0]), np.array([60.0]))


@pytest.mark.parametrize("metadata", ["shift_s", "frame_len_s"])
def test_shift_is_derived_from_the_times_not_stored(metadata):
    with pytest.raises(TypeError):
        EnfTrack(np.arange(3), [0.0, 1.0, 2.0], [60.0] * 3, **{metadata: 1.0})
    assert EnfTrack(np.arange(3), [0.0, 2.0, 4.0], [60.0] * 3).shift_s == 2.0


def test_read_infers_uniform_cadence(tmp_path):
    n = 1000
    times = 12.3 + 0.5 * np.arange(n)
    path = tmp_path / "track.csv"
    write_track(EnfTrack(np.arange(n), times, np.full(n, 60.0)), path)
    assert read_track(path).shift_s == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("times", [
    [0.0, 1.0, 2.5],
    [0.0, np.nan, 2.0],
    [0.0, 0.0, 0.0],
    [2.0, 1.0, 0.0],
    [0.0, np.inf],
    [0.0],
    [np.inf, np.inf],
    [-1e308, 1e308],
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
    ("half.csv", "frame_index,time_s,freq_hz\n0,0.0,60.0\n0.5,1.0,60.0\n",
     "line 3: invalid literal for int"),
    # np.diff wraps int64, so this pair differs by "1".
    ("wrap.csv",
     "frame_index,time_s,freq_hz\n9223372036854775807,0.0,60.0\n-9223372036854775808,1.0,60.0\n",
     "frame indices must be consecutive"),
], ids=["gap", "int64-overflow", "fractional", "int64-wrap"])
def test_malformed_frame_indices_rejected(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(TrackFormatError, match=message):
        read_track(path)


@pytest.mark.parametrize("name", UNDECODABLE_TRACKS)
def test_undecodable_track_rejected(tmp_path, name):
    content, message = UNDECODABLE_TRACKS[name]
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(TrackFormatError, match=message):
        read_track(path)


def test_csv_cells_format_as_numpy_scalars_did(tmp_path):
    values = [math.nan, -0.0, 5e-324, 2.2250738585072014e-308, 1e300,
              0.1 + 0.2, 60.017654321987654, -59.999999999999993]
    n = len(values)
    track = EnfTrack(np.arange(n) + 2**62, np.array(values[::-1]), np.array(values))
    path = tmp_path / "t.csv"
    write_track(track, path)
    rows = [f"{int(i)},{float(t)!r},{float(f)!r}"
            for i, t, f in zip(track.frame_index, track.time_s, track.freq_hz)]
    assert path.read_bytes() == ("\n".join([CSV_HEADER, *rows]) + "\n").encode()


# Cells np.loadtxt and int()/float() may read differently, or only one of them
# reads: underscores, non-ASCII digits and spaces, control characters that
# str.splitlines breaks lines at, C99 and Fortran spellings, out-of-range values.
PROBE_TOKENS = [
    "1_0", "\u0661", "\u0968", "\u01fe", "\xa0", "\u3000", "\x85", "\u2028", "", " ", "\t",
    "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x00", "\r", "\r\n", "\n", "#", ",",
    "nan(1)", "-nan", "1d5", "0x1p3", "1e5", "1.0", "1e400", "-1e400", "inf", "-Infinity",
    "-0.0", "5e-324", "2.4703282292062327e-324", "9223372036854775808",
    "12345678901234567890123",
]
HEADERS = [CSV_HEADER, f" {CSV_HEADER}\t", f"{CSV_HEADER}\r", f"\x0c{CSV_HEADER}",
           f"{CSV_HEADER}\x1c", f"\r{CSV_HEADER}", "frame_index,time_s"]
LINE_ENDS = ["\n", "\r\n", "\n\n", "\n \n", "\r", "\x0c", "\x85"]
# Byte runs no UTF-8 decoder accepts: a stray continuation byte, a lead byte
# cut short, an overlong encoding, a surrogate and bytes UTF-8 never uses.
INVALID_UTF8 = [b"\x80", b"\xc3", b"\xe2\x82", b"\xc0\x80", b"\xed\xa0\x80", b"\xff", b"\xfe"]


@st.composite
def csv_texts(draw):
    """The bytes of rows as write_track formats them, some cells and line
    ends swapped for or spliced with probe tokens, maybe after a UTF-8 BOM
    and with invalid UTF-8 bytes spliced in."""
    n = draw(st.integers(0, 5))
    start = draw(st.sampled_from([0, -3, 2**63 - 6]))
    floats = st.floats(allow_nan=True, allow_infinity=True)
    if draw(st.booleans()):
        t0, step = draw(st.floats(-1e6, 1e6)), draw(st.sampled_from([0.5, 1.0, 1e-3]))
        times = [t0 + k * step for k in range(n)]
    else:
        times = draw(st.lists(floats, min_size=n, max_size=n))
    freqs = draw(st.lists(st.one_of(st.floats(59.9, 60.1), floats), min_size=n, max_size=n))
    rows = [[str(start + k), repr(t), repr(f)] for k, (t, f) in enumerate(zip(times, freqs))]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = draw(st.sampled_from(rows))
        cell = draw(st.integers(0, 2))
        token = draw(st.sampled_from(PROBE_TOKENS))
        row[cell] = draw(st.sampled_from([token, token + row[cell], row[cell] + token]))
    ends = [draw(st.sampled_from(LINE_ENDS)) if draw(st.integers(0, 3)) == 0 else "\n"
            for _ in rows]
    text = draw(st.sampled_from(HEADERS)) + "\n"
    data = (text + "".join(",".join(row) + end for row, end in zip(rows, ends))).encode()
    if draw(st.booleans()):
        data = codecs.BOM_UTF8 + data
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(INVALID_UTF8)) + data[at:]
    return data


def _outcome(parse, source):
    try:
        track = parse(source)
    except TrackFormatError as exc:
        return str(exc), exc.line
    return (track.frame_index.tolist(), track.time_s.tobytes(),
            np.isnan(track.freq_hz).tolist(), np.nan_to_num(track.freq_hz).tobytes(),
            track.shift_s)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=csv_texts())
def test_csv_fast_path_agrees_with_line_parser(tmp_path, data):
    oracle = track_module._parse_csv_lines
    assert _outcome(track_module._parse_csv, data) == _outcome(oracle, data)
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    # Text-mode open decodes the file (BOM dropped, newlines translated);
    # the line parser then reads that text's bytes.
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        expected = (f"not UTF-8 text: {exc}", None)
    else:
        expected = _outcome(oracle, text.encode())
    if len(expected) == 2:  # read_track names the file before the message
        expected = (f"{path}: {expected[0]}", expected[1])
    assert _outcome(read_track, path) == expected


def test_each_probe_token_parses_as_the_line_parser_does():
    rows = [["0", "0.0", "60.0"], ["1", "1.0", "nan"]]
    oracle = track_module._parse_csv_lines
    for token in PROBE_TOKENS:
        texts = [f"{CSV_HEADER}\n0,0.0,60.0\n{token}\n1,1.0,nan\n"]
        for r in range(2):
            for c in range(3):
                for cell in (token + rows[r][c], rows[r][c] + token):
                    spliced = [row[:c] + [cell] + row[c + 1:] if k == r else row
                               for k, row in enumerate(rows)]
                    texts.append("\n".join([CSV_HEADER, *map(",".join, spliced)]) + "\n")
        for data in map(str.encode, texts):
            assert _outcome(track_module._parse_csv, data) == _outcome(oracle, data), data


def write_day_track(path):
    """A 24-hour track at 1 s frames, with a NaN every 997 frames."""
    n = 86_400
    freqs = 60.0 + 0.01 * np.sin(np.arange(n) / 500.0)
    freqs[::997] = np.nan
    track = EnfTrack(np.arange(n), np.arange(n) * 1.0, freqs)
    write_track(track, path)
    return track


def test_day_long_csv_track_takes_the_fast_path(tmp_path, monkeypatch):
    path = tmp_path / "day.csv"
    track = write_day_track(path)

    def refuse(data):
        raise AssertionError("line parser ran")

    monkeypatch.setattr(track_module, "_parse_csv_lines", refuse)
    loaded = read_track(path)
    assert np.array_equal(loaded.frame_index, track.frame_index)
    assert np.array_equal(loaded.time_s, track.time_s)
    assert np.array_equal(loaded.freq_hz, track.freq_hz, equal_nan=True)
    assert loaded.shift_s == 1.0


def test_day_long_csv_track_reads_within_a_few_file_sizes(tmp_path):
    # The file's bytes and the parsed rows, which the track's columns view,
    # trace about 2.0 times the file's size (2.76 MB here); copying the
    # columns out of the rows traced 2.8 times.  A reader that decodes the
    # file into a str and copies its body into a StringIO (4 bytes a
    # character) traces about 6.9 times.  The bound sits 25% above the
    # copying reader and at half the decoding one.
    path = tmp_path / "day.csv"
    write_day_track(path)
    read_track(path)
    loaded, peak = traced_peak(lambda: read_track(path))
    assert len(loaded) == 86_400
    assert peak <= 3.5 * path.stat().st_size
