import numpy as np
import pytest

from enfcapon.framing import frame_matrix
from enfcapon.pipeline import power_config
from enfcapon.windowing import make_window


def row_count(n_samples, frame_len, shift):
    # int8 keeps the (K, N) product small for long frames.
    samples = np.zeros(n_samples, dtype=np.int8)
    return len(frame_matrix(samples, frame_len, shift, np.ones(frame_len, dtype=np.int8)))


class TestPlanFrames:
    def test_thirty_minutes_one_second_frames(self):
        assert power_config(frame_len_s=1.0, shift_s=1.0).frame_samples == (441, 441)
        assert row_count(1800 * 441, 441, 441) == 1800

    def test_exact_single_frame(self):
        assert row_count(441, 441, 441) == 1

    def test_twenty_second_frames(self):
        # 30-minute signal, L = 20 s, 1 s shift:
        # floor((793800 - 8820)/441) + 1 = 1781
        assert power_config(frame_len_s=20.0, shift_s=1.0).frame_samples == (8820, 441)
        assert row_count(793800, 8820, 441) == 1781

    def test_non_integer_layout_rounds_at_working_rate(self):
        # 1.5 * 441 = 661.5 rounds half to even; 0.7 * 441 = 308.7
        assert power_config(frame_len_s=1.5, shift_s=0.7).frame_samples == (662, 309)

    def test_short_signal_gives_zero_frames(self):
        # No whole frame fits; extract_enf rejects such a signal beforehand.
        with pytest.raises(ValueError):
            row_count(440, 441, 441)

    def test_bad_parameters(self):
        with pytest.raises(ValueError, match="at least 1 sample"):
            power_config(frame_len_s=0.0)
        with pytest.raises(ValueError, match="at least 1 sample"):
            power_config(shift_s=-1.0)

    def test_count_never_exceeds_signal_len(self, rng):
        frame_len, shift = power_config(frame_len_s=0.05, shift_s=0.01).frame_samples
        assert (frame_len, shift) == (22, 4)
        for _ in range(50):
            n = int(rng.integers(frame_len, 5000))
            count = row_count(n, frame_len, shift)
            assert count == (n - frame_len) // shift + 1
            assert count <= n


class TestWindowedFrame:
    def make_samples(self, n=4410):
        return np.arange(n, dtype=float)

    def test_rectangular_identity(self):
        samples = self.make_samples()
        frames = frame_matrix(samples, 441, 441, make_window("rectangular", 441))
        np.testing.assert_array_equal(frames[3], samples[3 * 441 : 4 * 441])

    def test_zero_frame(self):
        frames = frame_matrix(np.zeros(1000), 441, 441, make_window("parzen", 441))
        assert np.all(frames == 0.0)

    def test_parzen_on_ones_returns_taps(self):
        window = make_window("parzen", 441)
        frames = frame_matrix(np.ones(1000), 441, 441, window)
        assert frames.shape == (2, 441)
        np.testing.assert_array_equal(frames[0], window)

    def test_out_of_range_and_mismatch(self):
        samples = self.make_samples()
        frames = frame_matrix(samples, 441, 441, make_window("parzen", 441))
        with pytest.raises(IndexError):
            frames[10]
        with pytest.raises(ValueError):
            frame_matrix(samples, 441, 441, make_window("parzen", 100))

    def test_frame_starts_and_overlap(self):
        samples = self.make_samples()
        frame_len, shift = power_config(frame_len_s=2.0, shift_s=1.0).frame_samples
        frames = frame_matrix(samples, frame_len, shift, make_window("rectangular", frame_len))
        count = (samples.size - frame_len) // shift + 1
        assert frames.shape == (count, frame_len)
        np.testing.assert_array_equal(frames[:, 0], samples[::shift][:count])
        overlap = frame_len - shift
        np.testing.assert_array_equal(frames[0, shift:], frames[1, :overlap])

    def test_iterator_matches_direct(self):
        samples = self.make_samples()
        frame_len, shift = power_config(frame_len_s=1.5, shift_s=0.7).frame_samples
        window = make_window("hamming", frame_len)
        frames = frame_matrix(samples, frame_len, shift, window)
        assert len(frames) == (samples.size - frame_len) // shift + 1
        for k, frame in enumerate(frames):
            start = k * shift
            direct = samples[start : start + frame_len] * window
            np.testing.assert_array_equal(frame, direct)
