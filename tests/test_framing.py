import numpy as np
import pytest

from enfcapon.framing import frame_matrix, plan_frames
from enfcapon.signal_io import SampledSignal
from enfcapon.windowing import make_window


class TestPlanFrames:
    def test_thirty_minutes_one_second_frames(self):
        plan = plan_frames(1800 * 441, 1.0, 1.0, 441.0)
        assert plan.frame_len == 441
        assert plan.shift == 441
        assert plan.frame_count == 1800

    def test_exact_single_frame(self):
        plan = plan_frames(441, 1.0, 1.0, 441.0)
        assert plan.frame_count == 1

    def test_twenty_second_frames(self):
        # 30-minute signal, L = 20 s, 1 s shift:
        # floor((793800 - 8820)/441) + 1 = 1781
        plan = plan_frames(793800, 20.0, 1.0, 441.0)
        assert plan.frame_len == 8820
        assert plan.frame_count == 1781

    def test_short_signal_gives_zero_frames(self):
        assert plan_frames(100, 1.0, 1.0, 441.0).frame_count == 0

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            plan_frames(1000, 0.0, 1.0, 441.0)
        with pytest.raises(ValueError):
            plan_frames(1000, 1.0, -1.0, 441.0)

    def test_count_never_exceeds_signal_len(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 5000))
            plan = plan_frames(n, 0.05, 0.01, 441.0)
            assert plan.frame_count <= n


class TestWindowedFrame:
    def make_signal(self, n=4410):
        return SampledSignal(np.arange(n, dtype=float), 441.0)

    def test_rectangular_identity(self):
        signal = self.make_signal()
        plan = plan_frames(len(signal), 1.0, 1.0, 441.0)
        window = make_window("rectangular", plan.frame_len)
        frames = frame_matrix(signal, plan, window)
        np.testing.assert_array_equal(frames[3], signal.samples[3 * 441 : 4 * 441])

    def test_zero_frame(self):
        signal = SampledSignal(np.zeros(1000), 441.0)
        plan = plan_frames(1000, 1.0, 1.0, 441.0)
        window = make_window("parzen", plan.frame_len)
        assert np.all(frame_matrix(signal, plan, window) == 0.0)

    def test_parzen_on_ones_returns_taps(self):
        signal = SampledSignal(np.ones(1000), 441.0)
        plan = plan_frames(1000, 1.0, 1.0, 441.0)
        window = make_window("parzen", plan.frame_len)
        frames = frame_matrix(signal, plan, window)
        assert frames.shape == (plan.frame_count, plan.frame_len)
        np.testing.assert_array_equal(frames[0], window)

    def test_out_of_range_and_mismatch(self):
        signal = self.make_signal()
        plan = plan_frames(len(signal), 1.0, 1.0, 441.0)
        window = make_window("parzen", plan.frame_len)
        with pytest.raises(IndexError):
            frame_matrix(signal, plan, window)[plan.frame_count]
        with pytest.raises(ValueError):
            frame_matrix(signal, plan, make_window("parzen", 100))

    def test_frame_starts_and_overlap(self):
        signal = self.make_signal()
        plan = plan_frames(len(signal), 2.0, 1.0, 441.0)
        frames = frame_matrix(signal, plan, make_window("rectangular", plan.frame_len))
        assert frames.shape == (plan.frame_count, plan.frame_len)
        starts = signal.samples[:: plan.shift][: plan.frame_count]
        np.testing.assert_array_equal(frames[:, 0], starts)
        overlap = plan.frame_len - plan.shift
        np.testing.assert_array_equal(frames[0, plan.shift :], frames[1, :overlap])

    def test_iterator_matches_direct(self):
        signal = self.make_signal()
        plan = plan_frames(len(signal), 1.5, 0.7, 441.0)
        window = make_window("hamming", plan.frame_len)
        frames = frame_matrix(signal, plan, window)
        assert len(frames) == plan.frame_count
        for k, frame in enumerate(frames):
            start = k * plan.shift
            direct = signal.samples[start : start + plan.frame_len] * window
            np.testing.assert_array_equal(frame, direct)
