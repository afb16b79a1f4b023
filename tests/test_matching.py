import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from conftest import traced_peak
from enfcapon import matching
from enfcapon.errors import IncompatibleInputError, UndefinedCorrelationError
from enfcapon.matching import _fft_length, best_lag, correlation, fisher_test
from oracle import best_lag_scan


def assert_same_match(f, g, centered):
    """best_lag equals the scan of every lag, or both find no lag.

    MatchResult reprs hold the float's shortest round-trip form, so equal
    reprs mean a bit-equal correlation and an int lag.
    """
    try:
        expected = best_lag_scan(f, g, centered)
    except UndefinedCorrelationError:
        with pytest.raises(UndefinedCorrelationError):
            best_lag(f, g, centered)
        return
    assert repr(best_lag(f, g, centered)) == repr(expected)


def draw_values(draw, rng, kind, size):
    if kind == "enf":  # 60 Hz with milli-hertz variation
        return 60.0 + 1e-3 * np.cumsum(rng.normal(size=size))
    if kind == "periodic":  # exact ties between lags a period apart
        return np.resize(rng.normal(size=draw(st.integers(1, 12))), size)
    if kind == "integers":
        return rng.integers(-3, 4, size=size).astype(np.float64)
    if kind == "stretch":  # a constant stretch inside ENF values
        values = 60.0 + 1e-3 * rng.normal(size=size)
        start, stop = sorted(draw(st.lists(st.integers(0, size), min_size=2, max_size=2)))
        values[start:stop] = 60.0
        return values
    return rng.normal(size=size)


def spoil(draw, rng, values):
    """NaN runs, scattered NaNs and an optional infinity."""
    values = values.copy()
    if values.size:
        start = draw(st.integers(0, values.size - 1))
        values[start : start + draw(st.integers(0, 50))] = np.nan
        values[rng.random(values.size) < draw(st.sampled_from([0.0, 0.1, 0.4]))] = np.nan
        infinity = draw(st.sampled_from([None, np.inf, -np.inf]))
        if infinity is not None:
            values[draw(st.integers(0, values.size - 1))] = infinity
    return values


@st.composite
def match_inputs(draw):
    k = draw(st.integers(0, 60))
    g_len = draw(st.integers(k, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["enf", "periodic", "integers", "stretch", "normal"]))
    g = draw_values(draw, rng, kind, g_len)
    if draw(st.booleans()):  # a piece of the reference, maybe with noise
        lag = draw(st.integers(0, g_len - k))
        noise = draw(st.sampled_from([0.0, 1e-9, 1e-4]))
        f = g[lag : lag + k] + noise * rng.normal(size=k)
    else:
        f = draw_values(draw, rng, kind, k)
    return spoil(draw, rng, f), spoil(draw, rng, g)


def spy_on_tiers(monkeypatch):
    """Lists that fill, one entry per FFT block, with `_bounds`'s result and
    the number of lags given per-lag bounds: the lags whose pair counts
    `_about_bound` takes as arrays, a part of them at a time, rather than
    as the block's one count."""
    bounds, per_lag, part = [], [], [None]
    block_bounds, about_bound = matching._bounds, matching._about_bound

    def spy_bounds(*args):
        per_lag.append(0)
        bounds.append(block_bounds(*args))
        return bounds[-1]

    def spy_about_bound(k, *args):  # each part's counts come in more than once
        if isinstance(k, np.ndarray) and k is not part[0]:
            per_lag[-1] += k.size
            part[0] = k  # held, so no later part's array can take its place
        return about_bound(k, *args)

    monkeypatch.setattr(matching, "_bounds", spy_bounds)
    monkeypatch.setattr(matching, "_about_bound", spy_about_bound)
    return bounds, per_lag


@pytest.fixture(scope="module")
def day_long():
    """A 30-minute query at 1 s frames, cut at lag 51,234 from a 24-hour
    random-walk reference with six NaN gaps: (query, reference, lag)."""
    rng = np.random.default_rng(86400)
    g = 60.0 + np.cumsum(rng.normal(0.0, 0.002, 86400))
    for start in rng.integers(0, 86000, size=6):
        g[start : start + rng.integers(50, 400)] = np.nan
    lag = 51234
    f = g[lag : lag + 1800] + rng.normal(0.0, 1e-3, 1800)
    f[rng.choice(1800, size=18, replace=False)] = np.nan
    return f, g, lag


class TestCorrelation:
    def test_self_correlation_is_one(self, rng):
        f = rng.normal(size=20)
        assert correlation(f, f) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("centered", [False, True])
    def test_self_match_is_exactly_one(self, centered):
        # Unclipped, this ENF-like vector correlates with itself at
        # 1.0000000000000002 in both modes.
        f = 60.0 + np.random.default_rng(17).normal(0.0, 0.01, 600)
        assert correlation(f, f, centered) == 1.0
        assert correlation(f, -f, centered) == -1.0
        assert best_lag(f, f, centered).correlation == 1.0

    def test_centered_constant_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            correlation(np.full(10, 3.0), np.arange(10.0), centered=True)

    def test_zero_vector_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            correlation(np.zeros(10), np.ones(10))

    def test_pearson_hand_case(self):
        assert correlation([1, 2, 3], [3, 2, 1], centered=True) == pytest.approx(-1.0)

    def test_scale_invariance(self, rng):
        f = rng.normal(size=30) + 5.0
        g = rng.normal(size=30) + 5.0
        base = correlation(f, g)
        assert correlation(3.0 * f, 0.5 * g) == pytest.approx(base, rel=1e-12)
        centered = correlation(f, g, centered=True)
        assert correlation(2.0 * f + 7.0, g - 3.0, centered=True) == pytest.approx(
            centered, rel=1e-12
        )

    @pytest.mark.parametrize("centered", [False, True])
    def test_infinite_entry_undefined(self, centered):
        g = np.arange(1.0, 11.0)
        g[3] = -np.inf
        with pytest.raises(UndefinedCorrelationError, match="infinite norm"):
            correlation(np.ones(10) + np.arange(10.0), g, centered=centered)

    def test_nan_pairwise_deletion(self):
        f = np.array([1.0, np.nan, 3.0, 4.0])
        g = np.array([1.0, 2.0, 3.0, np.nan])
        assert correlation(f, g) == pytest.approx(1.0)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            correlation(np.ones(3), np.ones(4))


class TestBestLag:
    def test_planted_segment(self, rng):
        f = rng.normal(size=40) + 60.0
        g = rng.normal(size=300) * 0.01
        g[37 : 37 + 40] = f
        result = best_lag(f, g)
        assert result.best_lag == 37
        assert result.correlation == pytest.approx(1.0, abs=1e-12)
        assert result.n_used == 40

    def test_single_lag(self, rng):
        f = rng.normal(size=10) + 1.0
        result = best_lag(f, f)
        assert result.best_lag == 0
        assert result.lag_one_based == 1

    def test_argmax_prefers_positive_correlation(self, rng):
        # a negated copy at one lag loses to a positive copy elsewhere
        f = rng.normal(size=20)
        g = np.concatenate([-f, rng.normal(size=5) * 0.01, f])
        result = best_lag(f, g, centered=True)
        assert result.best_lag == 25
        assert result.correlation == pytest.approx(1.0, abs=1e-12)

    def test_infinite_reference_entry_skips_its_lags(self, rng):
        # The lags whose segment holds g[0] = inf have no correlation; they
        # used to win with NaN because c > NaN is never true.
        f = rng.normal(size=40) + 60.0
        g = rng.normal(size=300) * 0.01 + 60.0
        g[50:90] = f
        g[0] = np.inf
        result = best_lag(f, g, centered=True)
        assert result.best_lag == 50
        assert result.correlation == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("query, centered", [(np.full(1800, 60.01), True),
                                                 (np.zeros(1800), False)])
    def test_query_undefined_at_every_lag_is_rejected_unscored(self, day_long, monkeypatch,
                                                               query, centered):
        # A constant query (centered) or a zero one (uncentered), with NaNs
        # and an infinity, has no correlation at any lag: it is rejected
        # before any of the 84,601 lags is scored.
        query = query.copy()
        query[[5, 900]] = np.nan
        query[17] = np.inf
        _, g, _ = day_long
        scored = []
        monkeypatch.setattr(matching, "correlation", lambda *args, **kw: scored.append(args))
        with pytest.raises(UndefinedCorrelationError, match="undefined at every lag"):
            best_lag(query, g, centered)
        assert scored == []

    def test_constant_query_uncentered_keeps_its_match(self, day_long):
        _, g, _ = day_long
        assert_same_match(np.full(1800, 60.01), g, False)

    def test_constant_stretches_have_no_centered_correlation(self):
        # The mean of 3 x 0.1 rounds, so 0.1 - mean is not 0: a vector's
        # values, not its centred norm, show that it is constant.
        g = np.array([0.3, 0.1, 0.1, 0.1, 0.7, 0.2])
        with pytest.raises(UndefinedCorrelationError, match="constant"):
            correlation(np.full(3, 0.1), g[:3], centered=True)
        with pytest.raises(UndefinedCorrelationError, match="constant"):
            correlation(g[3:], g[1:4], centered=True)
        assert_same_match(np.array([1.0, 2.0, 4.0]), g, True)

    def test_reference_too_short(self):
        with pytest.raises(ValueError):
            best_lag(np.ones(10), np.ones(5))

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            best_lag(np.ones((2, 5)), np.ones(20))

    def test_matches_brute_force(self, rng):
        for _ in range(100):
            f = rng.normal(size=50)
            g = rng.normal(size=500)
            for centered in (False, True):
                assert_same_match(f, g, centered)

    @settings(max_examples=300, deadline=None)
    @given(inputs=match_inputs())
    def test_matches_scan_on_irregular_tracks(self, inputs):
        f, g = inputs
        for centered in (False, True):
            assert_same_match(f, g, centered)

    def test_copy_planted_next_to_block_edges(self):
        # The lags go through the FFT in blocks of nfft - k + 1; a copy
        # planted at each lag around the first two block edges is found,
        # for a short query and for a 30-minute one at 1 s frames.
        rng = np.random.default_rng(4)
        for k in (40, 1800):
            f = 60.0 + 1e-3 * rng.normal(size=k)
            step = _fft_length(k, 2**20) - k + 1
            n = 2 * step + k + 1000
            assert _fft_length(k, n) - k + 1 == step
            for lag in [*range(step - 4, step + 4), *range(2 * step - 4, 2 * step + 4)]:
                g = 60.0 + 1e-3 * rng.normal(size=n)
                g[lag : lag + k] = f
                for centered in (False, True):
                    assert best_lag(f, g, centered).best_lag == lag

    def test_ties_nans_and_infinities_across_blocks_match_scan(self):
        rng = np.random.default_rng(3)
        g = 60.0 + 1e-3 * rng.normal(size=20000)
        g[8200:] = np.resize(g[8200:8297], 11800)  # period 97: exact ties
        g[8100:8300] = np.nan
        g[16250] = np.inf
        f = g[9000:9040].copy()
        f[7] = np.nan
        for centered in (False, True):
            assert_same_match(f, g, centered)
            assert_same_match(f + 1e-9 * rng.normal(size=f.size), g, centered)

    @pytest.mark.parametrize("k, blocks, last, nan_run, at", [
        (40, 2, 0, None, -3),             # two full blocks, 32,729 frames
        (40, 3, 100, None, -3),           # a last block of 100 lags
        (40, 2, 3000, (-20, 60), 50),     # a NaN run across both ends of block 0
        (1, 2, 500, None, -3),            # no lag has two pairs
        (2000, 2, 700, (-900, 5), -3),    # a NaN run across the block edge
    ])
    def test_references_of_several_blocks_match_scan(self, k, blocks, last, nan_run, at):
        # The lags go through the FFT in blocks of step = nfft - k + 1 lags,
        # each over the nfft = 16,384 frames from its first lag; `last` is
        # the last block's lag count, 0 for a full block.  A copy of the
        # query sits at lag step + at, next to the first block edge.
        rng = np.random.default_rng(k + last)
        step = _fft_length(k, 2**20) - k + 1
        n = (blocks - 1) * step + (last or step) + k - 1
        assert _fft_length(k, n) == 16384 < n
        assert len(range(0, n - k + 1, step)) == blocks
        g = 60.0 + 1e-3 * np.cumsum(rng.normal(size=n))
        g[rng.integers(0, n, 30)] = np.nan
        if nan_run is not None:
            g[step + nan_run[0] : step + nan_run[1]] = np.nan
        f = g[step + at : step + at + k] + 1e-4 * rng.normal(size=k)
        for centered in (False, True):
            assert_same_match(f, g, centered)

    def test_shift_from_a_sample_of_the_reference_matches_scan(self):
        # The shift is the median of the finite values among every
        # (n // 4096 + 1)-th reference value.  Outliers near 1e150 on most of
        # those positions make it 1e150, while the full median stays near
        # 60 Hz: the bounds then rule out few lags, and the scan's result
        # must still come out.
        rng = np.random.default_rng(9)
        n = 8200
        g = 60.0 + 1e-3 * np.cumsum(rng.normal(size=n))
        stride = n // 4096 + 1
        g[: 1400 * stride : stride] = 1e150 * (1.0 + rng.random(1400))
        assert np.median(g[::stride]) > 1e150 and np.median(g) < 61.0
        f = g[6000:6040] + 1e-4 * rng.normal(size=40)
        for centered in (False, True):
            assert best_lag(f, g, centered).best_lag == 6000
            assert_same_match(f, g, centered)

    def test_shift_of_a_reference_finite_only_off_its_sample(self):
        # Every sampled position (every other one at 4,096 frames) is NaN, so
        # the shift is the median of all finite values instead.
        rng = np.random.default_rng(11)
        g = 60.0 + 1e-3 * np.cumsum(rng.normal(size=4096))
        g[::2] = np.nan
        assert g.size // 4096 + 1 == 2
        assert matching._shift(g) == np.median(g[1::2])
        f = g[1001:1041] + 1e-4 * rng.normal(size=40)
        for centered in (False, True):
            assert best_lag(f, g, centered).best_lag == 1001
            assert_same_match(f, g, centered)

    @pytest.mark.parametrize("fill", [np.nan, np.inf])
    def test_reference_without_a_finite_value_matches_scan(self, fill):
        # No lag has a correlation: the reference is all NaN, or NaN with a
        # few infinities.
        g = np.full(5000, np.nan)
        g[::997] = fill
        assert matching._shift(g) == 0.0
        f = 60.0 + 1e-3 * np.random.default_rng(12).normal(size=40)
        for centered in (False, True):
            assert_same_match(f, g, centered)

    def test_day_long_reference_matches_scan(self, day_long):
        f, g, lag = day_long
        for centered in (False, True):
            result = best_lag(f, g, centered)
            assert result.best_lag == lag
            assert repr(result) == repr(best_lag_scan(f, g, centered))

    @pytest.mark.parametrize("centered", [False, True])
    def test_day_long_scan_rescores_few_lags(self, day_long, monkeypatch, centered):
        # The bounds are tight enough that only the winner is scored
        # directly; a loose block bound would score many of the 84,601 lags
        # and still give the scan's result, only slowly.
        f, g, lag = day_long
        scored = []

        def counted(*args, **kwargs):
            scored.append(args)
            return correlation(*args, **kwargs)

        monkeypatch.setattr(matching, "correlation", counted)
        assert best_lag(f, g, centered).best_lag == lag
        assert 1 <= len(scored) <= 2

    @pytest.mark.parametrize("centered", [False, True])
    def test_day_long_scan_stays_within_two_megabytes(self, day_long, centered):
        # One FFT block's sums and bounds, the query's spectra and the lags
        # kept for scoring: 1.72 MB in 16,384-point blocks.  The scan that
        # kept one bound per lag in 8,192-point blocks traced 2.08 MB
        # (uncentered) and 2.18 MB (centered).
        f, g, _ = day_long
        best_lag(f, g, centered)  # numpy's first-call allocations
        assert traced_peak(lambda: best_lag(f, g, centered))[1] <= 2_000_000

    @pytest.mark.parametrize("centered", [False, True])
    def test_day_long_scan_batches_its_transforms(self, day_long, monkeypatch, centered):
        # One rfft of the query's three series, then per FFT block one rfft
        # of the reference's three (valid mask, b and b^2) and one irfft per
        # reference series: b^2's product with the query's mask, b's with
        # its mask and a, and the mask's with its mask, a and a^2.
        f, g, _ = day_long
        calls = []

        def counted(name, transform):
            def call(x, *args, **kwargs):
                calls.append((name, math.prod(np.shape(x)[:-1])))  # rows
                return transform(x, *args, **kwargs)
            return call

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(matching, name, counted(name, getattr(matching, name)))
        best_lag(f, g, centered)
        block = [("rfft", 3), ("irfft", 1), ("irfft", 2), ("irfft", 3)]
        assert calls == [("rfft", 3)] + 6 * block  # 84,601 lags, 14,585 a block

    @pytest.fixture(scope="class")
    def zero_run(self, day_long):
        """The day-long query and reference with a dropout written as 100
        frames of 0.0 instead of NaN into the reference's first FFT block,
        and the scan's result in each mode."""
        f, g, lag = day_long
        g = g.copy()
        g[4000:4100] = 0.0
        return f, g, lag, [best_lag_scan(f, g, centered) for centered in (False, True)]

    @pytest.mark.parametrize("centered", [False, True])
    def test_day_long_zero_run_matches_scan_within_two_megabytes(self, zero_run, monkeypatch,
                                                                 centered):
        # The run loosens its block's FFT error bounds, and centered, 8,496
        # of its 14,585 lags fall to per-lag bounds.  Those go a part at a
        # time, so the peak stays where it is without the run (1.74 against
        # 2.51 MB all at once), and they still rule out every lag but the
        # winner.
        f, g, lag, scans = zero_run
        assert repr(best_lag(f, g, centered)) == repr(scans[centered])
        assert traced_peak(lambda: best_lag(f, g, centered))[1] <= 2_000_000
        _, per_lag = spy_on_tiers(monkeypatch)
        scored = []

        def counted(*args, **kwargs):
            scored.append(args)
            return correlation(*args, **kwargs)

        monkeypatch.setattr(matching, "correlation", counted)
        assert best_lag(f, g, centered).best_lag == lag
        assert 1 <= len(scored) <= 2
        assert (per_lag[0] > 0) == centered and per_lag[1:] == [0] * 5

    def test_irregular_lags_in_one_block_match_scan(self, monkeypatch):
        # The first FFT block holds a near-constant stretch, values near
        # 1e-150, a NaN run longer than the query, both infinities and a
        # planted copy, among values spread around zero; its other lags
        # share one bound, and these get per-lag bounds.  Values near 1e150
        # make the second block's error bounds too large to share.  Every
        # lag's correlation lies within its bounds, and both modes give
        # the scan's result.
        rng = np.random.default_rng(34)
        k = 40
        step = _fft_length(k, 2**20) - k + 1
        g = rng.normal(size=step + 4000)
        g[2000:2600] = 0.5 + 1e-13 * rng.normal(size=600)
        g[4000:4100] = 1e-150 * (1.0 + rng.random(100))
        g[6000:6100] = np.nan
        g[8000], g[9000] = np.inf, -np.inf
        g[step + 2000 : step + 2005] = 1e150
        f = g[12000 : 12000 + k] + 1e-4 * rng.normal(size=k)
        bounds, per_lag = spy_on_tiers(monkeypatch)
        for centered in (False, True):
            assert_same_match(f, g, centered)
            bounds.clear()
            per_lag.clear()
            # Centered, two pairs at the NaN run's end correlate exactly.
            assert best_lag(f, g, centered).best_lag == (6062 if centered else 12000)
            assert [upper.size for upper, _ in bounds] == [step, g.size - k + 1 - step]
            assert 0 < per_lag[0] < step and per_lag[1] == g.size - k + 1 - step
            upper = np.concatenate([upper for upper, _ in bounds])
            scores = np.full(upper.size, -np.inf)  # -inf where undefined
            for lag in range(upper.size):
                with contextlib.suppress(UndefinedCorrelationError):
                    scores[lag] = correlation(f, g[lag : lag + k], centered)
            defined = np.isfinite(scores)
            assert np.all(scores[defined] <= upper[defined])
            assert bounds[0][1] <= scores[:step].max() and bounds[1][1] <= scores[step:].max()

    @pytest.mark.parametrize("centered", [False, True])
    def test_zero_run_gets_per_lag_bounds_not_rescored(self, monkeypatch, centered):
        # A dropout written as 100 frames of 0.0 instead of NaN, in the
        # first of two FFT blocks of a random walk like the day-long
        # reference, loosens that block's FFT error bounds: centered, most
        # of its lags fall to per-lag bounds, which still rule them out.
        # Scoring those lags directly instead would score thousands.
        k = 1800
        step = _fft_length(k, 2**20) - k + 1
        rng = np.random.default_rng(86400)
        g = 60.0 + np.cumsum(rng.normal(0.0, 0.002, step + k - 1 + 500))
        for start in (2500, 12000):
            g[start : start + rng.integers(50, 400)] = np.nan
        g[4000:4100] = 0.0
        f = g[9000 : 9000 + k] + rng.normal(0.0, 1e-3, k)
        f[rng.choice(k, size=18, replace=False)] = np.nan
        assert repr(best_lag(f, g, centered)) == repr(best_lag_scan(f, g, centered))
        bounds, per_lag = spy_on_tiers(monkeypatch)
        scored = []

        def counted(*args, **kwargs):
            scored.append(args)
            return correlation(*args, **kwargs)

        monkeypatch.setattr(matching, "correlation", counted)
        assert best_lag(f, g, centered).best_lag == 9000
        assert 1 <= len(scored) <= 2
        assert per_lag[0] > 0 or not centered  # uncentered, every lag is regular
        upper, low = bounds[0]
        scores = np.full(step, -np.inf)  # -inf where undefined
        for lag in range(step):
            with contextlib.suppress(UndefinedCorrelationError):
                scores[lag] = correlation(f, g[lag : lag + k], centered)
        defined = np.isfinite(scores)
        assert np.all(scores[defined] <= upper[defined]) and low <= scores.max()

    def test_flat_query_around_the_shift_is_not_decided_by_its_bounds(self, monkeypatch):
        # The reference is mostly exactly 60.0, so the shift is 60.0, and the
        # query is 60 within 1e-13.  Centered, `correlation`'s own rounding
        # then bounds its error by more than 1 at every lag, beyond the range
        # where the bound is derived: no lag is decided by its bound.  A
        # bound that is used has err < 1, so it lies within 2 of the lag's
        # correlation.
        rng = np.random.default_rng(5)
        k = 40
        g = 60.0 + 1e-3 * np.cumsum(rng.normal(size=3000))
        g[1000:2600] = 60.0
        f = 60.0 + 1e-13 * rng.normal(size=k)
        bounds, _ = spy_on_tiers(monkeypatch)
        for centered in (False, True):
            bounds.clear()
            assert_same_match(f, g, centered)
            (upper, _), = bounds
            scores = np.full(upper.size, np.nan)
            for lag in range(upper.size):
                with contextlib.suppress(UndefinedCorrelationError):
                    scores[lag] = correlation(f, g[lag : lag + k], centered)
            used = np.isfinite(upper) & np.isfinite(scores)
            assert np.all(upper[used] - scores[used] < 2)
            assert np.isfinite(upper).any() != centered  # centered, err > 1 at every lag

    def test_gap_handling(self, rng):
        f = rng.normal(size=30) + 60.0
        f[5] = np.nan
        g = np.concatenate([rng.normal(size=50) * 0.01, f + 0.0])
        g[50 + 5] = 17.0  # value at the gap position is ignored
        result = best_lag(f, g)
        assert result.best_lag == 50
        assert result.n_used == 29


class TestFisher:
    def test_equal_correlations(self):
        result = fisher_test(0.9, 0.9, 100)
        assert result.q == 0.0
        assert not result.reject

    def test_close_high_correlations_still_reject(self):
        result = fisher_test(0.9990, 0.9847, 1800)
        expected_q = math.sqrt(1797) * (math.atanh(0.9990) - math.atanh(0.9847))
        assert result.q == pytest.approx(expected_q, abs=1e-12)
        assert abs(result.q) > 1.96
        assert result.reject

    def test_small_sample_tiny_effect(self):
        result = fisher_test(0.51, 0.50, 4)
        assert abs(result.q) < 1.96
        assert not result.reject

    def test_antisymmetry(self):
        a = fisher_test(0.8, 0.3, 50)
        b = fisher_test(0.3, 0.8, 50)
        assert a.q == pytest.approx(-b.q)

    def test_critical_value(self):
        assert fisher_test(0.5, 0.4, 100).critical == pytest.approx(1.959963984540054)

    def test_critical_value_matches_scipy_norm_isf(self):
        for alpha in [*np.logspace(-300, math.log10(0.98), 301), 1e-320]:
            expected = norm.isf(alpha / 2.0)
            assert fisher_test(0.5, 0.4, 100, alpha).critical == pytest.approx(expected, rel=2e-15)

    def test_tiny_alpha_gives_finite_critical_value(self):
        result = fisher_test(0.5, 0.4, 100, alpha=1e-320)
        assert result.critical == pytest.approx(38.29, abs=0.01)
        assert not result.reject

    def test_alpha_without_finite_critical_value_rejected(self):
        with pytest.raises(ValueError, match="finite critical value"):
            fisher_test(0.5, 0.4, 100, alpha=5e-324)

    @pytest.mark.parametrize("args", [
        (1.0, 0.5, 100, 0.05), (0.5, math.nan, 100, 0.05), (0.5, 0.4, 3, 0.05),
        (0.5, 0.4, 10**400, 0.05), (0.5, 0.4, 100, 0.0), (0.5, 0.4, 100, 5e-324),
        (0.5, 0.4, 10.5, 0.05),
    ])
    def test_every_rejection_is_incompatible_input(self, args):
        with pytest.raises(IncompatibleInputError):
            fisher_test(*args)

    def test_largest_float_n_accepted(self):
        n = int(np.finfo(np.float64).max)
        assert fisher_test(0.5, 0.4, n).n == n

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fisher_test(1.0, 0.5, 100)
        with pytest.raises(ValueError):
            fisher_test(0.5, 0.4, 3)
