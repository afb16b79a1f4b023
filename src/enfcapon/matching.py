"""Track-to-reference matching by maximum-correlation lag search.

The default correlation is the uncentered cosine similarity; ENF values
sit around the nominal frequency with milli-hertz variation, so centered
(Pearson) correlation differs materially and must be requested
explicitly.

FFT sums over every lag's valid pairs (Lewis, "Fast Normalized
Cross-Correlation", 1995) nominate lags; `correlation` scores, in lag
order, those an error bound cannot rule out: the result is a full scan's.

Lags are 0-based internally; reports use 1-based indexing.
"""

import math
import sys
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np
from numpy.fft import irfft, rfft

from .errors import IncompatibleInputError, UndefinedCorrelationError

_U = np.finfo(np.float64).eps / 2  # unit roundoff


@dataclass(frozen=True)
class MatchResult:
    best_lag: int          # 0-based
    correlation: float
    centered: bool
    n_used: int

    @property
    def lag_one_based(self):
        return self.best_lag + 1


@dataclass(frozen=True)
class FisherTest:
    z1: float
    z2: float
    q: float
    n: int
    alpha: float
    critical: float
    reject: bool


def correlation(f, g_seg, centered=False):
    """Sample correlation between equal-length vectors.

    Uncentered mode is cosine similarity; centered subtracts the means
    first.  NaN entries are removed pairwise.
    """
    f = np.asarray(f, dtype=np.float64)
    g_seg = np.asarray(g_seg, dtype=np.float64)
    if f.shape != g_seg.shape or f.ndim != 1:
        raise ValueError("vectors must be 1-D and of equal length")
    keep = ~(np.isnan(f) | np.isnan(g_seg))
    f, g_seg = f[keep], g_seg[keep]
    if f.size < 2:
        raise UndefinedCorrelationError(
            f"only {f.size} valid pairs, need at least 2"
        )
    if centered:
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf would warn
            if not math.isfinite(f.sum() + g_seg.sum()):  # then a norm overflows too
                raise UndefinedCorrelationError(
                    "correlation undefined for a vector of infinite norm")
        f = f - f.mean()
        g_seg = g_seg - g_seg.mean()
    norm_f = np.linalg.norm(f)
    norm_g = np.linalg.norm(g_seg)
    if norm_f == 0.0 or norm_g == 0.0:
        kind = "constant" if centered else "all-zero"
        raise UndefinedCorrelationError(f"correlation undefined for {kind} vector")
    if not math.isfinite(norm_f * norm_g):
        raise UndefinedCorrelationError("correlation undefined for a vector of infinite norm")
    return float(f @ g_seg / (norm_f * norm_g))


def best_lag(f, g, centered=False):
    """Best lag of f along the longer reference g.

    Ties resolve to the smallest lag.  Invalid (NaN) entries are removed
    pairwise per lag; n_used reports the pair count at the winning lag.
    """
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if f.ndim != 1 or g.ndim != 1:
        raise ValueError("vectors must be 1-D")
    k = f.size
    if g.size < k:
        raise IncompatibleInputError(f"reference length {g.size} shorter than track length {k}")
    if k < 2:
        raise UndefinedCorrelationError("correlation undefined at every lag")
    nfft = 1 << (min(max(4 * k, 8192), g.size) - 1).bit_length()
    o = float(np.median(g[np.isfinite(g)])) if np.isfinite(g).any() else 0.0
    upper, low = np.full(g.size - k + 1, np.nan), -np.inf
    with np.errstate(all="ignore"):
        a = np.where(np.isfinite(f), f - o, 0.0)
        f_side = np.stack([~np.isnan(f), a, a * a])
        f_side = np.conj(rfft(f_side, nfft)), 32 * _U * math.log2(nfft) * np.abs(f_side).sum(1)
        for i in range(0, upper.size, nfft - k + 1):  # no lag of a block wraps around
            low = max(low, _bounds(f, f_side, g[i : i + nfft], o, centered, nfft, upper[i:]))
    best = None
    for lag in np.flatnonzero(upper >= low).tolist():  # the lags that may win, ascending
        seg = g[lag : lag + k]
        try:
            c = correlation(f, seg, centered=centered)
        except UndefinedCorrelationError:
            continue
        if best is None or c > best.correlation:
            best = MatchResult(lag, c, centered, int(np.sum(~np.isnan(f) & ~np.isnan(seg))))
    if best is None:
        raise UndefinedCorrelationError("correlation undefined at every lag")
    return best


def _about(sxy, sx, sy, n, p, q, exy, ex, ey):
    """Sum of (x - p)(y - q) from the raw sums, and a bound on its error."""
    t = (sxy, -q * sx, -p * sy, n * p * q)
    return sum(t), exy + abs(q) * ex + abs(p) * ey + ex * ey / n + 4 * _U * sum(map(abs, t))


def _bounds(f, f_side, seg, o, centered, nfft, upper):
    """Fill upper with bounds on `correlation` at the lags of f in seg (inf if
    unsure, NaN below two pairs) and return the best lower bound.  n and s*
    are each lag's valid-pair count and sums of a = f - o, a^2, b = seg - o,
    ab and b^2, within e* (after Higham 2002, section 24.1).  Sure lags have
    a defined `correlation` within err of c; err adds its own rounding.
    """
    b = np.where(np.isfinite(seg), seg - o, 0.0)
    g_side = np.stack([~np.isnan(seg), b, b * b])
    x, y = [0, 1, 2, 0, 1, 0], [0, 0, 0, 1, 1, 2]  # the series paired in each sum
    sums = irfft(f_side[0][x] * rfft(g_side, nfft)[y], nfft)[:, : seg.size - f.size + 1]
    n, sa, saa, sb, sab, sbb = np.rint(sums[0]), *sums[1:]
    _, ea, eaa, eb, eab, ebb = f_side[1][x] * np.abs(g_side).sum(1)[y]
    p, q = (sa / n, sb / n) if centered else (-o, -o)
    ff, eff = _about(saa, sa, sa, n, p, p, eaa, ea, ea)
    gg, egg = _about(sbb, sb, sb, n, q, q, ebb, eb, eb)
    fg, efg = _about(sab, sa, sb, n, p, q, eab, ea, eb)
    f2, g2 = ff + n * (p + o) ** 2, gg + n * (q + o) ** 2  # raw sums of squares
    den = np.sqrt(ff) * np.sqrt(gg)  # ff * gg may underflow
    c = fg / den
    err = 2 * (efg / den + abs(c) * (eff / ff + egg / gg) / 2
               + (n + 4) * _U * (3 + 2 * (np.sqrt(f2 / ff) + np.sqrt(g2 / gg))))
    infs = np.concatenate([[0], np.cumsum(np.isinf(seg))])
    sure = ((infs[f.size :] == infs[: -f.size]) & ~np.isinf(f).any() & (n >= 2) & (err < 1)
            & (np.minimum(ff - 4 * eff, gg - 4 * egg) > 1e-250) & (np.maximum(f2, g2) < 1e250))
    upper[: n.size] = np.where(n >= 2, np.where(sure, c + err, np.inf), np.nan)
    return np.where(sure, c - err, -np.inf).max()


def fisher_test(c1, c2, n, alpha=0.05):
    """Fisher-z test for a difference between two correlation coefficients.

    q = sqrt(n-3) * (atanh(c1) - atanh(c2)); rejects when |q| reaches the
    two-sided normal critical value (1.96 at alpha = 0.05).  Note the
    test assumes independent correlation estimates; applied to
    correlations computed on the same data it is used as stated, without
    a dependency correction.  Every rejection is an IncompatibleInputError.
    """
    if not (abs(c1) < 1.0 and abs(c2) < 1.0):
        raise IncompatibleInputError("correlations must lie strictly inside (-1, 1)")
    if not 3 < n <= sys.float_info.max:  # beyond it, sqrt(n - 3) overflows
        raise IncompatibleInputError(f"need 3 < n <= {sys.float_info.max:g} observations")
    if not 0.0 < alpha < 1.0:
        raise IncompatibleInputError("alpha must lie in (0, 1)")
    z1 = math.atanh(c1)
    z2 = math.atanh(c2)
    q = math.sqrt(n - 3) * (z1 - z2)
    if alpha / 2.0 == 0.0:
        raise IncompatibleInputError(f"alpha {alpha:g} is too small for a finite critical value")
    critical = -NormalDist().inv_cdf(alpha / 2.0)
    return FisherTest(z1, z2, q, n, alpha, critical, abs(q) >= critical)
