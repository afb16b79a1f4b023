"""Track-to-reference matching by maximum-correlation lag search.

The default correlation is the uncentered cosine similarity; centered
(Pearson) correlation, which differs materially for ENF values near the
nominal frequency, must be requested explicitly.

FFT sums over every lag's valid pairs (Lewis, "Fast Normalized
Cross-Correlation", 1995) nominate lags; `correlation` scores, in lag
order, those an error bound cannot rule out: the result is a full scan's.
Per reference block, one rfft takes its three series and one irfft per
series gives that series' sums with the query's.

Lags are 0-based internally; reports use 1-based indexing.
"""

import math
import numbers
import sys
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np
from numpy.fft import irfft, rfft

from .errors import IncompatibleInputError, UndefinedCorrelationError

_U = np.finfo(np.float64).eps / 2  # unit roundoff
_FAR = 2.0 ** 16  # how far a regular lag's ff and gg lie above their error bounds
_PART = 2048  # lags given per-lag bounds at a time


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
    first.  NaN entries are removed pairwise.  The result lies in [-1, 1].
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
        if f.min() == f.max() or g_seg.min() == g_seg.max():  # f - f.mean() may round off 0
            raise UndefinedCorrelationError("correlation undefined for constant vector")
        f = f - f.mean()
        g_seg = g_seg - g_seg.mean()
    norm_f = np.linalg.norm(f)
    norm_g = np.linalg.norm(g_seg)
    if norm_f == 0.0 or norm_g == 0.0:
        kind = "constant" if centered else "all-zero"
        raise UndefinedCorrelationError(f"correlation undefined for {kind} vector")
    if not math.isfinite(norm_f * norm_g):
        raise UndefinedCorrelationError("correlation undefined for a vector of infinite norm")
    # Rounding can carry the ratio just past +/-1, e.g. for f = g_seg.
    return min(1.0, max(-1.0, float(f @ g_seg / (norm_f * norm_g))))


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
    finite = f[np.isfinite(f)]  # all equal (centered) or 0: every lag undefined
    if k < 2 or not np.any(finite != (finite[:1] if centered else 0.0)):
        raise UndefinedCorrelationError("correlation undefined at every lag")
    nfft, o = _fft_length(k, g.size), _shift(g)
    low, kept = -np.inf, []
    with np.errstate(all="ignore"):
        a = np.where(np.isfinite(f), f - o, 0.0)
        f_side = np.stack([~np.isnan(f), a, a * a])
        # The query's spectra, its count and sums of |a| and a^2, its largest
        # |a|, and whether it is free of infinities.
        f_side = (np.conj(rfft(f_side, nfft)), np.abs(f_side).sum(1), np.abs(a).max(),
                  not np.isinf(f).any())
        for i in range(0, g.size - k + 1, nfft - k + 1):  # no lag of a block wraps around
            upper, block_low = _bounds(k, f_side, g[i : i + nfft], o, centered, nfft)
            low = max(low, block_low)
            lags = np.flatnonzero(upper >= low)  # later blocks can only raise low
            kept.append((lags + i, upper[lags]))
    lags, upper = (np.concatenate(part) for part in zip(*kept))
    best = None
    for lag in lags[upper >= low].tolist():  # the lags that may win, ascending
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


def _fft_length(k, n):
    """FFT length for a k-frame query along an n-frame reference; each FFT
    block bounds nfft - k + 1 lags.  A 1,800-frame query scans ~15% faster
    in 16,384-point blocks than in 8,192, within ~1.8 MB; 2k rather than 4k
    points halve a long query's blocks at no loss of speed."""
    return 1 << (min(max(2 * k, 16384), n) - 1).bit_length()


def _shift(g):
    """The value both series are shifted by: the median of the finite values
    among at most 4,096 evenly strided reference values, or of all finite
    values if those hold none.  Any shift gives valid bounds; one near the
    values only makes them tight, and a sample serves as well as all."""
    sample = g[:: g.size // 4096 + 1]
    sample = sample[np.isfinite(sample)]
    if not sample.size:
        sample = g[np.isfinite(g)]
    return float(np.median(sample)) if sample.size else 0.0


def _bounds(k, f_side, seg, o, centered, nfft):
    """Upper bounds on `correlation` at the lags of a k-frame query in seg
    (inf if unsure, NaN below two pairs), and the best lower bound.  n and
    s* are each lag's valid-pair count and sums of a = f - o, a^2,
    b = seg - o, ab and b^2, within e*: each is one real series, a product
    of two real series' spectra, through one real transform.  `err` grows
    with n, |c|, 1 / ff and 1 / gg, so E, err at their extremes over the
    regular lags, holds at each of them; the other lags get err at their own
    n, ff, gg and |c|, _PART lags at a time.
    """
    # The series of seg: its valid mask, b = seg - o and b^2, each 0 where
    # seg is not finite.
    series = np.zeros((3, seg.size))
    series[0] = ~np.isnan(seg)
    b = np.subtract(seg, o, out=series[1], where=np.isfinite(seg))
    amax, bmax = f_side[2], max(b.max(), -b.min())
    x, y = [0, 1, 2, 0, 1, 0], [0, 0, 0, 1, 1, 2]  # the series paired in each sum
    e = np.array([series[0].sum(), np.abs(b).sum(), np.square(b, out=series[2]).sum()])
    e = 32 * _U * math.log2(nfft) * f_side[1][x] * e[y]
    spectra = rfft(series, nfft)
    del series, b
    # Series j of seg pairs with the query's first 3 - j series: their
    # products go in place into spectra rows j on, row j's last as the
    # others read it, and one irfft turns them into sums.  b^2 goes first
    # and the mask last, so no spectrum is overwritten before its use.
    fs, sums = f_side[0], np.empty((6, nfft))
    for j, row in (2, 5), (1, 3), (0, 0):
        np.multiply(fs[1 : 3 - j], spectra[j], out=spectra[j + 1 :])
        np.multiply(fs[0], spectra[j], out=spectra[j])
        irfft(spectra[j:], nfft, out=sums[row : row + 3 - j])
    del spectra
    sums = sums[:, : seg.size - k + 1]
    n = np.rint(sums[0], out=sums[0])
    clean = np.full(n.size, f_side[3])  # no infinity at the lag
    if np.isinf(seg).any():
        infs = np.concatenate([[0], np.cumsum(np.isinf(seg))])
        clean &= infs[k:] == infs[:-k]
    K, _, ea, eaa, eb, eab, ebb = f_side[1][0], *e
    two = n >= 2
    p_max, q_max = _centre(sums, o, centered, two)  # |p| and |q| at most
    mf = mg = 0.0  # |p + o| and |q + o| at most: raw sums of squares <= ff + n mf^2
    if centered:
        mf, mg = p_max + abs(o), q_max + abs(o)
    ff, gg, fg = sums[2], sums[5], sums[4]

    def errors(n):
        """Bounds on the errors of ff, gg and fg at lags of 2 to n pairs."""
        return (_about_bound(n, amax, amax, p_max, p_max, eaa, ea, ea),
                _about_bound(n, bmax, bmax, q_max, q_max, ebb, eb, eb),
                _about_bound(n, amax, bmax, p_max, q_max, eab, ea, eb))

    def err(n, ff, gg, c):
        """A bound on |correlation - fg / sqrt(ff gg)|, its rounding included
        (after Higham 2002, section 24.1), at lags of 2 to n pairs, ff and gg
        at least and |fg| / sqrt(ff gg) at most those given."""
        eff, egg, efg = errors(n)
        return 2 * (efg / (np.sqrt(ff) * np.sqrt(gg)) + c * (eff / ff + egg / gg) / 2
                    + (n + 4) * _U * (3 + 2 * (np.sqrt(1 + n * mf * mf / ff)
                                               + np.sqrt(1 + n * mg * mg / gg))))

    eff, egg, _ = errors(K)  # regular lags: ff and gg far above their errors
    regular = two & clean & (ff > _FAR * eff + 1e-250) & (gg > _FAR * egg + 1e-250)
    ffmin, ggmin = ff.min(where=regular, initial=np.inf), gg.min(where=regular, initial=np.inf)
    c = np.sqrt(ff)
    c *= np.sqrt(gg)
    c = np.divide(fg, c, out=c)
    cmax, cmin = c.max(where=regular, initial=-np.inf), c.min(where=regular, initial=np.inf)
    E = err(K, ffmin, ggmin, max(cmax, -cmin))
    upper, low = np.add(c, E, out=c), cmax - E
    if not (E < 1 and K * (max(amax, bmax) + abs(o)) ** 2 < 1e250):
        regular[:], low = False, -np.inf
    rest = np.flatnonzero(~regular)
    for i in range(0, rest.size, _PART):
        part = rest[i : i + _PART]
        n, ff, gg, fg = (sums[row, part] for row in (0, 2, 5, 4))
        c = fg / (np.sqrt(ff) * np.sqrt(gg))  # ff * gg may underflow
        eff, egg, _ = errors(n)
        e = err(n, ff, gg, abs(c))
        sure = (clean[part] & two[part] & (e < 1)
                & (np.minimum(ff - 4 * eff, gg - 4 * egg) > 1e-250)
                & (np.maximum(ff + n * mf * mf, gg + n * mg * mg) < 1e250))  # raw sums of squares
        upper[part] = np.where(two[part], np.where(sure, c + e, np.inf), np.nan)
        low = max(low, np.where(sure, c - e, -np.inf).max())
    return upper, low


def _centre(sums, o, centered, two):
    """Overwrite the sums of a^2, b^2 and ab with ff, gg and fg: the same
    sums about p = sa / n and q = sb / n, or about -o uncentered.  Returns
    |p| and |q| at most over the lags of `two` (|o| uncentered)."""
    n, sa, saa, sb, sab, sbb = sums
    if not centered:
        no2 = n * (o * o)
        saa += 2 * o * sa
        sbb += 2 * o * sb
        sab += o * (sa + sb)
        for row in saa, sbb, sab:
            row += no2
        return abs(o), abs(o)
    p = sa / n
    saa -= p * sa
    sab -= p * sb
    p_max = _abs_max(p, two)
    q = np.divide(sb, n, out=p)  # in p's place: one array fewer at a time
    sbb -= q * sb
    return p_max, _abs_max(q, two)


def _abs_max(x, where):
    """The largest |x| where `where` holds, or 0."""
    return max(x.max(where=where, initial=0.0), -x.min(where=where, initial=0.0))


def _about_bound(k, mx, my, p, q, exy, ex, ey):
    """A bound on the error of the sum of (x - p')(y - q') that `_centre`
    forms, at every lag of 2 to k pairs with |x| <= mx, |y| <= my,
    |p'| <= p and |q'| <= q."""
    sx, sy = k * mx + ex, k * my + ey  # |sx| and |sy| at most
    return (exy + q * ex + p * ey + ex * ey / 2
            + 4 * _U * (k * mx * my + exy + q * sx + p * sy + k * p * q))


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
    if not isinstance(n, numbers.Integral):
        raise IncompatibleInputError("n must be an integer number of observations")
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
