"""Track-to-reference matching by maximum-correlation lag search.

The default correlation is the uncentered cosine similarity; ENF values
sit around the nominal frequency with milli-hertz variation, so centered
(Pearson) correlation differs materially and must be requested
explicitly.

Lags are 0-based internally; reports use 1-based indexing.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .errors import IncompatibleInputError, UndefinedCorrelationError


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
    """Scan all lags of f against the longer reference g.

    Ties resolve to the smallest lag.  Invalid (NaN) entries are removed
    pairwise per lag; n_used reports the pair count at the winning lag.
    """
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    k = f.size
    if g.size < k:
        raise IncompatibleInputError(
            f"reference length {g.size} shorter than track length {k}"
        )
    best = None
    for lag in range(g.size - k + 1):
        seg = g[lag : lag + k]
        try:
            c = correlation(f, seg, centered=centered)
        except UndefinedCorrelationError:
            continue
        if best is None or c > best.correlation:
            n_used = int(np.sum(~(np.isnan(f) | np.isnan(seg))))
            best = MatchResult(lag, c, centered, n_used)
    if best is None:
        raise UndefinedCorrelationError("correlation undefined at every lag")
    return best


def fisher_test(c1, c2, n, alpha=0.05):
    """Fisher-z test for a difference between two correlation coefficients.

    q = sqrt(n-3) * (atanh(c1) - atanh(c2)); rejects when |q| reaches the
    two-sided normal critical value (1.96 at alpha = 0.05).  Note the
    test assumes independent correlation estimates; applied to
    correlations computed on the same data it is used as stated, without
    a dependency correction.
    """
    if not (abs(c1) < 1.0 and abs(c2) < 1.0):
        raise ValueError("correlations must lie strictly inside (-1, 1)")
    if n <= 3:
        raise ValueError("need n > 3 observations")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    z1 = math.atanh(c1)
    z2 = math.atanh(c2)
    q = math.sqrt(n - 3) * (z1 - z2)
    critical = float(norm.isf(alpha / 2.0))
    if math.isinf(critical):
        raise ValueError(f"alpha {alpha:g} is too small for a finite critical value")
    return FisherTest(z1, z2, q, n, alpha, critical, abs(q) >= critical)
