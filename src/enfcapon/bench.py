"""Timing harness: fast Capon path vs dense per-bin evaluation."""

import time

import numpy as np
from scipy.linalg import toeplitz

from . import capon


def _random_covariance(rng, order):
    # Autocorrelation of a random sequence is positive semidefinite;
    # the diagonal boost keeps it safely positive definite.
    seq = rng.normal(size=4 * (order + 1))
    col = np.correlate(seq, seq, mode="full")[seq.size - 1 : seq.size + order]
    col = col / seq.size
    col[0] += 0.1 * abs(col[0]) + 1e-6
    return col


def _fast_path(col, grid_size):
    w, alpha, _ = capon.levinson_solve(col)
    return capon.capon_psd(capon.denom_coeffs(*capon.gs_factors(w, alpha)), grid_size)


def run_bench(order=10, grid_sizes=(1764,), trials=100, seed=0):
    """Median per-frame time for the fast path vs the dense path.

    The dense path inverts the covariance explicitly and evaluates the
    quadratic form at every bin of the full grid in one contraction.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    m_plus_1 = order + 1
    for grid_size in grid_sizes:
        if grid_size < 2 * m_plus_1 - 1:
            raise ValueError(
                f"grid size {grid_size} smaller than 2M-1 = {2 * m_plus_1 - 1}"
            )
    rng = np.random.default_rng(seed)
    covs = [_random_covariance(rng, order) for _ in range(trials)]
    report = {"order": order, "trials": trials, "seed": seed, "grids": []}
    for grid_size in grid_sizes:
        fast_times = []
        dense_times = []
        for cov in covs:
            t0 = time.perf_counter()
            fast = _fast_path(cov, grid_size)
            fast_times.append(time.perf_counter() - t0)

            dense_matrix = toeplitz(cov)
            t0 = time.perf_counter()
            dense = capon.capon_psd_dense(dense_matrix, grid_size)
            dense_times.append(time.perf_counter() - t0)

            # Sanity: both paths agree while we are at it.
            np.testing.assert_allclose(fast, dense, rtol=1e-6)
        fast_median = float(np.median(fast_times))
        dense_median = float(np.median(dense_times))
        report["grids"].append(
            {
                "grid_size": grid_size,
                "fast_median_s": fast_median,
                "dense_median_s": dense_median,
                "speedup": dense_median / fast_median,
            }
        )
    return report
