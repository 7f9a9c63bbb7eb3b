"""Test-only oracle: the Monte Carlo entropy estimate with a general solve.

This is the form ``mc_gaussian_entropy`` had before it used forward
substitution: the same PCG64 draw and ``x = z @ chol.T``, then
``np.linalg.solve(chol, x.T)`` for ``L y = x`` and a separate ``neglog2``
array.  The forward-substitution estimate must agree with it to rounding.
"""

import math

import numpy as np

from icdms.oracle import (
    LOG2E,
    MAX_MC_SAMPLES,
    MIN_MC_SAMPLES,
    McEstimate,
    NotPositiveDefiniteError,
)


def solve_gaussian_entropy(cov, n: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of the differential entropy of N(0, cov), bits."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise NotPositiveDefiniteError("covariance must be a square matrix")
    if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-10):
        raise NotPositiveDefiniteError("covariance must be symmetric")
    if n < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} samples")
    if n > MAX_MC_SAMPLES:
        raise ValueError(f"need at most {MAX_MC_SAMPLES} samples")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc

    k = cov.shape[0]
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise NotPositiveDefiniteError("non-positive determinant")

    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, k))
    x = z @ chol.T
    # quad = x^T cov^{-1} x, through the Cholesky factor: L y = x per sample.
    y = np.linalg.solve(chol, x.T)
    quad = np.sum(y * y, axis=0)
    neglog2 = 0.5 * (k * math.log2(2.0 * math.pi) + logdet * LOG2E) + 0.5 * quad * LOG2E
    value = float(np.mean(neglog2))
    stderr = float(np.std(neglog2, ddof=1) / math.sqrt(n))
    return McEstimate(value, stderr, n, seed)
