"""Independent verification paths for the closed-form rate machinery.

Three oracles, deliberately sharing no computation with the modules they
check: a Monte Carlo differential-entropy estimator (against the
closed-form Gaussian entropy terms), a uniform-grid scalar maximizer
(against the closed-form bin-coefficient optimum), and a loop-based
conditional mutual-information evaluator (against the vectorized joint
summation).

Random sampling uses ``numpy.random.Generator`` seeded with PCG64, so every
estimate is bit-reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete import AxisError, JointPmf

__all__ = [
    "McEstimate",
    "NotPositiveDefiniteError",
    "NonFiniteObjectiveError",
    "mc_gaussian_entropy",
    "grid_maximize",
    "brute_joint_mi",
]

LOG2E = math.log2(math.e)

#: Fewest samples :func:`mc_gaussian_entropy` accepts.
MIN_MC_SAMPLES = 1000

#: Most samples :func:`mc_gaussian_entropy` accepts: the draw holds
#: ``n * k`` floats, so an unbounded ``n`` is an unbounded allocation.
MAX_MC_SAMPLES = 10**7

#: Most grid points :func:`grid_maximize` accepts, for the same reason.
MAX_GRID_STEPS = 10**7


class NotPositiveDefiniteError(ValueError):
    """Covariance matrix is not symmetric positive definite."""


class NonFiniteObjectiveError(ValueError):
    """Objective produced a NaN or infinity on the search grid."""


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its standard error."""

    value_bits: float
    std_error_bits: float
    sample_count: int
    seed: int


def mc_gaussian_entropy(cov, n: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of the differential entropy of N(0, cov), bits.

    Draws ``n`` samples and averages ``-log2 density``; the sample mean is
    an unbiased estimator of the entropy and the reported standard error is
    the sample standard deviation over ``sqrt(n)``.  The density is
    evaluated through a Cholesky factor and ``slogdet`` rather than any
    closed-form entropy expression.
    """
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


def grid_maximize(objective, lo: float, hi: float, steps: int) -> tuple[float, float]:
    """Argmax of ``objective`` over a uniform grid of ``steps`` points.

    Deterministic: ties resolve to the smallest argument.  The objective
    may be vectorized (called once on the whole grid) or scalar.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if not 2 <= steps <= MAX_GRID_STEPS:
        raise ValueError(f"need 2 to {MAX_GRID_STEPS} grid points")
    xs = np.linspace(lo, hi, steps)
    try:
        values = np.asarray(objective(xs), dtype=float)
        if values.shape != xs.shape:
            raise TypeError
    except (TypeError, ValueError):
        values = np.array([float(objective(x)) for x in xs])
    if not np.all(np.isfinite(values)):
        raise NonFiniteObjectiveError("objective is not finite on the grid")
    best = int(np.argmax(values))  # argmax takes the first, i.e. smallest x
    return float(xs[best]), float(values[best])


def brute_joint_mi(j: JointPmf, left, right, given=()) -> float:
    """I(left; right | given) in bits by direct cell-by-cell accumulation.

    Second, independently written summation path: loops over every joint
    cell, accumulates the four marginal dictionaries on the fly, and sums
    p * log2(p * p_g / (p_lg * p_rg)).  No marginalization code is shared
    with the vectorized evaluator.
    """
    left, right, given = tuple(left), tuple(right), tuple(given)
    position = {name: k for k, name in enumerate(j.axes)}
    for group in (left, right, given):
        for name in group:
            if name not in position:
                raise AxisError(f"unknown variable {name!r}")
    all_names = left + right + given
    if len(set(all_names)) != len(all_names):
        raise AxisError("left/right/given sets must be disjoint")

    l_pos = [position[n] for n in left]
    r_pos = [position[n] for n in right]
    g_pos = [position[n] for n in given]

    p_lrg: dict = {}
    p_lg: dict = {}
    p_rg: dict = {}
    p_g: dict = {}
    table = j.table
    for idx in np.ndindex(table.shape):
        p = float(table[idx])
        if p == 0.0:
            continue
        kl = tuple(idx[a] for a in l_pos)
        kr = tuple(idx[a] for a in r_pos)
        kg = tuple(idx[a] for a in g_pos)
        p_lrg[(kl, kr, kg)] = p_lrg.get((kl, kr, kg), 0.0) + p
        p_lg[(kl, kg)] = p_lg.get((kl, kg), 0.0) + p
        p_rg[(kr, kg)] = p_rg.get((kr, kg), 0.0) + p
        p_g[kg] = p_g.get(kg, 0.0) + p

    total = 0.0
    for (kl, kr, kg), p in p_lrg.items():
        total += p * math.log2(p * p_g[kg] / (p_lg[(kl, kg)] * p_rg[(kr, kg)]))
    return total if total > 0.0 else 0.0
