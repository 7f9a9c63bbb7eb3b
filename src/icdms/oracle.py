"""Independent verification paths for the closed-form rate machinery.

Three oracles, deliberately sharing no computation with the modules they
check: a Monte Carlo differential-entropy estimator (against the
closed-form Gaussian entropy terms), a uniform-grid scalar maximizer
(against the closed-form bin-coefficient optimum), and a loop-based
conditional mutual-information evaluator (against the vectorized joint
summation; the two share only the check of a query's variable names).

Random sampling uses ``numpy.random.Generator`` seeded with PCG64, so every
estimate is bit-reproducible from its seed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .discrete import AxisError, JointPmf, _mi_plan

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

#: Most samples :func:`mc_gaussian_entropy` accepts: the ``-log2 density``
#: of every sample is kept for the mean and the standard error, ``8 * n``
#: bytes, so an unbounded ``n`` is an unbounded allocation.
MAX_MC_SAMPLES = 10**7

#: Most grid points :func:`grid_maximize` accepts, for the same reason: the
#: grid itself is ``8 * steps`` bytes.
MAX_GRID_STEPS = 10**7

#: Rows drawn and substituted at a time by :func:`mc_gaussian_entropy`, and
#: grid points per objective call in :func:`grid_maximize`; it bounds their
#: working memory beyond the per-sample values and the grid.  At 2**14 rows
#: the ``(k, k) @ (k, rows)`` product of every k <= 4 stays within the
#: 2**18 multiply-adds above which OpenBLAS runs a gemm on its thread pool,
#: which on two cores took from 0.14 ms to 8 ms for what takes 0.32 ms on
#: one thread.
MC_CHUNK = 2**14


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


def _integer(name: str, value) -> int:
    """``value`` as a Python int, or a ``ValueError`` naming the argument."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def mc_gaussian_entropy(cov, n: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of the differential entropy of N(0, cov), bits.

    Draws ``n`` samples and averages ``-log2 density``; the sample mean is
    an unbiased estimator of the entropy and the reported standard error is
    the sample standard deviation over ``sqrt(n)``.  The density is
    evaluated by forward substitution on a Cholesky factor and ``slogdet``
    rather than any closed-form entropy expression.  A sample's quadratic form is the
    squared norm of its standard-normal draw, up to rounding, so a z against a closed
    form checks its determinant and ``k * XI``, not whether ``cov`` is the right matrix.

    The samples are drawn and evaluated in chunks of :data:`MC_CHUNK` rows,
    so the working memory is ``8 * n`` bytes plus a few chunk-sized buffers.
    The result does not depend on ``MC_CHUNK``: it is bit for bit that of
    one ``(n, k)`` draw evaluated at once.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] == 0:
        raise NotPositiveDefiniteError("covariance must be a non-empty square matrix")
    if not np.all(np.isfinite(cov)):
        raise NotPositiveDefiniteError("covariance entries must be finite")
    if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-10):
        raise NotPositiveDefiniteError("covariance must be symmetric")
    n = _integer("n", n)
    seed = _integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed}")
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

    # The draw and the substitution go MC_CHUNK rows at a time through
    # reused buffers.  Each works row by row, and PCG64 fills the chunks in
    # the order of one (n, k) draw, so only quad spans all n samples.
    rng = np.random.default_rng(seed)
    rows = min(n, MC_CHUNK)
    zbuf = np.empty((rows, k))
    xbuf = np.empty((k, rows))
    tmp = np.empty(rows)
    quad = np.zeros(n)
    for lo in range(0, n, MC_CHUNK):
        m = min(MC_CHUNK, n - lo)
        z = zbuf[:m]
        rng.standard_normal(out=z)
        # x = z L^T, held as its transpose L z^T so that each coordinate is
        # a contiguous row.
        x = np.matmul(chol, z.T, out=xbuf[:, :m])
        t = tmp[:m]
        # quad = x^T cov^{-1} x = |y|^2 with L y = x, by forward substitution
        # in place: row i of x becomes y_i = (x_i - sum_{j<i} L_ij y_j) / L_ii.
        q = quad[lo : lo + m]
        for i in range(k):
            y = x[i]
            for j in range(i):
                y -= np.multiply(x[j], chol[i, j], out=t)
            y /= chol[i, i]
            q += np.multiply(y, y, out=t)
    # quad becomes -log2 density in place, then its squared deviations, so
    # the standard deviation needs no second n-sized array.
    quad *= 0.5 * LOG2E
    quad += 0.5 * (k * math.log2(2.0 * math.pi) + logdet * LOG2E)
    value = float(np.mean(quad))
    quad -= value
    quad *= quad
    stderr = math.sqrt(float(np.sum(quad)) / (n - 1)) / math.sqrt(n)
    return McEstimate(value, stderr, n, seed)


def grid_maximize(objective, lo: float, hi: float, steps: int) -> tuple[float, float]:
    """Argmax of ``objective`` over a uniform grid of ``steps`` points.

    Deterministic: ties resolve to the smallest argument.  The objective
    may be vectorized or scalar.  It is called on consecutive slices of the
    grid of about :data:`MC_CHUNK` points, never on a single point, so its
    temporaries are bounded whatever ``steps`` is; the result is that of
    one call on the whole grid.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("need finite lo < hi")
    steps = _integer("steps", steps)
    if not 2 <= steps <= MAX_GRID_STEPS:
        raise ValueError(f"need 2 to {MAX_GRID_STEPS} grid points")
    xs = np.linspace(lo, hi, steps)
    # No slice starts at the last point, so the last one may hold
    # MC_CHUNK + 1 points but never one alone.
    bounds = [*range(0, steps - 1, MC_CHUNK), steps]
    best_x = best_value = -math.inf
    for start, stop in zip(bounds, bounds[1:]):
        chunk = xs[start:stop]
        try:
            values = np.asarray(objective(chunk), dtype=float)
            if values.shape != chunk.shape:
                raise TypeError
        except (TypeError, ValueError):
            values = np.array([float(objective(x)) for x in chunk])
        if not np.all(np.isfinite(values)):
            raise NonFiniteObjectiveError("objective is not finite on the grid")
        i = int(np.argmax(values))  # argmax takes the first, i.e. smallest x
        if values[i] > best_value:  # a later tie keeps the smaller x
            best_x, best_value = float(chunk[i]), float(values[i])
    return best_x, best_value


def brute_joint_mi(j: JointPmf, left, right, given=()) -> float:
    """I(left; right | given) in bits by direct cell-by-cell accumulation.

    Second, independently written summation path: loops over every joint
    cell, accumulates the four marginal dictionaries on the fly, and sums
    p * log2(p * p_g / (p_lg * p_rg)).  No marginalization code is shared
    with the vectorized evaluator; only the check of the query's names
    (unknown or overlapping sets raise :class:`AxisError`) is.
    """
    (l_pos, r_pos, g_pos), *_ = _mi_plan(j.axes, left, right, given)

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
        num, den = p * p_g[kg], p_lg[(kl, kg)] * p_rg[(kr, kg)]
        if num > 0.0 and den > 0.0:
            total += p * math.log2(num / den)
        else:  # a product underflowed to 0: take the four logarithms apart
            total += p * (math.log2(p) + math.log2(p_g[kg]) - math.log2(p_lg[(kl, kg)]) - math.log2(p_rg[(kr, kg)]))
    return total if total > 0.0 else 0.0
