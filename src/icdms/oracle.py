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

from .discrete import JointPmf, _mi_plan

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

#: Most samples :func:`mc_gaussian_entropy` accepts.  Its memory does not
#: grow with ``n``, so the cap bounds run time, not memory: one estimate of a
#: 3 x 3 covariance at the cap took 0.54 s on one core of a 2-vCPU Xeon.
MAX_MC_SAMPLES = 10**7

#: Most grid points :func:`grid_maximize` accepts: the grid itself is
#: ``8 * steps`` bytes, so an unbounded ``steps`` is an unbounded allocation.
MAX_GRID_STEPS = 10**7

#: Rows drawn and substituted at a time by :func:`mc_gaussian_entropy`, and
#: grid points per objective call in :func:`grid_maximize`; it bounds the
#: estimator's working memory, and the grid maximizer's beyond its grid.  At
#: 2**14 rows the ``(k, k) @ (k, rows)`` product of every k <= 4 stays
#: within the 2**18 multiply-adds above which OpenBLAS runs a gemm on its
#: thread pool, which on two cores took from 0.14 ms to 8 ms for what takes
#: 0.32 ms on one thread.
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


def _merge(a: tuple[int, float, float], b: tuple[int, float, float]) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations) of two runs of samples, ``a``
    before ``b``, by the pairwise update of Chan, Golub & LeVeque."""
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    n = na + nb
    delta = mean_b - mean_a
    return n, mean_a + delta * nb / n, m2_a + m2_b + delta * delta * na * nb / n


def mc_gaussian_entropy(cov, n: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of the differential entropy of N(0, cov), bits.

    Draws ``n`` samples and averages ``-log2 density``; the sample mean is
    an unbiased estimator of the entropy and the reported standard error is
    the sample standard deviation over ``sqrt(n)``.  The density is
    evaluated by forward substitution on a Cholesky factor and ``slogdet``
    rather than any closed-form entropy expression.  A sample's quadratic form is the
    squared norm of its standard-normal draw, up to rounding, so a z against a closed
    form checks its determinant and ``k * XI``, not whether ``cov`` is the right matrix.

    The samples are drawn and evaluated in chunks of :data:`MC_CHUNK` rows
    through a few chunk-sized buffers, whatever ``n`` is.  Each chunk is
    reduced to its count, mean and sum of squared deviations, and the chunks
    are combined in a fixed pairwise tree by the update of Chan, Golub &
    LeVeque ("Algorithms for computing the sample variance", The American
    Statistician 37(3), 1983).  The result is bit for bit that of one
    ``(n, k)`` draw evaluated at once and reduced by the same tree; for
    ``n <= MC_CHUNK`` that is its ``np.mean`` and ``np.std(ddof=1)``.  The
    function keeps no state between calls, so calls may run on threads.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] == 0:
        raise NotPositiveDefiniteError("covariance must be a non-empty square matrix")
    if not np.all(np.isfinite(cov)):
        raise NotPositiveDefiniteError("covariance entries must be finite")
    # Asymmetry relative to sqrt(c_ii c_jj), which bounds |c_ij| of an SPD
    # matrix, so the test does not depend on the covariance's scale.
    root = np.sqrt(np.abs(np.diag(cov)))
    if np.any(np.abs(cov - cov.T) > 1e-10 * np.outer(root, root)):
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
    # the order of one (n, k) draw.  Each chunk leaves only its (count, mean,
    # sum of squared deviations).  The top two partials on the stack are
    # merged while they hold as many samples, a binary counter over the
    # chunks; what is left is merged from the top down.
    rng = np.random.default_rng(seed)
    rows = min(n, MC_CHUNK)
    zbuf = np.empty((rows, k))
    xbuf = np.empty((k, rows))
    tmp = np.empty(rows)
    qbuf = np.empty(rows)
    const = 0.5 * (k * math.log2(2.0 * math.pi) + logdet * LOG2E)
    stack: list[tuple[int, float, float]] = []
    for lo in range(0, n, MC_CHUNK):
        m = min(MC_CHUNK, n - lo)
        z = zbuf[:m]
        rng.standard_normal(out=z)
        # x = z L^T, held as its transpose L z^T so that each coordinate is
        # a contiguous row.
        x = np.matmul(chol, z.T, out=xbuf[:, :m])
        t = tmp[:m]
        # q = x^T cov^{-1} x = |y|^2 with L y = x, by forward substitution
        # in place: row i of x becomes y_i = (x_i - sum_{j<i} L_ij y_j) / L_ii.
        q = qbuf[:m]
        for i in range(k):
            y = x[i]
            for j in range(i):
                y -= np.multiply(x[j], chol[i, j], out=t)
            y /= chol[i, i]
            if i:
                q += np.multiply(y, y, out=t)
            else:
                np.multiply(y, y, out=q)
        # q becomes -log2 density in place, then its squared deviations.
        q *= 0.5 * LOG2E
        q += const
        mean = float(np.mean(q))
        q -= mean
        q *= q
        part = (m, mean, float(np.sum(q)))
        while stack and stack[-1][0] == part[0]:
            part = _merge(stack.pop(), part)
        stack.append(part)
    part = stack.pop()
    while stack:
        part = _merge(stack.pop(), part)
    _, value, m2 = part
    stderr = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
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
    (unknown or overlapping sets raise :class:`icdms.discrete.AxisError`) is.
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
