"""Test-only oracle: the Monte Carlo entropy and grid maximizer in one shot.

These are the forms ``mc_gaussian_entropy`` and ``grid_maximize`` had
before they were chunked: the whole ``(n, k)`` draw and its factored copy
at once, and one objective call and one ``argmax`` over the whole grid.
The chunked functions must match them bit for bit at every ``n`` and
``steps``.  The estimator's per-sample values are reduced here by the tree
``mc_gaussian_entropy`` states, restated as a recursion over the whole
array: each ``MC_CHUNK`` slice gives its ``np.mean`` and the sum of its
squared deviations, and a run of slices is split into its longest
power-of-two prefix shorter than the run and the rest.  Input checks are
left out; the tests call these only on valid inputs.
"""

import math

import numpy as np

from icdms.oracle import LOG2E, MC_CHUNK


def _reduce(values: np.ndarray, slices: int) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations) of ``values``, which spans
    ``slices`` slices of ``MC_CHUNK``, by Chan, Golub & LeVeque's update."""
    if slices == 1:
        mean = float(np.mean(values))
        return values.size, mean, float(np.sum((values - mean) ** 2))
    half = 1 << ((slices - 1).bit_length() - 1)
    na, mean_a, m2_a = _reduce(values[: half * MC_CHUNK], half)
    nb, mean_b, m2_b = _reduce(values[half * MC_CHUNK :], slices - half)
    n = na + nb
    delta = mean_b - mean_a
    return n, mean_a + delta * nb / n, m2_a + m2_b + delta * delta * na * nb / n


def one_shot_mc_gaussian_entropy(cov, n: int, seed: int) -> tuple[float, float]:
    """``(value_bits, std_error_bits)`` of ``mc_gaussian_entropy(cov, n, seed)``."""
    cov = np.asarray(cov, dtype=float)
    k = cov.shape[0]
    chol = np.linalg.cholesky(cov)
    _, logdet = np.linalg.slogdet(cov)
    z = np.random.default_rng(seed).standard_normal((n, k))
    x = chol @ z.T
    quad = np.zeros(n)
    for i in range(k):
        y = x[i]
        for j in range(i):
            y -= chol[i, j] * x[j]
        y /= chol[i, i]
        quad += y * y
    quad *= 0.5 * LOG2E
    quad += 0.5 * (k * math.log2(2.0 * math.pi) + logdet * LOG2E)
    _, mean, m2 = _reduce(quad, -(-n // MC_CHUNK))
    return mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n)


def one_shot_grid_maximize(objective, lo: float, hi: float, steps: int):
    """``grid_maximize(objective, lo, hi, steps)`` with one objective call."""
    xs = np.linspace(lo, hi, steps)
    try:
        values = np.asarray(objective(xs), dtype=float)
        if values.shape != xs.shape:
            raise TypeError
    except (TypeError, ValueError):
        values = np.array([float(objective(x)) for x in xs])
    best = int(np.argmax(values))
    return float(xs[best]), float(values[best])
