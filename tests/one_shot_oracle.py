"""Test-only oracle: the Monte Carlo entropy and grid maximizer in one shot.

These are the forms ``mc_gaussian_entropy`` and ``grid_maximize`` had
before they were chunked: the whole ``(n, k)`` draw, its factored copy and
the ``np.std`` of every sample at once, and one objective call and one
``argmax`` over the whole grid.  The chunked functions must match them bit
for bit at every ``n`` and ``steps``.  Input checks are left out; the tests
call these only on valid inputs.
"""

import math

import numpy as np

from icdms.oracle import LOG2E


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
    return float(np.mean(quad)), float(np.std(quad, ddof=1) / math.sqrt(n))


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
