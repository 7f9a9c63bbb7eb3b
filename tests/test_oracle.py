"""Tests for the Monte Carlo, grid-search, and brute-force oracles."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from helpers import bits, traced_peak
from hypothesis import example, given, settings, strategies as st
from one_shot_oracle import one_shot_grid_maximize, one_shot_mc_gaussian_entropy

from icdms import (
    XI,
    AlphabetSpec,
    AxisError,
    JointPmf,
    NonFiniteObjectiveError,
    NotPositiveDefiniteError,
    assemble_joint,
    brute_joint_mi,
    conditional_mi,
    grid_maximize,
    mc_gaussian_entropy,
    random_star,
)
from icdms.oracle import MAX_GRID_STEPS, MAX_MC_SAMPLES, MC_CHUNK

# The Cholesky factor's sub-diagonal exceeds its diagonal in both, which is
# where a general solve pivots rows and loses the last bits.
ILL_CONDITIONED = (
    np.array([[1e-6, 1e-5, 0.0], [1e-5, 1e6, 0.0], [0.0, 0.0, 1.0]]),
    np.array([[1e-6, 1.19e-6], [1.19e-6, 1e8]]),
)


def test_mc_entropy_unit_gaussian():
    est = mc_gaussian_entropy(np.eye(1), 10**6, seed=42)
    assert est.sample_count == 10**6 and est.seed == 42
    assert est.std_error_bits > 0.0
    assert abs(est.value_bits - XI) <= 3.0 * est.std_error_bits


def test_mc_entropy_scaling_law():
    a = mc_gaussian_entropy(np.eye(1), 10**6, seed=1)
    b = mc_gaussian_entropy(4.0 * np.eye(1), 10**6, seed=2)
    se = math.hypot(a.std_error_bits, b.std_error_bits)
    assert abs((b.value_bits - a.value_bits) - 1.0) <= 3.0 * se


def test_mc_entropy_matches_closed_form_3d():
    cov = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 3.0]])
    est = mc_gaussian_entropy(cov, 10**6, seed=3)
    closed = 3 * XI + 0.5 * math.log2(np.linalg.det(cov))
    assert abs(est.value_bits - closed) <= 3.0 * est.std_error_bits


def test_mc_entropy_std_error_shrinks_like_sqrt_n():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    small = mc_gaussian_entropy(cov, 50_000, seed=9)
    large = mc_gaussian_entropy(cov, 200_000, seed=9)
    ratio = small.std_error_bits / large.std_error_bits
    assert 1.8 <= ratio <= 2.2


def test_mc_entropy_reproducible():
    cov = np.array([[1.0, 0.2], [0.2, 1.0]])
    a = mc_gaussian_entropy(cov, 10_000, seed=77)
    b = mc_gaussian_entropy(cov, 10_000, seed=77)
    c = mc_gaussian_entropy(cov, 10_000, seed=78)
    assert a == b
    assert a.value_bits != c.value_bits


def test_mc_entropy_rejects_bad_inputs():
    with pytest.raises(NotPositiveDefiniteError):
        mc_gaussian_entropy(np.array([[1.0, 2.0], [2.0, 1.0]]), 10_000, seed=0)
    with pytest.raises(NotPositiveDefiniteError):
        mc_gaussian_entropy(np.array([[1.0, 0.5], [0.4, 1.0]]), 10_000, seed=0)
    with pytest.raises(ValueError):
        mc_gaussian_entropy(np.eye(2), 10, seed=0)
    with pytest.raises(ValueError):  # raised before any sample is drawn
        mc_gaussian_entropy(np.eye(2), MAX_MC_SAMPLES + 1, seed=0)
    with pytest.raises(NotPositiveDefiniteError, match="finite"):
        mc_gaussian_entropy(np.array([[1.0, 0.0], [0.0, np.inf]]), 10_000, seed=0)
    with pytest.raises(NotPositiveDefiniteError, match="finite"):
        mc_gaussian_entropy(np.array([[1.0, np.nan], [np.nan, 1.0]]), 10_000, seed=0)
    with pytest.raises(NotPositiveDefiniteError):  # no entropy, no std error
        mc_gaussian_entropy(np.zeros((0, 0)), 10_000, seed=0)
    with pytest.raises(ValueError, match="n must be an integer"):
        mc_gaussian_entropy(np.eye(2), 1000.0, seed=0)
    with pytest.raises(ValueError, match="seed must be an integer"):
        mc_gaussian_entropy(np.eye(2), 1000, seed=1.5)
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        mc_gaussian_entropy(np.eye(2), 1000, seed=-1)


@st.composite
def spd_covariances(draw):
    """D C D with C = L L^T for a unit lower-triangular L: SPD, with
    diagonal scales 1e-4..1e4 and kappa = prod(diag) / det up to ~190."""
    k = draw(st.integers(1, 3))
    lower = np.eye(k)
    for i in range(k):
        for j in range(i):
            lower[i, j] = draw(st.floats(-3.0, 3.0))
    d = 10.0 ** np.array([draw(st.floats(-4.0, 4.0)) for _ in range(k)])
    cov = d[:, None] * (lower @ lower.T) * d[None, :]
    return 0.5 * (cov + cov.T)  # exactly symmetric


def exact_entropy(cov, n: int, seed: int) -> tuple[float, float]:
    """Mean and standard error, in bits, of -log2 density over the draw of
    ``mc_gaussian_entropy(cov, n, seed)``, in 50-digit arithmetic.

    The draw is x = L z for the same PCG64 normals z and the double
    Cholesky factor L of ``cov``; the density is that of N(0, cov) at x, so
    its quadratic form is z^T M z with M = L^T cov^-1 L.
    """
    k = cov.shape[0]
    z = np.random.default_rng(seed).standard_normal((n, k))
    with mpmath.workdps(50):
        sigma = mpmath.matrix(cov.tolist())
        lower = mpmath.matrix(np.linalg.cholesky(cov).tolist())
        m = lower.T * sigma**-1 * lower
        pairs = [(i, j) for i in range(k) for j in range(i + 1)]
        coef = [m[i, j] * (1 if i == j else 2) for i, j in pairs]
        const = (k * mpmath.log(2 * mpmath.pi) + mpmath.log(mpmath.det(sigma))) / 2
        values = []
        for draw in z.tolist():
            w = [mpmath.mpf(v) for v in draw]
            values.append(const + mpmath.fdot(coef, [w[i] * w[j] for i, j in pairs]) / 2)
        mean = mpmath.fsum(values) / n
        var = mpmath.fsum((v - mean) ** 2 for v in values) / (n - 1)
        ln2 = mpmath.log(2)
        return float(mean / ln2), float(mpmath.sqrt(var / n) / ln2)


@settings(max_examples=200, deadline=None)
@given(spd_covariances(), st.integers(0, 2**32 - 1))
@example(ILL_CONDITIONED[0], 0)
@example(ILL_CONDITIONED[1], 0)
def test_mc_entropy_matches_exact_reference(cov, seed):
    # Forward substitution is within the rounding scale 64 eps kappa of the
    # exact value of the same draw, relative to max(|value|, 1) because the
    # entropy crosses zero.
    n = 1000
    got = mc_gaussian_entropy(cov, n, seed)
    kappa = float(np.prod(np.diag(cov)) / np.linalg.det(cov))
    tol = 64 * np.finfo(float).eps * max(1.0, kappa)
    assert (got.sample_count, got.seed) == (n, seed)
    for a, b in zip((got.value_bits, got.std_error_bits), exact_entropy(cov, n, seed)):
        assert abs(a - b) <= tol * max(abs(b), 1.0)
    assert mc_gaussian_entropy(cov, n, seed) == got


@settings(max_examples=50, deadline=None)
@given(spd_covariances(), st.integers(0, 2**32 - 1))
@example(ILL_CONDITIONED[0], 0)
@example(ILL_CONDITIONED[1], 0)
def test_mc_entropy_is_one_shot_across_chunk_edges(cov, seed):
    # The chunked draw and substitution are bit for bit the one-shot ones,
    # with a short last chunk, none, and a one-row last chunk.
    for n in (MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1, 3 * MC_CHUNK + 7):
        got = mc_gaussian_entropy(cov, n, seed)
        want = one_shot_mc_gaussian_entropy(cov, n, seed)
        np.testing.assert_array_equal(
            bits([got.value_bits, got.std_error_bits]), bits(want), err_msg=str(n)
        )


#: Grids one point short of a slice, a short last slice, a last slice one
#: point long (merged into the slice before it) and a last slice of three.
GRID_EDGES = (MC_CHUNK - 1, 4 * MC_CHUNK - 1, 4 * MC_CHUNK + 1, 8 * MC_CHUNK + 3)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(GRID_EDGES),
    st.floats(-10.0, 10.0),
    st.floats(0.01, 20.0),
    st.floats(0.1, 50.0),
    st.integers(0, 4),
)
def test_grid_maximize_is_one_shot_across_chunk_edges(steps, lo, width, freq, digits):
    # Rounding the cosine makes its maximum tie across several slices; the
    # first, smallest x must still win.
    def objective(x):
        return np.round(np.cos(freq * x), digits)

    got = grid_maximize(objective, lo, lo + width, steps)
    np.testing.assert_array_equal(
        bits(got), bits(one_shot_grid_maximize(objective, lo, lo + width, steps))
    )


@pytest.mark.parametrize("steps", GRID_EDGES)
@pytest.mark.parametrize(
    "objective",
    [
        lambda x: np.zeros_like(x),  # every point ties
        lambda x: round(math.cos(7.0 * x), 2),  # scalar only, with ties
    ],
    ids=["constant", "scalar"],
)
def test_grid_maximize_ties_and_scalars_across_chunk_edges(objective, steps):
    got = grid_maximize(objective, -1.0, 2.0, steps)
    np.testing.assert_array_equal(
        bits(got), bits(one_shot_grid_maximize(objective, -1.0, 2.0, steps))
    )


def test_grid_maximize_slices_hold_at_least_two_points():
    sizes = []

    def objective(x):
        sizes.append(x.size)
        return -x

    for steps in (2, MC_CHUNK, MC_CHUNK + 1, MC_CHUNK + 2):
        sizes.clear()
        assert grid_maximize(objective, 0.0, 1.0, steps) == (0.0, -0.0)
        assert sum(sizes) == steps and min(sizes) >= 2 and max(sizes) <= MC_CHUNK + 1


def test_mc_entropy_memory_peak():
    # Only the per-sample values span all n samples (8 n bytes); the draw
    # and its factored copy go MC_CHUNK rows at a time.  The one-shot draw
    # alone was 22.9 MiB at n = 10^6.
    cov = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 3.0]])
    for n in (10**6, 4 * 10**6):
        _, peak = traced_peak(lambda: mc_gaussian_entropy(cov, n, seed=3))
        assert peak < 8 * n + 8 * 2**20, n


def test_grid_maximize_memory_peak():
    # Only the grid spans all points (8 steps bytes); the objective's
    # temporaries span one slice.
    steps = 4 * 10**6
    _, peak = traced_peak(lambda: grid_maximize(lambda x: -((x - 1.0) ** 2), 0.0, 2.0, steps))
    assert peak < 8 * steps + 8 * 2**20


def test_grid_maximize_parabola():
    arg, value = grid_maximize(lambda x: -((x - 1.0) ** 2), 0.0, 2.0, 201)
    assert arg == pytest.approx(1.0, abs=0)
    assert value == pytest.approx(0.0, abs=0)


def test_grid_maximize_constant_ties_to_smallest():
    arg, value = grid_maximize(lambda x: np.zeros_like(x), 0.5, 2.0, 31)
    assert arg == 0.5 and value == 0.0


def test_grid_maximize_scalar_objective():
    arg, _ = grid_maximize(lambda x: -abs(float(x) - 0.75), 0.0, 1.0, 5)
    assert arg == 0.75


def test_grid_maximize_evaluates_a_wrongly_shaped_objective_point_by_point():
    # Called on an array, this objective returns one number, not one per
    # point, so every point is evaluated again on its own.
    calls = []

    def objective(x):
        calls.append(np.ndim(x))
        return -np.sum((np.asarray(x) - 0.75) ** 2)

    assert grid_maximize(objective, 0.0, 1.0, 5) == (0.75, 0.0)
    assert calls == [1, 0, 0, 0, 0, 0]


def test_grid_maximize_errors():
    with pytest.raises(NonFiniteObjectiveError):
        grid_maximize(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0, 11)
    with pytest.raises(ValueError):
        grid_maximize(lambda x: x, 1.0, 0.0, 11)
    with pytest.raises(ValueError):
        grid_maximize(lambda x: x, 0.0, 1.0, 1)
    with pytest.raises(ValueError):  # raised before the grid is built
        grid_maximize(lambda x: x, 0.0, 1.0, MAX_GRID_STEPS + 1)
    with pytest.raises(ValueError, match="steps must be an integer"):
        grid_maximize(lambda x: x, 0.0, 1.0, 11.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nothing reaches linspace
        for lo, hi in ((0.0, math.inf), (-math.inf, 0.0)):
            with pytest.raises(ValueError, match="need finite lo < hi"):
                grid_maximize(lambda x: x, lo, hi, 11)


def test_brute_mi_correlated_bits():
    table = np.zeros((2, 2))
    table[0, 0] = table[1, 1] = 0.5
    j = JointPmf(table, ("x", "y"))
    assert brute_joint_mi(j, ("x",), ("y",)) == pytest.approx(1.0, abs=1e-15)


def test_brute_mi_independent():
    j = JointPmf(np.full((2, 2), 0.25), ("x", "y"))
    assert brute_joint_mi(j, ("x",), ("y",)) == 0.0


def test_brute_mi_axis_errors():
    j = JointPmf(np.full((2, 2), 0.25), ("x", "y"))
    with pytest.raises(AxisError):
        brute_joint_mi(j, ("x",), ("z",))
    with pytest.raises(AxisError):
        brute_joint_mi(j, ("x",), ("y",), ("x",))


def test_brute_matches_vectorized_on_random_draws():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(20):
        fd = random_star(AlphabetSpec(), rng)
        j = assemble_joint(fd)
        for left, right, given in (
            (("w",), ("y1",), ("u", "q")),
            (("u", "v"), ("y2",), ("q",)),
            (("v",), ("w",), ("q",)),
            (("u",), ("y2",), ()),
        ):
            a = conditional_mi(j, left, right, given)
            b = brute_joint_mi(j, left, right, given)
            worst = max(worst, abs(a - b))
    assert worst <= 1e-12
