"""Tests for the Monte Carlo, grid-search, and brute-force oracles."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mc_solve_oracle import solve_gaussian_entropy

from icdms import (
    XI,
    AlphabetSpec,
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
from icdms.oracle import MAX_GRID_STEPS, MAX_MC_SAMPLES, AxisError


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


@settings(max_examples=200, deadline=None)
@given(spd_covariances(), st.integers(1000, 20_000), st.integers(0, 2**32 - 1))
def test_mc_entropy_matches_solve_oracle(cov, n, seed):
    # Forward substitution and the general solve round differently, so the
    # two estimates agree to the rounding scale 64 eps kappa, relative to
    # max(|value|, 1) because the entropy crosses zero.
    got = mc_gaussian_entropy(cov, n, seed)
    want = solve_gaussian_entropy(cov, n, seed)
    kappa = float(np.prod(np.diag(cov)) / np.linalg.det(cov))
    tol = 64 * np.finfo(float).eps * max(1.0, kappa)
    assert (got.sample_count, got.seed) == (want.sample_count, want.seed)
    for a, b in (
        (got.value_bits, want.value_bits),
        (got.std_error_bits, want.std_error_bits),
    ):
        assert abs(a - b) <= tol * max(abs(b), 1.0)
    assert mc_gaussian_entropy(cov, n, seed) == got


def test_mc_entropy_memory_peak():
    cov = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 3.0]])
    tracemalloc.start()
    try:
        mc_gaussian_entropy(cov, 10**6, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2**20  # the draw alone is 22.9 MiB


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
