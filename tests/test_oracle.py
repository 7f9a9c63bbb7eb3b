"""Tests for the Monte Carlo, grid-search, and brute-force oracles."""

import math

import numpy as np
import pytest

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
