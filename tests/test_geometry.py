"""Tests for frontier sampling, unions, sweeps, and frontier diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest
from cognitive_outer_bound import outer_bound_excess
from g_loop_oracle import loop_sweep_g
from hypothesis import given, settings, strategies as st

from icdms import (
    AxisGrid,
    ChannelParams,
    EmptyRegionError,
    EmptyUnionError,
    Frontier,
    GridMismatchError,
    PentagonRegion,
    SweepGrid,
    convexity_defect,
    default_grid,
    inclusion_gap,
    pentagon_frontier,
    region_g_sp1,
    sweep_gaussian,
    time_sharing_hull,
    union_frontier,
)
from icdms.geometry import MAX_R1_SAMPLES, SampleCapError, _union_arrays

FIG4 = ChannelParams(p1=6.0, p2=6.0, c12=0.0, c21=0.3)


def test_pentagon_frontier_slack_sum():
    f = pentagon_frontier(PentagonRegion(1.0, 1.0, 2.0), step=0.25)
    np.testing.assert_allclose(f.r1, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0)
    np.testing.assert_allclose(f.r2, 1.0, atol=0)
    assert f.reach == 1.0 and f.reach_r2 == 1.0


def test_pentagon_frontier_piecewise():
    f = pentagon_frontier(PentagonRegion(1.0, 1.0, 1.5), step=0.25)
    np.testing.assert_allclose(f.r2, [1.0, 1.0, 1.0, 0.75, 0.5], atol=1e-15)
    assert f.reach == 1.0 and f.reach_r2 == pytest.approx(0.5, abs=1e-15)


def test_pentagon_frontier_binding_sum_limits_reach():
    # When the sum bound is tighter than r1_max, points beyond it are not
    # in the pentagon and must not be sampled.
    f = pentagon_frontier(PentagonRegion(2.0, 1.0, 1.2), step=0.25)
    assert f.reach == pytest.approx(1.2, abs=0)
    assert f.r1[-1] == pytest.approx(1.0, abs=1e-15)
    assert f.reach_r2 == pytest.approx(0.0, abs=0)


def test_pentagon_frontier_rectangle_from_sp1_corner():
    # The low-interference corner region is a rectangle: sum bound slack.
    region = region_g_sp1(FIG4, 1.0)
    f = pentagon_frontier(region, step=0.005)
    assert np.all(f.r2 == f.r2[0])
    assert f.r2[0] == pytest.approx(0.5 * math.log2(7.0), abs=1e-12)
    assert f.reach == pytest.approx(region.r1_max, abs=0)


def test_pentagon_frontier_infeasible_raises():
    with pytest.raises(EmptyRegionError):
        pentagon_frontier(PentagonRegion(0, 0, 0, feasible=False), step=0.1)


def test_union_of_one_equals_pentagon():
    region = PentagonRegion(0.8, 0.6, 1.1)
    lone = pentagon_frontier(region, step=0.1)
    union = union_frontier([region], step=0.1)
    np.testing.assert_array_equal(lone.r2, union.r2)
    assert lone.reach == union.reach and lone.reach_r2 == union.reach_r2


def test_union_pointwise_max_of_staircases():
    a = PentagonRegion(1.0, 0.5, 1.5)
    b = PentagonRegion(0.5, 1.0, 1.5)
    f = union_frontier([a, b], step=0.25)
    # r1 <= 0.5: region b allows r2 = 1; beyond, only region a (r2 = 0.5).
    np.testing.assert_allclose(f.r2, [1.0, 1.0, 1.0, 0.5, 0.5], atol=1e-15)
    assert f.reach == 1.0


def test_union_idempotent_and_order_independent():
    regions = [
        PentagonRegion(1.0, 0.5, 1.5),
        PentagonRegion(0.5, 1.0, 1.5),
        PentagonRegion(0.7, 0.7, 1.0),
    ]
    f1 = union_frontier(regions, step=0.1)
    f2 = union_frontier(regions[::-1] + regions, step=0.1)
    np.testing.assert_array_equal(f1.r2, f2.r2)
    assert f1.reach == f2.reach and f1.reach_r2 == f2.reach_r2


def test_union_skips_infeasible_and_raises_when_all_are():
    good = PentagonRegion(1.0, 1.0, 2.0)
    bad = PentagonRegion(0, 0, 0, feasible=False)
    f = union_frontier([bad, good, bad], step=0.5)
    np.testing.assert_allclose(f.r2, 1.0, atol=0)
    with pytest.raises(EmptyUnionError):
        union_frontier([bad, bad], step=0.5)


def _dense_union_r2(a, b, c, step):
    """Reference union: max over pentagons of min(b, c - r1) at every sample."""
    reach_each = np.minimum(a, c)
    n_samples = int(math.floor(float(reach_each.max()) / step + 1e-9)) + 1
    grid = np.arange(n_samples) * step
    vals = np.minimum(b[:, None], c[:, None] - grid[None, :])
    vals = np.where(grid[None, :] <= reach_each[:, None] + 1e-15, vals, -np.inf)
    return np.maximum(vals.max(axis=0), 0.0)


@st.composite
def pentagon_bounds(draw):
    """(a, b, c, step, perm): bounds on or off the r1 grid, many of them tied."""
    step = draw(st.sampled_from([0.25, 0.1, 0.005, 1.0 / 3.0]))
    n = draw(st.integers(1, 12))
    on_grid = st.integers(0, 40).map(lambda k: k * step)
    # a few ulps off a sample, where c - b and c - r1 round differently
    near_grid = st.tuples(st.integers(0, 40), st.integers(-3, 3)).map(
        lambda t: max(0.0, t[0] * step + t[1] * math.ulp(t[0] * step))
    )
    anywhere = st.floats(0.0, 10.0, allow_subnormal=False)
    bound = on_grid | near_grid | anywhere
    a, b, c = (
        np.array(draw(st.lists(bound, min_size=n, max_size=n))) for _ in range(3)
    )
    # c = b + k*step puts the corner c - b on or next to a sample
    offsets = draw(st.lists(st.none() | on_grid, min_size=n, max_size=n))
    c = np.array([ci if k is None else bi + k for bi, ci, k in zip(b, c, offsets)])
    perm = np.array(draw(st.permutations(range(n))))
    return a, b, c, step, perm


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@settings(max_examples=400, deadline=None)
@given(pentagon_bounds())
def test_union_sweep_matches_dense_oracle(bounds):
    a, b, c, step, _ = bounds
    f = _union_arrays(a, b, c, step, "")
    np.testing.assert_array_equal(_bits(f.r2), _bits(_dense_union_r2(a, b, c, step)))


@settings(max_examples=200, deadline=None)
@given(pentagon_bounds())
def test_union_order_independent_idempotent_and_above_members(bounds):
    a, b, c, step, perm = bounds
    f = _union_arrays(a, b, c, step, "")
    for other in (
        _union_arrays(a[perm], b[perm], c[perm], step, ""),
        _union_arrays(np.tile(a, 2), np.tile(b, 2), np.tile(c, 2), step, ""),
    ):
        np.testing.assert_array_equal(_bits(other.r2), _bits(f.r2))
        assert (other.reach, other.reach_r2) == (f.reach, f.reach_r2)
    for member in zip(a, b, c):
        lone = pentagon_frontier(PentagonRegion(*member), step=step)
        assert lone.reach <= f.reach
        assert np.all(lone.r2 <= f.r2[: lone.r2.size])


@settings(max_examples=200, deadline=None)
@given(pentagon_bounds())
def test_union_is_monotone_in_its_members(bounds):
    """Adding a pentagon never lowers a sample, the reach or its r2."""
    a, b, c, step, _ = bounds
    f = _union_arrays(a, b, c, step, "")
    for k in range(a.size - 1):
        g = _union_arrays(a[: k + 1], b[: k + 1], c[: k + 1], step, "")
        assert np.all(f.r2[: g.r2.size] >= g.r2)
        assert f.reach >= g.reach
        assert f.reach > g.reach or f.reach_r2 >= g.reach_r2


@settings(max_examples=200, deadline=None)
@given(pentagon_bounds())
def test_time_sharing_hull_is_concave_and_dominates(bounds):
    a, b, c, step, _ = bounds
    f = _union_arrays(a, b, c, step, "")
    h = time_sharing_hull(f)
    assert h.reach == f.reach
    assert np.all(h.r2 >= f.r2) and h.reach_r2 >= f.reach_r2
    # Concave through the samples and the exact end point: no point lies
    # below the chord of its neighbours.
    xs, ys = h.r1, h.r2
    if h.reach > xs[-1]:
        xs, ys = np.append(xs, h.reach), np.append(ys, h.reach_r2)
    x0, x1, x2 = xs[:-2], xs[1:-1], xs[2:]
    y0, y1, y2 = ys[:-2], ys[1:-1], ys[2:]
    chord = y0 + (y2 - y0) * ((x1 - x0) / (x2 - x0))
    assert np.all(y1 >= chord - 1e-12 * max(1.0, float(np.max(ys))))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
@pytest.mark.parametrize("column", range(3))
def test_union_rejects_non_finite_or_negative_bounds(column, bad):
    bounds = [np.array([1.0, 0.5]), np.array([0.5, 1.0]), np.array([1.2, 1.2])]
    bounds[column][1] = bad
    with pytest.raises(ValueError, match="finite and non-negative"):
        _union_arrays(*bounds, 0.1, "")


def test_union_sample_cap():
    one = np.array([1.0])
    f = _union_arrays(one, one, one, 1.0 / (MAX_R1_SAMPLES - 1), "")
    assert f.r2.size == MAX_R1_SAMPLES
    with pytest.raises(SampleCapError):
        _union_arrays(one, one, one, 1.0 / MAX_R1_SAMPLES, "")
    # The check runs before allocating, so an absurd step costs nothing.
    with pytest.raises(SampleCapError):
        _union_arrays(one, one, one, 5e-324, "")


def test_frontier_monotone_and_value_at():
    f = sweep_gaussian(FIG4, default_grid("g_sp1"), "g_sp1")
    assert np.all(np.diff(f.r2) <= 1e-15)
    assert np.all(f.r2 >= 0.0)
    assert np.all(np.diff(f.r1) > 0.0)
    assert f.value_at(0.0) == f.r2[0]
    with pytest.raises(ValueError):
        f.value_at(f.reach + 1.0)


def test_sweep_sp1_endpoints():
    # Union over 201 alpha points: flat top at log2(7)/2 and exact
    # right-hand endpoint at the full-cooperation corner.
    f = sweep_gaussian(FIG4, default_grid("g_sp1"), "g_sp1")
    top = 0.5 * math.log2(7.0)
    corner_r1 = 0.5 * math.log2(1.0 + 6.0 / 2.8)
    end_r1 = 0.5 * math.log2(1.0 + (math.sqrt(6.0) + math.sqrt(1.8)) ** 2)
    assert f.r2[0] == pytest.approx(top, abs=1e-12)
    assert f.value_at(corner_r1) == pytest.approx(top, abs=1e-12)
    assert f.reach == pytest.approx(end_r1, abs=1e-12)
    assert f.reach_r2 == pytest.approx(0.0, abs=1e-12)


def test_sweep_suc_with_pinned_beta_equals_sp1():
    grid_sp1 = default_grid("g_sp1")
    grid_suc = SweepGrid(
        alpha=grid_sp1.alpha,
        beta=AxisGrid(0.0, 0.0, 1),
        lambda1=grid_sp1.lambda1,
        lambda2=grid_sp1.lambda2,
        edge_alpha=grid_sp1.edge_alpha,
    )
    f_sp1 = sweep_gaussian(FIG4, grid_sp1, "g_sp1")
    f_suc = sweep_gaussian(FIG4, grid_suc, "g_suc")
    np.testing.assert_array_equal(f_sp1.r2, f_suc.r2)
    assert f_sp1.reach == f_suc.reach


def test_sweep_unknown_family():
    with pytest.raises(ValueError):
        sweep_gaussian(FIG4, default_grid("g_sp1"), "nope")
    with pytest.raises(ValueError):
        default_grid("nope")


def test_axis_grid_points():
    assert AxisGrid(0.0, 1.0, 1).points().tolist() == [0.0]
    np.testing.assert_allclose(AxisGrid(0.0, 1.0, 5).points(), np.linspace(0, 1, 5))
    assert AxisGrid(0.0, None, 3).points(6.0).tolist() == [0.0, 3.0, 6.0]
    with pytest.raises(ValueError):
        AxisGrid(0.0, None, 3).points()
    with pytest.raises(ValueError):
        AxisGrid(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        AxisGrid(1.0, 0.5, 2)


def test_inclusion_gap_trivial_cases():
    f = sweep_gaussian(FIG4, default_grid("g_sp1"), "g_sp1")
    assert inclusion_gap(f, f) == 0.0
    lower = Frontier(f.step, f.r2 - 0.1, f.reach, f.reach_r2)
    assert inclusion_gap(lower, f) == 0.0
    assert inclusion_gap(f, lower) == pytest.approx(0.1, abs=1e-12)


def test_inclusion_gap_grid_mismatch():
    a = Frontier(0.005, np.array([1.0, 0.5]), 0.005, 0.5)
    b = Frontier(0.01, np.array([1.0, 0.5]), 0.01, 0.5)
    with pytest.raises(GridMismatchError):
        inclusion_gap(a, b)


def test_inclusion_gap_inner_longer_than_outer():
    outer = Frontier(0.1, np.array([1.0, 1.0]), 0.1, 1.0)
    inner = Frontier(0.1, np.array([0.5, 0.5, 0.5, 0.5]), 0.3, 0.5)
    assert inclusion_gap(inner, outer) == pytest.approx(0.5, abs=0)


def test_convexity_defect_straight_line():
    f = Frontier(0.125, np.array([1.0, 0.875, 0.75, 0.625, 0.5]), 0.5, 0.5)
    assert convexity_defect(f) == 0.0


def test_convexity_defect_concave():
    xs = np.linspace(0.0, 1.0, 21)
    f = Frontier(0.05, np.sqrt(1.0 - xs**2), 1.0, 0.0)
    assert convexity_defect(f) == 0.0


def test_convexity_defect_staircase_positive():
    r2 = np.array([1.0, 1.0, 1.0, 0.2, 0.2, 0.2, 0.2])
    f = Frontier(0.1, r2, 0.6, 0.2)
    # Chord from (0.1, 1.0) to (0.5, 0.2) passes 0.6 above the sample at 0.3.
    assert convexity_defect(f) == pytest.approx(0.4, abs=1e-15)


def test_convexity_defect_needs_three_samples():
    with pytest.raises(ValueError):
        convexity_defect(Frontier(0.1, np.array([1.0, 0.5]), 0.1, 0.5))


def test_time_sharing_hull():
    r2 = np.array([1.0, 1.0, 0.2, 0.2, 0.2])
    f = Frontier(0.1, r2, 0.4, 0.2)
    hull = time_sharing_hull(f)
    assert np.all(hull.r2 >= f.r2 - 1e-15)
    assert convexity_defect(hull) <= 1e-12
    # Endpoints are preserved.
    assert hull.r2[0] == pytest.approx(1.0, abs=1e-12)
    assert hull.reach == f.reach
    assert hull.reach_r2 == pytest.approx(0.2, abs=1e-12)
    # A straight line is unchanged.
    line = Frontier(0.1, np.array([1.0, 0.75, 0.5, 0.25, 0.0]), 0.4, 0.0)
    np.testing.assert_allclose(time_sharing_hull(line).r2, line.r2, atol=1e-12)


def test_sweep_g_zero_power_channels():
    small = SweepGrid(
        alpha=AxisGrid(0.0, 1.0, 5),
        beta=AxisGrid(0.0, 1.0, 5),
        lambda1=AxisGrid(0.0, None, 5),
        lambda2=AxisGrid(0.0, None, 5),
        edge_alpha=AxisGrid(0.0, 1.0, 5),
    )
    # p1 = 0: no binning possible, union still well defined.
    f = sweep_gaussian(ChannelParams(0.0, 6.0, 0.0, 0.5), small, "g")
    assert f.reach > 0.0 and np.all(np.diff(f.r2) <= 1e-15)
    # p2 = 0: sender 2 silent, the union collapses to the single-user rate.
    f2 = sweep_gaussian(ChannelParams(6.0, 0.0, 0.3, 0.5), small, "g")
    assert f2.reach == pytest.approx(0.5 * math.log2(7.0), abs=1e-12)
    np.testing.assert_allclose(f2.r2, 0.0, atol=0)
    # Both silent: the origin.
    f3 = sweep_gaussian(ChannelParams(0.0, 0.0, 0.3, 0.5), small, "g")
    assert f3.reach == 0.0 and f3.r2.tolist() == [0.0]


def test_sweep_g_small_grid_contains_edges():
    # Tiny four-parameter sweep: still contains its own boundary families.
    ch = ChannelParams(6.0, 6.0, 0.3, 2.0)
    small = SweepGrid(
        alpha=AxisGrid(0.0, 1.0, 5),
        beta=AxisGrid(0.0, 1.0, 5),
        lambda1=AxisGrid(0.0, None, 5),
        lambda2=AxisGrid(0.0, None, 5),
        edge_alpha=AxisGrid(0.0, 1.0, 21),
    )
    sp_grid = SweepGrid(
        alpha=AxisGrid(0.0, 1.0, 21),
        beta=AxisGrid(0.0, 1.0, 1),
        lambda1=AxisGrid(0.0, None, 1),
        lambda2=AxisGrid(0.0, None, 1),
        edge_alpha=AxisGrid(0.0, 1.0, 21),
    )
    g = sweep_gaussian(ch, small, "g")
    sp1 = sweep_gaussian(ch, sp_grid, "g_sp1")
    sp2 = sweep_gaussian(ch, sp_grid, "g_sp2")
    assert inclusion_gap(sp1, g) <= 1e-9
    assert inclusion_gap(sp2, g) <= 1e-9


_power = st.just(0.0) | st.floats(0.01, 50.0)


@st.composite
def small_g_sweeps(draw):
    """A channel and a small four-parameter grid; counts of 1 are common."""
    ch = ChannelParams(
        draw(_power), draw(_power), draw(st.floats(0.0, 8.0)), draw(st.floats(0.0, 8.0))
    )

    def unit_axis(max_count):
        lo, hi = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
        return AxisGrid(lo, hi, draw(st.integers(1, max_count)))

    def lambda_axis():
        hi = draw(st.none() | st.floats(0.0, 5.0))
        return AxisGrid(0.0, hi, draw(st.integers(1, 5)))

    grid = SweepGrid(
        unit_axis(4), unit_axis(4), lambda_axis(), lambda_axis(), unit_axis(6)
    )
    return ch, grid, draw(st.sampled_from([0.005, 0.02, 0.1]))


@settings(max_examples=150, deadline=None)
@given(small_g_sweeps())
def test_sweep_g_matches_loop_oracle_bitwise(case):
    ch, grid, step = case
    with np.errstate(all="ignore"):
        want = loop_sweep_g(ch, grid, step)
    got = sweep_gaussian(ch, grid, "g", r1_step=step)
    np.testing.assert_array_equal(_bits(got.r2), _bits(want.r2))
    assert _bits(got.reach) == _bits(want.reach)
    assert _bits(got.reach_r2) == _bits(want.reach_r2)


@settings(max_examples=150, deadline=None)
@given(
    ch=st.builds(ChannelParams, _power, _power, st.floats(0.0, 8.0), st.floats(0.0, 8.0)),
    n_alpha=st.integers(1, 41),
    n_beta=st.integers(1, 9),
    step=st.sampled_from([0.005, 0.02, 0.1]),
)
def test_one_parameter_frontiers_lie_under_outer_bound(ch, n_alpha, n_beta, step):
    """g_suc, g_sp1 and g_sp2 respect the cognitive-channel converse."""
    point = AxisGrid(0.0, None, 1)
    grid = SweepGrid(
        AxisGrid(0.0, 1.0, n_alpha), AxisGrid(0.0, 1.0, n_beta), point, point,
        AxisGrid(0.0, 1.0, n_alpha),
    )
    for which in ("g_suc", "g_sp1", "g_sp2"):
        f = sweep_gaussian(ch, grid, which, r1_step=step)
        assert outer_bound_excess(ch, f) == 0.0, which


@pytest.mark.xfail(
    strict=True,
    reason="g's r1 bound I(U,W;Y1) - I(U;W) ignores R_U >= 0: at c21 = 0 it "
    "reaches r1 = 0.7297 bits where receiver 1 allows 1/2 log2(1 + p1) = 0.5",
)
def test_g_lies_under_outer_bound_at_weak_c21():
    ch = ChannelParams(p1=1.0, p2=10.0, c12=0.0, c21=0.0)
    axis, lam = AxisGrid(0.0, 1.0, 5), AxisGrid(0.0, None, 5)
    grid = SweepGrid(axis, axis, lam, lam, AxisGrid(0.0, 1.0, 21))
    g = sweep_gaussian(ch, grid, "g", r1_step=0.005)
    assert outer_bound_excess(ch, g) == 0.0


def test_sweep_g_memory_bounded_by_tiles():
    # One alpha and one beta with 1,500 x 1,500 bin coefficients is 2.25 M
    # tuples in one (alpha, beta) slice; evaluated in tiles, the traced
    # peak stays far below what one untiled batch (~18 MB per temporary)
    # would take.
    grid = SweepGrid(
        alpha=AxisGrid(0.5, 0.5, 1),
        beta=AxisGrid(0.5, 0.5, 1),
        lambda1=AxisGrid(0.0, None, 1500),
        lambda2=AxisGrid(0.0, None, 1500),
        edge_alpha=AxisGrid(0.5, 0.5, 1),
    )
    ch = ChannelParams(p1=6.0, p2=6.0, c12=0.3, c21=6.0)
    tracemalloc.start()
    try:
        f = sweep_gaussian(ch, grid, "g")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.reach > 0.0
    assert peak < 64 * 2**20

