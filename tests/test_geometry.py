"""Tests for frontier sampling, unions, sweeps, and frontier diagnostics."""

import itertools
import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from cognitive_outer_bound import outer_bound_excess
from g_loop_oracle import loop_sweep_g
from helpers import bits, traced_peak
from hypothesis import example, given, settings, strategies as st

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
from icdms import geometry
from icdms.gaussian import MAX_LAMBDA, MAX_POWER
from icdms.geometry import (
    MAX_R1_SAMPLES,
    REGION_FAMILIES,
    PAIR_TILE,
    REACH_TIE,
    SPLIT_AXES,
    SampleCapError,
    _union_arrays,
    _union_fold,
)
from icdms.tiling import pieces, tiles

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


@settings(max_examples=400, deadline=None)
@given(pentagon_bounds())
def test_union_sweep_matches_dense_oracle(bounds):
    a, b, c, step, _ = bounds
    f = _union_arrays(a, b, c, step)
    np.testing.assert_array_equal(bits(f.r2), bits(_dense_union_r2(a, b, c, step)))


@settings(max_examples=200, deadline=None)
@given(pentagon_bounds())
def test_union_order_independent_idempotent_and_above_members(bounds):
    a, b, c, step, perm = bounds
    f = _union_arrays(a, b, c, step)
    for other in (
        _union_arrays(a[perm], b[perm], c[perm], step),
        _union_arrays(np.tile(a, 2), np.tile(b, 2), np.tile(c, 2), step),
    ):
        np.testing.assert_array_equal(bits(other.r2), bits(f.r2))
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
    f = _union_arrays(a, b, c, step)
    for k in range(a.size - 1):
        g = _union_arrays(a[: k + 1], b[: k + 1], c[: k + 1], step)
        assert np.all(f.r2[: g.r2.size] >= g.r2)
        assert f.reach >= g.reach
        assert f.reach > g.reach or f.reach_r2 >= g.reach_r2


@st.composite
def tiled_pentagons(draw):
    """(a, b, c, step, cuts): pentagon_bounds plus reach ties and a tiling.

    Up to three members get a reach within 2 * REACH_TIE of the largest and
    a few get b = 0.  A copy of the members may follow, either shrunken
    (under the union, so pruned to nothing) or with each bound scaled by a
    factor near 1 (on both sides of the pruning rule).  The cuts split the
    members into consecutive tiles, empty and one-pentagon tiles included.
    """
    a, b, c, step, perm = draw(pentagon_bounds())
    a, b, c = a[perm], b[perm], c[perm]
    top = float(np.minimum(a, c).max())
    for i in draw(st.lists(st.integers(0, a.size - 1), max_size=3)):
        gap = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])) * REACH_TIE
        a[i] = max(top - gap, 0.0)
        c[i] = max(c[i], a[i])
    for i in draw(st.lists(st.integers(0, a.size - 1), max_size=2)):
        b[i] = 0.0
    copy = draw(st.sampled_from(["none", "shrunken", "nudged"]))
    if copy == "shrunken":
        a, b, c = (np.concatenate([x, 0.5 * x]) for x in (np.minimum(a, c), b, c))
    elif copy == "nudged":
        factor = st.sampled_from([1.0 - 1e-3, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.0 + 1e-3])
        k = a.size
        scales = [np.array(draw(st.lists(factor, min_size=k, max_size=k))) for _ in "abc"]
        a, b, c = (np.concatenate([x, x * f]) for x, f in zip((a, b, c), scales))
    n = a.size
    if draw(st.booleans()):
        cuts = list(range(n + 1))
    else:
        cuts = [0, *sorted(draw(st.lists(st.integers(0, n), max_size=n + 1))), n]
    return a, b, c, step, cuts


@settings(max_examples=400, deadline=None)
@given(tiled_pentagons())
def test_union_fold_of_any_tiling_equals_one_call(case):
    a, b, c, step, cuts = case
    tiles = ((a[lo:hi], b[lo:hi], c[lo:hi]) for lo, hi in zip(cuts, cuts[1:]))
    got, want = _union_fold(tiles, step), _union_arrays(a, b, c, step)
    np.testing.assert_array_equal(bits(got.r2), bits(want.r2))
    assert bits(got.reach) == bits(want.reach)
    assert bits(got.reach_r2) == bits(want.reach_r2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
@pytest.mark.parametrize("column", range(3))
def test_union_fold_checks_a_later_tile_whole(column, bad):
    # The second member of the later tile lies under the running frontier
    # and would be pruned; its bad bound still raises.
    tile = [np.array([1.0, 0.5]), np.array([0.2, 0.5]), np.array([1.2, 1.0])]
    tile[column][1] = bad
    with pytest.raises(ValueError, match="finite and non-negative"):
        _union_fold([([1.0], [1.0], [2.0]), tile], 0.1)


def test_union_fold_sample_cap():
    tiles = [([0.5], [1.0], [1.0]), ([0.2, 1.0], [1.0, 1.0], [1.0, 1.0])]
    with pytest.raises(SampleCapError):
        _union_fold(tiles, 1.0 / MAX_R1_SAMPLES)
    for empty in ([], [([], [], [])]):
        with pytest.raises(EmptyUnionError):
            _union_fold(empty, 0.1)


@settings(max_examples=200, deadline=None)
@given(pentagon_bounds())
# The end point lies 4e-13 past the last sample, 0.25 above it.
@example(
    (
        np.array([2.25, 2.0 - 4e-13]),
        np.array([0.0, 2.0]),
        np.array([2.0 + 4e-13, 2.25]),
        0.25,
        np.array([0, 1]),
    )
)
def test_time_sharing_hull_is_concave_and_dominates(bounds):
    a, b, c, step, _ = bounds
    f = _union_arrays(a, b, c, step)
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
        _union_arrays(*bounds, 0.1)


def test_union_sample_cap():
    one = np.array([1.0])
    f = _union_arrays(one, one, one, 1.0 / (MAX_R1_SAMPLES - 1))
    assert f.r2.size == MAX_R1_SAMPLES
    with pytest.raises(SampleCapError):
        _union_arrays(one, one, one, 1.0 / MAX_R1_SAMPLES)
    # The check runs before allocating, so an absurd step costs nothing.
    with pytest.raises(SampleCapError):
        _union_arrays(one, one, one, 5e-324)


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
    for count in (2.7, True, "5", 10**6 + 1, 10**12):
        with pytest.raises(ValueError, match="count must be an integer"):
            AxisGrid(0.0, 1.0, count)
    assert type(AxisGrid(0.0, 1.0, np.int64(3)).count) is int


_BAD_AXES = {
    SPLIT_AXES: {
        "lo-below-0": (-0.5, 1.0),
        "hi-above-1": (0.0, 1.5),
        "nan-lo": (math.nan, 1.0),
    },
    ("lambda1", "lambda2"): {
        "lo-below-0": (-1.0, None),
        "lo-none": (None, None),
        "nan-lo": (math.nan, None),
        "inf-lo": (math.inf, None),
        "nan-hi": (0.0, math.nan),
        "inf-hi": (0.0, math.inf),
    },
}


#: Ends that cannot be ordered, on any axis: the axis itself rejects them.
_UNORDERED_ENDS = {"lo-none-hi-set": (None, 1.0), "lo-str": ("a", 1.0)}


def _axis_rule(axis: str) -> str:
    return rf"^{axis} " + (r"must lie in \[0, 1\]$" if axis in SPLIT_AXES else "must be finite and >= 0, got ")


@pytest.mark.parametrize(
    "axis, lo, hi, message",
    [
        pytest.param(axis, lo, hi, _axis_rule(axis), id=f"{case}-{axis}")
        for axes, cases in _BAD_AXES.items()
        for case, (lo, hi) in cases.items()
        for axis in axes
    ]
    + [
        # A split axis has no default hi: its message says that hi is missing.
        pytest.param(axis, 0.0, None, rf"^{axis} needs a set hi in \[0, 1\]$", id=f"hi-none-{axis}")
        for axis in SPLIT_AXES
    ]
    + [
        pytest.param(axis, lo, hi, rf"^lo and hi must be numbers, got {lo!r} and 1\.0$", id=f"{case}-{axis}")
        for case, (lo, hi) in _UNORDERED_ENDS.items()
        for axis in (*SPLIT_AXES, "lambda1", "lambda2")
    ],
)
def test_sweep_grid_rejects_split_axis_outside_unit_interval(axis, lo, hi, message):
    # Such grids used to reach the sweep: beta in [-1, 1] built g and g_suc
    # frontiers from negative stream powers, and alpha up to 2 ended in sqrt
    # warnings and a misleading "r1 bounds must be finite" error.  A lambda1
    # axis from -1 or NaN was swept into a frontier 0.11 bits off, and one
    # from inf warned in the pair terms.  Ends that cannot be compared
    # raised a TypeError from AxisGrid.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            SweepGrid(**(vars(default_grid("g")) | {axis: AxisGrid(lo, hi, 5)}))


@pytest.mark.parametrize("axis", ["lambda1", "lambda2"])
@pytest.mark.parametrize(
    "lo, hi",
    [(0.0, 1e308), (1e51, None), (0.0, math.nextafter(MAX_LAMBDA, math.inf))],
    ids=["hi-1e308", "lo-1e51", "hi-above-cap"],
)
def test_sweep_grid_caps_lambda_axes(axis, lo, hi):
    # A lambda1 axis up to 1e308 used to overflow in the pentagon terms.
    # The cap is LAMBDA_SPAN times the largest eta2 that capped powers allow.
    assert MAX_LAMBDA == geometry.LAMBDA_SPAN * 2.0 * math.sqrt(MAX_POWER)
    axes = vars(default_grid("g"))
    with pytest.raises(ValueError, match=rf"^{axis} must be <= 6e\+50, got {re.escape(repr(hi or lo))}$"):
        SweepGrid(**axes | {axis: AxisGrid(lo, hi, 5)})
    SweepGrid(**axes | {axis: AxisGrid(0.0, MAX_LAMBDA, 5)})


@pytest.mark.parametrize("step", [0.0, -0.01, math.nan, math.inf, 1.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda step: sweep_gaussian(FIG4, default_grid("g_sp1"), "g_sp1", r1_step=step),
        lambda step: union_frontier([PentagonRegion(1.0, 1.0, 1.5)], step),
        lambda step: pentagon_frontier(PentagonRegion(1.0, 1.0, 1.5), step),
    ],
    ids=["sweep_gaussian", "union_frontier", "pentagon_frontier"],
)
def test_frontier_rejects_r1_step_outside_unit_interval(call, step):
    # Every frontier passes one r1-step check.  A step of 0 used to raise
    # ZeroDivisionError, -0.01 IndexError and NaN a SampleCapError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^r1_step must be in \(0, 1\)$") as err:
            call(step)
    assert type(err.value) is ValueError


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


def test_frontier_points_append_the_end_point_past_the_tolerance():
    f = Frontier(0.1, np.array([1.0, 0.8, 0.5]), 0.2, 0.5)
    edge = f.r1[-1] + 1e-12
    for reach, appended in (
        (0.2, False), (edge, False), (np.nextafter(edge, 1.0), True), (0.25, True)
    ):
        r1, r2 = replace(f, reach=float(reach), reach_r2=0.3).points()
        if appended:
            assert r1.tolist() == [*f.r1.tolist(), reach]
            assert r2.tolist() == [1.0, 0.8, 0.5, 0.3]
        else:
            assert r1.tolist() == f.r1.tolist() and r2.tolist() == f.r2.tolist()
            # Within the tolerance a higher end point lifts the last sample.
            r1, r2 = replace(f, reach=float(reach), reach_r2=0.7).points()
            assert r1.tolist() == f.r1.tolist() and r2.tolist() == [1.0, 0.8, 0.7]
    assert f.r2.tolist() == [1.0, 0.8, 0.5]


_count = st.integers(1, 4 * PAIR_TILE) | st.sampled_from(
    [1, 2, PAIR_TILE - 1, PAIR_TILE, PAIR_TILE + 1]
)


@settings(max_examples=300, deadline=None)
@given(_count, _count, _count)
def test_tile_sizes_match_the_formulas_they_replace(n0, n1, n2):
    # The (beta, lambda1, lambda2) tiling: a beta tile larger than the beta
    # count is the same single tile.
    t2 = min(n2, PAIR_TILE)
    t1 = min(n1, max(1, PAIR_TILE // t2))
    t0 = max(1, PAIR_TILE // (t1 * t2))
    sizes = _tile_sizes(n0, n1, n2)
    assert sizes == (min(t0, n0), t1, t2)
    assert math.prod(sizes) <= PAIR_TILE
    # The (alpha, beta) tiling.
    tb = min(n1, PAIR_TILE)
    ta = max(1, PAIR_TILE // tb)
    sizes = _tile_sizes(n0, n1)
    assert sizes == (min(ta, n0), tb)
    assert math.prod(sizes) <= PAIR_TILE


def _tile_sizes(*counts):
    """Tile size along each axis of a sweep grid with ``counts`` points per
    axis, as ``tiles`` cuts it at ``PAIR_TILE``, after checking that each
    axis's slices, as ``pieces`` walks them, run over its points in steps of
    that size.  An axis of over 1,024 slices is walked to its 1,024th slice
    only: walking all 5 * 10**5 slices of such axes makes this test 41 s."""
    sizes = tiles(counts, PAIR_TILE)
    for n, size in zip(counts, sizes):
        walk = list(itertools.islice(pieces((n,), (size,)), 1024))
        assert walk == [(slice(i, min(i + size, n)),) for i in range(0, n, size)[:1024]]
    return sizes


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


def test_g_contains_g_sp1_on_fig5_channel():
    # With p1 = 0 the g sweep still bins against W, which sender 2 sends
    # with power (1 - alpha) * p2; with lambda = 0 there the gap was 0.358.
    ch = ChannelParams(p1=0.0, p2=6.0, c12=0.0, c21=0.5)
    g = sweep_gaussian(ch, default_grid("g"), "g")
    for which in ("g_sp1", "g_sp2"):
        inner = sweep_gaussian(ch, default_grid(which), which)
        assert inclusion_gap(inner, g) <= 1e-12, which


_WIDE_LAMBDA = AxisGrid(0.0, None, 81)


@pytest.mark.parametrize(
    "grid, calls, tuples",
    [
        (default_grid("g"), 43, 41 * 41 * 42 * 42 + 2 * 201),
        # 82 x 82 lambda columns: tiles of 19 beta rows, 11 per alpha.
        (
            SweepGrid(
                AxisGrid(0.0, 1.0, 2), AxisGrid(0.0, 1.0, 201),
                _WIDE_LAMBDA, _WIDE_LAMBDA, AxisGrid(0.0, 1.0, 3),
            ),
            2 * 11 + 2,
            2 * 201 * 82 * 82 + 2 * 3,
        ),
    ],
    ids=["default", "wide-lambda"],
)
def test_g_sweep_at_zero_p1_evaluates_the_full_lambda_grid(monkeypatch, grid, calls, tuples):
    # With p1 = 0 the lambdas still bin against W, so each lambda axis keeps
    # its points and the optimum, as at p1 > 0.  Each boundary face is one
    # call.
    sizes = []
    inner = geometry._region_g_arrays

    def counted(*args):
        out = inner(*args)
        sizes.append(out[3].size)
        return out

    monkeypatch.setattr(geometry, "_region_g_arrays", counted)
    sweep_gaussian(ChannelParams(0.0, 6.0, 0.0, 0.5), grid, "g")
    assert (len(sizes), sum(sizes)) == (calls, tuples)


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
    np.testing.assert_array_equal(bits(got.r2), bits(want.r2))
    assert bits(got.reach) == bits(want.reach)
    assert bits(got.reach_r2) == bits(want.reach_r2)


@settings(max_examples=150, deadline=None)
@given(
    ch=st.builds(ChannelParams, _power, _power, st.floats(0.0, 8.0), st.floats(0.0, 8.0)),
    n_alpha=st.integers(1, 41),
    n_beta=st.integers(1, 9),
    n_lambda=st.integers(1, 5),
    step=st.sampled_from([0.005, 0.02, 0.1]),
)
def test_swept_frontiers_lie_under_outer_bound(ch, n_alpha, n_beta, n_lambda, step):
    """g, g_suc, g_sp1 and g_sp2 respect the cognitive-channel converse."""
    lam = AxisGrid(0.0, None, n_lambda)
    grid = SweepGrid(
        AxisGrid(0.0, 1.0, n_alpha), AxisGrid(0.0, 1.0, n_beta), lam, lam,
        AxisGrid(0.0, 1.0, n_alpha),
    )
    for which in ("g", "g_suc", "g_sp1", "g_sp2"):
        f = sweep_gaussian(ch, grid, which, r1_step=step)
        assert outer_bound_excess(ch, f) == 0.0, which


@settings(max_examples=150, deadline=None)
@given(
    ch=st.builds(ChannelParams, _power, _power, st.floats(0.0, 8.0), st.floats(0.0, 8.0)),
    ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
    n_edge=st.integers(1, 41),
    n_coarse=st.integers(1, 5),
    step=st.sampled_from([0.005, 0.02, 0.1]),
)
def test_g_contains_g_sp1_and_g_sp2(ch, ends, n_edge, n_coarse, step):
    # g's boundary faces at its edge_alpha reproduce the g_sp1 and g_sp2
    # pentagons at the same alphas, zero powers included.
    edge = AxisGrid(*ends, n_edge)
    coarse = AxisGrid(0.0, 1.0, n_coarse)
    lam = AxisGrid(0.0, None, n_coarse)
    g = sweep_gaussian(ch, SweepGrid(coarse, coarse, lam, lam, edge), "g", r1_step=step)
    sp = SweepGrid(edge, coarse, lam, lam, edge)
    for which in ("g_sp1", "g_sp2"):
        inner = sweep_gaussian(ch, sp, which, r1_step=step)
        assert inclusion_gap(inner, g) <= 1e-12, which


_capped_power = st.just(0.0) | st.floats(0.0, MAX_POWER)


@st.composite
def capped_channels(draw):
    """Channels up to the power cap: each received power c * p at most
    ``MAX_POWER``, with a gain up to 1e300 when its power is small."""
    p1, p2 = draw(_capped_power), draw(_capped_power)

    def gain(power):
        hi = 1e300 if power == 0.0 else min(1e300, MAX_POWER / power * (1.0 - 1e-12))
        return draw(st.floats(0.0, hi))

    return ChannelParams(p1, p2, gain(p1), gain(p2))


@settings(max_examples=40, deadline=None)
@given(capped_channels())
@example(ChannelParams(1e100, 1e100, 1.0, 1.0))
@example(ChannelParams(0.0, 1e100, 0.0, 1.0))
@example(ChannelParams(1e100, 1e-200, 1e-100, 1e300))
@example(ChannelParams(2.0**54, 0.0, 0.0, 0.0))
def test_sweeps_are_finite_up_to_the_power_cap(ch):
    # Beyond the cap, c21 * p2 overflowed inside the g_suc bounds (a
    # ValueError from the bound check) and every g tuple overflowed (an
    # empty union reported as "no feasible region").  Below it, with p2 = 0
    # and p1 >= 2**53, var(Y1 | W) = (p1 + 1) - p1 rounded to 0 and emptied
    # the g union too.
    axis, lam = AxisGrid(0.0, 1.0, 4), AxisGrid(0.0, None, 3)
    grid = SweepGrid(axis, axis, lam, lam, AxisGrid(0.0, 1.0, 9))
    for which in REGION_FAMILIES:
        f = sweep_gaussian(ch, grid, which, r1_step=0.5)
        assert np.all(np.isfinite(f.r2)), which
        assert math.isfinite(f.reach) and math.isfinite(f.reach_r2), which


def test_g_lies_under_outer_bound_at_weak_c21():
    # Receiver 1 hears only X1, so R1 <= 1/2 log2(1 + p1) = 0.5 bits.  An r1
    # bound of I(W; Y1, U) alone reached 0.7297 bits here; R_U >= 0 caps it
    # at I(U, W; Y1) - I(U; W).
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
    f, peak = traced_peak(lambda: sweep_gaussian(ch, grid, "g"))
    assert f.reach > 0.0
    assert peak < 64 * 2**20


@pytest.mark.parametrize("which", REGION_FAMILIES)
@pytest.mark.parametrize(
    "ch",
    [ChannelParams(p1=6.0, p2=6.0, c12=0.3, c21=6.0), ChannelParams(p1=0.0, p2=6.0, c12=0.0, c21=0.5)],
    ids=["fig7", "one-lambda-column"],
)
def test_tiling_never_moves_a_byte(monkeypatch, ch, which):
    # No default grid is cut along beta or the lambdas.  Here a tile of 1
    # cuts every axis to one entry, 7 cuts beta, lambda1 and the alphas with
    # a short last tile, and 64 cuts beta in fours.
    grid = SweepGrid(
        alpha=AxisGrid(0.0, 1.0, 9),
        beta=AxisGrid(0.0, 1.0, 11),
        lambda1=AxisGrid(0.0, None, 3),
        lambda2=AxisGrid(0.0, None, 3),
        edge_alpha=AxisGrid(0.0, 1.0, 9),
    )
    want = sweep_gaussian(ch, grid, which, r1_step=0.01)
    for tile in (1, 7, 64):
        monkeypatch.setattr(geometry, "PAIR_TILE", tile)
        got = sweep_gaussian(ch, grid, which, r1_step=0.01)
        np.testing.assert_array_equal(bits(got.r2), bits(want.r2))
        assert bits(got.reach) == bits(want.reach)
        assert bits(got.reach_r2) == bits(want.reach_r2)


def test_g_sweep_memory_at_81_points():
    # 81 points on each of the alpha, beta and lambda axes is 81 * 82 * 82
    # tuples per alpha, 44.1 M in all, of which every feasible pentagon used
    # to be kept until the end (a 372 MiB traced peak).  Folded tile by
    # tile, the peak is bounded by the tile and the samples.
    axis, lam = AxisGrid(0.0, 1.0, 81), AxisGrid(0.0, None, 81)
    grid = SweepGrid(axis, axis, lam, lam, AxisGrid(0.0, 1.0, 201))
    ch = ChannelParams(p1=6.0, p2=6.0, c12=0.3, c21=0.5)
    f, peak = traced_peak(lambda: sweep_gaussian(ch, grid, "g"))
    assert f.reach > 0.0
    assert peak < 32 * 2**20


def test_first_g_suc_tile_of_a_million_alphas_holds_one_tile():
    # 10**6 alphas by 2**17 betas: each tile is one alpha's row of betas.
    # itertools.product of the cut axes held a slice per alpha before the
    # first tile (137.7 MiB traced); the walk holds the grid points (9 MB)
    # and one tile's arrays.
    grid = replace(
        default_grid("g_suc"), alpha=AxisGrid(0.0, 1.0, 10**6), beta=AxisGrid(0.0, 1.0, 2**17)
    )
    tile, peak = traced_peak(lambda: next(geometry._sweep_successive(FIG4, grid, "g_suc")))
    assert tile[1].shape == tile[2].shape == (1, 2**17)
    assert peak < 24 * 2**20


@pytest.mark.skipif(sys.platform != "linux", reason="reads Linux's minor page-fault count")
def test_repeated_g_sweep_makes_few_page_faults():
    # Every call of the g sweep writes its pair stage into one scratch, made
    # once per sweep, so no tile hands pair-sized temporaries back to the
    # allocator for the next tile to fault in again.  Before, each repeat of
    # the default fig6 sweep made 2.5 k to 10 k minor faults, depending on
    # what the process had allocated before; three repeats now make a few
    # hundred at most.
    import resource

    ch, grid = ChannelParams(p1=6.0, p2=6.0, c12=0.3, c21=2.0), default_grid("g")
    sweep_gaussian(ch, grid, "g")
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        sweep_gaussian(ch, grid, "g")
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 2000
