"""Pareto frontiers of pentagon regions and unions over parameter sweeps.

A :class:`Frontier` samples the Pareto boundary of a (union of) rate
region(s) on a uniform ``r1`` grid: for each grid point, the largest
achievable ``r2``.  Besides the uniform samples it records the exact
right-hand endpoint ``(reach, reach_r2)`` of the swept set, since region
corners rarely fall on the grid.

``sweep_gaussian`` unions one of the four Gaussian region families over a
parameter grid.  The four-parameter family is additionally sampled along
its two boundary faces (``beta = 0`` with the dirty-paper-optimal bin
coefficient, and ``beta = 1`` with no binning) at the fine one-parameter
resolution: those faces reproduce the two special-case families exactly,
so the sampled union contains the sampled special-case frontiers to
floating-point accuracy rather than to grid resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gaussian import (
    LAMBDA_SPAN,
    MAX_LAMBDA,
    ChannelParams,
    _check_lambda,
    _check_split,
    _eta_arrays,
    _lambda_rows,
    _pair_scratch,
    _region_g_arrays,
    _region_g_suc_values,
    _stream_powers,
    eta_coefficients,
    PentagonRegion,
)
from .tiling import pieces, tiles

__all__ = [
    "DEFAULT_R1_STEP",
    "EmptyRegionError",
    "EmptyUnionError",
    "GridMismatchError",
    "MAX_R1_SAMPLES",
    "MAX_AXIS_POINTS",
    "SampleCapError",
    "Frontier",
    "AxisGrid",
    "SweepGrid",
    "default_grid",
    "pentagon_frontier",
    "union_frontier",
    "sweep_gaussian",
    "inclusion_gap",
    "convexity_defect",
    "time_sharing_hull",
]

#: Default spacing of the r1 sampling grid, bits.
DEFAULT_R1_STEP = 0.005

#: Most r1 samples one frontier may hold, so that a tiny ``step`` cannot ask
#: for an unbounded grid (the default step needs a few hundred).
MAX_R1_SAMPLES = 10**6

#: Most points one swept parameter axis may hold.  Sweeps run in tiles, so
#: this bounds the memory of an axis's own points, not the tuple count.
MAX_AXIS_POINTS = 10**6

#: Most tuples one batched pentagon evaluation holds: (beta, lambda1,
#: lambda2) tuples of the four-parameter sweep, (alpha, beta) tuples of the
#: others.  With the streaming union this bounds a sweep's memory whatever
#: the grid counts are (the default ``g`` grid needs 41 * 42 * 42 = 72,324
#: tuples per alpha).
PAIR_TILE = 1 << 17

REGION_FAMILIES = ("g", "g_suc", "g_sp1", "g_sp2")

#: The :class:`SweepGrid` axes that are fractions of a power.
SPLIT_AXES = ("alpha", "beta", "edge_alpha")

#: Pentagons whose reach lies within this of the union's reach all set its
#: end point's r2 (``reach_r2``).
REACH_TIE = 1e-12


class EmptyRegionError(ValueError):
    """The region is infeasible; it has no frontier."""


class EmptyUnionError(ValueError):
    """Every region of the union is infeasible."""


class GridMismatchError(ValueError):
    """Frontiers sampled on different r1 grids cannot be compared."""


class SampleCapError(ValueError):
    """The r1 step would need more than ``MAX_R1_SAMPLES`` samples."""


@dataclass(frozen=True)
class Frontier:
    """Sampled Pareto boundary: max r2 per r1, plus the exact endpoint.

    ``r2[k]`` is the value at ``r1 = k * step``; samples stop at the last
    grid point not beyond ``reach``, the exact largest achievable r1.
    """

    step: float
    r2: np.ndarray
    reach: float
    reach_r2: float

    @property
    def r1(self) -> np.ndarray:
        return np.arange(self.r2.size) * self.step

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """(r1, r2) of the samples, then the exact end point where it lies
        beyond the last sample.  An end point within 1e-12 of the last
        sample merges into it: that sample takes the larger r2."""
        if self.reach > self.r1[-1] + 1e-12:
            return np.append(self.r1, self.reach), np.append(self.r2, self.reach_r2)
        return self.r1, np.append(self.r2[:-1], max(self.r2[-1], self.reach_r2))

    def value_at(self, r1: float) -> float:
        """Frontier sample at the last grid point <= r1."""
        k = int(math.floor(r1 / self.step + 1e-9))
        if k < 0 or k >= self.r2.size:
            raise ValueError(f"r1={r1!r} outside the sampled range")
        return float(self.r2[k])


@dataclass(frozen=True)
class AxisGrid:
    """Inclusive range and point count of one swept parameter.

    ``hi=None`` asks for the automatic upper end (used by the bin
    coefficients, whose natural span depends on the channel).  A count of
    one collapses the axis to ``lo``.  The count must be an integer (not a
    bool) in [1, ``MAX_AXIS_POINTS``].
    """

    lo: float
    hi: float | None
    count: int

    def __post_init__(self):
        count = self.count
        if (
            isinstance(count, bool)
            or not isinstance(count, (int, np.integer))
            or not 1 <= count <= MAX_AXIS_POINTS
        ):
            raise ValueError(
                f"count must be an integer in [1, {MAX_AXIS_POINTS}], got {count!r}"
            )
        object.__setattr__(self, "count", int(count))
        try:
            reversed_ends = self.hi is not None and self.hi < self.lo
        except TypeError:
            raise ValueError(f"lo and hi must be numbers, got {self.lo!r} and {self.hi!r}") from None
        if reversed_ends:
            raise ValueError("need hi >= lo")

    def points(self, auto_hi: float | None = None) -> np.ndarray:
        hi = self.hi if self.hi is not None else auto_hi
        if hi is None:
            raise ValueError("axis needs an upper end")
        if self.count == 1:
            return np.array([self.lo])
        return np.linspace(self.lo, hi, self.count)


@dataclass(frozen=True)
class SweepGrid:
    """Grids for the four coding parameters.

    ``edge_alpha`` is the fine alpha grid used for the boundary faces of
    the four-parameter sweep; it should match the resolution of the
    one-parameter sweeps it is compared against.  Every axis must pass
    :func:`_check_axis`.
    """

    alpha: AxisGrid
    beta: AxisGrid
    lambda1: AxisGrid
    lambda2: AxisGrid
    edge_alpha: AxisGrid

    def __post_init__(self):
        for name, axis in vars(self).items():
            _check_axis(name, axis)


def _check_axis(name: str, axis: AxisGrid) -> None:
    """The rule of a :class:`SweepGrid` axis: a power split needs a set ``hi``
    and 0 <= lo <= hi <= 1, a bin coefficient finite lo (and hi) in
    [0, ``MAX_LAMBDA``]."""
    if name in SPLIT_AXES:
        _check_split(name, axis.lo, axis.hi)
        return
    for value in (axis.lo,) if axis.hi is None else (axis.lo, axis.hi):
        _check_lambda(name, value)


def _check_r1_step(step: float) -> None:
    """The r1-step rule: ``ValueError`` unless 0 < step < 1."""
    if not 0.0 < step < 1.0:
        raise ValueError("r1_step must be in (0, 1)")


def default_grid(which: str = "g", steps: int | None = None) -> SweepGrid:
    """Default grids: 41 points per axis for the four-parameter sweep,
    201 for one- and two-parameter sweeps.  ``steps`` sets every count, but
    the λ axes and ``g``'s alpha and beta keep at most their default one."""
    if which not in REGION_FAMILIES:
        raise ValueError(f"unknown region family {which!r}")
    fine = AxisGrid(0.0, 1.0, 201 if steps is None else steps)
    if which == "g":
        coarse = AxisGrid(0.0, 1.0, 41 if steps is None else min(steps, 41))
        lam = AxisGrid(0.0, None, coarse.count)
        return SweepGrid(coarse, coarse, lam, lam, fine)
    return SweepGrid(fine, fine, AxisGrid(0.0, None, 1), AxisGrid(0.0, None, 1), fine)


def _union_fold(tiles, step: float) -> Frontier:
    """Frontier of the union of a stream of pentagon tiles: an exact fold.

    Each tile is an ``(r1_max, r2_max, sum_max)`` triple of equal-size
    arrays.  The state is the union so far and its reach candidates: the
    pentagons with ``min(a, c) >= reach - REACH_TIE``, the only ones
    ``reach_r2`` depends on.  A tile drops every pentagon that cannot raise
    a sample: one whose last sample lies on the running grid, with ``b`` at
    most the running value there, and that is not a reach candidate.  Each
    member's boundary is at most ``b`` and the running frontier never
    increases along r1, so such a pentagon lies under it everywhere.  The
    rest go through one :func:`_union_arrays` call together with the
    candidates kept so far, which sets the tile's grid to the running one
    (or its extension) and gives the candidates the samples a risen reach
    adds; the result is folded in with a pointwise max.  The union is a
    pointwise max, which is exact in floating point, so the frontier is bit
    for bit the one of a single :func:`_union_arrays` call over every
    pentagon of the stream.  Tiles are taken one at a time, so memory is
    O(tile + samples).

    Every tile is checked whole before pruning, so a bad bound raises
    ``ValueError`` even where its pentagon would be dropped, as does a
    ``step`` outside (0, 1).  An empty stream raises :class:`EmptyUnionError`.
    """
    _check_r1_step(step)
    union: Frontier | None = None
    ends: tuple[np.ndarray, ...] = ()
    # ``tile`` keeps the last tile alive until the next one arrives.  Freed
    # before the union, it let the heap shrink and regrow each tile: the
    # default g sweep took 3.5 times the page faults and 18 % more time.
    for tile in tiles:
        a, b, c = (np.asarray(x, dtype=float).ravel() for x in tile)
        _check_bounds(a, b, c)
        if not a.size:
            continue
        if union is not None:
            reach_each = np.minimum(a, c)
            reach = max(union.reach, float(reach_each.max()))
            # One sample past the running grid tells "beyond it" apart.
            n = union.r2.size
            last = _last_sample(np.arange(n + 1) * step, reach_each)
            keep = (
                (last == n)
                | (b > union.r2[np.minimum(last, n - 1)])
                | (reach_each >= reach - REACH_TIE)
            )
            if not keep.any():
                continue
            a, b, c = (np.concatenate([end, x[keep]]) for end, x in zip(ends, (a, b, c)))
        new = _union_arrays(a, b, c, step)
        if union is not None:
            head = new.r2[: union.r2.size]
            np.maximum(head, union.r2, out=head)
        at_end = np.minimum(a, c) >= new.reach - REACH_TIE
        ends = (a[at_end], b[at_end], c[at_end])
        union = new
    if union is None:
        raise EmptyUnionError("no feasible region in the union")
    return union


def _check_bounds(a, b, c) -> None:
    for name, x in (("r1", a), ("r2", b), ("sum", c)):
        if not np.all(np.isfinite(x)) or np.any(x < 0.0):
            raise ValueError(f"{name} bounds must be finite and non-negative")


def _last_sample(grid: np.ndarray, reach_each: np.ndarray) -> np.ndarray:
    """Index of each pentagon's last sample: the last grid point <= its reach."""
    return np.searchsorted(grid, reach_each + 1e-15, side="right") - 1


def _union_arrays(a, b, c, step: float) -> Frontier:
    """Frontier of the union of pentagons {r1<=a, r2<=b, r1+r2<=c}.

    A pentagon reaches r1 = min(a, c) (beyond that, even r2 = 0 violates
    the sum bound), and at grid points r1 <= reach its boundary is
    min(b, c - r1): flat at b on a prefix of the grid, then sloped at
    c - r1.  Pentagon i is flat on samples [0, min(kf, kr)] and sloped on
    (kf, kr], where kr is its last sample and kf the last sample with
    c - r1 >= b (ties aside), both found by binary search.  The flat parts reduce to a
    scatter-max of b at each prefix end and a reverse running max; the
    sloped parts to an interval max of c, taken on a bottom-up segment
    tree over the samples.  Rounding of c - r1 is monotone in c, so the
    largest c covering a sample gives the largest rounded c - r1, and the
    result is bit-for-bit the pointwise max of min(b, c - r1) over the
    pentagons.  Time is O(N log M) and memory O(N + M) for N pentagons
    and M samples.

    Raises ``ValueError`` on a non-finite or negative bound, and
    :class:`SampleCapError`, before allocating, when the grid would hold
    more than ``MAX_R1_SAMPLES`` samples.
    """
    _check_bounds(a, b, c)
    reach_each = np.minimum(a, c)
    reach = float(reach_each.max())
    span = reach / step + 1e-9
    if not span < MAX_R1_SAMPLES:
        raise SampleCapError(f"r1_step {step!r} needs over {MAX_R1_SAMPLES} r1 samples")
    n_samples = int(math.floor(span)) + 1
    grid = np.arange(n_samples) * step

    last = _last_sample(grid, reach_each)
    # c - b rounds differently from c - grid[k], so step back to the exact
    # test.  No step forward is needed: no float lies strictly between
    # fl(c - b) and c - b, so a later sample has c - grid[k] <= b, and
    # one with equality gets the same value b from the sloped part.
    flat_end = np.searchsorted(grid, c - b, side="right") - 1
    while True:
        down = (flat_end >= 0) & (c - grid[np.maximum(flat_end, 0)] < b)
        if not down.any():
            break
        flat_end -= down

    flat_end = np.minimum(flat_end, last)
    flat = np.full(n_samples, -np.inf)
    has_flat = flat_end >= 0
    np.maximum.at(flat, flat_end[has_flat], b[has_flat])
    flat = np.maximum.accumulate(flat[::-1])[::-1]

    # Segment tree with leaves tree[size + k]: each interval [lo, hi) of
    # sloped samples lands on O(log M) nodes, one level per pass, and the
    # node maxima are then pushed down to the leaves.
    size = 1 << (n_samples - 1).bit_length()
    tree = np.full(2 * size, -np.inf)
    sloped = flat_end < last
    lo = flat_end[sloped] + 1 + size
    hi = last[sloped] + 1 + size
    top = c[sloped]
    while lo.size:
        left = (lo & 1).astype(bool)
        np.maximum.at(tree, lo[left], top[left])
        lo += left
        right = (hi & 1).astype(bool)
        hi -= right
        np.maximum.at(tree, hi[right], top[right])
        lo >>= 1
        hi >>= 1
        keep = lo < hi
        lo, hi, top = lo[keep], hi[keep], top[keep]
    width = 1
    while width < size:
        children = tree[2 * width : 4 * width].reshape(-1, 2)
        np.maximum(children, tree[width : 2 * width, None], out=children)
        width *= 2
    best = np.maximum(flat, tree[size : size + n_samples] - grid)
    best = np.maximum(best, 0.0)
    at_end = reach_each >= reach - REACH_TIE
    reach_r2 = float(
        np.max(np.maximum(np.minimum(b[at_end], c[at_end] - reach), 0.0))
    )
    return Frontier(step, best, reach, reach_r2)


def pentagon_frontier(region: PentagonRegion, step: float = DEFAULT_R1_STEP) -> Frontier:
    """Pareto frontier of a single pentagon on a uniform r1 grid."""
    if not region.feasible:
        raise EmptyRegionError("infeasible region has no frontier")
    return union_frontier([region], step)


def union_frontier(regions, step: float = DEFAULT_R1_STEP) -> Frontier:
    """Pointwise-max frontier of several pentagons on a shared grid.

    Order-independent and idempotent; infeasible members are ignored, and
    an all-infeasible list raises :class:`EmptyUnionError`.
    """
    members = [(r.r1_max, r.r2_max, r.sum_max) for r in regions if r.feasible]
    return _union_fold([np.array(members, dtype=float).reshape(-1, 3).T], step)


def _sweep_binned_pair(ch: ChannelParams, grid: SweepGrid):
    """Tiles of the four-parameter binned-pair family over the grid.

    The bin-coefficient grids are unit-W lambdas for every p1, spanning
    [0, LAMBDA_SPAN * eta2(alpha)] plus the exact dirty-paper optimum of
    each stream (:func:`_lambda_rows`): ``count + 1`` columns.  For each
    alpha, the (beta, lambda1, lambda2) index space is cut by
    :func:`~icdms.tiling.tiles` into tiles of at most ``PAIR_TILE`` tuples,
    each one batched :func:`_region_g_arrays` call, and the lambda rows are
    built once per beta slice, so that memory does not grow with the grid
    counts.  A lambda value may repeat (a grid point equal to the optimum);
    the union is idempotent, so that costs a duplicate pentagon and changes
    nothing.  The two boundary faces follow at ``edge_alpha`` resolution
    (see module docstring), one call per face and alpha tile.  Every call
    writes its pair stage into one scratch, made here for the largest tile.
    """
    betas, alphas = grid.beta.points(), grid.edge_alpha.points()
    shape = (betas.size, grid.lambda1.count + 1, grid.lambda2.count + 1)
    chunk, edge = tiles(shape, PAIR_TILE), tiles(alphas.shape, PAIR_TILE)
    scratch = _pair_scratch(max(math.prod(chunk), math.prod(edge)))
    for alpha in grid.alpha.points():
        alpha = float(alpha)
        _, eta2 = eta_coefficients(ch, alpha)
        lam_hi = LAMBDA_SPAN * eta2
        for (b,) in pieces(shape[:1], chunk[:1]):
            beta = betas[b]
            s_u, s_v = _stream_powers(ch.p2, alpha, beta)
            lam1 = _lambda_rows(ch, grid.lambda1.points(lam_hi), s_u, eta2)
            lam2 = _lambda_rows(ch, grid.lambda2.points(lam_hi), s_v, eta2)
            for j, k in pieces(shape[1:], chunk[1:]):
                yield _region_g_arrays(
                    ch, alpha, beta[:, None, None], lam1[:, j, None], lam2[:, None, k], scratch
                )[:3]

    _, eta2 = _eta_arrays(ch, alphas)
    s_v = _stream_powers(ch.p2, alphas, 0.0)[1]
    lam2 = _lambda_rows(ch, np.empty(0), s_v, eta2)[:, -1]  # beta = 0: the optimum
    for (t,) in pieces(alphas.shape, edge):
        yield _region_g_arrays(ch, alphas[t, None], 0.0, 0.0, lam2[t, None], scratch)[:3]
        yield _region_g_arrays(ch, alphas[t, None], 1.0, 0.0, 0.0, scratch)[:3]


def _sweep_successive(ch: ChannelParams, grid: SweepGrid, which: str):
    """Tiles of a successive-decoding family: ``g_suc`` over the alpha and
    beta grids, ``g_sp1`` / ``g_sp2`` over alpha at beta = 0 / beta = 1."""
    alphas = grid.alpha.points()
    if which == "g_suc":
        betas = grid.beta.points()
    else:
        betas = np.array([0.0 if which == "g_sp1" else 1.0])
    shape = (alphas.size, betas.size)
    for i, j in pieces(shape, tiles(shape, PAIR_TILE)):
        r1, r2 = _region_g_suc_values(ch, alphas[i, None], betas[j])
        yield r1, r2, r1 + r2


def sweep_gaussian(
    ch: ChannelParams,
    grid: SweepGrid,
    which: str,
    r1_step: float = DEFAULT_R1_STEP,
) -> Frontier:
    """Frontier of the union of one Gaussian region family over a grid.

    ``which`` selects the family: ``g`` (binned pair, four parameters),
    ``g_suc`` (successive decoding over alpha and beta), ``g_sp1`` /
    ``g_sp2`` (its beta = 0 / beta = 1 one-parameter slices).  Every family
    is a stream of tiles of at most ``PAIR_TILE`` tuples, folded into the
    union as they come.  Raises :class:`EmptyUnionError` when no grid tuple
    is feasible.
    """
    if which not in REGION_FAMILIES:
        raise ValueError(f"unknown region family {which!r}")
    if which == "g":
        return _union_fold(_sweep_binned_pair(ch, grid), r1_step)
    return _union_fold(_sweep_successive(ch, grid, which), r1_step)


def inclusion_gap(inner: Frontier, outer: Frontier) -> float:
    """Largest amount (bits) by which ``inner`` pokes above ``outer``.

    0 means inner is contained in outer at the sampled resolution.  Both
    frontiers must share the r1 grid step; where inner extends beyond
    outer's samples, outer is treated as 0.
    """
    if abs(inner.step - outer.step) > 1e-12:
        raise GridMismatchError(
            f"steps differ: {inner.step!r} vs {outer.step!r}"
        )
    n = inner.r2.size
    outer_vals = np.zeros(n)
    m = min(n, outer.r2.size)
    outer_vals[:m] = outer.r2[:m]
    gap = float(np.max(inner.r2 - outer_vals))
    return gap if gap > 0.0 else 0.0


def convexity_defect(f: Frontier) -> float:
    """Largest height of a chord midpoint above the frontier, bits.

    Checked over all sample pairs with an on-grid midpoint; a positive
    value certifies that the region under the frontier is not convex.
    """
    r2 = f.r2
    if r2.size < 3:
        raise ValueError("need at least 3 samples")
    worst = 0.0
    for d in range(1, (r2.size - 1) // 2 + 1):
        mid_excess = 0.5 * (r2[: r2.size - 2 * d] + r2[2 * d :]) - r2[d : r2.size - d]
        worst = max(worst, float(mid_excess.max()))
    return worst if worst > 0.0 else 0.0


def time_sharing_hull(f: Frontier) -> Frontier:
    """Upper concave envelope of a frontier (time-sharing closure).

    Replaces ``r2`` with the smallest concave majorant through the sampled
    points and the exact endpoint; the down-closed region under the result
    is the convex hull of the one under the input.
    """
    xs, ys = f.points()
    hull_x: list[float] = []
    hull_y: list[float] = []
    for x, y in zip(xs, ys):
        hull_x.append(float(x))
        hull_y.append(float(y))
        while len(hull_x) >= 3:
            x0, x1, x2 = hull_x[-3:]
            y0, y1, y2 = hull_y[-3:]
            # drop the middle point if it lies on or below the chord
            if (y1 - y0) * (x2 - x1) <= (y2 - y1) * (x1 - x0) + 1e-15:
                del hull_x[-2], hull_y[-2]
            else:
                break
    new_r2 = np.interp(f.r1, hull_x, hull_y)
    new_r2 = np.maximum(new_r2, f.r2)
    reach_r2 = max(f.reach_r2, float(np.interp(f.reach, hull_x, hull_y)))
    return replace(f, r2=new_r2, reach_r2=reach_r2)
