"""Exact finite-alphabet evaluation of the discrete-memoryless rate regions.

The channel is an interference channel with degraded message sets: two
sender/receiver pairs share a memoryless channel ``p(y1, y2 | x1, x2)`` and
sender 2 knows sender 1's message ahead of time.  Rate regions are
evaluated for a *fixed* input distribution given in one of two factored
families (axis names in parentheses)::

    FULL: p(q) p(w,x1|q) p(u,ut|w,q) p(v,vt|w,q) p(x2|ut,vt,w,q)
    STAR: p(q) p(w,x1|q) p(u|q)      p(v,vt|w,q) p(x2|u,vt,w,q)

``q`` is the time-sharing variable, ``w`` rides with sender 1's input
``x1``, and ``u``/``v`` (with their channel-input companions ``ut``/``vt``)
are the auxiliaries carrying sender 2's two message parts.  In the STAR
family ``u`` is independent of everything else given ``q`` and has no
``ut`` companion.

Everything is computed by materializing the dense joint probability table
and summing; no optimization over distributions is attempted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "FULL",
    "STAR",
    "FULL_AXES",
    "STAR_AXES",
    "CELL_CAP",
    "NORM_TOL",
    "DISCRETE_FEAS_TOL",
    "NormalizationError",
    "CapExceededError",
    "AxisError",
    "AlphabetSpec",
    "FactoredDistribution",
    "JointPmf",
    "DiscreteRegion",
    "assemble_joint",
    "conditional_mi",
    "region_full",
    "region_sim",
    "region_suc",
    "random_full",
    "random_star",
    "distribution_from_dict",
    "distribution_to_dict",
]

FULL = "full"
STAR = "star"

#: Each family's factorization: (dataclass field, key in the JSON document
#: form, einsum subscripts with one letter per axis (see ``_AXIS_OF``),
#: number of leading conditioning axes).  Validation and random draws take
#: the factors in this order; :func:`assemble_joint` multiplies them in the
#: reverse order.
_FACTORS = {
    FULL: (
        ("p_q", "q", "q", 0),
        ("p_wx1", "w_x1", "qwa", 1),
        ("p_uut", "u_ut", "qwut", 2),
        ("p_vvt", "v_vt", "qwvs", 2),
        ("p_x2", "x2", "qwtsx", 4),
        ("channel", "channel", "axyz", 2),
    ),
    STAR: (
        ("p_q", "q", "q", 0),
        ("p_wx1", "w_x1", "qwa", 1),
        ("p_u", "u", "qu", 1),
        ("p_vvt", "v_vt", "qwvs", 2),
        ("p_x2", "x2", "qwusx", 4),
        ("channel", "channel", "axyz", 2),
    ),
}

#: Axis name of each einsum subscript letter.
_AXIS_OF = {
    "q": "q", "w": "w", "a": "x1", "u": "u", "t": "ut",
    "v": "v", "s": "vt", "x": "x2", "y": "y1", "z": "y2",
}

#: Axes of each family's joint table, in the order their letters first
#: appear in the family's factor subscripts.
_AXES = {
    family: tuple(
        _AXIS_OF[letter]
        for letter in dict.fromkeys("".join(subscripts for _, _, subscripts, _ in factors))
    )
    for family, factors in _FACTORS.items()
}
FULL_AXES = _AXES[FULL]
STAR_AXES = _AXES[STAR]


def _broadcast_plan(family: str) -> tuple[tuple[str, tuple[int, ...], tuple], ...]:
    """Each factor of ``family`` as :func:`assemble_joint` multiplies it:
    (dataclass field, transpose into joint-axis order, index that inserts
    the joint axes it lacks), in reverse ``_FACTORS`` order."""
    axes = _AXES[family]
    plan = []
    for name, _, subscripts, _ in reversed(_FACTORS[family]):
        positions = [axes.index(_AXIS_OF[c]) for c in subscripts]
        order = tuple(sorted(range(len(positions)), key=positions.__getitem__))
        index = tuple(slice(None) if k in positions else None for k in range(len(axes)))
        plan.append((name, order, index))
    return tuple(plan)


_BROADCAST = {family: _broadcast_plan(family) for family in _FACTORS}

#: Cap on the number of cells of the materialized joint table.
CELL_CAP = 10_000_000

#: Tolerance for conditional slices summing to one.
NORM_TOL = 1e-12

#: Slack allowed on constraint residuals when flagging feasibility.
DISCRETE_FEAS_TOL = 1e-12

#: Conditioning sets of the region bounds: the time-sharing variable alone,
#: and with the common stream.
_Q = ("q",)
_UQ = ("u", "q")


class NormalizationError(ValueError):
    """A factor table has a conditional slice that does not sum to one."""

    def __init__(self, factor: str, index: tuple, total: float):
        self.factor = factor
        self.index = index
        self.total = total
        super().__init__(
            f"factor {factor!r}, slice {index}: mass sums to {total!r}, not 1"
        )


class CapExceededError(ValueError):
    """The joint table would exceed the configured cell cap."""


class AxisError(ValueError):
    """Unknown or overlapping variable names in a mutual-information query."""


@dataclass(frozen=True)
class AlphabetSpec:
    """Alphabet sizes for every variable.  ``ut`` is unused by STAR."""

    q: int = 1
    w: int = 2
    x1: int = 2
    u: int = 2
    ut: int = 2
    v: int = 2
    vt: int = 2
    x2: int = 2
    y1: int = 2
    y2: int = 2

    def __post_init__(self):
        for name in FULL_AXES:
            size = getattr(self, name)
            if not isinstance(size, int) or size < 1:
                raise ValueError(f"alphabet size {name} must be a positive int")

    def size(self, axis: str) -> int:
        return getattr(self, axis)

    def cells(self, family: str) -> int:
        return math.prod(self.size(a) for a in _AXES[family])


def _check_conditional(name: str, table: np.ndarray, cond_ndim: int) -> None:
    """Validate non-negativity and per-slice normalization of a factor.

    ``cond_ndim`` leading axes are conditioning axes; the table must sum to
    one over the remaining axes for every conditioning index.
    """
    if np.any(table < 0.0) or not np.all(np.isfinite(table)):
        raise NormalizationError(name, (), float(np.min(table)))
    sums = table.sum(axis=tuple(range(cond_ndim, table.ndim)))
    bad = np.argwhere(np.abs(sums - 1.0) > NORM_TOL)
    if bad.size:
        index = tuple(int(i) for i in bad[0])
        raise NormalizationError(name, index, float(sums[tuple(bad[0])]))


@dataclass(frozen=True)
class FactoredDistribution:
    """Factor tables of one distribution from the FULL or STAR family.

    The family's row of ``_FACTORS`` gives each factor's axes, conditioning
    axes first, as einsum letters (``a`` = x1, ``t`` = ut, ``s`` = vt,
    ``x`` = x2, ``y`` = y1, ``z`` = y2): FULL's ``p_x2``, for example, is
    (q, w, ut, vt, x2).  Construction checks each factor's rank, that
    factors sharing an axis agree on its size, and that every conditional
    slice sums to one.
    """

    family: str
    p_q: np.ndarray
    p_wx1: np.ndarray
    p_vvt: np.ndarray
    p_x2: np.ndarray
    channel: np.ndarray
    p_uut: np.ndarray | None = None
    p_u: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in (FULL, STAR):
            raise ValueError(f"unknown family {self.family!r}")
        factors = _FACTORS[self.family]
        used = [row[0] for row in factors]
        given = [f.name for f in fields(self)[1:] if getattr(self, f.name) is not None]
        if sorted(given) != sorted(used):
            raise ValueError(f"{self.family.upper()} family needs exactly {', '.join(used)}")
        first: dict[str, tuple[str, int]] = {}
        for field_name, key, subscripts, cond_ndim in factors:
            name = f"factor {field_name!r} (file key {key!r})"
            try:
                table = np.asarray(getattr(self, field_name), dtype=float)
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be an array of numbers") from None
            object.__setattr__(self, field_name, table)
            axes = [_AXIS_OF[c] for c in subscripts]
            if table.ndim != len(axes):
                raise ValueError(
                    f"{name} must have rank {len(axes)} (axes {', '.join(axes)}), "
                    f"got rank {table.ndim}"
                )
            for axis, size in zip(axes, table.shape):
                owner, expected = first.setdefault(axis, (field_name, size))
                if size != expected:
                    raise ValueError(
                        f"{name}: axis {axis!r} has {size} entries, but "
                        f"{owner!r} gives it {expected}"
                    )
            _check_conditional(field_name, table, cond_ndim)

    @property
    def axes(self) -> tuple[str, ...]:
        return _AXES[self.family]

    def sizes(self) -> dict[str, int]:
        return {
            _AXIS_OF[c]: n
            for name, _, subscripts, _ in _FACTORS[self.family]
            for c, n in zip(subscripts, getattr(self, name).shape)
        }


@dataclass(frozen=True)
class JointPmf:
    """Dense joint probability table with named axes.

    ``table`` is stored as a read-only view.  The keepdims marginals that
    :meth:`marginal` and :func:`conditional_mi` sum out of it are cached by
    their dropped axes, so queries that keep the same axes share one pass
    over the table.  The cache lives as long as the joint: a region's joint
    is freed when the region returns.
    """

    table: np.ndarray
    axes: tuple[str, ...]
    _marginals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float).view()
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "axes", tuple(self.axes))
        if table.ndim != len(self.axes):
            raise ValueError("table rank does not match axis labels")
        # A finite total means every entry is finite.
        with np.errstate(invalid="ignore", over="ignore"):
            total = float(table.sum())
        if not math.isfinite(total) or abs(total - 1.0) > NORM_TOL or table.min() < 0.0:
            raise ValueError(f"joint table mass is {total!r}, not 1")

    def _summed(self, drop: tuple[int, ...]) -> np.ndarray:
        """The table summed over the axes at ``drop`` with ``keepdims``,
        computed on first use and read-only."""
        if not drop:
            return self.table
        out = self._marginals.get(drop)
        if out is None:
            out = self.table.sum(axis=drop, keepdims=True)
            out.flags.writeable = False
            self._marginals[drop] = out
        return out

    def marginal(self, names: tuple[str, ...]) -> np.ndarray:
        keep = set(names)
        drop = tuple(k for k, a in enumerate(self.axes) if a not in keep)
        out = self._summed(drop).squeeze(axis=drop)
        order = tuple(a for a in self.axes if a in keep)
        if order != tuple(names):
            out = np.moveaxis(out, [order.index(n) for n in names], range(len(names)))
        return out


def assemble_joint(fd: FactoredDistribution) -> JointPmf:
    """Materialize the joint table of a factored distribution.

    The factors are multiplied cell by cell in reverse ``_FACTORS`` order,
    channel first, into one preallocated table: the product, and so every
    bit, that ``np.einsum(..., optimize=True)`` forms with its one
    six-operand contraction.

    Raises :class:`CapExceededError` when the joint would exceed
    ``CELL_CAP`` cells, and :class:`NormalizationError` (via validation at
    construction) if any factor slice is off-mass.
    """
    factors = [
        getattr(fd, name).transpose(order)[index] for name, order, index in _BROADCAST[fd.family]
    ]
    shape = np.broadcast(*factors).shape
    n_cells = math.prod(shape)
    if n_cells > CELL_CAP:
        raise CapExceededError(f"joint table needs {n_cells} cells, cap is {CELL_CAP}")
    table = np.multiply(factors[0], factors[1], out=np.empty(shape))
    for factor in factors[2:]:
        table *= factor
    return JointPmf(table, fd.axes)


@functools.lru_cache(maxsize=1024)
def _mi_plan(axes, left, right, given) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Axis positions of an MI query's three variable sets, and the axes it
    sums out; :class:`AxisError` on a name ``axes`` lacks or on sets that
    are not disjoint."""
    groups = left, right, given
    all_names = sum(groups, ())
    for name in all_names:
        if name not in axes:
            raise AxisError(f"unknown variable {name!r}")
    if len(set(all_names)) != len(all_names):
        raise AxisError("left/right/given sets must be disjoint")
    positions = tuple(tuple(axes.index(n) for n in group) for group in groups)
    keep = set(sum(positions, ()))
    return positions, tuple(k for k in range(len(axes)) if k not in keep)


def _mi_axes(j: JointPmf, left, right, given):
    """:func:`_mi_plan` of a query on ``j``, its three name sets as tuples."""
    try:
        return _mi_plan(j.axes, tuple(left), tuple(right), tuple(given))
    except TypeError:  # an unhashable name names no axis
        raise AxisError("variable names must be strings") from None


def conditional_mi(j: JointPmf, left, right, given=()) -> float:
    """Exact conditional mutual information I(left; right | given) in bits.

    The three variable sets must be disjoint subsets of the joint's axes.
    Cells with zero mass contribute zero (0 log 0 = 0); tiny negative
    rounding residue is clamped to 0.
    """
    (l_ax, r_ax, _), drop = _mi_axes(j, left, right, given)
    # np.add.reduce is what ndarray.sum and np.sum call, without their
    # Python wrappers, which cost more than the sum on a small table.
    p_lrg = j._summed(drop)
    p_rg = np.add.reduce(p_lrg, axis=l_ax, keepdims=True)
    p_lg = np.add.reduce(p_lrg, axis=r_ax, keepdims=True)
    p_g = np.add.reduce(p_rg, axis=r_ax, keepdims=True)

    mask = p_lrg > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        num = np.log2(np.where(mask, p_lrg * p_g, 1.0))
        den = np.log2(np.where(mask, p_lg * p_rg, 1.0))
    value = float(np.add.reduce(p_lrg * (num - den), axis=None, where=mask))
    return value if value > 0.0 else 0.0


@dataclass(frozen=True)
class DiscreteRegion:
    """Rate bounds (bits) and constraint residuals of one region evaluation.

    ``sum_bound`` is ``None`` for the successive-decoding region, which has
    no sum inequality.  ``constraints`` maps residual names to values;
    residuals are reported even when negative.  ``active`` names the
    residuals that decide ``feasible``: all four for FULL, the one sign
    constraint that ``paper_literal`` selects for STAR.
    """

    scheme: str
    r1_bound: float
    r2_bound: float
    sum_bound: float | None
    constraints: dict[str, float] = field(default_factory=dict)
    feasible: bool = True
    active: tuple[str, ...] = ()


def _region(scheme, r1, r2, rsum, constraints, active) -> DiscreteRegion:
    """A :class:`DiscreteRegion`, feasible when every ``active`` residual
    is at least ``-DISCRETE_FEAS_TOL``."""
    feasible = all(constraints[name] >= -DISCRETE_FEAS_TOL for name in active)
    return DiscreteRegion(scheme, r1, r2, rsum, constraints, feasible, active)


def _require_family(fd: FactoredDistribution, family: str) -> None:
    if fd.family != family:
        raise ValueError(f"distribution must be in the {family.upper()} family")


def region_full(fd: FactoredDistribution) -> DiscreteRegion:
    """Rate bounds for the FULL family: both streams bin-coded, joint decoding.

    Bounds: R1 <= I(W; Y1,U | Q); R2 <= I(U,V; Y2 | Q) - I(U;W|Q) - I(V;W|Q);
    R1 + R2 <= I(U,W; Y1|Q) + I(V; Y2,U|Q) - I(U;W|Q) - I(V;W|Q).  The four
    constraints keep the two bin rates and both message-part rates
    non-negative.
    """
    _require_family(fd, FULL)
    j = assemble_joint(fd)
    i_uw = conditional_mi(j, ("u",), ("w",), _Q)
    i_vw = conditional_mi(j, ("v",), ("w",), _Q)
    i_uw_y1 = conditional_mi(j, ("u", "w"), ("y1",), _Q)
    i_v_y2u = conditional_mi(j, ("v",), ("y2", "u"), _Q)
    r1 = conditional_mi(j, ("w",), ("y1", "u"), _Q)
    r2 = conditional_mi(j, ("u", "v"), ("y2",), _Q) - i_uw - i_vw
    rsum = i_uw_y1 + i_v_y2u - i_uw - i_vw
    constraints = {
        "u_at_y1": i_uw_y1 - i_uw,
        "u_at_y2": conditional_mi(j, ("u",), ("y2", "v"), _Q) - i_uw,
        "v_at_y2": i_v_y2u - i_vw,
        "r2_total": r2,
    }
    return _region(FULL, r1, r2, rsum, constraints, tuple(constraints))


def _star_core(fd: FactoredDistribution, paper_literal: bool):
    """The terms both STAR regions share.

    Returns the joint, I(V;W|Q), I(V;Y2|U,Q), the R1 bound I(W;Y1|U,Q),
    the two sign-constraint residuals and the name of the active one.
    """
    _require_family(fd, STAR)
    j = assemble_joint(fd)
    i_vw = conditional_mi(j, ("v",), ("w",), _Q)
    i_v_y2 = conditional_mi(j, ("v",), ("y2",), _UQ)
    r1 = conditional_mi(j, ("w",), ("y1",), _UQ)
    constraints = {
        "v_margin_y2": i_v_y2 - i_vw,
        "v_margin_y1": conditional_mi(j, ("v",), ("y1",), _UQ) - i_vw,
    }
    active = ("v_margin_y1",) if paper_literal else ("v_margin_y2",)
    return j, i_vw, i_v_y2, r1, constraints, active


def region_sim(fd: FactoredDistribution, paper_literal: bool = False) -> DiscreteRegion:
    """Rate bounds for the STAR family with simultaneous decoding.

    Bounds: R1 <= I(W; Y1 | U,Q); R2 <= I(U,V; Y2|Q) - I(V;W|Q);
    R1 + R2 <= I(W,U; Y1|Q) + I(V; Y2 | U,Q) - I(V;W|Q).

    The sign constraint on the bin rate is evaluated against receiver 2's
    output by default (the reading the rate derivation needs); with
    ``paper_literal=True`` the as-printed receiver-1 form decides
    feasibility instead.  Both residuals are always reported.
    """
    j, i_vw, i_v_y2, r1, constraints, active = _star_core(fd, paper_literal)
    r2 = conditional_mi(j, ("u", "v"), ("y2",), _Q) - i_vw
    rsum = conditional_mi(j, ("w", "u"), ("y1",), _Q) + i_v_y2 - i_vw
    return _region("sim", r1, r2, rsum, constraints, active)


def region_suc(fd: FactoredDistribution, paper_literal: bool = False) -> DiscreteRegion:
    """Rate bounds for the STAR family with successive decoding.

    Both receivers decode the ``u`` stream first, so its rate is capped by
    the weaker link: R2 <= min{I(U;Y1|Q), I(U;Y2|Q)} + I(V;Y2|U,Q) -
    I(V;W|Q), with R1 <= I(W;Y1|U,Q) and no sum bound.  The constraint
    handling matches :func:`region_sim`.
    """
    j, i_vw, i_v_y2, r1, constraints, active = _star_core(fd, paper_literal)
    u_rate = min(
        conditional_mi(j, ("u",), ("y1",), _Q), conditional_mi(j, ("u",), ("y2",), _Q)
    )
    r2 = u_rate + i_v_y2 - i_vw
    return _region("suc", r1, r2, None, constraints, active)


def _random_distribution(
    family: str, sizes: AlphabetSpec, rng: np.random.Generator
) -> FactoredDistribution:
    """Strictly positive random factors, each normalized per slice, drawn
    in table order."""
    tables = {}
    for name, _, subscripts, cond_ndim in _FACTORS[family]:
        table = rng.random(tuple(sizes.size(_AXIS_OF[c]) for c in subscripts)) + 0.05
        sums = table.sum(axis=tuple(range(cond_ndim, table.ndim)), keepdims=True)
        tables[name] = table / sums
    return FactoredDistribution(family=family, **tables)


def random_full(sizes: AlphabetSpec, rng: np.random.Generator) -> FactoredDistribution:
    """Random strictly positive FULL-family distribution (seeded by ``rng``)."""
    return _random_distribution(FULL, sizes, rng)


def random_star(sizes: AlphabetSpec, rng: np.random.Generator) -> FactoredDistribution:
    """Random strictly positive STAR-family distribution (seeded by ``rng``).

    Pinning ``sizes.u = 1`` (or ``sizes.v = sizes.vt = 1``) specializes the
    successive-decoding region to its two single-stream special cases.
    """
    return _random_distribution(STAR, sizes, rng)


def distribution_from_dict(doc: dict) -> FactoredDistribution:
    """Build a :class:`FactoredDistribution` from its JSON document form.

    Schema: ``{"family": "full"|"star", "factors": {...}}`` with factor
    keys ``q``, ``w_x1``, ``u_ut`` (FULL) or ``u`` (STAR), ``v_vt``,
    ``x2``, ``channel`` holding nested arrays in the axis orders documented
    on :class:`FactoredDistribution`.
    """
    if not isinstance(doc, dict):
        raise ValueError("distribution document must be a JSON object")
    family = doc.get("family")
    if family not in (FULL, STAR):
        raise ValueError(f"family must be 'full' or 'star', got {family!r}")
    factors = doc.get("factors")
    if not isinstance(factors, dict):
        raise ValueError("missing 'factors' object")
    missing = [key for _, key, _, _ in _FACTORS[family] if key not in factors]
    if missing:
        raise ValueError(f"missing factor tables: {', '.join(missing)}")
    tables = {name: factors[key] for name, key, _, _ in _FACTORS[family]}
    return FactoredDistribution(family=family, **tables)


def distribution_to_dict(fd: FactoredDistribution) -> dict:
    """Inverse of :func:`distribution_from_dict`."""
    factors = {key: getattr(fd, name).tolist() for name, key, _, _ in _FACTORS[fd.family]}
    return {"family": fd.family, "factors": factors}
