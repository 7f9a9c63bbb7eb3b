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

Every bound is an exact sum over the joint probability table; no
optimization over distributions is attempted.  :func:`assemble_joint`
materializes that table as a :class:`JointPmf`, and :func:`conditional_mi`
sums the one marginal a query reads out of it.  No region runs this dense
route: it is the plain reference of the tests and of library callers.

The regions read their terms from :func:`_terms`, which ``oracle-check``
checks against the brute-force oracle.  Each family has one set of
mutual-information terms (``_TERM_QUERIES``), the union of what its
regions read.  FULL's are the seven terms i1-i7 of
:class:`icdms.gaussian.MiTerms`, and :func:`region_full` bounds the rates
with the statement that the Gaussian ``g`` region reads too
(:func:`icdms.gaussian._row_bounds`, :func:`icdms.gaussian._pair_bounds`),
less ``g``'s cap on r1.  Every region is made by :func:`_region`, the one
place its bounds and residuals become Python floats.  A distribution's terms
are computed once, on its first region call, and kept on it: ``region_sim``
and ``region_suc`` of one STAR distribution share one evaluation.  That evaluation forms the joint
one block of at most ``BLOCK_CELLS`` cells at a time and sums each block
into its slice of every marginal the terms read, bit for bit the
marginals of the dense table (:func:`_block_plan`).  :func:`_form`
multiplies each block in pieces with numpy's broadcasting, in the dense
table's order, so every cell has its bits.  Blocks and pieces are cut by
the one rule of :func:`icdms.tiling.tiles` and walked one at a time by
:func:`icdms.tiling.pieces`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .gaussian import _pair_bounds, _row_bounds
from .tiling import pieces, tiles

__all__ = [
    "FULL",
    "STAR",
    "FULL_AXES",
    "STAR_AXES",
    "CELL_CAP",
    "BLOCK_CELLS",
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

#: Each family's joint axes as subscript letters, in the order they first
#: appear in the family's factor subscripts, and as axis names.
_LETTERS = {
    family: "".join(dict.fromkeys("".join(subscripts for _, _, subscripts, _ in factors)))
    for family, factors in _FACTORS.items()
}
_AXES = {family: tuple(map(_AXIS_OF.get, letters)) for family, letters in _LETTERS.items()}
FULL_AXES = _AXES[FULL]
STAR_AXES = _AXES[STAR]

#: Each factor of each family as :func:`assemble_joint` multiplies it, in
#: reverse ``_FACTORS`` order: (dataclass field, index that inserts the
#: joint axes it lacks).  Every factor's subscripts follow the joint's axis
#: order, so no factor is transposed.
_BROADCAST = {
    family: tuple(
        (name, tuple(slice(None) if letter in subscripts else None for letter in _LETTERS[family]))
        for name, _, subscripts, _ in reversed(_FACTORS[family])
    )
    for family in _FACTORS
}

#: Cap on the number of cells of the joint table.
CELL_CAP = 10_000_000

#: Most cells of the block in which a region forms its joint (4 MiB of
#: float64); a joint of at most this many cells is one block.
BLOCK_CELLS = 2**19

#: Tolerance for conditional slices summing to one.
NORM_TOL = 1e-12

#: Slack allowed on constraint residuals when flagging feasibility.
DISCRETE_FEAS_TOL = 1e-12

#: Conditioning sets of the region bounds: the time-sharing variable alone,
#: and with the common stream.
_Q = ("q",)
_UQ = ("u", "q")

#: Each family's mutual-information terms, by name: (left, right, given).
#: FULL's are :class:`~icdms.gaussian.MiTerms`' i1-i7, given Q.  STAR's are
#: the union of what ``region_sim`` and ``region_suc`` read, so one
#: evaluation serves both.  The first query's marginal gives the total mass.
_TERM_QUERIES = {
    FULL: {
        "i3": (("u",), ("w",), _Q),
        "i4": (("v",), ("w",), _Q),
        "i5": (("u", "w"), ("y1",), _Q),
        "i6": (("v",), ("y2", "u"), _Q),
        "i1": (("w",), ("y1", "u"), _Q),
        "i2": (("u", "v"), ("y2",), _Q),
        "i7": (("u",), ("y2", "v"), _Q),
    },
    STAR: {
        "i_vw": (("v",), ("w",), _Q),
        "i_v_y2": (("v",), ("y2",), _UQ),
        "r1": (("w",), ("y1",), _UQ),
        "i_v_y1": (("v",), ("y1",), _UQ),
        "i_uv_y2": (("u", "v"), ("y2",), _Q),
        "i_wu_y1": (("w", "u"), ("y1",), _Q),
        "i_u_y1": (("u",), ("y1",), _Q),
        "i_u_y2": (("u",), ("y2",), _Q),
    },
}


class NormalizationError(ValueError):
    """A factor table has a conditional slice that does not sum to one, or an
    ``entry`` that is negative or not finite: ``factor`` and ``key`` are the
    table's field and file key, ``index`` and ``total`` the slice's index and
    sum, or the entry's index and value."""

    def __init__(self, factor: str, key: str, index: tuple, total: float, entry: bool = False):
        self.factor = factor
        self.index = index
        self.total = total
        name = f"factor {factor!r} (file key {key!r})"
        if entry:
            message = f"{name}, entry {index} is {total!r}, not a finite number >= 0"
        else:
            message = f"{name}, slice {index}: mass sums to {total!r}, not 1"
        super().__init__(message)


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


def _check_conditional(name: str, key: str, table: np.ndarray, cond_ndim: int) -> None:
    """Validate non-negativity and per-slice normalization of a factor.

    ``cond_ndim`` leading axes are conditioning axes; the table must sum to
    one over the remaining axes for every conditioning index.
    """
    bad = np.argwhere(~(np.isfinite(table) & (table >= 0.0)))
    if bad.size:
        index = tuple(int(i) for i in bad[0])
        raise NormalizationError(name, key, index, float(table[index]), entry=True)
    sums = table.sum(axis=tuple(range(cond_ndim, table.ndim)))
    bad = np.argwhere(np.abs(sums - 1.0) > NORM_TOL)
    if bad.size:
        index = tuple(int(i) for i in bad[0])
        raise NormalizationError(name, key, index, float(sums[tuple(bad[0])]))


@dataclass(frozen=True)
class FactoredDistribution:
    """Factor tables of one distribution from the FULL or STAR family.

    The family's row of ``_FACTORS`` gives each factor's axes, conditioning
    axes first, as einsum letters (``a`` = x1, ``t`` = ut, ``s`` = vt,
    ``x`` = x2, ``y`` = y1, ``z`` = y2): FULL's ``p_x2``, for example, is
    (q, w, ut, vt, x2).  Construction checks each factor's rank, that
    factors sharing an axis agree on its size, and that every conditional
    slice sums to one.  It keeps read-only copies of the factors, so what
    it checked cannot change afterwards, and so the region functions keep
    the family's mutual-information terms in ``_cache`` on first use, which
    ``==`` and ``repr`` ignore: ``==`` compares the family and the factor
    tables' entries.
    """

    family: str
    p_q: np.ndarray
    p_wx1: np.ndarray
    p_vvt: np.ndarray
    p_x2: np.ndarray
    channel: np.ndarray
    p_uut: np.ndarray | None = None
    p_u: np.ndarray | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in (FULL, STAR):
            raise ValueError(f"unknown family {self.family!r}")
        factors = _FACTORS[self.family]
        used = [row[0] for row in factors]
        given = [f.name for f in fields(self)[1:] if f.init and getattr(self, f.name) is not None]
        if sorted(given) != sorted(used):
            raise ValueError(f"{self.family.upper()} family needs exactly {', '.join(used)}")
        first: dict[str, tuple[str, int]] = {}
        for field_name, key, subscripts, cond_ndim in factors:
            name = f"factor {field_name!r} (file key {key!r})"
            try:
                table = np.array(getattr(self, field_name), dtype=float)
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be an array of numbers") from None
            table.flags.writeable = False
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
            _check_conditional(field_name, key, table, cond_ndim)

    def __eq__(self, other):
        if not isinstance(other, FactoredDistribution):
            return NotImplemented
        return self.family == other.family and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name, *_ in _FACTORS[self.family]
        )

    @property
    def axes(self) -> tuple[str, ...]:
        return _AXES[self.family]

    def sizes(self) -> dict[str, int]:
        return {
            _AXIS_OF[c]: n
            for name, _, subscripts, _ in _FACTORS[self.family]
            for c, n in zip(subscripts, getattr(self, name).shape)
        }


def _check_mass(total: float, negative: bool = False) -> None:
    """The joint-table rule: ``ValueError`` unless the total mass is finite
    and within ``NORM_TOL`` of one and no entry is negative."""
    if not math.isfinite(total) or abs(total - 1.0) > NORM_TOL or negative:
        raise ValueError(f"joint table mass is {total!r}, not 1")


def _check_cells(n_cells: int) -> None:
    if n_cells > CELL_CAP:
        raise CapExceededError(f"joint table needs {n_cells} cells, cap is {CELL_CAP}")


@dataclass(frozen=True)
class JointPmf:
    """Dense joint probability table with named axes.

    ``table`` is a read-only copy of the table given, or that table itself
    when it is read-only and owns its data, so what was checked cannot
    change afterwards.  ``==`` compares the axes and the tables' entries.
    """

    table: np.ndarray
    axes: tuple[str, ...]

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        if table.flags.writeable or not table.flags.owndata:
            table = table.copy()
            table.flags.writeable = False
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "axes", tuple(self.axes))
        if table.ndim != len(self.axes):
            raise ValueError("table rank does not match axis labels")
        # A finite total means every entry is finite.
        with np.errstate(invalid="ignore", over="ignore"):
            total = float(table.sum())
        _check_mass(total, table.min() < 0.0)

    def __eq__(self, other):
        if not isinstance(other, JointPmf):
            return NotImplemented
        return self.axes == other.axes and np.array_equal(self.table, other.table)

    def marginal(self, names: tuple[str, ...]) -> np.ndarray:
        """The marginal of the axes ``names``, in that order; names are
        checked as :func:`conditional_mi` checks a query's."""
        _, drop, at, _ = _mi_plan(self.axes, names, (), ())
        return np.moveaxis(self.table.sum(axis=drop), at, range(len(at)))


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
    shape, factors = _layout(fd)
    _check_cells(math.prod(shape))
    table = _multiply(factors, np.empty(shape))
    table.flags.writeable = False
    return JointPmf(table, fd.axes)


def _layout(fd: FactoredDistribution) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """The shape of ``fd``'s joint, and ``fd``'s factors as joint-rank views
    (size 1 along the axes each lacks) in the order they are multiplied."""
    factors = [getattr(fd, name)[index] for name, index in _BROADCAST[fd.family]]
    return np.broadcast(*factors).shape, factors


def _multiply(factors, out: np.ndarray) -> np.ndarray:
    """The product of ``factors`` broadcast into ``out``, formed left to right."""
    np.multiply(factors[0], factors[1], out=out)
    for factor in factors[2:]:
        out *= factor
    return out


def _mi_plan(axes: tuple[str, ...], left, right, given):
    """An MI query on a joint with ``axes``: the positions of its three name
    sets in ``axes``, the axes it sums out, and the positions of its left
    and right sets in the marginal with those axes squeezed out.  Raises
    :class:`AxisError` on a name that is not a string or that ``axes``
    lacks, and on sets that are not disjoint."""
    groups = tuple(left), tuple(right), tuple(given)
    names = sum(groups, ())
    for name in names:
        if not isinstance(name, str):
            raise AxisError(f"variable names must be strings, got {name!r}")
        if name not in axes:
            raise AxisError(f"unknown variable {name!r}")
    if len(set(names)) != len(names):
        raise AxisError("left/right/given sets must be disjoint")
    positions = tuple(tuple(axes.index(n) for n in group) for group in groups)
    kept = sorted(sum(positions, ()))
    drop = tuple(k for k in range(len(axes)) if k not in kept)
    return positions, drop, tuple(map(kept.index, positions[0])), tuple(map(kept.index, positions[1]))


def conditional_mi(j: JointPmf, left, right, given=()) -> float:
    """Exact conditional mutual information I(left; right | given) in bits.

    The three variable sets must be disjoint subsets of the joint's axes.
    Each call sums the one marginal the query reads out of the table.
    Cells with zero mass contribute zero (0 log 0 = 0); tiny negative
    rounding residue is clamped to 0.
    """
    _, drop, l_ax, r_ax = _mi_plan(j.axes, left, right, given)
    p_lrg = j.table.sum(axis=drop) if drop else j.table  # no copy of a whole-table query
    with np.errstate(divide="ignore", invalid="ignore"):
        return _mi_bits(p_lrg, l_ax, r_ax)


def _mi_bits(p_lrg: np.ndarray, l_ax, r_ax) -> float:
    """I(left; right | given) in bits from the marginal ``p_lrg`` of (left,
    right, given), squeezed of the axes its query sums out, whose left and
    right axes are at ``l_ax`` and ``r_ax``.  The caller ignores
    ``divide`` and ``invalid`` floating-point errors.

    Cells with zero mass, whose logarithms are -inf or NaN, are masked out
    of the sum; without any, the mask is skipped, which gives the same
    bits.  Where a product of marginals underflows to 0, the sum is taken
    again with each cell's four logarithms apart.
    """
    # np.add.reduce is what ndarray.sum and np.sum call, without their
    # Python wrappers, which cost more than the sum on a small table.
    p_rg = np.add.reduce(p_lrg, axis=l_ax, keepdims=True)
    p_lg = np.add.reduce(p_lrg, axis=r_ax, keepdims=True)
    p_g = np.add.reduce(p_rg, axis=r_ax, keepdims=True)

    mask = True if np.minimum.reduce(p_lrg, axis=None) > 0.0 else p_lrg > 0.0
    value = float(np.add.reduce(p_lrg * (np.log2(p_lrg * p_g) - np.log2(p_lg * p_rg)), axis=None, where=mask))
    if not math.isfinite(value):
        cells = np.log2(p_lrg) + np.log2(p_g) - np.log2(p_lg) - np.log2(p_rg)
        value = float(np.add.reduce(p_lrg * cells, axis=None, where=mask))
    return value if value > 0.0 else 0.0


@functools.lru_cache(maxsize=256)
def _block_plan(shape: tuple[int, ...], drops: tuple[tuple[int, ...], ...], block_cells: int):
    """How :func:`_blocked_marginals` sums the keepdims marginals over the
    axes in each of ``drops`` out of a joint of ``shape``.

    Returns ``(passes, cells)``: each pass is (its drop sets, each joint
    axis's block length as :func:`~icdms.tiling.tiles` gives it, which
    :func:`~icdms.tiling.pieces` walks), and ``cells`` is the largest
    block's size.  A pass forms every cell of the joint once, one block at
    a time, and sums each block into its slice of every marginal of the
    pass.  A joint of at most ``block_cells`` cells is one pass of one block.

    A block is cut only along axes that every member keeps, and never along
    a member's innermost kept axis of size > 1.  ``np.add.reduce`` sums the
    trailing run of dropped axes pairwise and adds the outer ones in order;
    such a cut leaves both the same for every output cell, so each marginal
    is the dense table's bit for bit.  Cutting the innermost kept axis to
    one entry would merge the dropped axes on either side of it into one
    longer run and regroup the pairwise sum.

    Each drop set joins the first pass whose cut, narrowed to the axes it
    allows, still gives blocks of at most ``block_cells`` cells (or of the
    fewest cells the drop set allows alone); otherwise it opens a pass.
    Blocks are cut along the outer axes first.
    """
    groups: list[tuple[list, frozenset]] = []
    for drop in drops:
        kept = [k for k, n in enumerate(shape) if n > 1 and k not in drop]
        own = frozenset(kept[:-1])
        limit = max(block_cells, _uncut_cells(shape, own))
        for g, (members, cut) in enumerate(groups):
            narrowed = cut & own
            if _uncut_cells(shape, narrowed) <= limit:
                groups[g] = (members + [drop], narrowed)
                break
        else:
            groups.append(([drop], own))
    passes = tuple((tuple(members), tiles(shape, block_cells, sorted(cut))) for members, cut in groups)
    return passes, max(math.prod(chunk) for _, chunk in passes)


def _uncut_cells(shape: tuple[int, ...], cut) -> int:
    """Cells of a block that holds one entry of each axis in ``cut``."""
    return math.prod(n for k, n in enumerate(shape) if k not in cut)


def _restrict(factor: np.ndarray, index) -> np.ndarray:
    """``factor``, a joint-rank view, cut to ``index`` along its axes of
    size > 1."""
    return factor[tuple(s if n > 1 else slice(None) for s, n in zip(index, factor.shape))]


def _form(factors, index, block: np.ndarray, limit: int) -> np.ndarray:
    """The cells of the joint at ``index`` multiplied into ``block``, one
    piece of at most ``limit`` cells at a time, the block cut as
    :func:`~icdms.tiling.tiles` cuts it and walked by
    :func:`~icdms.tiling.pieces`.  Each cell goes through the
    multiplications of :func:`_multiply`, in its order, so it has the dense
    table's bits.  Broadcasting keeps each leading product on the axes its
    factors span, in fewer cells than the piece; the first product that
    spans the piece, and every later one, is written into the block.  Whole
    blocks kept ``_terms``' time but lifted ``region_sim``'s traced peak to
    5,388,936 B, over test_star_regions_trace_one_block's 5,242,880 B."""
    for piece in pieces(block.shape, tiles(block.shape, limit)):
        at = tuple(slice(i.start + p.start, i.start + p.stop) for i, p in zip(index, piece))
        part = block[piece]
        product = _restrict(factors[0], at)
        for factor in factors[1:]:
            view = _restrict(factor, at)
            spans = product is part or tuple(map(max, product.shape, view.shape)) == part.shape
            product = np.multiply(product, view, out=part if spans else None)
    return block


def _blocked_marginals(factors, shape: tuple[int, ...], drops) -> dict:
    """The keepdims marginals over each of ``drops`` of the joint of
    ``factors`` (in :func:`_layout`'s form), keyed by drop set, summed
    block by block in one reused buffer as :func:`_block_plan` lays out.
    :func:`_form` forms each block in pieces of at most a quarter of
    ``BLOCK_CELLS`` cells, so its cells are the dense table's."""
    passes, cells = _block_plan(shape, drops, BLOCK_CELLS)
    buffer = np.empty(cells)
    marginals = {}
    for members, chunk in passes:
        outs = [np.empty([1 if k in drop else n for k, n in enumerate(shape)]) for drop in members]
        for index in pieces(shape, chunk):
            block_shape = tuple(s.stop - s.start for s in index)
            block = _form(factors, index, buffer[: math.prod(block_shape)].reshape(block_shape), BLOCK_CELLS // 4)
            for drop, out in zip(members, outs):
                out[index] = np.add.reduce(block, axis=drop, keepdims=True)
        marginals.update(zip(members, outs))
    return marginals


#: Each family's terms as (name, drop set, left and right axes in the
#: marginal squeezed of the drop set), in ``_TERM_QUERIES`` order.
_TERM_PLAN = {
    family: tuple((name, *_mi_plan(_AXES[family], *query)[1:]) for name, query in queries.items())
    for family, queries in _TERM_QUERIES.items()
}


def _terms(fd: FactoredDistribution, family: str) -> dict[str, float]:
    """``family``'s terms (``_TERM_QUERIES``) of ``fd``, which must be in
    ``family``: I(left; right | given) in bits, by name.

    They are computed on the first call and kept in ``fd``'s cache; a
    rejected input keeps nothing.  Every region reads its terms here, and
    ``oracle-check`` checks them against ``oracle.brute_joint_mi``.  The
    marginals come from :func:`_blocked_marginals`, bit for bit those of
    the dense table, and feed :func:`_mi_bits` squeezed of their dropped
    axes, as in :func:`conditional_mi`.  The joint is held one block at a
    time (see :func:`_block_plan` for the block size; a joint of at most
    ``BLOCK_CELLS`` cells is one block) and formed in pieces of a quarter
    of that at most (:func:`_form`).  It raises
    :class:`CapExceededError` above ``CELL_CAP`` cells, as
    :func:`assemble_joint` does.  Its total mass is the sum of one
    marginal, which rounds differently from the dense ``table.sum()`` but
    is held to the same ``NORM_TOL``.  It needs no check for negative or
    NaN cells: the factors are validated, read-only copies, finite with
    entries in [0, 1 + NORM_TOL], so every product of them is finite and
    >= 0.
    """
    _require_family(fd, family)
    terms = fd._cache.get("terms")
    if terms is None:
        shape, factors = _layout(fd)
        _check_cells(math.prod(shape))
        rows = _TERM_PLAN[family]
        drops = tuple(dict.fromkeys(drop for _, drop, _, _ in rows))
        marginals = _blocked_marginals(factors, shape, drops)
        _check_mass(float(np.add.reduce(marginals[drops[0]], axis=None)))
        squeezed = {drop: marginal.squeeze(axis=drop) for drop, marginal in marginals.items()}
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = {name: _mi_bits(squeezed[drop], l_ax, r_ax) for name, drop, l_ax, r_ax in rows}
        fd._cache["terms"] = terms
    return terms


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
    """A :class:`DiscreteRegion` of Python floats, feasible when every
    ``active`` residual is at least ``-DISCRETE_FEAS_TOL``."""
    constraints = {name: float(value) for name, value in constraints.items()}
    feasible = all(constraints[name] >= -DISCRETE_FEAS_TOL for name in active)
    rsum = None if rsum is None else float(rsum)
    return DiscreteRegion(scheme, float(r1), float(r2), rsum, constraints, feasible, active)


def _require_family(fd: FactoredDistribution, family: str) -> None:
    if fd.family != family:
        raise ValueError(f"distribution must be in the {family.upper()} family")


def region_full(fd: FactoredDistribution) -> DiscreteRegion:
    """Rate bounds for the FULL family: both streams bin-coded, joint decoding.

    The bounds and residuals are the binned-pair statement of
    :func:`icdms.gaussian._row_bounds` and :func:`icdms.gaussian._pair_bounds`
    on the seven terms given Q; r1 is not capped.
    """
    t = _terms(fd, FULL)
    with np.errstate(all="ignore"):
        r1, u_at_y1 = _row_bounds(t["i1"], t["i3"], t["i5"])
        r2, rsum, residuals = _pair_bounds(t["i2"], t["i3"], t["i4"], t["i5"], t["i6"], t["i7"])
    constraints = dict(zip(("u_at_y1", "u_at_y2", "v_at_y2", "r2_total"), (u_at_y1, *residuals)))
    return _region(FULL, r1, r2, rsum, constraints, tuple(constraints))


def _star_core(fd: FactoredDistribution, paper_literal: bool):
    """The STAR terms of ``fd``, the two sign-constraint residuals both STAR
    regions report, and the name of the active one."""
    t = _terms(fd, STAR)
    constraints = {"v_margin_y2": t["i_v_y2"] - t["i_vw"], "v_margin_y1": t["i_v_y1"] - t["i_vw"]}
    active = ("v_margin_y1",) if paper_literal else ("v_margin_y2",)
    return t, constraints, active


def region_sim(fd: FactoredDistribution, paper_literal: bool = False) -> DiscreteRegion:
    """Rate bounds for the STAR family with simultaneous decoding.

    Bounds: R1 <= I(W; Y1 | U,Q); R2 <= I(U,V; Y2|Q) - I(V;W|Q);
    R1 + R2 <= I(W,U; Y1|Q) + I(V; Y2 | U,Q) - I(V;W|Q).

    The sign constraint on the bin rate is evaluated against receiver 2's
    output by default (the reading the rate derivation needs); with
    ``paper_literal=True`` the as-printed receiver-1 form decides
    feasibility instead.  Both residuals are always reported.
    """
    t, constraints, active = _star_core(fd, paper_literal)
    r2 = t["i_uv_y2"] - t["i_vw"]
    rsum = t["i_wu_y1"] + t["i_v_y2"] - t["i_vw"]
    return _region("sim", t["r1"], r2, rsum, constraints, active)


def region_suc(fd: FactoredDistribution, paper_literal: bool = False) -> DiscreteRegion:
    """Rate bounds for the STAR family with successive decoding.

    Both receivers decode the ``u`` stream first, so its rate is capped by
    the weaker link: R2 <= min{I(U;Y1|Q), I(U;Y2|Q)} + I(V;Y2|U,Q) -
    I(V;W|Q), with R1 <= I(W;Y1|U,Q) and no sum bound.  The constraint
    handling matches :func:`region_sim`.
    """
    t, constraints, active = _star_core(fd, paper_literal)
    r2 = min(t["i_u_y1"], t["i_u_y2"]) + t["i_v_y2"] - t["i_vw"]
    return _region("suc", t["r1"], r2, None, constraints, active)


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


def _check_keys(doc: dict, known, what: str) -> None:
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise ValueError(f"unknown {what}key {unknown[0]!r} (expected {', '.join(known)})")


def distribution_from_dict(doc: dict) -> FactoredDistribution:
    """Build a :class:`FactoredDistribution` from its JSON document form.

    Schema: ``{"family": "full"|"star", "factors": {...}}`` with factor
    keys ``q``, ``w_x1``, ``u_ut`` (FULL) or ``u`` (STAR), ``v_vt``,
    ``x2``, ``channel`` holding nested arrays in the axis orders documented
    on :class:`FactoredDistribution`.  Any other key raises ``ValueError``.
    """
    if not isinstance(doc, dict):
        raise ValueError("distribution document must be a JSON object")
    _check_keys(doc, ("family", "factors"), "")
    family = doc.get("family")
    if family not in (FULL, STAR):
        raise ValueError(f"family must be 'full' or 'star', got {family!r}")
    factors = doc.get("factors")
    if not isinstance(factors, dict):
        raise ValueError("missing 'factors' object")
    keys = [key for _, key, _, _ in _FACTORS[family]]
    _check_keys(factors, keys, f"{family} factor ")
    missing = [key for key in keys if key not in factors]
    if missing:
        raise ValueError(f"missing factor tables: {', '.join(missing)}")
    for name, key, _, _ in _FACTORS[family]:
        stack = [factors[key]]  # numpy would read "1" and true as numbers, even beside floats
        while stack:
            if isinstance(item := stack.pop(), (str, bool)):
                raise ValueError(f"factor {name!r} (file key {key!r}) must be an array of numbers, got {item!r}")
            stack.extend(item if isinstance(item, list) else ())
    tables = {name: factors[key] for name, key, _, _ in _FACTORS[family]}
    return FactoredDistribution(family=family, **tables)


def distribution_to_dict(fd: FactoredDistribution) -> dict:
    """Inverse of :func:`distribution_from_dict`."""
    factors = {key: getattr(fd, name).tolist() for name, key, _, _ in _FACTORS[fd.family]}
    return {"family": fd.family, "factors": factors}
