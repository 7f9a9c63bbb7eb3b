"""Tests for the exact discrete-memoryless region evaluation.

Derived expected values are recomputed in-test with the brute-force
mutual-information oracle or with hand-checked probability arithmetic.
"""

import itertools
import math

import discrete_factor_oracle as oracle
import numpy as np
import pytest
from helpers import bits, traced_peak
from hypothesis import given, settings, strategies as st

from icdms import (
    AlphabetSpec,
    AxisError,
    CapExceededError,
    FactoredDistribution,
    JointPmf,
    NormalizationError,
    assemble_joint,
    conditional_mi,
    distribution_from_dict,
    distribution_to_dict,
    random_full,
    random_star,
    region_full,
    region_sim,
    region_suc,
)
from icdms import discrete
from icdms.discrete import FULL_AXES, STAR_AXES
from icdms.oracle import brute_joint_mi
from icdms.tiling import tiles


#: The benchmark's large tables: 4,194,304 FULL cells and 1,048,576 STAR cells.
LARGE_FULL = AlphabetSpec(q=2, w=4, x1=4, u=4, ut=4, v=4, vt=4, x2=8, y1=8, y2=8)
LARGE_STAR = AlphabetSpec(q=2, w=4, x1=4, u=4, ut=1, v=4, vt=4, x2=8, y1=8, y2=8)
MIXED = AlphabetSpec(q=2, w=3, x1=3, u=3, ut=2, v=3, x2=3, y1=3, y2=4)


def identity_channel() -> np.ndarray:
    """p(y1, y2 | x1, x2) with y1 = x1 and y2 = x2, binary."""
    chan = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            chan[x1, x2, x1, x2] = 1.0
    return chan


def unit_square_full(v_equals_w: bool = False) -> FactoredDistribution:
    """Noiseless FULL-family example: w uniform with x1 = w, u = ut uniform,
    v = vt uniform (or pinned to w), x2 = vt, y1 = x1, y2 = x2."""
    eye = np.eye(2)
    p_wx1 = (0.5 * eye)[None]
    p_uut = np.broadcast_to((0.5 * eye)[None, None], (1, 2, 2, 2)).copy()
    if v_equals_w:
        p_vvt = np.zeros((1, 2, 2, 2))
        for w in range(2):
            p_vvt[0, w, w, w] = 1.0
    else:
        p_vvt = p_uut.copy()
    p_x2 = np.zeros((1, 2, 2, 2, 2))
    for ut in range(2):
        for vt in range(2):
            p_x2[0, :, ut, vt, vt] = 1.0
    return FactoredDistribution(
        family="full",
        p_q=np.array([1.0]),
        p_wx1=p_wx1,
        p_uut=p_uut,
        p_vvt=p_vvt,
        p_x2=p_x2,
        channel=identity_channel(),
    )


def test_assemble_all_singleton():
    ones = np.ones
    fd = FactoredDistribution(
        family="full",
        p_q=ones(1),
        p_wx1=ones((1, 1, 1)),
        p_uut=ones((1, 1, 1, 1)),
        p_vvt=ones((1, 1, 1, 1)),
        p_x2=ones((1, 1, 1, 1, 1)),
        channel=ones((1, 1, 1, 1)),
    )
    j = assemble_joint(fd)
    assert j.table.shape == (1,) * 10
    assert j.table.sum() == 1.0


def test_assemble_deterministic_single_cell():
    fd = unit_square_full()
    # Pin everything deterministic: w=1, u=ut=0, v=vt=1.
    p_wx1 = np.zeros((1, 2, 2))
    p_wx1[0, 1, 1] = 1.0
    p_uut = np.zeros((1, 2, 2, 2))
    p_uut[0, :, 0, 0] = 1.0
    p_vvt = np.zeros((1, 2, 2, 2))
    p_vvt[0, :, 1, 1] = 1.0
    det = FactoredDistribution(
        family="full",
        p_q=fd.p_q,
        p_wx1=p_wx1,
        p_uut=p_uut,
        p_vvt=p_vvt,
        p_x2=fd.p_x2,
        channel=fd.channel,
    )
    j = assemble_joint(det)
    nonzero = np.argwhere(j.table > 0)
    assert nonzero.shape[0] == 1
    assert j.table[tuple(nonzero[0])] == pytest.approx(1.0, abs=0)


def test_assemble_uniform_binary_cells():
    # Uniform independent binary factors, singleton q: every cell carries
    # 2^-9 over the 9 non-degenerate binary axes.
    fd = FactoredDistribution(
        family="full",
        p_q=np.array([1.0]),
        p_wx1=np.full((1, 2, 2), 0.25),
        p_uut=np.full((1, 2, 2, 2), 0.25),
        p_vvt=np.full((1, 2, 2, 2), 0.25),
        p_x2=np.full((1, 2, 2, 2, 2), 0.5),
        channel=np.full((2, 2, 2, 2), 0.25),
    )
    j = assemble_joint(fd)
    np.testing.assert_allclose(j.table, 2.0 ** -9, rtol=0, atol=1e-15)


def test_assemble_marginals_recover_factors():
    rng = np.random.default_rng(314)
    fd = random_full(AlphabetSpec(), rng)
    j = assemble_joint(fd)
    p_q = j.marginal(("q",))
    np.testing.assert_allclose(p_q, fd.p_q, atol=1e-12)
    p_qwx1 = j.marginal(("q", "w", "x1"))
    np.testing.assert_allclose(p_qwx1 / p_q[:, None, None], fd.p_wx1, atol=1e-12)
    p_qw = j.marginal(("q", "w"))
    p_qwu = j.marginal(("q", "w", "u", "ut"))
    np.testing.assert_allclose(
        p_qwu / p_qw[:, :, None, None], fd.p_uut, atol=1e-12
    )
    # Channel: p(y1,y2|x1,x2) recovered wherever p(x1,x2) > 0.
    p_x1x2 = j.marginal(("x1", "x2"))
    p_chan = j.marginal(("x1", "x2", "y1", "y2"))
    np.testing.assert_allclose(
        p_chan / p_x1x2[:, :, None, None], fd.channel, atol=1e-12
    )


def test_assemble_cell_cap(monkeypatch):
    rng = np.random.default_rng(7)
    fd = random_full(AlphabetSpec(), rng)
    monkeypatch.setattr(discrete, "CELL_CAP", 100)
    with pytest.raises(CapExceededError):
        assemble_joint(fd)


def test_normalization_error_names_factor_and_slice():
    bad = np.full((1, 2, 2, 2), 0.25)
    bad[0, 1] *= 0.9
    with pytest.raises(NormalizationError) as err:
        FactoredDistribution(
            family="full",
            p_q=np.array([1.0]),
            p_wx1=np.full((1, 2, 2), 0.25),
            p_uut=bad,
            p_vvt=np.full((1, 2, 2, 2), 0.25),
            p_x2=np.full((1, 2, 2, 2, 2), 0.5),
            channel=np.full((2, 2, 2, 2), 0.25),
        )
    assert err.value.factor == "p_uut"
    assert err.value.index == (0, 1)
    assert "p_uut" in str(err.value) and "(0, 1)" in str(err.value)


def test_family_field_consistency():
    rng = np.random.default_rng(70)
    fd = random_star(AlphabetSpec(), rng)
    with pytest.raises(ValueError):
        FactoredDistribution(
            family="full",
            p_q=fd.p_q,
            p_wx1=fd.p_wx1,
            p_u=fd.p_u,
            p_vvt=fd.p_vvt,
            p_x2=fd.p_x2,
            channel=fd.channel,
        )
    with pytest.raises(ValueError):
        region_full(fd)


FULL_FIELDS = ("p_q", "p_wx1", "p_uut", "p_vvt", "p_x2", "channel")
STAR_FIELDS = ("p_q", "p_wx1", "p_u", "p_vvt", "p_x2", "channel")


@pytest.mark.parametrize(
    "family, field, table, axis",
    [
        ("full", "p_q", np.array(1.0), None),
        ("full", "p_wx1", np.full((2, 2), 0.25), None),
        ("full", "p_x2", np.full((2, 3, 2, 2, 2), 0.5), "w"),
        ("full", "p_uut", np.full((1, 2, 2, 2), 0.25), "q"),
        ("star", "p_u", np.full((2, 2, 2), 0.5), None),
        ("star", "p_x2", np.full((2, 2, 3, 2, 2), 0.5), "u"),
    ],
    ids=["scalar_q", "2d_w_x1", "x2_w_axis_3", "u_ut_q_axis_1", "3d_u", "star_x2_u_axis_3"],
)
def test_malformed_factor_shape_names_factor(family, field, table, axis):
    """Each table is normalized, so only its rank or one axis size is wrong."""
    maker, names = (random_full, FULL_FIELDS) if family == "full" else (random_star, STAR_FIELDS)
    fd = maker(AlphabetSpec(q=2), np.random.default_rng(71))
    tables = {name: getattr(fd, name) for name in names}
    tables[field] = table
    with pytest.raises(ValueError, match=f"factor '{field}'") as err:
        FactoredDistribution(family=family, **tables)
    assert not isinstance(err.value, NormalizationError)
    if axis is None:
        assert "must have rank" in str(err.value)
    else:
        assert f"axis '{axis}'" in str(err.value)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=len(FULL_AXES), max_size=len(FULL_AXES)).filter(
        lambda sizes: math.prod(sizes) <= 100_000
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_factor_table_matches_hand_written_oracle_bitwise(sizes, seed):
    """Draws and joint of both families equal the hand-written
    factorizations of ``discrete_factor_oracle`` bit for bit.  The joint's
    broadcast products match the oracle's ``optimize=True`` einsum because
    that einsum is one six-operand contraction: one product per cell, in
    reverse factor order."""
    assert FULL_AXES == ("q", "w", "x1", "u", "ut", "v", "vt", "x2", "y1", "y2")
    assert STAR_AXES == ("q", "w", "x1", "u", "v", "vt", "x2", "y1", "y2")
    spec = AlphabetSpec(**dict(zip(FULL_AXES, sizes)))
    letter_of = {axis: letter for letter, axis in discrete._AXIS_OF.items()}
    for maker, oracle_maker, names in (
        (random_full, oracle.random_full, FULL_FIELDS),
        (random_star, oracle.random_star, STAR_FIELDS),
    ):
        fd = maker(spec, np.random.default_rng(seed))
        ref = oracle_maker(spec, np.random.default_rng(seed))
        for name in names:
            assert np.array_equal(getattr(fd, name), getattr(ref, name)), name
        assert fd.sizes() == {a: spec.size(a) for a in fd.axes}
        rows = discrete._FACTORS[fd.family]
        subscripts = ",".join(row[2] for row in rows) + "->" + "".join(letter_of[a] for a in fd.axes)
        path, _ = np.einsum_path(subscripts, *(getattr(fd, row[0]) for row in rows), optimize=True)
        assert path == ["einsum_path", (0, 1, 2, 3, 4, 5)], (fd.family, path)
        j = assemble_joint(fd)
        table, axes = oracle.joint_table(ref)
        assert j.axes == axes
        assert np.array_equal(j.table, table)


def test_assemble_joint_peak_is_the_table():
    """No full-size temporary: the traced peak of a 4,194,304-cell FULL
    assembly stays within 1 MiB of the table itself."""
    fd = random_full(LARGE_FULL, np.random.default_rng(16))
    j, peak = traced_peak(lambda: assemble_joint(fd))
    assert j.table.size == 4_194_304
    assert peak < j.table.nbytes + 2**20


def test_joint_table_is_read_only():
    """The table cannot be written, and writing to a returned marginal
    changes neither the table nor a later marginal or MI value."""
    j = assemble_joint(random_full(AlphabetSpec(), np.random.default_rng(17)))
    assert not j.table.flags.writeable
    with pytest.raises(ValueError):
        j.table[(0,) * j.table.ndim] = 0.5
    table = j.table.copy()
    marginal, mi = j.marginal(("u", "q")), conditional_mi(j, ("u",), ("y2",), ("q",))
    for names in (("u", "q"), j.axes):
        j.marginal(names)[(0,) * len(names)] = 0.5
    assert np.array_equal(j.table, table)
    assert np.array_equal(j.marginal(("u", "q")), marginal)
    assert conditional_mi(j, ("u",), ("y2",), ("q",)) == mi


def test_joint_pmf_keeps_no_alias_of_its_input():
    """A write to the caller's array after construction reaches neither the
    validated table nor ``conditional_mi``: the writes below keep the mass
    at 1 but make a cell negative, and ``conditional_mi`` used to return
    0.0 for them without an error.  An array that is read-only and owns
    its data, as ``assemble_joint`` hands over, is kept without a copy."""
    t = np.full((2, 2), 0.25)
    j = JointPmf(t, ("x", "y"))
    t[0, 0] = 5.0
    t[1, 1] = -4.5
    assert np.array_equal(j.table, np.full((2, 2), 0.25))
    assert conditional_mi(j, ("x",), ("y",)) == 0.0
    view = np.full((2, 2), 0.25)
    j = JointPmf(view[:], ("x", "y"))
    view[0, 1] = -1.0
    assert j.table.min() == 0.25
    frozen = np.full((2, 2), 0.25)
    frozen.flags.writeable = False
    assert JointPmf(frozen, ("x", "y")).table is frozen


def _old_marginal(j: JointPmf, names: tuple[str, ...]) -> np.ndarray:
    """``JointPmf.marginal`` written out as a reference: the table summed
    over the axes not in ``names``, those kept moved into ``names``'
    order."""
    keep = set(names)
    drop = tuple(k for k, a in enumerate(j.axes) if a not in keep)
    out = j.table.sum(axis=drop)
    order = tuple(a for a in j.axes if a in keep)
    if order != tuple(names):
        out = np.moveaxis(out, [order.index(n) for n in names], range(len(names)))
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_marginal_matches_sum_and_moveaxis_bitwise(data, seed):
    spec = AlphabetSpec(q=2, w=3, u=3, y1=3)
    j = assemble_joint(random_full(spec, np.random.default_rng(seed)))
    for _ in range(3):
        names = tuple(data.draw(st.permutations(FULL_AXES)))[: data.draw(st.integers(0, 10))]
        out = j.marginal(names)
        ref = _old_marginal(j, names)
        assert out.shape == ref.shape
        assert np.array_equal(bits(out), bits(ref))


def _fields(region) -> tuple:
    values = (region.r1_bound, region.r2_bound, region.sum_bound or 0.0, *region.constraints.values())
    return region.scheme, tuple(bits(values)), tuple(region.constraints), region.feasible, region.active


def _dense_fields(evaluate, fd) -> tuple:
    """``_fields`` of ``evaluate(fd)`` by the region's formulas, each query
    run with ``conditional_mi`` on a freshly assembled dense joint."""

    def mi(left, right, given=("q",)):
        return conditional_mi(assemble_joint(fd), left, right, given)

    if evaluate is region_full:
        i_uw, i_vw = mi(("u",), ("w",)), mi(("v",), ("w",))
        i_uw_y1, i_v_y2u = mi(("u", "w"), ("y1",)), mi(("v",), ("y2", "u"))
        r1 = mi(("w",), ("y1", "u"))
        r2 = mi(("u", "v"), ("y2",)) - i_uw - i_vw
        rsum = i_uw_y1 + i_v_y2u - i_uw - i_vw
        constraints = {
            "u_at_y1": i_uw_y1 - i_uw,
            "u_at_y2": mi(("u",), ("y2", "v")) - i_uw,
            "v_at_y2": i_v_y2u - i_vw,
            "r2_total": r2,
        }
        active = tuple(constraints)
    else:
        uq = ("u", "q")
        i_vw, i_v_y2, r1 = mi(("v",), ("w",)), mi(("v",), ("y2",), uq), mi(("w",), ("y1",), uq)
        constraints = {"v_margin_y2": i_v_y2 - i_vw, "v_margin_y1": mi(("v",), ("y1",), uq) - i_vw}
        active = ("v_margin_y2",)
        if evaluate is region_sim:
            r2 = mi(("u", "v"), ("y2",)) - i_vw
            rsum = mi(("w", "u"), ("y1",)) + i_v_y2 - i_vw
        else:
            r2 = min(mi(("u",), ("y1",)), mi(("u",), ("y2",))) + i_v_y2 - i_vw
            rsum = None
    feasible = all(constraints[name] >= -discrete.DISCRETE_FEAS_TOL for name in active)
    scheme = {region_full: "full", region_sim: "sim", region_suc: "suc"}[evaluate]
    region = discrete.DiscreteRegion(scheme, r1, r2, rsum, constraints, feasible, active)
    return _fields(region)


def _blocked(monkeypatch, block_cells) -> None:
    """Let no region assemble or query a dense joint, and with
    ``block_cells`` set, sum joints in blocks of that many cells."""
    if block_cells is not None:
        monkeypatch.setattr(discrete, "BLOCK_CELLS", block_cells)

    def refuse(*args):
        raise AssertionError("a region queried a dense joint")

    monkeypatch.setattr(discrete, "assemble_joint", refuse)
    monkeypatch.setattr(discrete, "conditional_mi", refuse)


#: Joints that are one block at the default ``BLOCK_CELLS``, and the same
#: joints summed in blocks of 64 cells.
_PLANS = [
    pytest.param(spec, draws, block_cells, id=name + suffix)
    for name, spec, draws in (
        ("binary", AlphabetSpec(q=2), 4),
        ("mixed", MIXED, 4),
        ("size_1_axes", AlphabetSpec(q=2, w=1, u=1, y1=4), 2),
    )
    for suffix, block_cells in (("", None), ("_blocks", 64))
]


@pytest.mark.parametrize("evaluate", [region_full, region_sim, region_suc])
@pytest.mark.parametrize("spec, draws, block_cells", _PLANS)
def test_region_fields_match_fresh_joint_per_query_bitwise(monkeypatch, evaluate, spec, draws, block_cells):
    """Each region field equals the one its formula gives from
    ``conditional_mi`` on a fresh dense joint per query, bit for bit, both
    when the joint is one block and when it is summed in several."""
    maker = random_full if evaluate is region_full else random_star
    rng = np.random.default_rng(18)
    fds = [maker(spec, rng) for _ in range(draws)]
    dense = [_dense_fields(evaluate, fd) for fd in fds]
    _blocked(monkeypatch, block_cells)
    assert [_fields(evaluate(fd)) for fd in fds] == dense


@pytest.mark.parametrize("evaluate", [region_full, region_sim, region_suc])
def test_large_region_fields_match_dense_joint_bitwise(evaluate):
    """The benchmark's large tables, several blocks at the default
    ``BLOCK_CELLS``, give the fields of the dense route bit for bit."""
    spec, maker = (LARGE_FULL, random_full) if evaluate is region_full else (LARGE_STAR, random_star)
    fd = maker(spec, np.random.default_rng(20))
    assert spec.cells(fd.family) > discrete.BLOCK_CELLS
    assert _fields(evaluate(fd)) == _dense_fields(evaluate, fd)


@pytest.mark.parametrize(
    "evaluate, queries, reductions, block_cells",
    [
        pytest.param(evaluate, queries, reductions, block_cells, id=f"{evaluate.__name__}-{queries}-{reductions}{suffix}")
        for evaluate, queries, reductions in ((region_full, 7, 4), (region_sim, 8, 6), (region_suc, 8, 6))
        for suffix, block_cells in (("", None), ("-blocks", 64))
    ],
)
def test_region_sums_each_distinct_marginal_once(monkeypatch, evaluate, queries, reductions, block_cells):
    """Queries that keep the same axes share one reduction: of the whole
    joint when it is one block, of every block when it is several, where
    each distinct marginal belongs to exactly one pass.  A family has one
    term set (STAR's serves both of its regions), computed on the first
    region call; the next call on the same distribution, of either STAR
    region, sums and queries nothing."""
    maker = random_full if evaluate is region_full else random_star
    fd = maker(AlphabetSpec(q=2), np.random.default_rng(19))
    marginals, calls = [], []
    blocked, mi_bits = discrete._blocked_marginals, discrete._mi_bits

    def kept_marginals(factors, shape, drops):
        passes, _ = discrete._block_plan(shape, drops, discrete.BLOCK_CELLS)
        assert sorted(m for members, _ in passes for m in members) == sorted(drops)
        marginals.append(blocked(factors, shape, drops))
        return marginals[-1]

    def counted_mi_bits(*args):
        calls.append(args)
        return mi_bits(*args)

    _blocked(monkeypatch, block_cells)
    monkeypatch.setattr(discrete, "_blocked_marginals", kept_marginals)
    monkeypatch.setattr(discrete, "_mi_bits", counted_mi_bits)
    first = evaluate(fd)
    assert ([len(m) for m in marginals], len(calls)) == ([reductions], queries)
    other = {region_full: region_full, region_sim: region_suc, region_suc: region_sim}[evaluate]
    other(fd)
    assert _fields(evaluate(fd)) == _fields(first)
    assert ([len(m) for m in marginals], len(calls)) == ([reductions], queries)


def _innermost_kept(shape, drop):
    """Position of the innermost axis of size > 1 that ``drop`` keeps."""
    return max((k for k, n in enumerate(shape) if n > 1 and k not in drop), default=None)


def _blocked_sum(table, drop, cuts) -> np.ndarray:
    """``table``'s keepdims sum over ``drop``, each block of the product of
    ``cuts`` summed on its own contiguous copy as the region's buffer holds
    it."""
    out = np.empty([1 if k in drop else n for k, n in enumerate(table.shape)])
    for index in itertools.product(*cuts):
        out[index] = np.add.reduce(np.ascontiguousarray(table[index]), axis=drop, keepdims=True)
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_block_rule_reproduces_dense_sum_bitwise(data, seed):
    """Pins the numpy behaviour the blocked marginals rely on.

    For random shapes (1-4 per axis) and keep sets, the planner's blocks
    tile the table, cut only axes that every member of the pass keeps and
    never a member's innermost kept axis of size > 1, and the blocks' sums
    equal ``np.add.reduce`` of the whole table bit for bit.  So do the
    finest blocks the rule allows: one entry of every other kept axis."""
    shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=8)))
    drop_sets = st.sets(st.integers(0, len(shape) - 1)).map(lambda d: tuple(sorted(d)))
    drops = tuple(data.draw(st.lists(drop_sets, min_size=1, max_size=4, unique=True)))
    block_cells = data.draw(st.integers(1, math.prod(shape)))
    rng = np.random.default_rng(seed)
    # Entries over six decades, so that the summation order shows in the bits.
    table = rng.random(shape) * 10.0 ** rng.integers(-3, 3, shape)
    passes, cells = discrete._block_plan(shape, drops, block_cells)
    assert sorted(m for members, _ in passes for m in members) == sorted(drops)
    for members, cuts in passes:
        cover = np.zeros(shape, dtype=int)
        for index in itertools.product(*cuts):
            cover[index] += 1
            assert cover[index].size <= cells
        assert (cover == 1).all()
        cut = {k for k, axis in enumerate(cuts) if len(axis) > 1}
        for drop in members:
            assert not cut & set(drop)
            assert _innermost_kept(shape, drop) not in cut
            dense = np.add.reduce(table, axis=drop, keepdims=True)
            assert np.array_equal(bits(_blocked_sum(table, drop, cuts)), bits(dense))
            (_, finest), = discrete._block_plan(shape, (drop,), 1)[0]
            assert np.array_equal(bits(_blocked_sum(table, drop, finest)), bits(dense))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_forming_on_own_axes_matches_broadcast_product_bitwise(data, seed):
    """Every block that ``_form`` multiplies, and the whole joint, in the
    pieces ``tiles`` cuts it into for any cell count, which cover it exactly
    once, its leading products kept on their own axes, equals ``_multiply``
    of the factors broadcast over it, bit for bit."""
    family = data.draw(st.sampled_from([discrete.FULL, discrete.STAR]))
    sizes = AlphabetSpec(**{a: data.draw(st.integers(1, 3), label=a) for a in FULL_AXES})
    fd = (random_full if family == discrete.FULL else random_star)(sizes, np.random.default_rng(seed))
    shape, factors = discrete._layout(fd)
    views = [np.broadcast_to(factor, shape) for factor in factors]
    drop = tuple(sorted(data.draw(st.sets(st.integers(0, len(shape) - 1)))))
    block_cells = data.draw(st.integers(1, math.prod(shape)))
    limit = data.draw(st.integers(1, math.prod(shape)))
    ((_, cuts),), _ = discrete._block_plan(shape, (drop,), block_cells)
    whole = tuple(slice(0, n) for n in shape)
    for index in [*itertools.product(*cuts), whole]:
        block_shape = tuple(s.stop - s.start for s in index)
        cover = np.zeros(block_shape, dtype=int)
        for piece in itertools.product(*tiles(block_shape, limit)):
            part = cover[piece]
            part += 1
            assert part.size <= limit
        assert (cover == 1).all()
        block = discrete._form(factors, index, np.empty(block_shape), limit)
        operands = [view[index] for view in views] if index != whole else factors
        assert np.array_equal(bits(block), bits(discrete._multiply(operands, np.empty(block_shape))))


def _masked_mi_bits(p_lrg, l_ax, r_ax) -> float:
    """The MI arithmetic as every query ran it before the unmasked path:
    the keepdims marginal, masks on every call."""
    p_rg = np.add.reduce(p_lrg, axis=l_ax, keepdims=True)
    p_lg = np.add.reduce(p_lrg, axis=r_ax, keepdims=True)
    p_g = np.add.reduce(p_rg, axis=r_ax, keepdims=True)
    mask = p_lrg > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        num = np.log2(np.where(mask, p_lrg * p_g, 1.0))
        den = np.log2(np.where(mask, p_lg * p_rg, 1.0))
    value = float(np.add.reduce(p_lrg * (num - den), axis=None, where=mask))
    return value if value > 0.0 else 0.0


@settings(max_examples=300, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), zeros=st.booleans())
def test_unmasked_squeezed_mi_matches_masked_bitwise(data, seed, zeros):
    """``_mi_bits`` on a marginal squeezed of its summed-out axes, unmasked
    when no cell is 0, gives the bits of the masked arithmetic on the
    keepdims marginal, with and without zero cells."""
    roles = data.draw(st.lists(st.sampled_from("lrgd"), min_size=2, max_size=7).filter(lambda r: "l" in r and "r" in r))
    shape = tuple(1 if role == "d" else data.draw(st.integers(1, 5)) for role in roles)
    rng = np.random.default_rng(seed)
    # Entries over six decades, so that the summation order shows in the bits.
    table = rng.random(shape) * 10.0 ** rng.integers(-3, 3, shape)
    if zeros:
        table[rng.random(shape) < 0.3] = 0.0
    drop = tuple(k for k, role in enumerate(roles) if role == "d")
    kept = [k for k in range(len(roles)) if k not in drop]
    l_ax, r_ax = (tuple(k for k, role in enumerate(roles) if role == side) for side in "lr")
    masked = _masked_mi_bits(table, l_ax, r_ax)
    with np.errstate(divide="ignore", invalid="ignore"):
        fast = discrete._mi_bits(table.squeeze(axis=drop), tuple(map(kept.index, l_ax)), tuple(map(kept.index, r_ax)))
    assert bits([fast]) == bits([masked])


def test_kept_terms_leave_eq_and_repr_unchanged():
    """The terms a region keeps on a distribution are not part of its
    ``==`` or ``repr``, and ``==`` of multi-cell tables is a bool: it
    used to raise "truth value ... ambiguous"."""
    spec = AlphabetSpec(q=2)
    for maker, evaluate, names in ((random_full, region_full, FULL_FIELDS), (random_star, region_sim, STAR_FIELDS)):
        fd = maker(spec, np.random.default_rng(23))
        twin = FactoredDistribution(family=fd.family, **{n: getattr(fd, n) for n in names})
        before = repr(fd)
        evaluate(fd)
        assert set(fd._cache) == {"terms"} and twin._cache == {}
        assert repr(fd) == before == repr(twin)
        assert "_cache" not in before
        assert (fd == twin) is True
        assert (fd == maker(spec, np.random.default_rng(24))) is False
    assert (random_full(spec, np.random.default_rng(23)) == random_star(spec, np.random.default_rng(23))) is False


def test_joint_pmf_eq_compares_axes_and_entries():
    fd = random_star(AlphabetSpec(q=2), np.random.default_rng(0))
    j = assemble_joint(fd)
    assert (j == assemble_joint(fd)) is True
    assert (j == JointPmf(j.table.copy(), j.axes)) is True
    assert (j == assemble_joint(random_star(AlphabetSpec(q=2), np.random.default_rng(1)))) is False
    table = np.full((2, 2), 0.25)
    assert (JointPmf(table, ("x", "y")) == JointPmf(table, ("y", "x"))) is False
    assert j != "not a joint"


def test_region_full_traces_one_block_not_the_table():
    """The 4,194,304-cell FULL table (32 MiB dense) is summed in one
    reused block of ``BLOCK_CELLS`` cells (4 MiB)."""
    fd = random_full(LARGE_FULL, np.random.default_rng(21))
    _, peak = traced_peak(lambda: region_full(fd))
    assert peak < 8 * 2**20


@pytest.mark.parametrize("evaluate", [region_sim, region_suc])
def test_star_regions_trace_one_block(evaluate):
    """The 1,048,576-cell STAR table is summed in one reused block."""
    fd = random_star(LARGE_STAR, np.random.default_rng(22))
    _, peak = traced_peak(lambda: evaluate(fd))
    assert peak < discrete.BLOCK_CELLS * 8 + 2**20


@pytest.mark.parametrize("block_cells", [None, 64], ids=["one_block", "blocks"])
@pytest.mark.parametrize("evaluate", [region_full, region_sim, region_suc])
def test_region_rejections_hold_for_every_plan(monkeypatch, evaluate, block_cells):
    """The cap and the total-mass rule reject the same inputs whether the
    joint is one block or several.  Each factor scaled by 1 + 0.9e-12
    passes its own check, but the product's error accumulates."""
    maker, names = (random_full, FULL_FIELDS) if evaluate is region_full else (random_star, STAR_FIELDS)
    fd = maker(AlphabetSpec(q=2), np.random.default_rng(1))
    drifted = FactoredDistribution(family=fd.family, **{n: getattr(fd, n) * (1 + 0.9e-12) for n in names})
    _blocked(monkeypatch, block_cells)
    # The total is summed from a marginal, not the table; here both read
    # 1.0000000000053997.
    with pytest.raises(ValueError, match=r"^joint table mass is 1\.0000000000053997, not 1$"):
        evaluate(drifted)
    monkeypatch.setattr(discrete, "CELL_CAP", 100)
    cells = math.prod(fd.sizes().values())
    with pytest.raises(CapExceededError, match=f"^joint table needs {cells} cells, cap is 100$"):
        evaluate(fd)
    # A rejected input keeps nothing, so it is rejected again.
    assert drifted._cache == fd._cache == {}


@pytest.mark.parametrize("block_cells", [None, 64], ids=["one_block", "blocks"])
@pytest.mark.parametrize("evaluate", [region_full, region_sim, region_suc])
def test_factors_stay_as_validated_for_every_plan(monkeypatch, evaluate, block_cells):
    """A distribution keeps read-only copies of its factors, so no factor
    turns negative after validation.  ``p_q`` rewritten to [1.5, -0.5]
    keeps the mass at 1 and used to give a large table's region silently;
    now the write fails, and writing to the caller's array leaves the
    region as it was."""
    maker, names = (random_full, FULL_FIELDS) if evaluate is region_full else (random_star, STAR_FIELDS)
    source = maker(AlphabetSpec(q=2), np.random.default_rng(0))
    tables = {n: np.array(getattr(source, n)) for n in names}
    fd = FactoredDistribution(family=source.family, **tables)
    _blocked(monkeypatch, block_cells)
    before = _fields(evaluate(fd))
    with pytest.raises(ValueError, match="read-only"):
        fd.p_q[:] = [1.5, -0.5]
    tables["p_q"][:] = [1.5, -0.5]
    # fd keeps its terms, so evaluate a distribution rebuilt from its fields.
    rebuilt = FactoredDistribution(family=fd.family, **{n: getattr(fd, n) for n in names})
    assert _fields(evaluate(rebuilt)) == before


@pytest.mark.parametrize(
    "table, axes",
    [
        (np.full((2, 2), 0.25), ("x",)),
        (np.array([[0.75, -0.25], [0.25, 0.25]]), ("x", "y")),
        (np.full((2, 2), 0.3), ("x", "y")),
        (np.array([[math.nan, 0.5], [0.25, 0.25]]), ("x", "y")),
        (np.array([math.inf, -math.inf]), ("x",)),
    ],
    ids=["rank", "negative", "mass", "nan", "inf"],
)
def test_joint_pmf_rejects_bad_tables(table, axes):
    with pytest.raises(ValueError):
        JointPmf(table, axes)


def test_conditional_mi_correlated_bits():
    table = np.zeros((2, 2))
    table[0, 0] = table[1, 1] = 0.5
    j = JointPmf(table, ("x", "y"))
    assert conditional_mi(j, ("x",), ("y",)) == pytest.approx(1.0, abs=1e-15)


def test_conditional_mi_independent():
    j = JointPmf(np.full((2, 2), 0.25), ("x", "y"))
    assert conditional_mi(j, ("x",), ("y",)) == 0.0


def test_conditional_mi_bsc():
    # Uniform input through a binary symmetric channel with flip 0.11:
    # I = 1 - Hb(0.11), hand-checked binary entropy arithmetic.
    flip = 0.11
    table = np.array(
        [[0.5 * (1 - flip), 0.5 * flip], [0.5 * flip, 0.5 * (1 - flip)]]
    )
    j = JointPmf(table, ("x", "y"))
    hb = -flip * math.log2(flip) - (1 - flip) * math.log2(1 - flip)
    expected = 1.0 - hb
    assert expected == pytest.approx(0.5001, abs=5e-5)
    assert conditional_mi(j, ("x",), ("y",)) == pytest.approx(expected, abs=1e-12)
    assert brute_joint_mi(j, ("x",), ("y",)) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("zeros", [True, False], ids=["zero_cells", "no_zero_cells"])
def test_mi_where_a_product_underflows(zeros):
    """g = 1 holds 1e-170 of mass, spread evenly, so p(x,y,g) p(g) and
    p(x,g) p(y,g) underflow to 0 in its cells.  conditional_mi used to
    warn "invalid value encountered in subtract" and return 0.0, and
    brute_joint_mi raised ZeroDivisionError.  g = 0 holds the rest: x = y
    (1 bit), or x and y agreeing with probability 0.8."""
    inner = np.array([[0.5, 0.0], [0.0, 0.5]]) if zeros else np.array([[0.4, 0.1], [0.1, 0.4]])
    table = np.empty((2, 2, 2))
    table[:, :, 0] = inner * (1 - 1e-170)
    table[:, :, 1] = 1e-170 / 4
    j = JointPmf(table, ("x", "y", "g"))
    expected = 1.0 if zeros else 0.8 * math.log2(1.6) + 0.2 * math.log2(0.4)
    for mi in (conditional_mi, brute_joint_mi):
        assert mi(j, ("x",), ("y",), ("g",)) == pytest.approx(expected, abs=1e-12)


def test_conditional_mi_axis_errors():
    j = JointPmf(np.full((2, 2), 0.25), ("x", "y"))
    with pytest.raises(AxisError):
        conditional_mi(j, ("x",), ("z",))
    with pytest.raises(AxisError):
        conditional_mi(j, ("x",), ("x",))
    with pytest.raises(AxisError):
        conditional_mi(j, ("x",), ("y",), ("y",))
    for mi in (conditional_mi, brute_joint_mi):
        for name in (["y"], (1,)):
            with pytest.raises(AxisError, match="must be strings"):
                mi(j, ("x",), (name,))
    # JointPmf.marginal checks its names as a query's; it used to raise a
    # bare ValueError from tuple.index or np.moveaxis.
    for names in (("z",), ("x", "x"), ((1,),)):
        with pytest.raises(AxisError):
            j.marginal(names)


def test_conditional_mi_symmetry_and_nonnegativity():
    rng = np.random.default_rng(55)
    for _ in range(25):
        fd = random_star(AlphabetSpec(), rng)
        j = assemble_joint(fd)
        a = conditional_mi(j, ("u", "v"), ("y2",), ("q",))
        b = conditional_mi(j, ("y2",), ("u", "v"), ("q",))
        assert a == pytest.approx(b, abs=1e-12)
        assert a >= 0.0


def test_region_full_unit_square():
    fd = unit_square_full()
    region = region_full(fd)
    # Oracle recomputation of every term.
    j = assemble_joint(fd)
    o = lambda L, R, G=("q",): brute_joint_mi(j, L, R, G)
    i_uw, i_vw = o(("u",), ("w",)), o(("v",), ("w",))
    assert region.r1_bound == pytest.approx(o(("w",), ("y1", "u")), abs=1e-12)
    assert region.r2_bound == pytest.approx(
        o(("u", "v"), ("y2",)) - i_uw - i_vw, abs=1e-12
    )
    assert region.sum_bound == pytest.approx(
        o(("u", "w"), ("y1",)) + o(("v",), ("y2", "u")) - i_uw - i_vw, abs=1e-12
    )
    assert (region.r1_bound, region.r2_bound, region.sum_bound) == pytest.approx(
        (1.0, 1.0, 2.0), abs=1e-12
    )
    assert region.feasible
    assert region.active == tuple(region.constraints)


def test_region_full_all_outputs_constant():
    fd = unit_square_full()
    chan = np.ones((2, 2, 1, 1))
    silent = FactoredDistribution(
        family="full",
        p_q=fd.p_q,
        p_wx1=fd.p_wx1,
        p_uut=fd.p_uut,
        p_vvt=fd.p_vvt,
        p_x2=fd.p_x2,
        channel=chan,
    )
    region = region_full(silent)
    assert region.r1_bound == 0.0
    # I(U;W)=I(V;W)=0 here, so the R2 and sum bounds are plain zeros too.
    assert region.r2_bound == 0.0 and region.sum_bound == 0.0


def test_region_full_v_pinned_to_w():
    # v = vt = w makes I(V;W) = 1 bit: the bin cost eats the whole
    # V-stream rate.  Expected values recomputed with the brute oracle.
    fd = unit_square_full(v_equals_w=True)
    region = region_full(fd)
    j = assemble_joint(fd)
    o = lambda L, R, G=("q",): brute_joint_mi(j, L, R, G)
    i_uw, i_vw = o(("u",), ("w",)), o(("v",), ("w",))
    assert i_vw == pytest.approx(1.0, abs=1e-12)
    assert region.r2_bound == pytest.approx(
        o(("u", "v"), ("y2",)) - i_uw - i_vw, abs=1e-12
    )
    assert region.r2_bound == pytest.approx(0.0, abs=1e-12)
    expected_sum = o(("u", "w"), ("y1",)) + o(("v",), ("y2", "u")) - i_uw - i_vw
    assert region.sum_bound == pytest.approx(expected_sum, abs=1e-12)
    assert region.sum_bound == pytest.approx(1.0, abs=1e-12)


def test_region_sim_u_singleton_matches_single_stream_form():
    # |U| = 1: conditioning on U is vacuous and the bounds collapse to
    # R1 <= I(W;Y1|Q), R2 <= I(V;Y2|Q) - I(V;W|Q).
    rng = np.random.default_rng(606)
    fd = random_star(AlphabetSpec(u=1), rng)
    region = region_sim(fd)
    j = assemble_joint(fd)
    o = lambda L, R, G=("q",): brute_joint_mi(j, L, R, G)
    i_vw = o(("v",), ("w",))
    assert region.r1_bound == pytest.approx(o(("w",), ("y1",)), abs=1e-12)
    assert region.r2_bound == pytest.approx(o(("v",), ("y2",)) - i_vw, abs=1e-12)
    assert region.sum_bound == pytest.approx(
        o(("w",), ("y1",)) + o(("v",), ("y2",)) - i_vw, abs=1e-12
    )


def test_region_sim_v_singleton():
    rng = np.random.default_rng(607)
    fd = random_star(AlphabetSpec(v=1, vt=1), rng)
    region = region_sim(fd)
    j = assemble_joint(fd)
    assert region.r2_bound == pytest.approx(
        brute_joint_mi(j, ("u",), ("y2",), ("q",)), abs=1e-12
    )


def test_region_sim_terms_match_brute_oracle():
    rng = np.random.default_rng(608)
    for _ in range(10):
        fd = random_star(AlphabetSpec(), rng)
        region = region_sim(fd)
        j = assemble_joint(fd)
        o = lambda L, R, G=("q",): brute_joint_mi(j, L, R, G)
        i_vw = o(("v",), ("w",))
        assert region.r1_bound == pytest.approx(
            o(("w",), ("y1",), ("u", "q")), abs=1e-12
        )
        assert region.r2_bound == pytest.approx(
            o(("u", "v"), ("y2",)) - i_vw, abs=1e-12
        )
        assert region.sum_bound == pytest.approx(
            o(("w", "u"), ("y1",)) + o(("v",), ("y2",), ("u", "q")) - i_vw,
            abs=1e-12,
        )


def test_region_suc_u_singleton_single_stream():
    rng = np.random.default_rng(609)
    fd = random_star(AlphabetSpec(u=1), rng)
    region = region_suc(fd)
    j = assemble_joint(fd)
    o = lambda L, R, G=("q",): brute_joint_mi(j, L, R, G)
    # min{I(U;Y1), I(U;Y2)} = 0 for constant U.
    assert region.r2_bound == pytest.approx(
        o(("v",), ("y2",), ("u", "q")) - o(("v",), ("w",)), abs=1e-12
    )
    assert region.sum_bound is None


def test_region_suc_v_singleton_min_form():
    rng = np.random.default_rng(610)
    fd = random_star(AlphabetSpec(v=1, vt=1), rng)
    region = region_suc(fd)
    j = assemble_joint(fd)
    o = lambda L, R, G=("q",): brute_joint_mi(j, L, R, G)
    assert region.r1_bound == pytest.approx(
        o(("w",), ("y1",), ("u", "q")), abs=1e-12
    )
    assert region.r2_bound == pytest.approx(
        min(o(("u",), ("y1",)), o(("u",), ("y2",))), abs=1e-12
    )


def test_region_suc_contained_in_region_sim():
    rng = np.random.default_rng(611)
    for _ in range(25):
        fd = random_star(AlphabetSpec(), rng)
        suc = region_suc(fd)
        sim = region_sim(fd)
        assert suc.r1_bound <= sim.r1_bound + 1e-12
        assert suc.r2_bound <= sim.r2_bound + 1e-12
        assert suc.r1_bound + suc.r2_bound <= sim.sum_bound + 1e-12
        assert suc.feasible == sim.feasible


def test_paper_literal_flag_switches_active_constraint():
    rng = np.random.default_rng(612)
    fd = random_star(AlphabetSpec(), rng)
    for evaluate in (region_sim, region_suc):
        default = evaluate(fd)
        literal = evaluate(fd, paper_literal=True)
        # Both residuals are always reported and identical between runs.
        assert default.constraints == literal.constraints
        assert default.feasible == (
            default.constraints["v_margin_y2"] >= -1e-12
        )
        assert literal.feasible == (
            literal.constraints["v_margin_y1"] >= -1e-12
        )
        assert (default.active, literal.active) == (("v_margin_y2",), ("v_margin_y1",))


def test_information_identity_on_full_draws():
    # I(U;Y2,V|Q) + I(V;Y2,U|Q) - I(U,V;Y2|Q) = I(U;V|Q) + I(U;V|Y2,Q) >= 0.
    rng = np.random.default_rng(613)
    for _ in range(25):
        fd = random_full(AlphabetSpec(), rng)
        j = assemble_joint(fd)
        lhs = (
            conditional_mi(j, ("u",), ("y2", "v"), ("q",))
            + conditional_mi(j, ("v",), ("y2", "u"), ("q",))
            - conditional_mi(j, ("u", "v"), ("y2",), ("q",))
        )
        rhs = conditional_mi(j, ("u",), ("v",), ("q",)) + conditional_mi(
            j, ("u",), ("v",), ("y2", "q")
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert lhs >= -1e-12


def test_distribution_dict_round_trip():
    rng = np.random.default_rng(614)
    for maker in (random_full, random_star):
        fd = maker(AlphabetSpec(), rng)
        doc = distribution_to_dict(fd)
        back = distribution_from_dict(doc)
        assert back.family == fd.family
        np.testing.assert_allclose(back.p_x2, fd.p_x2, atol=0)
        np.testing.assert_allclose(back.channel, fd.channel, atol=0)


def test_distribution_from_dict_errors():
    with pytest.raises(ValueError):
        distribution_from_dict({"family": "nope", "factors": {}})
    with pytest.raises(ValueError):
        distribution_from_dict({"family": "star", "factors": {"q": [1.0]}})
    with pytest.raises(ValueError):
        distribution_from_dict([1, 2, 3])
    with pytest.raises(ValueError, match="family must be"):
        distribution_from_dict({"family": ["full"], "factors": {}})
    doc = distribution_to_dict(random_full(AlphabetSpec(), np.random.default_rng(3)))
    with pytest.raises(ValueError, match="unknown key 'comment'"):
        distribution_from_dict({**doc, "comment": "x"})
    with pytest.raises(ValueError, match="unknown full factor key 'u'"):
        distribution_from_dict({**doc, "factors": {**doc["factors"], "u": [[1.0]]}})


@pytest.mark.parametrize("family", [discrete.FULL, discrete.STAR])
def test_factor_subscripts_follow_joint_axis_order(family):
    # assemble_joint and the block former insert the joint axes a factor
    # lacks but never transpose one; that holds while each factor's axes
    # appear in the joint in the order of its subscripts.
    axes = discrete._AXES[family]
    for name, _, subscripts, _ in discrete._FACTORS[family]:
        positions = [axes.index(discrete._AXIS_OF[c]) for c in subscripts]
        assert positions == sorted(set(positions)), name
