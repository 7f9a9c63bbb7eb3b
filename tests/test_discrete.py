"""Tests for the exact discrete-memoryless region evaluation.

Derived expected values are recomputed in-test with the brute-force
mutual-information oracle or with hand-checked probability arithmetic.
"""

import math

import discrete_factor_oracle as oracle
import numpy as np
import pytest
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
from icdms.discrete import FULL_AXES
from icdms.oracle import brute_joint_mi


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


def test_assemble_cell_cap():
    rng = np.random.default_rng(7)
    fd = random_full(AlphabetSpec(), rng)
    with pytest.raises(CapExceededError):
        assemble_joint(fd, cell_cap=100)


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
    sizes=st.lists(st.integers(1, 3), min_size=len(FULL_AXES), max_size=len(FULL_AXES)),
    seed=st.integers(0, 2**32 - 1),
)
def test_factor_table_matches_hand_written_oracle_bitwise(sizes, seed):
    """Draws and joint of both families equal the hand-written
    factorizations of ``discrete_factor_oracle`` bit for bit."""
    spec = AlphabetSpec(**dict(zip(FULL_AXES, sizes)))
    for maker, oracle_maker, names in (
        (random_full, oracle.random_full, FULL_FIELDS),
        (random_star, oracle.random_star, STAR_FIELDS),
    ):
        fd = maker(spec, np.random.default_rng(seed))
        ref = oracle_maker(spec, np.random.default_rng(seed))
        for name in names:
            assert np.array_equal(getattr(fd, name), getattr(ref, name)), name
        assert fd.sizes() == {a: spec.size(a) for a in fd.axes}
        j = assemble_joint(fd)
        table, axes = oracle.joint_table(ref)
        assert j.axes == axes
        assert np.array_equal(j.table, table)


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


def test_conditional_mi_axis_errors():
    j = JointPmf(np.full((2, 2), 0.25), ("x", "y"))
    with pytest.raises(AxisError):
        conditional_mi(j, ("x",), ("z",))
    with pytest.raises(AxisError):
        conditional_mi(j, ("x",), ("x",))
    with pytest.raises(AxisError):
        conditional_mi(j, ("x",), ("y",), ("y",))


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
