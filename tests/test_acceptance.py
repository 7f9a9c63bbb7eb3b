"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  All
sweeps use the default grids (41 points per axis for the four-parameter
family, 201 for one-parameter families, r1 step 0.005 bits).
"""

import math

import numpy as np
import pytest
from cognitive_outer_bound import outer_bound_excess

from icdms import (
    AlphabetSpec,
    ChannelParams,
    assemble_joint,
    brute_joint_mi,
    build_covariances,
    conditional_mi,
    convexity_defect,
    default_grid,
    dpc_gain_objective,
    dpc_lambda_star,
    entropy_terms,
    eta_coefficients,
    GaussianCoding,
    grid_maximize,
    inclusion_gap,
    random_full,
    random_star,
    region_g_sp1,
    region_sim,
    region_suc,
    sweep_gaussian,
)
from icdms.cli import _mc_estimates

CH_CAPACITY = ChannelParams(p1=6.0, p2=6.0, c12=0.3, c21=0.5)
CH_FIG6 = ChannelParams(p1=6.0, p2=6.0, c12=0.3, c21=2.0)
CH_FIG7 = ChannelParams(p1=6.0, p2=6.0, c12=0.3, c21=6.0)
CH_FIG4 = ChannelParams(p1=6.0, p2=6.0, c12=0.0, c21=0.3)
CH_FIG5 = ChannelParams(p1=0.0, p2=6.0, c12=0.0, c21=0.5)


def report(number: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {description}: {status} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def sweeps():
    cache: dict = {}

    def get(ch: ChannelParams, which: str):
        key = (ch, which)
        if key not in cache:
            cache[key] = sweep_gaussian(ch, default_grid(which), which)
        return cache[key]

    return get


def test_criterion_1_capacity_consistency(sweeps):
    # Low-interference regime: the four-parameter union must not exceed the
    # beta=0 special-case union by more than 0.02 bits anywhere.
    gap = inclusion_gap(sweeps(CH_CAPACITY, "g"), sweeps(CH_CAPACITY, "g_sp1"))
    report(1, "capacity consistency at c21=0.5", gap <= 0.02, f"gap={gap:.6f} bits")


def test_criterion_2_fig6_strict_inclusion(sweeps):
    g = sweeps(CH_FIG6, "g")
    sp1 = sweeps(CH_FIG6, "g_sp1")
    sp2 = sweeps(CH_FIG6, "g_sp2")
    gap_sp1_in_g = inclusion_gap(sp1, g)
    gap_sp2_in_g = inclusion_gap(sp2, g)
    improvement = inclusion_gap(g, sp1)
    ok = gap_sp1_in_g <= 1e-9 and gap_sp2_in_g <= 1e-9 and improvement > 0.05
    report(
        2,
        "fig6: g contains g_sp1 and g_sp2 and strictly improves",
        ok,
        f"sp1 excess={gap_sp1_in_g:.3g}, sp2 excess={gap_sp2_in_g:.3g}, "
        f"improvement={improvement:.4f} bits",
    )


def test_criterion_3_fig7_gap_grows_with_c21(sweeps):
    gap6 = inclusion_gap(sweeps(CH_FIG6, "g"), sweeps(CH_FIG6, "g_sp1"))
    gap7 = inclusion_gap(sweeps(CH_FIG7, "g"), sweeps(CH_FIG7, "g_sp1"))
    containment = inclusion_gap(sweeps(CH_FIG7, "g_sp1"), sweeps(CH_FIG7, "g"))
    ok = gap7 > gap6 and containment <= 1e-9
    report(
        3,
        "improvement grows with c21 (and containment persists)",
        ok,
        f"gap(c21=6)={gap7:.4f} > gap(c21=2)={gap6:.4f}, "
        f"sp1 excess={containment:.3g}",
    )


def test_criterion_4_fig7_sp1_not_convex(sweeps):
    defect = convexity_defect(sweeps(CH_FIG7, "g_sp1"))
    report(4, "g_sp1 non-convex at c21=6", defect > 0.01, f"defect={defect:.4f} bits")


def test_criterion_5_dirty_paper_optimum():
    rng = np.random.default_rng(20260805)
    worst_grid = 0.0
    worst_closed = 0.0
    for _ in range(20):
        ch = ChannelParams(
            p1=float(rng.uniform(0.5, 8.0)),
            p2=float(rng.uniform(0.5, 8.0)),
            c12=float(rng.uniform(0.0, 3.0)),
            c21=float(rng.uniform(0.0, 3.0)),
        )
        alpha = float(rng.uniform(0.0, 1.0))
        beta = float(rng.uniform(0.0, 1.0))
        lam, gain = dpc_lambda_star(ch, alpha, beta)
        s = alpha * (1.0 - beta) * ch.p2
        worst_closed = max(worst_closed, abs(gain - 0.5 * math.log2(1.0 + s)))
        if s == 0.0:
            assert lam == 0.0 and gain == 0.0
            continue
        objective = dpc_gain_objective(ch, alpha, beta)
        _, eta2 = eta_coefficients(ch, alpha)
        hi = 3.0 * (eta2 + 1.0)
        steps = 50_001
        arg, value = grid_maximize(objective, 0.0, hi, steps)
        step = hi / (steps - 1)
        local = max(
            abs(value - float(objective(max(arg - step, 0.0)))),
            abs(value - float(objective(arg + step))),
        )
        worst_grid = max(worst_grid, abs(gain - value) - local)
    ok = worst_grid <= 1e-12 and worst_closed <= 1e-9
    report(
        5,
        "dirty-paper gain matches grid optimum and closed form (20 draws)",
        ok,
        f"max grid excess={worst_grid:.3g}, max closed-form err={worst_closed:.3g}",
    )


def test_criterion_6_entropy_oracle():
    rng = np.random.default_rng(20260806)
    blocks = ("h_a", "h_b", "h_c", "h_d", "h_e", "h_f",
              "h_g", "h_h", "h_i", "h_j", "h_k", "h_l")
    rows = {
        "h_a": (0, (0,)), "h_b": (0, (1, 2)), "h_c": (0, (0, 1, 2)),
        "h_d": (1, (0, 1)), "h_e": (1, (2,)), "h_f": (1, (0, 1, 2)),
        "h_g": (0, (0, 1)), "h_h": (0, (2,)), "h_i": (1, (1,)),
        "h_j": (1, (0, 2)), "h_k": (1, (0,)), "h_l": (1, (1, 2)),
    }
    jobs, closed = [], []
    for draw in range(10):
        ch = ChannelParams(
            p1=float(rng.uniform(0.5, 8.0)),
            p2=float(rng.uniform(0.5, 8.0)),
            c12=float(rng.uniform(0.0, 2.0)),
            c21=float(rng.uniform(0.0, 2.0)),
        )
        cp = GaussianCoding(
            alpha=float(rng.uniform(0.1, 0.9)),
            beta=float(rng.uniform(0.1, 0.9)),
            lambda1=float(rng.uniform(0.0, 1.5)),
            lambda2=float(rng.uniform(0.0, 1.5)),
        )
        h = entropy_terms(ch, cp)
        matrices = build_covariances(ch, cp)
        for t, name in enumerate(blocks):
            which, idx = rows[name]
            jobs.append((matrices[which][np.ix_(idx, idx)], 10**6, 30_000 + 100 * draw + t))
            closed.append(getattr(h, name))
    # The 120 estimates run on oracle-check's pool, which gives each the
    # bits of a serial call.
    estimates = _mc_estimates(jobs)
    worst = max(abs(est.value_bits - c) / est.std_error_bits for est, c in zip(estimates, closed))
    report(
        6,
        "all 12 entropy terms within 3 sigma of Monte Carlo (10 draws, n=1e6)",
        worst <= 3.0,
        f"max |z|={worst:.2f}",
    )


def test_criterion_7_discrete_identity():
    rng = np.random.default_rng(20260807)
    worst_gap = 0.0
    most_negative = 0.0
    for _ in range(100):
        fd = random_full(AlphabetSpec(), rng)
        j = assemble_joint(fd)
        lhs = (
            conditional_mi(j, ("u",), ("y2", "v"))
            + conditional_mi(j, ("v",), ("y2", "u"))
            - conditional_mi(j, ("u", "v"), ("y2",))
        )
        rhs = conditional_mi(j, ("u",), ("v",)) + conditional_mi(
            j, ("u",), ("v",), ("y2",)
        )
        worst_gap = max(worst_gap, abs(lhs - rhs))
        most_negative = min(most_negative, lhs)
    ok = worst_gap <= 1e-12 and most_negative >= -1e-12
    report(
        7,
        "information identity on 100 binary draws",
        ok,
        f"max |lhs-rhs|={worst_gap:.3g}, min value={most_negative:.3g}",
    )


def test_criterion_8_discrete_oracle_equivalence():
    rng = np.random.default_rng(20260808)
    worst = 0.0
    terms = (
        (("w",), ("y1",), ("u", "q")),
        (("u", "v"), ("y2",), ("q",)),
        (("v",), ("w",), ("q",)),
        (("w", "u"), ("y1",), ("q",)),
        (("v",), ("y2",), ("u", "q")),
        (("u",), ("y1",), ("q",)),
        (("u",), ("y2",), ("q",)),
    )
    for _ in range(100):
        fd = random_star(AlphabetSpec(), rng)
        j = assemble_joint(fd)
        for left, right, given in terms:
            a = conditional_mi(j, left, right, given)
            b = brute_joint_mi(j, left, right, given)
            worst = max(worst, abs(a - b))
        suc = region_suc(fd)
        sim = region_sim(fd)
        assert suc.r1_bound <= sim.r1_bound + 1e-12
        assert suc.r2_bound <= sim.r2_bound + 1e-12
        assert suc.r1_bound + suc.r2_bound <= sim.sum_bound + 1e-12
    report(
        8,
        "two mutual-information paths agree and suc is inside sim (100 draws)",
        worst <= 1e-12,
        f"max |difference|={worst:.3g} bits",
    )


def test_criterion_9_corollary_regression(sweeps):
    # fig4: corner (log2(22/7)... computed independently) and endpoint.
    corner_r1 = 0.5 * math.log2(1.0 + 6.0 / 2.8)
    corner_r2 = 0.5 * math.log2(7.0)
    end_r1 = 0.5 * math.log2(1.0 + (math.sqrt(6.0) + math.sqrt(1.8)) ** 2)
    assert corner_r1 == pytest.approx(0.8260, abs=5e-5)
    assert corner_r2 == pytest.approx(1.4037, abs=5e-5)
    assert end_r1 == pytest.approx(1.9711, abs=5e-5)

    f4 = sweeps(CH_FIG4, "g_sp1")
    corner = region_g_sp1(CH_FIG4, 1.0)
    errs = [
        abs(corner.r1_max - corner_r1),
        abs(corner.r2_max - corner_r2),
        abs(f4.value_at(corner_r1) - corner_r2),
        abs(f4.reach - end_r1),
        abs(f4.reach_r2),
    ]
    # Flat top: every sample left of the corner sits at its height.
    k = int(math.floor(corner_r1 / f4.step + 1e-9))
    errs.append(float(np.max(np.abs(f4.r2[: k + 1] - corner_r2))))

    # fig5 at alpha = 0.5: (log2(1.6)/2, 1.0).
    point = region_g_sp1(CH_FIG5, 0.5)
    p_r1 = 0.5 * math.log2(1.6)
    assert p_r1 == pytest.approx(0.3390, abs=5e-5)
    errs.append(abs(point.r1_max - p_r1))
    errs.append(abs(point.r2_max - 1.0))
    f5 = sweeps(CH_FIG5, "g_sp1")
    ok = max(errs) <= 1e-9 and f5.value_at(p_r1) >= 1.0 - 1e-9
    report(
        9,
        "fig4/fig5 closed-form frontier regression",
        ok,
        f"max |err|={max(errs):.3g}, fig5 frontier at alpha=0.5 r1 = "
        f"{f5.value_at(p_r1):.6f}",
    )


@pytest.mark.parametrize("ch", [CH_FIG6, CH_FIG7], ids=["fig6", "fig7"])
def test_fig6_fig7_frontiers_lie_under_outer_bound(sweeps, ch):
    """Not a paper criterion: every plotted frontier respects the
    cognitive-channel converse (see ``cognitive_outer_bound``)."""
    for which in ("g", "g_sp1", "g_sp2"):
        assert outer_bound_excess(ch, sweeps(ch, which)) == 0.0, which
