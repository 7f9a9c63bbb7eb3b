"""Tests for the closed-form Gaussian region machinery.

Expected values are either asserted from independent in-test arithmetic
(formulas rewritten from scratch, not imported) or cross-checked against
the Monte Carlo entropy oracle and the grid maximizer.
"""

import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from g_loop_oracle import loop_region_g_arrays
from helpers import bits
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from icdms import (
    XI,
    ChannelParams,
    DegenerateError,
    GaussianCoding,
    build_covariances,
    dpc_gain_objective,
    dpc_lambda_star,
    entropy_terms,
    eta_coefficients,
    mi_terms,
    region_g,
    region_g_sp1,
    region_g_sp2,
    region_g_suc,
)
from icdms import gaussian
from icdms.discrete import (
    DISCRETE_FEAS_TOL,
    AlphabetSpec,
    random_full,
    random_star,
    region_full,
    region_sim,
    region_suc,
)
from icdms.gaussian import (
    ENTROPY_BLOCKS,
    FEAS_TOL,
    MAX_LAMBDA,
    MAX_POWER,
    _pair_bounds,
    _pair_scratch,
    _region_g_arrays,
    _row_bounds,
)
from icdms.oracle import grid_maximize, mc_gaussian_entropy

CH_LOW = ChannelParams(p1=6.0, p2=6.0, c12=0.3, c21=0.3)
CH_HIGH = ChannelParams(p1=6.0, p2=6.0, c12=0.3, c21=2.0)


def test_xi_value():
    # Independent arithmetic: differential entropy of N(0, 1) in bits.
    assert XI == pytest.approx(0.5 * math.log2(2.0 * math.pi * math.e), abs=0)
    assert XI == pytest.approx(2.0471, abs=5e-5)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(-1.0, 6.0, 0.3, 0.3)
    with pytest.raises(ValueError):
        ChannelParams(math.inf, 6.0, 0.3, 0.3)
    # Received powers beyond MAX_POWER overflow the g determinants.
    for args, name in (
        ((2e100, 6.0, 0.0, 0.3), "p1"),
        ((6.0, 2e100, 0.3, 0.0), "p2"),
        ((1e99, 6.0, 20.0, 0.3), r"c12 \* p1"),
        ((6.0, 1e99, 0.3, 20.0), r"c21 \* p2"),
    ):
        with pytest.raises(ValueError, match=rf"{name} must be <= 1e\+100"):
            ChannelParams(*args)
    with pytest.raises(ValueError):
        GaussianCoding(alpha=1.2, beta=0.0)
    with pytest.raises(ValueError):
        GaussianCoding(alpha=0.5, beta=0.5, lambda1=-0.1)
    # The lambda-axis rule: at most MAX_LAMBDA.
    for lambdas, name in (((1e51, 0.0), "lambda1"), ((0.0, math.nextafter(MAX_LAMBDA, math.inf)), "lambda2")):
        with pytest.raises(ValueError, match=rf"^{name} must be <= 6e\+50, got {re.escape(repr(max(lambdas)))}$"):
            GaussianCoding(0.5, 0.5, *lambdas)
    assert GaussianCoding(0.5, 0.5, MAX_LAMBDA, MAX_LAMBDA).lambda2 == MAX_LAMBDA


def test_covariance_example_entries():
    # Recompute every entry from scratch for p1=p2=6, c12=c21=0.3,
    # alpha=1, beta=0.5, lambda1=lambda2=0; W has unit variance.
    mu, nu = build_covariances(CH_LOW, GaussianCoding(1.0, 0.5, 0.0, 0.0))
    eta1 = math.sqrt(6.0)  # sqrt(p1) + sqrt(c21 * 0 * p2)
    eta2 = math.sqrt(0.3 * 6.0)
    expected_mu = np.array(
        [
            [1.0, 0.0, eta1],
            [0.0, 3.0, math.sqrt(0.3) * 3.0],
            [eta1, math.sqrt(0.3) * 3.0, 6.0 + 0.3 * 6.0 + 1.0],
        ]
    )
    np.testing.assert_allclose(mu, expected_mu, rtol=0.0, atol=1e-12)
    expected_nu = np.array(
        [
            [3.0, 0.0, 3.0],
            [0.0, 3.0, 3.0],
            [3.0, 3.0, 6.0 + eta2 * eta2 + 1.0],
        ]
    )
    np.testing.assert_allclose(nu, expected_nu, rtol=0.0, atol=1e-12)


def test_covariance_uv_cross_term():
    # E{UV} = lambda1 * lambda2 E{W^2} = lambda1 * lambda2.
    _, nu = build_covariances(CH_LOW, GaussianCoding(1.0, 0.5, 2.0, 3.0))
    assert nu[0, 1] == pytest.approx(6.0, abs=1e-12)
    assert nu[1, 0] == nu[0, 1]


def test_covariance_lambda1_zero_decouples():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ch = ChannelParams(*rng.uniform(0.5, 6.0, size=4))
        cp = GaussianCoding(rng.uniform(0, 1), rng.uniform(0, 1), 0.0, rng.uniform(0, 2))
        mu, _ = build_covariances(ch, cp)
        assert mu[0, 1] == 0.0 and mu[1, 0] == 0.0


def test_covariances_psd_1000_draws():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        ch = ChannelParams(
            rng.uniform(0, 8), rng.uniform(0, 8), rng.uniform(0, 3), rng.uniform(0, 3)
        )
        cp = GaussianCoding(
            rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 2), rng.uniform(0, 2)
        )
        mu, nu = build_covariances(ch, cp)
        np.testing.assert_allclose(mu, mu.T, atol=0)
        np.testing.assert_allclose(nu, nu.T, atol=0)
        scale = max(1.0, float(np.max(np.diag(mu))), float(np.max(np.diag(nu))))
        assert np.linalg.eigvalsh(mu).min() >= -1e-9 * scale
        assert np.linalg.eigvalsh(nu).min() >= -1e-9 * scale


def test_entropy_unit_variance_is_xi():
    # E{W^2} = 1 whatever p1 is, p1 = 0 included, so h(W) is the
    # unit-Gaussian entropy.
    for p1 in (0.0, 1e-300, 1.0, 2.0, 8.0, 1e6):
        h = entropy_terms(ChannelParams(p1, 6.0, 0.3, 0.3), GaussianCoding(0.5, 0.5, 0.4))
        assert h.h_a == pytest.approx(XI, abs=1e-12)


def test_entropy_scaling_by_four_adds_one_bit():
    # h(W) stays XI as the powers grow, but the unbinned private streams
    # carry them: h(U) = XI + gamma(alpha beta p2), so four times the powers
    # adds one bit to h(U) and to h(V), and two to h(U, V).
    h1 = entropy_terms(ChannelParams(2.0, 2.0, 0.3, 0.3), GaussianCoding(0.5, 0.5))
    h4 = entropy_terms(ChannelParams(8.0, 8.0, 0.3, 0.3), GaussianCoding(0.5, 0.5))
    assert h4.h_a - h1.h_a == pytest.approx(0.0, abs=1e-12)
    assert h4.h_k - h1.h_k == pytest.approx(1.0, abs=1e-12)
    assert h4.h_i - h1.h_i == pytest.approx(1.0, abs=1e-12)
    assert h4.h_d - h1.h_d == pytest.approx(2.0, abs=1e-12)


def test_entropy_eta_fields():
    cp = GaussianCoding(0.4, 0.7, 0.2, 0.3)
    h = entropy_terms(CH_HIGH, cp)
    assert h.eta1 == pytest.approx(
        math.sqrt(6.0) + math.sqrt(2.0 * 0.6 * 6.0), abs=1e-12
    )
    assert h.eta2 == pytest.approx(
        math.sqrt(0.6 * 6.0) + math.sqrt(0.3 * 6.0), abs=1e-12
    )
    assert h.xi == XI


@pytest.mark.parametrize("alpha", [-0.1, math.nextafter(1.0, 2.0), math.nan])
def test_eta_coefficients_reject_alpha_outside_unit_interval(alpha):
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
        eta_coefficients(CH_HIGH, alpha)


def test_entropy_h_c_matches_monte_carlo():
    cp = GaussianCoding(1.0, 0.5, 0.0, 0.0)
    h = entropy_terms(CH_LOW, cp)
    mu, _ = build_covariances(CH_LOW, cp)
    est = mc_gaussian_entropy(mu, 10**6, seed=811)
    assert abs(est.value_bits - h.h_c) <= 3.0 * est.std_error_bits


def test_entropy_degenerate_on_zero_p1():
    # W has unit variance at p1 = 0 too, so p1 = 0 makes no block singular:
    # entropy_terms evaluates there as at p1 = 1, and h(W) = XI.  An absent
    # stream (zero power, lambda = 0) is a unit-variance variable of the
    # model, so its own entropy is XI and the coding evaluates.  Only a
    # positive lambda on a zero-power stream (U = lambda1 W) is singular.
    for p1 in (0.0, 1.0):
        ch = ChannelParams(p1, 6.0, 0.3, 0.3)
        for coding, absent in (
            (GaussianCoding(0.5, 0.5), None),
            (GaussianCoding(1.0, 0.5), None),
            (GaussianCoding(0.5, 0.0), "h_k"),
            (GaussianCoding(0.5, 1.0), "h_i"),
        ):
            h = entropy_terms(ch, coding)
            assert h.h_a == pytest.approx(XI, abs=1e-12)
            if absent is not None:
                assert getattr(h, absent) == XI
        with pytest.raises(DegenerateError) as exc:
            entropy_terms(ch, GaussianCoding(0.5, 0.0, 0.3))
        assert exc.value.term == "h_c"


def test_entropy_monotone_in_subcollections():
    # Joint differential entropies dominate their sub-collections on draws
    # with moderate powers and small bin coefficients.
    rng = np.random.default_rng(5150)
    pairs = [
        ("h_c", "h_a"), ("h_c", "h_b"), ("h_c", "h_g"), ("h_c", "h_h"),
        ("h_b", "h_h"), ("h_b", "h_k"), ("h_g", "h_a"), ("h_g", "h_k"),
        ("h_f", "h_d"), ("h_f", "h_e"), ("h_f", "h_j"), ("h_f", "h_l"),
        ("h_d", "h_i"), ("h_d", "h_k"), ("h_j", "h_e"), ("h_j", "h_k"),
        ("h_l", "h_e"), ("h_l", "h_i"),
    ]
    for _ in range(50):
        ch = ChannelParams(
            rng.uniform(2, 8), rng.uniform(2, 8), rng.uniform(0.1, 2), rng.uniform(0.1, 2)
        )
        cp = GaussianCoding(
            rng.uniform(0.25, 0.75), rng.uniform(0.25, 0.75),
            rng.uniform(0, 0.5), rng.uniform(0, 0.5),
        )
        h = entropy_terms(ch, cp)
        for sup, sub in pairs:
            assert getattr(h, sup) >= getattr(h, sub) - 1e-12, (sup, sub, ch, cp)


def test_mi_i3_zero_when_lambda1_zero():
    mi = mi_terms(CH_LOW, GaussianCoding(0.5, 0.5, 0.0, 0.7))
    assert mi.i3 == 0.0


def test_mi_i3_half_bit_when_powers_match():
    # lambda1^2 = alpha * beta * p2 makes i3 = log2(2)/2.
    cp = GaussianCoding(0.5, 0.5, math.sqrt(1.5), 0.0)
    mi = mi_terms(CH_LOW, cp)
    assert mi.i3 == pytest.approx(0.5, abs=1e-12)


def test_mi_i4_closed_form():
    cp = GaussianCoding(0.6, 0.3, 0.2, 0.4)
    mi = mi_terms(CH_LOW, cp)
    s_v = 0.6 * 0.7 * 6.0
    assert mi.i4 == pytest.approx(0.5 * math.log2(1 + 0.4**2 / s_v), abs=1e-12)


def test_mi_i1_matches_monte_carlo():
    cp = GaussianCoding(1.0, 0.5, 0.5, 0.5)
    mi = mi_terms(CH_LOW, cp)
    mu, _ = build_covariances(CH_LOW, cp)
    blocks = [((0,), 901), ((1, 2), 902), ((0, 1, 2), 903)]
    estimates = [mc_gaussian_entropy(mu[np.ix_(r, r)], 10**6, s) for r, s in blocks]
    mc_i1 = estimates[0].value_bits + estimates[1].value_bits - estimates[2].value_bits
    se = math.sqrt(sum(e.std_error_bits**2 for e in estimates))
    assert abs(mc_i1 - mi.i1) <= 3.0 * se


def test_mi_nonnegative_on_random_draws():
    rng = np.random.default_rng(31337)
    for _ in range(200):
        ch = ChannelParams(
            rng.uniform(0.5, 8), rng.uniform(0.5, 8),
            rng.uniform(0, 2), rng.uniform(0, 2),
        )
        cp = GaussianCoding(
            rng.uniform(0.05, 1), rng.uniform(0.05, 0.95),
            rng.uniform(0, 2), rng.uniform(0, 2),
        )
        mi = mi_terms(ch, cp)
        for name in ("i1", "i2", "i5", "i6", "i7"):
            assert getattr(mi, name) >= -1e-9, (name, ch, cp)


def test_mi_divergent_lambda_raises():
    with pytest.raises(DegenerateError):
        mi_terms(CH_LOW, GaussianCoding(0.5, 0.0, 0.5, 0.0))  # s_u = 0, lambda1 > 0
    with pytest.raises(DegenerateError):
        mi_terms(CH_LOW, GaussianCoding(0.5, 1.0, 0.0, 0.5))  # s_v = 0, lambda2 > 0


def test_region_g_feasible_when_lambdas_zero():
    region = region_g(CH_LOW, GaussianCoding(0.7, 0.4, 0.0, 0.0))
    assert region.feasible
    assert region.r1_max >= 0 and region.r2_max >= 0 and region.sum_max >= 0


def test_region_g_matches_mi_terms_interior():
    rng = np.random.default_rng(99)
    for _ in range(50):
        ch = ChannelParams(
            rng.uniform(1, 8), rng.uniform(1, 8), rng.uniform(0, 2), rng.uniform(0, 2)
        )
        cp = GaussianCoding(
            rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
            rng.uniform(0, 1.5), rng.uniform(0, 1.5),
        )
        mi = mi_terms(ch, cp)
        region = region_g(ch, cp)
        feasible = (
            mi.i5 - mi.i3 >= -1e-9
            and mi.i7 - mi.i3 >= -1e-9
            and mi.i6 - mi.i4 >= -1e-9
            and mi.i2 - mi.i3 - mi.i4 >= -1e-9
        )
        assert region.feasible == feasible
        if feasible:
            assert region.r1_max == pytest.approx(
                max(min(mi.i1, mi.i5 - mi.i3), 0.0), abs=1e-12
            )
            assert region.r2_max == pytest.approx(
                max(mi.i2 - mi.i3 - mi.i4, 0.0), abs=1e-12
            )
            assert region.sum_max == pytest.approx(
                max(mi.i5 + mi.i6 - mi.i3 - mi.i4, 0.0), abs=1e-12
            )


def test_region_g_divergent_is_infeasible():
    region = region_g(CH_LOW, GaussianCoding(0.5, 0.0, 0.5, 0.0))
    assert not region.feasible
    assert region.r1_max == 0.0 and region.r2_max == 0.0 and region.sum_max == 0.0


def test_region_g_divergent_where_the_unit_lambda_underflows():
    # 1e-200 * sqrt(p1) would round to 0, but a lambda is not scaled by p1:
    # a positive lambda on the zero-power stream diverges.
    ch = ChannelParams(1e-300, 6.0, 0.3, 2.0)
    assert not region_g(ch, GaussianCoding(0.5, 0.0, 1e-200, 0.0)).feasible
    assert not region_g(ch, GaussianCoding(0.5, 1.0, 0.0, 1e-200)).feasible
    with pytest.raises(DegenerateError):
        mi_terms(ch, GaussianCoding(0.5, 0.0, 1e-200, 0.0))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="det cancellation at p2 = 1e100 lifts r1 to 331.69 bits, past the "
    "166.10-bit cut-set bound; exact r1 is 165.10 (ROADMAP item 1)",
)
def test_region_g_r1_within_cut_set_bound_at_extreme_powers():
    # Receiver 1 hears only X1 + sqrt(c21) X2, so no coding beats
    # R1 <= 1/2 log2(1 + (sqrt(p1) + sqrt(c21 p2))^2).
    ch = ChannelParams(1e-300, 1e100, 0.0, 1.0)
    region = region_g(ch, GaussianCoding(1.0, 1.0, 5e49, 0.0))
    cut_set = 0.5 * math.log2(1.0 + (math.sqrt(ch.p1) + math.sqrt(ch.c21 * ch.p2)) ** 2)
    assert region.r1_max <= cut_set


def test_region_g_p1_zero_cooperative_limit():
    # With p1 = 0 and no binning, receiver 1 sees only the cooperative
    # power: I(W; Y1, U) = I(W; Y1 | U), interference from the remaining
    # private stream.  Independent arithmetic below.
    ch = ChannelParams(0.0, 6.0, 0.0, 0.5)
    a, b = 0.5, 0.5
    region = region_g(ch, GaussianCoding(a, b, 0.0, 0.0))
    coop = 0.5 * (1 - a) * 6.0  # c21 * (1-alpha) * p2
    s_v = a * (1 - b) * 6.0
    expected_r1 = 0.5 * math.log2(1.0 + coop / (0.5 * s_v + 1.0))
    assert region.feasible
    assert region.r1_max == pytest.approx(expected_r1, abs=1e-12)
    # R2: both private streams decoded at receiver 2 against eta2*W + Z2.
    s_u = a * b * 6.0
    eta2sq = (1 - a) * 6.0
    expected_r2 = 0.5 * math.log2((s_u + s_v + eta2sq + 1.0) / (eta2sq + 1.0))
    assert region.r2_max == pytest.approx(expected_r2, abs=1e-12)


def test_region_g_oracle_substitution():
    # Replace every closed-form entropy with its Monte Carlo estimate and
    # rebuild the bounds; they must agree within 0.02 bits.  The bin
    # coefficients are picked by a coarse grid search on the sum bound.
    ch = CH_HIGH
    best = None
    for lam1 in np.linspace(0.0, 2.0, 9):
        for lam2 in np.linspace(0.0, 2.0, 9):
            region = region_g(ch, GaussianCoding(0.5, 0.5, lam1, lam2))
            if region.feasible and (best is None or region.sum_max > best[0]):
                best = (region.sum_max, lam1, lam2)
    _, lam1, lam2 = best
    cp = GaussianCoding(0.5, 0.5, lam1, lam2)
    region = region_g(ch, cp)
    mu, nu = build_covariances(ch, cp)
    blocks = {
        "h_a": (mu, (0,)), "h_b": (mu, (1, 2)), "h_c": (mu, (0, 1, 2)),
        "h_d": (nu, (0, 1)), "h_e": (nu, (2,)), "h_f": (nu, (0, 1, 2)),
        "h_g": (mu, (0, 1)), "h_h": (mu, (2,)),
        "h_i": (nu, (1,)), "h_j": (nu, (0, 2)), "h_k": (nu, (0,)),
        "h_l": (nu, (1, 2)),
    }
    est = {
        name: mc_gaussian_entropy(m[np.ix_(r, r)], 400_000, seed=7000 + k).value_bits
        for k, (name, (m, r)) in enumerate(blocks.items())
    }
    s_u, s_v = 0.5 * 0.5 * 6.0, 0.5 * 0.5 * 6.0
    i3 = 0.5 * math.log2(1 + lam1**2 / s_u)
    i4 = 0.5 * math.log2(1 + lam2**2 / s_v)
    i1 = est["h_a"] + est["h_b"] - est["h_c"]
    i2 = est["h_d"] + est["h_e"] - est["h_f"]
    i5 = est["h_g"] + est["h_h"] - est["h_c"]
    i6 = est["h_i"] + est["h_j"] - est["h_f"]
    assert abs(i1 - region.r1_max) <= 0.02
    assert abs((i2 - i3 - i4) - region.r2_max) <= 0.02
    assert abs((i5 + i6 - i3 - i4) - region.sum_max) <= 0.02


def _dense(out):
    """``_region_g_arrays`` bounds spread over its feasible mask, zero elsewhere."""
    *bounds, ok = out
    dense = []
    for x in bounds:
        full = np.zeros(ok.shape)
        full[ok] = x
        dense.append(full)
    return (*dense, ok)


def test_region_g_batch_matches_scalar():
    rng = np.random.default_rng(4096)
    ch = CH_HIGH
    lam1 = rng.uniform(0, 1.5, size=16)
    lam2 = rng.uniform(0, 1.5, size=16)
    out = _region_g_arrays(ch, 0.5, 0.4, lam1[:, None], lam2[:, None])
    r1, r2, rsum, ok = (x[:, 0] for x in _dense(out))
    for k in range(16):
        scalar = region_g(ch, GaussianCoding(0.5, 0.4, lam1[k], lam2[k]))
        assert scalar.feasible == bool(ok[k])
        assert scalar.r1_max == pytest.approx(r1[k], abs=1e-14)
        assert scalar.r2_max == pytest.approx(r2[k], abs=1e-14)
        assert scalar.sum_max == pytest.approx(rsum[k], abs=1e-14)


@pytest.mark.parametrize(
    "alpha, beta, lam1",
    [
        (0.5, 0.4, np.array([0.1, 0.2])),
        (np.array([0.3, 0.5]), 0.4, 0.1),
        (0.5, np.array([[0.2, 0.4]]), np.zeros((2, 1))),
    ],
)
def test_region_g_arrays_rejects_row_terms_along_the_last_axis(alpha, beta, lam1):
    # The last axis is lambda2's; 1-D arrays no longer pair up element by
    # element unless passed as columns.
    with pytest.raises(ValueError, match="size 1 on the last axis"):
        _region_g_arrays(CH_HIGH, alpha, beta, lam1, np.array([0.0, 0.5]))


def test_region_g_arrays_scalar_call_has_a_one_by_one_mask():
    r1, _, _, ok = _region_g_arrays(CH_HIGH, 0.5, 0.4, 0.1, 0.2)
    region = region_g(CH_HIGH, GaussianCoding(0.5, 0.4, 0.1, 0.2))
    assert ok.shape == (1, 1) and ok.item() == region.feasible
    assert r1.tolist() == ([region.r1_max] if region.feasible else [])


_power = st.just(0.0) | st.floats(0.01, 100.0)
_split = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def g_tuples(draw):
    """A channel, alphas, betas and per-(alpha, beta) unit-W lambda grids.

    Zero powers, alpha = 0 and beta in {0, 1} come up often; every lambda
    grid holds 0, drawn points up to 3 * eta2 and the dirty-paper optimum of
    its stream.
    """
    ch = ChannelParams(
        draw(_power), draw(_power), draw(st.floats(0.0, 8.0)), draw(st.floats(0.0, 8.0))
    )
    alphas = draw(st.lists(_split, min_size=1, max_size=3))
    betas = np.array(draw(st.lists(_split, min_size=1, max_size=3)))
    fractions = st.lists(st.floats(0.0, 3.0), min_size=0, max_size=3)
    f1, f2 = draw(fractions), draw(fractions)
    grids = []
    for alpha in alphas:
        _, eta2 = eta_coefficients(ch, alpha)
        lams = []
        for s, f in ((alpha * betas * ch.p2, f1), (alpha * (1.0 - betas) * ch.p2, f2)):
            lams.append(np.column_stack(
                [np.zeros_like(s), s * eta2 / (s + 1.0)]
                + [np.full_like(s, x * eta2) for x in f]
            ))
        grids.append((alpha, lams[0], lams[1]))
    return ch, betas, grids


@settings(max_examples=300, deadline=None)
@given(g_tuples())
def test_region_g_arrays_match_loop_oracle_bitwise(case):
    # Batched over (beta, lambda1, lambda2) and element by element, the
    # pentagon bounds are the ones of the pre-batching per-(alpha, beta)
    # loop, bit for bit.
    ch, betas, grids = case
    flat = [[], [], [], []]
    expected = [[], [], [], []]
    for alpha, lam1, lam2 in grids:
        got = _dense(_region_g_arrays(
            ch, alpha, betas[:, None, None], lam1[:, :, None], lam2[:, None, :]
        ))
        for b, beta in enumerate(betas):
            mesh1, mesh2 = np.meshgrid(lam1[b], lam2[b], indexing="ij")
            with np.errstate(all="ignore"):
                want = loop_region_g_arrays(
                    ch, float(alpha), float(beta), mesh1.ravel(), mesh2.ravel()
                )
            for out, ref, acc in zip(got, want, expected):
                np.testing.assert_array_equal(bits(out[b].ravel()), bits(ref))
                acc.append(ref)
            for acc, x in zip(flat, (alpha, beta, mesh1.ravel(), mesh2.ravel())):
                acc.append(np.broadcast_to(x, mesh1.size))
    got = _dense(_region_g_arrays(ch, *(np.concatenate(x)[:, None] for x in flat)))
    for out, ref in zip(got, expected):
        np.testing.assert_array_equal(bits(out[:, 0]), bits(np.concatenate(ref)))


_lam = st.just(0.0) | st.floats(0.0, 10.0)


@st.composite
def scratch_calls(draw):
    """A channel and a sequence of ``_region_g_arrays`` arguments shaped as
    the ``g`` sweep makes them: main-grid tiles of 0 to 4 betas, lambda1
    and lambda2 points, boundary faces of shape (N, 1) at beta 0 or 1, and
    scalar calls.  Zero powers, alpha = 0, beta in {0, 1} and a positive
    lambda on a zero-power stream come up often."""
    ch = ChannelParams(
        draw(_power), draw(_power), draw(st.floats(0.0, 8.0)), draw(st.floats(0.0, 8.0))
    )

    def lams(shape):
        return draw(arrays(float, shape, elements=_lam))

    calls = []
    for kind in draw(st.lists(st.sampled_from(["tile", "face", "scalar"]), min_size=1, max_size=6)):
        if kind == "tile":
            b, n1, n2 = (draw(st.integers(0, 4)) for _ in range(3))
            betas = draw(arrays(float, b, elements=_split))
            calls.append((draw(_split), betas[:, None, None], lams((b, n1, 1)), lams((b, 1, n2))))
        elif kind == "face":
            n = draw(st.integers(1, 5))
            alphas = draw(arrays(float, (n, 1), elements=_split))
            calls.append((alphas, draw(st.sampled_from([0.0, 1.0])), 0.0, lams((n, 1))))
        else:
            calls.append((draw(_split), draw(_split), draw(_lam), draw(_lam)))
    return ch, calls


@settings(max_examples=200, deadline=None)
@given(scratch_calls())
def test_one_scratch_across_calls_matches_fresh_calls_bitwise(case):
    # The g sweep passes one scratch, sized to its largest tile, to every
    # call.  Each call gives what a call with its own scratch gives, bit for
    # bit, and its outputs share no memory with the scratch: later calls and
    # writes into the scratch leave them as they were.
    ch, calls = case
    scratch = _pair_scratch(
        max(math.prod(np.broadcast_shapes((1, 1), *map(np.shape, args))) for args in calls)
    )
    kept = []
    for args in calls:
        got = _region_g_arrays(ch, *args, scratch)
        want = _region_g_arrays(ch, *args)
        for x, y in zip(got[:3], want[:3]):
            np.testing.assert_array_equal(bits(x), bits(y))
        np.testing.assert_array_equal(got[3], want[3])
        assert not any(np.shares_memory(x, buf) for x in got for buf in scratch)
        kept.append((got, want))
    scratch[0].fill(math.nan)
    scratch[1].fill(True)
    for got, want in kept:
        for x, y in zip(got[:3], want[:3]):
            np.testing.assert_array_equal(bits(x), bits(y))
        np.testing.assert_array_equal(got[3], want[3])


#: Term values: signed zeros, infinities, NaN, subnormals, 1e300 and any float.
_term = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2e-308, 1e300, -1e300]
) | st.floats()


def _old_g_bounds(i1, i2, i3, i4, i5, i6, i7):
    """``_region_g_arrays``' expressions before the statement was shared:
    capped r1, r2, sum and the residuals it held to ``-FEAS_TOL``."""
    r2 = i2 - i3 - i4
    r_sum = i5 + i6 - i3 - i4
    return np.minimum(i1, i5 - i3), r2, r_sum, (i5 - i3, i7 - i3, i6 - i4, r2)


def _old_region_full(t):
    """``region_full``'s expressions before the statement was shared, on
    its old term names."""
    r2 = t["i_uv_y2"] - t["i_uw"] - t["i_vw"]
    rsum = t["i_uw_y1"] + t["i_v_y2u"] - t["i_uw"] - t["i_vw"]
    constraints = {
        "u_at_y1": t["i_uw_y1"] - t["i_uw"],
        "u_at_y2": t["i_u_y2v"] - t["i_uw"],
        "v_at_y2": t["i_v_y2u"] - t["i_vw"],
        "r2_total": r2,
    }
    return t["r1"], r2, rsum, constraints


@settings(max_examples=300, deadline=None)
@given(st.lists(_term, min_size=7, max_size=7))
def test_bounds_statement_is_region_full_old_statement_bitwise(terms):
    # On Python floats the shared statement, and region_full through it, give
    # the old discrete expressions bit for bit, with the residuals in the old
    # order and the same verdict; the region's fields are Python floats.
    i1, i2, i3, i4, i5, i6, i7 = terms
    with np.errstate(all="ignore"):
        r1, u_at_y1 = _row_bounds(i1, i3, i5)
        r2, rsum, residuals = _pair_bounds(i2, i3, i4, i5, i6, i7)
    got = (r1, r2, rsum, u_at_y1, *residuals)
    old = ("r1", "i_uv_y2", "i_uw", "i_vw", "i_uw_y1", "i_v_y2u", "i_u_y2v")
    w_r1, w_r2, w_sum, constraints = _old_region_full(dict(zip(old, terms)))
    want = (w_r1, w_r2, w_sum, *constraints.values())
    np.testing.assert_array_equal(bits(got), bits(want))
    # region_full reads its terms from the distribution's cache; planting
    # the drawn values there runs its call site on them.
    fd = random_full(AlphabetSpec(), np.random.default_rng(0))
    fd._cache["terms"] = dict(zip(("i1", "i2", "i3", "i4", "i5", "i6", "i7"), terms))
    region = region_full(fd)
    assert list(region.constraints) == list(constraints) == list(region.active)
    np.testing.assert_array_equal(
        bits((region.r1_bound, region.r2_bound, region.sum_bound, *region.constraints.values())),
        bits(want),
    )
    assert region.feasible == all(c >= -DISCRETE_FEAS_TOL for c in constraints.values())
    fields = (region.r1_bound, region.r2_bound, region.sum_bound, *region.constraints.values())
    assert all(type(x) is float for x in fields)


@pytest.mark.parametrize("evaluate", [region_sim, region_suc])
def test_star_regions_hold_python_floats(evaluate):
    # discrete._region makes every region's floats, the STAR regions' too.
    region = evaluate(random_star(AlphabetSpec(), np.random.default_rng(0)))
    assert all(type(x) is float for x in (region.r1_bound, region.r2_bound, *region.constraints.values()))
    assert region.sum_bound is None if evaluate is region_suc else type(region.sum_bound) is float


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_bounds_statement_is_g_old_statement_bitwise(rows, width, data):
    # On arrays shaped as in _region_g_arrays (the row terms i1, i3, i5 one
    # column, the pair terms a block), the row part, the cap at its call site
    # and the pair part give the old Gaussian expressions bit for bit.
    def draw(shape):
        return data.draw(arrays(float, shape, elements=_term))

    i1, i3, i5 = (draw((rows, 1)) for _ in range(3))
    i2, i4, i6, i7 = (draw((rows, width)) for _ in range(4))
    out = tuple(np.empty((rows, width)) for _ in range(4))
    with np.errstate(all="ignore"):
        r1, u_at_y1 = _row_bounds(i1, i3, i5)
        r2, r_sum, residuals = _pair_bounds(i2, i3, i4, i5, i6, i7)
        got = (np.minimum(r1, u_at_y1), r2, r_sum, u_at_y1, *residuals)
        into = _pair_bounds(i2, i3, i4, i5, i6, i7, out=out)
        w_r1, w_r2, w_sum, w_residuals = _old_g_bounds(i1, i2, i3, i4, i5, i6, i7)
    for x, y in zip(got, (w_r1, w_r2, w_sum, *w_residuals)):
        np.testing.assert_array_equal(bits(x), bits(y))
    # Written into ``out``, the pair part is the same bits, in those arrays.
    r2, r_sum, residuals = into
    assert all(x is y for x, y in zip((r2, r_sum, *residuals[:2]), out)) and residuals[2] is r2
    for x, y in zip((r2, r_sum, *residuals), (w_r2, w_sum, *w_residuals[1:])):
        np.testing.assert_array_equal(bits(x), bits(y))


def _rounding_scale(ch, cp):
    """Largest diagonal-product / determinant over the covariance blocks."""
    matrices = build_covariances(ch, cp)
    return max(
        float(np.prod(np.diag(sub)) / np.linalg.det(sub))
        for which, rows in ENTROPY_BLOCKS.values()
        if len(rows) > 1
        for sub in [matrices[which][np.ix_(rows, rows)]]
    )


def _assert_matches_mi_terms(ch, cp, region, mi):
    """``region`` (from region_g) against the mi_terms / entropy_terms route:
    each bound within 1e-9 relative (below 1 bit, 1e-9 bits).  Both round
    determinants of the covariance blocks, so where a block is
    ill-conditioned (diagonal product / det = kappa above about 1e7) the
    tolerance is the rounding scale 64 eps kappa.  Feasibility must agree
    unless a residual lies within that tolerance of -FEAS_TOL."""
    tol = max(1e-9, 64 * np.finfo(float).eps * _rounding_scale(ch, cp))
    residuals = (
        mi.i5 - mi.i3, mi.i7 - mi.i3, mi.i6 - mi.i4, mi.i2 - mi.i3 - mi.i4
    )
    feasible = all(r >= -FEAS_TOL for r in residuals)
    if all(abs(r + FEAS_TOL) > tol * max(abs(r), 1.0) for r in residuals):
        assert region.feasible == feasible
    if region.feasible and feasible:
        for got, want in (
            (region.r1_max, max(min(mi.i1, mi.i5 - mi.i3), 0.0)),
            (region.r2_max, max(mi.i2 - mi.i3 - mi.i4, 0.0)),
            (region.sum_max, max(mi.i5 + mi.i6 - mi.i3 - mi.i4, 0.0)),
        ):
            assert abs(got - want) <= tol * max(abs(want), 1.0)


_log_power = st.just(0.0) | st.floats(-1.0, 8.0).map(lambda e: 10.0**e)
_split_or_face = st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95)
_lambda_share = st.just(0.0) | st.floats(0.0, 3.0)


@settings(max_examples=300, deadline=None)
@given(
    _log_power, _log_power, st.floats(0.0, 8.0), st.floats(0.0, 8.0),
    _split_or_face, _split_or_face, _lambda_share, _lambda_share,
)
def test_region_g_arrays_match_entropy_route(p1, p2, c12, c21, alpha, beta, f1, f2):
    # Draws up to p = 1e8, interior or on a face (alpha or beta in {0, 1}),
    # and p1 = 0 or p2 = 0 often: region_g and the batched bounds agree with
    # the mi_terms / entropy_terms route by _assert_matches_mi_terms' rule.
    # At p1 = 0 the lambdas still bin against W on both routes.
    ch = ChannelParams(p1, p2, c12, c21)
    _, eta2 = eta_coefficients(ch, alpha)
    cp = GaussianCoding(alpha, beta, f1 * eta2, f2 * eta2)
    region = region_g(ch, cp)
    r1, r2, rsum, ok = _dense(_region_g_arrays(ch, alpha, beta, cp.lambda1, cp.lambda2))
    ok = ok.item()
    assert region.feasible == ok
    assert (region.r1_max, region.r2_max, region.sum_max) == (r1.item(), r2.item(), rsum.item())
    try:
        mi = mi_terms(ch, cp)
    except DegenerateError as exc:
        # A divergent bin rate (a positive lambda on a zero-power stream) is
        # infeasible on both routes; a singular block is a limit only the
        # closed forms take.
        assert exc.term not in ("i3", "i4") or not ok
        assume(False)
    _assert_matches_mi_terms(ch, cp, region, mi)


@settings(max_examples=300, deadline=None)
@given(
    _log_power, _log_power, st.floats(0.0, 8.0), st.floats(0.0, 8.0),
    st.just(0.0) | st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]), st.floats(0.0, 3.0),
)
def test_region_g_matches_entropy_route_on_the_faces(p1, p2, c12, c21, alpha, beta, f):
    # The faces: beta = 0 (the dirty-paper family, no U stream), beta = 1
    # (no V stream), and alpha = 0 or p2 = 0 (neither), with lambda = 0 on
    # each absent stream and f * eta2 on a present one.  mi_terms evaluates
    # them, and region_g agrees with it.
    ch = ChannelParams(p1, p2, c12, c21)
    _, eta2 = eta_coefficients(ch, alpha)
    s_u, s_v = alpha * beta * p2, alpha * (1.0 - beta) * p2
    # A subnormal stream power leaves its blocks' determinants no digits
    # (np.linalg.det rounds them to 0), so no tolerance applies there.
    assume(all(s == 0.0 or s >= np.finfo(float).tiny for s in (s_u, s_v)))
    cp = GaussianCoding(alpha, beta, f * eta2 * (s_u > 0.0), f * eta2 * (s_v > 0.0))
    try:
        mi = mi_terms(ch, cp)
    except DegenerateError:
        # A positive lambda on a stream of power far below lambda^2 makes a
        # block singular to rounding (U = lambda1 W), a limit only the closed
        # forms take.  The absent stream never does: without the lambda the
        # coding evaluates.
        mi_terms(ch, GaussianCoding(alpha, beta))
        assume(False)
    _assert_matches_mi_terms(ch, cp, region_g(ch, cp), mi)


def test_region_g_at_the_lambda_cap_on_the_power_cap():
    # The largest lambdas a coding may hold, on channels at MAX_POWER, stay
    # finite without a RuntimeWarning (warnings are errors in this suite).
    for ch in (
        ChannelParams(MAX_POWER, MAX_POWER, 1.0, 1.0),
        ChannelParams(0.0, MAX_POWER, 0.0, 1.0),
        ChannelParams(1e-300, MAX_POWER, 0.0, 1e-300),
    ):
        for alpha, beta in ((0.5, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)):
            region = region_g(ch, GaussianCoding(alpha, beta, MAX_LAMBDA, MAX_LAMBDA))
            assert all(math.isfinite(x) for x in (region.r1_max, region.r2_max, region.sum_max))


# Channels for the simulated-signal check: figs. 6 and 7, fig. 5's p1 = 0
# channel and a low-power one.
_SIM_CHANNELS = (
    CH_HIGH,
    ChannelParams(6.0, 6.0, 0.3, 6.0),
    ChannelParams(0.0, 6.0, 0.0, 0.5),
    ChannelParams(0.2, 0.5, 0.4, 0.7),
)


def test_covariances_match_simulated_signals():
    # Form the signals as the module docstring defines them and compare the
    # sample covariances with build_covariances: each entry within 6
    # standard errors of the sample mean of its products.  An entry whose
    # products are all 0 (a silent stream) has standard error 0, so it
    # must match exactly.
    # An absent stream (zero power, lambda = 0) is simulated as an
    # independent standard normal, which is the model's definition of it, so
    # that case encodes the rule rather than checking it.
    n = 200_000
    rng = np.random.default_rng(25)
    w, ut, vt, z1, z2 = rng.standard_normal((5, n))
    absent_u, absent_v = rng.standard_normal((2, n))
    codings = ((0.5, 0.0, 0.7, 1.1), (0.8, 1.0, 0.0, 0.3), (0.3, 0.6, 1.4, 0.5), (0.6, 0.0, 0.0, 0.9))
    for ch in _SIM_CHANNELS:
        for alpha, beta, lam1, lam2 in codings:
            cp = GaussianCoding(alpha, beta, lam1, lam2)
            s_u, s_v = alpha * beta * ch.p2, alpha * (1.0 - beta) * ch.p2
            x1 = math.sqrt(ch.p1) * w
            x2 = math.sqrt(s_u) * ut + math.sqrt(s_v) * vt + math.sqrt((1.0 - alpha) * ch.p2) * w
            u = math.sqrt(s_u) * ut + lam1 * w if s_u or lam1 else absent_u
            v = math.sqrt(s_v) * vt + lam2 * w if s_v or lam2 else absent_v
            y1 = x1 + math.sqrt(ch.c21) * x2 + z1
            y2 = x2 + math.sqrt(ch.c12) * x1 + z2
            for model, signals in zip(build_covariances(ch, cp), ((w, u, y1), (u, v, y2))):
                for i in range(3):
                    for j in range(3):
                        products = signals[i] * signals[j]
                        se = products.std() / math.sqrt(n)
                        assert abs(products.mean() - model[i, j]) <= 6.0 * se, (ch, cp, i, j)


@settings(max_examples=300, deadline=None)
@given(_power, _power, st.floats(0.0, 8.0), st.floats(0.0, 8.0), _split, _split,
       st.floats(0.0, 3.0), st.floats(0.0, 3.0))
def test_build_covariances_holds_the_entries_the_evaluator_reads(
    p1, p2, c12, c21, alpha, beta, f1, f2
):
    # The two matrices of the entropy route hold, bit for bit, the covariance
    # entries that _region_g_arrays reads for the same coding, also at zero
    # powers, at alpha and beta in {0, 1}, and with a positive lambda on a
    # zero-power stream.  They once grouped var(Y1) and var(Y2) differently.
    ch = ChannelParams(p1, p2, c12, c21)
    _, eta2 = eta_coefficients(ch, alpha)
    cp = GaussianCoding(alpha, beta, f1 * eta2, f2 * eta2)
    model, read = gaussian._unit_w_model, []

    def spy(*args):
        read.append(model(*args))
        return read[-1]

    with mock.patch.object(gaussian, "_unit_w_model", spy):
        _region_g_arrays(ch, alpha, beta, cp.lambda1, cp.lambda2)
    (m,) = read
    l1, l2, uv = cp.lambda1, cp.lambda2, cp.lambda1 * cp.lambda2
    want = (
        [[1.0, l1, m.eta1], [l1, m.uu, m.uy1], [m.eta1, m.uy1, m.y1y1]],
        [[m.uu, uv, m.uy2], [uv, m.vv, m.vy2], [m.uy2, m.vy2, m.y2y2]],
    )
    for got, entries in zip(build_covariances(ch, cp), want):
        expected = [[np.asarray(x).item() for x in row] for row in entries]
        np.testing.assert_array_equal(bits(got), bits(expected))


def test_region_g_suc_low_interference_corner():
    # alpha=1, beta=0: R1 = log2(1 + p1/(c21 p2 + 1))/2, R2 = log2(1+p2)/2.
    region = region_g_suc(CH_LOW, 1.0, 0.0)
    assert region.r1_max == pytest.approx(0.5 * math.log2(1 + 6.0 / 2.8), abs=1e-12)
    assert region.r2_max == pytest.approx(0.5 * math.log2(7.0), abs=1e-12)
    assert region.sum_max == pytest.approx(region.r1_max + region.r2_max, abs=0)
    assert region.feasible


def test_region_g_suc_alpha_zero_full_cooperation():
    region = region_g_suc(CH_LOW, 0.0, 0.7)
    expected = 0.5 * math.log2(1 + (math.sqrt(6.0) + math.sqrt(0.3 * 6.0)) ** 2)
    assert region.r2_max == 0.0
    assert region.r1_max == pytest.approx(expected, abs=1e-12)


def test_region_g_suc_min_term():
    # alpha=1, beta=1 at c21=2: the openly decoded stream is capped by the
    # weaker of the two receivers.
    region = region_g_suc(CH_HIGH, 1.0, 1.0)
    t_y1 = 0.5 * math.log2(1 + 2.0 * 6.0 / (6.0 + 1.0))
    t_y2 = 0.5 * math.log2(1 + 6.0 / (0.3 * 6.0 + 1.0))
    assert region.r2_max == pytest.approx(min(t_y1, t_y2), abs=1e-12)
    assert region.r2_max == pytest.approx(0.7202, abs=1e-4)


def test_region_g_sp1_examples():
    region = region_g_sp1(CH_LOW, 1.0)
    assert (region.r1_max, region.r2_max) == pytest.approx(
        (0.8260, 1.4037), abs=5e-5
    )
    region0 = region_g_sp1(CH_LOW, 0.0)
    assert region0.r1_max == pytest.approx(1.9711, abs=5e-5)
    assert region0.r2_max == 0.0
    # No sender-2 power at all: single-user rate.
    solo = region_g_sp1(ChannelParams(6.0, 0.0, 0.3, 0.3), 0.5)
    assert solo.r1_max == pytest.approx(0.5 * math.log2(7.0), abs=1e-12)
    assert solo.r2_max == 0.0


def test_region_g_sp2_examples():
    region = region_g_sp2(CH_HIGH, 1.0)
    assert (region.r1_max, region.r2_max) == pytest.approx(
        (1.4037, 0.7202), abs=1e-4
    )
    assert region_g_sp2(CH_HIGH, 0.0).r2_max == 0.0
    region6 = region_g_sp2(ChannelParams(6.0, 6.0, 0.3, 6.0), 1.0)
    expected = min(0.5 * math.log2(1 + 36.0 / 7.0), 0.5 * math.log2(1 + 6.0 / 2.8))
    assert region6.r2_max == pytest.approx(expected, abs=1e-12)
    assert region6.r2_max == pytest.approx(0.8260, abs=5e-5)


def test_sp_cases_equal_suc_exactly():
    for alpha in np.linspace(0.0, 1.0, 11):
        sp1 = region_g_sp1(CH_HIGH, float(alpha))
        suc0 = region_g_suc(CH_HIGH, float(alpha), 0.0)
        assert (sp1.r1_max, sp1.r2_max, sp1.sum_max) == (
            suc0.r1_max, suc0.r2_max, suc0.sum_max,
        )
        sp2 = region_g_sp2(CH_HIGH, float(alpha))
        suc1 = region_g_suc(CH_HIGH, float(alpha), 1.0)
        assert (sp2.r1_max, sp2.r2_max, sp2.sum_max) == (
            suc1.r1_max, suc1.r2_max, suc1.sum_max,
        )


def test_dpc_lambda_star_example():
    lam, gain = dpc_lambda_star(CH_LOW, 1.0, 0.0)
    assert lam == pytest.approx(6.0 * math.sqrt(1.8) / 7.0, abs=1e-12)
    assert lam == pytest.approx(1.1500, abs=5e-5)
    assert gain == pytest.approx(0.5 * math.log2(7.0), abs=1e-12)
    # Grid oracle over [0, 5] with 50001 points.
    objective = dpc_gain_objective(CH_LOW, 1.0, 0.0)
    arg, value = grid_maximize(objective, 0.0, 5.0, 50001)
    assert arg == pytest.approx(lam, abs=1e-4)
    step = 5.0 / 50000
    local = max(
        abs(value - float(objective(arg - step))),
        abs(value - float(objective(arg + step))),
    )
    assert abs(gain - value) <= local + 1e-12


@pytest.mark.parametrize("power", [6.0, 1e6, 1e10, 1e14, 1e100])
def test_dpc_gain_objective_at_the_optimum_equals_the_gain(power):
    # The determinant used to be a * b - c * c, which cancelled: at 1e14
    # the objective read 0.0083 bits below the gain, at 1e100 it was inf.
    ch = ChannelParams(p1=power, p2=power, c12=0.0, c21=0.0)
    lam, gain = dpc_lambda_star(ch, 0.5, 0.0)
    value = float(dpc_gain_objective(ch, 0.5, 0.0)(lam))
    assert abs(value - gain) <= 1e-12 * max(1.0, gain)


_log_power = st.floats(math.log10(5e-324), 100.0).map(lambda e: max(10.0**e, 5e-324))


@settings(max_examples=300, deadline=None)
@given(_log_power, _log_power, st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@example(p1=0.25, p2=5e-324, c12=1.0, alpha=1.0, beta=0.0)
def test_dpc_gain_objective_is_finite_down_to_subnormal_powers(p1, p2, c12, alpha, beta):
    # The bin cost gamma(1 + lam**2 / s) overflowed past lam > 1.3e-6 at
    # s = 1e-320: the objective read -inf, with an overflow warning.  It
    # stays finite on the grid dpc-lambda --check evaluates, and below the
    # closed-form gain it peaks at (at the example, s * (lam - eta2)**2
    # rounded to 0 and the objective read 0.161 bits above a gain of 0).
    ch = ChannelParams(p1=p1, p2=p2, c12=c12, c21=0.0)
    s, eta2 = gaussian._dpc_split(ch, alpha, beta)
    assume(s > 0.0)
    _, gain = dpc_lambda_star(ch, alpha, beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = dpc_gain_objective(ch, alpha, beta)(np.linspace(0.0, 6.0 * (eta2 + 1.0), 101))
    assert np.isfinite(values).all()
    assert values.max() <= gain + 1e-12 * max(1.0, gain)


def test_dpc_lambda_star_edge_cases():
    lam, gain = dpc_lambda_star(ChannelParams(6.0, 6.0, 0.0, 0.3), 1.0, 0.0)
    assert lam == 0.0 and gain == pytest.approx(0.5 * math.log2(7.0), abs=1e-12)
    assert dpc_lambda_star(CH_LOW, 0.7, 1.0) == (0.0, 0.0)
    assert dpc_lambda_star(CH_LOW, 0.0, 0.3) == (0.0, 0.0)


def test_dpc_gain_objective_at_zero_stream_power_is_rejected():
    # beta = 1 leaves the V stream no power; the CLI checks that before it
    # asks for the objective, so only a library caller gets here.
    with pytest.raises(ValueError, match=r"^zero stream power: the objective is identically 0$"):
        dpc_gain_objective(CH_LOW, 0.7, 1.0)


@pytest.mark.parametrize("alpha, beta", [(0.5, -1.0), (0.5, 2.0), (1.5, 0.0), (math.nan, 0.0)])
def test_dpc_split_outside_the_unit_interval_is_rejected(alpha, beta):
    # dpc_gain_objective used to return an objective for beta = -1 (a stream
    # power of 2 * alpha * p2) and call beta = 2 a zero stream power.
    for dpc in (dpc_lambda_star, dpc_gain_objective):
        with pytest.raises(ValueError, match=r"alpha and beta must lie in \[0, 1\]"):
            dpc(CH_LOW, alpha, beta)


def test_pentagon_contains():
    from icdms import PentagonRegion

    region = PentagonRegion(1.0, 1.0, 1.5)
    assert region.contains(0.9, 0.5)
    assert not region.contains(0.9, 0.7)  # violates the sum bound
    assert not region.contains(1.1, 0.0)
    assert not region.contains(-0.1, 0.0)
    assert not PentagonRegion(0, 0, 0, feasible=False).contains(0.0, 0.0)
