"""Test-only oracle: the four-parameter ``g`` sweep as a Python loop.

This is the form the sweep had before it was batched: one pentagon call
per (alpha, beta), each on the ``meshgrid`` of the deduplicated
(``np.unique``) unit-W bin-coefficient grids, with the zero-power streams
handled by scalar ``active_u`` / ``active_v`` branches.  The batched
``_region_g_arrays`` and ``sweep_gaussian(..., "g")`` must match it bit for
bit.  The sweep collects every feasible pentagon and takes one
``_union_arrays`` call, so the streaming fold of the sweep is not shared
with the code under test.
"""

import math

import numpy as np

from icdms.gaussian import (
    FEAS_TOL,
    ChannelParams,
    _gamma,
    dpc_lambda_star,
    eta_coefficients,
)
from icdms.geometry import (
    LAMBDA_SPAN,
    EmptyUnionError,
    Frontier,
    SweepGrid,
    _union_arrays,
)


def loop_region_g_arrays(
    ch: ChannelParams,
    alpha: float,
    beta: float,
    lam1: np.ndarray,
    lam2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pentagon bounds for equal-length unit-W (lambda1, lambda2) at one
    (alpha, beta).

    Returns ``(r1_max, r2_max, sum_max, feasible)``, zero bounds where
    infeasible.
    """
    p2, c21 = ch.p2, ch.c21
    l1 = np.asarray(lam1, dtype=float)
    l2 = np.asarray(lam2, dtype=float)
    s_u = alpha * beta * p2
    s_v = alpha * (1.0 - beta) * p2
    eta1, eta2 = eta_coefficients(ch, alpha)

    divergent = np.zeros(np.broadcast(l1, l2).shape, dtype=bool)
    if s_u == 0.0:
        divergent |= l1 > 0.0
        l1 = np.zeros_like(l1)
    if s_v == 0.0:
        divergent |= l2 > 0.0
        l2 = np.zeros_like(l2)

    # Unit-W covariance entries. var(W) = 1 throughout.
    uu = s_u + l1 * l1
    vv = s_v + l2 * l2
    uv = l1 * l2
    rc21 = math.sqrt(c21)
    uy1 = rc21 * s_u + l1 * eta1
    uy2 = s_u + l1 * eta2
    vy2 = s_v + l2 * eta2
    y1y1 = eta1 * eta1 + c21 * (s_u + s_v) + 1.0
    y2y2 = s_u + s_v + eta2 * eta2 + 1.0
    det_wy1 = c21 * (s_u + s_v) + 1.0  # var(Y1 | W), without cancelling eta1^2

    active_u = s_u > 0.0
    active_v = s_v > 0.0

    if active_u:
        det_uy1 = uu * y1y1 - uy1 * uy1
        # (W, U, Y1) with unit W in the first slot.
        det_wuy1 = (
            uu * y1y1
            - uy1 * uy1
            - l1 * (l1 * y1y1 - uy1 * eta1)
            + eta1 * (l1 * uy1 - uu * eta1)
        )
        i1 = _gamma(det_uy1 / det_wuy1)
        i5 = _gamma(s_u * y1y1 / det_wuy1)
        i3 = _gamma(1.0 + l1 * l1 / s_u)
    else:
        i1 = np.full_like(l1, float(_gamma(y1y1 / det_wy1)))
        i5 = i1.copy()
        i3 = np.zeros_like(l1)

    if active_v:
        i4 = _gamma(1.0 + l2 * l2 / s_v)
    else:
        i4 = np.zeros_like(l2)

    if active_u and active_v:
        det_uv = uu * vv - uv * uv
        det_uy2 = uu * y2y2 - uy2 * uy2
        det_vy2 = vv * y2y2 - vy2 * vy2
        det_uvy2 = (
            uu * (vv * y2y2 - vy2 * vy2)
            - uv * (uv * y2y2 - vy2 * uy2)
            + uy2 * (uv * vy2 - vv * uy2)
        )
        i2 = _gamma(det_uv * y2y2 / det_uvy2)
        i6 = _gamma(vv * det_uy2 / det_uvy2)
        i7 = _gamma(uu * det_vy2 / det_uvy2)
    elif active_u:
        det_uy2 = uu * y2y2 - uy2 * uy2
        i2 = _gamma(uu * y2y2 / det_uy2)
        i6 = np.zeros_like(l1)
        i7 = i2.copy()
    elif active_v:
        det_vy2 = vv * y2y2 - vy2 * vy2
        i2 = _gamma(vv * y2y2 / det_vy2)
        i6 = i2.copy()
        i7 = np.zeros_like(l2)
    else:
        i2 = np.zeros_like(l1 + l2)
        i6 = np.zeros_like(i2)
        i7 = np.zeros_like(i2)

    r2 = i2 - i3 - i4
    r_sum = i5 + i6 - i3 - i4
    feasible = (
        ~divergent
        & np.isfinite(i1)
        & np.isfinite(r2)
        & np.isfinite(r_sum)
        & (i5 - i3 >= -FEAS_TOL)
        & (i7 - i3 >= -FEAS_TOL)
        & (i6 - i4 >= -FEAS_TOL)
        & (r2 >= -FEAS_TOL)
    )
    r1_max = np.where(feasible, np.maximum(np.minimum(i1, i5 - i3), 0.0), 0.0)
    r2_max = np.where(feasible, np.maximum(r2, 0.0), 0.0)
    sum_max = np.where(feasible, np.maximum(r_sum, 0.0), 0.0)
    return r1_max, r2_max, sum_max, feasible


def loop_sweep_g(ch: ChannelParams, grid: SweepGrid, r1_step: float) -> Frontier:
    """Frontier of the four-parameter family, one call per (alpha, beta)."""
    members = []
    p2 = ch.p2
    # The sweep rounds its grids through the stored E{W^2} = p1 scale and
    # back to keep the reference figures' bytes; so does the oracle.
    rp1 = math.sqrt(ch.p1) or 1.0

    def rounded(lam: np.ndarray) -> np.ndarray:
        return np.unique(lam / rp1 * rp1)

    for alpha in grid.alpha.points():
        _, eta2 = eta_coefficients(ch, float(alpha))
        lam_hi = LAMBDA_SPAN * eta2
        for beta in grid.beta.points():
            s_u = alpha * beta * p2
            s_v = alpha * (1.0 - beta) * p2
            lam1 = np.append(grid.lambda1.points(lam_hi), s_u * eta2 / (s_u + 1.0))
            lam2 = np.append(grid.lambda2.points(lam_hi), s_v * eta2 / (s_v + 1.0))
            mesh1, mesh2 = np.meshgrid(rounded(lam1), rounded(lam2), indexing="ij")
            members.append(
                loop_region_g_arrays(
                    ch, float(alpha), float(beta), mesh1.ravel(), mesh2.ravel()
                )
            )

    for alpha in grid.edge_alpha.points():
        alpha = float(alpha)
        lam2 = dpc_lambda_star(ch, alpha, 0.0)[0] / rp1 * rp1
        members.append(
            loop_region_g_arrays(ch, alpha, 0.0, np.array([0.0]), np.array([lam2]))
        )
        members.append(
            loop_region_g_arrays(ch, alpha, 1.0, np.array([0.0]), np.array([0.0]))
        )
    a, b, c = (
        np.concatenate([bounds[k][bounds[3]] for bounds in members]) for k in range(3)
    )
    if not a.size:
        raise EmptyUnionError("no feasible region in the union")
    return _union_arrays(a, b, c, r1_step)
