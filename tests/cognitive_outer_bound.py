"""Test-only yardstick: the cognitive-channel outer bound.

Every achievable rate pair of the standard-form channel lies in the union
over rho in [0, 1] of the rectangles

    R1 <= 1/2 log2(1 + p1 + c21 p2 + 2 rho sqrt(c21 p1 p2))
    R2 <= 1/2 log2(1 + (1 - rho^2) p2),

full cooperation at receiver 1 and receiver 2 given X1 (Wu, Vishwanath &
Arapostathis, "Capacity of a class of cognitive radio channels:
interference channels with degraded message sets", IEEE T-IT 53(11),
2007).  A swept frontier that pokes out of it is a fault of the sweep.
"""

import math

import numpy as np

from icdms import ChannelParams, Frontier


def outer_bound_excess(ch: ChannelParams, f: Frontier, tol: float = 1e-12) -> float:
    """Largest amount (bits) by which a frontier point lies outside the
    bound by more than ``tol`` in each coordinate; 0 when none does.

    Every sample and the exact end point ``(reach, reach_r2)`` are moved
    ``tol`` down in r1 and r2 and then checked.  A moved point's excess is
    the smaller of its height above the bound at its r1 and its distance
    beyond the bound at its r2.  Inverting the bound for rho divides by
    ``sqrt(c21 p1 p2)`` or ``p2``, which may be tiny; the ``tol`` shift
    outweighs the rounding that division amplifies, so a point on the
    bound reads 0.
    """
    r1 = np.append(f.r1, f.reach) - tol
    r2 = np.append(f.r2, f.reach_r2) - tol
    p1, p2, c21 = ch.p1, ch.p2, ch.c21
    s = math.sqrt(c21 * p1 * p2)

    def r1_bound(rho):
        return 0.5 * np.log2(1.0 + p1 + c21 * p2 + 2.0 * rho * s)

    def r2_bound(rho):
        return 0.5 * np.log2(1.0 + (1.0 - rho * rho) * p2)

    # Above the bound at r1: the least rho whose R1 bound reaches r1.
    if s > 0.0:
        rho_min = np.maximum((2.0 ** (2.0 * r1) - 1.0 - p1 - c21 * p2) / (2.0 * s), 0.0)
    else:
        rho_min = np.where(r1 <= r1_bound(0.0), 0.0, np.inf)
    over_r2 = np.where(rho_min <= 1.0, r2 - r2_bound(np.minimum(rho_min, 1.0)), np.inf)
    # Beyond the bound at r2: the largest rho whose R2 bound reaches r2.
    if p2 > 0.0:
        slack = 1.0 - (2.0 ** (2.0 * r2) - 1.0) / p2
    else:
        slack = np.where(r2 <= 0.0, 1.0, -1.0)
    rho_max = np.sqrt(np.clip(slack, 0.0, 1.0))
    over_r1 = np.where(slack >= 0.0, r1 - r1_bound(rho_max), np.inf)
    excess = float(np.max(np.minimum(over_r1, over_r2)))
    return excess if excess > 0.0 else 0.0
