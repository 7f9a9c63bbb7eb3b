"""Test-only oracle: the FULL and STAR factorizations written out by hand.

This is the form the random draws and the joint assembly had before both
families were read from one factor table: one keyword argument per factor
in a fixed order, and one explicit ``np.einsum`` per family.  The
table-driven :func:`icdms.random_full`, :func:`icdms.random_star` and
:func:`icdms.assemble_joint` must match it bit for bit.
"""

import numpy as np

from icdms.discrete import FULL, FULL_AXES, STAR, STAR_AXES, AlphabetSpec, FactoredDistribution


def _random_conditional(rng: np.random.Generator, shape: tuple[int, ...], cond_ndim: int) -> np.ndarray:
    """Strictly positive random conditional table, normalized per slice."""
    table = rng.random(shape) + 0.05
    sums = table.sum(axis=tuple(range(cond_ndim, len(shape))), keepdims=True)
    return table / sums


def random_full(sizes: AlphabetSpec, rng: np.random.Generator) -> FactoredDistribution:
    return FactoredDistribution(
        family=FULL,
        p_q=_random_conditional(rng, (sizes.q,), 0),
        p_wx1=_random_conditional(rng, (sizes.q, sizes.w, sizes.x1), 1),
        p_uut=_random_conditional(rng, (sizes.q, sizes.w, sizes.u, sizes.ut), 2),
        p_vvt=_random_conditional(rng, (sizes.q, sizes.w, sizes.v, sizes.vt), 2),
        p_x2=_random_conditional(
            rng, (sizes.q, sizes.w, sizes.ut, sizes.vt, sizes.x2), 4
        ),
        channel=_random_conditional(
            rng, (sizes.x1, sizes.x2, sizes.y1, sizes.y2), 2
        ),
    )


def random_star(sizes: AlphabetSpec, rng: np.random.Generator) -> FactoredDistribution:
    return FactoredDistribution(
        family=STAR,
        p_q=_random_conditional(rng, (sizes.q,), 0),
        p_wx1=_random_conditional(rng, (sizes.q, sizes.w, sizes.x1), 1),
        p_u=_random_conditional(rng, (sizes.q, sizes.u), 1),
        p_vvt=_random_conditional(rng, (sizes.q, sizes.w, sizes.v, sizes.vt), 2),
        p_x2=_random_conditional(
            rng, (sizes.q, sizes.w, sizes.u, sizes.vt, sizes.x2), 4
        ),
        channel=_random_conditional(
            rng, (sizes.x1, sizes.x2, sizes.y1, sizes.y2), 2
        ),
    )


def joint_table(fd: FactoredDistribution) -> tuple[np.ndarray, tuple[str, ...]]:
    """The dense joint table and its axis names."""
    if fd.family == FULL:
        table = np.einsum(
            "q,qwa,qwut,qwvs,qwtsx,axyz->qwautvsxyz",
            fd.p_q,
            fd.p_wx1,
            fd.p_uut,
            fd.p_vvt,
            fd.p_x2,
            fd.channel,
            optimize=True,
        )
        return table, FULL_AXES
    table = np.einsum(
        "q,qwa,qu,qwvs,qwusx,axyz->qwauvsxyz",
        fd.p_q,
        fd.p_wx1,
        fd.p_u,
        fd.p_vvt,
        fd.p_x2,
        fd.channel,
        optimize=True,
    )
    return table, STAR_AXES
