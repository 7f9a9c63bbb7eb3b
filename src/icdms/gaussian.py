"""Closed-form rate-region machinery for the standard-form Gaussian
interference channel with degraded message sets.

Standard form::

    Y1 = X1 + sqrt(c21) * X2 + Z1
    Y2 = X2 + sqrt(c12) * X1 + Z2

with unit-variance AWGN ``Z1``, ``Z2``, average transmit powers ``p1``,
``p2``, and normalized cross gains ``c21`` (sender 2 -> receiver 1) and
``c12`` (sender 1 -> receiver 2).  Sender 2 knows sender 1's message ahead
of time, so it splits its signal three ways::

    X2 = Ut + Vt + sqrt((1 - alpha) * p2) * W

where ``W`` carries sender 1's codeword (cooperation by superposition) and
``Ut`` / ``Vt`` are two private streams with powers ``alpha * beta * p2``
and ``alpha * (1 - beta) * p2``.  Both private streams are bin-coded
against the known codeword through the auxiliaries::

    U = Ut + lambda1 * W        V = Vt + lambda2 * W

``region_g`` evaluates the pentagon achieved by one such coding choice
from the covariance matrices of ``(W, U, Y1)`` and ``(U, V, Y2)``::

    [[1,    l1,  eta1],        [[uu,      l1 * l2, uy2 ],
     [l1,   uu,  uy1 ],         [l1 * l2, vv,      vy2 ],
     [eta1, uy1, y1y1]]         [uy2,     vy2,     y2y2]]

with ``l1``, ``l2`` the two lambdas and ``uu`` = var(U), ``uy1`` =
cov(U, Y1) and so on.  :func:`_unit_w_model` states each entry once, and
the evaluator and :func:`build_covariances` both read it.
``region_g_suc`` is the closed-form successive-decoding family (no binning
of the ``U`` stream), with ``region_g_sp1`` / ``region_g_sp2`` its
``beta = 0`` / ``beta = 1`` special cases.  ``dpc_lambda_star`` gives the
interference-cancelling bin coefficient (the dirty-paper optimum) and its
rate gain.

Conventions
-----------
* All rates and entropies are in bits: ``_gamma(x) = log2(x) / 2`` and
  ``XI = log2(2 pi e) / 2``.
* ``W`` has unit variance, and every bin coefficient multiplies it:
  :class:`GaussianCoding`, the covariance matrices, the evaluator, the
  ``g`` sweep and ``dpc_lambda_star`` share that one scale, and one rule
  (:func:`_check_lambda`) bounds it.  ``_lambda_rows``' rounding step
  exists only to keep the reference figures' bytes.
* Zero-power limits are evaluated exactly.  At ``p1 == 0`` a lambda still
  bins against ``W``, which sender 2 sends.  A stream with zero power and
  zero lambda is *absent*, a constant: every mutual information is the same
  without it, or with an independent unit-variance variable in its place.
  :func:`_unit_w_model` makes it that variable (variance 1, covariances 0),
  so the substitution is exact and no formula needs a case of its own.  A
  *positive* lambda on a zero-power stream diverges: the region is infeasible.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

__all__ = [
    "XI",
    "FEAS_TOL",
    "DET_REL_TOL",
    "MAX_POWER",
    "LAMBDA_SPAN",
    "MAX_LAMBDA",
    "DegenerateError",
    "ChannelParams",
    "GaussianCoding",
    "EntropyTerms",
    "ENTROPY_BLOCKS",
    "MiTerms",
    "PentagonRegion",
    "eta_coefficients",
    "build_covariances",
    "entropy_terms",
    "mi_terms",
    "region_g",
    "region_g_suc",
    "region_g_sp1",
    "region_g_sp2",
    "dpc_lambda_star",
    "dpc_gain_objective",
]

#: Differential entropy of a unit Gaussian, bits: log2(2*pi*e)/2.
XI = 0.5 * math.log2(2.0 * math.pi * math.e)

#: Slack allowed on feasibility residuals and non-negativity checks, bits.
FEAS_TOL = 1e-9

#: A covariance block is singular when det <= DET_REL_TOL * prod(diagonal).
DET_REL_TOL = 1e-12

#: Largest transmit or received power (p1, p2, c12 * p1, c21 * p2) a channel
#: may have.  The ``g`` determinants are cubic in the received power, and
#: with lambda up to 3 * eta2 they stay near 5e303, below the float maximum.
#: ``MAX_LAMBDA`` holds the lambdas to that bound.
MAX_POWER = 1e100

#: The bin-coefficient grids span [0, LAMBDA_SPAN * eta2]; the dirty-paper
#: optimum sits at s*eta2/(s+1) < eta2, and the rate terms decay beyond it.
LAMBDA_SPAN = 3.0

#: Largest bin coefficient a coding or a lambda axis may hold: ``LAMBDA_SPAN``
#: times the largest eta2 that powers capped at ``MAX_POWER`` allow, 2 * sqrt(MAX_POWER).
#: The automatic span never exceeds it, and the ``g`` determinants stay finite up to it.
MAX_LAMBDA = LAMBDA_SPAN * 2.0 * math.sqrt(MAX_POWER)


class DegenerateError(ValueError):
    """A required covariance block is singular, or a bin rate diverges.

    Raised by :func:`entropy_terms` / :func:`mi_terms` to signal that the
    parameter point cannot be evaluated by the determinant formulas and
    must be skipped.
    """

    def __init__(self, term: str, message: str | None = None):
        self.term = term
        super().__init__(message or f"degenerate evaluation at {term}")


def _gamma(x, out=None):
    """log2(x)/2, elementwise; the half-log that all rate formulas use.
    ``out``, an array, receives the result in place of a new one."""
    return np.multiply(0.5, np.log2(x, out=out), out=out)


def _check_split(name: str, *values) -> None:
    """The power-split rule: ``ValueError`` unless every value is in [0, 1]."""
    if not all(v is not None and 0.0 <= v <= 1.0 for v in values):
        raise ValueError(f"{name} must lie in [0, 1]")


def _check_nonneg(name: str, value) -> float:
    """The "finite and >= 0" rule: ``value`` as a float, else ``ValueError``."""
    try:
        value = float(value)
        ok = math.isfinite(value) and value >= 0.0
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def _check_lambda(name: str, value) -> float:
    """The bin-coefficient rule: finite, >= 0 and at most ``MAX_LAMBDA``."""
    if (value := _check_nonneg(name, value)) > MAX_LAMBDA:
        raise ValueError(f"{name} must be <= {MAX_LAMBDA:g}, got {value!r}")
    return value


def _stream_powers(p2, alpha, beta):
    """The ``U`` and ``V`` stream powers, elementwise over arrays."""
    return alpha * beta * p2, alpha * (1.0 - beta) * p2


@dataclass(frozen=True)
class ChannelParams:
    """Powers and normalized link gains of the standard-form channel."""

    p1: float
    p2: float
    c12: float
    c21: float

    def __post_init__(self):
        for name in ("p1", "p2", "c12", "c21"):
            object.__setattr__(self, name, _check_nonneg(name, getattr(self, name)))
        for name, power in (
            ("p1", self.p1),
            ("p2", self.p2),
            ("c12 * p1", self.c12 * self.p1),
            ("c21 * p2", self.c21 * self.p2),
        ):
            if power > MAX_POWER:
                raise ValueError(f"{name} must be <= {MAX_POWER:g}, got {power!r}")


@dataclass(frozen=True)
class GaussianCoding:
    """One coding choice: power splits and bin coefficients.

    ``alpha`` is the fraction of sender 2's power spent on its own two
    streams (the rest cooperates), ``beta`` splits the private power
    between the two streams, and ``lambda1`` / ``lambda2`` are the bin
    coefficients of the two streams against the unit-variance ``W``, at
    most ``MAX_LAMBDA``.  ``dpc_lambda_star(...)[0]`` is a ``lambda2``.
    """

    alpha: float
    beta: float
    lambda1: float = 0.0
    lambda2: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta"):
            value = float(getattr(self, name))
            _check_split(name, value)
            object.__setattr__(self, name, value)
        for name in ("lambda1", "lambda2"):
            object.__setattr__(self, name, _check_lambda(name, getattr(self, name)))


@dataclass(frozen=True)
class EntropyTerms:
    """The twelve differential entropies (bits) plus shared amplitudes."""

    h_a: float  # h(W)
    h_b: float  # h(U, Y1)
    h_c: float  # h(W, U, Y1)
    h_d: float  # h(U, V)
    h_e: float  # h(Y2)
    h_f: float  # h(U, V, Y2)
    h_g: float  # h(W, U)
    h_h: float  # h(Y1)
    h_i: float  # h(V)
    h_j: float  # h(U, Y2)
    h_k: float  # h(U)
    h_l: float  # h(V, Y2)
    eta1: float
    eta2: float
    xi: float = XI


#: Covariance block of each entropy term: which matrix of
#: :func:`build_covariances` (0 for (W, U, Y1), 1 for (U, V, Y2)) and the
#: rows kept.  The order is part of the contract: ``oracle-check`` seeds the
#: Monte Carlo estimate of each term by its position here.
ENTROPY_BLOCKS = {
    "h_a": (0, (0,)),
    "h_b": (0, (1, 2)),
    "h_c": (0, (0, 1, 2)),
    "h_d": (1, (0, 1)),
    "h_e": (1, (2,)),
    "h_f": (1, (0, 1, 2)),
    "h_g": (0, (0, 1)),
    "h_h": (0, (2,)),
    "h_i": (1, (1,)),
    "h_j": (1, (0, 2)),
    "h_k": (1, (0,)),
    "h_l": (1, (1, 2)),
}


@dataclass(frozen=True)
class MiTerms:
    """The seven mutual-information combinations (bits)."""

    i1: float  # I(W; Y1, U)
    i2: float  # I(U, V; Y2)
    i3: float  # I(U; W)
    i4: float  # I(V; W)
    i5: float  # I(U, W; Y1)
    i6: float  # I(V; Y2, U)
    i7: float  # I(U; Y2, V)


def _row_bounds(i1, i3, i5):
    """The binned-pair region's bounds from :class:`MiTerms`' seven terms: the
    one statement that ``_region_g_arrays`` (arrays) and ``discrete.region_full``
    (floats given Q, made Python floats by ``discrete._region``) read.  Each
    holds the residuals, >= 0 where feasible, to its own tolerance.  Row part:
    ``(r1, u_at_y1) = (i1, i5 - i3)``, r1 uncapped."""
    return i1, i5 - i3


def _pair_bounds(i2, i3, i4, i5, i6, i7, out=(None,) * 4):
    """Pair part: ``(r2, sum, (u_at_y2, v_at_y2, r2_total))``, each operation a
    numpy ufunc in a fixed order.  ``out`` names the four arrays that r2, the
    sum, u_at_y2 and v_at_y2 are written into; without it, floats come back as
    numpy scalars of the same bits, which ``discrete._region`` makes Python floats."""
    to_r2, to_sum, to_u, to_v = out
    # r2 = i2 - i3 - i4 and r_sum = i5 + i6 - i3 - i4.
    r2 = np.subtract(np.subtract(i2, i3, out=to_r2), i4, out=to_r2)
    r_sum = np.subtract(np.subtract(np.add(i5, i6, out=to_sum), i3, out=to_sum), i4, out=to_sum)
    return r2, r_sum, (np.subtract(i7, i3, out=to_u), np.subtract(i6, i4, out=to_v), r2)


@dataclass(frozen=True)
class PentagonRegion:
    """A rate region {R1 <= r1_max, R2 <= r2_max, R1 + R2 <= sum_max}.

    ``sum_max`` may be slack or binding; membership is the conjunction of
    the three inequalities over non-negative rate pairs.
    """

    r1_max: float
    r2_max: float
    sum_max: float
    feasible: bool = True

    def contains(self, r1: float, r2: float, tol: float = FEAS_TOL) -> bool:
        if not self.feasible or r1 < -tol or r2 < -tol:
            return False
        return (
            r1 <= self.r1_max + tol
            and r2 <= self.r2_max + tol
            and r1 + r2 <= self.sum_max + tol
        )


def eta_coefficients(ch: ChannelParams, alpha: float) -> tuple[float, float]:
    """Composite signal amplitudes seen by the two receivers.

    ``eta1 = sqrt(p1) + sqrt(c21 * (1-alpha) * p2)`` is the amplitude of
    sender 1's codeword at receiver 1 (direct path plus cooperation);
    ``eta2 = sqrt((1-alpha) * p2) + sqrt(c12 * p1)`` is its amplitude at
    receiver 2, where it acts as known interference.
    """
    _check_split("alpha", alpha)
    eta1, eta2 = _eta_arrays(ch, alpha)
    return float(eta1), float(eta2)


def _eta_arrays(ch: ChannelParams, alpha):
    """:func:`eta_coefficients` elementwise over an array of ``alpha``."""
    abar = 1.0 - alpha
    eta1 = math.sqrt(ch.p1) + np.sqrt(ch.c21 * abar * ch.p2)
    eta2 = np.sqrt(abar * ch.p2) + math.sqrt(ch.c12 * ch.p1)
    return eta1, eta2


#: The entries of the two covariance matrices, named as in the module
#: docstring, with the amplitudes and stream powers they are made of.
_Model = namedtuple("_Model", "eta1 eta2 s_u s_v uu uy1 y1y1 uy2 vv vy2 y2y2")


def _unit_w_model(ch: ChannelParams, alpha, beta, l1, l2) -> _Model:
    """The unit-W covariance model, elementwise over arrays.  An absent
    stream has variance 1 (module docstring); its covariances are 0 as they
    stand.  On a zero-power stream a positive lambda makes the blocks
    singular (``U = lambda1 * W``)."""
    eta1, eta2 = _eta_arrays(ch, alpha)
    s_u, s_v = _stream_powers(ch.p2, alpha, beta)
    return _Model(
        eta1, eta2, s_u, s_v,
        uu=np.where((s_u == 0.0) & (l1 == 0.0), 1.0, s_u + l1 * l1),
        uy1=math.sqrt(ch.c21) * s_u + l1 * eta1,
        y1y1=eta1 * eta1 + ch.c21 * (s_u + s_v) + 1.0,
        uy2=s_u + l1 * eta2,
        vv=np.where((s_v == 0.0) & (l2 == 0.0), 1.0, s_v + l2 * l2),
        vy2=s_v + l2 * eta2,
        y2y2=s_u + s_v + eta2 * eta2 + 1.0,
    )


def build_covariances(
    ch: ChannelParams, cp: GaussianCoding
) -> tuple[np.ndarray, np.ndarray]:
    """Covariance matrices of (W, U, Y1) and (U, V, Y2), unit-variance W:
    the entries of :func:`_unit_w_model`, placed as the module docstring shows.

    The matrices describe that model, not the physical signals: an absent
    stream (zero power, zero lambda) has variance 1 here, not 0.  A
    positive lambda on a zero-power stream yields singular matrices;
    downstream operations decide how to handle them.
    """
    l1, l2 = cp.lambda1, cp.lambda2
    m = _unit_w_model(ch, cp.alpha, cp.beta, l1, l2)
    uv = l1 * l2
    return (
        np.array([[1.0, l1, m.eta1], [l1, m.uu, m.uy1], [m.eta1, m.uy1, m.y1y1]]),
        np.array([[m.uu, uv, m.uy2], [uv, m.vv, m.vy2], [m.uy2, m.vy2, m.y2y2]]),
    )


def _det2(m) -> float:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _det3(m) -> float:
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def _block_entropy(matrix: np.ndarray, rows: tuple[int, ...], term: str) -> float:
    """k*XI + log2(det)/2 for the sub-block on ``rows``; Degenerate if singular."""
    sub = matrix[np.ix_(rows, rows)]
    k = len(rows)
    if k == 1:
        det = sub[0, 0]
    elif k == 2:
        det = _det2(sub)
    else:
        det = _det3(sub)
    diag_prod = float(np.prod(np.diag(sub)))
    if det <= DET_REL_TOL * diag_prod or det <= 0.0:
        raise DegenerateError(term)
    return k * XI + 0.5 * math.log2(det)


def entropy_terms(ch: ChannelParams, cp: GaussianCoding) -> EntropyTerms:
    """The twelve differential entropies entering the region formulas.

    ``h_j`` and ``h_l`` are the (U, Y2) and (V, Y2) blocks of the second
    covariance matrix, which is what I6 = I(V; Y2, U) and I7 = I(U; Y2, V)
    require.

    Raises :class:`DegenerateError` when a required determinant falls at or
    below the singularity tolerance, which signals that the parameter point
    must be skipped.
    """
    matrices = build_covariances(ch, cp)
    eta1, eta2 = eta_coefficients(ch, cp.alpha)
    return EntropyTerms(
        **{
            name: _block_entropy(matrices[which], rows, name)
            for name, (which, rows) in ENTROPY_BLOCKS.items()
        },
        eta1=eta1,
        eta2=eta2,
    )


def mi_terms(ch: ChannelParams, cp: GaussianCoding) -> MiTerms:
    """The seven mutual-information combinations, from the entropy terms.

    ``i3`` and ``i4`` come from their closed forms, with the convention
    that a zero bin coefficient gives exactly 0 bits.
    """
    s_u, s_v = _stream_powers(ch.p2, cp.alpha, cp.beta)
    if cp.lambda1 > 0.0 and s_u == 0.0:
        raise DegenerateError("i3", "lambda1 > 0 with zero U-stream power")
    if cp.lambda2 > 0.0 and s_v == 0.0:
        raise DegenerateError("i4", "lambda2 > 0 with zero V-stream power")
    h = entropy_terms(ch, cp)
    i3 = 0.0 if cp.lambda1 == 0.0 else 0.5 * math.log2(1.0 + cp.lambda1 ** 2 / s_u)
    i4 = 0.0 if cp.lambda2 == 0.0 else 0.5 * math.log2(1.0 + cp.lambda2 ** 2 / s_v)
    return MiTerms(
        i1=h.h_a + h.h_b - h.h_c,
        i2=h.h_d + h.h_e - h.h_f,
        i3=i3,
        i4=i4,
        i5=h.h_g + h.h_h - h.h_c,
        i6=h.h_i + h.h_j - h.h_f,
        i7=h.h_k + h.h_l - h.h_f,
    )


def _pair_scratch(pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Work arrays for the pair stage of :func:`_region_g_arrays` calls of
    at most ``pairs`` (row, lambda2) pairs each: 8 float and 2 boolean rows.
    A sweep makes one, sized to its largest tile, and passes it to every
    call, so that no call hands pair-sized temporaries back to the
    allocator for the next one to fault in again."""
    return np.empty((8, pairs)), np.empty((2, pairs), dtype=bool)


def _region_g_arrays(
    ch: ChannelParams, alpha, beta, lam1, lam2, scratch=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pentagon bounds for a batch of (alpha, beta, lambda1, lambda2) tuples.

    The four arguments broadcast against each other and against ``(1, 1)``
    into a block of rows x lambda2: the last axis is lambda2's, and
    ``alpha``, ``beta`` and ``lam1`` have size 1 on it (``ValueError``
    otherwise).  So ``beta[:, None, None]``, ``lam1[:, :, None]`` and
    ``lam2[:, None, :]`` give every (beta, lambda1, lambda2) combination,
    and ``x[:, None]`` columns pair 1-D arrays up element by element.
    Terms that involve only lambda1 are computed once per row, and terms
    that involve only lambda2 once per column of (alpha, beta, lam2).  The
    pair part of the bounds (:func:`_pair_bounds`) is evaluated only on the
    rows that pass the row part's checks (lambda1 not divergent, ``i1``
    finite, ``u_at_y1 >= -FEAS_TOL``).  A row that fails them is infeasible
    whatever lambda2 is, so skipping its pairs changes no output.  The pair
    terms have one formula for every row: an absent stream (beta = 0 or 1,
    alpha = 0) is a variable of the model like any other.  Each tuple
    still goes through the same floating-point operations as when
    evaluated alone, so the result does not depend on how the tuples are
    batched.

    ``scratch`` is a :func:`_pair_scratch` for at least the pairs of this
    call (passing rows x lambda2 columns; the tuple count is enough), into
    which every pair-stage array is written; without it the call makes its
    own.  The returned arrays never share memory with it.

    The lambdas are on the unit-variance-W scale, which keeps the zero-power
    limits exact: at p1 == 0 they still bin against W.  Without a U stream,
    ``i1`` and ``i5`` are I(W; Y1) from var(Y1 | W) as written, which does
    not cancel eta1^2 as det(W, U, Y1) would.  Every point that the
    entropy-term route evaluates agrees with it to 1e-9 relative, or to the
    rounding error of the covariance determinants where a block is
    ill-conditioned.

    Returns ``(r1_max, r2_max, sum_max, feasible)``: ``feasible`` is the
    mask over the broadcast shape, which is at least 2-D, and the three
    bounds are 1-D, one entry per feasible tuple in C order.  Infeasible
    tuples are constraint violations, divergent bin coefficients or
    non-finite bounds.
    """
    alpha, beta, l1, l2 = (
        np.atleast_2d(np.asarray(x, dtype=float)) for x in (alpha, beta, lam1, lam2)
    )
    eta1, eta2, s_u, s_v, uu, uy1, y1y1, uy2, vv, vy2, y2y2 = _unit_w_model(ch, alpha, beta, l1, l2)
    if uu.shape[-1] != 1:
        raise ValueError("alpha, beta and lambda1 must have size 1 on the last axis")
    shape = np.broadcast_shapes(uu.shape, vv.shape)
    # A positive lambda on a zero-power stream diverges.
    active_u, active_v = s_u > 0.0, s_v > 0.0
    det_wy1 = ch.c21 * (s_u + s_v) + 1.0  # var(Y1 | W), without cancelling eta1^2

    with np.errstate(all="ignore"):
        # lambda1-only terms.  (W, U, Y1) with unit W in the first slot.
        det_uy1 = uu * y1y1 - uy1 * uy1
        det_wuy1 = (
            det_uy1 - l1 * (l1 * y1y1 - uy1 * eta1) + eta1 * (l1 * uy1 - uu * eta1)
        )
        i1_w = _gamma(y1y1 / det_wy1)  # no U stream: I(W; Y1)
        i1 = np.where(active_u, _gamma(det_uy1 / det_wuy1), i1_w)
        i5 = np.where(active_u, _gamma(s_u * y1y1 / det_wuy1), i1_w)
        i3 = np.where(active_u, _gamma(1.0 + l1 * l1 / s_u), 0.0)
        det_uy2 = uu * y2y2 - uy2 * uy2
        r1, u_at_y1 = _row_bounds(i1, i3, i5)
        row_ok = ~(~active_u & (l1 > 0.0)) & np.isfinite(i1) & (u_at_y1 >= -FEAS_TOL)
        r1 = np.minimum(r1, u_at_y1)  # R_U >= 0 caps r1; region_full has no cap yet

        # lambda2-only terms.
        i4 = np.where(active_v, _gamma(1.0 + l2 * l2 / s_v), 0.0)
        det_vy2 = vv * y2y2 - vy2 * vy2
        col_ok = ~(~active_v & (l2 > 0.0))

        # Pair terms, on the rows that passed, each written into ``scratch``.
        # A comment gives the expression that the ``out=`` calls under it
        # evaluate, operand for operand and in the same order.
        take = np.nonzero(np.broadcast_to(row_ok[..., 0], shape[:-1]))
        n_rows, width = take[0].size, shape[-1]
        if scratch is None:
            scratch = _pair_scratch(n_rows * width)
        (w0, w1, w2, w3, w4, w5, w6, w7), (ok, test) = (
            buf[:, : n_rows * width].reshape(len(buf), n_rows, width) for buf in scratch
        )
        at = {}

        def rows(x, out=None):
            # ``x`` at the passing rows, read from its own storage by
            # ``np.take``: a row term as one column, a lambda2 term as the
            # whole block, written into ``out`` when given.  ``mode="clip"``
            # keeps take from buffering ``out``; every index is in range.
            x = x.reshape((1,) * (len(shape) - x.ndim) + x.shape)
            lead = x.shape[:-1]
            if lead not in at:
                flat = 0  # the row's C-order index into x's leading axes
                for t, n in zip(take, lead):
                    flat = flat * n + (t if n > 1 else 0)
                at[lead] = np.broadcast_to(flat, (n_rows,))
            x = x.reshape(math.prod(lead), x.shape[-1])
            return np.take(x, at[lead], axis=0, out=out, mode="clip")

        uu_, uy2_, i3_, y2y2_ = map(rows, (uu, uy2, i3, y2y2))
        vv_, vy2_, det_vy2_, uv = map(rows, (vv, vy2, det_vy2, l2), (w0, w1, w2, w3))
        np.multiply(rows(l1), uv, out=uv)  # uv = l1 * l2
        # det_uv = uu_ * vv_ - uv * uv
        det_uv = np.subtract(np.multiply(uu_, vv_, out=w4), np.multiply(uv, uv, out=w5), out=w4)
        # det_uvy2 = (uu_ * det_vy2_ - uv * (uv * y2y2_ - vy2_ * uy2_)
        #             + uy2_ * (uv * vy2_ - vv_ * uy2_))
        det_uvy2 = np.multiply(uu_, det_vy2_, out=w5)
        part = np.subtract(np.multiply(uv, y2y2_, out=w6), np.multiply(vy2_, uy2_, out=w7), out=w6)
        det_uvy2 -= np.multiply(uv, part, out=w6)
        part = np.subtract(np.multiply(uv, vy2_, out=w6), np.multiply(vv_, uy2_, out=w7), out=w6)
        det_uvy2 += np.multiply(uy2_, part, out=w6)
        # i2 = _gamma(det_uv * y2y2_ / det_uvy2), i6 = _gamma(vv_ * det_uy2 / det_uvy2)
        # and i7 = _gamma(uu_ * det_vy2_ / det_uvy2).
        i2 = _gamma(np.divide(np.multiply(det_uv, y2y2_, out=w4), det_uvy2, out=w4), out=w4)
        i6 = np.multiply(vv_, rows(det_uy2), out=w6)
        i6 = _gamma(np.divide(i6, det_uvy2, out=w6), out=w6)
        i7 = _gamma(np.divide(np.multiply(uu_, det_vy2_, out=w7), det_uvy2, out=w7), out=w7)

        r2, r_sum, residuals = _pair_bounds(
            i2, i3_, rows(i4, out=w1), rows(i5), i6, i7, out=(w2, w3, w5, w0)
        )
        ok = rows(col_ok, out=ok)
        ok &= np.isfinite(r2, out=test)
        ok &= np.isfinite(r_sum, out=test)
        for residual in residuals:
            ok &= np.greater_equal(residual, -FEAS_TOL, out=test)

    feasible = np.zeros(shape, dtype=bool)
    feasible[take] = ok
    return (
        np.maximum(np.broadcast_to(rows(r1), ok.shape)[ok], 0.0),
        np.maximum(r2[ok], 0.0),
        np.maximum(r_sum[ok], 0.0),
        feasible,
    )


def region_g(ch: ChannelParams, cp: GaussianCoding) -> PentagonRegion:
    """Pentagon achieved by one coding choice of the binned-pair family.

    The bounds of :func:`_row_bounds` and :func:`_pair_bounds`, with
    ``r1_max`` capped at the ``u_at_y1`` residual (the sum bound at receiver
    1 with the U stream's rate at 0).  A tuple with a residual below
    ``-FEAS_TOL`` (or a divergent one, see :class:`DegenerateError`) comes
    back as ``feasible=False`` with zero bounds.  Zero-power limits are
    evaluated exactly; at p1 == 0 the lambdas still bin against W.
    """
    r1, r2, rsum, ok = _region_g_arrays(ch, cp.alpha, cp.beta, cp.lambda1, cp.lambda2)
    if not ok.item():
        return PentagonRegion(0.0, 0.0, 0.0, feasible=False)
    return PentagonRegion(float(r1[0]), float(r2[0]), float(rsum[0]), feasible=True)


def _region_g_suc_values(ch: ChannelParams, alpha, beta):
    """(r1_max, r2_max) of the successive-decoding region, vectorized."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    p2, c21 = ch.p2, ch.c21
    bbar = 1.0 - beta
    eta1, eta2 = _eta_arrays(ch, alpha)
    r1 = _gamma(1.0 + eta1 ** 2 / (c21 * alpha * bbar * p2 + 1.0))
    base = _gamma(1.0 + alpha * bbar * p2)
    term_y1 = _gamma(
        1.0 + c21 * alpha * beta * p2 / (eta1 ** 2 + c21 * alpha * bbar * p2 + 1.0)
    )
    term_y2 = _gamma(
        1.0 + alpha * beta * p2 / (alpha * bbar * p2 + eta2 ** 2 + 1.0)
    )
    r2 = base + np.minimum(term_y1, term_y2)
    return r1, r2


def region_g_suc(ch: ChannelParams, alpha: float, beta: float) -> PentagonRegion:
    """Successive-decoding region for one (alpha, beta) power split.

    Receiver 1 and receiver 2 both decode the ``U`` stream first, so its
    rate is capped by the weaker of the two links (the min term);
    the ``V`` stream is bin-coded at the dirty-paper optimum, which makes
    its rate interference-free.  There is no separate sum constraint:
    ``sum_max = r1_max + r2_max``.
    """
    _check_split("alpha and beta", alpha, beta)
    r1, r2 = _region_g_suc_values(ch, alpha, beta)
    r1 = float(r1)
    r2 = float(r2)
    return PentagonRegion(r1, r2, r1 + r2, feasible=True)


def region_g_sp1(ch: ChannelParams, alpha: float) -> PentagonRegion:
    """beta = 0 special case: all private power in the bin-coded stream."""
    return region_g_suc(ch, alpha, 0.0)


def region_g_sp2(ch: ChannelParams, alpha: float) -> PentagonRegion:
    """beta = 1 special case: all private power in the openly decoded stream."""
    return region_g_suc(ch, alpha, 1.0)


def dpc_lambda_star(
    ch: ChannelParams, alpha: float, beta: float
) -> tuple[float, float]:
    """Optimal bin coefficient for the V stream and its rate gain.

    With stream power ``s = alpha * (1-beta) * p2``, known interference
    amplitude ``eta2`` (unit-variance ``W``) and unit noise, the optimum is
    ``lambda* = s * eta2 / (s + 1)`` and the achieved rate is
    ``log2(1 + s) / 2``, as if the interference were absent.  Zero stream
    power gives ``(0, 0)``.  ``lambda*`` is a :class:`GaussianCoding`
    ``lambda2`` as it stands.
    """
    s, eta2 = _dpc_split(ch, alpha, beta)
    return _dpc_optimum(s, eta2), 0.5 * math.log2(1.0 + s)


def _dpc_split(ch: ChannelParams, alpha: float, beta: float) -> tuple[float, float]:
    """The V stream's power ``alpha * (1-beta) * p2`` and ``eta2``, for a
    split checked to lie in [0, 1]."""
    _check_split("alpha and beta", alpha, beta)
    return _stream_powers(ch.p2, alpha, beta)[1], eta_coefficients(ch, alpha)[1]


def _dpc_optimum(s, eta2):
    """Dirty-paper bin coefficient ``s * eta2 / (s + 1)`` of a stream of power ``s`` against interference amplitude
    ``eta2``; elementwise over arrays."""
    return s * eta2 / (s + 1.0)


def _lambda_rows(ch: ChannelParams, points: np.ndarray, s, eta2) -> np.ndarray:
    """Unit-W lambda rows, one per power in ``s``: ``points``, then its dirty-paper optimum."""
    rows = np.column_stack([np.broadcast_to(points, (s.size, points.size)), _dpc_optimum(s, eta2)])
    # The E{W^2} = p1 round trip only keeps figs. 6 and 7 at bench/refs' bytes; without it
    # 17 cells of fig6 and 46 of fig7 move, by <= 2.2e-15 (ROADMAP item 9 drops it).
    rp1 = math.sqrt(ch.p1) or 1.0
    return rows / rp1 * rp1


def dpc_gain_objective(ch: ChannelParams, alpha: float, beta: float):
    """The bin-coefficient objective I(V; Y2 | U) - I(V; W) as a callable.

    Written out as three entropies, h(Y2 | U) + h(V | W) - h(V, Y2 | U), each
    finite for every stream power s > 0, so that it provides an evaluation
    route independent of the closed-form optimum in :func:`dpc_lambda_star`.
    Accepts scalars or arrays of the coefficient ``lam`` (unit-W scale).
    """
    s, eta2 = _dpc_split(ch, alpha, beta)
    if s == 0.0:
        raise ValueError("zero stream power: the objective is identically 0")
    a = s + eta2 * eta2 + 1.0
    # A subnormal s keeps few bits in s * (lam - eta2)**2.  Exact scalings of s
    # by 4**k into the normal range and of lam by 2**k leave gamma(s) - gamma(det).
    k = max(0, (-1020 - math.frexp(s)[1]) // 2)
    s_k, scale = math.ldexp(s, 2 * k), math.ldexp(1.0, k)

    def objective(lam):
        lam = np.asarray(lam, dtype=float)
        # (s + eta2**2 + 1) * (s + lam**2) - (s + lam * eta2)**2, written
        # without the subtraction, which cancels at high power.
        det = s_k * (lam - eta2) ** 2 + s_k + (lam * scale) ** 2
        return _gamma(a) + _gamma(s_k) - _gamma(det)

    return objective
