"""Energy, dissipation and Lyapunov diagnostics.

Quadratic functionals of the state ``(psi, v)``, writing ``||.||`` for the
L2 norm:

    E   = 1/2 ||v||^2 + (c^2/2) ||grad psi||^2 + (c^2/(2b)) ||Delta psi||^2
          + ||grad v||^2
    E1  = 1/2 ||v||^2 + (c^2/2) ||grad psi||^2
    E2  = (c^2/(2b)) ||Delta psi||^2
    F1  = int psi v + (b/2) ||grad psi||^2
    F2  = -int Delta psi v + (b/2) ||Delta psi||^2
    F3  = c^2 int grad psi . grad v + (b/2) ||grad v||^2
    L   = E1 + gamma1 E2 + gamma2 (F1 + F2) + gamma3 F3

The gradient terms enter squared throughout (the first derivative of
``||grad psi||^2`` is what the testing computation produces), and
``E = E1 + E2 + ||grad v||^2`` holds identically.  The cumulative dissipation

    D(t) = int_0^t ( ||grad v||^2 + ||Delta v||^2 + ||grad psi||^2
                     + ||Delta psi||^2 + ||psi_tt||^2 ) ds

and the time-weighted quantities ``sqrt(t) ||psi_tt||``, ``sqrt(t) ||Delta v||``
and the accumulated ``int_0^t s ||grad psi_tt||^2 ds`` are tracked along each
run; ``psi_tt`` is always the evaluated acceleration operator, never a finite
difference of the series.

Every quantity above is diagonal in the sine basis, so it is a fixed linear
combination of a few entries of one Gram table: the coefficient products
``psi psi``, ``psi v``, ``v v``, ``psi_tt psi_tt`` and ``f v``, each summed
against the weights ``1``, ``-lambda`` and ``lambda^2`` (``Grid.gram_weights``)
and scaled by the basis mass.  ``instantaneous_diagnostics`` forms the table
in one matrix product and maps it in a second one, by a coefficient matrix
built once per medium and Lyapunov weights, to every value of
``DIAGNOSTIC_COLUMNS`` except ``t`` and the three time-weighted ones, which
are formed from single table entries.  A row of the table with an overflowed
entry is mapped column by column instead, so that only the values that read
the entry become infinite (a product would turn ``0 * inf`` into NaN in every
value).  Leading axes of the state carry through: members of a batch, and
samples at several times, with ``t`` a column of times that broadcasts over
them.  The rows of each time are those of a call for that time alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import MediumParams
from .grid import Grid

__all__ = [
    "DIAGNOSTIC_COLUMNS",
    "SERIES_COLUMNS",
    "GammaWeights",
    "identity_residual",
    "instantaneous_diagnostics",
]

#: The values ``instantaneous_diagnostics`` returns, in order.
#: ``grad_v_sq`` (= ``||grad v||^2``) and ``f_dot_v`` (= ``int f v``) are the
#: instantaneous ingredients of the first energy identity, kept so residuals
#: can be formed from a series; ``d_integrand`` and ``wgp_integrand`` are the
#: integrands of ``D`` and of ``int s ||grad psi_tt||^2 ds``.
DIAGNOSTIC_COLUMNS = (
    "t", "E", "E1", "E2", "F1", "F2", "F3", "L", "grad_v_sq", "f_dot_v",
    "w_ptt", "w_lap_vt", "d_integrand", "wgp_integrand",
)

#: Columns of a run's series: the diagnostics, then the running trapezoid
#: integrals of ``d_integrand`` (``D_cum``) and of ``wgp_integrand``
#: (``w_grad_ptt``) over the sample times.
SERIES_COLUMNS = DIAGNOSTIC_COLUMNS + ("D_cum", "w_grad_ptt")

# Diagnostics that are not linear in the Gram table, and the flattened table
# entries they read (row pair psi psi, psi v, v v, accel accel, f v; column
# weight 1, -lambda, lambda^2).  ``w_ptt`` and ``w_lap_vt`` are adjacent and
# read the adjacent entries ``aa0``, ``vv2`` in reverse order.
_T, _W_PTT, _W_LAP_VT, _WGP_INTEGRAND = (
    DIAGNOSTIC_COLUMNS.index(name) for name in ("t", "w_ptt", "w_lap_vt", "wgp_integrand")
)
_VV2, _AA0 = 8, 9


@dataclass(frozen=True)
class GammaWeights:
    """Lyapunov combination weights: small nonnegative constants.

    The decay machinery needs all three strictly positive (zero weights
    degenerate ``L`` to ``E1``) and small enough, for the medium at hand,
    that ``L`` stays equivalent to ``E``: ``min L/E > 0`` over nonzero states.
    """

    gamma1: float = 0.1
    gamma2: float = 0.01
    gamma3: float = 0.05

    def __post_init__(self):
        if min(self.gamma1, self.gamma2, self.gamma3) < 0:
            raise ValueError("gamma weights must be nonnegative")


@functools.lru_cache(maxsize=16)
def _combination(p: MediumParams, g: GammaWeights) -> np.ndarray:
    # (15, len(DIAGNOSTIC_COLUMNS)) matrix taking a flattened Gram table to
    # the diagnostics in column order.  The wgp_integrand column holds aa1,
    # which the caller scales by t; the columns t, w_ptt and w_lap_vt are
    # zero here and formed separately.  Built once per (p, g).
    (
        pp0, pp1, pp2, pv0, pv1, pv2, vv0, vv1, vv2, aa0, aa1, aa2, fv0, fv1, fv2
    ) = np.eye(15)
    zero = np.zeros(15)
    cc = p.c**2
    E1 = 0.5 * vv0 + 0.5 * cc * pp1
    E2 = cc / (2.0 * p.b) * pp2
    F1 = pv0 + 0.5 * p.b * pp1
    F2 = pv1 + 0.5 * p.b * pp2
    F3 = cc * pv1 + 0.5 * p.b * vv1
    L = E1 + g.gamma1 * E2 + g.gamma2 * (F1 + F2) + g.gamma3 * F3
    d_integrand = vv1 + vv2 + pp1 + pp2 + aa0
    combination = np.stack(
        (zero, E1 + E2 + vv1, E1, E2, F1, F2, F3, L, vv1, fv0, zero, zero, d_integrand, aa1),
        axis=1,
    )
    combination.flags.writeable = False  # shared by every caller of the cache
    return combination


def instantaneous_diagnostics(
    grid: Grid,
    t: float | np.ndarray,
    psi: np.ndarray,
    v: np.ndarray,
    f: np.ndarray | None,
    accel: np.ndarray | None,
    p: MediumParams,
    g: GammaWeights,
) -> np.ndarray:
    """The diagnostics at time ``t``, in the order of ``DIAGNOSTIC_COLUMNS``.

    ``psi``, ``v``, the source ``f`` and the evaluated acceleration ``accel``
    are coefficient arrays of shape ``(..., *grid.modes)``; ``None`` for ``f``
    or ``accel`` reads as zero.  Leading axes are evaluated together: the
    result has shape ``(..., len(DIAGNOSTIC_COLUMNS))``.  ``t`` is one time or
    an array of times that broadcasts over the leading axes, such as a column
    ``(samples, 1)`` for states ``(samples, members, *grid.modes)``.  The
    rows of each time equal those of a call for that time alone, bit for bit.
    """
    lead = psi.shape[: psi.ndim - grid.dim]
    size = lead + (math.prod(grid.modes),)
    pairs = ((psi, psi), (psi, v), (v, v), (accel, accel), (f, v))
    products = np.zeros(lead + (len(pairs), size[-1]))
    for k, (x, y) in enumerate(pairs):
        if x is not None:
            np.multiply(x.reshape(size), y.reshape(size), out=products[..., k, :])
    combination = _combination(p, g)
    # An overflowed entry can raise the invalid flag in the matrix products;
    # the rows that have one are redone below.
    with np.errstate(invalid="ignore"):
        gram = (products @ grid.gram_weights).reshape(lead + (15,)) * grid.coeff_weight
        out = gram @ combination
    overflowed = ~np.isfinite(gram).all(axis=-1)
    if overflowed.any():
        # An overflowed entry times a zero coefficient would be NaN: each
        # value sums only the entries it reads, so it stays finite or inf.
        with np.errstate(over="ignore", invalid="ignore"):
            terms = gram[overflowed][:, :, None] * combination
        out[overflowed] = np.where(combination != 0.0, terms, 0.0).sum(axis=-2)
    t = np.asarray(t, dtype=float)
    out[..., _T] = t
    out[..., _WGP_INTEGRAND] *= t
    out[..., _W_PTT : _W_LAP_VT + 1] = np.sqrt(t)[..., None] * np.sqrt(
        gram[..., _AA0 : _VV2 - 1 : -1]
    )
    return out


def identity_residual(series, p: MediumParams) -> np.ndarray:
    """Per-interval residuals of ``d/dt E1 + b ||grad v||^2 = int f v``.

    The derivative is a forward difference of sampled ``E1`` and the
    right-hand terms are trapezoid averages of the sampled integrands, so the
    residual of an exact solution vanishes at second order in the sample
    spacing.  Requires at least 3 samples at uniform spacing.
    """
    t = series.column("t")
    if len(t) < 3:
        raise ValueError("need at least 3 samples to form identity residuals")
    dt = np.diff(t)
    if np.max(np.abs(dt - dt[0])) > 1e-9 * dt[0]:
        raise ValueError("identity residual requires uniform sample spacing")
    E1 = series.column("E1")
    G = series.column("grad_v_sq")
    S = series.column("f_dot_v")
    return np.diff(E1) / dt + p.b * 0.5 * (G[1:] + G[:-1]) - 0.5 * (S[1:] + S[:-1])
