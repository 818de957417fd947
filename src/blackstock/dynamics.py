"""Right-hand sides of the Blackstock equation and its linearization.

The equation for the acoustic velocity potential is

    psi_tt - c^2 (1 - 2 k psi_t) Delta psi - b Delta psi_t
        + 2 sigma grad psi . grad psi_t = 0,

which this module rearranges as ``psi_tt = c^2 Delta psi + b Delta v + f``
with ``v = psi_t`` and the quadratic source

    f = -2 k c^2 v Delta psi - 2 sigma grad psi . grad v.

:func:`assemble_f` forms ``f`` of one state; the run loop keeps the operator
behind it, which maps stacked states ``(psi, alpha)`` to the source with a
coefficient field ``alpha`` in place of ``v`` (``alpha = v`` gives ``f``).
The linear part ``c^2 Delta psi + b Delta v`` is diagonal in the sine basis,
and :mod:`blackstock.integrate` solves it mode by mode.

The quadratic terms are computed in gradient-free form.  Pointwise,

    grad psi . grad alpha = (Delta(psi alpha) - psi Delta alpha - alpha Delta psi) / 2,

and ``psi alpha`` vanishes on the boundary, so Green's formula gives
``P[Delta(psi alpha)] = lambda P[psi alpha]`` exactly for the sine
projection ``P``.  Hence

    f = P[-(2 k c^2 - sigma) alpha Delta psi + sigma psi Delta alpha]
        - sigma lambda P[psi alpha],

which needs one stacked evaluation of ``(psi, alpha, Delta psi, Delta alpha)``
on the padded grid and one stacked exact projection of two products, with no
gradient evaluations (see :mod:`blackstock.grid` for the dense per-axis
operators and their ``O(N^(d+1))`` cost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import SimState
from .grid import Grid, SpectralField, padded_field_values, project_padded_to_sine

__all__ = ["MediumParams", "assemble_f"]


@dataclass(frozen=True)
class MediumParams:
    """Medium coefficients: sound speed ``c``, diffusivity ``b``, nonlinearity ``k``, ``sigma``."""

    c: float = 1.0
    b: float = 1.0
    k: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        for name in ("c", "b", "k", "sigma"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"medium coefficient {name} must be finite")
        if self.c <= 0:
            raise ValueError("sound speed must be positive")
        if self.b <= 0:
            raise ValueError("sound diffusivity must be positive")


def _source_operator(grid: Grid, p: MediumParams):
    """The source operator: states ``U[(psi, alpha), ..., *modes]`` to ``f[..., *modes]``.

    It forms the coefficients of ``-2 k c^2 alpha Delta psi - 2 sigma grad
    psi . grad alpha``, projected exactly, in the gradient-free form of the
    module docstring; the axes between the first and the modes are members
    evaluated together.  The returned function ``source(U, out=None)``
    writes ``f`` into ``out`` (a new array when it is None) and returns it.
    The Laplacian scalings are formed once, so a run that keeps the function
    forms them once.

    Its work arrays belong to the function and are sized for the largest
    batch it has been called on: one for the padded values of the four
    fields ``(psi, Delta psi, Delta alpha, alpha)`` of every member (the
    Laplacians scaled by their coefficients), stacked field by field, and
    one, half its size, for the two products.  Every stage of a call reads
    one of them and writes the other, including each per-axis pass of the
    grid's evaluation and projection, so a call allocates nothing but ``f``
    when ``out`` is None, and a large state's peak memory is that of its two
    largest stages.  A run calls it first on its whole batch and then on
    fewer members, so it allocates them once per run.  The returned ``f`` is
    never a view of them.  The order of the rows of a dense product, of the
    factors of a pointwise product and of the terms of a two-term sum leaves
    every entry's bits as they are, so ``f`` does not depend on the order in
    which the fields are stacked.

    A batched run matches each member's solo run to rounding.  numpy sends a
    one-row matrix product to gemv, and OpenBLAS rounds the entries of small
    row counts differently from the same row in a larger product, so no dense
    product here may drop to one row per call (the four fields of all members
    go through each per-axis product together).  A wide batch may still round
    differently from a solo run, at the level of an ulp: an AVX-512 OpenBLAS
    takes a product to its small-matrix kernel only up to a size (rows times
    columns at most 1200 when the inner size is at least 32), which a solo
    run's products stay under and a batch of 3 members at N=64 exceeds.
    """
    dim, modes = grid.dim, grid.modes

    def new_out(U: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        return np.empty(U.shape[1:]) if out is None else out

    if p.k == 0.0 and p.sigma == 0.0:

        def zero(U: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            out = new_out(U, out)
            out.fill(0.0)
            return out

        return zero
    lam = grid.laplacian_eigenvalues
    # Scaling the Laplacian members before evaluation leaves the first
    # product as a sum of two pointwise products.  The fields are stacked as
    # (psi, alpha) times [[1, s0 lam], [s1 lam, 1]]: psi, Delta psi, Delta
    # alpha and alpha, each Laplacian with its coefficient.
    s0, s1 = -(2.0 * p.k * p.c**2 - p.sigma), p.sigma
    one = np.ones_like(lam)
    factor = np.stack((np.stack((one, s0 * lam)), np.stack((s1 * lam, one))))
    sigma_lam = s1 * lam
    padded_size = math.prod(grid.padded_shape)
    work = [np.empty(0), np.empty(0)]
    # Per shape of U's member axes, the views of the work arrays a call uses.
    layouts: dict[tuple[int, ...], tuple] = {}

    def fields_of(values: np.ndarray, m: int) -> tuple[np.ndarray, ...]:
        # psi, Delta psi, (Delta alpha, alpha) and alpha of stacked padded values.
        psi = values[:m]
        return psi, values[m : 2 * m], values[2 * m :].reshape((2,) + psi.shape), values[3 * m :]

    def layout(lead: tuple[int, ...]) -> tuple:
        m = math.prod(lead)
        if 2 * m * padded_size > work[1].size:
            work[:] = np.empty(4 * m * padded_size), np.empty(2 * m * padded_size)
            layouts.clear()
        # The arrays as rows of padded fields, so that the product of a 1D
        # evaluation has their shape and is written as it is (a pass writes
        # the leading part of an array of another shape).
        values = work[0].reshape(-1, padded_size)[: 4 * m]
        products = work[1].reshape(-1, padded_size)[: 2 * m]
        # The evaluation's passes write the two by turns and end in
        # ``values``; the stacked fields sit in the one its first pass does
        # not write.
        evaluation = (values, products) if dim % 2 else (products, values)
        stacked = evaluation[1].reshape(-1)[: 4 * m * math.prod(modes)].reshape((4 * m,) + modes)
        pair = products.reshape((2, m) + grid.padded_shape)
        # The projection's first pass writes ``values``, shaped as its
        # product on a 1D grid.
        projected = values.reshape(-1)
        if dim == 1:
            projected = projected[: 2 * m * modes[0]].reshape(2 * m, modes[0])
        layouts[lead] = (
            (m,) + modes,
            (factor.reshape((2, 2) + (1,) * len(lead) + modes),
             stacked.reshape((2, 2) + lead + modes)),
            (stacked, evaluation),
            (pair, pair[0], pair.reshape((2 * m,) + grid.padded_shape), (projected, products)),
            # A 1D evaluation returns ``values`` and a 1D projection returns
            # ``projected`` (see padded_field_values): their parts, formed once.
            (values, fields_of(values, m), projected, (projected[:m], projected[m:])),
        )
        return layouts[lead]

    def source(U: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        lead = U.shape[1 : U.ndim - dim]
        rows, (scale, fields), evaluation, projection, (values_1d, parts, projected_1d, halves) = (
            layouts.get(lead) or layout(lead)
        )
        np.multiply(scale, U[:, None], out=fields)
        values = padded_field_values(grid, *evaluation)
        psi, lap_psi, lap_alpha_alpha, alpha = (
            parts if values is values_1d else fields_of(values, rows[0])
        )
        # The two products (psi Delta alpha + alpha Delta psi, psi alpha) in
        # three calls: psi times (Delta alpha, alpha), then alpha Delta psi
        # formed in place and added.
        pair, first, pair_rows, work_pair = projection
        np.multiply(psi, lap_alpha_alpha, out=pair)
        first += np.multiply(alpha, lap_psi, out=lap_psi)
        proj = project_padded_to_sine(grid, pair_rows, work_pair)
        first, second = halves if proj is projected_1d else (proj[: rows[0]], proj[rows[0] :])
        out = new_out(U, out)
        f = out if out.shape == rows else out.reshape(rows)
        np.multiply(sigma_lam, second, out=f)
        np.subtract(first, f, out=f)
        return out

    return source


def assemble_f(state: SimState, p: MediumParams) -> SpectralField:
    """Quadratic source ``f = -2 k c^2 psi_t Delta psi - 2 sigma grad psi . grad psi_t``."""
    U = np.stack((state.psi.coeffs, state.v.coeffs))
    return SpectralField(state.grid, _source_operator(state.grid, p)(U))
