"""Right-hand sides of the Blackstock equation and its linearization.

The equation for the acoustic velocity potential is

    psi_tt - c^2 (1 - 2 k psi_t) Delta psi - b Delta psi_t
        + 2 sigma grad psi . grad psi_t = 0,

which this module rearranges as ``psi_tt = c^2 Delta psi + b Delta v + f``
with ``v = psi_t`` and the quadratic source

    f = -2 k c^2 v Delta psi - 2 sigma grad psi . grad v.

:func:`assemble_f` forms ``f`` of one state; the run loop keeps the operator
behind it, which maps a batch's states ``U[(psi, alpha), member, *modes]``,
with a coefficient field ``alpha`` in place of ``v`` (``alpha = v`` gives
``f``), to their sources.  It has one member axis, and finds where the
grid's passes leave its padded values once per member count.
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
    """The source operator: states ``U[(psi, alpha), member, *modes]`` to ``f[member, *modes]``.

    It forms the coefficients of ``-2 k c^2 alpha Delta psi - 2 sigma grad
    psi . grad alpha``, projected exactly, in the gradient-free form of the
    module docstring, for every member at once.  The returned function
    ``source(U, out=None)`` writes ``f`` into ``out`` (a new array when it is
    None) and returns it.  The Laplacian scalings are formed once, so a run
    that keeps the function forms them once.

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

    Per member count it forms once the views of them that a call uses, and
    finds by one evaluation and one projection on them where the grid's
    passes leave their results, which depends on the shapes alone (see
    :func:`blackstock.grid.padded_field_values`).  A call is then the same
    eight array operations in every dimension.

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
    if p.k == 0.0 and p.sigma == 0.0:

        def zero(U: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            out = np.empty(U.shape[1:]) if out is None else out
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
    factor = np.stack((np.stack((one, s0 * lam)), np.stack((s1 * lam, one))))[:, :, None]
    sigma_lam = s1 * lam
    padded_size = math.prod(grid.padded_shape)
    work = [np.empty(0), np.empty(0)]
    # Per member count, the views of the work arrays a call uses.
    layouts: dict[int, tuple] = {}

    def layout(m: int) -> tuple:
        if 2 * m * padded_size > work[1].size:
            work[:] = np.zeros(4 * m * padded_size), np.zeros(2 * m * padded_size)
            layouts.clear()
        # As rows of padded fields, the shape of a 1D evaluation's product,
        # which it then writes as it is.
        values = work[0].reshape(-1, padded_size)[: 4 * m]
        products = work[1].reshape(-1, padded_size)[: 2 * m]
        # The evaluation's passes write the two by turns and end in
        # ``values``; the fields sit in the one its first pass leaves alone.
        passes = (values, products) if grid.dim % 2 else (products, values)
        stacked = passes[1].reshape(-1)[: 4 * m * math.prod(grid.modes)]
        evaluation = (stacked.reshape((4 * m,) + grid.modes), passes)
        pair = products.reshape((2, m) + grid.padded_shape)
        projection = (pair.reshape((2 * m,) + grid.padded_shape), (values, products))
        # The work arrays hold what the last call left: after a diverged
        # batch, inf, which the passes multiply by zeros.
        with np.errstate(all="ignore"):
            padded = padded_field_values(grid, *evaluation)
            projected = project_padded_to_sine(grid, *projection)
        psi = padded[:m]
        layouts[m] = (
            stacked.reshape((2, 2, m) + grid.modes),
            evaluation,
            (psi, padded[m : 2 * m], padded[2 * m :].reshape((2,) + psi.shape), padded[3 * m :]),
            (pair, pair[0]),
            projection,
            (projected[:m], projected[m:]),
        )
        return layouts[m]

    def source(U: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        fields, evaluation, (psi, lap_psi, lap_alpha_alpha, alpha), (pair, mixed), projection, (
            first, second
        ) = layouts.get(U.shape[1]) or layout(U.shape[1])
        np.multiply(factor, U[:, None], out=fields)
        padded_field_values(grid, *evaluation)
        # The two products (psi Delta alpha + alpha Delta psi, psi alpha) in
        # three calls: psi times (Delta alpha, alpha), then alpha Delta psi
        # formed in place and added.
        np.multiply(psi, lap_alpha_alpha, out=pair)
        mixed += np.multiply(alpha, lap_psi, out=lap_psi)
        project_padded_to_sine(grid, *projection)
        out = np.empty(U.shape[1:]) if out is None else out
        np.multiply(sigma_lam, second, out=out)
        np.subtract(first, out, out=out)
        return out

    return source


def assemble_f(state: SimState, p: MediumParams) -> SpectralField:
    """Quadratic source ``f = -2 k c^2 psi_t Delta psi - 2 sigma grad psi . grad psi_t``."""
    U = np.stack((state.psi.coeffs, state.v.coeffs))[:, None]
    return SpectralField(state.grid, _source_operator(state.grid, p)(U)[0])
