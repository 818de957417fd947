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
    """The source operator: stacked states ``U[..., (psi, alpha), *modes]`` to ``f[..., *modes]``.

    It forms the coefficients of ``-2 k c^2 alpha Delta psi - 2 sigma grad
    psi . grad alpha``, projected exactly, in the gradient-free form of the
    module docstring; leading axes of ``U`` are members evaluated together.
    The Laplacian scalings are formed once, so a run that keeps the returned
    function forms them once.

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
    dim = grid.dim
    if p.k == 0.0 and p.sigma == 0.0:
        return lambda U: np.zeros(U.shape[: -dim - 1] + grid.modes)
    lam = grid.laplacian_eigenvalues
    # Scaling the Laplacian members before evaluation leaves the first
    # product as a sum of two pointwise products.
    scale = np.stack((-(2.0 * p.k * p.c**2 - p.sigma) * lam, p.sigma * lam))
    sigma_lam = scale[1]
    # The members psi, alpha, Delta psi, Delta alpha of the padded values.
    parts = [(Ellipsis, j) + (slice(None),) * dim for j in range(4)]

    def products(values: np.ndarray) -> np.ndarray:
        # The two pointwise products, stacked first; ``values`` is a fresh
        # array, so u lap_a is formed in place.
        u, a, lap_u, lap_a = [values[j] for j in parts]
        out = np.empty((2,) + u.shape)
        first, second = out[0], out[1]
        np.multiply(a, lap_u, out=first)
        first += np.multiply(u, lap_a, out=lap_a)
        np.multiply(u, a, out=second)
        return out

    def source(U: np.ndarray) -> np.ndarray:
        # Nested calls, so that each stage's input is freed as soon as the
        # next stage has used it (a batch's padded values are large).
        proj = project_padded_to_sine(
            grid,
            products(padded_field_values(grid, np.concatenate((U, scale * U), axis=-dim - 1))),
        )
        return proj[0] - sigma_lam * proj[1]

    return source


def assemble_f(state: SimState, p: MediumParams) -> SpectralField:
    """Quadratic source ``f = -2 k c^2 psi_t Delta psi - 2 sigma grad psi . grad psi_t``."""
    U = np.stack((state.psi.coeffs, state.v.coeffs))
    return SpectralField(state.grid, _source_operator(state.grid, p)(U))
