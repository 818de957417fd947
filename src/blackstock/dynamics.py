"""Right-hand sides of the Blackstock equation and its linearization.

The equation for the acoustic velocity potential is

    psi_tt - c^2 (1 - 2 k psi_t) Delta psi - b Delta psi_t
        + 2 sigma grad psi . grad psi_t = 0,

which this module rearranges as ``psi_tt = c^2 Delta psi + b Delta v + f``
with ``v = psi_t`` and the quadratic source

    f = -2 k c^2 v Delta psi - 2 sigma grad psi . grad v.

:func:`quadratic_source` forms the products with a coefficient field
``alpha`` in place of ``v`` (``alpha = v`` gives ``f``).  The linear part
``c^2 Delta psi + b Delta v`` is diagonal in the sine basis, and
:mod:`blackstock.integrate` solves it mode by mode.

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

__all__ = ["MediumParams", "quadratic_source", "assemble_f"]


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


def quadratic_source(
    grid: Grid, psi: np.ndarray, alpha: np.ndarray, p: MediumParams
) -> np.ndarray:
    """Coefficients of ``-2 k c^2 alpha Delta psi - 2 sigma grad psi . grad alpha``.

    Projected exactly, in the gradient-free form of the module docstring;
    ``alpha = v`` gives the source ``f`` of the nonlinear equation.  Leading
    axes of ``psi`` and ``alpha`` are members evaluated together.
    """
    return _source_operator(grid, p)(np.stack((psi, alpha), axis=-grid.dim - 1))


def _source_operator(grid: Grid, p: MediumParams):
    """:func:`quadratic_source` of stacked states ``U[..., (psi, alpha), *modes]``.

    The Laplacian scalings are formed once, so a run that keeps the returned
    function forms them once; it maps ``U`` to ``f[..., *modes]``.

    A member's numbers must not depend on the batch size: a batched run
    matches each member's solo run.  numpy sends a one-row matrix product to
    gemv, and OpenBLAS rounds the entries of small row counts differently
    from the same row in a larger product, so no dense product here may drop
    to one row per call (the four fields of all members go through each
    per-axis product together).
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
    return SpectralField(
        state.grid, quadratic_source(state.grid, state.psi.coeffs, state.v.coeffs, p)
    )
