"""Sine-basis spectral discretization of a rectangular box.

The computational domain is the box ``Omega = prod_i (0, L_i)`` in dimension
``d in {1, 2, 3}``.  Scalar fields with homogeneous Dirichlet data are
represented by truncated sine series

    u(x) = sum_{1 <= m_i <= N_i}  a_m  prod_i sin(m_i pi x_i / L_i),

so every represented field vanishes on the boundary by construction and the
Dirichlet Laplacian is diagonal with eigenvalues

    lambda_m = -sum_i (m_i pi / L_i)^2.

Evaluation
----------
A sine series is evaluated in physical space in one way only: per axis, the
dense ``(K+1) x N`` table ``E_jm = sin(pi j m / K)`` takes coefficients to
values at the uniform points ``y_j = j L_i / K``, ``j = 0..K``, and its
boundary rows are exact zeros.  Products use ``K_i = 2 N_i`` (below); the
sup norm in :mod:`blackstock.fields` takes the interior rows of a finer
table.

Products
--------
A pointwise product of two sine expansions is, axis by axis, an even
(cosine-type) trigonometric polynomial of degree at most ``2 N_i``.  It is
therefore captured exactly by sampling on the padded grid ``y_j = j L_i / K_i``
with ``K_i = 2 N_i`` (boundary points included) followed by a DCT-I, and its
exact L2 projection back onto the retained sine span is the closed-form
cosine-to-sine coupling

    (2/L) int_0^L cos(p pi x / L) sin(m pi x / L) dx
        = (2/pi) m (1 - (-1)^(m+p)) / (m^2 - p^2),

applied per axis.  This removes aliasing completely: the classical 2/3-rule
truncation leaves O(K^-2) contamination in sine bases because products of
odd extensions are even, and that residue is far above the accuracy this
package is verified at.

Both directions are dense per-axis operators cached on the grid: the
evaluation table ``E`` with ``K = 2 N`` and the projection ``M = S C`` of
shape ``N x (K+1)``, the coupling ``S`` composed with the DCT-I ``C``.
:func:`padded_field_values` and :func:`project_padded_to_sine` apply them
axis by axis as one matrix product per axis, to a whole stack of fields at
once, and write the passes into a caller's pair of work arrays by turns when
given one.  The cost is ``O(N^(d+1))`` per field against ``O(N^d log N)`` for
FFTs.  At the default sizes (64 modes per axis in 1D and 2D, 32 in 3D) one
matrix product per axis beats the FFT passes with their padding copies, but
a 1D grid of 1024 modes pays about four times the FFT cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Grid",
    "SpectralField",
    "padded_field_values",
    "project_padded_to_sine",
]

_MIN_MODES = 4


def _trig_table(fn, rows: np.ndarray, cols: np.ndarray, K: int) -> np.ndarray:
    # fn(pi r c / K) with the integer phase r c reduced mod 2K first, so that
    # large-index entries are as accurate as small ones.
    return fn(np.pi / K * (np.outer(rows, cols) % (2 * K)))


@lru_cache(maxsize=32)
def _sine_table(N: int, K: int) -> np.ndarray:
    # The read-only (K+1, N) evaluation table sin(pi j m / K), j = 0..K,
    # m = 1..N, shared by every grid.  The boundary rows are set to exact
    # zeros (sin(pi m) rounds to ~1e-16).
    E = _trig_table(np.sin, np.arange(K + 1), np.arange(1, N + 1), K)
    E[[0, K]] = 0.0
    E.flags.writeable = False
    return E


@dataclass(frozen=True)
class Grid:
    """Sine-basis discretization of the box ``prod_i (0, L_i)``.

    Attributes:
        extents: box side lengths ``L_i``, one per axis.
        modes: retained sine modes ``N_i`` per axis (at least 4 each).
    """

    extents: tuple[float, ...]
    modes: tuple[int, ...]

    def __init__(self, extents, modes):
        extents = tuple(float(L) for L in np.atleast_1d(extents))
        given = np.atleast_1d(modes).tolist()
        if not all(isinstance(N, int) or float(N).is_integer() for N in given):
            raise ValueError("modes must be whole numbers")
        modes = tuple(int(N) for N in given)
        if len(extents) != len(modes):
            raise ValueError("extents and modes must have the same length")
        if not 1 <= len(extents) <= 3:
            raise ValueError("dimension must be 1, 2 or 3")
        if not all(0 < L < np.inf for L in extents):
            raise ValueError("box extents must be positive and finite")
        if any(N < _MIN_MODES for N in modes):
            raise ValueError(f"minimum {_MIN_MODES} modes per axis")
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "modes", modes)

    @property
    def dim(self) -> int:
        return len(self.extents)

    @cached_property
    def coeff_weight(self) -> float:
        """L2 mass of one basis function, ``prod_i L_i / 2``."""
        w = 1.0
        for L in self.extents:
            w *= L / 2.0
        return w

    @cached_property
    def laplacian_eigenvalues(self) -> np.ndarray:
        """Tensor of Dirichlet Laplacian eigenvalues, shape ``modes``."""
        axes = [
            -((np.arange(1, N + 1) * np.pi / L) ** 2)
            for L, N in zip(self.extents, self.modes)
        ]
        lam = np.zeros(self.modes)
        for i, ax in enumerate(axes):
            shape = [1] * self.dim
            shape[i] = self.modes[i]
            lam = lam + ax.reshape(shape)
        return lam

    @cached_property
    def gram_weights(self) -> np.ndarray:
        """Contiguous ``(prod(modes), 3)`` matrix with columns ``1, -lambda, lambda^2``."""
        lam = self.laplacian_eigenvalues.reshape(-1)
        return np.ascontiguousarray(np.stack([np.ones_like(lam), -lam, lam * lam], axis=1))

    @cached_property
    def padded_sizes(self) -> tuple[int, ...]:
        """Per-axis padded grid parameter ``K_i = 2 N_i`` for exact products."""
        return tuple(2 * N for N in self.modes)

    @cached_property
    def padded_shape(self) -> tuple[int, ...]:
        """Shape ``(K_1 + 1, ..., K_d + 1)`` of the padded grid, boundaries included."""
        return tuple(K + 1 for K in self.padded_sizes)

    @cached_property
    def padded_quad_weight(self) -> float:
        """Trapezoid weight ``prod_i L_i / K_i`` on the padded grid."""
        w = 1.0
        for L, K in zip(self.extents, self.padded_sizes):
            w *= L / K
        return w

    @cached_property
    def _evaluation_matrices(self) -> tuple[np.ndarray, ...]:
        return tuple(_sine_table(N, K) for N, K in zip(self.modes, self.padded_sizes))

    @cached_property
    def _projection_matrices(self) -> tuple[np.ndarray, ...]:
        # Per-axis (N, K+1) matrices S C: C is the DCT-I taking padded values
        # to cosine coefficients (end modes halved), S the exact
        # cosine-to-sine coupling, which vanishes for even m + p.
        mats = []
        for N, K in zip(self.modes, self.padded_sizes):
            p = np.arange(K + 1)
            m = np.arange(1, N + 1)[:, None]
            odd = (m + p) % 2 == 1
            S = np.where(odd, (4.0 / np.pi) * m / np.where(odd, m**2 - p**2, 1), 0.0)
            C = _trig_table(np.cos, p, p, K) * (2.0 / K)
            C[:, [0, K]] /= 2.0
            C[[0, K]] /= 2.0
            mats.append(S @ C)
        return tuple(mats)


@dataclass(frozen=True)
class SpectralField:
    """A scalar field as sine coefficients ``a_m`` on a grid.

    Index ``[m_1 - 1, ..., m_d - 1]`` holds the coefficient of
    ``prod_i sin(m_i pi x_i / L_i)``.  Fields are immutable values.
    """

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != self.grid.modes:
            raise ValueError(
                f"coefficient shape {coeffs.shape} does not match grid modes {self.grid.modes}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__


def _pass_output(out, i: int, shape: tuple[int, int]) -> np.ndarray | None:
    # Where pass i writes: ``out[i % 2]`` when it has the product's shape,
    # else the leading part of it.
    if out is None:
        return None
    o = out[i % 2]
    return o if o.shape == shape else o.reshape(-1)[: shape[0] * shape[1]].reshape(shape)


def _apply_per_axis(mats: tuple[np.ndarray, ...], x: np.ndarray, out=None) -> np.ndarray:
    # Contract axis i of the trailing len(mats) axes with mats[i]; leading
    # stack axes pass through.  ``M @ X.T`` contracts the last axis and puts
    # the new one first, so after d passes the spatial axes are back in order
    # (stack axes last) and no pass needs a transposed copy.
    d = len(mats)
    if d == 1:
        # One product, which leaves the stack axes first and contiguous.
        (M,) = mats
        rows = x if x.ndim == 2 else x.reshape(-1, x.shape[-1])
        y = np.matmul(rows, M.T, out=_pass_output(out, 0, (len(rows), len(M))))
        return y if x.ndim == 2 else y.reshape(x.shape[:-1] + M.shape[:1])
    for i, M in enumerate(reversed(mats)):
        cols = x.reshape(-1, x.shape[-1]).T
        y = np.matmul(M, cols, out=_pass_output(out, i, (len(M), cols.shape[1])))
        x = y.reshape((len(M),) + x.shape[:-1])
    return x.transpose(tuple(range(d, x.ndim)) + tuple(range(d)))


def padded_field_values(grid: Grid, coeffs: np.ndarray, out=None) -> np.ndarray:
    """Values of sine series on the padded product grid (boundaries included).

    ``coeffs`` has shape ``(..., *grid.modes)``; leading axes are a stack of
    fields evaluated together.  Returns shape ``(..., K_1 + 1, ..., K_d + 1)``.
    ``out``, when given, is a pair of contiguous float arrays that the
    per-axis passes write by turns: pass ``i`` of ``d`` writes its matrix
    product into ``out[i % 2]`` when that has the product's shape, else into
    its leading part, which must hold it.  The values returned are then a
    view of ``out[(d - 1) % 2]`` whose place in it depends on the shapes
    alone: calls with the same shapes and the same pair return the same
    view.  On a 1D grid, 2-D ``coeffs`` and an ``out[0]`` of the result's
    shape return ``out[0]`` itself.  ``coeffs`` may sit in ``out[1]`` but
    not in ``out[0]``.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[coeffs.ndim - grid.dim:] != grid.modes:
        raise ValueError(
            f"coefficient shape {coeffs.shape} does not end in grid modes {grid.modes}"
        )
    return _apply_per_axis(grid._evaluation_matrices, coeffs, out)


def project_padded_to_sine(grid: Grid, values: np.ndarray, out=None) -> np.ndarray:
    """Exact L2 projection of padded-grid values onto the retained sine span.

    The values must be samples of a function that is, per axis, an even
    trigonometric polynomial of degree at most ``K_i`` (true for pointwise
    products of two retained sine expansions).  ``values`` has shape
    ``(..., K_1 + 1, ..., K_d + 1)``; the sine coefficients returned have
    shape ``(..., *grid.modes)``.  ``out`` is a pair of work arrays, as for
    :func:`padded_field_values`.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[values.ndim - grid.dim:] != grid.padded_shape:
        raise ValueError(f"padded value shape {values.shape} does not end in {grid.padded_shape}")
    return _apply_per_axis(grid._projection_matrices, values, out)
