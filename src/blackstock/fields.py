"""Simulation unknowns, Sobolev norms and initial-data construction.

The simulator evolves the pair ``(psi, v)`` with ``v = psi_t``; both live on
one grid.  Norms are computed from coefficients where that is exact (L2, the
H1 seminorm ``||grad u||``, the H2 seminorm ``||Delta u||``) and from values
otherwise, through the grid's per-axis sine tables: L3 and L4 by quadrature
on the padded grid, Linf as the largest absolute value at the
``LINF_REFINEMENT (N_i + 1) - 1`` interior points per axis of a finer
uniform grid.  ``||Delta u||`` serves as the H2 seminorm: on a box with the
sine basis this matches the elliptic-regularity equivalence of the full H2
norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, SpectralField, _apply_per_axis, _sine_table, padded_field_values

__all__ = [
    "SimState",
    "InitialDataSpec",
    "norm",
    "full_h_norm",
    "build_initial",
]

#: Refinement factor for the Linf evaluation grid; fixed for reproducibility.
LINF_REFINEMENT = 4

#: Minimal power-law exponent accepted for H1-class initial velocity (d=1).
MIN_POWER_LAW_EXPONENT = 1.5


@dataclass(frozen=True)
class SimState:
    """State ``(psi, psi_t)`` at one instant.

    Attributes:
        psi: velocity potential.
        v: time derivative ``psi_t``.
        time: nonnegative finite simulation time.
    """

    psi: SpectralField
    v: SpectralField
    time: float = 0.0

    def __post_init__(self):
        if self.psi.grid is not self.v.grid and (
            self.psi.grid.extents != self.v.grid.extents
            or self.psi.grid.modes != self.v.grid.modes
        ):
            raise ValueError("psi and v must share one grid")
        if not 0 <= self.time < np.inf:
            raise ValueError("time must be nonnegative and finite")

    @property
    def grid(self) -> Grid:
        return self.psi.grid


@dataclass(frozen=True)
class InitialDataSpec:
    """Recipe for one initial field.

    ``kind`` is one of ``single_mode``, ``multi_mode`` or ``power_law``.
    For ``power_law`` the coefficients are ``a_m = A (prod_i m_i)^(-s)`` over
    every retained mode; ``s = 2`` in 1D is the canonical field that lies in
    H1 but not H2 (``sum m^2 a_m^2`` converges, ``sum m^4 a_m^2`` does not).
    """

    kind: str
    modes: tuple[tuple[int, ...], ...] = ()
    amplitudes: tuple[float, ...] = ()
    exponent: float = 0.0

    @classmethod
    def single_mode(cls, mode, amplitude: float) -> "InitialDataSpec":
        mode = tuple(np.atleast_1d(mode).astype(int))
        return cls(kind="single_mode", modes=(mode,), amplitudes=(float(amplitude),))

    @classmethod
    def multi_mode(cls, terms) -> "InitialDataSpec":
        modes = tuple(tuple(np.atleast_1d(m).astype(int)) for m, _ in terms)
        amps = tuple(float(a) for _, a in terms)
        return cls(kind="multi_mode", modes=modes, amplitudes=amps)

    @classmethod
    def power_law(cls, exponent: float, amplitude: float) -> "InitialDataSpec":
        return cls(
            kind="power_law",
            amplitudes=(float(amplitude),),
            exponent=float(exponent),
        )

    @classmethod
    def zero(cls) -> "InitialDataSpec":
        return cls(kind="multi_mode")

    def __post_init__(self):
        if self.kind not in ("single_mode", "multi_mode", "power_law"):
            raise ValueError(f"unknown initial-data kind {self.kind!r}")
        if any(not np.isfinite(a) for a in self.amplitudes):
            raise ValueError("amplitudes must be finite")
        if self.kind == "power_law" and not MIN_POWER_LAW_EXPONENT < self.exponent < np.inf:
            raise ValueError(
                f"power_law exponent must be finite and exceed {MIN_POWER_LAW_EXPONENT} "
                "for an H1-class field"
            )

    def realize(self, grid: Grid) -> SpectralField:
        """Build the coefficients on a grid."""
        coeffs = np.zeros(grid.modes)
        if self.kind in ("single_mode", "multi_mode"):
            for mode, amp in zip(self.modes, self.amplitudes):
                if len(mode) != grid.dim:
                    raise IndexError("mode multi-index has the wrong dimension")
                if any(not 1 <= mi <= Ni for mi, Ni in zip(mode, grid.modes)):
                    raise IndexError(
                        f"mode {mode} exceeds grid modes {grid.modes}"
                    )
                coeffs[tuple(mi - 1 for mi in mode)] += amp
        else:
            prod = np.ones(grid.modes)
            for i, N in enumerate(grid.modes):
                shape = [1] * grid.dim
                shape[i] = N
                prod = prod * np.arange(1, N + 1, dtype=float).reshape(shape)
            coeffs = self.amplitudes[0] * prod ** (-self.exponent)
        return SpectralField(grid, coeffs)


def build_initial(spec0: InitialDataSpec, spec1: InitialDataSpec, grid: Grid) -> SimState:
    """Assemble the state at ``t = 0`` from specs for ``psi_0`` and ``psi_1``."""
    return SimState(psi=spec0.realize(grid), v=spec1.realize(grid), time=0.0)


def _linf(field: SpectralField) -> float:
    mats = tuple(_sine_table(N, LINF_REFINEMENT * (N + 1))[1:-1] for N in field.grid.modes)
    return float(np.max(np.abs(_apply_per_axis(mats, field.coeffs))))


def _lq(field: SpectralField, q: int) -> float:
    values = padded_field_values(field.grid, field.coeffs)
    w = field.grid.padded_quad_weight
    return float((np.sum(np.abs(values) ** q) * w) ** (1.0 / q))


def norm(field: SpectralField, kind: str) -> float:
    """One of the norms used by the energy framework.

    Kinds: ``L2``, ``H1semi`` (``||grad u||_L2``), ``H2lap`` (``||Delta u||_L2``),
    ``Linf`` (max over a 4x-refined evaluation), ``L3``/``L4`` (padded-grid
    quadrature).
    """
    grid = field.grid
    a = field.coeffs
    nu = grid.coeff_weight
    lam = grid.laplacian_eigenvalues
    if kind == "L2":
        return float(np.sqrt(np.sum(a * a) * nu))
    if kind == "H1semi":
        return float(np.sqrt(np.sum(-lam * a * a) * nu))
    if kind == "H2lap":
        return float(np.sqrt(np.sum(lam * lam * a * a) * nu))
    if kind == "Linf":
        return _linf(field)
    if kind == "L3":
        return _lq(field, 3)
    if kind == "L4":
        return _lq(field, 4)
    raise ValueError(f"unknown norm kind {kind!r}")


def full_h_norm(field: SpectralField, order: int) -> float:
    """Full Sobolev norm ``(L2^2 + H1semi^2 [+ H2lap^2])^(1/2)``."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    total = norm(field, "L2") ** 2 + norm(field, "H1semi") ** 2
    if order == 2:
        total += norm(field, "H2lap") ** 2
    return float(np.sqrt(total))
