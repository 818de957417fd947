"""Time integration of the first-order system ``psi_t = v``, ``v_t = c^2 Delta psi + b Delta v + f``.

Because ``b > 0`` the linear part behaves like a (nonlocal) heat operator and
is stiff: explicit schemes would be limited to steps of order
``1/(b |lambda_max|)``.  All schemes here treat the linear part implicitly;
it is diagonal in the sine basis, so each step is a closed-form 2x2 solve per
mode.

Schemes
-------
``imex1``
    Backward Euler on the linear part, the quadratic source ``f`` frozen at
    the step start.  First order, L-stable (damps stiff transients hardest).
``imex2``
    Trapezoidal rule on the linear part, ``f`` extrapolated to the midpoint by
    a two-step Adams-Bashforth formula.  Second order; the run loop starts
    with one predictor-corrector step so the startup does not degrade the
    observed order.
``picard``
    Fully implicit trapezoidal step of the nonlinear system, computed as the
    fixed point of repeated frozen-coefficient linear solves (the coefficient
    is the previous iterate's ``psi_t``).  Converges only while the data is
    small enough for the map to contract; otherwise the run ends with the
    ``picard_failed`` termination.

For ``f = 0`` both implicit treatments are unconditionally stable, and the
per-mode energy ``|v_m|^2 / 2 + (c^2/2) |lambda_m| |psi_m|^2`` is nonincreasing
for every step size.

The run loop
------------
``simulate`` is the only stepper.  It carries the state as raw coefficient
arrays and calls :func:`blackstock.dynamics.quadratic_source` directly: once
per step for the IMEX schemes, and for ``picard`` only at sampled states (the
fixed-point iteration evaluates the rest).  ``SimState`` objects are built
only for snapshots.  Each sample is one row of a ``TimeSeries`` array
preallocated from the step count and ``sample_every`` and filled by
:func:`blackstock.energy.instantaneous_diagnostics`; the two running
integrals ``D_cum`` and ``w_grad_ptt`` are summed over the rows when the run
ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import MediumParams, quadratic_source
from .energy import SERIES_COLUMNS, GammaWeights, instantaneous_diagnostics
from .fields import SimState
from .grid import Grid, SpectralField

__all__ = [
    "StepConfig",
    "Termination",
    "TimeSeries",
    "PicardFailure",
    "simulate",
]

#: Runs whose energy exceeds this value are classified as diverged.
ENERGY_BLOWUP_CUTOFF = 1e12

_SCHEMES = ("imex1", "imex2", "picard")

_COL_T, _COL_E, _COL_D_INTEGRAND, _COL_WGP_INTEGRAND, _COL_D_CUM, _COL_W_GRAD_PTT = (
    SERIES_COLUMNS.index(name)
    for name in ("t", "E", "d_integrand", "wgp_integrand", "D_cum", "w_grad_ptt")
)


@dataclass(frozen=True)
class StepConfig:
    """Step size and scheme selection."""

    dt: float
    scheme: str = "imex2"
    picard_tol: float = 1e-10
    picard_max_iter: int = 50

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {_SCHEMES}")
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be at least 1")

    def steps_to(self, T: float) -> int:
        """Number of steps that reach ``T``; ``T`` must be a positive whole multiple of ``dt``."""
        if not (T > 0 and np.isfinite(T)):
            raise ValueError("final time must be positive and finite")
        n = round(T / self.dt)
        if n < 1 or abs(n * self.dt - T) > 1e-9 * T:
            raise ValueError(f"final time T={T!r} is not a whole multiple of dt={self.dt!r}")
        return n


@dataclass(frozen=True)
class Termination:
    """How a run ended: ``completed``, ``diverged`` or ``picard_failed``."""

    kind: str
    time: float | None = None

    @property
    def completed(self) -> bool:
        return self.kind == "completed"


@dataclass
class TimeSeries:
    """Sampled diagnostics, one row of ``data`` per sample and one column per name.

    A run's series has the columns ``SERIES_COLUMNS``; a series read back
    from CSV has the file's columns.
    """

    columns: tuple[str, ...]
    data: np.ndarray
    snapshots: list[tuple[float, SimState]] = field(default_factory=list)
    termination: Termination = Termination("completed")
    max_picard_iterations: int = 0

    def column(self, name: str) -> np.ndarray:
        """View of one column; ``KeyError`` when the series does not have it."""
        if name not in self.columns:
            raise KeyError(f"column {name!r} not present in series")
        return self.data[:, self.columns.index(name)]


class PicardFailure(RuntimeError):
    """The frozen-coefficient iteration left its contraction regime."""

    def __init__(self, time: float, iterations: int):
        super().__init__(
            f"picard iteration failed to converge at t={time:.6g} "
            f"after {iterations} iterations"
        )
        self.time = time
        self.iterations = iterations


class _ModalSolver:
    """Per-mode linear solves for the diagonal 2x2 systems of one grid."""

    def __init__(self, grid: Grid, p: MediumParams, dt: float):
        lam = grid.laplacian_eigenvalues
        self.lam = lam
        self.cc = p.c**2
        self.b = p.b
        self.dt = dt
        # (I - theta dt A) with A = [[0, 1], [cc lam, b lam]]
        self._cn = self._factor(0.5)
        self._be = self._factor(1.0)

    def _factor(self, theta: float):
        dt = self.dt
        a11 = 1.0
        a12 = -theta * dt
        a21 = -theta * dt * self.cc * self.lam
        a22 = 1.0 - theta * dt * self.b * self.lam
        det = a11 * a22 - a12 * a21
        return a11, a12, a21, a22, det

    def _solve(self, factor, r1, r2):
        a11, a12, a21, a22, det = factor
        return (a22 * r1 - a12 * r2) / det, (a11 * r2 - a21 * r1) / det

    def backward_euler(self, psi, v, f):
        # (I - dt A) U+ = U- + dt f e_v
        return self._solve(self._be, psi, v + self.dt * f)

    def trapezoid(self, psi, v, fhat):
        # (I - dt/2 A) U+ = (I + dt/2 A) U- + dt fhat e_v
        dt = self.dt
        r1 = psi + 0.5 * dt * v
        r2 = v + 0.5 * dt * (self.cc * self.lam * psi + self.b * self.lam * v) + dt * fhat
        return self._solve(self._cn, r1, r2)


def _picard_update_norm(grid, dpsi, dv) -> float:
    # Discrete H1 x L2 product norm of an update, mirroring the contraction norm.
    lam = grid.laplacian_eigenvalues
    nu = grid.coeff_weight
    return float(
        np.sqrt(np.sum((1.0 - lam) * dpsi * dpsi) * nu + np.sum(dv * dv) * nu)
    )


def _picard_step(
    grid: Grid,
    psi0: np.ndarray,
    v0: np.ndarray,
    t: float,
    f_old: np.ndarray | None,
    solver: _ModalSolver,
    cfg: StepConfig,
    p: MediumParams,
) -> tuple[np.ndarray, np.ndarray, int]:
    # One picard step from (psi0, v0) at time t.  f_old, when given, is the
    # source at that state, already computed by the caller.
    if f_old is None:
        f_old = quadratic_source(grid, psi0, v0, p)
    # Initial iterate: trapezoid step with the source frozen at the step start.
    psi_j, v_j = solver.trapezoid(psi0, v0, f_old)
    for it in range(1, cfg.picard_max_iter + 1):
        if not (np.all(np.isfinite(psi_j)) and np.all(np.isfinite(v_j))):
            raise PicardFailure(t + cfg.dt, it)
        with np.errstate(over="ignore", invalid="ignore"):
            fhat = 0.5 * (f_old + quadratic_source(grid, psi_j, v_j, p))
            psi_n, v_n = solver.trapezoid(psi0, v0, fhat)
        update = _picard_update_norm(grid, psi_n - psi_j, v_n - v_j)
        scale = _picard_update_norm(grid, psi_n, v_n)
        psi_j, v_j = psi_n, v_n
        if update <= cfg.picard_tol * max(scale, 1e-300):
            return psi_j, v_j, it
    raise PicardFailure(t + cfg.dt, cfg.picard_max_iter)


def _state(grid: Grid, psi: np.ndarray, v: np.ndarray, t: float) -> SimState:
    return SimState(psi=SpectralField(grid, psi), v=SpectralField(grid, v), time=t)


def simulate(
    initial: SimState,
    T: float,
    cfg: StepConfig,
    p: MediumParams,
    sample_every: int = 1,
    gammas: GammaWeights | None = None,
    snapshot_every: int | None = None,
) -> TimeSeries:
    """Integrate to time ``T`` (or first divergence), sampling diagnostics.

    Args:
        initial: state at the start time.
        T: final time (relative to ``initial.time``), a positive whole
            multiple of ``cfg.dt`` (``ValueError`` otherwise).
        cfg: scheme and step size.
        p: medium coefficients.
        sample_every: record a row of diagnostics every this many steps (the
            initial and final states are always sampled).
        gammas: Lyapunov weights used in the sampled ``L`` column.
        snapshot_every: optionally store full states every this many steps;
            the final state is always stored.

    Returns:
        The sampled series with its termination status.
    """
    n_steps = cfg.steps_to(T)
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    g = gammas or GammaWeights()
    grid = initial.grid
    lam = grid.laplacian_eigenvalues
    cc = p.c**2
    solver = _ModalSolver(grid, p, cfg.dt)
    data = np.empty((1 + -(-n_steps // sample_every), len(SERIES_COLUMNS)))
    n_rows = 0
    snapshots: list[tuple[float, SimState]] = []
    termination = Termination("completed")
    max_its = 0

    psi = initial.psi.coeffs.copy()
    v = initial.v.coeffs.copy()
    t0 = initial.time

    def record(t: float, f: np.ndarray) -> float:
        nonlocal n_rows
        with np.errstate(over="ignore", invalid="ignore"):
            accel = lam * (cc * psi + p.b * v) + f
            row = instantaneous_diagnostics(grid, t, psi, v, f, accel, p, g)
        data[n_rows, : len(row)] = row
        n_rows += 1
        return row[_COL_E]

    f_curr = quadratic_source(grid, psi, v, p)
    record(t0, f_curr)
    f_prev = f_curr

    for n in range(n_steps):
        t_next = t0 + (n + 1) * cfg.dt
        if cfg.scheme == "imex1":
            psi, v = solver.backward_euler(psi, v, f_curr)
        elif cfg.scheme == "imex2":
            if n == 0:
                # Predictor-corrector startup keeps the global order at two.
                psi_p, v_p = solver.trapezoid(psi, v, f_curr)
                with np.errstate(over="ignore", invalid="ignore"):
                    f_pred = quadratic_source(grid, psi_p, v_p, p)
                fhat = 0.5 * (f_curr + f_pred)
                if not np.all(np.isfinite(fhat)):
                    fhat = f_curr
            else:
                fhat = 1.5 * f_curr - 0.5 * f_prev
            psi, v = solver.trapezoid(psi, v, fhat)
        else:
            try:
                psi, v, its = _picard_step(
                    grid, psi, v, t0 + n * cfg.dt, f_curr, solver, cfg, p
                )
            except PicardFailure as failure:
                termination = Termination("picard_failed", failure.time)
                max_its = max(max_its, failure.iterations)
                break
            max_its = max(max_its, its)

        if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(v))):
            termination = Termination("diverged", t_next)
            break

        is_sample = ((n + 1) % sample_every == 0) or (n + 1 == n_steps)
        if is_sample or cfg.scheme != "picard":
            with np.errstate(over="ignore", invalid="ignore"):
                f_prev, f_curr = f_curr, quadratic_source(grid, psi, v, p)
            if not np.all(np.isfinite(f_curr)):
                termination = Termination("diverged", t_next)
                break
        else:
            # Not evaluated at the new state: the next picard step does it.
            f_curr = None
        if is_sample:
            E = record(t_next, f_curr)
            if not np.isfinite(E) or E > ENERGY_BLOWUP_CUTOFF:
                termination = Termination("diverged", t_next)
                break
        if snapshot_every is not None and (n + 1) % snapshot_every == 0:
            snapshots.append((t_next, _state(grid, psi, v, t_next)))
    else:
        final_t = t0 + n_steps * cfg.dt
        if not snapshots or snapshots[-1][0] != final_t:
            snapshots.append((final_t, _state(grid, psi, v, final_t)))
    data = data[:n_rows]
    t = data[:, _COL_T]
    integrals = ((_COL_D_CUM, _COL_D_INTEGRAND), (_COL_W_GRAD_PTT, _COL_WGP_INTEGRAND))
    for integral, integrand in integrals:
        y = data[:, integrand]
        # Trapezoid rule over the sample times; cumsum adds sequentially, so
        # the roundings are those of accumulating sample by sample.
        with np.errstate(over="ignore", invalid="ignore"):
            data[:, integral] = np.cumsum(np.append(0.0, 0.5 * np.diff(t) * (y[1:] + y[:-1])))
    return TimeSeries(SERIES_COLUMNS, data, snapshots, termination, max_its)
