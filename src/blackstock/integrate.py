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
    small enough for the map to contract; otherwise :class:`PicardFailure`
    is raised.

For ``f = 0`` both implicit treatments are unconditionally stable, and the
per-mode energy ``|v_m|^2 / 2 + (c^2/2) |lambda_m| |psi_m|^2`` is nonincreasing
for every step size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import MediumParams, assemble_f
from .energy import EnergySample, GammaWeights, instantaneous_diagnostics
from .fields import SimState
from .grid import SpectralField

__all__ = [
    "StepConfig",
    "Termination",
    "TimeSeries",
    "PicardFailure",
    "step_imex",
    "step_picard",
    "simulate",
]

#: Runs whose energy exceeds this value are classified as diverged.
ENERGY_BLOWUP_CUTOFF = 1e12

_SCHEMES = ("imex1", "imex2", "picard")


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
    """Sampled diagnostics of one run."""

    times: list[float] = field(default_factory=list)
    samples: list[EnergySample] = field(default_factory=list)
    snapshots: list[tuple[float, SimState]] = field(default_factory=list)
    termination: Termination = Termination("completed")
    max_picard_iterations: int = 0

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(s, name) for s in self.samples])


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

    def __init__(self, state: SimState, p: MediumParams, dt: float):
        lam = state.grid.laplacian_eigenvalues
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
    state: SimState,
    solver: _ModalSolver,
    cfg: StepConfig,
    p: MediumParams,
    f_old: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    # f_old, when given, is the source at ``state``, already computed by the caller.
    grid = state.grid
    psi0, v0 = state.psi.coeffs, state.v.coeffs
    if f_old is None:
        f_old = assemble_f(state, p).coeffs
    # Initial iterate: trapezoid step with the source frozen at the step start.
    psi_j, v_j = solver.trapezoid(psi0, v0, f_old)
    for it in range(1, cfg.picard_max_iter + 1):
        if not (np.all(np.isfinite(psi_j)) and np.all(np.isfinite(v_j))):
            raise PicardFailure(state.time + cfg.dt, it)
        iterate = SimState(
            psi=SpectralField(grid, psi_j), v=SpectralField(grid, v_j), time=state.time + cfg.dt
        )
        with np.errstate(over="ignore", invalid="ignore"):
            fhat = 0.5 * (f_old + assemble_f(iterate, p).coeffs)
            psi_n, v_n = solver.trapezoid(psi0, v0, fhat)
        update = _picard_update_norm(grid, psi_n - psi_j, v_n - v_j)
        scale = _picard_update_norm(grid, psi_n, v_n)
        psi_j, v_j = psi_n, v_n
        if update <= cfg.picard_tol * max(scale, 1e-300):
            return psi_j, v_j, it
    raise PicardFailure(state.time + cfg.dt, cfg.picard_max_iter)


def step_imex(state: SimState, cfg: StepConfig, p: MediumParams) -> SimState:
    """One IMEX step from ``state`` (history-free; simulate adds the AB2 memory)."""
    solver = _ModalSolver(state, p, cfg.dt)
    f = assemble_f(state, p).coeffs
    if cfg.scheme == "imex1":
        psi, v = solver.backward_euler(state.psi.coeffs, state.v.coeffs, f)
    elif cfg.scheme == "imex2":
        psi, v = solver.trapezoid(state.psi.coeffs, state.v.coeffs, f)
    else:
        raise ValueError("step_imex handles imex1 and imex2 only")
    grid = state.grid
    return SimState(
        psi=SpectralField(grid, psi), v=SpectralField(grid, v), time=state.time + cfg.dt
    )


def step_picard(state: SimState, cfg: StepConfig, p: MediumParams) -> SimState:
    """One fully implicit trapezoidal step via the frozen-coefficient iteration."""
    solver = _ModalSolver(state, p, cfg.dt)
    psi, v, _its = _picard_step(state, solver, cfg, p)
    grid = state.grid
    return SimState(
        psi=SpectralField(grid, psi), v=SpectralField(grid, v), time=state.time + cfg.dt
    )


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
        sample_every: record an EnergySample every this many steps (the
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
    solver = _ModalSolver(initial, p, cfg.dt)
    series = TimeSeries()

    psi = initial.psi.coeffs.copy()
    v = initial.v.coeffs.copy()
    t0 = initial.time
    d_cum = 0.0
    wgp_cum = 0.0
    prev_d_integrand = None
    prev_wgp_integrand = None
    prev_t = t0

    def current_state(t: float) -> SimState:
        return SimState(psi=SpectralField(grid, psi), v=SpectralField(grid, v), time=t)

    def record(t: float, f_coeffs: np.ndarray) -> float:
        nonlocal d_cum, wgp_cum, prev_d_integrand, prev_wgp_integrand, prev_t
        state = current_state(t)
        f_field = SpectralField(grid, f_coeffs)
        with np.errstate(over="ignore", invalid="ignore"):
            accel = SpectralField(grid, lam * (cc * psi + p.b * v) + f_coeffs)
            diag = instantaneous_diagnostics(state, p, g, f_field, accel)
        if prev_d_integrand is not None:
            h = t - prev_t
            d_cum += 0.5 * h * (prev_d_integrand + diag["d_integrand"])
            wgp_cum += 0.5 * h * (prev_wgp_integrand + diag["wgp_integrand"])
        prev_d_integrand = diag["d_integrand"]
        prev_wgp_integrand = diag["wgp_integrand"]
        prev_t = t
        series.times.append(t)
        series.samples.append(
            EnergySample(
                t=t,
                E=diag["E"],
                E1=diag["E1"],
                E2=diag["E2"],
                F1=diag["F1"],
                F2=diag["F2"],
                F3=diag["F3"],
                L=diag["L"],
                D_cum=d_cum,
                w_ptt=diag["w_ptt"],
                w_lap_vt=diag["w_lap_vt"],
                w_grad_ptt=wgp_cum,
                grad_v_sq=diag["grad_v_sq"],
                f_dot_v=diag["f_dot_v"],
            )
        )
        return diag["E"]

    f_curr = assemble_f(current_state(t0), p).coeffs
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
                pred = SimState(
                    psi=SpectralField(grid, psi_p), v=SpectralField(grid, v_p), time=t_next
                )
                with np.errstate(over="ignore", invalid="ignore"):
                    f_pred = assemble_f(pred, p).coeffs
                fhat = 0.5 * (f_curr + f_pred)
                if not np.all(np.isfinite(fhat)):
                    fhat = f_curr
            else:
                fhat = 1.5 * f_curr - 0.5 * f_prev
            psi, v = solver.trapezoid(psi, v, fhat)
        else:
            try:
                psi, v, its = _picard_step(
                    current_state(t0 + n * cfg.dt), solver, cfg, p, f_curr
                )
            except PicardFailure as failure:
                series.termination = Termination("picard_failed", failure.time)
                series.max_picard_iterations = max(
                    series.max_picard_iterations, failure.iterations
                )
                return series
            series.max_picard_iterations = max(series.max_picard_iterations, its)

        if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(v))):
            series.termination = Termination("diverged", t_next)
            return series

        is_sample = ((n + 1) % sample_every == 0) or (n + 1 == n_steps)
        if is_sample or cfg.scheme != "picard":
            with np.errstate(over="ignore", invalid="ignore"):
                f_prev, f_curr = f_curr, assemble_f(current_state(t_next), p).coeffs
            if not np.all(np.isfinite(f_curr)):
                series.termination = Termination("diverged", t_next)
                return series
        else:
            # Not evaluated at the new state: the next picard step does it.
            f_curr = None
        if is_sample:
            E = record(t_next, f_curr)
            if not np.isfinite(E) or E > ENERGY_BLOWUP_CUTOFF:
                series.termination = Termination("diverged", t_next)
                return series
        if snapshot_every is not None and (n + 1) % snapshot_every == 0:
            series.snapshots.append((t_next, current_state(t_next)))

    final_t = t0 + n_steps * cfg.dt
    if not series.snapshots or series.snapshots[-1][0] != final_t:
        series.snapshots.append((final_t, current_state(final_t)))
    series.termination = Termination("completed")
    return series
