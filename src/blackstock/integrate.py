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
``simulate_batch`` is the only stepper; ``simulate`` is its one-member case.
It integrates a batch of initial states that share a grid, a start time and
the step configuration, and returns one ``TimeSeries`` per member.

*Member axis.*  The live state is raw coefficient arrays with a leading
member axis, ``psi[member, *modes]``.  The modal solves broadcast over it, and
:func:`blackstock.dynamics.quadratic_source` and
:func:`blackstock.energy.instantaneous_diagnostics` take it as a stack, so a
step costs a fixed number of array operations whatever the batch size (the
source is evaluated on slices of at most ``_SOURCE_SLICE_COEFFICIENTS``
coefficients, which bounds a large batch's temporaries).  The source is
evaluated and checked once at every new state, for every scheme; a
``picard`` step starts its fixed-point iteration from it.  Under
``picard`` a member that has converged is frozen and takes no further
iterations.  ``SimState`` objects are built only for the final states of
the members that complete.

*Per-member termination.*  Each member ends on its own, with its own
``Termination``: a non-finite state, a non-finite source or an energy above
``ENERGY_BLOWUP_CUTOFF`` is ``diverged``, an iteration that does not converge
is ``picard_failed``.  The initial state takes the checks of a sample, so a
member that starts out of bounds ends at the start time without a step.  The
energy is formed every step from two weighted sums of squares; its weights
are positive, so a non-finite state shows as a non-finite energy.  Each
finiteness check is one test of the whole batch; only when it fails are the
members looked at one by one.  An ended member is removed from the live
arrays, so later steps cost only the survivors.

*Blocks of samples.*  A sample only keeps the live arrays ``(t, psi, v, f)``
in a block; the loop replaces them every step and never writes into them, so
this needs no copy.  One ``instantaneous_diagnostics`` call, with the sample
times as a column, maps the block to rows when it holds
``_BLOCK_COEFFICIENTS`` state coefficients, before any member retires, and
at the end of the run.  The rows are those of one call per sample, bit for
bit.

*Rows.*  Each member's rows live in an array of their own, sized for the
whole run.  Pages that are never written, the rest of a member that ends
early, are never made resident.  The two running integrals ``D_cum`` and
``w_grad_ptt`` are summed over a member's rows when it ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .dynamics import MediumParams, quadratic_source
from .energy import SERIES_COLUMNS, GammaWeights, _combination, instantaneous_diagnostics
from .fields import SimState
from .grid import Grid, SpectralField

__all__ = [
    "StepConfig",
    "Termination",
    "TimeSeries",
    "simulate",
    "simulate_batch",
]

#: Runs whose energy exceeds this value are classified as diverged.
ENERGY_BLOWUP_CUTOFF = 1e12

#: Sampled states are mapped to diagnostics rows in blocks of this many state
#: coefficients: 64 samples of a 1D N=64 run, one sample of a 64-member N=64
#: batch or of a 32^3 run.  Mapping a block costs about ten times its state
#: in temporaries; a block of 2^14 raises the peak memory of a 64-member
#: N=64 batch by about 2 MB.
_BLOCK_COEFFICIENTS = 2**12

#: A batch evaluates its quadratic source on slices of at most this many state
#: coefficients (32 members at N=64, one member from 2048 coefficients on).
#: The evaluation's temporaries are several times the state, so a wide probe
#: of the threshold search would otherwise hold them for all its members at once.
_SOURCE_SLICE_COEFFICIENTS = 2**11

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
    from CSV has the file's columns.  ``final`` is the state at the end of a
    completed run, else ``None``.
    """

    columns: tuple[str, ...]
    data: np.ndarray
    final: SimState | None = None
    termination: Termination = Termination("completed")
    max_picard_iterations: int = 0

    def column(self, name: str) -> np.ndarray:
        """View of one column; ``KeyError`` when the series does not have it."""
        if name not in self.columns:
            raise KeyError(f"column {name!r} not present in series")
        return self.data[:, self.columns.index(name)]


class _ModalSolver:
    """Per-mode linear solves for the diagonal 2x2 systems of one grid.

    States carry any leading member axes; the mode tensors broadcast over them.
    """

    def __init__(self, grid: Grid, p: MediumParams, dt: float):
        lam = grid.laplacian_eigenvalues
        self.lam = lam
        self.cc = p.c**2
        self.b = p.b
        self.dt = dt
        self._cc_lam = self.cc * lam
        self._b_lam = self.b * lam

    # (I - theta dt A) with A = [[0, 1], [cc lam, b lam]]; each scheme uses
    # one of the two, so each is formed on first use.
    @cached_property
    def _cn(self):
        return self._factor(0.5)

    @cached_property
    def _be(self):
        return self._factor(1.0)

    def _factor(self, theta: float):
        dt = self.dt
        a11 = 1.0
        a12 = -theta * dt
        a21 = -theta * dt * self.cc * self.lam
        a22 = 1.0 - theta * dt * self.b * self.lam
        det = a11 * a22 - a12 * a21
        return a12, a21, a22, det

    def _solve(self, factor, r1, r2):
        a12, a21, a22, det = factor
        return (a22 * r1 - a12 * r2) / det, (r2 - a21 * r1) / det

    def backward_euler(self, psi, v, f):
        # (I - dt A) U+ = U- + dt f e_v
        return self._solve(self._be, psi, v + self.dt * f)

    def trapezoid(self, psi, v, fhat):
        # (I - dt/2 A) U+ = (I + dt/2 A) U- + dt fhat e_v
        dt = self.dt
        r1 = psi + 0.5 * dt * v
        r2 = v + 0.5 * dt * (self._cc_lam * psi + self._b_lam * v) + dt * fhat
        return self._solve(self._cn, r1, r2)


def _finite_members(*arrays: np.ndarray) -> np.ndarray:
    # Per member (leading axis): every entry of every array is finite.
    n = arrays[0].shape[0]
    return np.logical_and.reduce([np.isfinite(a.reshape(n, -1)).all(axis=1) for a in arrays])


def _picard_update_norm(grid, dpsi, dv) -> np.ndarray:
    # Discrete H1 x L2 product norm of each member's update, mirroring the
    # contraction norm.
    n = dpsi.shape[0]
    lam = grid.laplacian_eigenvalues
    nu = grid.coeff_weight
    return np.sqrt(
        np.sum(((1.0 - lam) * dpsi * dpsi).reshape(n, -1), axis=1) * nu
        + np.sum((dv * dv).reshape(n, -1), axis=1) * nu
    )


def _picard_step(
    grid: Grid,
    psi0: np.ndarray,
    v0: np.ndarray,
    f_old: np.ndarray,
    solver: _ModalSolver,
    cfg: StepConfig,
    p: MediumParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One picard step of every member of ``(psi0, v0)``, whose source is ``f_old``.

    Returns the new states, each member's iteration count and a mask of the
    members that converged.  The others failed: an iterate was not finite
    (counted at that iteration) or the budget ran out.  A converged member is
    frozen and takes no further iterations.
    """
    # Initial iterate: trapezoid step with the source frozen at the step start.
    psi, v = solver.trapezoid(psi0, v0, f_old)
    its = np.full(len(psi), cfg.picard_max_iter)
    converged = np.zeros(len(psi), dtype=bool)
    # The members still iterating: indices, iterates and step-start data.
    live = (np.arange(len(psi)), psi, v, psi0, v0, f_old)
    for it in range(1, cfg.picard_max_iter + 1):
        idx, psi_j, v_j, a0, b0, f0 = live
        if not (np.isfinite(psi_j).all() and np.isfinite(v_j).all()):
            finite = _finite_members(psi_j, v_j)
            its[idx[~finite]] = it
            if not finite.any():
                break
            live = tuple(a[finite] for a in live)
            idx, psi_j, v_j, a0, b0, f0 = live
        with np.errstate(over="ignore", invalid="ignore"):
            fhat = 0.5 * (f0 + _source(grid, psi_j, v_j, p))
            psi_n, v_n = solver.trapezoid(a0, b0, fhat)
            update = _picard_update_norm(grid, psi_n - psi_j, v_n - v_j)
            scale = _picard_update_norm(grid, psi_n, v_n)
        done = update <= cfg.picard_tol * np.maximum(scale, 1e-300)
        live = (idx, psi_n, v_n, a0, b0, f0)
        if done.any():
            psi[idx[done]] = psi_n[done]
            v[idx[done]] = v_n[done]
            its[idx[done]] = it
            converged[idx[done]] = True
            if done.all():
                break
            live = tuple(a[~done] for a in live)
    return psi, v, its, converged


def _source(grid: Grid, psi: np.ndarray, alpha: np.ndarray, p: MediumParams) -> np.ndarray:
    # quadratic_source of every member, evaluated a slice of members at a time.
    size = max(1, _SOURCE_SLICE_COEFFICIENTS // math.prod(grid.modes))
    if len(psi) <= size:
        return quadratic_source(grid, psi, alpha, p)
    f = np.empty(psi.shape)
    for i in range(0, len(psi), size):
        f[i : i + size] = quadratic_source(grid, psi[i : i + size], alpha[i : i + size], p)
    return f


def _series(data: np.ndarray, termination, final, max_its: int) -> TimeSeries:
    # One member's series on its sampled rows, with the running integrals
    # filled in.
    t = data[:, _COL_T]
    integrals = ((_COL_D_CUM, _COL_D_INTEGRAND), (_COL_W_GRAD_PTT, _COL_WGP_INTEGRAND))
    for integral, integrand in integrals:
        y = data[:, integrand]
        # Trapezoid rule over the sample times; cumsum adds sequentially, so
        # the roundings are those of accumulating sample by sample.
        data[:, integral] = np.cumsum(np.append(0.0, 0.5 * np.diff(t) * (y[1:] + y[:-1])))
    return TimeSeries(SERIES_COLUMNS, data, final, termination, int(max_its))


def simulate(
    initial: SimState,
    T: float,
    cfg: StepConfig,
    p: MediumParams,
    sample_every: int = 1,
    gammas: GammaWeights | None = None,
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

    Returns:
        The sampled series with its termination status and, when the run
        completed, its final state.
    """
    return simulate_batch([initial], T, cfg, p, sample_every, gammas)[0]


# Overflow on the way to a divergence is expected: the loop's checks act on
# the non-finite values it leaves.
@np.errstate(over="ignore", invalid="ignore")
def simulate_batch(
    initials: Sequence[SimState],
    T: float,
    cfg: StepConfig,
    p: MediumParams,
    sample_every: int = 1,
    gammas: GammaWeights | None = None,
) -> list[TimeSeries]:
    """Integrate each of ``initials`` as :func:`simulate` would, in one loop.

    The initial states must share one grid and start time (``ValueError``
    otherwise); the other arguments are those of :func:`simulate` and apply
    to every member.  Returns one series per member, in order, each with its
    own termination.  A member's series agrees with its own ``simulate`` run
    up to rounding (the batched matrix products round differently).
    """
    n_steps = cfg.steps_to(T)
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    if not initials:
        raise ValueError("need at least one initial state")
    grid, t0 = initials[0].grid, initials[0].time
    for state in initials:
        if state.grid != grid or state.time != t0:
            raise ValueError("batch members must share one grid and start time")
    g = gammas or GammaWeights()
    lam = grid.laplacian_eigenvalues
    cc = p.c**2
    solver = _ModalSolver(grid, p, cfg.dt)
    n_members = len(initials)
    n_coeffs = math.prod(grid.modes)
    results: list[TimeSeries | None] = [None] * n_members
    max_its = np.zeros(n_members, dtype=int)
    # E = psi^2 . w_psi + v^2 . w_v per member, with the positive weights
    # w = Grid.gram_weights @ e (not formed: a 3D grid's would be large), so
    # a non-finite state gives a non-finite energy.  e is the E column of the
    # diagnostics' map on the Gram table rows psi psi and v v.
    gram_weights = grid.gram_weights
    e_psi, _, e_v, *_ = grid.coeff_weight * _combination(p, g)[:, _COL_E].reshape(5, 3)

    def energy(psi: np.ndarray, v: np.ndarray) -> np.ndarray:
        n = len(psi)
        return ((psi * psi).reshape(n, -1) @ gram_weights) @ e_psi + (
            (v * v).reshape(n, -1) @ gram_weights
        ) @ e_v

    # Live state: one entry per surviving member along the leading axis.
    # ``members`` maps it to the member's position in ``initials``.
    members = np.arange(n_members)
    psi = np.stack([s.psi.coeffs for s in initials])
    v = np.stack([s.v.coeffs for s in initials])
    n_rows_max = 1 + -(-n_steps // sample_every)
    rows_of = [np.empty((n_rows_max, len(SERIES_COLUMNS))) for _ in initials]
    n_rows = 0
    # The samples not yet mapped to rows: their times and the live arrays
    # (psi, v, f) at each.  The loop replaces these arrays every step and never
    # writes into them, so keeping them needs no copy.
    block: list[tuple[float, np.ndarray, np.ndarray, np.ndarray]] = []

    def flush() -> None:
        # Map the block to rows with one diagnostics call.
        nonlocal n_rows
        if not block:
            return
        times, *arrays = zip(*block)
        # A block of one sample is a view of its arrays, not a copy.
        psi_b, v_b, f_b = (a[0][None] if len(a) == 1 else np.array(a) for a in arrays)
        accel = lam * (cc * psi_b + p.b * v_b) + f_b
        rows = instantaneous_diagnostics(
            grid, np.array(times)[:, None], psi_b, v_b, f_b, accel, p, g
        )
        end = n_rows + len(block)
        for j, m in enumerate(members):
            rows_of[m][n_rows:end, : rows.shape[-1]] = rows[:, j]
        n_rows = end
        block.clear()

    def sample(t: float) -> None:
        # Keep the live state at a sample; a full block is mapped at once, so
        # a large state is never held past its step.
        block.append((t, psi, v, f_curr))
        if len(block) * members.size * n_coeffs >= _BLOCK_COEFFICIENTS:
            flush()

    def retire(leaving: np.ndarray, kind: str, t: float) -> bool:
        # End the runs of the live members in the mask ``leaving`` and drop
        # them from the live arrays; False when no member is left.
        nonlocal members, psi, v, f_curr, f_prev, E
        flush()
        for j in np.flatnonzero(leaving):
            m = members[j]
            results[m] = _series(rows_of[m][:n_rows], Termination(kind, t), None, max_its[m])
        keep = ~leaving
        members, psi, v, E = members[keep], psi[keep], v[keep], E[keep]
        f_curr = None if f_curr is None else f_curr[keep]
        f_prev = None if f_prev is None else f_prev[keep]
        return members.size > 0

    def checked(t: float, is_sample: bool) -> bool:
        # The checks of the new state at ``t``.  A member with a non-finite
        # state or source ends there without a row; one whose energy is above
        # the cutoff at a sample ends with that row as its last.  False when
        # no member is left.
        nonlocal E, f_curr, f_prev
        E = energy(psi, v)
        if not np.isfinite(E).all() and not retire(~_finite_members(psi, v), "diverged", t):
            return False
        f_prev, f_curr = f_curr, _source(grid, psi, v, p)
        if not np.isfinite(f_curr).all() and not retire(~_finite_members(f_curr), "diverged", t):
            return False
        if is_sample:
            sample(t)
            # Also true for a NaN energy.
            blown = ~(E <= ENERGY_BLOWUP_CUTOFF)
            if blown.any() and not retire(blown, "diverged", t):
                return False
        return True

    E = f_curr = f_prev = None
    if not checked(t0, True):
        return results

    for n in range(n_steps):
        t_next = t0 + (n + 1) * cfg.dt
        if cfg.scheme == "imex1":
            psi, v = solver.backward_euler(psi, v, f_curr)
        elif cfg.scheme == "imex2":
            if n == 0:
                # Predictor-corrector startup keeps the global order at two.
                psi_p, v_p = solver.trapezoid(psi, v, f_curr)
                fhat = 0.5 * (f_curr + _source(grid, psi_p, v_p, p))
                if not np.isfinite(fhat).all():
                    bad = ~_finite_members(fhat)
                    fhat[bad] = f_curr[bad]
            else:
                fhat = 1.5 * f_curr - 0.5 * f_prev
            psi, v = solver.trapezoid(psi, v, fhat)
        else:
            psi, v, its, converged = _picard_step(grid, psi, v, f_curr, solver, cfg, p)
            max_its[members] = np.maximum(max_its[members], its)
            if not converged.all() and not retire(~converged, "picard_failed", t_next):
                break

        is_sample = ((n + 1) % sample_every == 0) or (n + 1 == n_steps)
        if not checked(t_next, is_sample):
            break
    else:
        flush()
        final_t = t0 + n_steps * cfg.dt
        for j, m in enumerate(members):
            final = SimState(
                SpectralField(grid, psi[j].copy()), SpectralField(grid, v[j].copy()), final_t
            )
            results[m] = _series(rows_of[m][:n_rows], Termination("completed"), final, max_its[m])
    return results
