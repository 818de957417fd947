"""Time integration of the first-order system ``psi_t = v``, ``v_t = c^2 Delta psi + b Delta v + f``.

Because ``b > 0`` the linear part behaves like a (nonlocal) heat operator and
is stiff: explicit schemes would be limited to steps of order
``1/(b |lambda_max|)``.  All schemes here treat the linear part implicitly;
it is diagonal in the sine basis, so a step of it is a 2x2 map per mode,
``U+ = A psi + B v + Q f``, whose propagator tensors ``A, B, Q`` of shape
``(2, *modes)`` are the closed-form solution of the implicit system, formed
once per run.

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

*State layout.*  The live state is one array ``U[member, (psi, v), *modes]``,
so a finiteness test, the removal of ended members, a sample and the energy
``(U U) . w`` (:func:`blackstock.energy.energy_weights`) each cost one array
operation.  The run's one propagator is the tensor ``(A, B, Q)``, applied to
``(psi, v, f)`` by one ``einsum`` that broadcasts over the member axis, and
the source is the run's source operator
(:func:`blackstock.dynamics._source_operator`, which forms the Laplacian
scalings once), evaluated on the whole live batch at once.  Its temporaries
are several times the batch's state; the caller bounds them by the batch it
passes (the threshold search by its round width).  The scheme and the
propagator are resolved once per run.  A step therefore
costs a fixed number of array operations whatever the batch size: about 20
for an ``imex2`` step, more than half of them in the source.  The source is
evaluated and checked once at every new state, for every scheme; a
``picard`` step starts its fixed-point iteration from it.  Under ``picard``
a member that has converged is frozen and takes no further iterations.
``SimState`` objects are built only for the final states of the members
that complete.

*Per-member termination.*  Each member ends on its own, with its own
``Termination``: a non-finite state, a non-finite source or an energy above
``ENERGY_BLOWUP_CUTOFF`` is ``diverged``, an iteration that does not converge
is ``picard_failed``.  The initial state takes the checks of a sample, so a
member that starts out of bounds ends at the start time without a step.
Each step tests the state and the source of the whole batch at once: the sum
of their entries is finite only when every entry is.  Only when the sum is
not finite are the members looked at one by one; a sum of finite entries
that overflows sends the test there too, and every member passes.  The
energy is formed only at samples, where the cutoff reads it.  An ended
member is removed from the live arrays, so later steps cost only the
survivors.

*Blocks of samples.*  A sample only keeps the live arrays ``(t, U, f)``
in a block; the loop replaces them every step and never writes into them, so
this needs no copy.  One :func:`blackstock.energy.instantaneous_diagnostics`
call, with the sample times as a column, maps the block's states and sources
to rows when it holds ``_BLOCK_COEFFICIENTS`` state coefficients, before any
member retires, and at the end of the run; it forms ``psi_tt`` itself.  The
rows are those of one call per sample, bit for bit.

*Rows.*  Each member's rows live in an array of their own, sized for the
whole run.  Pages that are never written, the rest of a member that ends
early, are never made resident.  :func:`blackstock.energy.running_integrals`
fills in ``D_cum`` and ``w_grad_ptt`` when the member ends.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import MediumParams, _source_operator
from .energy import (
    SERIES_COLUMNS, GammaWeights, energy_weights, instantaneous_diagnostics, running_integrals,
)
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

_SCHEMES = ("imex1", "imex2", "picard")

#: A picard iteration's relative tolerance in the H1 x L2 norm, and its budget.
PICARD_TOL, PICARD_MAX_ITER = 1e-10, 50

_TERMINATIONS = ("completed", "diverged", "picard_failed")


@dataclass(frozen=True)
class StepConfig:
    """Step size and scheme selection."""

    dt: float
    scheme: str = "imex2"

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {_SCHEMES}")

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

    def __post_init__(self):
        # The time is None or a finite number; a boolean is not a time.
        t = self.time
        number = isinstance(t, numbers.Integral) or (isinstance(t, numbers.Real) and math.isfinite(t))
        if self.kind not in _TERMINATIONS or not (t is None or (number and not isinstance(t, bool))):
            raise ValueError(f"not a termination: kind {self.kind!r}, time {t!r}")

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


def _propagator(grid: Grid, p: MediumParams, dt: float, theta: float):
    """The per-mode propagator of one theta step of the linear part.

    A theta step ``(I - theta dt L) U+ = (I + (1 - theta) dt L) U + dt f e_v``
    with ``L = [[0, 1], [c^2 lam, b lam]]`` per mode is ``U+ = A psi + B v +
    Q f``, with tensors ``A, B, Q`` of shape ``(2, *modes)`` in closed form:
    backward Euler for theta = 1, the trapezoidal rule for theta = 1/2.
    Returns the map of states ``U[member, (psi, v), *modes]`` and sources
    ``f[member, *modes]`` to the next states: one ``einsum`` with the tensor
    ``(A, B, Q)`` of shape ``(2, 3, *modes)``, whose sum over its second axis
    is ``(A psi + B v) + Q f`` in that order.
    """
    lam = grid.laplacian_eigenvalues
    kappa, beta = p.c**2 * lam, p.b * lam
    # (I - theta dt L)^-1 = [[1 - theta dt beta, theta dt], [theta dt kappa, 1]] / det.
    s = theta * (1.0 - theta) * dt * dt * kappa
    det = 1.0 - theta * dt * beta - theta * theta * dt * dt * kappa
    A = np.stack((1.0 - theta * dt * beta + s, dt * kappa)) / det
    B = np.stack((np.full_like(det, dt), 1.0 + (1.0 - theta) * dt * beta + s)) / det
    Q = np.stack((np.full_like(det, theta * dt * dt), np.full_like(det, dt))) / det
    T = np.stack((A, B, Q), axis=1)
    return lambda U, f: np.einsum("ij...,mj...->mi...", T, np.concatenate((U, f[:, None]), axis=1))


def _h1_l2_norm(grid: Grid):
    # Picard's contraction test: the discrete H1 x L2 norm of each member of U.
    lam = grid.laplacian_eigenvalues.ravel()
    w = grid.coeff_weight * np.concatenate((1.0 - lam, np.ones_like(lam)))
    return lambda U: np.sqrt((U * U).reshape(len(U), -1) @ w)


def _finite_members(a: np.ndarray) -> np.ndarray:
    # Per member (leading axis): every entry is finite.
    return np.isfinite(a.reshape(len(a), -1)).all(axis=1)


# Overflow and invalid values in a failing iterate are expected: the finiteness
# test acts on what they leave.
@np.errstate(over="ignore", invalid="ignore")
def _picard_step(
    U0: np.ndarray, f_old: np.ndarray, step, norm, source
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One picard step of every member of ``U0``, whose source is ``f_old``.

    ``step`` is the run's trapezoid propagator (:func:`_propagator`),
    ``norm`` its contraction norm (:func:`_h1_l2_norm`) and ``source`` its
    source operator (:func:`blackstock.dynamics._source_operator`).  Returns
    the new states, each member's iteration count and a mask of the members
    that converged.  The others failed: an iterate was not finite (counted at
    that iteration) or the budget ran out.  A converged member is frozen and
    takes no further iterations.
    """
    # Initial iterate: trapezoid step with the source frozen at the step start.
    U = step(U0, f_old)
    its = np.full(len(U), PICARD_MAX_ITER)
    converged = np.zeros(len(U), dtype=bool)
    # The members still iterating: indices, iterates and step-start data.
    live = (np.arange(len(U)), U, U0, f_old)
    for it in range(1, PICARD_MAX_ITER + 1):
        idx, U_j, U_0, f_0 = live
        # A sum is finite only when every entry is.
        if not math.isfinite(U_j.sum()):
            finite = _finite_members(U_j)
            its[idx[~finite]] = it
            if not finite.any():
                break
            live = tuple(a[finite] for a in live)
            idx, U_j, U_0, f_0 = live
        U_n = step(U_0, 0.5 * (f_0 + source(U_j)))
        update = norm(U_n - U_j)
        scale = norm(U_n)
        done = update <= PICARD_TOL * np.maximum(scale, 1e-300)
        live = (idx, U_n, U_0, f_0)
        if done.any():
            U[idx[done]] = U_n[done]
            its[idx[done]] = it
            converged[idx[done]] = True
            if done.all():
                break
            live = tuple(a[~done] for a in live)
    return U, its, converged


def _series(rows: np.ndarray, termination, final, max_its: int) -> TimeSeries:
    # One member's series on its sampled rows.
    return TimeSeries(SERIES_COLUMNS, running_integrals(rows), final, termination, int(max_its))


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
    n_members = len(initials)
    n_coeffs = math.prod(grid.modes)
    source = _source_operator(grid, p)
    results: list[TimeSeries | None] = [None] * n_members
    max_its = np.zeros(n_members, dtype=int)
    w = energy_weights(grid, p)

    # Live state U[member, (psi, v), *modes]: one entry per surviving member.
    # ``members`` maps it to the member's position in ``initials``.
    members = np.arange(n_members)
    U = np.array([(s.psi.coeffs, s.v.coeffs) for s in initials])
    n_rows_max = 1 + -(-n_steps // sample_every)
    rows_of = [np.empty((n_rows_max, len(SERIES_COLUMNS))) for _ in initials]
    n_rows = 0
    # The samples not yet mapped to rows: their times and the live arrays
    # (U, f) at each.  The loop replaces these arrays every step and never
    # writes into them, so keeping them needs no copy.
    block: list[tuple[float, np.ndarray, np.ndarray]] = []

    def flush() -> None:
        # Map the block to rows with one diagnostics call.
        nonlocal n_rows
        if not block:
            return
        times, *arrays = zip(*block)
        # A block of one sample is a view of its arrays, not a copy.
        U_b, f_b = (a[0][None] if len(a) == 1 else np.array(a) for a in arrays)
        rows = instantaneous_diagnostics(grid, np.array(times)[:, None], U_b, f_b, p, g)
        end = n_rows + len(block)
        for j, m in enumerate(members):
            rows_of[m][n_rows:end, : rows.shape[-1]] = rows[:, j]
        n_rows = end
        block.clear()

    def sample(t: float) -> None:
        # Keep the live state at a sample; a full block is mapped at once, so
        # a large state is never held past its step.
        block.append((t, U, f_curr))
        if len(block) * members.size * n_coeffs >= _BLOCK_COEFFICIENTS:
            flush()

    def retire(leaving: np.ndarray, kind: str, t: float) -> bool:
        # End the runs of the live members in the mask ``leaving`` and drop
        # them from the live arrays; False when no member is left.
        nonlocal members, U, f_curr, f_prev
        flush()
        for j in np.flatnonzero(leaving):
            m = members[j]
            results[m] = _series(rows_of[m][:n_rows], Termination(kind, t), None, max_its[m])
        keep = ~leaving
        members, U, f_curr = members[keep], U[keep], f_curr[keep]
        f_prev = None if f_prev is None else f_prev[keep]
        return members.size > 0

    def checked(t: float, is_sample: bool) -> bool:
        # The checks of the new state at ``t``.  A member with a non-finite
        # state or source ends there without a row; one whose energy is above
        # the cutoff at a sample ends with that row as its last.  False when
        # no member is left.
        nonlocal f_curr, f_prev
        f_prev, f_curr = f_curr, source(U)
        # One test of the batch: the sum is finite only when every entry is.
        # A sum of finite entries that overflows only sends the test to the
        # members, which all pass it.
        if not math.isfinite(U.sum() + f_curr.sum()):
            finite = _finite_members(U) & _finite_members(f_curr)
            if not finite.all() and not retire(~finite, "diverged", t):
                return False
        if is_sample:
            sample(t)
            # The cutoff is the only reader of the energy.  A NaN energy is
            # not below the cutoff either.
            below = (U * U).reshape(len(U), -1) @ w <= ENERGY_BLOWUP_CUTOFF
            if not below.all() and not retire(~below, "diverged", t):
                return False
        return True

    f_curr = f_prev = None
    if not checked(t0, True):
        return results

    # Formed after the first source evaluation: before it, they slowed 3D picard steps.
    dt, scheme = cfg.dt, cfg.scheme
    step = _propagator(grid, p, dt, 1.0 if scheme == "imex1" else 0.5)
    norm = _h1_l2_norm(grid)
    for n in range(n_steps):
        t_next = t0 + (n + 1) * dt
        if scheme == "imex1":
            U = step(U, f_curr)
        elif scheme == "imex2":
            if n == 0:
                # Predictor-corrector startup keeps the global order at two.
                fhat = 0.5 * (f_curr + source(step(U, f_curr)))
            else:
                fhat = 1.5 * f_curr - 0.5 * f_prev
            U = step(U, fhat)
        else:
            U, its, converged = _picard_step(U, f_curr, step, norm, source)
            max_its[members] = np.maximum(max_its[members], its)
            if not converged.all() and not retire(~converged, "picard_failed", t_next):
                break

        is_sample = ((n + 1) % sample_every == 0) or (n + 1 == n_steps)
        if not checked(t_next, is_sample):
            break
    else:
        flush()
        final_t = t0 + n_steps * dt
        for j, m in enumerate(members):
            final = SimState(
                SpectralField(grid, U[j, 0].copy()), SpectralField(grid, U[j, 1].copy()), final_t
            )
            results[m] = _series(rows_of[m][:n_rows], Termination("completed"), final, max_its[m])
    return results
