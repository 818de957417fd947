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

*State layout.*  The live states and their sources are one array
``X[(psi, v, f), member, *modes]``, the layout of the run loop, the picard
iteration and the diagnostics alike, so a finiteness test of both, a sample
and the removal of ended members each cost one array operation, and the
energy ``(U U) . w`` (:func:`blackstock.energy.energy_weights`) two.  The
run's one propagator is the tensor ``(A, B, Q)``, applied to all of ``X`` by
one ``einsum`` that broadcasts over the member axis, and the source is the
run's source operator (:func:`blackstock.dynamics._source_operator`, which
forms the Laplacian scalings once), evaluated on the whole live batch at
once.  The scheme and the propagator are resolved once per run.

*Work arrays.*  Each run allocates its arrays once, sized for its batch:
``X`` and a second such array that a step writes the next states into (the
two swap: an ``out`` that overlapped an operand would make numpy copy), the
energy's squares and a block of samples; the source operator keeps its own.
imex2's ``X`` has a fourth plane, ``h = 0.5 f`` of the previous step, which
holds no value at the start time.  The source writes ``f`` into ``X``, and
imex2 writes its extrapolated source over it once it has kept ``0.5 f`` in
the next array's ``h``, so the ``einsum`` reads the source it applies.
When members end, the survivors (``h`` included) move to the front in place
and later steps use leading views, so they cost only the survivors.  An imex
step costs a fixed number of array operations whatever the batch size, and
allocates nothing: on a 1D grid, 13 for an ``imex2`` step, 8 of them in the
source.  The source is evaluated and checked once at every new state, for
every scheme.  A ``picard`` step iterates from it on arrays of each
iteration's own and does not write ``X``; a member converges only on an
update of finite norm, and is then frozen.  ``SimState`` objects are built
only for the final states of the members that complete, from copies.

*Per-member termination.*  Each member ends on its own, with its own
``Termination``: a non-finite state, a non-finite source or an energy above
``ENERGY_BLOWUP_CUTOFF`` is ``diverged``, an iteration that does not converge
is ``picard_failed``.  The initial state takes the checks of a sample, so a
member that starts out of bounds ends at the start time without a step.
Each step tests the state and the source of the whole batch at once: the sum
of their entries is finite only when every entry is.  Only when the sum is
not finite are the members looked at one by one; a sum of finite entries
that overflows sends the test there too, and every member passes.  The
energy is formed only at samples, where the cutoff reads it.

*Blocks of samples.*  A sample copies ``X[:3]`` and its time into a block
preallocated for about ``_BLOCK_COEFFICIENTS`` state coefficients.  One
:func:`blackstock.energy.instantaneous_diagnostics` call, with the sample
times as a column, maps the block's states and sources to rows when it is
full, before any member retires, and at the end of the run; it forms
``psi_tt`` itself.  The rows are those of one call per sample, bit for bit.

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
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
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
    Returns the map ``step(X, out=None)`` of states and sources stacked
    field-major, ``X[(psi, v, f), member, *modes]``, to the next states
    ``[(psi, v), member, *modes]``, written into ``out`` when given (it must
    not overlap ``X``): one ``einsum`` with the tensor ``(A, B, Q)`` of shape
    ``(2, 3, *modes)``, whose sum over its second axis is ``(A psi + B v) +
    Q f`` in that order.
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
    return lambda X, out=None: np.einsum("ij...,jm...->im...", T, X, out=out)


def _h1_l2_norm(grid: Grid):
    # Picard's contraction test: the discrete H1 x L2 norm of each member of
    # U[(psi, v), member, *modes], its squares formed member by member.
    lam = grid.laplacian_eigenvalues.ravel()
    w = grid.coeff_weight * np.concatenate((1.0 - lam, np.ones_like(lam)))

    def norm(U: np.ndarray) -> np.ndarray:
        Um = U.swapaxes(0, 1)
        return np.sqrt(np.multiply(Um, Um, order="C").reshape(len(Um), -1) @ w)

    return norm


def _finite_members(a: np.ndarray) -> np.ndarray:
    # Per member (second axis): every entry is finite.
    return np.isfinite(a).all(axis=(0, *range(2, a.ndim)))


def _planes(X: np.ndarray) -> tuple[np.ndarray, ...]:
    # X[(psi, v, f[, h]), member, *modes] with views of it: the states and
    # sources (as the propagator and the checks read them), the states (as
    # the propagator writes them and the source reads them), the states
    # member by member (as the energy reads them), the sources and imex2's h.
    return X, X[:3], X[:2], X[:2].swapaxes(0, 1), X[2], X[-1]


# Overflow and invalid values in a failing iterate are expected: the finiteness
# tests act on what they leave.
@np.errstate(over="ignore", invalid="ignore")
def _picard_step(
    X: np.ndarray, out: np.ndarray, step, norm, source
) -> tuple[np.ndarray, np.ndarray]:
    """One picard step of every member of ``X[(psi, v, f), member, *modes]``.

    ``X`` holds the step-start states and their sources and is not written;
    ``step`` is the run's trapezoid propagator (:func:`_propagator`), ``norm``
    its contraction norm (:func:`_h1_l2_norm`) and ``source`` its source
    operator (:func:`blackstock.dynamics._source_operator`).  Each iteration
    makes its own arrays.  Writes the new states of the members that converge
    into ``out[:2]`` and returns each member's iteration count and a mask of
    those members.  A member converges when the norm of its update is finite
    and within ``PICARD_TOL`` of its iterate's, and is then frozen.  The
    others failed: an iterate was not finite (counted at that iteration) or
    the budget ran out.
    """
    n = X.shape[1]
    its = np.full(n, PICARD_MAX_ITER)
    converged = np.zeros(n, dtype=bool)
    # The members still iterating: their indices in X, their iterates (the
    # first is the trapezoid step with the source frozen at the step start)
    # and their step-start data.
    idx, U, X_0 = np.arange(n), step(X), X
    for it in range(1, PICARD_MAX_ITER + 1):
        # A sum is finite only when every entry is.
        if not math.isfinite(U.sum()):
            finite = _finite_members(U)
            its[idx[~finite]] = it
            if not finite.any():
                break
            idx, U, X_0 = idx[finite], U[:, finite], X_0[:, finite]
        g = 0.5 * (X_0[2] + source(U))
        U_prev, U = U, step(np.concatenate((X_0[:2], g[None])))
        update = norm(U - U_prev)
        # An update whose norm overflows has not contracted, however large U.
        done = (update <= PICARD_TOL * np.maximum(norm(U), 1e-300)) & np.isfinite(update)
        if done.any():
            out[:2, idx[done]] = U[:, done]
            its[idx[done]] = it
            converged[idx[done]] = True
            if done.all():
                break
            idx, U, X_0 = idx[~done], U[:, ~done], X_0[:, ~done]
    return its, converged


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
    dt, scheme = cfg.dt, cfg.scheme
    source = _source_operator(grid, p)
    step = _propagator(grid, p, dt, 1.0 if scheme == "imex1" else 0.5)
    norm = _h1_l2_norm(grid)
    results: list[TimeSeries | None] = [None] * n_members
    max_its = np.zeros(n_members, dtype=int)
    w = energy_weights(grid, p)

    # The run's work arrays, sized for the whole batch.  The live members
    # lead their member axes, and ``members`` maps them to positions in
    # ``initials``.  The states and their sources live in X[(psi, v, f[, h]),
    # member, *modes] (see _planes); a step writes the next states into
    # another such array, and the two swap.  ``square`` takes U U for the
    # energy cutoff.
    members = np.arange(n_members)
    planes = 4 if scheme == "imex2" else 3
    cur, nxt = (_planes(X) for X in np.empty((2, planes, n_members) + grid.modes))
    for j, state in enumerate(initials):
        cur[3][j] = state.psi.coeffs, state.v.coeffs
    square = np.empty((n_members, 2) + grid.modes)
    n_rows_max = 1 + -(-n_steps // sample_every)
    rows_of = [np.empty((n_rows_max, len(SERIES_COLUMNS))) for _ in initials]
    n_rows = 0
    # The samples not yet mapped to rows: copies of X[:3] in a block that holds
    # samples of about _BLOCK_COEFFICIENTS state coefficients, and their
    # times.  Such a block of more than one sample is less than twice that.
    block_memory = np.empty(3 * 2 * _BLOCK_COEFFICIENTS)
    times = np.empty(-(-_BLOCK_COEFFICIENTS // n_coeffs))
    n_block = 0

    def block_for(n: int) -> np.ndarray | None:
        # The block of samples of n live members, or None when it would hold
        # one sample: that is mapped from X itself, as it is taken.
        samples = -(-_BLOCK_COEFFICIENTS // (n * n_coeffs))
        if samples == 1:
            return None
        return block_memory[: 3 * samples * n * n_coeffs].reshape((3, samples, n) + grid.modes)

    block = block_for(n_members)

    def flush() -> None:
        # Map the block to rows with one diagnostics call.
        nonlocal n_rows, n_block
        if not n_block:
            return
        X_b = cur[1][:, None] if block is None else block[:, :n_block]
        rows = instantaneous_diagnostics(grid, times[:n_block, None], X_b, p, g)
        end = n_rows + n_block
        for j, m in enumerate(members):
            rows_of[m][n_rows:end, : rows.shape[-1]] = rows[:, j]
        n_rows, n_block = end, 0

    def retire(leaving: np.ndarray, kind: str, t: float) -> bool:
        # End the runs of the live members in the mask ``leaving`` and move
        # the others to the front of the work arrays; False when no member
        # is left.
        nonlocal members, cur, nxt, square, block
        flush()
        for j in np.flatnonzero(leaving):
            m = members[j]
            results[m] = _series(rows_of[m][:n_rows], Termination(kind, t), None, max_its[m])
        keep = ~leaving
        members = members[keep]
        n = members.size
        if not n:
            return False
        cur[0][:, :n] = cur[0][:, keep]
        cur, nxt = _planes(cur[0][:, :n]), _planes(nxt[0][:, :n])
        square, block = square[:n], block_for(n)
        return True

    def checked(t: float, is_sample: bool) -> bool:
        # Evaluate the source of the new state at ``t`` into X and check both.
        # A member with a non-finite state or source ends there without a
        # row; one whose energy is above the cutoff at a sample ends with
        # that row as its last.  False when no member is left.  Nothing here
        # reads imex2's fourth plane, which holds no value at the start time.
        nonlocal n_block
        _, fields, states, U, f, _ = cur
        source(states, out=f)
        # One test of the batch: the sum is finite only when every entry is.
        # A sum of finite entries that overflows only sends the test to the
        # members, which all pass it.
        if not math.isfinite(fields.sum()):
            finite = _finite_members(fields)
            if not finite.all():
                if not retire(~finite, "diverged", t):
                    return False
                _, fields, _, U, _, _ = cur
        if is_sample:
            times[n_block] = t
            if block is not None:
                np.copyto(block[:, n_block], fields)
            n_block += 1
            if block is None or n_block == block.shape[1]:
                flush()
            # The cutoff is the only reader of the energy.  A NaN energy is
            # not below the cutoff either.
            np.multiply(U, U, out=square)
            below = square.reshape(len(U), -1) @ w <= ENERGY_BLOWUP_CUTOFF
            if not below.all() and not retire(~below, "diverged", t):
                return False
        return True

    if not checked(t0, True):
        return results

    for n in range(n_steps):
        t_next = t0 + (n + 1) * dt
        _, fields, _, _, f, h = cur
        X_next, _, states_next, _, f_next, h_next = nxt
        if scheme == "picard":
            its, converged = _picard_step(fields, X_next, step, norm, source)
        else:
            if scheme == "imex2":
                # The source applied is written over f in X, once 0.5 f is
                # kept in the next step's h.
                np.multiply(f, 0.5, out=h_next)
                if n == 0:
                    # Predictor-corrector startup keeps the global order at two.
                    step(fields, out=states_next)
                    np.add(f, source(states_next, out=f_next), out=f)
                    f *= 0.5
                else:
                    # 1.5 f - 0.5 f_prev.
                    f *= 1.5
                    f -= h
            step(fields, out=states_next)
        cur, nxt = nxt, cur
        if scheme == "picard":
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
            psi, v = cur[3][j]
            final = SimState(
                SpectralField(grid, psi.copy()), SpectralField(grid, v.copy()), final_t
            )
            results[m] = _series(rows_of[m][:n_rows], Termination("completed"), final, max_its[m])
    return results
