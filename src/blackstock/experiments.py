"""Decay-rate fitting, blow-up threshold mapping and the rough-data study.

``fit_decay`` turns a sampled energy series into a rate: the least-squares
slope of ``log E(t)`` over a window.  A run is classified ``diverges`` when
it did not complete (it diverged or its picard iteration failed), ``decays``
when the fitted rate is positive and the fitted drop of ``log E`` across the
window exceeds the band of the fit residuals, and ``stagnates`` otherwise.  The residual band, not
``r^2``, is the test because an underdamped mode rings around its decaying
envelope: the energy of the fundamental on the pi box with ``c = b = 1`` has
``r^2 ~ 0.981`` over (5, 15) for the exact solution, yet falls by ``e^-10``.

``threshold_bisection`` brackets the amplitude ``delta*`` separating decaying
from diverging runs for a given medium and initial-data shape; blow-up is
operationalized by the simulator's divergence classifier, so ``delta*`` is an
empirical, scheme-level quantity reported with its bracket.  Each round of
the search probes the dyadic interior points of the bracket as one batch
through :func:`blackstock.integrate.simulate_batch`, up to short horizons
where the points above ``delta*`` diverge, then runs the survivors to the
end from the highest down, up to the first that decays.

``weighted_regularity_study`` probes the parabolic smoothing of rough initial
velocity: for data whose ``||Delta psi_1||`` diverges under refinement, the
unweighted supremum ``sup_t ||Delta psi_t||`` grows with resolution while the
time-weighted supremum ``sup_t sqrt(t) ||Delta psi_t||`` stays put.

Each result is a frozen dataclass whose fields are the keys of its report
file: the command-line runner writes ``dataclasses.asdict`` of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import MediumParams
from .fields import InitialDataSpec, build_initial, norm
from .grid import Grid
from .integrate import StepConfig, TimeSeries, simulate, simulate_batch

__all__ = [
    "DecayFit",
    "ThresholdReport",
    "RegularityStudy",
    "fit_decay",
    "threshold_bisection",
    "weighted_regularity_study",
]

#: Rates below this are treated as stagnation.
MIN_DECAY_RATE = 1e-3


@dataclass(frozen=True)
class DecayFit:
    """Fitted exponential rate of an energy series.

    ``classification`` is ``decays``, ``stagnates`` or ``diverges`` (see
    ``fit_decay``); ``r_squared`` reports the fit quality but does not gate it.
    ``c_factor`` is the fitted intercept ratio ``exp(intercept) / E(first
    sample)``, the empirical constant in front of the decay law.
    """

    zeta: float
    window: tuple[float, float]
    r_squared: float
    classification: str
    c_factor: float = float("nan")


def fit_decay(series: TimeSeries, window: tuple[float, float] | None = None) -> DecayFit:
    """Least-squares fit of ``log E(t)`` over a window of a completed series.

    A series that did not complete ``diverges``, with rate 0 and the window
    ``(0, end time)``.  The default window ``(T/4, 3T/4)``, ``T`` the last
    sample time, skips the initial transient.  The series ``decays`` when
    the fitted rate ``zeta`` exceeds ``MIN_DECAY_RATE`` and the fitted drop
    ``zeta * (hi - lo)`` across the window exceeds the residual band
    ``max(resid) - min(resid)``: the trend dominates any bounded ring or
    noise around it.  Otherwise it ``stagnates``.  The rule does not
    separate algebraic from exponential decay: a ``1/t`` tail over (5, 15)
    also ``decays``.
    """
    if not series.termination.completed:
        t_end = series.termination.time or 0.0
        return DecayFit(
            zeta=0.0,
            window=(0.0, t_end),
            r_squared=0.0,
            classification="diverges",
        )
    t = series.column("t")
    if window is None:
        T = float(t[-1])
        window = (T / 4.0, 3.0 * T / 4.0)
    lo, hi = float(window[0]), float(window[1])
    if lo >= hi:
        raise ValueError("fit window must have positive length")
    if lo < t[0] - 1e-12 or hi > t[-1] + 1e-12:
        raise ValueError(
            f"fit window ({lo}, {hi}) lies outside the sampled range ({t[0]}, {t[-1]})"
        )
    mask = (t >= lo) & (t <= hi)
    if np.count_nonzero(mask) < 3:
        raise ValueError("fit window contains fewer than 3 samples")
    E = series.column("E")[mask]
    if np.any(E <= 0):
        raise ValueError("energy must be positive inside the fit window")
    tt = t[mask]
    logE = np.log(E)
    design = np.vstack([tt, np.ones_like(tt)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, logE, rcond=None)
    resid = logE - design @ np.array([slope, intercept])
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((logE - logE.mean()) ** 2))
    r2 = 1.0 if ss_tot <= 1e-28 else 1.0 - ss_res / ss_tot
    zeta = -float(slope)
    E0 = float(series.column("E")[0])
    c_factor = float(np.exp(intercept) / E0) if E0 > 0 else float("nan")
    if zeta > MIN_DECAY_RATE and zeta * (hi - lo) > float(np.ptp(resid)):
        classification = "decays"
    else:
        classification = "stagnates"
    return DecayFit(
        zeta=max(zeta, 0.0) if classification != "decays" else zeta,
        window=(lo, hi),
        r_squared=r2,
        classification=classification,
        c_factor=c_factor,
    )


#: A round probes its interior points as one batch of at most this many
#: members x state coefficients: 255 members at N=64, 127 at N=128, 15 on a
#: 32^2 grid and one on a 32^3 grid.  It bounds the memory of that batch (its
#: states, sources and their temporaries), which is all that limits a round.
#: The run loop evaluates the source of the whole batch at once, so this is
#: also the only bound on the source operator's work arrays, held for the
#: run: six padded fields per member, about 1.6 MB at 255 members of N=64.
_ROUND_COEFFICIENTS = 2**14


@dataclass(frozen=True)
class ThresholdReport:
    """Bracket of the empirical small-data threshold.

    ``runs`` lists every classified amplitude, in order of classification
    (survivors below one that decays are not); ``round_widths`` the number
    of halvings each round made; ``sample_every`` the sampling the search
    ran with.  ``contradictions`` are the runs whose class contradicts the
    bracket, a ``diverges`` at or below ``amplitude_lo`` or a ``decays`` at
    or above ``amplitude_hi``: where the classification is not monotone in
    the amplitude, the bracket need not hold ``delta*``.

    The bracket belongs to the scheme and step size as much as to the PDE:
    at coarse ``dt`` the schemes diverge at lower amplitudes than the exact
    flow.  On the unit-box mode-1 setup (N=64, c=b=k=sigma=1, T=20), imex2
    at ``dt = 2e-3`` brackets ``(3.745, 3.769)``, while the ``dt``-converged
    threshold lies in ``(10, 11)`` at N=64.  The bracket depends on N too: at
    N=128 and N=256, imex1 at ``dt <= 2.5e-4`` brackets ``(9, 9.5)``.
    """

    amplitude_lo: float
    amplitude_hi: float
    delta_star: float
    sample_every: int
    runs: tuple[tuple[float, str], ...]
    round_widths: tuple[int, ...]
    contradictions: tuple[tuple[float, str], ...]


def _dyadic_points(lo: float, hi: float, halvings: int) -> list[float]:
    # lo + j (hi - lo) / 2^halvings for j = 0 .. 2^halvings, by repeated
    # midpoints: the very floats that bisection from (lo, hi) visits.
    points = [lo, hi]
    for _ in range(halvings):
        mids = [0.5 * (a + b) for a, b in zip(points, points[1:])]
        points = [x for pair in zip(points, mids) for x in pair] + [hi]
    return points


def threshold_bisection(
    p: MediumParams,
    specs: tuple[InitialDataSpec, InitialDataSpec],
    lo: float,
    hi: float,
    iters: int,
    *,
    grid: Grid,
    T: float = 20.0,
    cfg: StepConfig | None = None,
    sample_every: int = 10,
    window: tuple[float, float] | None = None,
) -> ThresholdReport:
    """Narrow the amplitude multiplier between decay and divergence by ``2^iters``.

    The shape specs carry unit-scale amplitudes; each trial multiplier scales
    them.  The endpoints must straddle the dichotomy or the bracketing
    precondition fails (for a linear medium every amplitude decays, and the
    error says so).  ``hi`` runs first and alone, so that unbracketed
    endpoints cost two runs.  Each round takes the ``2^b - 1`` dyadic
    interior points of the bracket (``b`` the halvings left, at most
    ``_ROUND_COEFFICIENTS`` in all) and

    * probes them as one batch to horizons of 1, 2, 4, ... sample intervals,
      prefixes of their full runs; a point that diverges there ``diverges``.
      The probe stops at the first horizon at which none diverged, once it
      is twice the latest divergence time seen in the search;
    * runs the survivors to ``T``, highest first and one at a time, up to
      the first that decays.  It and the next point up are the new bracket
      (``lo`` and the lowest point when none decays).

    ``lo``, which must decay, runs along with the first survivor that runs to
    ``T``, or alone at the end of the search when there is none.

    When the classification is monotone in the amplitude, which the bracket
    assumes anyway, the result is exactly the bracket of ``iters`` bisections.
    """
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    if iters < 0:
        raise ValueError(f"iters must be nonnegative, got {iters}")
    cfg = cfg or StepConfig(dt=1e-3, scheme="imex2")
    n_steps = cfg.steps_to(T)
    # The most halvings b whose 2^b - 1 points fit in _ROUND_COEFFICIENTS.
    max_halvings = max(1, (_ROUND_COEFFICIENTS // math.prod(grid.modes) + 1).bit_length() - 1)
    runs: list[tuple[float, str]] = []
    widths: list[int] = []
    latest = 0.0  # the latest divergence time seen in the search

    def run(amplitudes: list[float], horizon: float) -> list[TimeSeries]:
        # The shape specs scaled by each amplitude, run to ``horizon`` as one batch.
        nonlocal latest
        states = [
            build_initial(
                *(replace(s, amplitudes=tuple(x * a for x in s.amplitudes)) for s in specs), grid
            )
            for a in amplitudes
        ]
        series = simulate_batch(states, horizon, cfg, p, sample_every=sample_every)
        ends = [s.termination.time for s in series if not s.termination.completed]
        latest = max([latest] + ends)
        return series

    def classify(amplitudes: list[float]) -> list[str]:
        classes = [fit_decay(s, window).classification for s in run(amplitudes, T)]
        runs.extend(zip(amplitudes, classes))
        return classes

    [c_hi] = classify([hi])
    ends, with_lo = (lo, hi), [lo]  # lo runs with the first run to T after hi's
    while iters > 0 and c_hi == "diverges":
        b = min(iters, max_halvings)
        points = _dyadic_points(lo, hi, b)
        # Probe: the points that diverge within a short horizon leave.
        survivors, k = points[1:-1], 1
        while survivors and k * sample_every < n_steps:
            horizon = k * sample_every * cfg.dt
            diverged = [not s.termination.completed for s in run(survivors, horizon)]
            runs.extend((a, "diverges") for a, d in zip(survivors, diverged) if d)
            survivors = [a for a, d in zip(survivors, diverged) if not d]
            if not any(diverged) and horizon >= 2 * latest:
                break
            k *= 2
        # Descend: the highest survivor that decays and the point above it.
        j = 0
        for a in reversed(survivors):
            *_, c = classify(with_lo + [a])
            with_lo = []
            if c == "decays":
                j = points.index(a)
                break
        lo, hi = points[j], points[j + 1]
        widths.append(b)
        iters -= b
    c_lo = classify(with_lo)[0] if with_lo else dict(runs)[ends[0]]
    if not (c_lo == "decays" and c_hi == "diverges"):
        raise ValueError(
            "unbracketed endpoints: "
            f"classification(lo={ends[0]}) = {c_lo}, classification(hi={ends[1]}) = {c_hi}"
        )
    return ThresholdReport(
        amplitude_lo=lo,
        amplitude_hi=hi,
        delta_star=0.5 * (lo + hi),
        sample_every=sample_every,
        runs=tuple(runs),
        round_widths=tuple(widths),
        contradictions=tuple(
            (a, c) for a, c in runs if (c == "diverges" and a <= lo) or (c == "decays" and a >= hi)
        ),
    )


#: Pass thresholds of the rough-data study (see ``weighted_regularity_study``).
UNWEIGHTED_GROWTH_MIN = 1.5
WEIGHTED_CHANGE_MAX = 0.1


@dataclass(frozen=True)
class RegularityStudy:
    """Resolution scan of the unweighted and time-weighted ``||Delta psi_t||`` suprema."""

    resolutions: tuple[int, ...]
    sup_lap_v: tuple[float, ...]
    sup_weighted_lap_v: tuple[float, ...]
    unweighted_growth: float
    weighted_change: float
    passed: bool


def weighted_regularity_study(
    p: MediumParams,
    resolutions,
    T: float,
    dt: float,
    *,
    extent: float = np.pi,
    spec1: InitialDataSpec | None = None,
) -> RegularityStudy:
    """Run the rough-data refinement study in one dimension.

    ``psi_0 = 0``; ``psi_1`` defaults to a power-law field with exponent 2
    (in H1 but not H2) of small amplitude.  Every run steps with the
    L-stable ``imex1`` scheme: the trapezoidal rule of the others rings
    through the stiff startup layer that this study watches.  Every step is
    sampled: the suprema are taken over all of them.

    ``resolutions`` must be strictly increasing, and the suprema at the
    first must not vanish (``ValueError`` otherwise).
    The study passes when the unweighted supremum grows by at least
    ``UNWEIGHTED_GROWTH_MIN`` from the coarsest to the finest resolution
    while the weighted supremum changes by at most ``WEIGHTED_CHANGE_MAX``.
    """
    spec1 = spec1 or InitialDataSpec.power_law(2.0, 0.01)
    resolutions = tuple(int(N) for N in resolutions)
    if not resolutions or any(a >= b for a, b in zip(resolutions, resolutions[1:])):
        raise ValueError(f"resolutions must be strictly increasing, got {resolutions}")
    sup_u: list[float] = []
    sup_w: list[float] = []
    for N in resolutions:
        grid = Grid(extents=(extent,), modes=(N,))
        state = build_initial(InitialDataSpec.zero(), spec1, grid)
        series = simulate(state, T, StepConfig(dt=dt, scheme="imex1"), p)
        if series.termination.kind != "completed":
            raise RuntimeError(
                f"study run diverged at resolution N={N} "
                f"(t={series.termination.time})"
            )
        t = series.column("t")
        w_lap = series.column("w_lap_vt")
        with np.errstate(divide="ignore", invalid="ignore"):
            unweighted = np.where(t > 0, w_lap / np.sqrt(np.where(t > 0, t, 1.0)), 0.0)
        unweighted[0] = norm(state.v, "H2lap")
        sup_u.append(float(np.max(unweighted)))
        sup_w.append(float(np.max(w_lap)))
    if sup_u[0] == 0 or sup_w[0] == 0:
        raise ValueError(f"the suprema vanish at the first resolution N={resolutions[0]}")
    growth = sup_u[-1] / sup_u[0]
    change = abs(sup_w[-1] - sup_w[0]) / sup_w[0]
    passed = growth >= UNWEIGHTED_GROWTH_MIN and change <= WEIGHTED_CHANGE_MAX
    return RegularityStudy(
        resolutions=resolutions,
        sup_lap_v=tuple(sup_u),
        sup_weighted_lap_v=tuple(sup_w),
        unweighted_growth=float(growth),
        weighted_change=float(change),
        passed=passed,
    )
