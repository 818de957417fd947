"""Numerical exercise of the interpolation inequalities and the nonlinear Gronwall bound.

The two interpolation ratios are

    agmon:          ||u||_inf / ( ||u||_H2^(d/4) ||u||_L2^(1-d/4) )
    interpolation:  ||u||_Lq  / ( ||u||_H1^theta ||u||_L2^(1-theta) ),
                    theta = d/2 - d/q,  q in {3, 4}

both invariant under scaling of ``u``.  ``max_ratios`` takes the observed
maximum of all three over one seeded family of random trigonometric
polynomials; an empirical constant is that maximum times
``CALIBRATION_SAFETY``.

The Gronwall check concerns continuous ``u >= 0`` satisfying

    u(t) <= c1 e^(a t) u(0) + c2 int_0^t e^(a (t-s)) u(s)^(1+kappa) ds

with ``c1 > 1``, ``c2, kappa > 0``, ``a < 0``.  Under the smallness condition

    a + (1 + 1/kappa) c2 2^kappa c1^kappa u(0)^kappa < 0

the conclusion is

    u(t) <= (1 + c2 c1^kappa u0^kappa
                 / (a kappa + (1+kappa) c2 2^kappa c1^kappa u0^kappa))
            c1 e^(a t) u0.

The verification trace is the extremal candidate starting from ``u0`` itself:
the solution of the Volterra equation with equality and unit homogeneous
factor, equivalently the Bernoulli equation ``u' = a u + c2 u^(1+kappa)``,
``u(0) = u0``.  That trace satisfies the hypothesis for any ``c1 >= 1``, so
the stated bound must dominate it.  (Starting the equality trace at
``c1 u0`` instead would place it above the bound at ``t = 0`` by
construction, which checks nothing.)  The trace is the exact solution
``u(t) = e^(a t) u0 (1 + (c2/a) u0^kappa (1 - e^(kappa a t)))^(-1/kappa)``,
whose base lies in (0, 1] since admissibility implies ``c2 u0^kappa < |a|``;
it is compared with the bound relatively, to a few ulps, at any scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import full_h_norm, norm
from .grid import Grid, SpectralField
from .integrate import StepConfig

__all__ = [
    "GronwallParams",
    "GronwallCheck",
    "agmon_ratio",
    "interpolation_ratio",
    "gronwall_verify",
    "random_trig_fields",
    "max_ratios",
    "random_admissible_gronwall",
]

#: Random fields have nonzero coefficients only up to this mode per axis, so
#: the family is the same on every grid that holds it.
MAX_MODE = 32

#: An empirical constant is the largest observed ratio times this factor.
CALIBRATION_SAFETY = 1.1


def agmon_ratio(u: SpectralField) -> float:
    """Observed constant of the sup-norm interpolation bound for one field."""
    l2 = norm(u, "L2")
    if l2 == 0.0:
        raise ValueError("agmon ratio is undefined for the zero field")

    d = u.grid.dim
    h2 = full_h_norm(u, 2)
    return norm(u, "Linf") / (h2 ** (d / 4.0) * l2 ** (1.0 - d / 4.0))


def interpolation_ratio(u: SpectralField, q: int) -> float:
    """Observed constant of the Lq interpolation bound, ``q`` in {3, 4}."""
    if q not in (3, 4):
        raise ValueError("q must be 3 or 4")
    l2 = norm(u, "L2")
    if l2 == 0.0:
        raise ValueError("interpolation ratio is undefined for the zero field")

    d = u.grid.dim
    theta = d / 2.0 - d / float(q)
    h1 = full_h_norm(u, 1)
    return norm(u, f"L{q}") / (h1**theta * l2 ** (1.0 - theta))


def random_trig_fields(grid: Grid, count: int, seed: int):
    """Seeded stream of random fields with i.i.d. standard-normal coefficients.

    Coefficients beyond ``MAX_MODE`` per axis stay zero.
    """
    rng = np.random.default_rng(seed)
    cut = tuple(min(N, MAX_MODE) for N in grid.modes)
    for _ in range(count):
        coeffs = np.zeros(grid.modes)
        block = tuple(slice(0, c) for c in cut)
        coeffs[block] = rng.standard_normal(cut)
        yield SpectralField(grid, coeffs)


def max_ratios(grid: Grid, count: int, seed: int) -> dict[str, float]:
    """Largest ratios over ``count`` random fields, each field drawn once.

    Keys ``agmon``, ``interpolation_q3`` and ``interpolation_q4``; every
    value is 0 when ``count`` is 0.
    """
    best = dict.fromkeys(("agmon", "interpolation_q3", "interpolation_q4"), 0.0)
    for u in random_trig_fields(grid, count, seed):
        ratios = (agmon_ratio(u), interpolation_ratio(u, 3), interpolation_ratio(u, 4))
        for key, r in zip(best, ratios):
            best[key] = max(best[key], r)
    return best


@dataclass(frozen=True)
class GronwallParams:
    """Parameters of the nonlinear Gronwall lemma; ``smallness < 0`` required."""

    c1: float
    c2: float
    kappa: float
    a: float
    u0: float

    def __post_init__(self):
        if not np.isfinite((self.c1, self.c2, self.kappa, self.a, self.u0)).all():
            raise ValueError("Gronwall parameters must be finite")
        if self.c1 <= 1:
            raise ValueError("c1 must exceed 1")
        if self.c2 < 0:
            raise ValueError("c2 must be nonnegative")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.a >= 0:
            raise ValueError("a must be negative")
        if self.u0 < 0:
            raise ValueError("u0 must be nonnegative")

    @property
    def smallness(self) -> float:
        """``a + (1 + 1/kappa) c2 2^kappa c1^kappa u0^kappa``; admissible iff < 0."""
        return self.a + (1.0 + 1.0 / self.kappa) * self.c2 * 2.0**self.kappa * (
            self.c1**self.kappa
        ) * self.u0**self.kappa

    @property
    def admissible(self) -> bool:
        return self.smallness < 0

    @property
    def bound_coefficient(self) -> float:
        """Constant multiplying ``e^(a t) u0`` in the conclusion."""
        denom = self.a * self.kappa + (1.0 + self.kappa) * self.c2 * (
            2.0**self.kappa
        ) * self.c1**self.kappa * self.u0**self.kappa
        return (1.0 + self.c2 * self.c1**self.kappa * self.u0**self.kappa / denom) * self.c1


@dataclass(frozen=True)
class GronwallCheck:
    times: np.ndarray
    trace: np.ndarray
    bound: np.ndarray
    ok: bool


def gronwall_verify(g: GronwallParams, T: float, dt: float = 1e-4) -> GronwallCheck:
    """Compare the exact extremal trace with the bound at the times ``0, dt, ..., T``.

    ``dt`` only spaces the samples; ``T`` must be a positive whole multiple
    of it (``ValueError`` otherwise), as for a run's final time.
    """
    if not g.admissible:
        raise ValueError(
            f"inadmissible Gronwall parameters: smallness value {g.smallness:.6g} >= 0"
        )
    n = StepConfig(dt=dt).steps_to(T)
    times = np.linspace(0.0, n * dt, n + 1)
    decay = np.exp(g.a * times)
    # 1 - e^(kappa a t) = -expm1(kappa a t), without cancellation at small t.
    base = 1.0 - (g.c2 / g.a) * g.u0**g.kappa * np.expm1(g.kappa * g.a * times)
    trace = decay * g.u0 * base ** (-1.0 / g.kappa)
    bound = g.bound_coefficient * decay * g.u0
    # Relative, to a few ulps of rounding: no absolute slack.
    ok = bool(np.all(trace <= bound * (1.0 + 4.0 * np.finfo(float).eps)))
    return GronwallCheck(times=times, trace=trace, bound=bound, ok=ok)


def random_admissible_gronwall(count: int, seed: int = 7) -> list[GronwallParams]:
    """Seeded admissible parameter draws, comfortably inside the smallness regime.

    ``u0`` is drawn as a fraction beta <= 0.4 of the critical amplitude
    ``u* = (|a| / ((1 + 1/kappa) c2 2^kappa c1^kappa))^(1/kappa)`` with
    ``c1 >= 1.5`` and ``kappa >= 1``; near the smallness boundary (and for
    ``c1`` close to 1 or small ``kappa``) the stated conclusion constant
    degenerates and asserts nothing.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        c1 = rng.uniform(1.5, 4.0)
        c2 = rng.uniform(0.25, 4.0)
        kappa = rng.uniform(1.0, 2.0)
        a = -rng.uniform(0.25, 4.0)
        beta = rng.uniform(0.05, 0.4)
        u_crit = (
            -a / ((1.0 + 1.0 / kappa) * c2 * 2.0**kappa * c1**kappa)
        ) ** (1.0 / kappa)
        out.append(GronwallParams(c1=c1, c2=c2, kappa=kappa, a=a, u0=beta * u_crit))
    return out
