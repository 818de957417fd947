"""Independent oracles and thin state-level readers for the test suite.

The oracles are deliberately written the slow, obvious way (direct
summation, dense quadrature, closed forms) and never call back into the
evaluation or integrator code paths they check.  The readers at the end
(``diagnostics``, ``acceleration`` and the ``L / E`` equivalence scan) are
the opposite: one-state views of exactly the code a run executes, so that
tests of the functionals and the acceleration check what runs use.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import strategies as st
from scipy.fft import dstn
from scipy.integrate import simpson

from blackstock import GammaWeights, Grid, SimState, SpectralField
from blackstock.dynamics import _source_operator
from blackstock.energy import DIAGNOSTIC_COLUMNS, instantaneous_diagnostics
from blackstock.integrate import TimeSeries


#: Largest modes per axis drawn for 1D, 2D and 3D property tests, so that
#: the direct-summation oracles stay fast.
PROPERTY_MAX_MODES = (12, 7, 5)


@st.composite
def random_grids(draw):
    """Grids in 1 to 3 dimensions with random, generally anisotropic boxes."""
    dim = draw(st.integers(1, 3))
    modes = tuple(draw(st.integers(4, PROPERTY_MAX_MODES[dim - 1])) for _ in range(dim))
    extents = tuple(draw(st.floats(0.25, 4.0)) for _ in range(dim))
    return Grid(extents=extents, modes=modes)


def direct_sine_sum(extents, coeffs, points):
    """Direct summation of a sine series at every point of a tensor grid.

    ``points`` holds the coordinates per axis.  Each value is the sum over the
    full mode multi-index of ``a_m prod_i sin(m_i pi x_i / L_i)``, with no
    per-axis factorisation.
    """
    coeffs = np.asarray(coeffs)
    x = np.stack([c.ravel() for c in np.meshgrid(*points, indexing="ij")], axis=1)
    m = np.array(list(np.ndindex(*coeffs.shape))) + 1
    basis = np.ones((len(x), len(m)))
    for i, L in enumerate(extents):
        basis *= np.sin(np.outer(x[:, i], m[:, i]) * np.pi / L)
    return (basis @ coeffs.ravel()).reshape(tuple(len(p) for p in points))


def gauss_product_projection(extents, a, b, n_quad=64):
    """Sine coefficients of the product of two sine series, by Gauss quadrature.

    ``(1 / prod_i (L_i / 2)) int a b phi_m`` for every retained mode ``m``,
    with ``n_quad`` Gauss-Legendre nodes per axis and the series summed
    directly at the nodes; the quadrature error is far below rounding for the
    small grids it is used on.
    """
    x, w = np.polynomial.legendre.leggauss(n_quad)
    points = [(x + 1.0) * L / 2.0 for L in extents]
    weights = [w * L / 2.0 for L in extents]
    f = direct_sine_sum(extents, a, points) * direct_sine_sum(extents, b, points)
    for L, N, pts, wts in zip(extents, np.shape(a), points, weights):
        # Contract the leading quadrature axis; the mode axis goes last.
        basis = np.sin(np.outer(pts, np.arange(1, N + 1)) * np.pi / L) * wts[:, None]
        f = np.tensordot(f, basis, axes=(0, 0)) * (2.0 / L)
    return f


def node_inner_product(grid, x, y):
    """``int x y`` by uniform quadrature on the collocation nodes.

    The nodes are ``j L_i / (N_i + 1)``, ``j = 1..N_i``, where the sine basis
    is the DST-I kernel; the weight ``prod_i L_i / (N_i + 1)`` integrates
    products of two retained basis functions exactly (discrete orthogonality).
    """
    values = [dstn(f.coeffs, type=1) / 2.0**grid.dim for f in (x, y)]
    weight = 1.0
    for L, N in zip(grid.extents, grid.modes):
        weight *= L / (N + 1)
    return float(np.sum(values[0] * values[1]) * weight)


def quadratic_source_oracle(extents, psi, v, c, k, sigma):
    """Sine coefficients of ``f = -2 k c^2 v Delta psi - 2 sigma grad psi . grad v``.

    Written in the gradient form: every field, partial derivative and the
    Laplacian is summed mode by mode at tensor Gauss-Legendre points, and the
    projection ``prod_i (2/L_i) int f prod_i sin(m_i pi x_i / L_i)`` is taken
    by the same quadrature.  With ``4 N + 20`` points per axis the rule is
    converged to rounding for the degree-``3N`` trigonometric integrands.
    """
    psi = np.asarray(psi)
    v = np.asarray(v)
    modes = psi.shape
    dim = len(modes)
    points, weights = [], []
    for L, N in zip(extents, modes):
        x, w = np.polynomial.legendre.leggauss(4 * N + 20)
        points.append((x + 1.0) * L / 2.0)
        weights.append(w * L / 2.0)
    grid_shape = tuple(len(x) for x in points)

    def factor(axis, m, derivative):
        kx = m * np.pi / extents[axis]
        if derivative:
            values = kx * np.cos(kx * points[axis])
        else:
            values = np.sin(kx * points[axis])
        shape = [1] * dim
        shape[axis] = grid_shape[axis]
        return values.reshape(shape)

    def basis(m_idx, derivative_axis=None):
        out = np.ones(grid_shape)
        for i in range(dim):
            out = out * factor(i, m_idx[i] + 1, i == derivative_axis)
        return out

    v_vals = np.zeros(grid_shape)
    lap_psi = np.zeros(grid_shape)
    grad_psi = [np.zeros(grid_shape) for _ in range(dim)]
    grad_v = [np.zeros(grid_shape) for _ in range(dim)]
    for m_idx in np.ndindex(*modes):
        phi = basis(m_idx)
        lam = -sum(((m_idx[i] + 1) * np.pi / extents[i]) ** 2 for i in range(dim))
        v_vals += v[m_idx] * phi
        lap_psi += psi[m_idx] * lam * phi
        for i in range(dim):
            dphi = basis(m_idx, derivative_axis=i)
            grad_psi[i] += psi[m_idx] * dphi
            grad_v[i] += v[m_idx] * dphi
    f = -2.0 * k * c**2 * v_vals * lap_psi
    for i in range(dim):
        f -= 2.0 * sigma * grad_psi[i] * grad_v[i]

    quad = np.ones(grid_shape)
    for i in range(dim):
        shape = [1] * dim
        shape[i] = grid_shape[i]
        quad = quad * (2.0 / extents[i]) * weights[i].reshape(shape)
    out = np.zeros(modes)
    for m_idx in np.ndindex(*modes):
        out[m_idx] = np.sum(f * quad * basis(m_idx))
    return out


def sine_projection_oracle(L, func, n_modes, n_quad=200001):
    """High-resolution quadrature of ``(2/L) int_0^L f(x) sin(m pi x / L) dx``."""
    x = np.linspace(0.0, L, n_quad)
    fx = func(x)
    out = np.empty(n_modes)
    for m in range(1, n_modes + 1):
        out[m - 1] = (2.0 / L) * simpson(fx * np.sin(m * np.pi * x / L), x=x)
    return out


def quadrature_norm_oracle(L, func, q, n_quad=200001):
    """High-resolution ``L^q`` norm of a function on ``(0, L)``."""
    x = np.linspace(0.0, L, n_quad)
    return simpson(np.abs(func(x)) ** q, x=x) ** (1.0 / q)


def modal_solution(lam, c, b, psi0, v0, t):
    """Closed-form solution of ``w'' = c^2 lam w + b lam w'`` with data (psi0, v0).

    Returns ``(w, w')`` at the requested times.  Handles the oscillatory,
    overdamped and critically damped branches of the characteristic roots
    ``s = (b lam +- sqrt(b^2 lam^2 + 4 c^2 lam)) / 2``.
    """
    t = np.asarray(t, dtype=float)
    disc = (b * lam) ** 2 + 4.0 * c * c * lam
    if abs(disc) < 1e-12 * max((b * lam) ** 2, 1.0):
        s = b * lam / 2.0
        alpha = psi0
        beta = v0 - s * psi0
        w = np.exp(s * t) * (alpha + beta * t)
        wp = np.exp(s * t) * (s * alpha + beta + s * beta * t)
        return w, wp
    if disc > 0:
        root = np.sqrt(disc)
        s1 = (b * lam + root) / 2.0
        s2 = (b * lam - root) / 2.0
        a1 = (v0 - s2 * psi0) / (s1 - s2)
        a2 = psi0 - a1
        w = a1 * np.exp(s1 * t) + a2 * np.exp(s2 * t)
        wp = a1 * s1 * np.exp(s1 * t) + a2 * s2 * np.exp(s2 * t)
        return w, wp
    sig = b * lam / 2.0
    om = np.sqrt(-disc) / 2.0
    A = psi0
    B = (v0 - sig * psi0) / om
    env = np.exp(sig * t)
    w = env * (A * np.cos(om * t) + B * np.sin(om * t))
    wp = env * (
        (sig * A + om * B) * np.cos(om * t) + (sig * B - om * A) * np.sin(om * t)
    )
    return w, wp


def zero_field(grid):
    """The zero field on a grid."""
    return SpectralField(grid, np.zeros(grid.modes))


def basis_field(grid, mode, amplitude=1.0):
    """``amplitude`` times the basis function of the 1-based multi-index ``mode``."""
    coeffs = np.zeros(grid.modes)
    coeffs[tuple(m - 1 for m in mode)] = amplitude
    return SpectralField(grid, coeffs)


def series_from_energy(t, E):
    """Minimal TimeSeries carrying only the t and E columns (for fit tests)."""
    return TimeSeries(("t", "E"), np.column_stack([t, E]).astype(float))


def diagnostics(state, p, g=GammaWeights(), source=None):
    """The diagnostics of one state by column name, from the table runs record.

    ``source`` is an optional source field, zero when omitted; ``psi_tt`` is
    formed from it as a run forms it.
    """
    f = np.zeros(state.grid.modes) if source is None else source.coeffs
    X = np.stack((state.psi.coeffs, state.v.coeffs, f))
    row = instantaneous_diagnostics(state.grid, state.time, X, p, g)
    return dict(zip(DIAGNOSTIC_COLUMNS, row.tolist()))


def acceleration(state, p, alpha=None):
    """``psi_tt = c^2 Delta psi + b Delta v + f``, formed as the diagnostics form it.

    A field ``alpha`` replaces ``v`` inside the quadratic products (the
    frozen-coefficient operator).
    """
    grid = state.grid
    psi, v = state.psi.coeffs, state.v.coeffs
    U = np.stack((psi, v if alpha is None else alpha.coeffs))
    source = _source_operator(grid, p)(U)
    return SpectralField(grid, grid.laplacian_eigenvalues * (p.c**2 * psi + p.b * v) + source)


def probe_states(grid, n_random=20):
    """Probe family of the equivalence scan.

    The first, middle and last modes with aligned, opposed and skewed
    ``(psi, v)`` amplitude pairs, plus seeded random coefficient pairs.
    """
    modes = dict.fromkeys([(1,) * grid.dim, tuple(N // 2 for N in grid.modes), grid.modes])
    pairs = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0), (1.0, -4.0), (4.0, -1.0))
    fields = [basis_field(grid, m) for m in modes]
    probes = [SimState(psi=a * e, v=b * e) for e in fields for a, b in pairs]
    rng = np.random.default_rng(0)
    for _ in range(n_random):
        psi, v = (SpectralField(grid, rng.standard_normal(grid.modes)) for _ in range(2))
        probes.append(SimState(psi=psi, v=v))
    return probes


def equivalence_scan(p, g, probes):
    """``(min, max)`` of ``L / E`` over nonzero probe states.

    ``L`` is equivalent to ``E`` on the probes when the minimum is positive.
    """
    if not probes:
        raise ValueError("probe state list is empty")
    grid = probes[0].grid
    X = np.zeros((3, len(probes)) + grid.modes)
    X[0], X[1] = [s.psi.coeffs for s in probes], [s.v.coeffs for s in probes]
    rows = instantaneous_diagnostics(grid, 0.0, X, p, g)
    E, L = (rows[:, DIAGNOSTIC_COLUMNS.index(name)] for name in ("E", "L"))
    if np.any(E <= 0):
        raise ValueError("probe states must be nonzero")
    return float(np.min(L / E)), float(np.max(L / E))


def calibrated_gammas(p, grid):
    """Halve ``gamma2`` and ``gamma3`` from the defaults, at most 20 times,
    until the scan's minimum is positive.

    Returns the weights and whether the scan passed.
    """
    g = GammaWeights()
    probes = probe_states(grid)
    for _ in range(20):
        if equivalence_scan(p, g, probes)[0] > 0:
            return g, True
        g = replace(g, gamma2=g.gamma2 / 2.0, gamma3=g.gamma3 / 2.0)
    return g, False
