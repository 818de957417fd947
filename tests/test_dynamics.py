"""Quadratic source, and the acceleration and frozen-coefficient operator built on it."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blackstock import (
    Grid,
    MediumParams,
    SimState,
    SpectralField,
    assemble_f,
    padded_field_values,
)

from .helpers import (
    acceleration,
    basis_field,
    quadratic_source_oracle,
    random_grids,
    sine_projection_oracle,
    zero_field,
)


@pytest.fixture
def g16():
    return Grid(extents=(np.pi,), modes=(16,))


def random_state(grid, seed):
    rng = np.random.default_rng(seed)
    return SimState(
        psi=SpectralField(grid, rng.standard_normal(grid.modes)),
        v=SpectralField(grid, rng.standard_normal(grid.modes)),
    )


class TestMediumParams:
    def test_defaults_valid(self):
        p = MediumParams()
        assert p.c == 1.0 and p.b == 1.0

    def test_negative_diffusivity_rejected(self):
        with pytest.raises(ValueError, match="sound diffusivity must be positive"):
            MediumParams(b=0.0)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError, match="sound speed must be positive"):
            MediumParams(c=-1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            MediumParams(k=np.nan)


class TestNonlinearAcceleration:
    def test_zero_state(self, g16):
        p = MediumParams(c=1, b=1, k=1, sigma=1)
        state = SimState(psi=zero_field(g16), v=zero_field(g16))
        assert np.all(acceleration(state, p).coeffs == 0.0)

    @pytest.mark.parametrize("b,k,sigma", [(1.0, 0.0, 0.0), (2.5, 3.0, -1.0)])
    def test_eigenfunction_with_zero_velocity(self, g16, b, k, sigma):
        # v = 0 kills every quadratic term; acceleration is c^2 Delta psi = -sin x.
        p = MediumParams(c=1.0, b=b, k=k, sigma=sigma)
        state = SimState(psi=basis_field(g16, (1,)), v=zero_field(g16))
        acc = acceleration(state, p)
        expected = np.zeros(16)
        expected[0] = -1.0
        assert np.allclose(acc.coeffs, expected, atol=1e-12)

    def test_pointwise_value_at_center(self):
        # psi = v = sin x, c = b = k = sigma = 1: the continuum acceleration is
        # -2 sin x - 2 cos 2x, which vanishes at x = pi/2.  The sigma term has a
        # nonzero boundary trace, so its sine projection converges pointwise at
        # O(1/N); check the oracle match exactly and the symbolic limit by rate.
        p = MediumParams(c=1, b=1, k=1, sigma=1)
        center_values = {}
        for N in (63, 127):
            g = Grid(extents=(np.pi,), modes=(N,))
            e1 = basis_field(g, (1,))
            acc = acceleration(SimState(psi=e1, v=e1), p)
            center_values[N] = np.sin(np.arange(1, N + 1) * np.pi / 2) @ acc.coeffs
            oracle = sine_projection_oracle(
                np.pi, lambda x: -2 * np.sin(x) - 2 * np.cos(2 * x), N
            )
            assert np.allclose(acc.coeffs, oracle, atol=1e-9)
        assert abs(center_values[63]) < 0.05
        assert abs(center_values[127]) < 0.6 * abs(center_values[63])

    def test_linear_in_state_when_quadratics_off(self, g16):
        p = MediumParams(c=1.3, b=0.7)
        s1 = random_state(g16, 1)
        s2 = random_state(g16, 2)
        combo = SimState(
            psi=SpectralField(g16, s1.psi.coeffs + 2.0 * s2.psi.coeffs),
            v=SpectralField(g16, s1.v.coeffs + 2.0 * s2.v.coeffs),
        )
        acc = acceleration(combo, p).coeffs
        parts = (
            acceleration(s1, p).coeffs
            + 2.0 * acceleration(s2, p).coeffs
        )
        assert np.allclose(acc, parts, atol=1e-12)


class TestAssembleF:
    def test_vanishes_without_nonlinearity(self, g16):
        p = MediumParams(c=2.0, b=0.5)
        state = random_state(g16, 3)
        assert np.all(assemble_f(state, p).coeffs == 0.0)

    def test_k_term_against_quadrature(self, g16):
        # psi = v = sin x, c = k = 1, sigma = 0: f = -2 sin x (-sin x) = 2 sin^2 x
        p = MediumParams(c=1, b=1, k=1, sigma=0)
        e1 = basis_field(g16, (1,))
        f = assemble_f(SimState(psi=e1, v=e1), p)
        oracle = sine_projection_oracle(np.pi, lambda x: 2 * np.sin(x) ** 2, 16)
        assert np.allclose(f.coeffs, oracle, atol=1e-10)

    def test_sigma_term_against_quadrature(self, g16):
        # psi = v = sin x, k = 0, sigma = 1: f = -2 cos^2 x
        p = MediumParams(c=1, b=1, k=0, sigma=1)
        e1 = basis_field(g16, (1,))
        f = assemble_f(SimState(psi=e1, v=e1), p)
        oracle = sine_projection_oracle(np.pi, lambda x: -2 * np.cos(x) ** 2, 16)
        assert np.allclose(f.coeffs, oracle, atol=1e-10)

    def test_decomposition_identity(self, g16):
        # acceleration = c^2 Delta psi + b Delta v + f, modewise, on random states
        p = MediumParams(c=1.7, b=0.9, k=0.8, sigma=-1.2)
        lam = g16.laplacian_eigenvalues
        for seed in range(100):
            state = random_state(g16, seed)
            acc = acceleration(state, p).coeffs
            linear = lam * (p.c**2 * state.psi.coeffs + p.b * state.v.coeffs)
            f = assemble_f(state, p).coeffs
            assert np.allclose(acc, linear + f, atol=1e-11)

    @given(
        grid=random_grids(),
        seed=st.integers(0, 2**32 - 1),
        c=st.floats(0.5, 2.0),
        k=st.floats(-2.0, 2.0),
        sigma=st.floats(-2.0, 2.0),
    )
    def test_matches_gradient_form_quadrature(self, grid, seed, c, k, sigma):
        # The gradient-free source against the gradient form summed and
        # projected by dense quadrature; both round at ~1e-14 of max |f|.
        rng = np.random.default_rng(seed)
        psi, v = rng.standard_normal((2,) + grid.modes)
        p = MediumParams(c=c, b=1.0, k=k, sigma=sigma)
        f = assemble_f(SimState(psi=SpectralField(grid, psi), v=SpectralField(grid, v)), p).coeffs
        oracle = quadratic_source_oracle(grid.extents, psi, v, c, k, sigma)
        assert np.max(np.abs(f - oracle)) <= 1e-12 * max(np.max(np.abs(oracle)), 1e-300)

    def test_2d_source(self):
        g = Grid(extents=(np.pi, np.pi), modes=(8, 8))
        p = MediumParams(c=1, b=1, k=1, sigma=0)
        e = basis_field(g, (1, 1))
        f = assemble_f(SimState(psi=e, v=e), p)
        # f = -2 v Delta psi = 4 sin^2 x sin^2 y; separable oracle
        o1 = sine_projection_oracle(np.pi, lambda x: np.sin(x) ** 2, 8)
        assert np.allclose(f.coeffs, 4.0 * np.outer(o1, o1), atol=1e-10)


class TestLinearizedAcceleration:
    def test_zero_alpha_is_linear_operator(self, g16):
        p = MediumParams(c=1.2, b=0.8, k=5.0, sigma=3.0)
        state = random_state(g16, 4)
        acc = acceleration(state, p, zero_field(g16)).coeffs
        lam = g16.laplacian_eigenvalues
        expected = lam * (p.c**2 * state.psi.coeffs + p.b * state.v.coeffs)
        assert np.allclose(acc, expected, atol=1e-12)

    def test_frozen_coefficient_term_against_quadrature(self, g16):
        # psi = sin x, v = 0, alpha = sin x, c = k = 1, sigma = 0:
        # output = c^2 Delta psi + 2 sin^2 x projected
        p = MediumParams(c=1, b=1, k=1, sigma=0)
        e1 = basis_field(g16, (1,))
        state = SimState(psi=e1, v=zero_field(g16))
        acc = acceleration(state, p, e1).coeffs
        source = sine_projection_oracle(np.pi, lambda x: 2 * np.sin(x) ** 2, 16)
        expected = source.copy()
        expected[0] -= 1.0
        assert np.allclose(acc, expected, atol=1e-10)


class TestBoundaryPreservation:
    def test_outputs_vanish_on_boundary(self, g16):
        p = MediumParams(c=1, b=1, k=2, sigma=-1)
        state = random_state(g16, 80)
        acc = acceleration(state, p)
        vals = padded_field_values(g16, acc.coeffs)
        assert vals[0] == 0.0 and vals[-1] == 0.0
