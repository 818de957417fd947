"""Norms, state invariants and initial-data generators."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blackstock import (
    Grid,
    InitialDataSpec,
    SimState,
    SpectralField,
    build_initial,
    full_h_norm,
    max_ratios,
    norm,
    random_trig_fields,
)
from blackstock.fields import LINF_REFINEMENT
from blackstock.inequalities import CALIBRATION_SAFETY

from .helpers import (
    basis_field,
    direct_sine_sum,
    quadrature_norm_oracle,
    random_grids,
    zero_field,
)


@pytest.fixture
def g64():
    return Grid(extents=(np.pi,), modes=(64,))


@pytest.fixture
def sin1(g64):
    return basis_field(g64, (1,))


class TestNorms:
    def test_l2_of_sin(self, sin1):
        assert norm(sin1, "L2") == pytest.approx(np.sqrt(np.pi / 2), rel=1e-13)

    def test_h1_h2_of_eigenfunction(self, sin1):
        # eigenvalue -1: both seminorms coincide with the L2 norm
        assert norm(sin1, "H1semi") == pytest.approx(np.sqrt(np.pi / 2), rel=1e-13)
        assert norm(sin1, "H2lap") == pytest.approx(np.sqrt(np.pi / 2), rel=1e-13)

    def test_l4_of_sin(self, sin1):
        expected = (3 * np.pi / 8) ** 0.25
        assert norm(sin1, "L4") == pytest.approx(expected, rel=1e-12)
        oracle = quadrature_norm_oracle(np.pi, np.sin, 4)
        assert norm(sin1, "L4") == pytest.approx(oracle, rel=1e-10)

    def test_l3_matches_quadrature_oracle(self, g64):
        coeffs = np.zeros(g64.modes)
        coeffs[[0, 2]] = 1.0, 0.3
        field = SpectralField(g64, coeffs)
        oracle = quadrature_norm_oracle(
            np.pi, lambda x: np.sin(x) + 0.3 * np.sin(3 * x), 3
        )
        assert norm(field, "L3") == pytest.approx(oracle, rel=1e-6)

    def test_linf_of_sin(self, sin1):
        assert norm(sin1, "Linf") == pytest.approx(1.0, abs=1e-12)

    @given(grid=random_grids(), seed=st.integers(0, 2**32 - 1))
    def test_linf_matches_direct_summation_at_refined_nodes(self, grid, seed):
        # The interior points j L / (LINF_REFINEMENT (N + 1)) of every axis.
        coeffs = np.random.default_rng(seed).standard_normal(grid.modes)
        points = []
        for L, N in zip(grid.extents, grid.modes):
            K = LINF_REFINEMENT * (N + 1)
            points.append(np.arange(1, K) * L / K)
        direct = np.max(np.abs(direct_sine_sum(grid.extents, coeffs, points)))
        assert abs(norm(SpectralField(grid, coeffs), "Linf") - direct) <= 1e-13 * direct

    def test_unknown_kind(self, sin1):
        with pytest.raises(ValueError, match="unknown norm kind"):
            norm(sin1, "H3")

    def test_full_h2_of_sin(self, sin1):
        assert full_h_norm(sin1, 2) == pytest.approx(np.sqrt(3 * np.pi / 2), rel=1e-13)

    def test_full_norm_of_zero(self, g64):
        assert full_h_norm(zero_field(g64), 1) == 0.0
        assert full_h_norm(zero_field(g64), 2) == 0.0

    def test_full_h1_of_power_law_matches_summation(self, g64):
        spec = InitialDataSpec.power_law(2.0, 1.0)
        field = spec.realize(g64)
        m = np.arange(1, 65, dtype=float)
        direct = np.sqrt(np.pi / 2 * np.sum((1 + m**2) * m**-4.0))
        assert full_h_norm(field, 1) == pytest.approx(direct, rel=1e-12)

    def test_invalid_order(self, sin1):
        with pytest.raises(ValueError):
            full_h_norm(sin1, 3)


class TestNormProperties:
    @pytest.mark.parametrize("kind", ["L2", "H1semi", "H2lap", "Linf", "L3", "L4"])
    def test_homogeneity(self, g64, kind):
        rng = np.random.default_rng(5)
        u = SpectralField(g64, rng.standard_normal(g64.modes))
        for c in (-3.5, 0.25, 7.0):
            assert norm(c * u, kind) == pytest.approx(abs(c) * norm(u, kind), rel=1e-12)

    @pytest.mark.parametrize("order", [1, 2])
    def test_triangle_inequality(self, g64, order):
        rng = np.random.default_rng(6)
        for _ in range(10):
            u = SpectralField(g64, rng.standard_normal(g64.modes))
            v = SpectralField(g64, rng.standard_normal(g64.modes))
            u_plus_v = SpectralField(g64, u.coeffs + v.coeffs)
            assert full_h_norm(u_plus_v, order) <= full_h_norm(u, order) + full_h_norm(
                v, order
            ) + 1e-12

    def test_poincare_modewise(self, g64):
        # L2 <= H1semi / sqrt(|lambda_min|); on (0, pi) the constant is 1.
        rng = np.random.default_rng(8)
        lam_min = abs(g64.laplacian_eigenvalues).min()
        for _ in range(10):
            u = SpectralField(g64, rng.standard_normal(g64.modes))
            assert norm(u, "L2") <= norm(u, "H1semi") / np.sqrt(lam_min) + 1e-12

    def test_agmon_consistency_hook(self, g64):
        # Linf bounded by the empirically calibrated interpolation constant.
        constant = CALIBRATION_SAFETY * max_ratios(g64, 300, seed=21)["agmon"]
        d = g64.dim
        for u in random_trig_fields(g64, 100, seed=22):
            bound = constant * full_h_norm(u, 2) ** (d / 4) * norm(u, "L2") ** (1 - d / 4)
            assert norm(u, "Linf") <= bound


class TestSimState:
    def test_grid_mismatch_rejected(self, g64):
        other = Grid(extents=(np.pi,), modes=(32,))
        with pytest.raises(ValueError, match="share one grid"):
            SimState(psi=zero_field(g64), v=zero_field(other))

    def test_negative_time_rejected(self, g64):
        with pytest.raises(ValueError):
            SimState(psi=zero_field(g64), v=zero_field(g64), time=-1.0)

    @pytest.mark.parametrize("time", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, g64, time):
        # A NaN start time would otherwise reach simulate, which reports it
        # as batch members that do not share a start time.
        with pytest.raises(ValueError, match="nonnegative and finite"):
            SimState(psi=zero_field(g64), v=zero_field(g64), time=time)


class TestInitialData:
    def test_single_mode(self, g64):
        state = build_initial(
            InitialDataSpec.single_mode((1,), 0.01),
            InitialDataSpec.single_mode((1,), 0.01),
            g64,
        )
        expected = np.zeros(64)
        expected[0] = 0.01
        assert np.array_equal(state.psi.coeffs, expected)
        assert np.array_equal(state.v.coeffs, expected)
        assert state.time == 0.0

    def test_multi_mode(self, g64):
        spec = InitialDataSpec.multi_mode([((1,), 0.5), ((3,), -0.25)])
        field = spec.realize(g64)
        assert field.coeffs[0] == 0.5
        assert field.coeffs[2] == -0.25
        assert np.count_nonzero(field.coeffs) == 2

    def test_power_law_h2_grows_like_sqrt_n(self):
        spec = InitialDataSpec.power_law(2.0, 1.0)
        norms = {}
        for N in (64, 256):
            grid = Grid(extents=(np.pi,), modes=(N,))
            norms[N] = norm(spec.realize(grid), "H2lap")
        # sum_{m<=N} m^4 m^-4 = N, so the ratio is exactly sqrt(256/64) = 2
        assert norms[256] / norms[64] == pytest.approx(2.0, rel=1e-12)

    def test_power_law_h1_converges(self):
        spec = InitialDataSpec.power_law(2.0, 1.0)
        vals = []
        for N in (64, 256):
            grid = Grid(extents=(np.pi,), modes=(N,))
            vals.append(full_h_norm(spec.realize(grid), 1))
        assert abs(vals[1] - vals[0]) / vals[0] < 5e-3

    def test_mode_exceeding_grid(self, g64):
        with pytest.raises(IndexError):
            InitialDataSpec.single_mode((65,), 1.0).realize(g64)

    @pytest.mark.parametrize("exponent", [1.5, np.nan, np.inf])
    def test_power_law_exponent_validated(self, exponent):
        with pytest.raises(ValueError, match="exponent"):
            InitialDataSpec.power_law(exponent, 1.0)

    def test_amplitude_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            InitialDataSpec.single_mode((1,), np.inf)

    def test_2d_power_law(self):
        grid = Grid(extents=(np.pi, np.pi), modes=(8, 8))
        field = InitialDataSpec.power_law(2.0, 3.0).realize(grid)
        m1, m2 = np.meshgrid(np.arange(1, 9), np.arange(1, 9), indexing="ij")
        assert np.allclose(field.coeffs, 3.0 * (m1 * m2) ** -2.0)
