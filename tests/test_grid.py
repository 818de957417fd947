"""Grid construction, the Laplacian symbol, padded evaluation and exact product projection."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blackstock import Grid, SpectralField, padded_field_values, project_padded_to_sine

from .helpers import (
    basis_field,
    direct_sine_sum,
    gauss_product_projection,
    random_grids,
    sine_projection_oracle,
    zero_field,
)


@pytest.fixture
def g1d():
    return Grid(extents=(np.pi,), modes=(8,))


@pytest.fixture
def g2d():
    return Grid(extents=(np.pi, np.pi), modes=(8, 8))


class TestGridConstruction:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Grid(extents=(1.0, 2.0), modes=(8,))

    def test_minimum_modes(self):
        with pytest.raises(ValueError, match="minimum 4 modes"):
            Grid(extents=(1.0,), modes=(3,))

    @pytest.mark.parametrize("modes", [(4.5,), (8, 6.25), (np.nan,), (np.inf,)])
    def test_modes_must_be_whole_numbers(self, modes):
        # A fractional mode count is not truncated to a smaller grid.
        with pytest.raises(ValueError, match="whole numbers"):
            Grid(extents=(1.0,) * len(modes), modes=modes)

    def test_whole_float_modes_accepted(self):
        assert Grid(extents=(1.0, 1.0), modes=(8.0, np.int64(6))).modes == (8, 6)

    def test_positive_extents(self):
        with pytest.raises(ValueError):
            Grid(extents=(0.0,), modes=(8,))

    @pytest.mark.parametrize("extent", [np.nan, np.inf])
    def test_finite_extents(self, extent):
        with pytest.raises(ValueError, match="positive and finite"):
            Grid(extents=(extent,), modes=(8,))
        with pytest.raises(ValueError, match="positive and finite"):
            Grid(extents=(1.0, extent), modes=(8, 8))


class TestLaplacianSymbol:
    # Mode (m_1, ..., m_d) sits at index (m_1 - 1, ..., m_d - 1).
    def test_unit_box_first_mode(self):
        g = Grid(extents=(np.pi,), modes=(8,))
        assert g.laplacian_eigenvalues[0] == pytest.approx(-1.0, abs=1e-14)

    def test_square_box_mode_21(self):
        g = Grid(extents=(np.pi, np.pi), modes=(8, 8))
        assert g.laplacian_eigenvalues[1, 0] == pytest.approx(-5.0, abs=1e-13)

    def test_rectangular_box(self):
        # -( (3 pi / 1)^2 + (4 pi / 2)^2 ) = -13 pi^2
        g = Grid(extents=(1.0, 2.0), modes=(8, 8))
        assert g.laplacian_eigenvalues[2, 3] == pytest.approx(-13 * np.pi**2, rel=1e-14)

    def test_monotone_in_mode(self, g2d):
        vals = [g2d.laplacian_eigenvalues[m - 1, 0] for m in range(1, 9)]
        assert all(vals[i + 1] < vals[i] for i in range(7))


class TestTransforms:
    """The evaluation/projection pair: sine coefficients to padded-grid values
    and products of padded values back to sine coefficients."""

    @staticmethod
    def padded_points(grid):
        return [np.arange(K + 1) * L / K for L, K in zip(grid.extents, grid.padded_sizes)]

    def test_single_basis_function(self, g1d):
        vals = padded_field_values(g1d, basis_field(g1d, (1,)).coeffs)
        assert np.allclose(vals, np.sin(self.padded_points(g1d)[0]), rtol=0, atol=1e-12)

    def test_zero_field(self, g1d):
        assert np.all(padded_field_values(g1d, zero_field(g1d).coeffs) == 0.0)

    def test_roundtrip_matches_naive_oracle_1d(self, g1d):
        # coefficients -> padded values -> product -> coefficients, each
        # direction against direct summation and Gauss quadrature.
        rng = np.random.default_rng(42)
        a, b = rng.standard_normal((2,) + g1d.modes)
        pa, pb = padded_field_values(g1d, np.stack([a, b]))
        points = self.padded_points(g1d)
        assert np.allclose(pa, direct_sine_sum(g1d.extents, a, points), rtol=0, atol=1e-12)
        assert np.allclose(pb, direct_sine_sum(g1d.extents, b, points), rtol=0, atol=1e-12)
        prod = project_padded_to_sine(g1d, pa * pb)
        assert np.allclose(prod, gauss_product_projection(g1d.extents, a, b), rtol=0, atol=1e-12)

    def test_roundtrip_matches_naive_oracle_2d(self):
        g = Grid(extents=(1.0, 2.0), modes=(5, 6))
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((2,) + g.modes)
        pa, pb = padded_field_values(g, np.stack([a, b]))
        naive = direct_sine_sum(g.extents, a, self.padded_points(g))
        assert np.allclose(pa, naive, rtol=0, atol=1e-12)
        prod = project_padded_to_sine(g, pa * pb)
        assert np.allclose(prod, gauss_product_projection(g.extents, a, b), rtol=0, atol=1e-12)

    @given(grid=random_grids(), seed=st.integers(0, 2**32 - 1))
    def test_roundtrip_random_grids(self, grid, seed):
        # An exact projection makes int u v w = <P(u v), w> = <P(u w), v>
        # symmetric in its three factors on any box; each side rounds at a
        # few ulps of the sum of the magnitudes of its terms.
        u, v, w = np.random.default_rng(seed).standard_normal((3,) + grid.modes)
        pu, pv, pw = padded_field_values(grid, np.stack([u, v, w]))
        uv_w = project_padded_to_sine(grid, pu * pv) * w
        uw_v = project_padded_to_sine(grid, pu * pw) * v
        scale = np.sum(np.abs(uv_w)) + np.sum(np.abs(uw_v))
        assert abs(np.sum(uv_w) - np.sum(uw_v)) <= 1e-13 * scale

    def test_to_spectral_of_pure_mode(self, g1d):
        # sin(ax) sin(bx) = (cos((a-b)x) - cos((a+b)x)) / 2 on (0, pi), and
        # cos(kx) has sine coefficients 4m / (pi (m^2 - k^2)) for m + k odd,
        # zero otherwise.
        m = np.arange(1, 9)

        def cos_coeffs(k):
            odd = (m + k) % 2 == 1
            return np.where(odd, 4.0 * m / (np.pi * np.where(odd, m**2 - k**2, 1)), 0.0)

        for a in range(1, 9):
            pa = padded_field_values(g1d, basis_field(g1d, (a,)).coeffs)
            for b in range(a, 9):
                pb = padded_field_values(g1d, basis_field(g1d, (b,)).coeffs)
                expected = 0.5 * (cos_coeffs(a - b) - cos_coeffs(a + b))
                prod = project_padded_to_sine(g1d, pa * pb)
                assert np.allclose(prod, expected, rtol=0, atol=1e-13)

    def test_sample_count_mismatch(self, g2d):
        # Only the trailing grid axes are checked; leading stack axes pass.
        with pytest.raises(ValueError):
            project_padded_to_sine(g2d, np.zeros((17, 16)))
        with pytest.raises(ValueError):
            project_padded_to_sine(g2d, np.zeros((3, 16, 17)))
        with pytest.raises(ValueError):
            padded_field_values(g2d, np.zeros((2, 8, 7)))
        assert project_padded_to_sine(g2d, np.zeros((3, 17, 17))).shape == (3, 8, 8)

    @given(
        grid=random_grids(),
        stack=st.sampled_from([(), (1,), (3,), (2, 2)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_work_arrays_give_the_same_bits(self, grid, stack, seed):
        # Passes written by turns into a pair of flat arrays give the values
        # and projections of fresh arrays bit for bit; so does the one pass
        # of a 1D grid written into an array of its product's shape, which is
        # then what the evaluation returns.
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(stack + grid.modes)
        values = padded_field_values(grid, coeffs)
        work = (np.empty(values.size), np.empty(values.size))
        got = padded_field_values(grid, coeffs, work)
        assert got.tobytes() == values.tobytes()
        assert np.shares_memory(got, work[(grid.dim - 1) % 2])
        projected = project_padded_to_sine(grid, values)
        assert project_padded_to_sine(grid, values, work).tobytes() == projected.tobytes()
        if grid.dim == 1:
            rows = coeffs.reshape(-1, grid.modes[0])
            shaped = (np.empty(values.reshape(len(rows), -1).shape), np.empty(0))
            assert padded_field_values(grid, rows, shaped) is shaped[0]
            assert shaped[0].tobytes() == values.tobytes()

    def test_parseval(self, g2d):
        # The trapezoid rule on the padded grid integrates u^2, a cosine
        # polynomial of degree 2 N = K per axis, exactly.
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(g2d.modes)
        samples = padded_field_values(g2d, coeffs)
        quad = np.sum(samples**2) * g2d.padded_quad_weight
        coeff_norm = np.sum(coeffs**2) * g2d.coeff_weight
        assert quad == pytest.approx(coeff_norm, rel=1e-12)


class TestDealiasedProduct:
    """Exact projection of pointwise products of padded-grid values."""

    def test_zero_factor(self, g1d):
        a = padded_field_values(g1d, basis_field(g1d, (1,)).coeffs)
        b = padded_field_values(g1d, zero_field(g1d).coeffs)
        prod = project_padded_to_sine(g1d, a * b)
        assert np.all(prod == 0.0)

    def test_sin_squared_matches_quadrature(self):
        g = Grid(extents=(np.pi,), modes=(16,))
        a = padded_field_values(g, basis_field(g, (1,)).coeffs)
        prod = project_padded_to_sine(g, a * a)
        oracle = sine_projection_oracle(np.pi, lambda x: np.sin(x) ** 2, 16)
        assert np.allclose(prod, oracle, atol=1e-10)
        # odd-mode closed form: (2/pi) * int sin^2 sin(mx) = -8/(pi m (m^2-4))
        m = np.arange(1, 17)
        denom = np.where(m % 2 == 1, np.pi * m * (m**2 - 4.0), 1.0)
        closed = np.where(m % 2 == 1, -8.0 / denom, 0.0)
        assert np.allclose(prod, closed, atol=1e-12)

    def test_sin_times_sin2x_matches_quadrature(self):
        g = Grid(extents=(np.pi,), modes=(16,))
        a = padded_field_values(g, basis_field(g, (1,)).coeffs)
        b = padded_field_values(g, basis_field(g, (2,)).coeffs)
        prod = project_padded_to_sine(g, a * b)
        oracle = sine_projection_oracle(
            np.pi, lambda x: np.sin(x) * np.sin(2 * x), 16
        )
        assert np.allclose(prod, oracle, atol=1e-10)

    def test_bilinear_and_symmetric(self, g1d):
        rng = np.random.default_rng(11)
        pu, pv, pw = padded_field_values(g1d, rng.standard_normal((3,) + g1d.modes))
        ab = project_padded_to_sine(g1d, pu * pv)
        ba = project_padded_to_sine(g1d, pv * pu)
        assert np.allclose(ab, ba, atol=1e-14)
        wv = project_padded_to_sine(g1d, pw * pv)
        lin = project_padded_to_sine(g1d, (pu + 2.0 * pw) * pv)
        assert np.allclose(lin, ab + 2.0 * wv, atol=1e-12)
        # A stack of products projects member by member.
        stacked = project_padded_to_sine(g1d, np.stack([pu * pv, pw * pv]))
        assert np.allclose(stacked, np.stack([ab, wv]), atol=1e-14)

    def test_2d_product_against_separable_oracle(self):
        # (sin x sin y) * (sin 2x sin y) separates into 1D projections per axis.
        g = Grid(extents=(np.pi, np.pi), modes=(8, 8))
        a = padded_field_values(g, basis_field(g, (1, 1)).coeffs)
        b = padded_field_values(g, basis_field(g, (2, 1)).coeffs)
        prod = project_padded_to_sine(g, a * b)
        ox = sine_projection_oracle(np.pi, lambda x: np.sin(x) * np.sin(2 * x), 8)
        oy = sine_projection_oracle(np.pi, lambda y: np.sin(y) ** 2, 8)
        assert np.allclose(prod, np.outer(ox, oy), atol=1e-10)

    def test_shape_mismatch(self, g1d):
        a = padded_field_values(g1d, basis_field(g1d, (1,)).coeffs)
        with pytest.raises(ValueError):
            project_padded_to_sine(g1d, a[:-1])
        with pytest.raises(ValueError):
            padded_field_values(g1d, np.zeros(7))


class TestFieldValues:
    def test_field_shape_checked(self, g1d):
        with pytest.raises(ValueError):
            SpectralField(g1d, np.zeros(7))

    def test_padded_values_vanish_on_boundary(self, g1d):
        rng = np.random.default_rng(0)
        vals = padded_field_values(g1d, rng.standard_normal(g1d.modes))
        assert vals[0] == 0.0 and vals[-1] == 0.0

    @given(grid=random_grids(), seed=st.integers(0, 2**32 - 1))
    def test_padded_values_match_direct_summation(self, grid, seed):
        # A stack of two fields against the direct sum at every padded node;
        # the dense per-axis sums round at a few ulps of the largest value.
        coeffs = np.random.default_rng(seed).standard_normal((2,) + grid.modes)
        vals = padded_field_values(grid, coeffs)
        points = [np.arange(2 * N + 1) * L / (2 * N) for L, N in zip(grid.extents, grid.modes)]
        for member, c in zip(vals, coeffs):
            naive = direct_sine_sum(grid.extents, c, points)
            assert np.max(np.abs(member - naive)) <= 1e-13 * np.max(np.abs(naive))
