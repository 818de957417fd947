"""Interpolation-ratio and Gronwall-bound verification."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from blackstock import (
    Grid,
    GronwallParams,
    agmon_ratio,
    gronwall_verify,
    interpolation_ratio,
    max_ratios,
    random_admissible_gronwall,
    random_trig_fields,
)

from .helpers import basis_field, zero_field


@pytest.fixture
def g32():
    return Grid(extents=(np.pi,), modes=(32,))


class TestAgmonRatio:
    def test_sin_value(self, g32):
        # 1 / (sqrt(3 pi / 2)^{1/4} sqrt(pi / 2)^{3/4})
        u = basis_field(g32, (1,))
        h2 = np.sqrt(3 * np.pi / 2)
        l2 = np.sqrt(np.pi / 2)
        expected = 1.0 / (h2**0.25 * l2**0.75)
        assert expected == pytest.approx(0.6955044, abs=1e-7)
        assert agmon_ratio(u) == pytest.approx(expected, rel=1e-10)

    def test_scale_invariance_exact(self, g32):
        for u in random_trig_fields(g32, 5, seed=2):
            assert agmon_ratio(5.0 * u) == pytest.approx(agmon_ratio(u), rel=1e-12)

    def test_zero_field_rejected(self, g32):
        with pytest.raises(ValueError):
            agmon_ratio(zero_field(g32))

    def test_max_ratio_stable_under_doubling(self, g32):
        base = max_ratios(g32, 2000, seed=77)["agmon"]
        doubled = max_ratios(g32, 4000, seed=77)["agmon"]
        assert doubled >= base
        assert (doubled - base) / base < 0.05


class TestInterpolationRatio:
    def test_sin_value_q4(self, g32):
        u = basis_field(g32, (1,))
        l4 = (3 * np.pi / 8) ** 0.25
        h1 = np.sqrt(np.pi)
        l2 = np.sqrt(np.pi / 2)
        expected = l4 / (h1**0.25 * l2**0.75)
        assert expected == pytest.approx(0.7622661, abs=1e-7)
        assert interpolation_ratio(u, 4) == pytest.approx(expected, rel=1e-10)

    def test_scale_invariance(self, g32):
        for u in random_trig_fields(g32, 5, seed=3):
            for q in (3, 4):
                assert interpolation_ratio(2.5 * u, q) == pytest.approx(
                    interpolation_ratio(u, q), rel=1e-10
                )

    def test_unsupported_q(self, g32):
        with pytest.raises(ValueError):
            interpolation_ratio(basis_field(g32, (1,)), 5)

    @pytest.mark.parametrize("q", [3, 4])
    def test_max_ratio_stable_under_doubling(self, g32, q):
        base = max_ratios(g32, 2000, seed=78)[f"interpolation_q{q}"]
        doubled = max_ratios(g32, 4000, seed=78)[f"interpolation_q{q}"]
        assert (doubled - base) / base < 0.05


class TestGronwallParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GronwallParams(c1=1.0, c2=1.0, kappa=1.0, a=-1.0, u0=0.1)
        with pytest.raises(ValueError):
            GronwallParams(c1=2.0, c2=1.0, kappa=-1.0, a=-1.0, u0=0.1)
        with pytest.raises(ValueError):
            GronwallParams(c1=2.0, c2=1.0, kappa=1.0, a=1.0, u0=0.1)

    @pytest.mark.parametrize("field", ["c1", "c2", "kappa", "a", "u0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, field, value):
        worked = dict(c1=2.0, c2=1.0, kappa=1.0, a=-1.0, u0=0.05)
        with pytest.raises(ValueError, match="finite"):
            GronwallParams(**{**worked, field: value})

    def test_worked_case_smallness_and_coefficient(self):
        g = GronwallParams(c1=2.0, c2=1.0, kappa=1.0, a=-1.0, u0=0.05)
        # a + (1 + 1/kappa) c2 2^k c1^k u0^k = -1 + 2 * 1 * 2 * 2 * 0.05
        assert g.smallness == pytest.approx(-0.6, abs=1e-14)
        assert g.admissible
        # (1 + 0.1 / (-0.6)) * 2 = 5/3
        assert g.bound_coefficient == pytest.approx(5.0 / 3.0, rel=1e-13)
        assert g.bound_coefficient == pytest.approx(1.6667, abs=1e-4)


class TestGronwallVerify:
    def test_linear_case(self):
        g = GronwallParams(c1=2.0, c2=0.0, kappa=1.0, a=-1.0, u0=0.3)
        check = gronwall_verify(g, T=5.0, dt=1e-3)
        assert check.ok
        assert g.bound_coefficient == pytest.approx(g.c1, rel=1e-14)
        assert np.allclose(check.trace, 0.3 * np.exp(-check.times), rtol=1e-10)

    def test_worked_case(self):
        g = GronwallParams(c1=2.0, c2=1.0, kappa=1.0, a=-1.0, u0=0.05)
        check = gronwall_verify(g, T=10.0, dt=1e-4)
        assert check.ok
        assert check.times[-1] == 10.0 and len(check.times) == 100_001
        assert check.trace[0] == g.u0 and check.bound[0] == pytest.approx(g.bound_coefficient * g.u0)

    @pytest.mark.parametrize("dt", [0.3, 0.7])
    def test_step_that_does_not_divide_the_horizon_refused(self, dt):
        # Rounding T / dt would check up to 0.9 (dt = 0.3) or 0.7 (dt = 0.7).
        g = GronwallParams(c1=2.0, c2=1.0, kappa=1.0, a=-1.0, u0=0.05)
        with pytest.raises(ValueError, match="not a whole multiple"):
            gronwall_verify(g, T=1.0, dt=dt)

    def test_inadmissible_refused(self):
        g = GronwallParams(c1=2.0, c2=1.0, kappa=1.0, a=-1.0, u0=0.5)
        assert not g.admissible
        with pytest.raises(ValueError, match="smallness value"):
            gronwall_verify(g, T=1.0)

    def test_random_admissible_draws_all_ok(self):
        draws = random_admissible_gronwall(100, seed=7)
        for g in draws:
            assert g.admissible
            check = gronwall_verify(g, T=10.0, dt=1e-3)
            assert check.ok, f"bound violated for {g}"

    @pytest.mark.parametrize(
        "g",
        [GronwallParams(c1=2.0, c2=1.0, kappa=1.0, a=-1.0, u0=0.05)]
        + random_admissible_gronwall(10, seed=8),
    )
    def test_trace_matches_solve_ivp(self, g):
        # An independent high-order solution of u' = a u + c2 u^(1+kappa):
        # the trace is exact at every sample, not a step rule's approximation.
        check = gronwall_verify(g, T=5.0, dt=1e-3)
        sol = solve_ivp(
            lambda t, u: g.a * u + g.c2 * u ** (1.0 + g.kappa),
            (0.0, 5.0),
            [g.u0],
            method="DOP853",
            rtol=1e-12,
            atol=1e-300,
            t_eval=check.times,
        )
        assert sol.success
        np.testing.assert_allclose(check.trace, sol.y[0], rtol=1e-9, atol=0.0)

    def test_comparison_is_relative_for_a_tiny_bound(self):
        # A bound 1% below the trace fails however small both are: no
        # absolute slack lets a trace of order 1e-12 through.
        class LowBound(GronwallParams):
            bound_coefficient = 0.99

        g = LowBound(c1=2.0, c2=1.0, kappa=1.0, a=-1.0, u0=1e-12)
        assert not gronwall_verify(g, T=1.0, dt=1e-3).ok
