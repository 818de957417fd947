"""Energy functionals, Lyapunov combination, equivalence scan and identity residuals."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blackstock import (
    GammaWeights,
    Grid,
    InitialDataSpec,
    MediumParams,
    SimState,
    StepConfig,
    build_initial,
    identity_residual,
    norm,
    simulate,
    to_physical,
)
from blackstock.energy import DIAGNOSTIC_COLUMNS, instantaneous_diagnostics

from .helpers import (
    acceleration,
    calibrated_gammas,
    diagnostics,
    equivalence_scan,
    modal_solution,
    probe_states,
    random_grids,
)


@pytest.fixture
def g64():
    return Grid(extents=(np.pi,), modes=(64,))


@pytest.fixture
def unit(g64):
    e1 = g64.basis_field((1,))
    return SimState(psi=e1, v=e1)


P11 = MediumParams(c=1.0, b=1.0)
NONLIN = MediumParams(c=1.0, b=1.0, k=1.0, sigma=1.0)


class TestEnergy:
    def test_zero_state(self, g64):
        state = SimState(psi=g64.zeros(), v=g64.zeros())
        assert diagnostics(state, P11)["E"] == 0.0

    def test_pure_potential(self, g64):
        state = SimState(psi=g64.basis_field((1,)), v=g64.zeros())
        # (1/2)(pi/2) + (1/2)(pi/2) = pi/2
        assert diagnostics(state, P11)["E"] == pytest.approx(np.pi / 2, rel=1e-13)

    def test_pure_velocity(self, g64):
        state = SimState(psi=g64.zeros(), v=g64.basis_field((1,), 2.0))
        # A^2 (pi/4) + A^2 (pi/2) with A = 2 -> 3 pi
        assert diagnostics(state, P11)["E"] == pytest.approx(3 * np.pi, rel=1e-13)

    def test_decomposition(self, g64):
        rng = np.random.default_rng(12)
        lam = g64.laplacian_eigenvalues
        for seed in range(20):
            state = SimState(
                psi=g64.field(rng.standard_normal(g64.modes)),
                v=g64.field(rng.standard_normal(g64.modes)),
            )
            d = diagnostics(state, NONLIN)
            grad_v_sq = np.sum(-lam * state.v.coeffs**2) * g64.coeff_weight
            assert d["E"] == pytest.approx(d["E1"] + d["E2"] + grad_v_sq, rel=1e-13)


class TestFunctionals:
    def test_worked_values(self, unit):
        d = diagnostics(unit, P11)
        E1, E2, F1, F2, F3 = (d[name] for name in ("E1", "E2", "F1", "F2", "F3"))
        assert E1 == pytest.approx(np.pi / 2, rel=1e-13)
        assert E2 == pytest.approx(np.pi / 4, rel=1e-13)
        assert F1 == pytest.approx(3 * np.pi / 4, rel=1e-13)
        assert F2 == pytest.approx(3 * np.pi / 4, rel=1e-13)
        assert F3 == pytest.approx(3 * np.pi / 4, rel=1e-13)


class TestLyapunov:
    def test_zero_state(self, g64):
        state = SimState(psi=g64.zeros(), v=g64.zeros())
        assert diagnostics(state, P11, GammaWeights())["L"] == 0.0

    def test_worked_value(self, unit):
        # E1 + 0.1 E2 + 0.01 (F1 + F2) + 0.05 F3 = pi (1/2 + 1/40 + 3/200 + 3/80)
        L = diagnostics(unit, P11, GammaWeights())["L"]
        assert L == pytest.approx(np.pi * 0.5775, rel=1e-13)
        assert L == pytest.approx(1.8142698, abs=1e-7)

    def test_zero_weights_recover_e1(self, unit):
        g = GammaWeights(gamma1=0.0, gamma2=0.0, gamma3=0.0)
        E1 = diagnostics(unit, P11)["E1"]
        assert diagnostics(unit, P11, g)["L"] == pytest.approx(E1, rel=1e-14)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            GammaWeights(gamma1=-0.1)


class TestDiagnosticsTable:
    @given(
        grid=random_grids(),
        seed=st.integers(0, 2**32 - 1),
        t=st.floats(0.0, 10.0),
        c=st.floats(0.2, 3.0),
        b=st.floats(0.2, 3.0),
        gammas=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    def test_matches_norm_and_quadrature_oracles(self, grid, seed, t, c, b, gammas):
        # Every column against the module docstring's formulas: fields.norm
        # for the L2, H1 and H2 terms, node quadrature (exact for products of
        # retained modes) for the cross terms; int grad psi . grad v is
        # -int Delta psi v by Green's formula.
        rng = np.random.default_rng(seed)
        psi, v, f, accel = (grid.field(a) for a in rng.standard_normal((4,) + grid.modes))
        p = MediumParams(c=c, b=b)
        g = GammaWeights(*gammas)
        row = instantaneous_diagnostics(
            grid, t, psi.coeffs, v.coeffs, f.coeffs, accel.coeffs, p, g
        )
        got = dict(zip(DIAGNOSTIC_COLUMNS, row.tolist()))

        def quad(x, y):
            return float(np.sum(to_physical(x) * to_physical(y)) * grid.quad_weight)

        l2v, h1v, h2v = (norm(v, kind) ** 2 for kind in ("L2", "H1semi", "H2lap"))
        h1p, h2p = (norm(psi, kind) ** 2 for kind in ("H1semi", "H2lap"))
        l2a, h1a = (norm(accel, kind) ** 2 for kind in ("L2", "H1semi"))
        psi_v = quad(psi, v)
        grad_psi_grad_v = -quad(grid.field(grid.laplacian_eigenvalues * psi.coeffs), v)
        cc = c * c
        E1 = 0.5 * l2v + 0.5 * cc * h1p
        E2 = cc / (2 * b) * h2p
        F = (
            psi_v + 0.5 * b * h1p,
            grad_psi_grad_v + 0.5 * b * h2p,
            cc * grad_psi_grad_v + 0.5 * b * h1v,
        )
        oracle = {
            "t": t, "E": E1 + E2 + h1v, "E1": E1, "E2": E2, "F1": F[0], "F2": F[1], "F3": F[2],
            "L": E1 + g.gamma1 * E2 + g.gamma2 * (F[0] + F[1]) + g.gamma3 * F[2],
            "grad_v_sq": h1v, "f_dot_v": quad(f, v),
            "w_ptt": np.sqrt(t * l2a), "w_lap_vt": np.sqrt(t * h2v),
            "d_integrand": h1v + h2v + h1p + h2p + l2a, "wgp_integrand": t * h1a,
        }
        # Rounding is relative to the magnitude of each value's terms, which
        # cancel in the cross terms.
        F_mag = (abs(psi_v) + 0.5 * b * h1p, abs(grad_psi_grad_v) + 0.5 * b * h2p,
                 cc * abs(grad_psi_grad_v) + 0.5 * b * h1v)
        scale = dict(oracle, F1=F_mag[0], F2=F_mag[1], F3=F_mag[2],
                     L=E1 + g.gamma1 * E2 + g.gamma2 * (F_mag[0] + F_mag[1]) + g.gamma3 * F_mag[2],
                     f_dot_v=norm(f, "L2") * norm(v, "L2"))
        for name in DIAGNOSTIC_COLUMNS:
            assert abs(got[name] - oracle[name]) <= 1e-12 * scale[name], name

    @given(
        grid=random_grids(),
        seed=st.integers(0, 2**32 - 1),
        n_times=st.integers(1, 4),
        n_members=st.integers(1, 3),
        overflow=st.booleans(),
    )
    def test_time_column_matches_per_time_calls(self, grid, seed, n_times, n_members, overflow):
        # States (times, members, *modes) with a column of times give the
        # bits of one call per time; with an overflowed acceleration in one
        # row, the other rows keep theirs.
        rng = np.random.default_rng(seed)
        psi, v, f, accel = rng.standard_normal((4, n_times, n_members) + grid.modes)
        if overflow:
            accel[rng.integers(n_times), rng.integers(n_members)] = 1e200
        t = rng.uniform(0.0, 10.0, n_times)
        g = GammaWeights()
        with np.errstate(over="ignore"):
            rows = instantaneous_diagnostics(grid, t[:, None], psi, v, f, accel, NONLIN, g)
            for i in range(n_times):
                one = instantaneous_diagnostics(grid, t[i], psi[i], v[i], f[i], accel[i], NONLIN, g)
                assert np.array_equal(rows[i], one, equal_nan=True)

    def test_missing_source_and_acceleration_read_as_zero(self, unit):
        row = instantaneous_diagnostics(
            unit.grid, 1.0, unit.psi.coeffs, unit.v.coeffs, None, None, P11, GammaWeights()
        )
        got = dict(zip(DIAGNOSTIC_COLUMNS, row.tolist()))
        assert got["f_dot_v"] == got["w_ptt"] == got["wgp_integrand"] == 0.0
        assert got["E"] == diagnostics(unit, P11)["E"]

    def test_overflowed_acceleration_reaches_only_its_columns(self, g64):
        # A blowing-up member's last row: accel^2 overflows while psi and v
        # stay finite.  Only the values that read ||psi_tt|| become inf;
        # the others equal those of the same state without an acceleration,
        # and a finite member of the same batch keeps its finite row.
        rng = np.random.default_rng(5)
        psi, v, f = rng.standard_normal((3, 2) + g64.modes)
        accel = np.stack([np.full(g64.modes, 1e200), rng.standard_normal(g64.modes)])
        g = GammaWeights()
        with np.errstate(over="ignore"):
            rows = instantaneous_diagnostics(g64, 2.0, psi, v, f, accel, NONLIN, g)
        plain = instantaneous_diagnostics(g64, 2.0, psi, v, f, None, NONLIN, g)
        solo = instantaneous_diagnostics(g64, 2.0, psi[1], v[1], f[1], accel[1], NONLIN, g)
        reads_accel = ("w_ptt", "d_integrand", "wgp_integrand")
        for k, name in enumerate(DIAGNOSTIC_COLUMNS):
            if name in reads_accel:
                assert rows[0, k] == np.inf, name
            else:
                assert rows[0, k] == pytest.approx(plain[0, k], rel=1e-14, abs=1e-300), name
        np.testing.assert_allclose(rows[1], solo, rtol=1e-14)


class TestEquivalenceScan:
    def test_default_weights_admissible(self, g64):
        c1, c2 = equivalence_scan(NONLIN, GammaWeights(), probe_states(g64))
        assert c1 > 0
        assert c2 > c1

    def test_huge_gamma2_breaks_equivalence(self, g64):
        e1 = g64.basis_field((1,))
        adversary = [SimState(psi=e1, v=-1.0 * e1)]
        bad = GammaWeights(gamma1=0.1, gamma2=10.0, gamma3=0.05)
        c1, _ = equivalence_scan(NONLIN, bad, adversary)
        assert c1 <= 0

    def test_ratio_scale_invariance(self, g64):
        probes = probe_states(g64, n_random=5)
        scaled = [SimState(psi=7.0 * s.psi, v=7.0 * s.v) for s in probes]
        base = equivalence_scan(NONLIN, GammaWeights(), probes)
        scal = equivalence_scan(NONLIN, GammaWeights(), scaled)
        assert base[0] == pytest.approx(scal[0], rel=1e-12)
        assert base[1] == pytest.approx(scal[1], rel=1e-12)

    def test_empty_probe_list(self):
        with pytest.raises(ValueError):
            equivalence_scan(NONLIN, GammaWeights(), [])

    def test_calibration_sets_admissible_flag(self, g64):
        g, admissible = calibrated_gammas(NONLIN, g64)
        assert admissible is True
        assert g.gamma2 == pytest.approx(0.01)


def small_data_series(T=2.0, dt=1e-3, sample_every=1, scheme="imex2"):
    grid = Grid(extents=(np.pi,), modes=(16,))
    state = build_initial(
        InitialDataSpec.single_mode((1,), 0.01),
        InitialDataSpec.single_mode((1,), 0.01),
        grid,
    )
    return simulate(state, T, StepConfig(dt=dt, scheme=scheme), NONLIN, sample_every=sample_every)


class TestIdentityResidual:
    def test_zero_run(self):
        grid = Grid(extents=(np.pi,), modes=(8,))
        state = SimState(psi=grid.zeros(), v=grid.zeros())
        series = simulate(state, 0.1, StepConfig(dt=1e-2), NONLIN)
        res = identity_residual(series, NONLIN)
        assert np.all(res == 0.0)

    def test_linear_run_small_residual(self):
        grid = Grid(extents=(np.pi,), modes=(8,))
        state = build_initial(
            InitialDataSpec.single_mode((1,), 1.0),
            InitialDataSpec.zero(),
            grid,
        )
        series = simulate(state, 2.0, StepConfig(dt=1e-3), P11)
        res = identity_residual(series, P11)
        assert np.max(np.abs(res)) <= 1e-5

    def test_residual_second_order_in_sampling(self):
        r_coarse = identity_residual(small_data_series(dt=2e-3), NONLIN)
        r_fine = identity_residual(small_data_series(dt=1e-3), NONLIN)
        ratio = np.max(np.abs(r_coarse)) / np.max(np.abs(r_fine))
        assert ratio == pytest.approx(4.0, rel=0.25)

    def test_too_few_samples(self):
        series = small_data_series(T=1e-3, dt=1e-3)
        with pytest.raises(ValueError, match="at least 3"):
            identity_residual(series, NONLIN)


def time_weighted_norms(state, accel):
    """``(sqrt(t) ||psi_tt||, sqrt(t) ||Delta v||)`` read from the diagnostics table."""
    d = diagnostics(state, P11, accel=accel)
    return d["w_ptt"], d["w_lap_vt"]


class TestWeightedNorms:
    def test_zero_time_weight(self, g64):
        state = SimState(psi=g64.basis_field((1,)), v=g64.basis_field((2,)), time=0.0)
        accel = acceleration(state, NONLIN)
        assert time_weighted_norms(state, accel) == (0.0, 0.0)

    def test_homogeneity(self, g64):
        state = SimState(psi=g64.basis_field((1,)), v=g64.basis_field((2,)), time=2.0)
        accel = acceleration(state, P11)
        w1, w2 = time_weighted_norms(state, accel)
        scaled = SimState(psi=3.0 * state.psi, v=3.0 * state.v, time=2.0)
        s1, s2 = time_weighted_norms(scaled, acceleration(scaled, P11))
        assert (s1, s2) == (pytest.approx(3 * w1, rel=1e-12), pytest.approx(3 * w2, rel=1e-12))

    def test_linear_run_matches_modal_derivative(self):
        # at t = 1 the weighted norms are |w''(1)| and |lam w'(1)| times ||sin||
        grid = Grid(extents=(np.pi,), modes=(8,))
        state = build_initial(
            InitialDataSpec.single_mode((1,), 1.0), InitialDataSpec.zero(), grid
        )
        series = simulate(state, 1.0, StepConfig(dt=1e-3), P11, sample_every=1000)
        w, wp = modal_solution(-1.0, 1.0, 1.0, 1.0, 0.0, 1.0)
        wpp = -w - wp
        nu = np.sqrt(np.pi / 2)
        assert series.column("w_lap_vt")[-1] == pytest.approx(abs(wp) * nu, rel=1e-5)
        assert series.column("w_ptt")[-1] == pytest.approx(abs(wpp) * nu, rel=1e-4)
        assert abs(wp) * nu == pytest.approx(0.66865211, abs=1e-7)
