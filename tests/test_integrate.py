"""The run loop: accuracy, stability, picard iteration and divergence handling."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from blackstock import (
    Grid,
    InitialDataSpec,
    MediumParams,
    SimState,
    SpectralField,
    StepConfig,
    build_initial,
    gronwall_verify,
    random_admissible_gronwall,
    simulate,
    simulate_batch,
)
import blackstock.integrate as integrate
from blackstock.dynamics import _source_operator
from blackstock.energy import (
    DIAGNOSTIC_COLUMNS,
    GammaWeights,
    instantaneous_diagnostics,
)
from blackstock.integrate import _h1_l2_norm, _picard_step, _propagator

from .helpers import modal_solution, random_grids, zero_field


@pytest.fixture
def g8():
    return Grid(extents=(np.pi,), modes=(8,))


def single_mode_state(grid, psi0=1.0, v0=0.0):
    return build_initial(
        InitialDataSpec.single_mode((1,), psi0),
        InitialDataSpec.single_mode((1,), v0),
        grid,
    )


LINEAR = MediumParams(c=1.0, b=1.0)
NONLIN = MediumParams(c=1.0, b=1.0, k=1.0, sigma=1.0)


class TestStepConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepConfig(dt=0.0)
        with pytest.raises(ValueError, match="unknown scheme"):
            StepConfig(dt=0.1, scheme="rk4")

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="positive and finite"):
            StepConfig(dt=dt)

    @pytest.mark.parametrize(
        "count",
        [
            lambda: StepConfig(dt=1e-300).steps_to(1e300),
            lambda: simulate(single_mode_state(Grid((np.pi,), (8,)), 0.1, 0.1), 1e300,
                             StepConfig(dt=1e-300), LINEAR),
            lambda: gronwall_verify(random_admissible_gronwall(1)[0], T=1e300, dt=1e-300),
        ],
        ids=["steps_to", "simulate", "gronwall_verify"],
    )
    def test_step_count_beyond_any_number_rejected(self, count):
        # T / dt overflows to inf: a ValueError, not round()'s OverflowError.
        with pytest.raises(ValueError, match="than can be counted"):
            count()


def one_step(state, cfg, p):
    """The state one step of ``cfg`` after ``state``, through the run loop."""
    return simulate(state, cfg.dt, cfg, p).final


class TestSingleSteps:
    @pytest.mark.parametrize("scheme", ["imex1", "imex2"])
    def test_zero_state_fixed_point(self, g8, scheme):
        state = SimState(psi=zero_field(g8), v=zero_field(g8))
        cfg = StepConfig(dt=0.5, scheme=scheme)
        out = one_step(state, cfg, NONLIN)
        assert np.all(out.psi.coeffs == 0.0) and np.all(out.v.coeffs == 0.0)
        assert out.time == 0.5

    def test_zero_state_fixed_point_picard(self, g8):
        state = SimState(psi=zero_field(g8), v=zero_field(g8))
        out = one_step(state, StepConfig(dt=0.5, scheme="picard"), NONLIN)
        assert np.all(out.psi.coeffs == 0.0) and np.all(out.v.coeffs == 0.0)

    @pytest.mark.parametrize("dt", [0.01, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("scheme", ["imex1", "imex2"])
    @given(
        seed=st.integers(0, 2**32 - 1),
        c=st.floats(0.1, 10.0),
        b=st.floats(0.1, 10.0),
        decades=st.floats(-2.0, 2.0),
    )
    @example(seed=9, c=1.0, b=1.0, decades=0.0)
    def test_linear_stability_per_mode_energy(self, dt, scheme, seed, c, b, decades):
        # modal energy |v|^2/2 + (c^2/2)|lam||psi|^2 nonincreasing for any dt:
        # each case steps within two decades of its dt, 1e-4 to 1e3 in all.
        # With f = 0 a step removes about b|lam|dt v^2 of each mode's energy,
        # far above rounding, so a few ulps of slack suffice.
        grid = Grid(extents=(np.pi,), modes=(8,))
        lam = grid.laplacian_eigenvalues
        rng = np.random.default_rng(seed)
        state = SimState(
            psi=SpectralField(grid, rng.standard_normal(grid.modes)),
            v=SpectralField(grid, rng.standard_normal(grid.modes)),
        )
        p = MediumParams(c=c, b=b)
        before = 0.5 * state.v.coeffs**2 + 0.5 * c**2 * (-lam) * state.psi.coeffs**2
        out = one_step(state, StepConfig(dt=dt * 10.0**decades, scheme=scheme), p)
        after = 0.5 * out.v.coeffs**2 + 0.5 * c**2 * (-lam) * out.psi.coeffs**2
        assert np.all(after <= before * (1 + 8 * np.finfo(float).eps))
        if (seed, c, b, decades) == (9, 1.0, 1.0, 0.0):
            assert np.all(after <= before + 1e-14)


def stepped(step, U, f):
    """``step`` applied to states ``U[member, (psi, v), *modes]`` and sources
    ``f[member, *modes]``, member by member as ``U``."""
    return step(np.concatenate((U.swapaxes(0, 1), f[None]))).swapaxes(0, 1)


class TestPropagators:
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @given(
        seed=st.integers(0, 2**32 - 1),
        c=st.floats(0.1, 10.0),
        b=st.floats(0.1, 10.0),
        decades=st.floats(-4.0, 3.0),
    )
    def test_match_per_mode_linear_solve(self, theta, seed, c, b, decades):
        # U+ solves (I - theta dt L) U+ = (I + (1 - theta) dt L) U + dt f e_v
        # per mode, L = [[0, 1], [c^2 lam, b lam]], for dt in 1e-4 .. 1e3.
        grid = Grid(extents=(np.pi,), modes=(8,))
        lam = grid.laplacian_eigenvalues
        dt = 10.0**decades
        rng = np.random.default_rng(seed)
        U = rng.standard_normal((3, 2) + grid.modes)
        f = rng.standard_normal((3,) + grid.modes)
        got = stepped(_propagator(grid, MediumParams(c=c, b=b), dt, theta), U, f)
        L = np.zeros(grid.modes + (2, 2))
        L[:, 0, 1], L[:, 1, 0], L[:, 1, 1] = 1.0, c**2 * lam, b * lam
        rhs = np.einsum("mij,njm->nmi", np.eye(2) + (1.0 - theta) * dt * L, U)
        rhs[..., 1] += dt * f
        want = np.linalg.solve(np.eye(2) - theta * dt * L, rhs[..., None])[..., 0]
        want = want.transpose(0, 2, 1)
        for member, expected in zip(got, want):
            assert np.max(np.abs(member - expected)) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @given(
        grid=random_grids(),
        seed=st.integers(0, 2**32 - 1),
        c=st.floats(0.1, 10.0),
        b=st.floats(0.1, 10.0),
        decades=st.floats(-4.0, 3.0),
        members=st.integers(1, 3),
    )
    def test_step_is_the_three_term_sum_bit_for_bit(self, theta, grid, seed, c, b, decades, members):
        # The one-einsum step is (A psi + B v) + Q f in that order, bit for
        # bit.  A, B and Q are read off the step itself: a coefficient times
        # one plus zeros is exact.
        step = _propagator(grid, MediumParams(c=c, b=b), 10.0**decades, theta)
        one, zero = np.ones((1,) + grid.modes), np.zeros((1,) + grid.modes)
        A, B, Q = (
            stepped(step, np.stack((psi, v), axis=1), f)
            for psi, v, f in ((one, zero, zero), (zero, one, zero), (zero, zero, one))
        )
        rng = np.random.default_rng(seed)
        U = rng.standard_normal((members, 2) + grid.modes)
        f = rng.standard_normal((members,) + grid.modes)
        want = A * U[:, :1] + B * U[:, 1:] + Q * f[:, None]
        assert np.array_equal(stepped(step, U, f), want)
        # Into a given array, as the run loop steps, the bits are the same.
        out = np.empty((2, members) + grid.modes)
        step(np.concatenate((U.swapaxes(0, 1), f[None])), out=out)
        assert np.array_equal(out.swapaxes(0, 1), want)


class TestModalAccuracy:
    def test_imex2_matches_closed_form(self, g8):
        # c = b = 1, mode 1 on (0, pi): w(t) = e^{-t/2}(cos + sin/sqrt(3))(sqrt(3)t/2)
        state = single_mode_state(g8)
        cfg = StepConfig(dt=1e-3, scheme="imex2")
        final = simulate(state, 1.0, cfg, LINEAR, sample_every=1000).final
        w_exact, _ = modal_solution(-1.0, 1.0, 1.0, 1.0, 0.0, 1.0)
        assert w_exact == pytest.approx(0.6597001534, abs=1e-9)
        assert abs(final.psi.coeffs[0] - w_exact) / abs(w_exact) <= 1e-5

    @pytest.mark.parametrize(
        "scheme,expected_order", [("imex1", 1), ("imex2", 2), ("picard", 2)]
    )
    def test_convergence_order(self, g8, scheme, expected_order):
        w_exact, _ = modal_solution(-1.0, 1.0, 1.0, 1.0, 0.0, 1.0)
        errors = []
        for dt in (4e-3, 2e-3):
            cfg = StepConfig(dt=dt, scheme=scheme)
            final = simulate(single_mode_state(g8), 1.0, cfg, LINEAR, sample_every=10**9).final
            errors.append(abs(final.psi.coeffs[0] - w_exact))
        ratio = errors[0] / errors[1]
        assert 2.0**expected_order == pytest.approx(ratio, rel=0.15)


class TestNonlinearSelfConvergence:
    @pytest.mark.parametrize("a", [0.3, 1.0])
    @pytest.mark.parametrize(
        "scheme,expected_order", [("imex1", 1), ("imex2", 2), ("picard", 2)]
    )
    def test_richardson_order_2d(self, scheme, expected_order, a):
        # Full nonlinear medium on the pi^2 box: the final states of dt, dt/2,
        # dt/4 and dt/8 differ by ratios 2^order once the error is asymptotic.
        grid = Grid(extents=(np.pi, np.pi), modes=(16, 16))
        state = build_initial(
            InitialDataSpec.multi_mode([((1, 1), a), ((2, 1), 0.5 * a)]),
            InitialDataSpec.single_mode((1, 2), a),
            grid,
        )
        finals = []
        for dt in (0.04, 0.02, 0.01, 0.005):
            cfg = StepConfig(dt=dt, scheme=scheme)
            final = simulate(state, 0.4, cfg, NONLIN, sample_every=10**9).final
            finals.append(np.concatenate([final.psi.coeffs.ravel(), final.v.coeffs.ravel()]))
        diffs = [np.max(np.abs(x - y)) for x, y in zip(finals, finals[1:])]
        ratios = [d0 / d1 for d0, d1 in zip(diffs, diffs[1:])]
        assert ratios == [pytest.approx(2.0**expected_order, rel=0.1)] * 2


def picard_step(state, cfg, p):
    """One ``_picard_step`` from ``state``: its iteration counts and convergence mask."""
    grid = state.grid
    step, norm = _propagator(grid, p, cfg.dt, 0.5), _h1_l2_norm(grid)
    operator = _source_operator(grid, p)
    X = np.stack((state.psi.coeffs, state.v.coeffs, np.empty(grid.modes)))[:, None]
    operator(X[:2], out=X[2])
    return _picard_step(X, np.empty_like(X), step, norm, operator)


class TestPicard:
    def test_linear_problem_converges_in_one_iteration(self, g8):
        state = single_mode_state(g8, 0.5, 0.5)
        cfg = StepConfig(dt=1e-2, scheme="picard")
        iterations, converged = picard_step(state, cfg, LINEAR)
        assert converged.tolist() == [True] and iterations.tolist() == [1]

    def test_small_data_iteration_count(self, g8):
        state = single_mode_state(g8, 0.01, 0.01)
        cfg = StepConfig(dt=1e-3, scheme="picard")
        series = simulate(state, 1.0, cfg, NONLIN)
        assert series.termination.completed
        assert 1 <= series.max_picard_iterations <= 5

    def test_large_amplitude_fails(self):
        g = Grid(extents=(np.pi,), modes=(64,))
        state = single_mode_state(g, 50.0, 50.0)
        cfg = StepConfig(dt=1e-3, scheme="picard")
        series = simulate(state, 20.0, cfg, NONLIN)
        assert series.termination.kind == "picard_failed"
        assert series.termination.time is not None

    def test_step_picard_raises_directly(self):
        g = Grid(extents=(np.pi,), modes=(64,))
        state = single_mode_state(g, 50.0, 50.0)
        cfg = StepConfig(dt=1e-3, scheme="picard")
        _its, converged = picard_step(state, cfg, NONLIN)
        assert converged.tolist() == [False]

    def test_overflowing_update_fails(self):
        # Near blow-up the iterates grow until the norm of an update
        # overflows: inf <= inf is no contraction, and the iteration fails at
        # its first step, on the iterate that is no longer finite.
        grid = Grid(extents=(1.0,), modes=(64,))
        cfg = StepConfig(dt=1e-2, scheme="picard")
        series = simulate(single_mode_state(grid, 10.0, 10.0), 0.1, cfg, NONLIN)
        assert series.termination == integrate.Termination("picard_failed", 0.01)
        assert series.max_picard_iterations == 20

    def test_simulate_reuses_sampled_source(self, g8, monkeypatch):
        # A step that starts at a sampled state takes f_old from the run loop:
        # the source is evaluated once per sampled state, and the states match
        # stepping alone bit for bit.
        def key(s):
            return s.psi.coeffs.tobytes() + s.v.coeffs.tobytes()

        evaluated = []

        def counting_operator(grid, p):
            # The run's source operator, recording each stacked state it maps.
            operator = _source_operator(grid, p)

            def source(U, out=None):
                evaluated.append(U.tobytes())
                return operator(U, out)

            return source

        state = single_mode_state(g8, 0.05, 0.05)
        cfg = StepConfig(dt=1e-2, scheme="picard")
        expected = state
        for _ in range(4):
            expected = one_step(expected, cfg, NONLIN)
        # A run to 0.02 ends on the state that the run to 0.04 samples there.
        sampled = [state] + [simulate(state, T, cfg, NONLIN).final for T in (0.02, 0.04)]
        monkeypatch.setattr(integrate, "_source_operator", counting_operator)
        final = simulate(state, 0.04, cfg, NONLIN, sample_every=2).final
        assert [evaluated.count(key(s)) for s in sampled] == [1, 1, 1]
        assert np.array_equal(final.psi.coeffs, expected.psi.coeffs)
        assert np.array_equal(final.v.coeffs, expected.v.coeffs)

    def test_agreement_with_imex2_at_second_order(self, g8):
        # both schemes are O(dt^2); their difference must shrink ~4x per halving
        state = single_mode_state(g8, 0.05, 0.05)
        diffs = []
        for dt in (4e-3, 2e-3):
            out = {}
            for scheme in ("imex2", "picard"):
                cfg = StepConfig(dt=dt, scheme=scheme)
                final = simulate(state, 1.0, cfg, NONLIN, sample_every=10**9).final
                out[scheme] = final.psi.coeffs
            diffs.append(np.max(np.abs(out["imex2"] - out["picard"])))
        assert diffs[0] / diffs[1] == pytest.approx(4.0, rel=0.5)


class TestSimulate:
    def test_zero_data_stays_zero(self, g8):
        state = SimState(psi=zero_field(g8), v=zero_field(g8))
        series = simulate(state, 1.0, StepConfig(dt=1e-2), NONLIN)
        assert series.termination.completed
        assert np.all(series.column("E") == 0.0)

    def test_times_strictly_increasing_and_aligned(self, g8):
        state = single_mode_state(g8, 0.01, 0.01)
        series = simulate(state, 0.1, StepConfig(dt=1e-3), NONLIN, sample_every=7)
        t = series.column("t")
        assert np.all(np.diff(t) > 0)
        assert len(t) == 1 + 15  # initial state, 14 full strides of 7, final state
        assert t[0] == 0.0 and t[-1] == pytest.approx(0.1, abs=1e-12)

    def test_column_views_and_unknown_column(self, g8):
        series = simulate(single_mode_state(g8), 0.1, StepConfig(dt=1e-2), LINEAR)
        assert np.shares_memory(series.column("E"), series.data)
        with pytest.raises(KeyError, match="no_such_column"):
            series.column("no_such_column")

    def test_linear_energy_series_matches_modal_closed_form(self, g8):
        state = single_mode_state(g8)
        series = simulate(state, 5.0, StepConfig(dt=1e-3), LINEAR, sample_every=100)
        t = series.column("t")
        w, wp = modal_solution(-1.0, 1.0, 1.0, 1.0, 0.0, t)
        nu = np.pi / 2
        E_exact = 0.5 * wp**2 * nu + 0.5 * w**2 * nu + 0.5 * w**2 * nu + wp**2 * nu
        assert np.max(np.abs(series.column("E") - E_exact)) <= 1e-4

    def test_small_data_nonlinear_run_decays(self, g8):
        # dt/10 reference run as oracle for the sampled energies.  E itself
        # rings at the underdamped fundamental frequency, so the decay check
        # compares energies one ring period (2 pi / sqrt(3)) apart and asserts
        # monotonicity of the Lyapunov combination instead.
        state = single_mode_state(g8, 0.01, 0.01)
        coarse = simulate(state, 6.0, StepConfig(dt=2e-3), NONLIN, sample_every=10)
        fine = simulate(state, 6.0, StepConfig(dt=2e-4), NONLIN, sample_every=100)
        assert coarse.termination.completed
        assert np.allclose(coarse.column("t"), fine.column("t"), atol=1e-12)
        E_c, E_f = coarse.column("E"), fine.column("E")
        assert np.max(np.abs(E_c - E_f)) <= 2e-6 * E_f[0]
        t = coarse.column("t")
        period = 2 * np.pi / np.sqrt(3)
        i1 = np.searchsorted(t, 1.0)
        i2 = np.searchsorted(t, 1.0 + period)
        decay = E_c[i2] / E_c[i1]
        assert np.exp(-1.2 * period) < decay < np.exp(-0.8 * period)
        L = coarse.column("L")
        after = t >= 1.0
        assert np.all(np.diff(L[after]) <= 0)

    def test_divergence_classified(self):
        g = Grid(extents=(np.pi,), modes=(64,))
        state = single_mode_state(g, 100.0, 100.0)
        series = simulate(state, 20.0, StepConfig(dt=1e-3), NONLIN)
        assert series.termination.kind == "diverged"
        assert series.termination.time is not None
        assert series.termination.time < 1.0

    def test_final_snapshot_recorded(self, g8):
        state = single_mode_state(g8, 0.01, 0.01)
        final = simulate(state, 0.05, StepConfig(dt=1e-2), NONLIN).final
        assert final.time == pytest.approx(0.05, abs=1e-12)
        assert np.isfinite(final.psi.coeffs).all() and np.isfinite(final.v.coeffs).all()

    def test_dissipation_cumulative_nondecreasing(self, g8):
        state = single_mode_state(g8, 0.5, 0.5)
        series = simulate(state, 2.0, StepConfig(dt=1e-3), NONLIN, sample_every=10)
        d = series.column("D_cum")
        assert np.all(np.diff(d) >= 0)
        assert d[0] == 0.0

    def test_invalid_arguments(self, g8):
        state = single_mode_state(g8)
        with pytest.raises(ValueError):
            simulate(state, -1.0, StepConfig(dt=1e-2), LINEAR)
        with pytest.raises(ValueError):
            simulate(state, 1.0, StepConfig(dt=1e-2), LINEAR, sample_every=0)

    @pytest.mark.parametrize("T", [4e-4, 1.0005])
    def test_final_time_must_be_step_multiple(self, g8, T):
        # Rounding T/dt would take no step at all, or stop short of T.
        with pytest.raises(ValueError, match="whole multiple of dt"):
            simulate(single_mode_state(g8), T, StepConfig(dt=1e-3), LINEAR)

    def test_final_time_tolerates_rounding(self, g8):
        series = simulate(single_mode_state(g8), 0.3, StepConfig(dt=0.1), LINEAR)
        assert series.termination.completed
        assert series.column("t")[-1] == pytest.approx(0.3, rel=1e-12)


def assert_columns_close(batch, solo, rtol):
    """Equal shapes and non-finite entries; finite entries within ``rtol`` of each column's scale."""
    assert batch.shape == solo.shape
    finite = np.isfinite(solo)
    assert np.array_equal(np.isfinite(batch), finite)
    assert np.array_equal(batch[~finite], solo[~finite], equal_nan=True)
    batch, solo = np.where(finite, batch, 0.0), np.where(finite, solo, 0.0)
    assert np.all(np.abs(batch - solo) <= rtol * np.max(np.abs(solo), axis=0, initial=0.0))


class TestBatch:
    MIXED = [0.5, 5.0, 20.0, 80.0]
    # The same members with divergent ones ahead of survivors: the live
    # arrays are compacted from the front and the middle of the batch.
    FRONT = [80.0, 0.5, 20.0, 5.0]

    @pytest.mark.parametrize("scheme", ["imex1", "imex2", "picard"])
    @given(
        amplitudes=st.lists(st.floats(0.1, 80.0), min_size=2, max_size=4),
        sample_every=st.integers(1, 4),
    )
    @example(amplitudes=MIXED, sample_every=3)
    @example(amplitudes=FRONT, sample_every=3)
    def test_members_match_solo_runs(self, scheme, amplitudes, sample_every):
        # Amplitudes from decay to blow-up within a few steps: members
        # complete, diverge or fail picard at different steps, and leave the
        # batch as they do.  Each must match its own run.
        grid = Grid(extents=(np.pi,), modes=(16,))
        cfg = StepConfig(dt=1e-2, scheme=scheme)
        states = [single_mode_state(grid, a, a) for a in amplitudes]
        batch = simulate_batch(states, 0.5, cfg, NONLIN, sample_every)
        # Each member's rows are an array of their own (a bounds test: two
        # members' rows interleaved in one buffer would not overlap).
        for a, b in itertools.combinations(batch, 2):
            assert not np.may_share_memory(a.data, b.data)
        for state, member in zip(states, batch):
            solo = simulate(state, 0.5, cfg, NONLIN, sample_every)
            assert member.termination == solo.termination
            assert member.max_picard_iterations == solo.max_picard_iterations
            assert_columns_close(member.data, solo.data, 1e-13)
            got, want = member.final, solo.final
            assert (got is None) == (want is None) == (not solo.termination.completed)
            if want is not None:
                assert got.time == want.time
                for x, y in ((got.psi.coeffs, want.psi.coeffs), (got.v.coeffs, want.v.coeffs)):
                    assert np.max(np.abs(x - y)) <= 1e-13 * np.max(np.abs(y))
        if sorted(amplitudes) == self.MIXED:
            # The mixed examples do end their members at different steps.
            ends = {(s.termination.kind, s.termination.time) for s in batch}
            assert len(ends) >= 3

    @pytest.mark.parametrize("scheme", ["imex1", "imex2", "picard"])
    @pytest.mark.parametrize("modes", [(16,), (8, 8)])
    def test_uninitialised_work_memory_is_never_read(self, scheme, modes):
        # Every array numpy.empty makes is NaN-filled: the work arrays (imex2's
        # h plane among them, which holds no value at the start time), the
        # blocks of samples, the rows and the source's own.  The series, the
        # terminations and the final states are those of a normal run, byte
        # for byte, with members that retire along the way and blocks of
        # two samples.
        grid = Grid(extents=(np.pi,) * len(modes), modes=modes)
        mode = (1,) * len(modes)
        states = [build_initial(*[InitialDataSpec.single_mode(mode, a)] * 2, grid)
                  for a in (0.3, 30.0, 2.0, 8.0)]
        cfg = StepConfig(dt=1e-2, scheme=scheme)
        empty = np.empty

        def nan_empty(*args, **kwargs):
            a = empty(*args, **kwargs)
            if a.dtype.kind == "f":
                a.fill(np.nan)
            return a

        def outcome():
            batch = simulate_batch(states, 0.3, cfg, NONLIN, 2)
            finals = [s.final for s in batch if s.final is not None]
            return ([(s.data.tobytes(), s.termination, s.max_picard_iterations) for s in batch],
                    [(f.psi.coeffs.tobytes(), f.v.coeffs.tobytes(), f.time) for f in finals])

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(integrate, "_BLOCK_COEFFICIENTS", 2 * len(states) * np.prod(modes))
            normal = outcome()
            patch.setattr(np, "empty", nan_empty)
            filled = outcome()
        assert filled == normal
        ends = {term.kind for _, term, _ in normal[0]}
        assert len(ends) == 2 and len(normal[1]) < len(states)

    @pytest.mark.parametrize("scheme", ["imex1", "imex2", "picard"])
    @given(
        modes=st.sampled_from([(8,), (6, 5)]),
        amplitudes=st.lists(st.floats(0.1, 80.0), min_size=2, max_size=4),
        width=st.integers(1, 3),
        sample_every=st.integers(1, 3),
    )
    def test_work_arrays_never_reach_results(self, scheme, modes, amplitudes, width, sample_every):
        # A run of the whole batch, one of fewer members and the first again,
        # in one process.  No run writes its initial states, no array a run
        # returns shares memory with another run's, and the repeated run
        # gives the same bytes.
        grid = Grid(extents=(np.pi,) * len(modes), modes=modes)
        mode = (1,) * len(modes)
        states = [
            build_initial(*[InitialDataSpec.single_mode(mode, a)] * 2, grid) for a in amplitudes
        ]
        inputs = [(s.psi.coeffs.tobytes(), s.v.coeffs.tobytes()) for s in states]
        cfg = StepConfig(dt=1e-2, scheme=scheme)
        first, narrow, again = (
            simulate_batch(batch, 0.2, cfg, NONLIN, sample_every)
            for batch in (states, states[: min(width, len(states) - 1)], states)
        )
        assert [(s.psi.coeffs.tobytes(), s.v.coeffs.tobytes()) for s in states] == inputs

        def arrays(run):
            finals = [(s.final.psi.coeffs, s.final.v.coeffs) for s in run if s.final is not None]
            return [s.data for s in run] + [c for pair in finals for c in pair]

        for one, other in itertools.combinations((first, narrow, again), 2):
            for a, b in itertools.product(arrays(one), arrays(other)):
                assert not np.may_share_memory(a, b)
        for x, y in zip(first, again):
            assert x.termination == y.termination
            assert x.data.tobytes() == y.data.tobytes()
            assert [a.tobytes() for a in arrays([x])] == [a.tobytes() for a in arrays([y])]

    @pytest.mark.parametrize("scheme", ["imex1", "imex2", "picard"])
    def test_wide_batch_matches_solo_runs(self, scheme):
        # 130 members at N=16, whose source is one product per axis of 520
        # rows.  Every member ends as its solo run does.  Its rows agree to
        # rounding grown by the run: OpenBLAS may compute a solo run's small
        # product with another kernel than a wide batch's (see
        # blackstock.dynamics._source_operator), and the members that approach
        # blow-up amplify that ulp-level difference to about 3e-11.
        grid = Grid(extents=(np.pi,), modes=(16,))
        cfg = StepConfig(dt=1e-2, scheme=scheme)
        states = [single_mode_state(grid, a, a) for a in np.linspace(0.1, 80.0, 130)]
        batch = simulate_batch(states, 0.5, cfg, NONLIN, 3)
        for state, member in zip(states, batch):
            solo = simulate(state, 0.5, cfg, NONLIN, 3)
            assert member.termination == solo.termination
            assert member.max_picard_iterations == solo.max_picard_iterations
            assert_columns_close(member.data, solo.data, 1e-10)
        # Under picard the members that blow up fail their iteration first.
        ends = {s.termination.kind for s in batch}
        assert ends == ({"completed", "picard_failed"} if scheme == "picard"
                        else {"completed", "diverged"})

    @pytest.mark.parametrize("scheme", ["imex1", "imex2", "picard"])
    @given(
        amplitudes=st.lists(
            st.one_of(st.floats(0.1, 300.0), st.sampled_from([1e100, 1e200])),
            min_size=2,
            max_size=4,
        ),
        sample_every=st.integers(1, 4),
        block_samples=st.integers(1, 3),
        cutoff_exponent=st.floats(1.0, 12.0),
    )
    # Between them the two examples end members on the energy cutoff (1e100
    # at the start time, 5.0 and 20.0 under imex, 5.0 at cutoff 1e4 under
    # picard), on a non-finite source (1e200 at the start time, 5.0 at cutoff
    # 1e12 under picard) and with picard_failed (20.0 under picard).  No
    # member reaches a non-finite state: its quadratic source overflows first.
    @example(amplitudes=[0.5, 5.0, 1e100, 1e200], sample_every=3, block_samples=2,
             cutoff_exponent=12.0)
    @example(amplitudes=[0.5, 5.0, 20.0, 1e100], sample_every=3, block_samples=2,
             cutoff_exponent=4.0)
    def test_blocked_rows_match_sampled_states(
        self, scheme, amplitudes, sample_every, block_samples, cutoff_exponent
    ):
        # Blocks of 1-3 samples, so that members retire in the middle of a
        # block.  A run of each member alone without the energy cutoff gives
        # its sampled states, the states it hands to the diagnostics: the
        # member has a row at each of them up to its end, and each row is the
        # diagnostics of that state.  A member ends on the first sample, the
        # initial one included, whose energy exceeds the cutoff, with that
        # row as its last.
        grid = Grid(extents=(np.pi,), modes=(16,))
        cfg = StepConfig(dt=1e-2, scheme=scheme)
        cutoff = 10.0**cutoff_exponent
        states = [single_mode_state(grid, a, a) for a in amplitudes]
        references = []

        def spy(grid, times, X, *rest):
            # The solo run's block of samples: each time with its state.
            states = X[:2, :, 0].swapaxes(0, 1).copy()
            references[-1].update(zip(np.ravel(times).tolist(), states))
            return instantaneous_diagnostics(grid, times, X, *rest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(integrate, "_BLOCK_COEFFICIENTS", block_samples * len(states) * 16)
            patch.setattr(integrate, "ENERGY_BLOWUP_CUTOFF", cutoff)
            batch = simulate_batch(states, 0.5, cfg, NONLIN, sample_every)
            patch.setattr(integrate, "ENERGY_BLOWUP_CUTOFF", np.inf)
            patch.setattr(integrate, "instantaneous_diagnostics", spy)
            for state in states:
                references.append({})
                simulate(state, 0.5, cfg, NONLIN, sample_every)
        g = GammaWeights()
        for member, sampled in zip(batch, references):
            t, E = member.column("t"), member.column("E")
            end = member.termination
            # A state the reference samples at the end time was finite, with a
            # finite source: the member ended there on the energy cutoff.
            assert t.tolist() == [s for s in sampled if end.completed or s <= end.time]
            on_cutoff = not end.completed and t[-1:].tolist() == [end.time]
            if on_cutoff:
                assert E[-1] > cutoff
            assert np.all(E[: len(E) - on_cutoff] <= cutoff)
            want = []
            for time in t:
                U = sampled[time]
                with np.errstate(over="ignore", invalid="ignore"):  # the states near blow-up
                    f = _source_operator(grid, NONLIN)(U[:, None])[0]
                    X = np.concatenate((U, f[None]))
                    want.append(instantaneous_diagnostics(grid, time, X, NONLIN, g))
            want = np.reshape(want, (len(t), len(DIAGNOSTIC_COLUMNS)))
            assert_columns_close(member.data[:, : len(DIAGNOSTIC_COLUMNS)], want, 1e-13)

    @pytest.mark.parametrize("scheme", ["imex1", "imex2", "picard"])
    def test_initial_state_is_checked(self, scheme):
        # The initial state takes the checks of a sample: a member that starts
        # above the energy cutoff ends at the start time with that one row,
        # one that starts with a NaN ends there with none.  Neither takes a
        # step, and the other members run as they would alone.
        grid = Grid(extents=(np.pi,), modes=(16,))
        cfg = StepConfig(dt=1e-2, scheme=scheme)
        calm, huge = single_mode_state(grid, 0.5, 0.5), single_mode_state(grid, 1e100, 1e100)
        nan = np.zeros(grid.modes)
        nan[3] = np.nan
        broken = SimState(psi=SpectralField(grid, nan), v=zero_field(grid))
        batch = simulate_batch([calm, huge, broken], 0.5, cfg, NONLIN)
        for state, member, n_rows in ((huge, batch[1], 1), (broken, batch[2], 0)):
            for series in (simulate(state, 0.5, cfg, NONLIN), member):
                assert series.termination == integrate.Termination("diverged", 0.0)
                assert series.column("t").tolist() == [0.0] * n_rows
                assert series.final is None
                assert series.max_picard_iterations == 0
        assert batch[1].column("E")[0] > integrate.ENERGY_BLOWUP_CUTOFF
        alone = simulate(calm, 0.5, cfg, NONLIN)
        assert batch[0].termination == alone.termination
        assert_columns_close(batch[0].data, alone.data, 1e-13)

    def test_picard_member_fails_while_another_iterates(self):
        # The iterate of 10.0 is not finite at iteration 20, while 3.16 still
        # iterates: 10.0 leaves the iteration and 3.16 goes on as it does
        # alone.
        grid = Grid(extents=(1.0,), modes=(64,))
        cfg = StepConfig(dt=1e-2, scheme="picard")
        states = [single_mode_state(grid, a, a) for a in (3.16, 10.0)]
        calm, failing = simulate_batch(states, 0.1, cfg, NONLIN)
        assert failing.termination == integrate.Termination("picard_failed", 0.01)
        solo = simulate(states[0], 0.1, cfg, NONLIN)
        assert calm.termination.completed and solo.termination.completed
        assert calm.max_picard_iterations == solo.max_picard_iterations
        assert_columns_close(calm.data, solo.data, 1e-13)
        for x, y in ((calm.final.psi.coeffs, solo.final.psi.coeffs),
                     (calm.final.v.coeffs, solo.final.v.coeffs)):
            assert np.max(np.abs(x - y)) <= 1e-13 * np.max(np.abs(y))

    def test_picard_checks_the_source_at_unsampled_states(self):
        # The source is evaluated and checked at every new state, sampled or
        # not: a member whose source is not finite between samples ends
        # diverged at that step, as it does when every step is sampled.  Under
        # the linear medium every member converges in one iteration, so each
        # step evaluates the source twice, in the iteration and at the new
        # state; the fifth evaluation is the check of the state at 0.02, and
        # it gives the member of mode 2 a NaN.
        grid = Grid(extents=(np.pi,), modes=(16,))
        cfg = StepConfig(dt=1e-2, scheme="picard")
        states = [
            build_initial(*[InitialDataSpec.single_mode((mode,), 0.5)] * 2, grid) for mode in (1, 2)
        ]

        def faulty_operator(grid, p):
            operator = _source_operator(grid, p)
            calls = itertools.count(1)

            def source(U, out=None):
                f = operator(U, out)
                if next(calls) == 5:
                    f[U[0, :, 1] != 0, 1] = np.nan
                return f

            return source

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(integrate, "_source_operator", faulty_operator)
            every, third = (simulate_batch(states, 0.5, cfg, LINEAR, n) for n in (1, 3))
        for run, times in ((every, [0.0, 0.01]), (third, [0.0])):
            assert run[0].termination.completed
            assert run[1].termination == integrate.Termination("diverged", 0.02)
            assert run[1].column("t").tolist() == times

    #: A fault's entries: a NaN, an infinity, or two finite entries near 1e308
    #: whose sum overflows.  1.5 times the latter is still finite, so imex2's
    #: extrapolation of an overflowing source stays finite too.
    FAULTS = {"nan": [np.nan], "inf": [np.inf], "-inf": [-np.inf], "overflow": [1.1e308, 9e307]}

    @pytest.mark.parametrize("scheme", ["imex1", "imex2", "picard"])
    @given(
        faults=st.lists(
            st.tuples(
                st.sampled_from([None, *FAULTS]),
                st.sampled_from(["state", "source"]),
                st.integers(1, 8),
            ),
            min_size=1,
            max_size=4,
        ),
        linear=st.booleans(),
        sample_every=st.integers(1, 3),
    )
    @example(
        faults=[(None, "state", 1), ("overflow", "state", 1), ("overflow", "source", 3),
                ("nan", "source", 4)],
        linear=True, sample_every=2,
    )
    @example(
        faults=[(None, "state", 1), ("-inf", "state", 1), ("overflow", "state", 1),
                ("inf", "source", 1)],
        linear=False, sample_every=1,
    )
    def test_sum_check_ends_each_member_as_alone(self, scheme, faults, linear, sample_every):
        # The run tests the sum of the batch's state and source for
        # finiteness, and the members one by one only when that fails.  Member
        # j owns modes 2j and 2j+1.  A fault is in its initial state, or in
        # the source of its k-th source evaluation.  Under the linear medium
        # the source is zero and no mode couples to another, so the source
        # evaluation knows each member by its modes and injects the fault;
        # under the nonlinear one a fault in the source is an initial state
        # of 1e200, whose quadratic source overflows.  The energy cutoff is
        # off, so that only the finiteness checks end a member.
        grid = Grid(extents=(np.pi,), modes=(16,))
        cfg = StepConfig(dt=1e-2, scheme=scheme)
        medium = LINEAR if linear else NONLIN
        states = []
        for j, (fault, where, _k) in enumerate(faults):
            psi, v = np.zeros(grid.modes), np.zeros(grid.modes)
            psi[2 * j : 2 * j + 2] = v[2 * j : 2 * j + 2] = 0.3
            if fault == "overflow" and where == "state":
                psi[2 * j : 2 * j + 2], v[2 * j : 2 * j + 2] = 0.0, self.FAULTS[fault]
            elif fault and where == "state":
                psi[2 * j] = self.FAULTS[fault][0]
            elif fault and not linear:
                psi[2 * j : 2 * j + 2] = v[2 * j : 2 * j + 2] = 1e200
            states.append(SimState(SpectralField(grid, psi), SpectralField(grid, v)))

        def faulty_operator(grid, p):
            operator = _source_operator(grid, p)
            evaluations = [0] * len(faults)

            def source(U, out=None):
                f = operator(U, out)
                for row, (psi, v) in enumerate(U.swapaxes(0, 1)):
                    j = np.flatnonzero((psi != 0) | (v != 0))[0] // 2
                    evaluations[j] += 1
                    fault, where, k = faults[j]
                    if fault and where == "source" and evaluations[j] == k:
                        values = self.FAULTS[fault]
                        f[row, 2 * j : 2 * j + len(values)] = values
                return f

            return source

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(integrate, "ENERGY_BLOWUP_CUTOFF", np.inf)
            if linear:
                patch.setattr(integrate, "_source_operator", faulty_operator)
            batch = simulate_batch(states, 0.1, cfg, medium, sample_every)
            solos = [simulate(state, 0.1, cfg, medium, sample_every) for state in states]
        for (fault, where, k), member, solo in zip(faults, batch, solos):
            assert member.termination == solo.termination
            assert member.max_picard_iterations == solo.max_picard_iterations
            assert member.column("t").tolist() == solo.column("t").tolist()
            assert_columns_close(member.data, solo.data, 1e-13)
            if fault is None or (fault == "overflow" and linear):
                assert member.termination.completed
            elif where == "state" or not linear:
                assert member.termination == integrate.Termination("diverged", 0.0)
                assert member.data.shape[0] == 0
            elif scheme == "imex1":
                assert member.termination == integrate.Termination("diverged", (k - 1) * cfg.dt)

    def test_members_must_share_grid_and_start_time(self, g8):
        cfg = StepConfig(dt=1e-2)
        other = Grid(extents=(1.0,), modes=(8,))
        with pytest.raises(ValueError, match="share one grid"):
            simulate_batch([single_mode_state(g8), single_mode_state(other)], 0.1, cfg, LINEAR)
        later = SimState(psi=zero_field(g8), v=zero_field(g8), time=1.0)
        with pytest.raises(ValueError, match="share one grid"):
            simulate_batch([single_mode_state(g8), later], 0.1, cfg, LINEAR)
        with pytest.raises(ValueError, match="at least one"):
            simulate_batch([], 0.1, cfg, LINEAR)
