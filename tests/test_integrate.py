"""The run loop: accuracy, stability, picard iteration and divergence handling."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from blackstock import (
    Grid,
    InitialDataSpec,
    MediumParams,
    SimState,
    StepConfig,
    build_initial,
    simulate,
    simulate_batch,
)
import blackstock.integrate as integrate
from blackstock.dynamics import quadratic_source
from blackstock.energy import (
    DIAGNOSTIC_COLUMNS,
    SERIES_COLUMNS,
    GammaWeights,
    instantaneous_diagnostics,
)
from blackstock.integrate import _ModalSolver, _picard_step

from .helpers import modal_solution


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
        with pytest.raises(ValueError):
            StepConfig(dt=0.1, picard_tol=-1.0)


def one_step(state, cfg, p):
    """The state one step of ``cfg`` after ``state``, through the run loop."""
    return simulate(state, cfg.dt, cfg, p).snapshots[-1][1]


class TestSingleSteps:
    @pytest.mark.parametrize("scheme", ["imex1", "imex2"])
    def test_zero_state_fixed_point(self, g8, scheme):
        state = SimState(psi=g8.zeros(), v=g8.zeros())
        cfg = StepConfig(dt=0.5, scheme=scheme)
        out = one_step(state, cfg, NONLIN)
        assert np.all(out.psi.coeffs == 0.0) and np.all(out.v.coeffs == 0.0)
        assert out.time == 0.5

    def test_zero_state_fixed_point_picard(self, g8):
        state = SimState(psi=g8.zeros(), v=g8.zeros())
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
            psi=grid.field(rng.standard_normal(grid.modes)),
            v=grid.field(rng.standard_normal(grid.modes)),
        )
        p = MediumParams(c=c, b=b)
        before = 0.5 * state.v.coeffs**2 + 0.5 * c**2 * (-lam) * state.psi.coeffs**2
        out = one_step(state, StepConfig(dt=dt * 10.0**decades, scheme=scheme), p)
        after = 0.5 * out.v.coeffs**2 + 0.5 * c**2 * (-lam) * out.psi.coeffs**2
        assert np.all(after <= before * (1 + 8 * np.finfo(float).eps))
        if (seed, c, b, decades) == (9, 1.0, 1.0, 0.0):
            assert np.all(after <= before + 1e-14)


class TestModalAccuracy:
    def test_imex2_matches_closed_form(self, g8):
        # c = b = 1, mode 1 on (0, pi): w(t) = e^{-t/2}(cos + sin/sqrt(3))(sqrt(3)t/2)
        state = single_mode_state(g8)
        cfg = StepConfig(dt=1e-3, scheme="imex2")
        series = simulate(state, 1.0, cfg, LINEAR, sample_every=1000)
        _t, final = series.snapshots[-1]
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
            series = simulate(single_mode_state(g8), 1.0, cfg, LINEAR, sample_every=10**9)
            _t, final = series.snapshots[-1]
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
            _t, final = simulate(state, 0.4, cfg, NONLIN, sample_every=10**9).snapshots[-1]
            finals.append(np.concatenate([final.psi.coeffs.ravel(), final.v.coeffs.ravel()]))
        diffs = [np.max(np.abs(x - y)) for x, y in zip(finals, finals[1:])]
        ratios = [d0 / d1 for d0, d1 in zip(diffs, diffs[1:])]
        assert ratios == [pytest.approx(2.0**expected_order, rel=0.1)] * 2


class TestPicard:
    def test_linear_problem_converges_in_one_iteration(self, g8):
        state = single_mode_state(g8, 0.5, 0.5)
        cfg = StepConfig(dt=1e-2, scheme="picard")
        solver = _ModalSolver(g8, LINEAR, cfg.dt)
        psi, v = state.psi.coeffs[None], state.v.coeffs[None]
        f_old = quadratic_source(g8, psi, v, LINEAR)
        _psi, _v, iterations, converged = _picard_step(g8, psi, v, f_old, solver, cfg, LINEAR)
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
        solver = _ModalSolver(g, NONLIN, cfg.dt)
        psi, v = state.psi.coeffs[None], state.v.coeffs[None]
        f_old = quadratic_source(g, psi, v, NONLIN)
        _psi, _v, _its, converged = _picard_step(g, psi, v, f_old, solver, cfg, NONLIN)
        assert converged.tolist() == [False]

    def test_simulate_reuses_sampled_source(self, g8, monkeypatch):
        # A step that starts at a sampled state takes f_old from the run loop:
        # the source is evaluated once per sampled state, and the states match
        # stepping alone bit for bit.
        def key(s):
            return s.psi.coeffs.tobytes() + s.v.coeffs.tobytes()

        evaluated = []

        def counting_source(grid, psi, alpha, p):
            evaluated.append(psi.tobytes() + alpha.tobytes())
            return quadratic_source(grid, psi, alpha, p)

        state = single_mode_state(g8, 0.05, 0.05)
        cfg = StepConfig(dt=1e-2, scheme="picard")
        expected = state
        for _ in range(4):
            expected = one_step(expected, cfg, NONLIN)
        monkeypatch.setattr(integrate, "quadratic_source", counting_source)
        series = simulate(state, 0.04, cfg, NONLIN, sample_every=2, snapshot_every=2)
        sampled = [state] + [snap for _t, snap in series.snapshots]
        assert len(sampled) == 3
        assert [evaluated.count(key(s)) for s in sampled] == [1, 1, 1]
        final = series.snapshots[-1][1]
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
                series = simulate(state, 1.0, cfg, NONLIN, sample_every=10**9)
                _t, final = series.snapshots[-1]
                out[scheme] = final.psi.coeffs
            diffs.append(np.max(np.abs(out["imex2"] - out["picard"])))
        assert diffs[0] / diffs[1] == pytest.approx(4.0, rel=0.5)


class TestSimulate:
    def test_zero_data_stays_zero(self, g8):
        state = SimState(psi=g8.zeros(), v=g8.zeros())
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
        series = simulate(state, 0.05, StepConfig(dt=1e-2), NONLIN)
        t_snap, snap = series.snapshots[-1]
        assert t_snap == pytest.approx(0.05, abs=1e-12)
        assert snap.is_finite()

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
    assert np.all(np.abs(batch - solo) <= rtol * np.max(np.abs(solo), axis=0))


class TestBatch:
    MIXED = [0.5, 5.0, 20.0, 80.0]

    @pytest.mark.parametrize("scheme", ["imex1", "imex2", "picard"])
    @given(
        amplitudes=st.lists(st.floats(0.1, 80.0), min_size=2, max_size=4),
        sample_every=st.integers(1, 4),
    )
    @example(amplitudes=MIXED, sample_every=3)
    def test_members_match_solo_runs(self, scheme, amplitudes, sample_every):
        # Amplitudes from decay to blow-up within a few steps: members
        # complete, diverge or fail picard at different steps, and leave the
        # batch as they do.  Each must match its own run.
        grid = Grid(extents=(np.pi,), modes=(16,))
        cfg = StepConfig(dt=1e-2, scheme=scheme)
        states = [single_mode_state(grid, a, a) for a in amplitudes]
        with pytest.MonkeyPatch.context() as patch:
            # A row buffer of one row per member: it grows as rows arrive
            # and is compacted in place as members leave.
            patch.setattr(integrate, "_ROW_BUFFER_VALUES", len(SERIES_COLUMNS) * len(states))
            batch = simulate_batch(states, 0.5, cfg, NONLIN, sample_every, snapshot_every=20)
        for state, member in zip(states, batch):
            solo = simulate(state, 0.5, cfg, NONLIN, sample_every, snapshot_every=20)
            assert member.termination == solo.termination
            assert member.max_picard_iterations == solo.max_picard_iterations
            assert_columns_close(member.data, solo.data, 1e-13)
            assert [t for t, _ in member.snapshots] == [t for t, _ in solo.snapshots]
            for (_, got), (_, want) in zip(member.snapshots, solo.snapshots):
                for x, y in ((got.psi.coeffs, want.psi.coeffs), (got.v.coeffs, want.v.coeffs)):
                    assert np.max(np.abs(x - y)) <= 1e-13 * np.max(np.abs(y))
        if amplitudes == self.MIXED:
            # The mixed example does end its members at different steps.
            ends = {(s.termination.kind, s.termination.time) for s in batch}
            assert len(ends) >= 3

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
    # Between them the two examples end members in every way: the energy
    # cutoff (5.0 under imex, 5.0 at cutoff 1e4 under picard), a non-finite
    # source (1e100 under imex, 5.0 under picard), a non-finite state (1e200
    # under imex) and picard_failed (1e100, 1e200 and 20.0 under picard).
    @example(amplitudes=[0.5, 5.0, 1e100, 1e200], sample_every=3, block_samples=2,
             cutoff_exponent=12.0)
    @example(amplitudes=[0.5, 5.0, 20.0, 1e100], sample_every=3, block_samples=2,
             cutoff_exponent=4.0)
    def test_blocked_rows_match_sampled_states(
        self, scheme, amplitudes, sample_every, block_samples, cutoff_exponent
    ):
        # Blocks of 1-3 samples, so that members retire in the middle of a
        # block.  A run of each member alone without the energy cutoff gives
        # its sampled states: the member has a row at each of them up to its
        # end, and each row is the diagnostics of that state.  A member ends
        # on the first sample whose energy exceeds the cutoff, with that row
        # as its last.
        grid = Grid(extents=(np.pi,), modes=(16,))
        cfg = StepConfig(dt=1e-2, scheme=scheme)
        cutoff = 10.0**cutoff_exponent
        states = [single_mode_state(grid, a, a) for a in amplitudes]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(integrate, "_BLOCK_COEFFICIENTS", block_samples * len(states) * 16)
            patch.setattr(integrate, "ENERGY_BLOWUP_CUTOFF", cutoff)
            batch = simulate_batch(states, 0.5, cfg, NONLIN, sample_every)
            patch.setattr(integrate, "ENERGY_BLOWUP_CUTOFF", np.inf)
            references = [
                simulate(state, 0.5, cfg, NONLIN, sample_every, snapshot_every=sample_every)
                for state in states
            ]
        g = GammaWeights()
        lam = grid.laplacian_eigenvalues
        for state, member, reference in zip(states, batch, references):
            sampled = dict([(0.0, state)] + reference.snapshots)
            t, E = member.column("t"), member.column("E")
            end = member.termination
            # A state the reference samples at the end time was finite, with a
            # finite source: the member ended there on the energy cutoff.
            assert t.tolist() == [s for s in sampled if end.completed or s <= end.time]
            on_cutoff = not end.completed and t[-1] == end.time
            if on_cutoff:
                assert E[-1] > cutoff
            # The initial sample is not tested against the cutoff.
            assert np.all(E[1 : len(E) - on_cutoff] <= cutoff)
            want = []
            for time in t:
                psi, v = sampled[time].psi.coeffs, sampled[time].v.coeffs
                with np.errstate(over="ignore", invalid="ignore"):  # the states near blow-up
                    f = quadratic_source(grid, psi, v, NONLIN)
                    accel = lam * (NONLIN.c**2 * psi + NONLIN.b * v) + f
                    want.append(instantaneous_diagnostics(grid, time, psi, v, f, accel, NONLIN, g))
            assert_columns_close(member.data[:, : len(DIAGNOSTIC_COLUMNS)], np.array(want), 1e-13)

    def test_members_must_share_grid_and_start_time(self, g8):
        cfg = StepConfig(dt=1e-2)
        other = Grid(extents=(1.0,), modes=(8,))
        with pytest.raises(ValueError, match="share one grid"):
            simulate_batch([single_mode_state(g8), single_mode_state(other)], 0.1, cfg, LINEAR)
        later = SimState(psi=g8.zeros(), v=g8.zeros(), time=1.0)
        with pytest.raises(ValueError, match="share one grid"):
            simulate_batch([single_mode_state(g8), later], 0.1, cfg, LINEAR)
        with pytest.raises(ValueError, match="at least one"):
            simulate_batch([], 0.1, cfg, LINEAR)
