"""Acceptance suite: one test per verification criterion, at pinned tolerances.

Each criterion prints one PASS/FAIL line per clause (visible with ``pytest -s``
or on failure).  Criterion 2's log-linearity gate is measured against the
exact solution: the energy of the underdamped fundamental mode on the pi box
oscillates intrinsically (relative ring amplitude sqrt(7)/5 of the mean), so
the r^2 of a log-linear fit is ~0.981 even for the closed form, and the run
must match that; see the test docstring.
"""

import json

import numpy as np
import pytest

from blackstock import (
    GammaWeights,
    Grid,
    GronwallParams,
    InitialDataSpec,
    MediumParams,
    StepConfig,
    agmon_ratio,
    build_initial,
    fit_decay,
    gronwall_verify,
    identity_residual,
    interpolation_ratio,
    load_checkpoint,
    max_ratios,
    random_admissible_gronwall,
    random_trig_fields,
    save_checkpoint,
    simulate,
    simulate_batch,
    threshold_bisection,
    weighted_regularity_study,
)
from blackstock.cli import main

from .helpers import equivalence_scan, modal_solution, probe_states


LINEAR = MediumParams(c=1.0, b=1.0)
NONLIN = MediumParams(c=1.0, b=1.0, k=1.0, sigma=1.0)


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def small_data_state(grid, amplitude=0.01):
    spec = InitialDataSpec.single_mode((1,), amplitude)
    return build_initial(spec, spec, grid)


@pytest.fixture(scope="module")
def pi_grid():
    return Grid(extents=(np.pi,), modes=(64,))


@pytest.fixture(scope="module")
def item2_series(pi_grid):
    """The canonical small-data nonlinear run shared by criteria 2, 3, 4."""
    return simulate(
        small_data_state(pi_grid),
        20.0,
        StepConfig(dt=1e-3, scheme="imex2"),
        NONLIN,
        sample_every=1,
    )


class TestCriterion1LinearCorrectness:
    def test_modal_accuracy_and_order(self, pi_grid):
        w_exact, _ = modal_solution(-1.0, 1.0, 1.0, 1.0, 0.0, 1.0)
        state = build_initial(
            InitialDataSpec.single_mode((1,), 1.0), InitialDataSpec.zero(), pi_grid
        )
        errors = {}
        for dt in (4e-3, 2e-3, 1e-3):
            series = simulate(
                state, 1.0, StepConfig(dt=dt, scheme="imex2"), LINEAR, sample_every=10**9
            )
            errors[dt] = abs(series.final.psi.coeffs[0] - w_exact)
        rel = errors[1e-3] / abs(w_exact)
        ok_acc = report("1", rel <= 1e-5, f"imex2 dt=1e-3 relative error {rel:.3e} <= 1e-5")
        ratios = [errors[4e-3] / errors[2e-3], errors[2e-3] / errors[1e-3]]
        ok_ord = report(
            "1",
            all(abs(r - 4.0) <= 0.4 for r in ratios),
            f"error ratios per dt halving {ratios[0]:.3f}, {ratios[1]:.3f} within 4 +- 10%",
        )
        assert ok_acc and ok_ord


class TestCriterion2ExponentialDecay:
    def test_completion_and_rate(self, item2_series):
        ok_done = report(
            "2", item2_series.termination.completed, "small-data nonlinear run completes"
        )
        fit = fit_decay(item2_series, (5.0, 15.0))
        ok_rate = report(
            "2",
            abs(fit.zeta - 1.0) <= 0.15,
            f"fitted zeta {fit.zeta:.4f} within 15% of the modal energy rate 1.0",
        )
        assert ok_done and ok_rate

    def test_log_linearity_gate(self, item2_series):
        """The run is as log-linear as the exact solution, and it decays.

        With c = b = 1 the only linear mode with energy rate 1.0 is the
        underdamped fundamental on the pi box (roots (-1 +- i sqrt(3))/2),
        whose energy rings between (5/3 - sqrt(7)/3) and (5/3 + sqrt(7)/3)
        times the decaying envelope.  The least-squares r^2 of log E over
        (5, 15) is therefore ~0.981 for the exact solution itself.  The
        clause compares the run's r^2 with that of the closed-form modal
        energy at the same sample times, so a spurious ring, noise or drift
        that costs the discrete run more than 1e-4 of r^2 fails it.
        """
        fit = fit_decay(item2_series, (5.0, 15.0))
        t = item2_series.column("t")
        t = t[(t >= 5.0) & (t <= 15.0)]
        w, v = modal_solution(-1.0, 1.0, 1.0, 0.01, 0.01, t)
        # E = 1/2 v^2 + c^2/2 |grad w|^2 + c^2/(2b) |Delta w|^2 + |grad v|^2, lam = -1
        log_e = np.log(0.5 * v**2 + 0.5 * w**2 + 0.5 * w**2 + v**2)
        resid = log_e - np.polyval(np.polyfit(t, log_e, 1), t)
        r2_exact = 1.0 - np.sum(resid**2) / np.sum((log_e - log_e.mean()) ** 2)
        ok_r2 = report(
            "2",
            fit.r_squared >= r2_exact - 1e-4,
            f"fit r^2 {fit.r_squared:.6f} >= exact-solution r^2 {r2_exact:.6f} - 1e-4",
        )
        ok_cls = report(
            "2",
            fit.classification == "decays",
            f"classification {fit.classification!r} == 'decays'",
        )
        assert ok_r2 and ok_cls


class TestCriterion3LyapunovMonotonicity:
    def test_monotone_and_equivalent(self, item2_series, pi_grid):
        t = item2_series.column("t")
        L = item2_series.column("L")
        after = t >= 1.0
        increments = np.diff(L[after])
        ok_mono = report(
            "3",
            bool(np.all(increments <= 0)),
            f"L nonincreasing for t >= 1 (max increment {increments.max():.3e})",
        )
        c1, c2 = equivalence_scan(NONLIN, GammaWeights(), probe_states(pi_grid))
        ok_c1 = report("3", c1 > 0, f"equivalence scan C1_hat {c1:.4f} > 0 (C2_hat {c2:.4f})")
        assert ok_mono and ok_c1


class TestCriterion4EnergyIdentityResidual:
    def test_residual_size_and_order(self, item2_series, pi_grid):
        res_fine = np.max(np.abs(identity_residual(item2_series, NONLIN)))
        ok_size = report(
            "4", res_fine <= 1e-4, f"max identity residual {res_fine:.3e} <= 1e-4 at dt=1e-3"
        )
        coarse = simulate(
            small_data_state(pi_grid),
            20.0,
            StepConfig(dt=2e-3, scheme="imex2"),
            NONLIN,
            sample_every=1,
        )
        res_coarse = np.max(np.abs(identity_residual(coarse, NONLIN)))
        order = np.log2(res_coarse / res_fine)
        ok_order = report(
            "4", order >= 1.9, f"residual convergence order {order:.2f} >= 1.9 under halving"
        )
        assert ok_size and ok_order


class TestCriterion5TimeWeightedRegularity:
    def test_rough_data_refinement_study(self):
        study = weighted_regularity_study(
            NONLIN,
            (64, 128, 256),
            T=4.0,
            dt=1e-3,
            spec1=InitialDataSpec.power_law(2.0, 0.01),
        )
        ok_grow = report(
            "5",
            study.unweighted_growth >= 1.5,
            f"sup_t ||Delta psi_t|| grows x{study.unweighted_growth:.3f} >= 1.5 from N=64 to 256",
        )
        ok_flat = report(
            "5",
            study.weighted_change <= 0.10,
            f"sup_t sqrt(t) ||Delta psi_t|| changes {100 * study.weighted_change:.2f}% <= 10%",
        )
        assert ok_grow and ok_flat


class TestCriterion6SmallDataDichotomy:
    SPECS = (
        InitialDataSpec.single_mode((1,), 1.0),
        InitialDataSpec.single_mode((1,), 1.0),
    )
    CFG = StepConfig(dt=2e-3, scheme="imex2")

    def test_threshold_bracketing_and_refinement(self):
        deltas = {}
        for N in (64, 128):
            grid = Grid(extents=(1.0,), modes=(N,))
            rep = threshold_bisection(
                NONLIN, self.SPECS, 0.01, 100.0, 12, grid=grid, T=20.0,
                cfg=self.CFG, sample_every=10,
            )
            deltas[N] = rep.delta_star
            by_amp = dict(rep.runs)
            assert by_amp[0.01] == "decays" and by_amp[100.0] == "diverges"
        change = abs(deltas[128] - deltas[64]) / deltas[64]
        ok_bracket = report(
            "6", True, f"delta* bracketed: {deltas[64]:.4f} (N=64), {deltas[128]:.4f} (N=128)"
        )
        ok_stable = report(
            "6", change <= 0.10, f"delta* changes {100 * change:.2f}% <= 10% under refinement"
        )
        grid = Grid(extents=(1.0,), modes=(64,))
        below, above = (0.3, 0.4, 0.5), (2.0, 3.0, 4.0)
        states = []
        for m in below + above:
            spec = InitialDataSpec.single_mode((1,), m * deltas[64])
            states.append(build_initial(spec, spec, grid))
        classes = [
            fit_decay(s).classification
            for s in simulate_batch(states, 20.0, self.CFG, NONLIN, sample_every=10)
        ]
        sides_ok = classes == ["decays"] * len(below) + ["diverges"] * len(above)
        ok_sides = report(
            "6", sides_ok, "all runs decay below delta*/2 and diverge above 2 delta*"
        )
        assert ok_bracket and ok_stable and ok_sides

    def test_linear_medium_has_no_threshold(self):
        grid = Grid(extents=(1.0,), modes=(64,))
        with pytest.raises(ValueError) as err:
            threshold_bisection(
                LINEAR, self.SPECS, 0.01, 100.0, 2, grid=grid, T=20.0,
                cfg=self.CFG, sample_every=10,
            )
        both_decay = "= decays" in str(err.value) and str(err.value).count("decays") == 2
        ok = report("6", both_decay, "linear medium: bisection reports both endpoints decay")
        assert ok


class TestCriterion7InequalitySuites:
    def test_scale_invariance_and_stability(self):
        grid = Grid(extents=(np.pi,), modes=(32,))
        violations = 0
        for u in random_trig_fields(grid, 50, seed=301):
            for fn in (
                agmon_ratio,
                lambda w: interpolation_ratio(w, 3),
                lambda w: interpolation_ratio(w, 4),
            ):
                if abs(fn(7.0 * u) / fn(u) - 1.0) > 1e-10:
                    violations += 1
        ok_scale = report("7", violations == 0, f"{violations} scale-invariance violations")

        stable = True
        details = []
        base = max_ratios(grid, 10_000, seed=302)
        doubled = max_ratios(grid, 20_000, seed=302)
        for kind in base:
            rel = (doubled[kind] - base[kind]) / base[kind]
            stable &= rel < 0.05
            details.append(f"{kind}: {100 * rel:.2f}%")
        ok_stable = report("7", stable, "max ratios stable under doubling: " + "; ".join(details))
        assert ok_scale and ok_stable

    def test_gronwall_bound(self):
        worked = GronwallParams(c1=2.0, c2=1.0, kappa=1.0, a=-1.0, u0=0.05)
        assert worked.smallness == pytest.approx(-0.6, abs=1e-14)
        coeff_ok = abs(worked.bound_coefficient - 1.6667) < 1e-4
        check = gronwall_verify(worked, T=10.0, dt=1e-4)
        ok_worked = report(
            "7",
            coeff_ok and check.ok,
            f"worked case: bound coefficient {worked.bound_coefficient:.4f} ~ 1.6667, trace below bound",
        )
        results = [
            gronwall_verify(g, T=10.0, dt=1e-3).ok
            for g in random_admissible_gronwall(100, seed=303)
        ]
        ok_draws = report(
            "7", all(results), f"{sum(results)}/100 random admissible draws satisfy the bound"
        )
        assert ok_worked and ok_draws


class TestCriterion8PicardFixedPoint:
    def test_small_data_iteration_budget(self, pi_grid):
        series = simulate(
            small_data_state(pi_grid),
            20.0,
            StepConfig(dt=1e-3, scheme="picard"),
            NONLIN,
            sample_every=10,
        )
        ok = report(
            "8",
            series.termination.completed and series.max_picard_iterations <= 5,
            f"picard completes with max {series.max_picard_iterations} iterations per step (<= 5)",
        )
        assert ok

    def test_large_amplitude_leaves_contraction_regime(self, pi_grid):
        series = simulate(
            small_data_state(pi_grid, amplitude=50.0),
            20.0,
            StepConfig(dt=1e-3, scheme="picard"),
            NONLIN,
            sample_every=10,
        )
        ok = report(
            "8",
            series.termination.kind == "picard_failed",
            f"amplitude 50 terminates with {series.termination.kind} at t={series.termination.time}",
        )
        assert ok


class TestCriterion9Infrastructure:
    def test_determinism_bit_identical_csv(self, tmp_path):
        payload = {
            "medium": {"c": 1.0, "b": 1.0, "k": 1.0, "sigma": 1.0},
            "grid": {"modes": [32]},
            "initial": {
                "psi0": {"kind": "single_mode", "mode": [1], "amplitude": 0.01},
                "psi1": {"kind": "single_mode", "mode": [1], "amplitude": 0.01},
            },
            "integrator": {"T": 2.0, "dt": 1e-3},
            "seed": 5,
        }
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(payload))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
            outs.append((out / "series.csv").read_bytes())
        ok = report("9", outs[0] == outs[1], "identical config+seed give bit-identical CSV")
        assert ok

    def test_checkpoint_roundtrip(self, tmp_path, pi_grid):
        cfg = StepConfig(dt=1e-3, scheme="picard")
        full = simulate(small_data_state(pi_grid), 2.0, cfg, NONLIN, sample_every=10**9)
        full_final = full.final
        first = simulate(small_data_state(pi_grid), 1.0, cfg, NONLIN, sample_every=10**9)
        path = tmp_path / "mid.ckpt"
        save_checkpoint(path, first.final)
        second = simulate(load_checkpoint(path), 1.0, cfg, NONLIN, sample_every=10**9)
        resumed = second.final
        err = max(
            np.max(np.abs(resumed.psi.coeffs - full_final.psi.coeffs)),
            np.max(np.abs(resumed.v.coeffs - full_final.v.coeffs)),
        )
        ok = report("9", err <= 1e-12, f"checkpoint round-trip error {err:.3e} <= 1e-12")
        assert ok
