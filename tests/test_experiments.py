"""Decay fitting, threshold bisection and the weighted-regularity study."""

import numpy as np
import pytest

from blackstock import (
    Grid,
    InitialDataSpec,
    MediumParams,
    StepConfig,
    build_initial,
    fit_decay,
    simulate,
    threshold_bisection,
    weighted_regularity_study,
)
import blackstock.experiments as experiments
from blackstock.experiments import MIN_DECAY_RATE
from blackstock.integrate import Termination, simulate_batch

from .helpers import modal_solution, series_from_energy


NONLIN = MediumParams(c=1.0, b=1.0, k=1.0, sigma=1.0)


class TestFitDecay:
    def test_exact_exponential(self):
        t = np.linspace(0, 10, 400)
        series = series_from_energy(t, np.exp(-2.0 * t))
        fit = fit_decay(series, (1.0, 9.0))
        assert fit.zeta == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.classification == "decays"
        assert fit.c_factor == pytest.approx(1.0, rel=1e-10)

    def test_constant_series_stagnates(self):
        t = np.linspace(0, 10, 100)
        series = series_from_energy(t, np.full_like(t, 3.7))
        fit = fit_decay(series, (1.0, 9.0))
        assert fit.zeta == pytest.approx(0.0, abs=1e-12)
        assert fit.classification == "stagnates"

    def test_ringing_decay_decays(self):
        # energy of the underdamped fundamental (c = b = 1, lambda = -1): the
        # ring caps r^2 below 0.99, but the trend dominates it
        t = np.linspace(0, 20, 2001)
        E = np.exp(-t) * (5.0 / 3.0 + np.sqrt(7.0) / 3.0 * np.cos(np.sqrt(3.0) * t))
        fit = fit_decay(series_from_energy(t, E), (5.0, 15.0))
        assert fit.r_squared < 0.99
        assert fit.zeta == pytest.approx(1.0, abs=0.05)
        assert fit.classification == "decays"

    def test_noise_dominated_series_stagnates(self):
        t = np.linspace(0, 20, 2001)
        rng = np.random.default_rng(0)
        E = np.exp(-0.05 * t + rng.normal(0.0, 0.5, t.size))
        fit = fit_decay(series_from_energy(t, E), (5.0, 15.0))
        assert fit.zeta > MIN_DECAY_RATE
        assert fit.classification == "stagnates"

    def test_diverged_series(self):
        t = np.linspace(0, 1, 10)
        series = series_from_energy(t, np.exp(t))
        series.termination = Termination("diverged", 1.0)
        fit = fit_decay(series)
        assert fit.classification == "diverges"
        assert np.isfinite(fit.zeta)

    def test_picard_failed_series_diverges(self):
        # A run that did not complete is not fitted on its partial rows, even
        # where they decay.
        t = np.linspace(0, 10, 100)
        series = series_from_energy(t, np.exp(-t))
        series.termination = Termination("picard_failed", 10.0)
        fit = fit_decay(series, (1.0, 9.0))
        assert fit.classification == "diverges"
        assert (fit.zeta, fit.window) == (0.0, (0.0, 10.0))

    def test_window_validation(self):
        t = np.linspace(0, 10, 100)
        series = series_from_energy(t, np.exp(-t))
        with pytest.raises(ValueError, match="outside the sampled range"):
            fit_decay(series, (5.0, 15.0))
        with pytest.raises(ValueError):
            fit_decay(series, (8.0, 2.0))

    def test_nonpositive_energy_rejected(self):
        t = np.linspace(0, 10, 100)
        E = np.exp(-t)
        E[50] = 0.0
        series = series_from_energy(t, E)
        with pytest.raises(ValueError, match="positive"):
            fit_decay(series, (1.0, 9.0))

    def test_default_window_is_middle_half(self):
        t = np.linspace(0, 20, 800)
        series = series_from_energy(t, np.exp(-0.5 * t))
        fit = fit_decay(series)
        assert fit.window == (5.0, 15.0)
        assert fit.zeta == pytest.approx(0.5, abs=1e-10)


def linear_run(b, T=20.0, extent=np.pi):
    grid = Grid(extents=(extent,), modes=(8,))
    state = build_initial(
        InitialDataSpec.single_mode((1,), 1.0),
        InitialDataSpec.single_mode((1,), 0.0),
        grid,
    )
    p = MediumParams(c=1.0, b=b)
    return simulate(state, T, StepConfig(dt=1e-3), p, sample_every=10)


class TestLinearDecayRates:
    def test_unit_box_fundamental_rate(self):
        # lambda = -1, c = b = 1: roots (-1 +- i sqrt(3))/2, energy rate 2 * 1/2
        fit = fit_decay(linear_run(b=1.0), (5.0, 15.0))
        assert fit.zeta == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("b", [1.0, 3.0])
    def test_rate_tracks_root_formula(self, b):
        # slowest modal rate: 2 |Re s|, s = (-b + sqrt(b^2 - 4 c^2)) / 2 when real,
        # -b/2 otherwise (c = 1, mode 1 on (0, pi)); avoids the critical b = 2
        # where a t^2 prefactor biases the windowed fit.
        disc = b * b - 4.0
        rate = 2 * abs((-b + np.sqrt(disc)) / 2.0) if disc > 0 else b
        fit = fit_decay(linear_run(b=b), (5.0, 15.0))
        assert abs(fit.zeta - rate) / rate < 0.05


class TestThresholdBisection:
    GRID = Grid(extents=(1.0,), modes=(16,))
    SPECS = (
        InitialDataSpec.single_mode((1,), 1.0),
        InitialDataSpec.single_mode((1,), 1.0),
    )

    def test_linear_medium_reports_both_decay(self):
        p = MediumParams(c=1.0, b=1.0)
        with pytest.raises(ValueError) as err:
            threshold_bisection(
                p, self.SPECS, 0.01, 100.0, 2, grid=self.GRID, T=8.0,
                cfg=StepConfig(dt=1e-3), window=(2.0, 6.0),
            )
        msg = str(err.value)
        assert "classification(lo=0.01) = decays" in msg
        assert "classification(hi=100.0) = decays" in msg

    def test_nonlinear_bracket(self):
        report = threshold_bisection(
            NONLIN, self.SPECS, 0.01, 100.0, 6, grid=self.GRID, T=20.0,
            cfg=StepConfig(dt=2e-3),
        )
        assert report.amplitude_lo < report.delta_star < report.amplitude_hi
        width = report.amplitude_hi - report.amplitude_lo
        assert width == pytest.approx((100.0 - 0.01) / 2**6, rel=1e-9)
        by_amp = dict(report.runs)
        assert by_amp[0.01] == "decays"
        assert by_amp[100.0] == "diverges"
        # bracket landed inside the prototype dichotomy (decay at 2, blow-up at 5)
        assert 1.0 < report.delta_star < 8.0

    def test_invalid_bracket_arguments(self):
        with pytest.raises(ValueError):
            threshold_bisection(
                NONLIN, self.SPECS, 1.0, 0.5, 4, grid=self.GRID
            )

    def test_negative_iters_rejected(self):
        with pytest.raises(ValueError, match="iters must be nonnegative"):
            threshold_bisection(NONLIN, self.SPECS, 0.01, 100.0, -3, grid=self.GRID)

    CFG, WINDOW = StepConfig(dt=4e-3), (2.0, 6.0)

    def search(self, lo, hi, iters=5):
        return threshold_bisection(
            NONLIN, self.SPECS, lo, hi, iters, grid=self.GRID, T=8.0, cfg=self.CFG,
            window=self.WINDOW,
        )

    def classify(self, amplitude):
        # One run of the setup at this amplitude, classified as the search does.
        spec = InitialDataSpec.single_mode((1,), amplitude)
        series = simulate(build_initial(spec, spec, self.GRID), 8.0, self.CFG, NONLIN, sample_every=10)
        return fit_decay(series, self.WINDOW).classification

    # delta* ~ 3.19 on this setup.  The classification is not monotone just
    # above it (3.22 decays), so the brackets keep their dyadic points off
    # (3.2, 3.23).
    @pytest.mark.parametrize(
        "lo, hi, round_coefficients, widths",
        [
            (0.01, 100.0, None, (5,)),
            (3.1, 100.0, None, (5,)),  # bottom cell: no interior point survives the probe
            (1.0, 3.2, None, (5,)),  # top cell: every interior point survives it
            (2.0, 4.0, None, (5,)),
            (0.01, 4.0, None, (5,)),
            (0.01, 100.0, 3 * 16, (2, 2, 1)),  # rounds of three points
        ],
    )
    def test_bracket_matches_plain_bisection(
        self, monkeypatch, lo, hi, round_coefficients, widths
    ):
        if round_coefficients is not None:
            monkeypatch.setattr(experiments, "_ROUND_COEFFICIENTS", round_coefficients)
        report = self.search(lo, hi)
        assert report.round_widths == widths
        # Reference: plain bisection, one run per midpoint.
        for _ in range(5):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if self.classify(mid) == "decays" else (lo, mid)
        assert (report.amplitude_lo, report.amplitude_hi) == (lo, hi)

    @pytest.mark.parametrize("lo, hi", [(0.01, 100.0), (2.0, 4.0)])
    def test_runs_have_the_classification_of_their_own_run(self, lo, hi):
        report = self.search(lo, hi)
        amplitudes = [a for a, _ in report.runs]
        assert len(set(amplitudes)) == len(amplitudes)
        for a, c in report.runs:
            assert self.classify(a) == c, a
        # Survivors below the one that decays are never run to the end.
        assert min(a for a in amplitudes if a != lo) == report.amplitude_lo

    def test_contradictions_name_the_non_monotone_runs(self):
        # (3.1, 3.3) puts dyadic points into the band above delta* that
        # classifies non-monotonically: 3.2 and 3.2125 diverge, 3.225 decays.
        # The bracket is the one the search finds; the two diverging runs
        # below it are reported, each as its own run classifies it.
        report = self.search(3.1, 3.3, iters=4)
        assert (report.amplitude_lo, report.amplitude_hi) == (3.225, 3.2375)
        assert [a for a, _ in report.contradictions] == pytest.approx([3.2, 3.2125], abs=1e-12)
        for a, c in report.contradictions:
            assert c == "diverges" == self.classify(a)
        assert self.search(2.0, 4.0).contradictions == ()

    def test_zero_iters_returns_the_endpoints(self):
        report = threshold_bisection(
            NONLIN, self.SPECS, 0.01, 100.0, 0, grid=self.GRID, T=8.0,
            cfg=StepConfig(dt=4e-3), window=(2.0, 6.0),
        )
        assert (report.amplitude_lo, report.amplitude_hi) == (0.01, 100.0)
        assert report.round_widths == ()
        assert [a for a, _ in report.runs] == [100.0, 0.01]
        assert report.sample_every == 10

    def test_unbracketed_endpoints_cost_two_runs(self, monkeypatch):
        # hi is classified alone; when it does not diverge, lo is the only
        # other run, however many halvings were asked for.
        batches = []

        def counting(states, *args, **kwargs):
            batches.append(len(states))
            return simulate_batch(states, *args, **kwargs)

        monkeypatch.setattr(experiments, "simulate_batch", counting)
        with pytest.raises(ValueError, match="unbracketed"):
            threshold_bisection(
                MediumParams(c=1.0, b=1.0), self.SPECS, 0.01, 100.0, 8, grid=self.GRID,
                T=8.0, cfg=StepConfig(dt=4e-3), window=(2.0, 6.0),
            )
        assert batches == [1, 1]


class TestWeightedRegularityStudy:
    def test_rough_data_signature(self):
        study = weighted_regularity_study(
            NONLIN, (32, 64), T=2.0, dt=2e-3, spec1=InitialDataSpec.power_law(2.0, 0.01)
        )
        # || Delta psi_1 || grows like sqrt(N): ratio sqrt(64/32)
        assert study.unweighted_growth == pytest.approx(np.sqrt(2.0), rel=0.02)
        assert study.weighted_change < 0.05

    def test_smooth_data_is_resolution_independent(self):
        study = weighted_regularity_study(
            NONLIN,
            (32, 64),
            T=2.0,
            dt=2e-3,
            spec1=InitialDataSpec.single_mode((1,), 0.01),
        )
        assert study.unweighted_growth == pytest.approx(1.0, abs=1e-6)
        assert study.weighted_change < 1e-6

    def test_linear_dynamics_weighted_sup_matches_modal_oracle(self):
        # k = sigma = 0 decouples the modes: sqrt(t) ||Delta v(t)|| is computable
        # from the closed-form modal solutions, summed over modes.
        N = 64
        amp = 0.01
        p = MediumParams(c=1.0, b=1.0)
        study = weighted_regularity_study(
            p, (N,), T=4.0, dt=1e-3, spec1=InitialDataSpec.power_law(2.0, amp)
        )
        t = np.linspace(1e-4, 4.0, 4000)
        total = np.zeros_like(t)
        for m in range(1, N + 1):
            lam = -float(m * m)
            _w, wp = modal_solution(lam, 1.0, 1.0, 0.0, amp * m**-2.0, t)
            total += (lam * wp) ** 2
        oracle = np.max(np.sqrt(t) * np.sqrt(total * np.pi / 2))
        assert study.sup_weighted_lap_v[0] == pytest.approx(oracle, rel=2e-2)

    @pytest.mark.parametrize("resolutions", [(), (64, 32), (32, 32)])
    def test_resolutions_must_increase(self, resolutions):
        # The verdict compares the last resolution with the first.
        with pytest.raises(ValueError, match="strictly increasing"):
            weighted_regularity_study(NONLIN, resolutions, T=2.0, dt=2e-3)

    def test_zero_data_has_no_verdict(self):
        with pytest.raises(ValueError, match="suprema vanish at the first resolution N=16"):
            weighted_regularity_study(
                NONLIN, (16, 32), T=0.1, dt=1e-2, spec1=InitialDataSpec.power_law(2.0, 0.0)
            )

    def test_conclusions_stable_under_dt_halving(self):
        runs = [
            weighted_regularity_study(
                NONLIN, (32, 64), T=2.0, dt=dt,
                spec1=InitialDataSpec.power_law(2.0, 0.01),
            )
            for dt in (2e-3, 1e-3)
        ]
        assert runs[0].unweighted_growth == pytest.approx(
            runs[1].unweighted_growth, rel=1e-3
        )
        assert abs(runs[0].weighted_change - runs[1].weighted_change) < 0.02
