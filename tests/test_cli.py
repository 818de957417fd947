"""Configuration loading, CLI subcommands, persistence and determinism."""

import errno
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blackstock import (
    ConfigError,
    Grid,
    InitialDataSpec,
    MediumParams,
    SimState,
    StepConfig,
    build_initial,
    load_checkpoint,
    load_config,
    parse_config,
    read_series_csv,
    save_checkpoint,
    simulate,
    write_json,
    write_series_csv,
)
import blackstock.storage as storage
from blackstock.cli import main
from blackstock.integrate import TimeSeries
from blackstock.storage import CSV_COLUMNS

from .helpers import random_grids


MINIMAL = {
    "medium": {"c": 1.0, "b": 1.0, "k": 1.0, "sigma": 1.0},
    "initial": {
        "psi0": {"kind": "single_mode", "mode": [1], "amplitude": 0.01},
        "psi1": {"kind": "single_mode", "mode": [1], "amplitude": 0.01},
    },
    "integrator": {"T": 20.0, "dt": 1e-3},
}


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestConfigLoading:
    def test_minimal_config(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.medium.k == 1.0
        assert cfg.grid.modes == (64,)
        assert cfg.grid.extents == (np.pi,)
        assert cfg.step.scheme == "imex2"
        assert cfg.sample_every == 1
        assert cfg.gammas.gamma1 == 0.1
        assert cfg.seed == 0

    def test_zero_diffusivity_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["medium"]["b"] = 0.0
        with pytest.raises(ConfigError, match="sound diffusivity must be positive"):
            load_config(write_config(tmp_path, bad))

    def test_too_few_modes_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["grid"] = {"modes": [3]}
        with pytest.raises(ConfigError, match="minimum 4 modes"):
            load_config(write_config(tmp_path, bad))

    def test_unknown_keys_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["extra_section"] = {}
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(write_config(tmp_path, bad))
        bad2 = json.loads(json.dumps(MINIMAL))
        bad2["medium"]["viscosity"] = 1.0
        with pytest.raises(ConfigError, match="unknown keys in medium"):
            load_config(write_config(tmp_path, bad2))

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "medium": [,]\n}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_mode_exceeding_grid_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["initial"]["psi0"]["mode"] = [65]
        with pytest.raises(ConfigError, match="invalid initial data"):
            load_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize("T", [4e-4, 1.0005])
    def test_final_time_not_a_step_multiple_rejected(self, tmp_path, T):
        bad = json.loads(json.dumps(MINIMAL))
        bad["integrator"] = {"T": T, "dt": 1e-3}
        path = write_config(tmp_path, bad)
        with pytest.raises(ConfigError, match="whole multiple of dt"):
            load_config(path)
        assert main(["simulate", "--config", str(path), "--output", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize(
        "path,value",
        [
            ("seed", "abc"),
            ("seed", 2.5),
            ("grid.dim", "three"),
            ("grid.modes", [16.5]),
            ("grid.modes", 16),
            ("grid.extents", 3.0),
            ("medium.c", True),
            ("medium.k", float("inf")),
            ("initial.psi0.mode", [1.5]),
            ("integrator.T", "long"),
            ("integrator.dt", None),
            ("integrator.dt", float("nan")),
            ("integrator.sample_every", 2.5),
            ("integrator.picard_tol", "tiny"),
            ("integrator.picard_max_iter", 2.7),
        ],
    )
    def test_numeric_fields_rejected(self, path, value):
        bad = json.loads(json.dumps(MINIMAL))
        *parents, leaf = path.split(".")
        node = bad
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
        with pytest.raises(ConfigError, match=re.escape(path)):
            parse_config(bad)

    def test_integral_floats_accepted(self):
        cfg = dict(MINIMAL, seed=7.0)
        cfg["integrator"] = {"T": 20.0, "dt": 1e-3, "sample_every": 2.0, "picard_max_iter": 3.0}
        parsed = parse_config(cfg)
        assert (parsed.seed, parsed.sample_every, parsed.step.picard_max_iter) == (7, 2, 3)
        assert all(type(n) is int for n in (parsed.seed, parsed.sample_every))

    def test_3d_default_modes(self):
        cfg = parse_config({"grid": {"dim": 3}})
        assert cfg.grid.modes == (32, 32, 32)


def short_config(**overrides):
    payload = {
        "medium": {"c": 1.0, "b": 1.0, "k": 1.0, "sigma": 1.0},
        "initial": {
            "psi0": {"kind": "single_mode", "mode": [1], "amplitude": 0.01},
            "psi1": {"kind": "single_mode", "mode": [1], "amplitude": 0.01},
        },
        "grid": {"modes": [16]},
        "integrator": {"T": 0.5, "dt": 1e-3},
    }
    payload.update(overrides)
    return payload


class TestSimulateCommand:
    def test_zero_data_run(self, tmp_path):
        cfg = short_config(initial={})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(path), "--output", str(out)])
        assert code == 0
        series = read_series_csv(out / "series.csv")
        assert np.all(series.column("E") == 0.0)
        header = (out / "series.csv").read_text().splitlines()[0]
        assert header == "t,E,E1,E2,F1,F2,F3,L,D_cum,w_ptt,w_lap_vt"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"]["kind"] == "completed"

    def test_large_amplitude_exits_2(self, tmp_path):
        cfg = short_config(
            integrator={"T": 20.0, "dt": 1e-3},
            initial={
                "psi0": {"kind": "single_mode", "mode": [1], "amplitude": 100.0},
                "psi1": {"kind": "single_mode", "mode": [1], "amplitude": 100.0},
            },
            grid={"modes": [64]},
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(path), "--output", str(out)])
        assert code == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"]["kind"] == "diverged"
        assert summary["termination"]["time"] is not None

    def test_bad_config_exits_1(self, tmp_path):
        path = write_config(tmp_path, {"medium": {"b": -1.0}})
        assert main(["simulate", "--config", str(path)]) == 1

    @pytest.mark.parametrize(
        "subcommand,overrides",
        [
            ("simulate", {"seed": "abc"}),
            ("simulate", {"integrator": {"T": 0.5, "dt": 1e-3, "sample_every": 2.5}}),
            ("threshold", {"threshold": {"iters": 2.5}}),
            ("threshold", {"threshold": {"window": ["early", 6.0]}}),
            ("fit", {"fit": {"series_csv": "absent.csv"}}),
            # run.json is the config itself: the file exists, the window fails.
            ("fit", {"fit": {"series_csv": "run.json", "window": [5.0, None]}}),
            ("threshold", {"threshold": {"window": 5}}),
            ("fit", {"fit": {"series_csv": "run.json", "window": [5.0]}}),
            ("weighted-study", {"study": {"resolutions": 64}}),
            ("verify-inequalities", {"inequalities": {"samples": "many"}}),
            ("verify-inequalities", {"inequalities": {"gronwall_draws": 1.5}}),
            # Sections, sweep paths and output_dir of the wrong JSON type.
            ("simulate", {"grid": 5}),
            ("simulate", {"integrator": None}),
            ("simulate", {"initial": 3}),
            ("simulate", {"initial": {"psi0": 5}}),
            ("simulate", {"threshold": 5}),
            ("sweep", {"sweep": {"parameters": 5}}),
            ("sweep", {"sweep": {"parameters": {"medium.k.x": [1.0]}}}),
            ("simulate", {"output_dir": 5}),
        ],
    )
    def test_non_numeric_or_fractional_config_exits_1(self, tmp_path, subcommand, overrides):
        path = write_config(tmp_path, short_config(**overrides))
        assert main([subcommand, "--config", str(path), "--output", str(tmp_path / "o")]) == 1

    def test_determinism_bit_identical(self, tmp_path):
        path = write_config(tmp_path, short_config(seed=12))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(path), "--output", str(out1)]) == 0
        assert main(["simulate", "--config", str(path), "--output", str(out2)]) == 0
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()
        assert (out1 / "state.ckpt").read_bytes() == (out2 / "state.ckpt").read_bytes()

    def test_seed_env_override(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, short_config(seed=12))
        out = tmp_path / "o"
        monkeypatch.setenv("BLACKSTOCK_SEED", "99")
        main(["simulate", "--config", str(path), "--output", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 99

    def test_non_integer_seed_env_exits_1(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, short_config())
        monkeypatch.setenv("BLACKSTOCK_SEED", "abc")
        code = main(["simulate", "--config", str(path), "--output", str(tmp_path / "o")])
        assert code == 1
        assert "BLACKSTOCK_SEED" in capsys.readouterr().err


class TestFitCommand:
    def test_fit_emitted_linear_series(self, tmp_path):
        run_cfg = short_config(
            medium={"c": 1.0, "b": 1.0, "k": 0.0, "sigma": 0.0},
            initial={
                "psi0": {"kind": "single_mode", "mode": [1], "amplitude": 1.0},
                "psi1": {"kind": "zero"},
            },
            grid={"modes": [8]},
            integrator={"T": 20.0, "dt": 1e-3, "sample_every": 10},
        )
        path = write_config(tmp_path, run_cfg)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--output", str(out)]) == 0
        fit_cfg = dict(run_cfg)
        fit_cfg["fit"] = {"series_csv": str(out / "series.csv"), "window": [5.0, 15.0]}
        fit_path = write_config(tmp_path, fit_cfg, name="fit.json.cfg")
        fit_out = tmp_path / "fit"
        assert main(["fit", "--config", str(fit_path), "--output", str(fit_out)]) == 0
        result = json.loads((fit_out / "fit.json").read_text())
        # modal energy rate 1.0 for c = b = 1, mode 1 on (0, pi)
        assert abs(result["zeta"] - 1.0) < 0.05

    def test_fit_without_series_is_config_error(self, tmp_path):
        path = write_config(tmp_path, short_config())
        assert main(["fit", "--config", str(path), "--output", str(tmp_path / "out")]) == 1


    @pytest.mark.parametrize("content", ["", "t,E\n"])
    def test_empty_series_csv_exits_3(self, tmp_path, capsys, content):
        csv = tmp_path / "series.csv"
        csv.write_text(content)
        with pytest.raises(ValueError, match="empty series CSV"):
            read_series_csv(csv)
        path = write_config(tmp_path, short_config(fit={"series_csv": str(csv)}))
        assert main(["fit", "--config", str(path), "--output", str(tmp_path / "out")]) == 3
        assert "empty series CSV" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["t,E\n1,2\n3\n", "t,E\n1,2,3\n", "t,E\n1,x\n"])
    def test_malformed_series_csv_exits_3(self, tmp_path, capsys, content):
        # A ragged row, a row longer than the header, a value that is not a number.
        csv = tmp_path / "series.csv"
        csv.write_text(content)
        with pytest.raises(ValueError, match="malformed series CSV"):
            read_series_csv(csv)
        path = write_config(tmp_path, short_config(fit={"series_csv": str(csv)}))
        assert main(["fit", "--config", str(path), "--output", str(tmp_path / "out")]) == 3
        assert "malformed series CSV" in capsys.readouterr().err

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40))
    def test_series_csv_round_trip_is_bit_exact(self, seed, rows):
        # Diverged series write inf and nan; every value, down to subnormals
        # and up to the largest double, reads back with the same bits.
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((rows, len(CSV_COLUMNS))) * 10.0 ** rng.integers(
            -320, 308, (rows, len(CSV_COLUMNS))
        )
        special = [np.inf, -np.inf, np.nan, -0.0, 5e-324, np.finfo(float).max]
        data.flat[rng.choice(data.size, len(special), replace=False)] = special
        with tempfile.TemporaryDirectory() as tmp:
            csv = os.path.join(tmp, "series.csv")
            write_series_csv(csv, TimeSeries(CSV_COLUMNS, data))
            series = read_series_csv(csv)
        assert series.columns == CSV_COLUMNS
        assert series.data.tobytes() == data.tobytes()


class TestVerifyInequalitiesCommand:
    def test_report_written(self, tmp_path):
        cfg = short_config(
            grid={"modes": [32]},
            inequalities={"samples": 50, "gronwall_draws": 5},
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "ineq"
        assert main(["verify-inequalities", "--config", str(path), "--output", str(out)]) == 0
        report = json.loads((out / "inequalities.json").read_text())
        assert report["scale_invariance_ok"] is True
        assert report["gronwall"]["all_ok"] is True
        assert report["agmon"]["calibrated_constant"] > report["agmon"]["max_ratio"]


class TestThresholdCommand:
    def test_linear_medium_exits_3(self, tmp_path):
        cfg = short_config(
            medium={"c": 1.0, "b": 1.0, "k": 0.0, "sigma": 0.0},
            grid={"extents": [1.0], "modes": [8]},
            integrator={"T": 8.0, "dt": 2e-3},
            threshold={"lo": 0.01, "hi": 10.0, "iters": 2, "window": [2.0, 6.0]},
            initial={
                "psi0": {"kind": "single_mode", "mode": [1], "amplitude": 1.0},
                "psi1": {"kind": "single_mode", "mode": [1], "amplitude": 1.0},
            },
        )
        path = write_config(tmp_path, cfg)
        assert main(["threshold", "--config", str(path), "--output", str(tmp_path / "t")]) == 3

    THRESHOLD = dict(
        grid={"extents": [1.0], "modes": [16]},
        integrator={"T": 8.0, "dt": 2e-3},
        initial={
            "psi0": {"kind": "single_mode", "mode": [1], "amplitude": 1.0},
            "psi1": {"kind": "single_mode", "mode": [1], "amplitude": 1.0},
        },
    )

    def test_report_records_sampling_and_rounds(self, tmp_path):
        cfg = short_config(
            threshold={"lo": 0.01, "hi": 100.0, "iters": 3, "window": [2.0, 6.0]},
            **self.THRESHOLD,
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "t"
        assert main(["threshold", "--config", str(path), "--output", str(out)]) == 0
        report = json.loads((out / "threshold.json").read_text())
        # sample_every defaults to 1 and is raised to 10 for threshold runs.
        assert report["sample_every"] == 10
        assert report["round_widths"] == [3]
        amplitudes = [run["amplitude"] for run in report["runs"]]
        assert amplitudes[:2] == [100.0, 0.01] and len(amplitudes) == 2 + 7
        assert report["amplitude_lo"] in amplitudes and report["amplitude_hi"] in amplitudes

    def test_negative_iters_exits_1(self, tmp_path, capsys):
        cfg = short_config(threshold={"iters": -3}, **self.THRESHOLD)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "t"
        assert main(["threshold", "--config", str(path), "--output", str(out)]) == 1
        assert "threshold.iters" in capsys.readouterr().err
        assert not (out / "threshold.json").exists()


class TestWeightedStudyCommand:
    def test_study_report(self, tmp_path):
        cfg = short_config(
            study={"resolutions": [16, 32], "T": 1.0, "dt": 2e-3, "amplitude": 0.01},
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "study"
        assert main(["weighted-study", "--config", str(path), "--output", str(out)]) == 0
        report = json.loads((out / "study.json").read_text())
        assert report["resolutions"] == [16, 32]
        assert report["unweighted_growth"] == pytest.approx(np.sqrt(2.0), rel=0.03)


class TestSweepCommand:
    def test_two_point_sweep(self, tmp_path):
        cfg = short_config(
            sweep={"parameters": {"medium.k": [0.0, 1.0]}},
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(path), "--output", str(out), "--jobs", "1"]) == 0
        report = json.loads((out / "sweep.json").read_text())
        labels = {run["label"] for run in report["runs"]}
        assert labels == {"k=0.0", "k=1.0"}
        for label in labels:
            assert (out / label / "series.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_1(self, tmp_path, capsys, jobs):
        path = write_config(tmp_path, short_config(sweep={"parameters": {"medium.k": [0.0]}}))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(path), "--output", str(out), "--jobs", jobs]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not (out / "sweep.json").exists()

    @pytest.mark.parametrize("values", [1.0, []])
    def test_parameter_values_must_be_a_non_empty_list(self, tmp_path, values):
        path = write_config(tmp_path, short_config(sweep={"parameters": {"medium.k": values}}))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(path), "--output", str(out), "--jobs", "1"]) == 1


class TestCheckpoints:
    GRID = Grid(extents=(np.pi,), modes=(16,))
    P = MediumParams(c=1.0, b=1.0, k=1.0, sigma=1.0)

    def make_state(self):
        return build_initial(
            InitialDataSpec.single_mode((1,), 0.01),
            InitialDataSpec.single_mode((1,), 0.01),
            self.GRID,
        )

    def test_save_load_roundtrip(self, tmp_path):
        state = self.make_state()
        path = tmp_path / "state.ckpt"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert loaded.time == state.time
        assert loaded.grid.extents == state.grid.extents
        assert np.array_equal(loaded.psi.coeffs, state.psi.coeffs)
        assert np.array_equal(loaded.v.coeffs, state.v.coeffs)

    def test_magic_validated(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize("scheme", ["picard", "imex2"])
    def test_midrun_restart_matches_uninterrupted(self, tmp_path, scheme):
        # The Picard stepper carries no cross-step memory, so a restart is an
        # exact continuation; the trapezoidal IMEX restart re-bootstraps its
        # source extrapolation, perturbing the comparison at third order in dt.
        cfg = StepConfig(dt=1e-3, scheme=scheme)
        full = simulate(self.make_state(), 1.0, cfg, self.P, sample_every=10**9)
        _t, full_final = full.snapshots[-1]

        first = simulate(self.make_state(), 0.5, cfg, self.P, sample_every=10**9)
        _t1, mid = first.snapshots[-1]
        path = tmp_path / "mid.ckpt"
        save_checkpoint(path, mid)
        resumed_state = load_checkpoint(path)
        second = simulate(resumed_state, 0.5, cfg, self.P, sample_every=10**9)
        _t2, resumed_final = second.snapshots[-1]

        err = max(
            np.max(np.abs(resumed_final.psi.coeffs - full_final.psi.coeffs)),
            np.max(np.abs(resumed_final.v.coeffs - full_final.v.coeffs)),
        )
        assert err <= 1e-12

    def test_truncated_checkpoint_names_byte_counts(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint(path, self.make_state())
        path.write_bytes(path.read_bytes()[:-6])
        with pytest.raises(ValueError, match="expected 256 bytes of coefficients, found 250"):
            load_checkpoint(path)

    @given(grid=random_grids(), seed=st.integers(0, 2**32 - 1), time=st.floats(0.0, 1e6))
    def test_roundtrip_random_grids(self, grid, seed, time):
        psi, v = np.random.default_rng(seed).standard_normal((2,) + grid.modes)
        state = SimState(psi=grid.field(psi), v=grid.field(v), time=time)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "state.ckpt")
            save_checkpoint(path, state)
            loaded = load_checkpoint(path)
        assert loaded.time == time
        assert (loaded.grid.extents, loaded.grid.modes) == (grid.extents, grid.modes)
        assert loaded.psi.coeffs.tobytes() == psi.tobytes()
        assert loaded.v.coeffs.tobytes() == v.tobytes()


def _csv_output(path, k):
    write_series_csv(path, TimeSeries(CSV_COLUMNS, np.full((3, len(CSV_COLUMNS)), float(k))))


def _json_output(path, k):
    write_json(path, {"k": k, "rows": list(range(100))})


def _checkpoint_output(path, k):
    grid = Grid(extents=(np.pi,), modes=(16,))
    save_checkpoint(path, SimState(psi=grid.field(np.full(16, float(k))), v=grid.zeros()))


@pytest.mark.parametrize("write", [_csv_output, _json_output, _checkpoint_output])
def test_failed_write_keeps_previous_output(tmp_path, monkeypatch, write):
    # The writer dies after writing half of its first chunk; the previous
    # output must survive unchanged and no temporary file may remain.
    path = tmp_path / "output"
    write(path, 1)
    before = path.read_bytes()

    def half_writing_open(file, mode="r"):
        fh = open(file, mode)

        class HalfWriter:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                fh.close()

            def write(self, data):
                fh.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        return HalfWriter()

    monkeypatch.setattr(storage, "open", half_writing_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        write(path, 2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["output"]
    write(path, 2)
    assert path.read_bytes() != before
    assert os.listdir(tmp_path) == ["output"]


@pytest.mark.parametrize("write", [_csv_output, _json_output, _checkpoint_output])
def test_write_reaches_disk_before_rename(tmp_path, monkeypatch, write):
    # The temporary file is fsynced before os.replace, so a crash cannot leave
    # a renamed but empty or partial output on a delayed-allocation filesystem.
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_size))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_size))
        real_replace(src, dst)

    monkeypatch.setattr(storage.os, "fsync", fsync)
    monkeypatch.setattr(storage.os, "replace", replace)
    path = tmp_path / "output"
    write(path, 1)
    size = path.stat().st_size
    assert events == [("fsync", size), ("replace", size)]
