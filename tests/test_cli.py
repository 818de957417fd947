"""Configuration loading, CLI subcommands, persistence and determinism."""

import errno
import json
import os
import re
import tempfile
import tracemalloc

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
    SpectralField,
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
import blackstock.config as config
import blackstock.storage as storage
from blackstock.cli import main
from blackstock.energy import SERIES_COLUMNS
from blackstock.integrate import TimeSeries
from blackstock.storage import CSV_COLUMNS

from .helpers import random_grids, zero_field


MINIMAL = {
    "medium": {"c": 1.0, "b": 1.0, "k": 1.0, "sigma": 1.0},
    "initial": {
        "psi0": {"kind": "single_mode", "mode": [1], "amplitude": 0.01},
        "psi1": {"kind": "single_mode", "mode": [1], "amplitude": 0.01},
    },
    "integrator": {"T": 20.0, "dt": 1e-3},
}


def set_key(cfg, key, value):
    # Set the dotted ``key`` of ``cfg`` to ``value``; a ``terms`` part steps
    # into the first term.  Returns ``cfg``.
    *parents, leaf = key.split(".")
    node = cfg
    for part in parents:
        node = node["terms"][0] if part == "terms" else node.setdefault(part, {})
    node[leaf] = value
    return cfg


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
        term = {"mode": [1], "amplitude": 0.01}
        bad3 = json.loads(json.dumps(MINIMAL))
        bad3["initial"]["psi0"] = {"kind": "multi_mode", "terms": [term, dict(term, amplitdue=1)]}
        with pytest.raises(ConfigError, match=re.escape("initial.psi0.terms: ['amplitdue']")):
            load_config(write_config(tmp_path, bad3))

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
        ],
    )
    def test_numeric_fields_rejected(self, path, value):
        with pytest.raises(ConfigError, match=re.escape(path)):
            parse_config(set_key(json.loads(json.dumps(MINIMAL)), path, value))

    def test_integral_floats_accepted(self):
        cfg = dict(MINIMAL, seed=7.0)
        cfg["integrator"] = {"T": 20.0, "dt": 1e-3, "sample_every": 2.0}
        parsed = parse_config(cfg)
        assert (parsed.seed, parsed.sample_every) == (7, 2)
        assert all(type(n) is int for n in (parsed.seed, parsed.sample_every))

    def test_3d_default_modes(self):
        cfg = parse_config({"grid": {"extents": [1.0, 1.0, 1.0]}})
        assert cfg.grid.modes == (32, 32, 32)

    @pytest.mark.parametrize(
        "terms,message",
        [
            ([{"mode": [1]}], "missing required key 'amplitude' in initial.psi0.terms"),
            ({"mode": [1], "amplitude": 0.01}, "initial.psi0.terms must be a list"),
        ],
    )
    def test_multi_mode_terms_rejected(self, terms, message):
        bad = json.loads(json.dumps(MINIMAL))
        bad["initial"]["psi0"] = {"kind": "multi_mode", "terms": terms}
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(bad)


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


#: A short run that diverges a few dozen steps in.
DIVERGING = short_config(initial={
    "psi0": {"kind": "single_mode", "mode": [1], "amplitude": 100.0},
    "psi1": {"kind": "single_mode", "mode": [1], "amplitude": 100.0},
})


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

    def test_run_that_ends_at_its_start_time_exits_2(self, tmp_path):
        # The state is finite but its source overflows: the run ends at t=0
        # without a row, and the summary's row values are null.
        amplitude = {"kind": "single_mode", "mode": [1], "amplitude": 1e200}
        path = write_config(tmp_path, short_config(initial={"psi0": amplitude, "psi1": amplitude}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--output", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == {"kind": "diverged", "time": 0.0}
        assert summary["final_time"] == 0.0
        for key in ("final_energy", "final_lyapunov", "cumulative_dissipation",
                    "weighted_grad_accel_integral"):
            assert summary[key] is None, key
        assert (out / "series.csv").read_text() == ",".join(CSV_COLUMNS) + "\n"
        assert sorted(os.listdir(out)) == ["series.csv", "summary.json"]

    def test_diverging_rerun_leaves_no_checkpoint(self, tmp_path):
        # A checkpoint beside a series is that run's final state: a rerun
        # into the same directory that diverges removes the earlier one.
        out = tmp_path / "out"
        completing = write_config(tmp_path, short_config(), "completing.json")
        assert main(["simulate", "--config", str(completing), "--output", str(out)]) == 0
        assert (out / "state.ckpt").exists()
        diverging = write_config(tmp_path, DIVERGING, "diverging.json")
        assert main(["simulate", "--config", str(diverging), "--output", str(out)]) == 2
        assert not (out / "state.ckpt").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"]["kind"] == "diverged" and "checkpoint_time" not in summary

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
            # Sections and sweep paths of the wrong JSON type.
            ("simulate", {"grid": 5}),
            ("simulate", {"integrator": None}),
            ("simulate", {"initial": 3}),
            ("simulate", {"initial": {"psi0": 5}}),
            ("simulate", {"threshold": 5}),
            ("sweep", {"sweep": {"parameters": 5}}),
            ("sweep", {"sweep": {"parameters": {"medium.k.x": [1.0]}}}),
        ],
    )
    def test_non_numeric_or_fractional_config_exits_1(self, tmp_path, subcommand, overrides):
        path = write_config(tmp_path, short_config(**overrides))
        assert main([subcommand, "--config", str(path), "--output", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "subcommand,overrides,field",
        [
            ("verify-inequalities", {"inequalities": {"samples": 0}}, "inequalities.samples"),
            ("verify-inequalities", {"inequalities": {"gronwall_draws": -3}},
             "inequalities.gronwall_draws"),
            ("threshold", {"threshold": {"lo": 5.0, "hi": 1.0}}, "threshold.lo"),
            ("threshold", {"threshold": {"lo": 0.0}}, "threshold.lo"),
            ("weighted-study", {"study": {"resolutions": [16, 2]}}, "study.resolutions"),
            ("weighted-study", {"study": {"resolutions": [2, 16]}}, "study.resolutions"),
            # The study compares its last resolution with its first.
            ("weighted-study", {"study": {"resolutions": [32, 16]}}, "study.resolutions"),
            ("weighted-study", {"study": {"resolutions": [16, 16]}}, "study.resolutions"),
            ("weighted-study", {"study": {"resolutions": []}}, "study.resolutions"),
            ("weighted-study", {"study": {"T": 0.1005}}, "study.T"),
            # A misspelled key in a subcommand's section, not a run on its defaults.
            ("fit", {"fit": {"series_csv": "run.json", "windw": [1.0, 2.0]}}, "windw"),
            ("threshold", {"threshold": {"itres": 2}}, "itres"),
            ("weighted-study", {"study": {"resolution": [8]}}, "resolution"),
            ("verify-inequalities", {"inequalities": {"sample": 5}}, "sample"),
            ("sweep", {"sweep": {"parameters": {"medium.k": [0.0]}, "jobs": 2}}, "jobs"),
            ("fit", {"fit": {"series_csv": 5}}, "fit.series_csv"),
            ("threshold", {"threshold": {"window": [0.4, 0.1]}}, "threshold.window"),
            ("threshold", {"threshold": {"window": [0.1, 0.6]}}, "threshold.window"),
            # An empty list is dimension 0, not an omitted key, and a seed
            # must be nonnegative.
            ("simulate", {"grid": {"modes": []}}, "grid.modes"),
            ("simulate", {"grid": {"extents": []}, "initial": {}}, "grid.extents"),
            ("simulate", {"grid": {"modes": [8, 8, 8, 8]}, "initial": {}}, "grid.modes"),
            ("simulate", {"seed": -1}, "seed"),
            ("verify-inequalities", {"seed": -1}, "seed"),
            # Sizes and indices beyond any array: numpy refuses these outright.
            ("simulate", {"initial": {"psi0": {"kind": "single_mode", "mode": [10**29],
                                               "amplitude": 0.01}}}, "initial.psi0.mode"),
            ("simulate", {"grid": {"modes": [10**29]}}, "grid.modes"),
            ("weighted-study", {"study": {"resolutions": [10**29]}}, "study.resolutions"),
            # A JSON integer beyond the float range in a real field.
            ("simulate", {"medium": {"c": 10**400, "b": 1.0}}, "medium.c"),
            # A sweep without its parameters.
            ("sweep", {}, "sweep.parameters"),
        ],
    )
    def test_values_that_cannot_be_honoured_exit_1_before_any_run(
        self, tmp_path, capsys, subcommand, overrides, field
    ):
        # Exit 1, not the precondition failure (3) of a run that rejects them,
        # and no output directory.
        path = write_config(tmp_path, short_config(**overrides))
        out = tmp_path / "o"
        assert main([subcommand, "--config", str(path), "--output", str(out)]) == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "subcommand,overrides,field",
        [
            ("simulate", {"grid": {"modes": [4096]}}, "grid.modes"),
            ("weighted-study", {"study": {"resolutions": [16, 4096]}}, "study.resolutions"),
        ],
    )
    def test_sizes_that_cannot_be_allocated_exit_1_before_any_run(
        self, tmp_path, capsys, monkeypatch, subcommand, overrides, field
    ):
        # numpy raises MemoryError for a size it can index but not allocate.
        # No such size is tried here: the eigenvalues refuse 4096 modes.
        eigenvalues = Grid.laplacian_eigenvalues.func

        def refusing(grid):
            if 4096 in grid.modes:
                raise MemoryError("Unable to allocate 32.0 KiB for an array")
            return eigenvalues(grid)

        monkeypatch.setattr(Grid, "laplacian_eigenvalues", property(refusing))
        path = write_config(tmp_path, short_config(**overrides))
        out = tmp_path / "o"
        assert main([subcommand, "--config", str(path), "--output", str(out)]) == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_determinism_bit_identical(self, tmp_path):
        path = write_config(tmp_path, short_config(seed=12))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(path), "--output", str(out1)]) == 0
        assert main(["simulate", "--config", str(path), "--output", str(out2)]) == 0
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()
        assert (out1 / "state.ckpt").read_bytes() == (out2 / "state.ckpt").read_bytes()

    @pytest.mark.parametrize(
        "key,value",
        [("grid.dim", 1), ("output_dir", "elsewhere"), ("integrator.picard_tol", 1e-10),
         ("integrator.picard_max_iter", 50), ("study.scheme", "imex1")],
    )
    def test_removed_keys_exit_1_as_unknown_keys(self, tmp_path, capsys, key, value):
        # Keys a file cannot set: their values are fixed or set by another
        # key.  Each value here is one a run could honour, so the key alone
        # is the fault.
        path = write_config(tmp_path, set_key(short_config(), key, value))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--output", str(out)]) == 1
        section, _, leaf = key.rpartition(".")
        message = f"unknown keys in {section or 'configuration'}: ['{leaf}']"
        assert message in capsys.readouterr().err
        assert not out.exists()

    # Every key of the file: a value of the wrong JSON type is rejected by
    # name.  SCHEMA_KEYS are the leaves of the schema, DEEPER_KEYS some keys
    # of their values; the initial-data keys are those of psi0's ``kind``.
    SCHEMA_KEYS = (
        "grid.extents", "grid.modes", "initial.psi0", "initial.psi1",
        "medium.c", "medium.b", "medium.k", "medium.sigma",
        "gammas.gamma1", "gammas.gamma2", "gammas.gamma3",
        "integrator.scheme", "integrator.dt", "integrator.T", "integrator.sample_every",
        "fit.series_csv", "fit.window",
        "threshold.lo", "threshold.hi", "threshold.iters", "threshold.window",
        "study.resolutions", "study.T", "study.dt", "study.amplitude", "study.exponent",
        "inequalities.samples", "inequalities.gronwall_draws", "seed", "sweep",
    )
    DEEPER_KEYS = (
        "sweep.parameters", "initial.psi0.kind", "initial.psi0.mode", "initial.psi0.amplitude",
    )
    KINDS = {
        "single_mode": {"kind": "single_mode", "mode": [1], "amplitude": 0.01},
        "multi_mode": {"kind": "multi_mode", "terms": [{"mode": [1], "amplitude": 0.01}]},
        "power_law": {"kind": "power_law", "exponent": 2.0, "amplitude": 0.01},
    }
    STRING_KEYS = {"integrator.scheme", "fit.series_csv", "initial.psi0.kind"}

    def test_schema_keys_are_the_leaves_of_the_schema(self):
        # A key added to or removed from the schema without its case here fails.
        def leaves(table, where=""):
            for key, entry in table.items():
                path = f"{where}.{key}" if where else key
                yield from leaves(entry, path) if isinstance(entry, dict) else [path]

        assert sorted(self.SCHEMA_KEYS) == sorted(leaves(config._SCHEMA))

    @pytest.mark.parametrize(
        "kind,key",
        [
            *(("single_mode", key) for key in SCHEMA_KEYS + DEEPER_KEYS),
            ("multi_mode", "initial.psi0.terms"),
            ("multi_mode", "initial.psi0.terms.mode"),
            ("multi_mode", "initial.psi0.terms.amplitude"),
            ("power_law", "initial.psi0.exponent"),
            ("power_law", "initial.psi0.amplitude"),
        ],
    )
    def test_value_of_the_wrong_type_exits_1_naming_its_key(self, tmp_path, capsys, kind, key):
        cfg = short_config()
        cfg["initial"]["psi0"] = json.loads(json.dumps(self.KINDS[kind]))
        path = write_config(tmp_path, set_key(cfg, key, 5 if key in self.STRING_KEYS else "x"))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--output", str(out)]) == 1
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()


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

    def test_fit_of_diverged_run_diverges(self, tmp_path):
        # The partial rows of a diverged run are not fitted: fit reads the
        # run's termination from the summary beside the CSV.
        cfg = short_config(
            integrator={"T": 20.0, "dt": 1e-3},
            initial={
                "psi0": {"kind": "single_mode", "mode": [1], "amplitude": 100.0},
                "psi1": {"kind": "single_mode", "mode": [1], "amplitude": 100.0},
            },
            grid={"modes": [64]},
            fit={"series_csv": "run/series.csv"},
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--output", str(out)]) == 2
        end = json.loads((out / "summary.json").read_text())["termination"]["time"]
        assert main(["fit", "--config", str(path), "--output", str(tmp_path / "fit")]) == 0
        fit = json.loads((tmp_path / "fit" / "fit.json").read_text())
        assert fit["classification"] == "diverges"
        assert fit["window"] == [0.0, end]

    def test_fit_of_run_that_diverged_at_its_start_time(self, tmp_path):
        # The run has no row, only the CSV header: fit reads the summary's
        # termination first and never reads the empty CSV.
        amplitude = {"kind": "single_mode", "mode": [1], "amplitude": 1e200}
        cfg = short_config(initial={"psi0": amplitude, "psi1": amplitude},
                           fit={"series_csv": "run/series.csv"})
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path), "--output", str(tmp_path / "run")]) == 2
        assert (tmp_path / "run" / "series.csv").read_text() == ",".join(CSV_COLUMNS) + "\n"
        assert main(["fit", "--config", str(path), "--output", str(tmp_path / "fit")]) == 0
        fit = json.loads((tmp_path / "fit" / "fit.json").read_text())
        assert fit["classification"] == "diverges" and fit["window"] == [0.0, 0.0]

    def test_reports_of_a_diverged_run_are_standard_json(self, tmp_path):
        # The fit of a diverged run has no finite c_factor; JSON has no NaN.
        cfg = short_config(
            integrator={"T": 20.0, "dt": 1e-3},
            initial={
                "psi0": {"kind": "single_mode", "mode": [1], "amplitude": 100.0},
                "psi1": {"kind": "single_mode", "mode": [1], "amplitude": 100.0},
            },
            fit={"series_csv": "run/series.csv"},
        )
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path), "--output", str(tmp_path / "run")]) == 2
        assert main(["fit", "--config", str(path), "--output", str(tmp_path / "fit")]) == 0

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        for report in (tmp_path / "run" / "summary.json", tmp_path / "fit" / "fit.json"):
            json.loads(report.read_text(), parse_constant=reject)
        fit = json.loads((tmp_path / "fit" / "fit.json").read_text())
        assert fit["classification"] == "diverges" and fit["c_factor"] is None

    def test_non_finite_floats_are_written_as_null(self, tmp_path):
        write_json(tmp_path / "r.json", {"a": [np.nan, (np.inf, 1.5)], "b": {"c": -np.inf}})
        assert json.loads((tmp_path / "r.json").read_text()) == {
            "a": [None, [None, 1.5]], "b": {"c": None}
        }

    def test_window_with_fewer_than_3_samples_exits_3(self, tmp_path, capsys):
        # Samples at 0, 0.5 and 1: the window holds one of them.
        cfg = short_config(
            integrator={"T": 1.0, "dt": 0.01, "sample_every": 50},
            fit={"series_csv": str(tmp_path / "run" / "series.csv"), "window": [0.1, 0.9]},
        )
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path), "--output", str(tmp_path / "run")]) == 0
        assert main(["fit", "--config", str(path), "--output", str(tmp_path / "fit")]) == 3
        assert "fewer than 3 samples" in capsys.readouterr().err

    def test_fit_without_series_is_config_error(self, tmp_path):
        path = write_config(tmp_path, short_config())
        assert main(["fit", "--config", str(path), "--output", str(tmp_path / "out")]) == 1


    @pytest.mark.parametrize("completed_summary", [False, True])
    @pytest.mark.parametrize("content", ["", "t,E\n"])
    def test_empty_series_csv_exits_3(self, tmp_path, capsys, content, completed_summary):
        # Beside a summary, too, a completed run's CSV must have rows.
        csv = tmp_path / "series.csv"
        csv.write_text(content)
        if completed_summary:
            (tmp_path / "summary.json").write_text('{"termination": {"kind": "completed", "time": null}}')
        with pytest.raises(ValueError, match="empty series CSV"):
            read_series_csv(csv)
        path = write_config(tmp_path, short_config(fit={"series_csv": str(csv)}))
        assert main(["fit", "--config", str(path), "--output", str(tmp_path / "out")]) == 3
        assert "empty series CSV" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content", ["t,E\n1,2\n3\n", "t,E\n1,2,3\n", "t,E\n1,x\n", "time,E\n1,2\n", "t,F1\n1,2\n"]
    )
    def test_malformed_series_csv_exits_3(self, tmp_path, capsys, content):
        # A ragged row, a row longer than the header, a value that is not a
        # number, no t column, no E column.
        csv = tmp_path / "series.csv"
        csv.write_text(content)
        with pytest.raises(ValueError, match="malformed series CSV"):
            read_series_csv(csv)
        path = write_config(tmp_path, short_config(fit={"series_csv": str(csv)}))
        assert main(["fit", "--config", str(path), "--output", str(tmp_path / "out")]) == 3
        assert "malformed series CSV" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "summary",
        ['{"final_time": 3.0}', '{"termination": {"kind": "diverged", "t": 1}}',
         '{"termination": "diverged"}', "{",
         '{"termination": {"kind": "finished", "time": null}}',
         '{"termination": {"kind": "diverged", "time": "late"}}',
         '{"termination": {"kind": "diverged", "time": true}}'],
        ids=["no-termination", "unknown-key", "not-an-object", "not-json", "unknown-kind",
             "time-not-a-number", "time-boolean"],
    )
    def test_malformed_summary_beside_series_csv_exits_3(self, tmp_path, capsys, summary):
        # fit reads the run's termination from the summary beside the CSV.
        csv = tmp_path / "series.csv"
        csv.write_text("t,E\n0,1\n1,0.5\n2,0.25\n3,0.125\n")
        (tmp_path / "summary.json").write_text(summary)
        path = write_config(tmp_path, short_config(fit={"series_csv": str(csv)}))
        out = tmp_path / "out"
        assert main(["fit", "--config", str(path), "--output", str(out)]) == 3
        assert f"malformed summary {tmp_path / 'summary.json'}" in capsys.readouterr().err
        assert not out.exists()

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


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [[], ["simulate"], ["nosuch", "--config", "{cfg}"],
         ["simulate", "--config", "{cfg}", "--bogus"],
         ["simulate", "--config", "{cfg}", "--jobs", "1"],
         ["fit", "--config", "{cfg}", "--jobs", "0"],
         ["sweep", "--config", "{cfg}", "--jobs", "x"]],
        ids=["no-subcommand", "no-config", "unknown-subcommand", "unknown-flag",
             "simulate-jobs", "fit-jobs", "jobs-not-an-integer"],
    )
    def test_usage_error_exits_1(self, tmp_path, capsys, argv):
        # A usage error is a configuration error; 2 is the code of divergence.
        path = write_config(tmp_path, short_config(sweep={"parameters": {"medium.k": [0.0]}}))
        argv = [arg.format(cfg=path) for arg in argv] + ["--output", str(tmp_path / "out")]
        assert main(argv) == 1
        assert "usage: blackstock" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_help_exits_0_and_only_sweep_offers_jobs(self, capsys):
        for argv in (["--help"], ["simulate", "--help"], ["sweep", "--help"]):
            assert main(argv) == 0
            assert ("--jobs" in capsys.readouterr().out) == (argv[0] == "sweep"), argv


#: A short threshold search: mode-1 data of amplitude 1 on the unit box.
_SEARCH = dict(
    grid={"extents": [1.0], "modes": [8]},
    integrator={"T": 8.0, "dt": 2e-3},
    threshold={"lo": 0.01, "hi": 100.0, "iters": 1, "window": [2.0, 6.0]},
    initial={
        "psi0": {"kind": "single_mode", "mode": [1], "amplitude": 1.0},
        "psi1": {"kind": "single_mode", "mode": [1], "amplitude": 1.0},
    },
)
#: Per subcommand: a configuration whose run succeeds, one whose run fails
#: with exit code 3, and the report the first one writes.
RERUNS = {
    "threshold": (
        short_config(**_SEARCH),
        # A linear medium decays at every amplitude: hi does not diverge.
        short_config(medium={"c": 1.0, "b": 1.0, "k": 0.0, "sigma": 0.0}, **_SEARCH),
        "threshold.json",
    ),
    "fit": (
        short_config(fit={"series_csv": "series.csv", "window": [1.0, 7.0]}),
        short_config(fit={"series_csv": "series.csv", "window": [10.0, 20.0]}),
        "fit.json",
    ),
    "weighted-study": (
        short_config(study={"resolutions": [16, 32], "T": 0.2}),
        short_config(study={"resolutions": [16, 32], "T": 0.2, "amplitude": 1000.0}),
        "study.json",
    ),
}


class TestOutputDirectory:
    @pytest.mark.parametrize("subcommand", sorted(RERUNS))
    def test_failed_rerun_leaves_no_earlier_report(self, tmp_path, subcommand):
        # A report in the output directory is always that of the latest run.
        # The series is fit's input, sampled at t = 0..8.
        (tmp_path / "series.csv").write_text("t,E\n" + "".join(f"{t},{2.0**-t}\n" for t in range(9)))
        *configs, report = RERUNS[subcommand]
        out = tmp_path / "out"
        for cfg, code in zip(configs, (0, 3)):
            path = write_config(tmp_path, cfg)
            assert main([subcommand, "--config", str(path), "--output", str(out)]) == code
            assert (out / report).exists() == (code == 0)

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_output_that_is_no_directory_exits_1(self, tmp_path, capsys, below):
        path = write_config(tmp_path, short_config())
        taken = tmp_path / "taken"
        taken.write_text("kept")
        output = taken / "out" if below else taken
        assert main(["simulate", "--config", str(path), "--output", str(output)]) == 1
        assert f"--output must name a directory, but {taken} is not one" in capsys.readouterr().err
        assert taken.read_text() == "kept"


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
        assert amplitudes[0] == 100.0 and 0.01 in amplitudes
        assert report["amplitude_lo"] in amplitudes and report["amplitude_hi"] in amplitudes
        assert report["contradictions"] == []

    def test_negative_iters_exits_1(self, tmp_path, capsys):
        cfg = short_config(threshold={"iters": -3}, **self.THRESHOLD)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "t"
        assert main(["threshold", "--config", str(path), "--output", str(out)]) == 1
        assert "threshold.iters" in capsys.readouterr().err
        assert not (out / "threshold.json").exists()


class TestWeightedStudyCommand:
    def test_study_steps_with_its_own_dt(self, tmp_path):
        # The study's default T of 4 is no multiple of this integrator's dt.
        path = write_config(tmp_path, {"integrator": {"T": 0.9, "dt": 0.003}})
        out = tmp_path / "study"
        assert main(["weighted-study", "--config", str(path), "--output", str(out)]) == 0
        assert json.loads((out / "study.json").read_text())["resolutions"] == [64, 128, 256]

    def test_diverged_run_exits_3(self, tmp_path, capsys):
        # The study's runs start from its own amplitude, here far too large.
        cfg = short_config(study={"resolutions": [16, 32], "T": 0.2, "amplitude": 1000.0})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "study"
        assert main(["weighted-study", "--config", str(path), "--output", str(out)]) == 3
        assert "diverged at resolution N=16 (t=0.024)" in capsys.readouterr().err
        assert not (out / "study.json").exists()

    @pytest.mark.parametrize("key,value", [("exponent", 1.0), ("amplitude", 0)])
    def test_study_data_no_run_can_honour_exits_1(self, tmp_path, capsys, key, value):
        # A power law that is not H1 (as under initial.psi1), or a zero one,
        # which leaves the study nothing to compare.
        path = write_config(tmp_path, short_config(study={key: value}))
        out = tmp_path / "study"
        assert main(["weighted-study", "--config", str(path), "--output", str(out)]) == 1
        assert f"study.{key}" in capsys.readouterr().err
        assert not out.exists()

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
            seed=99,
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
            assert json.loads((out / label / "summary.json").read_text())["seed"] == 99

    def test_process_pool_matches_one_job(self, tmp_path):
        # Two workers give the report and the series files of one job.
        cfg = short_config(sweep={"parameters": {"medium.k": [0.0, 1.0]}})
        path = write_config(tmp_path, cfg)
        outs = {jobs: tmp_path / f"sweep{jobs}" for jobs in ("1", "2")}
        for jobs, out in outs.items():
            assert main(["sweep", "--config", str(path), "--output", str(out), "--jobs", jobs]) == 0
        report = (outs["1"] / "sweep.json").read_text()
        assert (outs["2"] / "sweep.json").read_text() == report
        for run in json.loads(report)["runs"]:
            series = [(out / run["label"] / "series.csv").read_bytes() for out in outs.values()]
            assert series[0] == series[1]

    def test_diverging_rerun_leaves_no_checkpoint(self, tmp_path):
        # As for simulate: a label whose rerun diverges keeps no checkpoint.
        sweep = {"parameters": {"medium.k": [0.0, 1.0]}}
        out = tmp_path / "sweep"
        for cfg, code in ((short_config(sweep=sweep), 0), ({**DIVERGING, "sweep": sweep}, 2)):
            path = write_config(tmp_path, cfg)
            assert main(["sweep", "--config", str(path), "--output", str(out), "--jobs", "1"]) == code
        for label in ("k=0.0", "k=1.0"):
            assert json.loads((out / label / "summary.json").read_text())["termination"]["kind"] == "diverged"
            assert not (out / label / "state.ckpt").exists()

    def sweep_twice(self, tmp_path, first, second, between=lambda out: None):
        # A sweep over medium.k with the values ``first``, then one with
        # ``second`` into the same output directory.
        out = tmp_path / "sweep"
        for values in (first, second):
            path = write_config(tmp_path, short_config(sweep={"parameters": {"medium.k": values}}))
            assert main(["sweep", "--config", str(path), "--output", str(out), "--jobs", "1"]) == 0
            between(out)
        return out

    def test_rerun_removes_the_variants_it_does_not_run(self, tmp_path):
        # The variants of the replaced sweep.json that the new sweep does not
        # run go: the directories beside its report are those it lists.
        out = self.sweep_twice(tmp_path, [0.5, 1.0], [0.0, 1.0])
        labels = [run["label"] for run in json.loads((out / "sweep.json").read_text())["runs"]]
        assert labels == ["k=0.0", "k=1.0"]
        assert sorted(p.name for p in out.iterdir()) == ["k=0.0", "k=1.0", "sweep.json"]

    def test_rerun_keeps_other_files_in_a_variant_it_does_not_run(self, tmp_path):
        # Only the files a variant writes are removed: a user's own file, and
        # so its directory, survive.
        def annotate(out):
            if (out / "k=0.5").is_dir():
                (out / "k=0.5" / "notes.txt").write_text("mine")

        out = self.sweep_twice(tmp_path, [0.5, 1.0], [0.0, 1.0], annotate)
        assert [p.name for p in (out / "k=0.5").iterdir()] == ["notes.txt"]
        assert (out / "k=0.5" / "notes.txt").read_text() == "mine"

    def test_rerun_reads_only_labels_that_name_a_subdirectory(self, tmp_path):
        # A replaced sweep.json that names a path outside its directory, or
        # none, removes nothing there.
        out = tmp_path / "sweep"
        outside = tmp_path / "k=0.5"
        outside.mkdir()
        (outside / "series.csv").write_text("t\n")
        path = write_config(tmp_path, short_config(sweep={"parameters": {"medium.k": [1.0]}}))
        for runs in ([{"label": "../k=0.5"}, {"label": ".."}, {"label": ""}], "k=0.5", None):
            out.mkdir(exist_ok=True)
            (out / "sweep.json").write_text(json.dumps({"runs": runs}))
            assert main(["sweep", "--config", str(path), "--output", str(out), "--jobs", "1"]) == 0
            assert (outside / "series.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_1(self, tmp_path, capsys, jobs):
        path = write_config(tmp_path, short_config(sweep={"parameters": {"medium.k": [0.0]}}))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(path), "--output", str(out), "--jobs", jobs]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not (out / "sweep.json").exists()

    def test_invalid_variant_stops_the_sweep_before_any_run(self, tmp_path, capsys):
        cfg = short_config(sweep={"parameters": {"medium.b": [1.0, -1.0]}})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(path), "--output", str(out), "--jobs", "1"]) == 1
        assert "medium" in capsys.readouterr().err
        assert not out.exists()

    def test_shared_label_stops_the_sweep_before_any_run(self, tmp_path, capsys):
        # Two variants with one label would run into one output directory.
        cfg = short_config(sweep={"parameters": {"medium.b": [1.0], "medium.k": [0.5, 0.5]}})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(path), "--output", str(out), "--jobs", "1"]) == 1
        assert "b=1.0__k=0.5 appears twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values", [1.0, []])
    def test_parameter_values_must_be_a_non_empty_list(self, tmp_path, values):
        path = write_config(tmp_path, short_config(sweep={"parameters": {"medium.k": values}}))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(path), "--output", str(out), "--jobs", "1"]) == 1


class TestReportFormats:
    # A report's keys are the fields of the result it is written from, so a
    # field that is added, removed or renamed changes a file format.  Each
    # subcommand's files and keys are named here in full.
    CONFIG = short_config(
        grid={"extents": [1.0], "modes": [16]},
        integrator={"T": 2.0, "dt": 4e-3},
        initial=TestThresholdCommand.THRESHOLD["initial"],
        fit={"series_csv": "out/series.csv"},
        threshold={"lo": 0.5, "hi": 10.0, "iters": 2},
        study={"resolutions": [16, 32], "T": 0.4, "dt": 2e-3},
        inequalities={"samples": 20, "gronwall_draws": 2},
    )
    CALIBRATION = {"max_ratio", "calibrated_constant"}
    REPORTS = {
        "simulate": {
            "summary.json": {
                "termination": {"kind", "time"}, "final_time": None, "final_energy": None,
                "final_lyapunov": None, "cumulative_dissipation": None,
                "weighted_grad_accel_integral": None, "max_picard_iterations": None,
                "seed": None, "checkpoint_time": None,
            },
        },
        "fit": {
            "fit.json": dict.fromkeys(("zeta", "window", "r_squared", "classification", "c_factor")),
        },
        "threshold": {
            "threshold.json": {
                "amplitude_lo": None, "amplitude_hi": None, "delta_star": None,
                "sample_every": None, "round_widths": None,
                "runs": [{"amplitude", "classification"}], "contradictions": None,
            },
        },
        "weighted-study": {
            "study.json": dict.fromkeys((
                "resolutions", "sup_lap_v", "sup_weighted_lap_v", "unweighted_growth",
                "weighted_change", "passed",
            )),
        },
        "verify-inequalities": {
            "inequalities.json": {
                "agmon": CALIBRATION, "interpolation_q3": CALIBRATION,
                "interpolation_q4": CALIBRATION, "gronwall": {"draws", "all_ok"},
                "scale_invariance_ok": None, "samples": None, "seed": None,
            },
        },
    }

    @pytest.mark.parametrize("subcommand", list(REPORTS))
    def test_report_keys(self, tmp_path, subcommand):
        path = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "out"
        if subcommand == "fit":
            assert main(["simulate", "--config", str(path), "--output", str(out)]) == 0
            out = tmp_path / "fit"
        assert main([subcommand, "--config", str(path), "--output", str(out)]) == 0
        for name, keys in self.REPORTS[subcommand].items():
            report = json.loads((out / name).read_text())
            assert set(report) == set(keys), name
            for key, inner in keys.items():
                if isinstance(inner, list):
                    assert report[key] and all(set(entry) == inner[0] for entry in report[key])
                elif inner is not None:
                    assert set(report[key]) == inner, key


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

    @pytest.mark.parametrize(
        "save",
        [
            lambda fh: fh.write(b"NOTACKPT" + b"\x00" * 16),
            lambda fh: fh.write(b""),
            lambda fh: np.save(fh, np.arange(16.0)),
            # The record's fields, but one record per row instead of one record.
            lambda fh: np.save(fh, np.zeros(2, [(f, "<f8") for f in ("time", "extents", "psi", "v")])),
            lambda fh: np.savez(fh, psi=np.zeros(16), v=np.zeros(16)),
        ],
        ids=["junk", "empty", "npy", "npy-rows", "npz"],
    )
    def test_magic_validated(self, tmp_path, save):
        path = tmp_path / "junk.ckpt"
        with open(path, "wb") as fh:
            save(fh)
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, value, reason",
        [("time", np.inf, "time"), ("time", np.nan, "time"), ("time", -1.0, "time"),
         ("extents", np.nan, "extents"), ("extents", np.inf, "extents")],
    )
    def test_out_of_range_record_rejected(self, tmp_path, field, value, reason):
        # A record of the right layout whose time or grid no state can have:
        # loading it fails here, not later inside a run.
        path = tmp_path / "state.ckpt"
        save_checkpoint(path, self.make_state())
        record = np.load(path)
        record[field] = value
        with open(path, "wb") as fh:
            np.save(fh, record)
        with pytest.raises(ValueError, match=f"not a checkpoint file: {path}: .*{reason}"):
            load_checkpoint(path)

    STEPS = 40

    @pytest.mark.parametrize("scheme", ["imex1", "imex2", "picard"])
    @given(split=st.integers(1, STEPS - 1))
    def test_midrun_restart_matches_uninterrupted(self, scheme, split):
        # imex1 and picard carry no memory across steps, so a restart is an
        # exact continuation; the imex2 restart re-bootstraps its source
        # extrapolation, perturbing the comparison at third order in dt.
        cfg = StepConfig(dt=1e-3, scheme=scheme)
        full_final = simulate(self.make_state(), self.STEPS * cfg.dt, cfg, self.P,
                              sample_every=10**9).final
        first = simulate(self.make_state(), split * cfg.dt, cfg, self.P, sample_every=10**9)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mid.ckpt")
            save_checkpoint(path, first.final)
            resumed = load_checkpoint(path)
        second = simulate(resumed, (self.STEPS - split) * cfg.dt, cfg, self.P, sample_every=10**9)
        resumed_final = second.final
        assert resumed_final.time == pytest.approx(full_final.time, abs=1e-12)
        pairs = [(resumed_final.psi.coeffs, full_final.psi.coeffs),
                 (resumed_final.v.coeffs, full_final.v.coeffs)]
        if scheme == "imex2":
            assert max(np.max(np.abs(x - y)) for x, y in pairs) <= 1e-12
        else:
            assert all(np.array_equal(x, y) for x, y in pairs)

    def test_truncated_checkpoint_names_byte_counts(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint(path, self.make_state())
        path.write_bytes(path.read_bytes()[:-6])
        # numpy's message: the record is 8 + 8 + 2 * 16 * 8 bytes.
        with pytest.raises(ValueError, match="expected 272 bytes got 266"):
            load_checkpoint(path)

    @given(grid=random_grids(), seed=st.integers(0, 2**32 - 1), time=st.floats(0.0, 1e6))
    def test_roundtrip_random_grids(self, grid, seed, time):
        psi, v = np.random.default_rng(seed).standard_normal((2,) + grid.modes)
        state = SimState(psi=SpectralField(grid, psi), v=SpectralField(grid, v), time=time)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "state.ckpt")
            save_checkpoint(path, state)
            loaded = load_checkpoint(path)
            record = np.load(path)  # plain numpy reads the file
        assert record.shape == () and record.dtype.names == ("time", "extents", "psi", "v")
        assert record["psi"].tobytes() == psi.tobytes() and record["v"].tobytes() == v.tobytes()
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
    save_checkpoint(path, SimState(psi=SpectralField(grid, np.full(16, float(k))), v=zero_field(grid)))


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


def test_writer_failing_on_third_block_keeps_previous_output(tmp_path, monkeypatch):
    # The CSV is streamed in blocks: a write that fails after two blocks have
    # reached the temporary file still leaves the previous output and no
    # temporary file.
    path = tmp_path / "output"
    _csv_output(path, 1)
    before = path.read_bytes()
    rows = 3 * storage._CSV_BLOCK_ROWS + 1
    series = TimeSeries(CSV_COLUMNS, np.full((rows, len(CSV_COLUMNS)), 2.0))
    writes = []

    def third_block_failing_open(file, mode="r"):
        fh = open(file, mode)

        class FailingWriter:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                fh.close()

            def write(self, data):
                writes.append(len(data))
                if len(writes) == 4:  # the header, two blocks, then the third
                    raise OSError(errno.ENOSPC, "No space left on device")
                return fh.write(data)

        return FailingWriter()

    monkeypatch.setattr(storage, "open", third_block_failing_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        write_series_csv(path, series)
    monkeypatch.undo()
    assert len(writes) == 4
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["output"]


class TestSeriesCsvBlocks:
    # The series CSV is formatted and written a block of rows at a time.
    B = storage._CSV_BLOCK_ROWS
    SPECIAL = (np.inf, -np.inf, np.nan, -0.0, 5e-324, np.finfo(float).max)

    @staticmethod
    def reference(series):
        # One "%.17g" per value, one line per row: the file's definition.
        table = np.column_stack([series.column(c) for c in CSV_COLUMNS])
        lines = [",".join(CSV_COLUMNS)] + [",".join("%.17g" % x for x in row) for row in table]
        return ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 2 * B + 1])
    def test_bytes_match_per_row_reference(self, tmp_path, rows):
        # Columns the CSV leaves out sit between the ones it keeps, and the
        # special values lie in the first and in the last block.
        columns = SERIES_COLUMNS
        data = np.random.default_rng(rows).standard_normal((rows, len(columns))) * 1e3
        for row in (0, rows - 1):
            for j, value in enumerate(self.SPECIAL):
                data[row, columns.index(CSV_COLUMNS[(j + row) % len(CSV_COLUMNS)])] = value
        series = TimeSeries(columns, data)
        path = tmp_path / "series.csv"
        write_series_csv(path, series)
        assert path.read_bytes() == self.reference(series)

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        # The traced peak is one block's text and values, whatever the length:
        # neither a copy of the table nor the whole file's text is held.
        peaks = []
        for rows in (20_000, 100_000):
            data = np.random.default_rng(rows).standard_normal((rows, len(SERIES_COLUMNS)))
            series = TimeSeries(SERIES_COLUMNS, data)
            tracemalloc.start()
            try:
                write_series_csv(tmp_path / "series.csv", series)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 2_000_000, peaks
        assert peaks[1] < peaks[0] + 200_000, peaks
