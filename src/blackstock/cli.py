"""Command-line runner.

Usage: ``blackstock <subcommand> --config <path> [--output <dir>]``, plus
``--jobs N`` for ``sweep``; the subcommands are ``simulate``, ``fit``,
``threshold``, ``weighted-study``, ``verify-inequalities`` and ``sweep``.
The configuration file sets every value of a run but ``--output`` and ``--jobs``.
The whole configuration is parsed and checked by :mod:`blackstock.config`
before a subcommand runs; the subcommands read only parsed values, and the
output directory is made with the first file written to it.  The files a
subcommand writes (``SUBCOMMANDS``) are removed from it, and from each sweep
variant's, before the subcommand runs: a run that fails leaves none of an
earlier run's.  A sweep also removes a variant's files from each variant of
the sweep it replaces that it does not run, and then the variant's
directory if that is empty.  An ``--output`` that is not a directory, a
``study.exponent`` of at most 1.5 and a ``study.amplitude`` of 0 are
configuration errors.
``fit.json``, ``study.json`` and ``threshold.json`` are ``dataclasses.asdict``
of the experiment's result (``threshold.json`` with each run and contradiction as an
``amplitude``/``classification`` object), and the summary's ``termination``
is that of the run.  ``fit`` reads the ``summary.json`` beside the series
CSV, when there is one, for the run's termination: a run that did not
complete is fitted as ``diverges`` without reading its rows.

Exit codes: 0 success, 1 configuration and usage errors, 2 divergence of a
simulate run, 3 precondition failures (unbracketed thresholds, bad fit
windows or inputs, inadmissible parameters, failed inequality checks).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .experiments import (
    fit_decay,
    threshold_bisection,
    weighted_regularity_study,
)
from .fields import build_initial
from .inequalities import (
    CALIBRATION_SAFETY,
    agmon_ratio,
    gronwall_verify,
    interpolation_ratio,
    max_ratios,
    random_admissible_gronwall,
    random_trig_fields,
)
from .integrate import Termination, TimeSeries, simulate
from .storage import (
    read_series_csv,
    save_checkpoint,
    write_json,
    write_series_csv,
)

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_PRECONDITION = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blackstock",
        description="Spectral simulator and diagnostics for the strongly damped "
        "Blackstock acoustic wave equation",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON run configuration")
        sp.add_argument("--output", default=None, help="output directory (default blackstock_out)")
        if name == "sweep":
            sp.add_argument("--jobs", type=int, default=None, help="worker count (default: logical cores)")
    return parser


def _run_simulate(cfg: RunConfig, csv_path: Path, ckpt_path: Path, summary_path: Path, **_) -> int:
    state = build_initial(cfg.psi0, cfg.psi1, cfg.grid)
    series = simulate(
        state,
        cfg.T,
        cfg.step,
        cfg.medium,
        sample_every=cfg.sample_every,
        gammas=cfg.gammas,
    )
    write_series_csv(csv_path, series)

    def last(name: str) -> float | None:
        # None for a run that ended at its start time, without a row.
        column = series.column(name)
        return float(column[-1]) if len(column) else None

    summary = {
        "termination": dataclasses.asdict(series.termination),
        "final_time": last("t") if len(series.data) else series.termination.time,
        "final_energy": last("E"),
        "final_lyapunov": last("L"),
        "cumulative_dissipation": last("D_cum"),
        "weighted_grad_accel_integral": last("w_grad_ptt"),
        "max_picard_iterations": series.max_picard_iterations,
        "seed": cfg.seed,
    }
    if series.final is not None:
        save_checkpoint(ckpt_path, series.final)
        summary["checkpoint_time"] = series.final.time
    write_json(summary_path, summary)
    return EXIT_OK if series.termination.completed else EXIT_DIVERGED


def _run_fit(cfg: RunConfig, report: Path, *, config_path: Path, **_) -> int:
    csv_name = cfg.fit["series_csv"]
    if not csv_name:
        raise ConfigError("fit requires fit.series_csv in the configuration")
    csv_path = Path(csv_name)
    if not csv_path.is_absolute():
        csv_path = config_path.parent / csv_path
    if not csv_path.is_file():
        raise ConfigError(f"fit.series_csv not found: {csv_path}")
    termination = Termination("completed")
    summary = csv_path.with_name("summary.json")
    if summary.is_file():
        # The run's own termination: a run that did not complete diverges,
        # and its rows, if it has any, are not read.
        try:
            termination = Termination(**json.loads(summary.read_text())["termination"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed summary {summary}: {type(exc).__name__}: {exc}") from exc
    if termination.completed:
        series = read_series_csv(csv_path)
    else:
        series = TimeSeries((), np.empty((0, 0)), termination=termination)
    fit = fit_decay(series, cfg.fit["window"])
    write_json(report, dataclasses.asdict(fit))
    return EXIT_OK


def _run_threshold(cfg: RunConfig, report: Path, **_) -> int:
    # A decay fit needs no sample more often than every tenth step, and the
    # search makes many runs: sampling is raised to at least every tenth
    # step, and the report records the value used.
    result = threshold_bisection(
        cfg.medium,
        (cfg.psi0, cfg.psi1),
        grid=cfg.grid,
        T=cfg.T,
        cfg=cfg.step,
        sample_every=max(cfg.sample_every, 10),
        **cfg.threshold,
    )
    payload = dataclasses.asdict(result)
    for key in ("runs", "contradictions"):
        payload[key] = [{"amplitude": a, "classification": c} for a, c in payload[key]]
    write_json(report, payload)
    return EXIT_OK


def _run_weighted_study(cfg: RunConfig, report: Path, **_) -> int:
    study = weighted_regularity_study(cfg.medium, extent=cfg.grid.extents[0], **cfg.study)
    write_json(report, dataclasses.asdict(study))
    return EXIT_OK


def _run_verify_inequalities(cfg: RunConfig, report: Path, **_) -> int:
    count = cfg.inequalities["samples"]
    draws = cfg.inequalities["gronwall_draws"]
    seed = cfg.seed
    calibration = {
        name: {"max_ratio": r, "calibrated_constant": r * CALIBRATION_SAFETY}
        for name, r in max_ratios(cfg.grid, count, seed).items()
    }
    scale_ok = not any(
        abs(fn(u * 5.0) / fn(u) - 1.0) > 1e-10
        for u in random_trig_fields(cfg.grid, 10, seed + 1)
        for fn in (agmon_ratio, lambda w: interpolation_ratio(w, 4))
    )
    gronwall = random_admissible_gronwall(draws, seed=seed + 2)
    all_ok = all(gronwall_verify(g, T=10.0, dt=1e-3).ok for g in gronwall)
    payload = {
        **calibration,
        "scale_invariance_ok": scale_ok,
        "gronwall": {"draws": draws, "all_ok": all_ok},
        "samples": count,
        "seed": seed,
    }
    write_json(report, payload)
    return EXIT_OK if (scale_ok and all_ok) else EXIT_PRECONDITION


def _run_sweep(cfg: RunConfig, report: Path, *, jobs: int | None, replaced: frozenset, **_) -> int:
    if not cfg.sweep:
        raise ConfigError("sweep requires sweep.parameters in the configuration")
    # The variants of the sweep being replaced that this one does not run
    # lose the files a variant writes, and then their directory if empty.
    for label in replaced - {label for label, _ in cfg.sweep}:
        stale = report.parent / label
        if stale.is_dir() and not stale.is_symlink():
            for name in SUBCOMMANDS["simulate"][1]:
                (stale / name).unlink(missing_ok=True)
            if not any(stale.iterdir()):
                stale.rmdir()
    jobs = jobs or os.cpu_count() or 1
    # Each variant runs as simulate into the subdirectory of its label.
    work = [("simulate", variant, report.parent / label) for label, variant in cfg.sweep]
    if jobs == 1:
        codes = [_execute(*w) for w in work]
    else:
        with Pool(processes=jobs) as pool:
            codes = pool.starmap(_execute, work)
    runs = [{"label": label, "exit_code": code} for (label, _), code in zip(cfg.sweep, codes)]
    write_json(report, {"runs": runs})
    return max(codes, default=EXIT_OK)


#: Subcommand -> (runner, the files it writes in the output directory).  A
#: runner takes the configuration, the paths of those files in this order,
#: and ``config_path`` and ``jobs`` by keyword, and returns the exit code.
SUBCOMMANDS = {
    "simulate": (_run_simulate, ("series.csv", "state.ckpt", "summary.json")),
    "fit": (_run_fit, ("fit.json",)),
    "threshold": (_run_threshold, ("threshold.json",)),
    "weighted-study": (_run_weighted_study, ("study.json",)),
    "verify-inequalities": (_run_verify_inequalities, ("inequalities.json",)),
    "sweep": (_run_sweep, ("sweep.json",)),
}


def _sweep_labels(report: Path) -> frozenset[str]:
    # The variant labels in a sweep report, read before the report is
    # removed; none from a missing or malformed report.  Only a label that
    # names a subdirectory of the report's own counts.
    try:
        labels = frozenset(run["label"] for run in json.loads(report.read_text())["runs"])
    except (OSError, ValueError, LookupError, TypeError):
        return frozenset()
    return frozenset(
        label for label in labels
        if isinstance(label, str) and label not in ("", "..") and Path(label).name == label
    )


def _execute(subcommand: str, cfg: RunConfig, out: Path, **given) -> int:
    # The subcommand's run into ``out``, once its files there are removed.
    runner, files = SUBCOMMANDS[subcommand]
    for path in (out, *out.parents):
        if path.exists() and not path.is_dir():
            raise ConfigError(f"--output must name a directory, but {path} is not one")
    paths = [out / name for name in files]
    if subcommand == "sweep":
        given["replaced"] = _sweep_labels(paths[0])
    for path in paths:
        path.unlink(missing_ok=True)
    return runner(cfg, *paths, **given)


def run(subcommand: str, config_path: str | Path, output: str | None = None, jobs: int | None = None) -> int:
    """Dispatch one subcommand; returns the process exit code."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    config_path = Path(config_path)
    cfg = load_config(config_path)
    if jobs is not None and jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    out = Path(output or "blackstock_out")
    return _execute(subcommand, cfg, out, config_path=config_path, jobs=jobs)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of divergence here.
        return EXIT_CONFIG if exc.code == 2 else exc.code
    try:
        return run(args.subcommand, args.config, args.output, getattr(args, "jobs", None))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
