"""Run configuration: JSON schema, validation and defaults.

A run is described by one JSON file.  Minimal example::

    {
      "medium": {"c": 1.0, "b": 1.0, "k": 1.0, "sigma": 1.0},
      "initial": {
        "psi0": {"kind": "single_mode", "mode": [1], "amplitude": 0.01},
        "psi1": {"kind": "single_mode", "mode": [1], "amplitude": 0.01}
      },
      "integrator": {"T": 20.0, "dt": 0.001}
    }

Defaults for omitted sections: a 1D box of length pi with 64 modes (32 per
axis in 3D), zero initial data, the second-order IMEX scheme sampling every
step, Lyapunov weights (0.1, 0.01, 0.05), seed 0.  Unknown keys anywhere are
rejected, and section-level validation reuses the component invariants (for
example ``b <= 0`` is rejected with the medium's own message).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .dynamics import MediumParams
from .energy import GammaWeights
from .fields import InitialDataSpec
from .grid import Grid
from .integrate import StepConfig

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "parse_number",
    "parse_numbers",
    "parse_config",
]

DEFAULT_MODES = {1: 64, 2: 64, 3: 32}


class ConfigError(ValueError):
    """A configuration file failed to parse or validate."""


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration with all component objects constructed."""

    grid: Grid
    medium: MediumParams
    psi0: InitialDataSpec
    psi1: InitialDataSpec
    step: StepConfig
    T: float
    sample_every: int
    gammas: GammaWeights
    seed: int
    output_dir: str | None = None
    fit: dict = field(default_factory=dict)
    threshold: dict = field(default_factory=dict)
    study: dict = field(default_factory=dict)
    inequalities: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)


def _object(section: Any, where: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    return section


def _reject_unknown(section: Any, allowed: set[str], where: str) -> None:
    unknown = set(_object(section, where)) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _require(section: dict, key: str, where: str) -> Any:
    if key not in section:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return section[key]


def parse_number(value: Any, where: str, integer: bool = False) -> float | int:
    """A finite JSON number, or an integral one when ``integer`` (``2`` or ``2.0``).

    Anything else, including strings and booleans, is a ``ConfigError``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if integer:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        return int(value)
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return number


def parse_numbers(
    value: Any, where: str, integer: bool = False, length: int | None = None
) -> tuple:
    """A JSON list of numbers as ``parse_number`` reads them, of ``length`` if given."""
    if not isinstance(value, list) or (length is not None and len(value) != length):
        shape = "a list" if length is None else f"a list of {length} numbers"
        raise ConfigError(f"{where} must be {shape}, got {value!r}")
    return tuple(parse_number(x, where, integer) for x in value)


def _parse_grid(section: dict) -> Grid:
    _reject_unknown(section, {"dim", "extents", "modes"}, "grid")
    dim = parse_number(section.get("dim", 0), "grid.dim", integer=True) or None
    extents = section.get("extents")
    modes = section.get("modes")
    if extents is not None:
        extents = parse_numbers(extents, "grid.extents")
    if modes is not None:
        modes = parse_numbers(modes, "grid.modes", integer=True)
    if dim is None:
        if extents is not None:
            dim = len(extents)
        elif modes is not None:
            dim = len(modes)
        else:
            dim = 1
    if extents is None:
        extents = [math.pi] * dim
    if modes is None:
        if dim not in DEFAULT_MODES:
            raise ConfigError("grid dim must be 1, 2 or 3")
        modes = [DEFAULT_MODES[dim]] * dim
    try:
        return Grid(extents=tuple(extents), modes=tuple(modes))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


def _parse_coefficients(section: dict, defaults: dict, where: str, build):
    # A section of named real coefficients, each defaulted, built by ``build``.
    _reject_unknown(section, set(defaults), where)
    values = {
        name: parse_number(section.get(name, default), f"{where}.{name}")
        for name, default in defaults.items()
    }
    try:
        return build(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _parse_mode(mode: Any, where: str) -> list[int]:
    if not isinstance(mode, list):
        mode = [mode]
    return [parse_number(m, f"{where}.mode", integer=True) for m in mode]


def _parse_initial_one(section: Any, where: str) -> InitialDataSpec:
    kind = _require(_object(section, where), "kind", where)
    try:
        if kind == "zero":
            _reject_unknown(section, {"kind"}, where)
            return InitialDataSpec.zero()
        if kind == "single_mode":
            _reject_unknown(section, {"kind", "mode", "amplitude"}, where)
            return InitialDataSpec.single_mode(
                _parse_mode(_require(section, "mode", where), where),
                parse_number(_require(section, "amplitude", where), f"{where}.amplitude"),
            )
        if kind == "multi_mode":
            _reject_unknown(section, {"kind", "terms"}, where)
            terms = [
                (
                    _parse_mode(term["mode"], where),
                    parse_number(term["amplitude"], f"{where}.amplitude"),
                )
                for term in _require(section, "terms", where)
            ]
            return InitialDataSpec.multi_mode(terms)
        if kind == "power_law":
            _reject_unknown(section, {"kind", "exponent", "amplitude"}, where)
            return InitialDataSpec.power_law(
                parse_number(_require(section, "exponent", where), f"{where}.exponent"),
                parse_number(_require(section, "amplitude", where), f"{where}.amplitude"),
            )
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc
    raise ConfigError(f"unknown initial-data kind {kind!r} in {where}")


def _parse_integrator(section: dict) -> tuple[StepConfig, float, int]:
    allowed = {"scheme", "dt", "T", "sample_every", "picard_tol", "picard_max_iter"}
    _reject_unknown(section, allowed, "integrator")

    def number(key: str, default: float, integer: bool = False):
        return parse_number(section.get(key, default), f"integrator.{key}", integer)

    T = number("T", 20.0)
    sample_every = number("sample_every", 1, integer=True)
    dt = number("dt", 1e-3)
    picard_tol = number("picard_tol", 1e-10)
    picard_max_iter = number("picard_max_iter", 50, integer=True)
    try:
        step = StepConfig(
            dt=dt,
            scheme=str(section.get("scheme", "imex2")),
            picard_tol=picard_tol,
            picard_max_iter=picard_max_iter,
        )
        step.steps_to(T)
    except ValueError as exc:
        raise ConfigError(f"invalid integrator: {exc}") from exc
    if sample_every < 1:
        raise ConfigError("invalid integrator: sample_every must be at least 1")
    return step, T, sample_every


# Sections kept as plain dicts for the subcommand that reads them.
_PASS_THROUGH_KEYS = ("fit", "threshold", "study", "inequalities", "sweep")
_TOP_LEVEL_KEYS = {
    "grid",
    "medium",
    "initial",
    "integrator",
    "gammas",
    "seed",
    "output_dir",
    *_PASS_THROUGH_KEYS,
}


def parse_config(raw: dict) -> RunConfig:
    """Validate a parsed JSON object into a RunConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a JSON object")
    _reject_unknown(raw, _TOP_LEVEL_KEYS, "configuration")
    grid = _parse_grid(raw.get("grid", {}))
    medium = _parse_coefficients(
        raw.get("medium", {}), {"c": 1.0, "b": 1.0, "k": 0.0, "sigma": 0.0}, "medium", MediumParams
    )
    initial = raw.get("initial", {})
    _reject_unknown(initial, {"psi0", "psi1"}, "initial")
    psi0 = (
        _parse_initial_one(initial["psi0"], "initial.psi0")
        if "psi0" in initial
        else InitialDataSpec.zero()
    )
    psi1 = (
        _parse_initial_one(initial["psi1"], "initial.psi1")
        if "psi1" in initial
        else InitialDataSpec.zero()
    )
    step, T, sample_every = _parse_integrator(raw.get("integrator", {}))
    gammas = _parse_coefficients(
        raw.get("gammas", {}),
        {"gamma1": 0.1, "gamma2": 0.01, "gamma3": 0.05},
        "gammas",
        GammaWeights,
    )
    seed = parse_number(raw.get("seed", 0), "seed", integer=True)
    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a string, got {output_dir!r}")
    # Mode indices must exist on the grid; realize once to surface errors now.
    try:
        psi0.realize(grid)
        psi1.realize(grid)
    except IndexError as exc:
        raise ConfigError(f"invalid initial data: {exc}") from exc
    return RunConfig(
        grid=grid,
        medium=medium,
        psi0=psi0,
        psi1=psi1,
        step=step,
        T=T,
        sample_every=sample_every,
        gammas=gammas,
        seed=seed,
        output_dir=output_dir,
        **{key: dict(_object(raw.get(key, {}), key)) for key in _PASS_THROUGH_KEYS},
    )


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a JSON configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"JSON parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(raw)
