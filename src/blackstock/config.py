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
step, Lyapunov weights (0.1, 0.01, 0.05), seed 0.  Every section is parsed
here, the subcommands' own (``fit``, ``threshold``, ``study``,
``inequalities``, ``sweep``) included, so a subcommand reads only checked
values.  Unknown keys anywhere are rejected, and so is a value no run can
honour; section-level validation reuses the component invariants (for
example ``b <= 0`` is rejected with the medium's own message).
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from dataclasses import dataclass, field
from functools import partial
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
    "parse_config",
]

DEFAULT_MODES = {1: 64, 2: 64, 3: 32}


class ConfigError(ValueError):
    """A configuration file failed to parse or validate."""


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration with all component objects constructed.

    ``fit``, ``threshold``, ``study`` and ``inequalities`` map each key of
    their section to its parsed value, the default where the file omits it.
    """

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
    #: The sweep's ``(label, RunConfig)`` variants, all of them parsed.
    sweep: tuple = ()


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
            terms = []
            for term in _require(section, "terms", where):
                _reject_unknown(term, {"mode", "amplitude"}, f"{where}.terms")
                terms.append(
                    (
                        _parse_mode(term["mode"], where),
                        parse_number(term["amplitude"], f"{where}.amplitude"),
                    )
                )
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


def _string(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _build(where: str, build, **values):
    # ``build(**values)``, with its ValueError reported as invalid ``where``.
    try:
        return build(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


_integer = partial(parse_number, integer=True)

# The keyed sections: key -> (default, parser).  A parser reads the JSON value
# and names it by its dotted path in errors; a default is taken as it stands.
_SECTIONS = {
    "medium": {"c": (1.0, parse_number), "b": (1.0, parse_number),
               "k": (0.0, parse_number), "sigma": (0.0, parse_number)},
    "gammas": {"gamma1": (0.1, parse_number), "gamma2": (0.01, parse_number),
               "gamma3": (0.05, parse_number)},
    "integrator": {"scheme": ("imex2", _string), "dt": (1e-3, parse_number),
                   "T": (20.0, parse_number), "sample_every": (1, _integer),
                   "picard_tol": (1e-10, parse_number), "picard_max_iter": (50, _integer)},
    "fit": {"series_csv": (None, _string), "window": (None, partial(parse_numbers, length=2))},
    "threshold": {"lo": (0.01, parse_number), "hi": (100.0, parse_number),
                  "iters": (12, _integer), "window": (None, partial(parse_numbers, length=2))},
    # A study dt of None is the integrator's.
    "study": {"resolutions": ((64, 128, 256), partial(parse_numbers, integer=True)),
              "T": (4.0, parse_number), "dt": (None, parse_number),
              "scheme": ("imex1", _string), "amplitude": (0.01, parse_number),
              "exponent": (2.0, parse_number)},
    "inequalities": {"samples": (2000, _integer), "gronwall_draws": (100, _integer)},
}
_TOP_LEVEL_KEYS = {"grid", "initial", "seed", "output_dir", "sweep", *_SECTIONS}


def _parse_sections(raw: dict) -> dict[str, dict]:
    sections = {}
    for name, table in _SECTIONS.items():
        section = raw.get(name, {})
        _reject_unknown(section, set(table), name)
        sections[name] = {
            key: parser(section[key], f"{name}.{key}") if key in section else default
            for key, (default, parser) in table.items()
        }
    return sections


def _expand_sweep(raw: dict) -> tuple[tuple[str, RunConfig], ...]:
    # Every point of the cartesian product of sweep.parameters, each a
    # labelled copy of the configuration without its sweep, parsed.
    if "sweep" not in raw:
        return ()
    _reject_unknown(raw["sweep"], {"parameters"}, "sweep")
    params = raw["sweep"].get("parameters")
    _check(isinstance(params, dict) and bool(params),
           f"sweep.parameters must be a non-empty object, got {params!r}")
    keys = sorted(params)
    for key in keys:
        _check(isinstance(params[key], list) and bool(params[key]),
               f"sweep.parameters.{key} must be a non-empty list")
    variants = []
    for combo in itertools.product(*(params[k] for k in keys)):
        variant = copy.deepcopy(raw)
        del variant["sweep"]
        label_parts = []
        for key, value in zip(keys, combo):
            node = variant
            *parents, leaf = key.split(".")
            for part in parents:
                node = node.setdefault(part, {})
                _check(isinstance(node, dict), f"sweep parameter {key!r}: {part!r} is not an object")
            node[leaf] = value
            label_parts.append(f"{leaf}={value}")
        label = "__".join(label_parts)
        try:
            variants.append((label, parse_config(variant)))
        except ConfigError as exc:
            raise ConfigError(f"sweep variant {label}: {exc}") from exc
    return tuple(variants)


def parse_config(raw: dict) -> RunConfig:
    """Validate a parsed JSON object into a RunConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a JSON object")
    _reject_unknown(raw, _TOP_LEVEL_KEYS, "configuration")
    grid = _parse_grid(raw.get("grid", {}))
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
    sections = _parse_sections(raw)
    medium = _build("medium", MediumParams, **sections.pop("medium"))
    gammas = _build("gammas", GammaWeights, **sections.pop("gammas"))
    integrator = sections.pop("integrator")
    T, sample_every = integrator.pop("T"), integrator.pop("sample_every")
    step = _build("integrator", StepConfig, **integrator)
    _build("integrator", step.steps_to, T=T)
    _check(sample_every >= 1, "invalid integrator: sample_every must be at least 1")
    threshold = sections["threshold"]
    lo, hi, window = threshold["lo"], threshold["hi"], threshold["window"]
    _check(threshold["iters"] >= 0, f"threshold.iters must be nonnegative, got {threshold['iters']}")
    _check(0 < lo < hi, f"threshold.lo and threshold.hi need 0 < lo < hi, got {lo}, {hi}")
    # The search's runs start at time 0 and end at T.
    _check(window is None or 0 <= window[0] < window[1] <= T,
           f"threshold.window needs 0 <= lo < hi <= T = {T}, got {window}")
    study = sections["study"]
    if study["dt"] is None:
        study["dt"] = step.dt
    study_step = _build("study.scheme or study.dt", StepConfig, dt=study["dt"], scheme=study["scheme"])
    # Only a file's own study section is checked: the default T need not
    # divide every integrator dt.
    if "study" in raw:
        _check(bool(study["resolutions"]), "study.resolutions must not be empty")
        for N in study["resolutions"]:
            _build("study.resolutions", Grid, extents=grid.extents[:1], modes=(N,))
        _build("study.T", study_step.steps_to, T=study["T"])
    for key, value in sections["inequalities"].items():
        _check(value >= 1, f"inequalities.{key} must be at least 1, got {value}")
    seed = parse_number(raw.get("seed", 0), "seed", integer=True)
    output_dir = raw.get("output_dir")
    if output_dir is not None:
        _string(output_dir, "output_dir")
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
        sweep=_expand_sweep(raw),
        **sections,
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
