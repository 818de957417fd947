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
step, Lyapunov weights (0.1, 0.01, 0.05), seed 0; the dimension is the
length of ``grid.extents`` or ``grid.modes``.  Every section is parsed
here, the subcommands' own (``fit``, ``threshold``, ``study``,
``inequalities``, ``sweep``) included, so a subcommand reads only checked
values.  Every JSON object of the file is read by ``_read`` through one
table, key -> (default, parser) or key -> the table of an object a file may
omit; the ``_REQUIRED`` marker as a default makes a key required, and a
parser names its value by the dotted path in errors.  Unknown keys anywhere
are rejected, and so is a value no run can honour; section-level validation
reuses the component invariants (for example ``b <= 0`` is rejected with
the medium's own message).
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import sys
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
    their section to its parsed value, the default where the file omits it,
    as keyword arguments of the experiment for ``threshold`` and ``study``
    (whose ``amplitude`` and ``exponent`` make its power-law ``spec1``).
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
    fit: dict = field(default_factory=dict)
    threshold: dict = field(default_factory=dict)
    study: dict = field(default_factory=dict)
    inequalities: dict = field(default_factory=dict)
    #: The sweep's ``(label, RunConfig)`` variants, all of them parsed.
    sweep: tuple = ()


#: The default of a key that a file must give.
_REQUIRED = object()


def _read(obj: Any, table: dict, where: str = "") -> dict:
    # The values of the JSON object ``obj`` at dotted path ``where`` ("" for
    # the file) by ``table``, one per key of the table, in its order.
    name = where or "configuration"
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be a JSON object, got {obj!r}")
    values = {}
    for key, entry in table.items():
        path = f"{where}.{key}" if where else key
        if isinstance(entry, dict):  # a nested table: an omitted object reads as {}
            values[key] = _read(obj.get(key, {}), entry, path)
            continue
        default, parser = entry
        if key in obj:
            values[key] = parser(obj[key], path)
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r} in {name}")
        else:
            values[key] = default
    unknown = set(obj) - set(table)
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    return values


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


def _string(value: Any, where: str) -> str:
    _check(isinstance(value, str), f"{where} must be a string, got {value!r}")
    return value


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _build(where: str, build, **values):
    # ``build(**values)``, with its ValueError, or the MemoryError of an
    # array too large to allocate, reported as invalid ``where``.
    try:
        return build(**values)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _integer(value: Any, where: str, low: int) -> int:
    number = parse_number(value, where, integer=True)
    _check(number >= low, f"{where} must be at least {low}, got {number}")
    return number


_nonnegative = partial(_integer, low=0)
_positive = partial(_integer, low=1)


def _mode(value: Any, where: str) -> tuple:
    # A mode index, or the list of a multi-index; an index outside
    # 1..sys.maxsize (the largest array index) fits no grid.
    mode = parse_numbers(value if isinstance(value, list) else [value], where, integer=True)
    _check(all(1 <= m <= sys.maxsize for m in mode),
           f"{where} must hold indices in 1..{sys.maxsize}, got {value!r}")
    return mode


_TERM = {"mode": (_REQUIRED, _mode), "amplitude": (_REQUIRED, parse_number)}


def _terms(value: Any, where: str) -> list:
    _check(isinstance(value, list), f"{where} must be a list, got {value!r}")
    return [tuple(_read(term, _TERM, where).values()) for term in value]


#: The keys of each initial-data kind besides ``kind``; the values build
#: through the ``InitialDataSpec`` classmethod of the kind's name.
_KINDS = {
    "zero": {},
    "single_mode": _TERM,
    "multi_mode": {"terms": (_REQUIRED, _terms)},
    "power_law": {"exponent": (_REQUIRED, parse_number), "amplitude": (_REQUIRED, parse_number)},
}


def _kind(value: Any, where: str) -> str:
    _check(isinstance(value, str) and value in _KINDS,
           f"{where} must be one of {sorted(_KINDS)}, got {value!r}")
    return value


def _initial_data(value: Any, where: str) -> InitialDataSpec:
    # The kind picks the table of the other keys.
    kind = value.get("kind") if isinstance(value, dict) else None
    table = _KINDS.get(kind, {}) if isinstance(kind, str) else {}
    values = _read(value, {"kind": (_REQUIRED, _kind), **table}, where)
    return _build(where, getattr(InitialDataSpec, values.pop("kind")), **values)


def _parameters(value: Any, where: str) -> dict:
    # Dotted configuration path -> the list of values the sweep gives it.
    _check(isinstance(value, dict) and bool(value),
           f"{where} must be a non-empty object, got {value!r}")
    for key, values in value.items():
        _check(isinstance(values, list) and bool(values), f"{where}.{key} must be a non-empty list")
    return value


_SWEEP = {"parameters": (_REQUIRED, _parameters)}

#: The file: key -> (default, parser), or key -> the table of a section.
_SCHEMA = {
    "grid": {"extents": (None, parse_numbers),
             "modes": (None, partial(parse_numbers, integer=True))},
    "initial": {"psi0": (InitialDataSpec.zero(), _initial_data),
                "psi1": (InitialDataSpec.zero(), _initial_data)},
    "medium": {"c": (1.0, parse_number), "b": (1.0, parse_number),
               "k": (0.0, parse_number), "sigma": (0.0, parse_number)},
    "gammas": {"gamma1": (0.1, parse_number), "gamma2": (0.01, parse_number),
               "gamma3": (0.05, parse_number)},
    "integrator": {"scheme": ("imex2", _string), "dt": (1e-3, parse_number),
                   "T": (20.0, parse_number), "sample_every": (1, _positive)},
    "fit": {"series_csv": (None, _string), "window": (None, partial(parse_numbers, length=2))},
    "threshold": {"lo": (0.01, parse_number), "hi": (100.0, parse_number),
                  "iters": (12, _nonnegative), "window": (None, partial(parse_numbers, length=2))},
    "study": {"resolutions": ((64, 128, 256), partial(parse_numbers, integer=True)),
              "T": (4.0, parse_number), "dt": (1e-3, parse_number),
              "amplitude": (0.01, parse_number), "exponent": (2.0, parse_number)},
    "inequalities": {"samples": (2000, _positive), "gronwall_draws": (100, _positive)},
    "seed": (0, _nonnegative),
    "sweep": (None, lambda value, where: _read(value, _SWEEP, where)),
}


def _formed(grid: Grid) -> Grid:
    # The grid with its Laplacian eigenvalues formed, and cached for the run:
    # numpy refuses a size it cannot index with a ValueError, and one it
    # cannot allocate with a MemoryError.
    grid.laplacian_eigenvalues
    return grid


def _grid(extents: tuple | None, modes: tuple | None) -> Grid:
    # The dimension is the length of the extents, else of the modes, else 1.
    given = extents if extents is not None else modes
    dim = 1 if given is None else len(given)
    _check(dim in DEFAULT_MODES,
           f"grid.extents and grid.modes need 1, 2 or 3 entries, got {dim}")
    if extents is None:
        extents = (math.pi,) * dim
    if modes is None:
        modes = (DEFAULT_MODES[dim],) * dim
    return _build("grid.modes", _formed, grid=_build("grid", Grid, extents=extents, modes=modes))


def _expand_sweep(raw: dict, parameters: dict) -> tuple[tuple[str, RunConfig], ...]:
    # Every point of the cartesian product of the parameters, each a labelled
    # copy of the configuration without its sweep, parsed.  A label names the
    # variant's output directory, so two variants may not share one.
    keys = sorted(parameters)
    variants = []
    for combo in itertools.product(*(parameters[k] for k in keys)):
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
        _check(all(label != seen for seen, _ in variants), f"sweep variant {label} appears twice")
        try:
            variants.append((label, parse_config(variant)))
        except ConfigError as exc:
            raise ConfigError(f"sweep variant {label}: {exc}") from exc
    return tuple(variants)


def parse_config(raw: dict) -> RunConfig:
    """Validate a parsed JSON object into a RunConfig."""
    sections = _read(raw, _SCHEMA)
    grid = _grid(**sections.pop("grid"))
    psi0, psi1 = sections.pop("initial").values()
    medium = _build("medium", MediumParams, **sections.pop("medium"))
    gammas = _build("gammas", GammaWeights, **sections.pop("gammas"))
    integrator = sections.pop("integrator")
    T, sample_every = integrator.pop("T"), integrator.pop("sample_every")
    step = _build("integrator", StepConfig, **integrator)
    _build("integrator", step.steps_to, T=T)
    threshold = sections["threshold"]
    lo, hi, window = threshold["lo"], threshold["hi"], threshold["window"]
    _check(0 < lo < hi, f"threshold.lo and threshold.hi need 0 < lo < hi, got {lo}, {hi}")
    # The search's runs start at time 0 and end at T.
    _check(window is None or 0 <= window[0] < window[1] <= T,
           f"threshold.window needs 0 <= lo < hi <= T = {T}, got {window}")
    study = sections["study"]
    resolutions = study["resolutions"]
    # The study compares its last resolution with its first.
    _check(bool(resolutions) and all(a < b for a, b in zip(resolutions, resolutions[1:])),
           f"study.resolutions must be non-empty and strictly increasing, got {resolutions}")
    for N in resolutions:
        study_grid = _build("study.resolutions", Grid, extents=grid.extents[:1], modes=(N,))
        _build("study.resolutions", _formed, grid=study_grid)
    study_step = _build("study.dt", StepConfig, dt=study["dt"])
    _build("study.T", study_step.steps_to, T=study["T"])
    # The study divides by the suprema of its psi_1, which a zero amplitude zeroes.
    _check(study["amplitude"] != 0, "study.amplitude must be non-zero, got 0")
    study["spec1"] = _build("study.exponent", InitialDataSpec.power_law,
                           exponent=study.pop("exponent"), amplitude=study.pop("amplitude"))
    # Mode indices must exist on the grid; realize once to surface errors now.
    try:
        psi0.realize(grid)
        psi1.realize(grid)
    except IndexError as exc:
        raise ConfigError(f"invalid initial data: {exc}") from exc
    sweep = sections.pop("sweep")
    return RunConfig(
        grid=grid,
        medium=medium,
        psi0=psi0,
        psi1=psi1,
        step=step,
        T=T,
        sample_every=sample_every,
        gammas=gammas,
        sweep=_expand_sweep(raw, sweep["parameters"]) if sweep else (),
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
