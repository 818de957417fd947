"""Series CSV, report JSON and state checkpoints.

The series CSV carries the fixed column set
``t,E,E1,E2,F1,F2,F3,L,D_cum,w_ptt,w_lap_vt`` with ``.``-decimal values at 17
significant digits, so identical runs produce bit-identical files.  It is
written block by block, ``_CSV_BLOCK_ROWS`` rows at a time, so writing it
needs memory for one block's text, not for the whole table's.  Report JSON is
standard JSON: a float that is not finite is written as ``null``.

A checkpoint is a numpy ``.npy`` file of one 0-d structured record with the
little-endian float64 fields ``time``, ``extents``, ``psi`` and ``v``, so
plain ``np.load`` reads it; the grid's modes are the shape of ``psi``.
"""

from __future__ import annotations

import io
import json
import math
import os
import warnings
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from .fields import SimState
from .grid import Grid, SpectralField
from .integrate import TimeSeries

__all__ = [
    "CSV_COLUMNS",
    "write_series_csv",
    "read_series_csv",
    "write_json",
    "save_checkpoint",
    "load_checkpoint",
]

#: Column order of the series CSV.
CSV_COLUMNS = ("t", "E", "E1", "E2", "F1", "F2", "F3", "L", "D_cum", "w_ptt", "w_lap_vt")

#: Rows of the series CSV formatted and written at a time.
_CSV_BLOCK_ROWS = 1024


def _write_atomically(path: str | Path, write: Callable[[BinaryIO], object]) -> None:
    # ``write`` writes the output to a temporary binary file next to ``path``,
    # which is flushed to disk and only then moved into place, so ``path``
    # never holds a partial output, also after a crash on a filesystem that
    # may reorder the rename before the data, or after ``write`` fails midway.
    # The directory is made here, so a run that writes nothing leaves none.
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_series_csv(path: str | Path, series: TimeSeries) -> None:
    for name in CSV_COLUMNS:
        series.column(name)  # KeyError for a column the series does not have
    columns = [series.columns.index(name) for name in CSV_COLUMNS]
    row_format = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\n"
    block_format = row_format * _CSV_BLOCK_ROWS

    def write(fh: BinaryIO) -> None:
        fh.write((",".join(CSV_COLUMNS) + "\n").encode())
        # One block's rows at a time, formatted by one ``%``: neither a copy
        # of the table nor the whole file's text is ever held.
        for start in range(0, len(series.data), _CSV_BLOCK_ROWS):
            block = series.data[start : start + _CSV_BLOCK_ROWS, columns]
            fmt = block_format if len(block) == _CSV_BLOCK_ROWS else row_format * len(block)
            fh.write((fmt % tuple(block.ravel().tolist())).encode())

    _write_atomically(path, write)


def read_series_csv(path: str | Path) -> TimeSeries:
    """The columns of a series CSV; ``ValueError`` for an empty or malformed
    file, or one without a ``t`` or an ``E`` column."""
    # numpy's C reader parses straight into one array and reads ``inf``,
    # ``nan`` and 17-digit values exactly.  A pure-Python parse makes one
    # float object per value, whose memory the allocator keeps after the call.
    with open(path) as fh:
        header = tuple(fh.readline().strip().split(","))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data rows: empty below
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"malformed series CSV {path}: {exc}") from exc
    if rows.size == 0:
        raise ValueError(f"empty series CSV {path}")
    if rows.shape[1] != len(header):
        raise ValueError(f"malformed series CSV {path}")
    missing = [name for name in ("t", "E") if name not in header]
    if missing:
        raise ValueError(f"malformed series CSV {path}: no column {', '.join(missing)}")
    return TimeSeries(header, rows)


def _finite_or_null(value):
    # JSON has no NaN or infinity: a float that is not finite becomes None.
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def write_json(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as JSON, with ``null`` for a float that is not finite."""
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    _write_atomically(path, lambda fh: fh.write((text + "\n").encode()))


def save_checkpoint(path: str | Path, state: SimState) -> None:
    grid = state.grid
    record = np.empty((), [("time", "<f8"), ("extents", "<f8", (grid.dim,)),
                           ("psi", "<f8", grid.modes), ("v", "<f8", grid.modes)])
    record["time"], record["extents"] = state.time, grid.extents
    record["psi"], record["v"] = state.psi.coeffs, state.v.coeffs
    _write_atomically(path, lambda fh: np.save(fh, record))


def load_checkpoint(path: str | Path) -> SimState:
    """The state of a checkpoint; ``ValueError`` for a file that is not one,
    or whose grid or time a state cannot have."""
    # ``read_array`` reads only the .npy format and raises ValueError for
    # any other or truncated input; read from bytes, its message names the
    # expected and the found byte counts.
    try:
        record = np.lib.format.read_array(io.BytesIO(Path(path).read_bytes()))
    except ValueError as exc:
        raise ValueError(f"not a checkpoint file: {path}: {exc}") from exc
    if record.shape != () or record.dtype.names != ("time", "extents", "psi", "v"):
        raise ValueError(f"not a checkpoint file: {path}: a {record.shape} array of {record.dtype}")
    try:
        grid = Grid(extents=record["extents"], modes=record["psi"].shape)
        return SimState(
            psi=SpectralField(grid, record["psi"]),
            v=SpectralField(grid, record["v"]),
            time=float(record["time"]),
        )
    except ValueError as exc:
        raise ValueError(f"not a checkpoint file: {path}: {exc}") from exc
