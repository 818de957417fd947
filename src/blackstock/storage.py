"""Series CSV, report JSON and state checkpoints.

The series CSV carries the fixed column set
``t,E,E1,E2,F1,F2,F3,L,D_cum,w_ptt,w_lap_vt`` with ``.``-decimal values at 17
significant digits, so identical runs produce bit-identical files.

Checkpoints are a versioned binary format: an 8-byte magic, a little-endian
uint32 header length, a JSON header (grid geometry, time, dtype) and the raw
coefficient arrays of ``psi`` and ``v`` as little-endian 64-bit floats.
"""

from __future__ import annotations

import json
import os
import struct
import warnings
from pathlib import Path

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

CHECKPOINT_MAGIC = b"BLKSTCK1"

#: Column order of the series CSV.
CSV_COLUMNS = ("t", "E", "E1", "E2", "F1", "F2", "F3", "L", "D_cum", "w_ptt", "w_lap_vt")


def _write_atomically(path: str | Path, data: str | bytes) -> None:
    # Write to a temporary file next to ``path``, flush it to disk and only
    # then move it into place, so ``path`` never holds a partial output, also
    # after a crash on a filesystem that may reorder the rename before the data.
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_series_csv(path: str | Path, series: TimeSeries) -> None:
    table = np.column_stack([series.column(c) for c in CSV_COLUMNS])
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(f"{x:.17g}" for x in row.tolist()) for row in table)
    _write_atomically(path, "\n".join(lines) + "\n")


def read_series_csv(path: str | Path) -> TimeSeries:
    """The columns of a series CSV; ``ValueError`` for an empty or malformed file."""
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
    return TimeSeries(header, rows)


def write_json(path: str | Path, payload: dict) -> None:
    _write_atomically(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def save_checkpoint(path: str | Path, state: SimState) -> None:
    grid = state.grid
    header = {
        "version": 1,
        "dim": grid.dim,
        "extents": list(grid.extents),
        "modes": list(grid.modes),
        "time": state.time,
        "dtype": "<f8",
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    _write_atomically(path, b"".join((
        CHECKPOINT_MAGIC,
        struct.pack("<I", len(header_bytes)),
        header_bytes,
        np.ascontiguousarray(state.psi.coeffs, dtype="<f8").tobytes(),
        np.ascontiguousarray(state.v.coeffs, dtype="<f8").tobytes(),
    )))


def _read_exactly(fh, size: int, what: str, path) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(
            f"truncated checkpoint {path}: expected {size} bytes of {what}, found {len(data)}"
        )
    return data


def load_checkpoint(path: str | Path) -> SimState:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file: {path}")
        (header_len,) = struct.unpack("<I", _read_exactly(fh, 4, "header length", path))
        header = json.loads(_read_exactly(fh, header_len, "header", path).decode())
        if header.get("version") != 1:
            raise ValueError(f"unsupported checkpoint version {header.get('version')}")
        grid = Grid(extents=tuple(header["extents"]), modes=tuple(header["modes"]))
        count = int(np.prod(grid.modes))
        payload = _read_exactly(fh, 16 * count, "coefficients", path)
    psi, v = np.frombuffer(payload, dtype="<f8").reshape((2,) + grid.modes)
    return SimState(
        psi=SpectralField(grid, psi.copy()),
        v=SpectralField(grid, v.copy()),
        time=float(header["time"]),
    )
