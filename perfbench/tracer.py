"""In-memory span tracer for the ``blackstock`` package, installed from outside.

``Tracer.install`` replaces every public function of the package's layer
modules, at every ``blackstock.*`` module attribute bound to it, by a wrapper
that records one span: function id, start, end and the index of the enclosing
span.  ``dynamics`` imports the grid helpers by name and ``integrate`` imports
``assemble_f`` the same way, so rebinding only the defining module would miss
the calls that matter.  ``uninstall`` restores the originals, so traced and
untraced operations can alternate in one process.

Spans stay in compact arrays until the end of the run.  ``Tracer.summary``
turns the spans of one operation into per-function self times (span minus the
spans of its direct children) and call counts; a function that does not exist
in the traced version of the package simply never appears and reads as zero.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import types
from array import array

import numpy as np

#: Layer modules; ``inequalities`` is left out because no workload blocks on it.
LAYERS = ("grid", "dynamics", "integrate", "energy", "fields", "experiments",
          "storage", "config", "cli")


def _public_functions(module):
    for name, value in vars(module).items():
        if (not name.startswith("_") and isinstance(value, types.FunctionType)
                and value.__module__ == module.__name__):
            yield name, value


class Tracer:
    def __init__(self):
        self.names: list[str] = []          # "<layer>.<function>" per function id
        self.fn_id: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.ids = array("i")
        self.parents = array("i")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = {}
        self._hooks = {
            "grid.padded_field_values": self._count_padded,
            "grid.padded_gradient_values": self._count_padded,
            "integrate.simulate": self._count_run,
        }

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer module that is importable."""
        if self._patches:
            return
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules.get(f"blackstock.{layer}")
            if module is None:
                continue
            for name, fn in _public_functions(module):
                key = f"{layer}.{name}"
                wrapped[id(fn)] = (fn, self._wrap(fn, key, layer))
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "blackstock" or mod_name.startswith("blackstock.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn, key: str, layer: str):
        nid = self.fn_id.get(key)
        if nid is None:
            nid = self.fn_id[key] = len(self.names)
            self.names.append(key)
        hook = self._hooks.get(key)
        if hook is None and layer == "storage" and not key.startswith(("storage.read", "storage.load")):
            hook = self._count_write
        if hook is not None and key == "integrate.simulate":
            hook = functools.partial(hook, inspect.signature(fn))
        starts, ends, ids, parents, stack = self.starts, self.ends, self.ids, self.parents, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1])
            ids.append(nid)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- counters from return values ----------------------------------------

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _count_padded(self, args, kwargs, result) -> None:
        arrays = result if isinstance(result, tuple) else (result,)
        self._add("grid.padded_arrays", len(arrays))
        self._add("grid.padded_bytes", sum(getattr(a, "nbytes", 0) for a in arrays))

    def _count_write(self, args, kwargs, result) -> None:
        path = args[0] if args else kwargs.get("path")
        try:
            self._add("storage.bytes_written", os.path.getsize(path))
        except (OSError, TypeError):
            pass

    def _count_run(self, signature, args, kwargs, series) -> None:
        try:
            bound = signature.bind(*args, **kwargs)
            initial, T, cfg = (bound.arguments[k] for k in ("initial", "T", "cfg"))
            term = series.termination
            end = initial.time + T if term.completed else term.time
            steps = round((end - initial.time) / cfg.dt)
            picard = int(series.max_picard_iterations)
        except (AttributeError, KeyError, TypeError):
            return
        self._add("integrate.runs", 1)
        self._add("integrate.runs_diverged", 0 if term.completed else 1)
        self._add("integrate.steps", steps)
        self.counters["integrate.picard_iterations_max"] = max(
            self.counters.get("integrate.picard_iterations_max", 0), picard)

    # -- results ------------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span, used to delimit one operation's spans."""
        return len(self.starts)

    def take_counters(self) -> dict[str, float]:
        counters, self.counters = self.counters, {}
        return counters

    def summary(self, lo: int, hi: int):
        """Per-function ``(self_s, calls)`` over spans ``lo:hi`` of finished operations."""
        # Slicing copies, so no buffer export blocks later appends.
        starts = np.frombuffer(self.starts[lo:hi], dtype=float)
        ends = np.frombuffer(self.ends[lo:hi], dtype=float)
        ids = np.frombuffer(self.ids[lo:hi], dtype=np.int32)
        parents = np.frombuffer(self.parents[lo:hi], dtype=np.int32) - lo
        dur = ends - starts
        inside = parents >= 0
        child = np.bincount(parents[inside], weights=dur[inside], minlength=len(dur))
        own = dur - child
        n = len(self.names)
        self_s = np.bincount(ids, weights=own, minlength=n)
        calls = np.bincount(ids, minlength=n)
        return {name: (float(self_s[i]), int(calls[i])) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write all spans, with the function-name table, as a compressed ``.npz``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            function=np.frombuffer(self.ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=float),
            end=np.frombuffer(self.ends, dtype=float),
        )
