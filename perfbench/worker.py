"""One workload in one process: set-up, repetitions for a time budget, checks.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``;
prints one JSON object on its last stdout line.

    worker.py --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR [--setup-only]

Set-up time runs from before ``import blackstock`` to the end of the
workload's warm-up.  Repetitions then run until the next one would overrun
``--seconds`` (at least two, so that the determinism check and, when tracing,
one untraced and one traced repetition always happen).  With ``--trace 1``
the repetitions alternate untraced and traced, so the tracing overhead is
measured in the same process; the spans are written to ``--spans`` at the end.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

MIN_REPS = 2
MAX_REPORTED = 3  # repetitions whose failure messages go to stderr


def layer_metrics(funcs: dict, counters: dict, wall: float, cpu: float) -> dict:
    """Per-layer numbers of one traced repetition; absent functions read as zero.

    ``_s`` names are self times.  The workload whose ``solve_s`` each group
    should move:

    - ``grid.*``, ``dynamics.*``, ``integrate.assemble_per_step``: picard_3d
      (near zero effect predicted on canonical_1d);
    - ``energy.*``, ``storage.*``: canonical_1d (energy is bypassed in the
      other two, storage is used only by canonical_1d);
    - ``integrate.*`` counts and self time: canonical_1d and threshold_1d;
    - ``experiments.*``, ``fields.build_initial_s``: threshold_1d;
    - ``config.parse_s`` (set-up phase only): ``setup_s``.

    ``process.cpu_s`` and ``unattributed_s`` (wall minus all self times)
    explain wall-time changes on a noisy machine.
    """

    def self_s(*names):
        return sum(funcs.get(n, (0.0, 0))[0] for n in names)

    def calls(name):
        return funcs.get(name, (0.0, 0))[1]

    def layer_self(layer, keep=lambda name: True):
        return sum(s for name, (s, _c) in funcs.items() if name.startswith(layer + ".") and keep(name))

    def is_read(name):
        return name.startswith(("storage.read", "storage.load"))

    steps = counters.get("integrate.steps", 0)
    return {
        "grid.padded_eval_s": self_s("grid.padded_field_values", "grid.padded_gradient_values"),
        "grid.project_s": self_s("grid.project_padded_to_sine"),
        "grid.project.calls": calls("grid.project_padded_to_sine"),
        "grid.padded_arrays": counters.get("grid.padded_arrays", 0),
        "grid.padded_bytes": counters.get("grid.padded_bytes", 0),
        "dynamics.assemble_f_s": self_s("dynamics.assemble_f"),
        "dynamics.assemble_f.calls": calls("dynamics.assemble_f"),
        "integrate.assemble_per_step": calls("dynamics.assemble_f") / steps if steps else 0.0,
        "energy.diagnostics_s": layer_self("energy"),
        "energy.diagnostics.calls": calls("energy.instantaneous_diagnostics"),
        "integrate.self_s": layer_self("integrate"),
        "integrate.steps": steps,
        "integrate.runs": counters.get("integrate.runs", 0),
        "integrate.runs_diverged": counters.get("integrate.runs_diverged", 0),
        "integrate.picard_iterations_max": counters.get("integrate.picard_iterations_max", 0),
        "experiments.self_s": layer_self("experiments"),
        "experiments.fit_s": self_s("experiments.fit_decay"),
        "experiments.fit.calls": calls("experiments.fit_decay"),
        "fields.build_initial_s": self_s("fields.build_initial"),
        "storage.write_s": layer_self("storage", lambda n: not is_read(n)),
        "storage.read_s": layer_self("storage", is_read),
        "storage.bytes_written": counters.get("storage.bytes_written", 0),
        "process.cpu_s": cpu,
        "unattributed_s": wall - sum(s for s, _c in funcs.values()),
    }


def provenance() -> dict:
    import numpy
    import scipy
    import scipy.fft

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "fft_workers": scipy.fft.get_workers(),
    }


def _cpu() -> float:
    t = os.times()
    return t.user + t.system


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.tmp))

    t0 = time.perf_counter()
    import blackstock

    spans = None
    if args.trace:
        from tracer import Tracer

        spans = Tracer()
        spans.install()
    workload.setup()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    config_parse_s = 0.0
    if spans is not None:
        funcs = spans.summary(0, spans.mark())
        config_parse_s = sum(s for name, (s, _c) in funcs.items() if name.startswith("config."))
        spans.take_counters()

    untraced, traced, observed = [], [], {}
    attempted = failed = failed_reps = 0
    start = time.perf_counter()
    for rep in itertools.count():
        traced_rep = spans is not None and rep % 2 == 1
        if traced_rep:
            spans.install()
        elif spans is not None:
            spans.uninstall()
        if spans is not None:
            lo = spans.mark()
            spans.take_counters()
        c0, w0 = _cpu(), time.perf_counter()
        outcome = workload.run()
        wall, cpu = time.perf_counter() - w0, _cpu() - c0
        if traced_rep:
            traced.append(layer_metrics(spans.summary(lo, spans.mark()), spans.take_counters(), wall, cpu))
            traced[-1]["wall"] = wall
        else:
            untraced.append(wall)
        observed, problems = workload.check(outcome)
        attempted += len(workload.ops)
        failed += len({op for op, _msg in problems})
        failed_reps += bool(problems)
        if problems and failed_reps <= MAX_REPORTED:
            for op, msg in problems:
                print(f"repetition {rep}, {op}: {msg}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        typical = statistics.median(untraced + [t["wall"] for t in traced])
        if rep + 1 >= MIN_REPS and elapsed + typical > args.seconds:
            break

    result = {
        "setup_s": setup_s,
        "solve_s": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "observed": observed,
        "blackstock": os.path.dirname(blackstock.__file__),
        "provenance": provenance(),
    }
    if spans is not None:
        spans.uninstall()
        per_layer = {k: statistics.median(t[k] for t in traced) for k in traced[0] if k != "wall"}
        traced_solve = statistics.median(t["wall"] for t in traced)
        per_layer.update({
            "config.parse_s": config_parse_s,
            "trace.solve_s": traced_solve,
            "trace.overhead_s": traced_solve - statistics.median(untraced),
        })
        result["per_layer"] = per_layer
        result["traced_solve_s"] = [t["wall"] for t in traced]
        if args.spans:
            spans.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
