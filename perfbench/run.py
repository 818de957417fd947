"""Benchmark of the blackstock package: time to solution on three workloads.

Run from the root of a checkout (the package is imported from ``src/``; nothing
is installed or built):

    python3 perfbench/run.py --workload canonical_1d --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 1

Workloads: ``canonical_1d``, ``picard_3d``, ``threshold_1d`` (see
``workloads.py``), or ``all`` for the three in turn.  Each workload runs in
its own worker process, so ``peak_rss_mb`` belongs to that workload alone.

With ``--trace 0`` the end-to-end metrics are printed:

- ``setup_s``: import, config parse, grid and initial state and one warm-up
  source evaluation, the median over several fresh processes;
- ``solve_s``: wall time of one repetition after set-up, the median over the
  repetitions that fit in ``--seconds``;
- ``peak_rss_mb``: peak resident memory of the worker process;
- ``ops_failed_frac``: failed over attempted operations (one CLI subcommand,
  one ``simulate`` or one bisection); an operation fails if it raises,
  returns an unexpected exit code or termination, or fails its check against
  the committed reference values (default seed) or the invariants (other
  seeds).  It is printed in the summary and carried by ``attempted`` and
  ``failed`` in the result line.

With ``--trace 1`` the worker alternates untraced and traced repetitions and
prints the per-layer self times and counts of the traced ones (medians), the
tracing overhead and the time no layer accounts for; the spans are written to
``.perfbench_out/``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--record FILE`` also writes the
full results, with provenance and per-repetition samples, to FILE.
The exit code is 0 when the workloads ran, even if operations failed, and
non-zero without a result line when the benchmark itself could not run (for
example when the checkout has no ``src/blackstock``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from hashlib import sha256
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workload names and reasons, metric names and units: the benchmark's contract.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}

#: Fresh processes that only set up; with the measured worker's own set-up
#: they give the median ``setup_s``.
SETUP_PROBES = 4

#: Whole benchmark invocation per workload must end well inside 180 s.
DEADLINE_S = 170.0

class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("BLACKSTOCK_SEED", None)  # the CLI would override the configured seed
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # One BLAS/OpenMP thread per worker: at most nproc, and steady on a small machine.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _call_worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before the worker started")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time budget: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        raise BenchError(f"worker exited with {proc.returncode} and no result: {' '.join(args)}")
    where = Path(result.get("blackstock", ROOT / "src" / "blackstock")).resolve()
    if where != (ROOT / "src" / "blackstock").resolve():
        raise BenchError(f"worker imported blackstock from {where}, not from this checkout")
    return result


def _source_digest() -> str:
    digest = sha256()
    for path in sorted((ROOT / "src" / "blackstock").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "unknown"


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    tmp = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        common = ["--workload", name, "--seed", str(seed), "--tmp", tmp]
        setups = []
        if trace:
            spans = ROOT / ".perfbench_out" / f"spans-{name}-seed{seed}.npz"
            spans.parent.mkdir(exist_ok=True)
            common += ["--spans", str(spans)]
        else:
            setups = [_call_worker([*common, "--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        main = _call_worker([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    setups.append(main["setup_s"])
    if trace:
        values, spec = main["per_layer"], SPEC["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(main["solve_s"]),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        spec = SPEC["end_to_end"]
    return {
        "workload": name,
        "why": WORKLOADS[name],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "ops_failed_frac": main["failed"] / main["attempted"],
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec},
        "samples": {"setup_s": setups, "solve_s": main["solve_s"],
                    "traced_solve_s": main.get("traced_solve_s", [])},
        "observed": main["observed"],
        "provenance": {"git_commit": _git_commit(), "src_sha256": _source_digest(),
                       "seed": seed, "why": WORKLOADS[name], **main["provenance"]},
    }


def _print_summary(r: dict) -> None:
    print(f"{r['workload']} (seed {r['seed']}, trace {r['trace']}): {r['why']}")
    for key, m in r["metrics"].items():
        note = " (computed from array sizes)" if key == "grid.padded_bytes" else ""
        print(f"  {key:34s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'ops_failed_frac':34s} {r['ops_failed_frac']:.6g} "
          f"({r['failed']} failed of {r['attempted']} operations)")
    print(f"  samples {json.dumps(r['samples'])}")
    print(f"  observed {json.dumps(r['observed'])}")
    print(f"  provenance {json.dumps(r['provenance'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="write the full results as JSON to this file")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so that the running worker is killed and
    # waited for, and the temporary directory removed, on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "blackstock" / "__init__.py").is_file():
        print(f"no blackstock package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for r in results:
        _print_summary(r)
    if args.record:
        Path(args.record).write_text(json.dumps(results, indent=1) + "\n")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
