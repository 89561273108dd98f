"""Benchmark of heatforms: one workload per run, closed loop, answers checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pointwise --seed 1 --seconds 15 --trace 0

The workloads, `pointwise` (single kernel queries), `evolve` (evaluations of
apply_k0/apply_k1 fields) and `transform` (Mehler-Fock transforms), are
defined in perfbench/workloads.py.  A run starts perfbench/child.py in fresh
processes with BLAS/OpenMP pinned to one thread: two that only set up, for
the set-up time, and one that sets up, times the whole op cycles that
--seconds stand for, and then checks every answer against its reference.
Times are scaled to a nominal machine speed by a probe timed between ops
(see child.py).

The last stdout line is one JSON object.  "failed" counts ops that raised,
returned a non-finite value or missed their reference by more than their
abs_tol, and "correct" is true when none did.  With --trace 0 its metrics are
the end-to-end ones; with --trace 1 the child also replays half of the timed
cycles with spans around every heatforms module boundary (saved under
perfbench/out/) and the metrics are the per-layer ones.  Earlier lines give
provenance, raw values and per-class detail.  The benchmark's own tests run
with `PYTHONPATH=src python3 -m pytest perfbench`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SETUP_RUNS = 3          # set-ups per run; setup_s is their median
CHILD_TIMEOUT_S = 170.0
THREAD_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, extra=(), python_flags=()):
    """Run child.py; returns (its JSON result, its stderr)."""
    spawned = time.monotonic()
    cmd = [sys.executable, *python_flags, str(CHILD), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spawned", repr(spawned), *extra]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def import_seconds(stderr, module):
    """Cumulative import time of `module` from -X importtime output."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 \
                and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0


def provenance(args):
    import numpy
    import scipy
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return {"machine": platform.machine(), "platform": platform.platform(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": sha, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "threads": THREAD_ENV}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("pointwise", "evolve", "transform"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "heatforms" / "__init__.py").is_file():
        raise SystemExit(f"heatforms sources not found under {ROOT / 'src'}")

    print("provenance: " + json.dumps(provenance(args)))
    flags = ("-X", "importtime") if args.trace else ()
    result, stderr = run_child(args, python_flags=flags)
    detail = result["detail"]
    print(f"ops: {detail['ops']} in {detail['cycles']} cycles; "
          f"slowness {detail['slowness']:.4g}, raw {json.dumps(detail['raw'])}; "
          f"op_tail_ms at p{detail['tail_percentile']:.2f}; "
          f"ops_failed {detail['ops_failed']:.4g} of {detail['ops']}; "
          f"err_est_misses {detail['err_est_misses']:.4g} of {detail['err_est_ops']}")
    for name, c in detail["classes"].items():
        print(f"class {name}: " + json.dumps(c))

    if args.trace:
        metrics = result["layers"]
        metrics["setup.import_s"] = import_seconds(stderr, "heatforms")
        metrics["setup.import_scipy_special_s"] = import_seconds(stderr, "scipy.special")
    else:
        setups = [result] + [run_child(args, extra=("--setup-only",))[0]
                             for _ in range(SETUP_RUNS - 1)]
        print("setup_s runs (scaled, raw): " + json.dumps(
            [(r["setup_s"], r["setup_raw_s"]) for r in setups]))
        metrics = result["metrics"]
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in setups)
    print(json.dumps({
        "correct": result["failed"] == 0, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in result["units"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
