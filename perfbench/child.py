"""One workload run in a fresh process: set up, time a closed loop, check.

run.py starts this script with BLAS and OpenMP pinned to one thread.  The
timed phase runs the whole op cycles that --seconds stand for (see
workloads.CYCLE_SECONDS), one call at a time; a traced run then replays the
first half of them with spans installed.

On a shared host the CPU speed one process gets drifts by tens of percent
over tens of seconds.  Between ops, every PROBE_INTERVAL_S, the run times a
fixed probe that does not touch heatforms.  Reported times are divided by
the phase's "slowness", its mean probe time over PROBE_NOMINAL_S, so they
read as at the nominal machine speed.  Raw values are reported beside them.
References are computed after the timed phases, and the script prints one
JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

OUT_DIR = Path(__file__).resolve().parent / "out"
PROBE_INTERVAL_S = 0.25
# Duration of probe() on an unloaded 2-core x86-64 virtual machine.
PROBE_NOMINAL_S = 0.004
# Set-up is scaled by the median of this many probes taken just after it; a
# mean of a few short probes is thrown off by one scheduler stall.
SETUP_PROBES = 25
_PROBE_X = np.linspace(0.0, 1.0, 8192)

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "ops_ok": ("fraction", "higher"),
    "err_est_held": ("fraction", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def span_names():
    return ([span for _, _, span in spans.BOUNDARIES]
            + [spans.entry_span(name) for name in workloads.ENTRY_POINTS])


def per_layer_metrics():
    """Every per-layer metric: name -> (unit, better)."""
    out = {"setup.import_s": ("s", "lower"),
           "setup.import_scipy_special_s": ("s", "lower"),
           "trace.overhead": ("ratio", "higher"),
           "evolve.field_calls_per_op": ("count", "lower"),
           "evolve.field_ms_per_op": ("ms", "lower"),
           "evolve.refine_useful": ("fraction", "higher")}
    for name in span_names():
        out[f"{name}.calls_per_op"] = ("count", "lower")
        out[f"{name}.self_ms_per_op"] = ("ms", "lower")
    for workload, classes in workloads.WORKLOADS.items():
        for oc in classes:
            out[f"{workload}.{oc.name}.p50_ms"] = ("ms", "lower")
            out[f"{workload}.{oc.name}.err_over_tol_max"] = ("ratio", "lower")
    return out


def probe():
    """Duration of a fixed mix of interpreter, small-array and vector work."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += math.exp(-1e-4 * i) * math.sin(i)
        if i % 10 == 0:
            acc += float(np.sum(np.cos(_PROBE_X[:64] * i)))
    for i in range(20):
        acc += float(np.cos(_PROBE_X * i) @ _PROBE_X)
    return time.perf_counter() - t0


def slowness(probes):
    return statistics.fmean(probes) / PROBE_NOMINAL_S


def run_cycles(cycles, call):
    """Run the ops of every cycle, one call at a time, probing the machine
    speed between ops.

    Returns [(op, outcome, latency_s)], the wall time of each cycle run less
    its probes, and the probe durations; an outcome is the op's return value
    or the exception it raised.
    """
    clock = time.perf_counter
    records, walls, probes = [], [], []
    last = clock()
    for ops in cycles:
        start, probed = clock(), 0.0
        for op in ops:
            t0 = clock()
            try:
                out = call(op)
            except Exception as exc:  # every raise is a failed op
                out = exc
            t1 = clock()
            records.append((op, out, t1 - t0))
            if t1 - last >= PROBE_INTERVAL_S:
                probes.append(probe())
                probed += probes[-1]
                last = clock()
        walls.append(clock() - start - probed)
    return records, walls, probes or [probe()]


def check(op, outcome):
    """(failed, error or None, err_est miss or None) of one op against its
    reference.  The error is known only to within the reference's own budget,
    so an err_est is missed when the error exceeds it by more than that."""
    if isinstance(outcome, Exception):
        return True, None, None
    values, err_est = outcome
    ref = op.reference()
    if len(values) != len(ref):
        raise ValueError(f"{op.cls}: {len(values)} values against {len(ref)} references")
    err = max(abs(v - r) if math.isfinite(v) else math.inf
              for v, r in zip(values, ref))
    miss = None if err_est is None else not err <= err_est + workloads.REF_SHARE * op.tol
    return not err <= op.tol, err, miss


def tail(latencies):
    """(value, percentile) at the highest percentile leaving 10 ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _json_number(x):
    return x if math.isfinite(x) else 1e300


def summarize_run(workload, records, walls, probes):
    """End-to-end metrics (times at the nominal machine speed), per-class
    detail and the failed-op count."""
    verdicts = [check(op, out) for op, out, _ in records]
    slow = slowness(probes)
    raw_lat = [lat for _, _, lat in records]
    latencies = [lat / slow for lat in raw_lat]
    n = len(records)
    failed = sum(v[0] for v in verdicts)
    with_est = [miss for _, _, miss in verdicts if miss is not None]
    misses = sum(with_est)
    tail_s, tail_pct = tail(latencies)
    raw = {"ops_per_s": n / sum(walls),
           "op_p50_ms": 1e3 * statistics.median(raw_lat),
           "op_tail_ms": 1e3 * tail(raw_lat)[0]}
    metrics = {
        "ops_per_s": raw["ops_per_s"] * slow,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "ops_ok": 1.0 - failed / n,
        "err_est_held": 1.0 - misses / len(with_est) if with_est else 1.0,
    }
    kinds = workloads.reference_kinds(workload)
    classes = {}
    for (op, out, _), lat, (bad, err, miss) in zip(records, latencies, verdicts):
        c = classes.setdefault(op.cls, {"reference": kinds[op.cls], "ops": 0,
                                        "failed": 0, "raised": 0, "err_est_misses": 0,
                                        "lat": [], "err_over_tol_max": 0.0})
        c["ops"] += 1
        c["failed"] += bad
        c["err_est_misses"] += bool(miss)
        c["lat"].append(lat)
        if err is None:
            c["raised"] += 1
            c.setdefault("errors", repr(out)[:200])
        else:
            c["err_over_tol_max"] = max(c["err_over_tol_max"], err / op.tol)
    for c in classes.values():
        c["p50_ms"] = 1e3 * statistics.median(c.pop("lat"))
        c["err_over_tol_max"] = _json_number(c["err_over_tol_max"])
    detail = {"ops": n, "cycles": len(walls), "slowness": slow, "raw": raw,
              "ops_failed": failed / n,
              "err_est_misses": misses / len(with_est) if with_est else 0.0,
              "err_est_ops": len(with_est), "tail_percentile": tail_pct,
              "classes": classes}
    return metrics, detail, failed


def traced_layers(workload, records, walls, probes, api):
    """Replay the first half of the timed cycles with spans on; per-layer
    metrics from them, times at the nominal machine speed."""
    per = sum(oc.per_cycle for oc in workloads.WORKLOADS[workload])
    cycles = [[op for op, _, _ in records[i * per:(i + 1) * per]]
              for i in range((len(walls) + 1) // 2)]
    tracer = spans.Tracer()
    tracer.install(api)
    try:
        traced, traced_walls, traced_probes = run_cycles(
            cycles, lambda op: tracer.run_op(op.index, op.call))
    finally:
        tracer.uninstall()
    tracer.save(OUT_DIR / f"spans-{workload}.npz")
    m = len(traced_walls)
    traced_slow = slowness(traced_probes)
    overhead = ((len(traced) / sum(traced_walls) * traced_slow)
                / (m * per / sum(walls[:m]) * slowness(probes)))
    per_op, refine_useful = spans.summarize(tracer.names, tracer.arrays(), len(traced))
    layers = {"trace.overhead": overhead}
    for name in span_names():
        calls, self_ms = per_op.get(name, (0.0, 0.0))
        layers[f"{name}.calls_per_op"] = calls
        layers[f"{name}.self_ms_per_op"] = self_ms / traced_slow
    field_calls, field_ms = per_op.get(spans.FIELD_SPAN, (0.0, 0.0))
    layers["evolve.field_calls_per_op"] = field_calls
    layers["evolve.field_ms_per_op"] = field_ms / traced_slow
    layers["evolve.refine_useful"] = refine_useful
    return layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    api = workloads.Api()
    for op in workloads.warmup_ops(args.workload, api):
        try:
            op.call()
        except Exception:  # warm-up only; the timed ops count failures
            pass
    setup_raw = time.monotonic() - args.spawned
    setup_s = setup_raw / (statistics.median(probe() for _ in range(SETUP_PROBES))
                           / PROBE_NOMINAL_S)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    cycles = (workloads.cycle_ops(args.workload, args.seed, n, api)
              for n in range(workloads.cycle_count(args.workload, args.seconds)))
    records, walls, probes = run_cycles(cycles, lambda op: op.call())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"setup_s": setup_s, "setup_raw_s": setup_raw}
    if args.trace:
        result["layers"] = traced_layers(args.workload, records, walls, probes, api)
    metrics, detail, failed = summarize_run(args.workload, records, walls, probes)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = peak_rss_mb
    result.update(metrics=metrics, detail=detail, attempted=len(records), failed=failed)
    if args.trace:
        for workload, classes in workloads.WORKLOADS.items():
            for oc in classes:
                c = detail["classes"].get(oc.name) if workload == args.workload else None
                result["layers"][f"{workload}.{oc.name}.p50_ms"] = c["p50_ms"] if c else 0.0
                result["layers"][f"{workload}.{oc.name}.err_over_tol_max"] = (
                    c["err_over_tol_max"] if c else 0.0)
    table = per_layer_metrics() if args.trace else END_TO_END
    result["units"] = {name: unit for name, (unit, _) in table.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
