"""Tests of the benchmark itself: seeded op lists, non-vacuous checks, and
metric names that BENCHMARK.json declares; and the known misses of k0 and
apply_k1 on H2 that keep some legal inputs out of the workloads."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import child  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import heatforms as hf  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
CHEAP = ("k0-plane", "k1-plane", "k0-sphere", "quotient-torus", "k1quotient-torus")


def _describe(ops):
    return [(op.cls, op.index, op.tol, op.inputs) for op in ops]


def test_same_seed_gives_identical_op_list():
    for workload in workloads.WORKLOADS:
        first = [_describe(workloads.cycle_ops(workload, 5, c)) for c in range(2)]
        again = [_describe(workloads.cycle_ops(workload, 5, c)) for c in range(2)]
        other = [_describe(workloads.cycle_ops(workload, 6, c)) for c in range(2)]
        assert first == again
        assert first != other


def test_every_cycle_has_the_declared_mix():
    for workload, classes in workloads.WORKLOADS.items():
        ops = workloads.cycle_ops(workload, 3, 4)
        counts = {oc.name: oc.per_cycle for oc in classes}
        assert {c: sum(op.cls == c for op in ops) for c in counts} == counts


def _cheap_records(perturb):
    records = []
    for op in workloads.cycle_ops("pointwise", 9, 0):
        if op.cls in CHEAP:
            values, err_est = op.call()
            values = (values[0] + perturb * op.tol,) + tuple(values[1:])
            records.append((op, (values, err_est), 1e-3))
    return records


def _summarize(records):
    return child.summarize_run("pointwise", records, [1.0], [child.PROBE_NOMINAL_S])


def test_answers_off_by_ten_tolerances_fail_and_miss_their_err_est():
    clean = _cheap_records(0.0)
    _, detail, failed = _summarize(clean)
    assert failed == 0 and detail["err_est_misses"] == 0.0

    off = _cheap_records(10.0)
    metrics, detail, failed = _summarize(off)
    assert failed == len(off)
    assert metrics["ops_ok"] == 0.0
    with_est = sum(out[1] is not None for _, out, _ in off)
    assert with_est > 0
    assert detail["err_est_misses"] == 1.0 and detail["err_est_ops"] == with_est
    assert metrics["err_est_held"] == 0.0
    for c in detail["classes"].values():
        assert c["err_over_tol_max"] > 9.0


def test_a_raise_is_a_failed_op():
    op = workloads.cycle_ops("pointwise", 9, 0)[0]
    _, detail, failed = _summarize([(op, RuntimeError("boom"), 1e-3)])
    assert failed == 1 and detail["classes"][op.cls]["raised"] == 1


def test_tail_leaves_ten_ops_beyond_it():
    value, pct = child.tail([float(i) for i in range(100)])
    assert (value, pct) == (89.0, 90.0)


def test_self_time_subtracts_child_spans():
    arrays = {"name": np.array([0, 1, 1, 2], dtype=np.int32),
              "parent": np.array([-1, 0, 0, 1], dtype=np.int32),
              "op": np.zeros(4, dtype=np.int32),
              "start": np.array([0.0, 1.0, 3.0, 1.5]),
              "end": np.array([10.0, 2.0, 4.0, 1.75])}
    per_op, _ = spans.summarize(["op", "a", "b"], arrays, n_ops=2)
    assert per_op["op"] == (0.5, 1e3 * 8.0 / 2)
    assert per_op["a"] == (1.0, 1e3 * 1.75 / 2)
    assert per_op["b"] == (0.5, 1e3 * 0.25 / 2)


def test_metric_names_are_valid_and_declared():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS)
    for kind, table in (("end_to_end", child.END_TO_END),
                        ("per_layer", child.per_layer_metrics())):
        entries = {m["name"]: (m["unit"], m["better"]) for m in declared[kind]}
        assert entries == table
        assert all(NAME.fullmatch(name) for name in entries)


def test_refine_useful_counts_field_calls_after_the_last_chart():
    # one evaluation span: chart, 2 field calls, chart, 3 field calls
    names = ["op", spans.CHART_SPAN, spans.FIELD_SPAN]
    kinds = [0, 1, 2, 2, 1, 2, 2, 2]
    arrays = {"name": np.array(kinds, dtype=np.int32),
              "parent": np.array([-1] + [0] * 7, dtype=np.int32),
              "op": np.zeros(8, dtype=np.int32),
              "start": np.arange(8.0), "end": np.arange(8.0) + 0.5}
    _, useful = spans.summarize(names, arrays, n_ops=1)
    assert useful == 3 / 5


@pytest.mark.xfail(reason="apply_k1 on H2 misses abs_tol for t below about 0.3: "
                          "off by 2e-4 here, so the evolve workload evolves "
                          "d(1) = 0 on H2 instead")
def test_h2_apply_k1_of_a_gaussian_differential_matches_d_apply_k0():
    # The reference is d(apply_k0 f) for f = exp(-a r^2), differentiated in r:
    # the scalar evolution runs through the McKean radial kernel rather than
    # the spectral G_d route of apply_k1, and the evolved 1-form of a radial
    # field has no angular component.
    a, t, tol = 1.0, 0.15, 1e-6
    x = hf.Point("hyperbolic", 1.0, 0.3)
    hints = workloads._gaussian_hints(a)
    field = hf.FormField(1, workloads._gaussian_d(a), hints[1])
    got = hf.apply_k1("hyperbolic", field, t, hf.ToleranceBudget(abs_tol=tol)).fn(x)
    scalar = hf.FormField(0, workloads._gaussian(a), hints[0])
    evolved = hf.apply_k0("hyperbolic", scalar, t,
                          hf.ToleranceBudget(abs_tol=workloads.REF_SHARE * tol)).fn
    ref = workloads._derivative(lambda r: evolved(hf.Point("hyperbolic", r, x.c2)),
                                x.c1, 0.02)
    assert abs(got.a - ref) <= tol and abs(got.b) <= tol


@pytest.mark.xfail(reason="the spectral k0 on H2 misses abs_tol below t = 0.01 at "
                          "scattered distances, so the pointwise hyperbolic "
                          "cylinders start at workloads.HYPCYL_T[0]")
def test_h2_k0_at_small_time_matches_mckean():
    t, tol, d = 1e-3, 1e-6, 1.425
    x, y = hf.Point("hyperbolic", 0.0, 0.0), hf.Point("hyperbolic", d, 0.0)
    got = hf.k0("hyperbolic", x, y, t, hf.ToleranceBudget(abs_tol=tol))
    ref = hf.k0_h2_mckean(d, t, hf.ToleranceBudget(abs_tol=1e-3 * tol))
    assert abs(got.value - ref) <= tol
