import json
import math
import subprocess
import sys

import pytest

from heatforms.cli import main
from heatforms.geometry import Point
from heatforms.kernels import k1
from heatforms.quadrature import ToleranceBudget


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "heatforms.cli", *args],
                          capture_output=True, text=True)


def rows_of(csv_text):
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_eval_plane_origin():
    out = run_cli("eval", "--surface", "plane", "--degree", "0",
                  "--x", "0,0", "--y", "0,0", "--t", "0.25")
    assert out.returncode == 0
    header, rows = rows_of(out.stdout)
    assert header == ["surface", "degree", "x1", "x2", "y1", "y2", "t",
                      "value", "err_est", "terms", "radius"]
    assert len(rows) == 1
    assert abs(float(rows[0]["value"]) - 1.0 / math.pi) < 1e-12
    assert float(rows[0]["err_est"]) <= 1e-12


def test_eval_sphere_long_time():
    out = run_cli("eval", "--surface", "sphere", "--degree", "0",
                  "--x", "0,0", "--y", "3.14159265,0", "--t", "20")
    assert out.returncode == 0
    _, rows = rows_of(out.stdout)
    assert abs(float(rows[0]["value"]) - 0.0795775) < 1e-6


def test_eval_matches_library_bit_for_bit():
    out = run_cli("eval", "--surface", "hyperbolic", "--degree", "1",
                  "--x", "0.7,0.2", "--y", "1.3,1.1", "--t", "0.4")
    assert out.returncode == 0
    _, rows = rows_of(out.stdout)
    row = rows[0]
    val = k1("hyperbolic", Point("hyperbolic", 0.7, 0.2),
             Point("hyperbolic", 1.3, 1.1), 0.4,
             ToleranceBudget(abs_tol=1e-8))
    m = val.matrix
    assert float(row["m11"]) == m.m11
    assert float(row["m12"]) == m.m12
    assert float(row["m21"]) == m.m21
    assert float(row["m22"]) == m.m22
    assert float(row["err_est"]) == val.err_est
    assert int(row["terms"]) == val.terms
    assert float(row["radius"]) == val.radius


@pytest.mark.parametrize("surface,x,y", [("plane", "0.3,0.2", "1.1,2.0"),
                                         ("sphere", "0.5,0.2", "2.0,1.0"),
                                         ("hyperbolic", "0.4,0.3", "1.2,1.1")])
@pytest.mark.parametrize("degree", ["0", "1", "2"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_eval_prints_the_one_record_grid(capsys, surface, x, y, degree, fmt):
    args = ["--surface", surface, "--degree", degree, "--x", x, "--y", y,
            "--t", "0.7", "--format", fmt]
    printed = []
    for command in ("eval", "grid"):
        assert main([command, *args]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert len(printed[0].splitlines()) == (2 if fmt == "csv" else 1)


def test_json_records_carry_the_same_keys():
    out = run_cli("eval", "--surface", "plane", "--x", "0,0", "--y", "1,0",
                  "--t", "0.5", "--format", "json")
    assert out.returncode == 0
    rec = json.loads(out.stdout)
    assert list(rec) == ["surface", "degree", "x1", "x2", "y1", "y2", "t",
                         "value", "err_est", "terms", "radius"]
    assert rec["surface"] == "euclidean"


def test_grid_ordering_and_count():
    out = run_cli("grid", "--surface", "plane", "--x", "0,0",
                  "--y1", "0.5:1:2", "--y2", "0:1:2", "--t-range", "0.1:0.2:2")
    assert out.returncode == 0
    _, rows = rows_of(out.stdout)
    assert len(rows) == 8
    # y1 outermost, then y2, then t
    assert [r["y1"] for r in rows] == ["0.5"] * 4 + ["1"] * 4
    assert [r["t"] for r in rows][:2] == ["0.10000000000000001",
                                          "0.20000000000000001"]


def test_grid_empty_range_gives_header_only():
    out = run_cli("grid", "--surface", "plane", "--x", "0,0",
                  "--y1", "0:1:0", "--y2", "0:1:3", "--t", "0.5")
    assert out.returncode == 0
    assert out.stdout.splitlines() == [
        "surface,degree,x1,x2,y1,y2,t,value,err_est,terms,radius"]


def test_grid_size_guard():
    out = run_cli("grid", "--surface", "plane", "--x", "0,0", "--y", "1,0",
                  "--y1", "0:1:1001", "--y2", "0:1:1001", "--t", "0.5")
    assert out.returncode == 2
    assert out.stderr.startswith("error:")


def test_grid_missing_axis():
    out = run_cli("grid", "--surface", "plane", "--x", "0,0",
                  "--y1", "0:1:2", "--t", "0.5")
    assert out.returncode == 2
    assert "--y2" in out.stderr


def test_unknown_flag_is_an_error():
    out = run_cli("eval", "--surface", "plane", "--x", "0,0", "--y", "0,0",
                  "--t", "0.25", "--frobnicate")
    assert out.returncode == 2
    assert out.stderr.startswith("error:")
    assert len(out.stderr.strip().splitlines()) == 1


def test_time_below_minimum_is_an_error():
    out = run_cli("eval", "--surface", "plane", "--x", "0,0", "--y", "0,0",
                  "--t", "1e-6")
    assert out.returncode == 2
    assert out.stderr.startswith("error:")


def test_budget_must_be_positive():
    out = run_cli("eval", "--surface", "plane", "--x", "0,0", "--y", "0,0",
                  "--t", "0.25", "--tol", "0")
    assert out.returncode == 2


def test_quotient_torus_long_time():
    out = run_cli("quotient", "--model", "torus", "--lattice", "1,0,0,1",
                  "--x", "0,0", "--y", "0,0", "--t", "20")
    assert out.returncode == 0
    _, rows = rows_of(out.stdout)
    assert abs(float(rows[0]["value"]) - 1.0) < 1e-10
    assert rows[0]["surface"] == "torus"


def test_quotient_reduces_points_first():
    out = run_cli("quotient", "--model", "torus", "--lattice", "1,0,0,1",
                  "--x", "1.25,0", "--y", "0,0", "--t", "0.25")
    assert out.returncode == 0
    _, rows = rows_of(out.stdout)
    assert float(rows[0]["x1"]) == 0.25


def test_quotient_nonorientable_models_are_refused():
    for model in ("klein", "projective"):
        out = run_cli("quotient", "--model", model, "--lattice", "1,0,0,1",
                      "--x", "0,0", "--y", "0,0", "--t", "1")
        assert out.returncode == 2
        assert "orientation" in out.stderr


def test_quotient_flag_consistency():
    out = run_cli("quotient", "--model", "torus", "--ell", "2",
                  "--lattice", "1,0,0,1", "--x", "0,0", "--y", "0,0",
                  "--t", "1")
    assert out.returncode == 2
    out = run_cli("quotient", "--model", "cylinder", "--x", "0,0",
                  "--y", "0,0", "--t", "1")
    assert out.returncode == 2
    assert "--vector" in out.stderr


def test_quotient_hyperbolic_degree_one_unsupported():
    out = run_cli("quotient", "--model", "hyperbolic-cylinder", "--ell", "2",
                  "--degree", "1", "--x", "0.3,0", "--y", "0.5,1", "--t", "0.5")
    assert out.returncode == 2
    assert "frame transport" in out.stderr


def test_overflowing_image_sum_exits_three():
    out = run_cli("quotient", "--model", "torus",
                  "--lattice", "0.001,0,0,0.001", "--x", "0,0", "--y", "0,0",
                  "--t", "20")
    assert out.returncode == 3
    assert out.stderr.startswith("error:")


def test_transform_roundtrip_reports_small_error():
    out = run_cli("transform", "--direction", "roundtrip",
                  "--profile", "gaussian", "--tol", "1e-6")
    assert out.returncode == 0
    header, rows = rows_of(out.stdout)
    assert header == ["direction", "profile", "arg", "value", "err_est"]
    assert rows[0]["arg"] == ""
    assert rows[0]["err_est"] == ""
    assert float(rows[0]["value"]) <= 1e-4


def test_transform_forward_frozen_value():
    out = run_cli("transform", "--direction", "forward",
                  "--profile", "gaussian", "--rho-range", "0.5:0.5:1")
    assert out.returncode == 0
    _, rows = rows_of(out.stdout)
    assert abs(float(rows[0]["value"]) - -0.8130183293610438) < 1e-9


def test_transform_err_est_is_the_computed_bound():
    out = run_cli("transform", "--direction", "forward", "--profile",
                  "gaussian", "--rho-range", "0.5:0.5:1", "--tol", "1e-6")
    _, rows = rows_of(out.stdout)
    err = float(rows[0]["err_est"])
    assert err != 1e-6
    assert abs(float(rows[0]["value"]) - -0.8130183293610438) <= err
    # Inverse rows also charge the forward transforms' error, so each
    # err_est is at least what it was when fhat counted as exact.
    for profile, radii, tol, exact_fhat in (
            ("gaussian", "0.5:1:2", "1e-6", (3.0153066119344172e-07, 4.4540928145091217e-07)),
            ("cubic", "0.25:0.75:2", "1e-8", (5.6889606051657036e-09, 3.9249214124139686e-09))):
        out = run_cli("transform", "--direction", "inverse", "--profile", profile,
                      "--r-range", radii, "--tol", tol)
        _, rows = rows_of(out.stdout)
        assert len(rows) == len(exact_fhat)
        for row, before in zip(rows, exact_fhat):
            r = float(row["arg"])
            f = r * math.exp(-r * r) * (r * r if profile == "cubic" else 1.0)
            assert float(row["err_est"]) >= max(before, abs(float(row["value"]) - f))


def test_verify_suite_passes():
    out = run_cli("verify", "--suite", "semigroup")
    assert out.returncode == 0
    assert "0 failed" in out.stdout.strip().splitlines()[-1]


def test_verify_tol_override_forces_failure():
    out = run_cli("verify", "--suite", "euclid-k1", "--tol", "1e-20")
    assert out.returncode == 1
    assert "FAIL" in out.stdout


def test_output_is_deterministic():
    args = ("grid", "--surface", "hyperbolic", "--degree", "1",
            "--x", "0.5,0.2", "--y1", "0.3:2:3", "--y2", "0:3:2",
            "--t", "0.4", "--format", "json")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_out_file(tmp_path):
    target = tmp_path / "rec.csv"
    out = run_cli("eval", "--surface", "plane", "--x", "0,0", "--y", "1,0",
                  "--t", "0.5", "--out", str(target))
    assert out.returncode == 0
    assert out.stdout == ""
    lines = target.read_text().splitlines()
    assert len(lines) == 2 and lines[0].startswith("surface,")


def test_help_documents_radians():
    out = run_cli("--help")
    assert out.returncode == 0
    assert "radians" in out.stdout


def test_import_leaves_scipy_unloaded():
    out = subprocess.run([sys.executable, "-c",
                          "import sys, heatforms; print('scipy' in sys.modules)"],
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


_SERVING_CALLS = """
import math, sys
from heatforms import (DecayHint, FormField, OneFormValue, Point, ToleranceBudget,
                       apply_k0, apply_k1, k0, k1, k2, mehler_fock_forward,
                       mehler_fock_inverse)
from heatforms.verify import PROFILES
b = ToleranceBudget(abs_tol=1e-8)
for kind in ("plane", "sphere", "hyperbolic"):
    x, y = Point(kind, 0.3, 0.2), Point(kind, 0.9, 1.1)
    for kernel in (k0, k1, k2):
        kernel(kind, x, y, 0.2, b)
x = Point("hyperbolic", 0.7, 5.9)
hint = DecayHint("gaussian", 1.0, 1.0)
apply_k0("hyperbolic", FormField(0, lambda p: math.exp(-p.c1 ** 2), hint),
         0.5, b).fn(x)
apply_k1("hyperbolic", FormField(1, lambda p: OneFormValue(
    math.exp(-p.c1 ** 2) * math.cos(p.c2), -math.exp(-p.c1 ** 2)
    * math.sin(p.c2)), hint), 0.5, ToleranceBudget(abs_tol=1e-6)).fn(x)
mehler_fock_forward(PROFILES["gaussian"], 1.5, b)
mehler_fock_inverse(lambda rho: math.exp(-0.5 * (0.25 + rho * rho)), 1.0, b,
                    gaussian_rate=0.5, bound=1.0)
print('numpy.polynomial' in sys.modules)
"""


def test_serving_paths_leave_numpy_polynomial_unloaded():
    # every adaptive integral runs on the QK21 literals; only the verify
    # suites' fixed reference rules load numpy.polynomial
    out = subprocess.run([sys.executable, "-c", _SERVING_CALLS],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
