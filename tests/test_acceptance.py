"""End-to-end acceptance checks.

Each test pins one release criterion, a measured accuracy against a fixed
tolerance and time limit, and prints a single PASS/FAIL line (visible with
pytest -v -s, or in captured output on failure).
"""

import math
import time

import numpy as np

from heatforms.geometry import OneFormValue, Point
from heatforms.kernels import FormField, apply_k0, apply_k1, k0, k2
from heatforms.quadrature import ToleranceBudget
from heatforms.verify import run_suite


def legendre_p(n, x):
    """P_n(x), numpy's Legendre series with one unit coefficient."""
    return float(np.polynomial.legendre.legval(x, [0] * n + [1]))


def report(criterion, measured, tol, elapsed=None, limit=None):
    ok = measured <= tol and (limit is None or elapsed <= limit)
    line = f"{'PASS' if ok else 'FAIL'} {criterion}: worst {measured:.3e} (tol {tol:.1e})"
    if limit is not None:
        line += f", {elapsed:.1f}s (limit {limit:.0f}s)"
    print(line)
    assert measured <= tol, line
    if limit is not None:
        assert elapsed <= limit, line


def suite_worst(name):
    start = time.monotonic()
    rows = run_suite(name)
    elapsed = time.monotonic() - start
    assert all(r.passed for r in rows), [r.name for r in rows if not r.passed]
    return max(r.measured for r in rows), max(r.tol for r in rows), elapsed


def test_criterion_01_plane_coincidence_and_flat_one_form():
    start = time.monotonic()
    x = Point("plane", 0.0, 0.0)
    coin = abs(k0("plane", x, x, 0.25).value - 1.0 / math.pi)
    rows = run_suite("euclid-k1")  # 100 seeded random pairs, entrywise
    elapsed = time.monotonic() - start
    assert len(rows) == 100 and all(r.tol == 1e-8 for r in rows)
    assert coin <= 1e-12
    worst = max(r.measured for r in rows)
    report("criterion 1 (plane coincidence 1e-12 + flat 1-form vs scalar"
           " kernel times frame rotation)", worst, 1e-8, elapsed, 5.0)


def test_criterion_02_hyperbolic_dual_routes():
    worst, tol, elapsed = suite_worst("dual-h2")
    assert tol == 1e-6
    report("criterion 2 (hyperbolic spectral vs single-integral kernel, "
           "10x10 grid)", worst, tol, elapsed, 120.0)


def test_criterion_03_unit_mass():
    worst, tol, elapsed = suite_worst("normalization")
    assert tol == 1e-6
    report("criterion 3 (kernel mass 1 on all three surfaces, t in "
           "{0.1, 1})", worst, tol, elapsed, 60.0)


def test_criterion_04_sphere_semigroup():
    worst, tol, elapsed = suite_worst("semigroup")
    assert tol == 1e-4
    report("criterion 4 (sphere semigroup at s=0.2, t=0.3, 64x128 grid)",
           worst, tol, elapsed, 60.0)


def test_criterion_05_heat_equation_residuals():
    worst, tol, elapsed = suite_worst("residual")
    assert tol == 1e-3
    report("criterion 5 (finite-difference heat residuals, degrees 0 and 1 "
           "with coupling)", worst, tol, elapsed, 30.0)


def test_criterion_06_sphere_eigenfunction_decay():
    start = time.monotonic()
    t = 0.3
    worst0 = 0.0
    for n in (1, 2, 3):
        field = FormField(0, lambda p, n=n: legendre_p(n, math.cos(p.c1)))
        out = apply_k0("sphere", field, t)
        decay = math.exp(-n * (n + 1) * t)
        for phi in (0.5, 1.1, 2.0):
            want = decay * legendre_p(n, math.cos(phi))
            worst0 = max(worst0, abs(out.fn(Point("sphere", phi, 0.3)) - want))
    assert worst0 <= 1e-6

    out1 = apply_k1("sphere",
                    FormField(1, lambda p: OneFormValue(-math.sin(p.c1), 0.0)),
                    t)
    worst1 = 0.0
    for phi in (0.6, 1.2, 2.1):
        got = out1.fn(Point("sphere", phi, 0.5))
        worst1 = max(worst1, abs(got.a - math.exp(-2 * t) * -math.sin(phi)),
                     abs(got.b))
    elapsed = time.monotonic() - start
    report("criterion 6 (sphere eigenfunction decay, scalars 1e-6 and "
           "1-form 1e-4)", worst1, 1e-4, elapsed, 60.0)


def test_criterion_07_intertwining():
    worst, tol, elapsed = suite_worst("intertwine")
    assert tol == 1e-4
    report("criterion 7 (differential commutes with evolution on the "
           "sphere, t=0.5)", worst, tol, elapsed, 60.0)


def test_criterion_08_torus_tiling():
    start = time.monotonic()
    rows = run_suite("tiling")
    elapsed = time.monotonic() - start
    theta = [r for r in rows if r.name.startswith("tiling-theta")]
    longtime = [r for r in rows if r.name.startswith("tiling-longtime")]
    periodic = [r for r in rows if r.name.startswith("tiling-periodicity")]
    assert len(theta) == 75 and all(r.tol == 1e-10 for r in theta)
    assert longtime and all(r.tol == 1e-10 for r in longtime)
    assert len(periodic) == 2 and all(r.tol == 1e-12 for r in periodic)
    assert all(r.passed for r in rows), [r.name for r in rows if not r.passed]
    worst = max(r.measured for r in rows)
    report("criterion 8 (image sum vs dual Fourier sum on the unit torus, "
           "long-time limit, deck periodicity)", worst, 1e-10, elapsed, 30.0)


def test_criterion_09_transform_roundtrip():
    worst, tol, elapsed = suite_worst("mehler-fock")
    assert tol == 1e-4
    report("criterion 9 (Mehler-Fock roundtrip, relative L2 over two "
           "profiles)", worst, tol, elapsed, 60.0)


def test_criterion_10_two_form_equals_scalar():
    start = time.monotonic()
    worst = 0.0
    for kind in ("plane", "sphere", "hyperbolic"):
        x = Point(kind, 0.5, 0.1)
        y = Point(kind, 1.2, 2.0)
        for t in (0.2, 1.0):
            worst = max(worst, abs(k2(kind, x, y, t).value
                                   - k0(kind, x, y, t).value))
    elapsed = time.monotonic() - start
    report("criterion 10 (2-form kernel equals the scalar kernel as a "
           "density)", worst, 1e-12, elapsed, 60.0)
