"""Every float of the pointwise kernels on a fixed grid, against a stored copy.

Each record is one call of k0, k1, k2 or g1_scalar on one surface, at
x = (0.4, 0) and y = (0.4 + d, 0) (g1_scalar takes d itself), written as
one line of tests/data/kernel_golden.txt:

    <kernel> <surface> t=<t> tol=<abs_tol> d=<d> -> <float> <float> ...
    <kernel> <surface> t=<t> tol=<abs_tol> d=<d> -> raises <exception type>

The floats are the value, err_est, terms and radius of a Kernel0Value; the
four matrix entries, err_est, terms and radius of a Kernel1Value; and
(G, G_d, G_dd) of g1_scalar.  They compare with ==, so a zero may change
sign.  A change that is meant to move a value regenerates the file with
``PYTHONPATH=src python tests/test_kernel_golden.py`` and names the changed
records in its description, as the same command
with ``--report`` lists them.
"""

from pathlib import Path

import pytest
from golden import main, moved, read

from heatforms import (T_MIN, HeatformsError, Point, ToleranceBudget, g1_scalar,
                       k0, k1, k2)

GOLDEN = Path(__file__).parent / "data" / "kernel_golden.txt"

KERNELS = ("k0", "k1", "k2", "g1_scalar")
SURFACES = ("euclidean", "sphere", "hyperbolic")
TIMES = (T_MIN, 1e-3, 0.3, 2.0, 30.0)
TOLS = (1e-6, 1e-10, 1e-12)
SEPARATIONS = (0.0, 1e-9, 1e-3, 0.5, 2.0, 2.7)


def _floats(kernel: str, surface: str, t: float, tol: float, d: float) -> list:
    budget = ToleranceBudget(abs_tol=tol)
    if kernel == "g1_scalar":
        return list(g1_scalar(surface, d, t, budget))
    x, y = Point(surface, 0.4, 0.0), Point(surface, 0.4 + d, 0.0)
    if kernel == "k1":
        out = k1(surface, x, y, t, budget)
        m = out.matrix
        return [m.m11, m.m12, m.m21, m.m22, out.err_est, out.terms, out.radius]
    out = (k0 if kernel == "k0" else k2)(surface, x, y, t, budget)
    return [out.value, out.err_est, out.terms, out.radius]


def record(kernel: str, surface: str, t: float, tol: float, d: float) -> str:
    """One line of the golden file, without its newline."""
    key = f"{kernel} {surface} t={t!r} tol={tol!r} d={d!r}"
    try:
        values = " ".join(repr(v) for v in _floats(kernel, surface, t, tol, d))
    except HeatformsError as exc:
        values = f"raises {type(exc).__name__}"
    return f"{key} -> {values}"


def records(kernel: str, surface: str) -> list:
    return [record(kernel, surface, t, tol, d)
            for t in TIMES for tol in TOLS for d in SEPARATIONS]


def test_golden_file_lists_exactly_these_records():
    expected = [f"{kernel} {surface} t={t!r} tol={tol!r} d={d!r}"
                for kernel in KERNELS for surface in SURFACES
                for t in TIMES for tol in TOLS for d in SEPARATIONS]
    assert list(read(GOLDEN)) == expected


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("surface", SURFACES)
def test_kernel_values_keep_every_float(kernel, surface):
    assert moved(GOLDEN, records(kernel, surface)) == []


if __name__ == "__main__":
    main(GOLDEN, [line for kernel in KERNELS for surface in SURFACES
                  for line in records(kernel, surface)])
