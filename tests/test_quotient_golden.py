"""Every float of the quotient image sums on a fixed grid, against a stored copy.

Each record is one call on one covering group, written as one line of
tests/data/quotient_golden.txt:

    <function> <group> pair=<i> t=<t> tol=<abs_tol> -> <float> <float> ...
    <function> <group> pair=<i> -> <float> <float> ...
    <function> <group> ... -> raises <exception type>

The floats are the (value, err_est, terms, radius) of _k0_quotient_full; the
four matrix entries, err_est, terms and radius of k1_quotient_flat; the
polar coordinates of x and y reduced, and of y moved by two elements (act);
and the integer coordinates (k1, k2) of every element enumerate_elements
finds within distance 3, in its order.  They compare with ==, so a zero
may change sign.  A change that is meant to move a value regenerates the
file with ``PYTHONPATH=src python tests/test_quotient_golden.py`` and names
the changed records in its description, as the same command
with ``--report`` lists them.
"""

from pathlib import Path

import pytest
from golden import main, moved, read

from heatforms import (CoveringGroupSpec, GroupElement, HeatformsError, Point,
                       QuotientSurface, ToleranceBudget, act, enumerate_elements,
                       k1_quotient_flat)
from heatforms.quotient import _k0_quotient_full

GOLDEN = Path(__file__).parent / "data" / "quotient_golden.txt"

GROUPS = {
    "unit": CoveringGroupSpec.euclidean_lattice((1.0, 0.0), (0.0, 1.0)),
    "skew": CoveringGroupSpec.euclidean_lattice((1.0, 0.0), (0.4, 1.2)),
    "cylinder": CoveringGroupSpec.euclidean_cyclic((1.5, 0.5)),
    "hcyl-0.8": CoveringGroupSpec.hyperbolic_cyclic(0.8),
    "hcyl-2": CoveringGroupSpec.hyperbolic_cyclic(2.0),
    "trivial-plane": CoveringGroupSpec.trivial("plane"),
    "trivial-h2": CoveringGroupSpec.trivial("hyperbolic"),
}
PAIRS = (((0.3, 0.7), (0.9, 2.1)), ((1.4, 5.9), (0.2, 0.1)),
         ((0.0, 0.0), (0.5, 0.0)), ((2.2, 3.5), (1.7, 4.4)))
TIMES = (1e-3, 0.05, 0.7, 2.0)
TOLS = (1e-6, 1e-10)


def _points(group, i: int) -> tuple:
    (xr, xt), (yr, yt) = PAIRS[i]
    return Point(group.base, xr, xt), Point(group.base, yr, yt)


def _floats(function: str, group, i: int, t=None, tol=None) -> list:
    x, y = _points(group, i)
    q = QuotientSurface.from_group(group)
    if function == "k0":
        return list(_k0_quotient_full(q, x, y, t, ToleranceBudget(abs_tol=tol)))
    if function == "k1":
        out = k1_quotient_flat(q, x, y, t, ToleranceBudget(abs_tol=tol))
        m = out.matrix
        return [m.m11, m.m12, m.m21, m.m22, out.err_est, out.terms, out.radius]
    if function == "reduce":
        points = [q.reduce(x), q.reduce(y)]
    elif function == "act":
        rank2 = group.v2 is not None
        points = [act(GroupElement(group, k1, k2 if rank2 else 0), y)
                  for k1, k2 in ((1, -1), (-2, 3))]
    else:
        return [k for g in enumerate_elements(group, x, y, 3.0) for k in (g.k1, g.k2)]
    return [c for p in points for c in (p.c1, p.c2)]


def _keys() -> list:
    keys = []
    for name in GROUPS:
        for i in range(len(PAIRS)):
            keys += [(f, name, i, t, tol) for f in ("k0", "k1")
                     for t in TIMES for tol in TOLS]
            keys += [(f, name, i, None, None) for f in ("reduce", "act", "enumerate")]
    return keys


def _key(function: str, name: str, i: int, t=None, tol=None) -> str:
    key = f"{function} {name} pair={i}"
    return key if t is None else f"{key} t={t!r} tol={tol!r}"


def record(function: str, name: str, i: int, t=None, tol=None) -> str:
    """One line of the golden file, without its newline."""
    key = _key(function, name, i, t, tol)
    try:
        values = " ".join(repr(v) for v in _floats(function, GROUPS[name], i, t, tol))
    except HeatformsError as exc:
        values = f"raises {type(exc).__name__}"
    return f"{key} -> {values}"


def test_golden_file_lists_exactly_these_records():
    assert list(read(GOLDEN)) == [_key(*key) for key in _keys()]


@pytest.mark.parametrize("name", GROUPS)
def test_quotient_values_keep_every_float(name):
    lines = [record(*key) for key in _keys() if key[1] == name]
    assert moved(GOLDEN, lines) == []


if __name__ == "__main__":
    main(GOLDEN, [record(*key) for key in _keys()])
