"""Every float of the field-sampling paths on a fixed grid, against a stored copy.

Each record is one call of apply_k0, apply_k1, integrate_surface or
heat_residual on one surface, written as one line of
tests/data/evolve_golden.txt:

    <call> <surface> <field> <inputs> -> <float> ... points=<sha256>
    <call> <surface> <field> <inputs> -> raises <exception type>

The floats are the evolved value at x (two components for apply_k1), the
integral, or the residual.  points= is the SHA-256 of every Point a
per-Point field was called with, in call order (kind, then the bits of c1
and c2), so a record also pins which points were sampled and in what
order; a vectorized integrand sees arrays and has none.  Floats compare
with ==.  The sphere fields of the main grid carry no hint; the "hinted"
records scale P2 by 1e4 and say so in a bounded hint.  A change that is
meant to move a value regenerates the file with
``PYTHONPATH=src python tests/test_evolve_golden.py`` and names the changed
records in its description, as the same command
with ``--report`` lists them.
"""

import hashlib
import math
import struct
from pathlib import Path

import numpy as np
from golden import main, moved, read

from heatforms import (DecayHint, FormField, HeatformsError, OneFormValue, Point,
                       ToleranceBudget, apply_k0, apply_k1, heat_residual,
                       integrate_surface, k0, k1)

GOLDEN = Path(__file__).parent / "data" / "evolve_golden.txt"

SURFACES = ("euclidean", "sphere", "hyperbolic")
TIMES = (0.01, 0.5)
TOLS = (1e-6, 1e-8)
POINTS = ((0.0, 0.0), (1.2, 4.0))
INTEGRAL_TOLS = (1e-6, 1e-9)


def _seen(fn, sha):
    """fn, also hashing every Point it is called with into sha."""
    def call(p):
        sha.update(p.kind.value.encode())
        sha.update(struct.pack("<dd", p.c1, p.c2))
        return fn(p)
    return call


def _p2(c):
    return 0.5 * (3.0 * c * c - 1.0)


def _fields(surface: str, scale: float = 1.0):
    """(scalar fn, 1-form fn, scalar hint, 1-form hint) of one surface: P2 of
    cos r and its d + star d / 2 on the sphere, scaled by scale; a Gaussian
    and the same 1-form of it on the planes."""
    if surface == "sphere":
        hint = None if scale == 1.0 else DecayHint("bounded", 0.0, scale)
        # d P2(cos r) = -3 sin r cos r dr
        def form(p):
            g = -3.0 * scale * math.sin(p.c1) * math.cos(p.c1)
            return OneFormValue(g, 0.5 * g)
        hint1 = None if scale == 1.0 else DecayHint("bounded", 0.0, 2.0 * scale)
        return lambda p: scale * _p2(math.cos(p.c1)), form, hint, hint1

    def form(p):
        g = -2.0 * p.c1 * math.exp(-p.c1 * p.c1)
        return OneFormValue(g, 0.5 * g)
    # |2 r e^{-r^2}| <= 1.25 e^{-r^2 / 2}
    return (lambda p: math.exp(-p.c1 * p.c1), form,
            DecayHint("gaussian", 1.0, 1.0), DecayHint("gaussian", 0.5, 1.25))


def _evolve(call: str, surface: str, scale: float, t: float, tol: float, x):
    f0, f1, h0, h1 = _fields(surface, scale)
    sha = hashlib.sha256()
    budget = ToleranceBudget(abs_tol=tol)
    point = Point(surface, *x)
    if call == "apply_k0":
        return [apply_k0(surface, FormField(0, _seen(f0, sha), h0), t,
                         budget).fn(point)], sha
    v = apply_k1(surface, FormField(1, _seen(f1, sha), h1), t, budget).fn(point)
    return [v.a, v.b], sha


def _integral(surface: str, mode: str, tol: float):
    budget = ToleranceBudget(abs_tol=tol)
    if surface == "sphere":
        decay = None
        scalar, arrays = (lambda p: _p2(math.cos(p.c1)) ** 2 + math.cos(p.c2) * math.sin(p.c1),
                          lambda c1, c2: _p2(np.cos(c1)) ** 2 + np.cos(c2) * np.sin(c1))
    else:
        decay = DecayHint("gaussian", 1.0, 1.5)
        scalar = lambda p: math.exp(-p.c1 * p.c1) * (1.0 + 0.5 * math.sin(p.c1) * math.cos(p.c2))
        arrays = lambda c1, c2: np.exp(-c1 * c1) * (1.0 + 0.5 * np.sin(c1) * np.cos(c2))
    if mode == "arrays":
        return [integrate_surface(surface, arrays, budget, decay, vectorized=True)], None
    sha = hashlib.sha256()
    return [integrate_surface(surface, _seen(scalar, sha), budget, decay)], sha


def _residual(surface: str, degree: int):
    """heat_residual at (1.2, 4.0) of the kernels from (0.3, 0.1) at t = 0.45;
    one hash covers the calls of all three snapshots, in order."""
    x0, t = Point(surface, 0.3, 0.1), 0.45
    sha = hashlib.sha256()

    def snapshot(T):
        if degree == 0:
            fn = lambda p: k0(surface, x0, p, T).value
        else:
            def fn(p):
                m = k1(surface, x0, p, T).matrix
                return OneFormValue(0.6 * m.m11 + 0.8 * m.m21, 0.6 * m.m12 + 0.8 * m.m22)
        return FormField(degree, _seen(fn, sha))

    fields = [snapshot(T) for T in (t - 1e-3, t, t + 1e-3)]
    return [heat_residual(surface, fields, Point(surface, 1.2, 4.0))], sha


def _cases():
    """(key, thunk) of every record, in file order."""
    out = []
    for call in ("apply_k0", "apply_k1"):
        for surface in SURFACES:
            for t in TIMES:
                for tol in TOLS:
                    for x in POINTS:
                        out.append((f"{call} {surface} plain t={t!r} tol={tol!r} x={x!r}",
                                    lambda c=call, s=surface, t=t, tol=tol, x=x:
                                    _evolve(c, s, 1.0, t, tol, x)))
        for t in TIMES:
            for x in POINTS:
                out.append((f"{call} sphere hinted t={t!r} tol=1e-06 x={x!r}",
                            lambda c=call, t=t, x=x: _evolve(c, "sphere", 1e4, t, 1e-6, x)))
    for surface in SURFACES:
        for mode in ("points", "arrays"):
            for tol in INTEGRAL_TOLS:
                out.append((f"integrate_surface {surface} {mode} tol={tol!r}",
                            lambda s=surface, m=mode, tol=tol: _integral(s, m, tol)))
        for degree in (0, 1):
            out.append((f"heat_residual {surface} degree={degree}",
                        lambda s=surface, d=degree: _residual(s, d)))
    return out


def record(key: str, thunk) -> str:
    """One line of the golden file, without its newline."""
    try:
        values, sha = thunk()
        text = " ".join(repr(float(v)) for v in values)
        if sha is not None:
            text += f" points={sha.hexdigest()}"
    except HeatformsError as exc:
        text = f"raises {type(exc).__name__}"
    return f"{key} -> {text}"


def test_golden_file_lists_exactly_these_records():
    assert list(read(GOLDEN)) == [key for key, _ in _cases()]


def test_field_sampling_keeps_every_float_and_every_point():
    assert moved(GOLDEN, [record(key, thunk) for key, thunk in _cases()]) == []


if __name__ == "__main__":
    main(GOLDEN, [record(key, thunk) for key, thunk in _cases()])
