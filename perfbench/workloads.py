"""Seeded op streams for the three benchmark workloads, with their references.

An op is one closed-loop library call plus a reference for its answer.  Ops
come in cycles: every cycle holds a fixed number of ops of each class, in a
seeded shuffled order, so the mix of a run that covers whole cycles does not
depend on the seed.  Within a class, the inputs that set an op's cost (time,
tolerance, distance, group size, spectral parameter, field width) follow one
fixed low-discrepancy sequence, which spreads them evenly over their ranges
in every run, however few ops of the class it holds; base points, directions,
lattice shear and the order of ops are drawn from the seed.

Each class names its reference kind: "independent" when the reference comes
from another route (closed form, McKean integral, Fourier oracle), "self"
when it is the same call at a budget 100 times tighter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import heatforms as hf
from heatforms import (DecayHint, FormField, OneFormValue, Point,
                       ToleranceBudget)

# Entry points ops call through an Api object, so a traced run can swap in
# wrapped versions without touching the op lists.
ENTRY_POINTS = ("k0", "k1", "k2", "k0_quotient", "k1_quotient_flat",
                "apply_k0", "apply_k1", "mehler_fock_forward",
                "mehler_fock_inverse")

# Additive recurrence for a 4-dimensional low-discrepancy sequence:
# g is the real root of g^5 = g + 1.
_G4 = 1.1673039782614187
_ALPHA = _G4 ** -np.arange(1.0, 5.0)
_CLASS_STRIDE = 7919   # classes start far apart on the sequence

_FOUR_PI = 4.0 * math.pi
# References ask for 1/100 of the op's abs_tol, so a measured error is only
# known to within that share.
REF_SHARE = 0.01
_WARMUP_SEED = 0
_WARMUP_CYCLE = 10 ** 6


class Api:
    """The library entry points ops call; field() wraps benchmark callbacks."""

    def __init__(self):
        for name in ENTRY_POINTS:
            setattr(self, name, getattr(hf, name))

    @staticmethod
    def field(fn):
        return fn


@dataclass(frozen=True)
class Op:
    """One library call: call() -> (values, err_est or None); reference()
    -> values computed without the timed route."""

    cls: str
    index: int
    tol: float
    inputs: tuple
    call: Callable
    reference: Callable


@dataclass(frozen=True)
class OpClass:
    name: str
    per_cycle: int
    reference: str
    make: Callable   # (api, u, rng, k) -> Op without cls/index


def _derivative(g, x, h):
    """g'(x) by Richardson extrapolation of five-point differences with
    steps h and h/2."""
    def diff(step):
        v = [g(x + j * step) for j in (-2, -1, 1, 2)]
        return (v[0] - 8.0 * v[1] + 8.0 * v[2] - v[3]) / (12.0 * step)

    return (16.0 * diff(0.5 * h) - diff(h)) / 15.0


def _log_range(u, lo, hi):
    return lo * (hi / lo) ** u


def _pick(u, choices):
    return choices[min(int(u * len(choices)), len(choices) - 1)]


def _budget(tol, share=1.0):
    return ToleranceBudget(abs_tol=tol * share)


def _scalar(v):
    return (v.value,), v.err_est


def _matrix(v):
    m = v.matrix
    return (m.m11, m.m12, m.m21, m.m22), v.err_est


def _rotation(scale, x, y):
    """scale times the frame rotation between polar coframes at x and y."""
    c, s = math.cos(x.c2 - y.c2), math.sin(x.c2 - y.c2)
    return (scale * c, scale * s, -scale * s, scale * c)


# ---------------------------------------------------------------------------
# point pairs at a known geodesic distance

def _pair(kind, rng, d, r_max=1.5):
    """(x, y) with y at geodesic distance d from x in a random direction."""
    theta, psi = rng.uniform(0.0, 2.0 * math.pi, 2)
    ct, st, cp, sp = math.cos(theta), math.sin(theta), math.cos(psi), math.sin(psi)
    if kind == "sphere":
        phi = float(rng.uniform(0.0, math.pi))
        x = Point(kind, phi, theta)
        if d == 0.0:
            return x, x
        sf, cf = math.sin(phi), math.cos(phi)
        pos = (sf * ct, sf * st, cf)
        e1 = (cf * ct, cf * st, -sf)
        e2 = (-st, ct, 0.0)
        v = [math.cos(d) * pos[i] + math.sin(d) * (cp * e1[i] + sp * e2[i])
             for i in range(3)]
        return x, Point(kind, math.atan2(math.hypot(v[0], v[1]), v[2]),
                        math.atan2(v[1], v[0]))
    r = float(rng.uniform(0.0, r_max))
    x = Point(kind, r, theta)
    if d == 0.0:
        return x, x
    if kind == "plane":
        vx = r * ct + d * cp
        vy = r * st + d * sp
        return x, Point(kind, math.hypot(vx, vy), math.atan2(vy, vx))
    sh, ch = math.sinh(r), math.cosh(r)
    pos = (ch, sh * ct, sh * st)
    e1 = (sh, ch * ct, ch * st)
    e2 = (0.0, -st, ct)
    v = [math.cosh(d) * pos[i] + math.sinh(d) * (cp * e1[i] + sp * e2[i])
         for i in range(3)]
    return x, Point(kind, math.asinh(math.hypot(v[1], v[2])),
                    math.atan2(v[2], v[1]))


# ---------------------------------------------------------------------------
# pointwise: single kernel queries

POINT_T = (1e-3, 2.0)
POINT_TOLS = (1e-6, 1e-8, 1e-10)
# Image distances of a hyperbolic cylinder follow the seeded points, and below
# t = 0.01 the spectral k0 on H2 misses abs_tol at scattered distances (see
# test_perfbench.py), so on some seeds an op would fail.
HYPCYL_T = (0.01, 2.0)
_FAR_EVERY = 8


def _point_inputs(u):
    t = _log_range(u[0], *POINT_T)
    tol = _pick(u[1], POINT_TOLS)
    # a tenth of the pairs coincide; the rest spread over (0, 3]
    d = 0.0 if u[2] < 0.1 else 3.0 * (u[2] - 0.1) / 0.9
    return t, tol, d


def _plane_k0(d, t):
    return math.exp(-d * d / (4.0 * t)) / (_FOUR_PI * t)


def _mckean(d, t, tol):
    return hf.k0_h2_mckean(d, t, _budget(tol, REF_SHARE))


def _kernel_op(api, kind, entry, x, y, t, tol, wrap, ref):
    b = _budget(tol)
    return Op("", 0, tol, (kind, x.c1, x.c2, y.c1, y.c2, t),
              lambda: wrap(getattr(api, entry)(kind, x, y, t, b)), ref)


def _make_k0(kind, far=False):
    def make(api, u, rng, k):
        t, tol, d = _point_inputs(u)
        if far and k % _FAR_EVERY == _FAR_EVERY - 1:
            d = 4.0 + 2.0 * u[2]
        x, y = _pair(kind, rng, d)
        if kind == "plane":
            ref = lambda: (_plane_k0(d, t),)
        elif kind == "hyperbolic":
            ref = lambda: (_mckean(d, t, tol),)
        else:
            ref = lambda: (hf.k0(kind, x, y, t, _budget(tol, REF_SHARE)).value,)
        return _kernel_op(api, kind, "k0", x, y, t, tol, _scalar, ref)
    return make


def _make_k2_hyperbolic(api, u, rng, k):
    t, tol, d = _point_inputs(u)
    x, y = _pair("hyperbolic", rng, d)
    return _kernel_op(api, "hyperbolic", "k2", x, y, t, tol, _scalar,
                      lambda: (_mckean(d, t, tol),))


def _make_k1(kind):
    def make(api, u, rng, k):
        t, tol, d = _point_inputs(u)
        x, y = _pair(kind, rng, d)
        if kind == "plane":
            ref = lambda: _rotation(_plane_k0(d, t), x, y)
        else:
            ref = lambda: _matrix(hf.k1(kind, x, y, t,
                                        _budget(tol, REF_SHARE)))[0]
        return _kernel_op(api, kind, "k1", x, y, t, tol, _matrix, ref)
    return make


def _torus(u, rng):
    aspect = _log_range(u[3], 0.25, 4.0)
    shear = float(rng.uniform(-0.5, 0.5))
    return hf.CoveringGroupSpec.euclidean_lattice((1.0, 0.0), (shear, aspect))


def _flat_cylinder(u, rng):
    length = 0.5 + 1.5 * u[3]
    angle = float(rng.uniform(0.0, math.pi))
    return hf.CoveringGroupSpec.euclidean_cyclic(
        (length * math.cos(angle), length * math.sin(angle)))


def _quotient_op(api, entry, q, x, y, t, tol, ref):
    b = _budget(tol)
    if entry == "k0_quotient":
        call = lambda: ((api.k0_quotient(q, x, y, t, b),), None)
    else:
        call = lambda: _matrix(api.k1_quotient_flat(q, x, y, t, b))
    g = q.group
    inputs = (g.variant, g.v1, g.v2, g.ell, x.c1, x.c2, y.c1, y.c2, t)
    return Op("", 0, tol, inputs, call, ref)


def _make_flat_quotient(entry, shape):
    def make(api, u, rng, k):
        t, tol, d = _point_inputs(u)
        group = _torus(u, rng) if shape == "torus" else _flat_cylinder(u, rng)
        q = hf.QuotientSurface.from_group(group)
        x, y = _pair("plane", rng, d)
        ref_b = _budget(tol, REF_SHARE)
        if shape == "torus":
            oracle = lambda: hf.torus_fourier_oracle(group, x, y, t, ref_b)
            if entry == "k0_quotient":
                ref = lambda: (oracle(),)
            else:
                ref = lambda: _rotation(oracle(), x, y)
        elif entry == "k0_quotient":
            ref = lambda: (hf.k0_quotient(q, x, y, t, ref_b),)
        else:
            ref = lambda: _matrix(hf.k1_quotient_flat(q, x, y, t, ref_b))[0]
        return _quotient_op(api, entry, q, x, y, t, tol, ref)
    return make


def _hypcyl_reference(group, x, y, t, tol):
    """Sum of the McKean kernel over every image within a radius whose
    Gaussian tail is below 1e-30."""
    d0 = hf.distance("hyperbolic", x, y)
    radius = d0 + 2.0 * math.sqrt(t * math.log(1e30)) + 1.0
    images = hf.enumerate_elements(group, x, y, radius)
    share = REF_SHARE / max(1, len(images))
    return (math.fsum(hf.k0_h2_mckean(
        hf.distance("hyperbolic", x, hf.act(g, y)), t, _budget(tol, share))
        for g in images),)


def _make_hypcyl(api, u, rng, k):
    _, tol, d = _point_inputs(u)
    t = _log_range(u[0], *HYPCYL_T)
    group = hf.CoveringGroupSpec.hyperbolic_cyclic(0.5 + 1.5 * u[3])
    q = hf.QuotientSurface.from_group(group)
    x, y = _pair("hyperbolic", rng, d)
    return _quotient_op(api, "k0_quotient", q, x, y, t, tol,
                        lambda: _hypcyl_reference(group, x, y, t, tol))


POINTWISE = (
    OpClass("k0-plane", 6, "independent", _make_k0("plane")),
    OpClass("k1-plane", 4, "independent", _make_k1("plane")),
    OpClass("k0-sphere", 5, "self", _make_k0("sphere")),
    OpClass("k1-sphere", 4, "self", _make_k1("sphere")),
    OpClass("quotient-torus", 4, "independent",
            _make_flat_quotient("k0_quotient", "torus")),
    OpClass("quotient-cylinder", 3, "self",
            _make_flat_quotient("k0_quotient", "cylinder")),
    OpClass("k1quotient-torus", 2, "independent",
            _make_flat_quotient("k1_quotient_flat", "torus")),
    OpClass("k1quotient-cylinder", 2, "self",
            _make_flat_quotient("k1_quotient_flat", "cylinder")),
    OpClass("k0-hyperbolic", 4, "independent", _make_k0("hyperbolic", far=True)),
    OpClass("k2-hyperbolic", 1, "independent", _make_k2_hyperbolic),
    OpClass("k1-hyperbolic", 3, "self", _make_k1("hyperbolic")),
    OpClass("quotient-hypcyl", 3, "independent", _make_hypcyl),
)


# ---------------------------------------------------------------------------
# evolve: one evaluation of an evolved field at one point

EVOLVE_T = (0.1, 1.0)
EVOLVE_TOLS = (1e-6, 1e-8)

# Legendre polynomials and their derivatives, n = 1..3
_LEGENDRE = {1: (lambda c: c, lambda c: 1.0),
             2: (lambda c: 0.5 * (3.0 * c * c - 1.0), lambda c: 3.0 * c),
             3: (lambda c: 0.5 * (5.0 * c ** 3 - 3.0 * c),
                 lambda c: 0.5 * (15.0 * c * c - 3.0))}


def _gaussian(a):
    return lambda p: math.exp(-a * p.c1 * p.c1)


_ZERO_FORM = OneFormValue(0.0, 0.0)


def _gaussian_d(a):
    return lambda p: OneFormValue(-2.0 * a * p.c1 * math.exp(-a * p.c1 * p.c1), 0.0)


def _gaussian_hints(a):
    # |2 a r e^{-a r^2}| <= 2 sqrt(a/e) e^{-a r^2 / 2} <= 1.25 sqrt(a) e^{-a r^2 / 2}
    return (DecayHint("gaussian", rate=a, bound=1.0),
            DecayHint("gaussian", rate=0.5 * a, bound=1.25 * math.sqrt(a)))


def _evolve_op(api, kind, degree, fn, hint, x, t, tol, inputs, ref):
    b = _budget(tol)
    entry = "apply_k0" if degree == 0 else "apply_k1"
    if degree == 0:
        unpack = lambda v: ((v,), None)
    else:
        unpack = lambda v: ((v.a, v.b), None)

    def call():
        field = FormField(degree, api.field(fn), hint)
        return unpack(getattr(api, entry)(kind, field, t, b).fn(x))

    return Op("", 0, tol, (kind, degree, x.c1, x.c2, t) + inputs, call, ref)


def _evolve_inputs(u):
    return _log_range(u[0], *EVOLVE_T), _pick(u[1], EVOLVE_TOLS)


def _make_sphere_evolve(degree):
    def make(api, u, rng, k):
        t, tol = _evolve_inputs(u)
        n = 1 + k % 3
        p_n, dp_n = _LEGENDRE[n]
        x = Point("sphere", float(rng.uniform(0.1, math.pi - 0.1)),
                  float(rng.uniform(0.0, 2.0 * math.pi)))
        decay = math.exp(-n * (n + 1) * t)
        cx = math.cos(x.c1)
        if degree == 0:
            fn = lambda p: p_n(math.cos(p.c1))
            ref = lambda: (decay * p_n(cx),)
        else:
            fn = lambda p: OneFormValue(-math.sin(p.c1) * dp_n(math.cos(p.c1)), 0.0)
            ref = lambda: (-decay * math.sin(x.c1) * dp_n(cx), 0.0)
        return _evolve_op(api, "sphere", degree, fn, None, x, t, tol, (n,), ref)
    return make


def _make_plane_evolve(degree):
    """Gaussians exp(-a r^2) evolve to exp(-a r^2 / w) / w with w = 1 + 4 a t."""
    def make(api, u, rng, k):
        t, tol = _evolve_inputs(u)
        a = _log_range(u[2], 0.5, 4.0)
        x = Point("plane", float(rng.uniform(0.0, 2.0)),
                  float(rng.uniform(0.0, 2.0 * math.pi)))
        w = 1.0 + 4.0 * a * t
        r = x.c1
        hints = _gaussian_hints(a)
        if degree == 0:
            fn = _gaussian(a)
            ref = lambda: (math.exp(-a * r * r / w) / w,)
        else:
            fn = _gaussian_d(a)
            ref = lambda: (-2.0 * a * r * math.exp(-a * r * r / w) / (w * w), 0.0)
        return _evolve_op(api, "plane", degree, fn, hints[degree], x, t, tol,
                          (a,), ref)
    return make


def _make_h2_constant(degree):
    """The constant field evolves to itself (stochastic completeness), and its
    differential, the zero 1-form, evolves to zero."""
    def make(api, u, rng, k):
        t, tol = _evolve_inputs(u)
        x = Point("hyperbolic", float(rng.uniform(0.0, 2.0)),
                  float(rng.uniform(0.0, 2.0 * math.pi)))
        if degree == 0:
            fn, exact = (lambda p: 1.0), (1.0,)
        else:
            fn, exact = (lambda p: _ZERO_FORM), (0.0, 0.0)
        return _evolve_op(api, "hyperbolic", degree, fn,
                          DecayHint("bounded", 0.0, 1.0), x, t, tol, (),
                          lambda: exact)
    return make


EVOLVE = (
    OpClass("k0-sphere", 3, "independent", _make_sphere_evolve(0)),
    OpClass("k1-sphere", 3, "independent", _make_sphere_evolve(1)),
    OpClass("k0-plane", 3, "independent", _make_plane_evolve(0)),
    OpClass("k1-plane", 3, "independent", _make_plane_evolve(1)),
    OpClass("k0-hyperbolic", 3, "independent", _make_h2_constant(0)),
    OpClass("k1-hyperbolic", 1, "independent", _make_h2_constant(1)),
)


# ---------------------------------------------------------------------------
# transform: Mehler-Fock forward and inverse

TRANSFORM_TOLS = (1e-6, 1e-8)


def _make_forward(name):
    def make(api, u, rng, k):
        rho = 8.0 * u[0]
        tol = _pick(u[1], TRANSFORM_TOLS)
        profile = hf.PROFILES[name]
        b = _budget(tol)
        return Op("", 0, tol, (name, rho),
                  lambda: ((api.mehler_fock_forward(profile, rho, b),), None),
                  lambda: (hf.mehler_fock_forward(profile, rho,
                                                  _budget(tol, REF_SHARE)),))
    return make


def _heat_derivative(r, s):
    """d/dr of the H2 heat kernel at time s, from the McKean integral."""
    return _derivative(lambda d: hf.k0_h2_mckean(d, s, _budget(1e-14)), r, 0.01)


def _make_inverse(api, u, rng, k):
    """fhat(rho) = lam e^{-lam s} inverts to d/dr K0(r, s).  The decay hint
    |fhat| <= (2/s) e^{-s rho^2 / 2} follows from max (1/4 + x) e^{-s x / 2}."""
    r = 0.2 + 2.8 * u[0]
    tol = _pick(u[1], TRANSFORM_TOLS)
    s = 0.3 + 0.7 * u[2]
    b = _budget(tol)

    def fhat(rho):
        lam = 0.25 + rho * rho
        return lam * math.exp(-lam * s)

    return Op("", 0, tol, (r, s),
              lambda: ((api.mehler_fock_inverse(fhat, r, b, gaussian_rate=0.5 * s,
                                                bound=2.0 / s),), None),
              lambda: (_heat_derivative(r, s),))


TRANSFORM = (
    OpClass("inverse-heat", 8, "independent", _make_inverse),
    OpClass("forward-gaussian", 1, "self", _make_forward("gaussian")),
    OpClass("forward-cubic", 1, "self", _make_forward("cubic")),
)

WORKLOADS = {"pointwise": POINTWISE, "evolve": EVOLVE, "transform": TRANSFORM}

# Nominal wall time of one cycle at the first benchmarked version, on a 2-core
# x86-64 virtual machine.  A run of --seconds covers seconds / CYCLE_SECONDS
# whole cycles, so every run of a seed does the same work whatever the speed
# of the machine or of the version measured.
CYCLE_SECONDS = {"pointwise": 0.3, "evolve": 3.0, "transform": 0.12}


def cycle_count(workload, seconds):
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


# ---------------------------------------------------------------------------
# streams

def cycle_ops(workload, seed, cycle, api=None):
    """The ops of one cycle, in their seeded order."""
    api = api if api is not None else Api()
    classes = WORKLOADS[workload]
    ops = []
    for ci, oc in enumerate(classes):
        for j in range(oc.per_cycle):
            k = cycle * oc.per_cycle + j
            u = (0.5 + (k + _CLASS_STRIDE * ci) * _ALPHA) % 1.0
            rng = np.random.default_rng([seed, 1, ci, k])
            op = oc.make(api, u, rng, k)
            ops.append(replace(op, cls=oc.name))
    order = np.random.default_rng([seed, 2, cycle]).permutation(len(ops))
    per = sum(oc.per_cycle for oc in classes)
    return [replace(ops[i], index=cycle * per + n) for n, i in enumerate(order)]


def warmup_ops(workload, api=None):
    """One op per class, outside every timed cycle and the same for every
    seed, so that set-up time does not depend on the seed."""
    seen = {}
    for op in cycle_ops(workload, _WARMUP_SEED, _WARMUP_CYCLE, api):
        seen.setdefault(op.cls, op)
    return list(seen.values())


def reference_kinds(workload):
    return {oc.name: oc.reference for oc in WORKLOADS[workload]}
