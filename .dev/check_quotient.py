"""Validation battery for quotient.py; run before freezing test values,
from any directory, with `python3 .dev/check_quotient.py` (needs mpmath)."""
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from heatforms.errors import (EnumerationOverflowError, KindMismatchError,
                              UnsupportedGroupError)
from heatforms.geometry import Point, SurfaceKind, distance
from heatforms.kernels import k0, k1
from heatforms.quadrature import ToleranceBudget
from heatforms.quotient import (CoveringGroupSpec, GroupElement,
                                QuotientSurface, _axis_translate, act,
                                enumerate_elements, k0_quotient,
                                k1_quotient_flat, torus_fourier_oracle)

E = SurfaceKind.EUCLIDEAN
H = SurfaceKind.HYPERBOLIC
rng = np.random.default_rng(20260819)
failures = []


def check(name, err, tol):
    ok = err <= tol
    print(f"{'PASS' if ok else 'FAIL'}  {name}: err={err:.3e} tol={tol:.1e}")
    if not ok:
        failures.append(name)


def ep(r, th):
    return Point(E, r, th)


def hp(r, th):
    return Point(H, r, th)


unit = CoveringGroupSpec.euclidean_lattice((1.0, 0.0), (0.0, 1.0))
skew = CoveringGroupSpec.euclidean_lattice((1.3, 0.1), (-0.2, 0.9))
cyc = CoveringGroupSpec.euclidean_cyclic((1.0, 0.0))
hyp = CoveringGroupSpec.hyperbolic_cyclic(1.5)

# --- act -------------------------------------------------------------------
print("== act ==")
p = ep(0.7, 1.1)
pid = act(unit.identity(), p)
check("identity act", abs(pid.c1 - p.c1) + abs(pid.c2 - p.c2), 0.0)
img = act(GroupElement(unit, 1, 0), ep(0.0, 0.0))
check("lattice shift of origin", abs(img.c1 - 1.0) + abs(img.c2 - 0.0), 1e-15)

# hyperbolic translation is an isometry
worst = 0.0
for _ in range(30):
    a = hp(rng.uniform(0.05, 2.0), rng.uniform(0, 2 * math.pi))
    b = hp(rng.uniform(0.05, 2.0), rng.uniform(0, 2 * math.pi))
    g = GroupElement(hyp, int(rng.integers(-3, 4)))
    worst = max(worst, abs(distance(H, act(g, a), act(g, b)) - distance(H, a, b)))
check("hyperbolic act isometry", worst, 1e-12)

# composition = integer addition
g1 = GroupElement(skew, 2, -1)
g2 = GroupElement(skew, -1, 3)
lhs = act(g1.compose(g2), p)
rhs = act(g1, act(g2, p))
check("compose additivity", distance(E, lhs, rhs), 1e-13)

# --- enumerate -------------------------------------------------------------
print("== enumerate ==")
o = ep(0.0, 0.0)
n21 = len(enumerate_elements(unit, o, o, 2.5))
print(f"unit lattice radius 2.5: {n21} elements")
check("count 21", abs(n21 - 21), 0)
n7 = len(enumerate_elements(cyc, o, o, 3.2))
print(f"cyclic radius 3.2: {n7} elements")
check("count 7", abs(n7 - 7), 0)
empty = enumerate_elements(unit, ep(0.45, 0.3), ep(0.2, 2.0), 0.1)
check("small radius empty", len(empty), 0)

# monotone in radius
prev = -1
mono_ok = 0.0
for r in [0.5, 1.0, 1.7, 2.5, 4.0, 6.0]:
    n = len(enumerate_elements(skew, ep(0.3, 0.2), ep(0.5, 1.0), r))
    if n < prev:
        mono_ok = 1.0
    prev = n
check("counts monotone in radius", mono_ok, 0)

try:
    enumerate_elements(unit, o, o, 4000.0)
    check("overflow guard", 1.0, 0)
except EnumerationOverflowError:
    check("overflow guard", 0.0, 0)

# hyperbolic enumeration agrees with direct distances
els = enumerate_elements(hyp, hp(0.4, 0.7), hp(0.6, 2.0), 5.0)
brute = [k for k in range(-10, 11)
         if distance(H, hp(0.4, 0.7), act(GroupElement(hyp, k), hp(0.6, 2.0))) <= 5.0]
check("hyperbolic enumerate = brute force", abs(len(els) - len(brute)), 0)

# --- reduce ----------------------------------------------------------------
print("== reduce ==")
for name, q in [("torus", QuotientSurface.from_group(skew)),
                ("cylinder", QuotientSurface.from_group(cyc)),
                ("hyp-cyl", QuotientSurface.from_group(hyp)),
                ("trivial", QuotientSurface.from_group(CoveringGroupSpec.trivial(E)))]:
    worst = 0.0
    for _ in range(40):
        if q.base is E:
            pt = ep(rng.uniform(0, 6.0), rng.uniform(0, 2 * math.pi))
        else:
            pt = hp(rng.uniform(0, 4.0), rng.uniform(0, 2 * math.pi))
        r1 = q.reduce(pt)
        r2 = q.reduce(r1)
        worst = max(worst, distance(q.base, r1, r2))
    check(f"reduce idempotent ({name})", worst, 1e-12)

# reduce lands in the same orbit: some g maps reduce(p) back to p
worst = 0.0
for _ in range(20):
    pt = ep(rng.uniform(0, 5.0), rng.uniform(0, 2 * math.pi))
    red = QuotientSurface.from_group(skew).reduce(pt)
    ds = [distance(E, pt, act(g, red))
          for g in enumerate_elements(skew, pt, red, 8.0)]
    worst = max(worst, min(ds))
check("reduce stays in orbit (torus)", worst, 1e-10)

worst = 0.0
for _ in range(20):
    pt = hp(rng.uniform(0, 3.0), rng.uniform(0, 2 * math.pi))
    red = QuotientSurface.from_group(hyp).reduce(pt)
    ds = [distance(H, pt, act(GroupElement(hyp, k), red)) for k in range(-5, 6)]
    worst = max(worst, min(ds))
check("reduce stays in orbit (hyp)", worst, 1e-10)

# --- torus kernel vs oracles ------------------------------------------------
print("== torus ==")
qt = QuotientSurface.from_group(unit)
tight = ToleranceBudget(abs_tol=1e-12)

# independent theta-function oracle on the unit torus at x = y
def theta_k(t):
    with mp.workdps(40):
        q = mp.exp(-1 / (4 * mp.mpf(t)))
        th = mp.jtheta(3, 0, q)
        return float(th * th / (4 * mp.pi * t))

v_img = k0_quotient(qt, o, o, 0.25, tight)
v_fou = torus_fourier_oracle(unit, o, o, 0.25, tight)
v_th = theta_k(0.25)
print(f"unit torus t=0.25 origin: image={v_img:.17g} fourier={v_fou:.17g} "
      f"theta={v_th:.17g}")
check("image sum vs theta", abs(v_img - v_th), 1e-13)
check("fourier vs theta", abs(v_fou - v_th), 1e-13)

check("torus long time -> 1/area", abs(k0_quotient(qt, o, o, 20.0) - 1.0), 1e-10)
check("fourier long time -> 1/area",
      abs(torus_fourier_oracle(unit, o, o, 20.0) - 1.0), 1e-12)

# theta identity across offsets and times, plus a skew lattice
worst = 0.0
for t in (0.1, 0.25, 1.0):
    for a in np.linspace(0.0, 0.8, 5):
        for b in np.linspace(0.0, 0.8, 5):
            y = ep(math.hypot(a, b), math.atan2(b, a))
            worst = max(worst, abs(k0_quotient(qt, o, y, t, tight)
                                   - torus_fourier_oracle(unit, o, y, t, tight)))
check("theta identity 5x5x3 (unit)", worst, 1e-10)

qs = QuotientSurface.from_group(skew)
worst = 0.0
for t in (0.15, 0.6):
    for _ in range(8):
        x = qs.reduce(ep(rng.uniform(0, 2), rng.uniform(0, 2 * math.pi)))
        y = qs.reduce(ep(rng.uniform(0, 2), rng.uniform(0, 2 * math.pi)))
        worst = max(worst, abs(k0_quotient(qs, x, y, t, tight)
                               - torus_fourier_oracle(skew, x, y, t, tight)))
check("theta identity (skew lattice)", worst, 1e-10)

# periodicity under the deck action
worst = 0.0
for g in [GroupElement(unit, 1, 0), GroupElement(unit, -2, 1),
          GroupElement(unit, 0, 3)]:
    x = ep(0.3, 0.4)
    y = ep(0.55, 2.2)
    base_v = k0_quotient(qt, x, y, 0.3, tight)
    moved = k0_quotient(qt, x, qt.reduce(act(g, y)), 0.3, tight)
    worst = max(worst, abs(base_v - moved))
check("deck periodicity (torus)", worst, 1e-12)

worst = 0.0
qh = QuotientSurface.from_group(hyp)
for g in [GroupElement(hyp, 1), GroupElement(hyp, -2)]:
    x = hp(0.3, 0.4)
    y = hp(0.55, 2.2)
    base_v = k0_quotient(qh, x, y, 0.3)
    moved = k0_quotient(qh, x, qh.reduce(act(g, y)), 0.3)
    worst = max(worst, abs(base_v - moved))
check("deck periodicity (hyp cylinder)", worst, 1e-10)

# normalization over the fundamental domain (unit torus, uniform grid is
# spectrally accurate for periodic smooth integrands)
for t in (0.1, 1.0):
    n = 32
    u = (np.arange(n) + 0.5) / n
    total = 0.0
    x0 = ep(0.37, 0.61)
    for a in u:
        for b in u:
            total += k0_quotient(qt, x0, ep(math.hypot(a, b),
                                            math.atan2(b, a)), t)
    check(f"torus normalization t={t}", abs(total / n ** 2 - 1.0), 1e-8)

# --- hyperbolic cylinder ----------------------------------------------------
print("== hyperbolic cylinder ==")
x = hp(0.5, 0.9)
y = hp(0.8, 2.4)
v0 = k0_quotient(qh, x, y, 0.4)
worst = 0.0
for delta in (0.3, -0.7, 1.1):
    v1 = k0_quotient(qh, _axis_translate(x, delta), _axis_translate(y, delta), 0.4)
    worst = max(worst, abs(v1 - v0))
check("axis-translation invariance", worst, 1e-10)

# trivial hyperbolic quotient reproduces the base kernel exactly
qtriv = QuotientSurface.from_group(CoveringGroupSpec.trivial(H))
check("trivial quotient = base kernel",
      abs(k0_quotient(qtriv, x, y, 0.4) - k0(H, x, y, 0.4).value), 0.0)

# image sum exceeds the base kernel (positive images) and grows toward it
base_k = k0(H, x, y, 0.4).value
check("quotient above base kernel", max(0.0, base_k - v0), 0.0)

# --- 1-form quotient --------------------------------------------------------
print("== k1 quotient ==")
qe = QuotientSurface.from_group(CoveringGroupSpec.trivial(E))
xe = ep(0.7, 0.3)
ye = ep(1.1, 1.9)
m_triv = k1_quotient_flat(qe, xe, ye, 0.35).matrix.as_array()
m_base = k1(E, xe, ye, 0.35).matrix.as_array()
check("trivial group matches k1", float(np.abs(m_triv - m_base).max()), 0.0)

# torus K1 preserves the constant Cartesian form dx at any time
def dx_comps(pt):
    return np.array([math.cos(pt.c2), -math.sin(pt.c2)])

for t in (0.3, 20.0):
    n = 28
    u = (np.arange(n) + 0.5) / n
    out = np.zeros(2)
    xq = ep(0.41, 0.87)
    for a in u:
        for b in u:
            yq = ep(math.hypot(a, b), math.atan2(b, a))
            mat = k1_quotient_flat(qt, xq, yq, t).matrix.as_array()
            out += mat @ dx_comps(yq) / n ** 2
    check(f"torus K1 fixes dx (t={t})", float(np.abs(out - dx_comps(xq)).max()),
          1e-8)

# 1-form semigroup on the torus, coarse uniform grid
s_t = 0.15
xg = ep(0.2, 0.5)
yg = ep(0.66, 2.8)
n = 24
u = (np.arange(n) + 0.5) / n
acc = np.zeros((2, 2))
for a in u:
    for b in u:
        z = ep(math.hypot(a, b), math.atan2(b, a))
        m1 = k1_quotient_flat(qt, xg, z, s_t).matrix.as_array()
        m2 = k1_quotient_flat(qt, z, yg, s_t).matrix.as_array()
        acc += m1 @ m2 / n ** 2
direct = k1_quotient_flat(qt, xg, yg, 2 * s_t).matrix.as_array()
check("torus K1 semigroup", float(np.abs(acc - direct).max()), 1e-4)

try:
    k1_quotient_flat(qh, x, y, 0.4)
    check("hyperbolic k1 unsupported", 1.0, 0)
except UnsupportedGroupError:
    check("hyperbolic k1 unsupported", 0.0, 0)

# cylinder K1 against a manual image sum: each base k1 comes out in the
# image point's polar coframe, so transport it back to y's coframe before
# adding (translations are the identity on Cartesian coframes)
def rot(a):
    return np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]])

qc = QuotientSurface.from_group(cyc)
mc = k1_quotient_flat(qc, xe, ye, 0.3, tight).matrix.as_array()
manual = np.zeros((2, 2))
for k in range(-30, 31):
    yk = act(GroupElement(cyc, k), ye)
    manual += k1(E, xe, yk, 0.3).matrix.as_array() @ rot(yk.c2 - ye.c2)
check("cylinder K1 = summed base K1", float(np.abs(mc - manual).max()), 1e-11)

# mismatches
try:
    k0_quotient(qt, hp(0.3, 0.1), o, 0.5)
    check("kind mismatch raises", 1.0, 0)
except KindMismatchError:
    check("kind mismatch raises", 0.0, 0)

print()
if failures:
    print("FAILURES:", failures)
    sys.exit(1)
print("ALL QUOTIENT CHECKS PASSED")
