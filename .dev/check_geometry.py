"""Dev check: pair-derivative closed forms vs finite differences."""
import math
import numpy as np

from heatforms.geometry import (SurfaceKind, Point, distance, distance_gradient,
                                mixed_distance_hessian, hodge_star_1,
                                apply_i_plus_star, integrate_surface,
                                _pair_derivatives)
from heatforms.quadrature import DecayHint, ToleranceBudget


def metric_L(kind, r):
    if kind is SurfaceKind.EUCLIDEAN:
        return r
    if kind is SurfaceKind.SPHERE:
        return math.sin(r)
    return math.sinh(r)


def F(d):
    return math.exp(-d) * math.sin(2.0 * d + 0.3)


def F1(d):
    return math.exp(-d) * (2.0 * math.cos(2.0 * d + 0.3) - math.sin(2.0 * d + 0.3))


def F2(d):
    return math.exp(-d) * (-4.0 * math.cos(2.0 * d + 0.3) - 3.0 * math.sin(2.0 * d + 0.3)
                           + 4.0 * -math.sin(2.0 * d + 0.3) + 0.0)


# recompute F2 symbolically to be safe
import sympy as sp
_d = sp.symbols('d')
_F = sp.exp(-_d) * sp.sin(2 * _d + sp.Rational(3, 10))
_F1 = sp.lambdify(_d, sp.diff(_F, _d), 'math')
_F2 = sp.lambdify(_d, sp.diff(_F, _d, 2), 'math')

rng = np.random.default_rng(7)
h = 1e-5

for kind in SurfaceKind:
    worst_g = worst_m = worst_eik = 0.0
    for trial in range(60):
        if kind is SurfaceKind.SPHERE:
            r1 = rng.uniform(0.1, 2.8)
            r2 = rng.uniform(0.1, 2.8)
        else:
            r1 = rng.uniform(0.05, 2.5)
            r2 = rng.uniform(0.05, 2.5)
        t1 = rng.uniform(0, 2 * math.pi)
        t2 = rng.uniform(0, 2 * math.pi)
        x = Point(kind, r1, t1)
        y = Point(kind, r2, t2)
        d0 = distance(kind, x, y)
        if d0 < 0.3 or (kind is SurfaceKind.SPHERE and d0 > 2.9):
            continue

        def Fd(a1, a2, b1, b2):
            return F(distance(kind, Point(kind, a1, a2), Point(kind, b1, b2)))

        # gradient at x via FD in (r1, t1)
        g_r = (Fd(r1 + h, t1, r2, t2) - Fd(r1 - h, t1, r2, t2)) / (2 * h)
        g_t = (Fd(r1, t1 + h, r2, t2) - Fd(r1, t1 - h, r2, t2)) / (2 * h)
        grad = distance_gradient(kind, x, y)
        f1 = _F1(d0)
        err_g = max(abs(f1 * grad.a - g_r),
                    abs(f1 * grad.b - g_t / metric_L(kind, r1)))
        worst_g = max(worst_g, err_g)
        worst_eik = max(worst_eik, abs(grad.norm() - 1.0))

        # mixed second derivatives
        def mixed_fd(i, j):
            # i in {r1, t1}, j in {r2, t2}
            da = [0.0, 0.0, 0.0, 0.0]
            pp = [r1, t1, r2, t2]
            def ev(si, sj):
                q = list(pp)
                q[i] += si * h
                q[j] += sj * h
                return Fd(*q)
            return (ev(1, 1) - ev(1, -1) - ev(-1, 1) + ev(-1, -1)) / (4 * h * h)

        Lx = metric_L(kind, r1)
        Ly = metric_L(kind, r2)
        fd_mat = np.array([
            [mixed_fd(0, 2), mixed_fd(0, 3) / Ly],
            [mixed_fd(1, 2) / Lx, mixed_fd(1, 3) / (Lx * Ly)],
        ])
        got = mixed_distance_hessian(kind, x, y, _F1(d0), _F2(d0)).as_array()
        worst_m = max(worst_m, float(np.max(np.abs(got - fd_mat))))
    print(f"{kind.value:11s} grad_err {worst_g:.3e}  eikonal {worst_eik:.3e}  mixed_err {worst_m:.3e}")

# near-coincidence stability: d ~ 1e-8, entries must stay O(1) * F-scale
for kind in SurfaceKind:
    x = Point(kind, 0.7, 1.1)
    y = Point(kind, 0.7 + 1e-8, 1.1 + 1e-8)
    d0 = distance(kind, x, y)
    m = mixed_distance_hessian(kind, x, y, -1.0 / d0, 1.0 / d0 ** 2 * 0.0 - 2.0).as_array()
    print(f"{kind.value:11s} near-coincidence d={d0:.3e} mixed finite: {np.all(np.isfinite(m))}")

# star algebra
from heatforms.geometry import OneFormValue, BiTensor1
w = OneFormValue(0.3, -0.8)
ss = hodge_star_1(hodge_star_1(w))
assert ss.a == -w.a and ss.b == -w.b, "star^2 != -1"
m = BiTensor1(1.0, 2.0, 3.0, 4.0)
ap = apply_i_plus_star(m)
assert (ap.m11, ap.m12, ap.m21, ap.m22) == (5.0, -1.0, 1.0, 5.0)
print("star algebra OK")

# surface integrals: Gaussian on the plane (= pi/a * ... known), sphere area
budget = ToleranceBudget(abs_tol=1e-9)
val = integrate_surface(SurfaceKind.SPHERE, lambda g1, g2: np.ones_like(g1),
                        budget, vectorized=True)
print(f"sphere area {val:.12f} vs {4 * math.pi:.12f}")
val = integrate_surface(SurfaceKind.EUCLIDEAN,
                        lambda g1, g2: np.exp(-g1 ** 2), budget,
                        decay=DecayHint("gaussian", rate=1.0, bound=1.0),
                        vectorized=True)
print(f"plane gaussian {val:.12f} vs {math.pi:.12f}")
# hyperbolic: int e^{-a cosh r} dA = 2 pi int e^{-a cosh r} sinh r dr = 2 pi e^{-a}/a
a = 1.3
val = integrate_surface(SurfaceKind.HYPERBOLIC,
                        lambda g1, g2: np.exp(-a * np.cosh(g1)), budget,
                        decay=DecayHint("gaussian", rate=a / 2.5, bound=1.0),
                        vectorized=True)
print(f"hyperbolic exp(-a cosh r) {val:.12f} vs {2 * math.pi * math.exp(-a) / a:.12f}")
