"""Verification suites: named batteries of numerical identity checks.

Each suite returns CheckResult rows; nothing here prints or exits.  The
checks compare two independently computed quantities (closed form vs
quadrature, series vs integral, image sum vs eigenfunction sum), so a pass
certifies both routes at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _MODELS, OneFormValue, Point, SurfaceKind, distance
from .hyperbolic import _h2_mckean, _h2_spectral
from .kernels import (FormField, _k0_dist, _k1_apart, _radial_edges,
                      apply_k0, apply_k1, heat_residual, k0, k1)
from .quadrature import DecayHint, ToleranceBudget
from .quotient import (CoveringGroupSpec, GroupElement, QuotientSurface, act,
                       k0_quotient, torus_fourier_oracle)
from .specfun import RadialProfile, _roundtrip

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "PROFILES"]

_SURFACES = (SurfaceKind.EUCLIDEAN, SurfaceKind.SPHERE, SurfaceKind.HYPERBOLIC)

# Named radial profiles for the Mehler-Fock checks and the transform command.
# Both vanish at the origin like r times an analytic function of r^2, the
# regularity a radial 1-form component must have there; the transform pair
# inverts exactly on that class (spectral data decays like exp(-pi rho)).
# r exp(-r^2) <= 1.4 exp(-0.9 r^2) since max of r exp(-r^2/10) is ~1.36.
PROFILES = {
    "gaussian": RadialProfile(fn=lambda r: r * math.exp(-r * r),
                              decay=DecayHint("gaussian", rate=0.9, bound=1.4),
                              name="gaussian"),
    "cubic": RadialProfile(fn=lambda r: r ** 3 * math.exp(-r * r),
                           decay=DecayHint("gaussian", rate=0.8, bound=5.0),
                           name="cubic"),
}


@dataclass(frozen=True)
class CheckResult:
    """One verification row: a measured error against its tolerance."""

    name: str
    measured: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.tol


def _tol(default: float, override: float | None) -> float:
    return default if override is None else override


def _suite_normalization(tol=None):
    out = []
    for kind in _SURFACES:
        for t in (0.1, 1.0):
            radius = _radial_edges(kind, t, 1e-12)[-1]
            nodes, weights = np.polynomial.legendre.leggauss(60)
            r = 0.5 * radius * (nodes + 1.0)
            w = 0.5 * radius * weights
            vals = _k0_dist(kind, r, t, ToleranceBudget(abs_tol=1e-12))[0]
            area = _MODELS[kind].S_arr(r)
            mass = 2.0 * math.pi * float(np.sum(w * vals * area))
            out.append(CheckResult(f"normalization[{kind.value},t={t}]",
                                   abs(mass - 1.0), _tol(1e-6, tol)))
    return out


def _sphere_pair_distances(x, u, th):
    """Geodesic distances from x to the grid (u = cos(polar angle), theta)."""
    cu = math.cos(x.c1) * u
    su = math.sin(x.c1) * np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    cosd = cu[:, None] + su[:, None] * np.cos(x.c2 - th)[None, :]
    return np.arccos(np.clip(cosd, -1.0, 1.0))


def _suite_semigroup(tol=None):
    out = []
    s, t = 0.2, 0.3
    budget = ToleranceBudget(abs_tol=1e-12)
    u, w = np.polynomial.legendre.leggauss(64)
    th = 2.0 * math.pi * np.arange(128) / 128.0
    dth = 2.0 * math.pi / 128.0
    for x, y in [(Point("sphere", 0.4, 0.0), Point("sphere", 1.1, 0.8)),
                 (Point("sphere", 0.9, 2.0), Point("sphere", 2.3, 5.0)),
                 (Point("sphere", 1.6, 0.3), Point("sphere", 2.9, 3.3))]:
        kxz = _k0_dist(SurfaceKind.SPHERE, _sphere_pair_distances(x, u, th), s,
                       budget)[0]
        kzy = _k0_dist(SurfaceKind.SPHERE, _sphere_pair_distances(y, u, th), t,
                       budget)[0]
        composed = float(np.sum(w[:, None] * kxz * kzy)) * dth
        direct = k0("sphere", x, y, s + t, budget).value
        out.append(CheckResult(
            f"semigroup[sphere,x=({x.c1},{x.c2}),y=({y.c1},{y.c2})]",
            abs(composed - direct), _tol(1e-4, tol)))
    return out


def _suite_residual(tol=None):
    out = []
    budget = ToleranceBudget(abs_tol=1e-11)
    t_mid = 0.45
    cases = [("plane", Point("plane", 0.3, 0.1), Point("plane", 1.1, 0.9)),
             ("sphere", Point("sphere", 0.5, 0.2), Point("sphere", 1.3, 1.0)),
             ("hyperbolic", Point("hyperbolic", 0.4, 0.3),
              Point("hyperbolic", 1.2, 1.1))]
    for kind, x0, xp in cases:
        fields0 = [FormField(0, lambda p, T=T, k=kind: k0(k, x0, p, T, budget).value)
                   for T in (t_mid - 1e-3, t_mid, t_mid + 1e-3)]
        out.append(CheckResult(f"residual[{kind},degree=0]",
                               heat_residual(kind, fields0, xp, 1e-3, 1e-2),
                               _tol(1e-3, tol)))
        vec = np.array([0.6, 0.8])

        def omega(p, T, k=kind):
            row = vec @ k1(k, x0, p, T, budget).matrix.as_array()
            return OneFormValue(float(row[0]), float(row[1]))

        fields1 = [FormField(1, lambda p, T=T: omega(p, T))
                   for T in (t_mid - 1e-3, t_mid, t_mid + 1e-3)]
        out.append(CheckResult(f"residual[{kind},degree=1]",
                               heat_residual(kind, fields1, xp, 1e-3, 1e-2),
                               _tol(1e-3, tol)))
    return out


def _suite_dual_h2(tol=None):
    """The served McKean route against the spectral oracle on H2.

    Per (r, t): K0 against the release tolerance, then K0, G, G_d and the
    k1 matrix each against the two routes' summed err_est.
    """
    out = []
    budget = ToleranceBudget(abs_tol=1e-9)
    rs = np.linspace(0.1, 3.0, 10)
    x = Point("hyperbolic", 0.3, 0.2)
    for t in np.linspace(0.1, 2.0, 10):
        t = float(t)
        spec, spec_err, _, _ = _h2_spectral(rs, t, budget, generator=True)
        mck, mck_err, _, _ = _h2_mckean(rs, t, budget, generator=True)
        for i, r in enumerate(rs):
            at = f"r={r:.3g},t={t:.3g}"
            diff = np.abs(spec[:, i] - mck[:, i])
            out.append(CheckResult(f"dual-h2[{at}]", float(diff[0]), _tol(1e-6, tol)))
            for name, value, err in zip(("K0", "G", "G_d"), diff,
                                        spec_err + mck_err):
                out.append(CheckResult(f"dual-h2-{name}[{at}]", float(value),
                                       _tol(float(err), tol)))
            y = Point("hyperbolic", 0.3 + float(r), 0.2)
            served = _k1_apart(SurfaceKind.HYPERBOLIC, x, y, float(r), t, budget)
            oracle = _k1_apart(SurfaceKind.HYPERBOLIC, x, y, float(r), t, budget,
                               _h2_spectral)
            gap = np.abs(served.matrix.as_array() - oracle.matrix.as_array()).max()
            out.append(CheckResult(f"dual-h2-k1[{at}]", float(gap),
                                   _tol(served.err_est + oracle.err_est, tol)))
    return out


def _suite_euclid_k1(tol=None):
    out = []
    rng = np.random.default_rng(2026)
    budget = ToleranceBudget(abs_tol=1e-12)
    for i in range(100):
        r1, r2 = rng.uniform(0.2, 3.0, 2)
        th1, th2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        t = rng.uniform(0.05, 2.0)
        x = Point("plane", float(r1), float(th1))
        y = Point("plane", float(r2), float(th2))
        val = k1("plane", x, y, t, budget).matrix.as_array()
        d = distance("plane", x, y)
        kern = math.exp(-d * d / (4.0 * t)) / (4.0 * math.pi * t)
        c, s = math.cos(th1 - th2), math.sin(th1 - th2)
        ref = kern * np.array([[c, s], [-s, c]])
        out.append(CheckResult(f"euclid-k1[{i}]",
                               float(np.max(np.abs(val - ref))),
                               _tol(1e-8, tol)))
    return out


def _suite_intertwine(tol=None):
    out = []
    t = 0.5
    h = 1e-4
    probes = [(0.8, 0.2), (1.5, 1.1)]
    cases = [
        ("cos", lambda p: math.cos(p.c1),
         lambda p: OneFormValue(-math.sin(p.c1), 0.0)),
        ("p2", lambda p: 0.5 * (3.0 * math.cos(p.c1) ** 2 - 1.0),
         lambda p: OneFormValue(-3.0 * math.cos(p.c1) * math.sin(p.c1), 0.0)),
    ]
    for name, f, df in cases:
        ev0 = apply_k0("sphere", FormField(0, f), t)
        ev1 = apply_k1("sphere", FormField(1, df), t)
        worst = 0.0
        for phi, th in probes:
            da = (ev0.fn(Point("sphere", phi + h, th))
                  - ev0.fn(Point("sphere", phi - h, th))) / (2.0 * h)
            db = (ev0.fn(Point("sphere", phi, th + h))
                  - ev0.fn(Point("sphere", phi, th - h))) / (2.0 * h) / math.sin(phi)
            v = ev1.fn(Point("sphere", phi, th))
            worst = max(worst, abs(da - v.a), abs(db - v.b))
        out.append(CheckResult(f"intertwine[sphere,{name},t={t}]", worst,
                               _tol(1e-4, tol)))
    return out


def _suite_tiling(tol=None):
    out = []
    lattice = CoveringGroupSpec.euclidean_lattice((1.0, 0.0), (0.0, 1.0))
    torus = QuotientSurface.from_group(lattice)
    origin = Point("plane", 0.0, 0.0)
    budget = ToleranceBudget(abs_tol=1e-12)
    for t in (0.1, 0.25, 1.0):
        for a in np.linspace(0.0, 0.8, 5):
            for b in np.linspace(0.0, 0.8, 5):
                y = Point("plane", math.hypot(a, b), math.atan2(b, a))
                image = k0_quotient(torus, origin, y, t, budget)
                fourier = torus_fourier_oracle(lattice, origin, y, t, budget)
                out.append(CheckResult(
                    f"tiling-theta[t={t},y=({a:.1f},{b:.1f})]",
                    abs(image - fourier), _tol(1e-10, tol)))
    out.append(CheckResult("tiling-longtime[t=20]",
                           abs(k0_quotient(torus, origin, origin, 20.0) - 1.0),
                           _tol(1e-10, tol)))
    x = Point("plane", 0.3, 0.4)
    y = Point("plane", 0.55, 2.2)
    base = k0_quotient(torus, x, y, 0.3, budget)
    for g in [GroupElement(lattice, 1, 0), GroupElement(lattice, -2, 1)]:
        moved = k0_quotient(torus, x, torus.reduce(act(g, y)), 0.3, budget)
        out.append(CheckResult(f"tiling-periodicity[g=({g.k1},{g.k2})]",
                               abs(base - moved), _tol(1e-12, tol)))
    return out


def _suite_mehler_fock(tol=None):
    budget = ToleranceBudget(abs_tol=1e-7)
    radii = (0.3, 0.7, 1.1, 1.5, 2.0, 2.4)
    return [CheckResult(f"mehler-fock-roundtrip[{name}]",
                        _roundtrip(PROFILES[name], radii, budget)[1],
                        _tol(1e-4, tol))
            for name in ("gaussian", "cubic")]


_SUITES = {
    "normalization": _suite_normalization,
    "semigroup": _suite_semigroup,
    "residual": _suite_residual,
    "dual-h2": _suite_dual_h2,
    "euclid-k1": _suite_euclid_k1,
    "intertwine": _suite_intertwine,
    "tiling": _suite_tiling,
    "mehler-fock": _suite_mehler_fock,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str, tol: float | None = None) -> list[CheckResult]:
    """All checks of one suite (or every suite for "all"), in a fixed order.

    tol, when given, replaces the default tolerance of every check; it only
    moves the pass threshold, never the internal computation budgets.
    """
    if name == "all":
        rows = []
        for key in _SUITES:
            rows.extend(_SUITES[key](tol))
        return rows
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{', '.join(SUITE_NAMES)}")
    return _SUITES[name](tol)
