"""Heat kernels on quotient surfaces by covering-group image sums.

A quotient M = U/G of a model surface U by a discrete group G of
orientation-preserving isometries inherits its heat kernel as the sum of the
base kernel over one orbit: K_M(x, y) = sum_g K_U(x, g y).  Implemented
covering groups are the abelian ones with computable orbits: rank-2 lattices
and cyclic translation groups on the plane (torus, flat cylinder) and cyclic
translation along a geodesic on the hyperbolic plane (hyperbolic cylinder).

Truncation is by distance: elements with d(x, g y) <= R enter the sum and the
remainder is bounded by counting estimates times a pointwise kernel majorant,
Gaussian in the distance on both surfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, EnumerationOverflowError, KindMismatchError,
                     UnsupportedGroupError)
from .geometry import BiTensor1, Point, SurfaceKind, distance
from .hyperbolic import _h2_k0_majorant, _h2_mckean
from .kernels import Kernel1Value, _as_time, _k0_dist, k1 as _k1_base
from .quadrature import DEFAULT_BUDGET, ToleranceBudget, solve_radius

__all__ = [
    "CoveringGroupSpec",
    "GroupElement",
    "QuotientSurface",
    "act",
    "enumerate_elements",
    "k0_quotient",
    "k1_quotient_flat",
    "torus_fourier_oracle",
]

_MAX_ELEMENTS = 10 ** 7
_FOUR_PI = 4.0 * math.pi
_SNAP = 1e-12


@dataclass(frozen=True)
class CoveringGroupSpec:
    """Generator data for a covering group; build via the classmethods."""

    variant: str
    base: SurfaceKind
    v1: tuple[float, float] | None = None
    v2: tuple[float, float] | None = None
    ell: float | None = None

    @classmethod
    def euclidean_lattice(cls, v1, v2) -> "CoveringGroupSpec":
        v1 = (float(v1[0]), float(v1[1]))
        v2 = (float(v2[0]), float(v2[1]))
        det = v1[0] * v2[1] - v1[1] * v2[0]
        scale = math.hypot(*v1) * math.hypot(*v2)
        if scale == 0.0 or abs(det) <= 1e-12 * scale:
            raise DomainError("lattice generators must be linearly independent")
        return cls("euclidean_lattice", SurfaceKind.EUCLIDEAN, v1, v2)

    @classmethod
    def euclidean_cyclic(cls, v) -> "CoveringGroupSpec":
        v = (float(v[0]), float(v[1]))
        if math.hypot(*v) <= 0.0:
            raise DomainError("cyclic generator must displace by a positive length")
        return cls("euclidean_cyclic", SurfaceKind.EUCLIDEAN, v)

    @classmethod
    def hyperbolic_cyclic(cls, ell: float) -> "CoveringGroupSpec":
        ell = float(ell)
        if not (math.isfinite(ell) and ell > 0.0):
            raise DomainError("translation length must be positive")
        return cls("hyperbolic_cyclic", SurfaceKind.HYPERBOLIC, ell=ell)

    @classmethod
    def trivial(cls, kind) -> "CoveringGroupSpec":
        return cls("trivial", SurfaceKind.parse(kind))

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.v1[0], self.v2[0]], [self.v1[1], self.v2[1]]])

    def identity(self) -> "GroupElement":
        return GroupElement(self, 0, 0)


@dataclass(frozen=True)
class GroupElement:
    """Integer coordinates in an abelian covering group; (k1,) for cyclic
    variants, (k1, k2) for the lattice."""

    group: CoveringGroupSpec
    k1: int
    k2: int = 0

    def compose(self, other: "GroupElement") -> "GroupElement":
        if other.group != self.group:
            raise KindMismatchError("elements of different groups do not compose")
        return GroupElement(self.group, self.k1 + other.k1, self.k2 + other.k2)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, -self.k1, -self.k2)


def _cart(p: Point) -> np.ndarray:
    return np.array([p.c1 * math.cos(p.c2), p.c1 * math.sin(p.c2)])


def _polar(v) -> Point:
    return Point(SurfaceKind.EUCLIDEAN, math.hypot(v[0], v[1]),
                 math.atan2(v[1], v[0]))


def _axis_translate(p: Point, a: float) -> Point:
    """Translate a hyperbolic point by length a along the theta = 0 geodesic
    (a Lorentz boost of the hyperboloid in the x0-x1 plane)."""
    sh, ch = math.sinh(p.c1), math.cosh(p.c1)
    x0, x1, x2 = ch, sh * math.cos(p.c2), sh * math.sin(p.c2)
    ca, sa = math.cosh(a), math.sinh(a)
    y0, y1 = ca * x0 + sa * x1, sa * x0 + ca * x1
    return Point(SurfaceKind.HYPERBOLIC, math.acosh(max(1.0, y0)),
                 math.atan2(x2, y1))


def act(g: GroupElement, p: Point) -> Point:
    """Apply a covering transformation to a point."""
    group = g.group
    if p.kind is not group.base:
        raise KindMismatchError("group and point live on different surfaces")
    if group.variant == "trivial":
        return p
    if group.variant == "euclidean_lattice":
        shift = g.k1 * np.asarray(group.v1) + g.k2 * np.asarray(group.v2)
        return _polar(_cart(p) + shift)
    if group.variant == "euclidean_cyclic":
        return _polar(_cart(p) + g.k1 * np.asarray(group.v1))
    return _axis_translate(p, g.k1 * group.ell)


def _reduce_point(group: CoveringGroupSpec, p: Point) -> Point:
    if group.variant == "trivial":
        return p
    if group.variant == "euclidean_lattice":
        coef = np.linalg.solve(group.matrix, _cart(p))
        frac = coef - np.floor(coef)
        frac = np.where(frac > 1.0 - _SNAP, 0.0, frac)
        return _polar(group.matrix @ frac)
    if group.variant == "euclidean_cyclic":
        v = np.asarray(group.v1)
        length = float(np.hypot(*v))
        unit = v / length
        x = _cart(p)
        along = float(x @ unit) % length
        if along > length * (1.0 - _SNAP):
            along = 0.0
        perp = x - float(x @ unit) * unit
        return _polar(along * unit + perp)
    sh = math.sinh(p.c1)
    x1, x2 = sh * math.cos(p.c2), sh * math.sin(p.c2)
    cw = math.sqrt(1.0 + x2 * x2)
    u = math.asinh(x1 / cw)
    u_red = u % group.ell
    if u_red > group.ell * (1.0 - _SNAP):
        u_red = 0.0
    y0, y1 = math.cosh(u_red) * cw, math.sinh(u_red) * cw
    return Point(SurfaceKind.HYPERBOLIC, math.acosh(max(1.0, y0)),
                 math.atan2(x2, y1))


@dataclass(frozen=True)
class QuotientSurface:
    """A quotient of a model surface by a covering group.

    reduce maps any point to the fixed fundamental-domain representative of
    its orbit; reducing twice equals reducing once.
    """

    base: SurfaceKind
    group: CoveringGroupSpec

    def __post_init__(self):
        base = SurfaceKind.parse(self.base)
        object.__setattr__(self, "base", base)
        if base is not self.group.base:
            raise KindMismatchError("quotient base must match the group's surface")

    @classmethod
    def from_group(cls, group: CoveringGroupSpec) -> "QuotientSurface":
        return cls(group.base, group)

    def reduce(self, p: Point) -> Point:
        if p.kind is not self.base:
            raise KindMismatchError("point lives on a different surface")
        return _reduce_point(self.group, p)


def enumerate_elements(group: CoveringGroupSpec, x: Point, y: Point,
                       radius: float) -> list[GroupElement]:
    """All g with distance(x, act(g, y)) <= radius, in a fixed order
    (by squared integer norm, then lexicographic)."""
    radius = float(radius)
    if not (math.isfinite(radius) and radius > 0.0):
        raise DomainError("enumeration radius must be positive")
    if x.kind is not group.base or y.kind is not group.base:
        raise KindMismatchError("group and points live on different surfaces")
    if group.variant == "trivial":
        e = group.identity()
        return [e] if distance(group.base, x, y) <= radius else []
    if group.variant == "hyperbolic_cyclic":
        d0 = distance(group.base, x, y)
        k_max = int(math.ceil((radius + d0) / group.ell)) + 1
        if 2 * k_max + 1 > _MAX_ELEMENTS:
            raise EnumerationOverflowError(
                f"radius {radius} implies more than {_MAX_ELEMENTS} candidates")
        out = []
        for k in sorted(range(-k_max, k_max + 1), key=lambda k: (k * k, k)):
            g = GroupElement(group, k)
            if distance(group.base, x, act(g, y)) <= radius:
                out.append(g)
        return out
    diff = _cart(x) - _cart(y)
    if group.variant == "euclidean_cyclic":
        v = np.asarray(group.v1)
        length = float(np.hypot(*v))
        center = float(diff @ v) / length ** 2
        half = radius / length + 1.0
        k_lo, k_hi = int(math.floor(center - half)), int(math.ceil(center + half))
        if k_hi - k_lo + 1 > _MAX_ELEMENTS:
            raise EnumerationOverflowError(
                f"radius {radius} implies more than {_MAX_ELEMENTS} candidates")
        ks = np.arange(k_lo, k_hi + 1)
        dist = np.hypot(diff[0] - ks * v[0], diff[1] - ks * v[1])
        keep = sorted((int(k) for k in ks[dist <= radius]),
                      key=lambda k: (k * k, k))
        return [GroupElement(group, k) for k in keep]
    mat = group.matrix
    inv = np.linalg.inv(mat)
    center = inv @ diff
    half = radius * np.linalg.norm(inv, axis=1) + 1e-9
    lo = np.floor(center - half).astype(int)
    hi = np.ceil(center + half).astype(int)
    count = (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1)
    if count > _MAX_ELEMENTS:
        raise EnumerationOverflowError(
            f"radius {radius} implies {count} candidates, over the "
            f"{_MAX_ELEMENTS} guard")
    n1, n2 = np.meshgrid(np.arange(lo[0], hi[0] + 1),
                         np.arange(lo[1], hi[1] + 1), indexing="ij")
    n1 = n1.ravel()
    n2 = n2.ravel()
    img = mat @ np.vstack([n1, n2])
    dist = np.hypot(diff[0] - img[0], diff[1] - img[1])
    mask = dist <= radius
    keep = sorted(zip(n1[mask].tolist(), n2[mask].tolist()),
                  key=lambda k: (k[0] * k[0] + k[1] * k[1], k[0], k[1]))
    return [GroupElement(group, a, b) for a, b in keep]


def _euclid_tail(group: CoveringGroupSpec, radius: float, t: float) -> float:
    """Bound on the image sum beyond the enumeration radius: ring counting
    times the kernel value at the inner ring edge."""
    if group.variant == "euclidean_lattice":
        v1 = math.hypot(*group.v1)
        v2 = math.hypot(*group.v2)
        pad = 0.5 * (v1 + v2)
        area = abs(float(np.linalg.det(group.matrix)))

        def count(m):
            outer = (m + 1.0 + pad) ** 2
            inner = max(0.0, m - pad) ** 2
            return math.pi * (outer - inner) / area
    else:
        length = math.hypot(*group.v1)

        def count(m):
            return 2.0 * (1.0 + 1.0 / length)
    total = 0.0
    m = math.floor(radius)
    for _ in range(400):
        term = count(m) * math.exp(-m * m / (4.0 * t)) / (_FOUR_PI * t)
        total += term
        m += 1
        if term <= 1e-8 * total or term == 0.0:
            break
    return total


def _h2_tail(group: CoveringGroupSpec, d0: float, radius: float, t: float) -> float:
    k_box = int(math.ceil((radius + d0) / group.ell))
    total = (2 * k_box + 1) * _h2_k0_majorant(max(radius, 1e-6), t)
    for k in range(k_box + 1, k_box + 400):
        term = 2.0 * _h2_k0_majorant(max(k * group.ell - d0, 1e-6), t)
        total += term
        if term <= 1e-8 * total:
            break
    return total


def _truncation(group: CoveringGroupSpec, d0: float, t: float,
                target: float) -> tuple[float, float]:
    """(radius, tail bound) with the tail at most target."""
    def tail(radius: float) -> float:
        if group.variant == "hyperbolic_cyclic":
            return _h2_tail(group, d0, radius, t)
        return _euclid_tail(group, radius, t)

    return solve_radius(tail, target, max(1.0, d0 + 4.0 * math.sqrt(t)), 1.2)


def _k0_quotient_full(q: QuotientSurface, x: Point, y: Point, t: float,
                      budget: ToleranceBudget):
    """(value, err_est, terms, radius) behind k0_quotient."""
    t = _as_time(t)
    if x.kind is not q.base or y.kind is not q.base:
        raise KindMismatchError("points do not live on the quotient's base")
    if q.group.variant == "trivial":
        val = _k0_dist(q.base, distance(q.base, x, y), t, budget)
        return val.value, val.err_est, 1, 0.0
    tol = budget.abs_tol
    d0 = distance(q.base, x, y)
    radius, tail = _truncation(q.group, d0, t, 0.25 * tol)
    els = enumerate_elements(q.group, x, y, radius)
    if q.group.variant == "hyperbolic_cyclic":
        # One McKean pass over every image (the identity is always among
        # them, since radius > d0), each held to its own share.
        rows, err, _, _ = _h2_mckean(
            [distance(q.base, x, act(g, y)) for g in els], t,
            budget.part(0.5 / len(els)))
        return math.fsum(rows[0]), tail + len(els) * err, len(els), radius
    diff = _cart(x) - _cart(y)
    if els:
        if q.group.variant == "euclidean_lattice":
            shifts = (np.array([[g.k1, g.k2] for g in els], dtype=float)
                      @ q.group.matrix.T)
        else:
            shifts = (np.array([[g.k1] for g in els], dtype=float)
                      * np.asarray(q.group.v1))
        dists = np.hypot(diff[0] - shifts[:, 0], diff[1] - shifts[:, 1])
        total = float(np.sum(np.exp(-dists * dists / (4.0 * t)))) / (_FOUR_PI * t)
    else:
        total = 0.0
    return total, tail, len(els), radius


def k0_quotient(q: QuotientSurface, x: Point, y: Point, t,
                budget: ToleranceBudget = DEFAULT_BUDGET) -> float:
    """Scalar heat kernel on the quotient, as the image sum over the covering
    group truncated with a bounded Gaussian tail."""
    value, _, _, _ = _k0_quotient_full(q, x, y, t, budget)
    return value


def k1_quotient_flat(q: QuotientSurface, x: Point, y: Point, t,
                     budget: ToleranceBudget = DEFAULT_BUDGET) -> Kernel1Value:
    """1-form heat kernel on flat quotients.

    Translations are the identity on Cartesian coframes, and in Cartesian
    components each image matrix is the image's scalar kernel times the
    identity, so the sum is S I with S the scalar quotient kernel; expressed
    back in the polar coframes it is S times the frame rotation.
    """
    if q.base is not SurfaceKind.EUCLIDEAN:
        raise UnsupportedGroupError(
            "1-form image sums need the frame transport of the covering "
            "transformations, which is only the identity for euclidean "
            "translations; non-euclidean quotients are not implemented")
    t = _as_time(t)
    if q.group.variant == "trivial":
        return _k1_base(q.base, x, y, t, budget)
    value, err, terms, radius = _k0_quotient_full(q, x, y, t, budget)
    dth = x.c2 - y.c2
    c, s = math.cos(dth), math.sin(dth)
    mat = BiTensor1(value * c, value * s, -value * s, value * c)
    return Kernel1Value(mat, 2.0 * err, terms, radius)


def torus_fourier_oracle(lattice: CoveringGroupSpec, x: Point, y: Point, t,
                         budget: ToleranceBudget = DEFAULT_BUDGET) -> float:
    """Torus heat kernel by its eigenfunction expansion over the dual lattice:
    (1/area) sum_k exp(-4 pi^2 |k|^2 t) cos(2 pi k . (x - y)).

    Fully independent of the image sum; the two are equal by the theta
    identity whenever both converge.
    """
    if lattice.variant != "euclidean_lattice":
        raise DomainError("the Fourier oracle needs a rank-2 lattice")
    t = _as_time(t)
    tol = budget.abs_tol
    mat = lattice.matrix
    area = abs(float(np.linalg.det(mat)))
    dual = np.linalg.inv(mat).T
    pad = 0.5 * (np.hypot(*dual[:, 0]) + np.hypot(*dual[:, 1]))
    rate = 4.0 * math.pi ** 2 * t

    def tail(k_rad: float) -> float:
        total = 0.0
        m = math.floor(k_rad)
        for _ in range(400):
            ring = math.pi * ((m + 1.0 + pad) ** 2
                              - max(0.0, m - pad) ** 2) * area
            term = ring * math.exp(-rate * m * m)
            total += term
            m += 1
            if term <= 1e-8 * total or term == 0.0:
                break
        return total / area

    k_rad, _ = solve_radius(tail, 0.25 * tol, max(1.0, pad), 1.2)
    half = k_rad * np.hypot(*mat).max() + 1.0
    lim = int(math.ceil(half))
    if (2 * lim + 1) ** 2 > _MAX_ELEMENTS:
        raise EnumerationOverflowError(
            f"dual sum would need {(2 * lim + 1) ** 2} candidates, over the "
            f"{_MAX_ELEMENTS} guard")
    m1, m2 = np.meshgrid(np.arange(-lim, lim + 1), np.arange(-lim, lim + 1),
                         indexing="ij")
    ks = dual @ np.vstack([m1.ravel(), m2.ravel()])
    norm2 = ks[0] ** 2 + ks[1] ** 2
    mask = norm2 <= k_rad * k_rad
    order = np.lexsort((m2.ravel()[mask], m1.ravel()[mask],
                        norm2[mask]))
    diff = _cart(x) - _cart(y)
    phase = 2.0 * math.pi * (ks[0][mask] * diff[0] + ks[1][mask] * diff[1])
    terms = np.exp(-rate * norm2[mask]) * np.cos(phase)
    return float(np.sum(terms[order])) / area
