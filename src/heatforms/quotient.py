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
from .geometry import (_TWO_PI, BiTensor1, Point, SurfaceKind, _embed,
                       _h2_distance, distance)
from .hyperbolic import _h2_k0_majorant
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
        if not all(map(math.isfinite, v1 + v2)):
            raise DomainError("lattice generators must be finite")
        det = v1[0] * v2[1] - v1[1] * v2[0]
        scale = math.hypot(*v1) * math.hypot(*v2)
        if scale == 0.0 or abs(det) <= 1e-12 * scale:
            raise DomainError("lattice generators must be linearly independent")
        return cls("euclidean_lattice", SurfaceKind.EUCLIDEAN, v1, v2)

    @classmethod
    def euclidean_cyclic(cls, v) -> "CoveringGroupSpec":
        v = (float(v[0]), float(v[1]))
        if not all(map(math.isfinite, v)):
            raise DomainError("cyclic generator must be finite")
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
    return Point(SurfaceKind.HYPERBOLIC, *_boost(_embed(p), a))


def _boost(xs: tuple[float, float, float], a: float) -> tuple[float, float]:
    """Polar coordinates (r, theta), theta not yet reduced mod 2 pi, of the
    hyperboloid point xs boosted by a in the x0-x1 plane."""
    x0, x1, x2 = xs
    ca, sa = math.cosh(a), math.sinh(a)
    y0, y1 = ca * x0 + sa * x1, sa * x0 + ca * x1
    return math.acosh(max(1.0, y0)), math.atan2(x2, y1)


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


def _images(group: CoveringGroupSpec, x: Point, y: Point, radius: float):
    """(k1, k2, dist): integer coordinates of every g with
    d(x, g y) <= radius, and those distances, as arrays in the order of
    enumerate_elements (by squared integer norm, then lexicographic).

    Flat images are Cartesian translates of y, filtered and ordered with
    array operations.  On the hyperbolic cylinder one float loop boosts y
    along the axis and measures each image with the same operations, in the
    same order, as act and then distance, so it gets their bits.
    """
    if group.variant == "trivial":
        d = distance(group.base, x, y)
        keep = np.array([0] if d <= radius else [], dtype=int)
        return keep, keep, np.full(len(keep), d)
    if group.variant == "hyperbolic_cyclic":
        d0 = distance(group.base, x, y)
        k_max = int(math.ceil((radius + d0) / group.ell)) + 1
        if 2 * k_max + 1 > _MAX_ELEMENTS:
            raise EnumerationOverflowError(
                f"radius {radius} implies more than {_MAX_ELEMENTS} candidates")
        ys = _embed(y)
        ks, dists = [], []
        for k in sorted(range(-k_max, k_max + 1), key=lambda k: (k * k, k)):
            c1, c2 = _boost(ys, k * group.ell)
            d = _h2_distance(x.c1, c1, x.c2 - c2 % _TWO_PI)
            if d <= radius:
                ks.append(k)
                dists.append(d)
        return np.array(ks, dtype=int), np.zeros(len(ks), dtype=int), np.array(dists)
    dx = x.c1 * math.cos(x.c2) - y.c1 * math.cos(y.c2)
    dy = x.c1 * math.sin(x.c2) - y.c1 * math.sin(y.c2)
    if group.variant == "euclidean_cyclic":
        vx, vy = group.v1
        length = math.hypot(vx, vy)
        center = (dx * vx + dy * vy) / length ** 2
        half = radius / length + 1.0
        k_lo, k_hi = int(math.floor(center - half)), int(math.ceil(center + half))
        if k_hi - k_lo + 1 > _MAX_ELEMENTS:
            raise EnumerationOverflowError(
                f"radius {radius} implies more than {_MAX_ELEMENTS} candidates")
        n1 = np.arange(k_lo, k_hi + 1)
        dist = np.hypot(dx - n1 * vx, dy - n1 * vy)
        mask = dist <= radius
        n1, dist = n1[mask], dist[mask]
        order = np.lexsort((n1, n1 * n1))
        return n1[order], np.zeros(len(n1), dtype=int), dist[order]
    # The box of integer coordinates within radius of the real ones, from
    # the rows (e, -b) / det and (-c, a) / det of the inverse generator matrix.
    (a, c), (b, e) = group.v1, group.v2
    det = a * e - b * c
    lo, hi = [], []
    for p, q in ((e, -b), (-c, a)):
        center = (p * dx + q * dy) / det
        half = radius * math.hypot(p, q) / abs(det) + 1e-9
        lo.append(math.floor(center - half))
        hi.append(math.ceil(center + half))
    count = (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1)
    if count > _MAX_ELEMENTS:
        raise EnumerationOverflowError(
            f"radius {radius} implies {count} candidates, over the "
            f"{_MAX_ELEMENTS} guard")
    n1, n2 = np.meshgrid(np.arange(lo[0], hi[0] + 1),
                         np.arange(lo[1], hi[1] + 1), indexing="ij")
    n1 = n1.ravel()
    n2 = n2.ravel()
    img = group.matrix @ np.vstack([n1, n2])
    dist = np.hypot(dx - img[0], dy - img[1])
    mask = dist <= radius
    n1, n2, dist = n1[mask], n2[mask], dist[mask]
    order = np.lexsort((n2, n1, n1 * n1 + n2 * n2))
    return n1[order], n2[order], dist[order]


def enumerate_elements(group: CoveringGroupSpec, x: Point, y: Point,
                       radius: float) -> list[GroupElement]:
    """All g with distance(x, act(g, y)) <= radius, in a fixed order
    (by squared integer norm, then lexicographic): the index arrays of the
    image sums, each pair made a GroupElement."""
    radius = float(radius)
    if not (math.isfinite(radius) and radius > 0.0):
        raise DomainError("enumeration radius must be positive")
    if x.kind is not group.base or y.kind is not group.base:
        raise KindMismatchError("group and points live on different surfaces")
    k1, k2, _ = _images(group, x, y, radius)
    return [GroupElement(group, a, b) for a, b in zip(k1.tolist(), k2.tolist())]


def _series_tail(term, j: int, ratio) -> float:
    """Upper bound on sum_{i >= j} term(i) for positive terms.

    ratio(i) bounds term(k + 1) / term(k) for every k >= i and does not
    increase with i (math.inf where no such bound holds yet).  The terms are
    summed until one falls to 1e-8 of the sum with rho = ratio(i) < 1; all
    later terms are then at most the geometric series term(i) rho^n, and
    its sum closes the bound.  A further 1e-12 of the whole covers the
    roundoff of at most 400 terms and their sum.  math.inf if 400 terms do
    not get there.
    """
    total = 0.0
    for i in range(j, j + 400):
        cur = term(i)
        total += cur
        rho = ratio(i)
        if cur <= 1e-8 * total and rho < 1.0:
            return (total + cur * rho / (1.0 - rho)) * (1.0 + 1e-12)
    return math.inf


def _ring(m: int, pad: float) -> float:
    """Area of the ring m - pad <= |p| < m + 1 + pad: times 1/cell, a bound
    on the lattice points in the ring m <= |p| < m + 1."""
    return math.pi * ((m + 1.0 + pad) ** 2 - max(0.0, m - pad) ** 2)


def _gaussian_ratio(a: float, pad: float):
    """ratio for _series_tail of terms c(m) e^{-a m^2} with
    c(m + 1) / c(m) <= (2m + 3) / (2m + 1) once m >= pad: true of _ring's
    count, (2m + 1)(2 pad + 1) pi there, and of a constant count (pad = 0)."""
    def ratio(m: int) -> float:
        if m < pad:
            return math.inf
        return (2 * m + 3) / (2 * m + 1) * math.exp(-a * (2 * m + 1))
    return ratio


def _euclid_tail(group: CoveringGroupSpec, radius: float, t: float) -> float:
    """Bound on the image sum beyond the enumeration radius: ring counting
    times the kernel value at the inner ring edge, summed over the rings
    from floor(radius) out and closed by _series_tail."""
    if group.variant == "euclidean_lattice":
        (a, c), (b, e) = group.v1, group.v2
        pad = 0.5 * (math.hypot(a, c) + math.hypot(b, e))
        area = abs(a * e - b * c)

        def count(m):
            return _ring(m, pad) / area
    else:
        pad = 0.0
        length = math.hypot(*group.v1)

        def count(m):
            return 2.0 * (1.0 + 1.0 / length)
    return _series_tail(
        lambda m: count(m) * math.exp(-m * m / (4.0 * t)) / (_FOUR_PI * t),
        math.floor(radius), _gaussian_ratio(1.0 / (4.0 * t), pad))


def _h2_tail(group: CoveringGroupSpec, d0: float, radius: float, t: float) -> float:
    """Bound on the image sum beyond the enumeration radius on the
    hyperbolic cylinder: every image in the box |k| <= k_box counts at the
    majorant's value at the radius, and the two images at each k beyond it
    at its value at k ell - d0 <= d(x, g y).

    The majorant is e^{-s^2/4t} (a s + b) over a non-decreasing sqrt(sinh s)
    (hyperbolic._h2_k0_majorant), so its ratio over one step ell is at most
    e^{-(2 s ell + ell^2)/4t} (1 + ell/s), which falls with s.
    """
    ell = group.ell
    k_box = int(math.ceil((radius + d0) / ell))

    def ratio(k: int) -> float:
        s = k * ell - d0
        return math.exp(-(2.0 * s * ell + ell * ell) / (4.0 * t)) * (1.0 + ell / s)
    return ((2 * k_box + 1) * _h2_k0_majorant(max(radius, 1e-6), t)
            + _series_tail(lambda k: 2.0 * _h2_k0_majorant(k * ell - d0, t),
                           k_box + 1, ratio))


def _fourier_tail(pad: float, rate: float, k_rad: float) -> float:
    """Bound on the dual-lattice Fourier sum beyond |k| >= k_rad: rings of
    at most _ring * area dual points (the dual cell has area 1/area), each
    at most e^{-rate |k|^2} / area."""
    return _series_tail(lambda m: _ring(m, pad) * math.exp(-rate * m * m),
                        math.floor(k_rad), _gaussian_ratio(rate, pad))


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
    """(value, err_est, terms, radius) behind k0_quotient.

    The image sum is taken straight from the distances _images returns, in
    enumerate_elements' order: one vectorized Gaussian sum on flat
    quotients, one McKean pass (_k0_dist) over every image on the
    hyperbolic cylinder.  No GroupElement or image Point is built.
    """
    t = _as_time(t)
    if x.kind is not q.base or y.kind is not q.base:
        raise KindMismatchError("points do not live on the quotient's base")
    if q.group.variant == "trivial":
        value, err, _, _ = _k0_dist(q.base, distance(q.base, x, y), t, budget)
        return value, err, 1, 0.0
    tol = budget.abs_tol
    d0 = distance(q.base, x, y)
    radius, tail = _truncation(q.group, d0, t, 0.25 * tol)
    _, _, dists = _images(q.group, x, y, radius)
    n = len(dists)
    if q.group.variant == "hyperbolic_cyclic":
        # The identity is always among the images, since radius > d0; each
        # image is held to its own share.
        values, err, _, _ = _k0_dist(q.base, dists, t, budget.part(0.5 / n))
        return math.fsum(values), tail + n * err, n, radius
    total = float(np.sum(np.exp(-dists * dists / (4.0 * t)))) / (_FOUR_PI * t)
    return total, tail, n, radius


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

    k_rad, _ = solve_radius(lambda k: _fourier_tail(pad, rate, k),
                            0.25 * tol, max(1.0, pad), 1.2)
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
