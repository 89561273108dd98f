"""Heat kernels on quotient surfaces by covering-group image sums.

A quotient M = U/G of a model surface U by a discrete group G of
orientation-preserving isometries inherits its heat kernel as the sum of the
base kernel over one orbit: K_M(x, y) = sum_g K_U(x, g y).  Each implemented
group translates one chart of its cover, geometry._axis_chart: Cartesian on
the plane (torus, flat cylinder), Fermi coordinates about a geodesic on the
hyperbolic plane (hyperbolic cylinder); act, reduce and image sums use it.

Truncation is by distance: elements with d(x, g y) <= R enter the sum and the
remainder is bounded by counting estimates times a pointwise kernel majorant,
Gaussian in the distance on both surfaces.  R comes from the kernel and the
group alone, so every pair of points shares it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, EnumerationOverflowError, KindMismatchError,
                     UnsupportedGroupError)
from .geometry import (_EUCLIDEAN, _HYPERBOLIC, BiTensor1, Point, SurfaceKind,
                       _axis_chart, _axis_distance, _axis_point, distance)
from .hyperbolic import _h2_k0_majorant
from .kernels import Kernel1Value, _as_time, _k0_dist, k1 as _k1_base
from .quadrature import DEFAULT_BUDGET, ToleranceBudget, solve_radius
from .specfun import _EPS

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
    # the generators as translations of geometry._axis_chart: v1 (and v2) on
    # the plane, (ell, 0) on H2, none for the trivial group
    _shifts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shifts = ((self.ell, 0.0),) if self.ell is not None else (self.v1, self.v2)
        object.__setattr__(self, "_shifts", tuple(v for v in shifts if v is not None))

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
        return cls("euclidean_lattice", _EUCLIDEAN, v1, v2)

    @classmethod
    def euclidean_cyclic(cls, v) -> "CoveringGroupSpec":
        v = (float(v[0]), float(v[1]))
        if not all(map(math.isfinite, v)):
            raise DomainError("cyclic generator must be finite")
        if math.hypot(*v) <= 0.0:
            raise DomainError("cyclic generator must displace by a positive length")
        return cls("euclidean_cyclic", _EUCLIDEAN, v)

    @classmethod
    def hyperbolic_cyclic(cls, ell: float) -> "CoveringGroupSpec":
        ell = float(ell)
        if not (math.isfinite(ell) and ell > 0.0):
            raise DomainError("translation length must be positive")
        return cls("hyperbolic_cyclic", _HYPERBOLIC, ell=ell)

    @classmethod
    def trivial(cls, kind) -> "CoveringGroupSpec":
        return cls("trivial", SurfaceKind.parse(kind))

    @property
    def matrix(self) -> np.ndarray:
        return np.array(tuple(zip(*self._shifts)))  # a column per generator

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


def act(g: GroupElement, p: Point) -> Point:
    """Apply a covering transformation: add k1 s1 + k2 s2 to the chart point."""
    group = g.group
    if p.kind is not group.base:
        raise KindMismatchError("group and point live on different surfaces")
    if not group._shifts:
        return p
    a, b = _axis_chart(p)
    da = db = -0.0  # x + -0.0 is x, so a lone shift keeps its bits
    for k, (sa, sb) in zip((g.k1, g.k2), group._shifts):
        da, db = da + k * sa, db + k * sb
    return _axis_point(group.base, a + da, b + db)


def _reduce_point(group: CoveringGroupSpec, p: Point) -> Point:
    """The orbit's point with chart coefficients in [0, 1), 0 within _SNAP of 1."""
    shifts = group._shifts
    if not shifts:
        return p
    chart = _axis_chart(p)
    if len(shifts) == 2:
        coef = np.linalg.solve(group.matrix, chart)
        frac = coef - np.floor(coef)
        frac = np.where(frac > 1.0 - _SNAP, 0.0, frac)
        return _axis_point(group.base, *(group.matrix @ frac))
    # u mod ell on H2; numpy rounds as the flat cylinder's reduce always has
    (va, vb), = shifts
    length = float(np.hypot(va, vb))
    ua, ub = va / length, vb / length
    along = float(np.dot(chart, (ua, ub)))
    red = along % length
    if red > length * (1.0 - _SNAP):
        red = 0.0
    return _axis_point(group.base, red * ua + (chart[0] - along * ua),
                       red * ub + (chart[1] - along * ub))


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
    """(k1, k2, dist): integer coordinates of every g of a nontrivial group with
    d(x, g y) <= radius (k2 = 0 at rank 1), and those distances, as arrays in
    enumerate_elements' order (by squared integer norm, then lexicographic).

    The candidates are one box, refused over _MAX_ELEMENTS or past 2^53 (where
    floats stop being exact integers): k_i within radius |rho_i| of rho_i . D,
    for the chart difference D and the rows rho_i of the inverse generator
    matrix (v / |v|^2 at rank 1); on H2 as d >= |du - k ell|, the foot point on
    the axis being 1-Lipschitz.  A loop measures H2."""
    shifts = group._shifts
    (xa, xb), (ya, yb) = _axis_chart(x), _axis_chart(y)
    da, db = xa - ya, xb - yb
    if len(shifts) == 2:  # the rows of the inverse matrix, as (p, q) / div
        (a, c), (b, e) = shifts
        div, rows = a * e - b * c, ((e, -b), (-c, a))
    else:  # a unit row over |v|, so no |v|^2 underflows
        (a, c), = shifts
        div = math.hypot(a, c)
        rows = ((a / div, c / div),)
    lo, size = [], []
    for p, q in rows:  # floor and ceil in floats, so an infinite box meets the guard
        center = (p * da + q * db) / div
        half = radius * math.hypot(p, q) / abs(div) + 1e-9
        lo.append((center - half) // 1.0)
        size.append(-((-center - half) // 1.0) - lo[-1] + 1.0)
    count = math.prod(size)
    if not (count <= _MAX_ELEMENTS and max(map(abs, lo)) < 2.0 ** 53):
        raise EnumerationOverflowError(
            f"radius {radius} implies {count:.6g} candidates at coordinates up to "
            f"{max(map(abs, lo)):.3g}, over the {_MAX_ELEMENTS} guard or 2^53")
    ks = np.indices(tuple(map(int, size))).reshape(len(rows), -1)
    ks += np.array(lo, dtype=int)[:, None]
    img = group.matrix @ ks
    if group.base is _EUCLIDEAN:
        dist = np.hypot(da - img[0], db - img[1])
    else:  # the generator (ell, 0) moves u alone
        dist = np.array([_axis_distance(xb, yb, da - u) for u in img[0].tolist()])
    mask = dist <= radius
    ks, dist = ks.compress(mask, axis=1), dist[mask]
    n1, n2 = ks[0], (ks[1] if len(ks) == 2 else 0 * ks[0])
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
    if not group._shifts:
        return [group.identity()] if distance(group.base, x, y) <= radius else []
    k1, k2, _ = _images(group, x, y, radius)
    return [GroupElement(group, a, b) for a, b in zip(k1.tolist(), k2.tolist())]


def _series_tail(term, start, ratio) -> float:
    """Upper bound on the sum of positive term(m) over m = start, start + 1, ....

    ratio(m) bounds term(k + 1) / term(k) for every k >= m and does not increase
    with m (math.inf where no such bound holds yet).  The terms are summed until
    one falls to 1e-8 of the sum with rho = ratio(m) < 1; all later terms are
    then at most the geometric series term(m) rho^n, and its sum closes the
    bound.  A further 1e-12 of the whole covers the roundoff of at most 400
    terms and their sum.  math.inf if 400 terms do not get there.
    """
    total = 0.0
    for i in range(400):
        cur = term(start + i)
        total += cur
        rho = ratio(start + i)
        if cur <= 1e-8 * total and rho < 1.0:
            return (total + cur * rho / (1.0 - rho)) * (1.0 + 1e-12)
    return math.inf


def _ring(m: float, pad: float) -> float:
    """Area of the ring m - pad <= |p| < m + 1 + pad: times 1/cell, a bound
    on the lattice points in the ring m <= |p| < m + 1."""
    return math.pi * ((m + 1.0 + pad) ** 2 - max(0.0, m - pad) ** 2)


def _gaussian_ratio(a: float, pad: float):
    """ratio for _series_tail of terms c(m) e^{-a m^2} with
    c(m + 1) / c(m) <= (2m + 3) / (2m + 1) once m >= pad: true of _ring's
    count, (2m + 1)(2 pad + 1) pi there, and of the line's (pad = 0)."""
    def ratio(m: float) -> float:
        if m < pad:
            return math.inf
        return (2 * m + 3) / (2 * m + 1) * math.exp(-a * (2 * m + 1))
    return ratio


def _euclid_tail(group: CoveringGroupSpec, radius: float, t: float) -> float:
    """Bound on the image sum beyond the enumeration radius, for every pair:
    ring counting times the kernel value at the inner ring edge, summed over
    the rings m <= d < m + 1 from m = radius out and closed by _series_tail.
    Such a ring meets a line in two intervals of at most sqrt(2m + 1)."""
    if len(group._shifts) == 2:
        (a, c), (b, e) = group._shifts
        pad = 0.5 * (math.hypot(a, c) + math.hypot(b, e))
        area = abs(a * e - b * c)

        def count(m):
            return _ring(m, pad) / area
    else:
        pad, length = 0.0, math.hypot(*group.v1)

        def count(m):
            return 2.0 * (1.0 + math.sqrt(2 * m + 1) / length)
    return _series_tail(
        lambda m: count(m) * math.exp(-m * m / (4.0 * t)) / (_FOUR_PI * t),
        radius, _gaussian_ratio(1.0 / (4.0 * t), pad))


def _h2_tail(group: CoveringGroupSpec, radius: float, t: float) -> float:
    """Bound on the image sum beyond the enumeration radius R on the
    hyperbolic cylinder, for every pair.  Image k lies at least |du - k ell|
    away, the foot point on the axis being 1-Lipschitz: at most 2R/ell + 1
    images count at M(R), and the j-th past them on each side (j >= 0) at
    M(R + j ell).  More than _MAX_ELEMENTS of them raise EnumerationOverflowError.

    M = hyperbolic._h2_k0_majorant does not increase in s: its log-derivative
    a/(a s + b) - s/2t - coth(s)/2 is negative as b/a = 0.68 sqrt(t), and past
    its clamp at s = 300 while s^2 > 2t (from t = 3000 M is 0).  Its ratio over
    one step ell is at most e^{-(2 s ell + ell^2)/4t} (1 + ell/s)."""
    ell = group.ell
    count = 2.0 * radius / ell + 1.0
    if count > _MAX_ELEMENTS:
        raise EnumerationOverflowError(f"translation length {ell:.3g} puts over "
                                       f"{_MAX_ELEMENTS} images within R = {radius:.6g}")

    def ratio(j: int) -> float:
        s = radius + j * ell
        return math.exp(-(2.0 * s * ell + ell * ell) / (4.0 * t)) * (1.0 + ell / s)
    return (count * _h2_k0_majorant(radius, t)
            + _series_tail(lambda j: 2.0 * _h2_k0_majorant(radius + j * ell, t),
                           0, ratio))


def _fourier_tail(pad: float, rate: float, k_rad: float) -> float:
    """Bound on the dual-lattice Fourier sum beyond |k| >= k_rad: rings of
    at most _ring * area dual points (the dual cell has area 1/area), each
    at most e^{-rate |k|^2} / area."""
    return _series_tail(lambda m: _ring(m, pad) * math.exp(-rate * m * m),
                        math.floor(k_rad), _gaussian_ratio(rate, pad))


def _truncation(group: CoveringGroupSpec, t: float,
                target: float) -> tuple[float, float]:
    """(radius, tail bound) with the tail at most target, for every pair: the
    search starts where the tails' common Gaussian factor e^{-R^2/4t} / (4 pi t)
    alone meets the target (2 sqrt(t) at least) and grows R by 1.2."""
    gauss = max(_FOUR_PI * t * target, math.ulp(0.0))
    start = 2.0 * math.sqrt(t * max(1.0, -math.log(gauss)))
    tail = _h2_tail if group.base is _HYPERBOLIC else _euclid_tail
    return solve_radius(lambda r: tail(group, r, t), target, start, 1.2)


def _k0_quotient_full(q: QuotientSurface, x: Point, y: Point, t: float,
                      budget: ToleranceBudget):
    """(value, err_est, terms, radius) behind k0_quotient.

    The image sum is taken straight from the distances _images returns, in
    enumerate_elements' order: one vectorized Gaussian sum on flat
    quotients, one McKean pass (_k0_dist) over every image on the
    hyperbolic cylinder.  No GroupElement or image Point is built.  With no
    image within the radius the value is 0.0 and err_est the tail.
    """
    t = _as_time(t)
    if x.kind is not q.base or y.kind is not q.base:
        raise KindMismatchError("points do not live on the quotient's base")
    if not q.group._shifts:
        value, err, _, _ = _k0_dist(q.base, distance(q.base, x, y), t, budget)
        return value, err, 1, 0.0
    radius, tail = _truncation(q.group, t, 0.25 * budget.abs_tol)
    _, _, dists = _images(q.group, x, y, radius)
    n = len(dists)
    if n == 0:
        return 0.0, tail, 0, radius
    if q.base is _HYPERBOLIC:
        # each image is held to its own share
        values, err, _, _ = _k0_dist(q.base, dists, t, budget.part(0.5 / n))
        return math.fsum(values), tail + n * err, n, radius
    total = float(np.exp(dists * dists / (-4.0 * t)).sum()) / (_FOUR_PI * t)
    # each term rounds by a few ulps, the pairwise sum by log2(n) of the total
    return total, tail + (8.0 + math.log2(n)) * _EPS * total, n, radius


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
    if q.base is not _EUCLIDEAN:
        raise UnsupportedGroupError(
            "1-form image sums need the frame transport of the covering "
            "transformations, which is only the identity for euclidean "
            "translations; non-euclidean quotients are not implemented")
    t = _as_time(t)
    if not q.group._shifts:
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
    if len(lattice._shifts) != 2:
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
    ms = np.indices((2 * lim + 1, 2 * lim + 1)).reshape(2, -1) - lim
    ks = dual @ ms
    norm2 = ks[0] ** 2 + ks[1] ** 2
    mask = norm2 <= k_rad * k_rad
    order = np.lexsort((ms[1][mask], ms[0][mask], norm2[mask]))
    (xa, xb), (ya, yb) = _axis_chart(x), _axis_chart(y)
    phase = 2.0 * math.pi * (ks[0][mask] * (xa - ya) + ks[1][mask] * (xb - yb))
    terms = np.exp(-rate * norm2[mask]) * np.cos(phase)
    return float(np.sum(terms[order])) / area
