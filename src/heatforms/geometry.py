"""The three simply connected surfaces of constant curvature: points,
distances, distance derivatives, the Hodge star, and their embeddings.

Each model surface is the profile curve (C(r), S(r)) turned about the first
axis of R^3 (_MODELS): (1, r) for the plane, (cos r, sin r) for the sphere
and (cosh r, sinh r) for the hyperboloid, of curvature kappa = 0, +1, -1.
In geodesic polar coordinates (c1, c2) = (r, theta) about a base point
(colatitude on the sphere) the metric is dr^2 + S(r)^2 dtheta^2.
Frame-dependent quantities are expressed against the orthonormal coframe
(dr, S(r) dtheta); at a coordinate pole they are defined by continuous
extension along the theta = const ray, which the closed forms below
produce naturally.

Orientation fixes the Hodge star: the area form is dr wedge S dtheta, so
star dr = S dtheta and star (S dtheta) = -dr.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (CoincidentPointsError, CutLocusError, DecayHintError,
                     DomainError, KindMismatchError, NonconvergenceError)
from .quadrature import (DEFAULT_BUDGET, DecayHint, ToleranceBudget,
                         _area_tail, _max_change, refine_until_stable)

__all__ = [
    "SurfaceKind",
    "Point",
    "OneFormValue",
    "BiTensor1",
    "CUT_LOCUS_TOL",
    "distance",
    "distance_gradient",
    "mixed_distance_hessian",
    "hodge_star_1",
    "apply_i_plus_star",
    "integrate_surface",
]

# Sphere pairs with pi - d below this are treated as on the cut locus:
# the kernels exclude the band and account for it in their error estimates.
CUT_LOCUS_TOL = 1e-3

_TWO_PI = 2.0 * math.pi


class SurfaceKind(enum.Enum):
    EUCLIDEAN = "euclidean"
    SPHERE = "sphere"
    HYPERBOLIC = "hyperbolic"

    @classmethod
    def parse(cls, name) -> "SurfaceKind":
        if isinstance(name, cls):
            return name
        key = str(name).strip().lower()
        aliases = {
            "euclidean": cls.EUCLIDEAN, "plane": cls.EUCLIDEAN, "e2": cls.EUCLIDEAN,
            "sphere": cls.SPHERE, "s2": cls.SPHERE,
            "hyperbolic": cls.HYPERBOLIC, "h2": cls.HYPERBOLIC,
        }
        if key not in aliases:
            raise DomainError(f"unknown surface {name!r}")
        return aliases[key]


class _Model(NamedTuple):
    """A model surface: curvature kappa and profile curve (C, S), with S' = C
    and C' = -kappa S; S and C take floats, S_arr and C_arr arrays."""

    kappa: float
    S: object
    C: object
    S_arr: object
    C_arr: object


_MODELS = {
    SurfaceKind.EUCLIDEAN: _Model(0.0, lambda r: r, lambda r: 1.0, lambda r: r,
                                  np.ones_like),
    SurfaceKind.SPHERE: _Model(1.0, math.sin, math.cos, np.sin, np.cos),
    SurfaceKind.HYPERBOLIC: _Model(-1.0, math.sinh, math.cosh, np.sinh, np.cosh),
}


@dataclass(frozen=True)
class Point:
    """A surface point in geodesic polar coordinates.

    c1 is the radius (colatitude in [0, pi] on the sphere, nonnegative
    elsewhere) and c2 the angle, normalized into [0, 2 pi).
    """

    kind: SurfaceKind
    c1: float
    c2: float

    def __post_init__(self):
        kind = SurfaceKind.parse(self.kind)
        object.__setattr__(self, "kind", kind)
        c1 = float(self.c1)
        c2 = float(self.c2)
        if not (math.isfinite(c1) and math.isfinite(c2)):
            raise DomainError("coordinates must be finite")
        if c1 < 0.0:
            raise DomainError("radial coordinate must be nonnegative")
        if kind is SurfaceKind.SPHERE and c1 > math.pi:
            raise DomainError("colatitude must lie in [0, pi]")
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2 % _TWO_PI)


def _grid_points(kind: SurfaceKind, c1: np.ndarray, c2: np.ndarray):
    """Yield Point(kind, a, b) for the chart arrays c1, c2 in row-major order.

    The domain checks of Point run once over the whole arrays, and the
    points are built without __post_init__ from the normalized rows; np.mod
    rounds exactly as Python's % does, so each point equals, hashes as and
    is bit-identical to Point(kind, a, b).  If any entry fails a check the
    points come from Point itself, which raises its own DomainError at the
    first bad entry.  Points are made row by row, never all at once.
    """
    if not (np.isfinite(c1).all() and np.isfinite(c2).all() and (c1 >= 0.0).all()
            and (kind is not SurfaceKind.SPHERE or (c1 <= math.pi).all())):
        for row1, row2 in zip(c1, c2):
            for a, b in zip(row1.tolist(), row2.tolist()):
                yield Point(kind, a, b)
        return
    new, set_attr = object.__new__, object.__setattr__
    for row1, row2 in zip(c1, np.mod(c2, _TWO_PI)):
        for a, b in zip(row1.tolist(), row2.tolist()):
            p = new(Point)
            set_attr(p, "__dict__", {"kind": kind, "c1": a, "c2": b})
            yield p


@dataclass(frozen=True)
class OneFormValue:
    """Components (a, b) of a 1-form against the orthonormal coframe."""

    a: float
    b: float

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b], dtype=float)

    def norm(self) -> float:
        return math.hypot(self.a, self.b)


@dataclass(frozen=True)
class BiTensor1:
    """A two-point tensor with one covector leg at x and one at y.

    m11 pairs the radial coframe legs at both points, m12 pairs radial at x
    with angular at y, and so on.
    """

    m11: float
    m12: float
    m21: float
    m22: float

    def as_array(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m21, self.m22]], dtype=float)

    @classmethod
    def from_array(cls, m) -> "BiTensor1":
        m = np.asarray(m, dtype=float)
        return cls(float(m[0, 0]), float(m[0, 1]), float(m[1, 0]), float(m[1, 1]))

    def transpose(self) -> "BiTensor1":
        return BiTensor1(self.m11, self.m21, self.m12, self.m22)


def _check_pair(kind, x: Point, y: Point) -> SurfaceKind:
    kind = SurfaceKind.parse(kind)
    if x.kind is not kind or y.kind is not kind:
        raise KindMismatchError(
            f"points of kind ({x.kind.value}, {y.kind.value}) passed to a "
            f"{kind.value} operation")
    return kind


def distance(kind, x: Point, y: Point) -> float:
    """Geodesic distance, computed with cancellation-free half-angle forms.

    On the sphere, with colatitudes p1, p2 and dtheta = theta1 - theta2,
    d = 2 atan2(sin(d/2), cos(d/2)) for the half chords
        sin(d/2) = hypot(sin((p1-p2)/2) cos(dtheta/2), sin((p1+p2)/2) sin(dtheta/2)),
        cos(d/2) = hypot(cos((p1-p2)/2) cos(dtheta/2), cos((p1+p2)/2) sin(dtheta/2)),
    with sin and cos of (p1+p2)/2 formed from the half colatitudes by the
    addition formulas.  Every term is a sum of squares, so both ends are
    accurate: against mpmath, over 2000 pairs at d from 1e-12 to pi - 1e-6,
    the error is at most 3.4 ulp.  Swapping x and y gives the same bits.
    """
    kind = _check_pair(kind, x, y)
    dtheta = x.c2 - y.c2
    if kind is SurfaceKind.EUCLIDEAN:
        # d^2 = (r1 - r2)^2 + 4 r1 r2 sin^2(dtheta / 2)
        return math.hypot(x.c1 - y.c1,
                          2.0 * math.sqrt(x.c1 * y.c1) * abs(math.sin(0.5 * dtheta)))
    if kind is SurfaceKind.HYPERBOLIC:
        return _h2_distance(x.c1, y.c1, dtheta)
    s1, c1 = math.sin(0.5 * x.c1), math.cos(0.5 * x.c1)
    s2, c2 = math.sin(0.5 * y.c1), math.cos(0.5 * y.c1)
    half_diff = 0.5 * (x.c1 - y.c1)
    sin_sum, cos_sum = s1 * c2 + c1 * s2, c1 * c2 - s1 * s2
    ch, sh = math.cos(0.5 * dtheta), math.sin(0.5 * dtheta)
    return 2.0 * math.atan2(
        math.hypot(math.sin(half_diff) * ch, sin_sum * sh),
        math.hypot(math.cos(half_diff) * ch, cos_sum * sh))


def _h2_distance(r1: float, r2: float, dtheta: float) -> float:
    """Hyperbolic distance between polar points (r1, .) and (r2, .) whose
    angles differ by dtheta."""
    # cosh d - 1 = 2 sinh^2((r1-r2)/2) + 2 sinh r1 sinh r2 sin^2(dtheta/2)
    q = (2.0 * math.sinh(0.5 * (r1 - r2)) ** 2
         + 2.0 * math.sinh(r1) * math.sinh(r2) * math.sin(0.5 * dtheta) ** 2)
    return 2.0 * math.asinh(math.sqrt(0.5 * q))


class _PairDerivatives(NamedTuple):
    grad_x: tuple   # unit coframe components of d_x d
    grad_y: tuple   # unit coframe components of d_y d
    mixed: tuple    # unit coframe components of d_x d_y d, as (m11, m12, m21, m22)


def _pair_derivatives(kind, x: Point, y: Point, d: float) -> _PairDerivatives:
    """Distance derivatives, first and mixed second, in unit coframes at the
    separation d = distance(kind, x, y), which the caller has in hand.

    The generating functions are Q = d^2/2 on the plane and C(d) (cos d,
    cosh d) on the curved surfaces.  Each row writes the gradient/mixed
    data of the generator with half-angle identities so that no term
    suffers cancellation near coincidence, then applies the chain rule.
    On the sphere d = acos(cos d) flips the sign of every chain-rule
    factor, which leaves the hyperbolic rows with sin and cos for sinh and
    cosh, so one body serves both; the plane keeps its own rows, whose m11
    rounds -cos(dtheta) as written.  The mixed term is formed from the
    gradients and divided by the distance factor once, so no cube of a
    tiny separation underflows.  Every operation is on floats, entry by
    entry.
    """
    kind = _check_pair(kind, x, y)
    if d == 0.0:
        raise CoincidentPointsError("distance derivatives need distinct points")
    if kind is SurfaceKind.SPHERE and math.pi - d < CUT_LOCUS_TOL:
        raise CutLocusError(
            f"pair at distance {d:.6f} lies within {CUT_LOCUS_TOL} of the cut locus")
    dtheta = x.c2 - y.c2
    sin_dt = math.sin(dtheta)
    two_sh2 = 2.0 * math.sin(0.5 * dtheta) ** 2  # = 1 - cos(dtheta)
    cos_dt = math.cos(dtheta)
    r1, r2 = x.c1, y.c1

    if kind is SurfaceKind.EUCLIDEAN:
        gx0, gx1 = ((r1 - r2) + r2 * two_sh2) / d, r2 * sin_dt / d
        gy0, gy1 = ((r2 - r1) + r1 * two_sh2) / d, -r1 * sin_dt / d
        mixed = ((-cos_dt - gx0 * gy0) / d, (-sin_dt - gx0 * gy1) / d,
                 (sin_dt - gx1 * gy0) / d, (-cos_dt - gx1 * gy1) / d)
        return _PairDerivatives((gx0, gx1), (gy0, gy1), mixed)

    S, C = _MODELS[kind].S, _MODELS[kind].C
    s1, c1 = S(r1), C(r1)
    s2, c2 = S(r2), C(r2)
    sd = S(d)
    cd = C(d)
    gx0 = (S(r1 - r2) + c1 * s2 * two_sh2) / sd
    gx1 = s2 * sin_dt / sd
    gy0 = (S(r2 - r1) + s1 * c2 * two_sh2) / sd
    gy1 = -s1 * sin_dt / sd
    w11 = -C(r1 - r2) + c1 * c2 * two_sh2
    mixed = ((w11 - cd * (gx0 * gy0)) / sd,
             (-c1 * sin_dt - cd * (gx0 * gy1)) / sd,
             (c2 * sin_dt - cd * (gx1 * gy0)) / sd,
             (-cos_dt - cd * (gx1 * gy1)) / sd)
    return _PairDerivatives((gx0, gx1), (gy0, gy1), mixed)


def _outer_plus(a: float, gx, gy, b: float, mixed) -> BiTensor1:
    """a (gx tensor gy) + b mixed, entry by entry."""
    return BiTensor1(a * (gx[0] * gy[0]) + b * mixed[0],
                     a * (gx[0] * gy[1]) + b * mixed[1],
                     a * (gx[1] * gy[0]) + b * mixed[2],
                     a * (gx[1] * gy[1]) + b * mixed[3])


def distance_gradient(kind, x: Point, y: Point) -> OneFormValue:
    """The 1-form d_x d(x, y) at x; unit length away from coincidence."""
    data = _pair_derivatives(kind, x, y, distance(kind, x, y))
    return OneFormValue(*data.grad_x)


def mixed_distance_hessian(kind, x: Point, y: Point, F1: float,
                           F2: float) -> BiTensor1:
    """F2 * (d_x d tensor d_y d) + F1 * (d_x d_y d) in unit coframes.

    This is the chain-rule expansion of d_x d_y F(d) for a radial profile F
    with F'(d) = F1 and F''(d) = F2, the building block of the 1-form kernel.
    """
    data = _pair_derivatives(kind, x, y, distance(kind, x, y))
    return _outer_plus(F2, data.grad_x, data.grad_y, F1, data.mixed)


def hodge_star_1(value: OneFormValue) -> OneFormValue:
    """Hodge star on 1-forms: (a, b) -> (-b, a); squares to minus one."""
    return OneFormValue(-value.b, value.a)


def apply_i_plus_star(m: BiTensor1) -> BiTensor1:
    """(I + star_x star_y) acting on both legs of a two-point tensor."""
    return BiTensor1(
        m.m11 + m.m22, m.m12 - m.m21,
        m.m21 - m.m12, m.m22 + m.m11,
    )


def _embed(p: Point) -> tuple[float, float, float]:
    """p in R^3 at (C(r), S(r) cos theta, S(r) sin theta): the plane in the
    slice x0 = 1, H2 as the upper sheet of x0^2 - x1^2 - x2^2 = 1."""
    model = _MODELS[p.kind]
    s = model.S(p.c1)
    return model.C(p.c1), s * math.cos(p.c2), s * math.sin(p.c2)


def _chart_points(kind: SurfaceKind, x: Point, s_grid: np.ndarray,
                  psi_grid: np.ndarray, need_frames: bool):
    """Map the geodesic polar chart at x to global coordinates.

    The chart point (s, psi) lies on the geodesic that leaves x = _embed(x)
    with unit velocity w = cos(psi) e1 + sin(psi) e2, for the polar frame
    e1 = (-kappa S(r), C(r) cos theta, C(r) sin theta), e2 = (0, -sin theta,
    cos theta) at x: at x + s w on the plane, and at C(s) x + S(s) w, with
    velocity -kappa S(s) x + C(s) w, on the curved surfaces.  Returns
    (c1, c2) meshes over (s, psi) and, when requested, the components
    (p, q) of the velocity, the outgoing geodesic covector at the target,
    in the target's polar coframe.
    """
    model = _MODELS[kind]
    c, s = math.cos(x.c2), math.sin(x.c2)
    cx = model.C(x.c1)
    pos = np.array(_embed(x))
    e1 = np.array([-model.kappa * model.S(x.c1), cx * c, cx * s])
    e2 = np.array([0.0, -s, c])
    ss = s_grid[:, None, None]
    w_vec = e1 * np.cos(psi_grid)[:, None] + e2 * np.sin(psi_grid)[:, None]
    if kind is SurfaceKind.EUCLIDEAN:
        y_vec = pos + ss * w_vec
        c1 = np.hypot(y_vec[..., 1], y_vec[..., 2])
    else:
        y_vec = model.C_arr(ss) * pos + model.S_arr(ss) * w_vec
        c1 = (np.arccos(np.clip(y_vec[..., 0], -1.0, 1.0)) if kind is SurfaceKind.SPHERE
              else np.arccosh(np.maximum(1.0, y_vec[..., 0])))
    c2 = np.arctan2(y_vec[..., 2], y_vec[..., 1])
    if not need_frames:
        return c1, c2, None, None
    ct, st = np.cos(c2), np.sin(c2)
    if kind is SurfaceKind.EUCLIDEAN:
        t0, t1, t2 = np.moveaxis(w_vec, -1, 0)
        p = t1 * ct + t2 * st
    else:
        t0, t1, t2 = np.moveaxis(-model.kappa * model.S_arr(ss) * pos
                                 + model.C_arr(ss) * w_vec, -1, 0)
        sr, cr = model.S_arr(c1), model.C_arr(c1)
        # The radial frame vector at the target is (-kappa S, C ct, C st): p
        # pairs the velocity with it in R^3 on the sphere, and in the Lorentz
        # pairing <A, B> = -A0 B0 + A1 B1 + A2 B2 on H2.
        p = (t1 * cr * ct + t2 * cr * st - t0 * sr if kind is SurfaceKind.SPHERE
             else -t0 * sr + t1 * cr * ct + t2 * cr * st)
    return c1, c2, p, -t1 * st + t2 * ct


@lru_cache(maxsize=None)
def _nested_order(n: int) -> np.ndarray:
    """0 .. n - 1 sorted by decreasing power of two dividing them (0 first),
    then by size.  Listed in this order, the nodes k pi / 2n of a doubled
    rule start with the nodes k pi / n of the rule it doubles, in their own
    order and bit for bit, so each doubling only appends nodes."""
    k = np.arange(n)
    return np.lexsort((k, -np.where(k == 0, n, k & -k)))


@lru_cache(maxsize=None)
def _fejer2(n_int: int):
    """Fejer's second rule on [-1, 1] in nested order: the n_int - 1 nodes
    cos(k pi / n_int), none at an endpoint, with weights
    (4 sin th / n_int) sum_{j <= n_int / 2} sin((2j - 1) th) / (2j - 1)
    at th = k pi / n_int (Waldvogel, BIT 46, 2006).  Exact for polynomials
    of degree n_int - 1; doubling n_int keeps every node."""
    th = _nested_order(n_int)[1:] * math.pi / n_int
    odd = np.arange(1, n_int, 2)
    sums = (np.sin(np.outer(th, odd)) / odd).sum(axis=1)
    return np.cos(th), 4.0 * np.sin(th) * sums / n_int


def _radial_panel(kind: SurfaceKind, lo: float, hi: float, n_int: int):
    """Radial nodes s in [lo, hi] (nested order) and their area weights.

    Fejer's second rule runs in v = 1 - cos s on the sphere, whose measure
    dv = sin s ds absorbs the area factor, and in s weighted by the area
    factor S(s), s or sinh s, on the planes.  No node falls on a panel
    edge, so none on the chart centre or the sphere's antipode.
    """
    x, w = _fejer2(n_int)
    if kind is SurfaceKind.SPHERE:
        a, b = 2.0 * math.sin(0.5 * lo) ** 2, 2.0 * math.sin(0.5 * hi) ** 2
        v = 0.5 * (a + b) + 0.5 * (b - a) * x
        return 2.0 * np.arcsin(np.sqrt(0.5 * v)), 0.5 * (b - a) * w
    s = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
    return s, 0.5 * (hi - lo) * w * _MODELS[kind].S_arr(s)


def _nested_integral(kind: SurfaceKind, edges, sample, tol: float, start: tuple,
                     limit: tuple, profile=None, mass_tol: float = 0.0):
    """Integral of sample over a product of nested radial and angular rules.

    edges are the radial panel edges, each panel carrying its own Fejer
    rule (_radial_panel); the angle takes the trapezoid rule, spectrally
    accurate on the periodic direction.  sample(s, psi) returns the
    integrand on the product of radial nodes s and angles psi, shaped
    (s.size, psi.size) or (s.size, psi.size, c) for c components.
    profile(s), if given, is a radial factor (a kernel) on the weights.

    The first pass takes start = (radial intervals per panel, angles).
    With a profile, each panel's radial start is sized from the profile
    alone, without samples: its rule doubles from start[0] until two rules
    agree on the profile's mass over the panel to within mass_tol, and the
    coarser of the two is the start.

    Both rules are nested, so every pass also holds the rules of half its
    size in either direction, and the changes from those halves estimate
    each direction's error without new samples.  The next pass doubles
    the rules whose change exceeds tol / 4, or the one with the larger
    change when neither does, and refine_until_stable accepts once two
    passes agree within tol.  No rule grows past limit = (radial intervals
    per panel, angles); a pass that should but cannot raises
    NonconvergenceError.  A pass keeps the values it has and samples only
    the new nodes: the new radial nodes at every angle, then the old ones
    at the new angles.  So each node is sampled once, and the profile is
    evaluated once per radial node.  Returns the last pass, a float or an
    array of c components.
    """
    panels = list(zip(edges[:-1], edges[1:]))
    prof = [np.empty(0) for _ in panels]
    vals = [None for _ in panels]
    psi = np.empty(0)

    def rule(p: int, n_int: int):
        s, w = _radial_panel(kind, *panels[p], n_int)
        if profile is None:
            return s, w
        if prof[p].size < s.size:
            prof[p] = np.concatenate([prof[p], profile(s[prof[p].size:])])
        return s, w * prof[p][:s.size]

    def sized_start(p: int) -> int:
        tried = []

        def mass(n_int: int) -> float:
            tried.append(n_int)
            return float(rule(p, n_int)[1].sum())

        refine_until_stable(mass, (start[0],), 2, mass_tol,
                            int(math.log2(limit[0] / start[0])))
        return tried[-2]

    starts = [start[0] if profile is None else sized_start(p)
              for p in range(len(panels))]

    def integral(scale: int, n_a: int):
        """The sum over the stored values of the rules scale x the starts
        and the first n_a angles."""
        total = 0.0
        for p, n in enumerate(starts):
            _, w = rule(p, int(n * scale))
            total = total + np.tensordot(w, vals[p][:w.size, :n_a], axes=1).sum(axis=0)
        return total * (_TWO_PI / n_a)

    size = [1, start[1]]  # radial scale, angles
    room = [int(math.log2(limit[0] / max(starts))), int(math.log2(limit[1] / start[1]))]
    passes, changes = [], None  # the last two passes; the last's half-rule changes

    def one_pass(_):
        nonlocal psi, changes
        if changes is not None:
            grow = [c > 0.25 * tol and r > 0 for c, r in zip(changes, room)]
            if not any(grow):
                open_dims = [d for d in (0, 1) if room[d] > 0]
                if not open_dims:
                    diff = _max_change(*passes)
                    raise NonconvergenceError(
                        f"refinement did not stabilize: change {diff:.3e} on "
                        f"its largest grid (requested {tol:.3e})",
                        achieved=diff, requested=tol)
                grow[max(open_dims, key=lambda d: changes[d])] = True
            for d in (0, 1):
                size[d] *= 1 + grow[d]
                room[d] -= grow[d]
        scale, n_a = size
        new_psi = _TWO_PI * _nested_order(n_a)[psi.size:] / n_a
        rules = [rule(p, n * scale)[0] for p, n in enumerate(starts)]
        held = [0 if v is None else v.shape[0] for v in vals]
        if psi.size and new_psi.size:
            block = sample(np.concatenate([s[:h] for s, h in zip(rules, held)]),
                           new_psi)
            parts = np.split(block, np.cumsum(held)[:-1])
            vals[:] = [np.concatenate([v, b], axis=1) for v, b in zip(vals, parts)]
        psi = np.concatenate([psi, new_psi])
        fresh = [s[h:] for s, h in zip(rules, held)]
        if sum(f.size for f in fresh):
            block = sample(np.concatenate(fresh), psi)
            parts = np.split(block, np.cumsum([f.size for f in fresh])[:-1])
            vals[:] = [b if v is None else np.concatenate([v, b])
                       for v, b in zip(vals, parts)]
        value = integral(scale, n_a)
        changes = (_max_change(value, integral(0.5 * scale, n_a)),
                   _max_change(value, integral(scale, n_a // 2)))
        passes[:] = passes[-1:] + [value]
        return value

    return refine_until_stable(one_pass, (1,), 2, tol, sum(room) + 1)[0]


def _check_finite(vals: np.ndarray, degree: int, kind: SurfaceKind):
    if not np.isfinite(vals).all():
        raise DomainError(f"the degree-{degree} field returned a non-finite value "
                          f"on the {kind.value} surface")


def integrate_surface(kind, f, budget: ToleranceBudget = DEFAULT_BUDGET,
                      decay: DecayHint | None = None, vectorized: bool = False) -> float:
    """Integrate a scalar field over the whole surface.

    Parameters
    ----------
    f : callable
        Point -> float, or with ``vectorized=True`` a callable taking
        (c1_grid, c2_grid) meshgrid arrays and returning values.
    decay : DecayHint, optional
        Required on the plane and hyperbolic plane, whose domain is cut
        where the hint's area tail (_area_tail) is a quarter of the budget.

    The integral runs on the nested sampler of apply_k0 and apply_k1
    (_nested_integral) without a kernel, from 31 radial nodes by 64
    angles: refinement keeps every value it has and samples f only at new
    nodes, so each node once, until two passes agree to within the budget.
    The sphere needs no decay hint.  A non-finite value of f raises
    DomainError on the first pass.
    """
    kind = SurfaceKind.parse(kind)
    if kind is SurfaceKind.SPHERE:
        edges = (0.0, math.pi)
    elif decay is None:
        raise DecayHintError("integration over a noncompact surface needs "
                             "a decay hint")
    else:
        edges = (0.0, _area_tail(decay, 0.25 * budget.abs_tol,
                                 kind is SurfaceKind.HYPERBOLIC)[0])

    def sample(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
        g1, g2 = np.meshgrid(c1, c2, indexing="ij")
        if vectorized:
            vals = np.asarray(f(g1, g2), dtype=float)
        else:
            vals = np.fromiter(map(float, map(f, _grid_points(kind, g1, g2))),
                               float, count=g1.size).reshape(g1.shape)
        _check_finite(vals, 0, kind)
        return vals

    # max(2, max_quad_depth // 4) rounds of growth by 1.5 from 32 x 64 bound
    # the grid; this many doublings reach at least as far.
    grow = 2 ** math.ceil(max(2, budget.max_quad_depth // 4) * math.log2(1.5))
    return float(_nested_integral(kind, edges, sample, 0.5 * budget.abs_tol,
                                  (32, 64), (32 * grow, 64 * grow)))
