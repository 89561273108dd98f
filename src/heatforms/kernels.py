"""Heat kernels for 0-, 1-, and 2-forms on the three model surfaces.

Each surface has one radial route, _k0_dist: the closed form on the plane,
a Legendre series on the sphere, and McKean's single integral on the
hyperbolic plane (hyperbolic._h2_mckean, at any number of distances from
one trapezoid sum in v; the spectral integral hyperbolic._h2_spectral is the
independent route the verification suite holds it against).  In its
generator mode the route also gives the scalar generator G(d, t) =
int_t^inf K0(d, tau) dtau (mean-zero part on the sphere) and G_d, whose
radial derivatives feed the mixed distance Hessian and the (I + star star)
symmetrizer of the 1-form kernel.  The radial identity G_dd = -G_d / T(d)
- K0 + max(kappa, 0) / 4 pi, with T = S/C and kappa of geometry._MODELS,
supplies G_dd without a third series or quadrature and is exact in the
same sense the other two are.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (CoincidentPointsError, CutLocusError, DecayHintError,
                     DomainError, NonconvergenceError)
from .geometry import (_EUCLIDEAN, _HYPERBOLIC, _MODELS, _SPHERE, BiTensor1,
                       OneFormValue, Point, SurfaceKind, apply_i_plus_star,
                       distance, _chart_points, _field_values, _nested_integral,
                       _outer_plus, _pair_derivatives)
from .hyperbolic import _h2_mass_tail, _h2_mckean
from .quadrature import (DEFAULT_BUDGET, DecayHint, ToleranceBudget, _as_float,
                         solve_radius)
from .specfun import _EPS, _expint_cf

__all__ = [
    "T_MIN",
    "HeatTime",
    "Kernel0Value",
    "Kernel1Value",
    "FormField",
    "k0",
    "k0_h2_mckean",
    "g1_scalar",
    "k1",
    "k2",
    "apply_k0",
    "apply_k1",
    "heat_residual",
]

# Below this time the sphere series needs hundreds of terms and finite
# difference residual checks drown in truncation error.
T_MIN = 1e-4

_FOUR_PI = 4.0 * math.pi
_SINH_RANGE = math.asinh(sys.float_info.max)  # 710.48: sinh overflows past it
_EULER_GAMMA = 0.57721566490153286061


@dataclass(frozen=True)
class HeatTime:
    """Validated evolution time; the numerical floor is T_MIN."""

    t: float

    def __post_init__(self):
        t = _as_float(self.t, "the time t is")
        if not math.isfinite(t) or t < T_MIN:
            raise DomainError(f"time must be finite and >= {T_MIN}")
        object.__setattr__(self, "t", t)


def _as_time(t) -> float:
    if isinstance(t, HeatTime):
        return t.t
    return HeatTime(t).t


@dataclass(frozen=True)
class Kernel0Value:
    """Scalar kernel value with its error estimate and truncation metadata.

    terms counts series terms on the sphere and, on the hyperbolic plane,
    the v nodes of every pass of McKean's trapezoid sum; radius is that
    sum's v cut (0 for closed forms and series).
    """

    value: float
    err_est: float
    terms: int
    radius: float


@dataclass(frozen=True)
class Kernel1Value:
    """2x2 frame-coupling matrix of the 1-form kernel plus diagnostics.

    terms and radius are as in Kernel0Value; on the hyperbolic plane one
    McKean sum yields K0, G and G_d together, so terms counts its v nodes
    once.
    """

    matrix: BiTensor1
    err_est: float
    terms: int
    radius: float


@dataclass(frozen=True)
class FormField:
    """A sampled form: the callable fn maps a Point, the named tuple (kind,
    c1, c2), to a value float() takes (degree 0/2) or with components .a
    and .b, as the named tuple OneFormValue (degree 1).
    Noncompact-surface integrations require the decay hint, whose bound on
    |f| sizes their tolerances; the sphere assumes |f| <= 1 without one."""

    degree: int
    fn: object
    decay: DecayHint | None = None

    def __post_init__(self):
        if self.degree not in (0, 1, 2):
            raise DomainError("form degree must be 0, 1, or 2")
        if not callable(self.fn):
            raise DomainError(f"fn must be callable, not {type(self.fn).__name__!r}")

    def __call__(self, p: Point):
        return self.fn(p)


# ---------------------------------------------------------------------------
# sphere series

def _sphere_terms(t: float, tol_raw: float) -> int:
    """Smallest N with sum_{n>N} (2n+1) e^{-n(n+1)t} <= tol_raw.

    The summand is decreasing once (2s+1)^2 t >= 2, and there the sum is
    bounded by its integral, which is exactly e^{-N(N+1)t}/t.
    """
    monotone = int(math.ceil(0.5 * (math.sqrt(2.0 / t) - 1.0)))
    need = math.log(max(1.0, 1.0 / (t * tol_raw))) / t
    n_tail = int(math.ceil(0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * need))))
    return max(1, monotone, n_tail)


def _sphere_series(x, t: float, tol: float, sin_d=None):
    """One pass of the Legendre recurrence at cos d = x: (sum_{n<=N} (2n+1)
    e^{-n(n+1)t} P_n(x) without the 1/4pi, N, its tail e^{-N(N+1)t}/t, gen).

    gen is None unless sin d = sin_d is passed (sqrt(1 - x^2) cancels at
    small d); then it is (G, G_d, N', tail') for the generator sums G =
    sum F(n,t) P_n and G_d = sum F(n,t) P1_n to N' <= N terms, with F(n,t) =
    (2n+1) e^{-n(n+1)t} / (4 pi n (n+1)).  With |P_n| <= 1 and |P1_n| <=
    n(n+1)/2 both of their tails are at most tail' = e^{-N'(N'+1)t}/(8 pi t);
    as P1_n(cos d) = -sin d P_n'(cos d), G_d's is also sin d times that.
    Every tail is at most tol, K0's after the 1/4pi.  x and sin_d are floats
    or arrays of one shape, and so are the sums.
    """
    n_max = _sphere_terms(t, tol * _FOUR_PI)
    n_gen = 0 if sin_d is None else _sphere_terms(t, tol * 8.0 * math.pi)
    total, p_prev, p_cur = 1.0, 1.0, x
    g, gd, q_prev, q_cur = 0.0, 0.0, 0.0, None if sin_d is None else -sin_d
    for n in range(1, n_max + 1):
        weight = (2 * n + 1) * math.exp(-n * (n + 1) * t)
        total = total + weight * p_cur
        if n <= n_gen:
            f_n = weight / (_FOUR_PI * n * (n + 1))
            g = g + f_n * p_cur
            gd = gd + f_n * q_cur
            q_prev, q_cur = q_cur, ((2 * n + 1) * x * q_cur - (n + 1) * q_prev) / n
        p_prev, p_cur = p_cur, ((2 * n + 1) * x * p_cur - n * p_prev) / (n + 1)
    tail = math.exp(-n_max * (n_max + 1) * t) / t
    if sin_d is None:
        return total, n_max, tail, None
    gen_tail = math.exp(-n_gen * (n_gen + 1) * t) / (8.0 * math.pi * t)
    return total, n_max, tail, (g, gd, n_gen, gen_tail)


# ---------------------------------------------------------------------------
# hyperbolic plane

def k0_h2_mckean(d: float, t, budget: ToleranceBudget = DEFAULT_BUDGET) -> float:
    """Hyperbolic scalar heat kernel at a distance, by McKean's single
    integral: the route k0 serves from, here without the pair of points.
    The spectral integral (hyperbolic._h2_spectral) is the independent
    route the verification suite holds it against.
    """
    t = _as_time(t)
    d = float(d)
    if d < 0.0 or not math.isfinite(d):
        raise DomainError("distance must be finite and nonnegative")
    return _k0_dist(_HYPERBOLIC, d, t, budget)[0]


def _mass_radius(kind: SurfaceKind, t: float, tol: float) -> float:
    """Radius beyond which the kernel's mass on the plane or H2 is at most
    tol.  On H2 a radius past sinh's float range, where the area factor
    sinh s of a radial rule would overflow, raises DomainError naming t."""
    def tail(R: float) -> float:
        if kind is _EUCLIDEAN:
            return math.exp(-R * R / (4.0 * t))
        return _h2_mass_tail(R, t)

    radius = solve_radius(tail, tol, max(1.0, 3.0 * math.sqrt(t)), 1.2)[0]
    if kind is _HYPERBOLIC and radius > _SINH_RANGE:
        raise DomainError(f"at t = {t!r} the kernel's mass radius {radius:.6g} "
                          f"passes the float range of sinh, {_SINH_RANGE:.6g}")
    return radius


def _h2_kappa_radius(decay: DecayHint, r_x: float, t: float, tol: float) -> float:
    """Radius beyond which apply_k1 on H2, about a point at radius r_x,
    cuts off at most tol of each component, for a Gaussian or exponential
    hint |nu(y)| <= env(r_y).

    The radial profile is kappa = -K0 - tanh(s/2) G_d.  On the ball B_s,
    d/dtau of its kernel mass M(s, tau) = int_{B_s} K0(., tau) dA is the
    flux 2 pi sinh s d_s K0(s, tau); integrating tau over [t, inf), where M
    tends to 0 (K0 <= C tau^(-3/2)), gives G_d(s, t) = -M(s, t) / (2 pi
    sinh s), so |G_d| <= 1 / (2 pi sinh s): the tail is as heavy as the
    area grows, unlike K0's.  Each component of the integrand is at most
    |kappa| |nu|, and r_y >= s - r_x, so env(s - r_x) bounds |nu| on the
    circle of radius s >= r_x.  With 2 pi sinh s |tanh(s/2) G_d| <=
    tanh(s/2) <= 1, what lies beyond R is at most
        env(R - r_x) int_{s > R} K0 dA + int_R^inf env(s - r_x) ds,
    where _h2_mass_tail integrates the majorant _h2_k0_majorant for the
    first term and the second is closed: (C/2) sqrt(pi/a) erfc(sqrt(a) u)
    for env = C e^{-a r^2}, C e^{-a u} / a for env = C e^{-a r}, at
    u = R - r_x.  A bounded hint gives no such bound; there apply_k1 keeps
    the K0 mass radius, and the G_d tail goes uncounted.
    """
    a, c = decay.rate, decay.bound

    def tail(R: float) -> float:
        u = R - r_x
        if u <= 0.0:
            return math.inf
        if decay.kind == "gaussian":
            beyond = 0.5 * c * math.sqrt(math.pi / a) * math.erfc(math.sqrt(a) * u)
        else:
            beyond = c * math.exp(-a * u) / a
        return decay.envelope(u) * _h2_mass_tail(R, t) + beyond

    return solve_radius(tail, tol, r_x + max(1.0, 3.0 * math.sqrt(t)), 1.2)[0]


# ---------------------------------------------------------------------------
# scalar kernel

def _k0_dist(kind: SurfaceKind, d, t: float, budget: ToleranceBudget,
             generator: bool = False, h2=_h2_mckean):
    """Each surface's one radial route at a distance d: the closed form on
    the plane, _sphere_series on the sphere, and h2 on H2 (McKean's
    integral; _h2_spectral when checking the oracle).  Returns (K0, err_est,
    terms, radius), with terms and radius as in Kernel0Value.  d is a float
    or an array, and K0 of the same type: a float stays on Python floats and,
    on the sphere and H2, gets the bits of the one entry of a 1-element
    array.  Each bound covers every entry.

    With `generator`, at d > 0 (below pi on the sphere), it returns ((K0, G,
    G_d), err_gd, err_dd, terms, radius) as _h2_mckean does: err_gd bounds
    G_d, and err_dd what K0 and G_d carry into G_dd (_g1_full).  The plane's
    G is None for an array.
    """
    scalar = isinstance(d, float)
    lib = math if scalar else np
    if kind is _EUCLIDEAN:
        z = d * d / (4.0 * t)
        value = lib.exp(-z) / (_FOUR_PI * t)
        if not generator:
            return value, 8.0 * _EPS / (_FOUR_PI * t), 1, 0.0
        g_d = lib.expm1(-z) / (2.0 * math.pi * d)
        peak = abs(g_d) if scalar else float(np.abs(g_d).max())
        rows = value, (_euclid_g(d, t) if scalar else None), g_d
        # expm1 keeps G_d within a few ulps relative at any d, and
        # |G_dd| <= |G_d| / d + K0 <= 3 / (8 pi t).
        errs = 8.0 * _EPS * peak, 8.0 * _EPS * (peak + 1.0 / (_FOUR_PI * t))
        terms, radius = 1, 0.0
    elif kind is _SPHERE:
        if generator and (d if scalar else d.max()) >= math.pi:
            raise CutLocusError("generator derivatives are undefined at the cut locus")
        cos_d, sin_d = lib.cos(d), (lib.sin(d) if generator else None)
        raw, n_max, tail, gen = _sphere_series(cos_d, t, budget.abs_tol, sin_d)
        if not generator:
            return raw / _FOUR_PI, tail / _FOUR_PI, n_max, 0.0
        g_val, g_d, terms, gen_tail = gen
        rows, radius = (raw / _FOUR_PI, g_val, g_d), 0.0
        # the series tails, plus the roundoff of G_d's sum as on the plane
        errs = (gen_tail * sin_d + 8.0 * _EPS * abs(g_d),
                gen_tail * abs(cos_d) + tail / _FOUR_PI)
        if not scalar:
            errs = tuple(float(e.max()) for e in errs)
    else:
        rows, err, radius, terms = h2(d, t, budget, generator=generator)
        rows = tuple(rows[:, 0].tolist()) if scalar else tuple(rows)
        if not generator:
            return rows[0], err, terms, radius
        # McKean bounds each row, the spectral oracle all rows at once
        err_k0, err_gd = ((float(err[0]), float(err[2])) if isinstance(err, np.ndarray)
                          else (err, err))
        errs = err_gd, err_gd / math.tanh(d if scalar else float(d.min())) + err_k0
    return rows, *errs, terms, radius


def k0(kind, x: Point, y: Point, t,
       budget: ToleranceBudget = DEFAULT_BUDGET) -> Kernel0Value:
    """Scalar (0-form) heat kernel at a point pair."""
    kind = SurfaceKind.parse(kind)
    t = _as_time(t)
    d = distance(kind, x, y)
    return Kernel0Value(*_k0_dist(kind, d, t, budget))


# ---------------------------------------------------------------------------
# 1-form generator

def _euclid_g(d: float, t: float) -> float:
    """The plane's G = -(2 ln d + E1(z)) / 4 pi at z = d^2 / 4t.  Below
    z = 1, E1 = Ein - gamma - ln z cancels the logarithm of d, so a d whose
    z underflows keeps a finite G; Ein(z) = int_0^z (1 - e^-s)/s ds is
    summed as sum_k (-1)^(k+1) z^k / (k k!) (DLMF §6.6)."""
    z = d * d / (4.0 * t)
    if z > 1.0:
        return -(2.0 * math.log(d) + _expint_cf(z, 1.0)) / _FOUR_PI
    ein, term = 0.0, -1.0
    for k in range(1, 25):
        term *= -z / k
        ein += term / k
    return (_EULER_GAMMA - math.log(4.0 * t) - ein) / _FOUR_PI


def _g1_full(kind: SurfaceKind, d: float, t: float, budget: ToleranceBudget,
             h2=_h2_mckean):
    """(G, G_d, G_dd, err_d1, err_d2, terms, radius) behind g1_scalar and k1,
    from _k0_dist's generator rows and the radial identity; h2 is the
    hyperbolic route (_h2_spectral when checking the oracle)."""
    if not (math.isfinite(d) and d >= 0.0):
        raise DomainError("distance must be finite and nonnegative")
    if d == 0.0:
        raise CoincidentPointsError(
            "the 1-form generator is singular at zero separation; use the "
            "kernel's coincidence form instead")
    (kern, g_val, g_d), *rest = _k0_dist(kind, d, t, budget, True, h2)
    model = _MODELS[kind]
    g_dd = -g_d / model.T(d) - kern + max(model.kappa, 0.0) / _FOUR_PI
    return g_val, g_d, g_dd, *rest


def g1_scalar(kind, d: float, t, budget: ToleranceBudget = DEFAULT_BUDGET):
    """Scalar generator G(d, t) = int_t^inf K0(d, tau) dtau and its first two
    radial derivatives, as a (G, G_d, G_dd) triple.

    On the sphere the constant mode is removed (the tail integral of the full
    kernel diverges; only the mean-zero part decays), and on the plane G is
    the log-regularized antiderivative of G_d: both choices leave the 1-form
    kernel unchanged, which depends on G only through d-derivatives.
    """
    kind = SurfaceKind.parse(kind)
    t = _as_time(t)
    # 0.24, not 0.25, of abs_tol per sphere series leaves room for roundoff
    g_val, g_d, g_dd, _, _, _, _ = _g1_full(kind, float(d), t, budget.part(0.24))
    return g_val, g_d, g_dd


def _k1_coincidence(kind: SurfaceKind, t: float, budget: ToleranceBudget):
    """Diagonal value c(t) with K1(x, x, t) = c(t) I, from the d -> 0 limit
    of -(G_dd + G_d/L(d)), which the radial identity collapses to the
    coincidence kernel value (minus 1/4pi on the sphere)."""
    if kind is _EUCLIDEAN:
        return 1.0 / (_FOUR_PI * t), 2.0 * _EPS / t, 1, 0.0
    if kind is _SPHERE:
        raw, n_max, tail, _ = _sphere_series(1.0, t, budget.abs_tol)
        return (raw - 1.0) / _FOUR_PI, tail / _FOUR_PI, n_max, 0.0
    return _k0_dist(kind, 0.0, t, budget)


def k1(kind, x: Point, y: Point, t,
       budget: ToleranceBudget = DEFAULT_BUDGET) -> Kernel1Value:
    """1-form heat kernel as a frame-coupling matrix in unit coframes.

    Away from coincidence this is (I + star_x star_y) applied to the mixed
    Hessian of G; at exact coincidence it is the isotropic limit c(t) I.
    """
    kind = SurfaceKind.parse(kind)
    t = _as_time(t)
    d = distance(kind, x, y)
    if d == 0.0:
        c, err, terms, radius = _k1_coincidence(kind, t, budget.part(0.5))
        return Kernel1Value(BiTensor1(c, 0.0, 0.0, c), 2.0 * err, terms, radius)
    return _k1_apart(kind, x, y, d, t, budget)


def _k1_apart(kind: SurfaceKind, x: Point, y: Point, d: float, t: float,
              budget: ToleranceBudget, h2=_h2_mckean) -> Kernel1Value:
    """k1 at separation d = distance(kind, x, y) > 0, with the hyperbolic
    rows from route h2."""
    data = _pair_derivatives(kind, x, y, d)
    frame_scale = max(map(abs, data.mixed))
    tol = budget.abs_tol
    if kind is _HYPERBOLIC:
        # The K0 and G_d rows each come with their own bound within this
        # part; the error below is 2 (err_K0 + err_Gd (coth d + frame_scale)),
        # so 2 (1 + coth d + frame_scale) parts cover it.
        budget = budget.part(0.5 / (1.0 + 1.0 / math.tanh(d) + frame_scale))
    elif kind is _SPHERE:
        # Each series tail is at most the part; G's reaches the error below
        # through |cos d| + sin d frame_scale and K0's once, so the tails
        # take at most 0.24 abs_tol and roundoff the rest.
        budget = budget.part(0.12 / (1.0 + abs(math.cos(d))
                                     + math.sin(d) * frame_scale))
    _, g_d, g_dd, err1, err2, terms, radius = _g1_full(kind, d, t, budget, h2)
    if kind is _SPHERE:
        err2 += 8.0 * _EPS * abs(g_dd)  # the roundoff of G_dd's sum
    err = 2.0 * (err2 + err1 * frame_scale)
    if kind is _SPHERE and err > tol:
        # The roundoff of the sums took more than 0.76 abs_tol: shrink the
        # tails to 0.72 of what it leaves, or report what it spent.
        roundoff = 16.0 * _EPS * (abs(g_d) * frame_scale + abs(g_dd))
        if roundoff < tol:
            _, g_d, g_dd, err1, err2, terms, radius = _g1_full(
                kind, d, t, budget.part(3.0 * (1.0 - roundoff / tol)), h2)
            err = 2.0 * (err2 + 8.0 * _EPS * abs(g_dd) + err1 * frame_scale)
        if err > tol:
            raise NonconvergenceError(
                f"k1 on the sphere: error bound {err:.3e}, of which the "
                f"roundoff of its sums is {roundoff:.3e} (requested {tol:.3e})",
                achieved=err, requested=tol)
    core = _outer_plus(g_dd, data.grad_x, data.grad_y, g_d, data.mixed)
    return Kernel1Value(apply_i_plus_star(core), err, terms, radius)


def k2(kind, x: Point, y: Point, t,
       budget: ToleranceBudget = DEFAULT_BUDGET) -> Kernel0Value:
    """2-form heat kernel as a density against unit volume forms at x and y.

    Both stars act as unit-density pairings, so the density coincides with
    the scalar kernel; the same value object is returned.
    """
    return k0(kind, x, y, t, budget)


# ---------------------------------------------------------------------------
# geodesic-chart quadrature for applying the kernels

def _field_bound(field: FormField, kind: SurfaceKind) -> float:
    """The bound on |f| of the field's hint; on the sphere, 1 without one."""
    if field.decay is not None:
        return field.decay.bound
    if kind is not _SPHERE:
        raise DecayHintError("applying the kernel on a noncompact surface "
                             "needs the field's decay hint")
    return 1.0


def _evolved_hint(decay: DecayHint | None, t: float) -> DecayHint | None:
    """Decay hint for an evolved field: heat flow widens a Gaussian envelope
    (variance grows by 4t), scales an exponential one, and preserves sup
    bounds by the maximum principle.  An exponential bound scaled past the
    float range leaves the evolved field without a hint."""
    if decay is None:
        return None
    if decay.kind == "gaussian":
        return DecayHint("gaussian", rate=decay.rate / (1.0 + 4.0 * decay.rate * t),
                         bound=decay.bound)
    if decay.kind == "exp":
        try:
            bound = 2.0 * decay.bound * math.exp(decay.rate ** 2 * t)
        except OverflowError:
            bound = math.inf
        if bound == math.inf:
            return None
        return DecayHint("exp", rate=decay.rate, bound=bound)
    return decay


def _radial_edges(kind: SurfaceKind, t: float, tol: float) -> tuple:
    """Radial panel edges for applying a kernel whose mass beyond them
    (beyond its plane-like mass radius, on the sphere) is at most tol: the
    sphere is graded at that radius, where it falls below pi."""
    if kind is not _SPHERE:
        return 0.0, _mass_radius(kind, t, tol)
    width = _mass_radius(_EUCLIDEAN, t, tol)
    return (0.0, width, math.pi) if width < math.pi else (0.0, math.pi)


def _kernel_tol(kind: SurfaceKind, edges: tuple, tol: float) -> float:
    """Pointwise tolerance of the radial kernel values, a tenth of tol
    spread over the disc of the truncation radius on the planes."""
    reach = 1.0 if kind is _SPHERE else max(1.0, edges[-1] ** 2)
    return max(1e-14, 0.1 * tol / reach)


# First-pass sizes of the kernel applications: radial rules double from 8
# intervals until the kernel's own mass settles, and the angle starts at 32.
# Neither rule grows past 512, which covers 303 radial nodes by 432 angles.
_APPLY_START = (8, 32)
_APPLY_LIMIT = (512, 512)


def apply_k0(kind, field: FormField, t,
             budget: ToleranceBudget = DEFAULT_BUDGET) -> FormField:
    """Heat evolution of a scalar field: x -> int K0(x, y, t) f(y) dA_y.

    The integral runs in the geodesic polar chart centered at each evaluation
    point, where the kernel is purely radial, on the nested product grid of
    geometry._nested_integral: Fejer's second rule in 1 - cos s on the
    sphere (graded at the kernel's width) and in s up to the kernel-mass
    radius on the planes, by a trapezoid rule in angle.  The radial start
    comes from the kernel: the rule doubles on kernel values alone, with no
    field calls, until it reproduces the kernel's mass.  The angle starts
    at 32 nodes.  Each pass doubles the rule whose halving moves the
    result most (or both) until two passes agree, and keeps the values it
    has: one evaluation samples the field once at each node.  The returned
    field evaluates lazily; a value geometry._field_values rejects raises
    DomainError, and on the sphere a field without a hint needs |f| <= 1.
    """
    kind = SurfaceKind.parse(kind)
    t = _as_time(t)
    if field.degree != 0:
        raise DomainError("apply_k0 expects a degree-0 field")
    sup = max(_field_bound(field, kind), 1e-300)
    tol = budget.abs_tol
    edges = _radial_edges(kind, t, 0.25 * tol / sup)
    kbudget = ToleranceBudget(abs_tol=_kernel_tol(kind, edges, tol / sup))

    def kernel(s: np.ndarray) -> np.ndarray:
        return _k0_dist(kind, s, t, kbudget)[0]

    def evaluate(x: Point) -> float:
        def sample(s: np.ndarray, psi: np.ndarray) -> np.ndarray:
            c1, c2, _, _ = _chart_points(kind, x, s, psi, False)
            return _field_values(field.fn, kind, 0, c1, c2)

        return float(_nested_integral(kind, edges, sample, 0.5 * tol, _APPLY_START,
                                      _APPLY_LIMIT, kernel, 0.25 * tol / sup))

    return FormField(0, evaluate, _evolved_hint(field.decay, t))


def _kappa_batch(kind: SurfaceKind, s_nodes: np.ndarray, t: float, tol: float,
                 budget: ToleranceBudget) -> np.ndarray:
    """Radial profile kappa(s) with K1 = kappa(d) I in geodesic-adapted
    frames at both points; kappa = G_dd + G_d / S(d), reduced through the
    radial identity to -K0 + max(kappa, 0) / 4 pi + kappa T(s/2) G_d, with
    the curvature kappa and T = S/C of geometry._MODELS."""
    model = _MODELS[kind]
    (kern, _, g_d), *_ = _k0_dist(
        kind, s_nodes, t, budget.part(max(tol / budget.abs_tol, 0.01)), True)
    return (-kern + max(model.kappa, 0.0) / _FOUR_PI
            + model.kappa * model.T_arr(0.5 * s_nodes) * g_d)


def apply_k1(kind, field: FormField, t,
             budget: ToleranceBudget = DEFAULT_BUDGET) -> FormField:
    """Heat evolution of a 1-form: x -> int K1(x, y, t) wedge star_y nu(y).

    In frames adapted to the geodesic between the points the kernel matrix is
    kappa(d) I, so the integrand needs only the radial profile kappa, the
    direction of departure at x, and the direction of arrival at y.  The
    field is sampled and checked as in apply_k0 (|f| <= 1 on the sphere
    without a hint), once per node of a grid whose radial start comes from
    kappa.  On H2 a Gaussian or exponential hint sets the cut by a bound on
    kappa's tail at each x (_h2_kappa_radius).  A bounded hint keeps the
    cut at K0's mass radius (refused past sinh's range, as in apply_k0),
    where G_d's tail, which decays only like 1/sinh s, is not counted.
    """
    kind = SurfaceKind.parse(kind)
    t = _as_time(t)
    if field.degree != 1:
        raise DomainError("apply_k1 expects a degree-1 field")
    sup = max(_field_bound(field, kind), 1e-300)
    tol = budget.abs_tol
    kbudget = budget.part(0.25)
    at_kappa = kind is _HYPERBOLIC and field.decay.kind != "bounded"
    mass_edges = None if at_kappa else _radial_edges(kind, t, 0.125 * tol / sup)

    def evaluate(x: Point) -> OneFormValue:
        edges = mass_edges or (0.0, _h2_kappa_radius(field.decay, x.c1, t, 0.125 * tol))
        ktol = _kernel_tol(kind, edges, tol / sup)

        def kappa(s: np.ndarray) -> np.ndarray:
            return _kappa_batch(kind, s, t, ktol, kbudget)

        def sample(s: np.ndarray, psi: np.ndarray) -> np.ndarray:
            c1, c2, p, q = _chart_points(kind, x, s, psi, True)
            na, nb = np.moveaxis(_field_values(field.fn, kind, 1, c1, c2), -1, 0)
            # Adapted components of nu at the target; the arrival coframe is
            # (p, q) and its star is (-q, p).
            nu1 = na * p + nb * q
            nu2 = -na * q + nb * p
            cpsi = np.cos(psi)[None, :]
            spsi = np.sin(psi)[None, :]
            return np.stack([-nu1 * cpsi + nu2 * spsi, -nu1 * spsi - nu2 * cpsi],
                            axis=-1)

        out = _nested_integral(kind, edges, sample, 0.5 * tol, _APPLY_START,
                               _APPLY_LIMIT, kappa, 0.25 * tol / sup)
        return OneFormValue(float(out[0]), float(out[1]))

    return FormField(1, evaluate, _evolved_hint(field.decay, t))


# ---------------------------------------------------------------------------
# residual of the componentwise heat operator

def heat_residual(kind, fields, x: Point, h_t: float = 1e-3,
                  h_space: float = 1e-2) -> float:
    """Finite-difference residual of (partial_t + Delta) on a sampled form.

    fields is a (before, at, after) triple of FormField snapshots at times
    (t - h_t, t, t + h_t).  The spatial part uses the componentwise operator
    in geodesic polar coordinates, with L = S(r) of geometry._MODELS: scalar
    rows -u_rr - (L'/L) u_r - u_tt/L^2, and for 1-forms the coupled rows that
    additionally carry the zeroth-order term u/L^2 and the cross terms
    +-2 (L'/L^2) partial_theta of the other component.  Each component's
    derivatives come from the same five-point stencil in (r, theta) and the
    central difference in time.  Returns the largest component magnitude.
    """
    kind = SurfaceKind.parse(kind)
    before, mid, after = fields
    if not (before.degree == mid.degree == after.degree):
        raise DomainError("field history must have a single degree")
    if not (0.0 < h_t < math.inf and 0.0 < h_space < math.inf):
        raise DomainError("step sizes must be finite and positive")
    r, th = x.c1, x.c2
    top = math.pi if kind is _SPHERE else math.inf
    if r - h_space <= 0.0 or r + h_space >= top:
        raise DomainError("stencil too close to a coordinate pole")
    lam, lam_d = _MODELS[kind].S(r), _MODELS[kind].C(r)
    lam_ratio = lam_d / lam

    # the five stencil points, (r, th) first, as one row of chart arrays
    c1 = np.array([[r, r + h_space, r - h_space, r, r]])
    c2 = np.array([[th, th, th, th + h_space, th - h_space]])
    u = _field_values(mid.fn, kind, mid.degree, c1, c2)[0]
    late, early = (_field_values(f.fn, kind, mid.degree, c1[:, :1], c2[:, :1])[0, 0]
                   for f in (after, before))
    u_t = (late - early) / (2.0 * h_t)
    u_r, u_rr = (u[1] - u[2]) / (2.0 * h_space), (u[1] - 2.0 * u[0] + u[2]) / h_space ** 2
    u_th, u_tt = (u[3] - u[4]) / (2.0 * h_space), (u[3] - 2.0 * u[0] + u[4]) / h_space ** 2
    if mid.degree != 1:
        return float(abs(u_t - u_rr - lam_ratio * u_r - u_tt / lam ** 2))
    inv2 = 1.0 / lam ** 2
    coup = 2.0 * lam_d * inv2
    rows = (u_t - u_rr - lam_ratio * u_r + u[0] * inv2 - u_tt * inv2
            + coup * u_th[::-1] * np.array([1.0, -1.0]))
    return float(np.abs(rows).max())
