"""Heat kernels for 0-, 1-, and 2-forms on the three model surfaces.

The scalar kernel K0 is a closed form on the plane, a Legendre series on the
sphere, and McKean's single integral on the hyperbolic plane.  There the
batched route hyperbolic._h2_mckean gives K0, and the 1-form generator G
with its radial derivative G_d, at any number of distances from one shared
w grid; the spectral integral (hyperbolic._h2_spectral) gives the same three
rows by an independent route and is the oracle the verification suite holds
the served values against.

The 1-form kernel is assembled from the scalar generator
G(d, t) = int_t^inf K0(d, tau) dtau (mean-zero part on the sphere): its radial
derivatives feed the mixed distance Hessian and the (I + star star)
symmetrizer.  On each surface G satisfies the radial identity
G_dd = -(L'/L)(d) G_d - K0 + 1/area, which supplies G_dd without a third
series or quadrature and is exact in the same sense the other two are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CoincidentPointsError, CutLocusError, DecayHintError,
                     DomainError, NonconvergenceError)
from .geometry import (_MODELS, BiTensor1, OneFormValue, Point, SurfaceKind,
                       apply_i_plus_star, distance, _chart_points, _check_finite,
                       _grid_points, _nested_integral, _outer_plus,
                       _pair_derivatives)
from .hyperbolic import _h2_mass_tail, _h2_mckean
from .quadrature import (DEFAULT_BUDGET, DecayHint, ToleranceBudget,
                         refine_until_stable, solve_radius)
from .specfun import _EPS

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
_EULER_GAMMA = 0.57721566490153286061


@dataclass(frozen=True)
class HeatTime:
    """Validated evolution time; the numerical floor is T_MIN."""

    t: float

    def __post_init__(self):
        t = float(self.t)
        if not math.isfinite(t) or t < T_MIN:
            raise DomainError(f"time must be finite and >= {T_MIN}")
        object.__setattr__(self, "t", t)


def _as_time(t) -> float:
    if isinstance(t, HeatTime):
        return t.t
    return HeatTime(float(t)).t


@dataclass(frozen=True)
class Kernel0Value:
    """Scalar kernel value with its error estimate and truncation metadata.

    terms counts series terms on the sphere and, on the hyperbolic plane,
    the w nodes of every pass of the McKean integral; radius is that
    integral's w limit (0 for closed forms and series).
    """

    value: float
    err_est: float
    terms: int
    radius: float


@dataclass(frozen=True)
class Kernel1Value:
    """2x2 frame-coupling matrix of the 1-form kernel plus diagnostics.

    terms and radius are as in Kernel0Value; on the hyperbolic plane one
    McKean integral yields K0, G and G_d together, so terms counts its w
    nodes once.
    """

    matrix: BiTensor1
    err_est: float
    terms: int
    radius: float


@dataclass(frozen=True)
class FormField:
    """A sampled form: degree 0/2 map Points to floats, degree 1 to
    OneFormValue.  Noncompact-surface integrations require the decay hint."""

    degree: int
    fn: object
    decay: DecayHint | None = None

    def __post_init__(self):
        if self.degree not in (0, 1, 2):
            raise DomainError("form degree must be 0, 1, or 2")

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
    return _k0_dist(SurfaceKind.HYPERBOLIC, d, t, budget)[0]


def _mass_tail(kind: SurfaceKind, radius: float, t: float) -> float:
    """Upper bound for the kernel mass beyond the given geodesic radius."""
    if kind is SurfaceKind.SPHERE:
        return 0.0
    if kind is SurfaceKind.EUCLIDEAN:
        return math.exp(-radius * radius / (4.0 * t))
    return _h2_mass_tail(radius, t)


def _mass_radius(kind: SurfaceKind, t: float, tol: float) -> float:
    return solve_radius(lambda R: _mass_tail(kind, R, t), tol,
                        max(1.0, 3.0 * math.sqrt(t)), 1.2)[0]


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

def _k0_dist(kind: SurfaceKind, d, t: float, budget: ToleranceBudget):
    """K0 at a distance d: (value, err_est, terms, radius), with terms and
    radius as in Kernel0Value.

    d is a float or an array of floats, and the value is of the same type.
    A float stays on Python floats (math.exp, math.cos); on the sphere and
    H2 it gets the bits of the one entry of a 1-element array, which runs
    through numpy.  err_est bounds every entry.
    """
    scalar = isinstance(d, float)
    if kind is SurfaceKind.EUCLIDEAN:
        value = (math.exp if scalar else np.exp)(-d * d / (4.0 * t)) / (_FOUR_PI * t)
        return value, 8.0 * _EPS / (_FOUR_PI * t), 1, 0.0
    if kind is SurfaceKind.SPHERE:
        raw, n_max, tail, _ = _sphere_series((math.cos if scalar else np.cos)(d), t,
                                             budget.abs_tol)
        return raw / _FOUR_PI, tail / _FOUR_PI, n_max, 0.0
    rows, err, radius, evals = _h2_mckean(d, t, budget)
    return (float(rows[0, 0]) if scalar else rows[0]), err, evals, radius


def k0(kind, x: Point, y: Point, t,
       budget: ToleranceBudget = DEFAULT_BUDGET) -> Kernel0Value:
    """Scalar (0-form) heat kernel at a point pair."""
    kind = SurfaceKind.parse(kind)
    t = _as_time(t)
    d = distance(kind, x, y)
    return Kernel0Value(*_k0_dist(kind, d, t, budget))


# ---------------------------------------------------------------------------
# 1-form generator

def _ein(z: float) -> float:
    """Ein(z) = int_0^z (1 - e^-s)/s ds = E1(z) + gamma + ln z, for 0 <= z <= 1,
    by its power series sum_k (-1)^(k+1) z^k / (k k!) (DLMF §6.6)."""
    total, term = 0.0, -1.0
    for k in range(1, 25):
        term *= -z / k
        total += term / k
    return total


def _e1(z: float) -> float:
    """Exponential integral E1(z) for z > 1 by the even contraction of its
    continued fraction (DLMF §6.9), e^-z / (z + 1 - 1/(z + 3 - 4/(z + 5 -
    ...))), summed with the modified Lentz method."""
    scale = math.exp(-z)
    if scale == 0.0:
        return 0.0  # E1(z) < e^-z / z has underflowed
    b = z + 1.0
    c, d = math.inf, 1.0 / b
    frac = d
    for k in range(1, 200):
        b += 2.0
        d = 1.0 / (b - k * k * d)
        c = b - k * k / c
        frac *= c * d
        if abs(c * d - 1.0) <= _EPS:
            break
    return frac * scale


def _euclid_g1(d: float, t: float):
    z = d * d / (4.0 * t)
    kern = math.exp(-z) / (_FOUR_PI * t)
    # G = -(2 ln d + E1(z)) / 4 pi.  Below z = 1, E1 = Ein - gamma - ln z
    # cancels the logarithm of d, so a d whose z underflows keeps a finite G.
    if z <= 1.0:
        g_val = (_EULER_GAMMA - math.log(4.0 * t) - _ein(z)) / _FOUR_PI
    else:
        g_val = -(2.0 * math.log(d) + _e1(z)) / _FOUR_PI
    g_d = math.expm1(-z) / (2.0 * math.pi * d)
    g_dd = -g_d / d - kern
    return g_val, g_d, g_dd


def _g1_full(kind: SurfaceKind, d: float, t: float, budget: ToleranceBudget,
             h2=_h2_mckean):
    """(G, G_d, G_dd, err_d1, err_d2, terms, radius) behind g1_scalar and k1;
    h2 is the hyperbolic route (_h2_spectral when checking the oracle)."""
    if not (math.isfinite(d) and d >= 0.0):
        raise DomainError("distance must be finite and nonnegative")
    if d == 0.0:
        raise CoincidentPointsError(
            "the 1-form generator is singular at zero separation; use the "
            "kernel's coincidence form instead")
    if kind is SurfaceKind.SPHERE and d >= math.pi:
        raise CutLocusError("generator derivatives are undefined at the cut locus")
    tol = budget.abs_tol
    if kind is SurfaceKind.EUCLIDEAN:
        g_val, g_d, g_dd = _euclid_g1(d, t)
        # expm1 keeps G_d within a few ulps relative at any d, and
        # |G_dd| <= |G_d| / d + K0 <= 3 / (8 pi t).
        err2 = 8.0 * _EPS * (abs(g_d) + 1.0 / (_FOUR_PI * t))
        return g_val, g_d, g_dd, 8.0 * _EPS * abs(g_d), err2, 1, 0.0
    if kind is SurfaceKind.SPHERE:
        # 0.24 rather than 0.25 of tol per series leaves room for roundoff
        k0_raw, _, k0_tail, (g_val, g_d, n_max, tail) = _sphere_series(
            math.cos(d), t, 0.24 * tol, math.sin(d))
        kern = k0_raw / _FOUR_PI
        g_dd = -g_d / math.tan(d) - kern + 1.0 / _FOUR_PI
        # the series tails, plus the roundoff of the sums as on the plane
        err1 = tail * math.sin(d) + 8.0 * _EPS * abs(g_d)
        err2 = tail * abs(math.cos(d)) + k0_tail / _FOUR_PI + 8.0 * _EPS * abs(g_dd)
        return g_val, g_d, g_dd, err1, err2, n_max, 0.0
    rows, err, radius, evals = h2([d], t, budget, generator=True)
    kern, g_val, g_d = (float(v) for v in rows[:, 0])
    g_dd = -g_d / math.tanh(d) - kern
    err_k0, _, err_gd = (float(e) for e in np.broadcast_to(err, 3))
    return g_val, g_d, g_dd, err_gd, err_gd / math.tanh(d) + err_k0, evals, radius


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
    g_val, g_d, g_dd, _, _, _, _ = _g1_full(kind, float(d), t, budget)
    return g_val, g_d, g_dd


def _k1_coincidence(kind: SurfaceKind, t: float, budget: ToleranceBudget):
    """Diagonal value c(t) with K1(x, x, t) = c(t) I, from the d -> 0 limit
    of -(G_dd + G_d/L(d)), which the radial identity collapses to the
    coincidence kernel value (minus 1/4pi on the sphere)."""
    if kind is SurfaceKind.EUCLIDEAN:
        return 1.0 / (_FOUR_PI * t), 2.0 * _EPS / t, 1, 0.0
    if kind is SurfaceKind.SPHERE:
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
        c, err, terms, radius = _k1_coincidence(kind, t, budget)
        return Kernel1Value(BiTensor1(c, 0.0, 0.0, c), 2.0 * err, terms, radius)
    return _k1_apart(kind, x, y, d, t, budget)


def _k1_apart(kind: SurfaceKind, x: Point, y: Point, d: float, t: float,
              budget: ToleranceBudget, h2=_h2_mckean) -> Kernel1Value:
    """k1 at separation d = distance(kind, x, y) > 0, with the hyperbolic
    rows from route h2."""
    data = _pair_derivatives(kind, x, y, d)
    frame_scale = max(map(abs, data.mixed))
    tol = budget.abs_tol
    if kind is SurfaceKind.HYPERBOLIC:
        # The K0 and G_d rows each come with their own bound within this
        # part; the error below is 2 (err_K0 + err_Gd (coth d + frame_scale)),
        # so 2 (1 + coth d + frame_scale) parts cover it.
        budget = budget.part(0.5 / (1.0 + 1.0 / math.tanh(d) + frame_scale))
    elif kind is SurfaceKind.SPHERE:
        # Each series tail is at most 0.24 of the part; G's reaches the
        # error below through |cos d| + sin d frame_scale and K0's once, so
        # the tails take at most 0.24 abs_tol and roundoff the rest.
        budget = budget.part(0.5 / (1.0 + abs(math.cos(d))
                                    + math.sin(d) * frame_scale))
    _, g_d, g_dd, err1, err2, terms, radius = _g1_full(kind, d, t, budget, h2)
    err = 2.0 * (err2 + err1 * frame_scale)
    if kind is SurfaceKind.SPHERE and err > tol:
        # The roundoff of the sums took more than 0.76 abs_tol: shrink the
        # tails to 0.72 of what it leaves, or report what it spent.
        roundoff = 16.0 * _EPS * (abs(g_d) * frame_scale + abs(g_dd))
        if roundoff < tol:
            _, g_d, g_dd, err1, err2, terms, radius = _g1_full(
                kind, d, t, budget.part(3.0 * (1.0 - roundoff / tol)), h2)
            err = 2.0 * (err2 + err1 * frame_scale)
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
    if kind is SurfaceKind.SPHERE:
        return 1.0
    if field.decay is None:
        raise DecayHintError("applying the kernel on a noncompact surface "
                             "needs the field's decay hint")
    return field.decay.bound


def _one_form_parts(values, kind: SurfaceKind):
    """a, then b, of each degree-1 field value, in order (flat floats fill
    an array faster than pairs do)."""
    for v in values:
        try:
            a, b = v.a, v.b
        except AttributeError:
            raise DomainError(
                f"the degree-1 field returned {type(v).__name__!r}, not a value "
                f"with components .a and .b, on the {kind.value} surface") from None
        yield a
        yield b


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
    if kind is not SurfaceKind.SPHERE:
        return 0.0, _mass_radius(kind, t, tol)
    width = _mass_radius(SurfaceKind.EUCLIDEAN, t, tol)
    return (0.0, width, math.pi) if width < math.pi else (0.0, math.pi)


def _kernel_tol(kind: SurfaceKind, edges: tuple, tol: float) -> float:
    """Pointwise tolerance of the radial kernel values, a tenth of tol
    spread over the disc of the truncation radius on the planes."""
    reach = 1.0 if kind is SurfaceKind.SPHERE else max(1.0, edges[-1] ** 2)
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
    field evaluates lazily, and a non-finite value raises DomainError.
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
            vals = np.fromiter(map(float, map(field.fn, _grid_points(kind, c1, c2))),
                               float, count=c1.size).reshape(c1.shape)
            _check_finite(vals, 0, kind)
            return vals

        return float(_nested_integral(kind, edges, sample, 0.5 * tol, _APPLY_START,
                                      _APPLY_LIMIT, kernel, 0.25 * tol / sup))

    return FormField(0, evaluate, _evolved_hint(field.decay, t))


def _kappa_batch(kind: SurfaceKind, s_nodes: np.ndarray, t: float, tol: float,
                 budget: ToleranceBudget) -> np.ndarray:
    """Radial profile kappa(s) with K1 = kappa(d) I in geodesic-adapted
    frames at both points; kappa = G_dd + G_d / L(d), reduced through the
    radial identity so only K0 and G_d are needed."""
    if kind is SurfaceKind.HYPERBOLIC:
        (kern, _, gd), _, _, _ = _h2_mckean(
            s_nodes, t, budget.part(max(tol / budget.abs_tol, 0.01)),
            generator=True)
        return -kern - np.tanh(0.5 * s_nodes) * gd
    if kind is SurfaceKind.EUCLIDEAN:
        return -_k0_dist(kind, s_nodes, t, budget)[0]
    raw, _, _, (_, gd, _, _) = _sphere_series(np.cos(s_nodes), t, tol,
                                              np.sin(s_nodes))
    return -(raw / _FOUR_PI) + 1.0 / _FOUR_PI + np.tan(0.5 * s_nodes) * gd


def apply_k1(kind, field: FormField, t,
             budget: ToleranceBudget = DEFAULT_BUDGET) -> FormField:
    """Heat evolution of a 1-form: x -> int K1(x, y, t) wedge star_y nu(y).

    In frames adapted to the geodesic between the points the kernel matrix is
    kappa(d) I, so the integrand needs only the radial profile kappa, the
    direction of departure at x, and the direction of arrival at y.  The
    field is sampled as in apply_k0, once per node of a grid whose radial
    start comes from kappa; a value without finite components .a and .b
    raises DomainError.  On H2 a Gaussian or exponential hint sets the cut
    by a bound on kappa's tail at each x (_h2_kappa_radius).  A bounded
    hint keeps the cut at K0's mass radius, where G_d's tail, which decays
    only like 1/sinh s, is not counted.
    """
    kind = SurfaceKind.parse(kind)
    t = _as_time(t)
    if field.degree != 1:
        raise DomainError("apply_k1 expects a degree-1 field")
    sup = max(_field_bound(field, kind), 1e-300)
    tol = budget.abs_tol
    kbudget = budget.part(0.25)
    mass_edges = _radial_edges(kind, t, 0.125 * tol / sup)

    def evaluate(x: Point) -> OneFormValue:
        edges = mass_edges
        if kind is SurfaceKind.HYPERBOLIC and field.decay.kind != "bounded":
            edges = (0.0, _h2_kappa_radius(field.decay, x.c1, t, 0.125 * tol))
        ktol = _kernel_tol(kind, edges, tol / sup)

        def kappa(s: np.ndarray) -> np.ndarray:
            return _kappa_batch(kind, s, t, ktol, kbudget)

        def sample(s: np.ndarray, psi: np.ndarray) -> np.ndarray:
            c1, c2, p, q = _chart_points(kind, x, s, psi, True)
            values = map(field.fn, _grid_points(kind, c1, c2))
            nu = np.fromiter(_one_form_parts(values, kind), float,
                             count=2 * c1.size).reshape(c1.shape + (2,))
            _check_finite(nu, 1, kind)
            na, nb = nu[..., 0], nu[..., 1]
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
    top = math.pi if kind is SurfaceKind.SPHERE else math.inf
    if r - h_space <= 0.0 or r + h_space >= top:
        raise DomainError("stencil too close to a coordinate pole")
    lam, lam_d = _MODELS[kind].S(r), _MODELS[kind].C(r)
    lam_ratio = lam_d / lam

    stencil = [Point(kind, r, th), Point(kind, r + h_space, th),
               Point(kind, r - h_space, th), Point(kind, r, th + h_space),
               Point(kind, r, th - h_space)]
    vals = [mid.fn(p) for p in stencil]
    late, early = after.fn(stencil[0]), before.fn(stencil[0])

    def differences(part):
        """(u, u_t, u_r, u_rr, u_th, u_thth) at x of one component part(value)."""
        u = [part(v) for v in vals]
        return (u[0], (part(late) - part(early)) / (2.0 * h_t),
                (u[1] - u[2]) / (2.0 * h_space),
                (u[1] - 2.0 * u[0] + u[2]) / h_space ** 2,
                (u[3] - u[4]) / (2.0 * h_space),
                (u[3] - 2.0 * u[0] + u[4]) / h_space ** 2)

    if mid.degree != 1:
        _, u_t, u_r, u_rr, _, u_tt = differences(float)
        return abs(u_t - u_rr - lam_ratio * u_r - u_tt / lam ** 2)

    b0, b_t, b_r, b_rr, b_th, b_tt = differences(lambda v: v.a)
    c0, c_t, c_r, c_rr, c_th, c_tt = differences(lambda v: v.b)
    inv2 = 1.0 / lam ** 2
    coup = 2.0 * lam_d * inv2
    row_b = (b_t - b_rr - lam_ratio * b_r + b0 * inv2 - b_tt * inv2
             + coup * c_th)
    row_c = (c_t - c_rr - lam_ratio * c_r + c0 * inv2 - c_tt * inv2
             - coup * b_th)
    return max(abs(row_b), abs(row_c))
