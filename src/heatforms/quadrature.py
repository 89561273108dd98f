"""Quadrature, truncation and refinement for every numerical routine.

The one integrator over an interval is ``_integrate_panels``, which halves
the worst panel of a given partition until the summed error fits: the
package's own rho integral (``specfun._synthesis``, on canonical grids of
its own) and the forward transform's r integral (``_seeded_edges``) start
it from equal seeded panels, both counted by ``_panel_count`` before any is
built.  A seeded pass whose error already fits is returned as it is.  It
returns ``(value, err_est)``, a float ``err_est`` no larger than the
requested absolute tolerance or, where that lies below the roundoff, than
64 eps times the K21 sum of |f| already spent; or it raises
:class:`~heatforms.errors.NonconvergenceError`.

Each panel takes QUADPACK's 21-point Gauss-Kronrod rule, laid on a
partition by ``_kronrod_panels``; its embedded 10-point Gauss sum on the
same nodes is the accuracy check.

Two helpers here are the package's only truncation and refinement policy:
``solve_radius`` cuts every noncompact integral or sum at the first radius
where an explicit tail bound falls below its share of the tolerance, and
``refine_until_stable`` doubles a grid until two successive passes agree,
or until one pass agrees with the lower-order rule embedded in it.
Every radius search and every "refine until two passes agree" loop in the
package calls them, so each failure reports the tail or the change it
achieved against the tolerance it was asked for.  The area tail of a
decay hint on the plane or the hyperbolic plane, which cuts both
``integrate_surface`` and the forward Mehler-Fock transform, is solved
here too, by ``_area_tail``, and so is the Gaussian tail that cuts the rho
integral, by ``gaussian_tail_radius``, whose search starts from two Newton
steps on the tail bound and so normally accepts its first radius.

A ToleranceBudget asks for accuracy alone; each route caps its own
refinement: ``_integrate_panels`` at _MAX_DEPTH = 40 halvings of a panel
or _MAX_PANELS = 20,000 panels (also the most ``_seeded_edges`` seeds),
``solve_radius`` at _MAX_RADIUS_STEPS = 400 radii, McKean's trapezoid sum
at hyperbolic._MCKEAN_HALVINGS = 8 halvings of its step,
``specfun._conical_integral`` at the first grid past
specfun._CONICAL_PANELS = 65536 panels, and the nested sampler's rules at
kernels._APPLY_LIMIT = (512, 512) in apply_k0 and apply_k1 and
geometry._SURFACE_LIMIT = (2048, 4096) in integrate_surface.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DecayHintError, DomainError, NonconvergenceError

__all__ = [
    "ToleranceBudget",
    "DEFAULT_BUDGET",
    "DecayHint",
    "gaussian_tail_radius",
]

# Hard caps on seeded and accepted panels and on the halvings of one, so a
# hostile integrand or a tiny panel width cannot allocate unboundedly.
_MAX_PANELS = 20000
_MAX_DEPTH = 40
# Radii a truncation search tries before giving up; even at the smallest
# growth factor in use (1.2) this spans 31 decades beyond the start radius.
_MAX_RADIUS_STEPS = 400
_EPS = float(np.finfo(float).eps)


def _as_float(value, what: str) -> float:
    """float(value), or a DomainError whose message starts with what, the
    argument or the callback the value came from ("abs_tol is", "fhat
    returned") and names its type.  A numpy complex scalar, which float()
    would cut to its real part, is refused like a Python complex."""
    if type(value) is float:
        return value
    if not isinstance(value, (complex, np.complexfloating)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise DomainError(f"{what} {type(value).__name__!r}, not a float")


@dataclass(frozen=True)
class ToleranceBudget:
    """Accuracy request threaded through kernels, series, and quadratures.

    abs_tol, the whole request, is the absolute error target for the final
    result; routines that combine several truncations split it internally.
    """

    abs_tol: float = 1e-8

    def __post_init__(self):
        abs_tol = self.abs_tol
        if type(abs_tol) is not float:  # part() passes floats: no store there
            abs_tol = _as_float(abs_tol, "abs_tol is")
            object.__setattr__(self, "abs_tol", abs_tol)
        if not (abs_tol > 0.0) or not math.isfinite(abs_tol):
            raise DomainError("abs_tol must be positive and finite")

    def part(self, fraction: float) -> "ToleranceBudget":
        """A budget carrying `fraction` of this budget's error allowance."""
        return ToleranceBudget(self.abs_tol * fraction)


DEFAULT_BUDGET = ToleranceBudget()


@dataclass(frozen=True)
class DecayHint:
    """Analytic envelope |f(r)| <= bound * exp(-rate * r^p).

    kind selects p: "gaussian" means p = 2, "exp" means p = 1, and "bounded"
    means no decay at all (rate ignored).  Truncation radii for integrals over
    noncompact surfaces are solved against this envelope.
    """

    kind: str = "bounded"
    rate: float = 0.0
    bound: float = 1.0

    def __post_init__(self):
        if self.kind not in ("bounded", "exp", "gaussian"):
            raise DomainError(f"unknown decay kind {self.kind!r}")
        if self.kind != "bounded" and not 0.0 < self.rate < math.inf:
            raise DomainError("decaying hints need a positive finite rate")
        if not 0.0 <= self.bound < math.inf:
            raise DomainError("bound must be finite and nonnegative")

    def envelope(self, r: float) -> float:
        if self.kind == "gaussian":
            return self.bound * math.exp(-self.rate * r * r)
        if self.kind == "exp":
            return self.bound * math.exp(-self.rate * r)
        return self.bound


def _area_tail(decay: DecayHint, tol: float, hyperbolic: bool, scale: float = 1.0):
    """(R, tail) with tail = scale * int_{r > R} envelope(r) dA <= tol.

    The area element is 2 pi r dr on the plane and 2 pi sinh r dr <= pi e^r
    dr on the hyperbolic plane.  On the plane a Gaussian envelope leaves
    the tail pi C e^{-a R^2} / a, solved in closed form, and an exponential
    one 2 pi C (R + 1/a) e^{-a R} / a.  On H2 a Gaussian envelope leaves
    pi C exp(R - a R^2) / (2 a R - 1), an exponential one pi C exp((1 - a)
    R) / (a - 1).  C is the hint's bound times scale.  A bounded hint, or
    exponential decay at a rate the hyperbolic area growth defeats (a <= 1),
    raises DecayHintError; a pi C past the float range raises DomainError.
    """
    if decay.kind == "bounded":
        raise DecayHintError("integrals over a noncompact surface need decay")
    if decay.bound == 0.0:
        return 1.0, 0.0
    a = decay.rate
    c = math.pi * decay.bound * scale
    if not math.isfinite(c):
        raise DomainError(f"the area tail's factor pi * bound {decay.bound:.6g} "
                          f"* scale {scale:.6g} overflows")
    if not hyperbolic:
        if decay.kind == "gaussian":
            ratio = c / a / tol  # its log taken term by term where it overflows
            log_ratio = (math.log(max(ratio, 1.0)) if ratio < math.inf
                         else math.log(c) - math.log(a) - math.log(tol))
            R = max(1.0, math.sqrt(log_ratio / a))
            return R, c * math.exp(-a * R * R) / a

        def exp_tail(R: float) -> float:
            tail = 2.0 * c * (R + 1.0 / a) * math.exp(-a * R) / a
            if tail < math.inf:
                return tail
            # its log taken term by term where the product overflows
            log_tail = (math.log(2.0) + math.log(c) + math.log(R + 1.0 / a)
                        - a * R - math.log(a))
            return math.exp(log_tail) if log_tail < 709.0 else math.inf

        return solve_radius(exp_tail, tol, max(1.0, 2.0 / a), 1.25)
    if decay.kind == "exp":
        if a <= 1.0:
            raise DecayHintError("exponential decay on the hyperbolic plane must "
                                 "have rate > 1 to beat the area growth")
        return solve_radius(lambda R: c * math.exp((1.0 - a) * R) / (a - 1.0),
                            tol, 2.0, 1.25)

    def tail(R: float) -> float:
        slope = 2.0 * a * R - 1.0
        return c * math.exp(R - a * R * R) / slope if slope > 0.0 else math.inf

    return solve_radius(tail, tol, max(2.0, 1.0 / a), 1.25)


# QUADPACK's 21-point Gauss-Kronrod rule QK21 (Piessens, de Doncker-Kapenga,
# Ueberhuber & Kahaner, QUADPACK, Springer 1983) on [-1, 1].  The rule is
# symmetric, so only the nonnegative nodes are listed, largest first; those
# at odd positions are the nodes of the embedded 10-point Gauss rule, whose
# weights _G10_WEIGHTS lists in the same order.
_K21_NODES = (0.995657163025808080735527280689003,
              0.973906528517171720077964012084452,
              0.930157491355708226001207180059508,
              0.865063366688984510732096688423493,
              0.780817726586416897063717578345042,
              0.679409568299024406234327365114874,
              0.562757134668604683339000099272694,
              0.433395394129247190799265943165784,
              0.294392862701460198131126603103866,
              0.148874338981631210884826001129720,
              0.0)
_K21_WEIGHTS = (0.011694638867371874278064396062192,
                0.032558162307964727478818972459390,
                0.054755896574351996031381300244580,
                0.075039674810919952767043140916190,
                0.093125454583697605535065465083366,
                0.109387158802297641899210590325805,
                0.123491976262065851077958109831074,
                0.134709217311473325928054001771707,
                0.142775938577060080797094273138717,
                0.147739104901338491374841515972068,
                0.149445554002916905664936468389821)
_G10_WEIGHTS = (0.066671344308688137593568809893332,
                0.149451349150580593145776339657697,
                0.219086362515982043995534934228163,
                0.269266719309996355091226921569469,
                0.295524224714752870173892994651338)


@lru_cache(maxsize=None)
def _kronrod21():
    """QK21 on [-1, 1]: ascending nodes and a (21, 2) array of weights whose
    columns are the K21 rule and its embedded G10 rule (0 at the 11 nodes
    only K21 uses)."""
    half = np.array(_K21_NODES)
    g10 = np.zeros(11)
    g10[1::2] = _G10_WEIGHTS
    weights = np.array([_K21_WEIGHTS, g10]).T
    return (np.concatenate([-half[:-1], half[::-1]]),
            np.concatenate([weights[:-1], weights[::-1]]))


def _kronrod_panels(edges):
    """Nodes and (K21, G10) weight columns of QK21 laid on every panel
    [edges[i], edges[i + 1]] of a partition, 21 nodes per panel in order."""
    x, w = _kronrod21()
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)
    mids = edges[:-1] + half
    return ((mids[:, None] + half[:, None] * x).ravel(),
            (half[:, None, None] * w).reshape(-1, 2))


def solve_radius(tail, tol: float, start: float, grow: float):
    """First radius R = start * grow**k with tail(R) <= tol.

    tail(R) must bound what is cut off beyond R (math.inf where the bound
    does not apply yet).  Returns (R, tail(R)); raises NonconvergenceError
    carrying the last tail against tol when no radius qualifies.
    """
    R = start
    for _ in range(_MAX_RADIUS_STEPS):
        bound = tail(R)
        if bound <= tol:
            return R, bound
        R *= grow
    raise NonconvergenceError(
        f"tail bound {bound:.3e} would not fall below {tol:.3e} "
        f"(last radius {R / grow:.3e})", achieved=bound, requested=tol)


def _max_change(cur, prev) -> float:
    if isinstance(cur, tuple):
        return max(_max_change(c, p) for c, p in zip(cur, prev) if c is not None)
    return float(np.abs(cur - prev).max())


def refine_until_stable(one_pass, n: int, tol: float, rounds: int, floor=None,
                        embedded: bool = False, change=_max_change):
    """Rerun one_pass(n) with n doubled each round until two passes agree.

    one_pass returns a float, an array, or a tuple of them (None entries
    are skipped).  A pass is accepted once the largest change from the
    previous one is at most tol or, if given, floor(result), the roundoff
    already spent.  With `embedded`, one_pass returns (result, lower): the
    result and a lower-order one from the same nodes, such as the Gauss
    rule inside a Kronrod rule.  Each pass is then compared with its own
    lower result, so the first pass can be accepted.  change(result,
    previous) gives that largest change, once per pass; a caller that needs
    it entry by entry can keep its own.  Returns (result, last_change);
    raises NonconvergenceError with the last change against tol once
    `rounds` doubled passes after the first have not settled.
    """
    prev = None
    diff = math.inf
    for k in range(rounds + 1):
        cur = one_pass(n << k)
        if embedded:
            cur, prev = cur
        if embedded or k:
            diff = change(cur, prev)
            if diff <= tol or (floor is not None and diff <= floor(cur)):
                return cur, diff
        prev = cur
    raise NonconvergenceError(
        f"refinement did not stabilize: change {diff:.3e} after {rounds} "
        f"rounds (requested {tol:.3e})", achieved=diff, requested=tol)


class _ComplexRefused(warnings.catch_warnings):
    """A context in which numpy's ComplexWarning is an error: a cast to
    float would otherwise cut a complex value to its real part.  The
    warning is raised where the cast happens, in a callback's own code
    too."""

    def __enter__(self):
        log = super().__enter__()
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        return log


def _read_floats(fn, xs: np.ndarray, what: str) -> np.ndarray:
    """fn at every entry of a 1-d array xs, as a float array.

    fn takes Python floats, and one np.fromiter converts its values under
    _ComplexRefused, as float() does but a None to NaN.  Only a value it
    refuses, or a NaN, sends the nodes through _as_float again, so a
    value float() cannot take, a complex one and a None raise its
    DomainError naming `what` and the value's type; a NaN is returned for
    the caller's non-finite check.  An error raised inside fn, a frame
    below the conversion, propagates unchanged.
    """
    nodes = xs.tolist()
    try:
        with _ComplexRefused():
            values = np.fromiter(map(fn, nodes), float, count=len(nodes))
        if not np.isnan(values).any():
            return values
    except (TypeError, ValueError, np.exceptions.ComplexWarning) as exc:
        if exc.__traceback__.tb_next is not None:
            raise
    return np.array([_as_float(fn(x), f"{what} returned") for x in nodes])


def _panel_estimates(f, edges, rule=None):
    """(K21 values, |K21 - G10| errors, K21 sums of |f|) of every panel of
    a partition, from one evaluation of f on the nodes of rule, the
    (nodes, weights) of _kronrod_panels(edges) when the caller holds them;
    a row-valued f gives (panel, row) values and each panel's largest error
    and largest sum of |f| over its rows."""
    xs, w = _kronrod_panels(edges) if rule is None else rule
    ys = np.asarray(f(xs))
    if ys.dtype.kind == "c":  # the cast below would drop the imaginary part
        raise DomainError("integrand returned complex values")
    ys = ys.astype(float, copy=False)  # a None becomes NaN, refused below
    if ys.ndim not in (1, 2) or ys.shape[-1] != xs.size:
        raise DomainError("integrand returned a wrong shape")
    if not np.all(np.isfinite(ys)):
        raise DomainError(f"integrand returned a non-finite value on "
                          f"[{edges[0]}, {edges[-1]}]")
    n = len(edges) - 1
    w = w.reshape(n, 21, 2)
    rows = ys.reshape(-1, n, 21)
    # (row, panel) sums of each rule
    k21, g10 = ((rows * w[..., k]).sum(axis=2) for k in (0, 1))
    mass = (np.abs(rows) * w[..., 0]).sum(axis=2).max(axis=0)
    return ((k21.T if ys.ndim == 2 else k21[0]), np.abs(k21 - g10).max(axis=0),
            mass)


def _panel_count(cut: float, width: float) -> int:
    """The fewest equal panels no wider than width on [0, cut].  More than
    _MAX_PANELS of them raise DomainError, before any is built."""
    count = cut / width
    if not count <= _MAX_PANELS:
        raise DomainError(f"panels of width {width:.3g} on [0, {cut:.3g}] would "
                          f"number {count:.3g}, above the {_MAX_PANELS} allowed")
    return math.ceil(count)


def _seeded_edges(cut: float, width: float) -> np.ndarray:
    """Edges of the fewest equal panels no wider than width on [0, cut],
    counted by _panel_count."""
    return np.linspace(0.0, cut, _panel_count(cut, width) + 1)


def _fsum(values: np.ndarray):
    """math.fsum of panel values, per row of (panel, row) ones."""
    if values.ndim == 2:
        return np.array([math.fsum(row) for row in values.T])
    return math.fsum(values)


def _integrate_panels(f, edges, budget: ToleranceBudget, first=None):
    """(value, err_est) of f on [edges[0], edges[-1]], starting from the
    partition edges and halving the worst panel (by |K21 - G10|) until the
    errors sum to at most budget.abs_tol, or to at most 64 eps times the
    K21 sum of |f|: the roundoff already spent, below which halving only
    measures noise.  err_est is that summed error.  A seeded pass that
    already fits returns at once, the math.fsum of its panel values.
    first, when given, is _panel_estimates(f, edges) as the caller computed
    it (on a cached rule).  f maps an ndarray of nodes to values, or to a
    2-d array of one row per component, giving one value per row and a
    float err_est of each panel's largest row error summed.  A complex,
    non-finite or misshapen value raises DomainError, and f's own
    exceptions propagate; NonconvergenceError carries the achieved error
    once the worst panel has been halved _MAX_DEPTH times or the partition
    holds _MAX_PANELS panels."""
    values, errs, masses = _panel_estimates(f, edges) if first is None else first
    total_err, mass = float(errs.sum()), float(masses.sum())
    if total_err <= max(budget.abs_tol, 64.0 * _EPS * mass):
        return _fsum(values), total_err
    # Heap entries: (-err, tiebreak, a, b, value, depth, mass).
    heap = [(-e, k, a, b, v, 0, m) for k, (a, b, v, e, m)
            in enumerate(zip(edges[:-1], edges[1:], values, errs, masses))]
    heapq.heapify(heap)
    counter = len(heap)
    while total_err > max(budget.abs_tol, 64.0 * _EPS * mass):
        neg_err, _, pa, pb, _, depth, pm = heap[0]
        if depth >= _MAX_DEPTH or len(heap) >= _MAX_PANELS:
            raise NonconvergenceError(
                f"adaptive quadrature stalled at error {total_err:.3e} "
                f"(requested {budget.abs_tol:.3e})",
                achieved=total_err, requested=budget.abs_tol)
        heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        (lv, rv), (le, re), (lm, rm) = _panel_estimates(f, [pa, mid, pb])
        total_err += le + re + neg_err
        mass += lm + rm - pm
        heapq.heappush(heap, (-le, counter, pa, mid, lv, depth + 1, lm))
        heapq.heappush(heap, (-re, counter + 1, mid, pb, rv, depth + 1, rm))
        counter += 2
    return _fsum(np.array([entry[4] for entry in heap])), float(total_err)


def gaussian_tail_radius(rate: float, tol: float, bound: float = 1.0,
                         poly_degree: int = 2) -> tuple[float, float]:
    """Smallest convenient R with int_R^inf bound*(1+x)^p*exp(-rate x^2) dx <= tol.

    Returns (R, tail_bound_at_R).  The bound used is the first-derivative
    majorant exp(-g(R))/g'(R) for g(x) = rate*x^2 - p*log(1+x) - log(bound),
    valid once g' > 0, so the reported tail is rigorous for integrands obeying
    the declared envelope.  A bound of 0 gives (0, 0); a negative or
    non-finite one raises DomainError.
    """
    if not 0.0 < rate < math.inf:
        raise DomainError("gaussian_rate must be positive and finite")
    if not tol > 0.0:
        raise DomainError("tolerance must be positive")
    if not (math.isfinite(bound) and bound >= 0.0):
        raise DomainError("tail bound must be finite and nonnegative")
    if bound == 0.0:
        return 0.0, 0.0
    p = float(poly_degree)
    log_tol = math.log(tol)

    def log_tail(R: float) -> float:
        slope = 2.0 * rate * R - p / (1.0 + R)
        if slope <= 0.0:
            return math.inf
        return math.log(bound) + p * math.log1p(R) - rate * R * R - math.log(slope)

    # Two Newton steps on log_tail(R) = ln tol from the root of the Gaussian
    # factor alone.  log_tail is concave once rate R^2 is past about 1/2,
    # which the start is, so a step lands at or just past the root and
    # solve_radius normally accepts the first radius it tries.
    R = math.sqrt(max(math.log(bound) - log_tol, 1.0) / rate)
    for _ in range(2):
        slope = 2.0 * rate * R - p / (1.0 + R)
        if not slope > 0.0:
            break
        gain = slope + (2.0 * rate + p / (1.0 + R) ** 2) / slope  # -d log_tail/dR
        step = (log_tail(R) - log_tol) / gain
        if not R + step > 0.0:
            break
        R += step
    return solve_radius(lambda R: math.exp(min(log_tail(R), 700.0)), tol, R, 1.25)
