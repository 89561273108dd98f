"""Adaptive quadrature engines used by every numerical routine in the package.

Two engines are provided: ``integrate_adaptive`` for finite intervals and
``integrate_semiinfinite`` for integrals over [0, inf) whose integrand obeys a
Gaussian decay bound.  Both return ``(value, err_est)`` with ``err_est`` no
larger than the requested absolute tolerance, or raise
:class:`~heatforms.errors.NonconvergenceError`.

Every adaptive integral takes QUADPACK's 21-point Gauss-Kronrod rule, laid
on a partition by ``_kronrod_panels``; its embedded 10-point Gauss sum on
the same nodes is the accuracy check.

Two helpers here are the package's only truncation and refinement policy:
``solve_radius`` cuts every noncompact integral or sum at the first radius
where an explicit tail bound falls below its share of the tolerance, and
``refine_until_stable`` grows a grid until two successive passes agree, or
until one pass agrees with the lower-order rule embedded in it.
Every radius search and every "refine until two passes agree" loop in the
package calls them, so each failure reports the tail or the change it
achieved against the tolerance it was asked for.  The area tail of a
decay hint on the plane or the hyperbolic plane, which cuts both
``integrate_surface`` and the forward Mehler-Fock transform, is solved
here too, by ``_area_tail``.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import DecayHintError, DomainError, NonconvergenceError

__all__ = [
    "ToleranceBudget",
    "DEFAULT_BUDGET",
    "DecayHint",
    "integrate_adaptive",
    "integrate_semiinfinite",
    "gaussian_tail_radius",
]

# Hard cap on accepted panels, independent of the depth limit, so a hostile
# integrand cannot allocate unboundedly.
_MAX_PANELS = 20000
# Radii a truncation search tries before giving up; even at the smallest
# growth factor in use (1.2) this spans 31 decades beyond the start radius.
_MAX_RADIUS_STEPS = 400


@dataclass(frozen=True)
class ToleranceBudget:
    """Accuracy request threaded through kernels, series, and quadratures.

    abs_tol is the absolute error target for the final result; routines that
    combine several truncations split it internally.
    """

    abs_tol: float = 1e-8
    max_quad_depth: int = 40

    def __post_init__(self):
        if not (self.abs_tol > 0.0) or not math.isfinite(self.abs_tol):
            raise DomainError("abs_tol must be positive and finite")
        if not (isinstance(self.max_quad_depth, numbers.Integral)
                and self.max_quad_depth >= 1):
            raise DomainError("max_quad_depth must be an integer of at least 1")

    def part(self, fraction: float) -> "ToleranceBudget":
        """A budget carrying `fraction` of this budget's error allowance."""
        return replace(self, abs_tol=self.abs_tol * fraction)


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
    raises DecayHintError.
    """
    if decay.kind == "bounded":
        raise DecayHintError("integrals over a noncompact surface need decay")
    if decay.bound == 0.0:
        return 1.0, 0.0
    a = decay.rate
    c = math.pi * decay.bound * scale
    if not hyperbolic:
        if decay.kind == "gaussian":
            R = max(1.0, math.sqrt(math.log(max(c / a / tol, 1.0)) / a))
            return R, c * math.exp(-a * R * R) / a
        return solve_radius(
            lambda R: 2.0 * c * (R + 1.0 / a) * math.exp(-a * R) / a,
            tol, max(1.0, 2.0 / a), 1.25)
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


def refine_until_stable(one_pass, size: tuple, grow: float, tol: float,
                        rounds: int, floor=None, embedded: bool = False):
    """Rerun one_pass on grids grown by `grow` until two passes agree.

    one_pass(*size) returns a float, an array, or a tuple of them (None
    entries are skipped).  Each round scales every entry of size by grow
    (truncating to int), reruns, and accepts once the largest change is at
    most tol or, if given, floor(result), the roundoff already spent.
    With `embedded`, one_pass returns (result, lower): the result and a
    lower-order one from the same nodes, such as the Gauss rule inside a
    Kronrod rule.  Each pass is then compared with its own lower result,
    so the first pass can be accepted, and at most `rounds` grown passes
    follow it.  Returns (result, last_change); raises NonconvergenceError
    with the last change against tol after `rounds` unsuccessful rounds.
    """
    prev = None
    diff = math.inf
    for k in range(rounds + 1):
        if k:
            size = tuple(int(n * grow) for n in size)
        cur = one_pass(*size)
        if embedded:
            cur, prev = cur
        if embedded or k:
            diff = _max_change(cur, prev)
            if diff <= tol or (floor is not None and diff <= floor(cur)):
                return cur, diff
        prev = cur
    raise NonconvergenceError(
        f"refinement did not stabilize: change {diff:.3e} after {rounds} "
        f"rounds (requested {tol:.3e})", achieved=diff, requested=tol)


def _panel_estimates(f, edges, vectorized: bool):
    """(K21 values, |K21 - G10| errors) of every panel of a partition, from
    one evaluation of f; a row-valued f gives (panel, row) values and each
    panel's largest error over its rows."""
    xs, w = _kronrod_panels(edges)
    if vectorized:
        ys = np.asarray(f(xs), dtype=float)
        if ys.ndim not in (1, 2) or ys.shape[-1] != xs.size:
            raise DomainError("vectorized integrand returned a wrong shape")
    else:
        ys = np.array([float(f(x)) for x in xs], dtype=float)
    if not np.all(np.isfinite(ys)):
        raise DomainError(f"integrand returned a non-finite value on "
                          f"[{edges[0]}, {edges[-1]}]")
    n = len(edges) - 1
    w = w.reshape(n, 21, 2)
    # (row, panel) sums of each rule
    k21, g10 = ((ys.reshape(-1, n, 21) * w[..., k]).sum(axis=2) for k in (0, 1))
    return (k21.T if ys.ndim == 2 else k21[0]), np.abs(k21 - g10).max(axis=0)


def _integrate_panels(f, edges, budget: ToleranceBudget, vectorized: bool):
    """integrate_adaptive from a given partition [edges[0], edges[-1]]:
    every panel is estimated, then the worst one is halved until the summed
    error is at most budget.abs_tol."""
    values, errs = _panel_estimates(f, edges, vectorized)
    # Heap entries: (-err, tiebreak, a, b, value, depth).
    heap = [(-e, k, a, b, v, 0) for k, (a, b, v, e)
            in enumerate(zip(edges[:-1], edges[1:], values, errs))]
    heapq.heapify(heap)
    counter = len(heap)
    total_err = float(errs.sum())
    while total_err > budget.abs_tol:
        neg_err, _, pa, pb, _, depth = heap[0]
        if depth >= budget.max_quad_depth or len(heap) >= _MAX_PANELS:
            raise NonconvergenceError(
                f"adaptive quadrature stalled at error {total_err:.3e} "
                f"(requested {budget.abs_tol:.3e})",
                achieved=total_err, requested=budget.abs_tol)
        heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        (lv, rv), (le, re) = _panel_estimates(f, [pa, mid, pb], vectorized)
        total_err += le + re + neg_err
        heapq.heappush(heap, (-le, counter, pa, mid, lv, depth + 1))
        heapq.heappush(heap, (-re, counter + 1, mid, pb, rv, depth + 1))
        counter += 2
    if values.ndim == 2:
        rows = np.array([entry[4] for entry in heap]).T
        return np.array([math.fsum(row) for row in rows]), total_err
    return math.fsum(entry[4] for entry in heap), total_err


def integrate_adaptive(f, a: float, b: float, budget: ToleranceBudget = DEFAULT_BUDGET,
                       vectorized: bool = False):
    """Integrate f on [a, b] to within budget.abs_tol.

    A panel's error is |K21 - G10|; the worst panel is halved until the
    errors sum to at most abs_tol.

    Parameters
    ----------
    f : callable
        Real integrand.  With ``vectorized=True`` it must map an ndarray of
        abscissae to an ndarray of values, or to a 2-d array holding one row
        of values per component of a vector-valued integrand.
    a, b : float
        Interval endpoints, a <= b.

    Returns
    -------
    (value, err_est)
        value is a float, or an array with one entry per row for a
        row-valued integrand.  err_est <= budget.abs_tol on success; for
        rows it sums each panel's largest row error, so it bounds every row.

    Raises
    ------
    NonconvergenceError
        If the error estimate cannot be pushed below abs_tol within the
        panel-depth limits.  The exception carries the achieved estimate.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration endpoints must be finite")
    if a > b:
        raise DomainError("integrate_adaptive requires a <= b")
    if a == b:
        return 0.0, 0.0
    return _integrate_panels(f, [float(a), float(b)], budget, vectorized)


def gaussian_tail_radius(rate: float, tol: float, bound: float = 1.0,
                         poly_degree: int = 2) -> tuple[float, float]:
    """Smallest convenient R with int_R^inf bound*(1+x)^p*exp(-rate x^2) dx <= tol.

    Returns (R, tail_bound_at_R).  The bound used is the first-derivative
    majorant exp(-g(R))/g'(R) for g(x) = rate*x^2 - p*log(1+x) - log(bound),
    valid once g' > 0, so the reported tail is rigorous for integrands obeying
    the declared envelope.  A bound of 0 gives (0, 0); a negative or
    non-finite one raises DomainError.
    """
    if not rate > 0.0:
        raise DomainError("gaussian_rate must be positive")
    if not tol > 0.0:
        raise DomainError("tolerance must be positive")
    if not (math.isfinite(bound) and bound >= 0.0):
        raise DomainError("tail bound must be finite and nonnegative")
    if bound == 0.0:
        return 0.0, 0.0
    p = float(poly_degree)

    def tail(R: float) -> float:
        slope = 2.0 * rate * R - p / (1.0 + R)
        if slope <= 0.0:
            return math.inf
        log_val = math.log(bound) + p * math.log1p(R) - rate * R * R - math.log(slope)
        return math.exp(min(log_val, 700.0))

    return solve_radius(tail, tol, max(1.0, math.sqrt(max(p, 1.0) / rate)), 1.25)


def integrate_semiinfinite(f, gaussian_rate: float, budget: ToleranceBudget = DEFAULT_BUDGET,
                           bound: float = 1.0, poly_degree: int = 2,
                           vectorized: bool = False):
    """Integrate f on [0, inf) assuming |f(x)| <= bound*(1+x)^p*exp(-gaussian_rate x^2).

    The interval is truncated at a radius where the analytic tail bound is at
    most half the tolerance; the finite part receives the other half.  Returns
    (value, err_est) with the tail bound folded into err_est.
    """
    radius, tail = gaussian_tail_radius(gaussian_rate, 0.5 * budget.abs_tol,
                                        bound=bound, poly_degree=poly_degree)
    value, err = integrate_adaptive(f, 0.0, radius, budget.part(0.5),
                                    vectorized=vectorized)
    return value, err + tail
