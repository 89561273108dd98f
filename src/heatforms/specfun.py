"""Legendre and conical functions plus the order-one Mehler-Fock transform.

Conventions
-----------
``legendre_p1`` carries the Condon-Shortley phase, so that
``legendre_p1(n, cos(phi)) == d/dphi legendre_p(n, cos(phi))`` holds exactly.
``conical_p1`` is likewise the r-derivative of ``conical_p`` evaluated at
cosh(r), which is the radial eigenfunction pairing used by the transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import (DEFAULT_BUDGET, DecayHint, ToleranceBudget,
                         _composite_gauss, _h2_envelope_radius,
                         integrate_adaptive, integrate_semiinfinite,
                         refine_until_stable)

__all__ = [
    "SpectralParameter",
    "RadialProfile",
    "legendre_p",
    "legendre_p1",
    "conical_p",
    "conical_p1",
    "mehler_fock_forward",
    "mehler_fock_inverse",
]

_TWO_SQRT2_OVER_PI = 2.0 * math.sqrt(2.0) / math.pi


@dataclass(frozen=True)
class SpectralParameter:
    """Continuous spectral coordinate rho >= 0 on the hyperbolic plane.

    The 0-form eigenvalue lambda = 1/4 + rho^2 is always recomputed from rho,
    never stored, so the two cannot drift apart.
    """

    rho: float

    def __post_init__(self):
        if not math.isfinite(self.rho) or self.rho < 0.0:
            raise DomainError("rho must be finite and nonnegative")

    @property
    def lam(self) -> float:
        return 0.25 + self.rho * self.rho


def _as_rho(rho) -> float:
    """Coerce a SpectralParameter or bare float to |rho|."""
    if isinstance(rho, SpectralParameter):
        return rho.rho
    value = float(rho)
    if not math.isfinite(value):
        raise DomainError("rho must be finite")
    # The spectrum is symmetric under rho -> -rho; fold negatives over.
    return abs(value)


@dataclass(frozen=True)
class RadialProfile:
    """A radial function on the hyperbolic plane together with its decay hint."""

    fn: object
    decay: DecayHint
    name: str = ""

    def __call__(self, r: float) -> float:
        return float(self.fn(r))


def _check_legendre_args(n: int, x):
    if n < 0 or n != int(n):
        raise DomainError("degree n must be a nonnegative integer")
    xs = np.asarray(x, dtype=float)
    if np.any(np.abs(xs) > 1.0 + 1e-12):
        raise DomainError("legendre argument must lie in [-1, 1]")
    return np.clip(xs, -1.0, 1.0)


def legendre_p(n: int, x):
    """Legendre polynomial P_n(x) on [-1, 1] by the three-term recurrence."""
    xs = _check_legendre_args(n, x)
    p_prev = np.ones_like(xs)
    if n == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p_cur = xs.copy()
    for k in range(1, int(n)):
        p_prev, p_cur = p_cur, ((2 * k + 1) * xs * p_cur - k * p_prev) / (k + 1)
    return p_cur if p_cur.ndim else float(p_cur)


def legendre_p1(n: int, x):
    """Associated Legendre P^1_n(x) with the Condon-Shortley phase.

    With this phase, P^1_n(cos(phi)) equals d/dphi P_n(cos(phi)).
    """
    xs = _check_legendre_args(n, x)
    zero = np.zeros_like(xs)
    if n == 0:
        return zero if zero.ndim else 0.0
    p_cur = -np.sqrt(np.maximum(0.0, 1.0 - xs * xs))
    p_prev = zero
    # n P^1_{n+1} = (2n+1) x P^1_n - (n+1) P^1_{n-1}
    for k in range(1, int(n)):
        p_prev, p_cur = p_cur, ((2 * k + 1) * xs * p_cur - (k + 1) * p_prev) / k
    return p_cur if p_cur.ndim else float(p_cur)


def _sinhc(x: np.ndarray) -> np.ndarray:
    safe = np.where(x == 0.0, 1.0, x)
    return np.where(x == 0.0, 1.0, np.sinh(safe) / safe)


def _mehler_dirichlet_eval(rhos: np.ndarray, r: float, n_panels: int,
                           need_p1: bool):
    """Composite-Gauss evaluation of the conical integral and its r-derivative.

    The representation is P_{-1/2+i rho}(cosh r) =
    (2 sqrt 2 / pi) * int_0^sqrt(r) cos(rho (r - w^2)) / sqrt(psi(w)) dw with
    psi(w) = sinh(r - w^2/2) * sinhc(w^2/2); the substitution s = r - w^2 has
    absorbed the inverse-square-root endpoint singularity of the classical
    form, so the integrand is smooth on the whole interval.
    """
    w, wt = _composite_gauss(math.sqrt(r), n_panels)
    s = np.maximum(0.0, r - w * w)
    half_wsq = 0.5 * w * w
    a = r - half_wsq
    shc = _sinhc(half_wsq)
    inv = 1.0 / np.sqrt(np.sinh(a) * shc)
    phase = rhos[:, None] * s[None, :]
    cos_phase = np.cos(phase)
    p_vals = _TWO_SQRT2_OVER_PI * (cos_phase @ (inv * wt))
    if not need_p1:
        return p_vals, None
    # d/dr picks up a moving-endpoint term (the integrand at w = sqrt(r)) plus
    # the derivative of the smooth integrand.
    d_inv = -0.5 * inv ** 3 * np.cosh(a) * shc
    deriv = (-rhos[:, None]) * np.sin(phase) * inv[None, :] + cos_phase * d_inv[None, :]
    boundary = 1.0 / (2.0 * math.sqrt(2.0) * math.sinh(0.5 * r))
    p1_vals = _TWO_SQRT2_OVER_PI * (boundary + deriv @ wt)
    return p_vals, p1_vals


def _conical_series(rhos: np.ndarray, r: float, need_p1: bool):
    """Hypergeometric series about the origin, in s = sinh^2(r/2).

    P_{-1/2+i rho}(cosh r) = sum_k a_k(rho) (-s)^k with the ratio
    a_k/a_{k-1} = ((k - 1/2)^2 + rho^2)/k^2; it converges fast whenever
    s * (rho^2 + 1/4) is small, which is exactly the regime where the
    integral form loses its derivative to cancellation.
    """
    s = math.sinh(0.5 * r) ** 2
    p = np.ones_like(rhos)
    dp = np.zeros_like(rhos)
    if s == 0.0:
        return p, (dp if need_p1 else None), 0.0
    rsq = rhos * rhos
    term = np.ones_like(rhos)
    tail = math.inf
    for k in range(1, 80):
        term = term * (-s) * (((k - 0.5) ** 2 + rsq) / (k * k))
        p = p + term
        dp = dp + k * term / s
        tail = float(np.max(np.abs(term)))
        if tail <= 1e-18 * (1.0 + float(np.max(np.abs(p)))):
            break
    p1 = dp * 0.5 * math.sinh(r) if need_p1 else None
    return p, p1, 2.0 * tail


def _conical_many(rhos: np.ndarray, r: float, budget: ToleranceBudget,
                  need_p1: bool):
    """(P, P1, err) for an array of rho at one radius."""
    rhos = np.asarray(rhos, dtype=float)
    if r < 0.0 or not math.isfinite(r):
        raise DomainError("radius must be finite and nonnegative")
    rho_max = float(np.max(np.abs(rhos))) if rhos.size else 0.0
    # The series needs fast initial decay (small s rho^2) AND to sit well
    # inside its |s| < 1 convergence disk; at small rho the first condition
    # alone would admit s up to 1.2, where the tail diverges.
    s_half = math.sinh(0.5 * r) ** 2
    if s_half <= 0.5 and s_half * (0.25 + rho_max * rho_max) <= 0.3:
        return _conical_series(rhos, r, need_p1)
    n0 = max(4, int(math.ceil(rho_max * r / 4.0)) + 1)
    # A grid of more than 65536 panels is not doubled again.
    rounds = min(budget.max_quad_depth, (65536 // n0).bit_length())
    (p, p1), diff = refine_until_stable(
        lambda n: _mehler_dirichlet_eval(rhos, r, n, need_p1), (n0,), 2,
        budget.abs_tol, rounds)
    return p, p1, diff


def conical_p(rho, r: float, budget: ToleranceBudget = DEFAULT_BUDGET) -> float:
    """Conical (Mehler) function P_{-1/2 + i rho}(cosh r) for r >= 0."""
    rho_val = _as_rho(rho)
    p, _, _ = _conical_many(np.array([rho_val]), float(r), budget, need_p1=False)
    return float(p[0])


def conical_p1(rho, r: float, budget: ToleranceBudget = DEFAULT_BUDGET) -> float:
    """Radial derivative d/dr of conical_p; vanishes at r = 0."""
    rho_val = _as_rho(rho)
    if float(r) == 0.0:
        return 0.0
    _, p1, _ = _conical_many(np.array([rho_val]), float(r), budget, need_p1=True)
    return float(p1[0])


def _forward_truncation_radius(decay: DecayHint, c_e: float, tol: float) -> float:
    """Radius where the forward-transform integrand envelope tail is <= tol.

    The integrand is 2 pi * E_rho(r) f(r) sinh(r); sinh(r) <= exp(r)/2 and the
    eigenfunction magnitude is bounded by c_e, so the tail is c_e times the
    hint's tail against the hyperbolic area growth.
    """
    if decay.bound == 0.0:
        return 1.0
    if decay.kind == "exp" and decay.rate <= 1.0:
        raise DomainError("exponential decay rate must exceed 1 on the "
                          "hyperbolic plane (area growth eats the rest)")
    if decay.kind == "bounded":
        raise DomainError("forward transform needs a decaying profile")
    return _h2_envelope_radius(decay, tol, scale=c_e)


def mehler_fock_forward(profile: RadialProfile, rho,
                        budget: ToleranceBudget = DEFAULT_BUDGET) -> float:
    """Order-one Mehler-Fock transform 2 pi * int_0^inf E_rho(r) f(r) sinh(r) dr.

    E_rho(r) is the derivative eigenfunction conical_p1(rho, r).  The profile
    must carry a decay hint strong enough to beat the sinh(r) area factor.

    The profile is the radial component of the 1-form f(r) dr, and the
    transform behaves accordingly: profiles with f(0) != 0 (a 1-form with a
    cone singularity at the origin) produce spectral data decaying only like
    1/rho, outside the numerical domain of the inverse.  Profiles of the shape
    r * h(r^2) with analytic h transform with exp(-pi rho) decay.
    """
    rho_val = _as_rho(rho)
    if not isinstance(profile, RadialProfile):
        raise DomainError("profile must be a RadialProfile with a decay hint")
    lam = 0.25 + rho_val * rho_val
    c_e = 1.0 + lam  # coarse sup bound for |E_rho|; only the log enters R
    radius = _forward_truncation_radius(profile.decay, c_e, 0.25 * budget.abs_tol)

    # Runaway profiles (violating their own hint) would silently corrupt the
    # truncation, so sample the envelope beyond the cut.
    for probe in (radius, 1.1 * radius + 0.1, 1.25 * radius + 0.2):
        allowed = 10.0 * profile.decay.envelope(probe) + 1e-300
        if abs(profile(probe)) > allowed:
            raise DomainError(
                f"profile sample at r={probe:.3g} exceeds its decay hint")

    def integrand(r: float) -> float:
        if r == 0.0:
            return 0.0
        # Pointwise noise must sit far below the quadrature target or the
        # adaptive estimator stalls chasing it across the series/integral
        # branch seam of the conical evaluation.
        e_val = conical_p1(rho_val, r, budget.part(0.005))
        return 2.0 * math.pi * e_val * profile(r) * math.sinh(r)

    value, _ = integrate_adaptive(integrand, 0.0, radius, budget.part(0.5))
    return value


def mehler_fock_inverse(fhat, r: float, budget: ToleranceBudget = DEFAULT_BUDGET,
                        gaussian_rate: float = 0.25, bound: float = 10.0) -> float:
    """Inverse transform (1/2 pi) int_0^inf fhat(rho) w(rho) E_rho(r) drho.

    w(rho) = rho tanh(pi rho) / (1/4 + rho^2).  The caller asserts the decay
    |fhat(rho)| <= bound * exp(-gaussian_rate rho^2), which holds for
    heat-kernel data with gaussian_rate = t; the default is conservative for
    transforms of smooth rapidly-decaying profiles.

    inverse(forward(f)) reproduces f exactly on profiles that are regular
    radial 1-form components at the origin (see mehler_fock_forward); for
    f(0) != 0 the spectral data escapes every such envelope and only the
    regular part of f is reconstructed.
    """
    if float(r) <= 0.0:
        raise DomainError("inverse transform evaluation needs r > 0")

    def integrand(rhos: np.ndarray) -> np.ndarray:
        fhat_vals = np.array([float(fhat(p)) for p in rhos])
        weight = rhos * np.tanh(math.pi * rhos) / (0.25 + rhos * rhos)
        _, e_vals, _ = _conical_many(rhos, float(r), budget.part(0.05),
                                     need_p1=True)
        return fhat_vals * weight * e_vals / (2.0 * math.pi)

    value, _ = integrate_semiinfinite(integrand, gaussian_rate, budget.part(0.9),
                                      bound=bound, poly_degree=2, vectorized=True)
    return value
