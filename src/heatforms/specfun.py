"""Legendre and conical functions plus the order-one Mehler-Fock transform.

Conventions
-----------
``legendre_p1`` carries the Condon-Shortley phase, so that
``legendre_p1(n, cos(phi)) == d/dphi legendre_p(n, cos(phi))`` holds exactly.
``conical_p1`` is likewise the r-derivative of ``conical_p`` evaluated at
cosh(r), which is the radial eigenfunction pairing used by the transform.

One conical evaluator, ``_conical_many``, serves both axes: an array of rho
at one radius (``conical_p``, ``conical_p1``, the inverse transform and the
hyperbolic spectral kernels) and an array of radii at fixed rho (each
adaptive panel of the forward transform in one call).  Near the origin it
sums the hypergeometric series, elsewhere it evaluates the Mehler-Dirichlet
integral (DLMF 14.20; Gil, Segura & Temme, Numerical Methods for Special
Functions, SIAM 2007) in one pass of composite 21-point Gauss-Kronrod
panels, whose embedded 10-point Gauss sum is the accuracy check; only a
failed check doubles the panels.  The radius-only factors of that integral
(nodes, weights times 1/sqrt(psi) and its r-derivative) form a table built
from a unit rule scaled by sqrt(r).  Callers whose radii stay fixed across
many rho panels, the inverse transform and the spectral kernels, keep one
set of tables for the length of a call, so each panel costs a cos and a
sin of a rho-by-node phase and matrix-vector products against the
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import (DEFAULT_BUDGET, DecayHint, ToleranceBudget,
                         _area_tail, _kronrod_panels,
                         gaussian_tail_radius, integrate_adaptive,
                         integrate_semiinfinite, refine_until_stable)

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
_EPS = float(np.finfo(float).eps)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
# Cody's coefficients for _erfcx, in his order (CALERF).
_ERFCX_A = (3.16112374387056560e00, 1.13864154151050156e02,
            3.77485237685302021e02, 3.20937758913846947e03,
            1.85777706184603153e-1)
_ERFCX_B = (2.36012909523441209e01, 2.44024637934444173e02,
            1.28261652607737228e03, 2.84423683343917062e03)
_ERFCX_C = (5.64188496988670089e-1, 8.88314979438837594e00,
            6.61191906371416295e01, 2.98635138197400131e02,
            8.81952221241769090e02, 1.71204761263407058e03,
            2.05107837782607147e03, 1.23033935479799725e03,
            2.15311535474403846e-8)
_ERFCX_D = (1.57449261107098347e01, 1.17693950891312499e02,
            5.37181101862009858e02, 1.62138957456669019e03,
            3.29079923573345963e03, 4.36261909014324716e03,
            3.43936767414372164e03, 1.23033935480374942e03)
_ERFCX_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
            1.25781726111229246e-1, 1.60837851487422766e-2,
            6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFCX_Q = (2.56852019228982242e00, 1.87295284992346725e00,
            5.27905102951428412e-1, 6.05183413124413191e-2,
            2.33520497626869185e-3)
# Entries of one rho-by-node array in the Mehler-Dirichlet evaluator (512 KB).
_BLOCK_ELEMS = 1 << 16


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


def _erfcx(x: np.ndarray) -> np.ndarray:
    """Scaled complementary error function e^{x^2} erfc(x) for x >= 0.

    W. J. Cody's rational Chebyshev approximations (Math. Comp. 23, 1969):
    erf on [0, 0.46875], erfcx itself on (0.46875, 4], and erfcx in 1/x^2
    beyond; each is good to a few ulps, and nothing overflows at large x.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x <= 0.46875
    big = x > 4.0
    mid = ~(small | big)
    if small.any():
        y = x[small]
        ysq = y * y
        num, den = _ERFCX_A[4] * ysq, ysq
        for i in range(3):
            num = (num + _ERFCX_A[i]) * ysq
            den = (den + _ERFCX_B[i]) * ysq
        out[small] = np.exp(ysq) * (1.0 - y * (num + _ERFCX_A[3]) / (den + _ERFCX_B[3]))
    if mid.any():
        y = x[mid]
        num, den = _ERFCX_C[8] * y, y
        for i in range(7):
            num = (num + _ERFCX_C[i]) * y
            den = (den + _ERFCX_D[i]) * y
        out[mid] = (num + _ERFCX_C[7]) / (den + _ERFCX_D[7])
    if big.any():
        y = x[big]
        r = (1.0 / y) ** 2
        num, den = _ERFCX_P[5] * r, r
        for i in range(4):
            num = (num + _ERFCX_P[i]) * r
            den = (den + _ERFCX_Q[i]) * r
        out[big] = (_INV_SQRT_PI - r * (num + _ERFCX_P[4]) / (den + _ERFCX_Q[4])) / y
    return out


def _mehler_dirichlet_eval(rhos: np.ndarray, radii: np.ndarray, n_panels: int,
                           need_p1: bool, tables=None, scale=None):
    """Composite-K21 evaluation of the conical integral and its r-derivative.

    The representation is P_{-1/2+i rho}(cosh r) =
    (2 sqrt 2 / pi) * int_0^sqrt(r) cos(rho (r - w^2)) / sqrt(psi(w)) dw with
    psi(w) = sinh(r - w^2/2) * sinhc(w^2/2); the substitution s = r - w^2 has
    absorbed the inverse-square-root endpoint singularity of the classical
    form, so the integrand is smooth on the whole interval.  Each radius gets
    its own grid of n_panels K21 panels on [0, sqrt(r)].  Returns
    ((P, P1), (P_G10, P1_G10)): the K21 values and those of the embedded
    10-point Gauss rule on the same nodes (P1 entries None unless need_p1).
    A 0-d radii gives values shaped like rhos, a 1-d one a row per radius.

    Radius blocks keep a block's table and a 4-row rho block near
    _BLOCK_ELEMS entries however many radii come in.  `tables`, a dict
    that lives for one call of a caller whose radii stay fixed, keeps each
    block's table for later evaluations at the same panel count.  `scale`,
    if given, is a 1-entry array raised to the largest K21 sum of |terms|
    of any entry, which sets the roundoff.
    """
    flat = radii.reshape(-1)
    step = max(1, _BLOCK_ELEMS // (4 * 21 * n_panels))
    out = np.empty((4 if need_p1 else 2, flat.size, rhos.size))

    def table(block):
        if tables is None:
            return _dirichlet_table(block, n_panels, need_p1)
        key = (n_panels, need_p1, block.tobytes())
        if key not in tables:
            tables[key] = _dirichlet_table(block, n_panels, need_p1)
        return tables[key]

    for lo in range(0, flat.size, step):
        s, weights, boundary = table(flat[lo:lo + step])
        _dirichlet_sums(rhos, s, weights, boundary, out[:, lo:lo + step])
        if scale is not None:  # each K21 row's weights share one sign
            mass = np.abs(weights[0::2].sum(axis=-1))
            if need_p1:
                mass[1] += float(abs(rhos).max(initial=0.0)) * mass[0] + boundary
            scale[0] = max(scale[0], _TWO_SQRT2_OVER_PI * float(mass.max()))
        del s, weights, boundary  # before the next block's table is built
    out *= _TWO_SQRT2_OVER_PI
    out = out.reshape(out.shape[:1] + radii.shape + rhos.shape)
    if not need_p1:
        return (out[0], None), (out[1], None)
    return (out[0], out[2]), (out[1], out[3])


def _dirichlet_table(radii: np.ndarray, n_panels: int, need_p1: bool):
    """The radius-only factors of the conical integrand for a 1-d array of
    radii, on a unit composite K21 rule scaled by sqrt(r): (s, weights,
    boundary).  s holds the nodes s = r - w^2; weights holds radius-by-node
    rows, the K21 and G10 weights times 1/sqrt(psi) and, with need_p1, both
    times its r-derivative; boundary (None unless need_p1) is the
    moving-endpoint term 1 / (2 sqrt 2 sinh(r/2)) of the r-derivative."""
    x, wts = _kronrod_panels(np.linspace(0.0, 1.0, n_panels + 1))
    r = radii[:, None]
    xsq = x * x
    s = r * (1.0 - xsq)  # w = sqrt(r) x
    half_wsq = r * (0.5 * xsq)
    a = r - half_wsq
    inv = np.sqrt(r) / np.sqrt(np.sinh(a) * _sinhc(half_wsq))
    factors = [inv]
    boundary = None
    if need_p1:
        # d/dr (sinh(a) sinhc(w^2/2))^(-1/2) = -coth(a) / (2 sqrt(psi))
        factors.append(inv * (-0.5 / np.tanh(a)))
        boundary = 1.0 / (2.0 * math.sqrt(2.0) * np.sinh(0.5 * radii))
    weights = np.empty((2 * len(factors),) + s.shape)
    for k, f in enumerate(factors):
        np.multiply(f, wts.T[:, None, :], out=weights[2 * k:2 * k + 2])
    return s, weights, boundary


def _rho_blocks(n_rho: int, n_nodes: int):
    """(lo, hi) slices of the rho axis whose rho-by-node arrays stay near
    _BLOCK_ELEMS entries, so the evaluator's memory does not grow with the
    grid.  Blocks hold a multiple of 4 rows and the last never holds a lone
    row: BLAS then sums every row as it would in one unsplit product."""
    step = max(4, _BLOCK_ELEMS // max(n_nodes, 1) // 4 * 4)
    starts = list(range(0, max(n_rho, 1), step))
    if len(starts) > 1 and n_rho - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [n_rho])


def _dirichlet_sums(rhos: np.ndarray, s: np.ndarray, weights: np.ndarray,
                    boundary, out: np.ndarray):
    """Quadrature sums against each row of a table's weights for every rho,
    written to out[row, radius, rho]: cos(rho s) against every row, and for
    the r-derivative rows also -rho sin(rho s) against the matching
    1/sqrt(psi) row, plus the boundary term.

    Every sum is a matrix-vector product: one matrix product against all
    rows is no faster at these sizes, and its first call makes BLAS touch
    about 0.3 MB more of resident memory for its packing buffers.
    """
    for lo, hi in _rho_blocks(rhos.size, s.size):
        rho = rhos[lo:hi]
        phase = rho[:, None] * s[:, None, :]
        cos_phase = np.cos(phase)
        for row, w in enumerate(weights):
            out[row, :, lo:hi] = (cos_phase @ w[..., None])[..., 0]
        if boundary is not None:
            np.sin(phase, out=phase)
            for row, w in enumerate(weights[:2]):
                out[2 + row, :, lo:hi] -= rho * (phase @ w[..., None])[..., 0]
            out[2:, :, lo:hi] += boundary[:, None]
        del phase, cos_phase  # before the next block's are built


def _conical_series(rhos: np.ndarray, radii: np.ndarray, s: np.ndarray,
                    need_p1: bool):
    """Hypergeometric series about the origin, in s = sinh^2(r/2).

    P_{-1/2+i rho}(cosh r) = sum_k a_k(rho) (-s)^k with the ratio
    a_k/a_{k-1} = ((k - 1/2)^2 + rho^2)/k^2; it converges fast whenever
    s * (rho^2 + 1/4) is small, which is exactly the regime where the
    integral form loses its derivative to cancellation.  radii and s are
    0-d or 1-d as in _mehler_dirichlet_eval.  Every term shrinks by a factor
    of at least 0.8 in the series regime, so the sum stops for the whole
    batch at the first term below 1e-18 (1 + max |P|).
    """
    s = s[..., None]
    neg_s = -s
    s_div = np.where(s == 0.0, 1.0, s)  # s = 0 keeps P = 1, P1 = 0
    p = np.ones(s.shape[:-1] + rhos.shape)
    dp = np.zeros_like(p)
    rsq = rhos * rhos
    term = np.ones_like(p)
    # |term_k| grows with rho^2 and s for every k, so the largest entry's
    # sums of |terms| are the sums of the largest |term_k|.
    abs_p, abs_dp = 1.0, 0.0
    for k in range(1, 80):
        term = term * neg_s * (((k - 0.5) ** 2 + rsq) / (k * k))
        p = p + term
        dp = dp + k * term / s_div
        tail = float(abs(term).max())
        abs_p += tail
        abs_dp += k * tail
        if tail <= 1e-18 * (1.0 + float(abs(p).max())):
            break
    err = 2.0 * tail + 8.0 * _EPS * abs_p
    if not need_p1:
        return p, None, err
    abs_dp *= 0.5 * math.sinh(float(radii.max())) / float(s_div.max())
    return p, dp * 0.5 * np.sinh(radii)[..., None], err + 8.0 * _EPS * abs_dp


def _conical_integral(rhos: np.ndarray, radii: np.ndarray, rho_max: float,
                      budget: ToleranceBudget, need_p1: bool, tables=None):
    """Mehler-Dirichlet branch: one K21 pass, accepted once its largest
    change from the embedded G10 over all radii is within budget.abs_tol or
    the roundoff floor; otherwise the panels double.  err adds 8 eps times
    the largest sum of |terms| met."""
    n0 = max(4, int(math.ceil(rho_max * float(radii.max()) / 4.0)) + 1)
    # A grid of more than 65536 panels is not doubled again.
    rounds = min(budget.max_quad_depth, (65536 // n0).bit_length())
    scale = np.zeros(1)
    (p, p1), diff = refine_until_stable(
        lambda n: _mehler_dirichlet_eval(rhos, radii, n, need_p1, tables, scale),
        (n0,), 2, budget.abs_tol, rounds,
        # the floor concedes what roundoff already spent
        floor=lambda cur: 64.0 * _EPS * (1.0 + max(
            float(abs(v).max()) for v in cur if v is not None)),
        embedded=True)
    return p, p1, diff + 8.0 * _EPS * float(scale[0])


def _conical_many(rhos: np.ndarray, r, budget: ToleranceBudget, need_p1: bool,
                  tables=None):
    """(P, P1, err) for an array of rho at one radius or at an array of radii.

    A scalar r gives arrays shaped like rhos; an array of radii gives one row
    per radius.  Each radius takes the series or the integral branch on its
    own, and the integral radii share one refinement, so every radius meets
    the tolerance it would meet alone.  err is the largest series tail or
    final K21-G10 change met, plus 8 eps times the largest sums of |terms|
    (the roundoff).  A caller that evaluates the same radii many
    times passes one dict as `tables` to all its calls, so each integral
    grid's radius factors are built once (see _mehler_dirichlet_eval).
    """
    rhos = np.asarray(rhos, dtype=float)
    radii = np.asarray(r, dtype=float)
    if not np.all((radii >= 0.0) & (radii < math.inf)):
        raise DomainError("radius must be finite and nonnegative")
    rho_max = float(abs(rhos).max()) if rhos.size else 0.0
    # The series needs fast initial decay (small s rho^2) AND to sit well
    # inside its |s| < 1 convergence disk; at small rho the first condition
    # alone would admit s up to 1.2, where the tail diverges.
    s_half = np.sinh(0.5 * radii) ** 2
    series = (s_half <= 0.5) & (s_half * (0.25 + rho_max * rho_max) <= 0.3)
    if series.all():
        return _conical_series(rhos, radii, s_half, need_p1)
    if not series.any():
        return _conical_integral(rhos, radii, rho_max, budget, need_p1, tables)
    # A batch straddling the seam: each side on its own, rows put back.
    sp, sp1, s_err = _conical_series(rhos, radii[series], s_half[series],
                                     need_p1)
    fp, fp1, f_err = _conical_integral(rhos, radii[~series], rho_max, budget,
                                       need_p1, tables)
    p = np.empty((series.size, rhos.size))
    p[series], p[~series] = sp, fp
    p1 = None
    if need_p1:
        p1 = np.empty_like(p)
        p1[series], p1[~series] = sp1, fp1
    return p, p1, max(s_err, f_err)


def conical_p(rho, r: float, budget: ToleranceBudget = DEFAULT_BUDGET) -> float:
    """Conical (Mehler) function P_{-1/2 + i rho}(cosh r) for r >= 0."""
    rho_val = _as_rho(rho)
    p, _, _ = _conical_many(np.array([rho_val]), float(r), budget, need_p1=False)
    return float(p[0])


def conical_p1(rho, r: float, budget: ToleranceBudget = DEFAULT_BUDGET) -> float:
    """Radial derivative d/dr of conical_p; vanishes at r = 0."""
    rho_val = _as_rho(rho)
    _, p1, _ = _conical_many(np.array([rho_val]), float(r), budget, need_p1=True)
    return float(p1[0])


def _area_mass(decay: DecayHint) -> float:
    """Bound on int_0^inf envelope(r) 2 pi sinh(r) dr for a forward profile.

    2 pi sinh r <= pi e^r; against exp(-a r^2) the integral over the whole
    line is sqrt(pi/a) e^{1/(4a)}, against exp(-a r) it is 1/(a - 1).
    """
    if decay.bound == 0.0:
        return 0.0
    a = decay.rate
    if decay.kind == "exp":
        return math.pi * decay.bound / (a - 1.0)
    return math.pi * decay.bound * math.sqrt(math.pi / a) * math.exp(0.25 / a)


def _forward_with_error(profile: RadialProfile, rho,
                        budget: ToleranceBudget = DEFAULT_BUDGET):
    """(value, err_est) of mehler_fock_forward.

    The r integral is cut where c_e times the hint's area tail on H2 is a
    quarter of the budget (quadrature._area_tail), c_e bounding |E_rho|.
    err_est adds the quadrature error, that tail, and the largest conical
    change met, spread over the profile's area-weighted mass.
    """
    rho_val = _as_rho(rho)
    if not isinstance(profile, RadialProfile):
        raise DomainError("profile must be a RadialProfile with a decay hint")
    lam = 0.25 + rho_val * rho_val
    c_e = 1.0 + lam  # coarse sup bound for |E_rho|; only the log enters R
    radius, tail = _area_tail(profile.decay, 0.25 * budget.abs_tol, True, c_e)

    # Runaway profiles (violating their own hint) would silently corrupt the
    # truncation, so sample the envelope beyond the cut.
    for probe in (radius, 1.1 * radius + 0.1, 1.25 * radius + 0.2):
        allowed = 10.0 * profile.decay.envelope(probe) + 1e-300
        if abs(profile(probe)) > allowed:
            raise DomainError(
                f"profile sample at r={probe:.3g} exceeds its decay hint")

    # Pointwise noise must sit far below the quadrature target or the
    # adaptive estimator stalls chasing it across the series/integral
    # branch seam of the conical evaluation.
    cb = budget.part(0.005)
    rho_row = np.array([rho_val])
    achieved = 0.0

    def integrand(rs: np.ndarray) -> np.ndarray:
        nonlocal achieved
        _, e_vals, e_err = _conical_many(rho_row, rs, cb, need_p1=True)
        achieved = max(achieved, e_err)
        f_vals = np.array([profile(r) for r in rs])
        return 2.0 * math.pi * e_vals[:, 0] * f_vals * np.sinh(rs)

    value, qerr = integrate_adaptive(integrand, 0.0, radius, budget.part(0.5),
                                     vectorized=True)
    conical = max(cb.abs_tol, achieved) * _area_mass(profile.decay)
    return value, qerr + tail + conical


def mehler_fock_forward(profile: RadialProfile, rho,
                        budget: ToleranceBudget = DEFAULT_BUDGET) -> float:
    """Order-one Mehler-Fock transform 2 pi * int_0^inf E_rho(r) f(r) sinh(r) dr.

    E_rho(r) is the derivative eigenfunction conical_p1(rho, r).  The profile
    must carry a decay hint strong enough to beat the sinh(r) area factor:
    Gaussian, or exponential at a rate above 1; otherwise DecayHintError.

    The profile is the radial component of the 1-form f(r) dr, and the
    transform behaves accordingly: profiles with f(0) != 0 (a 1-form with a
    cone singularity at the origin) produce spectral data decaying only like
    1/rho, outside the numerical domain of the inverse.  Profiles of the shape
    r * h(r^2) with analytic h transform with exp(-pi rho) decay.
    """
    return _forward_with_error(profile, rho, budget)[0]


def _inverse_with_error(fhat, r: float, budget: ToleranceBudget = DEFAULT_BUDGET,
                        gaussian_rate: float = 0.25, bound: float = 10.0):
    """(value, err_est) of mehler_fock_inverse, taking fhat as exact.

    err_est adds the semi-infinite quadrature error (tail included) and the
    largest conical change met: |w| <= 1, so a change delta in E moves the
    integral by at most delta * int bound exp(-rate rho^2) drho / (2 pi).
    """
    if float(r) <= 0.0:
        raise DomainError("inverse transform evaluation needs r > 0")
    cb = budget.part(0.05)
    achieved = 0.0
    tables = {}

    def integrand(rhos: np.ndarray) -> np.ndarray:
        nonlocal achieved
        fhat_vals = np.array([float(fhat(p)) for p in rhos])
        weight = rhos * np.tanh(math.pi * rhos) / (0.25 + rhos * rhos)
        _, e_vals, e_err = _conical_many(rhos, float(r), cb, need_p1=True,
                                         tables=tables)
        achieved = max(achieved, e_err)
        return fhat_vals * weight * e_vals / (2.0 * math.pi)

    value, err = integrate_semiinfinite(integrand, gaussian_rate, budget.part(0.9),
                                        bound=bound, poly_degree=2, vectorized=True)
    conical = (max(cb.abs_tol, achieved) * bound * math.sqrt(math.pi / gaussian_rate)
               / (4.0 * math.pi))
    return value, err + conical


def _inverse_fhat_gain(budget: ToleranceBudget, gaussian_rate: float,
                       bound: float) -> float:
    """Largest change of _inverse_with_error's value per unit of a uniform
    error in the fhat values it samples: R / (2 pi), R the radius where
    integrate_semiinfinite cuts the rho integral.

    The value is sum_i W_i fhat(rho_i) w(rho_i) E_rho_i(r) / (2 pi) over
    the accepted Kronrod panels, whose weights W_i are positive and sum to R.
    |w E| <= 1: w = rho tanh(pi rho) / (1/4 + rho^2) <= rho / (1/4 + rho^2),
    and with q = cosh r + sinh r cos phi in Laplace's integral P(cosh r) =
    (1/pi) int_0^pi q^(-1/2 + i rho) dphi, d/dr q^(-1/2 + i rho) = (-1/2 +
    i rho) q^(-3/2 + i rho) (sinh r + cosh r cos phi), where (sinh r +
    cosh r cos phi)^2 = q^2 - sin^2 phi <= q^2.  So |E_rho(r)| <=
    sqrt(1/4 + rho^2) (1/pi) int_0^pi q^(-1/2) dphi, and by Cauchy-Schwarz
    the last integral is at most ((1/pi) int_0^pi q^(-1) dphi)^(1/2) = 1.
    Hence |w E| <= rho / sqrt(1/4 + rho^2) < 1, and errors of at most eps
    in fhat move the value by at most eps sum_i W_i / (2 pi) = eps R / (2 pi).
    """
    radius, _ = gaussian_tail_radius(gaussian_rate, 0.5 * budget.part(0.9).abs_tol,
                                     bound=bound, poly_degree=2)
    return radius / (2.0 * math.pi)


def _roundtrip(profile: RadialProfile, radii, budget: ToleranceBudget,
               gaussian_rate: float, bound: float):
    """The inverse transform of profile's computed forward transform at
    radii: the rows [(r, value, err_est)] and the relative L2 error
    against the profile over radii (None if it vanishes at every radius).

    fhat is computed, not exact: each row's err_est also charges the
    largest forward err_est among the rho it sampled, times the gain
    _inverse_fhat_gain proves.  Each rho is transformed once.
    """
    cache = {}
    worst = 0.0

    def fhat(rho):
        nonlocal worst
        key = float(rho)
        if key not in cache:
            cache[key] = _forward_with_error(profile, key, budget)
        worst = max(worst, cache[key][1])
        return cache[key][0]

    gain = _inverse_fhat_gain(budget, gaussian_rate, bound)
    rows, num, den = [], 0.0, 0.0
    for r in radii:
        worst = 0.0
        back, err = _inverse_with_error(fhat, r, budget, gaussian_rate, bound)
        rows.append((r, back, err + worst * gain))
        num += (back - profile(r)) ** 2
        den += profile(r) ** 2
    return rows, (math.sqrt(num / den) if den else None)


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
    return _inverse_with_error(fhat, r, budget, gaussian_rate, bound)[0]
