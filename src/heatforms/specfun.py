"""Conical functions and the order-one Mehler-Fock transform.

Conventions
-----------
``conical_p1`` is the r-derivative of ``conical_p`` evaluated at
cosh(r), which is the radial eigenfunction pairing used by the transform.

One conical evaluator, ``_conical_many``, serves both axes: an array of rho
at one radius or several (``conical_p``, ``conical_p1`` and the synthesis
below) and an array of radii at fixed rho (each adaptive panel of the
forward transform in one call).  Each radius takes one of three branches:

- near the origin (sinh^2(r/2) <= 1/2 and sinh^2(r/2) (1/4 + rho^2) <=
  0.3) the hypergeometric series in sinh^2(r/2);
- from r = ln2 / 2 on, for rho >= 1e-3, the convergent series in x =
  e^{-2r} <= 1/2 (_conical_far), whose term ratios are below x in modulus:
  its tail after the last term t_K is at most |t_K| x / (1 - x), and its
  error bar adds 8 eps times the sum of |terms| for roundoff and eps (|ln
  c| + |nu| r) times it for the phase, so about 57 terms reach 1e-17
  whatever rho is;
- elsewhere, in the band between the two and for rho < 1e-3, the
  Mehler-Dirichlet integral (DLMF 14.20; Gil, Segura & Temme, Numerical
  Methods for Special Functions, SIAM 2007) in one pass of composite
  21-point Gauss-Kronrod panels, whose embedded 10-point Gauss sum is the
  accuracy check; only a failed check doubles the panels.

The integral is also the tests' independent check on the e^{-2r} series.
Its radius-only factors (nodes, weights times 1/sqrt(psi) and its
r-derivative, in log space so that no sinh overflows) form a table built
from a unit rule scaled by sqrt(r), and each evaluation costs a cos and a
sin of a rho-by-node phase and matrix-vector products against it.  Its
first grid holds at most 65536 panels and its last at most 131072, whatever
rho and r are.

One rho integral, ``_synthesis``, serves the inverse transform (a row of
fhat) and the spectral oracle on H2 (rows of heat data), and alone decides
where that integral is cut and what its error bar charges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import (DEFAULT_BUDGET, DecayHint, ToleranceBudget,
                         _area_tail, _as_float, _integrate_panels,
                         _kronrod_panels, _seeded_edges, gaussian_tail_radius,
                         refine_until_stable)

__all__ = [
    "SpectralParameter",
    "RadialProfile",
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
# The e^{-2r} series serves radii from ln2 / 2, where x = e^{-2r} <= 1/2, and
# rho from _RHO_MIN: below it the 1/rho cancellation in 2 Re[c ...] costs
# more than 1e-13 (1.8e-13 at rho = 1e-3 against 30-digit values).
_FAR_RADIUS = 0.5 * math.log(2.0)
_RHO_MIN = 1e-3
# B_2k / (2k (2k - 1)), k = 1..8: Stirling's series for ln Gamma.
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
             1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0)
# (-1)^(n+1) / n, n = 2..16: the series of (z log1p(v) - 1/2) / (z v) in v.
_LOG1P_REST = tuple((1.0 if n % 2 else -1.0) / n for n in range(2, 17))


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
        return _as_float(self.fn(r), "the radial profile")


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


def _expint_cf(z: float, p: float) -> float:
    """E_p(z) = int_1^inf e^{-zx} x^{-p} dx for z > 1 by the even contraction
    of its continued fraction (DLMF 8.19.17), e^-z / (z + p - 1 p/(z + p + 2
    - 2 (p + 1)/(z + p + 4 - ...))), summed with the modified Lentz method."""
    scale = math.exp(-z)
    if scale == 0.0:
        return 0.0  # E_p(z) < e^-z / z has underflowed
    b = z + p
    c, d = math.inf, 1.0 / b
    frac = d
    for k in range(1, 200):
        b += 2.0
        a = k * (p + (k - 1))
        d = 1.0 / (b - a * d)
        c = b - a / c
        frac *= c * d
        if abs(c * d - 1.0) <= _EPS:
            break
    return frac * scale


def _mehler_dirichlet_eval(rhos: np.ndarray, radii: np.ndarray, n_panels: int,
                           need_p1: bool, scale=None):
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
    _BLOCK_ELEMS entries however many radii come in.  `scale`, if given,
    is a 1-entry array raised to the largest K21 sum of |terms| of any
    entry, which sets the roundoff.
    """
    flat = radii.reshape(-1)
    step = max(1, _BLOCK_ELEMS // (4 * 21 * n_panels))
    out = np.empty((4 if need_p1 else 2, flat.size, rhos.size))
    for lo in range(0, flat.size, step):
        s, weights, boundary = _dirichlet_table(flat[lo:lo + step], n_panels, need_p1)
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
    moving-endpoint term 1 / (2 sqrt 2 sinh(r/2)) of the r-derivative.

    With h = w^2 / 2 and a = r - h, 1/sqrt(psi) = 2 sqrt(h) e^{-r/2} /
    sqrt(expm1(-2a) expm1(-2h)), so nothing overflows at any finite r."""
    x, wts = _kronrod_panels(np.linspace(0.0, 1.0, n_panels + 1))
    r = radii[:, None]
    xsq = x * x
    s = r * (1.0 - xsq)  # w = sqrt(r) x
    half_wsq = r * (0.5 * xsq)
    a = r - half_wsq
    # sqrt(r) (from dw = sqrt(r) dx) times 2 sqrt(h) is sqrt(2) r x
    inv = (math.sqrt(2.0) * r * x * np.exp(-0.5 * r)
           / np.sqrt(np.expm1(-2.0 * a) * np.expm1(-2.0 * half_wsq)))
    factors = [inv]
    boundary = None
    if need_p1:
        # d/dr (sinh(a) sinhc(w^2/2))^(-1/2) = -coth(a) / (2 sqrt(psi))
        factors.append(inv * (-0.5 / np.tanh(a)))
        boundary = np.exp(-0.5 * radii) / (-math.sqrt(2.0) * np.expm1(-radii))
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


def _power_sum(u: np.ndarray, coefs) -> np.ndarray:
    """sum_k coefs[k] u^(k + 1) at each entry of a 1-d array u."""
    powers = np.cumprod(np.repeat(u[:, None], len(coefs), axis=1), axis=1)
    return powers @ np.asarray(coefs)


def _log_c(rhos: np.ndarray) -> np.ndarray:
    """ln c(rho), c = Gamma(i rho) / (sqrt(pi) Gamma(1/2 + i rho)), rho > 0.

    ln c = ln Gamma(w + 1/2) - ln Gamma(w) - ln(i rho) - ln(pi) / 2 with w =
    1/2 + i rho.  The Gamma difference is taken at z = w + 10, less the log
    of the product of the ten ratios (w + j + 1/2) / (w + j), whose argument
    stays within (-pi/2, 0], so its branch never wraps.  At z it is ln(z) / 2
    + (z log1p(v) - 1/2) + S(z + 1/2) - S(z), v = 1 / (2z), S Stirling's
    series: the bracket is summed as (1/2) sum_{n>=2} (-1)^(n+1) v^(n-1) /
    n, |v| <= 1/21, so nothing of size rho cancels.
    """
    w = 0.5 + 1j * rhos
    j = np.arange(10.0)
    shift = np.prod((w[:, None] + (j + 0.5)) / (w[:, None] + j), axis=1)
    z = w + 10.0
    stirling = [t * _power_sum(1.0 / (t * t), _STIRLING) for t in (z + 0.5, z)]
    return (0.5 * np.log(z) + 0.5 * _power_sum(0.5 / z, _LOG1P_REST)
            + (stirling[0] - stirling[1]) - np.log(shift) - np.log(rhos)
            - 0.5j * math.pi - 0.5 * math.log(math.pi))


def _matvecs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b as matrix-vector products, one per column of b or per row of a,
    whichever are fewer: a matrix product's first call makes BLAS touch
    about 0.3 MB more of resident memory for its packing buffers."""
    b = np.ascontiguousarray(b)
    if b.shape[1] <= a.shape[0]:
        return np.stack([a @ col for col in b.T], axis=1)
    return np.stack([row @ b for row in a])


def _far_products(rhos: np.ndarray, n_terms: int) -> np.ndarray:
    """Q_k(rho) = prod_{j<k} (j + 1/2)(j + 1/2 - i rho) / ((j + 1)(j + 1 -
    i rho)) for k < n_terms, a row per k: the e^{-2r} series' terms without
    their x^k."""
    a = np.arange(n_terms - 1.0)[:, None] + 0.5
    b = a + 0.5
    q = np.empty((n_terms, rhos.size), dtype=complex)
    q[0] = 1.0
    # (a - i rho) / (b - i rho) = (ab + rho^2 - i rho / 2) / (b^2 + rho^2)
    scale = (a / b) / (b * b + rhos * rhos)
    q[1:].real = scale * (a * b + rhos * rhos)
    q[1:].imag = scale * (-0.5 * rhos)
    return np.cumprod(q, axis=0, out=q)


def _conical_far(rhos: np.ndarray, radii: np.ndarray, need_p1: bool):
    """The e^{-2r} branch: P_{-1/2+i rho}(cosh r) = 2 Re[c(rho) e^{nu r}
    F(1/2, 1/2 - i rho; 1 - i rho; x)] with nu = -1/2 + i rho, x = e^{-2r}
    and c from _log_c, for rho > 0 and a 1-d array of radii; P1 = 2 Re[c
    e^{nu r} sum_k (nu - 2k) t_k] term by term.  Returns (P, P1, err) with
    a row per radius.

    The term ratio t_{k+1} / t_k = x (k + 1/2)(k + 1/2 - i rho) / ((k + 1)(k
    + 1 - i rho)) has modulus below x, so |t_k| <= x^k, the tail beyond the
    last term t_K is at most |t_K| x / (1 - x) (and |t_K| ((|nu| + 2K) x /
    (1 - x) + 2x / (1 - x)^2) for P1), and the sums of |terms| are at most
    1 / (1 - x) and |nu| / (1 - x) + 2x / (1 - x)^2.  K is set by the
    batch's largest x so that x^K <= 1e-17: 57 terms at x = 1/2.  err is
    the largest over entries of 2 |c| e^{-r/2} times the tail plus (8 eps +
    eps (|ln c| + |nu| r)) times the sum of |terms|: the sums' roundoff and
    the rounding of the phase.  The terms are sum_k Q_k(rho) x^k with Q_k
    the running product of the ratios without x, so each block of radii
    and rho is a few matrix-vector products; blocks keep the (radius, rho,
    term) count near _BLOCK_ELEMS.
    """
    rhos = np.abs(rhos)
    x_max = math.exp(-2.0 * float(radii.min()))
    n_terms = 1 if x_max == 0.0 else 1 + math.ceil(math.log(1e-17) / math.log(x_max))
    out = np.empty((2 if need_p1 else 1, radii.size, rhos.size))
    err = 0.0
    r_step = min(radii.size, max(1, _BLOCK_ELEMS // n_terms))
    rho_step = max(1, _BLOCK_ELEMS // (2 * n_terms * r_step))  # complex terms
    for r_lo in range(0, radii.size, r_step):
        rows = slice(r_lo, r_lo + r_step)
        r = radii[rows, None]
        x = np.exp(-2.0 * r)
        powers = np.repeat(x, n_terms, axis=1)
        powers[:, 0] = 1.0
        np.cumprod(powers, axis=1, out=powers)
        # a row of x^k per radius, and with P1 a row of -2k x^k below it
        weights = (np.concatenate([powers, powers * (-2.0 * np.arange(n_terms))])
                   if need_p1 else powers)
        last = powers[:, -1:]  # bounds |t_K|
        mass = 1.0 / (1.0 - x)
        tail, slope = last * x * mass, 2.0 * x * mass * mass
        for lo in range(0, rhos.size, rho_step):
            cols = slice(lo, lo + rho_step)
            rho = rhos[cols]
            log_c, nu = _log_c(rho), -0.5 + 1j * rho
            q = _far_products(rho, n_terms)
            sums = _matvecs(weights, q.real) + 1j * _matvecs(weights, q.imag)
            amp = 2.0 * np.exp(log_c + nu * r)
            f = sums[:r.size]
            out[0, rows, cols] = (amp * f).real
            abs_nu = np.abs(nu)
            rounding = _EPS * (8.0 + np.abs(log_c) + abs_nu * r)
            bound = tail + rounding * mass
            if need_p1:
                out[1, rows, cols] = (amp * (nu * f + sums[r.size:])).real
                bound = np.maximum(bound, (abs_nu + 2.0 * (n_terms - 1)) * tail
                                   + slope * last + rounding * (abs_nu * mass + slope))
            err = max(err, float((np.abs(amp) * bound).max()))
        del powers, weights, last, q, sums  # before the next block's are built
    return out[0], (out[1] if need_p1 else None), err


def _conical_integral(rhos: np.ndarray, radii: np.ndarray,
                      budget: ToleranceBudget, need_p1: bool):
    """Mehler-Dirichlet branch: one K21 pass, accepted once its largest
    change from the embedded G10 over all radii is within budget.abs_tol or
    the roundoff floor; otherwise the panels double.  The first grid takes
    max|rho| r_max / 4 + 1 panels, at most 65536, and a grid of more than
    65536 is not doubled again.  err adds 8 eps times the largest sum of
    |terms| met."""
    rho_max = float(np.abs(rhos).max(initial=0.0))
    n0 = min(65536, max(4, int(math.ceil(rho_max * float(radii.max()) / 4.0)) + 1))
    rounds = min(budget.max_quad_depth, (65536 // n0).bit_length())
    scale = np.zeros(1)
    (p, p1), diff = refine_until_stable(
        lambda n: _mehler_dirichlet_eval(rhos, radii, n, need_p1, scale),
        (n0,), 2, budget.abs_tol, rounds,
        # the floor concedes what roundoff already spent
        floor=lambda cur: 64.0 * _EPS * (1.0 + max(
            float(abs(v).max()) for v in cur if v is not None)),
        embedded=True)
    return p, p1, diff + 8.0 * _EPS * float(scale[0])


def _conical_many(rhos: np.ndarray, r, budget: ToleranceBudget, need_p1: bool):
    """(P, P1, err) for an array of rho at one radius or at an array of radii.

    A scalar r gives arrays shaped like rhos; an array of radii gives one row
    per radius.  Each radius takes one branch on its own: the series about
    the origin; from r = ln2 / 2 (_FAR_RADIUS) on, the e^{-2r} series,
    except in the columns with rho < _RHO_MIN; the integral everywhere
    else.  The integral entries share one refinement, so every radius
    meets the tolerance it would meet alone.  err is the largest series
    tail, e^{-2r} tail or final K21-G10 change met, plus the roundoff each
    branch charges.
    """
    rhos = np.asarray(rhos, dtype=float)
    radii = np.asarray(r, dtype=float)
    if not np.all((radii >= 0.0) & (radii < math.inf)):
        raise DomainError("radius must be finite and nonnegative")
    flat = radii.reshape(-1)
    rho_max = float(abs(rhos).max()) if rhos.size else 0.0
    # The series needs fast initial decay (small s rho^2) AND to sit well
    # inside its |s| < 1 convergence disk; at small rho the first condition
    # alone would admit s up to 1.2, where the tail diverges.  Clipping r at
    # 2 leaves that choice alone and keeps sinh finite.
    s_half = np.sinh(0.5 * np.minimum(flat, 2.0)) ** 2
    series = (s_half <= 0.5) & (s_half * (0.25 + rho_max * rho_max) <= 0.3)
    far = ~series & (flat >= _FAR_RADIUS)
    small = np.abs(rhos) < _RHO_MIN
    every = np.ones(rhos.shape, dtype=bool)

    def integral(rows, cols):
        return _conical_integral(rhos[cols], flat[rows], budget, need_p1)

    # (rows, columns, evaluator) rectangles that tile the batch
    parts = [(series, every, lambda rows, cols: _conical_series(
                  rhos, flat[rows], s_half[rows], need_p1)),
             (far, ~small, lambda rows, cols: _conical_far(
                  rhos[cols], flat[rows], need_p1))]
    if small.all() or not far.any():
        parts.append((~series, every, integral))
    else:
        parts += [(~series & ~far, every, integral), (far, small, integral)]
    parts = [(rows, cols, fn(rows, cols)) for rows, cols, fn in parts
             if rows.any() and cols.any()]
    err = max((part[2][2] for part in parts), default=0.0)
    shape = radii.shape + rhos.shape
    if len(parts) == 1 and parts[0][0].all() and parts[0][1].all():
        p, p1, _ = parts[0][2]
        return p.reshape(shape), (p1.reshape(shape) if need_p1 else None), err
    out = np.zeros((2 if need_p1 else 1, flat.size, rhos.size))
    for rows, cols, values in parts:
        for row, v in zip(out, values[:2]):
            row[np.ix_(rows, cols)] = v
    return out[0].reshape(shape), (out[1].reshape(shape) if need_p1 else None), err


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
    Its panels start no wider than the hint's scale (1/sqrt(rate) for a
    Gaussian, 1/rate for an exponential) or the period 2 pi / rho of E_rho,
    so all of them cost one conical batch and K21 and G10 cannot agree by
    accident on one wide panel.  err_est adds the quadrature error, that
    tail, and the largest conical change met, spread over the profile's
    area-weighted mass.
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

    decay = profile.decay
    width = 1.0 / (math.sqrt(decay.rate) if decay.kind == "gaussian" else decay.rate)
    if rho_val > 0.0:
        width = min(width, 2.0 * math.pi / rho_val)
    value, qerr = _integrate_panels(integrand, _seeded_edges(radius, width),
                                    budget.part(0.5))
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


def _synthesis(data, orders, radii, rate: float, bound: float,
               budget: ToleranceBudget):
    """(1/2 pi) int_0^inf data_k(rho) rho tanh(pi rho) E_k(rho, r) drho for
    each row k of data(rhos) at every radius r, with E = P for order 0 and
    P1 / lam for order 1 (lam = 1/4 + rho^2): the one rho integral of the
    inverse transform and of the spectral oracle on H2.

    The caller asserts |data_k(rho)| <= bound exp(-rate rho^2).  With q =
    cosh r + sinh r cos phi in Laplace's integral P(cosh r) = (1/pi)
    int_0^pi q^(-1/2 + i rho) dphi, |P| <= (1/pi) int_0^pi q^(-1/2) dphi <=
    ((1/pi) int_0^pi q^(-1) dphi)^(1/2) = 1 by Cauchy-Schwarz; and d/dr
    q^(-1/2 + i rho) = (-1/2 + i rho) q^(-3/2 + i rho) (sinh r + cosh r cos
    phi) with (sinh r + cosh r cos phi)^2 = q^2 - sin^2 phi <= q^2, so |P1|
    <= sqrt(lam) and |rho tanh(pi rho) P1 / lam| < 1.  Every integrand is
    thus at most env = bound (1 + rho)^n exp(-rate rho^2) / 2 pi, n = 1 with
    an order-0 row and 0 without.  A quarter of abs_tol goes to the tail
    beyond the cut (at least 2 / sqrt(rate)), a half to the panels' K21-G10
    error and a quarter to the conical error: a change delta in E moves a
    row by at most delta int env, which is charged for the largest change
    met.  The panels start no wider than 1/sqrt(rate) or the conical period
    2 pi / max r, as on one wide panel K21 and G10 can agree by accident.
    Returns (rows, err_est, radius, evals): rows[k, i] at radii[i], one
    bound for every entry, the cut and the rho nodes evaluated.
    """
    radii = np.asarray(radii, dtype=float).reshape(-1)
    if not np.all((radii >= 0.0) & (radii < math.inf)):  # max r sizes panels
        raise DomainError("radius must be finite and nonnegative")
    n = int(0 in orders)
    scale = bound / (2.0 * math.pi)
    radius, tail = gaussian_tail_radius(rate, 0.25 * budget.abs_tol, scale, n)
    if bound == 0.0:
        return np.zeros((len(orders), radii.size)), 0.0, radius, 0
    radius = max(radius, 2.0 / math.sqrt(rate))
    mass = scale * (0.5 * math.sqrt(math.pi / rate) + 0.5 * n / rate)  # int env
    cb = budget.part(0.25 / mass)
    evals, achieved = 0, 0.0

    def integrand(rhos: np.ndarray) -> np.ndarray:
        nonlocal evals, achieved
        evals += rhos.size
        p, p1, c_err = _conical_many(rhos, radii, cb, 1 in orders)
        achieved = max(achieved, c_err)
        weight = rhos * np.tanh(math.pi * rhos) / (2.0 * math.pi)
        rows = [d * weight * (p1 / (0.25 + rhos * rhos) if k else p)
                for d, k in zip(data(rhos), orders)]
        return np.reshape(rows, (-1, rhos.size))

    width = min(1.0 / math.sqrt(rate), 2.0 * math.pi / max(float(radii.max()), 1e-300))
    values, qerr = _integrate_panels(integrand, _seeded_edges(radius, width),
                                     budget.part(0.5))
    err = qerr + tail + achieved * mass
    return np.reshape(values, (len(orders), radii.size)), err, radius, evals


def _inverse_with_error(fhat, r: float, budget: ToleranceBudget = DEFAULT_BUDGET,
                        gaussian_rate: float = 0.25, bound: float = 10.0):
    """(value, err_est, radius) of mehler_fock_inverse, taking fhat as exact:
    the one order-one row of _synthesis, fhat read through _as_float, and
    the radius where it cut the rho integral."""
    if not 0.0 < float(r) < math.inf:
        raise DomainError("inverse transform evaluation needs 0 < r < inf")

    def data(rhos: np.ndarray) -> np.ndarray:
        return np.array([[_as_float(fhat(p), "fhat") for p in rhos]])

    rows, err, radius, _ = _synthesis(data, (1,), r, gaussian_rate, bound, budget)
    return float(rows[0, 0]), err, radius


def _roundtrip(profile: RadialProfile, radii, budget: ToleranceBudget,
               gaussian_rate: float, bound: float):
    """The inverse transform of profile's computed forward transform at
    radii: the rows [(r, value, err_est)] and the relative L2 error
    against the profile over radii (None if it vanishes at every radius).

    fhat is computed, not exact: each row's err_est also charges the
    largest forward err_est among the rho it sampled times R / (2 pi), R the
    cut, as the K21 weights are positive and sum to R and each fhat sample
    enters times a factor below 1 (_synthesis).  Each rho is transformed once.
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

    rows, num, den = [], 0.0, 0.0
    for r in radii:
        worst = 0.0
        back, err, radius = _inverse_with_error(fhat, r, budget, gaussian_rate, bound)
        rows.append((r, back, err + worst * radius / (2.0 * math.pi)))
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
