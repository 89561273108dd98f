"""Conical functions and the order-one Mehler-Fock transform.

Conventions
-----------
``conical_p1`` is the r-derivative of ``conical_p`` evaluated at
cosh(r), which is the radial eigenfunction pairing used by the transform.

One conical evaluator, ``_conical_many``, takes a 1-d array of rho and a
1-d array of radii and returns a row per radius and a column per rho: many
rho at one radius for the synthesis below, many radii at one rho for the
panels of the forward transform, one of each for ``conical_p`` and
``conical_p1``.  Both series are sums of a radius's powers against a rho's
coefficients, so each block of radii and rho is a few matrix-vector
products.  Each radius takes one of three branches:

- near the origin (sinh^2(r/2) <= 1/2 and sinh^2(r/2) (1/4 + rho^2) <=
  0.3) the hypergeometric series in sinh^2(r/2), with as many terms as its
  largest entry needs;
- from r = _FAR_RADIUS = 0.0768 on, for rho >= 1e-3, the convergent
  series in x = e^{-2r} <= 0.858 (_conical_far), whose term ratios are
  below x in modulus: its tail after the last term t_K is at most |t_K| x
  / (1 - x), and its error bar adds 8 eps times the sum of |terms| for
  roundoff and eps (|ln c| + |nu| r) times it for the phase.  x^K reaches
  1e-17 within 256 terms at the first radius, 57 from ln2 / 2 on, whatever
  rho is.  ln c(rho) comes from one asymptotic series of ln Gamma(z + 1/2)
  - ln Gamma(z) in 1/z^2 after a shift of ten.  Near the first radius
  1 / (1 - x) reaches 7 and at small rho |c| ~ 1 / (pi rho) is large, so a
  column of rho < 1 whose error bar exceeds the request takes the
  integral instead;
- elsewhere, between the two series (which meet in a batch whose largest
  rho is at most 14.2) and for rho < 1e-3, the Mehler-Dirichlet integral
  (DLMF 14.20; Gil, Segura & Temme, Numerical Methods for Special
  Functions, SIAM 2007) in one pass of composite 21-point Gauss-Kronrod
  panels, whose embedded 10-point Gauss sum is the accuracy check; only a
  failed check doubles the panels.

The integral is also the tests' independent check on the e^{-2r} series.
Its radius-only factors (nodes, weights times 1/sqrt(psi) and its
r-derivative, in log space so that no sinh overflows) form a table built
from a unit rule scaled by sqrt(r), and each evaluation costs a cos and a
sin of a rho-by-node phase and matrix-vector products against it.  Its
first grid holds at most 65536 panels and its last at most 131072, whatever
rho and r are.

One rho integral, ``_synthesis``, serves the inverse transform (a row of
fhat) and the spectral oracle on H2 (rows of heat data), and alone decides
where that integral is cut and what its error bar charges.  It seeds its
panels on canonical grids, 2^(k/2) wide from 0, whose nodes, weights and
rho-only factors (the Plancherel weight, 1 / lam and ln c) one bounded
cache (_rho_grid) builds once per grid of at most 64 panels; a
single-rho forward transform never reaches it.  The radial
callbacks, fhat and a profile's function, are read a batch of nodes at a
time by ``quadrature._read_floats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .quadrature import (_EPS, DEFAULT_BUDGET, DecayHint, ToleranceBudget,
                         _area_tail, _as_float, _integrate_panels,
                         _kronrod_panels, _panel_count, _panel_estimates,
                         _read_floats, _seeded_edges, gaussian_tail_radius,
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
# Entries of one rho-by-node array in the Mehler-Dirichlet evaluator (512 KB).
_BLOCK_ELEMS = 1 << 16
# The Mehler-Dirichlet integral's first grid at most; a larger one is final.
_CONICAL_PANELS = 65536
# (rate, bound) of the decay |fhat| <= bound e^{-rate rho^2} of the round trip.
_ROUNDTRIP_DECAY = (0.2, 10.0)
# The e^{-2r} series serves radii from _FAR_RADIUS, where x = e^{-2r} <= 0.858
# and x^255 <= 1e-17, so no batch takes more than 256 terms, and rho from
# _RHO_MIN: below it the 1/rho cancellation in 2 Re[c ...] costs more than
# 1e-13 (1.8e-13 at rho = 1e-3 and r = 0.4 against 30-digit values).
_FAR_RADIUS = 0.0768
_RHO_MIN = 1e-3
# Below this rho, where |c| > 0.6 grows like 1 / (pi rho), a column whose
# e^{-2r} err exceeds the request takes the integral, which few panels serve.
_FALLBACK_RHO = 1.0
# Canonical seeded rho grids of at most this many panels are cached, the
# _GRID_CACHE_SIZE last used; a grid of 64 panels holds 1344 nodes.
_GRID_CACHE_PANELS = 64
_GRID_CACHE_SIZE = 32
# -(2 - 2^(1 - 2k)) B_2k / (2k (2k - 1)), k = 1..8: ln Gamma(z + 1/2) - ln
# Gamma(z) = ln(z) / 2 + sum_k these * z^(1 - 2k), the difference of
# Stirling's series at shifts 1/2 and 0 (DLMF 5.11.8, B_n(1/2) = -(1 -
# 2^(1 - n)) B_n); at |z| >= 10.5 the ninth term is below 2e-18.
_HALF_GAMMA = np.array([-0.125, 0.005208333333333333, -0.0015625,
                        0.0011858258928571428, -0.001681857638888889,
                        0.0038341175426136365, -0.012819730318509616,
                        0.059100405375162764])


@dataclass(frozen=True)
class SpectralParameter:
    """Continuous spectral coordinate rho >= 0 on the hyperbolic plane.

    The 0-form eigenvalue lambda = 1/4 + rho^2 is always recomputed from rho,
    never stored, so the two cannot drift apart.
    """

    rho: float

    def __post_init__(self):
        if not math.isfinite(self.rho * self.rho) or self.rho < 0.0:
            raise DomainError("rho must be nonnegative, and finite with rho^2")

    @property
    def lam(self) -> float:
        return 0.25 + self.rho * self.rho


def _as_rho(rho) -> float:
    """Coerce a SpectralParameter or bare float to |rho|."""
    if isinstance(rho, SpectralParameter):
        return rho.rho
    value = float(rho)
    # rho^2 enters lambda and the conical series; past 1.3e154 it overflows
    if not math.isfinite(value * value):
        raise DomainError(f"rho must be finite with rho^2, not {value:.3g}")
    # The spectrum is symmetric under rho -> -rho; fold negatives over.
    return abs(value)


@dataclass(frozen=True)
class RadialProfile:
    """A radial function on the hyperbolic plane together with its decay hint."""

    fn: object
    decay: DecayHint
    name: str = ""

    def __call__(self, r: float) -> float:
        return _as_float(self.fn(r), "the radial profile returned")


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
                           need_p1: bool, scale: np.ndarray):
    """Composite-K21 evaluation of the conical integral and its r-derivative.

    The representation is P_{-1/2+i rho}(cosh r) =
    (2 sqrt 2 / pi) * int_0^sqrt(r) cos(rho (r - w^2)) / sqrt(psi(w)) dw with
    psi(w) = sinh(r - w^2/2) * sinhc(w^2/2); the substitution s = r - w^2 has
    absorbed the inverse-square-root endpoint singularity of the classical
    form, so the integrand is smooth on the whole interval.  Each radius of
    the 1-d array radii gets its own grid of n_panels K21 panels on [0,
    sqrt(r)].  Returns ((P, P1), (P_G10, P1_G10)), a row per radius and a
    column per rho: the K21 values and those of the embedded 10-point Gauss
    rule on the same nodes (P1 entries None unless need_p1).

    Radius blocks, or blocks of panels when one radius has more than
    _BLOCK_ELEMS / 84 of them (their sums are added), keep a block's table
    and a 4-row rho block near _BLOCK_ELEMS entries however many radii and
    panels come in.  `scale`, a 1-entry array, is raised to the largest K21
    sum of |terms| of any entry, which sets the roundoff.
    """
    per_block = max(1, _BLOCK_ELEMS // (4 * 21))  # panels of one table
    step = max(1, per_block // n_panels)  # radii of one table
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    rho_max = float(abs(rhos).max(initial=0.0))
    out = np.zeros((4 if need_p1 else 2, radii.size, rhos.size))
    for lo in range(0, radii.size, step):
        rows = out[:, lo:lo + step]
        mass = 0.0  # the K21 rows' sums of |weights|; each row has one sign
        for p_lo in range(0, n_panels, per_block):
            s, weights, boundary = _dirichlet_table(
                radii[lo:lo + step], edges[p_lo:p_lo + per_block + 1], need_p1)
            _dirichlet_sums(rhos, s, weights, rows)
            mass = mass + np.abs(weights[0::2].sum(axis=-1))
            del s, weights  # before the next block's table is built
        if need_p1:
            rows[2:] += boundary[:, None]
            mass[1] += rho_max * mass[0] + boundary
        scale[0] = max(scale[0], _TWO_SQRT2_OVER_PI * float(mass.max()))
    out *= _TWO_SQRT2_OVER_PI
    if not need_p1:
        return (out[0], None), (out[1], None)
    return (out[0], out[2]), (out[1], out[3])


def _dirichlet_table(radii: np.ndarray, edges: np.ndarray, need_p1: bool):
    """The radius-only factors of the conical integrand for a 1-d array of
    radii, on the K21 panels between `edges` of a unit composite rule
    scaled by sqrt(r): (s, weights, boundary).  s holds the nodes s = r -
    w^2; weights holds radius-by-node rows, the K21 and G10 weights times
    1/sqrt(psi) and, with need_p1, both times its r-derivative; boundary
    (None unless need_p1) is the moving-endpoint term 1 / (2 sqrt 2
    sinh(r/2)) of the r-derivative.

    With h = w^2 / 2 and a = r - h, 1/sqrt(psi) = 2 sqrt(h) e^{-r/2} /
    sqrt(expm1(-2a) expm1(-2h)), so nothing overflows at any finite r."""
    x, wts = _kronrod_panels(edges)
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
                    out: np.ndarray):
    """Quadrature sums against each row of a table's weights for every rho,
    added to out[row, radius, rho]: cos(rho s) against every row, and for
    the r-derivative rows also -rho sin(rho s) against the matching
    1/sqrt(psi) row.

    Every sum is a matrix-vector product: one matrix product against all
    rows is no faster at these sizes, and its first call makes BLAS touch
    about 0.3 MB more of resident memory for its packing buffers.
    """
    for lo, hi in _rho_blocks(rhos.size, s.size):
        rho = rhos[lo:hi]
        phase = rho[:, None] * s[:, None, :]
        cos_phase = np.cos(phase)
        for row, w in enumerate(weights):
            out[row, :, lo:hi] += (cos_phase @ w[..., None])[..., 0]
        if len(weights) > 2:
            np.sin(phase, out=phase)
            for row, w in enumerate(weights[:2]):
                out[2 + row, :, lo:hi] -= rho * (phase @ w[..., None])[..., 0]
        del phase, cos_phase  # before the next block's are built


def _powers(y: np.ndarray, n: int) -> np.ndarray:
    """y^k for k < n, a row per k and a column per entry of the 1-d array y,
    by doubling: rows [m, 2m) are rows [0, m) times y^m."""
    powers = np.empty((n, y.size))
    powers[0] = 1.0
    powers[1:2] = y
    m = 2
    while m < n:
        np.multiply(powers[:min(m, n - m)], powers[m // 2] ** 2, out=powers[m:2 * m])
        m *= 2
    return powers


def _conical_series(rhos: np.ndarray, radii: np.ndarray, s: np.ndarray,
                    need_p1: bool):
    """Hypergeometric series about the origin, in s = sinh^2(r/2).

    P_{-1/2+i rho}(cosh r) = sum_k a_k(rho) (-s)^k with a_0 = 1 and the
    ratio a_k/a_{k-1} = ((k - 1/2)^2 + rho^2)/k^2, and P1 = -(sinh(r) / 2)
    sum_k (k + 1) a_{k+1} (-s)^k term by term; it converges fast whenever
    s (rho^2 + 1/4) is small, which is exactly the regime where the
    integral form loses its derivative to cancellation.  radii and s are
    1-d, and the values come a row per radius.

    |a_k s^k| grows with s and rho^2 for every k, so the batch's largest
    entry sets the terms: the sum stops at the first term K of that entry
    below 1e-18, and the sums of |terms| are that entry's.  In the series
    regime (s <= 1/2, s (rho^2 + 1/4) <= 0.3) every later ratio is at most s
    (1 + rho^2 / (K + 1)^2) <= 0.575, so the tail beyond term K is below
    1.36 |term K|; err charges 2 |term K| and 8 eps times the sums of
    |terms|.  Each block of radii and rho is a few matrix-vector products of
    the radii's powers of -s against the a_k, near _BLOCK_ELEMS entries.
    """
    s_max = float(s.max())
    rsq_max = float(np.abs(rhos).max()) ** 2
    term, abs_p, abs_dp = 1.0, 1.0, 0.0
    for k in range(1, 80):
        term = term * s_max * (((k - 0.5) ** 2 + rsq_max) / (k * k))
        abs_p += term
        abs_dp += k * term
        if term <= 1e-18:
            break
    n_terms = k + 1
    ks = np.arange(1.0, n_terms)[:, None]
    out = np.empty((2 if need_p1 else 1, radii.size, rhos.size))
    r_step = max(1, _BLOCK_ELEMS // n_terms)
    rho_step = max(1, _BLOCK_ELEMS // (2 * n_terms))
    for r_lo in range(0, radii.size, r_step):
        rows = slice(r_lo, r_lo + r_step)
        powers = _powers(-s[rows], n_terms)
        half_sinh = -0.5 * np.sinh(radii[rows])
        for lo in range(0, rhos.size, rho_step):
            cols = slice(lo, lo + rho_step)
            rho = rhos[cols]
            # a_k(rho) in the first columns, and with P1 (k + 1) a_{k+1}
            coefs = np.empty((n_terms, (1 + need_p1) * rho.size))
            a_k = coefs[:, :rho.size]
            a_k[0] = 1.0
            np.divide((ks - 0.5) ** 2 + rho * rho, ks * ks, out=a_k[1:])
            np.cumprod(a_k, axis=0, out=a_k)
            if need_p1:
                np.multiply(a_k[1:], ks, out=coefs[:-1, rho.size:])
                coefs[-1, rho.size:] = 0.0
            sums = _matvecs(powers.T, coefs)
            out[0, rows, cols] = sums[:, :rho.size]
            if need_p1:  # ds/dr = sinh(r) / 2
                out[1, rows, cols] = sums[:, rho.size:] * half_sinh[:, None]
        del powers  # before the next block's are built
    err = 2.0 * term + 8.0 * _EPS * abs_p
    if not need_p1:
        return out[0], None, err
    # |P1 terms| = sinh(r) k |a_k| s^(k-1) / 2, each factor largest at r_max
    abs_dp *= 0.5 * math.sinh(float(radii.max())) / s_max if s_max else 0.0
    return out[0], out[1], err + 8.0 * _EPS * abs_dp


def _log_c(rhos: np.ndarray) -> np.ndarray:
    """ln c(rho), c = Gamma(i rho) / (sqrt(pi) Gamma(1/2 + i rho)), rho > 0.

    ln c = ln Gamma(w + 1/2) - ln Gamma(w) - ln(i rho) - ln(pi) / 2 with w =
    1/2 + i rho.  The Gamma difference is taken at z = w + 10, less the log
    of the product of the ten ratios (w + j + 1/2) / (w + j), whose argument
    stays within (-pi/2, 0].  At z it is ln(z) / 2 + sum_k _HALF_GAMMA[k]
    z^(-2k - 1), one series in u = 1/z^2 (|z| >= 10.5) whose powers of u
    come by doubling and meet the coefficients in one real product.  The
    logs are taken as one, of sqrt(z) / (rho times the product), whose
    argument lies in [0, 3 pi / 4), so no branch wraps and nothing of size
    rho cancels.
    """
    z = 10.5 + 1j * rhos
    wj = z + np.arange(-10.0, 0.0)[:, None]  # w + j, a row per j
    shift = np.multiply.reduce((wj + 0.5) / wj)
    u = 1.0 / (z * z)
    powers = np.empty((8, rhos.size), dtype=complex)  # u^k, a row per k
    powers[0] = 1.0
    powers[1] = u
    np.multiply(powers[:2], u * u, out=powers[2:4])
    np.multiply(powers[:4], powers[2] * powers[2], out=powers[4:])
    series = (_HALF_GAMMA @ powers.view(float)).view(complex)
    return (series / z + np.log(np.sqrt(z) / (shift * rhos))
            - complex(0.5 * math.log(math.pi), 0.5 * math.pi))


def _matvecs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b as matrix-vector products, one per column of b or per row of a,
    whichever are fewer: a matrix product's first call makes BLAS touch
    about 0.3 MB more of resident memory for its packing buffers."""
    if b.shape[1] <= a.shape[0]:
        return np.array([a @ col for col in b.T]).T.copy()
    return np.array([row @ b for row in a])


def _far_products(rhos: np.ndarray, n_terms: int) -> np.ndarray:
    """Q_k(rho) = prod_{j<k} (j + 1/2)(j + 1/2 - i rho) / ((j + 1)(j + 1 -
    i rho)) for k < n_terms, a row per k: the e^{-2r} series' terms without
    their x^k."""
    a = np.arange(0.5, n_terms - 1.0)[:, None]
    b = a + 0.5
    rsq = rhos * rhos
    q = np.empty((n_terms, rhos.size), dtype=complex)
    q[0] = 1.0
    # (a - i rho) / (b - i rho) = (ab + rho^2 - i rho / 2) / (b^2 + rho^2)
    scale = (a / b) / (b * b + rsq)
    np.multiply(scale, a * b + rsq, out=q[1:].real)
    np.multiply(scale, -0.5 * rhos, out=q[1:].imag)
    return np.cumprod(q, axis=0, out=q)


def _far_factors(rhos: np.ndarray):
    """The rho-only factors of the e^{-2r} series at rho > 0: (ln c, nu,
    |nu|, 8 + |ln c|), the last the rho part of its rounding charge."""
    log_c, nu = _log_c(rhos), -0.5 + 1j * rhos
    return log_c, nu, np.abs(nu), 8.0 + np.abs(log_c)


def _conical_far(rhos: np.ndarray, radii: np.ndarray, need_p1: bool,
                 far: tuple | None = None):
    """The e^{-2r} branch: P_{-1/2+i rho}(cosh r) = 2 Re[c(rho) e^{nu r}
    F(1/2, 1/2 - i rho; 1 - i rho; x)] with nu = -1/2 + i rho, x = e^{-2r}
    and c from _log_c, for rho > 0 and a 1-d array of radii (far, when
    given, is _far_factors(rhos) as a cached rho grid holds it); P1 = 2
    Re[c e^{nu r} sum_k (nu - 2k) t_k] term by term.  Returns (P, P1, err)
    with a row per radius and err a bound per rho, the largest over the
    radii.

    The term ratio t_{k+1} / t_k = x (k + 1/2)(k + 1/2 - i rho) / ((k + 1)(k
    + 1 - i rho)) has modulus below x, so |t_k| <= x^k, the tail beyond the
    last term t_K is at most |t_K| x / (1 - x) (and |t_K| ((|nu| + 2K) x /
    (1 - x) + 2x / (1 - x)^2) for P1), and the sums of |terms| are at most
    1 / (1 - x) and |nu| / (1 - x) + 2x / (1 - x)^2.  K >= 1 is set by the
    batch's largest x so that x^K <= 1e-17: 57 terms at x = 1/2, 256 at
    _FAR_RADIUS.  err is 2 |c| e^{-r/2} times the tail plus (8 eps + eps
    (|ln c| + |nu| r)) times the sum of |terms|: the sums' roundoff and the
    rounding of the phase.  The terms are sum_k Q_k(rho) x^k with Q_k the
    running product of the ratios without x and x^k = e^{-2kr} (by
    doubling, _powers, at more than one radius), so each block of radii and
    rho is a few real matrix-vector products of x^k (and of -2k x^k for P1)
    against the real and imaginary parts of Q, which lie side by side in
    memory; blocks keep the (radius, rho, term) count near _BLOCK_ELEMS.
    """
    rhos = np.abs(rhos)
    x_max = math.exp(-2.0 * float(radii.min()))
    # at least x^0 and x^1, which the block takes x from
    n_terms = 2 if x_max == 0.0 else max(2, 1 + math.ceil(math.log(1e-17)
                                                          / math.log(x_max)))
    out = np.empty((2 if need_p1 else 1, radii.size, rhos.size))
    r_step = min(radii.size, max(1, _BLOCK_ELEMS // n_terms))
    rho_step = max(1, _BLOCK_ELEMS // (2 * n_terms * r_step))  # complex terms
    err = np.zeros(rhos.size)
    for lo in range(0, radii.size, r_step):
        np.maximum(err, _far_block(rhos, radii[lo:lo + r_step], n_terms, rho_step,
                                   out[:, lo:lo + r_step], far), out=err)
    return out[0], (out[1] if need_p1 else None), err


def _far_block(rhos: np.ndarray, r: np.ndarray, n_terms: int, rho_step: int,
               out: np.ndarray, far: tuple | None) -> np.ndarray:
    """One block of radii of _conical_far, written to out (P and, with two
    rows, P1); returns its err per rho.  A function of its own, so that a
    block's arrays are freed before the next block's are built."""
    steps = np.arange(0.0, -2.0 * n_terms, -2.0)[:, None]  # -2k
    # x^k = e^{-2kr}: one exp at one radius, by doubling at many
    powers = (np.exp(steps * r) if r.size == 1
              else _powers(np.exp(-2.0 * r), n_terms))
    x, last = powers[1], powers[-1]  # x, and x^K bounds |t_K|
    need_p1 = len(out) == 2
    if need_p1:  # the columns of -2k x^k follow those of x^k
        powers = np.hstack([powers, powers * steps])
    mass = 1.0 / (1.0 - x)
    x_mass = x * mass
    tail = last * x_mass
    slope = 2.0 * x_mass * mass
    # P1's tail bound less its |nu| tail: |t_K| (2K x / (1 - x) + 2x / (1 - x)^2)
    tail1 = (2.0 * (n_terms - 1)) * tail + slope * last
    r, tail, tail1 = r[:, None], tail[:, None], tail1[:, None]
    # the roundoff's eps goes into the factors it multiplies
    mass, slope = _EPS * mass[:, None], _EPS * slope[:, None]
    err = np.empty(rhos.size)
    for lo in range(0, rhos.size, rho_step):
        cols = slice(lo, lo + rho_step)
        rho = rhos[cols]
        lc, nu, abs_nu, rounding = (_far_factors(rho) if far is None
                                    else (f[cols] for f in far))
        q = _far_products(rho, n_terms)
        sums = _matvecs(powers.T, q.view(float)).view(complex)
        amp = 2.0 * np.exp(lc + nu * r)
        f = sums[:r.size]
        out[0, :, cols] = (amp * f).real
        rounding = rounding + abs_nu * r
        bound = tail + rounding * mass
        if need_p1:
            out[1, :, cols] = (amp * (nu * f + sums[r.size:])).real
            # (|nu| + 2K) tail + slope |t_K| + eps rounding (|nu| mass + slope)
            bound = np.maximum(bound, abs_nu * bound + tail1 + rounding * slope)
        err[cols] = (np.abs(amp) * bound).max(axis=0)
    return err


def _conical_integral(rhos: np.ndarray, radii: np.ndarray,
                      budget: ToleranceBudget, need_p1: bool):
    """Mehler-Dirichlet branch: one K21 pass, accepted once its largest
    change from the embedded G10 over all radii is within budget.abs_tol or
    the roundoff floor; otherwise the panels double.  The first grid takes
    max|rho| r_max / 4 + 1 panels, at most _CONICAL_PANELS, and the last
    grid is the first past it.  err adds 8 eps times the largest sum of
    |terms| met."""
    rho_max = float(np.abs(rhos).max(initial=0.0))
    n0 = min(_CONICAL_PANELS, max(4, math.ceil(rho_max * float(radii.max()) / 4.0) + 1))
    scale = np.zeros(1)
    (p, p1), diff = refine_until_stable(
        lambda n: _mehler_dirichlet_eval(rhos, radii, n, need_p1, scale),
        n0, budget.abs_tol, (_CONICAL_PANELS // n0).bit_length(),
        # the floor concedes what roundoff already spent
        floor=lambda cur: 64.0 * _EPS * (1.0 + max(
            float(abs(v).max()) for v in cur if v is not None)),
        embedded=True)
    return p, p1, diff + 8.0 * _EPS * float(scale[0])


def _sinh_half_sq(radii: np.ndarray) -> np.ndarray:
    """s = sinh^2(r/2), the series variable, with r clipped at 2: the clip
    leaves the choice of _takes_series alone and keeps sinh finite."""
    return np.sinh(0.5 * np.minimum(radii, 2.0)) ** 2


def _takes_series(s, rho_max: float):
    """Whether radii with s = sinh^2(r/2) (r clipped at 2) take the series
    about the origin, in a batch whose largest |rho| is rho_max.

    The series needs fast initial decay (small s rho^2) AND to sit well
    inside its |s| < 1 convergence disk; at small rho the first condition
    alone would admit s up to 1.2, where the tail diverges.  Both hold on
    an interval of radii from 0.
    """
    return (s <= 0.5) & (s * (0.25 + rho_max * rho_max) <= 0.3)


def _conical_many(rhos: np.ndarray, radii: np.ndarray, budget: ToleranceBudget,
                  need_p1: bool, far: tuple | None = None):
    """(P, P1, err) for a 1-d array of rho at a 1-d array of radii, a row per
    radius and a column per rho.  far, when given, is _far_factors(rhos) as
    a cached rho grid holds it (_rho_grid), for the e^{-2r} series.

    Each radius takes one branch on its own: the series about the origin;
    from _FAR_RADIUS on, the e^{-2r} series, except in the columns with rho
    < _RHO_MIN, and in those with rho < _FALLBACK_RHO whose e^{-2r} err
    exceeds budget.abs_tol (near _FAR_RADIUS at tight requests, where |c|
    and 1 / (1 - x) are large); the integral everywhere else.  The integral
    entries share one refinement, so every radius meets the tolerance it
    would meet alone.  err is the largest series tail, e^{-2r} err or final
    K21-G10 change met, plus the roundoff each branch charges.

    Each branch serves an interval of radii, so the smallest and largest
    radius tell when one branch serves the whole batch; it then goes to that
    branch directly, and only a batch that spans branches is tiled by
    (radius, rho) rectangles.  The exits stay for the traffic they carry: an
    inverse transform makes one call, at its one radius and about 110 rho,
    which takes an exit, and a forward transform one call, at 126 to 210
    radii of its seeded panels and one rho, which spans the series and the
    e^{-2r} series.  Sending every batch through the rectangles' masks cost
    30-50% per conical_p1 call and up to 20% per inverse transform.
    """
    r_min, r_max = float(radii.min(initial=math.inf)), float(radii.max(initial=0.0))
    if not (r_min >= 0.0 and r_max < math.inf):
        raise DomainError("radius must be finite and nonnegative")
    shape = (radii.size, rhos.size)
    if not (radii.size and rhos.size):
        return np.zeros(shape), (np.zeros(shape) if need_p1 else None), 0.0
    abs_rhos = np.abs(rhos)
    rho_min, rho_max = float(abs_rhos.min()), float(abs_rhos.max())
    series_min, series_max = (_takes_series(math.sinh(0.5 * min(r, 2.0)) ** 2, rho_max)
                              for r in (r_min, r_max))
    if series_max:
        return _conical_series(rhos, radii, _sinh_half_sq(radii), need_p1)
    served = None  # (P, P1, err per column) of the e^{-2r} rectangle
    if not series_min:
        if r_max < _FAR_RADIUS or rho_max < _RHO_MIN:
            return _conical_integral(rhos, radii, budget, need_p1)
        if r_min >= _FAR_RADIUS and rho_min >= _RHO_MIN:
            served = _conical_far(rhos, radii, need_p1, far)
            err = float(served[2].max())
            if err <= budget.abs_tol or rho_min >= _FALLBACK_RHO:
                return served[0], served[1], err
    s_half = _sinh_half_sq(radii)
    series = _takes_series(s_half, rho_max)
    far_rows = ~series & (radii >= _FAR_RADIUS)
    kept = abs_rhos >= _RHO_MIN  # the columns the e^{-2r} series serves
    if served is None and far_rows.any() and kept.any():
        served = _conical_far(rhos[kept], radii[far_rows], need_p1,
                              None if far is None else tuple(f[kept] for f in far))
    if served is not None:
        held = (served[2] <= budget.abs_tol) | (abs_rhos[kept] >= _FALLBACK_RHO)
        kept[kept] = held
        p, p1, err = served
        served = (p[:, held], None if p1 is None else p1[:, held],
                  float(err[held].max(initial=0.0)))
    every = np.ones(rhos.shape, dtype=bool)

    def integral(rows, cols):
        return _conical_integral(rhos[cols], radii[rows], budget, need_p1)

    # (rows, columns, evaluator) rectangles that tile the batch
    parts = [(series, every, lambda rows, cols: _conical_series(
        rhos, radii[rows], s_half[rows], need_p1))]
    if served is None or not kept.any():
        parts.append((~series, every, integral))
    else:
        parts += [(far_rows, kept, lambda rows, cols: served),
                  (~series & ~far_rows, every, integral), (far_rows, ~kept, integral)]
    parts = [(rows, cols, fn(rows, cols)) for rows, cols, fn in parts
             if rows.any() and cols.any()]
    out = np.zeros((2 if need_p1 else 1,) + shape)
    for rows, cols, values in parts:
        rectangle = rows if cols.all() else np.ix_(rows, cols)
        for row, v in zip(out, values[:2]):
            row[rectangle] = v
    return out[0], (out[1] if need_p1 else None), max(part[2][2] for part in parts)


def conical_p(rho, r: float, budget: ToleranceBudget = DEFAULT_BUDGET) -> float:
    """Conical (Mehler) function P_{-1/2 + i rho}(cosh r) for r >= 0, the one
    entry of a batch of one rho at one radius."""
    p, _, _ = _conical_many(np.array([_as_rho(rho)]), np.array([float(r)]), budget, False)
    return float(p[0, 0])


def conical_p1(rho, r: float, budget: ToleranceBudget = DEFAULT_BUDGET) -> float:
    """Radial derivative d/dr of conical_p, which vanishes at r = 0; the one
    entry of a batch of one rho at one radius."""
    _, p1, _ = _conical_many(np.array([_as_rho(rho)]), np.array([float(r)]), budget, True)
    return float(p1[0, 0])


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
        f_vals = _read_floats(profile.fn, rs, "the radial profile")
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


def _rho_factors(rhos: np.ndarray):
    """The rho-only factors of the synthesis at rho nodes: (rho tanh(pi rho)
    / 2 pi, 1 / lam)."""
    return (rhos * np.tanh(math.pi * rhos) / (2.0 * math.pi),
            1.0 / (0.25 + rhos * rhos))


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _rho_grid(k: int, count: int):
    """The canonical seeded rho grid of count panels 2^(k/2) wide from 0:
    (edges, nodes, weights, weight, inv_lam, far), its QK21 rule as
    _kronrod_panels lays it and the rho-only factors at its nodes,
    _rho_factors and _far_factors (every node is positive).  Read-only, as
    the cache shares them; _synthesis caches grids of at most
    _GRID_CACHE_PANELS panels and builds larger ones through __wrapped__."""
    edges = 2.0 ** (0.5 * k) * np.arange(count + 1.0)
    nodes, weights = _kronrod_panels(edges)
    far = _far_factors(nodes)
    grid = (edges, nodes, weights, *_rho_factors(nodes), far)
    for array in grid[:-1] + far:
        array.flags.writeable = False
    return grid


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
    met.  As on one wide panel K21 and G10 can agree by accident, the
    panels are seeded no wider than 1/sqrt(rate) or the conical period 2 pi
    / max r, on a canonical grid: that width rounded down onto the ladder
    2^(k/2), and the cut rounded up to a whole number of panels.  The grid's
    nodes, weights and rho-only factors (_rho_grid) are built once per (k,
    panel count) and cached, so the seeded pass costs the conical
    functions and the data alone; _integrate_panels returns from it when
    its error already fits, or when it is down to the roundoff already
    spent (64 eps times the K21 sum of |integrand|), and otherwise halves
    panels, whose factors it computes afresh.
    Returns (rows, err_est, radius, evals): rows[k, i] at radii[i], one
    bound for every entry, the cut and the rho nodes evaluated; no radii,
    like a zero bound, give zero rows, err_est 0 and no evaluation.
    """
    radii = np.asarray(radii, dtype=float).reshape(-1)
    r_max = float(radii.max(initial=0.0))  # sizes the panels
    if not (float(radii.min(initial=0.0)) >= 0.0 and r_max < math.inf):
        raise DomainError("radius must be finite and nonnegative")
    n = int(0 in orders)
    scale = bound / (2.0 * math.pi)
    radius, tail = gaussian_tail_radius(rate, 0.25 * budget.abs_tol, scale, n)
    if bound == 0.0 or not radii.size:
        return np.zeros((len(orders), radii.size)), 0.0, radius, 0
    width = min(1.0 / math.sqrt(rate), 2.0 * math.pi / max(r_max, 1e-300))
    rung = math.floor(2.0 * math.log2(width))  # the width 2^(rung/2) at most
    count = _panel_count(max(radius, 2.0 / math.sqrt(rate)), 2.0 ** (0.5 * rung))
    grid = _rho_grid if count <= _GRID_CACHE_PANELS else _rho_grid.__wrapped__
    edges, nodes, weights, weight, inv_lam, far = grid(rung, count)
    mass = scale * (0.5 * math.sqrt(math.pi / rate) + 0.5 * n / rate)  # int env
    cb = budget.part(0.25 / mass)
    evals, achieved = 0, 0.0

    def integrand(rhos, weight, inv_lam, far=None):
        nonlocal evals, achieved
        evals += rhos.size
        p, p1, c_err = _conical_many(rhos, radii, cb, 1 in orders, far)
        achieved = max(achieved, c_err)
        rows = [d * weight * (p1 * inv_lam if k else p)
                for d, k in zip(data(rhos), orders)]
        return np.array(rows).reshape(-1, rhos.size)

    first = _panel_estimates(lambda _: integrand(nodes, weight, inv_lam, far),
                             edges, (nodes, weights))
    values, qerr = _integrate_panels(
        lambda rhos: integrand(rhos, *_rho_factors(rhos)), edges, budget.part(0.5),
        first)
    err = qerr + tail + achieved * mass
    return np.reshape(values, (len(orders), radii.size)), err, float(edges[-1]), evals


def _inverse_with_error(fhat, r: float, budget: ToleranceBudget = DEFAULT_BUDGET,
                        gaussian_rate: float = 0.25, bound: float = 10.0):
    """(value, err_est, radius) of mehler_fock_inverse, taking fhat as exact:
    the one order-one row of _synthesis, fhat read through _read_floats, and
    the radius where it cut the rho integral."""
    if not 0.0 < float(r) < math.inf:
        raise DomainError("inverse transform evaluation needs 0 < r < inf")

    def data(rhos: np.ndarray) -> np.ndarray:
        return _read_floats(fhat, rhos, "fhat")[None]

    rows, err, radius, _ = _synthesis(data, (1,), r, gaussian_rate, bound, budget)
    return float(rows[0, 0]), err, radius


def _roundtrip(profile: RadialProfile, radii, budget: ToleranceBudget):
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
        back, err, radius = _inverse_with_error(fhat, r, budget, *_ROUNDTRIP_DECAY)
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
