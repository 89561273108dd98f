"""Radial heat-kernel routes on the hyperbolic plane.

Two independent routes give the scalar kernel K0, the 1-form generator
G(d, t) = int_t^inf K0(d, tau) dtau and its radial derivative G_d at any
number of distances.  _h2_mckean, McKean's single integral as one trapezoid
sum in v, serves every kernel in the package; _h2_spectral, the inverse
Mehler-Fock synthesis of heat data (specfun._synthesis), is the oracle the
verification suite and the tests hold it against.  Both return (rows,
err_est, radius, evals).  The majorant and mass tail below bound K0 for
truncations.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .quadrature import ToleranceBudget, refine_until_stable, solve_radius
from .specfun import _EPS, _erfcx, _expint_cf, _synthesis

_FOUR_PI = 4.0 * math.pi
_GAMMA_14 = math.gamma(0.25)
_GAMMA_34 = math.gamma(0.75)


# ---------------------------------------------------------------------------
# spectral route, the oracle for _h2_mckean

def _h2_spectral(ds, t: float, budget: ToleranceBudget, generator: bool = False):
    """K0 on H2, and with `generator` also G and G_d, at an array of distances.

    Each row is the inverse Mehler-Fock synthesis of heat data
    (specfun._synthesis): e^{-lam t} against the conical function for K0,
    e^{-lam t} / lam for G, and e^{-lam t} against P1 / lam for G_d, all in
    one rho integral.  Every datum is at most 4 e^{-t/4} e^{-t rho^2}, since
    1/lam <= 4; K0's alone at most e^{-t/4} e^{-t rho^2}.  Returns (rows,
    err_est, radius, evals): rows[0] holds K0 at each distance, rows[1] and
    rows[2] hold G and G_d when `generator` is set, and err_est bounds every
    entry.
    """
    def heat(rhos: np.ndarray) -> np.ndarray:
        lam = 0.25 + rhos * rhos
        decay = np.exp(-lam * t)
        return np.stack([decay, decay / lam, decay]) if generator else decay[None]

    return _synthesis(heat, (0, 0, 1) if generator else (0,), ds, t,
                      (4.0 if generator else 1.0) * math.exp(-0.25 * t), budget)


# ---------------------------------------------------------------------------
# single-integral route and majorants

# c in F(s) = c s I(s, t), the tau-integrated numerator of McKean's integral.
_MCKEAN_C = math.sqrt(2.0) * _FOUR_PI ** -1.5
_SQRT_PI = math.sqrt(math.pi)
# Entries of one distance-by-node array in _h2_mckean (64 KB).
_MCKEAN_BLOCK = 1 << 13
# _h2_mckean's first step in u, and the halvings it tries before it fails.
_MCKEAN_STEP = 0.1
_MCKEAN_HALVINGS = 8
# (2k)/(2k+1)! for k = 10..1: s cosh s - sinh s = sum_k these * s^(2k+1),
# whose 11th term is below roundoff at s < 1.
_SIGMA_SERIES = tuple(2.0 * k / math.factorial(2 * k + 1) for k in range(10, 0, -1))
# Terms of the small-u series of I(s, t) and I'(s, t) / s, and the factors
# +-(-1)^k / k! of their coefficients; u^26/13! is below roundoff at u <
# 1/2, and beyond it the closed forms lose at most 6 ulps.
_DI_TERMS = 13
_SERIES_SIGNS = np.outer([(-1.0) ** k / math.factorial(k) for k in range(_DI_TERMS)],
                         [1.0, -1.0])
_TINY = np.finfo(float).tiny


def _expint_table(z: float, n: int, first: int = 1) -> np.ndarray:
    """E_p(z) = int_1^inf e^{-zx} x^{-p} dx for p = first + 3/2, ..., n + 3/2.

    Up to z = 3 the upward recurrence p E_{p+1} = e^{-z} - z E_p, started
    from E_{1/2}(z) = sqrt(pi/z) erfc(sqrt z), keeps 1e-14 relative.  Beyond
    it, where the recurrence amplifies its errors, every order takes its
    own continued fraction (specfun._expint_cf).
    """
    if z > 3.0:
        return np.array([_expint_cf(z, 1.5 + k) for k in range(first, n + 1)])
    ez = math.exp(-z)
    e_p = _SQRT_PI * math.erfc(math.sqrt(z)) / math.sqrt(z)
    out = []
    for k in range(n + 1):
        e_p = (ez - z * e_p) / (0.5 + k)  # E_{k + 3/2}
        out.append(e_p)
    return np.array(out[first:])


def _sigma_parts(s: np.ndarray):
    """(sigma, sigma'/s) for sigma(s) = s / sinh s, s > 0.

    Below s = 1 the numerator of sigma' = (sinh s - s cosh s) / sinh^2 s is
    summed as a series of like-signed terms, so nothing cancels at small s;
    above it sigma (1/s - coth s) loses at most a few ulps.
    """
    q = -np.expm1(-2.0 * s)
    sigma = 2.0 * s * np.exp(-s) / q
    far = sigma * (1.0 / s - (2.0 - q) / q) / s
    if s.min() >= 1.0:
        return sigma, far
    y = s * s
    poly = np.zeros_like(s)
    for coef in _SIGMA_SERIES:
        poly = (poly + coef) * y
    near = -poly / (np.sinh(np.minimum(s, 1.0)) ** 2)
    return sigma, np.where(s < 1.0, near, far)


@lru_cache(maxsize=64)
def _mckean_nodes(n: int, count: int):
    """sinh u at u_k = k h, h = _MCKEAN_STEP / n, k = 0..count (even), and
    cosh u times the trapezoid weights of steps h and 2h on those nodes."""
    u = (_MCKEAN_STEP / n) * np.arange(count + 1)
    wts = np.outer((_MCKEAN_STEP / n) * np.cosh(u), [1.0, 2.0])
    wts[0] *= 0.5
    wts[1::2, 1] = 0.0
    return np.sinh(u), wts


def _mckean_block(ds: np.ndarray, v: np.ndarray, wts: np.ndarray, t: float,
                  generator: bool):
    """Sums of the McKean rows, and of their |integrand|s (the roundoff
    floor), for a block of distances, each shaped (row, distance, rule);
    wts holds one weight column per rule over the nodes v."""
    d, vv = ds[:, None], v * v
    s = np.hypot(d, v)
    # h = (cosh s - cosh d) / v^2 = 2 sinh a sinh b / v^2 with a = (s + d)/2,
    # b = v^2 / 4a, so h^{-1/2} = 2 sqrt 2 e^{-s/2} sqrt(r(a) r(b)) with
    # r(x) = x / (1 - e^{-2x}): no sinh overflows, and r(0) = 1/2.
    a = np.maximum(0.5 * (s + d), _TINY)
    b = np.maximum(vv / (4.0 * a), _TINY)
    root = np.sqrt((a / np.expm1(-2.0 * a)) * (b / np.expm1(-2.0 * b)))
    # s^2/4t + t/4, with s^2 = d^2 + v^2 summed as it stands
    expo = (d * d + vv) * (0.25 / t) + 0.25 * t
    lead = 4.0 * (_FOUR_PI * t) ** -1.5
    if not generator:
        # the K0 integrand is positive, so its sums are their own |sums|
        rows = ((np.exp(-expo - 0.5 * s) * root * lead) @ wts)[None]
        return rows, rows
    gauss = np.exp(-expo)  # e^{-s^2/4t - t/4}
    half = np.exp(-0.5 * s)
    inv = half * root  # h^{-1/2} / (2 sqrt 2)
    parts = np.empty((3,) + s.shape)
    parts[0] = gauss * inv * lead
    # J = s I = sqrt(pi) [A - B] with A = e^{-s/2} erfc(w - u) and B =
    # e^{s/2} erfc(u + w), u = s / 2 sqrt t, w = sqrt(t)/2, both through
    # erfcx so nothing overflows.  A - B cancels at small u, and so does
    # I'/s = (s J' - J)/s^3: below u = 1/2 both come from their series.
    sqt = math.sqrt(t)
    u, w = s / (2.0 * sqt), 0.5 * sqt
    scaled = gauss * _erfcx(np.stack([np.abs(w - u), u + w]))
    big_a = np.where(u <= w, scaled[0], 2.0 * half - scaled[0])
    j = _SQRT_PI * (big_a - scaled[1])
    dj = _SQRT_PI * (2.0 * gauss / math.sqrt(math.pi * t) - 0.5 * (big_a + scaled[1]))
    far = np.maximum(s, sqt)  # s itself wherever the closed forms are kept
    i_val = j / far
    di_s = (far * dj - j) / (far * far * far)
    near = s < sqt
    if near.any():
        # I = t^{-1/2} sum_k (-1)^k u^{2k} E_{k+3/2}(t/4) / k! and I'/s =
        # (2 t^{3/2})^{-1} sum_{k>=1} (-1)^k u^{2k-2} E_{k+3/2}(t/4) / (k-1)!
        m = _expint_table(0.25 * t, _DI_TERMS, first=0)
        coefs = np.stack([m[:-1], m[1:]], axis=1) * _SERIES_SIGNS
        series = (u[near] ** 2)[:, None] ** np.arange(_DI_TERMS) @ coefs
        i_val[near] = series[:, 0] / sqt
        di_s[near] = series[:, 1] / (2.0 * t * sqt)
    inv *= 2.0 * math.sqrt(2.0) * _MCKEAN_C
    parts[1] = i_val * inv
    # (F / sinh s)' / (c s) = (sigma I)' / s = (sigma'/s) I + sigma I'/s
    sigma, dsig = _sigma_parts(s)
    parts[2] = (dsig * i_val + sigma * di_s) * (inv * np.sinh(np.minimum(d, 700.0)))
    return parts @ wts, np.abs(parts) @ wts


def _mckean_tail(limit: float, dmin: float, t: float, generator: bool):
    """Bounds on what the K0 row (and the G and G_d rows) lose beyond
    s = d + W^2, W = limit, as a tuple with one entry per row.

    In w, s = d + w^2, each row's integrand carries 1/sqrt(sinh(d + w^2/2)
    sinhc(w^2/2)) = 2w (ds/dw) / sqrt(cosh s - cosh d).  Every factor is
    monotone in w and d, so the bound at the smallest distance covers all.
    K0: int 2 s e^{-s^2/4t} dw <= (2t/W) e^{-s_W^2/4t}.  G: J <= 2 sqrt(pi)
    e^{-s/2}.  G_d: |(sigma I)'| <= 2 sqrt(pi) e^{-3s/2} (3 + 2/s) / (1 -
    e^{-2s}), from I <= 2 sqrt(pi) e^{-s/2}/s and the recurrence (s^2/4)
    int tau^{-5/2} = int tau^{-1/2}/4 + I/2 - (>= 0).
    """
    h = 0.5 * limit * limit
    s_w = dmin + limit * limit
    a_w = dmin + h
    # 1/sqrt(sinh a sinhc h) = e^{-a/2} sqrt 2 / sqrt((1 - e^{-2a}) sinhc h),
    # whose second factor falls with w; here it is taken at w = limit.
    shape = 2.0 * math.exp(-0.5 * h) * math.sqrt(
        h / (math.expm1(-2.0 * a_w) * math.expm1(-2.0 * h)))
    k0_tail = (math.sqrt(2.0) * (_FOUR_PI * t) ** -1.5 * (2.0 * t / limit)
               * math.exp(-s_w * s_w / (4.0 * t) - 0.25 * t - 0.5 * a_w) * shape)
    if not generator:
        return (k0_tail,)
    # e^{-a/2} times the e^{-s/2}, e^{-3s/2} envelopes leave Gaussians in w
    # of rates 3/4 and 7/4, and sinh d e^{-2d} <= e^{-d}/2.
    lead = 4.0 * _SQRT_PI * _MCKEAN_C * shape * math.exp(-dmin)
    g_tail = lead * math.sqrt(math.pi / 3.0) * math.erfc(0.5 * math.sqrt(3.0) * limit)
    gd_tail = (0.5 * lead * (3.0 + 2.0 / s_w) / (-math.expm1(-2.0 * s_w))
               * math.sqrt(math.pi / 7.0) * math.erfc(0.5 * math.sqrt(7.0) * limit))
    return k0_tail, g_tail, gd_tail


def _h2_mckean(ds, t: float, budget: ToleranceBudget, generator: bool = False):
    """K0 on H2, and with `generator` also G and G_d, at an array of
    distances, from McKean's single integral (J. Diff. Geom. 4, 1970) as one
    trapezoid sum in v.  With s^2 = d^2 + v^2, cosh s - cosh d = v^2 h(v),
    h even and free of zeros in |Im v| < 2 pi, and sigma = s / sinh s:
      K0  = sqrt 2 e^{-t/4} (4 pi t)^{-3/2} int_0^inf e^{-s^2/4t} h^{-1/2} dv,
      G   = c int_0^inf I(s, t) h^{-1/2} dv,
      G_d = c sinh d int_0^inf ((sigma I)'/s) h^{-1/2} dv,
    I = int_t^inf tau^{-3/2} e^{-tau/4 - s^2/4tau} dtau.  Each integrand is
    analytic in a strip (half as wide for G_d, where sigma has poles), so
    the trapezoid rule converges geometrically (Trefethen & Weideman, SIAM
    Rev. 56, 2014).  It runs at a uniform step in u on v = alpha sinh u,
    alpha = min(1, 2 sqrt t), which resolves K0's Gaussian and the generator
    rows' e^{-s/2} alike; the rule at twice the step, on every other node,
    is the check, and a failed check halves the step.  Beyond the cut V =
    W sqrt(2 d_max + W^2), s >= d + W^2 at every distance, where
    _mckean_tail bounds the loss.  Distances are summed in blocks, so memory
    does not grow with the batch.  Returns (rows, err_est, radius, evals) as
    _h2_spectral does, with radius V and evals the v nodes of all passes;
    err_est per row is the larger of the change between the steps and 8 eps
    times the largest weighted sum of |integrand|, plus the tail.  With
    `generator` every distance must be positive, and err_est holds one
    bound per row: only G_d's is amplified by coth d in k1, and K0's
    roundoff, the largest at small t, need not be.
    """
    ds = np.asarray(ds, dtype=float).reshape(-1)
    tol = budget.abs_tol
    dmin, dmax = float(ds.min()), float(ds.max())
    # Start the limit search where the Gaussian factor alone meets tol.
    log_tol = max(1.0, math.log(1.0 / tol))
    start = math.sqrt(math.sqrt(dmin * dmin + 4.0 * t * log_tol) - dmin)
    if generator:
        start = max(start, math.sqrt(max(0.0, 4.0 * (log_tol - dmin) / 3.0)))
    limit, _ = solve_radius(lambda w: max(_mckean_tail(w, dmin, t, generator)),
                            0.25 * tol, max(0.8 * start, 1e-3), 1.2)
    cut = limit * math.sqrt(2.0 * dmax + limit * limit)
    alpha = min(1.0, 2.0 * math.sqrt(t))
    u_cut = math.asinh(cut / alpha) / (2.0 * _MCKEAN_STEP)
    evals, change = 0, None
    scale = np.zeros(3 if generator else 1)  # largest sum of |integrand|s, per row

    def one_pass(n: int):
        nonlocal evals, scale, change
        sinh_u, wts = _mckean_nodes(n, 2 * math.ceil(n * u_cut))
        v, wts = alpha * sinh_u, alpha * wts
        evals += v.size
        rows = np.empty((scale.size, ds.size, 2))
        per = max(1, _MCKEAN_BLOCK // v.size)
        for lo in range(0, ds.size, per):
            rows[:, lo:lo + per], abs_rows = _mckean_block(
                ds[lo:lo + per], v, wts, t, generator)
            scale = np.maximum(scale, abs_rows.max(axis=(1, 2)))
        change = np.abs(rows[..., 0] - rows[..., 1]).max(axis=1)
        return rows[..., 0], rows[..., 1]

    rows, _ = refine_until_stable(
        one_pass, 1, 0.5 * tol, _MCKEAN_HALVINGS,
        # the floor concedes what roundoff already spent
        floor=lambda cur: 64.0 * _EPS * float(scale.max()), embedded=True)
    # The change is the error of the sum at twice the step; the accepted
    # sum's own, far smaller on a geometric rule, is its roundoff.  A change
    # below that is the noise of two rounded sums: the larger is charged.
    err = (np.maximum(change, 8.0 * _EPS * scale)
           + np.array(_mckean_tail(limit, dmin, t, generator)))
    return rows, (err if generator else float(err[0])), cut, evals


def _h2_k0_majorant(d: float, t: float) -> float:
    """Pointwise upper bound for the hyperbolic K0, valid for d > 0."""
    a = 0.5 * _GAMMA_14 * (4.0 * t) ** 0.25
    b = 0.5 * _GAMMA_34 * (4.0 * t) ** 0.75
    lead = math.sqrt(2.0) * math.exp(-0.25 * t) * (_FOUR_PI * t) ** -1.5
    # sinh(300) < 1e130, so the clamp keeps sh non-decreasing in d
    sh = math.sinh(d) if d < 300.0 else 1e130
    return lead * math.exp(-d * d / (4.0 * t)) / math.sqrt(sh) * (a * d + b)


def _h2_mass_tail(radius: float, t: float) -> float:
    """Upper bound for int_{d > radius} K0 dA on the hyperbolic plane."""
    a = 0.5 * _GAMMA_14 * (4.0 * t) ** 0.25
    b = 0.5 * _GAMMA_34 * (4.0 * t) ** 0.75
    lead = 2.0 * math.pi * (_FOUR_PI * t) ** -1.5
    u = radius - t
    gauss = math.exp(-u * u / (4.0 * t))
    return lead * (2.0 * a * t * gauss
                   + (a * t + b) * math.sqrt(math.pi * t)
                   * math.erfc(u / (2.0 * math.sqrt(t))))
