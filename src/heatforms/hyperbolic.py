"""Radial heat-kernel routes on the hyperbolic plane.

Two independent routes give the scalar kernel K0, the 1-form generator
G(d, t) = int_t^inf K0(d, tau) dtau and its radial derivative G_d at any
number of distances.  _h2_mckean, McKean's single integral on one shared w
grid, serves every kernel in the package; _h2_spectral, the inverse
Mehler-Fock synthesis of heat data (specfun._synthesis), is the oracle the
verification suite and the tests hold it against.  Both return (rows,
err_est, radius, evals).  The pointwise majorant and mass tail below bound
K0 for truncations.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import (ToleranceBudget, _kronrod_panels, refine_until_stable,
                         solve_radius)
from .specfun import _EPS, _erfcx, _expint_cf, _synthesis

_FOUR_PI = 4.0 * math.pi
_GAMMA_14 = math.gamma(0.25)
_GAMMA_34 = math.gamma(0.75)


# ---------------------------------------------------------------------------
# spectral route, the oracle for _h2_mckean

def _h2_spectral(ds, t: float, budget: ToleranceBudget, generator: bool = False):
    """K0 on H2, and with `generator` also G and G_d, at an array of distances.

    No kernel serves from this route; the verification suite and the tests
    hold _h2_mckean against it.

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
# Grid doublings _h2_mckean tries before it reports nonconvergence.
_MCKEAN_ROUNDS = 12
# (2k)/(2k+1)! for k = 10..1: s cosh s - sinh s = sum_k these * s^(2k+1),
# whose 11th term is below roundoff at s < 1.
_SIGMA_SERIES = tuple(2.0 * k / math.factorial(2 * k + 1) for k in range(10, 0, -1))
# Terms of the small-u series of I'(s, t); u^26/13! is below roundoff at
# u < 1/2, and beyond it the closed form loses at most 6 ulps.
_DI_TERMS = 13


def _expint_table(z: float, n: int) -> np.ndarray:
    """E_p(z) = int_1^inf e^{-zx} x^{-p} dx for p = 5/2, 7/2, ..., n + 3/2.

    Up to z = 3 the upward recurrence p E_{p+1} = e^{-z} - z E_p, started
    from E_{1/2}(z) = sqrt(pi/z) erfc(sqrt z), keeps 1e-14 relative.  Beyond
    it, where the recurrence amplifies its errors, every order takes its
    own continued fraction (specfun._expint_cf).
    """
    if z > 3.0:
        return np.array([_expint_cf(z, 2.5 + k) for k in range(n)])
    ez = math.exp(-z)
    e_p = _SQRT_PI * math.erfc(math.sqrt(z)) / math.sqrt(z)
    out = []
    for k in range(n + 1):
        e_p = (ez - z * e_p) / (0.5 + k)  # E_{k + 3/2}
        out.append(e_p)
    return np.array(out[1:])


def _sigma_parts(s: np.ndarray):
    """(sigma, sigma'/s) for sigma(s) = s / sinh s, s > 0.

    Below s = 1 the numerator of sigma' = (sinh s - s cosh s) / sinh^2 s is
    summed as a series of like-signed terms, so nothing cancels at small s;
    above it sigma (1/s - coth s) loses at most a few ulps.
    """
    q = -np.expm1(-2.0 * s)
    sigma = 2.0 * s * np.exp(-s) / q
    y = s * s
    poly = np.zeros_like(s)
    for coef in _SIGMA_SERIES:
        poly = (poly + coef) * y
    near = -poly / (np.sinh(np.minimum(s, 1.0)) ** 2)
    far = sigma * (1.0 / s - (2.0 - q) / q) / s
    return sigma, np.where(s < 1.0, near, far)


def _mckean_block(ds: np.ndarray, w: np.ndarray, wts: np.ndarray, t: float,
                  generator: bool, di_coefs):
    """Quadrature sums of the McKean rows for a block of distances.

    wts holds one column of weights per rule over the nodes w.  Returns
    (rows, abs_rows), each shaped (row, distance, rule): the K0 row (and the
    G and G_d rows with `generator`), and the same sums of absolute values,
    which set the roundoff floor.
    """
    h = 0.5 * w * w
    s = ds[:, None] + w * w
    # 1/sqrt(sinh a sinhc h) with a = d + h, which absorbs ds/sqrt(cosh s -
    # cosh d) = 2w dw / (w sqrt(sinh a sinhc h)); as a + h = s it is
    # 2 sqrt(h) e^{-s/2} / sqrt((1 - e^{-2a})(1 - e^{-2h})), and no sinh
    # overflows.
    inv = (2.0 * np.exp(-0.5 * s) * np.sqrt(h)
           / np.sqrt(np.expm1(-2.0 * (ds[:, None] + h)) * np.expm1(-2.0 * h)))
    sqt = math.sqrt(t)
    u = s / (2.0 * sqt)
    v = 0.5 * sqt
    gauss = np.exp(-u * u - v * v)  # e^{-s^2/4t - t/4}
    parts = [s * gauss * inv * (2.0 * math.sqrt(2.0) * (_FOUR_PI * t) ** -1.5)]
    if generator:
        # F(s) = c sqrt(pi) [A - B] with A = e^{-s/2} erfc(v - u) and
        # B = e^{s/2} erfc(u + v), both through erfcx so nothing overflows.
        x = v - u
        scaled = gauss * _erfcx(np.stack([np.abs(x), u + v]))
        big_a = np.where(x >= 0.0, scaled[0], 2.0 * np.exp(-0.5 * s) - scaled[0])
        big_b = scaled[1]
        j = _SQRT_PI * (big_a - big_b)  # s I(s, t)
        parts.append(j * inv * (2.0 * _MCKEAN_C))
        # (F / sinh s)' / c = (sigma I)' = (sigma'/s) J + sigma I'.  I' from
        # its closed form (s J' - J)/s^2 cancels at small u, so there it is
        # summed from its series in u^2 instead.
        sigma, dsig = _sigma_parts(s)
        dj = _SQRT_PI * (2.0 * gauss / math.sqrt(math.pi * t)
                         - 0.5 * (big_a + big_b))
        di = (s * dj - j) / (s * s)
        near = u < 0.5
        if near.any():
            un = u[near]
            usq = un * un
            acc = np.zeros_like(un)
            for coef in di_coefs:
                acc = acc * usq + coef
            di[near] = acc * un / t
        gd = (dsig * j + sigma * di) * inv * (2.0 * _MCKEAN_C)
        parts.append(gd * np.sinh(np.minimum(ds, 700.0))[:, None])
    rows = np.stack([p @ wts for p in parts])
    abs_rows = np.stack([np.abs(p) @ wts for p in parts])
    return rows, abs_rows


def _mckean_tail(limit: float, dmin: float, t: float, generator: bool):
    """Bounds on what the K0 row (and the G and G_d rows) lose beyond
    w = limit, as a tuple with one entry per row.

    Every factor is monotone in w and d, so the bound at the smallest
    distance covers all.  K0: int 2 s e^{-s^2/4t} dw <= (2t/W) e^{-s_W^2/4t}.
    G: J <= 2 sqrt(pi) e^{-s/2}.  G_d: |(sigma I)'| <= 2 sqrt(pi) e^{-3s/2}
    (3 + 2/s) / (1 - e^{-2s}), from I <= 2 sqrt(pi) e^{-s/2}/s and the
    recurrence (s^2/4) int tau^{-5/2} = int tau^{-1/2}/4 + I/2 - (>= 0).
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


def _mckean_grid(limit: float, fine: float, n_split: int):
    """QK21 nodes and (K21, G10) weight columns on [0, limit] over panels
    [0, fine], [fine, 2 fine], [2 fine, 4 fine], ..., each split into
    n_split equal parts.  A panel is as wide as its distance from w = 0,
    where every feature sits (widths sqrt d, t^(1/4) and sqrt(t/d)), so
    each resolves its part of the integrand alike."""
    n_graded = math.ceil(math.log2(limit / fine))
    edges = np.append(fine * 2.0 ** np.arange(-1, n_graded), limit)
    edges[0] = 0.0
    width = np.diff(edges) / n_split
    lows = (edges[:-1, None] + width[:, None] * np.arange(n_split)).ravel()
    return _kronrod_panels(np.append(lows, limit))


def _h2_mckean(ds, t: float, budget: ToleranceBudget, generator: bool = False):
    """K0 on H2, and with `generator` also G and G_d, at an array of distances,
    from McKean's single integral (J. Diff. Geom. 4, 1970) on one w grid.

    With s = d + w^2 every row is an integral over w >= 0 of a smooth
    integrand against 1/sqrt(sinh(d + w^2/2) sinhc(w^2/2)):
      K0  = sqrt 2 e^{-t/4} (4 pi t)^{-3/2} int s e^{-s^2/4t} / sqrt(cosh s - cosh d) ds,
      G   = int_d^inf F(s) / sqrt(cosh s - cosh d) ds,
      G_d = sinh d int_d^inf (F / sinh s)' / sqrt(cosh s - cosh d) ds,
    where F(s) = c s I(s, t) and I = int_t^inf tau^{-3/2} e^{-tau/4 - s^2/4tau}
    dtau in closed form through erfcx.  Each pass lays QK21 on graded w
    panels and checks it against its embedded G10 sum on the same nodes;
    only a failed check doubles every panel.  One refinement serves every
    row and distance; the distance-by-node arrays are built in blocks, so
    memory does not grow with the batch.  Returns (rows, err_est, radius,
    evals) as _h2_spectral does, with radius the w limit and evals the w
    nodes of all passes.  err_est per row is the largest |K21 - G10| plus
    8 eps times the largest weighted sum of |integrand| plus the tail.
    With `generator` every distance must be positive, and err_est holds one
    bound per row: only the G_d bound is amplified by coth d in k1, and
    K0's roundoff, the largest at small t, need not be.
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
    fine = min(0.5 * limit, (4.0 * t) ** 0.25,
               math.sqrt(2.0 * t / max(dmax, 1e-300)))
    if dmin > 0.0:
        fine = min(fine, math.sqrt(dmin))
    fine = max(0.5 * fine, limit * 2.0 ** -40)
    di_coefs = None
    if generator:
        # I'(s) = t^{-1} sum_{k>=1} (-1)^k u^{2k-1} E_{k+3/2}(t/4) / (k-1)!
        m = _expint_table(0.25 * t, _DI_TERMS)
        di_coefs = [(-1.0) ** (k + 1) * m[k] / math.factorial(k)
                    for k in range(_DI_TERMS - 1, -1, -1)]
    n_rows = 3 if generator else 1
    evals = 0
    scale = np.zeros(n_rows)  # largest sum of |integrand| weights, per row
    change = None

    def one_pass(n_split: int):
        nonlocal evals, scale, change
        w, wts = _mckean_grid(limit, fine, n_split)
        evals += w.size
        rows = np.empty((n_rows, ds.size, 2))
        per = max(1, _MCKEAN_BLOCK // w.size)
        for lo in range(0, ds.size, per):
            rows[:, lo:lo + per], abs_rows = _mckean_block(
                ds[lo:lo + per], w, wts, t, generator, di_coefs)
            scale = np.maximum(scale, abs_rows.max(axis=(1, 2)))
        change = np.abs(rows[..., 0] - rows[..., 1]).max(axis=1)
        return rows[..., 0], rows[..., 1]

    rows, _ = refine_until_stable(
        one_pass, 1, 0.5 * tol, _MCKEAN_ROUNDS,
        # the floor concedes what roundoff already spent
        floor=lambda cur: 64.0 * _EPS * float(scale.max()), embedded=True)
    # K21 and G10 can agree to the last bit, so the roundoff of the sums is
    # charged as well as their difference
    err = (change + 8.0 * _EPS * scale
           + np.array(_mckean_tail(limit, dmin, t, generator)))
    return rows, (err if generator else float(err[0])), limit, evals


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
