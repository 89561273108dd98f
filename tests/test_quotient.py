import math

import numpy as np
import pytest

from heatforms.errors import (DomainError, EnumerationOverflowError,
                              HeatformsError, KindMismatchError,
                              UnsupportedGroupError)
from heatforms.geometry import (Point, SurfaceKind, _axis_chart, _axis_distance,
                                _axis_point, distance)
from heatforms.hyperbolic import _h2_k0_majorant, _h2_mckean
from heatforms.kernels import k0, k1
from heatforms.quadrature import ToleranceBudget
from heatforms import quotient
from heatforms.quotient import (CoveringGroupSpec, GroupElement,
                                QuotientSurface, _euclid_tail, _fourier_tail,
                                _h2_tail, _images, _k0_quotient_full, _truncation, act,
                                enumerate_elements, k0_quotient,
                                k1_quotient_flat, torus_fourier_oracle)

TIGHT = ToleranceBudget(abs_tol=1e-12)

UNIT = CoveringGroupSpec.euclidean_lattice((1.0, 0.0), (0.0, 1.0))
SKEW = CoveringGroupSpec.euclidean_lattice((1.0, 0.0), (0.4, 1.2))
CYL = CoveringGroupSpec.euclidean_cyclic((1.0, 0.0))
HCYL = CoveringGroupSpec.hyperbolic_cyclic(2.0)

E = SurfaceKind.EUCLIDEAN
H = SurfaceKind.HYPERBOLIC


def test_group_spec_validation():
    with pytest.raises(DomainError):
        CoveringGroupSpec.euclidean_lattice((1.0, 0.0), (2.0, 0.0))
    with pytest.raises(DomainError):
        CoveringGroupSpec.euclidean_cyclic((0.0, 0.0))
    with pytest.raises(DomainError):
        CoveringGroupSpec.hyperbolic_cyclic(-1.0)


@pytest.mark.parametrize("make", [
    lambda: CoveringGroupSpec.euclidean_cyclic((math.nan, 1.0)),
    lambda: CoveringGroupSpec.euclidean_cyclic((math.inf, 1.0)),
    lambda: CoveringGroupSpec.euclidean_cyclic((1.0, -math.inf)),
    lambda: CoveringGroupSpec.euclidean_lattice((math.nan, 0.0), (0.0, 1.0)),
    lambda: CoveringGroupSpec.euclidean_lattice((1.0, 0.0), (math.inf, 1.0))],
    ids=["cyclic-nan", "cyclic-inf", "cyclic-minus-inf", "lattice-nan",
         "lattice-inf"])
def test_flat_generators_must_be_finite(make):
    """Non-finite generators used to pass, and the image sum then failed
    with NonconvergenceError (a tail bound of inf)."""
    with pytest.raises(DomainError):
        make()


def test_group_elements_compose():
    g = GroupElement(UNIT, 2, -1)
    h = GroupElement(UNIT, -1, 3)
    gh = g.compose(h)
    assert (gh.k1, gh.k2) == (1, 2)
    inv = g.inverse()
    assert (inv.k1, inv.k2) == (-2, 1)
    with pytest.raises(KindMismatchError):
        g.compose(GroupElement(SKEW, 1, 0))


def test_act_translates_by_lattice_vectors():
    p = Point(E, 0.5, 0.3)
    q = act(GroupElement(SKEW, 1, -2), p)
    want = np.array([0.5 * math.cos(0.3) + 1.0 - 0.8,
                     0.5 * math.sin(0.3) - 2.4])
    got = np.array([q.c1 * math.cos(q.c2), q.c1 * math.sin(q.c2)])
    assert np.max(np.abs(got - want)) < 1e-13
    ident = act(UNIT.identity(), p)
    assert (ident.c1, ident.c2) == (p.c1, p.c2)


def test_act_hyperbolic_is_isometric():
    x = Point(H, 0.7, 0.4)
    y = Point(H, 1.3, 2.2)
    g = GroupElement(HCYL, 3)
    assert abs(distance(H, act(g, x), act(g, y)) - distance(H, x, y)) < 1e-12
    # composing two boosts along the axis equals one boost of the sum
    two = act(GroupElement(HCYL, 1), act(GroupElement(HCYL, 2), x))
    one = act(GroupElement(HCYL, 3), x)
    assert abs(distance(H, two, one)) < 1e-12


def test_enumeration_counts_and_monotonicity():
    origin = Point(E, 0.0, 0.0)
    els = enumerate_elements(UNIT, origin, origin, 2.5)
    assert len(els) == 21
    els_cyl = enumerate_elements(CYL, origin, origin, 3.2)
    assert len(els_cyl) == 7
    # exact-distance filter: nothing reaches into a tiny ball off the orbit
    x = Point(E, 0.45, 1.0)
    assert enumerate_elements(UNIT, origin, x, 0.1) == []
    sizes = [len(enumerate_elements(UNIT, origin, origin, r))
             for r in (1.0, 2.0, 3.0, 4.0)]
    assert sizes == sorted(sizes)


def test_enumeration_matches_brute_force_hyperbolic():
    x = Point(H, 0.4, 0.2)
    y = Point(H, 0.9, 1.5)
    radius = 7.0
    got = enumerate_elements(HCYL, x, y, radius)
    brute = [GroupElement(HCYL, k) for k in range(-40, 41)
             if distance(H, x, act(GroupElement(HCYL, k), y)) <= radius]
    assert [g.k1 for g in got] == sorted((g.k1 for g in brute),
                                         key=lambda k: (k * k, k))


def _scalar_images(group, x, y, radius):
    """The hyperbolic cylinder's images by one _axis_distance call per k, in
    enumerate_elements' order."""
    (xa, xb), (ya, yb) = _axis_chart(x), _axis_chart(y)
    reach = math.ceil((abs(xa - ya) + radius) / group.ell) + 1
    found = [(k, _axis_distance(xb, yb, (xa - ya) - k * group.ell))
             for k in range(-reach, reach + 1)]
    found = sorted(((k, d) for k, d in found if d <= radius), key=lambda kd: (kd[0] ** 2, kd[0]))
    return [k for k, _ in found], np.array([d for _, d in found])


@pytest.mark.parametrize("ell", [0.01, 0.5, 1.5, 4.0])
def test_hyperbolic_cylinder_images_measure_every_candidate_at_once(monkeypatch, ell):
    """_images measures the candidates of the hyperbolic cylinder in one array
    pass: no _axis_distance call per candidate, the same images as the
    scalar loop, and distances within 2 ulps of it.  Points reach w = +-5;
    at w = 300 the far candidates' q overflows and only they take the
    scalar log form."""
    calls = []
    monkeypatch.setattr(quotient, "_axis_distance",
                        lambda *a: calls.append(a) or _axis_distance(*a))
    group = CoveringGroupSpec.hyperbolic_cyclic(ell)
    pairs = [(_axis_point(H, u1, w1), _axis_point(H, u2, w2))
             for u1, w1, u2, w2 in ((0.0, 0.0, 0.3, 0.0), (0.2, 5.0, -1.1, 5.0),
                                    (1.7, -5.0, 0.4, 5.0), (-3.0, 2.5, 2.0, -0.7),
                                    (0.0, 0.0, 0.0, 0.0))]
    for x, y in pairs:
        for radius in (3.0, 8.0):
            n1, n2, dist = _images(group, x, y, radius)
            want, ref = _scalar_images(group, x, y, radius)
            assert n1.tolist() == want and not n2.any()
            assert np.all(np.abs(dist - ref) <= 2.0 * np.spacing(ref))
    assert calls == []
    x, y = _axis_point(H, 0.1, 300.0), _axis_point(H, -0.4, 300.0)
    n1, n2, dist = _images(group, x, y, 200.0)
    want, ref = _scalar_images(group, x, y, 200.0)
    assert n1.tolist() == want and np.all(np.abs(dist - ref) <= 2.0 * np.spacing(ref))
    # every candidate is within 200 + ell of du = 0, and only those with
    # cosh^2(300) sinh^2(du/2) past the float range fall back
    assert 0 < len(calls) < 2.0 * (200.0 / ell + 2)
    assert all(abs(du) > 100.0 for _, _, du in calls)


@pytest.mark.parametrize("group", [UNIT, SKEW, CYL],
                         ids=["unit", "skew", "cylinder"])
def test_enumeration_matches_brute_force_flat(group):
    x = Point(E, 0.4, 0.2)
    y = Point(E, 0.9, 1.5)
    radius = 4.3
    box = [GroupElement(group, a, b) for a in range(-12, 13)
           for b in (range(-12, 13) if group.v2 else (0,))]
    dists = [distance(E, x, act(g, y)) for g in box]
    # no image sits so near the radius that rounding could decide it
    assert min(abs(d - radius) for d in dists) > 1e-9
    brute = sorted(((g.k1, g.k2) for g, d in zip(box, dists) if d <= radius),
                   key=lambda k: (k[0] * k[0] + k[1] * k[1], k[0], k[1]))
    got = enumerate_elements(group, x, y, radius)
    assert [(g.k1, g.k2) for g in got] == brute


def _written_out_image_sum(group, x, y, t, budget):
    """k0_quotient's sum, written out over enumerate_elements at the
    truncation radius k0_quotient chooses."""
    radius, _ = _truncation(group, t, 0.25 * budget.abs_tol)
    els = enumerate_elements(group, x, y, radius)
    (xu, xw), (yu, yw) = _axis_chart(x), _axis_chart(y)
    if group.base is H:
        # Fermi coordinates: each image moves u by k ell
        dists = [_axis_distance(xw, yw, xu - yu - g.k1 * group.ell) for g in els]
    else:
        n1 = np.array([g.k1 for g in els])
        if group.v2 is None:
            img = np.vstack([n1 * group.v1[0], n1 * group.v1[1]])
        else:
            img = group.matrix @ np.vstack([n1, [g.k2 for g in els]])
        dists = np.hypot(xu - yu - img[0], xw - yw - img[1])
    # the chart images are act's, up to the round trip through polar points
    for g, d in zip(els, dists):
        assert abs(d - distance(group.base, x, act(g, y))) <= 1e-14 * max(1.0, d)
    if group.base is H:
        rows, _, _, _ = _h2_mckean(dists, t, budget.part(0.5 / len(els)))
        return math.fsum(rows[0])
    return float(np.sum(np.exp(-dists * dists / (4.0 * t)))) / (4.0 * math.pi * t)


@pytest.mark.parametrize("group", [UNIT, SKEW, CYL, HCYL],
                         ids=["unit", "skew", "cylinder", "h-cylinder"])
def test_k0_quotient_is_the_written_out_image_sum_bit_for_bit(group):
    q = QuotientSurface.from_group(group)
    for (xr, xt), (yr, yt) in (((0.3, 0.7), (0.9, 2.1)), ((1.4, 5.9), (0.2, 0.1))):
        x, y = Point(group.base, xr, xt), Point(group.base, yr, yt)
        for t in (0.05, 0.7):
            for tol in (1e-6, 1e-10):
                budget = ToleranceBudget(abs_tol=tol)
                got = k0_quotient(q, x, y, t, budget)
                assert got == _written_out_image_sum(group, x, y, t, budget)


@pytest.mark.parametrize("group", [UNIT, SKEW, CYL], ids=["unit", "skew", "cylinder"])
def test_flat_err_est_charges_the_roundoff_of_the_sum(group):
    """The flat sum's err_est used to be its tail alone: 3.0e-18 for a value
    of 0.674 on the unit torus, whose ulp is 1.1e-16.  At abs_tol 1e-20 the
    tail is far below one ulp of the value, so the rounding charge shows."""
    q = QuotientSurface.from_group(group)
    x, y = Point(E, 0.3, 0.7), Point(E, 0.9, 2.1)
    for t in (1e-3, 0.05, 0.7, 2.0):
        for tol in (1e-10, 1e-20):
            budget = ToleranceBudget(abs_tol=tol)
            value, err, _, _ = _k0_quotient_full(q, x, y, t, budget)
            assert err >= np.finfo(float).eps * abs(value)
            out = k1_quotient_flat(q, x, y, t, budget)
            assert out.err_est >= np.finfo(float).eps * abs(out.matrix.m11)


def _summed(term, start):
    """The sum of term(m) over m = start, start + 1, ..., carried until the
    terms underflow."""
    return math.fsum(term(start + i) for i in range(5000))


def _ring(m, pad):
    return math.pi * ((m + 1.0 + pad) ** 2 - max(0.0, m - pad) ** 2)


@pytest.mark.parametrize("radius,t", [(1.5, 2.0), (3.2, 5.0), (6.0, 0.4)])
def test_tails_bound_the_fully_summed_series(radius, t):
    """Each truncation tail is at least the whole series it bounds, not a
    partial sum of it."""
    pad = 0.5 * (math.hypot(*SKEW.v1) + math.hypot(*SKEW.v2))
    area = abs(float(np.linalg.det(SKEW.matrix)))
    lattice = _summed(lambda m: _ring(m, pad) / area * math.exp(-m * m / (4 * t))
                      / (4 * math.pi * t), radius)
    assert _euclid_tail(SKEW, radius, t) >= lattice
    cyl = _summed(lambda m: 2.0 * (1.0 + math.sqrt(2 * m + 1))
                  * math.exp(-m * m / (4 * t)) / (4 * math.pi * t), radius)
    assert _euclid_tail(CYL, radius, t) >= cyl
    rate = 4 * math.pi ** 2 * t / 40.0
    fourier = _summed(lambda m: _ring(m, 0.9) * math.exp(-rate * m * m),
                      math.floor(radius))
    assert _fourier_tail(0.9, rate, radius) >= fourier
    ell = HCYL.ell
    h2 = ((2 * radius / ell + 1) * _h2_k0_majorant(radius, t)
          + _summed(lambda j: 2.0 * _h2_k0_majorant(radius + j * ell, t), 0))
    assert _h2_tail(HCYL, radius, t) >= h2


@pytest.mark.parametrize("ell", [0.1, 0.8, 2.0, 4.0])
@pytest.mark.parametrize("t,tol", [(0.01, 1e-10), (0.3, 1e-6), (2.0, 1e-10), (20.0, 1e-6)])
def test_h2_tail_bounds_the_majorant_over_every_image_beyond_the_radius(ell, t, tol):
    """Brute force over pairs with |du| from 0 to 1e3, near and far off the
    axis: the majorant summed over every image beyond the radius stays
    below the pair-free tail."""
    group = CoveringGroupSpec.hyperbolic_cyclic(ell)
    radius, tail = _truncation(group, t, 0.25 * tol)
    for du in (0.0, 0.37, 1.3, 7.7, 55.5, 1e3):
        for w1, w2 in ((0.0, 0.0), (0.3, -0.2), (radius - 0.5, 0.0),
                       (0.5 * radius, -0.5 * radius), (0.0, radius + 1.0)):
            # past |du - k ell| = 2 radius + 50 ell the terms are negligible
            k0 = round(du / ell)
            reach = int(2 * radius / ell) + 50
            dists = [_axis_distance(w1, w2, du - k * ell)
                     for k in range(k0 - reach, k0 + reach)]
            beyond = math.fsum(_h2_k0_majorant(d, t) for d in dists if d > radius)
            assert beyond <= tail


@pytest.mark.parametrize("length", [0.1, 1.0, 3.0])
@pytest.mark.parametrize("t,tol", [(0.01, 1e-10), (2.0, 1e-6), (100.0, 1e-6)])
def test_flat_cylinder_tail_bounds_every_offset_from_the_line(length, t, tol):
    """An offset h from the line of images near the radius puts long runs of
    images just beyond it; the pair-free tail still bounds their sum."""
    group = CoveringGroupSpec.euclidean_cyclic((length, 0.0))
    radius, tail = _truncation(group, t, 0.25 * tol)
    reach = int((radius + 40.0 * math.sqrt(t)) / length) + 10
    ks = np.arange(-reach, reach + 1)
    for h in np.linspace(0.0, radius + 3.0, 61):
        d = np.hypot(0.3 - ks * length, h)
        beyond = np.sum(np.exp(-d[d > radius] ** 2 / (4 * t))) / (4 * math.pi * t)
        assert beyond <= tail


@pytest.mark.parametrize("group", [UNIT, SKEW, CYL, HCYL],
                         ids=["unit", "skew", "cylinder", "h-cylinder"])
def test_truncation_radius_is_the_same_for_near_and_far_pairs(group):
    q = QuotientSurface.from_group(group)
    x = Point(group.base, 0.3, 0.7)
    for t in (0.05, 0.7):
        radii = {_k0_quotient_full(q, x, Point(group.base, r, 2.1), t,
                                   ToleranceBudget(abs_tol=1e-8))[3]
                 for r in (0.9, 40.0, 400.0)}
        assert len(radii) == 1


@pytest.mark.parametrize("group,radius", [(UNIT, 4000.0), (CYL, 1e7), (HCYL, 3e7)],
                         ids=["unit", "cylinder", "h-cylinder"])
def test_enumeration_overflow_guard(group, radius):
    origin = Point(group.base, 0.0, 0.0)
    with pytest.raises(EnumerationOverflowError):
        enumerate_elements(group, origin, origin, radius)


@pytest.mark.parametrize("group", [UNIT, SKEW, CYL, HCYL],
                         ids=["unit", "skew", "cylinder", "h-cylinder"])
def test_reduce_is_idempotent_and_orbit_stable(group):
    q = QuotientSurface.from_group(group)
    p = Point(group.base, 1.7, 2.6)
    r1 = q.reduce(p)
    r2 = q.reduce(r1)
    assert abs(r1.c1 - r2.c1) < 1e-12 and abs(r1.c2 - r2.c2) < 1e-12
    shifted = q.reduce(act(GroupElement(group, 2, 1 if group.v2 else 0), p))
    assert abs(shifted.c1 - r1.c1) < 1e-9
    assert abs(math.remainder(shifted.c2 - r1.c2, 2 * math.pi)) < 1e-9


def test_torus_value_matches_theta_identity():
    """Image sum and dual Fourier sum both equal the Jacobi theta value
    theta_3(0, exp(-1/(4t)))^2 / (4 pi t) on the unit torus diagonal."""
    q = QuotientSurface.from_group(UNIT)
    origin = Point(E, 0.0, 0.0)
    ref = 1.0002069034459673
    assert abs(k0_quotient(q, origin, origin, 0.25, TIGHT) - ref) < 1e-13
    assert abs(torus_fourier_oracle(UNIT, origin, origin, 0.25, TIGHT)
               - ref) < 1e-13


def test_image_sum_equals_fourier_oracle_off_diagonal():
    q = QuotientSurface.from_group(SKEW)
    x = Point(E, 0.3, 0.7)
    for (yr, yth) in ((0.0, 0.0), (0.5, 2.0), (0.9, 4.1)):
        y = Point(E, yr, yth)
        for t in (0.1, 0.6):
            a = k0_quotient(q, x, y, t, TIGHT)
            b = torus_fourier_oracle(SKEW, x, y, t, TIGHT)
            assert abs(a - b) < 1e-11


def test_torus_long_time_uniformizes():
    area = abs(np.linalg.det(SKEW.matrix))
    q = QuotientSurface.from_group(SKEW)
    v = k0_quotient(q, Point(E, 0.4, 0.3), Point(E, 0.2, 1.9), 20.0, TIGHT)
    assert abs(v - 1.0 / area) < 1e-10


def test_deck_periodicity():
    q = QuotientSurface.from_group(UNIT)
    x = Point(E, 0.31, 0.5)
    y = Point(E, 0.62, 2.4)
    base = k0_quotient(q, x, y, 0.3, TIGHT)
    for g in (GroupElement(UNIT, 1, 0), GroupElement(UNIT, -2, 1)):
        assert abs(k0_quotient(q, x, act(g, y), 0.3, TIGHT) - base) < 1e-12
    qh = QuotientSurface.from_group(HCYL)
    xh = Point(H, 0.5, 0.8)
    yh = Point(H, 1.1, 2.0)
    bh = k0_quotient(qh, xh, yh, 0.4, TIGHT)
    moved = k0_quotient(qh, xh, act(GroupElement(HCYL, 1), yh), 0.4, TIGHT)
    assert abs(moved - bh) < 1e-9


def test_torus_kernel_mass_is_one():
    # uniform Riemann sum is exact for smooth periodic integrands
    n = 24
    q = QuotientSurface.from_group(UNIT)
    x = Point(E, 0.2, 0.4)
    cell = 1.0 / (n * n)
    total = 0.0
    for i in range(n):
        for j in range(n):
            u, v = (i + 0.5) / n, (j + 0.5) / n
            y = Point(E, math.hypot(u, v), math.atan2(v, u))
            total += k0_quotient(q, x, y, 0.3, TIGHT) * cell
    assert abs(total - 1.0) < 1e-10


def test_trivial_quotient_reduces_to_base():
    for kind in ("plane", "sphere", "hyperbolic"):
        group = CoveringGroupSpec.trivial(kind)
        q = QuotientSurface.from_group(group)
        x = Point(kind, 0.4, 0.1)
        y = Point(kind, 1.0, 2.0)
        assert k0_quotient(q, x, y, 0.5) == k0(kind, x, y, 0.5).value
        m_q = k1_quotient_flat(QuotientSurface.from_group(
            CoveringGroupSpec.trivial("plane")), Point(E, 0.4, 0.1),
            Point(E, 1.0, 2.0), 0.5).matrix
        m_b = k1("plane", Point(E, 0.4, 0.1), Point(E, 1.0, 2.0), 0.5).matrix
        assert m_q == m_b


def test_quotient_k1_diagonal_is_scalar_times_identity():
    q = QuotientSurface.from_group(UNIT)
    x = Point(E, 0.25, 0.0)
    val = k1_quotient_flat(q, x, x, 0.3, TIGHT)
    s = k0_quotient(q, x, x, 0.3, TIGHT)
    assert abs(val.matrix.m11 - s) < 1e-13
    assert abs(val.matrix.m22 - s) < 1e-13
    assert val.matrix.m12 == 0.0


def test_cylinder_k1_matches_transported_image_sum():
    """Manual image sum: each base matrix maps y_k's coframe, so transport
    back to y's coframe with the polar frame rotation before summing."""
    q = QuotientSurface.from_group(CYL)
    x = Point(E, 0.4, 0.9)
    y = Point(E, 0.7, 2.2)
    t = 0.3
    got = k1_quotient_flat(q, x, y, t, TIGHT).matrix.as_array()
    manual = np.zeros((2, 2))
    for k in range(-9, 10):
        yk = act(GroupElement(CYL, k), y)
        rot = np.array([[math.cos(yk.c2 - y.c2), math.sin(yk.c2 - y.c2)],
                        [-math.sin(yk.c2 - y.c2), math.cos(yk.c2 - y.c2)]])
        manual += k1("plane", x, yk, t, TIGHT).matrix.as_array() @ rot
    assert np.max(np.abs(got - manual)) < 1e-12


def test_quotient_k1_needs_flat_transport():
    q = QuotientSurface.from_group(HCYL)
    with pytest.raises(UnsupportedGroupError):
        k1_quotient_flat(q, Point(H, 0.3, 0.0), Point(H, 0.5, 1.0), 0.3)


def test_kind_mismatch_rejected():
    q = QuotientSurface.from_group(UNIT)
    with pytest.raises(KindMismatchError):
        k0_quotient(q, Point("sphere", 0.3, 0.0), Point("sphere", 0.5, 0.0),
                    0.3)
    with pytest.raises(KindMismatchError):
        QuotientSurface("sphere", UNIT)
    with pytest.raises(DomainError):
        torus_fourier_oracle(CYL, Point(E, 0.0, 0.0), Point(E, 0.0, 0.0), 0.3)


def test_fourier_oracle_validates_time():
    with pytest.raises(DomainError):
        torus_fourier_oracle(UNIT, Point(E, 0.0, 0.0), Point(E, 0.0, 0.0),
                             1e-9)


def test_fourier_oracle_overflow_guard():
    # a 1 x 1000 torus at t = 0.01 needs ~3e8 dual-lattice candidates
    thin = CoveringGroupSpec.euclidean_lattice((1.0, 0.0), (0.0, 1000.0))
    origin = Point(E, 0.0, 0.0)
    with pytest.raises(EnumerationOverflowError):
        torus_fourier_oracle(thin, origin, origin, 0.01)


def test_quotient_surfaces_of_one_group_compare_equal():
    assert QuotientSurface.from_group(SKEW) == QuotientSurface(E, SKEW)


# theta_3(0, exp(-1/(4t)))^2 / (4 pi t) on the unit torus diagonal, and the
# off-diagonal product of two one-dimensional theta sums at offset
# (0.35, 0.2), t = 0.3; mpmath 1.3.0 at 40 digits.
@pytest.mark.parametrize("t,y,ref", [
    (0.1, (0.0, 0.0), 1.0786751768406495),
    (0.6, (0.0, 0.0), 1.0000000002064926),
    (1.0, (0.0, 0.0), 1.0),
    (0.3, (0.35, 0.2), 0.999995994103659),
])
def test_unit_torus_matches_the_mpmath_theta_value(t, y, ref):
    q = QuotientSurface.from_group(UNIT)
    origin = Point(E, 0.0, 0.0)
    yp = Point(E, math.hypot(*y), math.atan2(y[1], y[0]))
    assert abs(k0_quotient(q, origin, yp, t, TIGHT) - ref) < 1e-12
    assert abs(torus_fourier_oracle(UNIT, origin, yp, t, TIGHT) - ref) < 1e-12


def test_reduce_stays_in_the_orbit():
    rng = np.random.default_rng(20260819)
    for group, kind, reach in ((SKEW, E, 8.0), (HCYL, H, 12.0)):
        q = QuotientSurface.from_group(group)
        for _ in range(20):
            p = Point(kind, rng.uniform(0.0, 3.0), rng.uniform(0.0, 2 * math.pi))
            red = q.reduce(p)
            gap = min(distance(kind, p, act(g, red))
                      for g in enumerate_elements(group, p, red, reach))
            assert gap < 1e-10


def _along_axis(p, delta):
    """p translated by delta along the theta = 0 geodesic: u + delta in
    Fermi coordinates."""
    u, w = _axis_chart(p)
    return _axis_point(H, u + delta, w)


def test_hyperbolic_cylinder_is_invariant_along_its_axis():
    q = QuotientSurface.from_group(HCYL)
    x, y = Point(H, 0.5, 0.9), Point(H, 0.8, 2.4)
    base = k0_quotient(q, x, y, 0.4, TIGHT)
    for delta in (0.3, -0.7, 1.1):
        moved = k0_quotient(q, _along_axis(x, delta), _along_axis(y, delta),
                            0.4, TIGHT)
        assert abs(moved - base) < 1e-10
    # every image adds a positive kernel value
    assert base > k0("hyperbolic", x, y, 0.4, TIGHT).value


def _dx(p):
    """The constant Cartesian form dx in p's unit polar coframe."""
    return np.array([math.cos(p.c2), -math.sin(p.c2)])


def _torus_cells(n):
    for i in range(n):
        for j in range(n):
            u, v = (i + 0.5) / n, (j + 0.5) / n
            yield Point(E, math.hypot(u, v), math.atan2(v, u))


@pytest.mark.parametrize("t,n", [(0.3, 28), (20.0, 4)])
def test_torus_k1_fixes_the_constant_form_dx(t, n):
    # uniform Riemann sums are exact for smooth periodic integrands; at
    # t = 20 every nonconstant mode has decayed below roundoff
    q = QuotientSurface.from_group(UNIT)
    x = Point(E, 0.41, 0.87)
    out = sum(k1_quotient_flat(q, x, y, t).matrix.as_array() @ _dx(y)
              for y in _torus_cells(n)) / n ** 2
    assert np.abs(out - _dx(x)).max() < 1e-8


def test_torus_k1_semigroup():
    q = QuotientSurface.from_group(UNIT)
    x, y, s = Point(E, 0.2, 0.5), Point(E, 0.66, 2.8), 0.15
    n = 24
    acc = sum(k1_quotient_flat(q, x, z, s).matrix.as_array()
              @ k1_quotient_flat(q, z, y, s).matrix.as_array()
              for z in _torus_cells(n)) / n ** 2
    direct = k1_quotient_flat(q, x, y, 2 * s).matrix.as_array()
    assert np.abs(acc - direct).max() < 1e-4


def _far_out_calls(group, x, y):
    """act, reduce, enumerate_elements and k0_quotient at (x, y): each
    returns finite numbers (a Point holds no other) or raises a
    HeatformsError, never an OverflowError, a ZeroDivisionError or a
    ValueError.  Returns k0_quotient's (value, err_est), None if it refused."""
    q = QuotientSurface.from_group(group)
    for call in (lambda: act(GroupElement(group, 3), x), lambda: q.reduce(y),
                 lambda: enumerate_elements(group, x, y, 3.0)):
        try:
            call()
        except HeatformsError:
            pass
    try:
        value, err, _, _ = _k0_quotient_full(q, x, y, 0.5, ToleranceBudget(abs_tol=1e-8))
    except HeatformsError:
        return None
    assert math.isfinite(value) and math.isfinite(err)
    return value, err


@pytest.mark.parametrize("r", [200.0, 355.0, 360.0, 400.0, 711.0, 1500.0, 1e4])
def test_far_out_hyperbolic_cylinder_points(r):
    """Fermi coordinates go to logs past the float range, so far-out points
    act, reduce and sum finitely.  On the axis nothing is lost: x and y 0.5
    apart along it give the value at the origin.  Off the axis only typing
    and finiteness are asserted: past |w| = 37 one ulp of u moves a point
    by more than 1, as past r = 37 one ulp of theta does."""
    group = CoveringGroupSpec.hyperbolic_cyclic(1.5)
    near = _far_out_calls(group, Point(H, 0.0, 0.0), Point(H, 0.5, 0.0))
    for theta in (0.0, 0.3, math.pi / 2, 3.0):
        x = Point(H, r, theta)
        _far_out_calls(group, x, Point(H, 0.5, 1.0))
        out = _far_out_calls(group, x, Point(H, r + 0.5, theta))
        if theta == 0.0:
            assert abs(out[0] - near[0]) <= out[1] + near[1]


def test_far_out_hyperbolic_cylinder_sweep():
    """300 seeded far-out points (r in [300, 2000]) with three partners each,
    900 calls per function: near the origin, on the point's own ray, and far
    out at random."""
    rng = np.random.default_rng(20261019)
    for i in range(300):
        group = CoveringGroupSpec.hyperbolic_cyclic((0.5, 1.5)[i % 2])
        r, theta = rng.uniform(300.0, 2000.0), rng.uniform(0.0, 2 * math.pi)
        x = Point(H, r, theta)
        for y in (Point(H, rng.uniform(0.0, 2.0), rng.uniform(0.0, 2 * math.pi)),
                  Point(H, r + rng.uniform(-1.0, 1.0), theta),
                  Point(H, rng.uniform(300.0, 2000.0), rng.uniform(0.0, 2 * math.pi))):
            _far_out_calls(group, x, y)


@pytest.mark.parametrize("group,r", [(CYL, 1e20), (SKEW, 1e20), (HCYL, 1e300)],
                         ids=["cylinder", "skew", "h-cylinder"])
def test_images_past_exact_lattice_coordinates_are_refused(group, r):
    """Far out along a generator the images next to x have lattice
    coordinates past 2^53, no longer exact floats: the image sum refuses
    them with a typed error, as it refuses too many candidates."""
    assert _far_out_calls(group, Point(group.base, r, 0.0), Point(group.base, 0.5, 1.0)) is None


@pytest.mark.parametrize("group", [CoveringGroupSpec.euclidean_cyclic((1e-200, 0.0)),
                                   CoveringGroupSpec.hyperbolic_cyclic(1e-300)],
                         ids=["cylinder-1e-200", "h-cylinder-1e-300"])
def test_degenerate_generators_refuse_with_finite_numbers(group):
    """Generators whose length squares to 0 once raised ZeroDivisionError
    (the plane) or OverflowError (H2); now the images they would need are
    refused, with every number in the message finite."""
    x, y = Point(group.base, 0.3, 0.7), Point(group.base, 0.9, 2.1)
    assert _far_out_calls(group, x, y) is None
    with pytest.raises(EnumerationOverflowError) as info:
        k0_quotient(QuotientSurface.from_group(group), x, y, 0.5)
    numbers = []
    for word in str(info.value).replace(",", " ").split():
        try:
            numbers.append(float(word))
        except ValueError:
            pass
    assert numbers and all(map(math.isfinite, numbers))
