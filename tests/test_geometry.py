import copy
import decimal
import math
import pickle
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatforms import geometry
from heatforms.errors import (CutLocusError, DecayHintError, DomainError,
                              NonconvergenceError)
from heatforms.geometry import (CUT_LOCUS_TOL, BiTensor1, OneFormValue, Point,
                                SurfaceKind, _chart_points, _fejer2, _grid_points,
                                _pair_derivatives, apply_i_plus_star, distance,
                                distance_gradient, hodge_star_1,
                                integrate_surface, mixed_distance_hessian)
from heatforms.quadrature import DecayHint, ToleranceBudget

KINDS = (SurfaceKind.EUCLIDEAN, SurfaceKind.SPHERE, SurfaceKind.HYPERBOLIC)

radii = st.floats(0.05, 2.6)
angles = st.floats(0.0, 2.0 * math.pi - 1e-9)


def test_kind_aliases():
    assert SurfaceKind.parse("plane") is SurfaceKind.EUCLIDEAN
    assert SurfaceKind.parse("S2") is SurfaceKind.SPHERE
    assert SurfaceKind.parse("h2") is SurfaceKind.HYPERBOLIC
    with pytest.raises(DomainError):
        SurfaceKind.parse("torus")


def test_point_validation():
    p = Point("sphere", 0.4, 2.0 * math.pi + 0.3)
    assert abs(p.c2 - 0.3) < 1e-12  # angle normalized into [0, 2 pi)
    with pytest.raises(DomainError):
        Point("sphere", 3.5, 0.0)
    with pytest.raises(DomainError):
        Point("plane", -0.1, 0.0)
    with pytest.raises(DomainError):
        Point("plane", math.nan, 0.0)


def _bits(v):
    return struct.pack("<d", v)


grid_angles = st.one_of(st.floats(-1e3, 1e3),
                        st.sampled_from([0.0, -0.0, 2.0 * math.pi,
                                         -2.0 * math.pi, -1e-300]))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KINDS), st.integers(1, 5), st.integers(1, 6), st.data())
def test_grid_points_equal_the_checked_constructor(kind, n_rows, n_cols, data):
    n = n_rows * n_cols
    angles = data.draw(st.lists(grid_angles, min_size=n, max_size=n))
    radii = data.draw(st.lists(st.floats(0.0, math.pi), min_size=n, max_size=n))
    c1 = np.array(radii).reshape(n_rows, n_cols)
    c2 = np.array(angles).reshape(n_rows, n_cols)
    got = list(_grid_points(kind, c1, c2))
    want = [Point(kind, a, b) for a, b in zip(radii, angles)]
    assert got == want
    for p, q in zip(got, want):
        assert hash(p) == hash(q)
        assert p.kind is q.kind
        assert _bits(p.c1) == _bits(q.c1) and _bits(p.c2) == _bits(q.c2)
        assert type(p.c1) is float and type(p.c2) is float
        assert type(p) is Point


@pytest.mark.parametrize("kind,bad", [
    (SurfaceKind.EUCLIDEAN, (math.nan, 0.0)),
    (SurfaceKind.HYPERBOLIC, (0.5, math.inf)),
    (SurfaceKind.EUCLIDEAN, (-1e-9, 0.0)),
    (SurfaceKind.SPHERE, (math.pi + 1e-9, 1.0)),
])
def test_grid_points_raise_as_the_constructor_does(kind, bad):
    with pytest.raises(DomainError) as want:
        Point(kind, *bad)
    c1 = np.full((3, 4), 0.5)
    c2 = np.linspace(-4.0, 4.0, 12).reshape(3, 4)
    c1[1, 2], c2[1, 2] = bad
    points = _grid_points(kind, c1, c2)
    # the six entries before the bad one still come out, then Point's error
    assert [next(points) for _ in range(6)] == \
        [Point(kind, a, b) for a, b in zip(c1.ravel()[:6], c2.ravel()[:6])]
    with pytest.raises(DomainError, match=f"^{re.escape(str(want.value))}$"):
        next(points)


def test_clean_grid_blocks_bypass_the_checked_constructor(monkeypatch):
    kind = SurfaceKind.HYPERBOLIC
    c1 = np.full((3, 4), 0.5)
    c2 = np.linspace(-4.0, 4.0, 12).reshape(3, 4)
    want = [Point(kind, a, b) for a, b in zip(c1.ravel(), c2.ravel())]
    made = []
    checked = Point.__new__

    def spy(cls, *args):
        made.append(args)
        return checked(cls, *args)

    monkeypatch.setattr(Point, "__new__", spy)
    points = list(_grid_points(kind, c1, c2))
    assert made == [] and points == want
    assert all(type(p) is Point for p in points)
    # a bad entry sends the block through Point, which raises at that entry
    c1[1, 2] = -1e-9
    points = _grid_points(kind, c1, c2)
    assert [next(points) for _ in range(6)] == want[:6] and len(made) == 6
    with pytest.raises(DomainError, match="radial coordinate must be nonnegative"):
        next(points)
    assert made[-1] == (kind, -1e-9, c2[1, 2]) and len(made) == 7


def _round_trips(value):
    return (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value))


def test_points_are_immutable_named_tuples():
    p = Point("sphere", 0.4, 2.0 * math.pi + 0.3)
    assert repr(p) == f"Point(kind=<SurfaceKind.SPHERE: 'sphere'>, c1=0.4, c2={p.c2!r})"
    assert hash(p) == hash((SurfaceKind.SPHERE, 0.4, p.c2))
    assert p == (SurfaceKind.SPHERE, 0.4, p.c2) and p[1] == 0.4
    kind, c1, c2 = p
    assert (kind, c1, c2) == (p.kind, p.c1, p.c2)
    assert p == Point("s2", 0.4, p.c2) and p != Point("sphere", 0.4, 0.0)
    with pytest.raises(AttributeError):
        p.c1 = 1.0
    with pytest.raises(AttributeError):
        p.label = "x"
    # an angle just below 0 rounds to 2 pi; a round trip keeps its bits
    edge = Point("plane", 1.0, -1e-300)
    assert edge.c2 == 2.0 * math.pi
    for q in (p, edge):
        for back in _round_trips(q):
            assert type(back) is Point and back == q and back.kind is q.kind
            assert _bits(back.c2) == _bits(q.c2)


def test_point_replace_and_make_check_and_normalize():
    p = Point("plane", 1.0, 0.5)
    q = p._replace(c2=2.0 * math.pi + 0.25)
    assert type(q) is Point and q == Point("plane", 1.0, 0.25 + 2.0 * math.pi)
    assert p._replace(kind="h2").kind is SurfaceKind.HYPERBOLIC
    assert Point._make(["plane", 1, 99]) == Point("plane", 1.0, 99.0)
    assert type(Point._make(["plane", 1, 99]).c1) is float
    for bad in (lambda: p._replace(c1=-5.0), lambda: p._replace(c2=math.inf),
                lambda: Point("sphere", 1.0, 0.0)._replace(c1=3.5),
                lambda: Point._make(("plane", -1.0, 99.0)),
                lambda: p._replace(kind="torus")):
        with pytest.raises(DomainError):
            bad()


def test_one_form_values_are_immutable_named_tuples():
    w = OneFormValue(0.3, -0.8)
    assert repr(w) == "OneFormValue(a=0.3, b=-0.8)"
    assert hash(w) == hash((0.3, -0.8)) and w == (0.3, -0.8)
    a, b = w
    assert (a, b) == (w.a, w.b) == (w[0], w[1])
    assert w.norm() == math.hypot(0.3, -0.8) and w.as_array().tolist() == [0.3, -0.8]
    with pytest.raises(AttributeError):
        w.a = 1.0
    for back in _round_trips(w):
        assert type(back) is OneFormValue and back == w
    assert w._replace(b=1.0) == OneFormValue(0.3, 1.0)
    assert type(OneFormValue._make([1.0, 2.0])) is OneFormValue


@pytest.mark.parametrize("value,name", [(np.complex128(1 + 2j), "complex128"),
                                        (1j, "complex"), (None, "NoneType")])
@pytest.mark.parametrize("axis", ["c1", "c2"])
def test_point_refuses_a_coordinate_that_is_not_a_real_float(value, name, axis):
    args = {"c1": 1.0, "c2": 0.5, axis: value}
    with pytest.raises(DomainError,
                       match=f"^the coordinate {axis} is '{name}', not a float$"):
        Point("plane", args["c1"], args["c2"])


def test_point_reads_strings_and_numbers_as_float_does():
    assert Point("plane", "1.5", " 0.5 ") == Point("plane", 1.5, 0.5)
    assert Point("plane", decimal.Decimal("0.1"), np.float32(0.5)) == (
        SurfaceKind.EUCLIDEAN, 0.1, 0.5)
    with pytest.raises(DomainError, match="^the coordinate c1 is 'str', not a float$"):
        Point("plane", "x", 0.0)


def test_plane_distance_closed_form():
    x = Point("plane", 1.0, 0.0)
    y = Point("plane", 2.0, math.pi / 2)
    assert abs(distance("plane", x, y) - math.sqrt(5.0)) < 1e-14


def test_sphere_antipodal_distance():
    d = distance("sphere", Point("sphere", 0.0, 0.0),
                 Point("sphere", math.pi, 1.3))
    assert abs(d - math.pi) < 1e-12


# Pairs at d = 1e-12, 1e-6, 0.5, pi/2 and pi - 1e-6 from two base points, one
# near the south pole and the theta = 0 seam; the second point is the
# destination at that distance rounded to floats, and the reference is the
# distance between the float points by mpmath 1.3.0 at 50 digits.
SPHERE_PAIRS = [
    ((1.1, 0.7), (1.0999999999993786, 0.7000000000008789), 9.999427331462573e-13),
    ((1.1, 0.7), (1.099999378390188, 0.700000878950503), 9.99999999959827e-07),
    ((1.1, 0.7), (0.8450928559356203, 1.2259630328139963), 0.49999999999999994),
    ((1.1, 0.7), (0.9836549834122681, 2.616309168417088), 1.5707963267948968),
    ((1.1, 0.7), (2.0415920319796688, 3.8415917746398462), 3.1415916535897934),
    ((2.9, 6.2), (2.900000000000666, 6.200000000003117), 9.998631746193866e-13),
    ((2.9, 6.2), (2.900000666274893, 6.200003116862359), 1.0000000000550715e-06),
    ((2.9, 6.2), (2.761201035420347, 1.7608506595374838), 0.5000000000000001),
    ((2.9, 6.2), (1.7308853490304084, 2.2021979713927644), 1.5707963267948966),
    ((2.9, 6.2), (0.24159331986694316, 3.058404229564703), 3.141591653589793),
]


@pytest.mark.parametrize("a,b,ref", SPHERE_PAIRS)
def test_sphere_distance_within_4_ulp_of_mpmath(a, b, ref):
    x, y = Point("sphere", *a), Point("sphere", *b)
    assert abs(distance("sphere", x, y) - ref) <= 4 * math.ulp(ref)


def test_sphere_distance_is_bitwise_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(500):
        x = Point("sphere", rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi))
        scale = 10.0 ** rng.uniform(-12, 0)
        y = Point("sphere", min(math.pi, abs(x.c1 + scale * rng.normal())),
                  x.c2 + scale * rng.normal())
        assert _bits(distance("sphere", x, y)) == _bits(distance("sphere", y, x))


@settings(max_examples=60, deadline=None)
@given(radii, angles, radii, angles, radii, angles)
def test_distance_metric_properties(r1, t1, r2, t2, r3, t3):
    for kind in KINDS:
        x, y, z = (Point(kind, a, b)
                   for a, b in ((r1, t1), (r2, t2), (r3, t3)))
        dxy = distance(kind, x, y)
        assert dxy >= 0.0
        assert abs(dxy - distance(kind, y, x)) < 1e-12
        assert distance(kind, x, x) < 1e-12
        assert dxy <= distance(kind, x, z) + distance(kind, z, y) + 1e-10


@settings(max_examples=40, deadline=None)
@given(radii, angles, radii, angles, st.floats(0.0, 2.0 * math.pi))
def test_distance_rotation_invariance(r1, t1, r2, t2, alpha):
    for kind in KINDS:
        d0 = distance(kind, Point(kind, r1, t1), Point(kind, r2, t2))
        d1 = distance(kind, Point(kind, r1, t1 + alpha),
                      Point(kind, r2, t2 + alpha))
        assert abs(d0 - d1) < 1e-11


def test_sphere_gradient_frozen_value():
    # frozen against central differences of the distance itself
    g = distance_gradient("sphere", Point("sphere", 0.7, 0.2),
                          Point("sphere", 1.1, 1.0))
    assert abs(g.a - -0.27475278277288462) < 1e-9
    assert abs(g.b - -0.96151490282707353) < 1e-9


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_gradient_is_unit(kind):
    rng = np.random.default_rng(11)
    for _ in range(25):
        x = Point(kind, rng.uniform(0.1, 2.5), rng.uniform(0, 6.2))
        y = Point(kind, rng.uniform(0.1, 2.5), rng.uniform(0, 6.2))
        if distance(kind, x, y) < 0.05:
            continue
        g = distance_gradient(kind, x, y)
        assert abs(math.hypot(g.a, g.b) - 1.0) < 1e-10


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_mixed_hessian_matches_finite_differences(kind):
    """d/dx d/dy of F(d(x, y)) in unit frames, against a 4-point stencil."""
    r1, t1, r2, t2 = 0.8, 0.3, 1.4, 1.5
    F1 = lambda d: 2.0 * d
    F2 = lambda d: 2.0
    metric = {SurfaceKind.EUCLIDEAN: lambda r: r,
              SurfaceKind.SPHERE: math.sin,
              SurfaceKind.HYPERBOLIC: math.sinh}[kind]

    def F(a1, a2, b1, b2):
        return distance(kind, Point(kind, a1, a2), Point(kind, b1, b2)) ** 2

    h = 1e-5
    coords = [r1, t1, r2, t2]

    def fd(i, j):
        def ev(si, sj):
            q = list(coords)
            q[i] += si * h
            q[j] += sj * h
            return F(*q)
        return (ev(1, 1) - ev(1, -1) - ev(-1, 1) + ev(-1, -1)) / (4 * h * h)

    lx, ly = metric(r1), metric(r2)
    ref = np.array([[fd(0, 2), fd(0, 3) / ly],
                    [fd(1, 2) / lx, fd(1, 3) / (lx * ly)]])
    d0 = distance(kind, Point(kind, r1, t1), Point(kind, r2, t2))
    got = mixed_distance_hessian(kind, Point(kind, r1, t1),
                                 Point(kind, r2, t2), F1(d0), F2(d0))
    assert np.max(np.abs(got.as_array() - ref)) < 1e-5


def test_hodge_star_algebra():
    w = OneFormValue(0.3, -0.8)
    ww = hodge_star_1(hodge_star_1(w))
    assert (ww.a, ww.b) == (-0.3, 0.8)
    m = apply_i_plus_star(BiTensor1(1.0, 2.0, 3.0, 4.0))
    assert (m.m11, m.m12, m.m21, m.m22) == (5.0, -1.0, 1.0, 5.0)


def test_surface_integrals_against_closed_forms():
    budget = ToleranceBudget(abs_tol=1e-9)
    area = integrate_surface("sphere", lambda a, b: np.ones_like(a), budget,
                             vectorized=True)
    assert abs(area - 4.0 * math.pi) < 1e-8
    plane = integrate_surface("plane", lambda a, b: np.exp(-a ** 2), budget,
                              decay=DecayHint("gaussian", 1.0, 1.0),
                              vectorized=True)
    assert abs(plane - math.pi) < 1e-8
    # int exp(-a cosh r) dA = 2 pi exp(-a) / a on the hyperbolic plane
    a = 1.3
    hyp = integrate_surface("hyperbolic",
                            lambda g1, g2: np.exp(-a * np.cosh(g1)), budget,
                            decay=DecayHint("gaussian", rate=a / 2.5,
                                            bound=1.0),
                            vectorized=True)
    assert abs(hyp - 2.0 * math.pi * math.exp(-a) / a) < 1e-8


def test_pointwise_surface_integrals_keep_their_bits():
    # frozen before the per-point grid sampler existed
    def sphere_field(p):
        return math.exp(math.cos(p.c1) + 0.3 * math.sin(p.c1) * math.cos(p.c2 - 0.4))

    def plane_field(p):
        x, y = p.c1 * math.cos(p.c2), p.c1 * math.sin(p.c2)
        return math.exp(-p.c1 ** 2) * (1.0 + 0.3 * x + 0.1 * x * y)

    # refrozen for the nested sampler: moved by 1.8e-14 and 4.4e-16
    assert integrate_surface("sphere", sphere_field) == 14.976957118664721
    assert integrate_surface("plane", plane_field,
                             decay=DecayHint("gaussian", 1.0, 1.4)) == 3.1415926518040784


@pytest.mark.parametrize("n_int", [4, 8, 32, 256])
def test_fejer_rule_is_exact_and_nested(n_int):
    """Fejer's second rule integrates x^k exactly for k < n_int, and the rule
    of twice as many intervals lists this rule's nodes first, bit for bit."""
    x, w = _fejer2(n_int)
    for k in range(n_int):
        assert abs(w @ x ** k - (2.0 / (k + 1) if k % 2 == 0 else 0.0)) < 1e-14
    assert np.array_equal(_fejer2(2 * n_int)[0][:n_int - 1], x)
    assert np.all(np.abs(x) < 1.0) and np.all(w > 0.0)


def test_noncompact_integration_needs_decay():
    with pytest.raises(DecayHintError):
        integrate_surface("plane", lambda a, b: np.ones_like(a))
    # sub-exponential decay cannot beat the hyperbolic area growth
    with pytest.raises(DecayHintError):
        integrate_surface("hyperbolic", lambda a, b: np.exp(-0.5 * a),
                          decay=DecayHint("exp", rate=0.5, bound=1.0),
                          vectorized=True)


def test_unsettled_surface_integral_reports_its_last_change(monkeypatch):
    """exp(-r^2)(1 + 0.2 cos phi), phi the angle about (1, 0): the jump at
    that pole keeps successive grids apart, and the error says by how much."""
    monkeypatch.setattr(geometry, "_SURFACE_LIMIT", (128, 256))
    def field(c1, c2):
        x, y = c1 * np.cos(c2), c1 * np.sin(c2)
        return np.exp(-c1 ** 2) * (1.0 + 0.2 * np.cos(np.arctan2(y, x - 1.0)))

    with pytest.raises(NonconvergenceError) as info:
        integrate_surface("plane", field,
                          ToleranceBudget(abs_tol=1e-9),
                          decay=DecayHint("gaussian", 1.0, 1.2), vectorized=True)
    assert info.value.achieved > info.value.requested == 5e-10


def _f_derivs(d):
    """F = e^{-d} sin(2d + 0.3) and its first two derivatives."""
    e, s, c = math.exp(-d), math.sin(2.0 * d + 0.3), math.cos(2.0 * d + 0.3)
    return e * s, e * (2.0 * c - s), e * (-3.0 * s - 4.0 * c)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_pair_derivatives_at_random_pairs(kind):
    """Gradient and mixed Hessian of F(d(x, y)) against central differences
    at seeded pairs, for an F whose derivatives do not vanish together."""
    metric = {SurfaceKind.EUCLIDEAN: lambda r: r,
              SurfaceKind.SPHERE: math.sin,
              SurfaceKind.HYPERBOLIC: math.sinh}[kind]
    rng = np.random.default_rng(7)
    h = 1e-5
    top = 2.8 if kind is SurfaceKind.SPHERE else 2.5
    checked = 0
    for _ in range(60):
        coords = [rng.uniform(0.1, top), rng.uniform(0, 2 * math.pi),
                  rng.uniform(0.1, top), rng.uniform(0, 2 * math.pi)]
        x, y = Point(kind, *coords[:2]), Point(kind, *coords[2:])
        d0 = distance(kind, x, y)
        if d0 < 0.3 or (kind is SurfaceKind.SPHERE and d0 > 2.9):
            continue
        checked += 1

        def fd(steps):
            q = [c + s * h for c, s in zip(coords, steps)]
            return _f_derivs(distance(kind, Point(kind, *q[:2]),
                                      Point(kind, *q[2:])))[0]

        _, f1, f2 = _f_derivs(d0)
        grad = distance_gradient(kind, x, y)
        assert abs(math.hypot(grad.a, grad.b) - 1.0) < 1e-10
        g_r = (fd((1, 0, 0, 0)) - fd((-1, 0, 0, 0))) / (2 * h)
        g_t = (fd((0, 1, 0, 0)) - fd((0, -1, 0, 0))) / (2 * h)
        assert abs(f1 * grad.a - g_r) < 1e-8
        assert abs(f1 * grad.b - g_t / metric(coords[0])) < 1e-8

        def mixed(i, j):
            def ev(si, sj):
                steps = [0, 0, 0, 0]
                steps[i], steps[j] = si, sj
                return fd(steps)
            return (ev(1, 1) - ev(1, -1) - ev(-1, 1) + ev(-1, -1)) / (4 * h * h)

        lx, ly = metric(coords[0]), metric(coords[2])
        ref = np.array([[mixed(0, 2), mixed(0, 3) / ly],
                        [mixed(1, 2) / lx, mixed(1, 3) / (lx * ly)]])
        got = mixed_distance_hessian(kind, x, y, f1, f2).as_array()
        assert np.abs(got - ref).max() < 1e-4
    assert checked >= 20


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_chart_map_lands_at_distance_s_along_the_distance_gradient(kind):
    """The chart point (s, psi) about x lies at distance s from x, and its
    frame components (p, q) are the gradient of the distance at the target:
    two routes, distance and _pair_derivatives, independent of the chart."""
    rng = np.random.default_rng(14)
    top = math.pi - 2e-3 if kind is SurfaceKind.SPHERE else 3.0
    worst_d = worst_g = 0.0
    for _ in range(40):
        x = Point(kind, rng.uniform(0.0, 2.5), rng.uniform(0.0, 2.0 * math.pi))
        s = rng.uniform(0.05, top, size=4)
        psi = rng.uniform(0.0, 2.0 * math.pi, size=5)
        c1, c2, p, q = _chart_points(kind, x, s, psi, True)
        for i, j in np.ndindex(c1.shape):
            y = Point(kind, c1[i, j], c2[i, j])
            d = distance(kind, x, y)
            worst_d = max(worst_d, abs(d - s[i]) / max(1.0, s[i]))
            grad = _pair_derivatives(kind, x, y, d).grad_y
            worst_g = max(worst_g, abs(p[i, j] - grad[0]), abs(q[i, j] - grad[1]))
    assert worst_d <= 1e-12
    assert worst_g <= 1e-10


def _written_out_sphere_derivatives(x, y, d):
    """Sphere rows as the sphere's own branch wrote them, with each
    chain-rule factor's sign flip from d = acos(cos d) spelled out."""
    if math.pi - d < CUT_LOCUS_TOL:
        raise CutLocusError("cut locus")
    dtheta = x.c2 - y.c2
    sin_dt = math.sin(dtheta)
    two_sh2 = 2.0 * math.sin(0.5 * dtheta) ** 2
    cos_dt = math.cos(dtheta)
    p1, p2 = x.c1, y.c1
    s1, c1 = math.sin(p1), math.cos(p1)
    s2, c2 = math.sin(p2), math.cos(p2)
    sd = math.sin(d)
    cd = math.cos(d)
    gx0 = -(math.sin(p2 - p1) - c1 * s2 * two_sh2) / sd
    gx1 = -(-s2 * sin_dt) / sd
    gy0 = -(math.sin(p1 - p2) - s1 * c2 * two_sh2) / sd
    gy1 = -(s1 * sin_dt) / sd
    w11 = math.cos(p1 - p2) - c1 * c2 * two_sh2
    mixed = (-(w11 + cd * (gx0 * gy0)) / sd,
             -(c1 * sin_dt + cd * (gx0 * gy1)) / sd,
             -(-c2 * sin_dt + cd * (gx1 * gy0)) / sd,
             -(cos_dt + cd * (gx1 * gy1)) / sd)
    return (gx0, gx1), (gy0, gy1), mixed


def test_sphere_pair_derivatives_equal_the_written_out_rows():
    """The body the sphere shares with H2 gives every entry of the sphere's
    own rows, at general pairs, pairs on one meridian, pairs 1e-9 apart and
    pairs within 2e-3 of the cut locus.  An exactly zero mixed entry may
    differ in sign only, which == allows."""
    rng = np.random.default_rng(1414)
    compared = 0
    for i in range(300):
        p1, a1 = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)
        kind = i % 4
        if kind == 0:
            p2, a2 = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)
        elif kind == 1:
            p2, a2 = rng.uniform(0.0, math.pi), a1
        elif kind == 2:
            p2 = min(math.pi, max(0.0, p1 + rng.uniform(-1e-9, 1e-9)))
            a2 = a1 + rng.uniform(-1e-9, 1e-9)
        else:
            step, turn = rng.uniform(0.0, 2e-3), rng.uniform(0.0, 2.0 * math.pi)
            p2 = min(math.pi, max(0.0, math.pi - p1 + step * math.cos(turn)))
            a2 = a1 + math.pi + step * math.sin(turn)
        x, y = Point("sphere", p1, a1), Point("sphere", p2, a2)
        d = distance("sphere", x, y)
        if d == 0.0:
            continue
        try:
            want = _written_out_sphere_derivatives(x, y, d)
        except CutLocusError:
            with pytest.raises(CutLocusError):
                _pair_derivatives("sphere", x, y, d)
            continue
        got = _pair_derivatives("sphere", x, y, d)
        assert (got.grad_x, got.grad_y, got.mixed) == want
        compared += 1
    assert compared >= 250


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_mixed_hessian_is_finite_near_coincidence(kind):
    x = Point(kind, 0.7, 1.1)
    y = Point(kind, 0.7 + 1e-8, 1.1 + 1e-8)
    d0 = distance(kind, x, y)
    m = mixed_distance_hessian(kind, x, y, -1.0 / d0, -2.0).as_array()
    assert np.all(np.isfinite(m))


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_nan_field_raises_on_the_first_integration_pass(kind):
    calls = []
    budget = ToleranceBudget(abs_tol=1e-8)
    decay = None if kind is SurfaceKind.SPHERE else DecayHint("gaussian", 1.0, 1.0)

    def counted(value):
        def field(p):
            calls.append(p)
            return value
        return field

    # np.fromiter reads None as NaN, which the finite check then rejects
    for value in (math.nan, None):
        calls.clear()
        with pytest.raises(DomainError, match="non-finite"):
            integrate_surface(kind, counted(value), budget, decay)
        # the first pass asks for a 32 x 64 grid
        assert 0 < len(calls) <= 32 * 64
    # a numpy complex, which a cast to float cuts to its real part
    for value in ("x", np.complex128(1 + 1j)):
        calls.clear()
        with pytest.raises(DomainError, match="not a float"):
            integrate_surface(kind, counted(value), budget, decay)
        assert len(calls) == 1
    with pytest.raises(DomainError, match="not a float.*complex"):
        integrate_surface(kind, lambda c1, c2: np.exp(-c1 * c1) + 1j, budget, decay,
                          vectorized=True)
    # a vectorized field must return c1's shape: not a scalar, nor the
    # transposed grid (unchecked, exp(-r^2) on the plane integrated to 8.739,
    # not pi)
    for fn in (lambda c1, c2: 1.0, lambda c1, c2: np.exp(-c1.T ** 2),
               lambda c1, c2: np.full(c1.shape, np.nan)):
        with pytest.raises(DomainError, match="shape|non-finite"):
            integrate_surface(kind, fn, budget, decay, vectorized=True)
    # an error raised inside the field propagates unchanged
    error = ValueError("a user's own error")

    def raising(*args):
        raise error
    for vectorized in (False, True):
        with pytest.raises(ValueError) as got:
            integrate_surface(kind, raising, budget, decay, vectorized=vectorized)
        assert got.value is error


def _h2_distance_reference(r1: float, r2: float, dtheta: float) -> float:
    """2 asinh(sqrt(q/2)), q/2 = sinh^2((r1-r2)/2) + sinh r1 sinh r2
    sin^2(dtheta/2), in 50-digit decimals, whose exponents reach far past
    e^20000; sin(dtheta/2) is taken in floats, as distance takes it."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D = decimal.Decimal

        def sinh(x):
            e = D(x).exp()
            return (e - 1 / e) / 2

        half_q = (sinh(D(r1 - r2) / 2) ** 2
                  + sinh(r1) * sinh(r2) * D(math.sin(0.5 * dtheta)) ** 2)
        root = half_q.sqrt()
        return float(2 * (root + (half_q + 1).sqrt()).ln())


def test_far_out_h2_distances_are_finite_and_accurate():
    """Past radius 355, sinh r1 sinh r2 and sinh r itself leave the float
    range; the distance then comes from the logarithms of its terms."""
    for r in (355.0, 400.0, 700.0, 711.0, 1500.0, 1e4):
        x = Point("hyperbolic", r, 0.0)
        for y in (Point("hyperbolic", 0.0, 0.0), Point("hyperbolic", r + 0.5, 0.0),
                  Point("hyperbolic", r, 0.1)):
            d = distance("hyperbolic", x, y)
            ref = _h2_distance_reference(x.c1, y.c1, x.c2 - y.c2)
            assert math.isfinite(d) and abs(d - ref) <= 4e-16 * ref, (r, y, d, ref)
