import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatforms import hyperbolic, kernels
from heatforms.errors import (CoincidentPointsError, CutLocusError,
                              DecayHintError, DomainError, NonconvergenceError)
from heatforms.geometry import (OneFormValue, Point, SurfaceKind, distance)
from heatforms.kernels import (T_MIN, FormField, HeatTime, apply_k0, apply_k1,
                               g1_scalar, heat_residual, k0, k1, k2)
from heatforms.quadrature import (DecayHint, ToleranceBudget,
                                  _kronrod_panels, integrate_adaptive)
from heatforms.specfun import legendre_p

TIGHT = ToleranceBudget(abs_tol=1e-12)
KINDS = ("plane", "sphere", "hyperbolic")


def test_plane_coincidence_value():
    x = Point("plane", 0.4, 1.1)
    v = k0("plane", x, x, 0.25)
    assert abs(v.value - 1.0 / math.pi) < 1e-15
    assert v.err_est < 1e-12


def test_sphere_long_time_limit():
    # spectrum gap is 2, so by t = 20 only the constant mode is left
    v = k0("sphere", Point("sphere", 0.2, 0.0), Point("sphere", 2.0, 3.0), 20.0)
    assert abs(v.value - 1.0 / (4.0 * math.pi)) < 1e-12


def test_time_validation():
    x = Point("plane", 0.1, 0.0)
    with pytest.raises(DomainError):
        k0("plane", x, x, T_MIN / 2)
    with pytest.raises(DomainError):
        HeatTime(0.0)
    assert k0("plane", x, x, HeatTime(0.25)).value == k0("plane", x, x, 0.25).value


@pytest.mark.parametrize("kind", KINDS)
def test_k2_is_k0_as_density(kind):
    x = Point(kind, 0.5, 0.1)
    y = Point(kind, 1.2, 2.0)
    assert k2(kind, x, y, 0.7).value == k0(kind, x, y, 0.7).value


@settings(max_examples=50, deadline=None)
@given(st.floats(0.05, 3.0), st.floats(0.0, 6.28), st.floats(0.05, 3.0),
       st.floats(0.0, 6.28), st.floats(0.05, 2.0))
def test_euclid_k1_closed_form(r1, t1, r2, t2, t):
    """On the plane the 1-form kernel is the scalar kernel times the
    rotation aligning the two polar coframes."""
    x = Point("plane", r1, t1)
    y = Point("plane", r2, t2)
    d = distance("plane", x, y)
    kern = math.exp(-d * d / (4.0 * t)) / (4.0 * math.pi * t)
    dth = t1 - t2
    ref = kern * np.array([[math.cos(dth), math.sin(dth)],
                           [-math.sin(dth), math.cos(dth)]])
    got = k1("plane", x, y, t, TIGHT)
    err = np.max(np.abs(got.matrix.as_array() - ref))
    assert err < 1e-12
    assert err <= got.err_est


def test_sphere_k1_frozen_matrix():
    # frozen from a double finite difference of the generator series
    got = k1("sphere", Point("sphere", 0.7, 0.0), Point("sphere", 1.2, 0.9),
             0.5, TIGHT).matrix.as_array()
    ref = np.array([[0.065091034092207761, -0.041219409324524225],
                    [0.041219409324524225, 0.065091034092207761]])
    assert np.max(np.abs(got - ref)) < 1e-7


def test_k1_coincidence_is_isotropic():
    vals = {"plane": 1.0 / (4.0 * math.pi * 0.4),
            "sphere": 0.1481949208278189,
            "hyperbolic": 0.17439242924075343}
    for kind, ref in vals.items():
        x = Point(kind, 0.7, 0.2)
        m = k1(kind, x, x, 0.4, TIGHT).matrix
        assert m.m12 == 0.0 and m.m21 == 0.0
        assert m.m11 == m.m22
        assert abs(m.m11 - ref) < 1e-10
        # continuity: nearby separation reproduces the coincidence matrix
        near = k1(kind, x, Point(kind, 0.7 + 1e-6, 0.2), 0.4, TIGHT).matrix
        assert abs(near.m11 - m.m11) < 1e-4


def test_h2_dual_routes_agree():
    # k0 serves from McKean's integral; the spectral integral is the oracle.
    for d in (0.1, 1.0, 2.5):
        for t in (0.1, 0.8):
            served = k0("hyperbolic", Point("hyperbolic", 0.0, 0.0),
                        Point("hyperbolic", d, 0.0), t, TIGHT)
            rows, err, _, _ = hyperbolic._h2_spectral([d], t, TIGHT)
            gap = abs(served.value - rows[0, 0])
            assert gap < 1e-9
            assert gap <= served.err_est + err


@pytest.mark.parametrize("d,t,generator", [(1.425, 1e-3, False),
                                           (3.2, 1e-3, False),
                                           (4.0, 1e-3, True)])
def test_h2_spectral_oracle_holds_at_small_time(d, t, generator):
    """The rho integrand oscillates with period 2 pi / d under a Gaussian of
    width 1/sqrt(t).  Started from one panel over the whole of [0, 151],
    two rules on the same nodes can agree by accident: at d = 1.425 the
    spectral K0 was off by 2.1e4 times its err_est.  Seeded panels no wider
    than either scale hold every row to McKean's within the summed bounds."""
    oracle, o_err, _, _ = hyperbolic._h2_spectral(
        [d], t, ToleranceBudget(abs_tol=1e-6), generator)
    served, s_err, _, _ = hyperbolic._h2_mckean(
        [d], t, ToleranceBudget(abs_tol=1e-12), generator)
    assert np.all(np.abs(oracle - served)[:, 0] <= o_err + s_err)


# (d, t, K0, G, G_d) from mpmath quadrature of the defining integrals at
# 30 digits, with G's and G_d's numerator from the closed form of I(s, t).
_MCKEAN_FROZEN = (
    (0.01, 0.001, 77.5861845381959, 0.5936851851468941, -0.39281907885260187),
    (1e-06, 0.4, 0.17439242924063034, 0.12905548240248013, -8.71962146203387e-08),
    (0.1, 0.05, 1.4877106459699274, 0.2817834308934897, -0.07624442765902462),
    (0.8, 0.4, 0.11107905358216655, 0.10465990823504344, -0.053113652799642634),
    (1.5, 0.05, 1.7097411281125414e-05, 0.0722396799015928, -0.07474475931876104),
    (0.2, 1.0, 0.05678324924601428, 0.06952109684948826, -0.005696845374993593),
    (3.0, 2.0, 0.0038802213894533373, 0.010700996761732584, -0.007668371931318349),
)


@pytest.mark.parametrize("d,t,kern,g,g_d", _MCKEAN_FROZEN)
def test_h2_mckean_rows_meet_their_err_est(d, t, kern, g, g_d):
    for tol in (1e-8, 1e-12):
        rows, err, _, _ = hyperbolic._h2_mckean([d], t, ToleranceBudget(abs_tol=tol),
                                            generator=True)
        assert np.all(err <= tol)
        assert np.all(np.abs(rows[:, 0] - (kern, g, g_d)) <= err)


@pytest.mark.parametrize("d,t,kern,g,g_d", _MCKEAN_FROZEN)
def test_h2_mckean_rows_match_the_spectral_oracle(d, t, kern, g, g_d):
    budget = ToleranceBudget(abs_tol=1e-10)
    served, s_err, _, _ = hyperbolic._h2_mckean([d], t, budget, generator=True)
    oracle, o_err, _, _ = hyperbolic._h2_spectral([d], t, budget, generator=True)
    assert np.all(np.abs(served - oracle)[:, 0] <= s_err + o_err)


@settings(max_examples=12, deadline=None)
@given(st.lists(st.floats(1e-4, 6.0), min_size=2, max_size=4),
       st.floats(1e-3, 2.0), st.floats(-12.0, -6.0), st.booleans())
def test_h2_mckean_batch_matches_single_distances(ds, t, log_tol, generator):
    budget = ToleranceBudget(abs_tol=10.0 ** log_tol)
    rows, err, _, _ = hyperbolic._h2_mckean(ds, t, budget, generator)
    assert rows.shape == (3 if generator else 1, len(ds))
    assert np.all(err <= budget.abs_tol)
    for i, d in enumerate(ds):
        one, one_err, _, _ = hyperbolic._h2_mckean([d], t, budget, generator)
        assert np.all(np.abs(rows[:, i] - one[:, 0]) <= err + one_err)


def test_h2_mckean_batch_memory_stays_under_the_spectral_route():
    """Distance-by-node arrays are built in blocks, so a 200-node generator
    batch (an apply_k1 pass) peaks no higher than the spectral route's
    rho-by-radius blocks on the same nodes."""
    nodes = np.linspace(0.025, 5.0, 200)
    budget = ToleranceBudget(abs_tol=1e-10)
    peaks = []
    for route in (hyperbolic._h2_mckean, hyperbolic._h2_spectral):
        route(nodes, 0.1, budget, True)  # builds the cached quadrature rules
        tracemalloc.start()
        try:
            route(nodes, 0.1, budget, True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


# (z, (E_2.5, E_7.5, E_14.5)) from mpmath.expint.
_EXPINT_FROZEN = (
    (0.01, (0.6489300494125563, 0.15203903568614924, 0.07327840607090695)),
    (1.0, (0.12648781959325442, 0.048111374216158694, 0.025243518873891514)),
    (2.9, (0.010968299058131603, 0.00566124273747861, 0.0033179092809167217)),
    (3.1, (0.00861462508728204, 0.004535316687750674, 0.0026825112176820745)),
    (10.0, (3.68442399367994e-06, 2.655273500207407e-06, 1.8973718371958531e-06)),
)


@pytest.mark.parametrize("z,ref", _EXPINT_FROZEN)
def test_expint_table_on_both_sides_of_its_seam(z, ref):
    got = hyperbolic._expint_table(z, 13)[[0, 5, 12]]
    assert np.all(np.abs(got - ref) <= 2e-14 * np.abs(ref))


def test_sigma_parts_agree_with_mpmath_across_the_series_seam():
    # (s, s/sinh s, (s/sinh s)'/s) from mpmath at 30 digits
    frozen = ((1e-06, 0.9999999999998334, -0.33333333333325554),
              (0.3, 0.9851560190095271, -0.3264317653945207),
              (0.999, 0.8511844198828828, -0.266482323857748),
              (1.001, 0.8506516851772198, -0.26625242618954287),
              (4.0, 0.14657428130346242, -0.02750727109134249),
              (40.0, 3.398683404233271e-16, -8.284290797818598e-18))
    s, sigma, dsig = (np.array(col) for col in zip(*frozen))
    got_sigma, got_dsig = hyperbolic._sigma_parts(s)
    assert np.all(np.abs(got_sigma - sigma) <= 4e-16 * np.abs(sigma))
    assert np.all(np.abs(got_dsig - dsig) <= 2e-15 * np.abs(dsig))


@pytest.mark.parametrize("t", [1e-4, 1e-2, 1.0])
def test_sphere_series_keep_their_bits_for_a_float_and_an_array(t):
    """One pass of code serves both: a float stays a float, and it sums to
    the same bits as the one entry of an array.  Adding the generator sums
    to the pass leaves K0's sum, count and tail as they are without them."""
    for d in (1e-3, 0.7, 2.5):
        x, s = math.cos(d), math.sin(d)
        one, n_one, tail_one, gen = kernels._sphere_series(x, t, 1e-9)
        arr, n_arr, tail_arr, _ = kernels._sphere_series(np.array([x]), t, 1e-9)
        assert gen is None
        assert type(one) is float and arr.shape == (1,)
        assert (one, n_one, tail_one) == (arr[0], n_arr, tail_arr)
        *k0_part, (g, gd, n_g, _) = kernels._sphere_series(x, t, 1e-9, s)
        *k0_arr, (g_arr, gd_arr, n_g_arr, _) = kernels._sphere_series(
            np.array([x]), t, 1e-9, np.array([s]))
        assert tuple(k0_part) == (one, n_one, tail_one)
        assert np.array_equal(k0_arr[0], arr) and k0_arr[1:] == [n_arr, tail_arr]
        assert type(g) is float and type(gd) is float
        assert (g, gd, n_g) == (g_arr[0], gd_arr[0], n_g_arr)


@pytest.mark.parametrize("kind", list(SurfaceKind))
def test_k0_at_a_distance_takes_a_float_or_an_array(kind):
    """A float distance gives float results; on the sphere and H2 they are
    the bits of the one entry of a 1-element array.  The plane's float
    path uses math.exp, which may differ from np.exp by an ulp."""
    budget = ToleranceBudget(abs_tol=1e-10)
    for t in (1e-3, 0.3, 2.0):
        for d in (0.0, 1e-7, 0.7, 2.5):
            one = kernels._k0_dist(kind, d, t, budget)
            arr = kernels._k0_dist(kind, np.array([d]), t, budget)
            assert type(one[0]) is float and type(one[1]) is float
            assert arr[0].shape == (1,) and arr[1:] == one[1:]
            if kind is SurfaceKind.EUCLIDEAN:
                assert abs(one[0] - arr[0][0]) <= one[1]
            else:
                assert one[0] == arr[0][0]


def test_sphere_generator_keeps_g_d_at_small_separation():
    """G_d/d and G_dd both tend to -c(t)/2, with c(t) the coincidence value
    of k1; rebuilding sin d from cos d used to zero G_d below d ~ 1e-8."""
    t = 0.3
    x = Point("sphere", 0.7, 0.2)
    half_c = 0.5 * k1("sphere", x, x, t, TIGHT).matrix.m11
    for d in np.logspace(-12, -3, 10):
        _, g_d, g_dd = g1_scalar("sphere", float(d), t, TIGHT)
        assert abs(g_d / d + half_c) <= 1e-12 + 0.1 * d * d
        assert abs(g_dd + half_c) <= 1e-12 + 0.2 * d * d


@pytest.mark.parametrize("kind", KINDS)
def test_err_est_is_a_python_float(kind):
    x = Point(kind, 0.4, 0.3)
    for y in (x, Point(kind, 0.9, 1.0)):
        for value in (k0(kind, x, y, 0.3), k1(kind, x, y, 0.3), k2(kind, x, y, 0.3)):
            assert type(value.err_est) is float


@settings(max_examples=12, deadline=None)
@given(st.lists(st.floats(0.05, 6.0), min_size=2, max_size=4),
       st.floats(0.01, 2.0), st.floats(-10.0, -6.0), st.booleans())
def test_h2_spectral_batch_matches_single_distances(ds, t, log_tol, generator):
    budget = ToleranceBudget(abs_tol=10.0 ** log_tol)
    rows, err, _, _ = hyperbolic._h2_spectral(ds, t, budget, generator)
    assert rows.shape == (3 if generator else 1, len(ds))
    for i, d in enumerate(ds):
        one, one_err, _, _ = hyperbolic._h2_spectral([d], t, budget, generator)
        assert np.all(np.abs(rows[:, i] - one[:, 0]) <= err + one_err)


@pytest.mark.parametrize("kind,d", [("sphere", 1.0), ("hyperbolic", 0.8)])
def test_generator_is_the_time_integral_of_the_kernel(kind, d):
    # G = int_t^inf K0 dtau (mean-zero part on the sphere), cut where the
    # integrand has decayed below 1e-11
    t = 0.3
    x, y = Point(kind, 0.2, 0.0), Point(kind, 0.2 + d, 0.0)
    mean = 1.0 / (4.0 * math.pi) if kind == "sphere" else 0.0
    horizon = t + (12.0 if kind == "sphere" else 90.0)
    kern = ToleranceBudget(abs_tol=1e-10)
    val, _ = integrate_adaptive(lambda tau: k0(kind, x, y, tau, kern).value - mean,
                                t, horizon, ToleranceBudget(abs_tol=1e-9))
    assert abs(g1_scalar(kind, d, t, TIGHT)[0] - val) < 1e-9


def test_h2_mass_tail_and_majorant_bound_the_kernel():
    for t in (0.05, 0.5, 2.0):
        # the whole mass is 1
        assert hyperbolic._h2_mass_tail(0.0, t) >= 1.0
        ds = np.array([0.1, 0.5, 1.0, 2.0, 4.0])
        vals = hyperbolic._h2_mckean(ds, t, TIGHT)[0][0]
        for d, v in zip(ds, vals):
            assert 0.0 < v <= hyperbolic._h2_k0_majorant(d, t)
        for radius in (1.0, 2.0):
            rs, wts = _kronrod_panels(np.linspace(0.0, 20.0, 41))
            wts = wts[:, 0]
            kern = hyperbolic._h2_mckean(radius + rs, t, TIGHT)[0][0]
            mass = float(np.sum(kern * 2.0 * math.pi * np.sinh(radius + rs) * wts))
            assert mass <= hyperbolic._h2_mass_tail(radius, t)


@pytest.mark.parametrize("d", [0.1, 0.5, 1.5])
def test_h2_k1_meets_its_tolerance(d):
    x, y = Point("hyperbolic", 0.4, 0.3), Point("hyperbolic", 0.4 + d, 0.3)
    for t in (0.01, 0.1, 1.0):
        ref = k1("hyperbolic", x, y, t, TIGHT)
        for tol in (1e-6, 1e-8):
            got = k1("hyperbolic", x, y, t, ToleranceBudget(abs_tol=tol))
            assert got.err_est <= tol
            diff = np.abs(got.matrix.as_array() - ref.matrix.as_array()).max()
            assert diff <= got.err_est + ref.err_est


@pytest.mark.parametrize("kind,d,t", [("plane", 0.7, 0.4),
                                      ("sphere", 1.1, 0.5),
                                      ("hyperbolic", 0.9, 0.6)])
def test_generator_time_derivative(kind, d, t):
    # -dG/dt recovers the kernel (mean-zero part of it on the sphere)
    h = 1e-5
    gp = g1_scalar(kind, d, t + h, TIGHT)[0]
    gm = g1_scalar(kind, d, t - h, TIGHT)[0]
    lhs = -(gp - gm) / (2 * h)
    rhs = k0(kind, Point(kind, 0.3, 0.0), Point(kind, 0.3 + d, 0.0), t,
             TIGHT).value
    if kind == "sphere":
        rhs -= 1.0 / (4.0 * math.pi)
    assert abs(lhs - rhs) < 1e-7


@pytest.mark.parametrize("kind,d,t", [("plane", 0.8, 0.3),
                                      ("sphere", 1.3, 0.4),
                                      ("hyperbolic", 1.0, 0.5)])
def test_generator_radial_derivatives(kind, d, t):
    h = 1e-5
    g0, gd, gdd = g1_scalar(kind, d, t, TIGHT)
    gp = g1_scalar(kind, d + h, t, TIGHT)
    gm = g1_scalar(kind, d - h, t, TIGHT)
    assert abs(gd - (gp[0] - gm[0]) / (2 * h)) < 1e-6
    assert abs(gdd - (gp[1] - gm[1]) / (2 * h)) < 1e-6


def test_generator_frozen_plane_triple():
    g = g1_scalar("plane", 0.8, 0.3, TIGHT)
    ref = (-0.005966736276330914, -0.08223412176337588, -0.05282009059777121)
    for a, b in zip(g, ref):
        assert abs(a - b) < 1e-12


# G = g1_scalar("plane", sqrt(4 t z), t)[0] for z across both E1 branches,
# frozen from scipy.special.exp1 before the package computed E1 itself.
PLANE_G_ZS = (1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.999, 1.001, 2.0, 10.0, 60.0,
              300.0, 700.0)
PLANE_G_FROZEN = {
    1e-4: (0.6685511619525997, 0.6685510823752274, 0.6684716043710809,
           0.6607880190914135, 0.6332313315307921, 0.6052100930778386,
           0.605109487962011, 0.563567519765486, 0.43938356828216835,
           0.2968002109035672, 0.16872521122187314, 0.10129938984596809),
    0.3: (0.03142467465151379, 0.03142459507414153, 0.03134511706999504,
          0.023661531790327782, -0.0038951557702936756, -0.03191639422324713,
          -0.03201699933907483, -0.07355896753559975, -0.19774291901891747,
          -0.3403262763975186, -0.46840127607921267, -0.5358270974551177),
    5.0: (-0.1924594366085222, -0.19245951618589444, -0.19253899419004103,
          -0.20022257946970823, -0.22777926703032972, -0.25580050548328315,
          -0.25590111059911086, -0.29744307879563575, -0.4216270302789535,
          -0.5642103876575546, -0.6922853873392486, -0.7597112087151537),
}


def test_plane_generator_matches_frozen_exp1_values():
    for t, row in PLANE_G_FROZEN.items():
        for z, ref in zip(PLANE_G_ZS, row):
            g = g1_scalar("plane", math.sqrt(4.0 * t * z), t)[0]
            assert abs(g - ref) < 1e-14, (t, z)


def test_plane_generator_at_extreme_separations():
    # d^2/4t underflows to 0, where G = (gamma - ln 4t) / 4 pi
    g = g1_scalar("plane", 1e-200, 0.3)[0]
    assert abs(g - (0.5772156649015329 - math.log(1.2)) / (4.0 * math.pi)) < 1e-16
    # d^2/4t overflows, where E1 vanishes and G = -ln d / 2 pi
    g = g1_scalar("plane", 1e160, 1.0)[0]
    assert g == pytest.approx(-math.log(1e160) / (2.0 * math.pi), abs=1e-14)


def test_plane_k1_at_a_subnormal_separation_is_finite():
    m = k1("plane", Point("plane", 0.05, 0.0), Point("plane", 0.05, 1e-300),
           0.3).matrix.as_array()
    assert np.all(np.isfinite(m))


def _rotated(scale, angle):
    c, s = math.cos(angle), math.sin(angle)
    return scale * np.array([[c, s], [-s, c]])


@pytest.mark.parametrize("d", [1e-300, 1e-10, 1e-4])
def test_plane_k1_err_est_at_tiny_separations(d):
    # y sits at distance d along the circle r = 0.05 (d = 0.1 sin(dth / 2))
    dth = 2.0 * math.asin(d / 0.1)
    x, y = Point("plane", 0.05, 0.0), Point("plane", 0.05, dth)
    t, tol = 0.3, 1e-8
    v = k1("plane", x, y, t, ToleranceBudget(abs_tol=tol))
    m = v.matrix.as_array()
    assert v.err_est <= tol
    dist = distance("plane", x, y)
    exact = _rotated(math.exp(-dist * dist / (4.0 * t)) / (4.0 * math.pi * t), -dth)
    assert np.max(np.abs(m - exact)) <= v.err_est


@pytest.mark.parametrize("dth", [1e-10, 1e-8, 1e-7])
@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_sphere_k1_err_est_at_tiny_separations(dth, tol):
    # Along the colatitude circle phi = 0.5 the polar coframes turn by
    # dth cos(phi) against parallel transport, and at d < 1e-7 the kernel
    # differs from its coincidence value c(t) I by O(d^2) < 1e-15.  c is
    # taken at 1/1000 of tol, so its own series tail stays out of the check.
    phi, t = 0.5, 0.3
    budget = ToleranceBudget(abs_tol=tol)
    x, y = Point("sphere", phi, 0.0), Point("sphere", phi, dth)
    v = k1("sphere", x, y, t, budget)
    assert v.err_est <= tol
    c = k1("sphere", x, x, t, budget.part(1e-3)).matrix.m11
    exact = _rotated(c, -dth * math.cos(phi))
    assert np.max(np.abs(v.matrix.as_array() - exact)) <= v.err_est


@pytest.mark.parametrize("d", [1e-6, 0.003, 0.1])
def test_sphere_k1_err_est_charges_roundoff(d):
    """At t = 2 the series tails vanish, and the sums' roundoff is what is
    left: err_est no longer falls below one ulp of the entries."""
    x = Point("sphere", 0.9, 0.2)
    v = k1("sphere", x, Point("sphere", 0.9 + d, 0.2), 2.0, TIGHT)
    assert v.err_est >= 4.0 * np.finfo(float).eps * np.abs(v.matrix.as_array()).max()


@pytest.mark.parametrize("t", [1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
def test_sphere_k1_meets_abs_tol_or_raises(t, tol):
    """From colatitude 0.1 the series tails reach err_est through 1 +
    |cos d| + sin d frame_scale, which the budget now divides out; only
    where the sums' roundoff alone exceeds abs_tol (t = 1e-4, 1e-12) does
    k1 raise, carrying what it achieved."""
    x = Point("sphere", 0.1, 0.0)
    for d in np.logspace(-9, -3, 7):
        y = Point("sphere", 0.1 + d, 0.0)
        try:
            v = k1("sphere", x, y, t, ToleranceBudget(abs_tol=tol))
        except NonconvergenceError as info:
            assert info.requested == tol and info.achieved > tol
            continue
        assert v.err_est <= tol
        try:
            ref = k1("sphere", x, y, t, ToleranceBudget(abs_tol=tol / 100))
        except NonconvergenceError:
            continue  # roundoff alone exceeds tol / 100 here
        gap = np.abs(v.matrix.as_array() - ref.matrix.as_array()).max()
        assert gap <= v.err_est


@pytest.mark.parametrize("kind,r", [("hyperbolic", 0.05), ("sphere", 1.0)])
def test_curved_k1_at_a_tiny_separation_is_finite(kind, r):
    # sinh(d) ** 3 (sin(d) ** 3) underflows here although d itself does not
    x, y = Point(kind, r, 0.0), Point(kind, r, 1e-120)
    assert 0.0 < distance(kind, x, y) < 1e-100
    m = k1(kind, x, y, 0.3).matrix.as_array()
    assert np.all(np.isfinite(m))
    # the kernel is continuous at coincidence
    np.testing.assert_allclose(m, k1(kind, x, x, 0.3).matrix.as_array(),
                               atol=1e-12)


def test_coincident_and_cut_locus_rejection():
    with pytest.raises(CoincidentPointsError):
        g1_scalar("plane", 0.0, 0.3)
    with pytest.raises(CutLocusError):
        k1("sphere", Point("sphere", 0.0, 0.0), Point("sphere", math.pi, 0.0),
           0.3)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", [math.inf, math.nan, -1.0])
def test_generator_refuses_distances_off_the_half_line(kind, d):
    with pytest.raises(DomainError, match="finite and nonnegative") as info:
        g1_scalar(kind, d, 0.3)
    assert not isinstance(info.value, CoincidentPointsError)


def test_apply_k0_sphere_eigenfunctions():
    t = 0.3
    for n in (1, 2, 3):
        field = FormField(0, lambda p, n=n: float(legendre_p(n, math.cos(p.c1))))
        out = apply_k0("sphere", field, t)
        decay = math.exp(-n * (n + 1) * t)
        for phi in (0.5, 1.1, 2.0):
            want = decay * float(legendre_p(n, math.cos(phi)))
            assert abs(out.fn(Point("sphere", phi, 0.3)) - want) < 1e-6


def test_apply_k0_plane_gaussian_closed_form():
    s0, t = 0.2, 0.35
    field = FormField(0, lambda p: math.exp(-p.c1 ** 2 / (4 * s0)),
                      DecayHint("gaussian", 1.0 / (4 * s0), 1.0))
    out = apply_k0("plane", field, t)
    for r in (0.0, 0.9):
        want = (s0 / (s0 + t)) * math.exp(-r ** 2 / (4 * (s0 + t)))
        assert abs(out.fn(Point("plane", r, 1.0)) - want) < 1e-7


@pytest.mark.parametrize("kind", ["plane", "hyperbolic"])
def test_apply_k0_preserves_constants(kind):
    ones = FormField(0, lambda p: 1.0, DecayHint("bounded", 0.0, 1.0))
    got = apply_k0(kind, ones, 0.5).fn(Point(kind, 0.7, 0.1))
    assert abs(got - 1.0) < 1e-7


def test_apply_k1_plane_parallel_field():
    # dx expressed in polar coframes; translation invariance fixes it
    dx = FormField(1, lambda p: OneFormValue(math.cos(p.c2), -math.sin(p.c2)),
                   DecayHint("bounded", 0.0, 1.0))
    got = apply_k1("plane", dx, 0.4).fn(Point("plane", 1.1, 0.7))
    assert abs(got.a - math.cos(0.7)) < 1e-7
    assert abs(got.b - -math.sin(0.7)) < 1e-7


def _h2_k1_error_against_d_of_k0(t, tol):
    """Largest component error of apply_k1 on d(e^{-r^2}) at (1, 0.3): the
    reference is the r-derivative of apply_k0 of e^{-r^2} at 1/1000 of tol,
    and the evolved 1-form of a radial field has no angular component."""
    x = Point("hyperbolic", 1.0, 0.3)
    form = FormField(1, lambda p: OneFormValue(-2.0 * p.c1 * math.exp(-p.c1 ** 2), 0.0),
                     DecayHint("gaussian", 0.5, 1.25))
    got = apply_k1("hyperbolic", form, t, ToleranceBudget(abs_tol=tol)).fn(x)
    scalar = apply_k0("hyperbolic",
                      FormField(0, lambda p: math.exp(-p.c1 ** 2),
                                DecayHint("gaussian", 1.0, 1.0)),
                      t, ToleranceBudget(abs_tol=1e-3 * tol)).fn

    def diff(h):  # five-point difference in r
        v = [scalar(Point("hyperbolic", x.c1 + j * h, x.c2)) for j in (-2, -1, 1, 2)]
        return (v[0] - 8.0 * v[1] + 8.0 * v[2] - v[3]) / (12.0 * h)

    ref = (16.0 * diff(0.01) - diff(0.02)) / 15.0  # Richardson, h = 0.02
    return max(abs(got.a - ref), abs(got.b))


def test_h2_apply_k1_of_a_gaussian_differential_is_d_of_apply_k0():
    """apply_k1 of d(e^{-r^2}) equals the r-derivative of apply_k0 of
    e^{-r^2}: the 1-form evolution runs through the generator rows K0 and
    G_d, the scalar one through K0 alone."""
    assert _h2_k1_error_against_d_of_k0(0.5, 1e-6) <= 1e-6


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
def test_h2_apply_k1_cut_covers_the_generator_tail(tol):
    """At t = 0.15 a cut at K0's mass radius (4.16) loses G_d's heavier
    tail, by 2.2e-4 at tol 1e-6 and 4.0e-6 at 1e-8."""
    assert _h2_k1_error_against_d_of_k0(0.15, tol) <= tol


def test_apply_k1_sphere_eigenform():
    # d(cos phi) has 1-form Laplacian eigenvalue 2
    t = 0.3
    out = apply_k1("sphere",
                   FormField(1, lambda p: OneFormValue(-math.sin(p.c1), 0.0)),
                   t)
    for phi in (0.6, 1.2, 2.1):
        got = out.fn(Point("sphere", phi, 0.5))
        assert abs(got.a - math.exp(-2 * t) * -math.sin(phi)) < 1e-4
        assert abs(got.b) < 1e-4


def test_evolution_commutes_with_differential():
    t = 0.5
    ev0 = apply_k0("sphere", FormField(0, lambda p: math.cos(p.c1)), t)
    ev1 = apply_k1("sphere",
                   FormField(1, lambda p: OneFormValue(-math.sin(p.c1), 0.0)),
                   t)
    h = 1e-4
    for phi, th in ((0.8, 0.2), (1.5, 1.1)):
        da = (ev0.fn(Point("sphere", phi + h, th))
              - ev0.fn(Point("sphere", phi - h, th))) / (2 * h)
        db = (ev0.fn(Point("sphere", phi, th + h))
              - ev0.fn(Point("sphere", phi, th - h))) / (2 * h) / math.sin(phi)
        v = ev1.fn(Point("sphere", phi, th))
        assert abs(da - v.a) < 1e-4
        assert abs(db - v.b) < 1e-4


def _schmidt(n, m, c, s):
    """Schmidt semi-normalized P_n^m(c), |P| <= 1, with s = sqrt(1 - c^2)."""
    pmm = 1.0
    for k in range(1, m + 1):
        pmm *= s * (math.sqrt((2 * k - 1) / (2 * k)) if k > 1 else 1.0)
    if n == m:
        return pmm
    prev, cur = pmm, math.sqrt(2 * m + 1) * c * pmm
    for k in range(m + 2, n + 1):
        prev, cur = cur, (((2 * k - 1) * c * cur - math.sqrt((k - 1) ** 2 - m * m) * prev)
                          / math.sqrt(k * k - m * m))
    return cur


_HARD_TIMES = (1e-3, 1e-2, 0.3)
_HARD_CASES = ([("sphere", n, m, t) for n, m in ((1, 0), (3, 2), (10, 5), (20, 20),
                                                  (40, 0), (40, 17), (40, 40))
                for t in _HARD_TIMES]
               + [(f"gauss-k{deg}", a, 0, t) for a in (1.0, 4.0, 16.0, 64.0)
                  for t in _HARD_TIMES for deg in (0, 1)]
               + [("wave", b, k, t) for b, k in ((0.5, 4.0), (1.0, 10.0), (2.0, 20.0))
                  for t in _HARD_TIMES])

# Field calls the fixed-grid sampler that the nested one replaced made on
# each case: two passes, 64 x 128 + 96 x 192 on the sphere and 90 x 96 +
# 135 x 144 on the plane, or a third (144 x 288, 202 x 216) where listed.
_FIXED_TWO = {"sphere": 64 * 128 + 96 * 192, "plane": 90 * 96 + 135 * 144}
_FIXED_THREE = {"sphere": _FIXED_TWO["sphere"] + 144 * 288,
                "plane": _FIXED_TWO["plane"] + 202 * 216}
_FIXED_THIRD_PASS = {("sphere", n, m, 1e-3, tol) for n, m, tol in (
    (1, 0, 1e-8), (3, 2, 1e-8), (10, 5, 1e-8), (20, 20, 1e-8), (40, 0, 1e-6),
    (40, 0, 1e-8), (40, 17, 1e-6), (40, 17, 1e-8), (40, 40, 1e-6), (40, 40, 1e-8))
} | {("gauss-k1", 64.0, 0, 0.3, 1e-8)}
# Where the field, not the kernel, sets the grid, doubling can cost more
# than growth by 1.5: these fields need about 100 radial nodes on the
# kernel's [0, 4.9].  The fixed grid resolved them on its first pass of 90
# nodes (135 for the third-pass case), but two nested passes agree only
# once the half rule of 127 does, at 255 nodes.
_DOUBLING_COSTS_MORE = {("gauss-k0", 64.0, 0, 0.3, 1e-6): 65280,
                        ("gauss-k0", 64.0, 0, 0.3, 1e-8): 65280,
                        ("gauss-k1", 64.0, 0, 0.3, 1e-6): 65280,
                        ("gauss-k1", 64.0, 0, 0.3, 1e-8): 130816,
                        ("gauss-k1", 16.0, 0, 0.3, 1e-8): 32640,
                        ("wave", 2.0, 20.0, 0.3, 1e-8): 32640}


def _hard_case(name, p1, p2, t):
    """(surface, degree, field, decay hint, evaluation point, exact value)."""
    if name == "sphere":
        n, m = p1, p2

        def fn(p):
            return _schmidt(n, m, math.cos(p.c1), math.sin(p.c1)) * math.cos(m * p.c2)

        x = Point("sphere", 1.1, 0.4)
        return "sphere", 0, fn, None, x, (math.exp(-n * (n + 1) * t) * fn(x),)
    x = Point("plane", 1.5, 0.3)
    if name == "wave":  # e^{-b r^2} cos(k x) spreads and damps in closed form
        b, k = p1, p2
        w = 1.0 + 4.0 * b * t
        exact = (math.cos(k * x.c1 * math.cos(x.c2) / w)
                 * math.exp(-(b * x.c1 ** 2 + t * k * k) / w) / w,)
        return ("plane", 0, lambda p: math.exp(-b * p.c1 ** 2) * math.cos(k * p.c1 * math.cos(p.c2)),
                DecayHint("gaussian", b, 1.0), x, exact)
    a, w = p1, 1.0 + 4.0 * p1 * t  # e^{-a r^2} at r = 1.5 and its differential
    if name == "gauss-k0":
        return ("plane", 0, lambda p: math.exp(-a * p.c1 ** 2), DecayHint("gaussian", a, 1.0),
                x, (math.exp(-a * 2.25 / w) / w,))
    return ("plane", 1, lambda p: OneFormValue(-2.0 * a * p.c1 * math.exp(-a * p.c1 ** 2), 0.0),
            DecayHint("gaussian", 0.5 * a, 1.25 * math.sqrt(a)), x,
            (-3.0 * a * math.exp(-a * 2.25 / w) / (w * w), 0.0))


@pytest.mark.parametrize("case", _HARD_CASES, ids=str)
def test_hard_fields_meet_their_tolerance_with_no_more_field_calls(case):
    """Sphere eigenfunctions up to degree 40, off-centre Gaussians up to
    a = 64 and Gaussian-modulated plane waves, against their closed-form
    evolutions; each case samples the field no more often than the fixed
    grid did, bar the six above, and no node twice."""
    kind, degree, fn, hint, x, exact = _hard_case(*case)
    for tol in (1e-6, 1e-8):
        calls = []

        def counted(p):
            calls.append(p)
            return fn(p)

        evolve = apply_k0 if degree == 0 else apply_k1
        got = evolve(kind, FormField(degree, counted, hint), case[3],
                     ToleranceBudget(abs_tol=tol)).fn(x)
        got = (got,) if degree == 0 else (got.a, got.b)
        assert max(abs(g - e) for g, e in zip(got, exact)) <= tol
        key = case + (tol,)
        fixed = (_FIXED_THREE if key in _FIXED_THIRD_PASS else _FIXED_TWO)[kind]
        assert len(calls) <= _DOUBLING_COSTS_MORE.get(key, fixed)
        assert len(set(calls)) == len(calls)


def _frozen_scalar(p):
    x, y = p.c1 * math.cos(p.c2), p.c1 * math.sin(p.c2)
    return math.exp(-p.c1 ** 2) * (1.0 + 0.3 * x + 0.1 * x * y)


def _frozen_form(p):
    g = math.exp(-p.c1 ** 2)
    return OneFormValue(g * math.cos(p.c2), g * (0.3 * p.c1 - math.sin(p.c2)))


def _frozen_sphere_form(p):
    # d(cos phi + 0.2 sin phi cos theta)
    return OneFormValue(-math.sin(p.c1) + 0.2 * math.cos(p.c1) * math.cos(p.c2),
                        -0.2 * math.sin(p.c2))


# Frozen before the per-point grid sampler existed: (apply_k0, apply_k1 a,
# apply_k1 b) at (0.7, 5.9), t = 0.5; the H2 apply_k1 at abs_tol 1e-6.  The
# H2 entry was refrozen when its radial kernels moved to the batched McKean
# route, and every entry when the nested sampler replaced the fixed grids:
# at most 6.1e-16 on the sphere and the plane, and on H2 1.5e-13 for
# apply_k0 and 3.2e-10 for apply_k1, whose cut now covers G_d's tail.  The
# H2 apply_k1 entries moved again, by 5.6e-17 and 2.8e-17 against abs_tol
# 1e-6, when McKean's w integral moved onto QK21 panels.
_FROZEN_EVOLUTIONS = {
    "sphere": (0.33175495592319043, -0.18480157416075255, 0.027508307704957977),
    "plane": (0.30094821566974006, 0.2625716289363291, 0.12566267318777705),
    "hyperbolic": (0.2639528497245808, 0.15535624931700312, 0.08336338958357899),
}


@pytest.mark.parametrize("kind", KINDS)
def test_evolved_fields_keep_their_bits(kind):
    if kind == "sphere":
        f0 = FormField(0, lambda p: math.cos(p.c1)
                       + 0.3 * math.sin(p.c1) * math.cos(p.c2 - 0.4))
        f1 = FormField(1, _frozen_sphere_form)
    else:
        f0 = FormField(0, _frozen_scalar, DecayHint("gaussian", 1.0, 1.4))
        f1 = FormField(1, _frozen_form, DecayHint("gaussian", 1.0, 1.0))
    budget1 = ToleranceBudget(abs_tol=1e-6 if kind == "hyperbolic" else 1e-8)
    x = Point(kind, 0.7, 5.9)
    v1 = apply_k1(kind, f1, 0.5, budget1).fn(x)
    assert (apply_k0(kind, f0, 0.5).fn(x), v1.a, v1.b) == _FROZEN_EVOLUTIONS[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_bad_field_values_raise_on_the_first_pass(kind):
    hint = DecayHint("bounded", 0.0, 1.0)
    calls = []

    def counted(value):
        def fn(p):
            calls.append(p)
            return value
        return fn

    for evolve, field, degree in ((apply_k0, FormField(0, counted(math.nan), hint), 0),
                                  (apply_k0, FormField(0, counted(-math.inf), hint), 0),
                                  (apply_k1, FormField(1, counted(OneFormValue(0.0, math.nan)),
                                                       hint), 1)):
        calls.clear()
        with pytest.raises(DomainError, match=f"degree-{degree} field .*non-finite"
                                              f".* {SurfaceKind.parse(kind).value} "):
            evolve(kind, field, 0.5).fn(Point(kind, 0.7, 0.2))
        # the first pass: the kernel-sized radial rule (7 nodes on the
        # sphere at t = 0.5, 31 on the planes) by 32 angles
        assert len(calls) == (7 if kind == "sphere" else 31) * 32
    calls.clear()
    with pytest.raises(DomainError, match="degree-1 field returned 'float'"):
        apply_k1(kind, FormField(1, counted(1.0), hint), 0.5).fn(Point(kind, 0.7, 0.2))
    assert len(calls) == 1


def test_sphere_apply_k0_streams_its_samples():
    # A list of every Point of one 96 x 192 pass alone would take ~5 MB.
    evolved = apply_k0("sphere", FormField(0, lambda p: math.cos(p.c1)), 0.3)
    x = Point("sphere", 0.7, 0.2)
    evolved.fn(x)  # builds the cached quadrature rules
    tracemalloc.start()
    try:
        evolved.fn(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_heat_residual_of_the_kernels():
    """The kernels themselves solve the heat equation; the degree-1 row
    exercises the curvature coupling between the radial and angular parts."""
    budget = ToleranceBudget(abs_tol=1e-11)
    kind = "plane"
    x0 = Point(kind, 0.3, 0.1)
    xp = Point(kind, 1.1, 0.9)
    t = 0.45
    fields0 = [FormField(0, lambda p, T=T: k0(kind, x0, p, T, budget).value)
               for T in (t - 1e-3, t, t + 1e-3)]
    assert heat_residual(kind, fields0, xp, 1e-3, 1e-2) < 1e-3

    v = np.array([0.6, 0.8])

    def omega(p, T):
        row = v @ k1(kind, x0, p, T, budget).matrix.as_array()
        return OneFormValue(float(row[0]), float(row[1]))

    fields1 = [FormField(1, lambda p, T=T: omega(p, T))
               for T in (t - 1e-3, t, t + 1e-3)]
    assert heat_residual(kind, fields1, xp, 1e-3, 1e-2) < 1e-3


@pytest.mark.parametrize("steps", [(math.nan, 1e-2), (math.inf, 1e-2),
                                   (1e-3, math.nan), (1e-3, math.inf)])
def test_heat_residual_needs_finite_steps(steps):
    fields = [FormField(0, lambda p: math.cos(p.c1))] * 3
    with pytest.raises(DomainError, match="step sizes must be finite"):
        heat_residual("plane", fields, Point("plane", 0.5, 0.1), *steps)


@pytest.mark.parametrize("evolve,kind,degree,rate,t", [
    (apply_k0, "plane", 0, 10.0, 10.0), (apply_k1, "hyperbolic", 1, 30.0, 1.0)])
def test_an_exp_hint_past_the_float_range_leaves_the_evolved_field_without_one(
        evolve, kind, degree, rate, t):
    """The evolved bound 2 C e^{a^2 t} overflows a float, so the evolved
    field carries no hint, and evolving it again on a noncompact surface
    asks for one."""
    value = 0.0 if degree == 0 else OneFormValue(0.0, 0.0)
    evolved = evolve(kind, FormField(degree, lambda p: value,
                                     DecayHint("exp", rate, 1.0)), t)
    assert evolved.decay is None
    with pytest.raises(DecayHintError):
        evolve(kind, evolved, t)


def test_heat_residual_samples_each_time_neighbour_once():
    calls = {"before": 0, "mid": 0, "after": 0}

    def snapshot(name):
        def fn(p):
            calls[name] += 1
            return OneFormValue(math.cos(p.c1), math.sin(p.c1) * math.cos(p.c2))
        return FormField(1, fn)

    fields = [snapshot(name) for name in ("before", "mid", "after")]
    heat_residual("sphere", fields, Point("sphere", 1.0, 0.5))
    assert calls == {"before": 1, "mid": 5, "after": 1}


def _pole_jump(p):
    return math.exp(-p.c1 ** 2) * (1.0 + 0.2 * math.cos(p.c2))


def test_unsettled_kernel_application_reports_its_last_change():
    """exp(-r^2)(1 + 0.2 cos theta) jumps at the pole, so refinement cannot
    settle at 1e-9; the error carries the change reached, not zero."""
    hint = DecayHint("gaussian", 1.0, 1.2)
    budget = ToleranceBudget(abs_tol=1e-9)
    scalar = FormField(0, _pole_jump, hint)
    form = FormField(1, lambda p: OneFormValue(_pole_jump(p), 0.0), hint)
    for field in (apply_k0("plane", scalar, 0.1, budget),
                  apply_k1("plane", form, 0.1, budget)):
        with pytest.raises(NonconvergenceError) as info:
            field(Point("plane", 0.3, 0.0))
        assert info.value.achieved > info.value.requested == 5e-10


def test_mckean_refinement_failure_is_in_kernel_units(monkeypatch):
    """Block sums that alternate 0, c, 0, ... differ by c each round, and
    the failure reports that change against the quadrature's share of the
    tolerance."""
    passes = iter(range(100))
    c = 3.0e-3

    def block(ds, w, wts, t, generator, di_coefs):
        # one column per rule, each rule a pass of its own
        rows = np.empty((3 if generator else 1, ds.size, wts.shape[1]))
        for rule in range(wts.shape[1]):
            rows[..., rule] = c * (next(passes) % 2)
        return rows, np.abs(rows)

    monkeypatch.setattr(hyperbolic, "_mckean_block", block)
    t, tol = 0.01, 1e-8
    for generator in (False, True):
        with pytest.raises(NonconvergenceError) as info:
            hyperbolic._h2_mckean([0.5], t, ToleranceBudget(abs_tol=tol), generator)
        assert info.value.achieved == pytest.approx(c)
        assert info.value.requested == 0.5 * tol


def test_mckean_each_pass_evaluates_one_grid(monkeypatch):
    """A pass evaluates its own grid only: a first pass whose K21 and G10
    sums disagree is followed by the 2-split grid alone, which is then
    accepted."""
    splits = []
    grid = hyperbolic._mckean_grid

    def counted_grid(limit, fine, n_split):
        splits.append(n_split)
        return grid(limit, fine, n_split)

    values = iter([3.0e-3, 0.0, 0.0, 0.0])  # (K21, G10) per pass

    def block(ds, w, wts, t, generator, di_coefs):
        rows = np.empty((1, ds.size, wts.shape[1]))
        for rule in range(wts.shape[1]):
            rows[..., rule] = next(values)
        return rows, np.abs(rows)

    monkeypatch.setattr(hyperbolic, "_mckean_grid", counted_grid)
    monkeypatch.setattr(hyperbolic, "_mckean_block", block)
    hyperbolic._h2_mckean([0.5], 0.01, ToleranceBudget(abs_tol=1e-8))
    assert splits == [1, 2]


def test_h2_k1_at_small_time_and_separation_meets_a_tight_request():
    # k1 multiplies the G_d bound by coth d ~ 140 here; the McKean rows
    # carry one bound each, so K0's roundoff (K0 ~ 80) is not amplified.
    x = Point("hyperbolic", 0.053893574259596455, 4.3586909126399895)
    y = Point("hyperbolic", 0.060122155357255264, 4.3240697040925475)
    t = 0.001032441547219743
    tight = k1("hyperbolic", x, y, t, ToleranceBudget(abs_tol=1e-10))
    loose = k1("hyperbolic", x, y, t, ToleranceBudget(abs_tol=1e-8))
    diff = np.abs(tight.matrix.as_array() - loose.matrix.as_array()).max()
    assert diff <= tight.err_est + loose.err_est


def test_h2_k1_meets_a_tight_request_at_small_time_and_separation():
    """d = 0.003, t = 1e-3, abs_tol 1e-12: the spectral route reported
    err_est 8e-9 here; the McKean rows meet the request and agree with that
    route within the two bounds."""
    x, y = Point("hyperbolic", 0.4, 0.3), Point("hyperbolic", 0.403, 0.3)
    budget = ToleranceBudget(abs_tol=1e-12)
    served = k1("hyperbolic", x, y, 1e-3, budget)
    assert served.err_est <= 1e-12
    d = distance("hyperbolic", x, y)
    oracle = kernels._k1_apart(SurfaceKind.HYPERBOLIC, x, y, d, 1e-3, budget,
                               hyperbolic._h2_spectral)
    gap = np.abs(served.matrix.as_array() - oracle.matrix.as_array()).max()
    assert gap <= served.err_est + oracle.err_est
