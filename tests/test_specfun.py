import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatforms import specfun
from heatforms.errors import DecayHintError, DomainError, NonconvergenceError
from heatforms.quadrature import DecayHint, ToleranceBudget
from heatforms.specfun import (RadialProfile, SpectralParameter,
                               _conical_many, _erfcx, _forward_with_error,
                               _inverse_with_error,
                               _mehler_dirichlet_eval, conical_p, conical_p1,
                               legendre_p, legendre_p1, mehler_fock_forward,
                               mehler_fock_inverse)
from heatforms.verify import PROFILES

TIGHT = ToleranceBudget(abs_tol=1e-12)


def test_legendre_closed_forms():
    assert legendre_p(0, 0.3) == 1.0
    assert abs(legendre_p(2, 0.5) - -0.125) < 1e-15
    x = 0.37
    assert abs(legendre_p(3, x) - 0.5 * (5 * x ** 3 - 3 * x)) < 1e-14
    xs = np.array([-0.9, 0.0, 0.9])
    np.testing.assert_allclose(legendre_p(5, -xs), -legendre_p(5, xs),
                               atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_legendre_p1_is_phi_derivative(n):
    # with the chosen phase, P^1_n(cos phi) = d/dphi P_n(cos phi)
    h = 1e-6
    for phi in (0.4, 1.2, 2.3):
        fd = (legendre_p(n, math.cos(phi + h))
              - legendre_p(n, math.cos(phi - h))) / (2 * h)
        assert abs(float(legendre_p1(n, math.cos(phi))) - fd) < 1e-8


def test_legendre_domain_checks():
    with pytest.raises(DomainError):
        legendre_p(-1, 0.5)
    with pytest.raises(DomainError):
        legendre_p(2, 1.5)


# Values frozen from 40-digit evaluations of the Legendre function of
# complex degree -1/2 + i rho (mpmath legenp, type 3; P1 by differentiating
# it in r).  A radius takes the series when s = sinh^2(r/2) <= 0.5 and
# s (1/4 + rho^2) <= 0.3, so the branch seam sits at r ~ 1.317 for rho = 0,
# 0.5253 for rho = 2 and 0.1094 for rho = 10; each seam has a case 0.002 to
# either side.  The pair at rho = 0, r ~ 1.9 sat on the seam of an older
# rule without the s <= 0.5 condition.
CONICAL_CASES = [
    (0.5, 1.0, 0.8835378988482238, -0.21692422417246043),
    (0.0, 1.89, 0.8139424270069399, -0.16468385332675511),
    (0.0, 1.9, 0.8122940426711591, -0.16499204951667526),
    (2.0, 2.5, -0.12212413213329544, 0.4502033992746009),
    (10.0, 1.5, -0.010994272013760012, -1.7197795007795473),
    (0.0, 0.3, 0.9944038339797285, -0.03711667229682594),
    (0.0, 1.315, 0.9015537532066531, -0.1365364442960948),
    (0.0, 1.319, 0.90100706701611, -0.1368064734691606),
    (2.0, 0.5233, 0.732489886044801, -0.9366260234155873),
    (2.0, 0.5273, 0.7287341148263909, -0.941250828213623),
    (10.0, 0.1074, 0.7312701261308377, -4.6374234498531735),
    (10.0, 0.1114, 0.7124844092989557, -4.754505363529805),
    (0.0, 0.5, 0.9845951956958332, -0.060752573255464286),
    (1.0, 1e-05, 0.99999999996875, -6.249999999850261e-06),
    (3.0, 9.0, 0.003663644037529625, -0.020555874867682535),
    (25.0, 2.0, 0.041250609170405295, 1.8019969054154317),
    (25.0, 3.0, 0.018801495699062264, 1.1600724521457748),
    (40.0, 0.4, -0.1725578699918885, -3.559710402621209),
]


@pytest.mark.parametrize("rho,r,p_ref,p1_ref", CONICAL_CASES)
def test_conical_frozen_values(rho, r, p_ref, p1_ref):
    assert abs(conical_p(rho, r, TIGHT) - p_ref) < 1e-12
    assert abs(conical_p1(rho, r, TIGHT) - p1_ref) < 1e-11


def test_conical_at_origin():
    assert conical_p(2.3, 0.0, TIGHT) == 1.0
    assert conical_p1(2.3, 0.0, TIGHT) == 0.0


def test_conical_even_in_rho():
    assert conical_p(-0.7, 1.3, TIGHT) == conical_p(0.7, 1.3, TIGHT)
    with pytest.raises(DomainError):
        SpectralParameter(-0.5)
    assert SpectralParameter(0.7).rho == 0.7


def test_conical_is_laplace_eigenfunction():
    # f'' + coth(r) f' + (1/4 + rho^2) f = 0 for f = conical_p(rho, .)
    h = 1e-4
    for rho, r in ((0.8, 0.9), (3.0, 1.7), (0.2, 2.4)):
        fp = conical_p(rho, r + h, TIGHT)
        f0 = conical_p(rho, r, TIGHT)
        fm = conical_p(rho, r - h, TIGHT)
        lap = ((fp - 2 * f0 + fm) / h ** 2
               + (fp - fm) / (2 * h) / math.tanh(r))
        assert abs(lap + (0.25 + rho * rho) * f0) < 1e-6


def test_conical_p1_is_radial_derivative():
    h = 1e-5
    for rho, r in ((0.5, 0.6), (4.0, 2.2)):
        fd = (conical_p(rho, r + h, TIGHT)
              - conical_p(rho, r - h, TIGHT)) / (2 * h)
        assert abs(conical_p1(rho, r, TIGHT) - fd) < 1e-8


def test_forward_transform_frozen_value():
    val = mehler_fock_forward(PROFILES["gaussian"], 0.5,
                              ToleranceBudget(abs_tol=1e-9))
    assert abs(val - -0.8130183293610438) < 1e-11


def test_forward_rejects_lying_profiles():
    bad = RadialProfile(fn=lambda r: math.exp(-0.1 * r),
                        decay=DecayHint("gaussian", rate=5.0, bound=0.1),
                        name="bad")
    with pytest.raises(DomainError):
        mehler_fock_forward(bad, 1.0)


def test_inverse_needs_positive_radius():
    with pytest.raises(DomainError):
        mehler_fock_inverse(lambda rho: 0.0, 0.0)


@pytest.mark.parametrize("name", ["gaussian", "cubic"])
def test_roundtrip_reproduces_profile(name):
    """Forward then inverse on profiles regular at the origin.

    Such profiles have spectral data decaying like exp(-pi rho), so the
    reconstruction error is set by the quadrature budget alone.
    """
    profile = PROFILES[name]
    budget = ToleranceBudget(abs_tol=1e-6)
    cache = {}

    def fhat(rho):
        key = float(rho)
        if key not in cache:
            cache[key] = mehler_fock_forward(profile, key, budget)
        return cache[key]

    for r in (0.5, 1.2, 2.0):
        back = mehler_fock_inverse(fhat, r, budget,
                                   gaussian_rate=0.2, bound=10.0)
        assert abs(back - profile(r)) < 1e-5


# ---------------------------------------------------------------------------
# one conical evaluator for arrays of rho and arrays of radii

def _seam(rho):
    """Radius where the conical evaluation switches from series to integral."""
    return 2.0 * math.asinh(math.sqrt(min(0.5, 0.3 / (0.25 + rho * rho))))


@settings(max_examples=40, deadline=None)
@given(rho=st.floats(0.0, 8.0),
       extra=st.lists(st.floats(0.0, 4.0), max_size=6),
       gap=st.floats(1e-6, 0.2),
       exponent=st.integers(-12, -6))
def test_radius_batch_matches_single_radius_calls(rho, extra, gap, exponent):
    budget = ToleranceBudget(abs_tol=10.0 ** exponent)
    radii = np.array(extra + [_seam(rho) * (1.0 - gap), _seam(rho) * (1.0 + gap)])
    p, p1, _ = _conical_many(np.array([rho]), radii, budget, need_p1=True)
    assert p.shape == p1.shape == (radii.size, 1)
    for i, r in enumerate(radii):
        assert abs(p[i, 0] - conical_p(rho, r, budget)) <= budget.abs_tol
        assert abs(p1[i, 0] - conical_p1(rho, r, budget)) <= budget.abs_tol


@pytest.mark.parametrize("r", [0.0, 0.01, 0.3, 1.5, 6.0])
def test_single_radius_batch_keeps_the_scalar_bits(r):
    rhos = np.linspace(0.0, 12.0, 22)
    p, p1, err = _conical_many(rhos, r, TIGHT, need_p1=True)
    bp, bp1, berr = _conical_many(rhos, np.array([r]), TIGHT, need_p1=True)
    assert bp.shape == bp1.shape == (1, rhos.size)
    assert np.array_equal(bp[0], p) and np.array_equal(bp1[0], p1)
    assert berr == err
    for rho in (0.0, 3.5, 12.0):
        one = np.array([rho])
        assert conical_p(rho, r, TIGHT) == _conical_many(one, [r], TIGHT, False)[0][0, 0]
        assert conical_p1(rho, r, TIGHT) == _conical_many(one, [r], TIGHT, True)[1][0, 0]


def test_conical_roundoff_floor_accepts_the_achievable_change():
    # |P1| reaches ~12 here, so grid doublings keep changing it by a few
    # ulps of that size; without the floor a 1e-16 request can never be met
    rhos = np.linspace(0.0, 30.0, 22)
    p, p1, err = _conical_many(rhos, 0.1, ToleranceBudget(abs_tol=1e-16),
                               need_p1=True)
    assert np.max(np.abs(p1)) > 10.0
    assert 1e-16 < err <= 64.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(p1)))
    ref_p, ref_p1, _ = _conical_many(rhos, 0.1, ToleranceBudget(abs_tol=1e-12),
                                     need_p1=True)
    np.testing.assert_allclose(p, ref_p, rtol=0, atol=1e-12)
    np.testing.assert_allclose(p1, ref_p1, rtol=0, atol=1e-12)


def test_conical_rejects_bad_radii():
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(DomainError):
            _conical_many(np.array([1.0]), np.array([0.5, bad]), TIGHT, True)


def test_dirichlet_memory_does_not_grow_with_the_rho_count():
    # 4096 panels: a 22-by-86016 array would take 15.1 MB; rho blocks of
    # 4 rows keep the peak at that of a 4-rho evaluation
    def peak(rhos):
        tracemalloc.start()
        try:
            out = _mehler_dirichlet_eval(rhos, np.array(3.0), 4096, True)
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    rhos = np.linspace(0.0, 12.0, 22)
    few, _ = peak(rhos[:4])
    many, ((p, p1), _) = peak(rhos)
    assert many <= 1.1 * few
    for i in (0, 9, 21):
        (one_p, one_p1), _ = _mehler_dirichlet_eval(rhos[i:i + 1], np.array(3.0),
                                                    4096, True)
        assert abs(p[i] - one_p[0]) <= 1e-14 and abs(p1[i] - one_p1[0]) <= 1e-14


def test_dirichlet_memory_does_not_grow_with_the_radius_count():
    # 32 panels of 21 nodes per radius: radius blocks of 24 keep the peak of
    # 300 radii near that of 40
    rhos = np.linspace(0.0, 12.0, 22)

    def peak(radii):
        tracemalloc.start()
        try:
            out = _mehler_dirichlet_eval(rhos, radii, 32, True)
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    radii = np.linspace(0.1, 8.0, 300)
    few, _ = peak(radii[:40])
    many, ((p, p1), _) = peak(radii)
    assert many <= 1.2 * few
    for i in (0, 150, 299):
        (one_p, one_p1), _ = _mehler_dirichlet_eval(rhos, radii[i], 32, True)
        assert np.abs(p[i] - one_p).max() <= 1e-14
        assert np.abs(p1[i] - one_p1).max() <= 1e-14


# ---------------------------------------------------------------------------
# one K21 pass per conical integral

def _count_passes(monkeypatch):
    """Panel counts of the evaluator calls, one list per conical integral."""
    calls = []
    evaluate, integral = specfun._mehler_dirichlet_eval, specfun._conical_integral

    def counted_eval(rhos, radii, n_panels, need_p1, tables=None, scale=None):
        calls[-1].append(n_panels)
        return evaluate(rhos, radii, n_panels, need_p1, tables, scale)

    def counted_integral(*args):
        calls.append([])
        return integral(*args)

    monkeypatch.setattr(specfun, "_mehler_dirichlet_eval", counted_eval)
    monkeypatch.setattr(specfun, "_conical_integral", counted_integral)
    return calls


def test_transform_cycle_evaluates_each_conical_integral_once(monkeypatch):
    # the benchmark's transform cycle: 8 inverses of heat data and one
    # forward transform of each profile, at tolerances 1e-6 and 1e-8
    calls = _count_passes(monkeypatch)
    rng = np.random.default_rng(1)
    for _ in range(8):
        r, s = 0.2 + 2.8 * rng.uniform(), 0.3 + 0.7 * rng.uniform()
        budget = ToleranceBudget(abs_tol=float(rng.choice([1e-6, 1e-8])))
        mehler_fock_inverse(lambda rho: (0.25 + rho * rho)
                            * math.exp(-(0.25 + rho * rho) * s),
                            r, budget, gaussian_rate=0.5 * s, bound=2.0 / s)
    for name in ("gaussian", "cubic"):
        budget = ToleranceBudget(abs_tol=float(rng.choice([1e-6, 1e-8])))
        mehler_fock_forward(PROFILES[name], 8.0 * rng.uniform(), budget)
    assert len(calls) >= 27
    assert all(len(panels) == 1 for panels in calls)


def test_failed_embedded_check_doubles_the_panels(monkeypatch):
    # rho r = 20 starts on 6 panels, where G10 misses 1e-14; 12 meet it.
    # err adds the sums' roundoff, 8 eps times |P1 terms| (about 44 here)
    calls = _count_passes(monkeypatch)
    budget = ToleranceBudget(abs_tol=1e-14)
    p, p1, err = _conical_many(np.array([40.0]), 0.5, budget, need_p1=True)
    assert calls == [[6, 12]] and err <= 1e-14 + 8.0 * specfun._EPS * 50.0
    (ref_p, ref_p1), _ = specfun._mehler_dirichlet_eval(
        np.array([40.0]), np.array(0.5), 96, True)
    assert abs(p[0] - ref_p[0]) <= 1e-14 and abs(p1[0] - ref_p1[0]) <= 1e-14


def test_conical_branches_agree_within_their_err_at_the_seam():
    """On the series side of the seam both branches apply; their values may
    differ by a few ulps of sums of large terms, which each err charges as
    8 eps times its sum of |terms|.  Without that charge the two disagreed
    beyond their summed err in most of these cases."""
    for rho in (0.0, 0.5, 2.0, 10.0, 25.0, 40.0):
        for r in np.linspace(0.005, 1.2, 40):
            s_half = math.sinh(0.5 * r) ** 2
            if s_half > 0.5 or s_half * (0.25 + rho * rho) > 0.3:
                continue
            rhos, radii = np.array([rho]), np.array(r)
            series = specfun._conical_series(rhos, radii, np.array(s_half), True)
            integral = specfun._conical_integral(rhos, radii, rho, TIGHT, True)
            err = series[2] + integral[2]
            assert abs(series[0][0] - integral[0][0]) <= err
            assert abs(series[1][0] - integral[1][0]) <= err


def test_exhausted_conical_refinement_reports_its_change(monkeypatch):
    # an embedded rule 1e-6 off never agrees: after max_quad_depth grown
    # passes the change met is reported against the request
    panels = specfun._kronrod_panels
    monkeypatch.setattr(specfun, "_kronrod_panels",
                        lambda n: (panels(n)[0], panels(n)[1] * [1.0, 1.0 + 1e-6]))
    calls = _count_passes(monkeypatch)
    budget = ToleranceBudget(abs_tol=1e-10, max_quad_depth=3)
    with pytest.raises(NonconvergenceError) as info:
        _conical_many(np.array([2.0]), 1.5, budget, need_p1=True)
    assert calls == [[4, 8, 16, 32]]
    assert info.value.requested == 1e-10 and 1e-7 < info.value.achieved < 1e-5


# ---------------------------------------------------------------------------
# transform error bars

# 2 pi int E_rho(r) f(r) sinh(r) dr in 30-digit arithmetic (mpmath quad with
# E from legenp of order one, type 3), for the two named profiles.
FORWARD_CASES = [
    ("gaussian", 0.5, -0.8130183293610438),
    ("gaussian", 3.0, -1.4028314262978605),
    ("cubic", 0.5, -1.648722162885666),
    ("cubic", 3.0, 0.766754711965913),
]


@pytest.mark.parametrize("name,rho,ref", FORWARD_CASES)
@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_forward_err_est_bounds_the_error(name, rho, ref, tol):
    budget = ToleranceBudget(abs_tol=tol)
    value, err = _forward_with_error(PROFILES[name], rho, budget)
    assert abs(value - ref) <= err
    public = mehler_fock_forward(PROFILES[name], rho, budget)
    assert type(public) is float and public == value


@pytest.mark.parametrize("decay", [DecayHint("bounded", 0.0, 1.0),
                                   DecayHint("exp", 1.0, 1.0),
                                   DecayHint("exp", 0.5, 2.0)])
def test_forward_rejects_hints_the_area_growth_defeats(decay):
    """The cut needs the hint's area tail on H2 to be finite."""
    profile = RadialProfile(fn=lambda r: 0.0, decay=decay, name="weak")
    with pytest.raises(DecayHintError):
        mehler_fock_forward(profile, 1.0)


@pytest.mark.parametrize("tol", [1e-5, 1e-7])
def test_inverse_err_est_bounds_the_error(tol):
    profile = PROFILES["gaussian"]
    exact = ToleranceBudget(abs_tol=1e-11)
    cache = {}

    def fhat(rho):
        if rho not in cache:
            cache[rho] = mehler_fock_forward(profile, rho, exact)
        return cache[rho]

    budget = ToleranceBudget(abs_tol=tol)
    for r in (0.4, 1.3):
        value, err = _inverse_with_error(fhat, r, budget, gaussian_rate=0.2,
                                         bound=10.0)
        assert abs(value - profile(r)) <= err
        assert mehler_fock_inverse(fhat, r, budget, gaussian_rate=0.2,
                                   bound=10.0) == value


def test_inverse_of_an_fhat_bounded_by_zero_is_zero():
    assert _inverse_with_error(lambda rho: 0.0, 1.0, bound=0.0) == (0.0, 0.0)
    assert mehler_fock_inverse(lambda rho: 0.0, 1.0, bound=0.0) == 0.0


def test_erfcx_is_pinned_to_the_scaled_erfc():
    # exp(x^2) erfc(x) loses relative accuracy to erfc's underflow only
    # past x ~ 26; below that it is a faithful reference.
    xs = np.concatenate([np.linspace(0.0, 6.0, 601), [0.46875, 4.0, 10.0, 25.0],
                         np.logspace(-12, -1, 12)])
    ref = np.array([math.exp(x * x) * math.erfc(x) for x in xs])
    assert np.all(np.abs(_erfcx(xs) - ref) <= 5e-15 * ref)
    # far out erfcx(x) = (1 - 1/(2x^2) + 3/(4x^4) - ...) / (sqrt(pi) x), and
    # nothing overflows
    big = np.array([1e3, 1e8, 1e150, 1e300])
    inv_sq = (1.0 / big) ** 2
    asym = (1.0 - 0.5 * inv_sq + 0.75 * inv_sq ** 2) / (math.sqrt(math.pi) * big)
    assert np.all(np.abs(_erfcx(big) - asym) <= 1e-15 * asym)
    assert _erfcx(np.array([0.0]))[0] == 1.0
