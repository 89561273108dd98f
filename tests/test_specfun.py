import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatforms import quadrature, specfun
from heatforms.errors import DecayHintError, DomainError, NonconvergenceError
from heatforms.hyperbolic import _h2_mckean
from heatforms.quadrature import DecayHint, ToleranceBudget
from heatforms.specfun import (RadialProfile, SpectralParameter,
                               _conical_many, _erfcx, _forward_with_error,
                               _inverse_with_error,
                               _mehler_dirichlet_eval, conical_p, conical_p1,
                               mehler_fock_forward, mehler_fock_inverse)
from heatforms.verify import PROFILES

TIGHT = ToleranceBudget(abs_tol=1e-12)


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


def test_radial_callbacks_float_cannot_take_raise_a_domain_error():
    hint = DecayHint("gaussian", rate=1.0, bound=1.0)
    with pytest.raises(DomainError, match="radial profile returned 'NoneType'"):
        mehler_fock_forward(RadialProfile(lambda r: None, hint), 1.0)
    with pytest.raises(DomainError, match="fhat returned 'str'"):
        mehler_fock_inverse(lambda rho: "x", 1.0)
    # float() would cut a numpy complex to its real part
    with pytest.raises(DomainError, match="radial profile returned 'complex128'"):
        mehler_fock_forward(RadialProfile(lambda r: np.complex128(r * 1j), hint), 1.0)
    with pytest.raises(DomainError, match="fhat returned 'complex128'"):
        mehler_fock_inverse(lambda rho: np.complex128(math.exp(-rho * rho) + 1j), 1.0)
    # np.fromiter reads a None as NaN; the batch is read again to name it
    with pytest.raises(DomainError, match="fhat returned 'NoneType'"):
        mehler_fock_inverse(lambda rho: None, 1.0)
    with pytest.raises(DomainError, match="radial profile returned 'NoneType'"):
        mehler_fock_forward(RadialProfile(lambda r: None if r < 1.0 else 0.0, hint), 1.0)
    # a NaN is a float: the quadrature refuses it as non-finite
    with pytest.raises(DomainError, match="non-finite"):
        mehler_fock_forward(RadialProfile(lambda r: float("nan"), hint), 1.0)
    with pytest.raises(DomainError, match="non-finite"):
        mehler_fock_inverse(lambda rho: float("nan"), 1.0)
    # an error raised inside a callback propagates unchanged, at once
    error = ValueError("a user's own error")
    calls = []

    def raising(x):
        calls.append(x)
        raise error
    for call in (lambda: mehler_fock_forward(RadialProfile(raising, hint), 1.0),
                 lambda: mehler_fock_inverse(raising, 1.0)):
        calls.clear()
        with pytest.raises(ValueError) as got:
            call()
        assert got.value is error and len(calls) == 1


def test_inverse_needs_positive_radius():
    with pytest.raises(DomainError):
        mehler_fock_inverse(lambda rho: 0.0, 0.0)


@pytest.mark.parametrize("r,rate", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf)])
def test_inverse_needs_finite_radius_and_rate(r, rate):
    with pytest.raises(DomainError):
        mehler_fock_inverse(lambda rho: math.exp(-rho * rho), r, gaussian_rate=rate)


def test_inverse_refuses_a_seeding_above_the_panel_cap():
    # at r = 1e9 the rho panels would be 2 pi / r wide: 7.6e8 of them
    with pytest.raises(DomainError, match="allowed"):
        mehler_fock_inverse(lambda rho: math.exp(-rho * rho), 1e9, gaussian_rate=1.0,
                            bound=1.0)


def test_inverse_err_est_is_a_float_after_a_bisection():
    _, err, _ = _inverse_with_error(lambda rho: math.exp(-rho * rho), 1.0,
                                    ToleranceBudget(1e-12), 1.0, 1.0)
    assert type(err) is float


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
def test_conical_p_and_p1_equal_their_one_entry_batch(r):
    rhos = np.linspace(0.0, 12.0, 22)
    p, p1, _ = _conical_many(rhos, np.array([r]), TIGHT, need_p1=True)
    assert p.shape == p1.shape == (1, rhos.size)
    for rho in (0.0, 3.5, 12.0):
        one, radii = np.array([rho]), np.array([r])
        assert conical_p(rho, r, TIGHT) == _conical_many(one, radii, TIGHT, False)[0][0, 0]
        assert conical_p1(rho, r, TIGHT) == _conical_many(one, radii, TIGHT, True)[1][0, 0]


def test_conical_roundoff_floor_accepts_the_achievable_change():
    # |P1| reaches ~12 here, so grid doublings keep changing it by a few
    # ulps of that size; without the floor a 1e-16 request can never be met
    rhos = np.linspace(0.0, 30.0, 22)
    p, p1, err = _conical_many(rhos, np.array([0.1]), ToleranceBudget(abs_tol=1e-16),
                               need_p1=True)
    assert np.max(np.abs(p1)) > 10.0
    assert 1e-16 < err <= 64.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(p1)))
    ref_p, ref_p1, _ = _conical_many(rhos, np.array([0.1]),
                                     ToleranceBudget(abs_tol=1e-12), need_p1=True)
    np.testing.assert_allclose(p, ref_p, rtol=0, atol=1e-12)
    np.testing.assert_allclose(p1, ref_p1, rtol=0, atol=1e-12)


def test_conical_rejects_bad_radii():
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(DomainError):
            _conical_many(np.array([1.0]), np.array([0.5, bad]), TIGHT, True)


def test_rho_whose_square_overflows_is_refused():
    """rho^2 overflows past 1.34e154: conical_p and conical_p1 returned NaN
    there and the forward transform a NonconvergenceError carrying NaN."""
    for rho in (1e155, -1e155):
        for call in (lambda: conical_p(rho, 1.0), lambda: conical_p1(rho, 1.0),
                     lambda: mehler_fock_forward(PROFILES["gaussian"], rho)):
            with pytest.raises(DomainError):
                call()
    with pytest.raises(DomainError):
        SpectralParameter(1e155)
    # rho^2 is finite here, but pi * bound * (1.25 + rho^2) in the area tail
    # of the r integral is not: the tail read NaN
    for rho in (7.7e153, 1e154, 1.34e154):
        with pytest.raises(DomainError, match="overflows"):
            mehler_fock_forward(PROFILES["gaussian"], rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(conical_p(1e154, 1.0))
        assert math.isfinite(conical_p1(1e154, 1.0))
        assert math.isfinite(SpectralParameter(1e154).lam)


def test_dirichlet_memory_does_not_grow_with_the_rho_count():
    # 4096 panels: a 22-by-86016 array would take 15.1 MB; rho blocks of
    # 4 rows keep the peak at that of a 4-rho evaluation
    def peak(rhos):
        tracemalloc.start()
        try:
            out = _mehler_dirichlet_eval(rhos, np.array([3.0]), 4096, True, np.zeros(1))
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    rhos = np.linspace(0.0, 12.0, 22)
    few, _ = peak(rhos[:4])
    many, ((p, p1), _) = peak(rhos)
    assert many <= 1.1 * few
    for i in (0, 9, 21):
        (one_p, one_p1), _ = _mehler_dirichlet_eval(rhos[i:i + 1], np.array([3.0]),
                                                    4096, True, np.zeros(1))
        assert abs(p[0, i] - one_p[0, 0]) <= 1e-14
        assert abs(p1[0, i] - one_p1[0, 0]) <= 1e-14


def test_dirichlet_memory_does_not_grow_with_the_radius_count():
    # 32 panels of 21 nodes per radius: radius blocks of 24 keep the peak of
    # 300 radii near that of 40
    rhos = np.linspace(0.0, 12.0, 22)

    def peak(radii):
        tracemalloc.start()
        try:
            out = _mehler_dirichlet_eval(rhos, radii, 32, True, np.zeros(1))
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    radii = np.linspace(0.1, 8.0, 300)
    few, _ = peak(radii[:40])
    many, ((p, p1), _) = peak(radii)
    assert many <= 1.2 * few
    for i in (0, 150, 299):
        (one_p, one_p1), _ = _mehler_dirichlet_eval(rhos, radii[i:i + 1], 32, True,
                                                    np.zeros(1))
        assert np.abs(p[i] - one_p[0]).max() <= 1e-14
        assert np.abs(p1[i] - one_p1[0]).max() <= 1e-14


def test_blocks_of_panels_add_up_to_the_one_block_values():
    # 1600 panels take three blocks (780, 780, 40), 96 panels one; both
    # grids resolve these rho at r = 3, and the K21 sums of |terms| agree
    rhos = np.linspace(0.0, 12.0, 22)
    one, blocks = np.zeros(1), np.zeros(1)
    (p, p1), _ = _mehler_dirichlet_eval(rhos, np.array([3.0]), 96, True, one)
    (q, q1), _ = _mehler_dirichlet_eval(rhos, np.array([3.0]), 1600, True, blocks)
    assert np.abs(p - q).max() <= 1e-14 and np.abs(p1 - q1).max() <= 1e-14
    assert abs(blocks[0] - one[0]) <= 1e-12 * one[0]


def test_dirichlet_memory_does_not_grow_with_the_panel_count():
    # rho r / 4 at rho = 1e6, r = 0.3 asks for passes of 65536 and 131072
    # panels, 2.75 million nodes at one radius: blocks of panels keep the
    # traced peak below 100 MB
    tracemalloc.start()
    try:
        with pytest.raises(NonconvergenceError):
            specfun._conical_integral(np.array([1e6]), np.array([0.3]),
                                      ToleranceBudget(), True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


# ---------------------------------------------------------------------------
# one K21 pass per conical integral

def _count_passes(monkeypatch):
    """Panel counts of the evaluator calls, one list per conical integral."""
    calls = []
    evaluate, integral = specfun._mehler_dirichlet_eval, specfun._conical_integral

    def counted_eval(rhos, radii, n_panels, need_p1, scale):
        calls[-1].append(n_panels)
        return evaluate(rhos, radii, n_panels, need_p1, scale)

    def counted_integral(*args):
        calls.append([])
        return integral(*args)

    monkeypatch.setattr(specfun, "_mehler_dirichlet_eval", counted_eval)
    monkeypatch.setattr(specfun, "_conical_integral", counted_integral)
    return calls


def _transform_mix(rng, cycles):
    """The benchmark's transform cycles: 8 inverses of heat data and one
    forward transform of each profile, at tolerances 1e-6 and 1e-8; yields
    each op's kind after running it."""
    for _ in range(cycles):
        for _ in range(8):
            r, s = 0.2 + 2.8 * rng.uniform(), 0.3 + 0.7 * rng.uniform()
            budget = ToleranceBudget(abs_tol=float(rng.choice([1e-6, 1e-8])))
            mehler_fock_inverse(lambda rho: (0.25 + rho * rho)
                                * math.exp(-(0.25 + rho * rho) * s),
                                r, budget, gaussian_rate=0.5 * s, bound=2.0 / s)
            yield "inverse"
        for name in ("gaussian", "cubic"):
            budget = ToleranceBudget(abs_tol=float(rng.choice([1e-6, 1e-8])))
            mehler_fock_forward(PROFILES[name], 8.0 * rng.uniform(), budget)
            yield "forward"


def test_transform_cycle_runs_no_conical_integral(monkeypatch):
    # From r = 0.0768 on the e^{-2r} series serves every rho >= 1e-3, so no
    # op of the mix runs a Mehler-Dirichlet integral: an inverse's one radius
    # is at least 0.2, and a forward transform's radii below the e^{-2r}
    # series take the series about the origin (rho <= 8).  Each inverse
    # evaluates the conical functions once, in one _conical_many batch.
    calls = _count_passes(monkeypatch)
    many, batches = specfun._conical_many, []
    far, far_calls = specfun._conical_far, []

    def counted_many(*args, **kwargs):
        batches.append(args[1].size)
        return many(*args, **kwargs)

    def counted_far(*args):
        far_calls.append(args)
        return far(*args)

    monkeypatch.setattr(specfun, "_conical_many", counted_many)
    monkeypatch.setattr(specfun, "_conical_far", counted_far)
    for kind in _transform_mix(np.random.default_rng(1), 3):
        assert calls == []
        if kind == "inverse":
            assert batches == [1]
        batches.clear()
    assert far_calls


def test_inverse_mix_evaluates_the_tail_at_most_twice(monkeypatch):
    # the rho cut's search starts from two Newton steps on the tail bound,
    # so it accepts its first or second radius
    counts, solve = [], quadrature.solve_radius

    def counted_solve(tail, tol, start, grow):
        def counted_tail(R):
            counts[-1] += 1
            return tail(R)
        counts.append(0)
        radius, bound = solve(counted_tail, tol, start, grow)
        assert bound <= tol
        return radius, bound

    monkeypatch.setattr(quadrature, "solve_radius", counted_solve)
    for kind in _transform_mix(np.random.default_rng(2), 2):
        if kind == "inverse":
            assert counts[-1:] and counts[-1] <= 2
        counts.clear()


def test_rho_grid_cache_is_bounded_and_skips_large_grids():
    """Inverses fall in a few canonical grids, each built once; a grid of
    more than _GRID_CACHE_PANELS panels is built afresh and never cached."""
    grid = specfun._rho_grid
    grid.cache_clear()
    heat = lambda rho: math.exp(-0.5 * (0.25 + rho * rho))  # noqa: E731
    for r in np.linspace(0.2, 3.0, 12):
        for rate in (0.15, 0.2, 0.3, 0.5):
            for tol in (1e-6, 1e-8):
                mehler_fock_inverse(heat, float(r), ToleranceBudget(abs_tol=tol),
                                    gaussian_rate=rate, bound=1.0)
    info = grid.cache_info()
    assert info.maxsize == specfun._GRID_CACHE_SIZE == 32
    assert 0 < info.currsize <= info.maxsize and info.hits > 4 * info.misses
    # at r = 100 the panels are 2^(-4) wide: 92 of them, above the 64 cached
    _, _, radius = _inverse_with_error(heat, 100.0, ToleranceBudget(abs_tol=1e-8),
                                       0.5, 1.0)
    assert radius / 0.0625 > specfun._GRID_CACHE_PANELS == 64
    assert grid.cache_info()[:2] == info[:2]  # neither a hit nor a miss


def test_oversize_rho_seeding_is_refused_before_it_is_built():
    # panels of 2^(-13) to a cut of 3.99 would number 32,659, some 45 MB
    # of grid; the count is checked before anything is allocated
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="allowed"):
            mehler_fock_inverse(lambda rho: math.exp(-rho * rho), 2.0 * math.pi * 8192,
                                gaussian_rate=1.0, bound=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_failed_embedded_check_doubles_the_panels(monkeypatch):
    # rho r = 20 starts on 6 panels, where G10 misses 1e-14; 12 meet it.
    # err adds the sums' roundoff, 8 eps times |P1 terms| (about 44 here).
    # _conical_many serves r = 0.5 from the e^{-2r} series, so the integral
    # is called on its own
    calls = _count_passes(monkeypatch)
    budget = ToleranceBudget(abs_tol=1e-14)
    p, p1, err = specfun._conical_integral(np.array([40.0]), np.array([0.5]),
                                           budget, True)
    assert calls == [[6, 12]] and err <= 1e-14 + 8.0 * specfun._EPS * 50.0
    (ref_p, ref_p1), _ = specfun._mehler_dirichlet_eval(
        np.array([40.0]), np.array([0.5]), 96, True, np.zeros(1))
    assert abs(p[0, 0] - ref_p[0, 0]) <= 1e-14 and abs(p1[0, 0] - ref_p1[0, 0]) <= 1e-14


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
            rhos, radii = np.array([rho]), np.array([r])
            series = specfun._conical_series(rhos, radii, np.array([s_half]), True)
            integral = specfun._conical_integral(rhos, radii, TIGHT, True)
            err = series[2] + integral[2]
            assert abs(series[0][0, 0] - integral[0][0, 0]) <= err
            assert abs(series[1][0, 0] - integral[1][0, 0]) <= err


def test_exhausted_conical_refinement_reports_its_change(monkeypatch):
    # an embedded rule 1e-6 off never agrees: after every grown pass the
    # change met is reported against the request
    panels = specfun._kronrod_panels
    monkeypatch.setattr(specfun, "_kronrod_panels",
                        lambda n: (panels(n)[0], panels(n)[1] * [1.0, 1.0 + 1e-6]))
    calls = _count_passes(monkeypatch)
    budget = ToleranceBudget(abs_tol=1e-10)
    with pytest.raises(NonconvergenceError) as info:  # on its own, as above
        specfun._conical_integral(np.array([2.0]), np.array([1.5]), budget, True)
    assert calls == [[4 << k for k in range(16)]]
    assert info.value.requested == 1e-10 and 1e-7 < info.value.achieved < 1e-5


def test_conical_integral_grid_is_capped(monkeypatch):
    # rho r / 4 + 1 would be 75001 panels; the first grid takes 65536, and
    # no refinement goes beyond 131072
    calls = _count_passes(monkeypatch)
    p, _, _ = specfun._conical_integral(np.array([1e6]), np.array([0.3]),
                                        ToleranceBudget(), False)
    assert calls[0][0] == 65536 and max(calls[0]) <= 131072
    assert abs(p[0, 0]) <= 1.0


# ---------------------------------------------------------------------------
# the e^{-2r} series from r = 0.0768 on

# (rho, r, P, P1) from 40-digit mpmath, rounded to doubles; regenerate with
# tests/data/conical_reference.py.  FAR straddles rho_min = 1e-3 from r =
# 0.4 on; at the HUGE radii sinh(r) overflows a double.
FAR_CASES = [
    (0.001, 0.4, 0.9900906772483389, -0.049097721494188236),
    (0.01, 0.4, 0.9900867629673319, -0.04911706670143319),
    (0.5, 0.4, 0.9802308291799412, -0.0977040848821142),
    (2.0, 0.4, 0.8381491674059639, -0.7695363181806825),
    (8.0, 0.4, -0.3154336771730291, -2.047612389976731),
    (15.0, 0.4, 0.14835965834100825, 4.088247027911483),
    (40.0, 0.4, -0.1725578699918884, -3.5597104026212154),
    (0.001, 0.5, 0.9845951343165904, -0.06075281436234994),
    (0.01, 0.5, 0.9845890577810429, -0.06077668386885133),
    (0.5, 0.5, 0.9693101702769384, -0.12055592495691919),
    (2.0, 0.5, 0.7539907784597134, -0.908651260071994),
    (8.0, 0.5, -0.38918874781149515, 0.5414764379399379),
    (15.0, 0.5, 0.2610730286030995, -2.003297125445888),
    (40.0, 0.5, 0.1636423957011856, -2.6287169087562847),
    (0.001, 1.0, 0.9408619263503087, -0.11195914635566401),
    (0.01, 1.0, 0.9408388694888745, -0.11200208222192876),
    (0.5, 1.0, 0.8835378988482238, -0.21692422417246038),
    (2.0, 1.0, 0.2171932078065785, -1.090382304927569),
    (8.0, 1.0, 0.15939311503332954, -1.7503195824274729),
    (15.0, 1.0, -0.012627340802937164, -2.8365369040395625),
    (40.0, 1.0, 0.00690933603466309, -4.65139317155323),
    (0.001, 3.0, 0.6233662064614933, -0.17014476548003485),
    (0.01, 3.0, 0.623236111511799, -0.17019195068167134),
    (0.5, 3.0, 0.3373256896885149, -0.24774747132162908),
    (2.0, 3.0, 0.07571421473835796, 0.2847541823053184),
    (8.0, 3.0, -0.03165135484989134, 0.6824460160406522),
    (15.0, 3.0, 0.06346357956173479, -0.24869597762684517),
    (40.0, 3.0, 0.03929035794419057, 0.24851450004051337),
    (0.001, 8.0, 0.10944365848369819, -0.04306223101454427),
    (0.01, 8.0, 0.10929966111409024, -0.043039152458019314),
    (0.5, 8.0, -0.02987556937613591, 0.011820718119073122),
    (2.0, 8.0, -0.012408135642728226, -0.009236374463492307),
    (8.0, 8.0, 0.006820005424060913, -0.024390859422701274),
    (15.0, 8.0, 0.0052553825748753915, 0.011249614129886579),
    (40.0, 8.0, 0.001089201174450875, 0.12269012877303347),
    (0.001, 30.0, 6.111281838455381e-06, -2.860993046355214e-06),
    (0.01, 30.0, 6.013359872182648e-06, -2.8214194607443506e-06),
    (0.5, 30.0, 1.0191135728267765e-07, -3.006700411430161e-07),
    (2.0, 30.0, -2.094869883913573e-07, -1.457607591707426e-07),
    (8.0, 30.0, 1.1052113764517561e-07, -4.692710146369206e-07),
    (15.0, 30.0, -8.904682260081235e-08, -1.0916672166184086e-08),
    (40.0, 30.0, 3.490317463152269e-08, 1.6608295823593427e-06),
]
HUGE_CASES = [
    (0.0, 711.0, 1.8403793932526243e-152, -9.176062957273615e-153),
    (1.0, 711.0, 4.571865069566055e-155, -2.6645741633126154e-155),
    (30.0, 711.0, -4.944726888617369e-156, 2.0469823084406595e-154),
    (0.0, 1000.0, 4.541933951040417e-215, -2.2664313293099334e-215),
    (1.0, 1000.0, 8.041576272511463e-218, -4.472452799754574e-218),
    (30.0, 1000.0, -1.452943018092515e-218, 6.966215598483957e-218),
    (0.0, 1400.0, 8.796312634275031e-302, -4.391879452100609e-302),
    (1.0, 1400.0, -5.313997102462304e-305, 1.2454973126720914e-304),
    (30.0, 1400.0, -1.4975922434460303e-305, -4.041875497737838e-304),
]


@pytest.mark.parametrize("rho,r,p_ref,p1_ref", FAR_CASES)
def test_far_series_meets_frozen_values_within_its_err(rho, r, p_ref, p1_ref):
    p, p1, err = specfun._conical_far(np.array([rho]), np.array([r]), True)
    assert abs(p[0, 0] - p_ref) <= err and abs(p1[0, 0] - p1_ref) <= err
    assert err <= 1e-11


def test_far_series_agrees_with_the_integral_across_the_seam():
    rhos = np.array([specfun._RHO_MIN, 0.01, 0.5, 2.0, 8.0, 15.0, 40.0])
    seam = specfun._FAR_RADIUS
    for r in (seam * (1.0 - 1e-6), seam * (1.0 + 1e-6), 0.5, 1.0, 3.0, 8.0, 30.0):
        p, p1, err = specfun._conical_far(rhos, np.array([r]), True)
        ip, ip1, ierr = specfun._conical_integral(rhos, np.array([r]),
                                                  ToleranceBudget(abs_tol=1e-14), True)
        assert np.all(np.abs(p - ip) <= err + ierr)
        assert np.all(np.abs(p1 - ip1) <= err + ierr)


# (rho, r, P, P1), P and P1 to 30 digits of 40-digit mpmath, between the
# e^{-2r} series' first radius 0.0768 and ln2 / 2, where |c| (at small rho)
# and 1 / (1 - x) (up to 7) are large; regenerate with
# tests/data/conical_reference.py.
NEAR_CASES = [
    (0.001, 0.08, "0.99960014500593100970190044845", "-0.0099927112397803936611728785678"),
    (0.01, 0.08, "0.999599986679826022152301654295", "-0.00999666754581407858849244045487"),
    (0.5, 0.08, "0.99920037317127560377410318483", "-0.0199813454857739086824032132684"),
    (3.0, 0.08, "0.985258595591350740400208696401", "-0.367072994103119002181898593575"),
    (14.0, 0.08, "0.709880964794753822812910366888", "-6.67682617319499154773905792978"),
    (0.001, 0.12, "0.999100738203871818011895431765", "-0.0149753448569996401845412318751"),
    (0.01, 0.12, "0.999100382177766906168970037954", "-0.0149812723997789448411484100044"),
    (0.5, 0.12, "0.998201888155136421940821916438", "-0.0299370922109417825592759182018"),
    (3.0, 0.12, "0.966995939110326889486920382522", "-0.545156364711936404890405881089"),
    (14.0, 0.12, "0.409242616785600647933574540276", "-8.06774515866152913277199343199"),
    (0.001, 0.2, "0.997505704222685167400825277886", "-0.0248859648362856322528897593786"),
    (0.01, 0.2, "0.997504717102791001508859457854", "-0.0248958073103885801197760409499"),
    (0.5, 0.2, "0.995014543865057757213722708291", "-0.0497095162346373216017507814475"),
    (3.0, 0.2, "0.909766275152722968935942554793", "-0.879942093293563411707876952688"),
    (14.0, 0.2, "-0.184178320515316751717619186672", "-5.71227888205851459161643505552"),
    (0.001, 0.3, "0.994403811626508574121724683731", "-0.0371168203455612288767005171405"),
    (0.01, 0.3, "0.994401598658985817609156418338", "-0.0371314771538183567707007000015"),
    (0.5, 0.3, "0.988823380183367242268301864068", "-0.0740245643886329152192828129435"),
    (3.0, 0.3, "0.803180199592815358125031605296", "-1.23875970290827996085554473179"),
    (14.0, 0.3, "-0.373873431158056101942469443058", "1.94053679998338993231414889454"),
]


@pytest.mark.parametrize("rho,r,p_ref,p1_ref", NEAR_CASES)
def test_far_series_holds_its_err_near_its_first_radius(rho, r, p_ref, p1_ref):
    p, p1, err = specfun._conical_far(np.array([rho]), np.array([r]), True)
    assert abs(p[0, 0] - float(p_ref)) <= err[0]
    assert abs(p1[0, 0] - float(p1_ref)) <= err[0]


@pytest.mark.parametrize("r", [0.08, 0.12, 0.2, 0.3])
@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_conical_batches_near_the_far_seam_meet_their_err(r, tol):
    # the five rho of a radius in one batch, which rho = 14 keeps from the
    # series about the origin; at 1e-12 the smallest rho take the integral
    cases = [case for case in NEAR_CASES if case[1] == r]
    rhos = np.array([case[0] for case in cases])
    p, p1, err = _conical_many(rhos, np.array([r]), ToleranceBudget(abs_tol=tol), True)
    assert err <= tol
    for j, (_, _, p_ref, p1_ref) in enumerate(cases):
        assert abs(p[0, j] - float(p_ref)) <= err
        assert abs(p1[0, j] - float(p1_ref)) <= err


def test_log_c_has_its_closed_form_modulus():
    # |Gamma(i rho) / (sqrt(pi) Gamma(1/2 + i rho))|^2 = coth(pi rho) / (pi rho)
    rhos = np.array([1e-3, 0.01, 0.5, 2.0, 8.0, 15.0, 40.0, 500.0, 1e4])
    got = np.exp(2.0 * specfun._log_c(rhos).real)
    want = 1.0 / (np.tanh(np.pi * rhos) * np.pi * rhos)
    assert np.all(np.abs(got / want - 1.0) <= 16.0 * specfun._EPS)


# (rho, ln|c|, arg c) for c = Gamma(i rho) / (sqrt(pi) Gamma(1/2 + i rho)),
# 30 digits of 40-digit mpmath loggamma; regenerate with
# tests/data/conical_reference.py.
LOG_C_CASES = [
    (0.001, "5.76302703806301560533150759593", "-1.56941003483788431338329516819"),
    (0.01, "3.46060475567457219469727479791", "-1.55693578667552882525358193884"),
    (0.3, "0.182640484891392127736005527205", "-1.20780555230358716145545122676"),
    (1.0, "-0.57049749802218351068386543596", "-0.917428922919860707555628220702"),
    (3.0, "-1.12167108074634279668943547386", "-0.827264826812722584963537836277"),
    (10.0, "-1.7236574894217229290807094025", "-0.797903387476085776024292134797"),
    (50.0, "-2.52837644563877311638108906963", "-0.787898205069116495001367760147"),
    (300.0, "-3.42425618025280061678732774882", "-0.785814830257016853859766216559"),
    (5000.0, "-4.83096153863281880039908052432", "-0.785423163397489976282827512502"),
    (100000.0, "-6.32882767540981429711669231239", "-0.785399413397448314823994179309"),
]


def test_log_c_meets_its_frozen_table():
    # within 4 eps (1 + |ln c|) of 30-digit values
    for rho, modulus, phase in LOG_C_CASES:
        want = complex(float(modulus), float(phase))
        got = specfun._log_c(np.array([rho]))[0]
        assert abs(got - want) <= 4.0 * specfun._EPS * (1.0 + abs(want))


def test_routing_sends_far_radii_and_small_rho_to_their_branches(monkeypatch):
    # radii from 0.0768 take the e^{-2r} series except in the columns with
    # rho < rho_min, whose entries take the integral; with no radius in
    # between, no band is left for the integral.  At rho = 0.002 the e^{-2r}
    # err at r = 0.12 (about 4e-11) exceeds TIGHT: that column takes the
    # integral too
    seen = []

    def spy(name):
        real = getattr(specfun, name)

        def call(rhos, radii, *args):
            seen.append((name, list(rhos), list(radii)))
            return real(rhos, radii, *args)
        return call

    for name in ("_conical_series", "_conical_integral", "_conical_far"):
        monkeypatch.setattr(specfun, name, spy(name))
    for rhos, radii, want in (
            ([0.0, 5e-4, 0.5, 6.0], [0.05, 0.3, 1.0, 40.0],
             [("_conical_far", [0.5, 6.0], [0.3, 1.0, 40.0]),
              ("_conical_series", [0.0, 5e-4, 0.5, 6.0], [0.05]),
              ("_conical_integral", [0.0, 5e-4], [0.3, 1.0, 40.0])]),
            ([0.002, 0.5, 14.0], [0.12, 1.0],
             [("_conical_far", [0.002, 0.5, 14.0], [0.12, 1.0]),
              ("_conical_integral", [0.002], [0.12, 1.0])])):
        seen.clear()
        rhos, radii = np.array(rhos), np.array(radii)
        p, p1, _ = _conical_many(rhos, radii, TIGHT, need_p1=True)
        assert seen == want
        for i, r in enumerate(radii):
            for j, rho in enumerate(rhos):
                assert abs(p[i, j] - conical_p(rho, r, TIGHT)) <= 1e-12
                assert abs(p1[i, j] - conical_p1(rho, r, TIGHT)) <= 1e-12


@pytest.mark.parametrize("rho,r,p_ref,p1_ref", HUGE_CASES)
def test_conical_values_hold_where_sinh_overflows(rho, r, p_ref, p1_ref):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, p1 = conical_p(rho, r, TIGHT), conical_p1(rho, r, TIGHT)
    assert abs(p - p_ref) <= 1e-10 * abs(p_ref)
    assert abs(p1 - p1_ref) <= 1e-10 * abs(p1_ref)


def test_far_series_memory_does_not_grow_with_the_batch():
    # blocks of about 1150 radii (57 terms at r = 0.4), or 575 rho at one
    # radius, keep the peak beyond the returned arrays of 6000 radii or rho
    # near that of 1200
    def peak(rhos, radii):
        tracemalloc.start()
        try:
            out = specfun._conical_far(rhos, radii, True)
            return tracemalloc.get_traced_memory()[1] - 2 * out[0].nbytes, out
        finally:
            tracemalloc.stop()

    rhos, radii = np.linspace(0.01, 12.0, 22), np.linspace(0.4, 8.0, 6000)
    few, _ = peak(rhos, radii[:1200])
    many, (p, p1, _) = peak(rhos, radii)
    assert many <= 1.2 * few
    wide = 3.0 * radii  # 6000 rho at one radius
    few, _ = peak(wide[:1200], radii[:1])
    many, (q, q1, _) = peak(wide, radii[:1])
    assert many <= 1.2 * few
    for i in (0, 3000, 5999):
        one_p, one_p1, _ = specfun._conical_far(rhos, radii[i:i + 1], True)
        assert np.abs(p[i] - one_p[0]).max() <= 1e-15
        assert np.abs(p1[i] - one_p1[0]).max() <= 1e-14
        one_p, one_p1, _ = specfun._conical_far(wide[i:i + 1], radii[:1], True)
        assert abs(q[0, i] - one_p[0, 0]) <= 1e-15
        assert abs(q1[0, i] - one_p1[0, 0]) <= 1e-14


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
        value, err, _ = _inverse_with_error(fhat, r, budget, gaussian_rate=0.2,
                                            bound=10.0)
        assert abs(value - profile(r)) <= err
        assert mehler_fock_inverse(fhat, r, budget, gaussian_rate=0.2,
                                   bound=10.0) == value


def test_public_inverse_meets_its_error_bar(monkeypatch):
    """Heat data e^{-lam t} at t = 1e-3 inverts to McKean's G_d; started from
    one panel the rho integral was 6.7 times its err_est off at r = 1.425.
    e^{-rho^2} at r = 50 is -7.9e-23 (30-digit mpmath); the inverse returned
    1.04e-12 there against an err_est of 3.7e-13.  At r = 6 the rho nodes
    reach 150, where the Mehler-Dirichlet integral needs 200-odd panels
    per rho; the e^{-2r} series serves them all."""
    t, d = 1e-3, 1.425
    rows, _, _, _ = _h2_mckean([d, 6.0], t, ToleranceBudget(abs_tol=1e-13),
                               generator=True)
    evaluate, integral_calls = specfun._mehler_dirichlet_eval, []

    def counted_eval(*args):
        integral_calls.append(args[2])
        return evaluate(*args)

    monkeypatch.setattr(specfun, "_mehler_dirichlet_eval", counted_eval)

    def heat(rho):
        return math.exp(-(0.25 + rho * rho) * t)

    for fhat, r, rate, bound, tol, ref in (
            (heat, d, t, math.exp(-0.25 * t), 1e-6, rows[2, 0]),
            (heat, 6.0, t, math.exp(-0.25 * t), 1e-6, rows[2, 1]),
            (lambda rho: math.exp(-rho * rho), 50.0, 1.0, 1.0, 1e-12, -7.9e-23)):
        budget = ToleranceBudget(abs_tol=tol)
        integral_calls.clear()
        value = mehler_fock_inverse(fhat, r, budget, gaussian_rate=rate, bound=bound)
        if r == 6.0:
            assert integral_calls == []
        _, err, _ = _inverse_with_error(fhat, r, budget, gaussian_rate=rate, bound=bound)
        assert abs(value - ref) <= err <= tol


def test_inverse_of_an_fhat_bounded_by_zero_is_zero():
    assert _inverse_with_error(lambda rho: 0.0, 1.0, bound=0.0)[:2] == (0.0, 0.0)
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


# (z, p, E_p(z)) from mpmath.expint at 40 digits; E_1(750) is below the
# smallest subnormal.
_EXPINT_CF_FROZEN = (
    (1.5, 1.0, 0.10001958240663265), (4.0, 1.0, 0.0037793524098489067),
    (50.0, 1.0, 3.783264029550459e-24), (700.0, 1.0, 1.406518766234033e-307),
    (750.0, 1.0, 0.0), (3.5, 2.5, 0.005342418956289635),
    (12.0, 7.5, 3.2104203820841606e-07), (40.0, 14.5, 7.83238192291991e-20),
)


@pytest.mark.parametrize("z,p,ref", _EXPINT_CF_FROZEN)
def test_expint_continued_fraction_matches_mpmath(z, p, ref):
    assert abs(specfun._expint_cf(z, p) - ref) <= 2e-15 * ref

