import dataclasses
import math
import warnings

import numpy as np
import pytest

from heatforms import geometry, hyperbolic, kernels, quadrature, specfun
from heatforms.errors import DomainError, NonconvergenceError
from heatforms.quadrature import (DecayHint, ToleranceBudget, _area_tail,
                                  _integrate_panels, _kronrod21, _seeded_edges,
                                  gaussian_tail_radius, refine_until_stable,
                                  solve_radius)


def test_gaussian_on_finite_interval():
    # int_0^3 exp(-x^2) dx = sqrt(pi)/2 * erf(3); one panel is not enough
    calls = []

    def f(x):
        calls.append(x.size)
        return np.exp(-x * x)

    val, err = _integrate_panels(f, [0.0, 3.0], ToleranceBudget(abs_tol=1e-13))
    ref = 0.5 * math.sqrt(math.pi) * math.erf(3.0)
    assert len(calls) > 1
    assert err <= 1e-13
    assert abs(val - ref) <= err + 1e-15
    assert abs(val - 0.88620734825952) < 1e-13


def test_polynomial_is_near_exact():
    val, _ = _integrate_panels(lambda x: x ** 5, [0.0, 1.0], ToleranceBudget())
    assert abs(val - 1.0 / 6.0) < 1e-14


def test_one_integrand_call_covers_every_seeded_panel():
    """An accepted seeding costs one call on all 21 nodes of every panel,
    and gives the value a single panel bisected to the same budget does."""
    budget = ToleranceBudget(abs_tol=1e-11)
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.sin(3.0 * x) * np.exp(-x)

    seeded, err = _integrate_panels(f, _seeded_edges(2.0, 0.25), budget)
    assert sizes == [8 * 21] and err <= budget.abs_tol
    one, _ = _integrate_panels(f, [0.0, 2.0], budget)
    assert abs(seeded - one) < 1e-12


def test_a_seeded_pass_that_fits_returns_the_fsum_of_its_panels():
    # no heap is built: the value is math.fsum of the seeded panels' K21
    # sums, the bits a bisection-free run of the heap gave
    edges, budget, calls = _seeded_edges(2.0, 0.25), ToleranceBudget(abs_tol=1e-11), []

    def f(x):
        calls.append(x.size)
        return np.sin(3.0 * x) * np.exp(-x)

    values, errs, _ = quadrature._panel_estimates(f, edges)
    assert _integrate_panels(f, edges, budget) == (math.fsum(values), float(errs.sum()))
    first = quadrature._panel_estimates(f, edges)
    calls.clear()
    assert _integrate_panels(f, edges, budget, first) == (math.fsum(values),
                                                          float(errs.sum()))
    assert calls == []  # the caller's seeded pass is not evaluated again


def test_a_request_below_the_roundoff_stops_at_the_floor():
    # 1e-20 on an integral near 1e3: the halvings stop once the summed error
    # is within 64 eps of the K21 sum of |f|, and report that error
    budget, mass = ToleranceBudget(abs_tol=1e-20), 1e3 * (2.0 - math.cos(3.0))
    val, err = _integrate_panels(lambda x: 1e3 * np.sin(x), [0.0, 3.0], budget)
    assert err <= 64.0 * quadrature._EPS * mass * (1.0 + 1e-12)
    assert abs(val - 1e3 * (1.0 - math.cos(3.0))) <= err + 1e-12


def test_degenerate_and_invalid_intervals():
    # a panel of zero width holds nothing
    assert _integrate_panels(lambda x: x, [1.0, 1.0], ToleranceBudget()) == (0.0, 0.0)
    # a seeding needs a finite cut: infinite or NaN ones are refused by count
    for cut in (math.inf, math.nan):
        with pytest.raises(DomainError, match="above the 20000 allowed"):
            _seeded_edges(cut, 1.0)


def test_row_valued_integrand_matches_each_row_integral():
    budget = ToleranceBudget(abs_tol=1e-11)
    rates = np.array([0.5, 1.0, 4.0])
    rows = lambda x: np.sin(3.0 * x) * np.exp(-rates[:, None] * x)
    vals, err = _integrate_panels(rows, [0.0, 2.0], budget)
    assert vals.shape == (3,) and err <= budget.abs_tol
    for a, v in zip(rates, vals):
        ref, _ = _integrate_panels(lambda x: np.sin(3.0 * x) * np.exp(-a * x),
                                   [0.0, 2.0], budget)
        assert abs(v - ref) <= budget.abs_tol


def test_nonfinite_integrand_rejected():
    budget = ToleranceBudget()
    with pytest.raises(DomainError):
        _integrate_panels(lambda x: np.where(x > 0.4, math.inf, 1.0),
                          [0.0, 1.0], budget)
    # None values cast to NaN
    with pytest.raises(DomainError, match="non-finite"):
        _integrate_panels(lambda x: [None] * x.size, [0.0, 1.0], budget)
    # the array cast would cut a complex value to its real part
    with pytest.raises(DomainError, match="complex"):
        _integrate_panels(lambda x: x + 1j, [0.0, 1.0], budget)
    # an error raised inside the integrand propagates unchanged
    error = ValueError("a user's own error")

    def raising(x):
        raise error
    with pytest.raises(ValueError) as got:
        _integrate_panels(raising, [0.0, 1.0], budget)
    assert got.value is error


def test_nonconvergence_reports_achieved_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 2)
    budget = ToleranceBudget(abs_tol=1e-15)
    with pytest.raises(NonconvergenceError) as info:
        _integrate_panels(lambda x: np.sin(50.0 * x) ** 2, [0.0, 10.0], budget)
    assert info.value.achieved is not None
    assert info.value.achieved > 1e-15


def test_semiinfinite_gaussian_moments():
    """int_0^inf x^p e^{-x^2} dx as the transforms take it: cut at the
    radius gaussian_tail_radius gives for the envelope (1+x)^p e^{-x^2},
    then integrated on a seeded partition of [0, R]."""
    budget = ToleranceBudget(abs_tol=1e-11)
    for p, ref in ((0, 0.5 * math.sqrt(math.pi)), (2, 0.25 * math.sqrt(math.pi))):
        radius, tail = gaussian_tail_radius(1.0, 1e-13, poly_degree=p)
        val, err = _integrate_panels(lambda x: x ** p * np.exp(-x * x),
                                     _seeded_edges(radius, 1.0), budget)
        assert err <= budget.abs_tol and tail <= 1e-13
        assert abs(val - ref) <= err + tail + 1e-13


def test_gaussian_tail_radius_is_rigorous():
    rate, bound = 0.7, 3.0
    radius, tail = gaussian_tail_radius(rate, 1e-9, bound=bound)
    assert tail <= 1e-9
    # crude numerical tail of the envelope itself must sit under the bound
    xs = np.linspace(radius, radius + 30.0, 300000)
    env = bound * (1.0 + xs) ** 2 * np.exp(-rate * xs * xs)
    assert np.trapezoid(env, xs) <= tail * 1.0000001
    r_loose, _ = gaussian_tail_radius(rate, 1e-3, bound=bound)
    assert r_loose <= radius


def test_budget_validation():
    with pytest.raises(DomainError):
        ToleranceBudget(abs_tol=0.0)
    with pytest.raises(DomainError):
        ToleranceBudget(abs_tol=math.nan)
    part = ToleranceBudget(abs_tol=1e-6).part(0.25)
    assert part.abs_tol == 0.25e-6
    # a part keeps every check
    assert ToleranceBudget(1e-6).part(0.5) == ToleranceBudget(5e-7)
    for fraction in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            ToleranceBudget(1e-6).part(fraction)


@pytest.mark.parametrize("value,name", [(np.complex128(1e-8 + 1j), "complex128"),
                                        (1e-8j, "complex"), (None, "NoneType"),
                                        ("x", "str")])
def test_budget_refuses_a_tolerance_that_is_not_a_real_float(value, name):
    with pytest.raises(DomainError, match=f"^abs_tol is '{name}', not a float$"):
        ToleranceBudget(abs_tol=value)


def test_budget_reads_its_tolerance_as_float_does():
    for value in (1e-8, "1e-8", np.float32(2.0) ** -20, 1):
        got = ToleranceBudget(abs_tol=value).abs_tol
        assert type(got) is float and got == float(value)


def test_budget_takes_no_refinement_depth():
    """The budget is an accuracy request alone: each route keeps its own
    refinement cap, so a depth is refused where it used to be stored."""
    with pytest.raises(TypeError):
        ToleranceBudget(1e-6, 7)
    with pytest.raises(TypeError):
        ToleranceBudget(abs_tol=1e-6, max_quad_depth=7)
    assert not hasattr(ToleranceBudget(), "max_quad_depth")


@pytest.mark.parametrize("kind,rate,bound", [
    ("gaussian", 1.0, math.inf), ("gaussian", math.inf, 1.0),
    ("exp", math.inf, 1.0), ("exp", 2.0, math.inf), ("bounded", 0.0, math.inf)])
def test_decay_hint_rejects_non_finite_numbers(kind, rate, bound):
    """An infinite bound or rate used to be accepted, and the truncations
    then failed with unrelated errors (inf/inf is NaN)."""
    with pytest.raises(DomainError):
        DecayHint(kind, rate, bound)


def test_decay_hint_validation_and_envelope():
    with pytest.raises(DomainError):
        DecayHint("cubic", 1.0, 1.0)
    hint = DecayHint("gaussian", rate=2.0, bound=3.0)
    assert hint.envelope(0.0) == 3.0
    assert abs(hint.envelope(1.5) - 3.0 * math.exp(-2.0 * 2.25)) < 1e-15
    assert DecayHint("bounded").envelope(100.0) == 1.0


def test_solve_radius_stops_at_the_first_radius_under_tol():
    radius, tail = solve_radius(lambda r: math.exp(-r), 1e-3, 1.0, 1.5)
    assert tail == math.exp(-radius) <= 1e-3
    assert math.exp(-radius / 1.5) > 1e-3


def test_solve_radius_failure_carries_tail_and_tol():
    with pytest.raises(NonconvergenceError) as info:
        solve_radius(lambda r: 1.0 + 1.0 / r, 1e-3, 1.0, 1.2)
    assert info.value.requested == 1e-3
    assert info.value.achieved == pytest.approx(1.0)


def test_refine_until_stable_reports_the_last_change():
    # passes on 4, 8, 16, ... panels; successive passes differ by 1/(2n)
    value, diff = refine_until_stable(lambda n: 1.0 / n, 4, 0.02, 10)
    assert (value, diff) == (1.0 / 64, 1.0 / 64)
    with pytest.raises(NonconvergenceError) as info:
        refine_until_stable(lambda n: 1.0 / n, 4, 1e-9, 3)
    assert info.value.achieved == 1.0 / 32
    assert info.value.requested == 1e-9
    # a roundoff floor above the change accepts the first refinement
    value, _ = refine_until_stable(lambda n: 1.0 / n, 4, 0.0, 3,
                                   floor=lambda cur: 1.0)
    assert value == 1.0 / 8


def test_refine_until_stable_compares_a_pass_with_its_embedded_rule():
    # each pass returns (value, lower) on n panels, 1/n^2 apart
    seen = []

    def one_pass(n):
        seen.append(n)
        return 1.0 / n, 1.0 / n + 1.0 / n ** 2

    value, diff = refine_until_stable(one_pass, 4, 0.1, 3, embedded=True)
    assert seen == [4] and (value, diff) == (0.25, 1.0 / 16)
    seen.clear()
    value, diff = refine_until_stable(one_pass, 4, 1e-3, 5, embedded=True)
    assert seen == [4, 8, 16, 32] and (value, diff) == (1.0 / 32, 1.0 / 1024)
    # the round cap counts the grown passes after the first, as without it
    seen.clear()
    with pytest.raises(NonconvergenceError) as info:
        refine_until_stable(one_pass, 4, 1e-9, 3, embedded=True)
    assert seen == [4, 8, 16, 32]
    assert info.value.achieved == 1.0 / 1024 and info.value.requested == 1e-9
    value, _ = refine_until_stable(one_pass, 4, 0.0, 3,
                                   floor=lambda cur: 1.0, embedded=True)
    assert value == 0.25


def test_kronrod21_is_quadpacks_rule():
    _K21_X, _K21_W = _kronrod21()
    # exact through degree 3 * 10 + 1 = 31 and not beyond
    for k in range(33):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        miss = abs(float(_K21_W[:, 0] @ _K21_X ** k) - exact)
        assert miss <= 1e-15 if k <= 31 else miss > 1e-12
    # the embedded rule is Gauss-Legendre on 10 of the 21 nodes
    g_x, g_w = np.polynomial.legendre.leggauss(10)
    used = _K21_W[:, 1] != 0.0
    np.testing.assert_allclose(_K21_X[used], g_x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(_K21_W[used, 1], g_w, rtol=0, atol=1e-15)
    assert _K21_X[10] == 0.0
    assert np.array_equal(_K21_X, -_K21_X[::-1])
    assert np.array_equal(_K21_W, _K21_W[::-1])


def test_refine_until_stable_doubles_the_grid_and_skips_none():
    seen = []

    def one_pass(n):
        seen.append(n)
        return np.array([1.0 / n]), None

    (vals, extra), diff = refine_until_stable(one_pass, 90, 2e-3, 3)
    assert seen == [90, 180, 360, 720]
    assert extra is None and diff == pytest.approx(1.0 / 360 - 1.0 / 720)


@pytest.mark.parametrize("bound", [-1.0, math.nan, math.inf])
def test_tail_radius_refuses_negative_or_non_finite_bounds(bound):
    with pytest.raises(DomainError, match="tail bound"):
        gaussian_tail_radius(1.0, 1e-9, bound=bound)


def test_a_zero_bound_leaves_no_tail_and_nothing_to_integrate():
    assert gaussian_tail_radius(1.0, 1e-9, bound=0.0) == (0.0, 0.0)
    zero = DecayHint("gaussian", 1.0, 0.0)
    for hyperbolic in (False, True):
        assert _area_tail(zero, 1e-9, hyperbolic) == (1.0, 0.0)


@pytest.mark.parametrize("kind,rate,hyperbolic", [
    ("gaussian", 1.0, False), ("exp", 1.0, False),
    ("gaussian", 1.0, True), ("exp", 2.0, True)])
def test_area_tail_refuses_a_factor_past_the_float_range(kind, rate, hyperbolic):
    """bound * scale is finite here and pi times it is not: every route
    used to read its tail from inf * 0 = NaN."""
    hint = DecayHint(kind, rate, 1e308)
    with pytest.raises(DomainError, match="overflows"):
        _area_tail(hint, 1e-9, hyperbolic, scale=1.0)
    with pytest.raises(DomainError, match="overflows"):
        _area_tail(DecayHint(kind, rate, 1.0), 1e-9, hyperbolic, scale=1e308)
    radius, tail = _area_tail(DecayHint(kind, rate, 1e200), 1e-9, hyperbolic)
    assert math.isfinite(radius) and 0.0 <= tail <= 1e-9


def test_plane_gaussian_tail_survives_a_ratio_past_the_float_range():
    """pi bound / rate / tol overflows for a finite factor: the tail used to
    read radius inf, and the integral failed on non-finite coordinates."""
    hint = DecayHint("gaussian", 1.0, 1e300)
    radius, tail = _area_tail(hint, 1e-9, False)
    assert 26.6 < radius < 26.8 and 0.0 < tail <= 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = geometry.integrate_surface("plane", lambda p: math.exp(-p.c1 ** 2),
                                           ToleranceBudget(abs_tol=1e-9), hint)
    assert abs(value - math.pi) <= 1e-9


def test_plane_exponential_tail_survives_a_product_past_the_float_range():
    """2 pi bound (R + 1/a) / a overflows for a finite factor pi bound: the
    tail used to read inf * 0 = NaN at every radius, and the search failed
    with a NaN achieved."""
    hint = DecayHint("exp", 2.0, 5e307)
    radius, tail = _area_tail(hint, 1e-9, False)
    assert math.isfinite(radius) and 0.0 <= tail <= 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = geometry.integrate_surface("plane", lambda p: math.exp(-2.0 * p.c1),
                                           ToleranceBudget(abs_tol=1e-9), hint)
    assert abs(value - 0.5 * math.pi) <= 1e-9


@pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
def test_tail_radius_refuses_rates_outside_zero_to_inf(rate):
    with pytest.raises(DomainError, match="gaussian_rate"):
        gaussian_tail_radius(rate, 1e-9)


def test_err_est_is_a_float_with_or_without_a_bisection():
    # the first call is accepted on its one panel; the second bisects, and
    # its panel errors are numpy scalars
    results = [
        _integrate_panels(lambda x: x * x, [0.0, 1.0], ToleranceBudget()),
        _integrate_panels(lambda x: np.sin(30 * x) ** 2, [0.0, 3.0],
                          ToleranceBudget(1e-10))]
    assert [type(err) for _, err in results] == [float] * 2


def test_seeded_partition_is_refused_above_the_panel_cap():
    edges = _seeded_edges(2.0, 1e-4)
    assert edges.size == 20001 and edges[0] == 0.0 and edges[-1] == 2.0
    assert np.diff(edges).max() <= 1e-4 * (1.0 + 1e-9)
    # 2e300 panels would not fit in memory: the count is checked first
    for width in (0.99e-4, 1e-300):
        with pytest.raises(DomainError, match="above the 20000 allowed"):
            _seeded_edges(2.0, width)


def test_refinement_caps_are_pinned(monkeypatch):
    """Every route's refinement cap, so that none moves unnoticed; the
    budget carries the accuracy request alone."""
    assert [f.name for f in dataclasses.fields(ToleranceBudget)] == ["abs_tol"]
    assert (quadrature._MAX_DEPTH, quadrature._MAX_PANELS,
            quadrature._MAX_RADIUS_STEPS) == (40, 20000, 400)
    assert geometry._SURFACE_LIMIT == (2048, 4096)
    assert kernels._APPLY_LIMIT == (512, 512)
    assert hyperbolic._MCKEAN_HALVINGS == 8
    # the conical integral's passes when no grid settles: an embedded rule
    # that never agrees, from 4 panels and from 65536
    seen = []

    def never_settles(rhos, radii, n, need_p1, scale):
        seen.append(n)
        ones = np.ones((radii.size, rhos.size))
        return (ones, None), (2.0 * ones, None)

    monkeypatch.setattr(specfun, "_mehler_dirichlet_eval", never_settles)
    for rho, n0, last in ((2.0, 4, 131072), (1e6, 65536, 131072)):
        seen.clear()
        with pytest.raises(NonconvergenceError):
            specfun._conical_integral(np.array([rho]), np.array([0.3]),
                                      ToleranceBudget(), False)
        assert seen == [n0 << k for k in range(len(seen))] and seen[-1] == last
