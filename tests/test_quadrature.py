import math

import numpy as np
import pytest

from heatforms.errors import DomainError, NonconvergenceError
from heatforms.quadrature import (DecayHint, ToleranceBudget, _kronrod21,
                                  gaussian_tail_radius, integrate_adaptive,
                                  integrate_semiinfinite, refine_until_stable,
                                  solve_radius)


def test_gaussian_on_finite_interval():
    # int_0^3 exp(-x^2) dx = sqrt(pi)/2 * erf(3)
    val, err = integrate_adaptive(lambda x: math.exp(-x * x), 0.0, 3.0,
                                  ToleranceBudget(abs_tol=1e-13))
    ref = 0.5 * math.sqrt(math.pi) * math.erf(3.0)
    assert err <= 1e-13
    assert abs(val - ref) <= err + 1e-15
    assert abs(val - 0.88620734825952) < 1e-13


def test_polynomial_is_near_exact():
    val, _ = integrate_adaptive(lambda x: x ** 5, 0.0, 1.0)
    assert abs(val - 1.0 / 6.0) < 1e-14


def test_vectorized_matches_scalar():
    budget = ToleranceBudget(abs_tol=1e-11)
    f = lambda x: np.sin(3.0 * x) * np.exp(-x)
    v1, _ = integrate_adaptive(f, 0.0, 2.0, budget)
    v2, _ = integrate_adaptive(f, 0.0, 2.0, budget, vectorized=True)
    assert abs(v1 - v2) < 1e-12


def test_row_valued_integrand_matches_each_row_integral():
    budget = ToleranceBudget(abs_tol=1e-11)
    rates = np.array([0.5, 1.0, 4.0])
    rows = lambda x: np.sin(3.0 * x) * np.exp(-rates[:, None] * x)
    vals, err = integrate_adaptive(rows, 0.0, 2.0, budget, vectorized=True)
    assert vals.shape == (3,) and err <= budget.abs_tol
    for a, v in zip(rates, vals):
        ref, _ = integrate_adaptive(lambda x: math.sin(3.0 * x) * math.exp(-a * x),
                                    0.0, 2.0, budget)
        assert abs(v - ref) <= budget.abs_tol


def test_degenerate_and_invalid_intervals():
    assert integrate_adaptive(lambda x: x, 1.0, 1.0) == (0.0, 0.0)
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: x, 1.0, 0.0)
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: x, 0.0, math.inf)


def test_nonfinite_integrand_rejected():
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: math.inf if x > 0.4 else 1.0, 0.0, 1.0)


def test_nonconvergence_reports_achieved_estimate():
    budget = ToleranceBudget(abs_tol=1e-15, max_quad_depth=2)
    with pytest.raises(NonconvergenceError) as info:
        integrate_adaptive(lambda x: math.sin(50.0 * x) ** 2, 0.0, 10.0, budget)
    assert info.value.achieved is not None
    assert info.value.achieved > 1e-15


def test_semiinfinite_gaussian_moments():
    budget = ToleranceBudget(abs_tol=1e-11)
    v0, e0 = integrate_semiinfinite(lambda x: math.exp(-x * x), 1.0, budget)
    assert abs(v0 - 0.5 * math.sqrt(math.pi)) <= e0 + 1e-13
    v2, e2 = integrate_semiinfinite(lambda x: x * x * math.exp(-x * x), 1.0,
                                    budget)
    assert abs(v2 - 0.25 * math.sqrt(math.pi)) <= e2 + 1e-13


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


@pytest.mark.parametrize("depth", [1.5, 2.0, math.inf, math.nan, "3"])
def test_budget_depth_must_be_an_integer(depth):
    """A fractional or non-finite depth used to be accepted and failed
    later inside a quadrature with an untyped TypeError."""
    with pytest.raises(DomainError):
        ToleranceBudget(max_quad_depth=depth)


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
    value, diff = refine_until_stable(lambda n: 1.0 / n, (4,), 2, 0.02, 10)
    assert (value, diff) == (1.0 / 64, 1.0 / 64)
    with pytest.raises(NonconvergenceError) as info:
        refine_until_stable(lambda n: 1.0 / n, (4,), 2, 1e-9, 3)
    assert info.value.achieved == 1.0 / 32
    assert info.value.requested == 1e-9
    # a roundoff floor above the change accepts the first refinement
    value, _ = refine_until_stable(lambda n: 1.0 / n, (4,), 2, 0.0, 3,
                                   floor=lambda cur: 1.0)
    assert value == 1.0 / 8


def test_refine_until_stable_compares_a_pass_with_its_embedded_rule():
    # each pass returns (value, lower) on n panels, 1/n^2 apart
    seen = []

    def one_pass(n):
        seen.append(n)
        return 1.0 / n, 1.0 / n + 1.0 / n ** 2

    value, diff = refine_until_stable(one_pass, (4,), 2, 0.1, 3, embedded=True)
    assert seen == [4] and (value, diff) == (0.25, 1.0 / 16)
    seen.clear()
    value, diff = refine_until_stable(one_pass, (4,), 2, 1e-3, 5, embedded=True)
    assert seen == [4, 8, 16, 32] and (value, diff) == (1.0 / 32, 1.0 / 1024)
    # the round cap counts the grown passes after the first, as without it
    seen.clear()
    with pytest.raises(NonconvergenceError) as info:
        refine_until_stable(one_pass, (4,), 2, 1e-9, 3, embedded=True)
    assert seen == [4, 8, 16, 32]
    assert info.value.achieved == 1.0 / 1024 and info.value.requested == 1e-9
    value, _ = refine_until_stable(one_pass, (4,), 2, 0.0, 3,
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


def test_refine_until_stable_grows_every_grid_axis_and_skips_none():
    seen = []

    def one_pass(n_rad, n_ang):
        seen.append((n_rad, n_ang))
        return np.array([1.0 / n_rad, 1.0 / n_ang]), None

    (vals, extra), diff = refine_until_stable(one_pass, (90, 96), 1.5, 2e-3, 3)
    assert seen == [(90, 96), (135, 144), (202, 216), (303, 324)]
    assert extra is None and diff == pytest.approx(1.0 / 202 - 1.0 / 303)


@pytest.mark.parametrize("bound", [-1.0, math.nan, math.inf])
def test_tail_radius_refuses_negative_or_non_finite_bounds(bound):
    with pytest.raises(DomainError, match="tail bound"):
        gaussian_tail_radius(1.0, 1e-9, bound=bound)
    with pytest.raises(DomainError, match="tail bound"):
        integrate_semiinfinite(lambda x: 0.0, 1.0, bound=bound)


def test_a_zero_bound_leaves_no_tail_and_nothing_to_integrate():
    assert gaussian_tail_radius(1.0, 1e-9, bound=0.0) == (0.0, 0.0)
    assert integrate_semiinfinite(lambda x: 1.0, 1.0, bound=0.0) == (0.0, 0.0)
