import math

import numpy as np
import pytest

from exdep.errors import DomainError, ParameterError, PreconditionError
from exdep.kernels import (exponential_kernel, gaussian_ou_eta,
                           limit_eta_conjecture, limit_eta_onesided,
                           limit_eta_symmetric, matern_green, matern_kernel,
                           ou_eta)


def test_matern_infinite_at_zero_when_alpha_equals_d():
    assert matern_green(2.0, 2.0, 0.0) == math.inf


def test_matern_finite_limit_at_zero():
    g0 = matern_green(2.0, 3.0, 0.0)
    assert g0 == pytest.approx(matern_green(2.0, 3.0, 1e-6), rel=1e-4)
    # closed form of the limit: Gamma(nu) / ((4 pi)^{d/2} Gamma(alpha/2) kappa^{2 nu})
    from scipy.special import gamma
    nu = 0.5
    expected = gamma(nu) / ((4 * math.pi) * gamma(1.5) * 2.0)
    assert g0 == pytest.approx(expected, rel=1e-12)


def test_matern_strictly_decreasing():
    hs = np.geomspace(0.01, 3.0, 40)
    for alpha in (2.0, 3.0, 4.5):
        vals = matern_green(2.0, alpha, hs)
        assert np.all(np.diff(vals) < 0)


def test_matern_alpha3_is_exponential():
    # nu = 1/2 collapses the Bessel factor to a pure exponential
    k = matern_kernel(2.0, 3.0)
    assert k(1.0) / k(0.5) == pytest.approx(math.exp(-2.0 * 0.5), rel=1e-12)


def kv_green(kappa, alpha, h):
    """G(h) at h > 0 through scipy's ``kv``, as the kernels docstring
    writes it."""
    from scipy.special import gamma, kv
    nu = (alpha - 2) / 2.0
    x = kappa * h
    const = 2.0 ** (1.0 - nu) / (4.0 * math.pi * gamma(alpha / 2.0) * kappa ** (2.0 * nu))
    return const * x ** nu * kv(nu, x)


@pytest.mark.parametrize("alpha", [2, 3, 4, 5, 6])
def test_matern_closed_form_orders_equal_the_kv_form(alpha):
    hs = np.geomspace(1e-6, 20.0, 500)
    for kappa in (0.5, 2.0):
        np.testing.assert_allclose(matern_green(kappa, alpha, hs), kv_green(kappa, alpha, hs),
                                   rtol=4e-15, atol=0.0)


@pytest.mark.parametrize("alpha", [2, 3, 4, 5, 6])
def test_matern_closed_form_orders_against_mpmath(alpha):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    kappa, nu = 2.0, mpmath.mpf(alpha - 2) / 2
    for h in (1e-5, 0.03, 0.4, 1.7, 9.0):
        x = kappa * mpmath.mpf(h)
        expected = (2 ** (1 - nu) / (4 * mpmath.pi * mpmath.gamma(mpmath.mpf(alpha) / 2)
                                      * kappa ** (2 * nu)) * x ** nu * mpmath.besselk(nu, x))
        assert matern_green(kappa, alpha, h) == pytest.approx(float(expected), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("alpha", [2.5, 3.7])
def test_matern_non_integer_alpha_is_the_kv_form(alpha):
    hs = np.geomspace(1e-6, 20.0, 200)
    assert np.array_equal(matern_green(2.0, alpha, hs), kv_green(2.0, alpha, hs))


def test_matern_rejects_alpha_below_d():
    with pytest.raises(ParameterError):
        matern_green(1.0, 1.5, 0.5)
    with pytest.raises(DomainError):
        matern_green(1.0, 3.0, -0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("build", [
    lambda v: matern_green(v, 3.0, 0.5),
    lambda v: matern_kernel(v, 3.0),
    lambda v: ou_eta(v, 0.5),
    lambda v: exponential_kernel(v),
], ids=["matern_green", "matern_kernel", "ou_eta", "exponential_kernel"])
def test_non_finite_rate_is_a_parameter_error(build, value):
    with pytest.raises(ParameterError, match="must be positive and finite"):
        build(value)


def test_matern_convexity_threshold_2d():
    assert matern_kernel(2.0, 2.0).convex
    assert matern_kernel(2.0, 3.0).convex
    assert not matern_kernel(2.0, 4.0).convex
    assert not matern_kernel(2.0, 5.0).convex


def test_exponential_kernel_values():
    kern = exponential_kernel(0.2)
    assert kern(0.0) == kern.value_at_zero == 1.0
    assert kern(5.0) == pytest.approx(math.exp(-1.0))
    hs = np.linspace(0.0, 10.0, 20)
    assert np.all(np.diff(exponential_kernel(0.5)(hs)) < 0)


def test_limit_eta_symmetric():
    k3 = matern_kernel(2.0, 3.0)
    assert limit_eta_symmetric(k3, 0.0) == 1.0
    assert limit_eta_symmetric(k3, 1.0) == pytest.approx(
        0.5 + k3(1.0) / (2 * k3.value_at_zero))
    k2 = matern_kernel(2.0, 2.0)
    assert limit_eta_symmetric(k2, 0.7) == 0.5  # infinite G(0)


def test_limit_eta_symmetric_requires_convexity():
    with pytest.raises(PreconditionError):
        limit_eta_symmetric(matern_kernel(2.0, 5.0), 0.5)


def test_conjecture_matches_symmetric_for_convex():
    k3 = matern_kernel(2.0, 3.0)
    for h in np.linspace(0.01, 2.0, 25):
        assert limit_eta_conjecture(k3, h) == pytest.approx(
            limit_eta_symmetric(k3, h), abs=1e-12)


def test_conjecture_second_branch_dominates_for_rough_kernel():
    k5 = matern_kernel(2.0, 5.0)
    h = 0.05
    first = 0.5 + k5(h) / (2 * k5.value_at_zero)
    second = k5(h / 2) / k5.value_at_zero
    assert second > first
    assert limit_eta_conjecture(k5, h) == pytest.approx(second)
    assert limit_eta_conjecture(k5, 0.0) == 1.0


@pytest.mark.parametrize("alpha", [2.0, 3.0, 5.0])
def test_conjecture_on_an_array_equals_each_distance(alpha):
    k = matern_kernel(2.0, alpha)
    hs = np.concatenate([[0.0], np.geomspace(1e-4, 3.0, 50)])
    g0 = k.value_at_zero

    def one(h):  # the formula on one float at a time
        if h == 0.0:
            return 1.0
        if math.isinf(g0):
            return 0.5
        return max(0.5 + float(k(h)) / (2.0 * g0), float(k(h / 2.0)) / g0)

    values = limit_eta_conjecture(k, hs)
    assert values.shape == hs.shape
    assert values.tolist() == [one(h) for h in hs.tolist()]
    assert [limit_eta_conjecture(k, h) for h in hs.tolist()] == [one(h) for h in hs.tolist()]


def test_limit_eta_onesided():
    e = exponential_kernel(0.2)
    assert limit_eta_onesided(e, 0.0) == 1.0
    assert limit_eta_onesided(e, 1.0) == pytest.approx(1.0 / (2.0 - math.exp(-0.2)))
    assert limit_eta_onesided(e, 60.0) == pytest.approx(0.5, abs=1e-5)
    with pytest.raises(PreconditionError):
        limit_eta_onesided(matern_kernel(2.0, 2.0), 1.0)


@pytest.mark.parametrize("limit", [
    lambda h: limit_eta_onesided(exponential_kernel(0.2), h),
    lambda h: limit_eta_onesided(matern_kernel(2.0, 3.0), h),
    lambda h: ou_eta(0.2, h),
    lambda h: ou_eta(3.0, h),
], ids=["exponential", "matern_alpha3", "ou_eta", "ou_eta_steep"])
def test_onesided_limit_on_an_array_equals_each_distance(limit):
    hs = np.concatenate([[0.0], np.geomspace(1e-4, 30.0, 50), [0.0, 0.4]])
    values = limit(hs)
    assert values.shape == hs.shape
    each = [limit(h) for h in hs.tolist()]
    assert all(type(v) is float for v in each)
    assert values.tolist() == each
    assert values[0] == values[-2] == 1.0


def test_ou_eta_values_and_rates():
    assert ou_eta(0.2, 0.0) == 1.0
    assert gaussian_ou_eta(0.2, 0.0) == 1.0
    assert ou_eta(0.2, 1.0) == pytest.approx(0.846547, abs=5e-5)
    assert gaussian_ou_eta(0.2, 1.0) == pytest.approx((1 + math.exp(-0.2)) / 2)
    h = 1e-7
    assert (1 - ou_eta(0.2, h)) / h == pytest.approx(0.2, rel=1e-4)
    assert (1 - gaussian_ou_eta(0.2, h)) / h == pytest.approx(0.1, rel=1e-4)


def test_ou_eta_below_gaussian_ou_eta():
    hs = np.linspace(0.01, 8.0, 50)
    assert np.all([ou_eta(0.2, h) <= gaussian_ou_eta(0.2, h) for h in hs])


def test_limit_functions_range_and_monotonicity():
    k3 = matern_kernel(2.0, 3.0)
    hs = np.linspace(0.0, 3.0, 30)
    for fun in (lambda h: limit_eta_symmetric(k3, h),
                lambda h: limit_eta_conjecture(k3, h),
                lambda h: limit_eta_onesided(k3, h)):
        vals = np.array([fun(h) for h in hs])
        assert np.all((vals >= 0.5 - 1e-12) & (vals <= 1.0))
        assert vals[0] == 1.0
        assert np.all(np.diff(vals) <= 0)

