import json
import math

import numpy as np
import pytest

from exdep.errors import DomainError, ParameterError, PreconditionError
from exdep.kernels import (custom_kernel, exponential_kernel, gaussian_ou_eta,
                           kernel_from_json, kernel_to_json,
                           limit_eta_conjecture, limit_eta_onesided,
                           limit_eta_symmetric, matern_green, matern_kernel,
                           ou_eta, ou_kernel)


def test_matern_infinite_at_zero_when_alpha_equals_d():
    assert matern_green(2.0, 2.0, 2, 0.0) == math.inf


def test_matern_finite_limit_at_zero():
    g0 = matern_green(2.0, 3.0, 2, 0.0)
    assert g0 == pytest.approx(matern_green(2.0, 3.0, 2, 1e-6), rel=1e-4)
    # closed form of the limit: Gamma(nu) / ((4 pi)^{d/2} Gamma(alpha/2) kappa^{2 nu})
    from scipy.special import gamma
    nu = 0.5
    expected = gamma(nu) / ((4 * math.pi) * gamma(1.5) * 2.0)
    assert g0 == pytest.approx(expected, rel=1e-12)


def test_matern_strictly_decreasing():
    hs = np.geomspace(0.01, 3.0, 40)
    for alpha in (2.0, 3.0, 4.5):
        vals = matern_green(2.0, alpha, 2, hs)
        assert np.all(np.diff(vals) < 0)


def test_matern_alpha3_is_exponential():
    # nu = 1/2 collapses the Bessel factor to a pure exponential
    k = matern_kernel(2.0, 3.0, 2)
    assert k(1.0) / k(0.5) == pytest.approx(math.exp(-2.0 * 0.5), rel=1e-12)


def test_matern_rejects_alpha_below_d():
    with pytest.raises(ParameterError):
        matern_green(1.0, 1.5, 2, 0.5)
    with pytest.raises(DomainError):
        matern_green(1.0, 3.0, 2, -0.1)


def test_matern_convexity_threshold_2d():
    assert matern_kernel(2.0, 2.0, 2).convex
    assert matern_kernel(2.0, 3.0, 2).convex
    assert not matern_kernel(2.0, 4.0, 2).convex
    assert not matern_kernel(2.0, 5.0, 2).convex


def test_ou_kernel_values():
    assert ou_kernel(0.2, 0.0) == 1.0
    assert ou_kernel(0.2, 5.0) == pytest.approx(math.exp(-1.0))
    hs = np.linspace(0.0, 10.0, 20)
    assert np.all(np.diff(ou_kernel(0.5, hs)) < 0)


def test_limit_eta_symmetric():
    k3 = matern_kernel(2.0, 3.0, 2)
    assert limit_eta_symmetric(k3, 0.0) == 1.0
    assert limit_eta_symmetric(k3, 1.0) == pytest.approx(
        0.5 + k3(1.0) / (2 * k3.value_at_zero))
    k2 = matern_kernel(2.0, 2.0, 2)
    assert limit_eta_symmetric(k2, 0.7) == 0.5  # infinite G(0)


def test_limit_eta_symmetric_requires_convexity():
    with pytest.raises(PreconditionError):
        limit_eta_symmetric(matern_kernel(2.0, 5.0, 2), 0.5)


def test_conjecture_matches_symmetric_for_convex():
    k3 = matern_kernel(2.0, 3.0, 2)
    for h in np.linspace(0.01, 2.0, 25):
        assert limit_eta_conjecture(k3, h) == pytest.approx(
            limit_eta_symmetric(k3, h), abs=1e-12)


def test_conjecture_second_branch_dominates_for_rough_kernel():
    k5 = matern_kernel(2.0, 5.0, 2)
    h = 0.05
    first = 0.5 + k5(h) / (2 * k5.value_at_zero)
    second = k5(h / 2) / k5.value_at_zero
    assert second > first
    assert limit_eta_conjecture(k5, h) == pytest.approx(second)
    assert limit_eta_conjecture(k5, 0.0) == 1.0


@pytest.mark.parametrize("alpha", [2.0, 3.0, 5.0])
def test_conjecture_on_an_array_equals_each_distance(alpha):
    k = matern_kernel(2.0, alpha, 2)
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
        limit_eta_onesided(matern_kernel(2.0, 2.0, 2), 1.0)


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
    k3 = matern_kernel(2.0, 3.0, 2)
    hs = np.linspace(0.0, 3.0, 30)
    for fun in (lambda h: limit_eta_symmetric(k3, h),
                lambda h: limit_eta_conjecture(k3, h),
                lambda h: limit_eta_onesided(k3, h)):
        vals = np.array([fun(h) for h in hs])
        assert np.all((vals >= 0.5 - 1e-12) & (vals <= 1.0))
        assert vals[0] == 1.0
        assert np.all(np.diff(vals) <= 0)


def test_custom_kernel_validation():
    k = custom_kernel(lambda h: np.exp(-h), 1.0, convex=True)
    assert k(0.5) == pytest.approx(math.exp(-0.5))
    with pytest.raises(ParameterError):
        custom_kernel(lambda h: np.exp(+h), 1.0, convex=True)   # increasing
    with pytest.raises(ParameterError):
        custom_kernel(lambda h: 2.0 - np.sqrt(h), 2.0, convex=True)  # concave


def test_kernel_json_round_trip():
    k = matern_kernel(2.0, 3.0, 2)
    obj = kernel_to_json(k)
    assert obj == {"kind": "matern_green", "kappa": 2.0, "alpha": 3.0, "d": 2}
    back = kernel_from_json(json.dumps(obj))
    assert back(0.7) == pytest.approx(k(0.7))
    e = kernel_from_json(kernel_to_json(exponential_kernel(0.3)))
    assert e(1.0) == pytest.approx(math.exp(-0.3))
