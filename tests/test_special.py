import csv
import math
import pathlib

import numpy as np
import pytest

from exdep.errors import DomainError
from exdep.special import bessel_k, log_bessel_k

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "bessel_k_reference.csv"


def load_reference():
    with FIXTURES.open() as fh:
        return [(float(r["order"]), float(r["x"]), float(r["k"]), float(r["log_k"]))
                for r in csv.DictReader(fh)]


def test_reference_fixtures_to_1e10_relative():
    rows = load_reference()
    assert len(rows) >= 200
    for order, x, k_ref, log_ref in rows:
        log_val = log_bessel_k(order, x)
        # |delta log| bounds the relative error of K itself
        assert log_val == pytest.approx(log_ref, abs=1e-10 * max(1.0, abs(log_ref)))
        if np.isfinite(k_ref) and k_ref < 1e300:
            assert bessel_k(order, x) == pytest.approx(k_ref, rel=1e-10)


def test_symmetric_in_order():
    for v, x in [(0.5, 1.3), (3.25, 0.2), (17.0, 40.0)]:
        assert bessel_k(-v, x) == bessel_k(v, x)


def test_half_order_closed_form():
    # K_{1/2}(x) = sqrt(pi/(2x)) exp(-x)
    for x in (0.1, 1.0, 10.0, 300.0):
        expected = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
        assert log_bessel_k(0.5, x) == pytest.approx(math.log(math.sqrt(math.pi / (2 * x))) - x, rel=1e-12)
        if expected > 0:
            assert bessel_k(0.5, x) == pytest.approx(expected, rel=1e-12)


def test_small_argument_asymptotics():
    # x^nu K_nu(x) -> 2^{nu-1} Gamma(nu)
    from scipy.special import gamma

    for nu in (0.5, 1.0, 2.5):
        x = 1e-7
        assert x ** nu * bessel_k(nu, x) == pytest.approx(2 ** (nu - 1) * gamma(nu), rel=1e-5)


def test_subnormal_order_is_order_zero():
    x = np.array([4.47e-5, 0.3, 2.0, 700.0])
    for order in (5e-324, -1e-310):
        assert np.array_equal(log_bessel_k(order, x), log_bessel_k(0.0, x))
        assert np.array_equal(log_bessel_k(order, x, scaled=True),
                              log_bessel_k(0.0, x, scaled=True))


def test_domain_errors():
    with pytest.raises(DomainError):
        bessel_k(1.0, 0.0)
    with pytest.raises(DomainError):
        log_bessel_k(1.0, -2.0)
    with pytest.raises(DomainError):
        log_bessel_k(1.0, -math.inf)
    with pytest.raises(DomainError):
        log_bessel_k(1.0, np.array([1.0, 0.0]))


@pytest.mark.parametrize("order,x", [
    (35.0, 1e-300),       # K overflows: small-argument expansion
    (35.0, 0.5),
    (2.5, 1e-8),
    (0.0, 1.0),
    (-1.5, 700.0),
    (0.5, 2.0 ** 30 * 1.001),  # beyond the AMOS range: large-argument expansion
    (0.5, 1e300),
    (3.0, math.inf),
    (1.0, math.nan),
])
def test_float_route_matches_array_route(order, x):
    scalar = log_bessel_k(order, x)
    assert type(scalar) is float
    np.testing.assert_array_equal(scalar, log_bessel_k(order, np.array([x]))[0])
    np.testing.assert_array_equal(scalar, log_bessel_k(order, np.array(x)))


def test_large_arguments_beyond_amos_range():
    # scipy's kve returns NaN above x = 2^30
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for order in (0.0, 1.5, 35.0):
        for x in (2.0 ** 30 * 0.999, 2.0 ** 30 * 1.001, 1e12, 1e100):
            ref = float(mpmath.log(mpmath.besselk(order, x)))
            assert log_bessel_k(order, x) == pytest.approx(ref, rel=1e-15)
    assert bessel_k(1.0, 1e10) == 0.0


def test_vectorized():
    x = np.array([0.5, 1.0, 2.0])
    out = bessel_k(1.5, x)
    assert out.shape == (3,)
    assert np.all(np.diff(out) < 0)
