import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from exdep.errors import DomainError, EstimateError, PreconditionError
from exdep.estimate import (BivariateSample, LowCountWarning, _ranks_above,
                            chi_from_exceedances, empirical_chi, empirical_eta,
                            exceedances, rank_columns, rank_transform)


def test_rank_transform_two_points():
    s = BivariateSample([1.0, 2.0], [5.0, -1.0])
    u1, u2 = rank_transform(s)
    assert np.allclose(sorted(u1), [1 / 3, 2 / 3])
    assert np.allclose(sorted(u2), [1 / 3, 2 / 3])


def test_rank_transform_all_ties():
    s = BivariateSample([3.0] * 5, [1.0, 2, 3, 4, 5])
    u1, _ = rank_transform(s)
    assert np.allclose(u1, 0.5)


def test_rank_invariance_under_monotone_transform():
    rng = np.random.default_rng(0)
    x1, x2 = rng.random(500), rng.random(500)
    base = BivariateSample(x1, x2)
    warped = BivariateSample(np.exp(3 * x1), x2 ** 3)
    assert np.array_equal(rank_transform(base)[0], rank_transform(warped)[0])
    q = 0.9
    assert empirical_chi(base, q) == empirical_chi(warped, q)
    assert empirical_eta(base, k=30) == empirical_eta(warped, k=30)


def test_rank_columns_equal_rank_transform_of_every_pair():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2000, 5))
    x[:, 1] = np.round(x[:, 1], 1)  # many ties
    x[:, 4] = x[:, 0] ** 3
    u = rank_columns(x)
    assert u.shape == x.shape
    for i in range(5):
        for j in range(i + 1, 5):
            sample = BivariateSample(x[:, i], x[:, j])
            u1, u2 = rank_transform(sample)
            assert np.array_equal(u[:, i], u1) and np.array_equal(u[:, j], u2)
            for q in (0.5, 0.9):
                assert empirical_chi(sample, q) == chi_from_exceedances(u1 > q, u2 > q, q)


@st.composite
def tied_columns(draw):
    """Small-integer draws, so most values tie, in one or several columns."""
    n = draw(st.integers(2, 60))
    shape = draw(st.sampled_from([(n,), (n, 1), (n, draw(st.integers(2, 6)))]))
    x = draw(hnp.arrays(np.float64, shape, elements=st.integers(-3, 3).map(float)))
    # levels at every rank boundary r / (n + 1), one ulp either side, and near 0 and 1
    r = draw(st.integers(0, n + 1))
    edge = r / (n + 1.0)
    q = draw(st.sampled_from([edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0),
                              1e-12, 0.5 / (n + 1.0), 1.0 - 1e-12, 1.0 - 0.5 / (n + 1.0)]))
    return x, float(q)


@settings(max_examples=400, deadline=None)
@given(tied_columns())
def test_exceedances_equal_the_ranked_mask(case):
    x, q = case
    above = exceedances(x, q)
    assert above.shape == x.shape
    assert np.array_equal(above, rank_columns(x) > q)


def test_exceedances_at_the_extreme_levels():
    x = np.array([[1.0, 4.0], [2.0, 4.0], [2.0, 4.0], [3.0, 5.0]])  # n = 4
    assert exceedances(x, 0.1).all()       # c = n: every rank / 5 is above q
    assert not exceedances(x, 0.8).any()   # c = 0: no rank / 5 is above q
    assert np.array_equal(exceedances(x, 0.5), rank_columns(x) > 0.5)  # ties at the cut
    sample = BivariateSample(x[:, 0], x[:, 1])
    with pytest.warns(LowCountWarning):
        assert empirical_chi(sample, 0.1).value == 1.0
    with pytest.raises(EstimateError, match="no exceedances"):
        empirical_chi(sample, 0.8)


@st.composite
def rank_levels(draw):
    """n up to 10^6 and a level at a rank r / (n + 1), one or two ulps off
    it, or outside the ranks."""
    n = draw(st.one_of(st.integers(1, 100), st.integers(1, 10 ** 6)))
    r = draw(st.integers(0, n + 1))
    q = r / (n + 1.0)
    for _ in range(draw(st.integers(0, 2))):
        q = np.nextafter(q, draw(st.sampled_from([-np.inf, np.inf])))
    outside = st.sampled_from([-np.inf, -1.0, 1.0, 2.0, np.inf, np.nan])
    return n, float(draw(st.one_of(st.just(q), outside)))


@settings(max_examples=500, deadline=None)
@given(rank_levels())
def test_ranks_above_equal_the_counted_ranks(case):
    n, q = case
    assert _ranks_above(n, q) == np.count_nonzero(np.arange(1, n + 1) / (n + 1.0) > q)


def test_exceedances_partition_one_column_at_a_time():
    x = np.asfortranarray(np.random.default_rng(2).standard_normal((20_000, 16)))
    tracemalloc.start()
    try:
        above = exceedances(x, 0.95)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert above.flags.f_contiguous
    assert np.array_equal(above, rank_columns(x) > 0.95)
    # the mask and one column copy, with 32 kB of slack; a partition of the
    # whole field copies all 16 columns (2.56 MB)
    assert peak <= above.nbytes + x[:, 0].nbytes + 32 * 1024


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_fail_loudly(bad):
    x = np.linspace(0.0, 1.0, 50)
    x[7] = bad
    with pytest.raises(EstimateError, match="NaN or infinite"):
        exceedances(np.column_stack([x, x]), 0.9)
    with pytest.raises(EstimateError, match="NaN or infinite"):
        empirical_chi(BivariateSample(x, np.linspace(0.0, 1.0, 50)), 0.9)


def test_chi_comonotone_is_one():
    x = np.random.default_rng(1).random(10_000)
    s = BivariateSample(x, x)
    for q in (0.5, 0.9, 0.99):
        assert empirical_chi(s, q).value == 1.0


def test_chi_independent_uniforms():
    rng = np.random.default_rng(2)
    s = BivariateSample(rng.random(10 ** 6), rng.random(10 ** 6))
    est = empirical_chi(s, 0.95)
    assert abs(est.value - 0.05) < 3 * est.se


def test_chi_low_count_warns():
    rng = np.random.default_rng(3)
    s = BivariateSample(rng.random(100), rng.random(100))
    with pytest.warns(LowCountWarning):
        est = empirical_chi(s, 0.95)
    assert est.low_count


def test_chi_no_exceedances_errors():
    s = BivariateSample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(EstimateError):
        empirical_chi(s, 0.9999)
    with pytest.raises(DomainError):
        empirical_chi(s, 1.5)


def test_eta_independent_uniforms():
    rng = np.random.default_rng(4)
    n = 10 ** 6
    s = BivariateSample(rng.random(n), rng.random(n))
    est = empirical_eta(s)  # k defaults to ceil(sqrt(n))
    assert est.k == 1000
    assert est.ci_low <= 0.5 <= est.ci_high


def test_eta_comonotone():
    x = np.random.default_rng(5).random(100_000)
    est = empirical_eta(BivariateSample(x, x))
    assert est.ci_low <= 1.0 <= est.ci_high


def test_eta_k_range_validated():
    s = BivariateSample(np.arange(100.0), np.arange(100.0))
    with pytest.raises(PreconditionError):
        empirical_eta(s, k=5)
    with pytest.raises(PreconditionError):
        empirical_eta(s, k=80)

