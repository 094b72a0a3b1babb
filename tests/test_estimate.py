import io
import math

import numpy as np
import pytest

from exdep.errors import DomainError, EstimateError, PreconditionError
from exdep.estimate import (BivariateSample, LowCountWarning, chi_curve,
                            empirical_chi, empirical_eta, eta_vs_distance,
                            rank_columns, rank_transform, write_eta_table)
from exdep.kernels import matern_kernel
from exdep.mesh import integral_coefficients, lattice_mesh_2d


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
            u1, u2 = rank_transform(BivariateSample(x[:, i], x[:, j]))
            assert np.array_equal(u[:, i], u1) and np.array_equal(u[:, j], u2)
            ranked = BivariateSample(x[:, i], x[:, j], ranks=(u[:, i], u[:, j]))
            for q in (0.5, 0.9):
                assert empirical_chi(ranked, q) == empirical_chi(
                    BivariateSample(x[:, i], x[:, j]), q)


@pytest.mark.parametrize("ranks", [
    ([0.5, 0.5],),
    ([0.5, 0.5], [0.5]),
    ([0.5, 0.5], [0.5, 0.5], [0.5, 0.5]),
])
def test_bivariate_sample_rejects_misshaped_ranks(ranks):
    with pytest.raises(PreconditionError):
        BivariateSample([1.0, 2.0], [3.0, 4.0], ranks=ranks)


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


def test_chi_curve_csv():
    rng = np.random.default_rng(6)
    s = BivariateSample(rng.random(50_000), rng.random(50_000))
    curve = chi_curve(s, [0.9, 0.95, 0.99])
    assert np.all(np.diff(curve.q) > 0)
    buf = io.StringIO()
    curve.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "q,chi,se"
    assert len(lines) == 4
    with pytest.raises(PreconditionError):
        chi_curve(s, [0.95, 0.9])


def test_bivariate_csv_round_trip(tmp_path):
    s = BivariateSample([1.0, 2.0, 3.0], [-1.0, 0.5, 2.5])
    path = tmp_path / "pairs.csv"
    s.to_csv(path)
    back = BivariateSample.from_csv(path)
    assert np.array_equal(back.x1, s.x1)
    assert np.array_equal(back.x2, s.x2)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(DomainError):
        BivariateSample.from_csv(bad)


def test_eta_vs_distance_table():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 15, 1)
    kern = matern_kernel(2.0, 3.0, 2)

    def coeffs(s1, s2):
        return integral_coefficients(kern, [s1, s2], mesh)

    pairs = [([0.2, 0.5], [0.6, 0.5]), ([0.3, 0.3], [0.3, 0.9])]
    rows = eta_vs_distance(coeffs, pairs, method="integral")
    assert len(rows) == 2
    assert rows[0][0] == pytest.approx(0.4)
    assert 0.5 <= rows[0][1] <= 1.0
    buf = io.StringIO()
    write_eta_table(rows, buf)
    assert buf.getvalue().splitlines()[0] == "h,eta,method"


def test_eta_vs_distance_empty():
    assert eta_vs_distance(lambda a, b: None, []) == []


def test_eta_vs_distance_duplicate_site_gives_one():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 15, 1)
    kern = matern_kernel(2.0, 3.0, 2)  # bounded kernel

    def coeffs(s1, s2):
        return integral_coefficients(kern, [s1, s2], mesh)

    rows = eta_vs_distance(coeffs, [([0.31, 0.5], [0.31, 0.5])])
    assert rows[0][1] == 1.0
