import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exdep import lintrans
from exdep.errors import (DomainError, OracleSizeError, ParameterError,
                          PreconditionError, RegimeError)
from exdep.exptail import GhParams, NoiseDistribution
from exdep.lintrans import (CoefficientMatrix, Regime, TailSummary, chi_gh_two,
                            chi_limit_a22, chi_mc, classify, eta_closed_form,
                            eta_gauge_oracle, eta_pairs, pearson_correlation,
                            simulate_linear, tail_summary, _welford_combine)


def random_matrix(rng, n_range=(2, 7)):
    """Mixed discrete/continuous coefficients with ties and zeros."""
    while True:
        n = int(rng.integers(*n_range))
        u = rng.random((2, n))
        a = rng.random((2, n))
        a = np.where(u < 0.25, 0.0,
                     np.where(u < 0.5, rng.choice([0.25, 0.5, 1.0], (2, n)), a))
        if a.max(axis=1).min() > 0 and a.max(axis=0).min() > 0:
            return CoefficientMatrix(a)


# -- construction -----------------------------------------------------------

def test_rejects_negative_entries():
    with pytest.raises(ParameterError):
        CoefficientMatrix([[1.0, -0.1], [0.5, 1.0]])


def test_rejects_zero_row():
    with pytest.raises(ParameterError):
        CoefficientMatrix([[0.0, 0.0], [0.5, 1.0]])


def test_drops_zero_columns():
    m = CoefficientMatrix([[1.0, 0.0, 0.3], [0.5, 0.0, 1.0]])
    assert m.shape == (2, 2)


def test_argmax_tie_tolerance():
    m = CoefficientMatrix([[1.0, 1.0 - 1e-14], [0.5, 1.0]])
    assert m.argmax_sets[0] == frozenset({0, 1})


def test_csv_json_round_trip(tmp_path):
    m = CoefficientMatrix([[1.0, 0.3], [0.5, 1.0]])
    path = tmp_path / "m.csv"
    m.to_csv(str(path))
    back = CoefficientMatrix.from_csv(str(path))
    assert np.array_equal(back.entries, m.entries)
    assert np.array_equal(CoefficientMatrix.from_json(m.to_json()).entries, m.entries)


# -- classification ----------------------------------------------------------

def test_classify_asymptotic_dependence():
    split = classify(CoefficientMatrix([[1.0, 0.5], [1.0, 0.2]]))
    assert split.regime is Regime.ASYMPTOTIC_DEPENDENCE
    assert split.shared_argmax == frozenset({0})
    assert np.allclose(split.residual_1, [0.5])
    assert np.allclose(split.residual_2, [0.2])


def test_classify_asymptotic_independence():
    split = classify(CoefficientMatrix([[1.0, 0.3], [0.5, 1.0]]))
    assert split.regime is Regime.ASYMPTOTIC_INDEPENDENCE
    assert split.shared_argmax == frozenset()


def test_classify_boundary():
    split = classify(CoefficientMatrix([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]))
    assert split.regime is Regime.BOUNDARY
    assert split.shared_argmax == frozenset({0})


def test_classify_needs_two_rows():
    with pytest.raises(PreconditionError):
        classify(CoefficientMatrix([[1.0, 0.5]]))


def test_residuals_below_one_under_dependence():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = random_matrix(rng)
        split = classify(m)
        if split.regime is Regime.ASYMPTOTIC_DEPENDENCE:
            assert np.all(split.residual_1 < 1.0)
            assert np.all(split.residual_2 < 1.0)


# -- eta ----------------------------------------------------------------------

def test_eta_independent_components():
    assert eta_closed_form(CoefficientMatrix([[1.0, 0.0], [0.0, 1.0]])) == pytest.approx(0.5)


def test_eta_example_two_variable():
    m = CoefficientMatrix([[1.0, 0.3], [0.5, 1.0]])
    assert eta_closed_form(m) == pytest.approx((1 - 0.15) / (2 - 0.8), abs=1e-12)


def test_eta_is_one_without_disjoint_argmax():
    assert eta_closed_form(CoefficientMatrix([[1.0, 0.3], [1.0, 0.5]])) == 1.0


def test_eta_first_component_pass_through():
    m = CoefficientMatrix([[1.0, 0.0, 0.0], [0.4, 1.0, 0.7]])
    assert eta_closed_form(m) == pytest.approx(1.0 / (2 - 0.4), abs=1e-12)


def test_eta_scale_invariance():
    base = CoefficientMatrix([[1.0, 0.3], [0.5, 1.0]])
    scaled = CoefficientMatrix([[7.0, 2.1], [0.5, 1.0]])
    assert eta_closed_form(scaled) == pytest.approx(eta_closed_form(base), abs=1e-14)
    assert classify(scaled).regime is classify(base).regime


def test_eta_range_bounds():
    rng = np.random.default_rng(13)
    for _ in range(200):
        eta = eta_closed_form(random_matrix(rng))
        assert 0.5 - 1e-12 <= eta <= 1.0


def test_eta_monotone_in_coefficient():
    # example-2 geometry: fixed a12, increasing a21
    vals = [eta_closed_form(CoefficientMatrix([[1.0, 0.3], [a21, 1.0]]))
            for a21 in np.linspace(0.0, 0.95, 12)]
    assert np.all(np.diff(vals) > 0)


def test_eta_needs_two_columns():
    # one column is the argmax of both rows: asymptotic dependence, eta = 1
    assert eta_closed_form(CoefficientMatrix([[1.0], [0.5]])) == 1.0


def test_eta_argmax_tie_rule_decides():
    # column 1 ties row 1's maximum within ARGMAX_RTOL, so the argmax sets
    # share it; the envelope alone would give 1 - 2e-14
    m = CoefficientMatrix([[1.0, 1.0 - 1e-14], [0.5, 1.0]])
    assert classify(m).regime is Regime.BOUNDARY
    assert eta_closed_form(m) == 1.0


def test_eta_needs_two_rows():
    with pytest.raises(PreconditionError):
        eta_closed_form(CoefficientMatrix([[1.0, 0.5], [0.5, 1.0], [0.2, 0.2]]))


# -- eta properties -------------------------------------------------------------

# entries: exact zeros and ties (shared values) as well as generic values
_entry = st.one_of(st.just(0.0), st.sampled_from([0.25, 0.5, 1.0]),
                   st.floats(0.0, 1.0, allow_nan=False, allow_subnormal=False))


@st.composite
def coefficient_matrices(draw, max_columns=8):
    n = draw(st.integers(1, max_columns))
    rows = [draw(st.lists(_entry, min_size=n, max_size=n)) for _ in range(2)]
    a = np.array(rows)  # all-zero columns stay: CoefficientMatrix drops them
    for r in range(2):  # every row needs a positive maximum
        if a[r].max() == 0.0:
            a[r, draw(st.integers(0, n - 1))] = 1.0
    return a


@settings(max_examples=300, deadline=None)
@given(coefficient_matrices())
def test_eta_property_range(a):
    eta = eta_closed_form(CoefficientMatrix(a))
    assert 0.5 <= eta <= 1.0


@settings(max_examples=300, deadline=None)
@given(coefficient_matrices(), st.randoms(use_true_random=False),
       st.floats(0.1, 10.0), st.floats(0.1, 10.0))
def test_eta_property_invariances(a, rnd, s1, s2):
    eta = eta_closed_form(CoefficientMatrix(a))
    perm = list(range(a.shape[1]))
    rnd.shuffle(perm)
    assert eta_closed_form(CoefficientMatrix(a[::-1])) == pytest.approx(eta, abs=1e-12)
    assert eta_closed_form(CoefficientMatrix(a[:, perm])) == pytest.approx(eta, abs=1e-12)
    assert eta_closed_form(CoefficientMatrix(a * [[s1], [s2]])) == pytest.approx(eta, abs=1e-12)
    padded = np.hstack([a, np.zeros((2, 1))])
    assert eta_closed_form(CoefficientMatrix(padded)) == eta


@settings(max_examples=300, deadline=None)
@given(coefficient_matrices())
def test_eta_property_one_exactly_outside_independence(a):
    m = CoefficientMatrix(a)
    independent = classify(m).regime is Regime.ASYMPTOTIC_INDEPENDENCE
    assert (eta_closed_form(m) == 1.0) is not independent


def eta_by_all_pairs(m):
    """The closed form term by term over all column pairs, as the
    ``lintrans`` docstring writes it."""
    b1, b2 = (row.tolist() for row in m.normalized)
    inv = math.inf
    for i in range(len(b1)):
        if min(b1[i], b2[i]) > 0.0:
            inv = min(inv, max(1.0 / b1[i], 1.0 / b2[i]))
        for j in range(len(b1)):
            det = abs(b2[i] * b1[j] - b1[i] * b2[j])
            if i != j and det > 0.0:
                inv = min(inv, (abs(b2[i] - b1[i]) + abs(b2[j] - b1[j])) / det)
    return min(1.0, 1.0 / inv)


@settings(max_examples=300, deadline=None)
@given(coefficient_matrices())
def test_eta_property_equals_closed_form_terms(a):
    m = CoefficientMatrix(a)
    if classify(m).regime is Regime.ASYMPTOTIC_INDEPENDENCE:
        assert eta_closed_form(m) == eta_by_all_pairs(m)


@settings(max_examples=200, deadline=None)
@given(coefficient_matrices())
def test_eta_property_matches_oracle(a):
    m = CoefficientMatrix(a)
    assert eta_closed_form(m) == pytest.approx(eta_gauge_oracle(m), abs=1e-9)


# -- eta of many row pairs ------------------------------------------------------

@st.composite
def row_stacks(draw, max_rows=5, max_columns=10):
    """k >= 3 rows and a list of distinct-row pairs.  Entries include 1 -
    1e-13 (in the argmax set of a row with maximum 1); columns may be
    copied, nudged by one ulp, put on the diagonal or zeroed."""
    k = draw(st.integers(3, max_rows))
    n = draw(st.integers(1, max_columns))
    entry = st.one_of(_entry, st.just(1.0 - 1e-13))
    a = np.array([draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)])
    for _ in range(draw(st.integers(0, 3))):
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        edit = draw(st.sampled_from(["copy", "nudge", "diagonal", "zero"]))
        if edit == "copy":
            a[:, dst] = a[:, src]
        elif edit == "nudge":
            a[:, dst] = np.nextafter(a[:, src], draw(st.sampled_from([0.0, 2.0])))
        elif edit == "diagonal":
            a[:, dst] = a[draw(st.integers(0, k - 1)), src]
        else:
            a[:, dst] = 0.0
    for r in range(k):  # every row needs a positive maximum
        if a[r].max() == 0.0:
            a[r, draw(st.integers(0, n - 1))] = 1.0
    pair = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)).filter(lambda p: p[0] != p[1])
    return a, draw(st.lists(pair, min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(row_stacks())
def test_eta_pairs_property_equals_closed_form_terms(case):
    a, pairs = case
    got = eta_pairs(a, pairs)
    assert got.shape == (len(pairs),)
    for (i, j), eta in zip(pairs, got.tolist()):
        m = CoefficientMatrix(a[[i, j]])
        independent = classify(m).regime is Regime.ASYMPTOTIC_INDEPENDENCE
        assert eta == (eta_by_all_pairs(m) if independent else 1.0)
        assert eta == eta_closed_form(m)


@pytest.mark.parametrize("a", [
    [[1.0, 0.47, 1.0000000000000002], [0.31, 1.0, 0.31000000000000005]],
    [[1.0, 0.9999999999999999, 0.31], [0.36, 0.35999999999999993, 0.78]],
    [[1.0, 0.34, 0.44, 0.34, 0.9999999999999999], [0.39, 1.0, 0.22, 0.74, 0.38999999999999996]],
])
def test_eta_pairs_walks_past_near_copies_of_a_row_maximum(a):
    # a column one ulp from the maximal column of a row moves the last bit
    # of eta, so the walk must not stop at the maximal column itself
    a = np.array(a)
    expected = [eta_by_all_pairs(CoefficientMatrix(a)), eta_by_all_pairs(CoefficientMatrix(a[::-1]))]
    assert eta_pairs(a, [(0, 1), (1, 0)]).tolist() == expected


def test_eta_pairs_of_no_pairs_is_empty():
    assert eta_pairs(np.eye(3), np.empty((0, 2), dtype=int)).shape == (0,)


@pytest.mark.parametrize("rows, pairs, error", [
    ([[1.0, 0.2], [0.3, 1.0], [0.5, 0.5]], [(1, 1)], PreconditionError),
    ([[1.0, 0.2], [0.3, 1.0], [0.5, 0.5]], [(0, 3)], ParameterError),
    ([[1.0, 0.2], [0.3, 1.0], [0.5, 0.5]], [(-1, 0)], ParameterError),
    ([[1.0, 0.2], [0.3, 1.0], [0.5, 0.5]], [(0.0, 1.0)], ParameterError),
    ([[1.0, 0.2], [0.3, 1.0], [0.5, 0.5]], [0, 1], ParameterError),
    ([[1.0, 0.2], [0.3, 1.0], [-0.5, 0.5]], [(0, 1)], ParameterError),
    ([[1.0, 0.2], [0.3, 1.0], [math.nan, 0.5]], [(0, 1)], ParameterError),
    ([[1.0, 0.2], [0.3, 1.0], [math.inf, 0.5]], [(0, 1)], ParameterError),
    ([[1.0, 0.2], [0.3, 1.0], [0.0, 0.0]], [(0, 1)], ParameterError),
    ([1.0, 0.2], [(0, 1)], ParameterError),
])
def test_eta_pairs_rejects_bad_input(rows, pairs, error):
    with pytest.raises(error):
        eta_pairs(rows, pairs)


# -- gauge oracle -----------------------------------------------------------

def test_oracle_independent_components():
    assert eta_gauge_oracle(CoefficientMatrix([[1.0, 0.0], [0.0, 1.0]])) == pytest.approx(0.5, abs=1e-9)


def test_oracle_matches_closed_form_on_examples():
    for entries in ([[1.0, 0.3], [0.5, 1.0]], [[1.0, 0.0, 0.0], [0.4, 1.0, 0.7]]):
        m = CoefficientMatrix(entries)
        assert eta_gauge_oracle(m) == pytest.approx(eta_closed_form(m), abs=1e-7)


def test_oracle_random_instance():
    m = random_matrix(np.random.default_rng(77), n_range=(5, 6))
    assert eta_gauge_oracle(m) == pytest.approx(eta_closed_form(m), abs=1e-7)


def test_oracle_size_limit():
    with pytest.raises(OracleSizeError):
        eta_gauge_oracle(CoefficientMatrix(np.ones((2, 9))))


def test_oracle_rejects_uncertified_lp_result(monkeypatch):
    solve = lintrans.optimize.linprog

    def tampered(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.fun *= 0.9  # a value below the optimum, as a faulty solver might report
        return res

    monkeypatch.setattr(lintrans.optimize, "linprog", tampered)
    with pytest.raises(RuntimeError, match="duality gap"):
        eta_gauge_oracle(CoefficientMatrix([[1.0, 0.3], [0.5, 1.0]]))


# -- chi (Monte Carlo and quadrature) -----------------------------------------

def test_chi_mc_exact_one_for_empty_residuals():
    dist = NoiseDistribution.nig(1.0, 1.0)
    value, se = chi_mc(CoefficientMatrix([[1.0, 0.0], [1.0, 0.0]]), dist, 1000, 0)
    assert value == 1.0 and se == 0.0


def test_chi_mc_exact_one_for_identical_residuals():
    dist = NoiseDistribution.nig(1.0, 1.0)
    value, se = chi_mc(CoefficientMatrix([[1.0, 0.4], [1.0, 0.4]]), dist, 1000, 0)
    assert value == 1.0 and se == 0.0


def test_chi_mc_requires_dependence_regime():
    dist = NoiseDistribution.nig(1.0, 1.0)
    with pytest.raises(RegimeError):
        chi_mc(CoefficientMatrix([[1.0, 0.3], [0.5, 1.0]]), dist, 1000, 0)


def test_chi_mc_matches_quadrature():
    params = GhParams(-0.5, 1.0, 1.0, 0.0, 0.0)
    dist = NoiseDistribution(params)
    exact = chi_gh_two(0.3, 0.7, params)
    value, se = chi_mc(CoefficientMatrix([[1.0, 0.3], [1.0, 0.7]]), dist, 200_000, 3)
    assert abs(value - exact) < 3 * se


def test_chi_mc_substream_merge_independent_of_chunking():
    params = GhParams(-0.5, 1.0, 1.0, 0.0, 0.0)
    dist = NoiseDistribution(params)
    m = CoefficientMatrix([[1.0, 0.3], [1.0, 0.7]])
    a = chi_mc(m, dist, 40_000, 5, chunk=1 << 14)
    b = chi_mc(m, dist, 40_000, 5, chunk=1 << 14, threads=2)
    assert a[0] == pytest.approx(b[0], rel=1e-12)
    assert a[1] == pytest.approx(b[1], rel=1e-12)


def test_chi_gh_two_comonotone_shortcut():
    assert chi_gh_two(0.5, 0.5, GhParams(-0.5, 1.0, 1.0)) == 1.0


def test_chi_gh_two_strictly_inside_unit_interval():
    value = chi_gh_two(0.3, 0.9, GhParams(-0.5, 1.0, 1.0))
    assert 0.0 < value < 1.0


def test_chi_gh_two_monotone_in_a22():
    params = GhParams(1.0, 1.0, 1.0)
    grid = np.arange(0.35, 0.96, 0.1)
    vals = [chi_gh_two(0.3, a, params) for a in grid]
    assert np.all(np.diff(vals) < 0)


def test_chi_gh_two_rejects_unsupported_parameters():
    with pytest.raises(ParameterError):
        chi_gh_two(0.3, 0.7, GhParams(-0.5, 1.0, 0.0))
    with pytest.raises(ParameterError):
        chi_gh_two(0.3, 0.7, GhParams(-0.5, 1.0, 1.0, 0.0, 0.5))


def test_chi_limit_zero_for_nonnegative_lambda():
    for lam in (1.0, 5.0, 30.0):
        assert chi_limit_a22(0.3, GhParams(lam, 1.0, 1.0)) == 0.0


def test_chi_limit_positive_below_zero_lambda():
    value = chi_limit_a22(0.3, GhParams(-0.5, 1.0, 1.0))
    assert 0.0 < value < 1.0
    near = chi_gh_two(0.3, 1 - 1e-6, GhParams(-0.5, 1.0, 1.0))
    assert abs(near - value) < 1e-3


def test_chi_limit_a12_zero_simplification():
    # with a12 = 0 the second integral uses M(0) = 1
    params = GhParams(-0.5, 1.0, 1.0)
    dist = NoiseDistribution(params)
    beta =dist_beta = 1.0
    m1 = dist.mgf(beta)
    c_star = math.log(m1) / beta
    expected = (dist._exp_weighted_integral(beta, -np.inf, c_star) / m1
                + dist.sf(c_star))
    assert chi_limit_a22(0.0, params) == pytest.approx(expected, abs=1e-8)


# -- correlation ------------------------------------------------

def test_pearson_orthogonal_rows():
    assert pearson_correlation(CoefficientMatrix([[1.0, 0.0], [0.0, 1.0]])) == 0.0


def test_pearson_example_value():
    assert pearson_correlation(CoefficientMatrix([[1.0, 0.0], [0.4, 1.0]])) == pytest.approx(
        0.4 / math.sqrt(1.16))


def test_extra_column_lowers_correlation_not_eta():
    base = CoefficientMatrix([[1.0, 0.0], [0.4, 1.0]])
    extended = CoefficientMatrix([[1.0, 0.0, 0.0], [0.4, 1.0, 0.5]])
    assert pearson_correlation(extended) < pearson_correlation(base)
    assert eta_closed_form(extended) == pytest.approx(eta_closed_form(base), abs=1e-14)


# -- summaries ------------------------------------------------------------------

def test_tail_summary_asymptotic_independence():
    summary = tail_summary(CoefficientMatrix([[1.0, 0.3], [0.5, 1.0]]))
    assert summary.regime is Regime.ASYMPTOTIC_INDEPENDENCE
    assert summary.eta < 1.0
    assert summary.chi is None


def test_tail_summary_boundary_chi_undetermined():
    summary = tail_summary(CoefficientMatrix([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]))
    assert summary.regime is Regime.BOUNDARY
    assert summary.eta == 1.0
    assert summary.chi is None and summary.chi_method is None


def test_tail_summary_dependence_attaches_monte_carlo_chi():
    dist = NoiseDistribution.nig(1.0, 1.0)
    m = CoefficientMatrix([[1.0, 0.3], [1.0, 0.7]])
    summary = tail_summary(m, dist, 5000, 4)
    assert summary.regime is Regime.ASYMPTOTIC_DEPENDENCE
    assert summary.eta == 1.0
    assert (summary.chi, summary.chi_se) == chi_mc(m, dist, 5000, 4)
    assert summary.chi_method == "monte_carlo"
    assert tail_summary(m).chi is None


def test_tail_summary_json_round_trip():
    summary = tail_summary(CoefficientMatrix([[1.0, 0.3], [0.5, 1.0]]))
    obj = summary.to_json()
    assert obj["regime"] == "AsymptoticIndependence"
    back = TailSummary.from_json(obj)
    assert back == summary


def test_welford_merge_order_independent():
    s1, s2, s3 = (100, 0.5, 2.0), (50, 0.7, 1.0), (75, 0.6, 1.5)
    a = _welford_combine(_welford_combine(s1, s2), s3)
    b = _welford_combine(s1, _welford_combine(s2, s3))
    assert a[0] == b[0]
    assert a[1] == pytest.approx(b[1], rel=1e-12)
    assert a[2] == pytest.approx(b[2], rel=1e-12)


def test_simulate_linear_shape_and_determinism():
    dist = NoiseDistribution.nig(1.0, 1.0)
    m = CoefficientMatrix([[1.0, 0.3], [0.5, 1.0]])
    x = simulate_linear(m, dist, 100, 9)
    y = simulate_linear(m, dist, 100, 9)
    assert x.shape == (100, 2)
    assert np.array_equal(x, y)
