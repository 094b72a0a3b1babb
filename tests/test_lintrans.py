import math
import random
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from exdep import lintrans
from exdep.errors import (DomainError, OracleSizeError, ParameterError,
                          PreconditionError, RegimeError)
from exdep.exptail import GhParams, NoiseDistribution
from exdep.lintrans import (CoefficientMatrix, Regime, chi_gh_two,
                            chi_limit_a22, chi_mc, classify, eta_closed_form,
                            eta_gauge_oracle, eta_pairs, simulate_linear,
                            tail_summary)
from exdep.streams import substreams


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


def test_drops_zero_columns(tmp_path):
    m = CoefficientMatrix([[1.0, 0.0, 0.3], [0.5, 0.0, 1.0]])
    assert m.shape == (2, 2)
    path = tmp_path / "m.csv"
    path.write_text("1.0,0.0,0.3\n0.5,0.0,1.0\n")
    assert np.array_equal(CoefficientMatrix.from_csv(str(path)).entries, m.entries)


def test_argmax_tie_tolerance():
    m = CoefficientMatrix([[1.0, 1.0 - 1e-14], [0.5, 1.0]])
    assert m.argmax_sets[0] == frozenset({0, 1})


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
    base = eta_closed_form(CoefficientMatrix([[1.0, 0.0], [0.4, 1.0]]))
    assert base == pytest.approx(1.0 / (2 - 0.4), abs=1e-12)
    for extra in (0.5, 0.7):  # a column the first row does not load leaves eta alone
        m = CoefficientMatrix([[1.0, 0.0, 0.0], [0.4, 1.0, extra]])
        assert eta_closed_form(m) == pytest.approx(base, abs=1e-14)


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


# near-parallel tiny columns next to the diagonal b_1 = b_2: row scaling leaves them
# one ulp apart, which the determinant's product form cancelled to rounding noise
NEAR_PARALLEL = np.array([[0.0, 0.0, 0.0, 1.0, 7.11036258e-158, 0.75],
                          [0.0, 0.0, 1.0, 0.0, 7.11036258e-158, 0.75]])


@settings(max_examples=300, deadline=None)
@given(coefficient_matrices(), st.randoms(use_true_random=False),
       st.floats(0.1, 10.0), st.floats(0.1, 10.0))
@example(NEAR_PARALLEL, random.Random(0), 1.0, 5.0)
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
            det = abs((b2[i] - b1[i]) * b1[j] - b1[i] * (b2[j] - b1[j]))
            if i != j and det > 0.0:
                inv = min(inv, (abs(b2[i] - b1[i]) + abs(b2[j] - b1[j])) / det)
    return min(1.0, 1.0 / inv)


def both_eta_paths():
    """Yield twice: with matrices of at most ``_TERM_COLUMNS`` columns
    taking every closed-form term, then with every matrix taking the
    Pareto front, so the front is also pinned on small and tied ones."""
    for term_columns in (lintrans._TERM_COLUMNS, 0):
        with mock.patch.object(lintrans, "_TERM_COLUMNS", term_columns):
            yield


@settings(max_examples=300, deadline=None)
@given(coefficient_matrices())
@example(NEAR_PARALLEL * [[1.0], [5.0]])
def test_eta_property_equals_closed_form_terms(a):
    m = CoefficientMatrix(a)
    if classify(m).regime is Regime.ASYMPTOTIC_INDEPENDENCE:
        for _ in both_eta_paths():
            assert eta_closed_form(m) == eta_by_all_pairs(m)


@settings(max_examples=200, deadline=None)
@given(coefficient_matrices())
@example(NEAR_PARALLEL * [[1.0], [5.0]])
def test_eta_property_matches_oracle(a):
    m = CoefficientMatrix(a)
    for _ in both_eta_paths():
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
    for _ in both_eta_paths():
        got = eta_pairs(CoefficientMatrix(a), pairs)
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
    for _ in both_eta_paths():
        assert eta_pairs(CoefficientMatrix(a), [(0, 1), (1, 0)]).tolist() == expected


@st.composite
def long_front_stacks(draw, max_columns=120):
    """k rows of concave profiles 1 - |u - c|^e on a grid of n points u, each
    peaking at its own c, so a pair's Pareto front holds the columns between
    its peaks: from one column to about n.  The n columns lie on both sides
    of the ``_TERM_COLUMNS`` size rule.  Some columns are scaled into the
    interior, and every ordered pair of distinct rows is asked for."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, max_columns))
    u = np.linspace(0.0, 1.0, n)
    a = np.array([1.0 - np.abs(u - draw(st.floats(0.0, 1.0))) ** draw(st.sampled_from([1.0, 2.0, 3.0]))
                  for _ in range(k)])
    a *= draw(st.lists(st.sampled_from([1.0, 1.0, 0.9, 0.5]), min_size=n, max_size=n))
    for r in range(k):  # every row needs a positive maximum
        if a[r].max() == 0.0:
            a[r, 0] = 1.0
    return a, [(i, j) for i in range(k) for j in range(k) if i != j]


@settings(max_examples=100, deadline=None)
@given(long_front_stacks())
def test_eta_pairs_batched_equals_one_pair_on_both_sides_of_the_size_rule(case):
    a, pairs = case
    m = CoefficientMatrix(a)
    got = eta_pairs(m, pairs)
    for (i, j), eta in zip(pairs, got.tolist()):
        assert eta == eta_closed_form(CoefficientMatrix(a[[i, j]]))
    for size_rule in (0, 10 ** 9):  # every matrix through its fronts, then through every term
        with mock.patch.object(lintrans, "_TERM_COLUMNS", size_rule):
            assert eta_pairs(m, pairs).tolist() == got.tolist()


@pytest.mark.parametrize("a, w, value", [
    # the flat column (0.6, 0.6) is active at the first midpoint
    ([[1.0, 0.6, 0.0], [0.0, 0.6, 1.0]], 0.5, 0.6),
    # the flat column (0.7, 0.7) is active only at the third, after 1/2 and 1/4
    ([[1.0, 0.0, 0.7], [0.5, 1.0, 0.7]], 0.375, 0.7),
])
def test_eta_flat_active_line_collapses_the_bisection(monkeypatch, a, w, value):
    # a slope of exactly 0 at a midpoint sets lo = hi = w there
    seen = []
    real = lintrans._bisect_rows
    monkeypatch.setattr(lintrans, "_bisect_rows", lambda *lines: seen.append(real(*lines)) or seen[-1])
    monkeypatch.setattr(lintrans, "_TERM_COLUMNS", 0)  # through the front
    m = CoefficientMatrix(a)
    eta = eta_closed_form(m)
    assert [mid.tolist() for mid in seen] == [[w]]
    assert eta == eta_by_all_pairs(m) == pytest.approx(value, abs=1e-15)


def test_eta_pairs_returns_ones_before_any_front_when_every_argmax_set_meets(monkeypatch):
    # rows 0-2 share column 0, rows 2-3 share column 3: no pair needs an envelope
    a = np.array([[1.0, 0.2, 0.5, 0.1],
                  [1.0, 0.9, 0.0, 0.3],
                  [1.0, 0.4, 0.3, 1.0],
                  [0.2, 0.6, 0.7, 1.0]])
    monkeypatch.setattr(lintrans, "_flush_fronts", lambda *args: pytest.fail("fronts built"))
    monkeypatch.setattr(lintrans.np, "argsort", lambda *args, **kw: pytest.fail("rows sorted"))
    pairs = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 2)]
    assert eta_pairs(CoefficientMatrix(a), pairs).tolist() == [1.0] * len(pairs)


def test_eta_pairs_of_no_pairs_is_empty():
    assert eta_pairs(CoefficientMatrix(np.eye(3)), np.empty((0, 2), dtype=int)).shape == (0,)


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
    # bad pairs raise in eta_pairs, bad rows in the CoefficientMatrix it takes
    with pytest.raises(error):
        eta_pairs(CoefficientMatrix(rows), pairs)


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


def _tamper_vertices(monkeypatch, tamper):
    """Make the oracle's candidate step hand ``tamper(y, lam)`` to its certificate."""
    found = lintrans._gauge_vertices
    monkeypatch.setattr(lintrans, "_gauge_vertices", lambda b: tamper(*found(b)))


def test_oracle_rejects_uncertified_lp_result(monkeypatch):
    # feasible on both sides, but the dual value falls short of sum |y|
    _tamper_vertices(monkeypatch, lambda y, lam: (y, 0.9 * lam))
    with pytest.raises(RuntimeError, match="duality gap"):
        eta_gauge_oracle(CoefficientMatrix([[1.0, 0.3], [0.5, 1.0]]))


@pytest.mark.parametrize("tamper, message", [
    (lambda y, lam: (0.9 * y, lam), "point is infeasible"),
    (lambda y, lam: (np.full_like(y, np.nan), lam), "point is infeasible"),
    (lambda y, lam: (y, 1.1 * lam), "not dual feasible"),
    (lambda y, lam: (y, lam * [1.0, -1.0]), "not dual feasible"),
    (lambda y, lam: (1.1 * y, lam), "duality gap"),
], ids=["primal-short", "primal-nan", "dual-over", "dual-negative", "primal-long"])
def test_oracle_certificate_rejects_each_flaw(monkeypatch, tamper, message):
    _tamper_vertices(monkeypatch, tamper)
    with pytest.raises(RuntimeError, match=message):
        eta_gauge_oracle(CoefficientMatrix([[1.0, 0.3], [0.5, 1.0]]))


def gauge_lp_eta(m):
    """eta from scipy's HiGHS on the gauge LP in (y, t): min sum t
    subject to -t <= y <= t and b.y >= 1."""
    b = m.normalized
    n = b.shape[1]
    eye = np.eye(n)
    a_ub = np.block([[eye, -eye], [-eye, -eye], [-b, np.zeros((2, n))]])
    res = optimize.linprog(np.r_[np.zeros(n), np.ones(n)], A_ub=a_ub,
                           b_ub=np.r_[np.zeros(2 * n), -1.0, -1.0],
                           bounds=[(None, None)] * n + [(0, None)] * n, method="highs")
    assert res.success, res.message
    return min(1.0, 1.0 / res.fun)


def strict_oracle(m):
    """``eta_gauge_oracle`` with every warning it lets escape raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return eta_gauge_oracle(m)


@settings(max_examples=200, deadline=None)
@given(coefficient_matrices())
def test_oracle_property_matches_linprog(a):
    m = CoefficientMatrix(a)
    assert strict_oracle(m) == pytest.approx(gauge_lp_eta(m), abs=1e-9)


TINY, SMALLEST_NORMAL = 1e-300, 2.2250738585072014e-308


@pytest.mark.parametrize("entries", [
    [[1.0], [0.5]],
    np.random.default_rng(8).random((2, 8)).tolist(),
    [[1.0, 0.3, 0.3, 0.0], [0.2, 1.0, 1.0, 0.4]],  # a duplicate column
    [[1.0, 0.4, 0.2], [0.1, 0.8, 0.4]],  # parallel columns
    [[1.0, 0.0, 0.5, 0.25], [0.0, 1.0, 0.5, 0.25]],  # a diagonal and a parallel column
    [[1.0, TINY], [TINY, 1.0]],
    [[1.0, TINY, 0.5], [TINY, 1.0, TINY]],
    [[1.0, SMALLEST_NORMAL, 0.5], [SMALLEST_NORMAL, 1.0, 0.5]],
    [[SMALLEST_NORMAL, 1.0, TINY], [1.0, TINY, SMALLEST_NORMAL]],
    [[1.0, 1.0, 0.5], [0.5, 0.5, 1.0]],  # tied argmax
    [[1.0, 0.5, 0.5, 0.25], [0.25, 0.5, 1.0, 0.5]],  # ties in both rows
    [[1.0, 1.0], [1.0, 0.2]],  # shared argmax: eta = 1
], ids=["n1", "n8", "duplicate", "parallel", "diagonal", "tiny", "tiny-three",
        "smallest-normal", "tiny-mixed", "tied-argmax", "ties", "shared-argmax"])
def test_oracle_matches_linprog_on_degenerate_matrices(entries):
    m = CoefficientMatrix(entries)
    assert strict_oracle(m) == pytest.approx(gauge_lp_eta(m), abs=1e-9)


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


@pytest.mark.parametrize("entries", [[[1.0, 0.3], [1.0, 0.7]], [[1.0, 0.4], [1.0, 0.4]]])
@pytest.mark.parametrize("n_samples", [0, 1])
def test_chi_mc_needs_two_samples(entries, n_samples):
    # no standard error from fewer; checked before the Z1 = Z2 shortcut too
    dist = NoiseDistribution.nig(1.0, 1.0)
    with pytest.raises(DomainError, match="at least 2 samples"):
        chi_mc(CoefficientMatrix(entries), dist, n_samples, 0)


def test_chi_mc_is_the_mean_over_the_simulated_residuals(monkeypatch):
    # Z = [r1; r2] Y from the sampler of simulate_linear, over several chunks
    monkeypatch.setattr(lintrans, "_MC_CHUNK", 64)
    dist = NoiseDistribution.nig(1.0, 1.0)
    beta = dist.tail_index
    value, se = chi_mc(CoefficientMatrix([[1.0, 0.3], [1.0, 0.7]]), dist, 150, 5)
    z = simulate_linear(CoefficientMatrix([[0.3], [0.7]]), dist, 150, 5)
    vals = np.minimum(np.exp(beta * z[:, 0]) / dist.mgf(0.3 * beta),
                      np.exp(beta * z[:, 1]) / dist.mgf(0.7 * beta))
    assert value == pytest.approx(vals.mean(), rel=1e-12)
    assert se == pytest.approx(vals.std(ddof=1) / math.sqrt(150), rel=1e-9)


def test_chi_mc_matches_quadrature():
    params = GhParams(-0.5, 1.0, 1.0, 0.0, 0.0)
    dist = NoiseDistribution(params)
    exact = chi_gh_two(0.3, 0.7, params)
    value, se = chi_mc(CoefficientMatrix([[1.0, 0.3], [1.0, 0.7]]), dist, 200_000, 3)
    assert abs(value - exact) < 3 * se


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


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(-3.0, 5.0), tau=st.one_of(st.just(0.0), st.floats(0.1, 5.0)),
       psi=st.floats(0.1, 5.0), c=st.sampled_from([1e-6, 1e-3, 1e3, 1e6]))
@example(lam=-5e-324, tau=1.0, psi=1.0, c=1e-6)
@example(lam=-2.2250738585072014e-308, tau=5.0, psi=5.0, c=1e6)
def test_chi_gh_two_is_unchanged_when_the_law_is_rescaled(lam, tau, psi, c):
    # with mu = gamma = 0, GH(lambda, c tau, psi / c) is GH(lambda, tau, psi)
    # stretched by sqrt(c), and chi does not see a common scale of the noise
    assume((lam <= 0.0 and tau > 0.0) or (lam > 0.05 and tau >= 0.0))
    grid = [0.0, 0.2, 0.35, 0.5, 0.7, 0.95, 1.0]
    unit = chi_gh_two(0.3, grid, GhParams(lam, tau, psi))
    scaled = chi_gh_two(0.3, grid, GhParams(lam, c * tau, psi / c))
    np.testing.assert_allclose(scaled, unit, rtol=0.0, atol=1e-12)


def test_chi_limit_zero_for_nonnegative_lambda():
    for lam in (1.0, 5.0, 30.0):
        assert chi_limit_a22(0.3, GhParams(lam, 1.0, 1.0)) == 0.0


def test_chi_limit_is_taken_as_zero_next_to_lambda_zero():
    # subnormal lambda: -2/lambda and the MGF at the tail index overflow
    for lam in (-5e-324, -2.2250738585072014e-308, lintrans._LIMIT_LAMBDA):
        assert chi_limit_a22(0.3, GhParams(lam, 1.0, 1.0)) == 0.0
    assert 0.0 < chi_limit_a22(0.3, GhParams(2.0 * lintrans._LIMIT_LAMBDA, 1.0, 1.0)) < 1e-297


def test_chi_limit_positive_below_zero_lambda():
    value = chi_limit_a22(0.3, GhParams(-0.5, 1.0, 1.0))
    assert 0.0 < value < 1.0
    near = chi_gh_two(0.3, 1 - 1e-6, GhParams(-0.5, 1.0, 1.0))
    assert abs(near - value) < 1e-3


def test_chi_gh_two_takes_a_curve_in_one_batch():
    params = GhParams(-0.5, 1.0, 2.0)
    grid = [0.35, 0.3, 0.6, 0.95, 1.0]
    curve = chi_gh_two(0.3, grid, params)
    assert isinstance(curve, np.ndarray) and curve.shape == (5,)
    assert curve[1] == 1.0 and curve[4] == chi_limit_a22(0.3, params)
    np.testing.assert_allclose(curve, [chi_gh_two(0.3, a, params) for a in grid],
                               rtol=1e-10, atol=1e-12)
    assert chi_gh_two(0.3, [0.5, 1.0], GhParams(1.0, 1.0, 1.0))[1] == 0.0
    for a12, a22 in [(0.3, [0.5, 1.5]), (0.3, [-0.1]), (1.0, [0.5]), (-0.2, 0.5)]:
        with pytest.raises(DomainError):
            chi_gh_two(a12, a22, params)


def test_chi_limit_a12_zero_simplification():
    # with a12 = 0 the second integral uses M(0) = 1
    params = GhParams(-0.5, 1.0, 1.0)
    dist = NoiseDistribution(params)
    beta =dist_beta = 1.0
    m1 = dist.mgf(beta)
    c_star = math.log(m1) / beta
    expected = (dist._exp_weighted_integral(beta, -np.inf, c_star) / m1
                + dist._exp_weighted_integral(0.0, c_star, np.inf))
    assert chi_limit_a22(0.0, params) == pytest.approx(expected, abs=1e-8)


# -- summaries ------------------------------------------------------------------

def test_tail_summary_asymptotic_independence():
    summary = tail_summary(CoefficientMatrix([[1.0, 0.3], [0.5, 1.0]]))
    assert summary.regime is Regime.ASYMPTOTIC_INDEPENDENCE
    assert summary.eta < 1.0
    assert summary.to_json() == {"regime": "AsymptoticIndependence", "chi": None,
                                 "chi_se": None, "chi_method": None,
                                 "eta": summary.eta, "eta_method": "closed_form"}


def test_tail_summary_boundary_chi_undetermined():
    summary = tail_summary(CoefficientMatrix([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]))
    assert summary.regime is Regime.BOUNDARY
    assert summary.eta == 1.0
    assert summary.to_json()["chi"] is None and summary.to_json()["chi_method"] is None


def test_tail_summary_dependence_chi_undetermined():
    summary = tail_summary(CoefficientMatrix([[1.0, 0.3], [1.0, 0.7]]))
    assert summary.regime is Regime.ASYMPTOTIC_DEPENDENCE
    assert summary.eta == 1.0
    assert summary.to_json()["chi"] is None


def test_simulate_linear_shape_and_determinism():
    dist = NoiseDistribution.nig(1.0, 1.0)
    m = CoefficientMatrix([[1.0, 0.3], [0.5, 1.0]])
    x = simulate_linear(m, dist, 100, 9)
    y = simulate_linear(m, dist, 100, 9)
    assert x.shape == (100, 2)
    assert np.array_equal(x, y)


def test_simulate_linear_rows_are_per_chunk_draws_of_the_substreams(monkeypatch):
    monkeypatch.setattr(lintrans, "_MC_CHUNK", 64)
    dist = NoiseDistribution.variance_gamma(1.0, 2.0)
    a = np.array([[1.0, 0.3, 0.0], [0.5, 1.0, 0.2]])
    x = simulate_linear(CoefficientMatrix(a), dist, 150, 9)
    ref = [dist.sample(stream, 3 * size).reshape(size, 3) @ a.T
           for stream, size in zip(substreams(9, 3), (64, 64, 22))]
    assert np.array_equal(x, np.vstack(ref))


@pytest.mark.parametrize("call", [
    lambda dist, seed: simulate_linear(CoefficientMatrix([[1.0, 0.3], [0.5, 1.0]]),
                                       dist, 100, seed),
    lambda dist, seed: chi_mc(CoefficientMatrix([[1.0, 0.3], [1.0, 0.7]]), dist, 100, seed),
    # no draw is needed when Z1 = Z2, and the seed is checked all the same
    lambda dist, seed: chi_mc(CoefficientMatrix([[1.0, 0.4], [1.0, 0.4]]), dist, 100, seed),
], ids=["simulate_linear", "chi_mc", "chi_mc-shortcut"])
def test_samplers_take_only_an_integer_seed(call):
    dist = NoiseDistribution.nig(1.0, 1.0)
    generator = np.random.default_rng(3)
    state = generator.bit_generator.state
    for seed in (generator, 3.0):
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            call(dist, seed)
    assert generator.bit_generator.state == state  # nothing was drawn from it
