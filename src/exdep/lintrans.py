"""Extremal dependence of bivariate linear transformations X = A Y.

For non-negative coefficient rows and i.i.d. exponential-tailed noise,
the extremal regime is decided by the row argmax sets: equal sets give
asymptotic dependence, disjoint sets asymptotic independence, anything
else is a boundary case.  Under asymptotic independence the residual
tail dependence coefficient has the closed form

    eta = [ min_{i != j} min{ (|b_2i - b_1i| + |b_2j - b_1j|)
                              / |b_2i b_1j - b_1i b_2j|,
                              max(1/b_1i, 1/b_2i),
                              max(1/b_1j, 1/b_2j) } ]^{-1}

on the row-normalized coefficients b, with the first term +inf whenever
its denominator vanishes.  Each term is the gauge sum |y| at a point of
{b_1.y >= 1, b_2.y >= 1} supported on one or two columns, so by LP
duality eta also equals min over w in [0, 1] of the convex envelope
max_i (w b_1i + (1 - w) b_2i).  ``eta_pairs`` evaluates the closed form
that way for many row pairs of one matrix: each row is sorted once, in
descending order.  Per pair, one running maximum along one row's order
keeps the columns near the Pareto front, the only ones that can touch the
envelope (a median of 48 to 98 of the 2,704 FEM or 5,202 integral
columns of ``matern-eta``'s desk mesh).  A 40-step
bisection, run on all pairs of a chunk at once over those columns, finds
the envelope minimum, and the terms of the columns active there give the
value.  ``eta_closed_form`` is its one-pair call.  ``eta_gauge_oracle``
recomputes eta for small instances by solving the gauge program as a
linear program and checking the solver's primal-dual certificate,
independent of the closed form.
"""

import bisect
import csv
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import optimize

from .errors import (DomainError, MgfDivergenceError, OracleSizeError,
                     ParameterError, PreconditionError, RegimeError)
from .exptail import NoiseDistribution, map_chunks

__all__ = [
    "CoefficientMatrix",
    "Regime",
    "RegimeSplit",
    "TailSummary",
    "classify",
    "eta_closed_form",
    "eta_pairs",
    "eta_gauge_oracle",
    "chi_mc",
    "chi_gh_two",
    "chi_limit_a22",
    "pearson_correlation",
    "tail_summary",
    "simulate_linear",
]

ARGMAX_RTOL = 1e-12
_ACTIVE_RTOL = 1e-9      # envelope lines within this of the minimum are active
_CERTIFICATE_TOL = 1e-9  # feasibility and duality-gap tolerance of the LP oracle
_FRONT_MARGIN = 1e-6     # columns beaten by this much in both rows never touch the envelope
_CHUNK_ENTRIES = 1 << 14  # entries per chunk of pairs: 128 KiB of float64


class Regime(str, Enum):
    ASYMPTOTIC_DEPENDENCE = "AsymptoticDependence"
    ASYMPTOTIC_INDEPENDENCE = "AsymptoticIndependence"
    BOUNDARY = "Boundary"


class CoefficientMatrix:
    """Non-negative m x n coefficient matrix with row-argmax metadata.

    Every row must have a strictly positive maximum; all-zero columns
    (attached to no noise variable) are dropped on construction, so every
    stored column has at least one strictly positive entry.  Entries
    within relative ``ARGMAX_RTOL`` of the row maximum belong to the
    argmax set.
    """

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[1] < 1:
            raise ParameterError("entries must form a 2-d matrix")
        if np.any(a < 0.0) or not np.all(np.isfinite(a)):
            raise ParameterError("coefficients must be finite and non-negative")
        keep = a.max(axis=0) > 0.0  # all-zero columns attach to no noise variable
        if not keep.all():
            a = a[:, keep]
        if a.shape[1] < 1:
            raise ParameterError("matrix has no non-zero column")
        row_max = a.max(axis=1)
        if np.any(row_max <= 0.0):
            raise ParameterError("every row needs a strictly positive maximum")
        a.setflags(write=False)
        self.entries = a
        self.row_max = row_max
        self.argmax_sets = [
            frozenset(np.nonzero(row >= mx * (1.0 - ARGMAX_RTOL))[0].tolist())
            for row, mx in zip(a, row_max)
        ]

    @property
    def shape(self):
        return self.entries.shape

    @property
    def normalized(self):
        """Rows scaled so every row maximum is exactly 1."""
        return self.entries / self.row_max[:, None]

    def __repr__(self):
        return f"CoefficientMatrix({self.entries.tolist()!r})"

    # -- serialization --------------------------------------------------

    def to_csv(self, path_or_buf):
        def _write(fh):
            writer = csv.writer(fh)
            for row in self.entries:
                writer.writerow([repr(float(v)) for v in row])

        if isinstance(path_or_buf, (str, bytes)):
            with open(path_or_buf, "w", newline="") as fh:
                _write(fh)
        else:
            _write(path_or_buf)

    @classmethod
    def from_csv(cls, path_or_buf):
        if isinstance(path_or_buf, (str, bytes)):
            with open(path_or_buf, newline="") as fh:
                rows = [r for r in csv.reader(fh) if r]
        else:
            rows = [r for r in csv.reader(path_or_buf) if r]
        return cls([[float(v) for v in row] for row in rows])

    def to_json(self):
        return {"entries": self.entries.tolist()}

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(obj["entries"])


@dataclass
class RegimeSplit:
    """Regime classification with the normalized decomposition used by
    the asymptotic-dependence formula."""

    regime: Regime
    shared_argmax: frozenset
    normalized: np.ndarray
    residual_1: np.ndarray  # normalized row-1 coefficients outside the shared argmax
    residual_2: np.ndarray


def classify(matrix):
    """Extremal regime of a 2 x n coefficient matrix."""
    if matrix.shape[0] != 2:
        raise PreconditionError("classification is defined for two rows")
    i1, i2 = matrix.argmax_sets
    shared = i1 & i2
    if i1 == i2:
        regime = Regime.ASYMPTOTIC_DEPENDENCE
    elif not shared:
        regime = Regime.ASYMPTOTIC_INDEPENDENCE
    else:
        regime = Regime.BOUNDARY
    normalized = matrix.normalized
    outside = np.array(sorted(set(range(matrix.shape[1])) - shared), dtype=int)
    return RegimeSplit(
        regime=regime,
        shared_argmax=shared,
        normalized=normalized,
        residual_1=normalized[0, outside],
        residual_2=normalized[1, outside],
    )


def _chunks(lengths, budget):
    """Consecutive ranges [s, e) of the non-decreasing ``lengths`` with
    (e - s) * lengths[e - 1] <= budget, or a single index where one
    length alone exceeds it."""
    start, m = 0, len(lengths)
    while start < m:
        fits = bisect.bisect_right(range(start + 1, m + 1), budget,
                                   key=lambda e: (e - start) * int(lengths[e - 1]))
        end = start + max(fits, 1)
        yield start, end
        start = end


def _min_terms(b1a, b2a, b1, b2, own):
    """Smallest closed-form term of each active column (b1a, b2a): its
    single term, or its pair term with a column of the matching row of
    b1, b2; ``own`` is its own column there."""
    det = np.abs(b2a[:, None] * b1 - b1a[:, None] * b2)
    num = np.abs(b2a - b1a)[:, None] + np.abs(b2 - b1)
    with np.errstate(divide="ignore", over="ignore"):  # such terms are +inf
        per_index = np.maximum(1.0 / b1a, 1.0 / b2a)
        pair = np.where(det > 0.0, num / np.where(det > 0.0, det, 1.0), np.inf)
    pair[np.arange(own.size), own] = np.inf
    return np.minimum(per_index, pair.min(axis=1))


def _envelope_eta(b, first, second, front):
    """eta of the row pairs (first, second) of the normalized ``b`` from
    their candidate columns ``front`` (one row per pair, in original
    column order, padded with the all-zero column of ``b``).

    Bisection on the slope of the active line finds the envelope minimum
    of every pair at once: a positive slope puts the minimum to the left,
    a negative one to the right, a flat line is a minimum itself.
    Padding is a line at -inf of slope 0, so ``argmax`` still breaks ties
    at the first original column.
    """
    b1, b2 = b[first[:, None], front], b[second[:, None], front]
    slope = b1 - b2
    base = np.where(front == b.shape[1] - 1, -np.inf, b2)
    row_start = np.arange(0, slope.size, slope.shape[1])
    lo, hi = np.zeros(len(front)), np.ones(len(front))
    lines = np.empty_like(slope)
    for _ in range(40):  # bracket 2^-40: the envelope is then within 1e-12 of its minimum
        w = 0.5 * (lo + hi)
        np.multiply(w[:, None], slope, out=lines)
        lines += base
        s = slope.ravel()[lines.argmax(axis=1) + row_start]
        hi = np.where(s >= 0.0, w, hi)  # s == 0 sets lo = hi = w, which then stays put
        lo = np.where(s <= 0.0, w, lo)
    w = 0.5 * (lo + hi)
    lines = base + w[:, None] * slope
    pair_of, col = np.nonzero(lines >= lines.max(axis=1, keepdims=True) * (1.0 - _ACTIVE_RTOL))
    b1a, b2a = b1[pair_of, col], b2[pair_of, col]
    terms = _min_terms(b1a, b2a, b1[pair_of], b2[pair_of], col)
    # every pair term of an active column on the diagonal is 1/b1a up to
    # rounding, whatever the partner: take them over the whole rows
    diagonal = np.flatnonzero(np.abs(b1a - b2a) <= _FRONT_MARGIN)
    if diagonal.size:
        p = pair_of[diagonal]
        terms[diagonal] = _min_terms(b1a[diagonal], b2a[diagonal], b[first[p]], b[second[p]],
                                     front[p, col[diagonal]])
    starts = np.flatnonzero(np.r_[True, pair_of[1:] != pair_of[:-1]])
    return np.clip(1.0 / np.minimum.reduceat(terms, starts), 0.0, 1.0)


def _flush_fronts(b, first, second, held_pairs, held_cols, out):
    """Write to ``out`` the eta of the pairs whose kept columns are held,
    as runs of pair indices with their columns, one run per pair.  Pairs
    go to the bisection in order of front size, in chunks padded to their
    largest front."""
    if not held_pairs:
        return
    q, start, size = np.unique(np.concatenate(held_pairs), return_index=True,
                               return_counts=True)
    cols = np.concatenate(held_cols)
    by_size = np.argsort(size, kind="stable")
    for lo, hi in _chunks(size[by_size], _CHUNK_ENTRIES):
        r = by_size[lo:hi]
        offset = np.repeat(np.cumsum(size[r]) - size[r], size[r])  # where each run begins
        slot = np.arange(offset.size) - offset
        front = np.full((r.size, size[r].max()), b.shape[1] - 1)
        front[np.repeat(np.arange(r.size), size[r]), slot] = cols[np.repeat(start[r], size[r]) + slot]
        out[q[r]] = _envelope_eta(b, first[q[r]], second[q[r]], np.sort(front, axis=1))


def eta_pairs(rows, pairs):
    """Residual tail dependence coefficient of row pairs of a k x n matrix.

    ``rows`` is non-negative with a strictly positive maximum in every
    row; ``pairs`` lists distinct row indices (i, j).  Returns one eta
    per pair, equal to ``eta_closed_form`` of the 2 x n matrix of rows i
    and j: exactly 1 when their argmax sets (the ``ARGMAX_RTOL`` rule of
    :class:`CoefficientMatrix`) intersect, otherwise the closed form at
    the convex-envelope minimum.

    Only columns near the Pareto front, which no other column beats in
    both rows, can touch the envelope.  Each row is sorted once in
    descending order.  For a pair, one running maximum of row j along
    row i's order finds the columns that some column beats by at least
    ``_FRONT_MARGIN`` in both rows; these lie at least that far below
    the envelope, are never active and are dropped.  The walk stops once
    the columns within the margin of row j's maximum beat all the rest
    by the margin, and each pair walks the row where that comes sooner.
    Walks run in chunks of about ``_CHUNK_ENTRIES`` entries, pairs that
    walk the same row together; the kept columns of many pairs are then
    bisected together.

    Only closed-form terms that involve a column active at the envelope
    minimum can attain the minimum: any other term exceeds it by at least
    its columns' relative slack, here above ``_ACTIVE_RTOL`` and so far
    above rounding.  A pair term of an active column with a dropped one
    exceeds it by the margin times the active column's distance from the
    diagonal b_1 = b_2.  So the terms are evaluated as the closed form
    writes them, for active columns against the columns kept, and for
    active columns within the margin of the diagonal against all columns.
    """
    a = np.asarray(rows, dtype=float)
    if a.ndim != 2 or a.shape[1] < 1:
        raise ParameterError("rows must form a 2-d matrix")
    if np.any(a < 0.0) or not np.all(np.isfinite(a)):
        raise ParameterError("coefficients must be finite and non-negative")
    row_max = a.max(axis=1)
    if np.any(row_max <= 0.0):
        raise ParameterError("every row needs a strictly positive maximum")
    p = np.asarray(pairs)
    if p.size == 0:
        return np.empty(0)
    if p.ndim != 2 or p.shape[1] != 2 or p.dtype.kind not in "iu":
        raise ParameterError("pairs must be an (m, 2) array of row indices")
    if np.any(p < 0) or np.any(p >= a.shape[0]):
        raise ParameterError(f"row indices must lie in [0, {a.shape[0]})")
    if np.any(p[:, 0] == p[:, 1]):
        raise PreconditionError("eta is defined for two distinct rows")
    k, n = a.shape
    threshold = row_max * (1.0 - ARGMAX_RTOL)
    n_top = np.count_nonzero(a >= threshold[:, None], axis=1)  # argmax sets lead each order
    order = np.argsort(-a, axis=1)
    b = np.hstack([a / row_max[:, None], np.zeros((k, 1))])  # column n pads the fronts
    desc = -np.take_along_axis(b, order, axis=1)  # ascending: minus the sorted rows
    # lead[i, t]: how many entries of row i lie the margin or more above its t-th largest
    lead = np.array([np.searchsorted(d, d - _FRONT_MARGIN, side="right") for d in desc])
    # reach[i, j]: the length of the walk along row i for the pair (i, j), which
    # ends where row i drops the margin below its least entry at a column within
    # the margin of row j's maximum
    low = np.column_stack([b[:, near].min(axis=1) for near in b >= 1.0 - _FRONT_MARGIN])
    reach = np.array([np.searchsorted(d, _FRONT_MARGIN - m) for d, m in zip(desc, low)])
    first, second = p[:, 0], p[:, 1]
    swap = reach[second, first] < reach[first, second]  # walk the row that stops sooner
    walker, other = np.where(swap, second, first), np.where(swap, first, second)
    stop = reach[walker, other]
    by_walker = np.lexsort((stop, walker))
    out = np.ones(len(p))
    held_pairs, held_cols = [], []
    for group in np.split(by_walker, np.flatnonzero(np.diff(walker[by_walker])) + 1):
        i = walker[group[0]]
        for start, end in _chunks(stop[group], _CHUNK_ENTRIES):
            q = group[start:end]
            j = other[q]
            shared = np.any(a[j[:, None], order[i, :n_top[i]]] >= threshold[j, None], axis=1)
            q, j = q[~shared], j[~shared]
            if q.size == 0:
                continue
            cols = order[i, :stop[q].max()]
            walk = b[j[:, None], cols]
            best = np.empty((q.size, cols.size + 1))  # best[:, t]: max of row j over the first t
            best[:, 0] = -np.inf
            np.maximum.accumulate(walk, axis=1, out=best[:, 1:])
            # kept unless a column at least the margin ahead in row i beats it by the margin in row j
            pair_of, step = np.nonzero(best[:, lead[i, :cols.size]] < walk + _FRONT_MARGIN)
            kept = step < stop[q[pair_of]]
            held_pairs.append(q[pair_of[kept]])
            held_cols.append(cols[step[kept]])
            if sum(c.size for c in held_cols) >= _CHUNK_ENTRIES:
                _flush_fronts(b, first, second, held_pairs, held_cols, out)
                held_pairs, held_cols = [], []
    _flush_fronts(b, first, second, held_pairs, held_cols, out)
    return out


def eta_closed_form(matrix):
    """Residual tail dependence coefficient of the 2 x n model.

    Distribution-free: depends on the coefficients only.  Always in
    [1/2, 1]; exactly 1 when the row argmax sets intersect, i.e. when
    the regime is not asymptotic independence.  The one-pair call of
    :func:`eta_pairs`.
    """
    if matrix.shape[0] != 2:
        raise PreconditionError("eta is defined for two rows")
    return float(eta_pairs(matrix.entries, [(0, 1)])[0])


def eta_gauge_oracle(matrix):
    """Brute-force eta for small instances (n <= 8).

    Minimizes the polyhedral gauge sum |y_i| over b_1.y >= 1, b_2.y >= 1
    with an exact LP, so it shares no code path with the closed form.
    The solver's answer is certified before it is used: the primal point
    must be feasible, the multipliers lambda of the two constraints must
    be dual feasible (lambda >= 0, lambda_1 b_1i + lambda_2 b_2i <= 1),
    and primal and dual values must agree; otherwise RuntimeError.
    """
    if matrix.shape[0] != 2:
        raise PreconditionError("oracle is defined for two rows")
    n = matrix.shape[1]
    if n > 8:
        raise OracleSizeError("gauge oracle supports at most 8 noise components")
    b = matrix.normalized
    # the LP in (y, t): min sum t, y - t <= 0, -y - t <= 0, -b.y <= -1
    eye = np.eye(n)
    a_ub = np.block([[eye, -eye], [-eye, -eye], [-b, np.zeros((2, n))]])
    b_ub = np.concatenate([np.zeros(2 * n), [-1.0, -1.0]])
    c = np.concatenate([np.zeros(n), np.ones(n)])
    bounds = [(None, None)] * n + [(0, None)] * n
    res = optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:  # pragma: no cover - feasible bounded by construction
        raise RuntimeError(f"gauge LP failed: {res.message}")
    y = res.x[:n]
    lam = -res.ineqlin.marginals[-2:]
    value = float(res.fun)
    tol = _CERTIFICATE_TOL
    if np.any(b @ y < 1.0 - tol):
        raise RuntimeError(f"gauge LP point is infeasible: b.y = {b @ y}")
    if np.any(lam < -tol) or np.any(lam @ b > 1.0 + tol):
        raise RuntimeError(f"gauge LP multipliers {lam} are not dual feasible")
    if abs(lam.sum() - value) > tol or abs(np.abs(y).sum() - value) > tol:
        raise RuntimeError(
            f"gauge LP duality gap: value {value}, sum |y| {np.abs(y).sum()}, "
            f"dual value {lam.sum()}"
        )
    return float(np.clip(1.0 / value, 0.0, 1.0))


# ----------------------------------------------------------------------
# Tail dependence coefficient chi under asymptotic dependence
# ----------------------------------------------------------------------

def _welford_combine(stats_a, stats_b):
    n_a, mean_a, m2_a = stats_a
    n_b, mean_b, m2_b = stats_b
    if n_a == 0:
        return stats_b
    if n_b == 0:
        return stats_a
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (n_b / n)
    m2 = m2_a + m2_b + delta * delta * (n_a * n_b / n)
    return n, mean, m2


def chi_mc(matrix, dist, n_samples, rng, chunk=1 << 17, threads=1):
    """Monte Carlo tail dependence coefficient under asymptotic dependence.

    Averages min(exp(beta*Z1)/M_Z1(beta), exp(beta*Z2)/M_Z2(beta)) over
    draws of the residual noise.  ``rng`` may be an integer root seed
    (chunks use independent spawned sub-streams and may be evaluated in
    parallel) or a Generator (strictly sequential single stream).

    Returns
    -------
    (estimate, standard_error)
    """
    split = classify(matrix)
    if split.regime is not Regime.ASYMPTOTIC_DEPENDENCE:
        raise RegimeError(f"chi_mc requires asymptotic dependence, got {split.regime.value}")
    if n_samples < 0:
        raise DomainError("n_samples must be non-negative")
    r1, r2 = split.residual_1, split.residual_2
    if r1.size == 0 or (np.all(r1 == 0.0) and np.all(r2 == 0.0)) or np.array_equal(r1, r2):
        return 1.0, 0.0  # Z1 = Z2 almost surely
    beta = dist.tail_index
    log_m1 = 0.0
    log_m2 = 0.0
    for c in r1:
        m = dist.mgf(c * beta)
        if not np.isfinite(m):
            raise MgfDivergenceError(f"residual MGF diverges at t = {c * beta}")
        log_m1 += math.log(m)
    for c in r2:
        m = dist.mgf(c * beta)
        if not np.isfinite(m):
            raise MgfDivergenceError(f"residual MGF diverges at t = {c * beta}")
        log_m2 += math.log(m)

    def one_chunk(size, stream):
        y = dist.sample(stream, size * r1.size).reshape(size, r1.size)
        vals = np.minimum(
            np.exp(beta * (y @ r1) - log_m1),
            np.exp(beta * (y @ r2) - log_m2),
        )
        m = float(vals.mean())
        return size, m, float(np.sum((vals - m) ** 2))

    total = (0, 0.0, 0.0)
    for part in map_chunks(one_chunk, n_samples, chunk, rng, threads):
        total = _welford_combine(total, part)
    n, mean, m2 = total
    var = m2 / (n - 1) if n > 1 else 0.0
    return float(mean), float(math.sqrt(var / n)) if n else 0.0


def _check_symmetric_gh(params):
    if params.psi <= 0.0 or params.gamma != 0.0:
        raise ParameterError("requires a GH law with psi > 0 and gamma = 0")


def chi_gh_two(a12, a22, params):
    """Exact chi for X1 = Y1 + a12*Y2, X2 = Y1 + a22*Y2 with symmetric GH noise.

    Evaluates the two-piece exponentially tilted integral split at the
    threshold y = c / (a22 - a12); absolute tolerance 1e-6.
    """
    _check_symmetric_gh(params)
    for a in (a12, a22):
        if not 0.0 <= a < 1.0:
            raise DomainError("coefficients must lie in [0, 1)")
    if a12 == a22:
        return 1.0
    dist = NoiseDistribution(params)
    beta = math.sqrt(params.psi)
    m_12 = dist.mgf(a12 * beta)
    m_22 = dist.mgf(a22 * beta)
    c = (math.log(m_22) - math.log(m_12)) / beta
    k = c / (a22 - a12)
    if a22 > a12:
        lo_part = dist._exp_weighted_integral(a22 * beta, -np.inf, k) / m_22
        hi_part = dist._exp_weighted_integral(a12 * beta, k, np.inf) / m_12
    else:
        lo_part = dist._exp_weighted_integral(a22 * beta, k, np.inf) / m_22
        hi_part = dist._exp_weighted_integral(a12 * beta, -np.inf, k) / m_12
    return float(lo_part + hi_part)


def chi_limit_a22(a12, params):
    """Limit of chi in the two-variable model as a22 increases to 1.

    Zero when the mixing index lambda is non-negative; otherwise the
    two-piece integral at the limiting threshold.
    """
    _check_symmetric_gh(params)
    if not 0.0 <= a12 < 1.0:
        raise DomainError("a12 must lie in [0, 1)")
    if params.lam >= 0.0:
        return 0.0
    dist = NoiseDistribution(params)
    beta = math.sqrt(params.psi)
    m_1 = dist.mgf(beta)  # finite because lambda < 0
    m_12 = dist.mgf(a12 * beta)
    c_star = (math.log(m_1) - math.log(m_12)) / ((1.0 - a12) * beta)
    lo_part = dist._exp_weighted_integral(beta, -np.inf, c_star) / m_1
    hi_part = dist._exp_weighted_integral(a12 * beta, c_star, np.inf) / m_12
    return float(lo_part + hi_part)


def pearson_correlation(matrix):
    """Correlation of X1, X2 for i.i.d. finite-variance noise (variance
    cancels, so only the rows enter)."""
    if matrix.shape[0] != 2:
        raise PreconditionError("correlation is defined for two rows")
    r1, r2 = matrix.entries
    n1 = float(np.linalg.norm(r1))
    n2 = float(np.linalg.norm(r2))
    if n1 == 0.0 or n2 == 0.0:
        raise PreconditionError("rows must be non-zero")
    return float(r1 @ r2 / (n1 * n2))


# ----------------------------------------------------------------------
# Tail summaries
# ----------------------------------------------------------------------

@dataclass
class TailSummary:
    """Regime plus chi and/or eta values with their provenance."""

    regime: Regime
    eta: float
    eta_method: str
    chi: float | None = None
    chi_se: float | None = None
    chi_method: str | None = None

    def to_json(self):
        return {
            "regime": self.regime.value,
            "chi": self.chi,
            "chi_se": self.chi_se,
            "chi_method": self.chi_method,
            "eta": self.eta,
            "eta_method": self.eta_method,
        }

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(
            regime=Regime(obj["regime"]),
            eta=obj["eta"],
            eta_method=obj["eta_method"],
            chi=obj.get("chi"),
            chi_se=obj.get("chi_se"),
            chi_method=obj.get("chi_method"),
        )


def tail_summary(matrix, dist=None, n_samples=0, rng=None):
    """Classify a matrix and fill in the computable tail coefficients.

    chi is attached only under asymptotic dependence (Monte Carlo, when a
    distribution and sample budget are supplied); in the boundary regime
    chi is left undetermined.
    """
    regime = classify(matrix).regime
    summary = TailSummary(regime=regime, eta=eta_closed_form(matrix),
                          eta_method="closed_form")
    if regime is Regime.ASYMPTOTIC_DEPENDENCE and dist is not None and n_samples:
        summary.chi, summary.chi_se = chi_mc(matrix, dist, n_samples,
                                             rng if rng is not None else 0)
        summary.chi_method = "monte_carlo"
    return summary


def simulate_linear(matrix, dist, n, rng):
    """Draw n replicates of X = A Y with i.i.d. noise; columns follow the
    rows of A."""
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    y = dist.sample(rng, n * matrix.shape[1]).reshape(n, matrix.shape[1])
    return y @ matrix.entries.T
