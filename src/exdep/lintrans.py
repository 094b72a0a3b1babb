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
for many row pairs of one :class:`CoefficientMatrix`.  On a matrix of at
most ``_TERM_COLUMNS`` columns it takes every term as written above.  On
a larger one each row is sorted once, in descending order.  Per pair,
one running maximum along one row's order keeps the columns near the
Pareto front, the only ones that can touch the envelope (a median of 48
to 98 of the 2,704 FEM or 5,202 integral columns of ``matern-eta``'s
desk mesh).  A 40-step bisection over those columns, on the pairs of a
chunk at once, finds the envelope minimum, and the terms of the columns
active there give the value.  ``eta_closed_form`` is its one-pair call.
``eta_gauge_oracle`` recomputes eta for small instances, independent of
the closed form: it solves the gauge program as a linear program by
enumerating the basic solutions of the LP and of its dual, and checks
their primal-dual certificate.

The exact chi of the GH model imports ``exptail`` (``scipy.special``)
inside the function that calls it, so importing this module, every eta
computation and the oracle load numpy and no scipy subpackage.
``chi_gh_two`` takes a whole a22 curve, its a22 -> 1 limit included, and
integrates it in one quadrature batch.  ``simulate_linear`` and
``chi_mc`` draw X = A Y as one block of the package's one sampler,
:func:`exdep.streams.draw_linear`, node-major from an integer root seed.
"""

import bisect
import csv
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (DomainError, MgfDivergenceError, OracleSizeError,
                     ParameterError, PreconditionError, RegimeError)
from .streams import draw_linear, map_chunks

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
    "tail_summary",
    "simulate_linear",
]

ARGMAX_RTOL = 1e-12
_ACTIVE_RTOL = 1e-9      # envelope lines within this of the minimum are active
_CERTIFICATE_TOL = 1e-9  # feasibility and duality-gap tolerance of the LP oracle
_FRONT_MARGIN = 1e-6     # columns beaten by this much in both rows never touch the envelope
_CHUNK_ENTRIES = 1 << 14  # entries per chunk of pairs: 128 KiB of float64
_TERM_COLUMNS = 32       # matrices up to this many columns take every closed-form term
_MC_CHUNK = 1 << 17      # replicates of X = A Y per sub-stream (chi_mc, simulate_linear)
_LIMIT_LAMBDA = -1e-300  # chi's a22 -> 1 limit is taken as 0 for lambda at or above this


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

    @classmethod
    def from_csv(cls, path):
        """The matrix of a CSV file with one row per component; blank lines
        are skipped.  A non-numeric cell, a row whose length differs from
        the first or a file without rows raises ParameterError naming the
        file (and the line)."""
        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row:
                    continue
                try:
                    rows.append([float(v) for v in row])
                except ValueError:
                    raise ParameterError(f"{path}, line {reader.line_num}: "
                                         f"non-numeric entry in {row}") from None
                if len(row) != len(rows[0]):
                    raise ParameterError(f"{path}, line {reader.line_num}: {len(row)} entries, "
                                         f"but the first row has {len(rows[0])}")
        if not rows:
            raise ParameterError(f"{path}: no rows")
        return cls(rows)


@dataclass
class RegimeSplit:
    """Regime classification with the normalized decomposition used by
    the asymptotic-dependence formula."""

    regime: Regime
    shared_argmax: frozenset
    residual_1: np.ndarray  # normalized row-1 coefficients outside the shared argmax
    residual_2: np.ndarray


def _regime(matrix):
    """Extremal regime of a 2 x n coefficient matrix, from its argmax sets."""
    if matrix.shape[0] != 2:
        raise PreconditionError("classification is defined for two rows")
    i1, i2 = matrix.argmax_sets
    if i1 == i2:
        return Regime.ASYMPTOTIC_DEPENDENCE
    if i1.isdisjoint(i2):
        return Regime.ASYMPTOTIC_INDEPENDENCE
    return Regime.BOUNDARY


def classify(matrix):
    """Extremal regime of a 2 x n coefficient matrix, with its normalized
    coefficients outside the shared argmax."""
    regime = _regime(matrix)
    shared = matrix.argmax_sets[0] & matrix.argmax_sets[1]
    normalized = matrix.normalized
    outside = np.array(sorted(set(range(matrix.shape[1])) - shared), dtype=int)
    return RegimeSplit(
        regime=regime,
        shared_argmax=shared,
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


def _min_terms(b1a, b2a, b1, b2):
    """Smallest closed-form term of each active column (b1a, b2a): its
    single term, or its pair term with a column of the matching row of
    b1, b2 (with itself, the determinant is exactly 0 and the term +inf).

    The determinant b2a b1 - b1a b2 is formed as da b1 - b1a d from the
    distances d = b2 - b1, da = b2a - b1a to the diagonal b_1 = b_2: near
    it the product form cancels to rounding noise, while d keeps the gap
    between two nearly parallel columns.
    """
    da, d = b2a - b1a, b2 - b1
    det = np.abs(da[:, None] * b1 - b1a[:, None] * d)
    num = np.abs(d, out=d)  # d is not needed again: no third array of this size
    num += np.abs(da)[:, None]
    with np.errstate(divide="ignore", over="ignore"):  # such terms are +inf
        per_index = np.maximum(1.0 / b1a, 1.0 / b2a)
        pair = np.where(det > 0.0, num / np.where(det > 0.0, det, 1.0), np.inf)
    return np.minimum(per_index, pair.min(axis=1))


def _all_terms_eta(b, first, second):
    """eta of the row pairs (first, second) of the normalized ``b`` from
    every closed-form term: each column's single term and its pair term
    with every other column (:func:`_min_terms`)."""
    n = b.shape[1]
    b1, b2 = b[first], b[second]
    terms = _min_terms(b1.ravel(), b2.ravel(), np.repeat(b1, n, axis=0), np.repeat(b2, n, axis=0))
    return np.minimum(1.0 / terms.reshape(-1, n).min(axis=1), 1.0)


def _bisect_rows(slope, base):
    """The envelope minimum of each row of lines w * slope + base over w in
    [0, 1], by bisection on the slope of the active line, all rows at once:
    a positive slope puts the minimum to the left, a negative one to the
    right, a flat line is a minimum itself.  The active line is the
    first-index argmax."""
    row_start = np.arange(0, slope.size, slope.shape[1])
    lo, hi = np.zeros(len(slope)), np.ones(len(slope))
    lines = np.empty_like(slope)
    for _ in range(40):  # bracket 2^-40: the envelope is then within 1e-12 of its minimum
        w = 0.5 * (lo + hi)
        np.multiply(w[:, None], slope, out=lines)
        lines += base
        s = slope.ravel()[lines.argmax(axis=1) + row_start]
        hi = np.where(s >= 0.0, w, hi)  # s == 0 sets lo = hi = w, which then stays put
        lo = np.where(s <= 0.0, w, lo)
    return 0.5 * (lo + hi)


def _envelope_eta(b, first, second, front):
    """eta of the row pairs (first, second) of the normalized ``b`` from
    their candidate columns ``front`` (one row per pair, in original
    column order, padded with the all-zero column of ``b``).

    The envelope minima of all pairs are bisected at once over their
    lines (:func:`_bisect_rows`).  Padding is a line at -inf of slope 0,
    so the first-index argmax still breaks ties at the first original
    column.
    """
    b1, b2 = b[first[:, None], front], b[second[:, None], front]
    slope = b1 - b2
    base = np.where(front == b.shape[1] - 1, -np.inf, b2)
    w = _bisect_rows(slope, base)
    lines = base + w[:, None] * slope
    pair_of, col = np.nonzero(lines >= lines.max(axis=1, keepdims=True) * (1.0 - _ACTIVE_RTOL))
    b1a, b2a = b1[pair_of, col], b2[pair_of, col]
    terms = _min_terms(b1a, b2a, b1[pair_of], b2[pair_of])
    # every pair term of an active column on the diagonal is 1/b1a up to
    # rounding, whatever the partner: take them over the whole rows
    diagonal = np.flatnonzero(np.abs(b1a - b2a) <= _FRONT_MARGIN)
    if diagonal.size:
        p = pair_of[diagonal]
        terms[diagonal] = _min_terms(b1a[diagonal], b2a[diagonal], b[first[p]], b[second[p]])
    starts = np.searchsorted(pair_of, np.arange(len(front)))  # every pair has an active column
    return np.minimum(1.0 / np.minimum.reduceat(terms, starts), 1.0)  # terms are positive


def _flush_fronts(b, first, second, held, out):
    """Write to ``out`` the eta of the pairs whose kept columns are held,
    as (pair index, columns) per pair.  Pairs go to the bisection in order
    of front size, in chunks padded to their largest front."""
    if not held:
        return
    q, runs = zip(*held)
    q, size, cols = np.array(q), np.array([r.size for r in runs]), np.concatenate(runs)
    start = np.cumsum(size) - size
    by_size = np.argsort(size, kind="stable")
    for lo, hi in _chunks(size[by_size], _CHUNK_ENTRIES):
        r = by_size[lo:hi]
        offset = np.repeat(np.cumsum(size[r]) - size[r], size[r])  # where each run begins
        slot = np.arange(offset.size) - offset
        front = np.full((r.size, size[r].max()), b.shape[1] - 1)
        front[np.repeat(np.arange(r.size), size[r]), slot] = cols[np.repeat(start[r], size[r]) + slot]
        out[q[r]] = _envelope_eta(b, first[q[r]], second[q[r]], np.sort(front, axis=1))


def eta_pairs(matrix, pairs):
    """Residual tail dependence coefficient of row pairs of a k x n
    :class:`CoefficientMatrix`.

    ``pairs`` lists distinct row indices (i, j).  Returns one eta per
    pair, equal to ``eta_closed_form`` of the 2 x n matrix of rows i and
    j: exactly 1 when their argmax sets intersect, otherwise the closed
    form at the convex-envelope minimum.  The entries, row maxima and
    argmax sets are the matrix's own, validated on its construction;
    only the pair indices are checked here.  Pairs whose argmax sets
    intersect are settled first: when all of them do, nothing is sorted.

    A matrix of at most ``_TERM_COLUMNS`` columns takes every closed-form
    term (:func:`_all_terms_eta`), in chunks of pairs of about
    ``_CHUNK_ENTRIES`` pair terms.  On a larger one, only columns near the
    Pareto front, which no other column beats in both rows, can touch the
    envelope.  Each row is sorted once in descending order.  For a pair,
    one running maximum of row j along row i's order finds the columns
    that some column beats by at least ``_FRONT_MARGIN`` in both rows;
    these lie at least that far below the envelope, are never active and
    are dropped.  The walk stops once the columns within the margin of row
    j's maximum beat all the rest by the margin, and each pair walks the
    row where that comes sooner.  Once about ``_CHUNK_ENTRIES`` columns
    are kept, the fronts of their pairs are bisected together
    (:func:`_envelope_eta`).

    Only closed-form terms that involve a column active at the envelope
    minimum can attain the minimum: any other term exceeds it by at least
    its columns' relative slack, here above ``_ACTIVE_RTOL`` and so far
    above rounding.  A pair term of an active column with a dropped one
    exceeds it by the margin times the active column's distance from the
    diagonal b_1 = b_2.  So the terms are evaluated as the closed form
    writes them, for active columns against the columns kept, and for
    active columns within the margin of the diagonal against all columns.
    """
    k, n = matrix.shape
    p = np.asarray(pairs)
    if p.size == 0:
        return np.empty(0)
    if p.ndim != 2 or p.shape[1] != 2 or p.dtype.kind not in "iu":
        raise ParameterError("pairs must be an (m, 2) array of row indices")
    if p.min() < 0 or p.max() >= k:
        raise ParameterError(f"row indices must lie in [0, {k})")
    if (p[:, 0] == p[:, 1]).any():
        raise PreconditionError("eta is defined for two distinct rows")
    tops = matrix.argmax_sets
    out = np.ones(len(p))
    live = np.flatnonzero([tops[i].isdisjoint(tops[j]) for i, j in p.tolist()])
    if live.size == 0:
        return out
    b = np.zeros((k, n + 1))  # column n pads the fronts
    np.divide(matrix.entries, matrix.row_max[:, None], out=b[:, :n])  # matrix.normalized
    first, second = p[:, 0], p[:, 1]
    if n <= _TERM_COLUMNS:
        step = max(1, _CHUNK_ENTRIES // (n * n))  # n * n pair terms per pair
        for q in np.split(live, range(step, live.size, step)):
            out[q] = _all_terms_eta(b[:, :n], first[q], second[q])
        return out
    desc = -b[:, :n]
    order = np.argsort(desc, axis=1)
    desc.sort(axis=1)  # ascending: minus the sorted rows
    # lead[i, t]: how many entries of row i lie the margin or more above its t-th largest
    lead = np.array([np.searchsorted(d, d - _FRONT_MARGIN, side="right") for d in desc])
    # reach[i, j]: the length of the walk along row i for the pair (i, j), which
    # ends where row i drops the margin below its least entry at a column within
    # the margin of row j's maximum
    low = np.column_stack([b[:, near].min(axis=1) for near in b >= 1.0 - _FRONT_MARGIN])
    reach = np.array([np.searchsorted(d, _FRONT_MARGIN - m) for d, m in zip(desc, low)])
    swap = reach[second, first] < reach[first, second]  # walk the row that stops sooner
    walker, other = np.where(swap, second, first), np.where(swap, first, second)
    stop = reach[walker, other]
    held, entries = [], 0
    for q, i, j, s in zip(live.tolist(), walker[live].tolist(), other[live].tolist(),
                          stop[live].tolist()):
        cols = order[i, :s]
        walk = b[j, cols]
        best = np.concatenate(([-np.inf], np.maximum.accumulate(walk)))  # best[t]: max over the first t
        # kept unless a column at least the margin ahead in row i beats it by the
        # margin in row j; step 0 is always kept, so every pair has a run
        held.append((q, cols[best[lead[i, :s]] < walk + _FRONT_MARGIN]))
        entries += held[-1][1].size
        if entries >= _CHUNK_ENTRIES:
            _flush_fronts(b, first, second, held, out)
            held, entries = [], 0
    _flush_fronts(b, first, second, held, out)
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
    return float(eta_pairs(matrix, [(0, 1)])[0])


def _gauge_vertices(b):
    """The best primal point y and dual multipliers lam among the basic
    solutions of the gauge LP on the normalized 2 x n ``b``.

    Primal candidates sit on one column, y_i = 1 / min(b_1i, b_2i), or on
    a column pair S with b_S y_S = 1.  Dual candidates are the two axis
    points and the crossings of the lines lambda . b_i = 1 of a column
    pair.  Each candidate is scaled onto the boundary of its feasible
    set: y by 1 / min(b y), lam (negative parts dropped) by
    1 / max(lam . b).  So every finite candidate is feasible up to
    rounding, its value bounds the optimum, and the exact vertices
    attain it.
    """
    n = b.shape[1]
    i, j = np.triu_indices(n, 1)
    b1, b2 = b
    rows = np.arange(n, n + i.size)  # the pair candidates, after the n single columns
    y = np.zeros((n + i.size, n))
    with np.errstate(all="ignore"):  # zero entries and parallel columns give inf and nan
        det = b1[i] * b2[j] - b1[j] * b2[i]
        y[:n] = np.diag(1.0 / np.minimum(b1, b2))
        y[rows, i] = (b2[j] - b1[j]) / det
        y[rows, j] = (b1[i] - b2[i]) / det
        lam = np.vstack([np.eye(2), np.column_stack([b2[j] - b2[i], b1[i] - b1[j]]) / det[:, None]])
        lam = np.maximum(lam, 0.0)
        reach = (y @ b.T).min(axis=1)
        top = (lam @ b).max(axis=1)
        primal = np.abs(y).sum(axis=1) / reach
        dual = lam.sum(axis=1) / top
    primal = np.where(np.isfinite(primal) & (primal > 0.0), primal, np.inf)
    dual = np.where(np.isfinite(dual), dual, 0.0)
    k, m = np.argmin(primal), np.argmax(dual)
    return y[k] / reach[k], lam[m] / top[m]


def eta_gauge_oracle(matrix):
    """Brute-force eta for small instances (n <= 8).

    Minimizes the polyhedral gauge sum |y_i| over b_1.y >= 1, b_2.y >= 1
    exactly, so it shares no code path with the closed form: it
    enumerates the basic solutions of this LP and of its dual,
    max lambda_1 + lambda_2 over lambda >= 0, lambda_1 b_1i +
    lambda_2 b_2i <= 1, vectorized over the at most 28 column pairs, and
    keeps the best point on each side.  The pair is certified before it
    is used: the primal point must be feasible, the multipliers must be
    dual feasible, and primal and dual values must agree to
    ``_CERTIFICATE_TOL``; otherwise RuntimeError.  By weak duality the
    certified value is the optimum, whatever found the points.
    """
    if matrix.shape[0] != 2:
        raise PreconditionError("oracle is defined for two rows")
    if matrix.shape[1] > 8:
        raise OracleSizeError("gauge oracle supports at most 8 noise components")
    b = matrix.normalized
    y, lam = _gauge_vertices(b)
    value = float(np.abs(y).sum())
    tol = _CERTIFICATE_TOL
    if not np.all(b @ y >= 1.0 - tol):  # written so that nan fails too
        raise RuntimeError(f"gauge LP point is infeasible: b.y = {b @ y}")
    if not (np.all(lam >= -tol) and np.all(lam @ b <= 1.0 + tol)):
        raise RuntimeError(f"gauge LP multipliers {lam} are not dual feasible")
    if not abs(lam.sum() - value) <= tol:
        raise RuntimeError(f"gauge LP duality gap: sum |y| {value}, dual value {lam.sum()}")
    return float(np.clip(1.0 / value, 0.0, 1.0))


# ----------------------------------------------------------------------
# Tail dependence coefficient chi under asymptotic dependence
# ----------------------------------------------------------------------

def chi_mc(matrix, dist, n_samples, seed):
    """Monte Carlo tail dependence coefficient under asymptotic dependence.

    The mean of min(exp(beta Z1 - log M_Z1(beta)), exp(beta Z2 - log
    M_Z2(beta))) over ``n_samples`` draws of the residual noise Z = [r1;
    r2] Y, for an exponential-tailed ``dist`` (a
    :class:`exdep.exptail.NoiseDistribution`, so its tail index beta is
    positive).  Z is drawn as :func:`simulate_linear` draws [r1; r2] Y,
    from the integer root ``seed`` (checked as
    :func:`exdep.streams.map_chunks` checks it, also where no draw is
    needed); ``n_samples`` must be at least 2, for a standard error.

    Returns
    -------
    (estimate, standard_error)
    """
    split = classify(matrix)
    if split.regime is not Regime.ASYMPTOTIC_DEPENDENCE:
        raise RegimeError(f"chi_mc requires asymptotic dependence, got {split.regime.value}")
    if n_samples < 2:
        raise DomainError(f"chi_mc needs at least 2 samples, got {n_samples}")
    map_chunks(None, 0, _MC_CHUNK, seed)  # checks the seed, draws nothing
    r1, r2 = split.residual_1, split.residual_2
    if r1.size == 0 or (np.all(r1 == 0.0) and np.all(r2 == 0.0)) or np.array_equal(r1, r2):
        return 1.0, 0.0  # Z1 = Z2 almost surely
    beta = dist.tail_index
    log_m = [0.0, 0.0]  # log M_Z1(beta), log M_Z2(beta)
    for row, residual in enumerate((r1, r2)):
        for c in residual:
            m = dist.mgf(c * beta)
            if not np.isfinite(m):
                raise MgfDivergenceError(f"residual MGF diverges at t = {c * beta}")
            log_m[row] += math.log(m)
    z = draw_linear(np.array([r1, r2]), [(0, r1.size, dist.draw_mixing)], n_samples, seed,
                    _MC_CHUNK, dist.mixture)
    z *= beta
    z -= log_m
    np.exp(z, out=z)
    vals = np.minimum(z[:, 0], z[:, 1])
    return float(vals.mean()), math.sqrt(vals.var(ddof=1) / n_samples)


def _check_symmetric_gh(params):
    if params.gamma != 0.0:
        raise ParameterError("requires a symmetric GH law, gamma = 0")


def chi_gh_two(a12, a22, params):
    """Exact chi for X1 = Y1 + a12*Y2, X2 = Y1 + a22*Y2 with symmetric GH noise.

    ``a22`` is a float or an array of floats in [0, 1]; a22 = 1 gives the
    a22 -> 1 limit of :func:`chi_limit_a22`, and a float gives a float.
    Each value is the two-piece exponentially tilted integral split at
    the threshold y = c / (a22 - a12); all of them are integrated in one
    quadrature batch.  Absolute tolerance 1e-6.
    """
    _check_symmetric_gh(params)
    a22 = np.asarray(a22, dtype=float)
    scalar = a22.ndim == 0
    a22 = np.atleast_1d(a22)
    if not 0.0 <= a12 < 1.0:
        raise DomainError("a12 must lie in [0, 1)")
    if not np.all((0.0 <= a22) & (a22 <= 1.0)):
        raise DomainError("a22 must lie in [0, 1], where 1 is the a22 -> 1 limit")
    # a22 = a12 is comonotone, chi = 1; at a22 = 1 the limit is 0 unless lambda < 0
    # (and taken as 0 for lambda >= _LIMIT_LAMBDA, see chi_limit_a22)
    out = np.where(a22 == a12, 1.0, 0.0)
    todo = np.flatnonzero((a22 != a12) & ((a22 < 1.0) | (params.lam < _LIMIT_LAMBDA)))
    if todo.size:
        from .exptail import NoiseDistribution  # loads scipy.special

        dist = NoiseDistribution(params)
        beta = dist.tail_index
        m_12 = dist.mgf(a12 * beta)
        b = a22[todo]
        m_22 = np.array([dist.mgf(a * beta) for a in b.tolist()])
        k = np.array([(math.log(m) - math.log(m_12)) / beta for m in m_22.tolist()]) / (b - a12)
        up = b > a12  # the a22 part below k, the a12 part above it; the other way round if not
        parts = dist._exp_weighted_integral(
            np.concatenate([b * beta, np.full(b.size, a12 * beta)]),
            np.concatenate([np.where(up, -np.inf, k), np.where(up, k, -np.inf)]),
            np.concatenate([np.where(up, k, np.inf), np.where(up, np.inf, k)]))
        out[todo] = parts[:b.size] / m_22 + parts[b.size:] / m_12
    return float(out[0]) if scalar else out


def chi_limit_a22(a12, params):
    """Limit of chi in the two-variable model as a22 increases to 1.

    Zero when the mixing index lambda is non-negative; otherwise the
    two-piece integral at the limiting threshold, which is
    :func:`chi_gh_two` at a22 = 1.  The limit falls to 0 with lambda,
    about like |lambda| log log(1/|lambda|): at lambda = -1e-300 it was at
    most 32 |lambda| over tau, psi in [0.1, 5] and a12 in [0, 1 - 1e-9].
    A lambda in [``_LIMIT_LAMBDA``, 0) = [-1e-300, 0) is taken as 0, an
    absolute error below 1e-297.  (At a subnormal lambda the tail map's
    power -2/lambda and the MGF at the tail index would overflow.)
    """
    return chi_gh_two(a12, 1.0, params)


# ----------------------------------------------------------------------
# Tail summaries
# ----------------------------------------------------------------------

@dataclass
class TailSummary:
    """Regime and closed-form eta of a 2 x n coefficient matrix."""

    regime: Regime
    eta: float

    def to_json(self):
        """The JSON object of the tail-summary schema; its chi keys are null."""
        return {
            "regime": self.regime.value,
            "chi": None,
            "chi_se": None,
            "chi_method": None,
            "eta": self.eta,
            "eta_method": "closed_form",
        }


def tail_summary(matrix):
    """Classify a 2 x n matrix and compute its closed-form eta.

    eta depends on the coefficients alone.  chi depends on the noise law
    as well (:func:`chi_mc`, :func:`chi_gh_two`), so the summary leaves
    it undetermined: its JSON carries null chi keys.
    """
    return TailSummary(regime=_regime(matrix), eta=eta_closed_form(matrix))


def simulate_linear(matrix, dist, n, seed):
    """n replicates of X = A Y with i.i.d. noise Y of law ``dist``, an
    (n, k) array in column-major order whose columns follow the rows of
    A.  A is one block of :func:`exdep.streams.draw_linear`, drawn by the
    law's ``draw_mixing`` with its ``mixture`` (none for a GIG law):
    chunk i of ``_MC_CHUNK`` replicates draws its node-major (m, size)
    noise from the i-th sub-stream of the integer root ``seed``."""
    if n < 0:
        raise DomainError("n must be non-negative")
    a = matrix.entries
    return draw_linear(a, [(0, a.shape[1], dist.draw_mixing)], n, seed, _MC_CHUNK, dist.mixture)
