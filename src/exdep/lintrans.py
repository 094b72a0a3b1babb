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
max_i (w b_1i + (1 - w) b_2i).  ``eta_closed_form`` evaluates the closed
form that way: bisection finds the envelope minimum, and the terms of the
columns active there give the value, in O(n) per pair of rows instead of
O(n^2).  ``eta_gauge_oracle`` recomputes eta for small instances by
solving the gauge program as a linear program and checking the solver's
primal-dual certificate, independent of the closed form.
"""

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


def _envelope_argmin(b1, b2):
    """w in [0, 1] minimizing the convex envelope max_i (w b1_i + (1-w) b2_i).

    Bisection on the slope of the active line: a positive slope puts the
    minimum to the left, a negative one to the right, a flat line is a
    minimum itself.
    """
    slope = b1 - b2
    lo, hi = 0.0, 1.0
    for _ in range(40):  # bracket 2^-40: the envelope is then within 1e-12 of its minimum
        w = 0.5 * (lo + hi)
        k = int(np.argmax(b2 + w * slope))
        if slope[k] > 0.0:
            hi = w
        elif slope[k] < 0.0:
            lo = w
        else:
            return w
    return 0.5 * (lo + hi)


def eta_closed_form(matrix):
    """Residual tail dependence coefficient of the 2 x n model.

    Distribution-free: depends on the coefficients only.  Always in
    [1/2, 1]; exactly 1 when the row argmax sets intersect, i.e. when
    the regime is not asymptotic independence.

    Only closed-form terms that involve a column active at the envelope
    minimum can attain the minimum: any other term exceeds it by at least
    its columns' relative slack, here above ``_ACTIVE_RTOL`` and so far
    above rounding.  Those terms are evaluated as the closed form writes
    them (pairs of an active column with every column, and the active
    columns' single terms).
    """
    if matrix.shape[0] != 2:
        raise PreconditionError("eta is defined for two rows")
    i1, i2 = matrix.argmax_sets
    if i1 & i2:
        return 1.0
    b1, b2 = matrix.normalized
    w = _envelope_argmin(b1, b2)
    lines = b2 + w * (b1 - b2)
    active = np.nonzero(lines >= lines.max() * (1.0 - _ACTIVE_RTOL))[0]
    diff = np.abs(b2 - b1)
    det = np.abs(b2[active, None] * b1[None, :] - b1[active, None] * b2[None, :])
    num = diff[active, None] + diff[None, :]
    with np.errstate(divide="ignore", over="ignore"):  # such terms are +inf
        per_index = np.maximum(1.0 / b1[active], 1.0 / b2[active])
        pair = np.where(det > 0.0, num / np.where(det > 0.0, det, 1.0), np.inf)
    pair[np.arange(active.size), active] = np.inf
    inv_eta = min(float(per_index.min()), float(pair.min()))
    return float(np.clip(1.0 / inv_eta, 0.0, 1.0))


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
