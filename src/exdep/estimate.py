"""Empirical extremal-dependence estimation from bivariate samples.

All estimators are rank-based, hence invariant to strictly increasing
marginal transformations.  chi(q) is the conditional exceedance ratio at
a quantile level q; eta is estimated by the Hill estimator applied to
the min-structure variable T = min{1/(1-U1), 1/(1-U2)} on pseudo-uniform
margins.
"""

import csv
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .errors import DomainError, EstimateError, PreconditionError
from .lintrans import eta_closed_form

__all__ = [
    "BivariateSample",
    "ChiEstimate",
    "EtaEstimate",
    "ChiCurve",
    "LowCountWarning",
    "rank_columns",
    "rank_transform",
    "empirical_chi",
    "empirical_eta",
    "chi_curve",
    "eta_vs_distance",
]


class LowCountWarning(UserWarning):
    """Fewer than 20 exceedances back the estimate."""


class BivariateSample:
    """Paired observations with lazily computed pseudo-uniform ranks.

    ``ranks`` optionally passes the pseudo-uniforms (u1, u2) of x1 and x2
    already computed, e.g. by :func:`rank_columns` over many columns at
    once; they are taken as given.
    """

    def __init__(self, x1, x2, ranks=None):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        if x1.shape != x2.shape or x1.ndim != 1:
            raise PreconditionError("x1 and x2 must be equal-length 1-d arrays")
        if x1.size < 2:
            raise PreconditionError("need at least two observations")
        if ranks is not None:
            ranks = tuple(np.asarray(u, dtype=float) for u in ranks)
            if len(ranks) != 2 or any(u.shape != x1.shape for u in ranks):
                raise PreconditionError("ranks must be two arrays shaped like x1 and x2")
        self.x1 = x1
        self.x2 = x2
        self._u = ranks

    @property
    def n(self):
        return self.x1.size

    def pseudo_uniforms(self):
        if self._u is None:
            self._u = rank_transform(self)
        return self._u

    @classmethod
    def from_csv(cls, path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:2]] != ["x1", "x2"]:
                raise DomainError("bivariate CSV needs the header 'x1,x2'")
            data = [(float(r[0]), float(r[1])) for r in reader if r]
        arr = np.asarray(data)
        return cls(arr[:, 0], arr[:, 1])

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("x1,x2\n")
            for a, b in zip(self.x1, self.x2):
                fh.write(f"{float(a)!r},{float(b)!r}\n")


def rank_columns(x):
    """Pseudo-uniforms rank / (n + 1) of each column of an (n, k) array
    (or of a 1-d array of n values), average ranks on ties."""
    x = np.asarray(x, dtype=float)
    return rankdata(x, method="average", axis=0) / (x.shape[0] + 1.0)


def rank_transform(sample):
    """Pseudo-uniform margins U_i = rank(x_i) / (n + 1), average ranks on
    ties."""
    return rank_columns(sample.x1), rank_columns(sample.x2)


@dataclass(frozen=True)
class ChiEstimate:
    value: float
    se: float
    q: float
    n_conditioning: int
    low_count: bool


@dataclass(frozen=True)
class EtaEstimate:
    value: float
    ci_low: float
    ci_high: float
    k: int


def empirical_chi(sample, q):
    """chi(q) = #{U1 > q and U2 > q} / #{U2 > q} with a binomial
    standard error; warns when fewer than 20 exceedances condition the
    estimate."""
    if not 0.0 < q < 1.0:
        raise DomainError("q must lie strictly inside (0, 1)")
    u1, u2 = sample.pseudo_uniforms()
    cond = u2 > q
    m = int(np.count_nonzero(cond))
    if m == 0:
        raise EstimateError(f"no exceedances of the conditioning margin at q={q}")
    joint = int(np.count_nonzero(cond & (u1 > q)))
    p = joint / m
    se = float(np.sqrt(p * (1.0 - p) / m))
    low = m < 20
    if low:
        warnings.warn(f"only {m} exceedances at q={q}", LowCountWarning, stacklevel=2)
    return ChiEstimate(value=float(p), se=se, q=float(q), n_conditioning=m, low_count=low)


def empirical_eta(sample, k=None, z=1.959963984540054):
    """Hill estimator of eta on the min-structure variable.

    T = min{1/(1-U1), 1/(1-U2)} has a regularly varying tail with index
    1/eta, so the Hill estimate over the top ``k`` order statistics
    (default ceil(sqrt(n))) estimates eta directly, with the normal
    confidence interval eta * (1 +- z / sqrt(k)).
    """
    n = sample.n
    if k is None:
        k = int(np.ceil(np.sqrt(n)))
    k = int(k)
    if not 10 <= k <= n // 2:
        raise PreconditionError(f"k={k} outside [10, n/2] for n={n}")
    u1, u2 = sample.pseudo_uniforms()
    t = np.minimum(1.0 / (1.0 - u1), 1.0 / (1.0 - u2))
    top = np.partition(t, n - k - 1)[n - k - 1:]
    top.sort()
    eta = float(np.mean(np.log(top[1:] / top[0])))
    half = z / np.sqrt(k)
    return EtaEstimate(value=eta, ci_low=eta * (1.0 - half),
                       ci_high=eta * (1.0 + half), k=k)


@dataclass
class ChiCurve:
    """chi(q) estimates over increasing quantile levels."""

    q: np.ndarray
    chi: np.ndarray
    se: np.ndarray

    def write_csv(self, path_or_buf):
        def _write(fh):
            fh.write("q,chi,se\n")
            for row in zip(self.q, self.chi, self.se):
                fh.write(f"{float(row[0])!r},{float(row[1])!r},{float(row[2])!r}\n")

        if isinstance(path_or_buf, (str, bytes)):
            with open(path_or_buf, "w") as fh:
                _write(fh)
        else:
            _write(path_or_buf)


def chi_curve(sample, levels):
    """Batched empirical chi over a strictly increasing level grid."""
    levels = np.asarray(levels, dtype=float)
    if np.any(np.diff(levels) <= 0.0):
        raise PreconditionError("levels must be strictly increasing")
    ests = [empirical_chi(sample, q) for q in levels]
    return ChiCurve(
        q=levels,
        chi=np.array([e.value for e in ests]),
        se=np.array([e.se for e in ests]),
    )


def eta_vs_distance(coefficients_for_pair, site_pairs, method="closed_form"):
    """Table of (distance, eta, method) rows for a batch of site pairs.

    ``coefficients_for_pair(s1, s2)`` must return the CoefficientMatrix
    of the approximation at the two sites; eta is then the closed-form
    value (1 outside asymptotic independence).
    """
    rows = []
    for s1, s2 in site_pairs:
        s1 = np.asarray(s1, dtype=float)
        s2 = np.asarray(s2, dtype=float)
        h = float(np.linalg.norm(s2 - s1))
        rows.append((h, eta_closed_form(coefficients_for_pair(s1, s2)), method))
    return rows


def write_eta_table(rows, path_or_buf):
    """CSV writer for eta_vs_distance rows: header h,eta,method."""
    def _write(fh):
        fh.write("h,eta,method\n")
        for h, eta, method in rows:
            fh.write(f"{float(h)!r},{float(eta)!r},{method}\n")

    if isinstance(path_or_buf, (str, bytes)):
        with open(path_or_buf, "w") as fh:
            _write(fh)
    else:
        _write(path_or_buf)
