"""Empirical extremal-dependence estimation from bivariate samples.

All estimators are rank-based, hence invariant to strictly increasing
marginal transformations.  chi(q) is the conditional exceedance ratio at
a quantile level q; eta is estimated by the Hill estimator applied to
the min-structure variable T = min{1/(1-U1), 1/(1-U2)} on pseudo-uniform
margins.
"""

import bisect
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EstimateError, PreconditionError

__all__ = [
    "BivariateSample",
    "ChiEstimate",
    "EtaEstimate",
    "LowCountWarning",
    "rank_columns",
    "rank_transform",
    "exceedances",
    "empirical_chi",
    "chi_from_exceedances",
    "empirical_eta",
]

_Z_95 = 1.959963984540054  # the 97.5 % standard normal quantile: 95 % intervals


class LowCountWarning(UserWarning):
    """Fewer than 20 exceedances back the estimate."""


class BivariateSample:
    """Paired observations, at least two, of equal length."""

    def __init__(self, x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        if x1.shape != x2.shape or x1.ndim != 1:
            raise PreconditionError("x1 and x2 must be equal-length 1-d arrays")
        if x1.size < 2:
            raise PreconditionError("need at least two observations")
        self.x1 = x1
        self.x2 = x2

    @property
    def n(self):
        return self.x1.size


def rank_columns(x):
    """Pseudo-uniforms rank / (n + 1) of each column of an (n, k) array
    (or of a 1-d array of n values), average ranks on ties."""
    # imported here: scipy.stats is slow to import, and no subcommand
    # ranks (only rank_transform calls this, for empirical_eta)
    from scipy.stats import rankdata

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


def exceedances(x, q):
    """The mask ``rank_columns(x) > q`` of each column of an (n, k) array
    (or of a 1-d array of n values), computed without ranking.

    Ranks r / (n + 1) with r = 1..n increase with r, so the c ranks above
    q are the top c.  Two order statistics per column, n - c and
    n - c + 1, come from one ``np.partition`` of a copy of that column
    alone.  Where they differ, no tie group straddles the gap: a group
    below it has an average rank of at most n - c, one above of at least
    n - c + 1, and division by n + 1 keeps that order.  The mask is then
    x >= cut, the cut being x_(n-c+1).  Where they tie, the values equal
    to the cut share the ranks #(x < cut) + 1 .. #(x <= cut), and the
    mask is x >= cut if their average rank over n + 1 is above q, as
    :func:`rank_columns` ranks them, and x > cut if not.
    NaN or infinite values raise :class:`EstimateError`; they have no
    place among the ranks.

    The mask is column-major, like the field of
    :func:`exdep.fem.simulate_field`, whose columns it reads in place.
    Besides the mask (n x k booleans), memory is one column copy at a
    time.
    """
    x = np.asarray(x, dtype=float)
    # min and max propagate NaN and hold any infinity, without an (n, k) temporary
    if not (np.isfinite(x.min(initial=0.0)) and np.isfinite(x.max(initial=0.0))):
        raise EstimateError("cannot rank NaN or infinite values")
    n = x.shape[0]
    c = _ranks_above(n, q)
    if c == 0 or c == n:
        return np.full(x.shape, c == n)
    columns = x.reshape(n, -1)
    above = np.empty(columns.shape, dtype=bool, order="F")
    for j in range(columns.shape[1]):
        col = columns[:, j]
        low, cut = np.partition(col, (n - c - 1, n - c))[n - c - 1:n - c + 1]
        # a tie at the cut whose group's average rank is not above q
        if low == cut and not (np.count_nonzero(col < cut) + 1
                               + np.count_nonzero(col <= cut)) / 2 / (n + 1) > q:
            np.greater(col, cut, out=above[:, j])
        else:
            np.greater_equal(col, cut, out=above[:, j])
    return above.reshape(x.shape)


def _ranks_above(n, q):
    """How many of the ranks r / (n + 1), r = 1..n, are above q.

    They increase with r, so a bisection over r finds the first one
    above q with the comparison r / (n + 1.0) > q itself, and no array
    of ranks is built.
    """
    return n - bisect.bisect_right(range(1, n + 1), q, key=lambda r: r / (n + 1.0))


def empirical_chi(sample, q):
    """chi(q) = #{U1 > q and U2 > q} / #{U2 > q} on the pseudo-uniform
    margins, counted from the :func:`exceedances` of x1 and x2 without
    ranking; see :func:`chi_from_exceedances`."""
    if not 0.0 < q < 1.0:
        raise DomainError("q must lie strictly inside (0, 1)")
    return chi_from_exceedances(exceedances(sample.x1, q), exceedances(sample.x2, q), q)


def chi_from_exceedances(above1, above2, q):
    """chi(q) from the masks U1 > q and U2 > q, with a binomial standard
    error; warns when fewer than 20 exceedances condition the
    estimate."""
    m = int(np.count_nonzero(above2))
    if m == 0:
        raise EstimateError(f"no exceedances of the conditioning margin at q={q}")
    joint = int(np.count_nonzero(above2 & above1))
    p = joint / m
    se = float(np.sqrt(p * (1.0 - p) / m))
    low = m < 20
    if low:
        warnings.warn(f"only {m} exceedances at q={q}", LowCountWarning, stacklevel=2)
    return ChiEstimate(value=float(p), se=se, q=float(q), n_conditioning=m, low_count=low)


def empirical_eta(sample, k=None):
    """Hill estimator of eta on the min-structure variable.

    T = min{1/(1-U1), 1/(1-U2)} has a regularly varying tail with index
    1/eta, so the Hill estimate over the top ``k`` order statistics
    (default ceil(sqrt(n))) estimates eta directly, with the 95 % normal
    confidence interval eta * (1 +- 1.96 / sqrt(k)).
    """
    n = sample.n
    if k is None:
        k = int(np.ceil(np.sqrt(n)))
    k = int(k)
    if not 10 <= k <= n // 2:
        raise PreconditionError(f"k={k} outside [10, n/2] for n={n}")
    u1, u2 = rank_transform(sample)
    t = np.minimum(1.0 / (1.0 - u1), 1.0 / (1.0 - u2))
    top = np.partition(t, n - k - 1)[n - k - 1:]
    top.sort()
    eta = float(np.mean(np.log(top[1:] / top[0])))
    half = _Z_95 / np.sqrt(k)
    return EtaEstimate(value=eta, ci_low=eta * (1.0 - half),
                       ci_high=eta * (1.0 + half), k=k)

