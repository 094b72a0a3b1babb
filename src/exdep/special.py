"""Modified Bessel function of the second kind for real order.

Wrappers around the AMOS-backed routines in :mod:`scipy.special`,
exposing the plain and the log-scaled variants used throughout the
distribution code.  ``log_bessel_k`` takes arrays: the GH density calls
it once per batch of quadrature nodes (``exptail``), and a float
argument takes the same route and gives a float.  Required accuracy
(1e-10 relative for orders in [-35, 35] and arguments in (1e-8, 700))
is pinned by fixture tests against independently computed
high-precision reference values.
"""

import math

import numpy as np
from scipy import special as _sp

from .errors import DomainError

__all__ = ["bessel_k", "log_bessel_k"]


def bessel_k(order, x):
    """K_v(x) for real order ``v`` and positive argument ``x``.

    Symmetric in the order: K_{-v} = K_v.  Values outside the plain
    ``kv`` range are recovered through the log-scaled path, so the
    result only saturates at 0.0 / ``inf`` when the true value does.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("bessel_k requires x > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(_sp.kv(abs(order), x))
        bad = (out <= 0.0) | ~np.isfinite(out)
        if np.any(bad):
            out[bad] = np.exp(log_bessel_k(order, np.asarray(x)[bad]))
    return out if out.ndim else float(out)


def _log_k_small(v, x):
    # log((1/2) Gamma(v) (2/x)^v) + log1p(-x^2 / (4(v-1)))
    out = math.lgamma(v) - math.log(2.0) - v * np.log(x / 2.0)
    if v > 2.0:
        out = out + np.log1p(-x * x / (4.0 * (v - 1.0)))
    return out


def _log_k_large(v, x, scaled):
    # log(sqrt(pi / (2x)) e^{-x} (1 + (4v^2 - 1) / (8x))), without e^{-x} if scaled
    head = 0.5 * np.log(np.pi / (2.0 * x))
    return (head if scaled else head - x) + np.log1p((4.0 * v * v - 1.0) / (8.0 * x))


def log_bessel_k(order, x, scaled=False):
    """log K_v(x), computed via the exponentially scaled K to avoid
    underflow for large arguments.

    Where K itself overflows the double range (large order with a tiny
    argument) the value switches to the two-term small-argument
    expansion log((1/2) Gamma(v) (2/x)^v) + log1p(-x^2 / (4(v-1))),
    whose truncation error is below double precision exactly in that
    regime.  Beyond the argument range of the AMOS routines (x > 2^30,
    where ``kve`` returns NaN) it switches to the large-argument
    expansion log(sqrt(pi/(2x)) e^{-x} (1 + (4v^2 - 1)/(8x))).

    ``scaled`` gives log(K_v(x) e^x) instead, with no cancellation of
    the x for large x.  A float (or 0-d) argument gives a float.
    """
    # kve is inf at a subnormal order, where K_v is K_0 to double precision
    v = abs(order) if abs(order) >= np.finfo(float).tiny else 0.0
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if (x <= 0.0).any():
        raise DomainError("log_bessel_k requires x > 0")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.log(_sp.kve(v, x))
        if not scaled:
            out -= x
        bad = ~np.isfinite(out)  # -inf where K underflows, as at x = inf
        if bad.any():
            small = bad & (x < 1.0)  # K overflow, not tail underflow
            if small.any():
                out[small] = _log_k_small(v, x[small]) + (x[small] if scaled else 0.0)
            large = np.isnan(out) & (x >= 1.0)
            if large.any():
                out[large] = _log_k_large(v, x[large], scaled)
            out[np.isnan(x)] = -np.inf
    return float(out[0]) if scalar else out
