"""Exponential-tailed noise distributions: GIG, GH and their subclasses.

The generalized inverse Gaussian law GIG(lambda, tau, psi) has density

    f(x) = (psi/tau)^{lambda/2} x^{lambda-1} / (2 K_lambda(sqrt(tau psi)))
           * exp{-(tau/x + psi x)/2},   x > 0,

and the generalized hyperbolic law is the normal mean-variance mixture
Z = mu + gamma*R + sqrt(R)*W with R ~ GIG and W standard normal.  Every
law here has an exponential right tail, so psi > 0: psi = 0 gives the
inverse-gamma mixing laws, whose tails are polynomial, and they are
rejected on construction.  The boundary family tau = 0 (gamma mixing)
is handled as an explicit special case rather than a numerical limit.

The moment generating function is the closed form of the GIG mixing
law, E[exp(u R)] with u = t (GIG) or gamma*t + t^2/2 (GH); divergence
is detected by comparing u with psi/2, one rule for both families, and
reported as ``inf``, never as a silent overflow.  The gamma family is
written with ``scipy.special`` in the form ``scipy.stats`` uses, so that
importing the package does not load ``scipy.stats``; ``scipy.optimize``
is loaded only by the GIG sampler's bound search.

Partial integrals of exp(t*y) against the density, as chi needs, and
the quadrature moments come from one adaptive Gauss-Kronrod integrator
(``_gauss_kronrod``: the 21-point Kronrod rule with its embedded
10-point Gauss rule, QUADPACK's qk21 error estimate).  It takes a batch
of integrals and evaluates the array route of ``logpdf`` on every
pending subinterval of the batch in one call.  Half-infinite pieces are
mapped to (0, 1] by y = a +- scale (1 - u)/u, QUADPACK's qagi transform
stretched by the law's own scale; where the density is unbounded
(tau = 0 with a small lambda) the pieces that end at the singular point
are mapped by y = c +- s^p, which makes the integrand bounded.  An
integral that misses its tolerance, or meets a NaN or infinite
integrand value, raises ``QuadratureError``.  The Bessel function of
the normalizing constant is computed once per distribution.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special as _sp

from .errors import DomainError, ParameterError, QuadratureError
from .special import log_bessel_k

__all__ = [
    "GigParams",
    "GhParams",
    "NoiseDistribution",
]

# The 21-point Kronrod rule on [-1, 1] and its embedded 10-point Gauss
# rule, whose nodes are the odd-indexed Kronrod nodes (QUADPACK qk21).
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525478277, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.zeros(11)
_WG[1::2] = [0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
             0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
             0.295524224714752870173892994651338]
_GK_X = np.concatenate([-_XGK, _XGK[-2::-1]])  # all 21 nodes, the centre once
_GK_W = np.concatenate([_WGK, _WGK[-2::-1]])
_G_W = np.concatenate([_WG, _WG[-2::-1]])
_GK_G_W = np.column_stack([_GK_W, _G_W])
_EPSABS, _EPSREL, _LIMIT, _START = 1e-12, 1e-10, 400, 4
_EPMACH, _UFLOW = np.finfo(float).eps, np.finfo(float).tiny


def _gk21(func, piece, a, b):
    """K21 values and QUADPACK error estimates of the integrals of ``func``
    over (a[i], b[i]) for pieces piece[i], all rows in one call of ``func``."""
    half = 0.5 * (b - a)
    u = (0.5 * (a + b))[:, None] + half[:, None] * _GK_X
    f = func(piece[:, None], u)
    bad = ~np.isfinite(f)
    if bad.any():
        raise QuadratureError(f"integrand value {f[bad][0]} at a quadrature node")
    resk, resg = (f @ _GK_G_W).T
    resabs = np.abs(f) @ _GK_W
    resasc = np.abs(f - 0.5 * resk[:, None]) @ _GK_W
    err = np.abs((resk - resg) * half)
    resabs *= half
    resasc *= half
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    err = np.where(resabs > _UFLOW / (50.0 * _EPMACH),
                   np.maximum(50.0 * _EPMACH * resabs, err), err)
    return resk * half, err


def _gauss_kronrod(func, owner, upper, n):
    """Adaptive G10/K21 quadrature of ``n`` integrals in one batch.

    Integral k is the sum over the pieces j with owner[j] = k of the
    integral of func(j, u) over u in (0, upper[j]); ``func`` takes arrays
    of piece indices and of points, of one shape.  Each piece starts as
    four equal subintervals.  Integral k is done when the sum of its
    error estimates is at most tol_k = max(epsabs, epsrel |I_k|).  Each
    round bisects, in every open integral of m_k subintervals, those whose
    error estimate passes tol_k / (8 m_k), so the ones left whole carry
    at most tol_k / 8, and evaluates all new subintervals in one call of
    ``func``.  Raises ``QuadratureError`` when an integral would need
    more than 400 subintervals or one too short to bisect, when ``func``
    returns NaN or an infinite value, and when a sum overflows.
    """
    piece = np.repeat(np.arange(len(owner)), _START)
    step = np.asarray(upper, dtype=float)[piece] / _START
    a = step * np.tile(np.arange(_START), len(owner))
    b = a + step
    val, err = _gk21(func, piece, a, b)
    while True:
        own = owner[piece]
        total = np.bincount(own, val, n)
        error = np.bincount(own, err, n)
        if not (np.isfinite(total).all() and np.isfinite(error).all()):
            raise QuadratureError("quadrature sum or error estimate beyond the float range")
        tol = np.maximum(_EPSABS, _EPSREL * np.abs(total))
        open_ = error > tol
        if not open_.any():
            return total
        count = np.bincount(own, minlength=n)
        split = np.flatnonzero(open_[own] & (err > (tol / (8.0 * np.maximum(count, 1)))[own]))
        count += np.bincount(own[split], minlength=n)
        if (count > _LIMIT).any():
            k = int(np.argmax(count > _LIMIT))
            raise QuadratureError(
                f"quadrature missed its tolerance within {_LIMIT} subintervals: "
                f"error estimate {error[k]:.3g} above {tol[k]:.3g}")
        lo, hi = a[split], b[split]
        mid = 0.5 * (lo + hi)
        if ((mid <= lo) | (mid >= hi)).any():
            raise QuadratureError("quadrature missed its tolerance: a subinterval "
                                  "is too short to bisect")
        # a split row becomes its left half; its right halves are appended
        new_val, new_err = _gk21(func, np.concatenate([piece[split], piece[split]]),
                                 np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        s = split.size
        b[split] = mid
        val[split], err[split] = new_val[:s], new_err[:s]
        piece = np.concatenate([piece, piece[split]])
        a, b = np.concatenate([a, mid]), np.concatenate([b, hi])
        val, err = np.concatenate([val, new_val[s:]]), np.concatenate([err, new_err[s:]])


def _check_gig_triple(lam, tau, psi, what):
    if not (psi > 0 and ((lam <= 0 and tau > 0) or (lam > 0 and tau >= 0))):
        raise ParameterError(
            f"inadmissible {what} parameters (lambda={lam}, tau={tau}, psi={psi}); "
            "need psi>0 and either lambda<=0, tau>0 or lambda>0, tau>=0"
        )


@dataclass(frozen=True)
class GigParams:
    """Parameters of the generalized inverse Gaussian distribution."""

    lam: float
    tau: float
    psi: float

    def __post_init__(self):
        _check_gig_triple(self.lam, self.tau, self.psi, "GIG")


@dataclass(frozen=True)
class GhParams:
    """Parameters of the generalized hyperbolic distribution.

    The mixing triple (lam, tau, psi) obeys the GIG admissibility rules,
    so psi > 0 and the right tail is exponential with index
    sqrt(psi + gamma^2) - gamma; the degenerate (Gaussian-limit) and the
    inverse-gamma (Student-t type) mixing laws are excluded by
    construction.
    """

    lam: float
    tau: float
    psi: float
    mu: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        _check_gig_triple(self.lam, self.tau, self.psi, "GH mixing")


# ----------------------------------------------------------------------
# GIG sampling: ratio-of-uniforms on the log scale.  The density of
# T = log X is proportional to exp(l(t)) with
#     l(t) = lam*t - (tau*exp(-t) + psi*exp(t))/2,
# which is concave for every admissible interior (lam, tau, psi), so the
# mode-shifted ratio-of-uniforms rectangle has uniformly bounded
# acceptance probability.
# ----------------------------------------------------------------------

def _gig_root(lam, tau, psi):
    """The positive root of psi y^2 - 2 lam y - tau = 0, without
    cancellation for either sign of lam.  For R ~ GIG(lam, tau, psi) its
    log is the mode of log R; with lam - 1 it is the mode of R."""
    root = math.sqrt(lam * lam + tau * psi)
    return (lam + root) / psi if lam >= 0.0 else tau / (root - lam)


class _GigLogSampler:
    """GIG draws by ratio-of-uniforms on T = log X, shifted to the mode
    t_star of T from :func:`_gig_root`, exact however small tau psi is."""

    def __init__(self, lam, tau, psi):
        self.lam = lam
        self.tau = tau
        self.psi = psi
        self.t_star = math.log(_gig_root(lam, tau, psi))  # the mode of T
        self.l_star = self._logdens(self.t_star)
        self.v_lo = self._extreme(side=-1)
        self.v_hi = self._extreme(side=+1)

    def _logdens(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            out = self.lam * t - 0.5 * (self.tau * np.exp(-t) + self.psi * np.exp(t))
        return out if out.ndim else float(out)

    def _extreme(self, side):
        # maximise |t - t_star| * sqrt(h(t)) on one side of the mode;
        # the stationarity condition is 1 + (t - t_star) * l'(t)/2 = 0,
        # with exactly one root per side (l is concave).
        def lprime(t):
            return self.lam + 0.5 * (self.tau * math.exp(-t) - self.psi * math.exp(t))

        def g(t):
            return 1.0 + (t - self.t_star) * lprime(t) / 2.0

        y_star = math.exp(self.t_star)
        curvature = 0.5 * (self.tau / y_star + self.psi * y_star)
        step = 1.0 / math.sqrt(curvature)
        prev = self.t_star  # g(t_star) = 1
        t = self.t_star + side * step
        for _ in range(200):
            if g(t) < 0.0:
                break
            prev = t
            step *= 2.0
            t = self.t_star + side * step
        else:  # pragma: no cover - admissible params always terminate
            raise RuntimeError("ratio-of-uniforms bound search failed")
        from scipy.optimize import brentq  # the only scipy.optimize call of the package

        root = brentq(g, *sorted((prev, t)), xtol=1e-12)
        return (root - self.t_star) * math.exp((self._logdens(root) - self.l_star) / 2.0)

    def draw(self, stream, n):
        out = np.empty(n)
        filled = 0
        width = self.v_hi - self.v_lo
        while filled < n:
            m = max(1024, 2 * (n - filled))
            u = stream.random(m)
            v = self.v_lo + width * stream.random(m)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                t = self.t_star + v / u
                accept = (u > 0.0) & (2.0 * np.log(u) <= self._logdens(t) - self.l_star)
            t = t[accept]
            take = min(t.size, n - filled)
            out[filled:filled + take] = t[:take]
            filled += take
        return np.exp(out)


class NoiseDistribution:
    """An exponential-tailed GIG or GH noise law.

    Instances are immutable after construction and safe to share across
    threads; what a law computes once is cached lazily on first use.
    :meth:`sample` draws from the ``Generator`` its caller hands it (a
    sub-stream of :func:`exdep.streams.map_chunks`), and its draws are
    bit-reproducible from that stream's state.
    """

    def __init__(self, params):
        if isinstance(params, GigParams):
            self.family = "GIG"
            self._support = (0.0, np.inf)
        elif isinstance(params, GhParams):
            self.family = "GH"
            self._support = (-np.inf, np.inf)
        else:
            raise ParameterError("params must be GigParams or GhParams")
        self.params = params

    # -- constructors --------------------------------------------------

    @classmethod
    def gig(cls, lam, tau, psi):
        return cls(GigParams(lam, tau, psi))

    @classmethod
    def gh(cls, lam, tau, psi, mu=0.0, gamma=0.0):
        return cls(GhParams(lam, tau, psi, mu, gamma))

    @classmethod
    def nig(cls, tau, psi, mu=0.0, gamma=0.0):
        """Normal inverse Gaussian: the GH subclass with lambda = -1/2."""
        return cls(GhParams(-0.5, tau, psi, mu, gamma))

    @classmethod
    def variance_gamma(cls, lam, psi, mu=0.0, gamma=0.0):
        """Variance gamma: the GH subclass with tau = 0 (gamma mixing)."""
        return cls(GhParams(lam, 0.0, psi, mu, gamma))

    def __repr__(self):
        return f"NoiseDistribution({self.params!r})"

    # -- density ---------------------------------------------------------

    def logpdf(self, x):
        """log f(x), elementwise; a float gives a float."""
        out = self._log_tilted(0.0, 0.0, np.asarray(x, dtype=float))
        return out if out.ndim else float(out)

    def _log_tilted(self, t, origin, z):
        """t*y + log f(y) at y = origin + z, as an array; ``t`` broadcasts
        against ``z``.

        The linear term of the exponential tail is taken with t, so the
        value stays exact where exp(t*y) cancels that tail (t at a tail
        index) and |y| is far beyond 1/eps.  A GH law reads its offset
        from mu as (origin - mu) + z, so at origin = mu an offset z far
        below the spacing of floats near mu keeps its value.  At t = 0 the
        gamma law (tau = 0) is written as ``scipy.stats.gamma.logpdf``
        writes it, with the same bits.
        """
        p = self.params
        if self.family == "GH":
            return self._gh_log_tilted(t, (origin - p.mu) + z)
        x = origin + z
        t = np.broadcast_to(t, x.shape)
        out = np.full(x.shape, -np.inf)
        pos = x > 0
        if p.tau == 0.0:  # gamma(lam, rate psi/2)
            scale = 2.0 / p.psi
            y = x[pos] / scale
            out[pos] = (_sp.xlogy(p.lam - 1.0, y) - y * (1.0 - t[pos] * scale)
                        - _sp.gammaln(p.lam) - np.log(scale))
        else:
            xx = x[pos]
            with np.errstate(over="ignore"):  # tau / x beyond the float range is inf
                out[pos] = (
                    self._gig_lognorm
                    + (p.lam - 1.0) * np.log(xx)
                    - 0.5 * (p.tau / xx + (p.psi - 2.0 * t[pos]) * xx)
                )
        return out

    def _gh_log_tilted(self, t, xc):
        """t*y + log f(y) for a GH law at offsets ``xc`` = y - mu.

        With alpha = sqrt(psi + gamma^2), r = sqrt(tau + xc^2) and
        s = alpha r the exponent is t mu + log C + log(K(s) e^s)
        - (1/2 - lambda) log s - (s - (gamma + t) xc), and the last term is
        alpha tau / (r + |xc|) + (right - t) xc for xc >= 0, or
        + (left + t) |xc| below, with the tail indices of :attr:`_tail_indices`.
        """
        p = self.params
        left, right = self._tail_indices
        alpha = math.sqrt(p.psi + p.gamma * p.gamma)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = np.hypot(math.sqrt(p.tau), xc)  # no underflow of xc^2 near mu
            s = alpha * r
            at = np.abs(xc)
            rate = np.where(xc >= 0.0, right - t, left + t)
            safe = np.where(s > 0, s, 1.0)
            out = (
                t * p.mu
                + self._gh_logconst
                + log_bessel_k(p.lam - 0.5, safe, scaled=True)
                - (alpha * p.tau / (r + at) + rate * at)
                - (0.5 - p.lam) * np.log(safe)
            )
            if p.tau == 0.0 and (s == 0.0).any():
                out = np.where(s > 0, out, self._gh_at_mu() + t * p.mu)
            return np.where(np.isfinite(s), out, -np.inf)

    def pdf(self, x):
        with np.errstate(over="ignore"):
            out = np.exp(self.logpdf(x))
        return out if np.ndim(out) else float(out)

    @cached_property
    def _log_k_mixing(self):
        """log K_lambda(sqrt(tau psi)), the Bessel factor of the GIG normalizer."""
        p = self.params
        return log_bessel_k(p.lam, math.sqrt(p.tau) * math.sqrt(p.psi))  # tau psi may underflow

    @cached_property
    def _gig_lognorm(self):
        p = self.params
        return 0.5 * p.lam * (math.log(p.psi) - math.log(p.tau)) - math.log(2.0) - self._log_k_mixing

    def _gh_at_mu(self):
        """log f(mu) when tau = 0, where s = 0 and the Bessel form is 0/0."""
        p = self.params
        if p.lam > 0.5:
            return float(self._gh_logconst + (p.lam - 1.5) * math.log(2.0)
                         + _sp.gammaln(p.lam - 0.5))
        return math.inf  # integrable cusp for lam <= 1/2

    @cached_property
    def _gh_logconst(self):
        p = self.params
        a2 = p.psi + p.gamma * p.gamma
        base = (0.5 - p.lam) * math.log(a2) - 0.5 * math.log(2.0 * math.pi)
        if p.tau == 0.0:  # variance gamma limit of the mixing normalizer
            return base + p.lam * math.log(p.psi) + (1.0 - p.lam) * math.log(2.0) - _sp.gammaln(p.lam)
        return base + 0.5 * p.lam * (math.log(p.psi) - math.log(p.tau)) - self._log_k_mixing

    # -- tail index -------------------------------------------------------

    @property
    def tail_index(self):
        """Right-tail exponential index beta: psi/2 for GIG and
        sqrt(psi + gamma^2) - gamma for GH, positive since psi > 0."""
        p = self.params
        if self.family == "GIG":
            return p.psi / 2.0
        return math.sqrt(p.psi + p.gamma * p.gamma) - p.gamma

    @cached_property
    def _tail_indices(self):
        """(left, right): exp(t*y) f(y) decays exponentially as y -> inf iff
        t < right and as y -> -inf iff t > -left; left is inf for a GIG law."""
        p = self.params
        if self.family == "GIG":
            return math.inf, self.tail_index
        return math.sqrt(p.psi + p.gamma * p.gamma) + p.gamma, self.tail_index

    # -- quadrature anchors and the cusp -----------------------------------

    @cached_property
    def _mixing_mean(self):
        """E[R] of the GIG law R: the law itself, or a GH law's mixing law."""
        p = self.params
        if p.tau == 0.0:  # gamma(lambda, rate psi/2)
            return 2.0 * p.lam / p.psi
        # sqrt(tau/psi) K_{lambda+1}(omega) / K_lambda(omega), omega = sqrt(tau psi)
        return math.sqrt(p.tau) / math.sqrt(p.psi) * math.exp(log_bessel_k(
            p.lam + 1.0, math.sqrt(p.tau) * math.sqrt(p.psi)) - self._log_k_mixing)

    @cached_property
    def _center_scale(self):
        """(center, scale) of the quadrature's cuts and maps.  A GIG law
        takes its mode and mean, which follow it however concentrated it
        is (its median for both when tau = 0).  A GH law takes mu and
        2 sqrt(E[R]) + |gamma| E[R] for its GIG mixing law R, so with
        mu = gamma = 0 the law GH(lambda, c tau, psi/c), GH(lambda, tau, psi)
        stretched by sqrt(c), has its scale stretched with it."""
        p = self.params
        mean = self._mixing_mean
        if self.family == "GH":
            return p.mu, 2.0 * math.sqrt(mean) + abs(p.gamma) * mean
        if p.tau == 0.0:  # median, as scipy.stats.gamma.ppf(0.5)
            m = _sp.gammaincinv(p.lam, 0.5) * (2.0 / p.psi)
            return m, m
        return _gig_root(p.lam - 1.0, p.tau, p.psi), mean

    @cached_property
    def _power_maps(self):
        """Where the integrand needs y = a +- s^p, p > 1, to be bounded.

        Returns (c, p_c, p_tail).  Near c the density behaves like
        |y - c|^{q - 1}, with q = 2 lambda at mu for a GH law and
        q = lambda at 0 for a GIG law when tau = 0; s^p with p_c = 2/q
        turns that into p_c s, and p_c is 1 where the density is bounded
        (q > 1, or tau > 0).  At the right tail index t = right (or at
        t = -left, the left one, both of :attr:`_tail_indices`) the tilted
        density decays only like |y|^{lambda - 1}, integrable iff
        lambda < 0; there s = (1 - u)/u with p_tail = max(1, -2/lambda)
        gives about p_tail u^{-p_tail lambda - 1}, bounded at u = 0.
        """
        p = self.params
        c, q = (p.mu, 2.0 * p.lam) if self.family == "GH" else (0.0, p.lam)
        p_c = 1.0 if p.tau > 0.0 or q > 1.0 else 2.0 / q
        p_tail = max(1.0, -2.0 / p.lam) if p.lam < 0.0 else 1.0
        return c, p_c, p_tail

    # -- moment generating function ------------------------------------------

    def mgf(self, t):
        """E[exp(t*Y)] in closed form; ``inf`` when divergent or above the
        float range (lambda just below 0 at the tail index).

        Y = mu + gamma*R + sqrt(R)*W gives M(t) = e^{mu t} E[exp(u R)]
        with the mixing argument u = gamma*t + t^2/2 (u = t and mu = 0
        for a GIG law Y = R).  It is finite iff u is below psi/2, or
        u = psi/2 exactly and lambda < 0, which is t below the tail
        index beta or at it; with s = psi - 2u

            E[exp(u R)] = (psi/s)^{lambda/2} K_lambda(sqrt(tau s)) / K_lambda(sqrt(tau psi)).

        An s within 2 eps psi of 0 is t at the tail index up to rounding,
        which the Bessel form would amplify to about (tau s)^{|lambda|}.
        """
        t = float(t)
        if t == 0.0:
            return 1.0
        p = self.params
        if self.family == "GIG":
            shift, u = 0.0, t
        else:
            shift, u = p.mu * t, p.gamma * t + 0.5 * t * t
        half_psi = 0.5 * p.psi
        slack = 1e-12 * max(1.0, half_psi)  # u within this of psi/2 counts as psi/2
        if not (u < half_psi - slack or (u <= half_psi + slack and p.lam < 0.0)):
            return np.inf  # NaN included
        s = p.psi - 2.0 * u
        log_m = shift + self._mixing_log_mgf(s if s > 2.0 * _EPMACH * p.psi else 0.0)
        try:
            return math.exp(log_m)
        except OverflowError:  # finite, but beyond the float range
            return np.inf

    def _mixing_log_mgf(self, s):
        """log E[exp(u R)] for R ~ GIG(lambda, tau, psi), at s = psi - 2u > 0,
        or at s <= 0 for the finite boundary value (lambda < 0)."""
        p = self.params
        if p.tau == 0.0:  # gamma(lambda, rate psi/2)
            return p.lam * math.log(p.psi / s)
        if s <= 0.0:  # s -> 0 with K_lambda(z) ~ Gamma(-lambda) 2^{-lambda-1} z^lambda
            return (0.5 * p.lam * (math.log(p.tau) + math.log(p.psi)) + _sp.gammaln(-p.lam)
                    - (1.0 + p.lam) * math.log(2.0) - self._log_k_mixing)
        return (0.5 * p.lam * math.log(p.psi / s) + log_bessel_k(p.lam, math.sqrt(p.tau) * math.sqrt(s))
                - self._log_k_mixing)

    def _exp_weighted_integral(self, t, lo, hi, k=0):
        """integral of y^k exp(t*y) f(y) dy over (lo, hi), elementwise over
        the broadcast arrays (t, lo, hi) in one quadrature batch; floats
        give a float.

        Each integral is cut at the centre of the law and at an anchor
        moved from it toward the integrand's peak by t scale^2, at most 50
        scales (none below 1e-3 scales), of :attr:`_center_scale`.  A
        half-infinite piece is integrated over u in (0, 1] with
        y = a + scale (1 - u)/u (or b - scale (1 - u)/u).  A piece that ends
        at the singular point c of the density takes y = c +- s^p, and a
        half-infinite one at a tail index y = a +- scale ((1 - u)/u)^p,
        with the powers p of :attr:`_power_maps`.
        The integrand is exp(t*y + log f(y) + log dy/du) from
        :meth:`_log_tilted`, the route of ``logpdf``; a node beyond the
        float range, where the map would drop mass, counts as a NaN value
        and raises.

        The tolerance is absolute (``epsabs`` 1e-12, with ``epsrel``
        1e-10), so nothing bounds the relative error of a mass far below
        1e-12: for NIG(-0.5, 1, 1) the mass above 30, 5.86e-16, is off by
        -2.3e-12 relative, as the first K21 estimates happen to be.  The
        chi integrals and MGFs built on it are of order 0.1 or more.  A
        caller that needs far-tail masses (a survival function, a tail
        quantile) must ask for a relative tolerance instead.
        """
        t, lo, hi = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (t, lo, hi)))
        center, scale = self._center_scale
        log_scale = math.log(scale)
        cusp, cusp_power, tail_power = self._power_maps
        left, right = self._tail_indices
        pieces = []  # (owner, origin, sign, power, half-infinite, length)
        for i, (ti, a, b) in enumerate(zip(t.ravel().tolist(), lo.ravel().tolist(),
                                           hi.ravel().tolist())):
            a = max(a, self._support[0])
            if not b > a:
                continue
            # toward the integrand's peak, which moves with t; a shift below
            # 1e-3 scales would only put a near-singular end next to a cusp
            shift = min(max(ti * scale * scale, -50.0 * scale), 50.0 * scale)
            anchor = center + shift if abs(shift) >= 1e-3 * scale else center
            cuts = [a, *sorted({x for x in (center, anchor) if a < x < b}), b]
            for x0, x1 in zip(cuts[:-1], cuts[1:]):
                if x1 == cusp or x0 == -np.inf:
                    origin, sign, end = x1, -1.0, x0
                else:
                    origin, sign, end = x0, 1.0, x1
                power = 1.0
                if origin == cusp:
                    power = cusp_power
                elif math.isinf(end) and (ti >= right if sign > 0 else ti <= -left):
                    power = tail_power
                pieces.append((i, origin, sign, power, math.isinf(end), abs(end - origin)))
        out = np.zeros(t.size)
        if pieces:
            owner, origin, sign, power, infinite, length = map(np.array, zip(*pieces))
            tilt = t.ravel()[owner]
            upper = np.where(infinite, 1.0, length ** (1.0 / power))
            mapped = np.any(power != 1.0)  # some piece takes y = a +- s^p
            step = sign * np.where(infinite, scale, 1.0)  # y = origin + step * v

            def integrand(j, u):
                inf = infinite[j]
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    v = np.where(inf, (1.0 - u) / u, u)
                    log_jac = np.where(inf, log_scale - 2.0 * np.log(u), 0.0)
                    if mapped:
                        pw = power[j]
                        log_jac += np.log(pw) + (pw - 1.0) * np.log(v)
                        v = v ** pw
                    z = step[j] * v
                    y = origin[j] + z
                    f = np.exp(self._log_tilted(tilt[j], origin[j], z) + log_jac)
                    if k:
                        f = f * y ** k
                return np.where(np.isfinite(y), f, np.nan) if mapped else f

            out = _gauss_kronrod(integrand, owner, upper, t.size)
        out = out.reshape(t.shape)
        return out if out.ndim else float(out)

    # -- sampling ---------------------------------------------------------

    def sample(self, stream, n):
        """n i.i.d. draws from the ``numpy.random.Generator`` ``stream``,
        deterministic for a given state of it; anything else raises
        :class:`ParameterError`.  Seeded samples of many draws come from
        :func:`exdep.streams.map_chunks`, one sub-stream per chunk.

        GIG draws use mode-shifted ratio-of-uniforms rejection on the log
        scale (log-concave for all admissible parameters); GH draws use
        the normal mean-variance mixture mu + gamma*R + sqrt(R)*W.
        """
        if not isinstance(stream, np.random.Generator):
            raise ParameterError(f"sample draws from a numpy Generator, got {stream!r}")
        if n < 0:
            raise DomainError("sample size must be non-negative")
        if n == 0:
            return np.empty(0)
        if self.family == "GIG":
            return self._sample_mixing(stream, n)
        p = self.params
        r = self._sample_mixing(stream, n)
        w = stream.standard_normal(n)
        return p.mu + p.gamma * r + np.sqrt(r) * w

    def _sample_mixing(self, stream, n):
        p = self.params
        if p.tau == 0.0:
            return stream.gamma(shape=p.lam, scale=2.0 / p.psi, size=n)
        return self._gig_sampler.draw(stream, n)

    @cached_property
    def _gig_sampler(self):
        """The ratio-of-uniforms sampler of the mixing law (tau > 0)."""
        return _GigLogSampler(self.params.lam, self.params.tau, self.params.psi)

    # -- quadrature moments (test oracles) ---------------------------------

    def moment(self, k):
        """E[Y^k] by adaptive quadrature; raises ``QuadratureError`` when
        the integrator misses its tolerance."""
        return self._exp_weighted_integral(0.0, -np.inf, np.inf, k)

    def mean(self):
        return self.moment(1)

    def variance(self):
        m1 = self.moment(1)
        return self.moment(2) - m1 * m1

