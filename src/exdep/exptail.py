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
reported as ``inf``, never as a silent overflow.  Partial integrals of exp(t*y) against the density, as
chi needs, use adaptive quadrature, which raises ``QuadratureError``
when QUADPACK reports that it missed its tolerance.  The gamma family
is written with ``scipy.special`` in the form ``scipy.stats`` uses, so
that importing the package does not load ``scipy.stats``.

The densities take a float route on a Python float, as QUADPACK passes
to its callbacks: the operations of the array route in the same order,
so the bits agree, without the array overhead.  The Bessel function of
the normalizing constant is computed once per distribution, and the GH
float route is built once per distribution with its constants taken out
of the call.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import integrate, optimize
from scipy import special as _sp

from .errors import DomainError, ParameterError, QuadratureError
from .special import log_bessel_k

__all__ = [
    "GigParams",
    "GhParams",
    "NoiseDistribution",
]


def _quad(func, a, b, **options):
    """``integrate.quad`` of ``func`` over (a, b), raising on non-convergence.

    QUADPACK returns a fourth element, its warning message, exactly when
    ier > 0; ier = 0 already means abserr <= max(epsabs, epsrel * |I|).
    """
    out = integrate.quad(func, a, b, full_output=1, **options)
    if len(out) > 3:
        raise QuadratureError(f"quadrature over ({a}, {b}) failed: {out[3]}")
    return out[0]


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


def _as_generator(rng):
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


# ----------------------------------------------------------------------
# GIG sampling: ratio-of-uniforms on the log scale.  The density of
# T = log X is proportional to exp(l(t)) with
#     l(t) = lam*t - (tau*exp(-t) + psi*exp(t))/2,
# which is concave for every admissible interior (lam, tau, psi), so the
# mode-shifted ratio-of-uniforms rectangle has uniformly bounded
# acceptance probability.
# ----------------------------------------------------------------------

class _GigLogSampler:
    def __init__(self, lam, tau, psi):
        self.lam = lam
        self.tau = tau
        self.psi = psi
        # mode of T: psi*y^2 - 2*lam*y - tau = 0 with y = exp(t)
        y_star = (lam + math.sqrt(lam * lam + tau * psi)) / psi
        self.t_star = math.log(y_star)
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
        root = optimize.brentq(g, *sorted((prev, t)), xtol=1e-12)
        return (root - self.t_star) * math.exp((self._logdens(root) - self.l_star) / 2.0)

    def draw(self, rng, n):
        out = np.empty(n)
        filled = 0
        width = self.v_hi - self.v_lo
        while filled < n:
            m = max(1024, 2 * (n - filled))
            u = rng.random(m)
            v = self.v_lo + width * rng.random(m)
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
    threads; the density normalizer is cached lazily on first use.
    Samplers take an explicit generator (or integer seed) per caller and
    are bit-reproducible on a single stream.
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
        self._gig_sampler = None

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
        """log f(x); a Python float gives a float by the scalar route."""
        if self.family == "GH":
            return self._gh_float_logpdf(x) if isinstance(x, float) else self._gh_logpdf(x)
        p = self.params
        if isinstance(x, float) and p.tau > 0.0:
            if not x > 0.0:
                return -math.inf
            return float(self._gig_lognorm + (p.lam - 1.0) * np.log(x)
                         - 0.5 * (p.tau / x + p.psi * x))
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, -np.inf)
        pos = x > 0
        if p.tau == 0.0:  # gamma(lam, rate psi/2), as scipy.stats.gamma.logpdf
            scale = 2.0 / p.psi
            y = x[pos] / scale
            out[pos] = _sp.xlogy(p.lam - 1.0, y) - y - _sp.gammaln(p.lam) - np.log(scale)
        else:
            xx = x[pos]
            out[pos] = (
                self._gig_lognorm
                + (p.lam - 1.0) * np.log(xx)
                - 0.5 * (p.tau / xx + p.psi * xx)
            )
        return out if out.ndim else float(out)

    def pdf(self, x):
        with np.errstate(over="ignore"):
            out = np.exp(self.logpdf(x))
        return out if np.ndim(out) else float(out)

    @cached_property
    def _log_k_mixing(self):
        """log K_lambda(sqrt(tau psi)), the Bessel factor of the GIG normalizer."""
        p = self.params
        return log_bessel_k(p.lam, math.sqrt(p.tau * p.psi))

    @cached_property
    def _gig_lognorm(self):
        p = self.params
        return 0.5 * p.lam * (math.log(p.psi) - math.log(p.tau)) - math.log(2.0) - self._log_k_mixing

    @cached_property
    def _gh_float_logpdf(self):
        """The GH log-density at a Python float, with the law's constants
        taken once: the operations of :meth:`_gh_logpdf` in the same order,
        so the same bits, without re-reading the parameters per call.
        ``logpdf(float)`` and the quadrature integrands use it."""
        p = self.params
        mu, tau, gamma, order, power = p.mu, p.tau, p.gamma, p.lam - 0.5, 0.5 - p.lam
        a2 = p.psi + p.gamma * p.gamma
        logconst, at_mu = self._gh_logconst, self._gh_at_mu()

        def logpdf(x):
            xc = x - mu
            s = math.sqrt((tau + xc * xc) * a2)
            if not math.isfinite(s):
                return -math.inf
            if s == 0.0:
                return at_mu
            return float(logconst + log_bessel_k(order, s) + gamma * xc - power * np.log(s))

        return logpdf

    def _gh_logpdf(self, x):
        p = self.params
        xc = np.asarray(x, dtype=float) - p.mu
        a2 = p.psi + p.gamma * p.gamma
        with np.errstate(invalid="ignore", over="ignore"):
            s = np.sqrt((p.tau + xc * xc) * a2)
            out = (
                self._gh_logconst
                + log_bessel_k(p.lam - 0.5, np.where(s > 0, s, 1.0))
                + p.gamma * xc
                - (0.5 - p.lam) * np.log(np.where(s > 0, s, 1.0))
            )
            if np.any(s == 0.0):
                out = np.where(s > 0, out, self._gh_at_mu())
            out = np.where(np.isfinite(s), out, -np.inf)
        return out if out.ndim else float(out)

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

    # -- quadrature anchors and kinks -------------------------------------

    def _center_scale(self):
        p = self.params
        if self.family == "GIG":
            if p.tau == 0.0:  # median, as scipy.stats.gamma.ppf(0.5)
                m = _sp.gammaincinv(p.lam, 0.5) * (2.0 / p.psi)
                return m, m
            mode = ((p.lam - 1.0) + math.sqrt((p.lam - 1.0) ** 2 + p.tau * p.psi)) / p.psi
            return mode, max(mode, 1.0 / p.psi, math.sqrt(p.tau / p.psi))
        scale = 1.0 + math.sqrt(p.tau + 1.0) + abs(p.gamma)
        return p.mu, scale

    def _kinks(self):
        if self.family == "GH":
            return [self.params.mu]
        return []

    # -- moment generating function ------------------------------------------

    def mgf(self, t):
        """E[exp(t*Y)] in closed form; ``inf`` when divergent.

        Y = mu + gamma*R + sqrt(R)*W gives M(t) = e^{mu t} E[exp(u R)]
        with the mixing argument u = gamma*t + t^2/2 (u = t and mu = 0
        for a GIG law Y = R).  It is finite iff u is below psi/2, or
        u = psi/2 exactly and lambda < 0, which is t below the tail
        index beta or at it; with s = psi - 2u

            E[exp(u R)] = (psi/s)^{lambda/2} K_lambda(sqrt(tau s)) / K_lambda(sqrt(tau psi)).
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
        return math.exp(shift + self._mixing_log_mgf(p.psi - 2.0 * u))

    def _mixing_log_mgf(self, s):
        """log E[exp(u R)] for R ~ GIG(lambda, tau, psi), at s = psi - 2u > 0,
        or at s <= 0 for the finite boundary value (lambda < 0)."""
        p = self.params
        if p.tau == 0.0:  # gamma(lambda, rate psi/2)
            return p.lam * math.log(p.psi / s)
        if s <= 0.0:  # s -> 0 with K_lambda(z) ~ Gamma(-lambda) 2^{-lambda-1} z^lambda
            return (0.5 * p.lam * math.log(p.tau * p.psi) + _sp.gammaln(-p.lam)
                    - (1.0 + p.lam) * math.log(2.0) - self._log_k_mixing)
        return (0.5 * p.lam * math.log(p.psi / s) + log_bessel_k(p.lam, math.sqrt(p.tau * s))
                - self._log_k_mixing)

    def _exp_weighted_integral(self, t, lo, hi):
        """integral of exp(t*y) f(y) dy over (lo, hi).

        The integrand is exp(t*y + log f(y)) on the float route of
        ``logpdf``; for a GH law that is the route built once per
        distribution, so a QUADPACK callback reads no parameter and makes
        one ``log_bessel_k`` call.

        The quadrature tolerance is absolute (``epsabs`` 1e-12, with
        ``epsrel`` 1e-10), so a mass far below 1e-12 carries a relative
        error of about 1e-5: for NIG(-0.5, 1, 1) the mass above 30,
        5.86e-16, is off by about -1.1e-5 relative.  The chi integrals
        and MGFs built on it are of order 0.1 or more.  A caller that
        needs far-tail masses (a survival function, a tail quantile)
        must ask for a relative tolerance instead.
        """
        lo = max(lo, self._support[0])
        if hi <= lo:
            return 0.0
        logpdf = self._gh_float_logpdf if self.family == "GH" else self.logpdf

        def integrand(y):
            return math.exp(t * y + logpdf(y))

        center, scale = self._center_scale()
        # shift the anchor toward the integrand's peak for positive t
        anchor = center if t <= 0 else center + min(t * scale * scale, 50.0 * scale)
        points = sorted({p for p in (center, anchor) if lo < p < hi})
        pieces = [lo] + points + [hi]
        total = 0.0
        for a, b in zip(pieces[:-1], pieces[1:]):
            total += _quad(integrand, a, b, epsabs=1e-12, epsrel=1e-10, limit=400)
        return total

    # -- sampling ---------------------------------------------------------

    def sample(self, rng, n):
        """n i.i.d. draws, deterministic for a given generator state.

        GIG draws use mode-shifted ratio-of-uniforms rejection on the log
        scale (log-concave for all admissible parameters); GH draws use
        the normal mean-variance mixture mu + gamma*R + sqrt(R)*W.
        """
        if n < 0:
            raise DomainError("sample size must be non-negative")
        rng = _as_generator(rng)
        if n == 0:
            return np.empty(0)
        if self.family == "GIG":
            return self._sample_mixing(rng, n)
        p = self.params
        r = self._sample_mixing(rng, n)
        w = rng.standard_normal(n)
        return p.mu + p.gamma * r + np.sqrt(r) * w

    def _sample_mixing(self, rng, n):
        p = self.params
        if p.tau == 0.0:
            return rng.gamma(shape=p.lam, scale=2.0 / p.psi, size=n)
        if self._gig_sampler is None:
            self._gig_sampler = _GigLogSampler(p.lam, p.tau, p.psi)
        return self._gig_sampler.draw(rng, n)

    # -- quadrature moments (test oracles) ---------------------------------

    def moment(self, k):
        """E[Y^k] by adaptive quadrature; raises ``QuadratureError`` when
        QUADPACK reports that it missed its tolerance."""
        pieces = [self._support[0]] + self._kinks() + [np.inf]
        total = 0.0
        for a, b in zip(pieces[:-1], pieces[1:]):
            total += _quad(lambda y: y ** k * self.pdf(y), a, b,
                           epsabs=1e-12, epsrel=1e-10, limit=400)
        return total

    def mean(self):
        return self.moment(1)

    def variance(self):
        m1 = self.moment(1)
        return self.moment(2) - m1 * m1

