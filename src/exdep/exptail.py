"""Exponential-tailed noise distributions: GIG, GH and their subclasses.

The generalized inverse Gaussian law GIG(lambda, tau, psi) has density

    f(x) = (psi/tau)^{lambda/2} x^{lambda-1} / (2 K_lambda(sqrt(tau psi)))
           * exp{-(tau/x + psi x)/2},   x > 0,

and the generalized hyperbolic law is the normal mean-variance mixture
Z = mu + gamma*R + sqrt(R)*W with R ~ GIG and W standard normal.  The
boundary families tau=0 (gamma mixing) and psi=0 (inverse-gamma mixing)
are handled as explicit special cases rather than numerical limits.

CDF and quantile have no closed form; they are computed from a cached
1024-segment quadrature grid with Brent refinement (1e-9 absolute
tolerance on probabilities).  The moment generating function is the
closed form of the GIG mixing law, E[exp(u R)] with u = t (GIG) or
gamma*t + t^2/2 (GH); divergence is detected from the tail exponents and
reported as ``inf``, never as a silent overflow.  Partial integrals of
exp(t*y) against the density, as chi needs, use adaptive quadrature.
Every adaptive quadrature raises ``QuadratureError`` when QUADPACK
reports that it missed its tolerance.

The densities take a float route on a Python float, as QUADPACK passes
to its callbacks: the operations of the array route in the same order,
so the bits agree, without the array overhead.  The Bessel function of
the normalizing constant is computed once per distribution.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import integrate, optimize
from scipy import special as _sp
from scipy import stats as _st

from .errors import (DomainError, MgfDivergenceError, ParameterError,
                     PreconditionError, QuadratureError, UnsupportedTailError)
from .special import log_bessel_k

__all__ = [
    "GigParams",
    "GhParams",
    "NoiseDistribution",
    "map_chunks",
    "quantile_shift",
    "substreams",
    "write_sample_csv",
    "read_sample_csv",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


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
    ok = (
        (lam < 0 and tau > 0 and psi >= 0)
        or (lam == 0 and tau > 0 and psi > 0)
        or (lam > 0 and tau >= 0 and psi > 0)
    )
    if not ok:
        raise ParameterError(
            f"inadmissible {what} parameters (lambda={lam}, tau={tau}, psi={psi}); "
            "need lambda<0, tau>0, psi>=0, or lambda=0, tau>0, psi>0, "
            "or lambda>0, tau>=0, psi>0"
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

    The mixing triple (lam, tau, psi) obeys the GIG admissibility rules;
    the degenerate (Gaussian-limit) mixing law is therefore excluded by
    construction.
    """

    lam: float
    tau: float
    psi: float
    mu: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        _check_gig_triple(self.lam, self.tau, self.psi, "GH mixing")


def substreams(root_seed, k):
    """Split ``root_seed`` into ``k`` independent generators.

    Uses ``numpy.random.SeedSequence.spawn``, so the i-th stream depends
    only on the root seed and i.  This is the documented split function
    for all parallel sampling in the package.
    """
    seq = np.random.SeedSequence(root_seed)
    return [np.random.default_rng(child) for child in seq.spawn(k)]


def map_chunks(func, n, chunk, rng, threads=1):
    """``[func(size, stream), ...]`` over consecutive chunks of ``n`` draws.

    Every chunk holds ``chunk`` draws except a shorter last one.  An
    integer ``rng`` is a root seed: chunk i draws from the i-th of its
    :func:`substreams`, and with ``threads > 1`` the chunks run on a
    thread pool (the results keep chunk order).  A Generator is one
    sequential stream shared by all chunks, in order, on this thread.
    """
    sizes = [chunk] * (n // chunk)
    if n % chunk:
        sizes.append(n % chunk)
    if isinstance(rng, np.random.Generator):
        return [func(size, rng) for size in sizes]
    streams = substreams(rng, len(sizes))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(func, sizes, streams))
    return [func(size, stream) for size, stream in zip(sizes, streams)]


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


# ----------------------------------------------------------------------
# Quadrature engine shared by the CDF / quantile / MGF machinery.
# ----------------------------------------------------------------------

class _QuadratureTable:
    """Cached cumulative-probability grid over the effective support.

    1024 panels with 16-point Gauss-Legendre quadrature each; forced
    panel boundaries at density kinks keep every panel analytic.  For
    positive-support laws the panels live on the log scale, which keeps
    the resolution uniform across wide dynamic ranges.
    """

    N_PANELS = 1024

    def __init__(self, dist):
        self.dist = dist
        self.log_space = dist._support[0] == 0.0
        lo, hi = dist._window()
        self.lo_native, self.hi_native = lo, hi
        glo, ghi = (math.log(lo), math.log(hi)) if self.log_space else (lo, hi)
        knots = [self._coord(k) for k in dist._kinks() if lo < k < hi]
        edges = np.linspace(glo, ghi, self.N_PANELS + 1 - len(knots))
        self.edges = np.unique(np.concatenate([edges, knots]))
        masses = self._panel(self.edges[:-1], self.edges[1:])
        # density kinks can carry integrable singularities; redo the
        # adjacent panels adaptively
        self._singular = set()
        for k in knots:
            i = int(np.searchsorted(self.edges, k))
            for j in (i - 1, i):
                if 0 <= j < len(masses):
                    self._singular.add(j)
                    masses[j] = self._quad_panel(self.edges[j], self.edges[j + 1])
        if np.any(masses < -1e-15):
            raise RuntimeError("quantile grid is not monotone")
        # left and right accumulations keep both tails at full relative
        # precision (no 1 - cdf cancellation)
        self.cum = np.concatenate([[0.0], np.cumsum(masses)])
        self.rcum = np.concatenate([np.cumsum(masses[::-1])[::-1], [0.0]])
        self.mass_below = dist._tail_integral(-np.inf, lo)
        self.mass_above = dist._tail_integral(hi, np.inf)

    def _coord(self, x):
        return math.log(x) if self.log_space else float(x)

    def _native(self, u):
        return math.exp(u) if self.log_space else float(u)

    def _panel(self, a, b):
        # integral of the density over the panel, in grid coordinates
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        u = mid[..., None] + half[..., None] * _GL_NODES
        if self.log_space:
            x = np.exp(u)
            vals = self.dist.pdf(x.ravel()).reshape(x.shape) * x
        else:
            vals = self.dist.pdf(u.ravel()).reshape(u.shape)
        return half * (vals @ _GL_WEIGHTS)

    def _quad_panel(self, a, b):
        if b <= a:
            return 0.0
        return _quad(self.dist.pdf, self._native(a), self._native(b),
                     epsabs=1e-13, epsrel=1e-11, limit=200)

    def _partial(self, i, a, b):
        if i in self._singular:
            return self._quad_panel(float(a), float(b))
        return float(self._panel(np.asarray(a, float), np.asarray(b, float)))

    def cdf(self, x):
        x = float(x)
        if x <= self.lo_native:
            return self.dist._tail_integral(-np.inf, x)
        if x >= self.hi_native:
            return 1.0 - self.dist._tail_integral(x, np.inf)
        u = self._coord(x)
        i = np.searchsorted(self.edges, u) - 1
        return self.mass_below + self.cum[i] + self._partial(i, self.edges[i], u)

    def survival(self, x):
        x = float(x)
        if x >= self.hi_native:
            return self.dist._tail_integral(x, np.inf)
        if x <= self.lo_native:
            return 1.0 - self.dist._tail_integral(-np.inf, x)
        u = self._coord(x)
        i = np.searchsorted(self.edges, u) - 1
        return self.mass_above + self.rcum[i + 1] + self._partial(i, u, self.edges[i + 1])

    def quantile(self, u):
        if u >= 0.999:
            return self._tail_quantile(u, right=True)
        if u <= 0.001:
            return self._tail_quantile(u, right=False)
        grid_u = self.mass_below + self.cum
        i = int(np.clip(np.searchsorted(grid_u, u) - 1, 0, len(self.edges) - 2))
        a, b = self._native(self.edges[i]), self._native(self.edges[i + 1])
        fa, fb = grid_u[i] - u, grid_u[i + 1] - u
        if fa > 0 or fb < 0:  # u outside panel due to tail mass; widen
            a, b = self.lo_native, self.hi_native
        return optimize.brentq(lambda x: self.cdf(x) - u, a, b, xtol=1e-12, rtol=8.9e-16)

    def _tail_quantile(self, u, right):
        lo, hi = self.lo_native, self.hi_native
        step = max(hi - lo, 1.0) / 8.0
        if right:
            target = 1.0 - u

            def fun(x):
                return self.survival(x) - target  # decreasing in x

            a, b = lo, hi
            while fun(b) > 0.0:
                a, b = b, b + step
                step *= 2.0
        else:
            target = u

            def fun(x):
                return self.cdf(x) - target  # increasing in x

            a, b = lo, hi
            if self.dist._support[0] == 0.0:
                while fun(a) > 0.0 and a > 1e-290:
                    b, a = a, a / 8.0
            else:
                while fun(a) > 0.0:
                    b, a = a, a - step
                    step *= 2.0
        return optimize.brentq(fun, a, b, xtol=1e-12, rtol=8.9e-16)


class NoiseDistribution:
    """An exponential-tailed GIG or GH noise law.

    Instances are immutable after construction and safe to share across
    threads; the density normalizer and the quadrature table are cached
    lazily on first use.
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
        self._table = None
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

    # -- serialization ---------------------------------------------------

    def to_json(self):
        p = self.params
        obj = {"family": self.family, "lambda": p.lam, "tau": p.tau, "psi": p.psi}
        if self.family == "GH":
            obj["mu"] = p.mu
            obj["gamma"] = p.gamma
        else:
            obj["mu"] = None
            obj["gamma"] = None
        return obj

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, str):
            obj = json.loads(obj)
        family = obj["family"].upper()
        if family == "GIG":
            return cls.gig(obj["lambda"], obj["tau"], obj["psi"])
        if family == "GH":
            return cls.gh(obj["lambda"], obj["tau"], obj["psi"],
                          obj.get("mu") or 0.0, obj.get("gamma") or 0.0)
        raise ParameterError(f"unknown family {obj['family']!r}")

    # -- density ---------------------------------------------------------

    def logpdf(self, x):
        """log f(x); a Python float gives a float by the scalar route."""
        if self.family == "GH":
            return self._gh_logpdf(x)
        p = self.params
        if isinstance(x, float) and p.tau > 0.0 and p.psi > 0.0:
            if not x > 0.0:
                return -math.inf
            return float(self._gig_lognorm + (p.lam - 1.0) * np.log(x)
                         - 0.5 * (p.tau / x + p.psi * x))
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, -np.inf)
        pos = x > 0
        if p.tau == 0.0:  # gamma(lam, rate psi/2)
            out[pos] = _st.gamma.logpdf(x[pos], a=p.lam, scale=2.0 / p.psi)
        elif p.psi == 0.0:  # inverse gamma(-lam, scale tau/2)
            out[pos] = _st.invgamma.logpdf(x[pos], a=-p.lam, scale=p.tau / 2.0)
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

    def _gh_logpdf(self, x):
        p = self.params
        scalar = isinstance(x, float)
        xc = x - p.mu if scalar else np.asarray(x, dtype=float) - p.mu
        a2 = p.psi + p.gamma * p.gamma
        if a2 == 0.0:  # psi=0, gamma=0: Student-t with 2|lam| degrees of freedom
            out = (
                _sp.gammaln(0.5 - p.lam) - _sp.gammaln(-p.lam)
                - 0.5 * math.log(math.pi * p.tau)
                + (p.lam - 0.5) * np.log1p(xc * xc / p.tau)
            )
            return float(out) if scalar else out
        if scalar:
            s = math.sqrt((p.tau + xc * xc) * a2)
            if not math.isfinite(s):
                return -math.inf
            if s == 0.0:
                return self._gh_at_mu()
            return float(self._gh_logconst + log_bessel_k(p.lam - 0.5, s)
                         + p.gamma * xc - (0.5 - p.lam) * np.log(s))
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
        if p.psi == 0.0:  # inverse-gamma mixing limit
            return base - p.lam * math.log(p.tau) + (1.0 + p.lam) * math.log(2.0) - _sp.gammaln(-p.lam)
        return base + 0.5 * p.lam * (math.log(p.psi) - math.log(p.tau)) - self._log_k_mixing

    # -- tail index -------------------------------------------------------

    @property
    def tail_index(self):
        """Right-tail exponential index beta: psi/2 for GIG and
        sqrt(psi + gamma^2) - gamma for GH (requires psi > 0)."""
        p = self.params
        if p.psi <= 0.0:
            raise UnsupportedTailError(
                "no finite positive exponential tail index when psi = 0"
            )
        if self.family == "GIG":
            return p.psi / 2.0
        return math.sqrt(p.psi + p.gamma * p.gamma) - p.gamma

    # -- support window and kinks for the quadrature grid ------------------

    def _center_scale(self):
        p = self.params
        if self.family == "GIG":
            if p.tau == 0.0:
                m = _st.gamma.ppf(0.5, a=p.lam, scale=2.0 / p.psi)
                return m, m
            if p.psi == 0.0:
                m = _st.invgamma.ppf(0.5, a=-p.lam, scale=p.tau / 2.0)
                return m, m
            mode = ((p.lam - 1.0) + math.sqrt((p.lam - 1.0) ** 2 + p.tau * p.psi)) / p.psi
            return mode, max(mode, 1.0 / p.psi, math.sqrt(p.tau / p.psi))
        scale = 1.0 + math.sqrt(p.tau + 1.0) + abs(p.gamma)
        return p.mu, scale

    def _window(self):
        center, scale = self._center_scale()
        peak = float(self.logpdf(center))
        if not np.isfinite(peak):
            peak = float(self.logpdf(center + 0.01 * scale))

        if self._support[0] == 0.0:
            # positive support: expand multiplicatively (log-scale grid)
            lo = center
            while float(self.logpdf(lo)) > peak - 80.0 and lo > 1e-290:
                lo /= 1.7
            hi = center
            for _ in range(800):
                if float(self.logpdf(hi)) < peak - 80.0:
                    break
                hi *= 1.7
            return lo, hi

        def expand(direction):
            step = scale
            x = center + direction * step
            for _ in range(400):
                if float(self.logpdf(x)) < peak - 80.0:
                    break
                step *= 1.5
                x = center + direction * step
            return x

        return expand(-1.0), expand(+1.0)

    def _kinks(self):
        if self.family == "GH":
            return [self.params.mu]
        return []

    def _grid(self):
        if self._table is None:
            self._table = _QuadratureTable(self)
        return self._table

    def _tail_integral(self, lo, hi):
        lo_s = max(lo, self._support[0])
        if hi <= lo_s:
            return 0.0
        return _quad(self.pdf, lo_s, hi, epsabs=1e-13, epsrel=1e-11, limit=300)

    # -- cdf / quantile -----------------------------------------------------

    def _scipy_frozen(self):
        """Exact scipy counterpart for the boundary families; None when
        the generic quadrature machinery applies."""
        p = self.params
        if self.family == "GIG":
            if p.tau == 0.0:
                return _st.gamma(a=p.lam, scale=2.0 / p.psi)
            if p.psi == 0.0:
                return _st.invgamma(a=-p.lam, scale=p.tau / 2.0)
            return None
        if p.psi == 0.0:
            if p.gamma == 0.0:
                df = -2.0 * p.lam
                return _st.t(df=df, loc=p.mu, scale=math.sqrt(p.tau / df))
            raise UnsupportedTailError(
                "cdf/quantile not provided for the skewed psi = 0 family"
            )
        return None

    def cdf(self, x):
        x = float(x)
        if x <= self._support[0]:
            return 0.0
        frozen = self._scipy_frozen()
        if frozen is not None:
            return float(frozen.cdf(x))
        return float(np.clip(self._grid().cdf(x), 0.0, 1.0))

    def sf(self, x):
        x = float(x)
        if x <= self._support[0]:
            return 1.0
        frozen = self._scipy_frozen()
        if frozen is not None:
            return float(frozen.sf(x))
        return float(np.clip(self._grid().survival(x), 0.0, 1.0))

    def quantile(self, u):
        u = float(u)
        if not 0.0 < u < 1.0:
            raise DomainError("quantile level must lie strictly inside (0, 1)")
        frozen = self._scipy_frozen()
        if frozen is not None:
            return float(frozen.ppf(u))
        return float(self._grid().quantile(u))

    # -- moment generating function ------------------------------------------

    def _mgf_finite(self, t):
        """Finiteness of E[exp(tY)] from the tail exponents."""
        p = self.params
        tol = 1e-12
        if self.family == "GIG":
            if p.psi == 0.0:
                return t <= tol
            beta = p.psi / 2.0
            if t < beta - tol * max(1.0, beta):
                return True
            if t <= beta + tol * max(1.0, beta):
                return p.lam < 0.0
            return False
        # GH: mixture argument g(t) = gamma*t + t^2/2 against the mixing law
        g = p.gamma * t + 0.5 * t * t
        if p.psi == 0.0:
            return g <= tol
        half_psi = 0.5 * p.psi
        if g < half_psi - tol * max(1.0, half_psi):
            return True
        if g <= half_psi + tol * max(1.0, half_psi):
            return p.lam < 0.0
        return False

    def mgf(self, t):
        """E[exp(t*Y)] in closed form; ``inf`` when divergent.

        Finite iff t is below the tail index beta, or t = beta exactly
        and lambda < 0.  Y = mu + gamma*R + sqrt(R)*W gives
        M(t) = e^{mu t} E[exp(u R)] with u = gamma*t + t^2/2 (u = t and
        mu = 0 for a GIG law Y = R), and with s = psi - 2u

            E[exp(u R)] = (psi/s)^{lambda/2} K_lambda(sqrt(tau s)) / K_lambda(sqrt(tau psi)).
        """
        t = float(t)
        if t == 0.0:
            return 1.0
        if not self._mgf_finite(t):
            return np.inf
        p = self.params
        if self.family == "GIG":
            return math.exp(self._mixing_log_mgf(p.psi - 2.0 * t))
        u = p.gamma * t + 0.5 * t * t
        return math.exp(p.mu * t + self._mixing_log_mgf(p.psi - 2.0 * u))

    def _mixing_log_mgf(self, s):
        """log E[exp(u R)] for R ~ GIG(lambda, tau, psi), at s = psi - 2u > 0,
        or at s <= 0 for the finite boundary value (lambda < 0)."""
        p = self.params
        if p.tau == 0.0:  # gamma(lambda, rate psi/2)
            return p.lam * math.log(p.psi / s)
        if p.psi == 0.0:  # inverse gamma(-lambda, scale tau/2); s <= 0 is u = 0
            if s <= 0.0:
                return 0.0
            return ((1.0 + p.lam) * math.log(2.0) - 0.5 * p.lam * math.log(p.tau * s)
                    + log_bessel_k(p.lam, math.sqrt(p.tau * s)) - _sp.gammaln(-p.lam))
        if s <= 0.0:  # s -> 0 with K_lambda(z) ~ Gamma(-lambda) 2^{-lambda-1} z^lambda
            return (0.5 * p.lam * math.log(p.tau * p.psi) + _sp.gammaln(-p.lam)
                    - (1.0 + p.lam) * math.log(2.0) - self._log_k_mixing)
        return (0.5 * p.lam * math.log(p.psi / s) + log_bessel_k(p.lam, math.sqrt(p.tau * s))
                - self._log_k_mixing)

    def _exp_weighted_integral(self, t, lo, hi):
        """integral of exp(t*y) f(y) dy over (lo, hi)."""
        lo = max(lo, self._support[0])
        if hi <= lo:
            return 0.0

        def integrand(y):
            return math.exp(t * y + self.logpdf(y))

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
        if p.psi == 0.0:
            return (p.tau / 2.0) / rng.gamma(shape=-p.lam, scale=1.0, size=n)
        if self._gig_sampler is None:
            self._gig_sampler = _GigLogSampler(p.lam, p.tau, p.psi)
        return self._gig_sampler.draw(rng, n)

    # -- quadrature moments (test oracles) ---------------------------------

    def moment(self, k):
        """E[Y^k] by adaptive quadrature."""
        pieces = [self._support[0]] + self._kinks() + [np.inf]
        total = 0.0
        for a, b in zip(pieces[:-1], pieces[1:]):
            val, _ = integrate.quad(lambda y: y ** k * self.pdf(y), a, b,
                                    epsabs=1e-12, epsrel=1e-10, limit=400)
            total += val
        return total

    def mean(self):
        return self.moment(1)

    def variance(self):
        m1 = self.moment(1)
        return self.moment(2) - m1 * m1


def quantile_shift(base, addend_coeffs):
    """Limiting upper-quantile shift of X = Y + sum(a_i * Y_i').

    For independent copies with coefficients 0 <= a_i < 1 the shift is
    log(M_Z(beta)) / beta with M_Z the MGF of the addend, i.e. the sum of
    log-MGFs of the base law at a_i * beta.
    """
    beta = base.tail_index
    total = 0.0
    for a in addend_coeffs:
        a = float(a)
        if not 0.0 <= a < 1.0:
            raise PreconditionError("addend coefficients must lie in [0, 1)")
        if a == 0.0:
            continue
        m = base.mgf(a * beta)
        if not np.isfinite(m):
            raise MgfDivergenceError(f"MGF diverges at t = {a * beta}")
        total += math.log(m)
    return total / beta


def write_sample_csv(path, values):
    """Write sampler output as CSV with the single header ``y``."""
    arr = np.asarray(values, dtype=float)
    with open(path, "w") as fh:
        fh.write("y\n")
        for v in arr:
            fh.write(f"{float(v)!r}\n")


def read_sample_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "y":
            raise DomainError(f"expected header 'y', got {header!r}")
        return np.array([float(line) for line in fh if line.strip()])
