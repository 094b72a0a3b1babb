"""Moving-average kernels and their limiting residual tail dependence.

Two families are built in: the Whittle-Matern Green's function

    G(h) = 2^{1-nu} / ((4 pi)^{d/2} Gamma(alpha/2) kappa^{2 nu})
           * (kappa h)^{nu} K_{nu}(kappa h),     nu = (alpha - d) / 2,

which is finite at zero iff alpha > d, and the one-sided exponential
kernel exp(-a h) of the Ornstein-Uhlenbeck construction.  The limiting
residual-tail-dependence functions are

    symmetric (two-sided) domains, convex G:   1/2 + G(h) / (2 G(0)),
    one-sided domains:                         1 / (2 - G(h) / G(0)),

with the non-convex two-sided case covered by the (unproven) conjecture
max{1/2 + G(h)/(2 G(0)), G(h/2)/G(0)}.  An infinite G(0) is carried as an
explicit flag so the constant-1/2 branch is exact, never a float overflow.
"""

import json
import math

import numpy as np
from scipy import special as _sp

from .errors import DomainError, ParameterError, PreconditionError

__all__ = [
    "Kernel",
    "matern_green",
    "matern_kernel",
    "ou_kernel",
    "exponential_kernel",
    "custom_kernel",
    "limit_eta_symmetric",
    "limit_eta_conjecture",
    "limit_eta_onesided",
    "ou_eta",
    "gaussian_ou_eta",
    "kernel_to_json",
    "kernel_from_json",
]


class Kernel:
    """An evaluable non-negative, strictly decreasing kernel G.

    ``value_at_zero`` may be ``math.inf``; ``convex`` records whether G is
    convex on (0, inf), which selects between the proven and conjectured
    limiting eta functions.
    """

    def __init__(self, kind, func, value_at_zero, convex, params=None):
        self.kind = kind
        self._func = func
        self.value_at_zero = value_at_zero
        self.convex = convex
        self.params = dict(params or {})

    def __call__(self, h):
        h = np.asarray(h, dtype=float)
        if np.any(h < 0.0):
            raise DomainError("kernel distances must be non-negative")
        out = self._func(h)
        return out if np.ndim(out) else float(out)

    def __repr__(self):
        return f"Kernel({self.kind!r}, G(0)={self.value_at_zero}, convex={self.convex})"


def matern_green(kappa, alpha, d, h):
    """Green's function of (kappa^2 - Laplace)^{alpha/2} on R^d at lag h.

    Requires alpha >= d (smoothness nu = (alpha-d)/2 >= 0).  At h = 0 the
    value is the finite small-argument limit for alpha > d and ``inf``
    for alpha = d.
    """
    if kappa <= 0.0:
        raise ParameterError("kappa must be positive")
    if d not in (1, 2, 3):
        raise ParameterError("dimension must be 1, 2 or 3")
    nu = (alpha - d) / 2.0
    if nu < 0.0:
        raise ParameterError("alpha < d kernels are not supported")
    h = np.asarray(h, dtype=float)
    if np.any(h < 0.0):
        raise DomainError("h must be non-negative")
    const = 2.0 ** (1.0 - nu) / ((4.0 * math.pi) ** (d / 2.0)
                                 * _sp.gamma(alpha / 2.0) * kappa ** (2.0 * nu))
    out = np.empty(h.shape)
    zero = h == 0.0
    if nu == 0.0:
        out[zero] = np.inf
    else:
        # x^nu K_nu(x) -> 2^{nu-1} Gamma(nu) as x -> 0
        out[zero] = const * 2.0 ** (nu - 1.0) * _sp.gamma(nu)
    x = kappa * h[~zero]
    out[~zero] = const * x ** nu * _sp.kv(nu, x)
    return out if out.ndim else float(out)


def _matern_convex(kappa, alpha, d):
    if d == 2:
        return alpha <= 3.0  # known threshold in two dimensions
    func = lambda h: matern_green(kappa, alpha, d, h)
    return _second_difference_convex(func)


def _second_difference_convex(func, h_max=None, n=60, tol=1e-8):
    hs = np.geomspace(1e-3, h_max or 5.0, n)
    step = hs * 1e-2
    second = func(hs + step) + func(hs - step) - 2.0 * func(hs)
    scale = np.abs(func(hs)) * (step / hs) ** 2 + 1e-300
    return bool(np.all(second >= -tol * scale))


def matern_kernel(kappa, alpha, d=2):
    """Matern Green's function as a :class:`Kernel` value."""
    nu = (alpha - d) / 2.0
    if kappa <= 0.0 or nu < 0.0:
        raise ParameterError("need kappa > 0 and alpha >= d")
    g0 = matern_green(kappa, alpha, d, 0.0)
    return Kernel(
        kind="matern_green",
        func=lambda h: matern_green(kappa, alpha, d, h),
        value_at_zero=g0,
        convex=_matern_convex(kappa, alpha, d),
        params={"kappa": kappa, "alpha": alpha, "d": d},
    )


def ou_kernel(a, h):
    """One-sided exponential kernel exp(-a h)."""
    if a <= 0.0:
        raise ParameterError("a must be positive")
    h = np.asarray(h, dtype=float)
    if np.any(h < 0.0):
        raise DomainError("h must be non-negative")
    out = np.exp(-a * h)
    return out if out.ndim else float(out)


def exponential_kernel(a):
    if a <= 0.0:
        raise ParameterError("a must be positive")
    return Kernel(
        kind="ou_exponential",
        func=lambda h: np.exp(-a * np.asarray(h, dtype=float)),
        value_at_zero=1.0,
        convex=True,
        params={"a": a},
    )


def custom_kernel(func, value_at_zero, convex, validate=True):
    """Wrap a caller-supplied decreasing function.

    The declared convexity flag is spot-checked numerically (second
    differences on a grid) when ``validate`` is true.
    """
    k = Kernel(kind="custom", func=lambda h: np.asarray(func(h), dtype=float),
               value_at_zero=value_at_zero, convex=bool(convex), params={})
    if validate:
        hs = np.linspace(0.05, 5.0, 40)
        vals = k(hs)
        if np.any(np.diff(vals) >= 0.0) or np.any(vals < 0.0):
            raise ParameterError("custom kernel must be non-negative and strictly decreasing")
        if convex and not _second_difference_convex(k):
            raise ParameterError("custom kernel declared convex but fails the numeric check")
    return k


# ----------------------------------------------------------------------
# Limiting residual tail dependence functions
# ----------------------------------------------------------------------

def limit_eta_symmetric(kernel, h):
    """Mesh-refinement limit of eta(h) for two-sided integral approximations
    with a convex kernel: 1/2 + G(h)/(2 G(0)), collapsing to the constant
    1/2 when G(0) is infinite."""
    if not kernel.convex:
        raise PreconditionError(
            "kernel is not convex; use limit_eta_conjecture for the unproven case"
        )
    h = float(h)
    if h == 0.0:
        return 1.0
    if math.isinf(kernel.value_at_zero):
        return 0.5
    return 0.5 + float(kernel(h)) / (2.0 * kernel.value_at_zero)


def limit_eta_conjecture(kernel, h):
    """Conjectured limit for non-convex kernels:
    max{1/2 + G(h)/(2 G(0)), G(h/2)/G(0)}, elementwise over an array h.

    Unproven; downstream outputs label values from this function as
    CONJECTURE.  For convex kernels it coincides with the proven limit.
    """
    h = np.asarray(h, dtype=float)
    g0 = kernel.value_at_zero
    if math.isinf(g0):
        out = np.full(h.shape, 0.5)
    else:
        out = np.maximum(0.5 + kernel(h) / (2.0 * g0), kernel(h / 2.0) / g0)
    out = np.where(h == 0.0, 1.0, out)
    return out if out.ndim else float(out)


def limit_eta_onesided(kernel, h):
    """Mesh-refinement limit of eta(h) for one-sided approximations:
    1 / (2 - G(h)/G(0)).  Requires a finite G(0)."""
    if math.isinf(kernel.value_at_zero):
        raise PreconditionError("one-sided limit requires finite G(0)")
    h = float(h)
    if h == 0.0:
        return 1.0
    return 1.0 / (2.0 - float(kernel(h)) / kernel.value_at_zero)


def ou_eta(a, h):
    """Residual tail dependence of the exponential-tailed OU process."""
    return 1.0 / (2.0 - ou_kernel(a, h))


def gaussian_ou_eta(a, h):
    """Residual tail dependence of the Gaussian OU process with the same
    correlation function."""
    return (1.0 + ou_kernel(a, h)) / 2.0


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def kernel_to_json(kernel):
    obj = {"kind": kernel.kind}
    obj.update(kernel.params)
    return obj


def kernel_from_json(obj):
    if isinstance(obj, str):
        obj = json.loads(obj)
    kind = obj["kind"]
    if kind == "matern_green":
        return matern_kernel(obj["kappa"], obj["alpha"], obj.get("d", 2))
    if kind == "ou_exponential":
        return exponential_kernel(obj["a"])
    raise ParameterError(f"cannot rebuild kernel of kind {kind!r} from JSON")
