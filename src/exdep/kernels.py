"""Moving-average kernels and their limiting residual tail dependence.

Two families are built in: the Whittle-Matern Green's function of
(kappa^2 - Laplace)^{alpha/2} on R^2,

    G(h) = 2^{1-nu} / (4 pi Gamma(alpha/2) kappa^{2 nu})
           * (kappa h)^{nu} K_{nu}(kappa h),     nu = (alpha - 2) / 2,

which is finite at zero iff alpha > 2, and the one-sided exponential
kernel exp(-a h) of the Ornstein-Uhlenbeck construction.  At the
integer alpha = 2..6, x^nu K_nu(x) takes a closed form through K_0 and
K_1 or exp; any other alpha takes scipy's ``kv``.  Every kernel formula
and parameter rule of the package lives here; the coefficient builders
of :mod:`exdep.mesh` evaluate :class:`Kernel` values.  The
limiting residual-tail-dependence functions are

    symmetric (two-sided) domains, convex G:   1/2 + G(h) / (2 G(0)),
    one-sided domains:                         1 / (2 - G(h) / G(0)),

with the non-convex two-sided case covered by the (unproven) conjecture
max{1/2 + G(h)/(2 G(0)), G(h/2)/G(0)}.  An infinite G(0) is carried as an
explicit flag so the constant-1/2 branch is exact, never a float overflow.
"""

import math

import numpy as np

from .errors import DomainError, ParameterError, PreconditionError

__all__ = [
    "Kernel",
    "matern_green",
    "matern_kernel",
    "exponential_kernel",
    "limit_eta_symmetric",
    "limit_eta_conjecture",
    "limit_eta_onesided",
    "ou_eta",
    "gaussian_ou_eta",
]


class Kernel:
    """An evaluable non-negative, strictly decreasing kernel G.

    ``value_at_zero`` may be ``math.inf``; ``convex`` records whether G is
    convex on (0, inf), which selects between the proven and conjectured
    limiting eta functions.
    """

    def __init__(self, func, value_at_zero, convex):
        self._func = func
        self.value_at_zero = value_at_zero
        self.convex = convex

    def __call__(self, h):
        h = np.asarray(h, dtype=float)
        if np.any(h < 0.0):
            raise DomainError("kernel distances must be non-negative")
        out = self._func(h)
        return out if np.ndim(out) else float(out)

    def __repr__(self):
        return f"Kernel(G(0)={self.value_at_zero}, convex={self.convex})"


def _check_kappa(kappa):
    if not 0.0 < kappa < math.inf:
        raise ParameterError(f"kappa must be positive and finite, got {kappa!r}")


def matern_green(kappa, alpha, h):
    """Green's function of (kappa^2 - Laplace)^{alpha/2} on R^2 at lag h.

    Requires alpha >= 2 (smoothness nu = (alpha - 2)/2 >= 0).  At h = 0
    the value is the finite small-argument limit for alpha > 2 and
    ``inf`` for alpha = 2.  At alpha = 2..6 the Bessel factor takes a
    closed form (:func:`_times_x_nu_k_nu`), within 4e-15 relative of the
    ``kv`` form; any other alpha takes ``kv``.
    """
    from scipy import special as _sp  # scipy loads only where G is evaluated

    _check_kappa(kappa)
    nu = (alpha - 2) / 2.0
    if nu < 0.0:
        raise ParameterError(f"alpha must be at least 2 in two dimensions, got {alpha!r}")
    h = np.asarray(h, dtype=float)
    if np.any(h < 0.0):
        raise DomainError("h must be non-negative")
    const = 2.0 ** (1.0 - nu) / (4.0 * math.pi * _sp.gamma(alpha / 2.0) * kappa ** (2.0 * nu))
    out = np.empty(h.shape)
    zero = h == 0.0
    if nu == 0.0:
        out[zero] = np.inf
    else:
        # x^nu K_nu(x) -> 2^{nu-1} Gamma(nu) as x -> 0
        out[zero] = const * 2.0 ** (nu - 1.0) * _sp.gamma(nu)
    out[~zero] = _times_x_nu_k_nu(const, nu, kappa * h[~zero])
    return out if out.ndim else float(out)


def _times_x_nu_k_nu(c, nu, x):
    """c x^nu K_nu(x) at positive x.  The orders nu = 0, 1/2, 1, 3/2, 2 of
    alpha = 2..6 take closed forms: K_0 and K_1 from scipy's ``k0`` and
    ``k1``, K_{1/2}(x) = sqrt(pi / (2x)) exp(-x) (DLMF 10.39.2), and K_{3/2}
    and K_2 from the recurrence K_{nu+1} = K_{nu-1} + (2 nu / x) K_nu (DLMF
    10.29.1).  Any other order, non-integer alpha, takes ``kv``."""
    from scipy import special as _sp

    if nu == 0.0:
        return c * _sp.k0(x)
    if nu == 0.5:
        return c * math.sqrt(math.pi / 2.0) * np.exp(-x)
    if nu == 1.0:
        return c * x * _sp.k1(x)
    if nu == 1.5:
        return c * math.sqrt(math.pi / 2.0) * (1.0 + x) * np.exp(-x)
    if nu == 2.0:
        return c * x * (x * _sp.k0(x) + 2.0 * _sp.k1(x))
    return c * x ** nu * _sp.kv(nu, x)


def matern_kernel(kappa, alpha):
    """:func:`matern_green` as a :class:`Kernel` value, which checks its
    parameters.  It is convex iff alpha <= 3, the known threshold in two
    dimensions."""
    return Kernel(
        func=lambda h: matern_green(kappa, alpha, h),
        value_at_zero=matern_green(kappa, alpha, 0.0),
        convex=alpha <= 3.0,
    )


def exponential_kernel(a):
    """The one-sided exponential kernel exp(-a h) of the OU process."""
    if not 0.0 < a < math.inf:
        raise ParameterError(f"a must be positive and finite, got {a!r}")
    return Kernel(func=lambda h: np.exp(-a * h), value_at_zero=1.0, convex=True)


# ----------------------------------------------------------------------
# Limiting residual tail dependence functions
# ----------------------------------------------------------------------

def _two_sided_limit(kernel, h):
    """1/2 + G(h)/(2 G(0)) elementwise over an array h: the constant 1/2
    when G(0) is infinite, and 1 at h = 0."""
    h = np.asarray(h, dtype=float)
    g0 = kernel.value_at_zero
    out = np.full(h.shape, 0.5) if math.isinf(g0) else 0.5 + kernel(h) / (2.0 * g0)
    return np.where(h == 0.0, 1.0, out)


def limit_eta_symmetric(kernel, h):
    """Mesh-refinement limit of eta(h) for two-sided integral approximations
    with a convex kernel: 1/2 + G(h)/(2 G(0)), collapsing to the constant
    1/2 when G(0) is infinite."""
    if not kernel.convex:
        raise PreconditionError(
            "kernel is not convex; use limit_eta_conjecture for the unproven case")
    return float(_two_sided_limit(kernel, float(h)))


def limit_eta_conjecture(kernel, h):
    """Conjectured limit for non-convex kernels:
    max{1/2 + G(h)/(2 G(0)), G(h/2)/G(0)}, elementwise over an array h.

    Unproven; downstream outputs label values from this function as
    CONJECTURE.  For convex kernels it coincides with the proven limit.
    """
    out = _two_sided_limit(kernel, h)
    if math.isfinite(kernel.value_at_zero):  # G(h/2)/G(0) is 1 at h = 0
        out = np.maximum(out, kernel(np.divide(h, 2.0)) / kernel.value_at_zero)
    return out if out.ndim else float(out)


def limit_eta_onesided(kernel, h):
    """Mesh-refinement limit of eta(h) for one-sided approximations:
    1 / (2 - G(h)/G(0)), elementwise over an array h (1 at h = 0).
    Requires a finite G(0)."""
    if math.isinf(kernel.value_at_zero):
        raise PreconditionError("one-sided limit requires finite G(0)")
    h = np.asarray(h, dtype=float)
    out = np.where(h == 0.0, 1.0, 1.0 / (2.0 - kernel(h) / kernel.value_at_zero))
    return out if out.ndim else float(out)


def ou_eta(a, h):
    """Residual tail dependence of the exponential-tailed OU process at lag h
    (a float or an array), the one-sided limit of the exponential kernel."""
    return limit_eta_onesided(exponential_kernel(a), h)


def gaussian_ou_eta(a, h):
    """Residual tail dependence of the Gaussian OU process with the same
    correlation function."""
    return (1.0 + exponential_kernel(a)(h)) / 2.0

