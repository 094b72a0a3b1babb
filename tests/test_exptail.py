import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from exdep import exptail
from exdep.errors import DomainError, ParameterError, QuadratureError
from exdep.exptail import GhParams, GigParams, NoiseDistribution
from exdep.special import bessel_k


# -- admissibility ------------------------------------------------------

@pytest.mark.parametrize("lam,tau,psi", [
    (-0.5, 1.0, 1.0), (0.0, 1.0, 1.0),
    (1.0, 0.0, 2.0), (2.0, 1.0, 1.0),
])
def test_admissible_triples(lam, tau, psi):
    GigParams(lam, tau, psi)
    GhParams(lam, tau, psi, 0.0, 0.0)


@pytest.mark.parametrize("lam,tau,psi", [
    (-0.5, 0.0, 1.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0),
    (1.0, 1.0, 0.0), (1.0, -1.0, 1.0), (0.5, 1.0, -2.0),
    (-0.5, 1.0, 0.0), (math.nan, 1.0, 1.0),
])
def test_inadmissible_triples(lam, tau, psi):
    with pytest.raises(ParameterError):
        GigParams(lam, tau, psi)
    with pytest.raises(ParameterError):
        GhParams(lam, tau, psi)


@pytest.mark.parametrize("params", [
    dict(lam=-0.5, tau=1.0, psi=1.0, mu=math.nan), dict(lam=-0.5, tau=1.0, psi=1.0, gamma=math.inf),
    dict(lam=-0.5, tau=1.0, psi=1.0, mu=-math.inf), dict(lam=-0.5, tau=1.0, psi=1.0, gamma=math.nan),
    dict(lam=-0.5, tau=math.inf, psi=1.0), dict(lam=-0.5, tau=1.0, psi=math.inf),
    dict(lam=math.inf, tau=1.0, psi=1.0), dict(lam=1.0, tau=math.nan, psi=1.0),
], ids=["mu-nan", "gamma-inf", "mu-minus-inf", "gamma-nan", "tau-inf", "psi-inf", "lam-inf",
        "tau-nan"])
def test_non_finite_parameters_are_rejected(params):
    # NaN compares false and inf passes every sign rule, so each is checked
    with pytest.raises(ParameterError, match="finite"):
        GhParams(**params)
    if "mu" not in params and "gamma" not in params:
        with pytest.raises(ParameterError, match="finite"):
            GigParams(**params)


# -- densities ----------------------------------------------------------

def quad_full(dist):
    pieces = [dist._support[0], dist._center_scale[0], np.inf]
    total = 0.0
    for a, b in zip(pieces[:-1], pieces[1:]):
        val, _ = integrate.quad(dist.pdf, a, b, epsabs=1e-13, epsrel=1e-12, limit=400)
        total += val
    return total


def test_gig_density_normalizes():
    dist = NoiseDistribution.gig(-0.5, 1.0, 1.0)
    assert quad_full(dist) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("lam,tau,psi", [(-5.0, 1e-6, 1e-6), (-5.0, 1e-8, 1e-8)])
def test_concentrated_gig_quadrature_keeps_its_mass(lam, tau, psi):
    # the law sits near 1e-7 (1e-9); cuts and maps on the scale 1/psi = 1e6
    # (1e8) lost most of its mass without an error
    dist = NoiseDistribution.gig(lam, tau, psi)
    omega = math.sqrt(tau * psi)
    mean = math.sqrt(tau / psi) * special.kv(lam + 1.0, omega) / special.kv(lam, omega)
    assert dist.moment(0) == pytest.approx(1.0, abs=1e-9)
    assert dist.mean() == pytest.approx(mean, rel=1e-9)


def test_gig_quadrature_mass_is_one_or_raises_over_a_grid():
    # 324 laws from concentrated to spread out: none may lose mass silently
    lost = []
    for lam in (-5.0, -2.0, -1.0, -0.5, -0.1, 0.0, 0.3, 1.0, 3.0):
        for tau in (1e-8, 1e-4, 1e-2, 1.0, 1e2, 1e4):
            for psi in (1e-8, 1e-4, 1e-2, 1.0, 1e2, 1e4):
                try:
                    mass = NoiseDistribution.gig(lam, tau, psi).moment(0)
                except QuadratureError:
                    continue
                if not abs(mass - 1.0) <= 1e-9:
                    lost.append((lam, tau, psi, mass))
    assert lost == []


def test_gig_gamma_limit_value():
    # tau = 0 reduces to gamma(shape 1, rate 1) at psi = 2
    dist = NoiseDistribution.gig(1.0, 0.0, 2.0)
    assert dist.pdf(1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)


@pytest.mark.parametrize("lam,tau,psi", [
    (1.0, 0.0, 2.0), (0.3, 0.0, 1.0), (2.5, 0.0, 0.7), (30.0, 0.0, 5.0),
])
def test_boundary_gig_equals_scipy_stats(lam, tau, psi):
    # the gamma law (tau = 0) is written with scipy.special in the form
    # scipy.stats uses, so they agree bit for bit
    dist = NoiseDistribution.gig(lam, tau, psi)
    ref = stats.gamma(a=lam, scale=2.0 / psi)
    x = np.concatenate([np.geomspace(1e-300, 1e300, 601), np.linspace(0.01, 50.0, 500)])
    with np.errstate(all="ignore"):
        assert np.array_equal(dist.logpdf(x), ref.logpdf(x))
    median, scale = dist._center_scale
    assert median == scale == ref.ppf(0.5)


def test_gig_density_against_reference_bessel():
    # independent high-precision evaluation of the closed formula
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    lam, tau, psi, x = -0.5, 1.0, 1.0, 1.0
    k = mpmath.besselk(lam, mpmath.sqrt(tau * psi))
    expected = float(
        (mpmath.mpf(psi) / tau) ** (lam / 2.0) * mpmath.mpf(x) ** (lam - 1)
        / (2 * k) * mpmath.exp(-(tau / x + psi * x) / 2)
    )
    dist = NoiseDistribution.gig(lam, tau, psi)
    assert dist.pdf(x) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("params", [
    GhParams(-0.5, 1.0, 1.0, 0.0, 0.0),
    GhParams(1.0, 1.0, 3.0, -2.0, 1.0),
    GhParams(2.0, 0.0, 1.0, 0.5, 0.0),   # variance gamma
    GhParams(0.3, 0.0, 1.0, 0.0, 0.0),   # variance gamma with a cusp
])
def test_gh_density_normalizes(params):
    dist = NoiseDistribution(params)
    assert quad_full(dist) == pytest.approx(1.0, abs=1e-8)


def test_gh_symmetric_about_mu():
    dist = NoiseDistribution.gh(-0.5, 1.0, 1.0, mu=1.5, gamma=0.0)
    for dx in (0.3, 1.0, 4.0):
        assert dist.pdf(1.5 + dx) == pytest.approx(dist.pdf(1.5 - dx), rel=1e-13)


def test_gh_tail_asymptotics():
    # log f(x) + beta x - (lam - 1) log x stabilizes for large x
    dist = NoiseDistribution.gh(-0.5, 1.0, 1.0)
    vals = [dist.logpdf(x) + 1.0 * x - (-0.5 - 1.0) * math.log(x) for x in (20.0, 40.0, 80.0)]
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0]) < 0.01


float_route_laws = pytest.mark.parametrize("params", [
    GhParams(-0.5, 1.0, 1.0, 0.0, 0.0),
    GhParams(1.0, 1.0, 3.0, -2.0, 1.0),
    GhParams(2.0, 0.0, 1.0, 0.5, 0.0),   # variance gamma, finite at mu
    GhParams(0.3, 0.0, 1.0, 0.0, 0.0),   # variance gamma, cusp at mu
    GigParams(-0.5, 1.0, 1.0),
], ids=["nig", "skewed", "vg", "vg-cusp", "gig"])


def float_route_grid(params):
    """A grid around mu with its edge cases: mu itself, subnormals, huge
    and infinite points."""
    mu = getattr(params, "mu", 0.0)
    return np.concatenate([
        mu + np.linspace(-60.0, 60.0, 241),
        [mu, mu + 1e-300, mu - 1e-300, 5e-324, -1e12, 1e12,
         -1e300, 1e300, -np.inf, np.inf],
    ])


@float_route_laws
def test_logpdf_float_route_matches_array_route(params):
    dist = NoiseDistribution(params)
    xs = float_route_grid(params)
    with np.errstate(all="ignore"):
        array_route = dist.logpdf(xs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the float route raises no numpy warning
        float_route = [dist.logpdf(float(x)) for x in xs]
    assert all(type(v) is float for v in float_route)
    np.testing.assert_array_equal(float_route, array_route)
    np.testing.assert_array_equal([dist.pdf(float(x)) for x in xs], np.exp(array_route))


@pytest.mark.parametrize("dist,lam", [
    (NoiseDistribution.nig(1.0, 1.0), -0.5),
    (NoiseDistribution.gig(-0.5, 1.0, 2.0), -0.5),
])
def test_normalizer_bessel_runs_once_per_distribution(monkeypatch, dist, lam):
    orders = []
    real = exptail.log_bessel_k
    monkeypatch.setattr(exptail, "log_bessel_k",
                        lambda order, x, **kw: orders.append(order) or real(order, x, **kw))
    for t in (0.3, 0.5, 0.3, 0.7):
        dist._exp_weighted_integral(t, -np.inf, np.inf)
    assert orders.count(lam) == 1


def test_gauss_kronrod_rule_degrees():
    # K21 integrates x^d over [-1, 1] exactly up to d = 31, its G10 up to d = 19
    for d in range(32):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert exptail._GK_X ** d @ exptail._GK_W == pytest.approx(exact, abs=1e-15)
        if d < 20:
            assert exptail._GK_X ** d @ exptail._G_W == pytest.approx(exact, abs=1e-15)


def test_quadrature_failure_raises():
    # the tilted density at the tail index decays like y^(lambda - 1): the
    # integral diverges for lambda = 1, and no sum may be returned for it
    dist = NoiseDistribution.gh(1.0, 1.0, 1.0)
    with pytest.raises(QuadratureError, match="missed its tolerance"):
        dist._exp_weighted_integral(dist.tail_index, 0.0, np.inf)


def test_moment_quadrature_failure_raises(monkeypatch):
    # a tolerance of zero cannot be met within 400 subintervals
    monkeypatch.setattr(exptail, "_EPSABS", 0.0)
    monkeypatch.setattr(exptail, "_EPSREL", 0.0)
    with pytest.raises(QuadratureError, match="missed its tolerance within 400 subintervals"):
        NoiseDistribution.nig(1.0, 1.0).moment(2)


@pytest.mark.parametrize("dist,t,lo,hi", [
    (NoiseDistribution.nig(1.0, 1.0), math.nan, -np.inf, np.inf),
    (NoiseDistribution.gig(-0.5, 1.0, 1.0), math.nan, 0.0, 2.0),
    # lambda = -0.01 puts mass beyond the largest float: nodes there are NaN
    (NoiseDistribution.gh(-0.01, 1.0, 1.0), 1.0, 0.0, np.inf),
], ids=["nan-tilt", "nan-tilt-gig", "mass-beyond-floats"])
def test_nan_integrand_raises(dist, t, lo, hi):
    with pytest.raises(QuadratureError, match="nan"):
        dist._exp_weighted_integral(t, lo, hi)


def test_batch_matches_one_integral_at_a_time():
    dist = NoiseDistribution.gh(-0.5, 1.0, 2.0, 0.3, 0.2)
    t = np.array([0.0, 0.4, dist.tail_index, -0.5, 0.2])
    lo = np.array([-np.inf, -1.0, 0.5, -np.inf, 3.0])
    hi = np.array([np.inf, 2.0, np.inf, 0.3, 3.0])
    batch = dist._exp_weighted_integral(t, lo, hi)
    assert batch.shape == (5,) and batch[4] == 0.0
    single = [dist._exp_weighted_integral(*args) for args in zip(t, lo, hi)]
    assert all(type(v) is float for v in single)
    np.testing.assert_allclose(batch, single, rtol=1e-10, atol=1e-12)
    assert batch[0] == pytest.approx(1.0, abs=1e-12)
    assert batch[2] + dist._exp_weighted_integral(dist.tail_index, -np.inf, 0.5) \
        == pytest.approx(dist.mgf(dist.tail_index), rel=1e-10)


def _quadpack_reference(dist, t, lo, hi):
    """exp(t mu) times scipy.integrate.quad of exp(t z) g(z) over
    (lo - mu, hi - mu), g the law moved to mu = 0, cut at 0; None when
    QUADPACK reports that it missed its tolerance or overflows."""
    p = dist.params
    mu = getattr(p, "mu", 0.0)
    centred = NoiseDistribution.gh(p.lam, p.tau, p.psi, 0.0, p.gamma) if mu else dist
    a, b = lo - mu, hi - mu
    cuts = [a, *([0.0] if a < 0.0 < b else []), b]
    total = 0.0
    for x0, x1 in zip(cuts[:-1], cuts[1:]):
        try:
            out = integrate.quad(lambda z: math.exp(t * z + centred.logpdf(z)), x0, x1,
                                 epsabs=1e-13, epsrel=1e-12, limit=1000, full_output=1)
        except OverflowError:  # a node next to the cusp
            return None
        if len(out) > 3:
            return None
        total += out[0]
    return math.exp(t * mu) * total


_BOUNDS = st.sampled_from([(-np.inf, np.inf), (-np.inf, 0.4), (-1.3, np.inf),
                           (-0.7, 2.1), (0.25, np.inf), (-np.inf, -1.5)])


@st.composite
def _tilted_integrals(draw):
    """A GH or GIG law, a tilt and bounds.  The laws include variance gamma
    laws with a cusp at mu (lambda in [0.02, 0.5)), and tilts at the right
    tail index of laws with lambda < 0, where the tilted density decays
    only like y^(lambda - 1)."""
    kind = draw(st.sampled_from(["gh", "vg-cusp", "at-index", "gig"]))
    mu = draw(st.floats(-1.0, 1.0))
    gamma = draw(st.floats(-0.5, 0.5))
    psi = draw(st.floats(0.3, 4.0))
    if kind == "vg-cusp":
        dist = NoiseDistribution.variance_gamma(draw(st.floats(0.02, 0.5, exclude_max=True)),
                                                psi, mu, gamma)
    elif kind == "at-index":
        dist = NoiseDistribution.gh(draw(st.floats(-3.0, -0.2)), draw(st.floats(0.2, 4.0)),
                                    psi, mu, gamma)
        return dist, dist.tail_index, *draw(_BOUNDS)
    elif kind == "gig":  # with tau = 0 a cusp at 0 for lambda < 1
        tau = draw(st.sampled_from([0.0, 1.0]))
        # the mass within 1e-300 of 0 is about 1e-300^lambda: below 1e-15 from 0.05 on
        lam = draw(st.floats(0.05, 3.0) if tau == 0.0 else st.floats(-2.0, 3.0))
        dist = NoiseDistribution.gig(lam, tau, psi)
    else:
        lam = draw(st.floats(-2.0, 3.0))
        dist = NoiseDistribution.gh(lam, draw(st.floats(0.1, 4.0)), psi, mu, gamma)
    left, right = dist._tail_indices
    u = draw(st.floats(-0.9, 0.9))
    # t inside (-left, right); a GIG law, with left = inf, scales both signs by right
    t = u * (right if u >= 0.0 or math.isinf(left) else left)
    return dist, t, *draw(_BOUNDS)


@settings(max_examples=150, deadline=None)
@given(case=_tilted_integrals())
# the total mass of a GIG law that the unscaled half-infinite map got wrong by 3e-10
@example(case=(NoiseDistribution.gig(-0.4283943777619408, 1.0, 0.3037466604224989),
               0.0, -np.inf, np.inf))
def test_exp_weighted_integral_matches_quadpack(case):
    dist, t, lo, hi = case
    reference = _quadpack_reference(dist, t, lo, hi)
    assume(reference is not None)
    value = dist._exp_weighted_integral(t, lo, hi)
    assert abs(value - reference) <= 1e-10 * max(1.0, abs(reference))


def test_exp_weighted_integral_beyond_the_left_tail_index_raises():
    # left = sqrt(1.25) - 0.5 = 0.618, so exp(t y) f(y) grows as y -> -inf at t = -0.809;
    # QUADPACK returns a finite number here without a warning
    dist = NoiseDistribution.gh(0.0, 1.0, 1.0, 0.0, -0.5)
    assert dist.mgf(-0.809) == math.inf
    with pytest.raises(QuadratureError, match="inf"):
        dist._exp_weighted_integral(-0.809, -np.inf, np.inf)


# -- tail index ----------------------------------------------------------

def test_tail_index_values():
    assert NoiseDistribution.gh(1.0, 1.0, 1.0).tail_index == pytest.approx(1.0)
    assert NoiseDistribution.gig(0.0, 1.0, 2.0).tail_index == pytest.approx(1.0)
    assert NoiseDistribution.gh(1.0, 1.0, 3.0, 0.0, 1.0).tail_index == pytest.approx(math.sqrt(4.0) - 1.0)


def test_tail_index_unsupported():
    # psi = 0 gives polynomial tails, with no exponential tail index: no such law is built
    with pytest.raises(ParameterError, match="psi>0"):
        NoiseDistribution.gig(-0.5, 1.0, 0.0)
    with pytest.raises(ParameterError, match="psi>0"):
        NoiseDistribution.gh(-0.5, 1.0, 0.0)


def test_tail_index_matches_survival_slope():
    # slope of -log sf over [20, 80], sf(x) the integral of the density
    # over (x, inf); parameters in the regime where the polynomial
    # correction is below the 2% budget
    grid = [
        NoiseDistribution.gig(1.0, 2.0, 3.0),
        NoiseDistribution.gig(1.0, 0.5, 2.0),
        NoiseDistribution.gh(1.0, 1.0, 1.0),
        NoiseDistribution.gh(1.0, 1.0, 4.0),
        NoiseDistribution.variance_gamma(1.0, 2.25),
    ]
    for dist in grid:
        xs = np.array([20.0, 40.0, 60.0, 80.0])
        vals = np.array([-math.log(dist._exp_weighted_integral(0.0, x, np.inf)) for x in xs])
        slope = np.polyfit(xs, vals, 1)[0]
        assert slope == pytest.approx(dist.tail_index, rel=0.02)


def test_empirical_tail_slope_gh_skewed():
    # skewed case: beta = sqrt(psi + gamma^2) - gamma = sqrt(4) - 1
    dist = NoiseDistribution.gh(1.0, 1.0, 3.0, 0.0, 1.0)
    assert dist.tail_index == pytest.approx(math.sqrt(4.0) - 1.0)
    s = dist.sample(np.random.default_rng(3), 10 ** 7)
    q = np.quantile(s, [1 - 1e-3, 1 - 1e-5])
    slope = (math.log(1e-3) - math.log(1e-5)) / (q[1] - q[0])
    assert slope == pytest.approx(dist.tail_index, rel=0.1)


# -- mgf -----------------------------------------------------------------

def test_mgf_at_zero_is_one():
    assert NoiseDistribution.gig(-0.5, 1.0, 1.0).mgf(0.0) == 1.0
    assert NoiseDistribution.gh(2.0, 1.0, 5.0, 3.0, -1.0).mgf(0.0) == 1.0


def test_mgf_boundary_divergence_depends_on_lambda():
    # at t = beta the integral diverges iff lambda >= 0
    assert NoiseDistribution.gh(1.0, 1.0, 1.0).mgf(1.0) == np.inf
    assert NoiseDistribution.gh(0.0, 1.0, 1.0).mgf(1.0) == np.inf
    assert np.isfinite(NoiseDistribution.gh(-0.5, 1.0, 1.0).mgf(1.0))


def test_mgf_beyond_tail_index_diverges():
    dist = NoiseDistribution.gh(-0.5, 1.0, 1.0)
    assert dist.mgf(1.2) == np.inf
    assert np.isfinite(dist.mgf(0.99))


def test_gig_mgf_matches_closed_form():
    lam, tau, psi, t = -0.5, 1.0, 2.0, 0.5
    dist = NoiseDistribution.gig(lam, tau, psi)
    closed = ((psi / (psi - 2 * t)) ** (lam / 2)
              * bessel_k(lam, math.sqrt(tau * (psi - 2 * t)))
              / bessel_k(lam, math.sqrt(tau * psi)))
    assert dist.mgf(t) == pytest.approx(closed, rel=1e-9)


def test_gh_mgf_matches_mixture_form():
    # M_Z(t) = exp(mu t) M_R(gamma t + t^2/2) with R the GIG mixing law
    lam, tau, psi, mu, gamma, t = -0.5, 2.0, 4.0, 1.0, 0.5, 0.7
    dist = NoiseDistribution.gh(lam, tau, psi, mu, gamma)
    s = gamma * t + t * t / 2.0
    mix = ((psi / (psi - 2 * s)) ** (lam / 2)
           * bessel_k(lam, math.sqrt(tau * (psi - 2 * s)))
           / bessel_k(lam, math.sqrt(tau * psi)))
    assert dist.mgf(t) == pytest.approx(math.exp(mu * t) * mix, rel=1e-8)


def test_nig_mgf_is_exact_up_to_the_tail_index():
    # NIG(-1/2, 1, 1): K_{1/2} is elementary and M(t) = exp(1 - sqrt(1 - t^2))
    dist = NoiseDistribution.nig(1.0, 1.0)
    for t in (-0.7, 0.2, 0.9, 1.0 - 1e-10, 1.0 - 1e-12, 1.0 - 1e-15, 1.0):
        assert dist.mgf(t) == pytest.approx(math.exp(1.0 - math.sqrt(1.0 - t * t)), rel=1e-14)


def test_gh_boundary_mgf_is_the_limit_of_the_closed_form():
    lam, tau, psi, mu, gamma = -1.5, 1.0, 2.0, -1.0, 0.3
    dist = NoiseDistribution.gh(lam, tau, psi, mu, gamma)
    beta = dist.tail_index
    limit = (math.exp(mu * beta) * (tau * psi) ** (lam / 2) * math.gamma(-lam)
             * 2.0 ** (-lam - 1.0) / bessel_k(lam, math.sqrt(tau * psi)))
    assert dist.mgf(beta) == pytest.approx(limit, rel=1e-14)
    assert dist.mgf(beta * (1.0 - 1e-9)) == pytest.approx(limit, rel=1e-8)


@pytest.mark.parametrize("lam,tau,psi", [(-0.025, 0.73, 1.2), (-0.5, 1.0, 0.375),
                                          (-0.2, 4e-3, 1.19e3)])
def test_mgf_at_the_tail_index_is_the_boundary_value(lam, tau, psi):
    # sqrt(psi)^2 is not psi in floats here; that rounding must not reach the
    # Bessel form, whose value near the boundary moves like (tau s)^|lambda|
    dist = NoiseDistribution.gh(lam, tau, psi)
    assert dist.tail_index ** 2 != psi
    limit = ((tau * psi) ** (lam / 2) * math.gamma(-lam) * 2.0 ** (-lam - 1.0)
             / bessel_k(lam, math.sqrt(tau * psi)))
    assert dist.mgf(dist.tail_index) == pytest.approx(limit, rel=1e-13)


def test_boundary_family_mgfs_match_their_mixing_laws():
    # gamma mixing (variance gamma): E[exp(uR)] = (psi/(psi - 2u))^lam
    lam, psi, mu, gamma, t = 1.5, 2.0, 0.5, -0.5, 0.8
    u = gamma * t + t * t / 2.0
    vg = NoiseDistribution.variance_gamma(lam, psi, mu, gamma)
    assert vg.mgf(t) == pytest.approx(math.exp(mu * t) * (psi / (psi - 2 * u)) ** lam, rel=1e-14)
    # a GIG law itself with tau = 0, gamma(lam, rate psi/2), at t = u = 0.5
    assert NoiseDistribution.gig(lam, 0.0, psi).mgf(0.5) == pytest.approx(2.0 ** lam, rel=1e-14)


_BOUNDARY_OFFSETS = st.sampled_from([-1e-9, -2e-12, -1e-13, 0.0, 1e-13, 2e-12, 1e-9])


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(-3.0, 3.0), tau=st.floats(0.0, 5.0), psi=st.floats(0.05, 5.0),
       t=st.floats(-3.0, 3.0), offset=st.one_of(st.none(), _BOUNDARY_OFFSETS))
@example(lam=5e-324, tau=1.0, psi=1.0, t=0.0, offset=-1e-9)  # a subnormal Bessel order
@example(lam=-1.1125369292536007e-308, tau=1.0, psi=2.0, t=0.0, offset=0.0)  # M past float max
def test_gh_mgf_is_the_gig_mgf_at_the_mixing_argument(lam, tau, psi, t, offset):
    # one rule for both families: a symmetric GH law's M(t) is its mixing
    # law's M(t^2/2), bit for bit, inf included, on both sides of psi/2
    assume((lam <= 0.0 and tau > 0.0) or (lam > 0.0 and tau >= 0.0))
    if offset is not None:  # t at a relative offset from the tail index sqrt(psi)
        t = math.copysign(math.sqrt(psi) * (1.0 + offset), t)
    gh = NoiseDistribution.gh(lam, tau, psi).mgf(t)
    assert gh == NoiseDistribution.gig(lam, tau, psi).mgf(0.5 * t * t)


@pytest.mark.parametrize("gamma", [-3.0, -1.0, -0.3, 0.3, 1.0, 3.0])
def test_skewed_gh_mgf_at_the_tail_index_is_the_boundary_value(gamma):
    # psi - 2u cancels at the tail index; (right - t)(left + t) is exact there,
    # and M(beta) is the s -> 0 limit of the Bessel form, K_lambda(z) ~
    # Gamma(-lambda) 2^{-lambda-1} z^lambda
    lam, tau = -0.025, 0.73
    for psi in (0.3, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0):
        dist = NoiseDistribution.gh(lam, tau, psi, 0.0, gamma)
        boundary = ((tau * psi) ** (lam / 2.0) * math.gamma(-lam) * 2.0 ** (-lam - 1.0)
                    / bessel_k(lam, math.sqrt(tau * psi)))
        assert dist.mgf(dist.tail_index) == pytest.approx(boundary, rel=1e-12), psi


def test_mgf_needs_no_quadrature_and_one_bessel_per_call(monkeypatch):
    monkeypatch.setattr(exptail, "_gauss_kronrod", lambda *a, **k: pytest.fail("quadrature"))
    orders = []
    real = exptail.log_bessel_k
    monkeypatch.setattr(exptail, "log_bessel_k",
                        lambda order, x: orders.append(order) or real(order, x))
    for dist in (NoiseDistribution.nig(1.0, 1.0), NoiseDistribution.gig(-0.5, 1.0, 2.0)):
        orders.clear()
        for t in (0.3, 0.5, 0.3, 0.7):
            dist.mgf(t)
        assert orders == [-0.5] * 5  # the normalizer once, then one per call


def test_gh_logpdf_array_overflow_raises_no_warning():
    for dist in (NoiseDistribution.nig(1.0, 1.0), NoiseDistribution.gh(2.0, 1.0, 3.0, 0.0, 1.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # x^2 overflows, but log f(x) = -beta x (1 + O(log x / x)) does not
            assert dist.logpdf(np.array([1e200]))[0] == pytest.approx(-dist.tail_index * 1e200,
                                                                      rel=1e-12)
            assert dist.logpdf(np.array([-1e200, 1e300]))[1] == pytest.approx(
                -dist.tail_index * 1e300, rel=1e-12)
            assert dist.logpdf(np.array([np.inf, -np.inf, 1e308 * 10])).tolist() == [-np.inf] * 3


def test_mgf_log_convex_on_grid():
    dist = NoiseDistribution.nig(1.0, 4.0)
    ts = np.linspace(-1.0, 1.5, 11)
    logm = np.log([dist.mgf(t) for t in ts])
    assert np.all(np.diff(logm, 2) > -1e-9)


# -- sampling --------------------------------------------------------------

def test_sample_empty():
    dist = NoiseDistribution.nig(1.0, 1.0)
    assert dist.sample(np.random.default_rng(0), 0).size == 0


@pytest.mark.parametrize("stream", [7, 7.0, None, np.random.SFC64(7)])
def test_sample_takes_only_a_generator(stream):
    with pytest.raises(ParameterError, match="Generator"):
        NoiseDistribution.nig(1.0, 1.0).sample(stream, 10)


def test_sample_reproducible_single_stream():
    dist = NoiseDistribution.nig(1.0, 1.0)
    a = dist.sample(np.random.default_rng(7), 1000)
    b = dist.sample(np.random.default_rng(7), 1000)
    assert np.array_equal(a, b)


def test_gig_sampler_matches_scipy_distribution():
    lam, tau, psi = -2.0, 0.5, 3.0
    dist = NoiseDistribution.gig(lam, tau, psi)
    s = dist.sample(np.random.default_rng(11), 50_000)
    b = math.sqrt(tau * psi)
    scale = math.sqrt(tau / psi)
    ks = stats.kstest(s, lambda x: stats.geninvgauss.cdf(x, p=lam, b=b, scale=scale))
    assert ks.pvalue > 1e-4


def test_gig_sampler_mode_has_no_cancellation():
    # lambda + sqrt(lambda^2 + tau psi) rounds to 0 here, and its log raised;
    # GIG(-1/2, tau, psi) is the inverse Gaussian law of mean 1 and shape tau
    tau = psi = 1e-10
    s = NoiseDistribution.gig(-0.5, tau, psi).sample(np.random.default_rng(3), 5000)
    ks = stats.kstest(s, stats.invgauss(mu=1.0 / tau, scale=tau).cdf)
    assert ks.pvalue > 1e-4


def test_sampler_moments_match_quadrature():
    dist = NoiseDistribution.gig(-0.5, 1.0, 1.0)
    n = 200_000
    s = dist.sample(np.random.default_rng(42), n)
    mean, var = dist.mean(), dist.variance()
    se_mean = s.std() / math.sqrt(n)
    assert abs(s.mean() - mean) < 4 * se_mean
    se_var = np.sqrt(np.var((s - s.mean()) ** 2) / n)
    assert abs(s.var() - var) < 4 * se_var


@pytest.mark.parametrize("seed,dist", [
    (0, NoiseDistribution.nig(1.0, 1.0)),
    (1, NoiseDistribution.nig(2.0, 2.0, mu=-1.0, gamma=1.0)),
    (2, NoiseDistribution.nig(0.5, 3.0, mu=0.4, gamma=-0.6)),
])
def test_nig_sampler_moments_match_quadrature(seed, dist):
    # NIG mixing values are Wald draws; the z bound of criterion 11
    n = 10 ** 6
    s = dist.sample(np.random.default_rng(seed), n)
    mean, var = dist.mean(), dist.variance()
    z_mean = abs(s.mean() - mean) / (s.std() / math.sqrt(n))
    z_var = abs(s.var() - var) / math.sqrt(np.var((s - s.mean()) ** 2) / n)
    assert z_mean < 4.0 and z_var < 4.0, (z_mean, z_var)


def test_nig_mixing_values_are_wald_draws():
    dist = NoiseDistribution.gig(-0.5, 2.0, 0.5)
    mixing = dist.draw_mixing(np.random.default_rng(4), (3, 5))
    wald = np.random.default_rng(4).wald(2.0, 2.0, (3, 5))  # mean sqrt(tau/psi), shape tau
    assert np.array_equal(mixing, wald)
    assert np.array_equal(dist.sample(np.random.default_rng(4), 15), wald.ravel())


def test_gh_sample_skewness_zero_when_symmetric():
    dist = NoiseDistribution.gh(-0.5, 1.0, 1.0)
    s = dist.sample(np.random.default_rng(1), 10 ** 6)
    se = math.sqrt(6.0 / s.size)  # rough; actual tails widen this
    assert abs(stats.skew(s)) < 4 * se * 5


def test_survival_ratio_matches_exponential_tail():
    # defining property of an exponential tail: sf(x + t)/sf(x) -> exp(-t*beta),
    # approached at the rate of the x^{lam-1} prefactor, |lam-1| * t / x
    dist = NoiseDistribution.gh(-0.5, 1.0, 1.0)
    beta = dist.tail_index

    def sf(x):
        return dist._exp_weighted_integral(0.0, x, np.inf)

    for t in (0.5, 1.0, 2.0):
        ratios = [sf(x + t) / sf(x) for x in (30.0, 60.0)]
        for x, r in zip((30.0, 60.0), ratios):
            envelope = 2.0 * 1.5 * t / x
            assert abs(r / math.exp(-t * beta) - 1.0) < envelope
        assert abs(ratios[1] - math.exp(-t * beta)) <= abs(ratios[0] - math.exp(-t * beta))
