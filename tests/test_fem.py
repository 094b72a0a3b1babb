import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, stats
from scipy.sparse import linalg as spla

from exdep.cli import random_sites
from exdep.errors import NonnegativityError, ParameterError, SolveError
from exdep.fem import (BACKWARD_TOL, MAX_RATIO, RATIONAL_TOL, FemSystem, TypeGNoise,
                       basis_matrix, dual_cell_areas, fem_assemble,
                       fem_coefficients, inverse_sqrt_quadrature, simulate_field)
from exdep.kernels import matern_kernel
from exdep.lintrans import (CoefficientMatrix, Regime, classify,
                            eta_closed_form, eta_pairs)
from exdep.mesh import Mesh2D, lattice_mesh_2d, integral_coefficients
from exdep.exptail import NoiseDistribution, substreams


def unit_triangle():
    return Mesh2D([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])


def test_element_mass_matrix_exact():
    sys1 = fem_assemble(unit_triangle(), 1.0, 2, lumped=False, boundary="neumann")
    m = sys1.mass.toarray()
    area = 0.5
    assert np.allclose(np.diag(m), area / 6.0)
    off = m[~np.eye(3, dtype=bool)]
    assert np.allclose(off, area / 12.0)


def test_stiffness_rows_sum_to_zero():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 6, 0)
    system = fem_assemble(mesh, 2.0, 2)
    assert np.abs(np.asarray(system.stiffness.sum(axis=1))).max() < 1e-12


def test_k2_neumann_is_mass_plus_stiffness_and_spd():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 5, 0)
    system = fem_assemble(mesh, 2.0, 2, lumped=False, boundary="neumann")
    k = system.k_alpha.toarray()
    expected = 4.0 * system.mass.toarray() + system.stiffness.toarray()
    assert np.allclose(k, expected, atol=1e-14)
    eigvals = np.linalg.eigvalsh(k)
    assert eigvals.min() > 0
    assert np.allclose(k, k.T)


def test_k_alpha_polynomial_solve_round_trip():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 5, 0)
    for alpha in (2, 4, 6):
        system = fem_assemble(mesh, 2.0, alpha)
        rhs = np.arange(float(mesh.n_nodes)) + 1.0
        x = system.solve_k_alpha(rhs)
        assert np.allclose(system.k_alpha @ x, rhs, rtol=1e-9, atol=1e-9)
        assert system.backward_error(x, rhs) < 1e-14


def spectral_solve(system, rhs):
    """Dense oracle K_alpha^{-1} rhs = C^{-1/2} Q diag(l^{-alpha/2}) Q^T C^{-1/2} rhs,
    from the eigendecomposition Q diag(l) Q^T of S = C^{-1/2} K_2 C^{-1/2}."""
    root = np.sqrt(system.mass_lumped)[:, None]
    eigvals, q = np.linalg.eigh(system.base.toarray() / root / root.T)
    return q @ (eigvals[:, None] ** (-system.alpha / 2.0) * (q.T @ (rhs / root))) / root


def test_k_alpha_spectral_matches_polynomial():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    system = fem_assemble(mesh, 2.0, 4)
    rhs = np.random.default_rng(0).random((mesh.n_nodes, 2))
    x_poly = system.solve_k_alpha(rhs)
    x_spec = spectral_solve(system, rhs)
    assert np.allclose(x_poly, x_spec, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("side,rings", [(8, 1), (25, 2), (40, 6)])
def test_rational_odd_alpha_solve_matches_spectral_oracle(side, rings):
    mesh = lattice_mesh_2d((0, 0, 1, 1), side, rings)
    base = fem_assemble(mesh, 2.0, 2)
    phi = basis_matrix(mesh, random_sites(np.random.default_rng(side), 12)).toarray().T
    for alpha in (3, 5):
        system = base.with_alpha(alpha)
        x = system.solve_k_alpha(phi)
        ref = spectral_solve(system, phi)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    assert base.quadrature.error <= RATIONAL_TOL / 2


@pytest.mark.parametrize("side,rings", [(8, 1), (25, 2)])
def test_apply_k_alpha_inverts_solve_k_alpha(side, rings):
    mesh = lattice_mesh_2d((0, 0, 1, 1), side, rings)
    base = fem_assemble(mesh, 2.0, 2)
    rhs = np.random.default_rng(3).random((mesh.n_nodes, 3))
    for alpha in (2, 3, 4, 5, 6):
        system = base.with_alpha(alpha)
        x = system.solve_k_alpha(rhs)
        assert system.backward_error(x, rhs) < 1e-14
        if side == 8:
            assert np.abs(system.apply_k_alpha(x) - rhs).max() < 1e-10 * rhs.max()
        assert np.allclose(system.solve_k_alpha(rhs[:, 0]), x[:, 0], rtol=1e-13, atol=0)


@pytest.mark.parametrize("kappa,rtol", [(2.0, 1e-12), (0.05, 1e-12), (1e-4, 1e-10)])
def test_odd_alpha_solve_twice_is_the_even_solve(kappa, rtol):
    # K_6^{-1} = K_3^{-1} C K_3^{-1}: two rational solves against K_2 solves alone
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    base = fem_assemble(mesh, kappa, 2)
    rhs = np.random.default_rng(4).random((mesh.n_nodes, 2))
    three = base.with_alpha(3)
    twice = three.solve_k_alpha(base.mass_matrix @ three.solve_k_alpha(rhs))
    ref = base.with_alpha(6).solve_k_alpha(rhs)
    # at kappa 1e-4 S has condition 1.5e6 and K_6 its cube
    assert np.abs(twice - ref).max() <= rtol * np.abs(ref).max()


@settings(max_examples=60, deadline=None)
@given(kappa=st.floats(0.01, 10.0), lift=st.floats(0.0, 2.0), span=st.floats(0.0, 8.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_inverse_sqrt_quadrature_bound_holds(kappa, lift, span, seed):
    lower = kappa ** 2 * 10.0 ** lift
    upper = lower * 10.0 ** span
    quad = inverse_sqrt_quadrature(lower, upper)
    assert quad.error <= RATIONAL_TOL / 2
    assert np.all(quad.shifts > 0) and np.all(quad.weights > 0)
    lam = np.concatenate([[lower, upper], lower * (upper / lower) **
                          np.random.default_rng(seed).random(256)])
    approx = np.sqrt(lam) * (quad.weights / (lam[:, None] + quad.shifts)).sum(axis=1)
    assert np.abs(approx - 1.0).max() <= RATIONAL_TOL


def test_inverse_sqrt_quadrature_rejects_bad_bounds():
    for lower, upper in [(0.0, 1.0), (2.0, 1.0), (1.0, np.inf), (-1.0, 1.0), (1.0, 1e16),
                         (np.nan, 1.0), (1.0, 1.01 * MAX_RATIO)]:
        with pytest.raises(ParameterError):
            inverse_sqrt_quadrature(lower, upper)


def test_spectrum_bounds_enclose_the_spectrum():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    for lumped, boundary, kappa in [(True, "robin", 2.0), (False, "robin", 2.0),
                                    (True, "robin", 1e-4), (True, "neumann", 2.0),
                                    (True, "neumann", 1e-4)]:
        system = fem_assemble(mesh, kappa, 2, lumped=lumped, boundary=boundary)
        eigvals = linalg.eigh(system.base.toarray(), system.mass_matrix.toarray(),
                              eigvals_only=True)
        lower, upper = system.spectrum_bounds
        # Neumann: kappa^2 is the exact minimum, which eigh finds to rounding
        assert lower <= eigvals.min() * (1.0 + 1e-12) and eigvals.max() <= upper
        if lumped:  # the inverse-iteration bound is tight to its 1% margin
            assert lower >= 0.98 * eigvals.min()
    # Robin: the smallest eigenvalue is of order kappa, far above kappa^2
    assert fem_assemble(mesh, 1e-4, 2).spectrum_bounds[0] > 1e4 * 1e-4 ** 2


def test_inverse_iteration_bound_needs_an_m_matrix():
    # a fan of obtuse triangles gives K_2 positive off-diagonal entries
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.1], [0.5, -0.1]])
    mesh = Mesh2D(nodes, np.array([[0, 1, 2], [0, 3, 1]]))
    system = fem_assemble(mesh, 1e-3, 2)
    assert system._inverse_iteration_bound() == 0.0
    assert system.spectrum_bounds[0] == 1e-3 ** 2


def test_small_kappa_odd_alpha_solve_matches_spectral_oracle():
    # kappa^2 alone would put the spectrum ratio at 5e8, past MAX_RATIO
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    base = fem_assemble(mesh, 1e-3, 2)
    lower, upper = base.spectrum_bounds
    assert upper > MAX_RATIO * 1e-3 ** 2 and upper < 1e-2 * MAX_RATIO * lower
    phi = basis_matrix(mesh, random_sites(np.random.default_rng(5), 4)).toarray().T
    # S has condition 2e5 here: the dense oracle is itself 2e-12 of the max
    # away from the alpha-2 LU solve, hence the wider tolerance
    for alpha in (3, 5):
        system = base.with_alpha(alpha)
        ref = spectral_solve(system, phi)
        assert np.abs(system.solve_k_alpha(phi) - ref).max() <= 1e-11 * np.abs(ref).max()


def test_too_small_kappa_for_odd_alpha_is_a_parameter_error():
    # with Neumann ends the smallest eigenvalue of S is kappa^2 itself
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    system = fem_assemble(mesh, 1e-4, 3, boundary="neumann")
    with pytest.raises(ParameterError, match="too small for odd alpha"):
        system.solve_k_alpha(np.ones(mesh.n_nodes))
    rhs = np.ones(mesh.n_nodes)  # even exponents need no quadrature
    x = system.with_alpha(2).solve_k_alpha(rhs)
    assert system.with_alpha(2).backward_error(x, rhs) < 1e-14


def test_odd_alpha_solve_residual():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    system = fem_assemble(mesh, 2.0, 3)
    rhs = np.random.default_rng(1).random(mesh.n_nodes)
    assert system.backward_error(system.solve_k_alpha(rhs), rhs) < 1e-14
    with pytest.raises(ParameterError):
        fem_assemble(mesh, 2.0, 3, lumped=False)
    with pytest.raises(ParameterError):
        fem_assemble(mesh, 2.0, 7)


def test_non_integer_alpha_rejected():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 5, 0)
    with pytest.raises(ParameterError):
        fem_assemble(mesh, 2.0, 2.5)
    assert fem_assemble(mesh, 2.0, 4.0).alpha == 4


def test_consistent_mass_k4_has_no_explicit_matrix():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 5, 0)
    system = fem_assemble(mesh, 2.0, 4, lumped=False)
    with pytest.raises(ParameterError):
        system.k_alpha
    rhs = np.ones(mesh.n_nodes)
    assert system.backward_error(system.solve_k_alpha(rhs), rhs) < 1e-14


def test_fem_coefficients_argmax_at_site_node():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 20, 2)
    system = fem_assemble(mesh, 2.0, 2)
    node = 250
    matrix = fem_coefficients(system, [mesh.nodes[node], [0.9, 0.33]])
    assert matrix.argmax_sets[0] == frozenset({node})


def test_fem_coefficient_scale_invariance():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 12, 1)
    system = fem_assemble(mesh, 2.0, 2)
    sites = [[0.31, 0.52], [0.7, 0.44]]
    matrix = fem_coefficients(system, sites)
    scaled = CoefficientMatrix(matrix.entries * np.array([[3.0], [0.5]]))
    assert classify(scaled).regime is classify(matrix).regime
    assert eta_closed_form(scaled) == pytest.approx(eta_closed_form(matrix), abs=1e-13)


def test_fem_vs_integral_eta_close_on_fine_mesh():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 20, 2)
    system = fem_assemble(mesh, 2.0, 2)
    kern = matern_kernel(2.0, 2.0, 2)
    sites = np.array([[0.28, 0.51], [0.73, 0.49]])
    e_fem = eta_closed_form(fem_coefficients(system, sites))
    e_int = eta_closed_form(integral_coefficients(kern, sites, mesh))
    assert abs(e_fem - e_int) < 0.05


def eta_by_all_terms(b1, b2):
    """The closed form over every column pair and column, as the
    ``lintrans`` docstring writes it, on normalized rows."""
    diff = np.abs(b2 - b1)
    det = np.abs(b2[:, None] * b1[None, :] - b1[:, None] * b2[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        pair = np.where(det > 0.0, (diff[:, None] + diff[None, :]) / det, np.inf)
        single = np.where(np.minimum(b1, b2) > 0.0, np.maximum(1.0 / b1, 1.0 / b2), np.inf)
    np.fill_diagonal(pair, np.inf)
    return min(1.0, 1.0 / min(pair.min(), single.min()))


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0, 5.0])
def test_eta_pairs_on_matern_rows_equals_all_terms(alpha):
    # real integral and FEM rows pin the front and the stop of the walk,
    # whatever the machine: each pair is compared bit for bit
    mesh = lattice_mesh_2d((0, 0, 1, 1), 6, 1)
    sites = random_sites(np.random.default_rng(3), 6)
    pairs = [(i, j) for i in range(6) for j in range(6) if i != j]
    kern = matern_kernel(2.0, alpha, 2)
    system = fem_assemble(mesh, 2.0, 2).with_alpha(alpha)
    for matrix in (integral_coefficients(kern, sites, mesh), fem_coefficients(system, sites)):
        rows = matrix.normalized
        for (i, j), eta in zip(pairs, eta_pairs(rows, pairs).tolist()):
            m = CoefficientMatrix(rows[[i, j]])
            if classify(m).regime is Regime.ASYMPTOTIC_INDEPENDENCE:
                assert eta == eta_by_all_terms(*m.normalized)
            else:
                assert eta == 1.0


def test_dual_cell_areas_partition_the_mesh():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 9, 2)
    areas = dual_cell_areas(mesh)
    assert areas.sum() == pytest.approx(mesh.total_area(), rel=1e-12)
    assert np.all(areas > 0)
    # dual areas equal the lumped mass rows (integral of each hat)
    system = fem_assemble(mesh, 1.0, 2)
    assert np.allclose(areas, system.mass_lumped, atol=1e-14)


def test_basis_matrix_rows_are_barycentric():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 6, 0)
    phi = basis_matrix(mesh, [[0.37, 0.21]])
    row = phi.toarray()[0]
    assert row.sum() == pytest.approx(1.0)
    assert np.count_nonzero(row) <= 3


def test_typeg_noise_validation():
    with pytest.raises(ParameterError):
        TypeGNoise("cauchy", 0.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        TypeGNoise("nig", 0.0, 0.0, psi=1.0, tau=0.0)


def test_typeg_mixing_scales_linearly_in_area():
    noise = TypeGNoise("nig", mu=-1.0, gamma=1.0, psi=1.0, tau=1.0)
    rng = np.random.default_rng(0)
    areas = np.array([0.5, 2.0])
    v = noise.draw_mixing(rng, areas, 200_000)
    # inverse Gaussian mean is delta/gamma_ig = area * sqrt(tau/psi)
    assert v.mean(axis=0) == pytest.approx(areas, rel=0.02)
    vg = TypeGNoise("variance_gamma", mu=0.0, gamma=0.0, psi=2.0, lam=1.5)
    w = vg.draw_mixing(rng, areas, 200_000)
    assert w.mean(axis=0) == pytest.approx(1.5 * areas * 2.0 / 2.0, rel=0.02)


def test_simulate_field_empty():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 5, 0)
    system = fem_assemble(mesh, 2.0, 2)
    noise = TypeGNoise("nig", mu=-1.0, gamma=1.0, psi=1.0, tau=1.0)
    out = simulate_field(system, [[0.5, 0.5]], noise, 0, 0)
    assert out.shape == (0, 1)


def test_simulate_field_deterministic_per_seed():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 6, 1)
    system = fem_assemble(mesh, 2.0, 2)
    noise = TypeGNoise("nig", mu=-1.0, gamma=1.0, psi=1.0, tau=1.0)
    a = simulate_field(system, [[0.4, 0.6]], noise, 500, 42)
    b = simulate_field(system, [[0.4, 0.6]], noise, 500, 42)
    assert np.array_equal(a, b)


def test_constant_mixing_hook_matches_gaussian_covariance():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 10, 1)
    system = fem_assemble(mesh, 2.0, 2)
    noise = TypeGNoise("nig", mu=-1.0, gamma=1.0, psi=1.0, tau=1.0)
    sites = np.array([[0.35, 0.5], [0.6, 0.5]])
    x = simulate_field(system, sites, noise, 60_000, 7, constant_mixing=1.0)
    phi = basis_matrix(mesh, sites).toarray()
    rows = system.solve_k_alpha(phi.T).T
    cov = rows @ rows.T  # K^{-1} diag(1) K^{-1} between the two sites
    emp = np.cov(x.T)
    se = cov[0, 1] * math.sqrt(2.0 / x.shape[0]) * 4
    assert emp[0, 1] == pytest.approx(cov[0, 1], abs=6 * abs(se) + 0.05 * abs(cov[0, 1]))
    assert emp[0, 0] == pytest.approx(cov[0, 0], rel=0.08)


def test_simulate_field_nig_skewed_marginals():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 10, 1)
    system = fem_assemble(mesh, 2.0, 2)
    noise = TypeGNoise("nig", mu=-1.0, gamma=1.0, psi=1.0, tau=1.0)
    x = simulate_field(system, [[0.4, 0.5], [0.62, 0.5]], noise, 100_000, 3)
    skew = stats.skew(x, axis=0)
    assert np.all(skew > 0.2)  # clearly non-Gaussian


def _per_batch_reference(system, sites, noise, sizes, streams):
    """The field as one K_alpha solve per batch, mapped to the sites by phi."""
    phi = basis_matrix(system.mesh, sites)
    areas = dual_cell_areas(system.mesh)
    chunks = []
    for size, stream in zip(sizes, streams):
        v = noise.draw_mixing(stream, areas, size)
        z = stream.standard_normal((size, areas.size))
        rhs = noise.mu * areas[None, :] + noise.gamma * v + np.sqrt(v) * z
        chunks.append((phi @ system.solve_k_alpha(rhs.T)).T)
    return np.vstack(chunks)


@pytest.mark.parametrize("alpha", [2, 3, 4])
def test_simulate_field_matches_per_batch_solve(alpha):
    mesh = lattice_mesh_2d((0, 0, 1, 1), 6, 1)
    system = fem_assemble(mesh, 2.0, alpha)
    noise = TypeGNoise("nig", mu=-1.0, gamma=1.0, psi=1.0, tau=1.0)
    sites = [[0.3, 0.4], [0.7, 0.55], [0.5, 0.5]]
    sizes = [256, 256, 256, 232]
    x = simulate_field(system, sites, noise, 1000, 11, batch=256)
    ref = _per_batch_reference(system, sites, noise, sizes, substreams(11, 4))
    assert x.shape == (1000, 3)
    np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    # a Generator is one sequential stream over the same batches
    x = simulate_field(system, sites, noise, 1000, np.random.default_rng(11), batch=256)
    ref = _per_batch_reference(system, sites, noise, sizes,
                               [np.random.default_rng(11)] * 4)
    np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_simulate_field_threads_do_not_change_draws():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 6, 1)
    system = fem_assemble(mesh, 2.0, 2)
    noise = TypeGNoise("nig", mu=-1.0, gamma=1.0, psi=1.0, tau=1.0)
    sites = [[0.3, 0.4], [0.7, 0.55]]
    one = simulate_field(system, sites, noise, 5000, 8, batch=512, threads=1)
    two = simulate_field(system, sites, noise, 5000, 8, batch=512, threads=2)
    assert np.array_equal(one, two)


def test_simulate_field_checks_site_weight_residual(monkeypatch):
    mesh = lattice_mesh_2d((0, 0, 1, 1), 6, 1)
    system = fem_assemble(mesh, 2.0, 2)
    noise = TypeGNoise("nig", mu=-1.0, gamma=1.0, psi=1.0, tau=1.0)
    real = FemSystem._factor  # K_2 solves off by a relative 1e-6
    monkeypatch.setattr(FemSystem, "_factor", lambda self: SimpleNamespace(
        solve=lambda rhs, lu=real(self): lu.solve(rhs) * (1.0 + 1e-6)))
    with pytest.raises(SolveError):
        simulate_field(system, [[0.4, 0.6]], noise, 100, 1)


def test_with_alpha_shares_the_k2_factorizations(monkeypatch):
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    calls = []
    real_splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda a, **kw: calls.append(1) or real_splu(a, **kw))
    for module in (np.linalg, linalg):
        monkeypatch.setattr(module, "eigh", lambda *a, **k: pytest.fail("dense eigh called"))
    base = fem_assemble(mesh, 2.0, 2)
    n_shifts = len(base.quadrature.shifts)
    rhs = np.linspace(0.5, 1.5, mesh.n_nodes)
    for alpha in (3, 5, 2, 4):
        view = base.with_alpha(alpha)
        assert view.alpha == alpha and base.alpha == 2
        fresh = fem_assemble(mesh, 2.0, alpha)
        assert np.array_equal(view.solve_k_alpha(rhs), fresh.solve_k_alpha(rhs))
    # the views factor K_2 and its shifts once; each fresh system its own
    assert len(calls) == (1 + n_shifts) + 2 * (1 + n_shifts) + 2 * 1
    with pytest.raises(ParameterError):
        base.with_alpha(2.5)
    with pytest.raises(ParameterError):
        fem_assemble(mesh, 2.0, 2, lumped=False).with_alpha(3)


def test_odd_alpha_has_no_explicit_k_alpha():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 5, 0)
    with pytest.raises(ParameterError):
        fem_assemble(mesh, 2.0, 3).k_alpha


def test_fem_coefficients_checks_backward_error(monkeypatch):
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    sites = [[0.4, 0.6], [0.3, 0.35]]
    for alpha in (2, 3, 4, 5):
        system = fem_assemble(mesh, 2.0, alpha)
        phi = basis_matrix(mesh, sites).toarray().T
        assert system.backward_error(system.solve_k_alpha(phi), phi) < 1e-14
    real = FemSystem._factor  # K_2 solves off by a relative 1e-6
    monkeypatch.setattr(FemSystem, "_factor", lambda self: SimpleNamespace(
        solve=lambda rhs, lu=real(self): lu.solve(rhs) * (1.0 + 1e-6)))
    for alpha in (2, 3):
        system = fem_assemble(mesh, 2.0, alpha)
        with pytest.raises(SolveError, match="backward error"):
            fem_coefficients(system, sites)
    assert BACKWARD_TOL == 1e-12


def test_backward_error_of_a_zero_solution_is_infinite():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 5, 0)
    system = fem_assemble(mesh, 2.0, 3)
    rhs = np.zeros((mesh.n_nodes, 2))
    rhs[3, 1] = 1.0
    assert system.backward_error(np.zeros_like(rhs), rhs) == np.inf
    assert system.backward_error(np.zeros(mesh.n_nodes), np.zeros(mesh.n_nodes)) == 0.0


def test_nan_solution_fails_the_backward_error_check(monkeypatch):
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    system = fem_assemble(mesh, 2.0, 2)
    rhs = np.ones((mesh.n_nodes, 2))
    x = system.solve_k_alpha(rhs)
    x[5, 1] = np.nan
    assert np.isnan(system.backward_error(x, rhs))
    real = FemSystem._factor  # K_2 solves that put NaN in one entry

    def nan_solve(rhs, lu):
        out = lu.solve(rhs)
        out.flat[7] = np.nan
        return out

    monkeypatch.setattr(FemSystem, "_factor", lambda self: SimpleNamespace(
        solve=lambda rhs, lu=real(self): nan_solve(rhs, lu)))
    for alpha in (2, 3):
        with pytest.raises(SolveError, match="backward error nan"):
            fem_coefficients(fem_assemble(mesh, 2.0, alpha), [[0.4, 0.6], [0.3, 0.35]])


def test_fem_coefficients_rejects_a_nan_row(monkeypatch):
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 0)
    system = fem_assemble(mesh, 2.0, 2)
    real_solve = system.solve_k_alpha

    def nan_solve(rhs):
        out = real_solve(rhs)
        out[3, 0] = np.nan
        return out

    monkeypatch.setattr(system, "solve_k_alpha", nan_solve)
    with pytest.raises(SolveError, match="NaN row"):
        fem_coefficients(system, [[0.4, 0.5]])


def test_simulate_field_accepts_coefficient_matrix():
    dist = NoiseDistribution.nig(1.0, 1.0)
    matrix = CoefficientMatrix([[1.0, 0.3], [0.5, 1.0]])
    x = simulate_field(matrix, None, dist, 100, 5)
    assert x.shape == (100, 2)


def test_negative_coefficient_guard(monkeypatch):
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 0)
    system = fem_assemble(mesh, 2.0, 2)

    def bad_solve(rhs):
        out = np.abs(np.asarray(rhs, dtype=float))
        out.flat[0] = -1.0  # material negative, far beyond round-off
        return out

    monkeypatch.setattr(system, "solve_k_alpha", bad_solve)
    with pytest.raises(NonnegativityError):
        fem_coefficients(system, [[0.4, 0.5]])


def test_tiny_negative_coefficients_are_clamped(monkeypatch):
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 0)
    system = fem_assemble(mesh, 2.0, 2)
    real_solve = system.solve_k_alpha

    def noisy_solve(rhs):
        out = real_solve(rhs)
        out.flat[0] = -1e-13 * out.max()
        return out

    monkeypatch.setattr(system, "solve_k_alpha", noisy_solve)
    matrix = fem_coefficients(system, [[0.4, 0.5]])
    assert np.all(matrix.entries >= 0.0)


def test_write_field_csv(tmp_path):
    from exdep.fem import write_field_csv

    path = tmp_path / "field.csv"
    write_field_csv(str(path), np.array([[1.0, 2.0], [3.0, 4.5]]))
    lines = path.read_text().splitlines()
    assert lines[0] == "site_1,site_2"
    assert lines[1] == "1.0,2.0"
    assert len(lines) == 3


def test_write_matrix_coo(tmp_path):
    from exdep.fem import write_matrix_coo

    mesh = lattice_mesh_2d((0, 0, 1, 1), 4, 0)
    system = fem_assemble(mesh, 2.0, 2)
    path = tmp_path / "k.csv"
    write_matrix_coo(str(path), system.k_alpha)
    lines = path.read_text().splitlines()
    assert lines[0] == "row,col,value"
    i, j, v = lines[1].split(",")
    assert float(v) != 0.0
    assert len(lines) - 1 == system.k_alpha.nnz
