import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from exdep.errors import NonnegativityError, ParameterError, SolveError
from exdep.fem import (FemSystem, TypeGNoise, basis_matrix, dual_cell_areas,
                       fem_assemble, fem_coefficients, simulate_field)
from exdep.kernels import matern_kernel
from exdep.lintrans import (CoefficientMatrix, Regime, classify,
                            eta_closed_form)
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
        x = system.solve_k_alpha(rhs, check_residual=True)
        assert np.allclose(system.k_alpha @ x, rhs, rtol=1e-9, atol=1e-9)


def test_k_alpha_spectral_matches_polynomial():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    system = fem_assemble(mesh, 2.0, 4)
    rhs = np.random.default_rng(0).random(mesh.n_nodes)
    x_poly = system.solve_k_alpha(rhs)
    x_spec = system._spectral_op(rhs, -2.0, inverse=True)
    assert np.allclose(x_poly, x_spec, rtol=1e-10, atol=1e-12)


def test_odd_alpha_solve_residual():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    system = fem_assemble(mesh, 2.0, 3)
    rhs = np.random.default_rng(1).random(mesh.n_nodes)
    system.solve_k_alpha(rhs, check_residual=True)
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
    system.solve_k_alpha(rhs, check_residual=True)


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
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or real_eigh(a))
    base = fem_assemble(mesh, 2.0, 2)
    rhs = np.linspace(0.5, 1.5, mesh.n_nodes)
    for alpha in (3, 5, 2, 4):
        view = base.with_alpha(alpha)
        assert view.alpha == alpha and base.alpha == 2
        fresh = fem_assemble(mesh, 2.0, alpha)
        assert np.array_equal(view.solve_k_alpha(rhs), fresh.solve_k_alpha(rhs))
    # one eigh for the views, one for each of the two fresh odd systems
    assert len(calls) == 3
    with pytest.raises(ParameterError):
        base.with_alpha(2.5)
    with pytest.raises(ParameterError):
        fem_assemble(mesh, 2.0, 2, lumped=False).with_alpha(3)


def test_simulate_field_accepts_coefficient_matrix():
    dist = NoiseDistribution.nig(1.0, 1.0)
    matrix = CoefficientMatrix([[1.0, 0.3], [0.5, 1.0]])
    x = simulate_field(matrix, None, dist, 100, 5)
    assert x.shape == (100, 2)


def test_negative_coefficient_guard(monkeypatch):
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 0)
    system = fem_assemble(mesh, 2.0, 2)

    def bad_solve(rhs, check_residual=False):
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

    def noisy_solve(rhs, check_residual=False):
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
