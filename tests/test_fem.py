import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, sparse, stats
from scipy.sparse import linalg as spla

from exdep.cli import random_sites
from exdep.errors import DomainError, NonnegativityError, ParameterError, SolveError
from exdep.fem import (_BATCH, BACKWARD_TOL, MAX_RATIO, RATIONAL_TOL, TypeGNoise,
                       _boundary_mass, basis_matrix, dual_cell_areas, fem_assemble,
                       fem_coefficients, inverse_sqrt_quadrature, simulate_field)
from exdep.kernels import matern_kernel
from exdep.lintrans import (CoefficientMatrix, Regime, classify,
                            eta_closed_form, eta_pairs)
from exdep.mesh import Mesh2D, lattice_mesh_2d, integral_coefficients
from exdep.streams import substreams


def unit_triangle():
    return Mesh2D([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])


def test_element_mass_matrix_exact():
    # an element mass row, area/6 on the diagonal and area/12 off it, sums to area/3
    sys1 = fem_assemble(unit_triangle(), 1.0)
    assert np.allclose(sys1.mass_lumped, 0.5 / 3.0)
    # the two lattice triangles share the nodes 0 and 3 of their diagonal
    square = fem_assemble(lattice_mesh_2d((0, 0, 1, 1), 2, 0), 1.0)
    assert np.allclose(square.mass_lumped, [1 / 3, 1 / 6, 1 / 6, 1 / 3])


def test_stiffness_rows_sum_to_zero():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 6, 0)
    system = fem_assemble(mesh, 2.0)
    assert np.abs(np.asarray(system.stiffness.sum(axis=1))).max() < 1e-12


def boundary_mass_by_rows(mesh):
    """B from the boundary edges found by a row-wise ``np.unique`` of the
    sorted (i, j) edge pairs."""
    tris = mesh.triangles
    edges = np.sort(np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    i, j = uniq[counts == 1].T
    lengths = np.linalg.norm(mesh.nodes[i] - mesh.nodes[j], axis=1)
    return sparse.coo_matrix(
        (np.concatenate([lengths / 3.0, lengths / 3.0, lengths / 6.0, lengths / 6.0]),
         (np.concatenate([i, j, i, j]), np.concatenate([i, j, j, i]))),
        shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()


@pytest.mark.parametrize("side, rings", [(3, 0), (10, 2), (12, 6)])
@pytest.mark.parametrize("shuffled", [False, True])
def test_boundary_mass_equals_the_row_wise_edge_count(side, rings, shuffled):
    mesh = lattice_mesh_2d((0, 0, 1, 1), side, rings)
    if shuffled:
        order = np.random.default_rng(side).permutation(len(mesh.triangles))
        mesh = Mesh2D(mesh.nodes, mesh.triangles[order])
    got, expected = _boundary_mass(mesh), boundary_mass_by_rows(mesh)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(expected, name))
    assert got.shape == expected.shape


def test_k2_robin_is_mass_plus_stiffness_plus_boundary_and_spd():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 5, 0)
    kappa = 2.0
    system = fem_assemble(mesh, kappa)
    k = system.base.toarray()
    # the boundary mass B of the unit square, lattice step 1/4: each boundary
    # node has two boundary edges (2/3 of a step), each edge joins two nodes (1/6)
    step = 0.25
    boundary = np.zeros((mesh.n_nodes, mesh.n_nodes))
    on_side = np.isin(mesh.nodes, (0.0, 1.0))
    for i in np.flatnonzero(on_side.any(axis=1)):
        boundary[i, i] = 2.0 * step / 3.0
        for j in np.flatnonzero(on_side.any(axis=1)):
            shared_side = np.any((mesh.nodes[i] == mesh.nodes[j]) & on_side[i])
            if shared_side and np.abs(mesh.nodes[i] - mesh.nodes[j]).sum() == step:
                boundary[i, j] = step / 6.0
    expected = (kappa ** 2 * np.diag(system.mass_lumped) + system.stiffness.toarray()
                + kappa * boundary)
    assert np.allclose(k, expected, atol=1e-14)
    eigvals = np.linalg.eigvalsh(k)
    assert eigvals.min() > 0
    assert np.allclose(k, k.T)


def test_k_alpha_polynomial_solve_round_trip():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 5, 0)
    for alpha in (2, 4, 6):
        system = fem_assemble(mesh, 2.0)
        # the explicit polynomial K_alpha = K_2 (C^{-1} K_2)^{alpha/2 - 1}
        k = system.base
        for _ in range(alpha // 2 - 1):
            k = k @ sparse.diags(1.0 / system.mass_lumped) @ system.base
        rhs = np.arange(float(mesh.n_nodes)) + 1.0
        x = system.solve_k_alpha(rhs, alpha)
        assert np.allclose(k @ x, rhs, rtol=1e-9, atol=1e-9)
        assert system.backward_error(x, rhs, alpha) < 1e-14


def spectral_solve(system, rhs, alpha):
    """Dense oracle K_alpha^{-1} rhs = C^{-1/2} Q diag(l^{-alpha/2}) Q^T C^{-1/2} rhs,
    from the eigendecomposition Q diag(l) Q^T of S = C^{-1/2} K_2 C^{-1/2}."""
    root = np.sqrt(system.mass_lumped)[:, None]
    eigvals, q = np.linalg.eigh(system.base.toarray() / root / root.T)
    return q @ (eigvals[:, None] ** (-alpha / 2.0) * (q.T @ (rhs / root))) / root


def test_k_alpha_spectral_matches_polynomial():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    system = fem_assemble(mesh, 2.0)
    rhs = np.random.default_rng(0).random((mesh.n_nodes, 2))
    x_poly = system.solve_k_alpha(rhs, 4)
    x_spec = spectral_solve(system, rhs, 4)
    assert np.allclose(x_poly, x_spec, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("side,rings", [(8, 1), (25, 2), (40, 6)])
def test_rational_odd_alpha_solve_matches_spectral_oracle(side, rings):
    mesh = lattice_mesh_2d((0, 0, 1, 1), side, rings)
    system = fem_assemble(mesh, 2.0)
    phi = basis_matrix(mesh, random_sites(np.random.default_rng(side), 12)).toarray().T
    for alpha in (3, 5):
        x = system.solve_k_alpha(phi, alpha)
        ref = spectral_solve(system, phi, alpha)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    assert system.quadrature.error <= RATIONAL_TOL / 2


@pytest.mark.parametrize("side,rings", [(8, 1), (25, 2)])
def test_apply_k_alpha_inverts_solve_k_alpha(side, rings):
    mesh = lattice_mesh_2d((0, 0, 1, 1), side, rings)
    system = fem_assemble(mesh, 2.0)
    rhs = np.random.default_rng(3).random((mesh.n_nodes, 3))
    for alpha in (2, 3, 4, 5, 6):
        x = system.solve_k_alpha(rhs, alpha)
        assert system.backward_error(x, rhs, alpha) < 1e-14
        if side == 8:
            assert np.abs(system.apply_k_alpha(x, alpha) - rhs).max() < 1e-10 * rhs.max()
        assert np.allclose(system.solve_k_alpha(rhs[:, 0], alpha), x[:, 0], rtol=1e-13, atol=0)


@pytest.mark.parametrize("kappa,rtol", [(2.0, 1e-12), (0.05, 1e-12), (1e-4, 1e-10)])
def test_odd_alpha_solve_twice_is_the_even_solve(kappa, rtol):
    # K_6^{-1} = K_3^{-1} C K_3^{-1}: two rational solves against K_2 solves alone
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    system = fem_assemble(mesh, kappa)
    rhs = np.random.default_rng(4).random((mesh.n_nodes, 2))
    twice = system.solve_k_alpha(system.mass_matrix @ system.solve_k_alpha(rhs, 3), 3)
    ref = system.solve_k_alpha(rhs, 6)
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
    for kappa in (2.0, 1e-4):
        system = fem_assemble(mesh, kappa)
        eigvals = linalg.eigh(system.base.toarray(), system.mass_matrix.toarray(),
                              eigvals_only=True)
        lower, upper = system.spectrum_bounds
        assert lower <= eigvals.min() and eigvals.max() <= upper
        # the inverse-iteration bound is tight to its 1% margin
        assert lower >= 0.98 * eigvals.min()
    # Robin: the smallest eigenvalue is of order kappa, far above kappa^2
    assert fem_assemble(mesh, 1e-4).spectrum_bounds[0] > 1e4 * 1e-4 ** 2


def test_inverse_iteration_bound_needs_an_m_matrix():
    # a fan of obtuse triangles gives K_2 positive off-diagonal entries
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.1], [0.5, -0.1]])
    mesh = Mesh2D(nodes, np.array([[0, 1, 2], [0, 3, 1]]))
    system = fem_assemble(mesh, 1e-3)
    assert system._inverse_iteration_bound() == 0.0
    assert system.spectrum_bounds[0] == 1e-3 ** 2


def test_small_kappa_odd_alpha_solve_matches_spectral_oracle():
    # kappa^2 alone would put the spectrum ratio at 5e8, past MAX_RATIO
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    system = fem_assemble(mesh, 1e-3)
    lower, upper = system.spectrum_bounds
    assert upper > MAX_RATIO * 1e-3 ** 2 and upper < 1e-2 * MAX_RATIO * lower
    phi = basis_matrix(mesh, random_sites(np.random.default_rng(5), 4)).toarray().T
    # S has condition 2e5 here: the dense oracle is itself 2e-12 of the max
    # away from the alpha-2 LU solve, hence the wider tolerance
    for alpha in (3, 5):
        ref = spectral_solve(system, phi, alpha)
        assert np.abs(system.solve_k_alpha(phi, alpha) - ref).max() <= 1e-11 * np.abs(ref).max()


@pytest.mark.parametrize("kappa", [math.nan, math.inf])
def test_non_finite_kappa_is_a_parameter_error(kappa):
    mesh = lattice_mesh_2d((0, 0, 1, 1), 4, 1)
    with pytest.raises(ParameterError, match="kappa must be positive and finite"):
        fem_assemble(mesh, kappa)


def test_too_small_kappa_for_odd_alpha_is_a_parameter_error():
    # the smallest eigenvalue of S is of order kappa: here the spectrum ratio is 1.5e9
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    system = fem_assemble(mesh, 1e-7)
    lower, upper = system.spectrum_bounds
    assert upper > 10.0 * MAX_RATIO * lower
    with pytest.raises(ParameterError, match="too small for odd alpha"):
        system.solve_k_alpha(np.ones(mesh.n_nodes), 3)
    rhs = np.ones(mesh.n_nodes)  # even exponents need no quadrature
    x = system.solve_k_alpha(rhs, 2)
    assert system.backward_error(x, rhs, 2) < 1e-14


def test_odd_alpha_solve_residual():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    system = fem_assemble(mesh, 2.0)
    rhs = np.random.default_rng(1).random(mesh.n_nodes)
    assert system.backward_error(system.solve_k_alpha(rhs, 3), rhs, 3) < 1e-14
    with pytest.raises(ParameterError):
        system.solve_k_alpha(rhs, 7)


def test_non_integer_alpha_rejected():
    system = fem_assemble(lattice_mesh_2d((0, 0, 1, 1), 5, 0), 2.0)
    rhs = np.ones(system.mesh.n_nodes)
    for solve in (system.solve_k_alpha, system.apply_k_alpha):
        with pytest.raises(ParameterError):
            solve(rhs, 2.5)
    assert np.array_equal(system.solve_k_alpha(rhs, 4.0), system.solve_k_alpha(rhs, 4))


def test_fem_coefficients_argmax_at_site_node():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 20, 2)
    system = fem_assemble(mesh, 2.0)
    node = 250
    matrix, = fem_coefficients(system, [mesh.nodes[node], [0.9, 0.33]], [2])
    assert matrix.argmax_sets[0] == frozenset({node})


def test_fem_coefficient_scale_invariance():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 12, 1)
    system = fem_assemble(mesh, 2.0)
    sites = [[0.31, 0.52], [0.7, 0.44]]
    matrix, = fem_coefficients(system, sites, [2])
    scaled = CoefficientMatrix(matrix.entries * np.array([[3.0], [0.5]]))
    assert classify(scaled).regime is classify(matrix).regime
    assert eta_closed_form(scaled) == pytest.approx(eta_closed_form(matrix), abs=1e-13)


def test_fem_vs_integral_eta_close_on_fine_mesh():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 20, 2)
    system = fem_assemble(mesh, 2.0)
    kern = matern_kernel(2.0, 2.0)
    sites = np.array([[0.28, 0.51], [0.73, 0.49]])
    e_fem = eta_closed_form(next(fem_coefficients(system, sites, [2])))
    e_int = eta_closed_form(integral_coefficients(kern, sites, mesh))
    assert abs(e_fem - e_int) < 0.05


def eta_by_all_terms(b1, b2):
    """The closed form over every column pair and column, as the
    ``lintrans`` docstring writes it, on normalized rows, with the
    determinant formed from the distances d = b2 - b1 to the diagonal."""
    d = b2 - b1
    diff = np.abs(d)
    det = np.abs(d[:, None] * b1[None, :] - b1[:, None] * d[None, :])
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
    kern = matern_kernel(2.0, alpha)
    fem_matrix, = fem_coefficients(fem_assemble(mesh, 2.0), sites, [alpha])
    for matrix in (integral_coefficients(kern, sites, mesh), fem_matrix):
        rows = matrix.normalized
        for (i, j), eta in zip(pairs, eta_pairs(matrix, pairs).tolist()):
            m = CoefficientMatrix(rows[[i, j]])
            if classify(m).regime is Regime.ASYMPTOTIC_INDEPENDENCE:
                assert eta == eta_by_all_terms(*m.normalized)
            else:
                assert eta == 1.0


def test_dual_cell_areas_partition_the_mesh():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 9, 2)
    areas = dual_cell_areas(mesh)
    assert areas.sum() == pytest.approx(mesh.triangle_areas().sum(), rel=1e-12)
    assert np.all(areas > 0)
    # dual areas equal the lumped mass rows (integral of each hat)
    system = fem_assemble(mesh, 1.0)
    assert np.allclose(areas, system.mass_lumped, atol=1e-14)


def test_basis_matrix_rows_are_barycentric():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 6, 0)
    phi = basis_matrix(mesh, [[0.37, 0.21]])
    row = phi.toarray()[0]
    assert row.sum() == pytest.approx(1.0)
    assert np.count_nonzero(row) <= 3
    tri, bary = mesh.locate([0.3, 0.7])
    assert bary.sum() == pytest.approx(1.0)
    assert np.allclose(bary @ mesh.nodes[mesh.triangles[tri]], [0.3, 0.7])
    with pytest.raises(DomainError):
        mesh.locate([2.0, 2.0])
    with pytest.raises(DomainError):
        basis_matrix(mesh, [[2.0, 2.0]])


def test_typeg_noise_validation():
    with pytest.raises(ParameterError):
        TypeGNoise("cauchy", 0.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        TypeGNoise("nig", 0.0, 0.0, psi=1.0, tau=0.0)


@pytest.mark.parametrize("bad", [dict(psi=math.nan), dict(tau=math.nan), dict(gamma=math.nan),
                                 dict(mu=math.inf), dict(psi=math.inf), dict(lam=math.nan)],
                         ids=["psi-nan", "tau-nan", "gamma-nan", "mu-inf", "psi-inf", "lam-nan"])
def test_typeg_noise_rejects_non_finite_parameters(bad):
    # each of these once built a noise whose simulated field was not finite
    with pytest.raises(ParameterError, match="finite"):
        TypeGNoise("nig", **{**dict(mu=-1.0, gamma=1.0, psi=1.0, tau=1.0), **bad})


def test_typeg_mixing_scales_linearly_in_area():
    noise = TypeGNoise("nig", mu=-1.0, gamma=1.0, psi=1.0, tau=1.0)
    vg = TypeGNoise("variance_gamma", mu=0.0, gamma=0.0, psi=2.0, lam=1.5)
    rng = np.random.default_rng(0)
    for area in (0.5, 2.0):
        v = noise.draw_mixing(rng, area, (2, 100_000))
        assert v.shape == (2, 100_000)
        # inverse Gaussian mean is delta/gamma_ig = area * sqrt(tau/psi)
        assert v.mean() == pytest.approx(area, rel=0.02)
        w = vg.draw_mixing(rng, area, (2, 100_000))
        assert w.mean() == pytest.approx(1.5 * area * 2.0 / 2.0, rel=0.02)


def test_simulate_field_empty():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 5, 0)
    system = fem_assemble(mesh, 2.0)
    noise = TypeGNoise("nig", mu=-1.0, gamma=1.0, psi=1.0, tau=1.0)
    out = simulate_field(system, 2, [[0.5, 0.5]], noise, 0, 0)
    assert out.shape == (0, 1)
    with pytest.raises(ParameterError, match="alpha"):  # checked with no rows to draw
        simulate_field(system, 7, [[0.5, 0.5]], noise, 0, 0)


def test_simulate_field_deterministic_per_seed():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 6, 1)
    system = fem_assemble(mesh, 2.0)
    noise = TypeGNoise("nig", mu=-1.0, gamma=1.0, psi=1.0, tau=1.0)
    a = simulate_field(system, 2, [[0.4, 0.6]], noise, 500, 42)
    b = simulate_field(system, 2, [[0.4, 0.6]], noise, 500, 42)
    assert np.array_equal(a, b)


def test_constant_mixing_hook_matches_gaussian_covariance():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 10, 1)
    system = fem_assemble(mesh, 2.0)
    noise = TypeGNoise("nig", mu=-1.0, gamma=1.0, psi=1.0, tau=1.0)
    sites = np.array([[0.35, 0.5], [0.6, 0.5]])
    x = simulate_field(system, 2, sites, noise, 60_000, 7, constant_mixing=1.0)
    phi = basis_matrix(mesh, sites).toarray()
    rows = system.solve_k_alpha(phi.T, 2).T
    cov = rows @ rows.T  # K^{-1} diag(1) K^{-1} between the two sites
    emp = np.cov(x.T)
    se = cov[0, 1] * math.sqrt(2.0 / x.shape[0]) * 4
    assert emp[0, 1] == pytest.approx(cov[0, 1], abs=6 * abs(se) + 0.05 * abs(cov[0, 1]))
    assert emp[0, 0] == pytest.approx(cov[0, 0], rel=0.08)


def test_simulate_field_nig_skewed_marginals():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 10, 1)
    system = fem_assemble(mesh, 2.0)
    noise = TypeGNoise("nig", mu=-1.0, gamma=1.0, psi=1.0, tau=1.0)
    x = simulate_field(system, 2, [[0.4, 0.5], [0.62, 0.5]], noise, 100_000, 3)
    skew = stats.skew(x, axis=0)
    assert np.all(skew > 0.2)  # clearly non-Gaussian


def _draw_noise(noise, areas, size, stream, constant_mixing=None):
    """One batch's node-major cell noise, nodes grouped by exact area,
    built in one piece: each class's mixing values in ascending area,
    then the normals.  Returns the noise and its node order."""
    classes, inverse, counts = np.unique(areas, return_inverse=True, return_counts=True)
    order = np.argsort(inverse, kind="stable")
    if constant_mixing is None:
        v = np.vstack([noise.draw_mixing(stream, area, (count, size))
                       for area, count in zip(classes, counts)])
    else:
        v = np.full((areas.size, size), float(constant_mixing))
    z = stream.standard_normal((areas.size, size))
    return noise.mu * areas[order][:, None] + noise.gamma * v + np.sqrt(v) * z, order


def _per_batch_reference(system, alpha, sites, noise, sizes, streams):
    """The field as one K_alpha solve per batch, mapped to the sites by phi."""
    phi = basis_matrix(system.mesh, sites)
    areas = dual_cell_areas(system.mesh)
    chunks = []
    for size, stream in zip(sizes, streams):
        rhs_perm, order = _draw_noise(noise, areas, size, stream)
        rhs = np.empty_like(rhs_perm)
        rhs[order] = rhs_perm  # back to node order
        chunks.append((phi @ system.solve_k_alpha(rhs, alpha)).T)
    return np.vstack(chunks)


@pytest.mark.parametrize("alpha", [2, 3, 4])
def test_simulate_field_matches_per_batch_solve(alpha):
    mesh = lattice_mesh_2d((0, 0, 1, 1), 6, 1)
    system = fem_assemble(mesh, 2.0)
    noise = TypeGNoise("nig", mu=-1.0, gamma=1.0, psi=1.0, tau=1.0)
    sites = [[0.3, 0.4], [0.7, 0.55], [0.5, 0.5]]
    n = 3 * _BATCH + 232
    sizes = [_BATCH] * 3 + [232]
    x = simulate_field(system, alpha, sites, noise, n, 11)
    ref = _per_batch_reference(system, alpha, sites, noise, sizes, substreams(11, 4))
    assert x.shape == (n, 3) and x.flags.f_contiguous
    np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def _one_shot_reference(system, alpha, sites, noise, sizes, streams, constant_mixing=None):
    """Each batch's noise built in one piece, then mapped by W in one product."""
    weights_t = system.solve_k_alpha(basis_matrix(system.mesh, sites).toarray().T, alpha)
    areas = dual_cell_areas(system.mesh)
    chunks = []
    for size, stream in zip(sizes, streams):
        rhs, order = _draw_noise(noise, areas, size, stream, constant_mixing)
        chunks.append((weights_t[order].T @ rhs).T)
    return np.vstack(chunks)


@pytest.mark.parametrize("noise", [
    TypeGNoise("nig", mu=-1.0, gamma=1.0, psi=1.0, tau=1.0),
    TypeGNoise("variance_gamma", mu=0.3, gamma=-0.7, psi=2.0, lam=1.5),
])
def test_simulate_field_equals_the_one_shot_batch(noise):
    mesh = lattice_mesh_2d((0, 0, 1, 1), 6, 1)
    system = fem_assemble(mesh, 2.0)
    sites = [[0.3, 0.4], [0.7, 0.55], [0.5, 0.5]]
    short = _BATCH // 2 + 22
    sizes = [_BATCH, _BATCH, short]  # two full batches and a shorter last one
    n = sum(sizes)
    ref = _one_shot_reference(system, 3, sites, noise, sizes, substreams(4, 3))
    for threads in (1, 2):
        x = simulate_field(system, 3, sites, noise, n, 4, threads=threads)
        assert x.flags.f_contiguous and np.array_equal(x, ref)
    ref = _one_shot_reference(system, 3, sites, noise, sizes, substreams(4, 3), 0.8)
    for threads in (1, 2):
        x = simulate_field(system, 3, sites, noise, n, 4, constant_mixing=0.8, threads=threads)
        assert x.flags.f_contiguous and np.array_equal(x, ref)
    # fewer replicates than one batch: the buffer holds only those
    ref = _one_shot_reference(system, 3, sites, noise, [short], substreams(4, 1))
    x = simulate_field(system, 3, sites, noise, short, 4)
    assert x.flags.f_contiguous and np.array_equal(x, ref)


def test_simulate_field_holds_one_copy_of_the_field():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 5, 2)
    system = fem_assemble(mesh, 2.0)
    noise = TypeGNoise("nig", mu=-1.0, gamma=1.0, psi=1.0, tau=1.0)
    sites = random_sites(np.random.default_rng(0), 8)
    simulate_field(system, 2, sites, noise, 10, 1)  # factor K_2 outside the trace
    n, batch, k, nodes = 40_000, _BATCH, len(sites), mesh.n_nodes
    tracemalloc.start()
    try:
        x = simulate_field(system, 2, sites, noise, n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result, three one-batch buffers (v, Z, sqrt v) and W^T, then one
    # batch product and 256 kB of slack; a per-batch list and its vstack add
    # another copy of the result (2.56 MB), and a buffer of 8,192 rows of
    # mixing values 5.3 MB
    held = x.nbytes + 8 * (3 * batch * nodes + nodes * k)
    assert peak <= held + 8 * batch * k + 256 * 1024


def test_simulate_field_threads_do_not_change_draws():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 6, 1)
    system = fem_assemble(mesh, 2.0)
    noise = TypeGNoise("nig", mu=-1.0, gamma=1.0, psi=1.0, tau=1.0)
    sites = [[0.3, 0.4], [0.7, 0.55]]
    one = simulate_field(system, 2, sites, noise, 5000, 8, threads=1)
    two = simulate_field(system, 2, sites, noise, 5000, 8, threads=2)
    assert np.array_equal(one, two)


@pytest.mark.parametrize("bad", [dict(threads=0), dict(threads=-1), dict(threads=1.0),
                                 dict(threads=2.5)])
def test_simulate_field_rejects_chunking_below_one(bad):
    mesh = lattice_mesh_2d((0, 0, 1, 1), 5, 1)
    system = fem_assemble(mesh, 2.0)
    noise = TypeGNoise("nig", mu=-1.0, gamma=1.0, psi=1.0, tau=1.0)
    for n in (100, 0):  # also with no rows to draw
        with pytest.raises(ParameterError, match="at least 1"):
            simulate_field(system, 2, [[0.4, 0.6]], noise, n, 1, **bad)


def test_simulate_field_takes_only_an_integer_seed():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 5, 1)
    system = fem_assemble(mesh, 2.0)
    noise = TypeGNoise("nig", mu=-1.0, gamma=1.0, psi=1.0, tau=1.0)
    generator = np.random.default_rng(3)
    state = generator.bit_generator.state
    for seed in (generator, 3.0):
        for n in (100, 0):
            with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
                simulate_field(system, 2, [[0.4, 0.6]], noise, n, seed)
    assert generator.bit_generator.state == state  # nothing was drawn from it


def _mixing_moments(noise, areas):
    """E v and Var v of each cell's mixing variable."""
    if noise.family == "nig":  # inverse Gaussian
        return (areas * math.sqrt(noise.tau / noise.psi),
                areas * math.sqrt(noise.tau) * noise.psi ** -1.5)
    return 2.0 * noise.lam * areas / noise.psi, 4.0 * noise.lam * areas / noise.psi ** 2


def _assert_closed_form_moments(mesh, noise, seed):
    """The law of the field: mean W (mu|D| + gamma E v) and covariance
    W diag(gamma^2 Var v + E v) W^T at three sites, each within 5 standard
    errors, drawn from the root ``seed``."""
    system = fem_assemble(mesh, 2.0)
    sites = [[1.2, 1.6], [1.8, 2.0], [2.8, 2.2]]
    areas = dual_cell_areas(mesh)
    w = system.solve_k_alpha(basis_matrix(mesh, sites).toarray().T, 2).T
    mean_v, var_v = _mixing_moments(noise, areas)
    mean = w @ (noise.mu * areas + noise.gamma * mean_v)
    cov = (w * (noise.gamma ** 2 * var_v + mean_v)) @ w.T
    n = 40_000
    x = simulate_field(system, 2, sites, noise, n, seed)
    centered = x - x.mean(axis=0)
    assert np.all(np.abs(x.mean(axis=0) - mean) <= 5.0 * np.sqrt(np.diag(cov) / n))
    for i in range(3):
        for j in range(i, 3):
            prod = centered[:, i] * centered[:, j]
            se = prod.std() / math.sqrt(n)
            assert abs(prod.sum() / (n - 1) - cov[i, j]) <= 5.0 * se, (i, j)


_MOMENT_NOISES = [
    TypeGNoise("nig", mu=-1.0, gamma=1.0, psi=1.0, tau=1.0),
    TypeGNoise("variance_gamma", mu=0.3, gamma=-0.7, psi=2.0, lam=1.5),
]


@pytest.mark.parametrize("seed", [17])
@pytest.mark.parametrize("noise", _MOMENT_NOISES)
def test_simulate_field_mean_and_covariance_match_the_closed_form(noise, seed):
    # cells of area 0.64 set E v^2 (of v Z in place of sqrt(v) Z) well apart from E v
    _assert_closed_form_moments(lattice_mesh_2d((0, 0, 4, 4), 6, 1), noise, seed)


@pytest.mark.parametrize("noise", _MOMENT_NOISES)
def test_simulate_field_moments_where_every_area_is_its_own_class(noise):
    # jittered nodes give 64 distinct dual-cell areas, so 64 one-node classes
    grid = lattice_mesh_2d((0, 0, 4, 4), 6, 1)
    jitter = np.random.default_rng(3).uniform(-0.12, 0.12, grid.nodes.shape)
    mesh = Mesh2D(grid.nodes + jitter, grid.triangles)
    assert np.unique(dual_cell_areas(mesh)).size == mesh.n_nodes
    _assert_closed_form_moments(mesh, noise, 17)


def test_simulate_field_checks_site_weight_residual(tamper_k2_solves):
    mesh = lattice_mesh_2d((0, 0, 1, 1), 6, 1)
    system = fem_assemble(mesh, 2.0)
    noise = TypeGNoise("nig", mu=-1.0, gamma=1.0, psi=1.0, tau=1.0)
    tamper_k2_solves()
    with pytest.raises(SolveError):
        simulate_field(system, 2, [[0.4, 0.6]], noise, 100, 1)


def test_one_system_factors_once_for_every_alpha(monkeypatch):
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    calls = []
    real_splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda a, **kw: calls.append(1) or real_splu(a, **kw))
    for module in (np.linalg, linalg):
        monkeypatch.setattr(module, "eigh", lambda *a, **k: pytest.fail("dense eigh called"))
    system = fem_assemble(mesh, 2.0)
    n_shifts = len(system.quadrature.shifts)
    rhs = np.linspace(0.5, 1.5, mesh.n_nodes)
    for alpha in (3, 5, 2, 4):
        fresh = fem_assemble(mesh, 2.0)
        assert np.array_equal(system.solve_k_alpha(rhs, alpha), fresh.solve_k_alpha(rhs, alpha))
    # the one system factors K_2 and its shifts once; each fresh system its own
    assert len(calls) == (1 + n_shifts) + 2 * (1 + n_shifts) + 2 * 1


def test_a_continued_solve_is_the_fresh_solve():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    system = fem_assemble(mesh, 2.0)
    rhs = np.linspace(0.5, 1.5, mesh.n_nodes)
    for low, high in [(2, 4), (2, 6), (3, 5), (5, 5)]:
        start = (low, system.solve_k_alpha(rhs, low))
        assert np.array_equal(system.solve_k_alpha(rhs, high, start=start),
                              fem_assemble(mesh, 2.0).solve_k_alpha(rhs, high))
    for low, high in [(3, 4), (4, 2), (5, 3)]:  # another parity, or above alpha
        with pytest.raises(SolveError, match="backward error"):
            system.solve_k_alpha(rhs, high, start=(low, system.solve_k_alpha(rhs, low)))


def test_fem_coefficients_sweep_equals_fresh_systems_in_any_order():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    sites = [[0.4, 0.6], [0.3, 0.35]]
    alphas = (5, 2, 4, 3, 6)
    for alpha, matrix in zip(alphas, fem_coefficients(fem_assemble(mesh, 2.0), sites, alphas)):
        fresh, = fem_coefficients(fem_assemble(mesh, 2.0), sites, [alpha])
        assert np.array_equal(matrix.entries, fresh.entries)


def test_fem_coefficients_solves_each_alpha_when_pulled(monkeypatch):
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    calls, locates = [], []
    real_splu, real_locate = spla.splu, Mesh2D.locate
    monkeypatch.setattr(spla, "splu", lambda a, **kw: calls.append(1) or real_splu(a, **kw))
    monkeypatch.setattr(Mesh2D, "locate",
                        lambda self, point: locates.append(1) or real_locate(self, point))
    system = fem_assemble(mesh, 2.0)
    sweep = fem_coefficients(system, [[0.4, 0.6], [0.3, 0.35]], (2, 3))
    assert calls == [] and locates == []  # nothing before the first next()
    next(sweep)
    assert len(calls) == 1 and len(locates) == 2  # K_2 alone, and each site once
    next(sweep)
    assert len(calls) == 1 + len(system.quadrature.shifts) and len(locates) == 2


def test_a_continued_solve_is_checked(monkeypatch, tamper_k2_solves):
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    system = fem_assemble(mesh, 2.0)
    rhs = np.linspace(0.5, 1.5, mesh.n_nodes)
    x3 = system.solve_k_alpha(rhs, 3)
    tamper_k2_solves()
    with pytest.raises(SolveError, match="backward error"):
        system.solve_k_alpha(rhs, 5, start=(3, x3))  # one K_2 step on from alpha 3
    monkeypatch.undo()
    assert np.array_equal(system.solve_k_alpha(rhs, 5, start=(3, x3)),
                          fem_assemble(mesh, 2.0).solve_k_alpha(rhs, 5))


def test_fem_coefficients_checks_backward_error(tamper_k2_solves):
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    sites = [[0.4, 0.6], [0.3, 0.35]]
    system = fem_assemble(mesh, 2.0)
    phi = basis_matrix(mesh, sites).toarray().T
    for alpha in (2, 3, 4, 5):
        assert system.backward_error(system.solve_k_alpha(phi, alpha), phi, alpha) < 1e-14
    tamper_k2_solves()
    for alpha in (2, 3):
        with pytest.raises(SolveError, match="backward error"):
            next(fem_coefficients(fem_assemble(mesh, 2.0), sites, [alpha]))
    assert BACKWARD_TOL == 1e-12


def test_backward_error_of_a_zero_solution_is_infinite():
    mesh = lattice_mesh_2d((0, 0, 1, 1), 5, 0)
    system = fem_assemble(mesh, 2.0)
    rhs = np.zeros((mesh.n_nodes, 2))
    rhs[3, 1] = 1.0
    assert system.backward_error(np.zeros_like(rhs), rhs, 3) == np.inf
    assert system.backward_error(np.zeros(mesh.n_nodes), np.zeros(mesh.n_nodes), 3) == 0.0


def test_nan_solution_fails_the_backward_error_check(tamper_k2_solves):
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 1)
    system = fem_assemble(mesh, 2.0)
    rhs = np.ones((mesh.n_nodes, 2))
    x = system.solve_k_alpha(rhs, 2)
    x[5, 1] = np.nan
    assert np.isnan(system.backward_error(x, rhs, 2))

    def nan_entry(out):  # K_2 solves that put NaN in one entry
        out.flat[7] = np.nan
        return out

    tamper_k2_solves(nan_entry)
    for alpha in (2, 3):
        with pytest.raises(SolveError, match="backward error nan"):
            next(fem_coefficients(fem_assemble(mesh, 2.0), [[0.4, 0.6], [0.3, 0.35]], [alpha]))


def test_fem_coefficients_rejects_a_nan_row(monkeypatch):
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 0)
    system = fem_assemble(mesh, 2.0)
    real_solve = system.solve_k_alpha

    def nan_solve(*args):
        out = real_solve(*args)
        out[3, 0] = np.nan
        return out

    monkeypatch.setattr(system, "solve_k_alpha", nan_solve)
    with pytest.raises(SolveError, match="NaN row"):
        next(fem_coefficients(system, [[0.4, 0.5]], [2]))


def test_negative_coefficient_guard(monkeypatch):
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 0)
    system = fem_assemble(mesh, 2.0)

    def bad_solve(rhs, alpha, start):
        out = np.abs(np.asarray(rhs, dtype=float))
        out.flat[0] = -1.0  # material negative, far beyond round-off
        return out

    monkeypatch.setattr(system, "solve_k_alpha", bad_solve)
    with pytest.raises(NonnegativityError):
        next(fem_coefficients(system, [[0.4, 0.5]], [2]))


def test_tiny_negative_coefficients_are_clamped(monkeypatch):
    mesh = lattice_mesh_2d((0, 0, 1, 1), 8, 0)
    system = fem_assemble(mesh, 2.0)
    real_solve = system.solve_k_alpha

    def noisy_solve(*args):
        out = real_solve(*args)
        out.flat[0] = -1e-13 * out.max()
        return out

    monkeypatch.setattr(system, "solve_k_alpha", noisy_solve)
    matrix, = fem_coefficients(system, [[0.4, 0.5]], [2])
    assert np.all(matrix.entries >= 0.0)
