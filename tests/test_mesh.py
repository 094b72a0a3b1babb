import math

import numpy as np
import pytest

from exdep.errors import ParameterError, PreconditionError, SingularCoefficientError
from exdep.kernels import exponential_kernel, matern_kernel, ou_eta
from exdep.lintrans import Regime, classify, eta_closed_form
from exdep.mesh import (Mesh2D, Partition1D, integral_coefficients, lattice_mesh_2d,
                        ou_coefficients, partition_1d)


# -- partitions ---------------------------------------------------------

def test_equidistant_partition_snaps_count():
    p = partition_1d(0.0, 4.0, delta=0.4)
    assert len(p.points) == 11
    assert p.points[0] == 0.0 and p.points[-1] == 4.0


def test_explicit_partition():
    p = Partition1D([0.0, 0.5, 1.0])
    assert p.start == 0.0 and p.end == 1.0


def test_non_monotone_points_rejected():
    with pytest.raises(ParameterError):
        Partition1D([0.0, 0.5, 0.4])


# -- one-sided coefficients ----------------------------------------------

def test_ou_no_interior_point_is_dependent():
    part = partition_1d(-4.0, 4.0, delta=0.4)
    # both sites inside the same cell (0.0, 0.4)
    matrix = ou_coefficients(0.2, [0.05, 0.35], part)
    assert classify(matrix).regime is Regime.ASYMPTOTIC_DEPENDENCE


@pytest.mark.parametrize("a", [math.nan, math.inf])
def test_ou_non_finite_rate_is_a_parameter_error(a):
    part = partition_1d(-4.0, 4.0, delta=0.4)
    with pytest.raises(ParameterError, match="a must be positive and finite"):
        ou_coefficients(a, [0.0, 1.0], part)


def test_ou_interior_point_gives_independence_with_known_eta():
    a = 0.2
    part = partition_1d(-4.0, 4.0, delta=0.4)
    s1, s2 = 0.05, 0.95
    matrix = ou_coefficients(a, [s1, s2], part)
    split = classify(matrix)
    assert split.regime is Regime.ASYMPTOTIC_INDEPENDENCE
    # anchor cells: last full cells below each site
    t_n1_1, t_n2_1 = -0.4, 0.4
    expected = 1.0 / (2.0 - math.exp(-a * (s2 - t_n1_1)) / math.exp(-a * (s2 - t_n2_1)))
    assert eta_closed_form(matrix) == pytest.approx(expected, abs=1e-12)


def test_ou_eta_exact_at_grid_multiples():
    a = 0.2
    part = partition_1d(-20.0, 4.0, delta=0.4)
    for h in (0.4, 1.2, 2.8):
        matrix = ou_coefficients(a, [0.0, h], part)
        assert eta_closed_form(matrix) == pytest.approx(ou_eta(a, h), abs=1e-12)


def test_ou_refinement_from_above_and_ordered():
    a = 0.2
    hs = np.round(np.arange(0.1, 4.01, 0.1), 10)
    etas = {}
    for delta in (0.4, 0.2, 0.05):
        pad = math.ceil(25.0 / delta) * delta
        part = partition_1d(-pad, 4.0, delta=delta)
        etas[delta] = np.array([eta_closed_form(ou_coefficients(a, [0.0, h], part))
                                for h in hs])
    limit = np.array([ou_eta(a, h) for h in hs])
    assert np.all(etas[0.4] >= etas[0.2] - 1e-12)
    assert np.all(etas[0.2] >= etas[0.05] - 1e-12)
    for delta in (0.4, 0.2, 0.05):
        assert np.all(etas[delta] >= limit - 1e-12)
    assert np.max(etas[0.05] - limit) < 0.02


def test_ou_requires_cell_below_first_site():
    part = partition_1d(0.0, 4.0, delta=0.4)
    with pytest.raises(PreconditionError, match="each in \\(start, end\\]"):
        ou_coefficients(0.2, [0.0, 1.0], part)  # s1 at the very start
    with pytest.raises(PreconditionError, match="each in \\(start, end\\]"):
        ou_coefficients(0.2, [1.0, 4.5], part)  # s2 beyond the end
    with pytest.raises(PreconditionError, match="no full cell below"):
        ou_coefficients(0.2, [1.0, 0.3], part)  # a site inside the first cell
    with pytest.raises(PreconditionError, match="one or more sites"):
        ou_coefficients(0.2, [], part)
    with pytest.raises(PreconditionError, match="one or more sites"):
        ou_coefficients(0.2, [[1.0, 2.0]], part)


def test_ou_rows_are_the_kernel_on_each_sites_full_cells():
    a = 0.3
    part = partition_1d(-2.0, 4.0, delta=0.4)
    pts = part.points
    # unsorted, repeated, on cell boundaries up to rounding, and at the end
    sites = [1.3, -1.5, 0.4 + 1e-12, 4.0, 1.3, 0.8 - 1e-12]
    matrix = ou_coefficients(a, sites, part)
    full = [int(np.sum(pts <= s + 1e-9)) - 1 for s in sites]  # cells [t_i, t_i+1) below s
    assert full == [8, 1, 6, 15, 8, 7]
    assert matrix.shape == (len(sites), max(full))
    for row, s, n in zip(matrix.entries, sites, full):
        expected = np.zeros(max(full))
        expected[:n] = np.exp(-a * (s - pts[:n]))
        assert np.array_equal(row, expected)
    # one site row for row equals its row in any other set of sites
    assert np.array_equal(ou_coefficients(a, [1.3], part).entries[0],
                          matrix.entries[0, :8])
    assert np.array_equal(ou_coefficients(a, sites[::-1], part).entries,
                          matrix.entries[::-1])


# -- lattice meshes ---------------------------------------------------------

def test_minimal_lattice():
    m = lattice_mesh_2d((0, 0, 1, 1), 2, 0)
    assert m.n_nodes == 4 and len(m.triangles) == 2
    assert m.triangle_areas().sum() == pytest.approx(1.0)


def test_forty_by_forty_lattice():
    m = lattice_mesh_2d((0, 0, 1, 1), 40, 0)
    assert m.n_nodes == 1600
    assert m.triangle_areas().sum() == pytest.approx(1.0, abs=1e-12)


def test_extension_rings_add_area():
    m = lattice_mesh_2d((0, 0, 1, 1), 10, 2)
    expected = (1.0 + 2 * 2.0 / 9.0) ** 2
    assert m.triangle_areas().sum() == pytest.approx(expected, rel=1e-12)


def test_degenerate_triangle_rejected():
    with pytest.raises(ParameterError):
        Mesh2D([[0, 0], [1, 0], [2, 0]], [[0, 1, 2]])


# -- integral coefficients -----------------------------------------------------

def test_site_at_centroid_dominates_column():
    m = lattice_mesh_2d((0, 0, 1, 1), 10, 0)
    k = matern_kernel(2.0, 3.0)  # bounded at zero
    c = m.centroids()[37]
    matrix = integral_coefficients(k, [c, [0.9, 0.9]], m)
    assert matrix.argmax_sets[0] == frozenset({37})


def test_distinct_cells_are_asymptotically_independent():
    m = lattice_mesh_2d((0, 0, 1, 1), 20, 0)
    k = matern_kernel(2.0, 3.0)
    matrix = integral_coefficients(k, [[0.31, 0.52], [0.72, 0.48]], m)
    assert classify(matrix).regime is Regime.ASYMPTOTIC_INDEPENDENCE


def test_shared_nearest_cell_is_asymptotically_dependent():
    m = lattice_mesh_2d((0, 0, 1, 1), 10, 0)
    k = matern_kernel(2.0, 3.0)
    c = m.centroids()[55]
    matrix = integral_coefficients(k, [c + 1e-4, c - 1e-4], m)
    assert classify(matrix).regime is Regime.ASYMPTOTIC_DEPENDENCE


def test_singular_coefficient_error_for_unbounded_kernel():
    m = lattice_mesh_2d((0, 0, 1, 1), 10, 0)
    k2 = matern_kernel(2.0, 2.0)  # G(0) infinite
    c = m.centroids()[12]
    with pytest.raises(SingularCoefficientError):
        integral_coefficients(k2, [c, [0.9, 0.9]], m)


def test_duplicate_site_rows_give_eta_one():
    k = matern_kernel(2.0, 3.0)
    for m, site in [(lattice_mesh_2d((0, 0, 1, 1), 10, 0), [0.31, 0.52]),
                    (lattice_mesh_2d((0, 0, 1, 1), 15, 1), [0.31, 0.5])]:
        matrix = integral_coefficients(k, [site, site], m)
        assert eta_closed_form(matrix) == 1.0
