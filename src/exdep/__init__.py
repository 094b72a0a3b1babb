"""Extremal dependence of linear transformations of exponential-tailed
noise, and of the moving-average / SPDE approximations built on them."""

from .exptail import GhParams, GigParams, NoiseDistribution, substreams
from .kernels import (Kernel, exponential_kernel, gaussian_ou_eta,
                      limit_eta_conjecture, limit_eta_onesided,
                      limit_eta_symmetric, matern_green, matern_kernel,
                      ou_eta, ou_kernel)
from .lintrans import (CoefficientMatrix, Regime, RegimeSplit, TailSummary,
                       chi_gh_two, chi_limit_a22, chi_mc, classify,
                       eta_closed_form, eta_gauge_oracle, eta_pairs,
                       simulate_linear, tail_summary)
from .mesh import (Mesh2D, Partition1D, integral_coefficients,
                   lattice_mesh_2d, ou_coefficients, partition_1d)
from .fem import (FemSystem, TypeGNoise, basis_matrix, dual_cell_areas,
                  fem_assemble, fem_coefficients, simulate_field)
from .estimate import (BivariateSample, chi_from_exceedances, empirical_chi,
                       empirical_eta, exceedances, rank_columns,
                       rank_transform)

__version__ = "0.1.0"
