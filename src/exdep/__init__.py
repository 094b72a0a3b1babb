"""Extremal dependence of linear transformations of exponential-tailed
noise, and of the moving-average / SPDE approximations built on them.

The names below are re-exported from their modules, each imported on
first access (PEP 562), so ``import exdep`` loads no scipy subpackage
and a caller pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    **dict.fromkeys(("GhParams", "GigParams", "NoiseDistribution"), "exptail"),
    "substreams": "streams",
    **dict.fromkeys(("Kernel", "exponential_kernel", "gaussian_ou_eta",
                     "limit_eta_conjecture", "limit_eta_onesided", "limit_eta_symmetric",
                     "matern_green", "matern_kernel", "ou_eta"), "kernels"),
    **dict.fromkeys(("CoefficientMatrix", "Regime", "RegimeSplit", "TailSummary",
                     "chi_gh_two", "chi_limit_a22", "chi_mc", "classify",
                     "eta_closed_form", "eta_gauge_oracle", "eta_pairs",
                     "simulate_linear", "tail_summary"), "lintrans"),
    **dict.fromkeys(("Mesh2D", "Partition1D", "integral_coefficients",
                     "lattice_mesh_2d", "ou_coefficients", "partition_1d"), "mesh"),
    **dict.fromkeys(("FemSystem", "TypeGNoise", "basis_matrix", "dual_cell_areas",
                     "fem_assemble", "fem_coefficients", "simulate_field"), "fem"),
    **dict.fromkeys(("BivariateSample", "chi_from_exceedances", "empirical_chi",
                     "empirical_eta", "exceedances", "rank_columns",
                     "rank_transform"), "estimate"),
}


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
