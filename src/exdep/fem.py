"""Finite element machinery for Whittle-Matern fields driven by type G noise.

Piecewise-linear (hat) bases on a triangulation give the Gram matrices
C_ij = <phi_i, phi_j> (consistent mass, with entries area/6 and area/12
per element, or its row-sum lumped diagonal) and G_ij = <grad phi_i,
grad phi_j> (stiffness).  The discretized fractional operator for even
exponents is the matrix polynomial

    K_2 = kappa^2 C + G,      K_4 = K_2 C^{-1} K_2,      ...

Weights solve K_alpha w = (integral of phi_1 dM, ..., integral of
phi_n dM); with type G noise the cell values are normal mean-variance
mixtures over the dual cells D_j = {s : phi_j(s) >= phi_i(s) for all i},
whose mixing variables must come from a convolution-closed GIG subclass
(inverse Gaussian or gamma).
"""

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .errors import (AssemblyError, DomainError, NonnegativityError,
                     ParameterError, SolveError)
from .lintrans import CoefficientMatrix
from .exptail import NoiseDistribution, map_chunks

__all__ = [
    "FemSystem",
    "TypeGNoise",
    "fem_assemble",
    "fem_coefficients",
    "basis_matrix",
    "dual_cell_areas",
    "simulate_field",
    "write_field_csv",
    "write_matrix_coo",
]


@dataclass(frozen=True)
class TypeGNoise:
    """Type G noise specification: normal mean-variance mixture with a
    convolution-closed mixing family.

    family "nig" mixes with inverse Gaussian (GIG(-1/2, tau, psi); the
    additive parameter sqrt(tau) scales linearly with cell area), family
    "variance_gamma" with gamma (GIG(lam, 0, psi); the shape scales
    linearly with cell area).
    """

    family: str
    mu: float
    gamma: float
    psi: float
    tau: float = 1.0
    lam: float = 1.0

    def __post_init__(self):
        if self.family not in ("nig", "variance_gamma"):
            raise ParameterError(
                "mixing family must be convolution-closed: 'nig' or 'variance_gamma'"
            )
        if self.psi <= 0.0:
            raise ParameterError("psi must be positive")
        if self.family == "nig" and self.tau <= 0.0:
            raise ParameterError("nig mixing needs tau > 0")
        if self.family == "variance_gamma" and self.lam <= 0.0:
            raise ParameterError("variance_gamma mixing needs lam > 0")

    def draw_mixing(self, rng, areas, size):
        """Mixing values for cells with the given areas, (size, n)."""
        shape = (size, areas.size)
        if self.family == "nig":
            lam_w = self.tau * areas * areas  # shape parameter of the Wald law
            mu_w = areas * math.sqrt(self.tau / self.psi)
            return rng.wald(np.broadcast_to(mu_w, shape), np.broadcast_to(lam_w, shape))
        return rng.gamma(np.broadcast_to(self.lam * areas, shape), scale=2.0 / self.psi)

    def marginal(self, area=1.0):
        """Cell-level noise law (a GH distribution), for cross-checks."""
        if self.family == "nig":
            return NoiseDistribution.gh(-0.5, self.tau * area * area, self.psi,
                                        self.mu * area, self.gamma)
        return NoiseDistribution.gh(self.lam * area, 0.0, self.psi,
                                    self.mu * area, self.gamma)


class FemSystem:
    """Assembled mass/stiffness matrices and the K_alpha solve operator.

    Even exponents keep K_alpha a sparse matrix polynomial in K_2 and C.
    Odd exponents (needed for the smoothness sweep alpha = 2..5) go
    through the dense spectral half power of C^{-1/2} K_2 C^{-1/2},
    which requires the lumped mass.
    """

    def __init__(self, mesh, kappa, alpha, lumped, mass, mass_lumped, stiffness,
                 boundary_mass=None):
        self.mesh = mesh
        self.kappa = kappa
        self.alpha = alpha
        self.lumped = lumped
        self.mass = mass                    # consistent C, CSR
        self.mass_lumped = mass_lumped      # diagonal of lumped C
        self.stiffness = stiffness
        robin = kappa * boundary_mass if boundary_mass is not None else 0.0
        self.base = (kappa ** 2 * (sparse.diags(mass_lumped) if lumped else mass)
                     + stiffness + robin).tocsc()   # K_2
        self._factors = {}  # K_2 LU and spectral factors, shared with with_alpha views

    def with_alpha(self, alpha):
        """The same assembled system with exponent ``alpha``.

        The view shares this system's K_2 factorizations, so each is
        computed once however many exponents use it.
        """
        view = copy.copy(self)
        view.alpha = _check_alpha(alpha, self.lumped)
        return view

    @property
    def mass_matrix(self):
        """C in the variant selected at assembly time."""
        return sparse.diags(self.mass_lumped).tocsr() if self.lumped else self.mass

    @property
    def k_alpha(self):
        """Explicit sparse K_alpha.

        Available for alpha = 2 and, for higher even exponents, with the
        lumped mass (the consistent-mass inverse is dense; use
        :meth:`solve_k_alpha`, which factors through C and K_2).
        """
        if self.alpha == 2:
            return self.base.tocsr()
        if not self.lumped:
            raise ParameterError(
                "explicit K_alpha with consistent mass is dense for alpha >= 4; "
                "use solve_k_alpha"
            )
        c_inv = sparse.diags(1.0 / self.mass_lumped)
        k = self.base
        for _ in range(self.alpha // 2 - 1):
            k = k @ c_inv @ self.base
        return k.tocsr()

    def _factor(self):
        if "lu" not in self._factors:
            try:
                self._factors["lu"] = spla.splu(self.base)
            except RuntimeError as exc:  # pragma: no cover
                raise SolveError(f"K_2 factorization failed: {exc}") from exc
        return self._factors["lu"]

    def _spectral_factor(self):
        if "spectral" not in self._factors:
            if not self.lumped:
                raise ParameterError("odd exponents require the lumped mass")
            root = np.sqrt(self.mass_lumped)
            s = self.base.toarray() / root[:, None] / root[None, :]
            eigvals, q = np.linalg.eigh(s)
            if eigvals.min() <= 0.0:  # pragma: no cover
                raise SolveError("C^{-1/2} K_2 C^{-1/2} is not positive definite")
            self._factors["spectral"] = (eigvals, q, root)
        return self._factors["spectral"]

    def _spectral_op(self, rhs, power, inverse):
        # K_alpha = C^{1/2} Q diag(l^{alpha/2}) Q^T C^{1/2}; the inverse
        # swaps the outer sqrt(C) multiplications for divisions
        eigvals, q, root = self._spectral_factor()
        rhs = np.asarray(rhs, dtype=float)
        scale = root[:, None] if rhs.ndim == 2 else root
        y = q.T @ (rhs / scale if inverse else rhs * scale)
        y = (eigvals[:, None] ** power if rhs.ndim == 2 else eigvals ** power) * y
        out = q @ y
        return out / scale if inverse else out * scale

    def solve_k_alpha(self, rhs, check_residual=False):
        """K_alpha^{-1} rhs; sparse K_2 solves interleaved with C for even
        alpha, the spectral fractional power for odd alpha."""
        rhs = np.asarray(rhs, dtype=float)
        if self.alpha % 2:
            x = self._spectral_op(rhs, -self.alpha / 2.0, inverse=True)
        else:
            lu = self._factor()
            c = self.mass_matrix
            x = lu.solve(rhs)
            for _ in range(self.alpha // 2 - 1):
                x = lu.solve(c @ x)
        if check_residual:
            res = self.apply_k_alpha(x) - rhs
            denom = np.linalg.norm(rhs)
            if denom > 0 and np.linalg.norm(res) / denom > 1e-10:
                raise SolveError("K_alpha solve residual above 1e-10 relative")
        return x

    def apply_k_alpha(self, x):
        """K_alpha x without forming the matrix product."""
        x = np.asarray(x, dtype=float)
        if self.alpha % 2:
            return self._spectral_op(x, self.alpha / 2.0, inverse=False)
        y = self.base @ x
        for _ in range(self.alpha // 2 - 1):
            if self.lumped:
                scale = self.mass_lumped[:, None] if y.ndim == 2 else self.mass_lumped
                y = self.base @ (y / scale)
            else:
                y = self.base @ spla.spsolve(self.mass.tocsc(), y)
        return y


def _boundary_mass(mesh):
    """Line-element mass matrix over the outer boundary edges."""
    tris = mesh.triangles
    edges = np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    edges = np.sort(edges, axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    bnd = uniq[counts == 1]
    if len(bnd) == 0:
        return sparse.csr_matrix((mesh.n_nodes, mesh.n_nodes))
    lengths = np.linalg.norm(mesh.nodes[bnd[:, 0]] - mesh.nodes[bnd[:, 1]], axis=1)
    i, j = bnd[:, 0], bnd[:, 1]
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([i, j, j, i])
    vals = np.concatenate([lengths / 3.0, lengths / 3.0, lengths / 6.0, lengths / 6.0])
    return sparse.coo_matrix((vals, (rows, cols)),
                             shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()


def _check_alpha(alpha, lumped):
    if alpha not in (2, 3, 4, 5, 6):  # 2.5 is rejected, 3.0 accepted as 3
        raise ParameterError(f"alpha must be an integer between 2 and 6, got {alpha!r}")
    if alpha % 2 and not lumped:
        raise ParameterError("odd alpha requires lumped=True")
    return int(alpha)


def fem_assemble(mesh, kappa, alpha, lumped=True, boundary="robin"):
    """Assemble mass, stiffness and the K_alpha operator on a mesh.

    ``alpha`` must be an integer in 2..6.  Even values keep K_alpha a
    sparse matrix polynomial; odd values use a dense spectral square
    root (lumped mass only) and are meant for desk-scale meshes.
    Genuinely non-integer exponents are out of scope.

    ``boundary`` selects the default Robin condition du/dn + kappa*u = 0,
    which suppresses boundary reflection of the discrete Green's function
    on desk-scale extensions, or plain Neumann ("neumann", giving exactly
    K_2 = kappa^2 C + G).
    """
    alpha = _check_alpha(alpha, lumped)
    if boundary not in ("robin", "neumann"):
        raise ParameterError("boundary must be 'robin' or 'neumann'")
    if kappa <= 0.0:
        raise ParameterError("kappa must be positive")
    tris = mesh.triangles
    p = mesh.nodes[tris]
    x, y = p[..., 0], p[..., 1]
    # edge coefficients of the linear basis on each triangle
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = x[:, 0] * b[:, 0] + x[:, 1] * b[:, 1] + x[:, 2] * b[:, 2]
    if np.any(np.abs(area2) < 1e-14):
        bad = int(np.nonzero(np.abs(area2) < 1e-14)[0][0])
        raise AssemblyError(f"degenerate triangle {bad}")
    area = 0.5 * np.abs(area2)

    n = mesh.n_nodes
    ii = np.repeat(tris, 3, axis=1).ravel()          # i index of each 3x3 block
    jj = np.tile(tris, (1, 3)).ravel()               # j index
    mass_block = (np.full((3, 3), 1.0 / 12.0) + np.eye(3) / 12.0).ravel()
    mass_vals = (area[:, None] * mass_block[None, :]).ravel()
    stiff_vals = ((b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
                  / (4.0 * area)[:, None, None]).reshape(len(tris), 9)
    # block layout is row-major (i outer), matching ii/jj above
    stiff_vals = stiff_vals.reshape(len(tris), 3, 3).transpose(0, 1, 2).reshape(-1)

    mass = sparse.coo_matrix((mass_vals, (ii, jj)), shape=(n, n)).tocsr()
    stiffness = sparse.coo_matrix((stiff_vals, (ii, jj)), shape=(n, n)).tocsr()
    mass_lumped = np.asarray(mass.sum(axis=1)).ravel()
    bnd = _boundary_mass(mesh) if boundary == "robin" else None
    return FemSystem(mesh, kappa, alpha, lumped, mass, mass_lumped, stiffness,
                     boundary_mass=bnd)


def basis_matrix(mesh, sites):
    """Hat-basis evaluation rows phi(s) for each site, sparse (k, n)."""
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    rows, cols, vals = [], [], []
    for r, s in enumerate(sites):
        tri, bary = mesh.locate(s)
        for local in range(3):
            rows.append(r)
            cols.append(int(mesh.triangles[tri, local]))
            vals.append(float(bary[local]))
    return sparse.coo_matrix((vals, (rows, cols)),
                             shape=(len(sites), mesh.n_nodes)).tocsr()


def fem_coefficients(system, sites, negative_rtol=1e-10):
    """Rows phi(s_j)^T K_alpha^{-1} as a CoefficientMatrix.

    One K_alpha solve with a right-hand side per site.  Entries more
    negative than ``-negative_rtol * rowmax`` abort (a mesh or solver
    problem); smaller negative round-off is clamped to zero.
    """
    phi = basis_matrix(system.mesh, sites)
    rows = system.solve_k_alpha(phi.toarray().T).T
    out = []
    for j, row in enumerate(rows):
        top = row.max()
        if top <= 0.0:
            raise SolveError(f"site {j}: solve produced a non-positive row")
        if row.min() < -negative_rtol * top:
            raise NonnegativityError(
                f"site {j}: coefficient {row.min():.3e} below -{negative_rtol:.0e} * rowmax"
            )
        out.append(np.clip(row, 0.0, None))
    return CoefficientMatrix(np.vstack(out))


def dual_cell_areas(mesh):
    """Areas |D_j| of the dual cells where phi_j dominates all other hats.

    Within each triangle the three dominance regions split the area
    evenly, so |D_j| accumulates one third of each incident triangle (and
    the dual areas sum to the mesh area).
    """
    areas = mesh.triangle_areas()
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, mesh.triangles.ravel(), np.repeat(areas / 3.0, 3))
    return out


def simulate_field(system, sites, noise, n, rng, constant_mixing=None,
                   batch=8192, threads=1):
    """Replicates of the approximated field at the given sites, (n, k).

    Accepts either an assembled :class:`FemSystem` with a
    :class:`TypeGNoise`, or a plain CoefficientMatrix with a
    :class:`NoiseDistribution` for the generic linear model.  The FEM
    field at the sites is the linear model X = W rhs: the site weights
    W = phi K_alpha^{-1} come from one residual-checked solve with a
    right-hand side per site, and each replicate batch of cell noises
    rhs = mu*|D| + gamma*v + sqrt(v)*Z is mapped through W.  ``rng`` is
    an integer root seed (split into per-batch sub-streams, which
    ``threads`` workers may draw in parallel) or a Generator (single
    sequential stream).  ``constant_mixing`` freezes the mixing
    variables at a constant, which makes the field Gaussian (debugging
    hook).
    """
    if n < 0:
        raise DomainError("n must be non-negative")
    if isinstance(system, CoefficientMatrix):
        from .lintrans import simulate_linear

        return simulate_linear(system, noise, n, rng)
    if not isinstance(noise, TypeGNoise):
        raise ParameterError("FEM simulation needs a TypeGNoise specification")
    phi = basis_matrix(system.mesh, sites)
    areas = dual_cell_areas(system.mesh)
    if n == 0:
        return np.empty((0, phi.shape[0]))
    weights_t = system.solve_k_alpha(phi.toarray().T, check_residual=True)  # W^T

    def one_batch(size, stream):
        if constant_mixing is not None:
            v = np.full((size, areas.size), float(constant_mixing))
        else:
            v = noise.draw_mixing(stream, areas, size)
        z = stream.standard_normal((size, areas.size))
        rhs = noise.mu * areas[None, :] + noise.gamma * v + np.sqrt(v) * z
        return rhs @ weights_t

    return np.vstack(map_chunks(one_batch, n, batch, rng, threads))


def write_field_csv(path_or_buf, samples):
    """Stream a replicate matrix to CSV with the header site_1,...,site_m."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))

    def _write(fh):
        fh.write(",".join(f"site_{j + 1}" for j in range(samples.shape[1])) + "\n")
        for row in samples:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")

    if isinstance(path_or_buf, (str, bytes)):
        with open(path_or_buf, "w") as fh:
            _write(fh)
    else:
        _write(path_or_buf)


def write_matrix_coo(path_or_buf, matrix):
    """Export a sparse matrix as 'row,col,value' text (one entry per line)."""
    coo = sparse.coo_matrix(matrix)

    def _write(fh):
        fh.write("row,col,value\n")
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{i},{j},{float(v)!r}\n")

    if isinstance(path_or_buf, (str, bytes)):
        with open(path_or_buf, "w") as fh:
            _write(fh)
    else:
        _write(path_or_buf)
