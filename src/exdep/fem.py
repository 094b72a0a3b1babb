"""Finite element machinery for Whittle-Matern fields driven by type G noise.

Piecewise-linear (hat) bases on a triangulation give the lumped mass
C = diag(integral of phi_i), the row sums of the element mass with
entries area/6 and area/12, the stiffness G_ij = <grad phi_i,
grad phi_j> and the boundary mass B of the Robin ends du/dn + kappa u
= 0; the diagonal C is the sparse choice of the SPDE approach
(Lindgren, Rue & Lindstrom 2011).  The discretized fractional operator
for even exponents is the matrix polynomial

    K_2 = kappa^2 C + G + kappa B,      K_4 = K_2 C^{-1} K_2,      ...

and an odd exponent adds the half power K_1 = C^{1/2} S^{1/2} C^{1/2},
S = C^{-1/2} K_2 C^{-1/2}.  Its inverse is applied by a rational
approximation of S^{-1/2} with real positive shifts (Hale, Higham &
Trefethen, SIAM J. Numer. Anal. 2008), one sparse factorization of
K_2 + d_j C per shift, so no dense matrix is formed.  None of these
depends on alpha: :class:`FemSystem` is the operator of one mesh and
kappa, and alpha is an argument of each solve.  Since
K_{alpha+2}^{-1} = K_2^{-1} C K_alpha^{-1}, the sweep over exponents of
:func:`fem_coefficients` continues each parity's chain of K_2 solves:
alphas 2..5 take 4 K_2 steps and 3 applications of R (one to solve, and
one in each odd exponent's backward-error check), not 6 and 4.

Weights solve K_alpha w = (integral of phi_1 dM, ..., integral of
phi_n dM); with type G noise the cell values are normal mean-variance
mixtures over the dual cells D_j = {s : phi_j(s) >= phi_i(s) for all i},
whose mixing variables must come from a convolution-closed GIG subclass
(inverse Gaussian or gamma).

:func:`simulate_field` draws the field at the sites as the linear model
it is, X = W rhs with W = phi K_alpha^{-1}, through the package's one
sampler :func:`exdep.streams.draw_linear`: one block per dual-cell area
class (4, 27 and 37 on the 81-, 196- and 841-node meshes of
``simulate-and-chi --appendix-d``), in batches of 256 rows (``_BATCH``)
from one SFC64 sub-stream each.  A worker thread holds two batch-sized
cell-noise arrays (1.7 MB each on an 841-node mesh) and at most one
temporary of that size, beside the one column-major result.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from . import kernels
from .errors import DomainError, NonnegativityError, ParameterError, SolveError
from .lintrans import CoefficientMatrix
from .streams import draw_linear, map_chunks

__all__ = [
    "FemSystem",
    "TypeGNoise",
    "fem_assemble",
    "fem_coefficients",
    "inverse_sqrt_quadrature",
    "basis_matrix",
    "dual_cell_areas",
    "simulate_field",
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
        if not all(map(math.isfinite, (self.mu, self.gamma, self.psi, self.tau, self.lam))):
            raise ParameterError(f"type G noise parameters must be finite, got {self!r}")
        if self.psi <= 0.0:
            raise ParameterError("psi must be positive")
        if self.family == "nig" and self.tau <= 0.0:
            raise ParameterError("nig mixing needs tau > 0")
        if self.family == "variance_gamma" and self.lam <= 0.0:
            raise ParameterError("variance_gamma mixing needs lam > 0")

    def draw_mixing(self, stream, area, shape):
        """Mixing values of cells of one ``area``, an array of ``shape``,
        from one call of the sampler with scalar parameters."""
        if self.family == "nig":  # Wald law with mean area*sqrt(tau/psi), shape tau*area^2
            return stream.wald(area * math.sqrt(self.tau / self.psi), self.tau * area * area, shape)
        return stream.gamma(self.lam * area, 2.0 / self.psi, shape)


RATIONAL_TOL = 1e-13    # relative error bound of the odd-exponent quadrature
NEGATIVE_RTOL = 1e-10   # coefficients below -NEGATIVE_RTOL * rowmax abort; the rest are clamped
BACKWARD_TOL = 1e-12    # largest normwise backward error a K_alpha solve accepts
MAX_RATIO = 1e8        # largest spectrum ratio upper/lower the quadrature accepts
_LOG_GRID = 4097        # points of the log grid the quadrature error is taken on
_MAX_NODES = 60         # ratios up to MAX_RATIO need at most 40
_INVERSE_STEPS = 8      # inverse iterations behind the lower spectrum bound
_BATCH = 256            # replicates per simulate_field batch, one sub-stream each


class InverseSqrtQuadrature(NamedTuple):
    """sum_j weights[j] / (l + shifts[j]) = l^{-1/2} (1 + e(l)), where
    |e(l)| <= error on the log grid of the interval it was built for."""

    weights: np.ndarray
    shifts: np.ndarray
    error: float


def inverse_sqrt_quadrature(lower, upper):
    """Real positive shifts and weights approximating l^{-1/2} on [lower, upper].

    l^{-1/2} = (2/pi) int_0^inf dt / (t^2 + l).  The substitution
    t = sqrt(lower) sn(u)/cn(u) with parameter k^2 = 1 - lower/upper and
    the midpoint rule on u in (0, K(k^2)) converge geometrically in the
    node count N (Hale, Higham & Trefethen, SIAM J. Numer. Anal. 2008).
    N is the smallest count whose relative error on a log grid of
    [lower, upper] is at most RATIONAL_TOL / 2; the half leaves room for
    the error between grid points and its rounding.  Ratios
    upper/lower above MAX_RATIO raise :class:`ParameterError`: beyond
    about 7e8 scipy's ``ellipj`` loses the relative accuracy of ``cn``
    and ``dn`` that the tolerance needs.
    """
    from scipy.special import ellipj, ellipk  # odd alphas only

    if not 0.0 < lower <= upper <= MAX_RATIO * lower:
        raise ParameterError(f"need 0 < lower <= upper <= {MAX_RATIO:.0e} lower, "
                             f"got {lower!r}, {upper!r}")
    k2 = 1.0 - lower / upper
    top = lower / (1.0 - k2)  # the upper end the rounded k2 stands for
    big_k = float(ellipk(k2))
    grid = np.geomspace(lower, upper, _LOG_GRID)
    for n in range(1, _MAX_NODES + 1):
        sn, cn, dn, _ = ellipj((np.arange(n) + 0.5) * big_k / n, k2)
        # past K/2 cn loses relative accuracy; there the midpoint nodes
        # mirror those before it, and sn/cn, dn/cn^2 at K - u are
        # cn/(k' sn) and dn/(k' sn^2) at u, with k'^2 = lower/top
        first = np.arange(n) < n / 2.0
        shifts = np.where(first, lower * (sn / cn) ** 2, (top * (cn / sn) ** 2)[::-1])
        weights = (2.0 / np.pi) * (big_k / n) * np.where(
            first, math.sqrt(lower) * dn / cn ** 2, (math.sqrt(top) * dn / sn ** 2)[::-1])
        approx = np.sqrt(grid) * (weights / (grid[:, None] + shifts)).sum(axis=1)
        error = float(np.abs(approx - 1.0).max())
        if error <= RATIONAL_TOL / 2.0:
            return InverseSqrtQuadrature(weights, shifts, error)
    raise SolveError(f"no {_MAX_NODES}-node quadrature of l^(-1/2) on "
                     f"[{lower:.3g}, {upper:.3g}] within {RATIONAL_TOL:.0e}")


class FemSystem:
    """Lumped mass, stiffness and K_2 of one mesh and kappa, with the
    K_alpha solve operator for every exponent alpha in 2..6.

    Even exponents keep K_alpha a sparse matrix polynomial in K_2 and C.
    Odd exponents (needed for the smoothness sweep alpha = 2..5) go
    through R = sum_j c_j (K_2 + d_j C)^{-1}, the rational approximation
    of K_1^{-1} = C^{-1/2} S^{-1/2} C^{-1/2} from
    :func:`inverse_sqrt_quadrature` on the spectrum bounds of S.  The
    factorizations, the spectrum bounds and the quadrature do not depend
    on alpha: each is computed once, when a solve first needs it, and
    kept for every later solve of any exponent.
    """

    def __init__(self, mesh, kappa, mass_lumped, stiffness, boundary_mass):
        self.mesh = mesh
        self.kappa = kappa
        self.mass_lumped = mass_lumped      # diagonal of C
        self.stiffness = stiffness
        self.base = (kappa ** 2 * sparse.diags(mass_lumped) + stiffness
                     + kappa * boundary_mass).tocsc()  # K_2

    @property
    def mass_matrix(self):
        """The lumped mass C as a sparse diagonal matrix."""
        return sparse.diags(self.mass_lumped).tocsr()

    @functools.cached_property
    def spectrum_bounds(self):
        """(m, M) enclosing the spectrum of S = C^{-1/2} K_2 C^{-1/2}.

        M is the Gershgorin bound of the sparse S.  kappa^2 is always a
        lower bound, since S - kappa^2 I = C^{-1/2} (G + kappa B) C^{-1/2}
        is positive semidefinite.  With the Robin term kappa B the
        smallest eigenvalue is of order kappa, not kappa^2, and m is
        raised to the bound of :meth:`_inverse_iteration_bound` where that
        applies (meshes without obtuse angles); elsewhere it stays kappa^2.
        """
        root = 1.0 / np.sqrt(self.mass_lumped)
        upper = float(((abs(self.base) @ root) * root).max())
        return max(self.kappa ** 2, self._inverse_iteration_bound()), upper

    def _inverse_iteration_bound(self):
        """A lower bound of the smallest eigenvalue of S, or 0.

        When no off-diagonal entry of K_2 is positive (an M-matrix, as on
        meshes without obtuse angles while kappa h < 3), S^{-1} is
        entrywise nonnegative, so lambda_min(S) >= min_i v_i / (S^{-1} v)_i
        for every positive v (Collatz-Wielandt).  A few inverse iterations
        with the K_2 factorization make v close to the lowest eigenvector
        and the bound close to tight; 1% of it is given up to the rounding
        of the solves.
        """
        upper_off = sparse.triu(self.base, k=1)
        if upper_off.nnz and upper_off.data.max() > 0.0:
            return 0.0
        root = np.sqrt(self.mass_lumped)
        v = np.ones_like(root)
        bound = 0.0
        for _ in range(_INVERSE_STEPS):
            w = root * self._lu.solve(root * v)  # S^{-1} v
            if not w.min() > 0.0:
                return 0.0
            bound = max(bound, float((v / w).min()))
            v = w / w.max()
        return 0.99 * bound

    @functools.cached_property
    def quadrature(self):
        """The :class:`InverseSqrtQuadrature` of S^{-1/2} behind odd exponents."""
        lower, upper = self.spectrum_bounds
        if upper > MAX_RATIO * lower:
            raise ParameterError(
                f"kappa = {self.kappa!r} is too small for odd alpha on this mesh: "
                f"the spectrum ratio {upper / lower:.3g} of S is above {MAX_RATIO:.0e}")
        return inverse_sqrt_quadrature(lower, upper)

    @functools.cached_property
    def _lu(self):
        """The sparse LU factorization of K_2."""
        try:
            return spla.splu(self.base)
        except RuntimeError as exc:  # pragma: no cover
            raise SolveError(f"K_2 factorization failed: {exc}") from exc

    @functools.cached_property
    def _shifted(self):
        """The sparse LU factorizations of K_2 + d_j C, one per quadrature shift."""
        c = self.mass_matrix
        try:
            return [spla.splu((self.base + d * c).tocsc(), permc_spec="MMD_AT_PLUS_A")
                    for d in self.quadrature.shifts]
        except RuntimeError as exc:  # pragma: no cover
            raise SolveError(f"shifted K_2 factorization failed: {exc}") from exc

    def _half_inverse(self, rhs):
        """R rhs, the rational approximation of K_1^{-1} rhs."""
        return sum(w * lu.solve(rhs) for w, lu in zip(self.quadrature.weights, self._shifted))

    def solve_k_alpha(self, rhs, alpha, start=None):
        """K_alpha^{-1} rhs = (K_2^{-1} C)^{k-1} K_2^{-1} rhs for alpha = 2k
        and (K_2^{-1} C)^k R rhs for alpha = 2k + 1.

        ``start``, an (exponent, solution) pair of the same ``rhs`` with
        the parity of ``alpha`` and an exponent at most ``alpha``,
        continues that chain with x <- K_2^{-1} C x: the same operations
        in the same order as a fresh solve, so the result is bit-equal to
        it, without the steps up to ``exponent``.  Every solution is
        checked on its own: a normwise backward error
        (:meth:`backward_error`) above ``BACKWARD_TOL``, or a NaN one,
        raises :class:`SolveError`, and so does a ``start`` of another
        parity or a higher exponent.
        """
        alpha = _check_alpha(alpha)
        rhs = np.asarray(rhs, dtype=float)
        if start is None:
            start = (1, self._half_inverse(rhs)) if alpha % 2 else (2, self._lu.solve(rhs))
        exponent, x = start
        c = self.mass_matrix
        for _ in range(int(alpha - exponent) // 2):
            x = self._lu.solve(c @ x)
        eta = self.backward_error(x, rhs, alpha)
        if not eta <= BACKWARD_TOL:
            raise SolveError(f"K_alpha solve backward error {eta:.1e} above {BACKWARD_TOL:.0e}")
        return x

    def apply_k_alpha(self, x, alpha):
        """K_alpha x without forming the matrix product; an odd exponent
        uses K_{2k+1} x = K_{2k+2} R C x."""
        alpha = _check_alpha(alpha)
        x = np.asarray(x, dtype=float)
        if alpha % 2:
            x = self._half_inverse(self.mass_matrix @ x)
        y = self.base @ x
        scale = self.mass_lumped[:, None] if y.ndim == 2 else self.mass_lumped
        for _ in range((alpha + 1) // 2 - 1):
            y = self.base @ (y / scale)
        return y

    def backward_error(self, x, rhs, alpha):
        """Normwise backward error of K_alpha x = rhs, the largest over
        columns of ||K_alpha x - rhs|| / (||K_alpha|| ||x||).

        ||K_alpha|| = ||C^{1/2} S^{alpha/2} C^{1/2}|| is bounded by
        max(C) M^{alpha/2}, with M from :attr:`spectrum_bounds`.  A column
        with x = 0 reads 0 if its rhs is 0 and inf otherwise; NaN in x
        gives NaN.
        """
        x = np.asarray(x, dtype=float)
        norm_k = self.mass_lumped.max() * self.spectrum_bounds[1] ** (alpha / 2.0)
        res = np.atleast_1d(np.linalg.norm(self.apply_k_alpha(x, alpha) - rhs, axis=0))
        denom = norm_k * np.atleast_1d(np.linalg.norm(x, axis=0))
        with np.errstate(divide="ignore", invalid="ignore"):
            eta = res / denom
        eta[res == 0.0] = 0.0
        return float(eta.max())


def _boundary_mass(mesh):
    """Line-element mass matrix over the outer boundary edges, the edges of
    exactly one triangle.

    Each edge (i, j), i < j, is counted by its code i * n + j over the n
    nodes.  The codes sort in the lexicographic order of the (i, j) rows,
    so the edges come out in the order a row-wise ``np.unique`` gives.
    """
    n = mesh.n_nodes
    tris = mesh.triangles
    edges = np.sort(np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1)
    codes, counts = np.unique(edges[:, 0] * n + edges[:, 1], return_counts=True)
    i, j = np.divmod(codes[counts == 1], n)
    lengths = np.linalg.norm(mesh.nodes[i] - mesh.nodes[j], axis=1)
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([i, j, j, i])
    vals = np.concatenate([lengths / 3.0, lengths / 3.0, lengths / 6.0, lengths / 6.0])
    return sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _check_alpha(alpha):
    if alpha not in (2, 3, 4, 5, 6):  # 2.5 is rejected, 3.0 accepted as 3
        raise ParameterError(f"alpha must be an integer between 2 and 6, got {alpha!r}")
    return int(alpha)


def fem_assemble(mesh, kappa):
    """Assemble the lumped mass, stiffness and K_2 of a mesh, the
    :class:`FemSystem` that solves K_alpha for every alpha.

    The lumped mass is the row sums of the assembled element mass.  The
    ends are Robin, du/dn + kappa*u = 0, which suppresses boundary
    reflection of the discrete Green's function on desk-scale
    extensions: K_2 = kappa^2 C + G + kappa B.  A solve takes an integer
    ``alpha`` in 2..6.  Even values keep K_alpha a sparse matrix
    polynomial; odd values add the rational approximation of K_1^{-1},
    one sparse factorization per shift, so every exponent stays sparse.
    Genuinely non-integer exponents are out of scope.  Odd exponents
    need the spectrum ratio M/m of :attr:`FemSystem.spectrum_bounds` to
    be at most MAX_RATIO (1e8), else the solve raises
    :class:`ParameterError`.  m is of order kappa, so on the 2,704-node
    desk mesh (side 40, 6 rings) kappa down to about 5e-5 works.
    """
    kernels._check_kappa(kappa)
    tris = mesh.triangles
    p = mesh.nodes[tris]
    x, y = p[..., 0], p[..., 1]
    # edge coefficients of the linear basis on each triangle
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * np.abs(x[:, 0] * b[:, 0] + x[:, 1] * b[:, 1] + x[:, 2] * b[:, 2])

    n = mesh.n_nodes
    ii = np.repeat(tris, 3, axis=1).ravel()          # i index of each 3x3 block
    jj = np.tile(tris, (1, 3)).ravel()               # j index
    mass_block = (np.full((3, 3), 1.0 / 12.0) + np.eye(3) / 12.0).ravel()
    mass_vals = (area[:, None] * mass_block[None, :]).ravel()
    # block layout is row-major (i outer), matching ii/jj above
    stiff_vals = ((b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
                  / (4.0 * area)[:, None, None]).reshape(-1)

    mass = sparse.coo_matrix((mass_vals, (ii, jj)), shape=(n, n)).tocsr()
    stiffness = sparse.coo_matrix((stiff_vals, (ii, jj)), shape=(n, n)).tocsr()
    # the row sums of the element mass equal dual_cell_areas only up to
    # rounding (up to 1e-17 on lattice meshes), and the weights depend on them
    mass_lumped = np.asarray(mass.sum(axis=1)).ravel()
    return FemSystem(mesh, kappa, mass_lumped, stiffness, _boundary_mass(mesh))


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


def fem_coefficients(system, sites, alphas):
    """Rows phi(s_j)^T K_alpha^{-1} as a CoefficientMatrix, one per alpha
    of ``alphas``, in their order.

    A generator: the sites are located once, at the first ``next()``,
    and each alpha is solved only when its matrix is pulled, with a
    right-hand side per site.  It keeps, per parity, the solution of the
    highest exponent solved so far, and a higher exponent of that parity
    continues from it (the ``start`` of :meth:`FemSystem.solve_k_alpha`,
    bit-equal to a fresh solve); a lower one is solved afresh.  Entries
    more negative than ``-NEGATIVE_RTOL * rowmax`` abort (a mesh or
    solver problem); smaller negative round-off is clamped to zero.  The
    solve raises :class:`SolveError` when its normwise backward error is
    above ``BACKWARD_TOL``.
    """
    phi = basis_matrix(system.mesh, sites).toarray().T
    highest = {}  # parity -> (exponent, solution)
    for alpha in alphas:
        best = highest.get(alpha % 2)
        x = system.solve_k_alpha(phi, alpha, best if best and best[0] <= alpha else None)
        if best is None or best[0] < alpha:
            highest[alpha % 2] = (alpha, x)
        top, low = x.max(axis=0), x.min(axis=0)
        for j in np.flatnonzero(~(top > 0.0) | (low < -NEGATIVE_RTOL * top)):
            if not top[j] > 0.0:  # NaN included
                raise SolveError(f"site {j}: solve produced a non-positive or NaN row")
            raise NonnegativityError(
                f"site {j}: coefficient {low[j]:.3e} below -{NEGATIVE_RTOL:.0e} * rowmax")
        yield CoefficientMatrix(np.clip(x.T, 0.0, None))


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


def simulate_field(system, alpha, sites, noise, n, seed, constant_mixing=None, threads=1):
    """Replicates of the approximated FEM field at the given sites, an
    (n, k) array in column-major order.

    The field at the sites is the linear model X = W rhs of
    :func:`exdep.streams.draw_linear`, with W = phi K_alpha^{-1} from one
    solve checked by its backward error and the cell noises
    rhs = mu*|D| + gamma*v + sqrt(v)*Z.  Batch i of ``_BATCH`` (256)
    rows draws from the i-th sub-stream of the integer root ``seed``,
    and ``threads`` workers may draw batches in parallel.
    ``constant_mixing`` freezes the mixing variables at a constant, which
    makes the field Gaussian.  ``alpha`` is checked, and ``seed`` and
    ``threads`` as :func:`exdep.streams.map_chunks` checks them, also
    when n = 0.  The nodes are grouped by the exact value of their
    dual-cell area (``np.unique``; no rounding) and the columns of W
    permuted to that order once; each class is one block of the sampler,
    drawn by one ``draw_mixing`` call per batch, and ``constant_mixing``
    is one block over all nodes.
    """
    alpha = _check_alpha(alpha)
    if n < 0:
        raise DomainError("n must be non-negative")
    if not isinstance(noise, TypeGNoise):
        raise ParameterError("FEM simulation needs a TypeGNoise specification")
    map_chunks(None, 0, _BATCH, seed, threads)  # checks seed and threads before any solve
    phi = basis_matrix(system.mesh, sites)
    if n == 0:
        return np.empty((0, phi.shape[0]), order="F")
    areas = dual_cell_areas(system.mesh)
    classes, inverse, counts = np.unique(areas, return_inverse=True, return_counts=True)
    order = np.argsort(inverse, kind="stable")  # node indices, class by class
    weights = system.solve_k_alpha(phi.toarray().T, alpha)[order].T  # W, columns in class order
    if constant_mixing is not None:
        blocks = [(0, areas.size, lambda stream, shape, c=float(constant_mixing): c)]
    else:
        ends = np.cumsum(counts).tolist()
        blocks = [(first, end, lambda stream, shape, a=area: noise.draw_mixing(stream, a, shape))
                  for first, end, area in zip([0] + ends[:-1], ends, classes)]
    mixture = ((noise.mu * areas[order])[:, None], noise.gamma)
    return draw_linear(weights, blocks, n, seed, _BATCH, mixture, threads)
