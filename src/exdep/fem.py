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
K_2 + d_j C per shift, so no dense matrix is formed.  Since
K_{alpha+2}^{-1} = K_2^{-1} C K_alpha^{-1}, a sweep over exponents on one
right-hand side continues each parity's chain of K_2 solves: alphas
2..5 take 4 K_2 steps and 3 applications of R (one to solve, and one
in each odd exponent's backward-error check), not 6 and 4.

Weights solve K_alpha w = (integral of phi_1 dM, ..., integral of
phi_n dM); with type G noise the cell values are normal mean-variance
mixtures over the dual cells D_j = {s : phi_j(s) >= phi_i(s) for all i},
whose mixing variables must come from a convolution-closed GIG subclass
(inverse Gaussian or gamma).

:func:`simulate_field` draws replicates in batches of 256 rows
(``_BATCH``), batch i from the i-th SFC64 sub-stream of the root seed.  The
nodes are grouped once by the exact value of their dual-cell area (4,
27 and 37 classes on the 81-, 196- and 841-node meshes of
``simulate-and-chi --appendix-d``), and a batch is node-major: for
each class in ascending area, one scalar-parameter call draws the
mixing values of its nodes, then one call draws the normals.  So each
worker thread holds two batch-sized cell-noise arrays (1.7 MB each on
an 841-node mesh) and at most one temporary of that size, whatever the
number of replicates, beside the one column-major result.
"""

import copy
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .errors import DomainError, NonnegativityError, ParameterError, SolveError
from .lintrans import CoefficientMatrix
from .streams import map_chunks

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
        if self.psi <= 0.0:
            raise ParameterError("psi must be positive")
        if self.family == "nig" and self.tau <= 0.0:
            raise ParameterError("nig mixing needs tau > 0")
        if self.family == "variance_gamma" and self.lam <= 0.0:
            raise ParameterError("variance_gamma mixing needs lam > 0")

    def draw_mixing(self, rng, area, shape):
        """Mixing values of cells of one ``area``, an array of ``shape``,
        from one call of the sampler with scalar parameters."""
        if self.family == "nig":  # Wald law with mean area*sqrt(tau/psi), shape tau*area^2
            return rng.wald(area * math.sqrt(self.tau / self.psi), self.tau * area * area, shape)
        return rng.gamma(self.lam * area, 2.0 / self.psi, shape)


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
    """Assembled lumped mass, stiffness and the K_alpha solve operator.

    Even exponents keep K_alpha a sparse matrix polynomial in K_2 and C.
    Odd exponents (needed for the smoothness sweep alpha = 2..5) go
    through R = sum_j c_j (K_2 + d_j C)^{-1}, the rational approximation
    of K_1^{-1} = C^{-1/2} S^{-1/2} C^{-1/2} from
    :func:`inverse_sqrt_quadrature` on the spectrum bounds of S.

    The system and its :meth:`with_alpha` views share one cache: the
    factorizations, the quadrature, the basis rows of the last sites and,
    for the last right-hand side, the highest solution of each parity.
    """

    def __init__(self, mesh, kappa, alpha, mass_lumped, stiffness, boundary_mass):
        self.mesh = mesh
        self.kappa = kappa
        self.alpha = alpha
        self.mass_lumped = mass_lumped      # diagonal of C
        self.stiffness = stiffness
        self.base = (kappa ** 2 * sparse.diags(mass_lumped) + stiffness
                     + kappa * boundary_mass).tocsc()  # K_2
        self._factors = {}  # factorizations and last-solve caches, shared with with_alpha views

    def with_alpha(self, alpha):
        """The same assembled system with exponent ``alpha``.

        The view shares this system's factorizations, so each is computed
        once however many exponents use it.  It also shares the basis rows
        of the last sites of :func:`fem_coefficients` and the last solve
        chain of :meth:`solve_k_alpha`, so K_{alpha+2}^{-1} rhs after
        K_alpha^{-1} rhs costs one K_2 solve.
        """
        view = copy.copy(self)
        view.alpha = _check_alpha(alpha)
        return view

    @property
    def mass_matrix(self):
        """The lumped mass C as a sparse diagonal matrix."""
        return sparse.diags(self.mass_lumped).tocsr()

    @property
    def spectrum_bounds(self):
        """(m, M) enclosing the spectrum of S = C^{-1/2} K_2 C^{-1/2}.

        M is the Gershgorin bound of the sparse S.  kappa^2 is always a
        lower bound, since S - kappa^2 I = C^{-1/2} (G + kappa B) C^{-1/2}
        is positive semidefinite.  With the Robin term kappa B the
        smallest eigenvalue is of order kappa, not kappa^2, and m is
        raised to the bound of :meth:`_inverse_iteration_bound` where that
        applies (meshes without obtuse angles); elsewhere it stays kappa^2.
        """
        if "bounds" not in self._factors:
            root = 1.0 / np.sqrt(self.mass_lumped)
            upper = float(((abs(self.base) @ root) * root).max())
            lower = max(self.kappa ** 2, self._inverse_iteration_bound())
            self._factors["bounds"] = (lower, upper)
        return self._factors["bounds"]

    def _inverse_iteration_bound(self):
        """A lower bound of the smallest eigenvalue of S, or 0.

        When no off-diagonal entry of K_2 is positive (an M-matrix, as on
        meshes without obtuse angles while kappa h < 3), S^{-1} is
        entrywise nonnegative, so lambda_min(S) >= min_i v_i / (S^{-1} v)_i
        for every positive v (Collatz-Wielandt).  A few inverse iterations
        with the cached K_2 factorization make v close to the lowest
        eigenvector and the bound close to tight; 1% of it is given up to
        the rounding of the solves.
        """
        upper_off = sparse.triu(self.base, k=1)
        if upper_off.nnz and upper_off.data.max() > 0.0:
            return 0.0
        lu = self._factor()
        root = np.sqrt(self.mass_lumped)
        v = np.ones_like(root)
        bound = 0.0
        for _ in range(_INVERSE_STEPS):
            w = root * lu.solve(root * v)  # S^{-1} v
            if not w.min() > 0.0:
                return 0.0
            bound = max(bound, float((v / w).min()))
            v = w / w.max()
        return 0.99 * bound

    @property
    def quadrature(self):
        """The :class:`InverseSqrtQuadrature` of S^{-1/2} behind odd exponents."""
        if "quadrature" not in self._factors:
            lower, upper = self.spectrum_bounds
            if upper > MAX_RATIO * lower:
                raise ParameterError(
                    f"kappa = {self.kappa!r} is too small for odd alpha on this mesh: "
                    f"the spectrum ratio {upper / lower:.3g} of S is above {MAX_RATIO:.0e}")
            self._factors["quadrature"] = inverse_sqrt_quadrature(lower, upper)
        return self._factors["quadrature"]

    def _factor(self):
        if "lu" not in self._factors:
            try:
                self._factors["lu"] = spla.splu(self.base)
            except RuntimeError as exc:  # pragma: no cover
                raise SolveError(f"K_2 factorization failed: {exc}") from exc
        return self._factors["lu"]

    def _half_inverse(self, rhs):
        """R rhs, the rational approximation of K_1^{-1} rhs."""
        if "shifted" not in self._factors:
            c = self.mass_matrix
            try:
                self._factors["shifted"] = [
                    spla.splu((self.base + d * c).tocsc(), permc_spec="MMD_AT_PLUS_A")
                    for d in self.quadrature.shifts]
            except RuntimeError as exc:  # pragma: no cover
                raise SolveError(f"shifted K_2 factorization failed: {exc}") from exc
        return sum(w * lu.solve(rhs)
                   for w, lu in zip(self.quadrature.weights, self._factors["shifted"]))

    def solve_k_alpha(self, rhs):
        """K_alpha^{-1} rhs = (K_2^{-1} C)^{k-1} K_2^{-1} rhs for alpha = 2k
        and (K_2^{-1} C)^k R rhs for alpha = 2k + 1.

        For the last ``rhs`` (compared by value) the system and its
        :meth:`with_alpha` views keep, per parity, the solution of the
        highest exponent solved so far.  A higher exponent of that parity
        continues from it with x_alpha = K_2^{-1} C x_{alpha-2}, the same
        operations in the same order as a fresh solve, so the result is
        bit-equal to it; a lower one is solved afresh.  Each returned
        solution is a copy, checked on its own: a normwise backward error
        (:meth:`backward_error`) above ``BACKWARD_TOL``, or a NaN one,
        raises :class:`SolveError`, and only a solution that passes is
        kept.
        """
        rhs = np.asarray(rhs, dtype=float)
        last = self._factors.get("chain")
        if last is None or not np.array_equal(last[0], rhs):
            last = self._factors["chain"] = (rhs.copy(), {})
        solved = last[1]  # parity -> (exponent, solution)
        parity = self.alpha % 2
        lu = self._factor()
        c = self.mass_matrix
        best = solved.get(parity)
        if best is not None and best[0] <= self.alpha:
            exponent, x = best
        else:
            exponent, x = (1, self._half_inverse(rhs)) if parity else (2, lu.solve(rhs))
        for _ in range((self.alpha - exponent) // 2):
            x = lu.solve(c @ x)
        eta = self.backward_error(x, rhs)
        if not eta <= BACKWARD_TOL:
            raise SolveError(f"K_alpha solve backward error {eta:.1e} above {BACKWARD_TOL:.0e}")
        if best is None or best[0] < self.alpha:
            solved[parity] = (self.alpha, x)
        return x.copy(order="K")

    def apply_k_alpha(self, x):
        """K_alpha x without forming the matrix product; an odd exponent
        uses K_{2k+1} x = K_{2k+2} R C x."""
        x = np.asarray(x, dtype=float)
        if self.alpha % 2:
            x = self._half_inverse(self.mass_matrix @ x)
        y = self.base @ x
        scale = self.mass_lumped[:, None] if y.ndim == 2 else self.mass_lumped
        for _ in range((self.alpha + 1) // 2 - 1):
            y = self.base @ (y / scale)
        return y

    def backward_error(self, x, rhs):
        """Normwise backward error of K_alpha x = rhs, the largest over
        columns of ||K_alpha x - rhs|| / (||K_alpha|| ||x||).

        ||K_alpha|| = ||C^{1/2} S^{alpha/2} C^{1/2}|| is bounded by
        max(C) M^{alpha/2}, with M from :attr:`spectrum_bounds`.  A column
        with x = 0 reads 0 if its rhs is 0 and inf otherwise; NaN in x
        gives NaN.
        """
        x = np.asarray(x, dtype=float)
        norm_k = self.mass_lumped.max() * self.spectrum_bounds[1] ** (self.alpha / 2.0)
        res = np.atleast_1d(np.linalg.norm(self.apply_k_alpha(x) - rhs, axis=0))
        denom = norm_k * np.atleast_1d(np.linalg.norm(x, axis=0))
        with np.errstate(divide="ignore", invalid="ignore"):
            eta = res / denom
        eta[res == 0.0] = 0.0
        return float(eta.max())


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


def _check_alpha(alpha):
    if alpha not in (2, 3, 4, 5, 6):  # 2.5 is rejected, 3.0 accepted as 3
        raise ParameterError(f"alpha must be an integer between 2 and 6, got {alpha!r}")
    return int(alpha)


def fem_assemble(mesh, kappa, alpha):
    """Assemble the lumped mass, stiffness and the K_alpha operator on a mesh.

    The lumped mass is the row sums of the assembled element mass.  The
    ends are Robin, du/dn + kappa*u = 0, which suppresses boundary
    reflection of the discrete Green's function on desk-scale
    extensions: K_2 = kappa^2 C + G + kappa B.  ``alpha`` must be an
    integer in 2..6.  Even values keep K_alpha a sparse matrix
    polynomial; odd values add the rational approximation of K_1^{-1},
    one sparse factorization per shift, so every exponent stays sparse.
    Genuinely non-integer exponents are out of scope.  Odd exponents
    need the spectrum ratio M/m of :attr:`FemSystem.spectrum_bounds` to
    be at most MAX_RATIO (1e8), else the solve raises
    :class:`ParameterError`.  m is of order kappa, so on the 2,704-node
    desk mesh (side 40, 6 rings) kappa down to about 5e-5 works.
    """
    alpha = _check_alpha(alpha)
    if not 0.0 < kappa < math.inf:
        raise ParameterError(f"kappa must be positive and finite, got {kappa!r}")
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
    stiff_vals = ((b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
                  / (4.0 * area)[:, None, None]).reshape(len(tris), 9)
    # block layout is row-major (i outer), matching ii/jj above
    stiff_vals = stiff_vals.reshape(len(tris), 3, 3).transpose(0, 1, 2).reshape(-1)

    mass = sparse.coo_matrix((mass_vals, (ii, jj)), shape=(n, n)).tocsr()
    stiffness = sparse.coo_matrix((stiff_vals, (ii, jj)), shape=(n, n)).tocsr()
    # the row sums of the element mass equal dual_cell_areas only up to
    # rounding (up to 1e-17 on lattice meshes), and the weights depend on them
    mass_lumped = np.asarray(mass.sum(axis=1)).ravel()
    return FemSystem(mesh, kappa, alpha, mass_lumped, stiffness, _boundary_mass(mesh))


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


def fem_coefficients(system, sites):
    """Rows phi(s_j)^T K_alpha^{-1} as a CoefficientMatrix.

    One K_alpha solve with a right-hand side per site.  The system and
    its :meth:`FemSystem.with_alpha` views keep the basis rows phi of the
    last ``sites`` (compared by value), so a sweep over exponents locates
    the sites once, and :meth:`FemSystem.solve_k_alpha` continues from
    the last solve of the same parity.  Entries more negative than
    ``-NEGATIVE_RTOL * rowmax`` abort (a mesh or solver problem); smaller
    negative round-off is clamped to zero.  The solve raises
    :class:`SolveError` when its normwise backward error is above
    ``BACKWARD_TOL``.
    """
    last = system._factors.get("sites")
    if last is None or not np.array_equal(last[0], sites):
        last = system._factors["sites"] = (np.array(sites, dtype=float),
                                           basis_matrix(system.mesh, sites))
    rows = system.solve_k_alpha(last[1].toarray().T).T
    out = []
    for j, row in enumerate(rows):
        top = row.max()
        if not top > 0.0:  # NaN included
            raise SolveError(f"site {j}: solve produced a non-positive or NaN row")
        if row.min() < -NEGATIVE_RTOL * top:
            raise NonnegativityError(
                f"site {j}: coefficient {row.min():.3e} below -{NEGATIVE_RTOL:.0e} * rowmax"
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


def simulate_field(system, sites, noise, n, rng, constant_mixing=None, threads=1):
    """Replicates of the approximated FEM field at the given sites, an
    (n, k) array in column-major order.

    The field at the sites is the linear model X = W rhs: the site
    weights W = phi K_alpha^{-1} come from one solve with a right-hand
    side per site, checked by its backward error, and each replicate
    batch of cell noises rhs = mu*|D| + gamma*v + sqrt(v)*Z is mapped
    through W in one matrix product.  ``rng`` is an integer root seed
    (batch i draws from the i-th of its sub-streams, and ``threads``
    workers may draw batches in parallel) or a Generator (one sequential
    stream over the batches in order); batches hold ``_BATCH`` (256)
    rows, the last one fewer.  ``constant_mixing`` freezes the mixing
    variables at a constant, which makes the field Gaussian (the
    Gaussian control of the simulated comparisons).  ``threads`` is
    checked as :func:`exdep.streams.map_chunks` checks it, also when
    n = 0.

    The nodes are grouped by the exact value of their dual-cell area, in
    ascending order of the classes (``np.unique``; no rounding), and the
    columns of W are permuted to that order once.  A batch's noise is
    node-major, (n_nodes, size), so each class owns a contiguous block
    of rows: one ``draw_mixing`` call per class fills its block, class
    by class, then one call fills the batch's normals Z.  v becomes
    mu*|D| + gamma*v + sqrt(v)*Z in place: each term is rounded as in
    the formula, and the in-place steps only swap the operands of a
    product or a sum, which is exact, so the noise is bit-equal to
    building it in one piece.

    The result is allocated once, column-major, so each site's column is
    contiguous for :func:`exdep.estimate.exceedances`; each batch copies
    its product W v into its own rows, and concurrent batches write
    disjoint rows.  Memory is the result and W plus, per worker thread,
    two reused n_nodes x min(_BATCH, n) arrays (v and Z), one temporary
    of at most that size (a class's mixing values, then sqrt(v)) and one
    k x min(_BATCH, n) product.
    """
    if n < 0:
        raise DomainError("n must be non-negative")
    if not isinstance(noise, TypeGNoise):
        raise ParameterError("FEM simulation needs a TypeGNoise specification")
    phi = basis_matrix(system.mesh, sites)
    out = np.empty((n, phi.shape[0]), order="F")
    if n == 0:
        map_chunks(None, 0, _BATCH, rng, threads)  # checks threads, draws nothing
        return out
    areas = dual_cell_areas(system.mesh)
    classes, inverse, counts = np.unique(areas, return_inverse=True, return_counts=True)
    order = np.argsort(inverse, kind="stable")  # node indices, class by class
    ends = np.cumsum(counts).tolist()
    blocks = list(zip([0] + ends[:-1], ends, classes))  # (first row, end row, area)
    weights = system.solve_k_alpha(phi.toarray().T)[order].T  # W, columns in class order
    shift = (noise.mu * areas[order])[:, None]
    cells = areas.size * min(_BATCH, n)
    buffers = threading.local()  # concurrent batches must not share a buffer

    def one_batch(start, size, stream):
        if not hasattr(buffers, "v"):
            buffers.v = np.empty(cells)
            buffers.z = np.empty(cells)
        v = buffers.v[:areas.size * size].reshape(areas.size, size)
        if constant_mixing is not None:
            v.fill(float(constant_mixing))
        else:
            for first, end, area in blocks:
                v[first:end] = noise.draw_mixing(stream, area, (end - first, size))
        z = stream.standard_normal(out=buffers.z[:v.size].reshape(v.shape))
        z *= np.sqrt(v)  # sqrt(v)*Z
        v *= noise.gamma
        v += shift      # mu*|D| + gamma*v
        v += z
        out.T[:, start:start + size] = weights @ v

    map_chunks(one_batch, n, _BATCH, rng, threads)
    return out
