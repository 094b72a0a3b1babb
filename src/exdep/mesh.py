"""Discretizations feeding the coefficient-matrix machinery.

One-dimensional one-sided partitions approximate the causal moving
average u(s) = integral over (-inf, s] of G(s - t) dM(t) by left-endpoint
sums over the cells [t_i, t_{i+1}) lying entirely below s.  Triangulated
2-d lattices approximate the two-sided convolution by one representative
point per cell, its centroid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, PreconditionError, SingularCoefficientError
from .kernels import exponential_kernel
from .lintrans import CoefficientMatrix

__all__ = [
    "Partition1D",
    "Mesh2D",
    "partition_1d",
    "lattice_mesh_2d",
    "ou_coefficients",
    "integral_coefficients",
]



def _cross2(a, b):
    """z component of the cross product of stacked 2-d vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]

@dataclass(frozen=True)
class Partition1D:
    """Strictly increasing partition points t_0 < ... < t_m = T."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ParameterError("a partition needs at least two points")
        if np.any(np.diff(pts) <= 0.0):
            raise ParameterError("partition points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def start(self):
        return float(self.points[0])

    @property
    def end(self):
        return float(self.points[-1])


def partition_1d(start, end, delta):
    """The equidistant partition of [start, end] with cell count
    round((end - start)/delta), at least one; ``Partition1D(points)``
    takes explicit points."""
    if start >= end:
        raise ParameterError("start must be below end")
    if delta <= 0.0:
        raise ParameterError("delta must be positive")
    m = max(1, round((end - start) / delta))
    return Partition1D(np.linspace(start, end, m + 1))


def ou_coefficients(a, sites, partition):
    """Coefficient matrix of the one-sided exponential moving average, one
    row per site s in (start, end] of the partition.

    Cell i = [t_i, t_{i+1}) enters the row of s with the weight G(s - t_i)
    of :func:`exdep.kernels.exponential_kernel` when the cell lies
    entirely below s, so the largest coefficient of each row sits at the
    last full cell below its site, which must exist.
    """
    kern = exponential_kernel(a)
    pts = partition.points
    sites = np.asarray(sites, dtype=float)
    inside = (partition.start < sites) & (sites <= partition.end)
    if sites.ndim != 1 or not inside.size or not inside.all():
        raise PreconditionError("need one or more sites s, each in (start, end] of the partition")
    # full[j] = index of the largest partition point <= s_j; snapping is fuzzy
    # so sites on a cell boundary up to float rounding behave as in exact arithmetic
    eps = 1e-9 * float(np.diff(pts).min())
    full = np.searchsorted(pts, sites + eps, side="right") - 1
    if np.any(full < 1):
        raise PreconditionError("no full cell below a site; extend the partition left")
    below = np.arange(full.max()) < full[:, None]  # the full cells below each site
    lags = np.where(below, sites[:, None] - pts[:full.max()], 0.0)
    return CoefficientMatrix(np.where(below, kern(lags), 0.0))


class Mesh2D:
    """Triangulation given by nodes and node-index triples.

    Triangles must be non-degenerate; orientation is normalized to
    counter-clockwise.
    """

    def __init__(self, nodes, triangles):
        nodes = np.asarray(nodes, dtype=float)
        triangles = np.asarray(triangles, dtype=int)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ParameterError("nodes must be (n, 2)")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ParameterError("triangles must be (m, 3)")
        if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= len(nodes):
            raise ParameterError("triangle indices out of range")
        p = nodes[triangles]
        cross = _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        degenerate = np.abs(cross) < 1e-14
        if np.any(degenerate):
            raise ParameterError(f"degenerate triangle(s) at {np.nonzero(degenerate)[0].tolist()}")
        flip = cross < 0.0
        triangles = triangles.copy()
        triangles[flip] = triangles[flip][:, [0, 2, 1]]
        nodes.setflags(write=False)
        triangles.setflags(write=False)
        self.nodes = nodes
        self.triangles = triangles

    @property
    def n_nodes(self):
        return len(self.nodes)

    def triangle_areas(self):
        p = self.nodes[self.triangles]
        return 0.5 * np.abs(_cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]))

    def centroids(self):
        return self.nodes[self.triangles].mean(axis=1)

    def barycentric(self, point):
        """Barycentric coordinates of ``point`` in every triangle, (m, 3)."""
        p = self.nodes[self.triangles]
        v0 = p[:, 1] - p[:, 0]
        v1 = p[:, 2] - p[:, 0]
        v2 = np.asarray(point, dtype=float) - p[:, 0]
        den = _cross2(v0, v1)
        l1 = _cross2(v2, v1) / den
        l2 = _cross2(v0, v2) / den
        return np.stack([1.0 - l1 - l2, l1, l2], axis=1)

    def locate(self, point):
        """Index of a triangle containing ``point`` (to barycentric
        coordinates of -1e-10) plus its barycentric coordinates; raises
        when the point is outside the mesh."""
        bary = self.barycentric(point)
        inside = np.all(bary >= -1e-10, axis=1)
        hits = np.nonzero(inside)[0]
        if hits.size == 0:
            raise DomainError(f"point {tuple(np.asarray(point).tolist())} lies outside the mesh")
        i = int(hits[0])
        return i, np.clip(bary[i], 0.0, None)


def lattice_mesh_2d(bbox, nodes_per_side, extension_cells=0):
    """Regular triangulated lattice over ``bbox`` = (xmin, ymin, xmax, ymax).

    Each lattice square is split into two triangles along its lower-left
    to upper-right diagonal; ``extension_cells`` outer rings of cells at
    the same resolution pad the box.  Node ordering is row-major and
    deterministic.
    """
    if nodes_per_side < 2:
        raise ParameterError("need at least two nodes per side")
    if extension_cells < 0:
        raise ParameterError("extension_cells must be non-negative")
    xmin, ymin, xmax, ymax = map(float, bbox)
    if xmin >= xmax or ymin >= ymax:
        raise ParameterError("bounding box is empty")
    dx = (xmax - xmin) / (nodes_per_side - 1)
    dy = (ymax - ymin) / (nodes_per_side - 1)
    e = extension_cells
    xs = xmin + dx * np.arange(-e, nodes_per_side + e)
    ys = ymin + dy * np.arange(-e, nodes_per_side + e)
    nx, ny = len(xs), len(ys)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([gx.ravel(), gy.ravel()])

    tris = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            k = j * nx + i
            tris.append((k, k + 1, k + nx + 1))
            tris.append((k, k + nx + 1, k + nx))
    return Mesh2D(nodes, np.array(tris, dtype=int))


def integral_coefficients(kernel, sites, mesh):
    """Coefficient matrix of the two-sided integral approximation.

    Entry (j, i) = G(||s_j - d_i||) with d_i the centroid of cell i.
    """
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    reps = mesh.centroids()
    dists = np.linalg.norm(sites[:, None, :] - reps[None, :, :], axis=2)
    if math.isinf(kernel.value_at_zero) and np.any(dists == 0.0):
        raise SingularCoefficientError(
            "a site coincides with a cell representative and G(0) is infinite; "
            "jitter the site or the representative"
        )
    entries = kernel(dists.ravel()).reshape(dists.shape)
    return CoefficientMatrix(entries)
