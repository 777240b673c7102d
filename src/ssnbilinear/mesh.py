"""Uniform P1 triangulations of the unit square.

Everything in this package is posed on Omega = (0,1)^2.  A mesh at
refinement level k places (2^k+1)^2 nodes on a uniform grid of spacing
h = 2^-k and splits every grid cell into two triangles along the diagonal
from the cell's lower-left to its upper-right corner.  Nodes are numbered
lexicographically, index = row*(2^k+1) + col, so the first coordinate
varies fastest; this fixes the sparse matrix structure and the order of
field dumps.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

MAX_LEVEL = 12


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Immutable triangulation of the unit square.

    nodes           (n, 2) vertex coordinates
    triangles       (m, 3) node indices, counterclockwise
    boundary_edges  (b, 2) node index pairs covering the boundary
    h               grid spacing 2^-level
    level           refinement level k
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    h: float
    level: int

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


def build_uniform_mesh(level: int) -> TriMesh:
    """Build the level-k triangulation: (2^k+1)^2 nodes, 2*4^k triangles."""
    if not isinstance(level, (int, np.integer)) or isinstance(level, bool):
        raise ConfigurationError(f"mesh level must be an integer, got {level!r}")
    if not 1 <= level <= MAX_LEVEL:
        raise ConfigurationError(
            f"mesh level must be in [1, {MAX_LEVEL}], got {level}"
        )
    n = 2 ** int(level)
    h = 2.0 ** (-int(level))
    side = n + 1

    xs = np.arange(side) * h
    nodes = np.column_stack([np.tile(xs, side), np.repeat(xs, side)])

    # Cell corners, row-major over cells; the shared diagonal runs ll -> ur.
    col, row = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ll = (row * side + col).ravel()
    lr = ll + 1
    ul = ll + side
    ur = ul + 1
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([ll, lr, ur])
    triangles[1::2] = np.column_stack([ll, ur, ul])

    k = np.arange(n)
    bottom = np.column_stack([k, k + 1])
    top = np.column_stack([n * side + k, n * side + k + 1])
    left = np.column_stack([k * side, (k + 1) * side])
    right = np.column_stack([k * side + n, (k + 1) * side + n])
    boundary_edges = np.vstack([bottom, right, top, left]).astype(np.int64)

    return TriMesh(
        nodes=nodes,
        triangles=triangles,
        boundary_edges=boundary_edges,
        h=h,
        level=int(level),
    )


def triangle_areas(mesh: TriMesh) -> np.ndarray:
    """Signed areas of all triangles (positive for counterclockwise)."""
    p = mesh.nodes[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
