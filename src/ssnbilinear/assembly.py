"""P1 finite element assembly on triangulations of the unit square.

The stiffness matrix is assembled exactly (P1 gradients are constant per
triangle).  Every zeroth-order term is discretized with the lumped nodal
quadrature rule: node i carries the weight w_i = (1/3) * (area of the
triangles containing i).  A reaction term c(x)*y then contributes the
diagonal matrix diag(w*c), the discrete L2 inner product of nodal fields
f and g is sum_i w_i f_i g_i, and the measure of a node set is the sum of
its weights.  Boundary data enters through a per-edge trapezoidal rule,
which is the boundary analogue of the same lumping.
"""

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError
from .mesh import TriMesh, triangle_areas


def _check_spd_2x2(diffusion) -> np.ndarray:
    d = np.asarray(diffusion, dtype=float)
    if d.shape != (2, 2):
        raise ConfigurationError(f"diffusion must be 2x2, got shape {d.shape}")
    if not np.isfinite(d).all():
        raise ConfigurationError("diffusion entries must be finite")
    if d[0, 1] != d[1, 0]:
        raise ConfigurationError("diffusion must be symmetric")
    if d[0, 0] <= 0.0 or np.linalg.det(d) <= 0.0:
        raise ConfigurationError("diffusion must be positive definite")
    return d


def assemble_stiffness(mesh: TriMesh, diffusion) -> sp.csr_matrix:
    """Exact P1 stiffness matrix of -div(diffusion grad .), natural BCs.

    The returned matrix is exactly symmetric: element matrices are built
    for i <= j and mirrored, and the assembled sum is symmetrized without
    rounding via K = (K + K.T)/2.
    """
    d = _check_spd_2x2(diffusion)
    tri = mesh.triangles
    p = mesh.nodes[tri]
    # Edge opposite vertex i, in counterclockwise order.
    e = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]
    area = 0.5 * (e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0])
    # grad(lambda_i) = perp(e_i) / (2 area), perp(a, b) = (-b, a)
    grad = np.empty_like(e)
    grad[:, :, 0] = -e[:, :, 1]
    grad[:, :, 1] = e[:, :, 0]
    grad /= (2.0 * area)[:, None, None]

    dg = grad @ d.T
    ke = np.empty((tri.shape[0], 3, 3))
    for i in range(3):
        for j in range(i, 3):
            val = area * (grad[:, i, 0] * dg[:, j, 0] + grad[:, i, 1] * dg[:, j, 1])
            ke[:, i, j] = val
            ke[:, j, i] = val

    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    n = mesh.n_nodes
    k = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return ((k + k.T) * 0.5).tocsr()


def assemble_lumped_mass(mesh: TriMesh) -> np.ndarray:
    """Lumped mass diagonal: w_i = (1/3) * total area of triangles at node i."""
    area = triangle_areas(mesh)
    w = np.zeros(mesh.n_nodes)
    np.add.at(w, mesh.triangles.ravel(), np.repeat(area / 3.0, 3))
    return w


def assemble_boundary_load(mesh: TriMesh, g) -> np.ndarray:
    """Boundary flux load: per-edge trapezoidal rule applied to nodal g.

    g is called with an (k, 2) array of boundary coordinates and must
    return values broadcastable to (k,).
    """
    edges = mesh.boundary_edges
    pa = mesh.nodes[edges[:, 0]]
    pb = mesh.nodes[edges[:, 1]]
    length = np.hypot(pb[:, 0] - pa[:, 0], pb[:, 1] - pa[:, 1])
    ga = np.broadcast_to(np.asarray(g(pa), dtype=float), (len(edges),))
    gb = np.broadcast_to(np.asarray(g(pb), dtype=float), (len(edges),))
    b = np.zeros(mesh.n_nodes)
    np.add.at(b, edges[:, 0], 0.5 * length * ga)
    np.add.at(b, edges[:, 1], 0.5 * length * gb)
    return b
