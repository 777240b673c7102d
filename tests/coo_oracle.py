"""Reference P1 assembly by element sweep: explicit connectivity and COO scatter.

The package assembles K, w and the boundary load from one grid cell and
never stores the triangles.  The tests compare it against this general
element-by-element assembly over explicit connectivity arrays.
"""

import numpy as np
import scipy.sparse as sp

from ssnbilinear.problem import check_spd_2x2


def connectivity(mesh):
    """Triangles (2*4^k, 3), counterclockwise, and boundary edges (4*2^k, 2)."""
    side = mesh.side
    n = side - 1
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
    return triangles, boundary_edges


def triangle_areas(mesh, triangles):
    """Signed areas of all triangles (positive for counterclockwise)."""
    p = mesh.nodes[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def assemble_stiffness(mesh, diffusion):
    """Exact P1 stiffness matrix by COO scatter of the element matrices.

    Element matrices are built for i <= j and mirrored, and the assembled
    sum is symmetrized without rounding via K = (K + K.T)/2.
    """
    d = check_spd_2x2(diffusion)
    tri, _ = connectivity(mesh)
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


def assemble_lumped_mass(mesh):
    """Lumped mass diagonal: w_i = (1/3) * total area of triangles at node i."""
    tri, _ = connectivity(mesh)
    area = triangle_areas(mesh, tri)
    w = np.zeros(mesh.n_nodes)
    np.add.at(w, tri.ravel(), np.repeat(area / 3.0, 3))
    return w


def assemble_boundary_load(mesh, g):
    """Boundary flux load: per-edge trapezoidal rule applied to nodal g."""
    _, edges = connectivity(mesh)
    pa = mesh.nodes[edges[:, 0]]
    pb = mesh.nodes[edges[:, 1]]
    length = np.hypot(pb[:, 0] - pa[:, 0], pb[:, 1] - pa[:, 1])
    ga = np.broadcast_to(np.asarray(g(pa), dtype=float), (len(edges),))
    gb = np.broadcast_to(np.asarray(g(pb), dtype=float), (len(edges),))
    b = np.zeros(mesh.n_nodes)
    np.add.at(b, edges[:, 0], 0.5 * length * ga)
    np.add.at(b, edges[:, 1], 0.5 * length * gb)
    return b
