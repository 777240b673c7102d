"""P1 finite element assembly on the uniform triangulation of the unit square.

The stiffness matrix is assembled exactly (P1 gradients are constant per
triangle).  Every zeroth-order term is discretized with the lumped nodal
quadrature rule: node i carries the weight w_i = (1/3) * (area of the
triangles containing i).  A reaction term c(x)*y then contributes the
diagonal matrix diag(w*c), the discrete L2 inner product of nodal fields
f and g is sum_i w_i f_i g_i, and the measure of a node set is the sum of
its weights.  Boundary data enters through a per-edge trapezoidal rule,
which is the boundary analogue of the same lumping.

No triangle list is needed: every grid cell holds the same two triangles
(see mesh), so each quantity is one cell's contribution summed over the
cells at each node, in O(n) time and memory.
"""

import numpy as np
import scipy.sparse as sp

from .mesh import TriMesh
from .problem import check_spd_2x2, nodal

# (row, col) offsets of a cell's corners ll, lr, ul, ur from its ll node.
_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))
# The cell's two triangles (ll, lr, ur) and (ll, ur, ul) as corner indices,
# with the gradients of their hat functions on the unit cell.
_TRIANGLES = (
    ((0, 1, 3), np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]])),
    ((0, 3, 2), np.array([[0.0, -1.0], [1.0, 0.0], [-1.0, 1.0]])),
)


def _corner_sum(side: int, values) -> np.ndarray:
    """Per node, the sum over the cells at the node of values[c], c its corner there."""
    out = np.zeros((side, side))
    for (row, col), value in zip(_CORNERS, values):
        out[row : side - 1 + row, col : side - 1 + col] += value
    return out.ravel()


def _cell_stiffness(d: np.ndarray) -> np.ndarray:
    """4x4 stiffness matrix of one cell over its corners ll, lr, ul, ur.

    A P1 stiffness matrix in 2-D does not depend on the cell size, so the
    unit cell (triangle area 1/2) gives every level's cell matrix.  Its
    gradients have entries 0 and +-1, so every product is exact, and each
    entry and its mirror round the same one or two sums of entries of the
    symmetric d: the cell matrix is exactly symmetric.
    """
    cell = np.zeros((4, 4))
    for corners, grad in _TRIANGLES:
        cell[np.ix_(corners, corners)] += 0.5 * (grad @ d @ grad.T)
    return cell


def assemble_stiffness(mesh: TriMesh, diffusion) -> sp.csr_matrix:
    """Exact P1 stiffness matrix of -div(diffusion grad .), natural BCs.

    K[i, j] sums the cell matrix entry of the corners of i and j over the
    cells holding both, so K has one diagonal per corner offset j - i: at
    most 7 (the ll -> ur diagonal couples ll and ur, never lr and ul).
    Diagonal j - i and i - j come from one symmetric cell matrix, so K is
    exactly symmetric.
    """
    cell = _cell_stiffness(check_spd_2x2(diffusion))
    side = mesh.side
    shift = [row * side + col for row, col in _CORNERS]
    # DIA stores K[i, j] at column j, the node in corner q of the cell.
    diagonals: dict[int, list[float]] = {}
    for p, q in zip(*np.nonzero(cell)):
        diagonals.setdefault(shift[q] - shift[p], [0.0] * 4)[q] = cell[p, q]
    offsets = sorted(diagonals)
    data = np.array([_corner_sum(side, diagonals[k]) for k in offsets])
    n = mesh.n_nodes
    return sp.dia_matrix((data, offsets), shape=(n, n)).tocsr()


def assemble_lumped_mass(mesh: TriMesh) -> np.ndarray:
    """Lumped mass diagonal: w_i = (1/3) * total area of triangles at node i.

    Every triangle has area h^2/2 and a node lies in 1, 2, 3 or 6 of them;
    w_i is the running sum of that many shares (h^2/2)/3, as a sweep over
    the triangles adds them.
    """
    count = _corner_sum(mesh.side, (2, 1, 1, 2)).astype(np.intp)
    share = 0.5 * mesh.h * mesh.h / 3.0
    return np.cumsum(np.full(6, share))[count - 1]


def assemble_boundary_load(mesh: TriMesh, g) -> np.ndarray:
    """Boundary flux load: per-edge trapezoidal rule applied to nodal g.

    Every boundary node ends two boundary edges of length h, so it gets
    h * g(x).  g is called with an (k, 2) array of boundary coordinates.
    """
    # the boundary nodes are those in fewer than four cells
    edge = np.flatnonzero(_corner_sum(mesh.side, (1, 1, 1, 1)) < 4)
    b = np.zeros(mesh.n_nodes)
    b[edge] = mesh.h * nodal(g, mesh.nodes[edge])
    return b
