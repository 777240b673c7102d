"""Mesh construction: counts, geometry, orientation, boundary cover,
and the transfer of nodal values between consecutive levels.

The mesh stores no connectivity; the triangles and boundary edges it
implies are built by the test oracle and checked here.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from coo_oracle import connectivity, triangle_areas
from hypothesis import given
from hypothesis import strategies as st

from ssnbilinear import ConfigurationError, build_uniform_mesh
from ssnbilinear.assembly import assemble_stiffness
from ssnbilinear.mesh import MAX_LEVEL, prolong

levels = st.integers(min_value=1, max_value=6)


@given(levels)
def test_counts_match_level(level):
    mesh = build_uniform_mesh(level)
    side = 2**level + 1
    triangles, boundary_edges = connectivity(mesh)
    assert mesh.level == level
    assert mesh.h == 2.0 ** (-level)
    assert mesh.side == side
    assert mesh.n_nodes == side * side
    assert mesh.n_cells == 4**level
    assert len(triangles) == 2 * 4**level
    assert len(boundary_edges) == 4 * 2**level


@given(levels)
def test_triangles_positive_and_uniform(level):
    mesh = build_uniform_mesh(level)
    areas = triangle_areas(mesh, connectivity(mesh)[0])
    assert np.all(areas > 0)
    # every triangle is half a grid cell; h^2/2 is a power of two, so exact
    assert np.max(np.abs(areas - mesh.h**2 / 2.0)) == 0.0
    assert abs(np.sum(areas) - 1.0) <= 1e-12


@given(levels)
def test_triangle_indices_valid(level):
    mesh = build_uniform_mesh(level)
    tri, _ = connectivity(mesh)
    assert tri.min() >= 0 and tri.max() < mesh.n_nodes
    # three distinct vertices per triangle
    assert np.all(tri[:, 0] != tri[:, 1])
    assert np.all(tri[:, 1] != tri[:, 2])
    assert np.all(tri[:, 0] != tri[:, 2])


def test_nodes_lexicographic():
    mesh = build_uniform_mesh(2)
    side = 5
    for i in (0, 1, 7, 13, 24):
        row, col = divmod(i, side)
        np.testing.assert_allclose(mesh.nodes[i], [col * 0.25, row * 0.25])
    np.testing.assert_allclose(mesh.nodes[12], [0.5, 0.5])
    # expressions keep values computed from read-only points
    with pytest.raises(ValueError, match="read-only"):
        mesh.nodes[0, 0] = 1.0


@given(levels)
def test_boundary_edges_cover_boundary(level):
    mesh = build_uniform_mesh(level)
    _, edges = connectivity(mesh)
    undirected = {frozenset(map(int, e)) for e in edges}
    assert len(undirected) == len(edges)  # no duplicates

    x = mesh.nodes
    on_boundary = (
        (x[:, 0] == 0.0) | (x[:, 0] == 1.0) | (x[:, 1] == 0.0) | (x[:, 1] == 1.0)
    )
    assert set(edges.ravel().tolist()) == set(np.flatnonzero(on_boundary).tolist())

    pa, pb = x[edges[:, 0]], x[edges[:, 1]]
    lengths = np.hypot(pb[:, 0] - pa[:, 0], pb[:, 1] - pa[:, 1])
    assert np.max(np.abs(lengths - mesh.h)) == 0.0
    assert abs(np.sum(lengths) - 4.0) <= 1e-12
    # each edge lies along one side of the square
    along_side = (pa[:, 0] == pb[:, 0]) | (pa[:, 1] == pb[:, 1])
    assert np.all(along_side)


@given(levels)
def test_node_triangle_incidence(level):
    mesh = build_uniform_mesh(level)
    counts = np.zeros(mesh.n_nodes, dtype=int)
    np.add.at(counts, connectivity(mesh)[0].ravel(), 1)
    side = 2**level + 1
    x = mesh.nodes
    on_boundary = (
        (x[:, 0] == 0.0) | (x[:, 0] == 1.0) | (x[:, 1] == 0.0) | (x[:, 1] == 1.0)
    )
    assert np.all(counts[~on_boundary] == 6)
    # the split diagonal runs lower-left to upper-right, so those two corners
    # touch two triangles and the other two corners touch one
    ll, lr = 0, side - 1
    ul, ur = side * (side - 1), side * side - 1
    assert counts[ll] == 2 and counts[ur] == 2
    assert counts[lr] == 1 and counts[ul] == 1
    edge_only = on_boundary.copy()
    edge_only[[ll, lr, ul, ur]] = False
    assert np.all(counts[edge_only] == 3)


@pytest.mark.parametrize("bad", [0, MAX_LEVEL + 1, -3, 2.5, "3", True, None])
def test_level_validation(bad):
    with pytest.raises(ConfigurationError):
        build_uniform_mesh(bad)


def test_numpy_integer_level_accepted():
    mesh = build_uniform_mesh(np.int64(3))
    assert mesh.level == 3


# --- transfer between levels ---------------------------------------------


def prolongation_matrix(level):
    """The matrix of prolong from level - 1 to level, column by column."""
    n_coarse = (2 ** (level - 1) + 1) ** 2
    rows, cols, vals = [], [], []
    for i in range(n_coarse):
        e = np.zeros(n_coarse)
        e[i] = 1.0
        column = prolong(e, level)
        nz = np.flatnonzero(column)
        rows.append(nz)
        cols.append(np.full(len(nz), i))
        vals.append(column[nz])
    n_fine = (2**level + 1) ** 2
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_fine, n_coarse),
    )


@pytest.mark.parametrize("coarse_level", range(2, 7))
def test_prolongation_nests_the_stiffness(coarse_level):
    # the P1 spaces nest, so P^T K_fine P is the coarse stiffness matrix
    fine = build_uniform_mesh(coarse_level + 1)
    coarse = build_uniform_mesh(coarse_level)
    p = prolongation_matrix(fine.level)
    for diffusion in (
        np.eye(2),
        np.array([[2.0, 0.3], [0.3, 1.0]]),
        np.array([[1.0, -0.7], [-0.7, 3.1]]),
    ):
        k_coarse = assemble_stiffness(coarse, diffusion)
        galerkin = p.T @ assemble_stiffness(fine, diffusion) @ p
        gap = abs(galerkin - k_coarse).max()
        if diffusion[0, 1] == 0.0:
            assert gap == 0.0
        else:
            assert gap <= 1e-15 * abs(k_coarse).max()


@pytest.mark.parametrize("level", range(2, 9))
def test_prolongation_reproduces_linear_functions(level):
    fine = build_uniform_mesh(level).nodes
    coarse = build_uniform_mesh(level - 1).nodes
    # dyadic coefficients keep every nodal value and midpoint mean exact
    for c0, c1, c2 in ((1.0, 0.0, 0.0), (3.0, -2.0, 5.0), (-0.5, 0.25, 1.75)):

        def f(x):
            return c0 + c1 * x[:, 0] + c2 * x[:, 1]

        np.testing.assert_array_equal(prolong(f(coarse), level), f(fine))
