"""Mesh construction: counts, geometry, orientation, boundary cover."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssnbilinear import ConfigurationError, build_uniform_mesh
from ssnbilinear.mesh import MAX_LEVEL, triangle_areas

levels = st.integers(min_value=1, max_value=6)


@given(levels)
def test_counts_match_level(level):
    mesh = build_uniform_mesh(level)
    side = 2**level + 1
    assert mesh.level == level
    assert mesh.h == 2.0 ** (-level)
    assert mesh.n_nodes == side * side
    assert mesh.n_triangles == 2 * 4**level
    assert len(mesh.boundary_edges) == 4 * 2**level


@given(levels)
def test_triangles_positive_and_uniform(level):
    mesh = build_uniform_mesh(level)
    areas = triangle_areas(mesh)
    assert np.all(areas > 0)
    # every triangle is half a grid cell; h^2/2 is a power of two, so exact
    assert np.max(np.abs(areas - mesh.h**2 / 2.0)) == 0.0
    assert abs(np.sum(areas) - 1.0) <= 1e-12


@given(levels)
def test_triangle_indices_valid(level):
    mesh = build_uniform_mesh(level)
    tri = mesh.triangles
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


@given(levels)
def test_boundary_edges_cover_boundary(level):
    mesh = build_uniform_mesh(level)
    edges = mesh.boundary_edges
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
    np.add.at(counts, mesh.triangles.ravel(), 1)
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
