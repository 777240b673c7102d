"""Uniform P1 triangulations of the unit square.

Everything in this package is posed on Omega = (0,1)^2.  A mesh at
refinement level k places (2^k+1)^2 nodes on a uniform grid of spacing
h = 2^-k and splits every grid cell into two triangles along the diagonal
from the cell's lower-left to its upper-right corner.  Nodes are numbered
lexicographically, index = row*(2^k+1) + col, so the first coordinate
varies fastest; this fixes the sparse matrix structure and the order of
field dumps.

The triangles and the boundary edges are implied by the grid, so a mesh
stores only its node coordinates: the 2*4^k triangles are the two halves
(ll, lr, ur) and (ll, ur, ul) of every cell, and the 4*2^k boundary edges
are the grid segments on the sides of the square.

check_level is the one rule for what a level is, wherever one is given
(build_uniform_mesh, a config file's [mesh] and [verify] sections, the
scripts), and node_count the one node count.

Consecutive levels nest: the level-(k-1) nodes are the level-k nodes with
even row and column, and every coarse triangle is the union of four fine
ones.  prolong maps nodal values from level k-1 to level k exactly in P1
(the coarse function, read at the fine nodes).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

MAX_LEVEL = 12


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Immutable triangulation of the unit square.

    nodes  (n, 2) vertex coordinates, a read-only array
    h      grid spacing 2^-level
    level  refinement level k
    """

    nodes: np.ndarray
    h: float
    level: int

    @property
    def side(self) -> int:
        """Nodes on each grid line, 2^level + 1."""
        return 2**self.level + 1

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


def check_level(level) -> int:
    """level as an int; raises ConfigurationError unless it is an integer,
    not a bool, in [1, MAX_LEVEL]."""
    if not isinstance(level, (int, np.integer)) or isinstance(level, bool):
        raise ConfigurationError(f"level must be an integer, got {level!r}")
    if not 1 <= level <= MAX_LEVEL:
        raise ConfigurationError(f"level {level} outside [1, {MAX_LEVEL}]")
    return int(level)


def node_count(level: int) -> int:
    """Nodes of the level-k mesh, (2^k+1)^2."""
    return (2**level + 1) ** 2


def build_uniform_mesh(level: int) -> TriMesh:
    """Build the level-k triangulation: (2^k+1)^2 nodes, 2*4^k triangles."""
    level = check_level(level)
    h = 2.0 ** (-level)
    side = 2**level + 1
    xs = np.arange(side) * h
    nodes = np.column_stack([np.tile(xs, side), np.repeat(xs, side)])
    # read-only, so an expression may keep values computed from it
    nodes.flags.writeable = False
    return TriMesh(nodes=nodes, h=h, level=level)


def prolong(coarse: np.ndarray, level: int) -> np.ndarray:
    """P1 prolongation of nodal values from level - 1 to level.

    A shared node keeps its value; a fine node at the midpoint of a coarse
    edge (horizontal, vertical, or the ll -> ur diagonal that halves a
    cell) takes the mean of the edge's two endpoints.  So the centre of a
    coarse cell takes the mean of the cell's ll and ur corners.
    """
    m = 2 ** (int(level) - 1) + 1
    c = np.asarray(coarse, dtype=float).reshape(m, m)
    fine = np.empty((2 * m - 1, 2 * m - 1))
    fine[::2, ::2] = c
    fine[::2, 1::2] = 0.5 * (c[:, :-1] + c[:, 1:])
    fine[1::2, ::2] = 0.5 * (c[:-1, :] + c[1:, :])
    fine[1::2, 1::2] = 0.5 * (c[:-1, :-1] + c[1:, 1:])
    return fine.ravel()

