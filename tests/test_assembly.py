"""Assembly oracles: exact stiffness values, lumped quadrature identities."""

import os
import subprocess
import sys
from pathlib import Path

import coo_oracle
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from ssnbilinear import (
    ConfigurationError,
    Discretization,
    benchmark_instance,
    build_uniform_mesh,
)
from ssnbilinear.assembly import (
    assemble_boundary_load,
    assemble_lumped_mass,
    assemble_stiffness,
)

levels = st.integers(min_value=1, max_value=5)


def brute_force_weights(mesh):
    """Independent lumped-mass oracle: sweep triangles one by one."""
    w = np.zeros(mesh.n_nodes)
    for tri in coo_oracle.connectivity(mesh)[0]:
        p = mesh.nodes[tri]
        area = 0.5 * abs(
            (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
            - (p[1, 1] - p[0, 1]) * (p[2, 0] - p[0, 0])
        )
        for v in tri:
            w[v] += area / 3.0
    return w


# --- stiffness ---------------------------------------------------------


def spd_from(d11, d22, corr):
    off = corr * np.sqrt(d11 * d22)
    return np.array([[d11, off], [off, d22]])


spd_matrices = st.builds(
    spd_from,
    st.floats(0.01, 100.0),
    st.floats(0.01, 100.0),
    st.floats(-0.99, 0.99),
)


@given(levels, st.one_of(st.just(np.eye(2)), spd_matrices))
def test_stiffness_exactly_symmetric(level, diffusion):
    k = assemble_stiffness(build_uniform_mesh(level), diffusion)
    assert abs(k - k.T).max() == 0.0


@given(levels)
def test_stiffness_rows_sum_to_zero(level):
    mesh = build_uniform_mesh(level)
    k = assemble_stiffness(mesh, np.eye(2))
    assert np.max(np.abs(k @ np.ones(mesh.n_nodes))) <= 1e-12


@pytest.mark.parametrize("level,center", [(1, 4), (3, 9 * 4 + 4)])
def test_five_point_stencil_at_interior_node(level, center):
    # right-triangle split of a square cell gives the classical 5-point
    # stencil for the Laplacian: 4 on the diagonal, -1 to each axis
    # neighbor, 0 along the split diagonal (opposite angles are right)
    mesh = build_uniform_mesh(level)
    side = 2**level + 1
    row = assemble_stiffness(mesh, np.eye(2))[center].toarray().ravel()
    assert row[center] == pytest.approx(4.0, abs=1e-13)
    for d in (1, -1, side, -side):
        assert row[center + d] == pytest.approx(-1.0, abs=1e-13)
    for d in (side + 1, -side - 1):
        assert row[center + d] == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize(
    "diffusion,c,expected",
    [
        (np.eye(2), (1.0, 0.0), 1.0),
        (np.eye(2), (0.0, 1.0), 1.0),
        (np.eye(2), (1.0, 2.0), 5.0),
        (np.array([[2.0, 0.5], [0.5, 1.0]]), (1.0, 1.0), 4.0),
        (np.array([[2.0, 0.5], [0.5, 1.0]]), (1.0, 0.0), 2.0),
    ],
)
def test_dirichlet_energy_of_linear_fields(diffusion, c, expected):
    # for y = c1*x1 + c2*x2 the energy integral is c^T D c exactly
    mesh = build_uniform_mesh(3)
    k = assemble_stiffness(mesh, diffusion)
    y = c[0] * mesh.nodes[:, 0] + c[1] * mesh.nodes[:, 1]
    assert y @ (k @ y) == pytest.approx(expected, rel=1e-13)


def test_stiffness_semidefinite_with_constant_kernel():
    mesh = build_uniform_mesh(2)
    k = assemble_stiffness(mesh, np.eye(2)).toarray()
    eigs = np.linalg.eigvalsh(k)
    assert eigs[0] >= -1e-13
    assert eigs[1] > 0.1  # kernel is one-dimensional (the constants)


def test_stiffness_plus_positive_diagonal_is_positive_definite():
    mesh = build_uniform_mesh(2)
    k = assemble_stiffness(mesh, np.eye(2))
    w = assemble_lumped_mass(mesh)
    dense = (k + sp.diags(w)).toarray()
    np.linalg.cholesky(dense)  # raises LinAlgError if not SPD


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[1.0, 0.1], [0.0, 1.0]]),  # not symmetric
        np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite
        np.array([[-1.0, 0.0], [0.0, 1.0]]),  # negative
        np.eye(3),  # wrong shape
        np.array([[np.nan, 0.0], [0.0, 1.0]]),  # not finite
    ],
)
def test_diffusion_validation(bad):
    with pytest.raises(ConfigurationError):
        assemble_stiffness(build_uniform_mesh(1), bad)


# --- lumped mass -------------------------------------------------------


def test_lumped_mass_level1_frozen_values():
    w = assemble_lumped_mass(build_uniform_mesh(1))
    expected = np.array(
        [1 / 12, 1 / 8, 1 / 24, 1 / 8, 1 / 4, 1 / 8, 1 / 24, 1 / 8, 1 / 12]
    )
    np.testing.assert_allclose(w, expected, rtol=1e-15)


@given(levels)
def test_lumped_mass_positive_and_sums_to_domain_area(level):
    w = assemble_lumped_mass(build_uniform_mesh(level))
    assert np.all(w > 0)
    assert abs(np.sum(w) - 1.0) <= 1e-12


@pytest.mark.parametrize("level", [1, 2, 3])
def test_lumped_mass_against_brute_force_sweep(level):
    mesh = build_uniform_mesh(level)
    np.testing.assert_allclose(
        assemble_lumped_mass(mesh), brute_force_weights(mesh), rtol=1e-15
    )


# --- boundary load -----------------------------------------------------


def test_boundary_load_zero_flux():
    b = assemble_boundary_load(build_uniform_mesh(3), lambda x: 0.0)
    assert np.max(np.abs(b)) == 0.0


@given(levels)
def test_boundary_load_unit_flux(level):
    # trapezoidal rule gives every boundary node weight h (two half-edges)
    # and interior nodes nothing; the total is the perimeter
    mesh = build_uniform_mesh(level)
    b = assemble_boundary_load(mesh, lambda x: 1.0)
    x = mesh.nodes
    on_boundary = (
        (x[:, 0] == 0.0) | (x[:, 0] == 1.0) | (x[:, 1] == 0.0) | (x[:, 1] == 1.0)
    )
    np.testing.assert_allclose(b[on_boundary], mesh.h, rtol=1e-14)
    assert np.max(np.abs(b[~on_boundary])) == 0.0
    assert np.sum(b) == pytest.approx(4.0, rel=1e-14)


def test_boundary_load_linear_flux_integrates_exactly():
    # edge integral of x1 over the boundary: 1/2 + 1/2 + 1 + 0 = 2
    b = assemble_boundary_load(build_uniform_mesh(4), lambda x: x[:, 0])
    assert np.sum(b) == pytest.approx(2.0, rel=1e-14)


# --- against the element-sweep oracle ----------------------------------


def assert_bitwise_equal(a, b):
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("level", range(1, 10))
def test_structured_assembly_matches_element_sweep(level):
    mesh = build_uniform_mesh(level)
    assert_bitwise_equal(
        assemble_lumped_mass(mesh), coo_oracle.assemble_lumped_mass(mesh)
    )

    def g(x):
        return np.sin(3.0 * x[:, 0]) + x[:, 1] ** 2

    assert_bitwise_equal(
        assemble_boundary_load(mesh, g), coo_oracle.assemble_boundary_load(mesh, g)
    )
    for diffusion, bitwise in [
        (np.eye(2), True),
        (np.array([[2.0, 0.3], [0.3, 1.0]]), True),
        (np.array([[1.0, -0.7], [-0.7, 3.1]]), False),
    ]:
        k = assemble_stiffness(mesh, diffusion)
        ref = coo_oracle.assemble_stiffness(mesh, diffusion)
        np.testing.assert_array_equal(k.indptr, ref.indptr)
        np.testing.assert_array_equal(k.indices, ref.indices)
        if bitwise:
            assert_bitwise_equal(k.data, ref.data)
        else:
            # sums over a cell first, then over cells: rounding may differ
            tol = 4.0 * np.finfo(float).eps * np.abs(ref.data).max()
            assert np.abs(k.data - ref.data).max() <= tol
        assert (k != k.T).nnz == 0


# Peak RSS of the process image running the probe: VmHWM starts afresh at
# exec, while ru_maxrss would also count the peak of the forking test run.
SETUP_PROBE = """
from ssnbilinear import Discretization, benchmark_instance, build_uniform_mesh
Discretization(benchmark_instance(), build_uniform_mesh(10))
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def test_level10_setup_peak_rss_below_300mb():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert int(proc.stdout) / 1024 < 300.0


# --- lumped inner product and measures ---------------------------------


def disc_on(level):
    return Discretization(benchmark_instance(), build_uniform_mesh(level))


def test_lumped_inner_constant_field():
    disc = disc_on(3)
    ones = np.ones(disc.n_nodes)
    assert disc.inner(ones, ones) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_lumped_integral_of_quadratic(level):
    # nodal quadrature equals the integral of the piecewise-linear
    # interpolant, and for x1^2 that is 1/3 + h^2/6 exactly
    disc = disc_on(level)
    x1 = np.ascontiguousarray(disc.x[:, 0])
    expected = 1.0 / 3.0 + disc.mesh.h**2 / 6.0
    assert disc.inner(x1, x1) == pytest.approx(expected, abs=1e-15)
    assert disc.norm(x1) == pytest.approx(np.sqrt(expected), rel=1e-14)


def test_measure_of_masks_and_index_lists():
    disc = disc_on(2)
    n = disc.n_nodes
    assert disc.measure(np.ones(n, dtype=bool)) == pytest.approx(1.0, rel=1e-14)
    assert disc.measure(np.zeros(n, dtype=bool)) == 0.0
    w = assemble_lumped_mass(disc.mesh)
    assert disc.measure(np.array([0, 5])) == pytest.approx(w[0] + w[5], rel=1e-15)
    mask = np.zeros(n, dtype=bool)
    mask[[0, 5]] = True
    assert disc.measure(mask) == disc.measure(np.array([0, 5]))
