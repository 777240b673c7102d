"""PDE solves: analytic states, Newton behavior, linearized solves."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from ssnbilinear import (
    ProblemSpec,
    SolverError,
    benchmark_instance,
    build_uniform_mesh,
    solve_adjoint,
    solve_state,
)
from ssnbilinear.pde import Discretization, LinearizedOperator


def linear_problem(dL=lambda x, y: y, L=lambda x, y: 0.5 * y * y, d2L=lambda x, y: 1.0):
    """a(x,y) = y - 1: the state equation becomes (1+u)y = 1 pointwise."""
    return ProblemSpec(
        a=lambda x, y: y - 1.0,
        da_dy=lambda x, y: 1.0,
        d2a_dy2=lambda x, y: 0.0,
        L=L,
        dL_dy=dL,
        d2L_dy2=d2L,
        g=lambda x: 0.0,
        alpha=-0.9,
        beta=1.0,
        nu=0.1,
        a0=1.0,
    )


# --- nonlinear state solve ---------------------------------------------


def test_constant_state_zero_control():
    spec = linear_problem()
    mesh = build_uniform_mesh(4)
    report = solve_state(spec, mesh, np.zeros(mesh.n_nodes))
    assert np.max(np.abs(report.y - 1.0)) <= 1e-12
    assert report.newton_iters == 1  # the problem is linear in y


@pytest.mark.parametrize("c", [0.5, 0.25, -0.5])
def test_constant_state_constant_control(c):
    spec = linear_problem()
    mesh = build_uniform_mesh(4)
    report = solve_state(spec, mesh, np.full(mesh.n_nodes, c))
    assert np.max(np.abs(report.y - 1.0 / (1.0 + c))) <= 1e-12
    assert report.newton_iters == 1


def test_benchmark_state_solve_converges(disc3):
    report = disc3.solve_state(np.zeros(disc3.n_nodes))
    assert report.final_residual <= 5e-14
    assert 1 <= report.newton_iters <= 50
    assert np.max(np.abs(report.y)) < 10.0


def test_newton_residuals_decrease_monotonically(disc3):
    # replay the damped iteration and check the accepted residuals
    u = np.zeros(disc3.n_nodes)
    y = disc3.zeros()
    rnorm = disc3.norm(disc3.state_residual(u, y))
    history = [rnorm]
    for _ in range(50):
        if rnorm <= 5e-14:
            break
        step = disc3.linearized_operator(u, y).solve(-disc3.state_residual(u, y))
        scale = 1.0
        for _ in range(31):
            y_new = y + scale * step
            rnew = disc3.norm(disc3.state_residual(u, y_new))
            if rnew < rnorm:
                break
            scale *= 0.5
        y, rnorm = y_new, rnew
        history.append(rnorm)
    assert all(b < a for a, b in zip(history, history[1:]))
    assert history[-1] <= 5e-14


def test_warm_start_skips_converged_solve(disc3):
    u = np.zeros(disc3.n_nodes)
    first = disc3.solve_state(u)
    again = disc3.solve_state(u, y_init=first.y)
    assert again.newton_iters == 0
    np.testing.assert_array_equal(again.y, first.y)


def test_state_solve_iteration_budget():
    spec = benchmark_instance()
    mesh = build_uniform_mesh(2)
    with pytest.raises(SolverError) as exc:
        solve_state(spec, mesh, np.zeros(mesh.n_nodes), max_newton=0)
    assert len(exc.value.history) == 1


def test_state_solve_rejects_bad_tolerance():
    spec = linear_problem()
    mesh = build_uniform_mesh(1)
    with pytest.raises(SolverError):
        solve_state(spec, mesh, np.zeros(mesh.n_nodes), tol=-1.0)


def test_state_solve_detects_nonfinite_residual():
    spec = benchmark_instance()
    mesh = build_uniform_mesh(2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the quartic overflows by design here
        with pytest.raises(SolverError, match="not finite"):
            solve_state(spec, mesh, np.zeros(mesh.n_nodes), y_init=np.full(mesh.n_nodes, 1e200))


def test_singular_operator_reported():
    with pytest.raises(SolverError, match="singular"):
        LinearizedOperator(sp.csr_matrix((3, 3)))


# --- adjoint ------------------------------------------------------------


def test_adjoint_zero_rhs_gives_zero(disc3):
    spec = linear_problem(dL=lambda x, y: 0.0)
    disc = Discretization(spec, disc3.mesh)
    u = np.zeros(disc.n_nodes)
    y = disc.solve_state(u).y
    phi = disc.solve_adjoint(u, y)
    assert np.max(np.abs(phi)) == 0.0


def test_adjoint_constant_solution():
    # with da_dy = 1, u = 0 the operator is K + M, and a constant rhs
    # density r has the constant solution phi = r
    r = 0.7
    spec = linear_problem(dL=lambda x, y: r, L=lambda x, y: r * y, d2L=lambda x, y: 0.0)
    mesh = build_uniform_mesh(4)
    u = np.zeros(mesh.n_nodes)
    y = solve_state(spec, mesh, u).y
    phi = solve_adjoint(spec, mesh, u, y)
    assert np.max(np.abs(phi - r)) <= 1e-12


def test_adjoint_reuses_supplied_factorization(base_state3, disc3):
    u, y, phi, op = base_state3
    np.testing.assert_array_equal(disc3.solve_adjoint(u, y, operator=op), phi)


# --- linearized solves --------------------------------------------------


def test_linearized_state_zero_direction(base_state3, disc3):
    u, y, _, op = base_state3
    z = disc3.solve_linearized_state(u, y, disc3.zeros(), operator=op)
    assert np.max(np.abs(z)) == 0.0


def test_linearized_state_linear_in_direction(base_state3, disc3):
    u, y, _, op = base_state3
    rng = np.random.default_rng(2)
    v1 = rng.standard_normal(disc3.n_nodes)
    v2 = rng.standard_normal(disc3.n_nodes)
    z = disc3.solve_linearized_state(u, y, 2.0 * v1 - 3.0 * v2, operator=op)
    z12 = 2.0 * disc3.solve_linearized_state(
        u, y, v1, operator=op
    ) - 3.0 * disc3.solve_linearized_state(u, y, v2, operator=op)
    np.testing.assert_allclose(z, z12, rtol=1e-12, atol=1e-15)


def test_linearized_state_matches_difference_quotient(base_state3, disc3):
    u, y, _, op = base_state3
    rng = np.random.default_rng(5)
    v = rng.standard_normal(disc3.n_nodes)
    v /= disc3.norm(v)
    z = disc3.solve_linearized_state(u, y, v, operator=op)
    errs = []
    for t in (1e-2, 1e-3):
        yp = disc3.solve_state(u + t * v).y
        ym = disc3.solve_state(u - t * v).y
        errs.append(disc3.norm((yp - ym) / (2 * t) - z))
    assert errs[0] <= 1e-8
    assert errs[1] <= 0.05 * errs[0]  # second-order quotient


def test_linearized_adjoint_matches_difference_quotient(base_state3, disc3):
    u, y, phi, op = base_state3
    rng = np.random.default_rng(6)
    v = rng.standard_normal(disc3.n_nodes)
    v /= disc3.norm(v)
    z = disc3.solve_linearized_state(u, y, v, operator=op)
    eta = disc3.solve_linearized_adjoint(u, y, phi, z, v, operator=op)
    errs = []
    for t in (1e-2, 1e-3):
        php = disc3.solve_adjoint(u + t * v, disc3.solve_state(u + t * v).y)
        phm = disc3.solve_adjoint(u - t * v, disc3.solve_state(u - t * v).y)
        errs.append(disc3.norm((php - phm) / (2 * t) - eta))
    assert errs[0] <= 1e-8
    assert errs[1] <= 0.05 * errs[0]


def test_linearized_solve_transpose_identity(base_state3, disc3):
    # z_v = Q^{-1}(-W y v) makes (W y w)^T z_v symmetric in v and w
    u, y, _, op = base_state3
    rng = np.random.default_rng(9)
    for _ in range(3):
        v = rng.standard_normal(disc3.n_nodes)
        w = rng.standard_normal(disc3.n_nodes)
        zv = disc3.solve_linearized_state(u, y, v, operator=op)
        zw = disc3.solve_linearized_state(u, y, w, operator=op)
        lhs = float(np.sum(disc3.weights * y * w * zv))
        rhs = float(np.sum(disc3.weights * y * v * zw))
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-14)


def test_operator_positive_definite_for_admissible_controls(bench):
    # worst admissible control is the lower bound; da_dy + alpha >= a0 + alpha > 0
    mesh = build_uniform_mesh(2)
    disc = Discretization(bench, mesh)
    u = np.full(disc.n_nodes, bench.alpha)
    y = disc.solve_state(u).y
    q = disc.linearized_matrix(u, y).toarray()
    eigs = np.linalg.eigvalsh(q)
    assert eigs[0] > 0.0


def test_symmetric_mode_factor_is_sparse_and_accurate(bench):
    # benchmark Q at level 6 and the zero control; COLAMD with partial
    # pivoting needs 223,700 nonzeros in L+U here
    disc = Discretization(bench, build_uniform_mesh(6))
    u = np.zeros(disc.n_nodes)
    y = disc.solve_state(u).y
    q = disc.linearized_matrix(u, y)
    assert q.format == "csc"
    op = LinearizedOperator(q)
    assert op._lu.L.nnz + op._lu.U.nnz <= 140_000
    rng = np.random.default_rng(11)
    for b in (rng.standard_normal(disc.n_nodes), disc.weights * y):
        x = op.solve(b)
        assert np.linalg.norm(q @ x - b) <= 1e-13 * np.linalg.norm(b)


def test_module_wrappers_match_methods(bench):
    mesh = build_uniform_mesh(2)
    disc = Discretization(bench, mesh)
    u = np.zeros(disc.n_nodes)
    report = solve_state(bench, mesh, u)
    np.testing.assert_array_equal(report.y, disc.solve_state(u).y)
    phi = solve_adjoint(bench, mesh, u, report.y)
    np.testing.assert_array_equal(phi, disc.solve_adjoint(u, report.y))
