"""Reduced objective, gradient and Hessian routes, FD oracle machinery."""

import math

import numpy as np
import pytest

from ssnbilinear import Discretization, build_uniform_mesh
import ssnbilinear.objective as objective_module
from ssnbilinear.assembly import assemble_lumped_mass
from ssnbilinear.objective import (
    _objective,
    evaluate_reduced,
    fd_curvature_oracle,
    fd_gradient_oracle,
    hessian_vec,
)
from ssnbilinear.pde import DEFAULT_TOL
from ssnbilinear.problem import desired_state, nodal
from ssnbilinear.verification import (
    _FLOOR_FACTOR,
    CURV_STEPS,
    GRAD_STEPS,
    KEEP_ABOVE,
    fit_decay_order,
)

EPS = float(np.finfo(float).eps)


def test_objective_matches_direct_quadrature(bench, disc3):
    # independent evaluation of the same integral
    rng = np.random.default_rng(1)
    u = rng.uniform(-1.0, 1.0, disc3.n_nodes)
    y = rng.standard_normal(disc3.n_nodes)
    w = assemble_lumped_mass(disc3.mesh)
    yd = desired_state(disc3.mesh.nodes)
    direct = float(np.sum(w * (0.5 * (y - yd) ** 2 + 0.5 * bench.nu * u * u)))
    assert _objective(disc3, u, y) == pytest.approx(direct, rel=1e-14)


def test_evaluate_reduced_is_consistent(bench, disc3):
    u = np.zeros(disc3.n_nodes)
    ev = evaluate_reduced(disc3, u)
    assert ev.J == pytest.approx(_objective(disc3, u, ev.y))
    np.testing.assert_array_equal(ev.grad, bench.nu * u - ev.y * ev.phi)


def test_evaluate_reduced_carries_its_factorization(bench):
    # a cold start factors at its first Newton step; the adjoint's
    # factorization at (u, y) is the second, and disc keeps it
    disc = Discretization(bench, build_uniform_mesh(3))
    ev = evaluate_reduced(disc, np.zeros(disc.n_nodes))
    assert disc.factor_count == 2
    rhs = disc.weights * nodal(bench.dL_dy, disc.x, ev.y)
    np.testing.assert_array_equal(disc.kept_factor.solve(rhs), ev.phi)


def test_gradient_matches_finite_differences(bench):
    # central differences agree with the adjoint gradient at second order
    # until the difference quotient hits its roundoff floor
    disc = Discretization(bench, build_uniform_mesh(2))
    base = evaluate_reduced(disc, np.zeros(disc.n_nodes))
    jscale = max(1.0, abs(base.J))
    rng = np.random.default_rng(42)
    for _ in range(3):
        v = rng.standard_normal(disc.n_nodes)
        v /= disc.norm(v)
        slope = disc.inner(base.grad, v)
        ts = (1e-2, 1e-3)
        errs = {
            t: abs(fd - slope)
            for t, fd in zip(ts, fd_gradient_oracle(disc, base.u, base.y, v, ts, {}))
        }
        assert errs[1e-2] <= 1e-7 * jscale
        floor = 2e3 * EPS * jscale / 1e-3
        assert errs[1e-3] <= max(0.05 * errs[1e-2], floor)


def test_hessian_quadratic_form_matches_second_differences(bench):
    disc = Discretization(bench, build_uniform_mesh(2))
    base = evaluate_reduced(disc, np.zeros(disc.n_nodes))
    jscale = max(1.0, abs(base.J))
    rng = np.random.default_rng(43)
    v = rng.standard_normal(disc.n_nodes)
    v /= disc.norm(v)
    hv = hessian_vec(disc, base.y, base.phi, v)
    quad = disc.inner(hv, v)
    ts = (1e-1, 3e-2, 1e-2)
    errs = {
        t: abs(fd2 - quad)
        for t, fd2 in zip(ts, fd_curvature_oracle(disc, base.u, base.y, v, ts, {}))
    }
    assert errs[1e-1] <= 1e-6 * jscale
    # second-order decay between steps, up to the 1/t^2 roundoff floor
    for big, small in ((1e-1, 3e-2), (3e-2, 1e-2)):
        floor = 8e3 * EPS * jscale / (small * small)
        assert errs[small] <= max(0.15 * errs[big], floor)


def test_fd_oracles_take_a_ladder_and_solve_the_base_point_once(bench, monkeypatch):
    disc = Discretization(bench, build_uniform_mesh(2))
    base = evaluate_reduced(disc, np.zeros(disc.n_nodes))
    v = np.random.default_rng(48).standard_normal(disc.n_nodes)
    ts = (1e-1, 1e-2, 1e-3)
    singles = [fd_curvature_oracle(disc, base.u, base.y, v, (t,), {})[0] for t in ts]
    calls = []
    fresh = objective_module._fresh_objective
    monkeypatch.setattr(
        objective_module,
        "_fresh_objective",
        lambda *args: calls.append(args[1]) or fresh(*args),
    )
    assert fd_curvature_oracle(disc, base.u, base.y, v, ts, {}) == singles
    assert len(calls) == 2 * len(ts) + 1
    np.testing.assert_array_equal(calls[0], base.u)
    calls.clear()
    assert len(fd_gradient_oracle(disc, base.u, base.y, v, ts, {})) == len(ts)
    assert len(calls) == 2 * len(ts)


def test_fd_oracles_sharing_values_solve_each_control_once(bench, monkeypatch):
    disc = Discretization(bench, build_uniform_mesh(2))
    base = evaluate_reduced(disc, np.zeros(disc.n_nodes))
    v = np.random.default_rng(50).standard_normal(disc.n_nodes)
    alone = (
        fd_gradient_oracle(disc, base.u, base.y, v, GRAD_STEPS, {}),
        fd_curvature_oracle(disc, base.u, base.y, v, CURV_STEPS, {}),
    )
    calls = []
    fresh = objective_module._fresh_objective
    monkeypatch.setattr(
        objective_module,
        "_fresh_objective",
        lambda *args: calls.append(args[1]) or fresh(*args),
    )
    values = {}
    shared = (
        fd_gradient_oracle(disc, base.u, base.y, v, GRAD_STEPS, values),
        fd_curvature_oracle(disc, base.u, base.y, v, CURV_STEPS, values),
    )
    # the same differences, bit for bit, from one solve per control
    assert shared == alone
    steps = set(GRAD_STEPS) | set(CURV_STEPS)
    assert len(calls) == 2 * len(steps) + 1
    assert sorted(values) == sorted([*steps, *(-t for t in steps)])
    for s, j in values.items():
        assert j == fresh(disc, base.u + s * v, base.y)


def test_fd_oracles_start_every_state_solve_from_the_base_state(bench, monkeypatch):
    disc = Discretization(bench, build_uniform_mesh(2))
    base = evaluate_reduced(disc, np.zeros(disc.n_nodes))
    v = np.random.default_rng(49).standard_normal(disc.n_nodes)
    starts = []
    solve = disc.solve_state
    monkeypatch.setattr(
        disc, "solve_state", lambda u, y_init: starts.append(y_init) or solve(u, y_init)
    )
    fd_curvature_oracle(disc, base.u, base.y, v, (1e-1, 1e-2), {})
    fd_gradient_oracle(disc, base.u, base.y, v, (1e-2,), {})
    assert len(starts) == 7
    assert all(start is base.y for start in starts)


@pytest.mark.parametrize("level", [2, 3, 4])
def test_warm_and_cold_started_oracles_agree_to_the_roundoff_floor(bench, level):
    # The start moves J(u + t v) only within the state tolerance.  At every
    # gradient step and at the curvature steps below 0.1 the quotients from
    # the base state and from zero differ by less than twice the roundoff
    # floor verify_derivatives excludes from its fit.  At t = 0.1 a warm
    # solve may take its last Newton step to just under tol (level 4: up to
    # 7.6 floors over 30 directions), so there the bound is the tolerance
    # term instead: both J lie within tol * ||phi / sqrt(w)||_2 of the
    # exact one to first order, which moves the second difference by at
    # most 8 times that over t^2.
    disc = Discretization(bench, build_uniform_mesh(level))
    base = evaluate_reduced(disc, np.zeros(disc.n_nodes))
    cold = np.zeros(disc.n_nodes)
    jscale = max(1.0, abs(base.J))
    j_noise = DEFAULT_TOL * np.linalg.norm(base.phi / np.sqrt(disc.weights))
    rng = np.random.default_rng(50 + level)
    for _ in range(5):
        v = rng.standard_normal(disc.n_nodes)
        v /= disc.norm(v)
        warm_g = fd_gradient_oracle(disc, base.u, base.y, v, GRAD_STEPS, {})
        cold_g = fd_gradient_oracle(disc, base.u, cold, v, GRAD_STEPS, {})
        for t, w, c in zip(GRAD_STEPS, warm_g, cold_g):
            assert abs(w - c) <= 2.0 * _FLOOR_FACTOR * EPS * jscale / t
        warm_c = fd_curvature_oracle(disc, base.u, base.y, v, CURV_STEPS, {})
        cold_c = fd_curvature_oracle(disc, base.u, cold, v, CURV_STEPS, {})
        for t, w, c in zip(CURV_STEPS, warm_c, cold_c):
            if t < 0.1:
                bound = 2.0 * 4.0 * _FLOOR_FACTOR * EPS * jscale / (t * t)
            else:
                bound = 8.0 * j_noise / (t * t)
            assert abs(w - c) <= bound


def test_hessian_linear_in_direction(bench, base_state3, disc3):
    u, y, phi = base_state3
    rng = np.random.default_rng(44)
    v1 = rng.standard_normal(disc3.n_nodes)
    v2 = rng.standard_normal(disc3.n_nodes)
    h = lambda v: hessian_vec(disc3, y, phi, v)
    np.testing.assert_allclose(
        h(1.5 * v1 - 2.0 * v2), 1.5 * h(v1) - 2.0 * h(v2), rtol=1e-11, atol=1e-14
    )


def test_hessian_symmetric_in_lumped_inner_product(bench, base_state3, disc3):
    u, y, phi = base_state3
    rng = np.random.default_rng(45)
    for _ in range(5):
        v1 = rng.standard_normal(disc3.n_nodes)
        v2 = rng.standard_normal(disc3.n_nodes)
        hv1 = hessian_vec(disc3, y, phi, v1)
        hv2 = hessian_vec(disc3, y, phi, v2)
        a = disc3.inner(hv1, v2)
        b = disc3.inner(v1, hv2)
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))


def test_gradient_sensitivity_route(bench, base_state3, disc3):
    # J'(u)v computed through the adjoint equals the linearized-state route
    u, y, phi = base_state3
    grad = bench.nu * u - y * phi
    dl = nodal(bench.dL_dy, disc3.x, y)
    rng = np.random.default_rng(46)
    for _ in range(4):
        v = rng.standard_normal(disc3.n_nodes)
        z = disc3.hessian_term(y, phi, v)[1]
        adjoint_route = disc3.inner(grad, v)
        sensitivity_route = disc3.inner(dl, z) + bench.nu * disc3.inner(u, v)
        assert adjoint_route == pytest.approx(sensitivity_route, rel=1e-11, abs=1e-13)


def test_hessian_positive_at_solution(bench, disc3, solved3):
    u, y, phi, _ = solved3
    disc3.release_factorization()
    disc3.solve_adjoint(u, y)  # disc3 keeps the factor of Q(u, y)
    rng = np.random.default_rng(47)
    for _ in range(3):
        v = rng.standard_normal(disc3.n_nodes)
        v /= disc3.norm(v)
        hv = hessian_vec(disc3, y, phi, v)
        assert disc3.inner(hv, v) > 0.0


# --- decay-order fitting -------------------------------------------------


def test_fit_decay_order_recovers_exact_slope():
    ts = (1e-1, 1e-2, 1e-3, 1e-4)
    floors = (0.0,) * len(ts)
    errors = [t**2 for t in ts]
    assert fit_decay_order(ts, errors, floors) == pytest.approx(2.0, abs=1e-9)
    assert fit_decay_order(ts, ts, floors) == pytest.approx(1.0, abs=1e-9)


def test_fit_decay_order_excludes_floored_points():
    ts = (1e-1, 1e-2, 1e-3)
    errors = (1e-2, 1e-4, 5e-13)
    floors = (0.0, 0.0, 1e-13)  # last point is at 5x its floor: excluded
    assert fit_decay_order(ts, errors, floors) == pytest.approx(2.0, abs=1e-9)


def test_fit_decay_order_reports_floor_only_as_infinite():
    ts = (1e-2, 1e-3)
    errors = (1e-15, 1e-15)
    floors = (1e-15, 1e-15)
    assert math.isinf(fit_decay_order(ts, errors, floors))
    # a single informative point is not a slope either
    assert math.isinf(fit_decay_order(ts, (1e-3, 1e-15), (0.0, 1e-15)))


def test_fit_decay_order_keep_above_threshold():
    ts = (1e-1, 1e-2)
    errors = (1e-4, 1e-6)
    # fitted just above KEEP_ABOVE times the floor, dropped just below it
    above = [0.99 * e / KEEP_ABOVE for e in errors]
    below = [1.01 * e / KEEP_ABOVE for e in errors]
    assert fit_decay_order(ts, errors, above) == pytest.approx(2.0, abs=1e-9)
    assert math.isinf(fit_decay_order(ts, errors, below))
    assert KEEP_ABOVE == 20.0
