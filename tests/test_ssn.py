"""Outer loop: projection and active sets, CG subproblem, convergence, reports."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from conftest import linearized_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from test_pde import linear_problem

from ssnbilinear import (
    ConfigurationError,
    Discretization,
    IterationRecord,
    NegativeCurvatureError,
    ProblemSpec,
    SSNConfig,
    SolverError,
    benchmark_instance,
    build_uniform_mesh,
    complementarity_report,
    optimality_residual,
    run_ssn,
    validate,
    verify_derivatives,
)
from ssnbilinear import pde, ssn
from ssnbilinear.expressions import Expression
from ssnbilinear.objective import _objective, hessian_vec
from ssnbilinear.pde import MAX_NEWTON, LinearizedOperator, cg_solve, forcing_term
from ssnbilinear.ssn import _linearize, _step, step_floor
from ssnbilinear.verification import VerifySettings

finite_fields = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=40),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


# --- projection and active sets -----------------------------------------


class GivenAdjoint:
    """A Discretization stand-in whose adjoint solve returns its start, so
    _linearize runs on a chosen y and phi of any length."""

    def __init__(self, spec):
        self.spec = spec

    def solve_adjoint(self, u, y, phi_init=None):
        return phi_init

    def norm(self, f):
        return float(np.sqrt(np.sum(f * f)))


def check_linearization(spec, u, y, phi):
    """_linearize's w and inactive set against Proj(y*phi/nu)."""
    it = _linearize(GivenAdjoint(spec), u, y, phi)
    proj = np.clip(y * phi / spec.nu, spec.alpha, spec.beta)
    # w is -F(u) bit for bit, so ||w||_h is the residual the loop stops on
    np.testing.assert_array_equal(it.w, -optimality_residual(spec, u, y, phi))
    np.testing.assert_array_equal(it.inactive, (spec.alpha < proj) & (proj < spec.beta))
    # a node whose projection sits on a bound, a tie included, is active
    on_bound = (proj == spec.alpha) | (proj == spec.beta)
    assert not it.inactive[on_bound].any()
    # the active entries of w are exactly bound - u
    upper = ~it.inactive & (proj >= spec.beta)
    lower = ~it.inactive & (proj <= spec.alpha)
    assert np.all(upper | lower | it.inactive)
    np.testing.assert_array_equal(it.w[upper], spec.beta - u[upper])
    np.testing.assert_array_equal(it.w[lower], spec.alpha - u[lower])
    return it


@settings(derandomize=True, max_examples=60)
@given(
    finite_fields,
    st.integers(0, 2**31 - 1),
    st.sampled_from([1.0, np.inf]),
    st.sampled_from([0.2, 0.05, 0.01, 1e-3]),
)
def test_linearize_projects_once(y, seed, beta, nu):
    # random adjoints, with every third node an exact tie phi = nu*bound/y
    spec = dataclasses.replace(benchmark_instance(), beta=beta, nu=nu)
    rng = np.random.default_rng(seed)
    n = y.shape[0]
    phi = rng.standard_normal(n)
    u = rng.uniform(-2.0, 2.0, n)
    bounds = np.where(rng.random(n) < 0.5, spec.alpha, spec.beta)
    tie = (np.arange(n) % 3 == 0) & (y != 0.0) & np.isfinite(bounds)
    phi[tie] = spec.nu * bounds[tie] / y[tie]
    check_linearization(spec, u, y, phi)


def test_linearize_ties_go_active():
    spec = benchmark_instance()  # nu = 0.05, bounds [-1, 1]
    y = np.array([1.0, 1.0, 1.0])
    phi = np.array([spec.nu * spec.beta, spec.nu * spec.alpha, 0.0])
    u = np.array([0.25, 0.5, -0.75])
    it = check_linearization(spec, u, y, phi)
    assert it.inactive.tolist() == [False, False, True]
    assert it.w.tolist() == [0.75, -1.5, 0.75]


def test_linearize_infinite_upper_bound():
    # no node is upper-active: y*phi/nu = 2e17 stays inactive
    spec = dataclasses.replace(benchmark_instance(), beta=np.inf)
    y = np.array([1e8, -1e8, 0.0])
    phi = np.array([1e8, 1e8, 0.0])
    it = check_linearization(spec, np.zeros(3), y, phi)
    assert it.inactive.tolist() == [True, False, True]
    assert it.w.tolist() == [2e17, -1.0, 0.0]


def test_optimality_residual_formula():
    spec = benchmark_instance()
    u = np.array([0.2, -0.8, 1.0])
    y = np.array([1.0, 2.0, 3.0])
    phi = np.array([0.01, -0.4, 0.5])
    expected = u - np.clip(y * phi / spec.nu, spec.alpha, spec.beta)
    np.testing.assert_array_equal(optimality_residual(spec, u, y, phi), expected)


# --- CG ------------------------------------------------------------------


def test_cg_zero_rhs_returns_immediately():
    x, iters = cg_solve(lambda p: p, np.zeros(5), 1e-12, 10)
    assert iters == 0
    assert np.max(np.abs(x)) == 0.0


def test_cg_identity_converges_in_one_iteration():
    rhs = np.array([1.0, -2.0, 3.0])
    x, iters = cg_solve(lambda p: p, rhs, 1e-12, 10)
    assert iters == 1
    np.testing.assert_allclose(x, rhs, rtol=1e-14)


def test_cg_weighted_spd_system():
    # A = diag(1/w) S with S symmetric positive definite is self-adjoint
    # and positive in the w-weighted inner product
    rng = np.random.default_rng(3)
    n = 6
    b = rng.standard_normal((n, n))
    s = b @ b.T + n * np.eye(n)
    w = rng.uniform(0.5, 2.0, n)
    a = (s.T / w).T
    rhs = rng.standard_normal(n)
    x, iters = cg_solve(
        lambda p: a @ p, rhs, 1e-13, 50, inner=lambda f, g: float(np.sum(w * f * g))
    )
    np.testing.assert_allclose(x, np.linalg.solve(a, rhs), rtol=1e-9, atol=1e-12)
    assert iters <= n + 2


def test_cg_negative_curvature_is_hard_error():
    with pytest.raises(NegativeCurvatureError):
        cg_solve(lambda p: -p, np.ones(4), 1e-12, 10)
    with pytest.raises(NegativeCurvatureError):
        cg_solve(lambda p: 0.0 * p, np.ones(4), 1e-12, 10)


def test_cg_iteration_budget():
    # diag(1, 100) needs two iterations; one is not enough
    a = np.diag([1.0, 100.0])
    with pytest.raises(SolverError):
        cg_solve(lambda p: a @ p, np.array([1.0, 1.0]), 1e-12, 1)


def test_cg_without_a_start_applies_only_its_directions():
    # no start: the first residual is rhs itself, with no apply; a zero
    # start given explicitly costs one apply and gives the same bits
    rng = np.random.default_rng(5)
    b = rng.standard_normal((6, 6))
    a = b @ b.T + 6.0 * np.eye(6)
    rhs = rng.standard_normal(6)
    applied = []

    def apply(p):
        applied.append(1)
        return a @ p

    x, iters = cg_solve(apply, rhs, 1e-13, 50)
    assert len(applied) == iters >= 1
    applied.clear()
    x0, iters0 = cg_solve(apply, rhs, 1e-13, 50, x0=np.zeros(6))
    assert iters0 == iters and len(applied) == iters + 1
    np.testing.assert_array_equal(x0, x)


def test_cg_returns_a_start_that_meets_the_target_after_0_iterations():
    a = np.diag([1.0, 100.0])
    rhs = np.array([1.0, 1.0])
    exact = rhs / np.diag(a)
    tol = 1e-6
    target = tol * np.linalg.norm(rhs)

    def refuse(r):
        raise AssertionError("preconditioned a start that met the target")

    # its residual 0.5*target is far above tol times itself: the target
    # is tol * ||rhs||, whatever the start
    near = exact + np.array([0.0, 0.5 * target / 100.0])
    x, iters = cg_solve(lambda p: a @ p, rhs, tol, 10, precondition=refuse, x0=near)
    assert iters == 0
    np.testing.assert_array_equal(x, near)
    assert x is not near
    # twice the target: one iteration along the residual's eigenvector
    far = exact + np.array([0.0, 2.0 * target / 100.0])
    x, iters = cg_solve(lambda p: a @ p, rhs, tol, 10, x0=far)
    assert iters == 1
    assert np.linalg.norm(rhs - a @ x) <= target


def test_cg_reports_each_step_for_the_directions_it_applied():
    # summing step * (A p) over the steps rebuilds A x: what a caller sums
    # alongside x is that of x
    rng = np.random.default_rng(6)
    b = rng.standard_normal((5, 5))
    a = b @ b.T + 5.0 * np.eye(5)
    rhs = rng.standard_normal(5)
    last = []
    total = np.zeros(5)

    def apply(p):
        last[:] = [a @ p]
        return last[0]

    def on_step(step):
        total[:] += step * last[0]

    x, iters = cg_solve(apply, rhs, 1e-13, 50, on_step=on_step)
    assert iters >= 2
    np.testing.assert_allclose(total, a @ x, rtol=0, atol=1e-13 * np.abs(rhs).max())


def test_negative_curvature_is_solver_error():
    assert issubclass(NegativeCurvatureError, SolverError)


# --- CG operator ---------------------------------------------------------


# the relative residual the single-step tests run their CG to
STEP_RTOL = 5e-14


def step_operator(disc, it, monkeypatch, eta=STEP_RTOL):
    """The operator and right-hand side that _step from it hands to
    ssn.cg_solve, and the step's results; disc keeps the step's factor."""
    handed = []
    solve = ssn.cg_solve

    def recorded(apply, rhs, *args, **kwargs):
        handed.append((apply, rhs))
        return solve(apply, rhs, *args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(ssn, "cg_solve", recorded)
        result = _step(disc, 0, it, eta, 0)
    ((apply, rhs),) = handed
    return apply, rhs, result


def test_cg_operator_vanishes_on_active_set(base_state3, disc3, monkeypatch):
    u, y, phi = base_state3
    it = _linearize(disc3, u, y, phi)
    apply, _, _ = step_operator(disc3, it, monkeypatch)
    assert (~it.inactive).any()
    rng = np.random.default_rng(21)
    v = rng.standard_normal(disc3.n_nodes)
    out = apply(v)
    assert np.max(np.abs(out[~it.inactive])) == 0.0
    # masking the input first changes nothing
    vi = np.where(it.inactive, v, 0.0)
    out2 = apply(vi)
    np.testing.assert_array_equal(out, out2)


def test_cg_operator_self_adjoint(base_state3, disc3, monkeypatch):
    u, y, phi = base_state3
    it = _linearize(disc3, u, y, phi)
    apply, _, _ = step_operator(disc3, it, monkeypatch)
    rng = np.random.default_rng(22)
    for _ in range(3):
        v1 = rng.standard_normal(disc3.n_nodes)
        v2 = rng.standard_normal(disc3.n_nodes)
        a1 = apply(v1)
        a2 = apply(v2)
        lhs = disc3.inner(a1, v2)
        rhs = disc3.inner(v1, a2)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_cg_operator_scales_hessian_when_nothing_is_active(monkeypatch):
    # with bounds far away the operator is the reduced Hessian over nu
    spec = dataclasses.replace(benchmark_instance(), alpha=-100.0, beta=100.0)
    disc = Discretization(spec, build_uniform_mesh(2))
    u = np.zeros(disc.n_nodes)
    y = disc.solve_state(u).y
    disc.release_factorization()
    it = _linearize(disc, u, y)
    assert np.all(it.inactive)
    apply, _, _ = step_operator(disc, it, monkeypatch)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(disc.n_nodes)
    av = apply(v)
    hv = hessian_vec(disc, it.y, it.phi, v)[0]
    np.testing.assert_allclose(spec.nu * av, hv, atol=1e-13)


# --- single step ---------------------------------------------------------


def one_step(disc, u, y_init=None):
    """One outer iteration from u, its CG run to STEP_RTOL."""
    state = disc.solve_state(u, y_init=y_init, tol=SSNConfig().inner_tol)
    disc.release_factorization()
    it = _linearize(disc, u, state.y)
    u_next, _, _, record = _step(disc, 0, it, STEP_RTOL, state.newton_iters)
    return u_next, record


def test_step_assigns_active_components_exactly(bench, disc3, base_state3):
    u, y, phi = base_state3
    proj = np.clip(y * phi / bench.nu, bench.alpha, bench.beta)
    active = (proj == bench.alpha) | (proj == bench.beta)

    u_next, record = one_step(disc3, u)
    v = u_next - u  # u = 0, so this is the raw correction
    assert active.any()
    np.testing.assert_array_equal(v[active], proj[active] - u[active])
    assert record.delta >= 0.0
    assert record.cg_iters >= 1


def test_step_solves_reduced_system_to_tolerance(bench, disc3, monkeypatch):
    cfg = SSNConfig()
    u = disc3.zeros()
    state = disc3.solve_state(u, tol=cfg.inner_tol)
    disc3.release_factorization()
    it = _linearize(disc3, u, state.y)
    apply, rhs, (u_next, _, _, _) = step_operator(disc3, it, monkeypatch)
    # the right-hand side from the Hessian term of w_A by the step's factor
    w_active = np.where(it.inactive, 0.0, it.w)
    term = disc3.hessian_term(it.y, it.phi, w_active)[0]
    expected = np.where(it.inactive, it.w + term / bench.nu, 0.0)
    np.testing.assert_array_equal(rhs, expected)
    vi = np.where(it.inactive, u_next - u, 0.0)
    resid = apply(vi) - rhs
    assert disc3.norm(resid) <= 1e-12 * disc3.norm(rhs)


def _counting_solves(monkeypatch):
    """Count the triangular solve pairs of every LinearizedOperator."""
    solves = []
    solve = LinearizedOperator.solve

    def counted(self, rhs):
        solves.append(1)
        return solve(self, rhs)

    monkeypatch.setattr(LinearizedOperator, "solve", counted)
    return solves


def test_step_predicts_the_state_and_adjoint_without_a_solve(
    bench, disc3, monkeypatch
):
    # z(v) and eta(v) are summed from the solves of w_A and of CG's
    # directions: they match solves for v with the step's factor to
    # rounding, and the step makes only those solves
    cfg = SSNConfig()
    u = disc3.zeros()
    # no factor of an earlier test preconditions the state solve
    disc3.release_factorization()
    state = disc3.solve_state(u, tol=cfg.inner_tol)
    disc3.release_factorization()
    it = _linearize(disc3, u, state.y)
    assert np.where(it.inactive, 0.0, it.w).any()
    solves = _counting_solves(monkeypatch)
    u_next, y_next, phi_next, record = _step(
        disc3, 0, it, STEP_RTOL, state.newton_iters
    )
    assert len(solves) == 2 * record.cg_iters + 2
    v = u_next  # u = 0
    _, z, eta = disc3.hessian_term(it.y, it.phi, v)
    assert np.max(np.abs(y_next - (it.y + z))) <= 1e-14 * np.max(np.abs(z))
    assert np.max(np.abs(phi_next - (it.phi + eta))) <= 1e-14 * np.max(np.abs(eta))


def test_step_with_a_zero_active_correction_makes_no_hessian_solves(
    bench, disc3, solved3, monkeypatch
):
    # at the solution the active nodes already sit on their bounds: w_A = 0,
    # and Q^-1 0 = 0 needs no solve; the step is the one that solves it
    u, y, _, _ = solved3
    state = disc3.solve_state(u, y_init=y)
    disc3.release_factorization()
    it = _linearize(disc3, u, state.y)
    inactive, w = it.inactive, it.w
    w_active = np.where(inactive, 0.0, w)
    assert (~inactive).any() and not w_active.any()
    solves = _counting_solves(monkeypatch)
    apply, rhs, (u_next, _, _, record) = step_operator(
        disc3, it, monkeypatch, eta=1e-12
    )
    assert len(solves) == 2 * record.cg_iters
    # the system with the two solves of w_A made: the same bits
    term = disc3.hessian_term(it.y, it.phi, w_active)[0]
    np.testing.assert_array_equal(
        rhs, np.where(inactive, w + term / bench.nu, 0.0)
    )
    v_inactive, cg_iters = cg_solve(
        apply, rhs, 1e-12, disc3.n_nodes, inner=disc3.inner
    )
    assert len(solves) == 4 * record.cg_iters + 2
    v = np.where(inactive, v_inactive, w)
    np.testing.assert_array_equal(u_next, u + v)
    assert cg_iters == record.cg_iters
    assert record.delta == disc3.norm(v) / max(1.0, disc3.norm(u + v))


def test_step_from_converged_control_is_a_fixed_point(bench, disc3, solved3):
    u, y, _, _ = solved3
    u_next, record = one_step(disc3, u, y_init=y)
    assert disc3.norm(u_next - u) <= 1e-10
    assert record.delta <= 1e-10


# --- full runs -----------------------------------------------------------


def test_run_records_are_well_formed(solved3):
    _, _, _, records = solved3
    full, final = records[:-1], records[-1]
    assert [r.j for r in records] == list(range(len(records)))
    for r in full:
        assert r.delta >= 0.0
        assert r.cg_iters >= 1
        assert r.newton_iters >= 0
    assert final.delta is None
    assert final.cg_iters is None
    assert records[0].J >= records[-1].J


def test_run_is_superlinear_on_the_benchmark(bench):
    _, _, _, records = run_ssn(Discretization(bench, build_uniform_mesh(4)))
    deltas = [r.delta for r in records if r.delta is not None]
    for j in range(1, len(deltas) - 1):
        if deltas[j] < 1e-12:
            break
        assert deltas[j + 1] <= 0.1 * deltas[j]


def test_run_satisfies_projection_formula(bench, disc3, solved3):
    u, y, phi, _ = solved3
    assert np.max(np.abs(optimality_residual(bench, u, y, phi))) <= 1e-10


def test_run_with_scalar_initial_control(bench):
    disc = Discretization(bench, build_uniform_mesh(2))
    u, _, _, records = run_ssn(disc, SSNConfig(u0=0.5))
    assert len(records) >= 2
    assert np.all(u >= bench.alpha - 1e-12) and np.all(u <= bench.beta + 1e-12)


def test_run_rejects_bad_initial_control_shape(bench):
    disc = Discretization(bench, build_uniform_mesh(2))
    with pytest.raises(ConfigurationError):
        run_ssn(disc, SSNConfig(u0=np.zeros(3)))


def test_coarse_start_from_a_constant_control(bench, monkeypatch):
    # u0 seeds the coarsest level; the nested run reaches the solution of
    # the cold start from y = 0 on the fine mesh
    mesh = build_uniform_mesh(ssn.COARSE_START_LEVEL)
    cfg = SSNConfig(u0=-0.75)
    records = run_ssn(Discretization(bench, mesh), cfg)[-1]
    monkeypatch.setattr(ssn, "COARSE_START_LEVEL", mesh.level + 1)
    cold = run_ssn(Discretization(bench, mesh), cfg)[-1]
    coarse = Discretization(bench, build_uniform_mesh(mesh.level - 1))
    u_c = np.full(coarse.n_nodes, -0.75)
    assert records[0].level == mesh.level - 1
    assert records[0].J == _objective(coarse, u_c, coarse.solve_state(u_c).y)
    assert {r.level for r in cold} == {mesh.level}
    assert records[-1].J == pytest.approx(cold[-1].J, rel=1e-12)


@pytest.mark.parametrize("level", [3, 4])
def test_a_run_ignores_a_factor_its_discretization_holds(bench, level):
    # the kept factor preconditions one-off solves; one left from before
    # the run must not precondition the run's first state solve
    fresh = Discretization(bench, build_uniform_mesh(level))
    *solution, records = run_ssn(fresh)
    disc = Discretization(bench, fresh.mesh)
    disc.solve_adjoint(np.full(disc.n_nodes, 0.9), np.ones(disc.n_nodes))
    *held, held_records = run_ssn(disc)
    assert held_records == records
    assert disc.factor_count == fresh.factor_count + 1
    for a, b in zip(held, solution):
        np.testing.assert_array_equal(a, b)


def test_coarse_start_whose_prolonged_state_needs_no_newton_step():
    # the solution is constant, y = 1/(1 + u), so the prolonged coarse
    # solution already solves the fine problem: its state solve takes no
    # Newton step and factors nothing, and outer step 0 factors Q itself
    # for the adjoint and stops on the residual
    level = ssn.COARSE_START_LEVEL
    disc = Discretization(linear_problem(), build_uniform_mesh(level))
    u, y, _, records = run_ssn(disc, SSNConfig(u0=0.5))
    own = [(r.j, r.newton_iters, r.stop_reason) for r in records if r.level == level]
    assert own == [(0, 0, "residual")]
    coarse_disc = Discretization(linear_problem(), build_uniform_mesh(level - 1))
    run_ssn(coarse_disc, SSNConfig(u0=0.5))
    assert disc.factor_count == coarse_disc.factor_count + 1
    assert np.max(np.abs(y * (1.0 + u) - 1.0)) <= 1e-12


def test_a_run_from_a_coarse_solution_solves_only_the_levels_above_it(bench):
    # the handed level-4 result is the start the level loop would compute,
    # so levels 5 and 6 repeat the lone run's rows and solution bit for bit
    level = ssn.COARSE_START_LEVEL + 1
    lone = Discretization(bench, build_uniform_mesh(level))
    *solution, records = run_ssn(lone)
    below = Discretization(bench, build_uniform_mesh(level - 2))
    disc = Discretization(bench, lone.mesh)
    *handed, handed_records = run_ssn(disc, coarse=run_ssn(below))
    assert handed_records == [r for r in records if r.level > level - 2]
    for a, b in zip(handed, solution):
        assert np.array_equal(a, b)
    assert disc.factor_count == lone.factor_count - below.factor_count
    assert disc.newton_count == lone.newton_count - below.newton_count


@pytest.mark.parametrize(
    "run_level, coarse_level, n",
    [
        (6, 3, 81),  # below COARSE_START_LEVEL - 1
        (6, 6, 4225),  # not coarser than the run
        (4, 3, 81),  # a level-4 run starts cold
        (6, 4, 1089),  # arrays of level 5
    ],
)
def test_run_rejects_a_coarse_solution_it_cannot_start_from(
    bench, run_level, coarse_level, n
):
    # a handed result only saves work the run would do: one of a level it
    # cannot start from is ignored, and the rows, arrays and counters are
    # those of the run without it, bit for bit; arrays that do not hold one
    # value per node of their level are an error
    row = IterationRecord(coarse_level, 0, 0.0, None, 0, None, 0.0, "residual")
    coarse = (np.zeros(n), np.zeros(n), np.zeros(n), [row])
    disc = Discretization(bench, build_uniform_mesh(run_level))
    if n != (2**coarse_level + 1) ** 2:
        with pytest.raises(ConfigurationError, match="coarse"):
            run_ssn(disc, coarse=coarse)
        assert disc.factor_count == 0
        return
    lone = Discretization(bench, disc.mesh)
    *solution, records = run_ssn(lone)
    *ignored, ignored_records = run_ssn(disc, coarse=coarse)
    assert ignored_records == records
    for a, b in zip(ignored, solution):
        assert np.array_equal(a, b)
    assert disc.factor_count == lone.factor_count
    assert disc.newton_count == lone.newton_count


def test_run_rejects_a_coarse_solution_without_rows(bench):
    disc = Discretization(bench, build_uniform_mesh(6))
    n = (2**5 + 1) ** 2
    coarse = (np.zeros(n), np.zeros(n), np.zeros(n), [])
    with pytest.raises(ConfigurationError, match="at least one row"):
        run_ssn(disc, coarse=coarse)
    assert disc.factor_count == 0


@pytest.mark.parametrize(
    "make",
    [
        lambda u, row: (u, u, [row]),  # three entries
        lambda u, row: (u, u, u, [row, "row"]),  # a row that is no record
        lambda u, row: (u, u, u, row),  # records that are no list
        lambda u, row: 5,
    ],
    ids=["three-entries", "not-a-record", "not-a-list", "an-int"],
)
def test_run_rejects_a_malformed_coarse(bench, make):
    disc = Discretization(bench, build_uniform_mesh(4))
    row = IterationRecord(3, 0, 0.0, None, 0, None, 0.0, "residual")
    with pytest.raises(ConfigurationError) as exc:
        run_ssn(disc, coarse=make(np.zeros(81), row))
    assert str(exc.value) == (
        "coarse must be the (u, y, phi, records) an earlier run_ssn returned, "
        "records a list of IterationRecord with at least one row"
    )
    assert disc.factor_count == 0


def test_a_failure_on_any_level_carries_the_rows_of_every_level(bench, monkeypatch):
    levels = []
    solve_state = Discretization.solve_state

    def logged(self, *args, **kwargs):
        levels.append(self.mesh.level)
        return solve_state(self, *args, **kwargs)

    monkeypatch.setattr(Discretization, "solve_state", logged)
    level = ssn.COARSE_START_LEVEL
    disc = Discretization(bench, build_uniform_mesh(level))
    # a state tolerance below rounding: the coarsest Newton loop reaches the
    # rounding floor after 9 steps, and no length of its 10th passes
    with pytest.raises(SolverError, match="no step length down to 2\\^-30") as exc:
        run_ssn(disc, SSNConfig(inner_tol=1e-30))
    assert levels == [level - 1]
    assert "in Newton step 10 " in str(exc.value)
    # no row was made; the state solve's residuals stay on the cause
    assert exc.value.history == []
    assert len(exc.value.__cause__.history) == 10
    # the failed coarse solve's work is counted on the run's Discretization
    assert disc.newton_count == 9 < MAX_NEWTON

    # negative curvature in the second outer CG of either level: the rows
    # of the coarser level and those of the failing one so far
    _, _, _, records = run_ssn(Discretization(bench, disc.mesh))
    coarse_rows = [(r.level, r.j) for r in records if r.level == level - 1]
    steps = len(coarse_rows) - 1
    solve = ssn.cg_solve
    failures = ((2, coarse_rows[:1]), (steps + 2, [*coarse_rows, (level, 0)]))
    for fail_at, rows in failures:
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == fail_at:
                raise NegativeCurvatureError("forced")
            return solve(*args, **kwargs)

        monkeypatch.setattr(ssn, "cg_solve", failing)
        with pytest.raises(NegativeCurvatureError, match="forced") as exc:
            run_ssn(Discretization(bench, disc.mesh))
        assert [(r.level, r.j) for r in exc.value.history] == rows
        assert type(exc.value.__cause__) is NegativeCurvatureError


def test_outer_loop_failure_carries_the_rows_made(bench, monkeypatch):
    # negative curvature in the second outer CG: the same class is raised
    # again with row 0 as its history and the CG's own error as its cause
    calls = []
    solve = ssn.cg_solve

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise NegativeCurvatureError("forced")
        return solve(*args, **kwargs)

    monkeypatch.setattr(ssn, "cg_solve", failing)
    with pytest.raises(NegativeCurvatureError, match="forced") as exc:
        run_ssn(Discretization(bench, build_uniform_mesh(3)))
    assert [r.j for r in exc.value.history] == [0]
    assert type(exc.value.__cause__) is NegativeCurvatureError


def _instance(nu, a0, alpha_share, beta):
    """The benchmark's quartic with a0 in place of its 2: da_dy >= a0."""
    bench = benchmark_instance()

    def a(x, y):
        return bench.a(x, y) + (a0 - 2.0) * y

    return dataclasses.replace(
        bench,
        a=a,
        da_dy=lambda x, y: bench.da_dy(x, y) + (a0 - 2.0),
        alpha=-alpha_share * a0,
        beta=beta,
        nu=nu,
        a0=a0,
    )


def _check_returned_point(spec, level):
    """A run meets outer_tol on its own level and on every nested one."""
    disc = Discretization(spec, build_uniform_mesh(level))
    u, y, phi, records = run_ssn(disc)
    residual = disc.norm(optimality_residual(spec, u, y, phi))
    tol = SSNConfig().outer_tol
    assert records[-1].stop_reason == "residual"
    assert residual == records[-1].residual <= tol
    # the box holds to the residual: rounding in u + (bound - u) included
    assert np.all(u >= spec.alpha - tol) and np.all(u <= spec.beta + tol)
    # levels run from the coarsest up, each ending on the residual
    first = min(level, ssn.COARSE_START_LEVEL - 1)
    levels = [r.level for r in records]
    assert levels == sorted(levels) and set(levels) == set(range(first, level + 1))
    finals = [r for r in records if r.delta is None]
    assert [r.level for r in finals] == list(range(first, level + 1))
    assert all(r.stop_reason == "residual" and r.residual <= tol for r in finals)


LEVELS_TO_CHECK = st.sampled_from([3, ssn.COARSE_START_LEVEL])


@settings(max_examples=36)
@given(
    nu=st.floats(0.01, 1.0),
    a0=st.floats(0.5, 4.0),
    alpha_share=st.floats(0.0, 0.9),
    beta=st.one_of(st.just(np.inf), st.floats(0.1, 3.0)),
    level=LEVELS_TO_CHECK,
)
def test_every_returned_point_meets_outer_tol(nu, a0, alpha_share, beta, level):
    _check_returned_point(_instance(nu, a0, alpha_share, beta), level)


@settings(max_examples=36)
@given(
    source=st.floats(10.0, 150.0),
    target=st.floats(0.0, 64.0),
    nu=st.floats(0.01, 1.0),
    level=LEVELS_TO_CHECK,
)
def test_every_returned_point_of_an_expression_instance_meets_outer_tol(
    source, target, nu, level
):
    # the README's expression problem with random coefficients in a and L
    tracked = f"(y + {target!r} * x1 * (1 - x1) * x2 * (1 - x2))"
    load = f"{source!r} * sin(2*pi*x1) * sin(pi*x2)"
    spec = ProblemSpec(
        a=Expression(f"y^3 * abs(y) + 2*y - {load}", True),
        da_dy=Expression("4 * y^2 * abs(y) + 2", True),
        d2a_dy2=Expression("12 * y * abs(y)", True),
        L=Expression(f"0.5 * {tracked}^2", True),
        dL_dy=Expression(tracked, True),
        d2L_dy2=Expression("1", True),
        g=Expression("0", False),
        alpha=-1.0,
        beta=1.0,
        nu=nu,
        a0=2.0,
    )
    assert validate(spec) == []
    _check_returned_point(spec, level)


@given(nu=st.floats(0.01, 1.0), a0=st.floats(0.5, 4.0), excess=st.floats(0.0, 2.0))
def test_an_instance_with_alpha_at_or_below_minus_a0_is_rejected(nu, a0, excess):
    spec = dataclasses.replace(_instance(nu, a0, 0.5, 1.0), alpha=-a0 - excess)
    with pytest.raises(ConfigurationError, match="-a0"):
        run_ssn(Discretization(spec, build_uniform_mesh(3)))


def test_outer_cg_runs_to_its_forcing_term(bench, monkeypatch):
    # eta_j is forcing_term of ||F(u_j)||_h: the first step runs to
    # CG_ETA_MAX, the last only to a share of outer_tol
    tols = []
    solve = ssn.cg_solve

    def recorded(apply, rhs, tol, *args, **kwargs):
        tols.append(tol)
        return solve(apply, rhs, tol, *args, **kwargs)

    monkeypatch.setattr(ssn, "cg_solve", recorded)
    cfg = SSNConfig()
    _, _, _, records = run_ssn(Discretization(bench, build_uniform_mesh(4)), cfg)
    full = records[:-1]
    expected = [
        forcing_term(
            r.residual ** (1.0 + ssn.CG_FORCING_THETA),
            r.residual,
            ssn.CG_TOL_SHARE * cfg.outer_tol,
            ssn.CG_ETA_MAX,
        )
        for r in full
    ]
    assert tols == expected
    assert tols[0] == ssn.CG_ETA_MAX
    # the last step solves only to a share of outer_tol
    last = full[-1].residual
    assert tols[-1] == ssn.CG_TOL_SHARE * cfg.outer_tol / last > pde.PCG_RTOL


def test_outer_cg_budget_is_the_node_count(bench, monkeypatch):
    # CG's exact-arithmetic bound: every outer CG of a nested level-6 run,
    # on each of levels 4-6, may take as many iterations as its level has
    # nodes
    budgets = []
    solve = ssn.cg_solve

    def recorded(apply, rhs, tol, max_iters, *args, **kwargs):
        budgets.append((rhs.shape[0], max_iters))
        return solve(apply, rhs, tol, max_iters, *args, **kwargs)

    monkeypatch.setattr(ssn, "cg_solve", recorded)
    run_ssn(Discretization(bench, build_uniform_mesh(6)))
    assert {n for n, _ in budgets} == {(2**k + 1) ** 2 for k in (4, 5, 6)}
    assert all(max_iters == n for n, max_iters in budgets)


def test_state_solves_start_from_the_predicted_state(bench, monkeypatch):
    # y_j + z_j, z_j the linearized state of step j, is far closer to the
    # state at u_{j+1} than y_j is
    starts = []
    solve_state = Discretization.solve_state

    def recorded(self, u, y_init=None, **kwargs):
        report = solve_state(self, u, y_init=y_init, **kwargs)
        starts.append((y_init, report.y))
        return report

    monkeypatch.setattr(Discretization, "solve_state", recorded)
    disc = Discretization(bench, build_uniform_mesh(4))
    run_ssn(disc)
    for (_, y_prev), (start, y) in zip(starts[1:3], starts[2:4]):
        assert disc.norm(start - y) <= 1e-2 * disc.norm(y_prev - y)


def test_adjoint_solves_start_from_the_predicted_adjoint(bench, monkeypatch):
    # phi_j + eta_j, eta_j the linearized adjoint of step j, is far closer
    # to the adjoint at u_{j+1} than phi_j is; a step that refactors
    # solves its adjoint directly, with no factor kept and from no start
    starts = []
    solve_adjoint = Discretization.solve_adjoint

    def recorded(self, u, y, phi_init=None):
        direct = self.kept_factor is None
        phi = solve_adjoint(self, u, y, phi_init=phi_init)
        starts.append((direct, phi_init, phi))
        return phi

    monkeypatch.setattr(Discretization, "solve_adjoint", recorded)
    disc = Discretization(bench, build_uniform_mesh(4))
    _, _, _, records = run_ssn(disc)
    refactored = [True] + [r.delta >= ssn.REFACTOR_STEP for r in records[:-1]]
    assert [direct for direct, _, _ in starts] == refactored
    assert [start is None for _, start, _ in starts] == refactored
    warm = [
        (prev, start, phi)
        for (_, _, prev), (_, start, phi) in zip(starts, starts[1:])
        if start is not None
    ]
    assert len(warm) >= 2
    for prev, start, phi in warm:
        assert disc.norm(start - phi) <= 1e-2 * disc.norm(prev - phi)


def test_run_validates_problem_data():
    spec = dataclasses.replace(benchmark_instance(), nu=0.0)
    with pytest.raises(ConfigurationError, match="nu"):
        run_ssn(Discretization(spec, build_uniform_mesh(2)))


def test_run_checks_structure_but_not_the_derivative_lint():
    # alpha = -3 < -a0 makes Q indefinite for admissible controls: rejected
    crossed = dataclasses.replace(benchmark_instance(), alpha=-3.0)
    with pytest.raises(ConfigurationError, match="-a0"):
        run_ssn(Discretization(crossed, build_uniform_mesh(2)))
    # a 1% error in dL_dy fails validate(spec) but is the caller's call
    bench = benchmark_instance()
    misscaled = dataclasses.replace(bench, dL_dy=lambda x, y: 1.01 * bench.dL_dy(x, y))
    assert any("dL_dy vs L" in m for m in validate(misscaled))
    _, _, _, records = run_ssn(Discretization(misscaled, build_uniform_mesh(2)))
    assert records[-1].stop_reason == "residual"
    assert records[-1].residual <= SSNConfig().outer_tol


def test_run_iteration_budget_carries_history(bench, monkeypatch):
    monkeypatch.setattr(ssn, "MAX_OUTER", 1)
    disc = Discretization(bench, build_uniform_mesh(3))
    with pytest.raises(SolverError, match="no convergence in 1 outer") as exc:
        run_ssn(disc)
    # row 0, then the final row of the control it reached
    assert [r.j for r in exc.value.history] == [0, 1]
    final = exc.value.history[-1]
    assert final.stop_reason == "budget" and final.delta is None
    assert final.residual > SSNConfig().outer_tol


LADDER = (4, 5, 6, 7)


def _ladder():
    """Benchmark runs at levels 4-7 for both tracking forms.

    Each run is (spec, disc, u, y, phi, records, sizes), sizes the order
    of every matrix factored during the run, on any mesh.
    """
    sizes = []
    factor = Discretization._factor

    def recorded(self, matrix):
        sizes.append(matrix.shape[0])
        return factor(self, matrix)

    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Discretization, "_factor", recorded)
        for tracking in ("quadratic", "linear"):
            spec = benchmark_instance(tracking)
            for level in LADDER:
                disc = Discretization(spec, build_uniform_mesh(level))
                runs[tracking, level] = (spec, disc, *run_ssn(disc), sizes[:])
                sizes.clear()
    return runs


@pytest.fixture(scope="module")
def ladder_runs():
    """The default runs: from level 5 up each solves the levels below first."""
    return _ladder()


@pytest.fixture(scope="module")
def cold_ladder_runs():
    """The same runs from u0 and a zero state on each mesh alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ssn, "COARSE_START_LEVEL", max(LADDER) + 1)
        return _ladder()


@pytest.mark.parametrize("tracking", ["quadratic", "linear"])
def test_outer_counts_equal_across_levels(cold_ladder_runs, tracking):
    counts = {
        level: sum(
            1 for r in cold_ladder_runs[tracking, level][5] if r.delta is not None
        )
        for level in LADDER
    }
    assert max(counts.values()) == min(counts.values()), counts


@pytest.mark.parametrize("tracking", ["quadratic", "linear"])
def test_ladder_newton_and_cg_columns(ladder_runs, tracking):
    # Level 4 starts cold: its state solve from zero takes 5 Newton steps.
    # Each level above starts from the prolonged solution of the one below,
    # whose rows come first, and its state solve takes 2-3 steps.  Each
    # later state solve starts from the state predicted by the step's
    # linearized state, and takes 0-2.  The outer CG runs to its forcing
    # term; a nested level keeps its first factor, so its steps contract
    # by 1e-2 to 1e-5 and the last one runs to a share of outer_tol.
    columns = {
        ("quadratic", 4): ([5, 2, 1, 1, 0], [1, 2, 4, 2]),
        ("quadratic", 5): ([3, 2, 2, 1, 0, 0], [1, 3, 5, 4, 2]),
        ("quadratic", 6): ([3, 2, 1, 0, 0], [1, 3, 4, 2]),
        ("quadratic", 7): ([2, 1, 1, 0], [2, 4, 3]),
        ("linear", 4): ([5, 2, 2, 1, 0], [1, 2, 4, 3]),
        ("linear", 5): ([3, 2, 2, 0, 0], [2, 4, 4, 2]),
        ("linear", 6): ([3, 2, 1, 0], [2, 5, 3]),
        ("linear", 7): ([2, 1, 0, 0], [3, 4, 2]),
    }
    for level in LADDER:
        records = ladder_runs[tracking, level][5]
        assert [r.level for r in records if r.j == 0] == list(range(4, level + 1))
        for lv in range(4, level + 1):
            rows = [r for r in records if r.level == lv]
            newton = [r.newton_iters for r in rows]
            cg = [r.cg_iters for r in rows[:-1]]
            assert (newton, cg) == columns[tracking, lv], (level, lv, newton, cg)


@pytest.mark.parametrize("tracking", ["quadratic", "linear"])
def test_nested_start_factors_each_level_once(ladder_runs, tracking):
    # level 4 factors three times (see the next test); each level above
    # once, in its state solve's first Newton step, a factor that all its
    # outer steps keep, since the first step is below REFACTOR_STEP
    for level in LADDER[1:]:
        _, disc, _, _, _, records, sizes = ladder_runs[tracking, level]
        nodes = [(2**lv + 1) ** 2 for lv in range(4, level + 1)]
        assert sizes == [nodes[0]] * 3 + nodes[1:], (level, sizes)
        assert disc.factor_count == len(sizes)
        first = [r for r in records if r.level > 4 and r.j == 0]
        assert all(r.delta < ssn.REFACTOR_STEP for r in first)


@pytest.mark.parametrize(
    "tracking, pcg, newton", [("quadratic", 36, 9), ("linear", 37, 10)]
)
def test_level_4_keeps_the_cold_start(ladder_runs, tracking, pcg, newton):
    # below COARSE_START_LEVEL the run starts from y = 0 and factors
    # Q(u0, 0), then Q(u0, y0) in outer step 0, then in outer step 1; the
    # one-off adjoint solves of the later steps start from the adjoint
    # their previous step predicted
    _, disc, _, _, _, _, sizes = ladder_runs[tracking, 4]
    assert 4 < ssn.COARSE_START_LEVEL
    assert sizes == [disc.n_nodes] * 3
    assert (disc.factor_count, disc.pcg_count, disc.newton_count) == (3, pcg, newton)


def test_run_factors_only_after_large_steps(bench):
    class Recording(Discretization):
        """Logs each state solve and each factorization, in call order."""

        def __init__(self, *args):
            super().__init__(*args)
            self.log = []

        def solve_state(self, *args, **kwargs):
            self.log.append("state")
            return super().solve_state(*args, **kwargs)

        def _factor(self, matrix):
            self.log.append("factor")
            return super()._factor(matrix)

    for tracking in ("quadratic", "linear"):
        disc = Recording(benchmark_instance(tracking), build_uniform_mesh(5))
        _, _, _, records = run_ssn(disc)
        # factorizations between fine state solve j and the next one: made
        # in outer step j, except that for j = 0 the state solve's first
        # Newton step factors (from the coarse start) and step 0 keeps it
        segments = " ".join(disc.log).split("state")[1:]
        made = [segment.split().count("factor") for segment in segments]
        # the coarser levels run on their own Discretization, unlogged
        steps = [r for r in records if r.level == disc.mesh.level][:-1]
        expected = [1] + [int(r.delta >= ssn.REFACTOR_STEP) for r in steps[:-1]]
        assert made == expected + [0], (tracking, made)
        assert any(r.delta < ssn.REFACTOR_STEP for r in steps[:-1])


@pytest.mark.parametrize("tracking", ["quadratic", "linear"])
def test_kept_factor_matches_refactoring_every_step(monkeypatch, tracking):
    # REFACTOR_STEP = 0 factors Q at every outer iteration, as before the
    # rule: on level 4 after its state solve from zero, and on each nested
    # level after outer step 0, which keeps its state solve's factor.  Both
    # runs agree on level 4 up to its first kept factor (step 2).  The
    # state tolerance bounds how well a control is known: at the default
    # 5e-14 the two end points differ by up to 1.4e-11 in the max norm,
    # so both runs here solve the states to 2e-15 and stop at 1e-14.
    cfg = SSNConfig(outer_tol=1e-14, inner_tol=2e-15)
    spec = benchmark_instance(tracking)
    rule = ssn.REFACTOR_STEP
    for level in LADDER:
        runs = []
        for refactor_step in (rule, 0.0):
            monkeypatch.setattr(ssn, "REFACTOR_STEP", refactor_step)
            disc = Discretization(spec, build_uniform_mesh(level))
            runs.append((disc, *run_ssn(disc, cfg)))
        (kept, u_kept, _, _, records_kept), (disc, u, _, _, records) = runs
        # three on level 4, one on each nested level
        assert kept.factor_count == 3 + level - 4
        assert disc.factor_count == len(records) + 1
        assert records_kept[-1].residual <= cfg.outer_tol
        assert records[-1].residual <= cfg.outer_tol
        assert np.max(np.abs(u_kept - u)) <= 1e-12
        assert records_kept[-1].J == pytest.approx(records[-1].J, rel=1e-14)
        for a, b in zip(records_kept[:3], records[:3], strict=True):
            assert (a.j, a.newton_iters, a.cg_iters) == (b.j, b.newton_iters, b.cg_iters)
            assert a.J == pytest.approx(b.J, rel=1e-12)


def test_step_nearest_the_refactoring_cut_keeps_the_counts():
    # at level 5 the first nested step delta_0 lies nearest the cut on the
    # benchmark (both trackings, nu in {0.01, 0.05, 0.2}, levels 5-9):
    # 0.095 keeps the factor of the state solve, and 0.103 factors Q anew
    # in outer step 1; level 4 factors three times before either
    cases = (("quadratic", 0.05, False, 5), ("linear", 0.01, True, 3))
    for tracking, nu, refactors, steps in cases:
        spec = dataclasses.replace(benchmark_instance(tracking), nu=nu)
        disc = Discretization(spec, build_uniform_mesh(5))
        _, _, _, records = run_ssn(disc)
        own = [r for r in records if r.level == 5]
        assert len(own) - 1 == steps
        assert abs(own[0].delta - ssn.REFACTOR_STEP) < 0.006
        assert (own[0].delta >= ssn.REFACTOR_STEP) == refactors
        assert disc.factor_count == 3 + 1 + refactors


def test_run_validates_once_for_all_levels(bench, monkeypatch):
    calls = []
    validate_spec = ssn.validate

    def counted(spec, **kwargs):
        calls.append(spec)
        return validate_spec(spec, **kwargs)

    monkeypatch.setattr(ssn, "validate", counted)
    run_ssn(Discretization(bench, build_uniform_mesh(ssn.COARSE_START_LEVEL + 1)))
    assert calls == [bench]


def test_coarse_levels_are_dropped_before_the_fine_state_solve(bench, monkeypatch):
    # each level's state solve first factors Q, a run's memory peak: no
    # coarser Discretization (and so no coarse LU) is alive then, nor a
    # coarser iterate or its arrays
    made = []

    class Level(Discretization):
        def __init__(self, *args):
            super().__init__(*args)
            made.append((self.mesh.level, weakref.ref(self)))

        def solve_state(self, *args, **kwargs):
            coarser = [ref for level, ref in made if level < self.mesh.level]
            alive.setdefault(self.mesh.level, sum(ref() is not None for ref in coarser))
            return super().solve_state(*args, **kwargs)

    linearize = ssn._linearize

    def recorded(disc, *args):
        it = linearize(disc, *args)
        for obj in (it, it.u, it.y, it.phi):
            made.append((disc.mesh.level, weakref.ref(obj)))
        return it

    alive = {}
    monkeypatch.setattr(ssn, "Discretization", Level)
    monkeypatch.setattr(ssn, "_linearize", recorded)
    run_ssn(Level(bench, build_uniform_mesh(7)))
    assert sorted({level for level, _ in made}) == [4, 5, 6, 7]
    assert alive == {4: 0, 5: 0, 6: 0, 7: 0}


@pytest.mark.parametrize(
    "level, max_outer, stop",
    [(3, ssn.MAX_OUTER, None), (5, 1, (4, "budget"))],
    ids=["converged", "budget"],
)
def test_run_releases_its_last_factorization(
    bench, monkeypatch, level, max_outer, stop
):
    # every level's LU dies with its level, also that of a level that fails
    monkeypatch.setattr(ssn, "MAX_OUTER", max_outer)
    made = []
    factor = Discretization._factor

    def recorded(self, matrix):
        op = factor(self, matrix)
        made.append(weakref.ref(op))
        return op

    monkeypatch.setattr(Discretization, "_factor", recorded)
    disc = Discretization(bench, build_uniform_mesh(level))
    stopped = None
    try:
        run_ssn(disc)
    except SolverError as exc:
        stopped = exc.history[-1].level, exc.history[-1].stop_reason
    assert stopped == stop
    assert len(made) == disc.factor_count >= 2
    assert all(ref() is None for ref in made)


@pytest.mark.parametrize("solve", ["verify-l3-no-pcg", "run-l6"])
def test_no_older_factorization_is_alive_when_one_is_built(bench, monkeypatch, solve):
    # a factorization is the memory peak: no older LU may be alive while
    # the next one is built, also when a one-off solve's PCG gives up and
    # falls back to a new factor (a budget of 0 makes every one do so)
    live = weakref.WeakSet()
    alive = []
    factor = LinearizedOperator.__init__

    def counted(self, matrix):
        if live:  # a collection can only lower the count
            gc.collect()
        alive.append(len(live))
        factor(self, matrix)
        live.add(self)

    monkeypatch.setattr(LinearizedOperator, "__init__", counted)
    if solve == "verify-l3-no-pcg":
        monkeypatch.setattr(pde, "PCG_MAX_ITERS", 0)
        result = verify_derivatives(bench, VerifySettings(level=3))
        assert result.factor_count > 2 + result.settings.directions
    else:
        run_ssn(Discretization(bench, build_uniform_mesh(6)))
    assert alive and max(alive) == 0


def test_ladder_runs_satisfy_projection_identity(ladder_runs):
    for spec, _, u, y, phi, _, _ in ladder_runs.values():
        assert np.max(np.abs(optimality_residual(spec, u, y, phi))) <= 1e-13


def test_final_objective_is_that_of_the_exact_state(ladder_runs):
    # J(u, y) - phi.r(u, y) against J at the state of u solved by exact
    # Newton steps: the correction removes the state solve's error
    for spec, disc, u, y, _, records, _ in ladder_runs.values():
        exact = y.copy()
        for _ in range(3):
            step = LinearizedOperator(linearized_matrix(disc, u, exact)).solve(
                disc.state_residual(u, exact)
            )
            exact -= step
        assert records[-1].J == pytest.approx(_objective(disc, u, exact), rel=2e-15)


def test_ladder_runs_stop_on_the_residual(ladder_runs):
    # each level stops at the first control that meets outer_tol, before
    # that iteration's CG; every row carries ||F(u_j)||_h
    cfg = SSNConfig()
    for spec, disc, u, y, phi, records, _ in ladder_runs.values():
        final = records[-1]
        assert final.residual == disc.norm(optimality_residual(spec, u, y, phi))
        for level in range(min(disc.mesh.level, 4), disc.mesh.level + 1):
            *full, last = [r for r in records if r.level == level]
            assert last.stop_reason == "residual"
            assert last.residual <= cfg.outer_tol
            assert all(r.delta is not None for r in full)
            assert all(r.stop_reason is None for r in full)
            assert all(r.residual > cfg.outer_tol for r in full)


def test_step_floor_is_the_stagnation_guard(bench):
    eps = np.finfo(float).eps
    assert step_floor(1) == 10 * eps
    assert step_floor(66049) == 10 * eps * 66049
    # a target below rounding: the steps fall below the floor first.  A
    # level solved cold ends on ||F||_h = 0.0 once its state and adjoint
    # solves return their first-order predictions untouched; a nested
    # level keeps the factor of its start, so its predictions are off by
    # a share of each step and its solves leave rounding noise in F
    cfg = SSNConfig(outer_tol=1e-20)
    coarse = run_ssn(Discretization(bench, build_uniform_mesh(4)), cfg)
    disc = Discretization(bench, build_uniform_mesh(5))
    with pytest.raises(SolverError, match="stagnation") as exc:
        run_ssn(disc, cfg, coarse=coarse)
    *full, final = exc.value.history
    assert final.stop_reason == "stagnation"
    assert full[-1].delta < step_floor(disc.n_nodes)
    assert all(r.delta >= step_floor(disc.n_nodes) for r in full[:-1])


def test_a_nonfinite_residual_stops_the_level_at_once(bench):
    # ||F||_h of u0 = 1e300 overflows: no CG runs on it, and the final row
    # of that control names the stop
    disc = Discretization(bench, build_uniform_mesh(3))
    with pytest.raises(SolverError, match="nonfinite") as exc:
        run_ssn(disc, SSNConfig(u0=1e300))
    (final,) = exc.value.history
    assert (final.j, final.stop_reason, final.delta) == (0, "nonfinite", None)
    assert final.residual == np.inf


def test_ssn_config_validation():
    with pytest.raises(ConfigurationError):
        SSNConfig(outer_tol=0.0)
    with pytest.raises(ConfigurationError):
        SSNConfig(inner_tol=-1e-10)
    for tols in ({"outer_tol": np.inf}, {"inner_tol": np.inf}, {"outer_tol": np.nan}):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            SSNConfig(**tols)
    for name in ("outer_tol", "inner_tol"):
        for value in ("1e-3", True):
            with pytest.raises(ConfigurationError) as exc:
                SSNConfig(**{name: value})
            assert str(exc.value) == f"{name} must be a real number, got {value!r}"
    for u0 in (np.nan, np.inf, np.zeros(3), None, True):
        with pytest.raises(ConfigurationError, match="u0 must be a finite real"):
            SSNConfig(u0=u0)
    cfg = SSNConfig()
    assert cfg.outer_tol == 5e-14 and cfg.inner_tol == 5e-14 and cfg.u0 == 0.0
    # the budgets are module constants, not settings
    assert [f.name for f in dataclasses.fields(cfg)] == ["outer_tol", "inner_tol", "u0"]
    assert ssn.MAX_OUTER == 30


# --- complementarity -----------------------------------------------------


def test_complementarity_partition(bench, disc3, solved3):
    u, y, phi, _ = solved3
    report = complementarity_report(disc3, u, y, phi)
    assert report.upper + report.lower + report.interior == pytest.approx(
        1.0, abs=1e-12
    )
    assert report.sigma <= report.upper + report.lower
    assert ssn.TOL_SIGMA == 1e-8


def test_complementarity_strict_on_benchmark(bench, disc3, solved3):
    u, y, phi, _ = solved3
    report = complementarity_report(disc3, u, y, phi)
    assert report.sigma == 0.0
    assert report.upper > 0.3 and report.lower > 0.1  # both bounds genuinely bind


def test_complementarity_with_infinite_upper_bound(disc3):
    spec = dataclasses.replace(benchmark_instance(), beta=np.inf)
    disc = Discretization(spec, disc3.mesh)
    n = disc.n_nodes
    u = np.zeros(n)
    report = complementarity_report(disc, u, np.ones(n), np.ones(n))
    assert report.upper == 0.0
