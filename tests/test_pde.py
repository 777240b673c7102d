"""PDE solves: analytic states, Newton behavior, linearized solves."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from conftest import linearized_matrix

from ssnbilinear import (
    Discretization,
    NegativeCurvatureError,
    ProblemSpec,
    SolverError,
    benchmark_instance,
    build_uniform_mesh,
)
from ssnbilinear import pde
from ssnbilinear.pde import (
    DEFAULT_TOL,
    NEWTON_ETA_MAX,
    NEWTON_TOL_SHARE,
    PCG_MAX_ITERS,
    PCG_RTOL,
    SUFFICIENT_DECREASE,
    LinearizedOperator,
    cg_solve,
    forcing_term,
)


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
    disc = Discretization(linear_problem(), build_uniform_mesh(4))
    report = disc.solve_state(disc.zeros())
    assert np.max(np.abs(report.y - 1.0)) <= 1e-12
    assert report.newton_iters == 1  # the problem is linear in y


@pytest.mark.parametrize("c", [0.5, 0.25, -0.5])
def test_constant_state_constant_control(c):
    disc = Discretization(linear_problem(), build_uniform_mesh(4))
    report = disc.solve_state(np.full(disc.n_nodes, c))
    assert np.max(np.abs(report.y - 1.0 / (1.0 + c))) <= 1e-12
    assert report.newton_iters == 1


def test_benchmark_state_solve_converges(disc3):
    u = np.zeros(disc3.n_nodes)
    report = disc3.solve_state(u)
    assert disc3.norm(disc3.state_residual(u, report.y)) <= 5e-14
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
        q = linearized_matrix(disc3, u, y)
        step = LinearizedOperator(q).solve(-disc3.state_residual(u, y))
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


# --- one-off solves preconditioned by the kept factorization -----------


def test_second_state_solve_reuses_the_kept_factorization():
    disc = Discretization(linear_problem(), build_uniform_mesh(4))
    disc.solve_state(disc.zeros())
    assert disc.factor_count == 1
    report = disc.solve_state(np.full(disc.n_nodes, 0.25))
    assert disc.factor_count == 1
    assert report.newton_iters == 1
    assert np.max(np.abs(report.y - 1.0 / 1.25)) <= 1e-12


def test_pcg_past_the_cap_factors_directly():
    # the kept factor of Q(0) is a poor preconditioner for a control that
    # varies over six orders of magnitude: PCG gives up even at the first
    # Newton step's loose target, Q is factored
    disc = Discretization(linear_problem(), build_uniform_mesh(4))
    disc.solve_state(disc.zeros())
    u = np.random.default_rng(3).uniform(0.0, 1e6, disc.n_nodes)
    q = linearized_matrix(disc, u, disc.zeros())
    kept = LinearizedOperator(linearized_matrix(disc, disc.zeros(), disc.zeros()))
    for rtol in (PCG_RTOL, NEWTON_ETA_MAX):
        with pytest.raises(SolverError, match="no convergence"):
            cg_solve(
                lambda p: q @ p,
                disc.weights,
                rtol,
                PCG_MAX_ITERS,
                precondition=kept.solve,
            )
    report = disc.solve_state(u)
    assert disc.factor_count == 2
    assert report.newton_iters == 1
    direct = spla.spsolve(q, disc.weights)
    assert np.max(np.abs(report.y - direct)) <= 1e-12


def test_fallback_on_a_later_newton_step():
    # four orders of magnitude: the first step's PCG reaches its loose
    # target, the second step's tighter one is out of reach and Q is factored
    disc = Discretization(linear_problem(), build_uniform_mesh(4))
    disc.solve_state(disc.zeros())
    u = np.random.default_rng(3).uniform(0.0, 1e4, disc.n_nodes)
    q = linearized_matrix(disc, u, disc.zeros())
    report = disc.solve_state(u)
    assert disc.factor_count == 2
    assert report.newton_iters == 2
    direct = spla.spsolve(q, disc.weights)
    assert np.max(np.abs(report.y - direct)) <= 1e-12


def test_linear_state_solve_without_a_new_factorization():
    disc = Discretization(linear_problem(), build_uniform_mesh(4))
    disc.solve_state(disc.zeros())
    u = np.random.default_rng(4).uniform(0.0, 1.0, disc.n_nodes)
    report = disc.solve_state(u)
    assert disc.factor_count == 1
    direct = spla.spsolve(linearized_matrix(disc, u, disc.zeros()), disc.weights)
    assert np.max(np.abs(report.y - direct)) <= 1e-12


def test_cold_start_newton_steps_are_inexact(bench):
    # level-6 benchmark from y = 0: the first step factors, the other four
    # run PCG to their forcing terms (60 applications when each ran to 1e-13)
    disc = Discretization(bench, build_uniform_mesh(6))
    report = disc.solve_state(disc.zeros())
    assert report.newton_iters == 5
    assert disc.factor_count == 1
    assert 0 < disc.pcg_count <= 40


class RecordingDiscretization(Discretization):
    """Records every one-off solve and whether it made a factorization."""

    def __init__(self, *args):
        super().__init__(*args)
        self.solves = []

    def _solve_once(self, u, y, rhs, rtol=PCG_RTOL):
        factors = self.factor_count
        x = super()._solve_once(u, y, rhs, rtol)
        self.solves.append((u, y, rhs, rtol, x, self.factor_count > factors))
        return x


def test_newton_steps_meet_their_forcing_terms(bench):
    disc = RecordingDiscretization(bench, build_uniform_mesh(5))
    first = disc.solve_state(disc.zeros())
    u = np.clip(np.sin(7.0 * disc.x[:, 0]) * disc.x[:, 1], -1.0, 1.0)
    cold = disc.solves[:]
    warm = disc.solve_state(u, y_init=first.y)
    assert disc.norm(disc.state_residual(disc.zeros(), first.y)) <= 5e-14
    assert disc.norm(disc.state_residual(u, warm.y)) <= 5e-14
    checked = 0
    for solves in (cold, disc.solves[len(cold):]):
        r0 = disc.norm(solves[0][2])
        for u_k, y_k, rhs, eta, x, factored in solves:
            rnorm = disc.norm(rhs)
            forcing = max((rnorm / r0) ** 2, NEWTON_TOL_SHARE * DEFAULT_TOL / rnorm)
            expected = max(PCG_RTOL, min(NEWTON_ETA_MAX, forcing))
            assert eta == pytest.approx(expected, rel=1e-12)
            if factored:
                continue
            assert eta <= 1e-2
            q = linearized_matrix(disc, u_k, y_k)
            assert np.linalg.norm(q @ x - rhs) <= eta * np.linalg.norm(rhs)
            checked += 1
    assert checked >= 6
    assert cold[0][3] == NEWTON_ETA_MAX


def test_warm_state_solve_does_not_assemble_q(bench):
    disc = Discretization(bench, build_uniform_mesh(5))
    first = disc.solve_state(disc.zeros())

    def refuse(d):
        raise AssertionError("Q was assembled")

    disc._matrix = refuse
    report = disc.solve_state(np.full(disc.n_nodes, 0.3), y_init=first.y)
    assert report.newton_iters >= 2
    assert disc.factor_count == 1


@pytest.mark.parametrize("level", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "diffusion",
    [np.eye(2), np.diag([1.0, 10.0]), np.array([[2.0, 0.5], [0.5, 1.0]])],
    ids=["identity", "anisotropic", "full"],
)
def test_q_is_assembled_on_k_bit_for_bit(bench, level, diffusion):
    disc = Discretization(
        dataclasses.replace(bench, diffusion=diffusion), build_uniform_mesh(level)
    )
    rng = np.random.default_rng(level)
    u = rng.uniform(bench.alpha, bench.beta, disc.n_nodes)
    y = rng.normal(size=disc.n_nodes)
    q = disc._matrix(disc._reaction(u, y))
    ref = linearized_matrix(disc, u, y)
    assert q.format == "csc"
    for name in ("data", "indices", "indptr"):
        got, want = getattr(q, name), getattr(ref, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), name
    # Q's index arrays are K's: only the values are allocated
    assert np.shares_memory(q.indices, disc.stiffness.indices)
    assert np.shares_memory(q.indptr, disc.stiffness.indptr)


def test_a_factoring_solve_allocates_only_q_values_beside_the_lu(bench):
    """The numpy arrays a factoring one-off solve allocates at level 6: Q's
    values (a copy of K's data) and a few node vectors at any one time.
    SuperLU's own allocations, the LU among them, are not traced."""
    disc = Discretization(bench, build_uniform_mesh(6))
    u, y = np.full(disc.n_nodes, 0.3), np.full(disc.n_nodes, 0.5)
    rhs = disc.weights.copy()
    disc.release_factorization()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        disc._solve_once(u, y, rhs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert disc.factor_count == 1
    assert peak <= disc.stiffness.data.nbytes + 4 * rhs.nbytes


def test_state_solve_never_writes_into_its_start(bench):
    disc = Discretization(bench, build_uniform_mesh(4))
    start = np.full(disc.n_nodes, 0.5)
    start.flags.writeable = False
    report = disc.solve_state(disc.zeros(), y_init=start)
    assert report.newton_iters >= 1
    assert np.all(start == 0.5)
    assert disc.norm(disc.state_residual(disc.zeros(), report.y)) <= DEFAULT_TOL


def test_pcg_never_returns_an_unconverged_iterate():
    rhs = np.ones(4)
    with pytest.raises(NegativeCurvatureError):
        cg_solve(lambda p: -p, rhs, PCG_RTOL, PCG_MAX_ITERS, precondition=lambda r: r)
    # nonfinite preconditioner output
    with pytest.raises(SolverError, match="nonfinite"):
        cg_solve(
            lambda p: p,
            rhs,
            PCG_RTOL,
            PCG_MAX_ITERS,
            precondition=lambda r: np.full_like(r, np.inf),
        )
    # n distinct eigenvalues need n unpreconditioned iterations
    n = PCG_MAX_ITERS + 5
    spread = sp.diags(np.geomspace(1.0, 1e6, n)).tocsr()
    with pytest.raises(SolverError, match="no convergence"):
        cg_solve(
            lambda p: spread @ p,
            np.ones(n),
            PCG_RTOL,
            PCG_MAX_ITERS,
            precondition=lambda r: r,
        )


def test_state_solve_iteration_budget(monkeypatch):
    disc = Discretization(benchmark_instance(), build_uniform_mesh(2))
    monkeypatch.setattr(pde, "MAX_NEWTON", 0)
    with pytest.raises(SolverError) as exc:
        disc.solve_state(disc.zeros())
    assert len(exc.value.history) == 1


def test_an_uphill_step_raises_with_its_history():
    # a step along +Q^-1 r raises the residual at every length, so every
    # halving fails: the solve raises before it accepts the step, and the
    # same Discretization still converges once its steps go downhill
    class Uphill(Discretization):
        uphill = True

        def _solve_once(self, *args):
            step = super()._solve_once(*args)
            return -step if self.uphill else step

    disc = Uphill(benchmark_instance(), build_uniform_mesh(2))
    u = disc.zeros()
    with pytest.raises(SolverError, match="no step length down to 2\\^-30") as exc:
        disc.solve_state(u)
    assert exc.value.history == [disc.norm(disc.state_residual(u, disc.zeros()))]
    assert "Newton step 1 " in str(exc.value)
    assert disc.newton_count == 0
    disc.uphill = False
    report = disc.solve_state(u)
    assert disc.norm(disc.state_residual(u, report.y)) <= DEFAULT_TOL
    assert disc.newton_count == report.newton_iters >= 1


@pytest.mark.parametrize("level", [2, 3])
def test_a_stall_at_the_rounding_floor_raises(level):
    # at the rounding floor of ||r||_h (4.4e-16 to 6.7e-16 here) halved
    # steps lower the computed residual only by rounding creep of 1e-6 to
    # 1e-5 relative: the first step there that meets no sufficient
    # decrease raises, long before MAX_NEWTON, and every accepted step
    # made progress
    disc = Discretization(benchmark_instance(), build_uniform_mesh(level))
    with pytest.raises(SolverError, match="no step length") as exc:
        disc.solve_state(disc.zeros(), tol=1e-30)
    history = exc.value.history
    least = 1.0 - SUFFICIENT_DECREASE
    assert all(new <= least * old for old, new in zip(history, history[1:]))
    assert disc.newton_count == len(history) - 1 < 15 < pde.MAX_NEWTON
    assert 1e-16 < history[-1] < 1e-15


def test_forcing_term_clamps_its_two_terms():
    # the rate term wins far from the target, the target term near it,
    # and neither goes below PCG_RTOL
    assert pde.PCG_RTOL == 1e-13
    assert forcing_term(1e-6, 1e-3, 1e-15, 1e-2) == 1e-6
    assert forcing_term(1e-20, 1e-13, 1e-15, 1e-2) == 1e-2
    assert forcing_term(1e-20, 1e-3, 1e-15, 1e-2) == 1e-12
    assert forcing_term(1e-20, 1.0, 1e-15, 1e-2) == pde.PCG_RTOL
    assert forcing_term(0.5, 1.0, 1e-15, 1e-2) == 1e-2


def test_state_solve_rejects_bad_tolerance():
    # an infinite tol would accept the unsolved start, a NaN one would run
    # MAX_NEWTON steps before a misleading line-search failure
    disc = Discretization(linear_problem(), build_uniform_mesh(1))
    for tol in (-1.0, np.inf, np.nan):
        with pytest.raises(SolverError, match="must be positive and finite") as exc:
            disc.solve_state(disc.zeros(), tol=tol)
        assert exc.value.history == []
    assert disc.newton_count == 0


def test_state_solve_detects_nonfinite_residual():
    disc = Discretization(benchmark_instance(), build_uniform_mesh(2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the quartic overflows by design here
        with pytest.raises(SolverError, match="not finite"):
            disc.solve_state(disc.zeros(), y_init=np.full(disc.n_nodes, 1e200))


def test_singular_operator_reported():
    with pytest.raises(SolverError, match="singular"):
        LinearizedOperator(sp.csc_matrix((3, 3)))


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
    disc = Discretization(spec, mesh)
    y = disc.solve_state(u).y
    phi = disc.solve_adjoint(u, y)
    assert np.max(np.abs(phi - r)) <= 1e-12


def test_adjoint_without_a_kept_factor_factors_and_solves_directly(bench):
    disc = Discretization(bench, build_uniform_mesh(3))
    u = np.full(disc.n_nodes, 0.5)
    y = disc.solve_state(u).y
    disc.release_factorization()
    factors, pcg = disc.factor_count, disc.pcg_count
    phi = disc.solve_adjoint(u, y)
    assert disc.factor_count == factors + 1
    assert disc.pcg_count == pcg
    rhs = disc.weights * bench.dL_dy(disc.x, y)
    exact = LinearizedOperator(linearized_matrix(disc, u, y)).solve(rhs)
    np.testing.assert_array_equal(phi, exact)
    np.testing.assert_array_equal(disc.kept_factor.solve(rhs), exact)


def test_linearized_solves_need_a_kept_factor(bench):
    disc = Discretization(bench, build_uniform_mesh(2))
    y, v = np.ones(disc.n_nodes), np.ones(disc.n_nodes)
    with pytest.raises(SolverError, match="no factorization"):
        disc.hessian_term(y, y, v)


def test_one_off_adjoint_starts_from_phi_init(bench):
    # the kept factor of Q at the zero control preconditions the adjoint at
    # u = 0.5: a start near the adjoint takes fewer iterations than one
    # from zero, to the same target, and one that meets it takes none
    disc = Discretization(bench, build_uniform_mesh(4))
    disc.solve_state(disc.zeros())
    u = np.full(disc.n_nodes, 0.5)
    y = disc.solve_state(u).y
    q = linearized_matrix(disc, u, y)
    rhs = disc.weights * bench.dL_dy(disc.x, y)
    exact = LinearizedOperator(q).solve(rhs)
    assert np.linalg.norm(rhs - q @ exact) <= PCG_RTOL * np.linalg.norm(rhs)
    counts = []
    for start in (None, exact * (1.0 + 1e-6 * np.sin(7.0 * disc.x[:, 0])), exact):
        before = disc.pcg_count
        phi = disc.solve_adjoint(u, y, phi_init=start)
        counts.append(disc.pcg_count - before)
        assert np.linalg.norm(rhs - q @ phi) <= PCG_RTOL * np.linalg.norm(rhs)
    np.testing.assert_array_equal(phi, exact)
    assert counts[0] > counts[1] > counts[2] == 0
    assert disc.factor_count == 1


# --- linearized solves --------------------------------------------------


def test_linearized_state_zero_direction(base_state3, disc3):
    _, y, phi = base_state3
    for out in disc3.hessian_term(y, phi, disc3.zeros()):
        assert np.max(np.abs(out)) == 0.0


def test_linearized_state_linear_in_direction(base_state3, disc3):
    _, y, phi = base_state3
    rng = np.random.default_rng(2)
    v1 = rng.standard_normal(disc3.n_nodes)
    v2 = rng.standard_normal(disc3.n_nodes)
    z = disc3.hessian_term(y, phi, 2.0 * v1 - 3.0 * v2)[1]
    z12 = 2.0 * disc3.hessian_term(y, phi, v1)[1] - 3.0 * disc3.hessian_term(
        y, phi, v2
    )[1]
    np.testing.assert_allclose(z, z12, rtol=1e-12, atol=1e-15)


def test_linearized_state_matches_difference_quotient(base_state3, disc3):
    u, y, phi = base_state3
    rng = np.random.default_rng(5)
    v = rng.standard_normal(disc3.n_nodes)
    v /= disc3.norm(v)
    z = disc3.hessian_term(y, phi, v)[1]
    errs = []
    for t in (1e-2, 1e-3):
        yp = disc3.solve_state(u + t * v).y
        ym = disc3.solve_state(u - t * v).y
        errs.append(disc3.norm((yp - ym) / (2 * t) - z))
    assert errs[0] <= 1e-8
    assert errs[1] <= 0.05 * errs[0]  # second-order quotient


def test_linearized_adjoint_matches_difference_quotient(base_state3, disc3):
    u, y, phi = base_state3
    rng = np.random.default_rng(6)
    v = rng.standard_normal(disc3.n_nodes)
    v /= disc3.norm(v)
    _, _, eta = disc3.hessian_term(y, phi, v)
    errs = []
    for t in (1e-2, 1e-3):
        php = disc3.solve_adjoint(u + t * v, disc3.solve_state(u + t * v).y)
        phm = disc3.solve_adjoint(u - t * v, disc3.solve_state(u - t * v).y)
        errs.append(disc3.norm((php - phm) / (2 * t) - eta))
    assert errs[0] <= 1e-8
    assert errs[1] <= 0.05 * errs[0]


def test_linearized_solve_transpose_identity(base_state3, disc3):
    # z_v = Q^{-1}(-W y v) makes (W y w)^T z_v symmetric in v and w
    _, y, phi = base_state3
    rng = np.random.default_rng(9)
    for _ in range(3):
        v = rng.standard_normal(disc3.n_nodes)
        w = rng.standard_normal(disc3.n_nodes)
        zv = disc3.hessian_term(y, phi, v)[1]
        zw = disc3.hessian_term(y, phi, w)[1]
        lhs = float(np.sum(disc3.weights * y * w * zv))
        rhs = float(np.sum(disc3.weights * y * v * zw))
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-14)


def test_operator_positive_definite_for_admissible_controls(bench):
    # worst admissible control is the lower bound; da_dy + alpha >= a0 + alpha > 0
    mesh = build_uniform_mesh(2)
    disc = Discretization(bench, mesh)
    u = np.full(disc.n_nodes, bench.alpha)
    y = disc.solve_state(u).y
    q = linearized_matrix(disc, u, y).toarray()
    eigs = np.linalg.eigvalsh(q)
    assert eigs[0] > 0.0


def test_symmetric_mode_factor_is_sparse_and_accurate(bench):
    # benchmark Q at level 6 and the zero control; COLAMD with partial
    # pivoting needs 223,700 nonzeros in L+U here
    disc = Discretization(bench, build_uniform_mesh(6))
    u = np.zeros(disc.n_nodes)
    y = disc.solve_state(u).y
    q = linearized_matrix(disc, u, y)
    assert q.format == "csc"
    op = LinearizedOperator(q)
    assert op._lu.L.nnz + op._lu.U.nnz <= 140_000
    rng = np.random.default_rng(11)
    for b in (rng.standard_normal(disc.n_nodes), disc.weights * y):
        x = op.solve(b)
        assert np.linalg.norm(q @ x - b) <= 1e-13 * np.linalg.norm(b)

