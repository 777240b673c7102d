"""Outer loop: classification, CG subproblem, convergence, reports."""

import dataclasses
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ssnbilinear import (
    ConfigurationError,
    Discretization,
    NegativeCurvatureError,
    SSNConfig,
    SolverError,
    benchmark_instance,
    build_uniform_mesh,
    complementarity_report,
    optimality_residual,
    run_ssn,
    validate,
)
from ssnbilinear import ssn
from ssnbilinear.objective import hessian_vec
from ssnbilinear.pde import cg_solve
from ssnbilinear.ssn import _step, apply_Mj, classify

finite_fields = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=40),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


# --- classification ------------------------------------------------------


@given(finite_fields, st.integers(0, 2**31 - 1))
def test_classify_partitions_nodes(y, seed):
    spec = benchmark_instance()
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(y.shape[0])
    sets = classify(spec, y, phi)
    total = sets.upper.astype(int) + sets.lower.astype(int) + sets.inactive.astype(int)
    assert np.all(total == 1)


def test_classify_ties_go_active():
    spec = benchmark_instance()  # nu = 0.05, bounds [-1, 1]
    y = np.array([1.0, 1.0, 1.0])
    phi = np.array([spec.nu * spec.beta, spec.nu * spec.alpha, 0.0])
    sets = classify(spec, y, phi)
    assert sets.upper.tolist() == [True, False, False]
    assert sets.lower.tolist() == [False, True, False]
    assert sets.inactive.tolist() == [False, False, True]


def test_classify_infinite_upper_bound():
    spec = dataclasses.replace(benchmark_instance(), beta=np.inf)
    y = np.array([1e8, -1e8, 0.0])
    phi = np.array([1e8, 1e8, 0.0])
    sets = classify(spec, y, phi)
    assert not sets.upper.any()
    assert sets.lower.tolist() == [False, True, False]


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


def test_negative_curvature_is_solver_error():
    assert issubclass(NegativeCurvatureError, SolverError)


# --- CG operator ---------------------------------------------------------


def test_apply_Mj_vanishes_on_active_set(bench, base_state3, disc3):
    u, y, phi, op = base_state3
    sets = classify(bench, y, phi)
    rng = np.random.default_rng(21)
    v = rng.standard_normal(disc3.n_nodes)
    out = apply_Mj(disc3, y, phi, sets, v, op)
    assert np.max(np.abs(out[~sets.inactive])) == 0.0
    # masking the input first changes nothing
    vi = np.where(sets.inactive, v, 0.0)
    out2 = apply_Mj(disc3, y, phi, sets, vi, op)
    np.testing.assert_array_equal(out, out2)


def test_apply_Mj_self_adjoint(bench, base_state3, disc3):
    u, y, phi, op = base_state3
    sets = classify(bench, y, phi)
    rng = np.random.default_rng(22)
    for _ in range(3):
        v1 = rng.standard_normal(disc3.n_nodes)
        v2 = rng.standard_normal(disc3.n_nodes)
        a1 = apply_Mj(disc3, y, phi, sets, v1, op)
        a2 = apply_Mj(disc3, y, phi, sets, v2, op)
        lhs = disc3.inner(a1, v2)
        rhs = disc3.inner(v1, a2)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_apply_Mj_scales_hessian_when_nothing_is_active():
    # with bounds far away the operator is the reduced Hessian over nu
    spec = dataclasses.replace(benchmark_instance(), alpha=-100.0, beta=100.0)
    disc = Discretization(spec, build_uniform_mesh(2))
    u = np.zeros(disc.n_nodes)
    y = disc.solve_state(u).y
    op = disc.linearized_operator(u, y)
    phi = disc.solve_adjoint(u, y, operator=op)
    sets = classify(spec, y, phi)
    assert np.all(sets.inactive)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(disc.n_nodes)
    av = apply_Mj(disc, y, phi, sets, v, op)
    hv = hessian_vec(disc, y, phi, v, op)
    np.testing.assert_allclose(spec.nu * av, hv, atol=1e-13)


# --- single step ---------------------------------------------------------


def one_step(disc, u, y_init=None):
    """One outer iteration from u with the default tolerances."""
    cfg = SSNConfig()
    state = disc.solve_state(u, y_init=y_init, tol=cfg.inner_tol)
    return _step(disc, 0, u, cfg, state)


def test_step_assigns_active_components_exactly(bench, disc3, base_state3):
    u, y, phi, op = base_state3
    sets = classify(bench, y, phi)
    w = y * phi / bench.nu - u
    w[sets.upper] = bench.beta - u[sets.upper]
    w[sets.lower] = bench.alpha - u[sets.lower]

    u_next, record = one_step(disc3, u)
    v = u_next - u  # u = 0, so this is the raw correction
    active = ~sets.inactive
    np.testing.assert_array_equal(v[active], w[active])
    assert record.delta >= 0.0
    assert record.cg_iters >= 1
    assert sum(record.measures) == pytest.approx(1.0, abs=1e-12)


def test_step_solves_reduced_system_to_tolerance(bench, disc3, base_state3):
    u, y, phi, op = base_state3
    sets = classify(bench, y, phi)
    w = y * phi / bench.nu - u
    w[sets.upper] = bench.beta - u[sets.upper]
    w[sets.lower] = bench.alpha - u[sets.lower]
    w_active = np.where(sets.inactive, 0.0, w)
    z_a = disc3.solve_linearized_state(y, w_active, operator=op)
    eta_a = disc3.solve_linearized_adjoint(y, phi, z_a, w_active, operator=op)
    rhs = np.where(sets.inactive, w + (z_a * phi + y * eta_a) / bench.nu, 0.0)

    u_next, _ = one_step(disc3, u)
    vi = np.where(sets.inactive, u_next - u, 0.0)
    resid = apply_Mj(disc3, y, phi, sets, vi, op) - rhs
    assert disc3.norm(resid) <= 1e-12 * disc3.norm(rhs)


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
        assert sum(r.measures) == pytest.approx(1.0, abs=1e-12)
    assert final.delta is None
    assert final.cg_iters is None
    assert final.measures is None
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
    assert records[-2].delta < SSNConfig().step_floor(25)


def test_run_iteration_budget_carries_history(bench):
    disc = Discretization(bench, build_uniform_mesh(3))
    with pytest.raises(SolverError) as exc:
        run_ssn(disc, SSNConfig(max_outer=1))
    assert len(exc.value.history) == 1
    assert exc.value.history[0].j == 0


LADDER = (4, 5, 6, 7)


@pytest.fixture(scope="module")
def ladder_runs():
    """Benchmark runs at levels 4-7 for both tracking forms."""
    runs = {}
    for tracking in ("quadratic", "linear"):
        spec = benchmark_instance(tracking)
        for level in LADDER:
            disc = Discretization(spec, build_uniform_mesh(level))
            runs[tracking, level] = (spec, disc.n_nodes, *run_ssn(disc))
    return runs


@pytest.mark.parametrize("tracking", ["quadratic", "linear"])
def test_outer_counts_equal_across_levels(ladder_runs, tracking):
    counts = {
        level: sum(1 for r in ladder_runs[tracking, level][-1] if r.delta is not None)
        for level in LADDER
    }
    assert max(counts.values()) == min(counts.values()), counts


@pytest.mark.parametrize("tracking", ["quadratic", "linear"])
def test_ladder_newton_and_cg_columns(ladder_runs, tracking):
    # the factorization-preconditioned state solves take exactly as many
    # Newton steps as direct solves did
    for level in LADDER:
        records = ladder_runs[tracking, level][-1]
        newton = [r.newton_iters for r in records]
        if tracking == "quadratic" and level == 4:
            assert newton == [5, 4, 2, 1, 0]
        else:
            assert newton == [5, 3, 2, 1, 0], (level, newton)
        assert [r.cg_iters for r in records[:-1]] == [7, 7, 7, 7]


def test_run_factors_three_times(bench):
    # the first Newton step of the cold start, then outer steps 0 and 1;
    # steps 2 and 3 follow small steps and keep the factor of step 1
    disc = Discretization(bench, build_uniform_mesh(6))
    _, _, _, records = run_ssn(disc)
    assert len(records) - 1 == 4
    assert disc.factor_count == 3


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
        # factorizations between state solve j and the next one: made in
        # outer step j (and, for j = 0, in the cold start's first step)
        segments = " ".join(disc.log).split("state")[1:]
        made = [segment.split().count("factor") for segment in segments]
        steps = records[:-1]
        expected = [2] + [int(r.delta >= ssn.REFACTOR_STEP) for r in steps[:-1]]
        assert made == expected + [0], (tracking, made)
        assert any(r.delta < ssn.REFACTOR_STEP for r in steps[:-1])


@pytest.mark.parametrize("tracking", ["quadratic", "linear"])
def test_kept_factor_matches_refactoring_every_step(
    ladder_runs, monkeypatch, tracking
):
    # REFACTOR_STEP = 0 factors Q at every outer step, as before the rule
    monkeypatch.setattr(ssn, "REFACTOR_STEP", 0.0)
    for level in LADDER:
        spec, _, u_kept, _, _, records_kept = ladder_runs[tracking, level]
        disc = Discretization(spec, build_uniform_mesh(level))
        u, _, _, records = run_ssn(disc)
        assert disc.factor_count == 5
        assert np.max(np.abs(u_kept - u)) <= 1e-12
        for a, b in zip(records_kept, records, strict=True):
            assert (a.j, a.newton_iters, a.cg_iters, a.measures) == (
                b.j,
                b.newton_iters,
                b.cg_iters,
                b.measures,
            )
            assert a.J == pytest.approx(b.J, rel=1e-12)


def test_step_nearest_the_refactoring_cut_keeps_the_counts(bench):
    # nu = 0.01 at level 6: outer step 2 keeps the factor of step 1 after
    # delta_1 = 1.9e-2, the nearest the cut among the level-6 variants
    spec = dataclasses.replace(bench, nu=0.01)
    disc = Discretization(spec, build_uniform_mesh(6))
    _, _, _, records = run_ssn(disc)
    assert len(records) - 1 == 4
    assert 1e-2 < records[1].delta < ssn.REFACTOR_STEP
    assert disc.factor_count == 3


def test_run_releases_its_last_factorization(bench):
    made = []

    class Recording(Discretization):
        def _factor(self, matrix):
            op = super()._factor(matrix)
            made.append(weakref.ref(op))
            return op

    disc = Recording(bench, build_uniform_mesh(3))
    run_ssn(disc)
    assert len(made) == disc.factor_count >= 2
    assert all(ref() is None for ref in made)


def test_ladder_runs_satisfy_projection_identity(ladder_runs):
    for spec, _, u, y, phi, _ in ladder_runs.values():
        assert np.max(np.abs(optimality_residual(spec, u, y, phi))) <= 1e-13


def test_ladder_runs_stop_below_step_floor(ladder_runs):
    cfg = SSNConfig()
    for _, n_nodes, _, _, _, records in ladder_runs.values():
        assert records[-2].delta < cfg.step_floor(n_nodes)
        assert all(r.delta is not None for r in records[:-1])


def test_step_floor_scales_with_node_count():
    eps = np.finfo(float).eps
    cfg = SSNConfig()
    assert cfg.step_floor(1) == cfg.outer_tol
    assert cfg.step_floor(66049) == 10 * eps * 66049
    assert SSNConfig(outer_tol=1e-6).step_floor(66049) == 1e-6


def test_ssn_config_validation():
    with pytest.raises(ConfigurationError):
        SSNConfig(outer_tol=0.0)
    with pytest.raises(ConfigurationError):
        SSNConfig(inner_tol=-1e-10)
    with pytest.raises(ConfigurationError):
        SSNConfig(max_outer=0)
    cfg = SSNConfig()
    assert cfg.outer_tol == 5e-14 and cfg.inner_tol == 5e-14
    assert cfg.max_outer == 30 and cfg.max_cg is None and cfg.u0 is None


# --- complementarity -----------------------------------------------------


def test_complementarity_partition(bench, disc3, solved3):
    u, y, phi, _ = solved3
    report = complementarity_report(disc3, u, y, phi)
    assert report.upper + report.lower + report.interior == pytest.approx(
        1.0, abs=1e-12
    )
    assert report.sigma <= report.upper + report.lower
    assert report.tol_sigma == 1e-8


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
