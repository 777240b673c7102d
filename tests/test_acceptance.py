"""End-to-end acceptance checks for the benchmark problem.

Each test prints one machine-greppable verdict line before asserting, so a
`pytest tests/test_acceptance.py -v -s` run reads as a checklist.  The
anchor values for the level-7 run and the bound-attainment measures are
frozen reference numbers for this benchmark configuration.

Criteria 01-03 describe the paper's method from u0 on each mesh: they
run on cold starts, with the nested start of the coarser levels turned
off.  Criterion 11 compares the default, nested runs with them.
"""

import math
import os
import time

import numpy as np
import pytest

from ssnbilinear import (
    Discretization,
    ProblemSpec,
    SSNConfig,
    benchmark_instance,
    build_uniform_mesh,
    complementarity_report,
    optimality_residual,
    run_ssn,
    verify_derivatives,
)
from ssnbilinear import ssn
from ssnbilinear.cli import main as cli_main
from ssnbilinear.verification import (
    _FLOOR_FACTOR,
    CURV_STEPS,
    GRAD_STEPS,
    VerifySettings,
)

REF_J0 = 3.9142466314434916
REF_JSTAR = 3.8210805974920712
REF_MEASURES = (0.459, 0.233, 0.308)
LEVELS = (5, 6, 7)


def _report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{name}]: {verdict} - {detail}")
    assert ok, f"criterion {num:02d} [{name}]: {detail}"


def _solve_levels():
    """Solve the benchmark at levels 5, 6, 7 once; time each level."""
    spec = benchmark_instance()
    runs = {}
    for level in LEVELS:
        mesh = build_uniform_mesh(level)
        disc = Discretization(spec, mesh)
        t0 = time.perf_counter()
        u, y, phi, records = run_ssn(disc)
        elapsed = time.perf_counter() - t0
        runs[level] = dict(
            spec=spec, mesh=mesh, disc=disc, u=u, y=y, phi=phi,
            records=records, elapsed=elapsed,
        )
    return runs


@pytest.fixture(scope="module")
def bench_runs():
    """The default runs: levels 5-7 each start from the next coarser one."""
    return _solve_levels()


@pytest.fixture(scope="module")
def cold_runs():
    """Runs from u0 and a zero state on each mesh, no coarser level first."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ssn, "COARSE_START_LEVEL", max(LEVELS) + 1)
        return _solve_levels()


@pytest.fixture(scope="module")
def deriv_result():
    t0 = time.perf_counter()
    result = verify_derivatives(
        benchmark_instance(), VerifySettings(level=4, directions=5, seed=1234)
    )
    return result, time.perf_counter() - t0


def outer_count(records):
    return sum(1 for r in records if r.delta is not None)


def test_objective_anchors_level7(cold_runs):
    run = cold_runs[7]
    records, elapsed = run["records"], run["elapsed"]
    j0, jstar = records[0].J, records[-1].J
    e0 = abs(j0 - REF_J0) / abs(REF_J0)
    estar = abs(jstar - REF_JSTAR) / abs(REF_JSTAR)
    outer = outer_count(records)
    ok = e0 <= 2e-3 and estar <= 2e-3 and 4 <= outer <= 6 and elapsed < 60.0
    _report(
        1, "level-7 objective anchors", ok,
        f"J(u0)={j0:.16e} (rel {e0:.2e}), J*={jstar:.16e} (rel {estar:.2e}), "
        f"{outer} outer iterations, {elapsed:.2f}s",
    )


def test_superlinear_decay(cold_runs):
    worst = 0.0
    checked = 0
    for level in LEVELS:
        deltas = [r.delta for r in cold_runs[level]["records"] if r.delta is not None]
        for j in range(1, len(deltas) - 1):
            if deltas[j] < 1e-12:
                break
            worst = max(worst, deltas[j + 1] / deltas[j])
            checked += 1
    ok = worst <= 0.1
    _report(
        2, "superlinear delta decay", ok,
        f"worst ratio delta_(j+1)/delta_j = {worst:.2e} over {checked} steps "
        f"at levels {LEVELS} (bound 0.1)",
    )


def test_mesh_independent_outer_counts(cold_runs):
    counts = {level: outer_count(cold_runs[level]["records"]) for level in LEVELS}
    total = sum(cold_runs[level]["elapsed"] for level in LEVELS)
    spread = max(counts.values()) - min(counts.values())
    ok = spread <= 1 and total < 180.0
    _report(
        3, "mesh-independent outer counts", ok,
        f"counts {counts} (spread {spread} <= 1), total {total:.2f}s < 180s",
    )


def test_bound_attainment_measures(bench_runs):
    run = bench_runs[7]
    rep = complementarity_report(run["disc"], run["u"], run["y"], run["phi"])
    assert ssn.TOL_SIGMA == 1e-8
    got = (rep.upper, rep.lower, rep.interior)
    devs = [abs(g - r) for g, r in zip(got, REF_MEASURES)]
    ok = max(devs) <= 0.02 and rep.sigma <= 0.005
    _report(
        4, "bound-attainment measures", ok,
        f"(upper, lower, interior) = ({got[0]:.4f}, {got[1]:.4f}, {got[2]:.4f}) "
        f"vs {REF_MEASURES} (max dev {max(devs):.4f} <= 0.02), "
        f"sigma = {rep.sigma:.2e} <= 5e-3",
    )


def _order_ok(order, errors, steps, floor_of):
    """An order passes at >= 1.9; 'inf' means the whole error sequence sat
    at the roundoff floor, which we certify against the absolute floor size
    rather than take on faith."""
    if math.isinf(order):
        return all(err <= 50.0 * floor_of(t) for t, err in zip(steps, errors))
    return order >= 1.9


def test_gradient_consistency_order(deriv_result):
    result, elapsed = deriv_result
    eps = float(np.finfo(float).eps)
    reports = result.directions
    orders = [r.grad_order for r in reports]
    floor = lambda t: _FLOOR_FACTOR * eps * 4.0 / t
    all_ok = all(
        _order_ok(r.grad_order, r.grad_errors, GRAD_STEPS, floor) for r in reports
    )
    ok = len(reports) == 5 and all_ok and elapsed < 30.0
    shown = ", ".join("floor" if math.isinf(o) else f"{o:.2f}" for o in orders)
    _report(
        5, "gradient finite-difference order", ok,
        f"orders [{shown}] (>= 1.9; 'floor' = errors at roundoff scale "
        f"for every step), {elapsed:.2f}s < 30s",
    )


def test_curvature_consistency_and_symmetry(deriv_result):
    result, _ = deriv_result
    eps = float(np.finfo(float).eps)
    reports = result.directions
    orders = [r.curv_order for r in reports]
    floor = lambda t: 4.0 * _FLOOR_FACTOR * eps * 4.0 / (t * t)
    all_ok = all(
        _order_ok(r.curv_order, r.curv_errors, CURV_STEPS, floor) for r in reports
    )
    sym = result.symmetry
    ok = all_ok and len(sym) == 5 and max(sym) <= 1e-10
    shown = ", ".join("floor" if math.isinf(o) else f"{o:.2f}" for o in orders)
    _report(
        6, "curvature order and symmetry", ok,
        f"orders [{shown}] (>= 1.9), symmetry residuals max "
        f"{max(sym):.2e} <= 1e-10 on {len(sym)} pairs",
    )


def test_projection_identity_at_solution(bench_runs):
    worst = 0.0
    for level in LEVELS:
        run = bench_runs[level]
        res = optimality_residual(run["spec"], run["u"], run["y"], run["phi"])
        worst = max(worst, float(np.max(np.abs(res))))
    ok = worst <= 1e-10
    _report(
        7, "projection identity", ok,
        f"max |u - clamp(y*phi/nu)| = {worst:.2e} <= 1e-10 at levels {LEVELS}",
    )


def test_constant_state_solutions():
    spec = ProblemSpec(
        a=lambda x, y: y - 1.0,
        da_dy=lambda x, y: np.ones_like(y),
        d2a_dy2=lambda x, y: np.zeros_like(y),
        L=lambda x, y: 0.5 * y**2,
        dL_dy=lambda x, y: y,
        d2L_dy2=lambda x, y: np.ones_like(y),
        g=lambda x: np.zeros(x.shape[0]),
        alpha=-0.9,
        beta=1.0,
        nu=0.1,
        a0=1.0,
    )
    disc = Discretization(spec, build_uniform_mesh(4))
    n = disc.n_nodes
    err0 = float(np.max(np.abs(disc.solve_state(np.zeros(n)).y - 1.0)))
    worst_c = 0.0
    for c in (0.5, 0.25, -0.5):
        y = disc.solve_state(np.full(n, c)).y
        worst_c = max(worst_c, float(np.max(np.abs(y - 1.0 / (1.0 + c)))))
    ok = err0 <= 1e-12 and worst_c <= 1e-12
    _report(
        8, "constant-state solutions", ok,
        f"u=0: |y-1| = {err0:.2e}; u=c: |y-1/(1+c)| = {worst_c:.2e} (<= 1e-12)",
    )


def test_cg_iteration_budget(bench_runs):
    worst = 0
    for level in LEVELS:
        for r in bench_runs[level]["records"]:
            if r.cg_iters is not None:
                worst = max(worst, r.cg_iters)
    # a negative-curvature direction would have aborted the runs entirely
    ok = worst <= 25
    _report(
        9, "cg iteration budget", ok,
        f"max cg iterations {worst} <= 25 across levels {LEVELS}, "
        f"no negative curvature encountered",
    )


def test_identical_runs_bytewise(tmp_path):
    out_dir = str(tmp_path / "out")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[problem]\npreset = benchmark\n\n[mesh]\nlevels = 4 5\n\n"
        f"[output]\ndirectory = {out_dir}\n"
    )
    assert cli_main(["run", str(cfg)]) == 0
    csvs = {
        level: (tmp_path / "out" / f"level_{level}" / "convergence.csv").read_bytes()
        for level in (4, 5)
    }
    assert cli_main(["run", str(cfg)]) == 0
    same = all(
        (tmp_path / "out" / f"level_{level}" / "convergence.csv").read_bytes()
        == csvs[level]
        for level in (4, 5)
    )
    _report(
        10, "bytewise repeatable runs", same,
        "two identical invocations wrote byte-identical convergence CSVs "
        "at levels 4 and 5",
    )


def test_nested_start_reaches_the_cold_solution(bench_runs, cold_runs):
    # each level starts from the solution of the next coarser one: the same
    # J*, a final ||F||_h within outer_tol, and an outer count on the level
    # itself that does not rise with the level
    outer_tol = SSNConfig().outer_tol
    worst_j = worst_f = 0.0
    counts = {}
    for level in LEVELS:
        nested, cold = bench_runs[level]["records"], cold_runs[level]["records"]
        worst_j = max(worst_j, abs(nested[-1].J - cold[-1].J) / abs(cold[-1].J))
        worst_f = max(worst_f, nested[-1].residual)
        counts[level] = outer_count([r for r in nested if r.level == level])
    rising = [lv for lv in LEVELS[1:] if counts[lv] > counts[lv - 1]]
    ok = worst_j <= 1e-12 and worst_f <= outer_tol and not rising
    _report(
        11, "nested start", ok,
        f"J* within {worst_j:.2e} of the cold runs (<= 1e-12), final "
        f"||F||_h <= {worst_f:.2e} (outer_tol {outer_tol:.0e}), outer counts "
        f"on the level itself {counts} (none rising)",
    )
