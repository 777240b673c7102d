"""The benchmark tracer's hooks still resolve in the package.

perfbench/child.py wraps solver entry points by name and silently skips
any name that no longer exists, so a rename would quietly drop a layer
from the benchmark's per-layer report.  This test runs its install step
with a recording _patch and fails on every name it cannot find.

The tracer's ssn.cg span must also see the outer CG and nothing else, so
its iteration total can be checked against the cg_iters column, and its
count of ssn._step calls must equal the rows with a delta.  Its
pde.state_solve and pde.factor spans wrap Discretization.solve_state and
LinearizedOperator.__init__ on the classes, so they also see the solves
of the coarser levels a run solves first; their totals must match the
Newton column, which lists those levels' rows too, and factor_count.
A traced `run` of such nested levels passes perfbench's own cross-check
of its counts against convergence.csv, and so does one of the benchmark's
sweep workload, whose levels each hand their solution to the next.  On `verify`,
objective.hessvec_count and objective.fd_evals count the calls of
verification.hessian_vec and objective._fresh_objective, and the summed
Newton steps of the state solves must match the result's newton_count.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest
import scipy.sparse as sp

from ssnbilinear import (
    Discretization,
    benchmark_instance,
    build_uniform_mesh,
    cli,
    run_ssn,
    ssn,
    verification,
)
from ssnbilinear.pde import LinearizedOperator
from ssnbilinear.ssn import COARSE_START_LEVEL
from ssnbilinear.verification import CURV_STEPS, GRAD_STEPS, VerifySettings

# the package re-exports a function named objective over the submodule
objective = sys.modules["ssnbilinear.objective"]

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_hook_resolves(monkeypatch):
    child = load("child")
    # install() rebinds the two solver entries directly; put them back after
    for name in ("run_ssn", "verify_derivatives"):
        monkeypatch.setattr(cli, name, getattr(cli, name))
    missing = []
    hooked = []

    def record(owner, attr, make):
        hooked.append(attr)
        if getattr(owner, attr, None) is None:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")

    monkeypatch.setattr(child, "_patch", record)
    child.install(child.Tracer(), traced=True)
    assert missing == []
    assert len(hooked) >= 25


def test_factor_nnz_reads_the_operator_factors():
    op = LinearizedOperator(sp.identity(3, format="csc"))
    assert load("child").Tracer().factor_nnz((op,), None) == 6


def test_ssn_cg_solve_sees_only_the_outer_cg(monkeypatch):
    iterations = []
    solve = ssn.cg_solve

    def recorded(*args, **kwargs):
        x, iters = solve(*args, **kwargs)
        iterations.append(iters)
        return x, iters

    monkeypatch.setattr(ssn, "cg_solve", recorded)
    disc = Discretization(benchmark_instance(), build_uniform_mesh(4))
    _, _, _, records = run_ssn(disc)
    full = [r for r in records if r.cg_iters is not None]
    assert len(iterations) == len(full)
    assert sum(iterations) == sum(r.cg_iters for r in full)
    # the one-off solves ran PCG through pde's own binding
    assert disc.pcg_count > 0


def test_traced_newton_and_factor_totals_match_the_run(monkeypatch):
    newton = []
    factors = []
    solve_state = Discretization.solve_state
    factor = LinearizedOperator.__init__

    def traced_solve_state(self, *args, **kwargs):
        report = solve_state(self, *args, **kwargs)
        newton.append(report.newton_iters)
        return report

    def traced_factor(self, *args, **kwargs):
        factors.append(1)
        factor(self, *args, **kwargs)

    monkeypatch.setattr(Discretization, "solve_state", traced_solve_state)
    monkeypatch.setattr(LinearizedOperator, "__init__", traced_factor)
    disc = Discretization(benchmark_instance(), build_uniform_mesh(COARSE_START_LEVEL))
    _, _, _, records = run_ssn(disc)
    assert [r.level for r in records if r.j == 0] == [
        COARSE_START_LEVEL - 1,
        COARSE_START_LEVEL,
    ]
    # one state solve per row, on either level
    assert len(newton) == len(records)
    assert sum(newton) == sum(r.newton_iters for r in records)
    assert len(factors) == disc.factor_count


def test_traced_outer_counts_match_a_run_that_stops_on_the_residual(monkeypatch):
    # the tracer counts ssn._step calls as outer iterations and sums the
    # ssn.cg_solve iterations; the residual test runs before _step, so a
    # run that stops on it makes no _step call for its final row
    steps = []
    iterations = []
    step = ssn._step
    solve = ssn.cg_solve

    def traced_step(*args, **kwargs):
        steps.append(1)
        return step(*args, **kwargs)

    def traced_cg(*args, **kwargs):
        x, iters = solve(*args, **kwargs)
        iterations.append(iters)
        return x, iters

    monkeypatch.setattr(ssn, "_step", traced_step)
    monkeypatch.setattr(ssn, "cg_solve", traced_cg)
    disc = Discretization(benchmark_instance(), build_uniform_mesh(5))
    _, _, _, records = run_ssn(disc)
    # levels 4 and 5 each stop on the residual
    assert [r.stop_reason for r in records if r.delta is None] == ["residual"] * 2
    assert len(steps) == sum(1 for r in records if r.delta is not None) == 4 + 5
    assert sum(iterations) == sum(r.cg_iters for r in records if r.cg_iters)


@pytest.mark.parametrize(
    "name, workload, tables",
    [
        (
            "nested-l6",
            {"verb": "run", "levels": (6,), "write_fields": False},
            {6: [4, 5, 6]},
        ),
        # each level starts from the one before it and solves only itself
        (
            "sweep-fields",
            load("run").WORKLOADS["sweep-fields"],
            {4: [4], 5: [5], 6: [6], 7: [7]},
        ),
    ],
    ids=["nested-l6", "sweep-fields"],
)
def test_traced_cli_run_of_nested_levels_matches_its_table(
    tmp_path, monkeypatch, capsys, name, workload, tables
):
    # the traced benchmark child's install, undone after the test, then
    # the checks a traced perfbench child makes on its run's outputs
    child, bench = load("child"), load("run")
    for entry in ("run_ssn", "verify_derivatives"):
        monkeypatch.setattr(cli, entry, getattr(cli, entry))

    def undone(owner, attr, make):
        original = getattr(owner, attr, None)
        if original is not None:
            monkeypatch.setattr(owner, attr, make(original))

    monkeypatch.setattr(child, "_patch", undone)
    tracer = child.Tracer()
    child.install(tracer, traced=True)
    monkeypatch.setitem(bench.WORKLOADS, name, workload)
    out_dir = tmp_path / "out"
    config = tmp_path / "run.cfg"
    bench.write_config(name, 1, config, out_dir)

    assert cli.main(["run", str(config)]) == 0
    record = {"entries": tracer.entries, "spans": tracer.spans, "counts": tracer.counts}
    layers = bench.layer_metrics(record)
    totals = bench.csv_totals(name, out_dir)
    assert bench.trace_mismatches(layers, totals) == []
    assert bench.check_outputs(name, out_dir, None) == []
    assert len(tracer.entries) == len(workload["levels"])
    stats = [
        json.loads((out_dir / f"level_{level}" / "stats.json").read_text())
        for level in workload["levels"]
    ]
    assert sum(s["factor_count"] for s in stats) == layers["pde.factor_count"]
    assert sum(s["outer_iters"] for s in stats) == totals["ssn.outer_iters"]
    printed = capsys.readouterr().out
    for level, solved in tables.items():
        rows = bench.read_csv(out_dir / f"level_{level}" / "convergence.csv")
        assert [int(row["level"]) for row in rows if row["j"] == "0"] == solved
        # the command line reports the outer count of its own level
        own = sum(1 for row in rows if row["level"] == str(level) and row["delta"])
        assert f"level {level}: {own} outer iterations" in printed


def test_traced_verify_counts_match_the_result(monkeypatch):
    calls = {"hessian_vec": 0, "_fresh_objective": 0}
    newton = []

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(verification, "hessian_vec")
    count(objective, "_fresh_objective")
    solve_state = Discretization.solve_state

    def traced_solve_state(self, *args, **kwargs):
        report = solve_state(self, *args, **kwargs)
        newton.append(report.newton_iters)
        return report

    monkeypatch.setattr(Discretization, "solve_state", traced_solve_state)
    settings = VerifySettings(level=3, directions=2)
    result = verification.verify_derivatives(benchmark_instance(), settings)
    assert result.passed
    assert calls["hessian_vec"] == settings.directions
    per_direction = 2 * len(GRAD_STEPS) + 2 * len(CURV_STEPS) + 1
    assert calls["_fresh_objective"] == settings.directions * per_direction
    # the base point's solve plus one per fresh objective
    assert len(newton) == calls["_fresh_objective"] + 1
    assert sum(newton) == result.newton_count
