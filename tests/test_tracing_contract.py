"""The benchmark tracer's hooks still resolve in the package.

perfbench/child.py wraps solver entry points by name and silently skips
any name that no longer exists, so a rename would quietly drop a layer
from the benchmark's per-layer report.  This test runs its install step
with a recording _patch and fails on every name it cannot find.

The tracer's ssn.cg span must also see the outer CG and nothing else, so
its iteration total can be checked against the cg_iters column.
"""

import importlib.util
from pathlib import Path

import scipy.sparse as sp

from ssnbilinear import (
    Discretization,
    benchmark_instance,
    build_uniform_mesh,
    cli,
    run_ssn,
    ssn,
)
from ssnbilinear.pde import LinearizedOperator

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_hook_resolves(monkeypatch):
    child = load_child()
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
    assert load_child().Tracer().factor_nnz((op,), None) == 6


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
