"""The benchmark tracer's hooks still resolve in the package.

perfbench/child.py wraps solver entry points by name and silently skips
any name that no longer exists, so a rename would quietly drop a layer
from the benchmark's per-layer report.  This test runs its install step
with a recording _patch and fails on every name it cannot find.
"""

import importlib.util
from pathlib import Path

import scipy.sparse as sp

from ssnbilinear import cli
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
