"""Run `python -m ssnbilinear ARGS...` with timing wrappers installed.

Usage: python3 child.py RECORD TRACE ARGS...

The package is imported, wrappers are installed on the names its callers
look up, and then `ssnbilinear.__main__` runs exactly as `python -m` would.
At exit a JSON record is written to RECORD:

    entries   [start, end] of every solver entry (run_ssn, verify_derivatives)
    spans     [name, start, end, parent, value] per layer call (TRACE=1 only)
    counts    {name: n} of calls that are counted but not timed (TRACE=1 only)

Times are time.monotonic() readings, a clock shared with the parent
process, so the parent can measure set-up from its own launch timestamp.
Self times are computed by the parent from the spans.
"""

import functools
import json
import os
import runpy
import sys
import time


class Tracer:
    """In-memory spans and counters; nothing is written until `dump`."""

    def __init__(self):
        self.entries = []
        self.spans = []
        self.counts = {}
        self._stack = []
        self._nnz = {}

    def entry(self, fn):
        """Time one solver entry with a single timestamp pair."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                self.entries.append([start, time.monotonic()])

        return wrapper

    def span(self, name, fn, value=None):
        """Record a span around fn; value(args, result) annotates it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [name, time.monotonic(), None, parent, None]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.monotonic()
                self._stack.pop()
            if value is not None:
                # Reading the annotation (e.g. building L and U to count their
                # entries) is tracing cost: a "trace" span keeps it out of the
                # parent's self time.
                record[4] = value(args, result)
                self.spans.append(["trace", record[2], time.monotonic(), parent, None])
            return result

        return wrapper

    def count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def factor_nnz(self, args, result):
        """nnz(L) + nnz(U) of a new LinearizedOperator, remembered per instance."""
        op = args[0]
        lu = getattr(op, "_lu", None)
        nnz = int(lu.L.nnz + lu.U.nnz) if lu is not None else 0
        self._nnz[id(op)] = nnz
        return nnz

    def solve_nnz(self, args, result):
        return self._nnz.get(id(args[0]), 0)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"entries": self.entries, "spans": self.spans, "counts": self.counts},
                handle,
            )


def _patch(owner, attr, make):
    """Replace owner.attr by make(original); skip names a refactor removed."""
    original = getattr(owner, attr, None)
    if original is not None:
        setattr(owner, attr, make(original))


def install(tracer, traced):
    from ssnbilinear import cli, config, expressions, pde, ssn, verification

    # The package namespace re-exports a function named `objective`, which
    # shadows the submodule of the same name.
    objective = sys.modules["ssnbilinear.objective"]

    # The two solver entries are required: set-up and solve time hinge on them.
    cli.run_ssn = tracer.entry(cli.run_ssn)
    cli.verify_derivatives = tracer.entry(cli.verify_derivatives)
    if not traced:
        return

    def span(name, value=None):
        return lambda fn: tracer.span(name, fn, value)

    def count(name):
        return lambda fn: tracer.count(name, fn)

    _patch(cli, "main", span("cli"))
    _patch(cli, "parse_config", span("config.parse"))
    _patch(config, "validate", span("problem.validate"))
    _patch(ssn, "validate", span("problem.validate"))
    _patch(expressions.Expression, "__call__", span("expressions.eval"))
    _patch(pde, "nodal", span("problem.nodal"))
    _patch(objective, "nodal", span("problem.nodal"))
    _patch(cli, "build_uniform_mesh", span("mesh.build"))
    _patch(verification, "build_uniform_mesh", span("mesh.build"))
    _patch(pde.Discretization, "__init__", span("assembly.disc_init"))
    _patch(pde.LinearizedOperator, "__init__", span("pde.factor", tracer.factor_nnz))
    _patch(pde.LinearizedOperator, "solve", span("pde.trisolve", tracer.solve_nnz))
    _patch(
        pde.Discretization,
        "solve_state",
        span("pde.state_solve", lambda args, result: result.newton_iters),
    )
    _patch(pde.Discretization, "state_residual", count("pde.residual_evals"))
    _patch(cli, "run_ssn", span("ssn.run"))
    _patch(ssn, "cg_solve", span("ssn.cg", lambda args, result: result[1]))
    _patch(ssn, "_step", count("ssn.outer_iters"))
    _patch(verification, "hessian_vec", count("objective.hessvec_count"))
    _patch(verification, "fd_gradient_oracle", span("objective.fd"))
    _patch(verification, "fd_curvature_oracle", span("objective.fd"))
    _patch(objective, "_fresh_objective", count("objective.fd_evals"))
    _patch(cli, "verify_derivatives", span("verification"))
    written = span("outputs.write", lambda args, result: os.path.getsize(args[0]))
    for name in ("write_convergence_csv", "write_structured_vtk", "write_complementarity"):
        _patch(cli, name, written)


def main(argv):
    record_path, traced, args = argv[0], argv[1] == "1", argv[2:]
    tracer = Tracer()
    install(tracer, traced)
    sys.argv = ["ssnbilinear", *args]
    try:
        runpy.run_module("ssnbilinear", run_name="__main__", alter_sys=True)
    finally:
        tracer.dump(record_path)


if __name__ == "__main__":
    main(sys.argv[1:])
