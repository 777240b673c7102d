#!/usr/bin/env python3
"""Self-test of the benchmark's tracing on small inputs (a few seconds).

Usage: python3 perfbench/selftest.py

Runs traced children on a small `run` and a small `verify` and checks that
    - every output check and every traced-count relation passes:
      pde.newton_iters, ssn.cg_iters and ssn.outer_iters agree with the
      sums and row count of convergence.csv;
    - the relation check does flag a count that disagrees;
    - self times are non-negative and add up to no more than the child's
      wall time;
    - every finite-difference objective evaluation shows up as a traced
      fresh state solve, and the expression layer is entered.
These relations hold for any correct algorithm, so they need no update
when the solver changes. Exits 1 and lists the failures if any check fails.
"""

import sys
import tempfile
import time
from pathlib import Path

import run

SMALL = {
    "small-run": {"verb": "run", "levels": (4, 5, 6), "write_fields": True},
    "small-verify": {"verb": "verify", "level": 4, "directions": 2},
}


def traced_child(workload, tmp, index):
    return run.run_child(
        workload, 1234, True, index, tmp, run.child_env(), time.monotonic() + run.HARD_LIMIT_S
    )


def main():
    run.WORKLOADS.update(SMALL)
    failures = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as name:
        tmp = Path(name)
        results = {w: traced_child(w, tmp, i) for i, w in enumerate(SMALL)}

    for workload, result in results.items():
        failures += [f"{workload}: {error}" for error in result["errors"]]
        layers = result.get("layers")
        if layers is None:
            continue
        times = {k: v for k, v in layers.items() if k.endswith("_s")}
        failures += [f"{workload}: negative self time {k} = {v}" for k, v in times.items() if v < 0]
        if sum(times.values()) > result["wall_s"]:
            failures.append(f"{workload}: self times add up to more than the wall time")

    run_layers = results["small-run"].get("layers")
    if run_layers is not None:
        totals = {name: run_layers[name] for name in ("pde.newton_iters", "ssn.cg_iters")}
        wrong = dict(run_layers, **{"ssn.cg_iters": run_layers["ssn.cg_iters"] + 1})
        if not run.trace_mismatches(wrong, totals):
            failures.append("trace_mismatches did not flag a wrong CG count")
    verify_layers = results["small-verify"].get("layers")
    if verify_layers is not None:
        if not 0 < verify_layers["objective.fd_evals"] <= verify_layers["pde.state_solves"]:
            failures.append("small-verify: FD evaluations without traced state solves")
        if verify_layers["expressions.eval_calls"] == 0:
            failures.append("small-verify: expression layer not traced")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
