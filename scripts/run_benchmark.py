#!/usr/bin/env python3
"""Solve the benchmark at a range of levels and print convergence tables.

Usage: python3 scripts/run_benchmark.py [level ...]   (default: 5 6 7)

From ssnbilinear.ssn.COARSE_START_LEVEL up, a level starts from the
solution of the next coarser one.  Each level hands its run_ssn result to
the next, as `ssnbilinear run` does, and run_ssn starts above it when the
next level is finer and the result is from level COARSE_START_LEVEL - 1
up; so `5 6 7 8 9` solves levels 4-9 once each, and `3 5` solves level 4
for level 5.  A level's table, its factorization count and its outer
line cover the levels solved for it; the peak RSS in its heading is the
process's peak so far, in MB (MiB).  Exit codes as for `ssnbilinear run`:
0 success, 1 bad arguments (checked before the first solve), 2 a level's
solver error, which ends the run.
"""

import resource
import sys
import time

from ssnbilinear import (
    ConfigurationError,
    Discretization,
    SolverError,
    benchmark_instance,
    build_uniform_mesh,
    complementarity_report,
    run_ssn,
)
from ssnbilinear.mesh import check_level


def main(argv):
    try:
        levels = [check_level(int(tok)) for tok in argv] or [5, 6, 7]
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    spec = benchmark_instance()
    coarse = None
    for level in levels:
        t0 = time.perf_counter()
        disc = Discretization(spec, build_uniform_mesh(level))
        t1 = time.perf_counter()
        try:
            coarse = run_ssn(disc, coarse=coarse)
        except SolverError as exc:
            print(f"level {level}: solver error: {exc}", file=sys.stderr)
            return 2
        t2 = time.perf_counter()
        u, y, phi, records = coarse
        # Linux reports ru_maxrss in KiB
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        print(
            f"\nlevel {level}  (h = 2^-{level}, {disc.n_nodes} nodes, "
            f"set-up {t1 - t0:.2f}s, solve {t2 - t1:.2f}s, "
            f"peak RSS {peak_mb:.1f} MB)"
        )
        print(f"{'level':>5} {'j':>3} {'J':>24} {'delta':>13} {'newton':>7} {'cg':>4}")
        outer = {}
        for r in records:
            delta = f"{r.delta:.6e}" if r.delta is not None else ""
            cg = str(r.cg_iters) if r.cg_iters is not None else ""
            print(
                f"{r.level:>5} {r.j:>3} {r.J:>24.16e} {delta:>13} "
                f"{r.newton_iters:>7} {cg:>4}"
            )
            outer[r.level] = outer.get(r.level, 0) + (r.delta is not None)

        rep = complementarity_report(disc, u, y, phi)
        print("outer: " + ", ".join(f"level {k} {n}" for k, n in outer.items()))
        print(
            f"measures: upper {rep.upper:.4f}, lower {rep.lower:.4f}, "
            f"interior {rep.interior:.4f}, sigma {rep.sigma:.2e}, "
            f"||u - Proj(y*phi/nu)||_h {records[-1].residual:.2e} "
            f"(stop: {records[-1].stop_reason}), "
            f"factorizations {disc.factor_count}, pcg {disc.pcg_count}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
