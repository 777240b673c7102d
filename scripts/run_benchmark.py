#!/usr/bin/env python3
"""Solve the benchmark at a range of levels and print convergence tables.

Usage: python3 scripts/run_benchmark.py [level ...]   (default: 5 6 7)
"""

import sys
import time

from ssnbilinear import (
    Discretization,
    benchmark_instance,
    build_uniform_mesh,
    complementarity_report,
    optimality_residual,
    run_ssn,
)


def main(argv):
    levels = [int(tok) for tok in argv] or [5, 6, 7]
    spec = benchmark_instance()
    for level in levels:
        t0 = time.perf_counter()
        disc = Discretization(spec, build_uniform_mesh(level))
        t1 = time.perf_counter()
        u, y, phi, records = run_ssn(disc)
        t2 = time.perf_counter()

        print(
            f"\nlevel {level}  (h = 2^-{level}, {disc.n_nodes} nodes, "
            f"set-up {t1 - t0:.2f}s, solve {t2 - t1:.2f}s)"
        )
        print(f"{'j':>3} {'J':>24} {'delta':>13} {'newton':>7} {'cg':>4}")
        for r in records:
            delta = f"{r.delta:.6e}" if r.delta is not None else ""
            cg = str(r.cg_iters) if r.cg_iters is not None else ""
            print(f"{r.j:>3} {r.J:>24.16e} {delta:>13} {r.newton_iters:>7} {cg:>4}")

        rep = complementarity_report(disc, u, y, phi)
        resid = disc.norm(optimality_residual(spec, u, y, phi))
        print(
            f"measures: upper {rep.upper:.4f}, lower {rep.lower:.4f}, "
            f"interior {rep.interior:.4f}, sigma {rep.sigma:.2e}, "
            f"||u - Proj(y*phi/nu)||_h {resid:.2e}, "
            f"factorizations {disc.factor_count}, pcg {disc.pcg_count}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
