"""Command line front-end.

Verbs:
    run <config>        solve every configured mesh level, write outputs
    verify <config>     finite-difference checks of gradient and Hessian,
                        at the level, directions and seed of [verify]
    mesh-info <level>   print mesh statistics

Exit codes: 0 success, 1 usage, configuration or file-system error
(an output directory that names a file, say), 2 solver non-convergence,
3 verification failure.  An error of exit code 1 prints a message that
starts with "error: " on stderr; a usage error adds the usage line.

Per level, `run` writes into <output_dir>/level_<k>/:
    convergence.csv     level, j, J, delta, newton_iters, cg_iters per
                        iteration of every level solved for it
    control.vtk         u* as legacy-ASCII VTK structured points
    state.vtk           y*
    adjoint.vtk         phi*
    complementarity.txt bound-attainment measures and the sigma estimate
    stats.json          stop reason, final ||F(u)||_h and work counts of
                        the levels solved for it

From level 5 up a level starts from the solution of the next coarser one
(see ssn.run_ssn).  Each configured level hands its run_ssn result to the
next as it is, and run_ssn starts above it when it can (ssn.can_start_from:
the next level is finer and the result is from level 4 up), so a level is
solved only from the previous configured level on: levels = 4 5 6 7
solves each level once, and levels = 7 alone solves levels 4-7.  The
line printed per level counts its own outer iterations.  A run whose
residual is not finite, or that stagnates or exhausts its budget of
ssn.MAX_OUTER outer iterations, on its level or a coarser one, still
writes its table and stats.json, and hands nothing on; one whose state,
adjoint or CG solve fails writes its table if it made a row.  A later
level whose run would solve a failed configured level again (it could
start from that level's solution, see ssn.can_start_from) is skipped
with one line on stderr: re-runs are byte-identical, so it would fail
the same way.  Every level removes the files of this list from its
directory before it runs or is skipped, so none left by an earlier run
reads as its own.
"""

import argparse
import os
import sys

from .config import RunConfig, parse_config
from .errors import ConfigurationError, SolverError
from .mesh import build_uniform_mesh, check_level, node_count
from .outputs import (
    write_complementarity,
    write_convergence_csv,
    write_stats,
    write_structured_vtk,
)
from .pde import Discretization
from .ssn import can_start_from, complementarity_report, run_ssn
from .verification import format_verification, verify_derivatives

_RUN_OUTPUTS = (
    "convergence.csv",
    "control.vtk",
    "state.vtk",
    "adjoint.vtk",
    "complementarity.txt",
    "stats.json",
)


def _cmd_run(config: RunConfig) -> int:
    status = 0
    # the run_ssn result of the previous configured level, if it converged
    coarse = None
    failed = []
    for level in config.levels:
        out_dir = os.path.join(config.output_dir, f"level_{level}")
        os.makedirs(out_dir, exist_ok=True)
        for name in _RUN_OUTPUTS:
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                os.remove(path)
        # its run would solve a failed level again, from the same start
        repeat = [k for k in failed if can_start_from(level, k)]
        if repeat:
            print(f"level {level}: skipped: level {repeat[0]} failed", file=sys.stderr)
            continue
        mesh = build_uniform_mesh(level)
        disc = Discretization(config.spec, mesh)
        try:
            coarse = run_ssn(disc, config.ssn, coarse=coarse)
        except SolverError as exc:
            coarse = None
            failed.append(level)
            # history holds the rows made before the failure
            if exc.history:
                write_convergence_csv(
                    os.path.join(out_dir, "convergence.csv"), exc.history
                )
                if exc.history[-1].stop_reason is not None:
                    write_stats(os.path.join(out_dir, "stats.json"), exc.history, disc)
            print(f"level {level}: solver error: {exc}", file=sys.stderr)
            status = 2
            continue
        u, y, phi, records = coarse
        write_convergence_csv(os.path.join(out_dir, "convergence.csv"), records)
        write_stats(os.path.join(out_dir, "stats.json"), records, disc)
        if config.write_fields:
            write_structured_vtk(os.path.join(out_dir, "control.vtk"), mesh, "control", u)
            write_structured_vtk(os.path.join(out_dir, "state.vtk"), mesh, "state", y)
            write_structured_vtk(os.path.join(out_dir, "adjoint.vtk"), mesh, "adjoint", phi)
        report = complementarity_report(disc, u, y, phi)
        write_complementarity(os.path.join(out_dir, "complementarity.txt"), report)
        outer = sum(1 for r in records if r.level == level and r.delta is not None)
        print(
            f"level {level}: {outer} outer iterations, "
            f"J = {records[-1].J:.16e}, outputs in {out_dir}"
        )
    return status


def _cmd_verify(config: RunConfig) -> int:
    result = verify_derivatives(config.spec, config.verify)
    print(format_verification(result))
    return 0 if result.passed else 3


def _cmd_mesh_info(level: int) -> int:
    # every count is closed-form in the level: no mesh is built
    level = check_level(level)
    print(f"level = {level}")
    print(f"h = {2.0 ** (-level):.16e}")
    print(f"nodes = {node_count(level)}")
    print(f"triangles = {2 * 4**level}")
    print(f"boundary_edges = {4 * 2**level}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors read as every other error
    does: stderr starts with "error: ", and the usage line follows."""

    def error(self, message):
        self.exit(2, f"error: {message}\n{self.format_usage()}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ssnbilinear",
        description="Semismooth Newton solver for bilinear elliptic control problems.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    p_run = sub.add_parser("run", help="solve all configured mesh levels")
    p_run.add_argument("config", help="path to a config file")
    p_ver = sub.add_parser("verify", help="finite-difference derivative checks")
    p_ver.add_argument("config", help="path to a config file")
    p_mesh = sub.add_parser("mesh-info", help="print mesh statistics")
    p_mesh.add_argument("level", type=int, help="refinement level")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.verb == "mesh-info":
            return _cmd_mesh_info(args.level)
        config = parse_config(args.config)
        if args.verb == "run":
            return _cmd_run(config)
        return _cmd_verify(config)
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
