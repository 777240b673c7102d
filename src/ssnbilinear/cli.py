"""Command line front-end.

Verbs:
    run <config>        solve every configured mesh level, write outputs
    verify <config>     finite-difference checks of gradient and Hessian
    mesh-info <level>   print mesh statistics

Exit codes: 0 success, 1 usage or configuration error, 2 solver
non-convergence, 3 verification failure.

Per level, `run` writes into <output_dir>/level_<k>/:
    convergence.csv     j, J, delta, newton_iters, cg_iters per iteration
    control.vtk         u* as a legacy-ASCII structured grid
    state.vtk           y*
    adjoint.vtk         phi*
    complementarity.txt bound-attainment measures and the sigma estimate
"""

import argparse
import os
import sys

from .config import RunConfig, parse_config
from .errors import ConfigurationError, SolverError
from .mesh import build_uniform_mesh
from .outputs import (
    write_complementarity,
    write_convergence_csv,
    write_structured_vtk,
)
from .pde import Discretization
from .ssn import complementarity_report, run_ssn
from .verification import format_verification, verify_derivatives


def _cmd_run(config: RunConfig) -> int:
    status = 0
    for level in config.levels:
        mesh = build_uniform_mesh(level)
        disc = Discretization(config.spec, mesh)
        out_dir = os.path.join(config.output_dir, f"level_{level}")
        os.makedirs(out_dir, exist_ok=True)
        try:
            u, y, phi, records = run_ssn(disc, config.ssn)
        except SolverError as exc:
            if exc.history:
                write_convergence_csv(
                    os.path.join(out_dir, "convergence.csv"), exc.history
                )
            print(f"level {level}: solver error: {exc}", file=sys.stderr)
            status = 2
            continue
        write_convergence_csv(os.path.join(out_dir, "convergence.csv"), records)
        if config.write_fields:
            write_structured_vtk(os.path.join(out_dir, "control.vtk"), mesh, "control", u)
            write_structured_vtk(os.path.join(out_dir, "state.vtk"), mesh, "state", y)
            write_structured_vtk(os.path.join(out_dir, "adjoint.vtk"), mesh, "adjoint", phi)
        report = complementarity_report(disc, u, y, phi, tol_sigma=1e-8)
        write_complementarity(os.path.join(out_dir, "complementarity.txt"), report)
        outer = sum(1 for r in records if r.delta is not None)
        print(
            f"level {level}: {outer} outer iterations, "
            f"J = {records[-1].J:.16e}, outputs in {out_dir}"
        )
    return status


def _cmd_verify(config: RunConfig) -> int:
    result = verify_derivatives(
        config.spec,
        level=config.verify.level,
        directions=config.verify.directions,
        seed=config.verify.seed,
    )
    print(format_verification(result))
    return 0 if result.passed else 3


def _cmd_mesh_info(level: int) -> int:
    mesh = build_uniform_mesh(level)
    print(f"level = {mesh.level}")
    print(f"h = {mesh.h:.16e}")
    print(f"nodes = {mesh.n_nodes}")
    print(f"triangles = {2 * mesh.n_cells}")
    print(f"boundary_edges = {4 * (mesh.side - 1)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
