"""Writers for run artifacts: convergence CSV, VTK field dumps, reports.

All numeric output uses %.16e so a run's doubles round-trip exactly, and
all writers emit fields in the mesh's lexicographic node order, which is
the point order of VTK structured points (first coordinate fastest).
"""

import json

import numpy as np

from .mesh import TriMesh
from .ssn import TOL_SIGMA, ComplementarityReport, IterationRecord

CSV_HEADER = "level,j,J,delta,newton_iters,cg_iters"


def format_csv(records: list[IterationRecord]) -> str:
    """One line per record, of every mesh level the run_ssn call solved."""
    lines = [CSV_HEADER]
    for r in records:
        delta = f"{r.delta:.16e}" if r.delta is not None else ""
        cg = str(r.cg_iters) if r.cg_iters is not None else ""
        lines.append(f"{r.level},{r.j},{r.J:.16e},{delta},{r.newton_iters},{cg}")
    return "\n".join(lines) + "\n"


def write_convergence_csv(path, records: list[IterationRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(format_csv(records))


def write_structured_vtk(path, mesh: TriMesh, name: str, values: np.ndarray) -> None:
    """One scalar nodal field as legacy-ASCII VTK structured points.

    The uniform grid is given by its dimensions, origin and spacing, so no
    node coordinate is written; h = 2^-level is exact in %.16e.
    """
    side = mesh.side
    lines = [
        "# vtk DataFile Version 2.0",
        f"{name} on a {side}x{side} grid of the unit square",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {side} {side} 1",
        "ORIGIN 0 0 0",
        f"SPACING {mesh.h:.16e} {mesh.h:.16e} 1",
        f"POINT_DATA {mesh.n_nodes}",
        f"SCALARS {name} double 1",
        "LOOKUP_TABLE default",
    ]
    lines.extend(f"{v:.16e}" for v in np.asarray(values).tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_complementarity(path, report: ComplementarityReport) -> None:
    lines = [
        f"tol_sigma = {TOL_SIGMA:.16e}",
        f"measure_upper = {report.upper:.16e}",
        f"measure_lower = {report.lower:.16e}",
        f"measure_interior = {report.interior:.16e}",
        f"measure_sigma = {report.sigma:.16e}",
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_stats(path, records: list[IterationRecord], disc) -> None:
    """Why a run stopped, its final ||F||_h and its work counts, as JSON.

    records end with the run's final row; disc is its Discretization.
    The totals are those of the CSV's columns, over every level the
    run_ssn call solved (not a coarser level whose solution it was handed),
    as disc's counters are.  No timings are written, so a re-run writes
    the same bytes.  The file is strict JSON: a residual that is not
    finite (stop_reason "nonfinite") is written as null.
    """
    final = records[-1]
    stats = {
        "stop_reason": final.stop_reason,
        "residual": final.residual if np.isfinite(final.residual) else None,
        "outer_iters": sum(1 for r in records if r.delta is not None),
        "newton_iters": sum(r.newton_iters for r in records),
        "cg_iters": sum(r.cg_iters for r in records if r.cg_iters is not None),
        "pcg_count": disc.pcg_count,
        "factor_count": disc.factor_count,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(json.dumps(stats, indent=2, allow_nan=False) + "\n")
