"""File writers: CSV, VTK structured points, complementarity report."""

import numpy as np
import pytest

from ssnbilinear import build_uniform_mesh
from ssnbilinear.ssn import ComplementarityReport, IterationRecord
from ssnbilinear.outputs import (
    CSV_HEADER,
    format_csv,
    write_complementarity,
    write_convergence_csv,
    write_structured_vtk,
)


def synthetic_records():
    return [
        IterationRecord(
            level=4, j=0, J=2.5, delta=0.125, newton_iters=7, cg_iters=3,
            residual=0.5,
        ),
        IterationRecord(
            level=4, j=1, J=1.0 / 3.0, delta=None, newton_iters=1, cg_iters=None,
            residual=1e-14,
        ),
        IterationRecord(
            level=5, j=0, J=0.25, delta=None, newton_iters=0, cg_iters=None,
            residual=0.0,
        ),
    ]


def test_format_csv_exact():
    expected = (
        "level,j,J,delta,newton_iters,cg_iters\n"
        "4,0,2.5000000000000000e+00,1.2500000000000000e-01,7,3\n"
        "4,1,3.3333333333333331e-01,,1,\n"
        "5,0,2.5000000000000000e-01,,0,\n"
    )
    assert format_csv(synthetic_records()) == expected


def test_csv_header_matches_columns():
    assert CSV_HEADER.split(",") == [
        "level", "j", "J", "delta", "newton_iters", "cg_iters"
    ]


def test_csv_round_trips_doubles(tmp_path):
    path = tmp_path / "convergence.csv"
    write_convergence_csv(path, synthetic_records())
    rows = path.read_text().strip().split("\n")
    assert rows[0] == CSV_HEADER
    assert len(rows) == 4
    j_back = float(rows[2].split(",")[2])
    assert j_back == 1.0 / 3.0  # %.16e is lossless for float64


def test_vtk_structure(tmp_path):
    path = tmp_path / "state.vtk"
    for level in range(1, 7):
        mesh = build_uniform_mesh(level)
        side, n = mesh.side, mesh.n_nodes
        values = np.arange(n, dtype=float) / 7.0
        write_structured_vtk(path, mesh, "state", values)
        lines = path.read_text().split("\n")
        assert lines[:5] == [
            "# vtk DataFile Version 2.0",
            f"state on a {side}x{side} grid of the unit square",
            "ASCII",
            "DATASET STRUCTURED_POINTS",
            f"DIMENSIONS {side} {side} 1",
        ]
        assert lines[5].startswith("ORIGIN ") and lines[6].startswith("SPACING ")
        assert lines[7:10] == [
            f"POINT_DATA {n}", "SCALARS state double 1", "LOOKUP_TABLE default"
        ]
        # point p has grid indices (p % nx, p // nx): the first coordinate is
        # fastest, as in the mesh's lexicographic node order
        nx, ny, nz = (int(tok) for tok in lines[4].split()[1:])
        origin = [float(tok) for tok in lines[5].split()[1:]]
        spacing = [float(tok) for tok in lines[6].split()[1:]]
        p = np.arange(nx * ny * nz)
        index = (p % nx, p // nx % ny)
        nodes = np.column_stack([origin[k] + index[k] * spacing[k] for k in (0, 1)])
        assert nodes.tobytes() == mesh.nodes.tobytes()
        assert lines[10:] == [f"{v:.16e}" for v in values] + [""]


def test_complementarity_file(tmp_path):
    report = ComplementarityReport(
        upper=0.459, lower=0.233, interior=0.308, sigma=0.0, tol_sigma=1e-8
    )
    path = tmp_path / "complementarity.txt"
    write_complementarity(path, report)
    got = {}
    for line in path.read_text().strip().split("\n"):
        key, _, value = line.partition(" = ")
        got[key] = float(value)
    assert got["measure_upper"] == 0.459
    assert got["measure_lower"] == 0.233
    assert got["measure_interior"] == 0.308
    assert got["measure_sigma"] == 0.0
    assert got["tol_sigma"] == pytest.approx(1e-8)
