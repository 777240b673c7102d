"""File writers: CSV, VTK structured grid, complementarity report."""

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
            measures=(0.25, 0.25, 0.5),
        ),
        IterationRecord(
            level=4, j=1, J=1.0 / 3.0, delta=None, newton_iters=1, cg_iters=None,
            measures=None,
        ),
        IterationRecord(
            level=5, j=0, J=0.25, delta=None, newton_iters=0, cg_iters=None,
            measures=None,
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
    mesh = build_uniform_mesh(2)
    values = np.arange(mesh.n_nodes, dtype=float) / 7.0
    path = tmp_path / "state.vtk"
    write_structured_vtk(path, mesh, "state", values)
    lines = path.read_text().split("\n")
    assert lines[0] == "# vtk DataFile Version 2.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET STRUCTURED_GRID"
    assert lines[4] == "DIMENSIONS 5 5 1"
    assert lines[5] == "POINTS 25 double"
    # first node is the origin, second steps in x1: lexicographic point order
    assert lines[6].split() == ["0.0000000000000000e+00", "0.0000000000000000e+00", "0.0"]
    x1 = float(lines[7].split()[0])
    assert x1 == 0.25
    assert lines[6 + 25] == "POINT_DATA 25"
    assert lines[7 + 25] == "SCALARS state double 1"
    assert lines[8 + 25] == "LOOKUP_TABLE default"
    back = np.array([float(v) for v in lines[9 + 25 : 9 + 50]])
    np.testing.assert_array_equal(back, values)


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
