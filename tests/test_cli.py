"""Command line verbs, exit codes, and on-disk artifacts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ssnbilinear.cli import main
from ssnbilinear.outputs import CSV_HEADER


def write_cfg(tmp_path, body):
    path = tmp_path / "run.cfg"
    path.write_text(body)
    return str(path)


def benchmark_cfg(tmp_path, out_dir, extra=""):
    return write_cfg(
        tmp_path,
        f"[problem]\npreset = benchmark\n\n[mesh]\nlevels = 2\n\n"
        f"[output]\ndirectory = {out_dir}\n{extra}",
    )


def test_mesh_info(capsys):
    assert main(["mesh-info", "2"]) == 0
    out = capsys.readouterr().out
    assert "nodes = 25" in out
    assert "triangles = 32" in out
    assert "boundary_edges = 16" in out
    assert "h = 2.5000000000000000e-01" in out


def test_mesh_info_rejects_bad_level(capsys):
    assert main(["mesh-info", "0"]) == 1
    assert "error" in capsys.readouterr().err


def test_run_writes_all_artifacts(tmp_path, capsys):
    out_dir = str(tmp_path / "results")
    assert main(["run", benchmark_cfg(tmp_path, out_dir)]) == 0
    level_dir = os.path.join(out_dir, "level_2")
    csv_path = os.path.join(level_dir, "convergence.csv")
    assert os.path.isfile(csv_path)
    for name in ("control.vtk", "state.vtk", "adjoint.vtk", "complementarity.txt"):
        assert os.path.isfile(os.path.join(level_dir, name))

    rows = open(csv_path).read().strip().split("\n")
    assert rows[0] == CSV_HEADER
    assert len(rows) >= 3  # at least one full iteration plus the final row
    last = rows[-1].split(",")
    assert last[2] == "" and last[4] == ""  # final row carries J only

    vtk = open(os.path.join(level_dir, "state.vtk")).read()
    assert "DIMENSIONS 5 5 1" in vtk
    assert "POINTS 25 double" in vtk

    comp = open(os.path.join(level_dir, "complementarity.txt")).read()
    measures = {}
    for line in comp.strip().split("\n"):
        key, _, value = line.partition(" = ")
        measures[key] = float(value)
    total = measures["measure_upper"] + measures["measure_lower"] + measures["measure_interior"]
    assert total == pytest.approx(1.0, abs=1e-12)

    assert "level 2:" in capsys.readouterr().out


def test_run_without_field_output(tmp_path):
    out_dir = str(tmp_path / "results")
    cfg = benchmark_cfg(tmp_path, out_dir, extra="write_fields = off\n")
    assert main(["run", cfg]) == 0
    level_dir = os.path.join(out_dir, "level_2")
    assert os.path.isfile(os.path.join(level_dir, "convergence.csv"))
    assert not os.path.exists(os.path.join(level_dir, "state.vtk"))


def test_rerun_is_byte_identical(tmp_path):
    out_dir = str(tmp_path / "results")
    cfg = benchmark_cfg(tmp_path, out_dir)
    assert main(["run", cfg]) == 0
    csv_path = os.path.join(out_dir, "level_2", "convergence.csv")
    first = open(csv_path, "rb").read()
    assert main(["run", cfg]) == 0
    assert open(csv_path, "rb").read() == first


def test_run_solver_failure_leaves_partial_history(tmp_path, capsys):
    out_dir = str(tmp_path / "results")
    cfg = write_cfg(
        tmp_path,
        f"[problem]\npreset = benchmark\n\n[mesh]\nlevels = 2\n\n"
        f"[output]\ndirectory = {out_dir}\n\n[ssn]\nmax_outer = 1\n",
    )
    assert main(["run", cfg]) == 2
    assert "solver error" in capsys.readouterr().err
    rows = open(os.path.join(out_dir, "level_2", "convergence.csv")).read().strip().split("\n")
    assert rows[0] == CSV_HEADER
    assert len(rows) == 2  # header plus the single iteration that ran


# README expression problem with dL_dy and d2L_dy2 both 1% too large: the
# state and adjoint stay well posed, only the derivative lint can object.
MISSCALED = """
[problem]
a       = y^3 * abs(y) + 2*y - 100 * sin(2*pi*x1) * sin(pi*x2)
da_dy   = 4 * y^2 * abs(y) + 2
d2a_dy2 = 12 * y * abs(y)
L       = 0.5 * (y + 64 * x1 * (1 - x1) * x2 * (1 - x2))^2
dL_dy   = 1.01 * (y + 64 * x1 * (1 - x1) * x2 * (1 - x2))
d2L_dy2 = 1.01
g       = 0
alpha   = -1
beta    = 1
nu      = 0.05
a0      = 2
fd_check = {flag}

[mesh]
levels = 3

[output]
directory = {out_dir}
"""


def test_run_honours_fd_check_off(tmp_path, capsys):
    out_dir = str(tmp_path / "results")
    cfg = write_cfg(tmp_path, MISSCALED.format(flag="off", out_dir=out_dir))
    assert main(["run", cfg]) == 0
    assert "level 3: 4 outer iterations" in capsys.readouterr().out
    assert os.path.isfile(os.path.join(out_dir, "level_3", "convergence.csv"))


def test_run_rejects_inconsistent_derivatives_with_fd_check_on(tmp_path, capsys):
    out_dir = str(tmp_path / "results")
    cfg = write_cfg(tmp_path, MISSCALED.format(flag="on", out_dir=out_dir))
    assert main(["run", cfg]) == 1
    assert "derivative consistency failed for dL_dy vs L" in capsys.readouterr().err
    assert not os.path.exists(out_dir)


def test_verify_verb(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "[problem]\npreset = benchmark\n\n[mesh]\nlevels = 2\n\n"
        "[verify]\nlevel = 2\ndirections = 2\n",
    )
    assert main(["verify", cfg]) == 0
    assert "PASS" in capsys.readouterr().out


def test_missing_config_is_usage_error(capsys):
    assert main(["run", "/nonexistent.cfg"]) == 1
    assert "not found" in capsys.readouterr().err


def test_help_and_usage_exit_codes(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 1
    assert main(["frobnicate"]) == 1


def test_module_entry_point():
    # the child finds the package from a bare checkout, as pytest does
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "ssnbilinear", "mesh-info", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "nodes = 9" in proc.stdout
