"""Command line verbs, exit codes, and on-disk artifacts."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ssnbilinear import (
    Discretization,
    IterationRecord,
    NegativeCurvatureError,
    benchmark_instance,
    build_uniform_mesh,
    cli,
    ssn,
)
from ssnbilinear.cli import _RUN_OUTPUTS, main
from ssnbilinear.outputs import CSV_HEADER, write_stats


def write_cfg(tmp_path, body):
    path = tmp_path / "run.cfg"
    path.write_text(body)
    return str(path)


def read_rows(path):
    """convergence.csv as one dict per row, keyed by the header."""
    header, *lines = Path(path).read_text().splitlines()
    assert header == CSV_HEADER
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def benchmark_cfg(tmp_path, out_dir, extra="", levels=2):
    return write_cfg(
        tmp_path,
        f"[problem]\npreset = benchmark\n\n[mesh]\nlevels = {levels}\n\n"
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

    rows = read_rows(csv_path)
    assert len(rows) >= 2  # at least one full iteration plus the final row
    assert {row["level"] for row in rows} == {"2"}
    last = rows[-1]
    assert last["delta"] == "" and last["cg_iters"] == ""  # final row carries J only

    vtk = Path(level_dir, "state.vtk").read_text()
    assert "DATASET STRUCTURED_POINTS\nDIMENSIONS 5 5 1\n" in vtk
    assert "\nSPACING 2.5000000000000000e-01 2.5000000000000000e-01 1\n" in vtk
    assert "\nPOINT_DATA 25\n" in vtk

    comp = Path(level_dir, "complementarity.txt").read_text()
    measures = {}
    for line in comp.strip().split("\n"):
        key, _, value = line.partition(" = ")
        measures[key] = float(value)
    total = measures["measure_upper"] + measures["measure_lower"] + measures["measure_interior"]
    assert total == pytest.approx(1.0, abs=1e-12)

    assert "level 2:" in capsys.readouterr().out


def test_run_writes_its_stats(tmp_path):
    out_dir = str(tmp_path / "results")
    cfg = benchmark_cfg(tmp_path, out_dir)
    assert main(["run", cfg]) == 0
    level_dir = Path(out_dir, "level_2")
    first = (level_dir / "stats.json").read_bytes()
    stats = json.loads(first)
    rows = read_rows(level_dir / "convergence.csv")
    full = rows[:-1]
    assert stats["stop_reason"] == "residual"
    assert 0.0 <= stats["residual"] <= 1e-12
    assert stats["outer_iters"] == len(full)
    assert stats["cg_iters"] == sum(int(row["cg_iters"]) for row in full)
    assert stats["newton_iters"] == sum(int(row["newton_iters"]) for row in rows)
    assert stats["factor_count"] >= 1 and stats["pcg_count"] >= 1
    assert list(stats) == [
        "stop_reason",
        "residual",
        "outer_iters",
        "newton_iters",
        "cg_iters",
        "pcg_count",
        "factor_count",
    ]
    # no timings: a re-run writes the same bytes
    assert main(["run", cfg]) == 0
    assert (level_dir / "stats.json").read_bytes() == first


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
    first = Path(csv_path).read_bytes()
    assert main(["run", cfg]) == 0
    assert Path(csv_path).read_bytes() == first


def test_run_solver_failure_leaves_partial_history(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ssn, "MAX_OUTER", 1)
    out_dir = str(tmp_path / "results")
    cfg = benchmark_cfg(tmp_path, out_dir)
    assert main(["run", cfg]) == 2
    assert "solver error" in capsys.readouterr().err
    rows = read_rows(Path(out_dir, "level_2", "convergence.csv"))
    # the single iteration that ran, and the final row of its control
    assert len(rows) == 2
    assert rows[1]["delta"] == "" and rows[1]["cg_iters"] == ""
    stats = json.loads(Path(out_dir, "level_2", "stats.json").read_text())
    assert stats["stop_reason"] == "budget"
    assert stats["outer_iters"] == 1


@pytest.mark.parametrize("level", [2, 5])
def test_run_state_solve_failure_is_a_solver_error(tmp_path, capsys, level):
    # below rounding a state Newton step finds no step length that lowers
    # the residual, on the run's mesh (level 2) or on the coarser one
    # (level 5), well within MAX_NEWTON; no row was made, so no table is
    # written
    out_dir = str(tmp_path / "results")
    cfg = write_cfg(
        tmp_path,
        f"[problem]\npreset = benchmark\n\n[mesh]\nlevels = {level}\n\n"
        f"[output]\ndirectory = {out_dir}\n\n[ssn]\ninner_tol = 1e-30\n",
    )
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    match = re.search(r"lowers the residual in Newton step (\d+) ", err)
    # the step that raises is the first not accepted: fewer than 15 were
    assert match and int(match[1]) <= 15
    assert not os.path.exists(os.path.join(out_dir, f"level_{level}", "convergence.csv"))


def test_run_failure_on_a_coarser_level_writes_its_rows(
    tmp_path, capsys, monkeypatch
):
    # level 5 first solves level 4, whose budget of one outer iteration
    # runs out: its two rows are written, and level 5 makes none.  Level 6
    # would solve levels 4 and 5 again and fail the same way: it is skipped
    # and writes nothing
    monkeypatch.setattr(ssn, "MAX_OUTER", 1)
    out_dir = str(tmp_path / "results")
    cfg = benchmark_cfg(tmp_path, out_dir, levels="5 6")
    assert ssn.COARSE_START_LEVEL == 5
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "level 5: solver error" in err
    level_dir = Path(out_dir, "level_5")
    rows = read_rows(level_dir / "convergence.csv")
    assert [(row["level"], row["j"]) for row in rows] == [("4", "0"), ("4", "1")]
    assert rows[1]["delta"] == ""
    stats = json.loads((level_dir / "stats.json").read_text())
    assert stats["stop_reason"] == "budget"
    assert stats["outer_iters"] == 1
    assert stats["factor_count"] >= 1
    assert not (level_dir / "complementarity.txt").exists()
    assert err.count("at level 4") == 1
    assert err.splitlines()[-1] == "level 6: skipped: level 5 failed"
    assert list(Path(out_dir, "level_6").iterdir()) == []


_FIELDS = ("control.vtk", "state.vtk", "adjoint.vtk", "complementarity.txt")


@pytest.fixture(scope="module")
def lone_runs(tmp_path_factory):
    """The output directory of each of levels 4-7 run alone, fields on."""
    dirs = {}
    for level in (4, 5, 6, 7):
        tmp = tmp_path_factory.mktemp(f"lone_{level}")
        assert main(["run", benchmark_cfg(tmp, tmp / "out", levels=level)]) == 0
        dirs[level] = tmp / "out" / f"level_{level}"
    return dirs


def test_a_sweep_solves_each_level_as_its_lone_run_does(tmp_path, lone_runs):
    # each level starts from the previous one's solution, the start its
    # lone run computes, and its table lists its own rows alone
    out_dir = tmp_path / "results"
    assert main(["run", benchmark_cfg(tmp_path, out_dir, levels="4 5 6")]) == 0
    for level in (4, 5, 6):
        level_dir = out_dir / f"level_{level}"
        for name in _FIELDS:
            assert (level_dir / name).read_bytes() == (
                lone_runs[level] / name
            ).read_bytes(), (level, name)
        rows = read_rows(level_dir / "convergence.csv")
        lone = read_rows(lone_runs[level] / "convergence.csv")
        assert rows == [row for row in lone if row["level"] == str(level)]
        stats = json.loads((level_dir / "stats.json").read_text())
        assert stats["outer_iters"] == sum(1 for row in rows if row["delta"])
        assert stats["newton_iters"] == sum(int(row["newton_iters"]) for row in rows)
    # the preset's level 5 keeps the factor of its first state solve
    stats = json.loads((out_dir / "level_5" / "stats.json").read_text())
    assert stats["factor_count"] == 1


def test_a_sweep_solves_the_levels_between_its_entries(tmp_path, lone_runs):
    out_dir = tmp_path / "results"
    assert main(["run", benchmark_cfg(tmp_path, out_dir, levels="5 7")]) == 0
    level_dir = out_dir / "level_7"
    rows = read_rows(level_dir / "convergence.csv")
    lone = read_rows(lone_runs[7] / "convergence.csv")
    assert [row["level"] for row in rows if row["j"] == "0"] == ["6", "7"]
    assert rows == [row for row in lone if row["level"] in ("6", "7")]
    for name in _FIELDS:
        assert (level_dir / name).read_bytes() == (lone_runs[7] / name).read_bytes()


def test_a_finer_level_hands_nothing_to_a_coarser_one(tmp_path, lone_runs):
    out_dir = tmp_path / "results"
    assert main(["run", benchmark_cfg(tmp_path, out_dir, levels="7 5")]) == 0
    for level in (7, 5):
        written = sorted(p.name for p in (out_dir / f"level_{level}").iterdir())
        assert written == sorted(p.name for p in lone_runs[level].iterdir())
        for name in written:
            assert (out_dir / f"level_{level}" / name).read_bytes() == (
                lone_runs[level] / name
            ).read_bytes(), (level, name)


def test_run_outer_loop_failure_writes_the_rows_made(tmp_path, capsys, monkeypatch):
    # the second outer CG meets negative curvature: row 0 is still written
    calls = []
    cg_solve = ssn.cg_solve

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise NegativeCurvatureError("cg: nonpositive curvature (forced)")
        return cg_solve(*args, **kwargs)

    monkeypatch.setattr(ssn, "cg_solve", failing)
    out_dir = str(tmp_path / "results")
    cfg = write_cfg(
        tmp_path,
        f"[problem]\npreset = benchmark\n\n[mesh]\nlevels = 3\n\n"
        f"[output]\ndirectory = {out_dir}\n",
    )
    assert main(["run", cfg]) == 2
    assert "nonpositive curvature (forced)" in capsys.readouterr().err
    rows = read_rows(Path(out_dir, "level_3", "convergence.csv"))
    assert [(row["level"], row["j"]) for row in rows] == [("3", "0")]


def test_failed_run_removes_the_outputs_of_an_earlier_run(tmp_path, monkeypatch):
    # a successful run, then one whose second outer CG fails, into the same
    # directory: only the new partial table is left
    out_dir = str(tmp_path / "results")
    cfg = write_cfg(
        tmp_path,
        f"[problem]\npreset = benchmark\n\n[mesh]\nlevels = 3\n\n"
        f"[output]\ndirectory = {out_dir}\n",
    )
    assert main(["run", cfg]) == 0
    level_dir = Path(out_dir, "level_3")
    assert len(list(level_dir.iterdir())) == 6
    calls = []
    cg_solve = ssn.cg_solve

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise NegativeCurvatureError("cg: nonpositive curvature (forced)")
        return cg_solve(*args, **kwargs)

    monkeypatch.setattr(ssn, "cg_solve", failing)
    assert main(["run", cfg]) == 2
    assert [p.name for p in level_dir.iterdir()] == ["convergence.csv"]
    assert len((level_dir / "convergence.csv").read_text().splitlines()) == 2


def test_run_without_fields_removes_the_fields_of_an_earlier_run(tmp_path):
    # a run with fields, then one without into the same directory: only
    # the new run's files are left
    out_dir = str(tmp_path / "results")
    assert main(["run", benchmark_cfg(tmp_path, out_dir, levels=3)]) == 0
    level_dir = Path(out_dir, "level_3")
    assert sorted(p.name for p in level_dir.iterdir()) == sorted(_RUN_OUTPUTS)
    cfg = benchmark_cfg(tmp_path, out_dir, extra="write_fields = off\n", levels=3)
    assert main(["run", cfg]) == 0
    assert sorted(p.name for p in level_dir.iterdir()) == [
        "complementarity.txt",
        "convergence.csv",
        "stats.json",
    ]


def test_readme_output_list_is_the_run_outputs():
    # the files every level removes before it runs are those README lists
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Outputs", 1)[1]
    block = section.split("```", 2)[1]
    names = [line.split()[0].rsplit("/", 1)[1] for line in block.split("\n")[1:-1]]
    assert tuple(names) == _RUN_OUTPUTS


def test_readme_stats_keys_are_the_written_keys(tmp_path):
    # the stats.json keys README lists are those write_stats writes, in order
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Outputs", 1)[1]
    block = section.split("`stats.json` holds these keys:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = []
    for line in block.splitlines():
        assert line.startswith("- ")
        listed += re.findall(r"`(\w+)`", line[2:].split(":", 1)[0])
    row = IterationRecord(
        level=2, j=0, J=0.0, delta=None, newton_iters=0, cg_iters=None,
        residual=0.0, stop_reason="residual",
    )
    disc = Discretization(benchmark_instance(), build_uniform_mesh(1))
    write_stats(tmp_path / "stats.json", [row], disc)
    assert listed == list(json.loads((tmp_path / "stats.json").read_text()))


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


def test_run_rejects_a_nan_derivative(tmp_path, capsys):
    # the README expression problem, its da_dy made NaN at every negative y
    out_dir = str(tmp_path / "results")
    text = MISSCALED.format(flag="on", out_dir=out_dir).replace("1.01", "1")
    cfg = write_cfg(tmp_path, text.replace("abs(y) + 2\n", "abs(y) + 2 + 0 * y^0.5\n"))
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert "da_dy must stay >= a0 = 2.0; sampled minimum nan" in err
    # no numpy warning with an internal source path
    assert "RuntimeWarning" not in err and "expressions.py" not in err
    assert not os.path.exists(out_dir)


def unreachable(*args, **kwargs):
    raise AssertionError("a config error must stop the verb before its solver")


@pytest.mark.parametrize("verb", ["run", "verify"])
@pytest.mark.parametrize(
    "old, new, message",
    [
        ("g       = 0", "g = 0/0", "g must be finite on the boundary; sampled value nan"),
        ("g       = 0", "g = 10^400", "g must be finite on the boundary; sampled value inf"),
        (
            "a       = ",
            "a = " + "(" * 3000 + "y" + ")" * 3000 + " + ",
            "[problem] a: expression error at column 101: expression is nested "
            "deeper than 100 levels",
        ),
        (
            "d2L_dy2 = 1",
            "d2L_dy2 = " + "-" * 3000 + "1",
            "[problem] d2L_dy2: expression error at column 101: expression is "
            "nested deeper than 100 levels",
        ),
        (
            "dL_dy   = ",
            "dL_dy = " + "y+" * 3000,
            "[problem] dL_dy: expression error at column 202: expression is "
            "nested deeper than 100 levels",
        ),
        (
            "levels = 3\n",
            "levels = 3\n[verify]\ndirections = 100000000000000000000\n",
            "[verify] directions must be at most 289, the node count of level 4, "
            "got 100000000000000000000",
        ),
    ],
    ids=[
        "g-zero-by-zero",
        "g-overflow",
        "deep-parentheses",
        "deep-minus",
        "long-sum",
        "directions",
    ],
)
def test_inputs_that_crashed_or_never_ended_are_config_errors(
    tmp_path, capsys, monkeypatch, verb, old, new, message
):
    monkeypatch.setattr(cli, "run_ssn", unreachable)
    monkeypatch.setattr(cli, "verify_derivatives", unreachable)
    text = MISSCALED.format(flag="on", out_dir=tmp_path / "results")
    text = text.replace("1.01", "1").replace(old, new)
    assert main([verb, write_cfg(tmp_path, text)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid config:\n")
    assert message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("verb", ["run", "verify"])
def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys, verb):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"# r\xe9sum\xe9\n[problem]\npreset = benchmark\n")
    assert main([verb, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: config file {path} is not UTF-8: ")
    assert "Traceback" not in captured.err and captured.out == ""


def test_an_output_directory_that_names_a_file_is_an_error(tmp_path, capsys):
    out_file = tmp_path / "results"
    out_file.write_text("not a directory\n")
    assert main(["run", benchmark_cfg(tmp_path, out_file)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [Errno ")
    assert str(out_file) in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert out_file.read_text() == "not a directory\n"


def test_verify_verb(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "[problem]\npreset = benchmark\n\n[mesh]\nlevels = 2\n\n"
        "[verify]\nlevel = 2\ndirections = 2\n",
    )
    assert main(["verify", cfg]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_rejects_a_negative_seed(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "[problem]\npreset = benchmark\n\n[mesh]\nlevels = 2\n\n"
        "[verify]\nlevel = 2\nseed = -1\n",
    )
    assert main(["verify", cfg]) == 1
    captured = capsys.readouterr()
    assert "[verify] seed must be nonnegative, got -1" in captured.err
    assert captured.out == ""


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
