"""The helper scripts, the benchmark's self-test and the README's library
example run as documented."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ssnbilinear import SolverError
from ssnbilinear.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_run_benchmark_script():
    proc = run_script("run_benchmark.py", "3", "5")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("measures:") == 2
    assert len(re.findall(r", pcg [1-9][0-9]*\n", proc.stdout)) == 2
    assert "level 3 " in proc.stdout and "level 5 " in proc.stdout
    # each level's heading gives its times and the process's peak RSS
    heading = r"\nlevel [35] .*, set-up [0-9.]+s, solve [0-9.]+s, "
    peaks = re.findall(heading + r"peak RSS ([0-9.]+) MB\)\n", proc.stdout)
    assert len(peaks) == 2
    assert 0 < float(peaks[0]) <= float(peaks[1])
    # level 3 starts cold; level 5 solves level 4 first, and both tables
    # list every row with its level
    assert "factorizations 3, " in proc.stdout
    assert "factorizations 4, " in proc.stdout
    assert "\nouter: level 3 4\n" in proc.stdout
    assert "\nouter: level 4 4, level 5 5\n" in proc.stdout
    assert len(re.findall(r"\n    4 +0 ", proc.stdout)) == 1
    assert len(re.findall(r"\n    5 +0 ", proc.stdout)) == 1
    # level 4 hands its solution to level 5, which solves only itself and
    # keeps the factor of its first state solve
    proc = run_script("run_benchmark.py", "4", "5")
    assert proc.returncode == 0, proc.stderr
    level_5 = proc.stdout.split("\nlevel 5 ", 1)[1]
    assert "factorizations 1, " in level_5
    assert "\nouter: level 5 5\n" in level_5
    assert re.findall(r"\n +([0-9]+) +[0-9]+ +[0-9]\.", level_5) == ["5"] * 6


@pytest.mark.parametrize(
    "args, message",
    [
        (("13",), "level 13 outside [1, 12]"),
        (("5", "0"), "level 0 outside [1, 12]"),
        (("5", "x"), "invalid literal for int()"),
    ],
)
def test_run_benchmark_script_rejects_bad_arguments(args, message):
    # a bad last argument is caught before the first level is solved
    proc = run_script("run_benchmark.py", *args)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {message}")
    assert proc.stdout == ""


def test_run_benchmark_script_solves_the_levels_run_does(tmp_path):
    # the script and `ssnbilinear run` hand each level's result to the next
    # alike, so every level has the same rows: level, j, J, newton, cg
    proc = run_script("run_benchmark.py", "4", "5", "6")
    assert proc.returncode == 0, proc.stderr
    printed = []
    for line in proc.stdout.splitlines():
        tokens = line.split()
        if tokens and tokens[0].isdigit():
            # a final row prints no delta and no cg
            level, j, J, *rest = tokens
            newton, cg = (rest[1], rest[2]) if len(rest) == 3 else (rest[0], "")
            printed.append((level, j, J, newton, cg))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[problem]\npreset = benchmark\n\n[mesh]\nlevels = 4 5 6\n\n"
        f"[output]\ndirectory = {tmp_path / 'out'}\nwrite_fields = off\n"
    )
    assert main(["run", str(cfg)]) == 0
    written = []
    for level in (4, 5, 6):
        csv = (tmp_path / "out" / f"level_{level}" / "convergence.csv").read_text()
        for line in csv.splitlines()[1:]:
            level, j, J, _, newton, cg = line.split(",")
            written.append((level, j, J, newton, cg))
    assert {row[0] for row in written} == {"4", "5", "6"}
    assert printed == written


def test_run_benchmark_script_reports_a_solver_error(monkeypatch, capsys):
    path = ROOT / "scripts" / "run_benchmark.py"
    spec = importlib.util.spec_from_file_location("run_benchmark", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def fail(disc, coarse=None):
        raise SolverError("no convergence")

    monkeypatch.setattr(script, "run_ssn", fail)
    assert script.main(["2", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "level 2: solver error: no convergence\n"
    assert captured.out == ""


def test_perfbench_selftest_passes():
    # the benchmark's tracer hooks solver functions by name and skips a
    # name it cannot find; its self-test runs a small traced `run` and
    # `verify` and checks their counts, so a refactor that breaks a hook
    # fails here, not first in the benchmark
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest: PASS"


def fenced_blocks(text):
    """The (info string, code) of each fenced code block of text.

    Only a bare ``` closes a block: a fence with text after it is a line of
    the block, and what follows it would render as code.
    """
    blocks, info, code = [], None, []
    for number, line in enumerate(text.splitlines(), 1):
        if info is None:
            if line.startswith("```"):
                info, code = line[3:], []
        elif line.startswith("```"):
            assert line == "```", f"line {number}: text after a closing fence"
            blocks.append((info, "".join(code)))
            info = None
        else:
            code.append(line + "\n")
    assert info is None, "a code block is never closed"
    return blocks


def test_readme_library_example(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    fenced_blocks(readme)  # every block of the README closes
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    blocks = [code for info, code in fenced_blocks(section) if info == "python"]
    # a level-6 run; one level handing its solution to the next; verify
    assert len(blocks) == 3
    # the blocks run in turn in one namespace, as a reader would type them
    namespace = {}
    for code in blocks:
        exec(compile(code, "README.md", "exec"), namespace)
    out = capsys.readouterr().out
    assert "J* =" in out
    assert out.rstrip().endswith("verdict: PASS")


def test_the_readme_names_exactly_the_scripts_there_are():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"scripts/([A-Za-z0-9_]+\.py)", readme))
    assert named == {path.name for path in (ROOT / "scripts").glob("*.py")}
