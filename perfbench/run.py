#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ssnbilinear command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload in turn

Each operation is one `python -m ssnbilinear ...` child process on a config
file generated into a temporary directory inside the checkout; children run
one at a time, until S seconds have passed. Every child's outputs are
checked, and a failed check or a non-zero exit code counts the operation as
failed.

--trace 0 reports the end-to-end metrics of untraced children as medians:
    wall_s       child launch to exit
    setup_s      launch until the first solver entry (run_ssn or
                 verify_derivatives) starts
    solve_s      summed time inside those solver entries
    peak_rss_mb  peak resident set size of the child

--trace 1 alternates untraced and traced children. Traced children wrap the
public entry points of every module (child.py) and the per-layer metrics
are the medians over traced children. All `*_s` layer metrics are self
times: span time minus the time of the spans nested in it. The traced
counts are checked against convergence.csv. trace.overhead_s is the median
traced wall_s minus the median untraced wall_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"

# A run must end within 180 s; no child is started or left running past this.
HARD_LIMIT_S = 165.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Final-row J of the built-in benchmark per level, from the unchanged solver.
PRESET_J = {
    4: 3.8096193554080755,
    5: 3.8189034981967467,
    6: 3.8212061479421009,
    7: 3.8217793261586968,
    8: 3.8219224880709741,
}
J_RTOL = 1e-10
PROJECTION_TOL = 1e-10
PRESET_NU, PRESET_ALPHA, PRESET_BETA = 0.05, -1.0, 1.0

# The benchmark problem written out as expressions (the README's example).
EXPRESSION_PROBLEM = """\
[problem]
a       = y^3 * abs(y) + 2*y - 100 * sin(2*pi*x1) * sin(pi*x2)
da_dy   = 4 * y^2 * abs(y) + 2
d2a_dy2 = 12 * y * abs(y)
L       = 0.5 * (y + 64 * x1 * (1 - x1) * x2 * (1 - x2))^2
dL_dy   = y + 64 * x1 * (1 - x1) * x2 * (1 - x2)
d2L_dy2 = 1
g       = 0
alpha   = -1
beta    = 1
nu      = 0.05
a0      = 2
"""

WORKLOADS = {
    "solve-l8": {"verb": "run", "levels": (8,), "write_fields": False},
    "sweep-fields": {"verb": "run", "levels": (4, 5, 6, 7), "write_fields": True},
    "verify-expr": {"verb": "verify", "level": 6, "directions": 5},
}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_mb", "MB"),
)

LAYERS = (
    ("config.parse_s", "s"),
    ("expressions.eval_calls", "count"),
    ("expressions.eval_s", "s"),
    ("problem.validate_s", "s"),
    ("problem.nodal_calls", "count"),
    ("problem.nodal_s", "s"),
    ("mesh.build_s", "s"),
    ("assembly.disc_init_s", "s"),
    ("pde.factor_count", "count"),
    ("pde.factor_s", "s"),
    ("pde.factor_nnz_lu", "count"),
    ("pde.trisolve_count", "count"),
    ("pde.trisolve_s", "s"),
    ("pde.trisolve_bytes_computed", "B"),
    ("pde.state_solves", "count"),
    ("pde.newton_iters", "count"),
    ("pde.residual_evals", "count"),
    ("pde.halvings", "count"),
    ("pde.state_solve_self_s", "s"),
    ("ssn.outer_iters", "count"),
    ("ssn.cg_iters", "count"),
    ("ssn.cg_self_s", "s"),
    ("ssn.run_self_s", "s"),
    ("objective.hessvec_count", "count"),
    ("objective.fd_evals", "count"),
    ("objective.fd_s", "s"),
    ("verification.self_s", "s"),
    ("outputs.write_s", "s"),
    ("outputs.bytes", "B"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# Bytes a triangular solve streams per stored factor entry: an 8-byte value
# and a 4-byte row index. Computed from array sizes, not measured.
TRISOLVE_BYTES_PER_NNZ = 12


def write_config(workload, seed, path, out_dir):
    spec = WORKLOADS[workload]
    if spec["verb"] == "verify":
        text = (
            EXPRESSION_PROBLEM
            + f"\n[mesh]\nlevels = {spec['level']}\n"
            + f"\n[output]\ndirectory = {out_dir}\n"
            + f"\n[verify]\nlevel = {spec['level']}\n"
            + f"directions = {spec['directions']}\nseed = {seed}\n"
        )
    else:
        text = (
            "[problem]\npreset = benchmark\n"
            + f"\n[mesh]\nlevels = {' '.join(map(str, spec['levels']))}\n"
            + f"\n[output]\ndirectory = {out_dir}\n"
            + f"write_fields = {'on' if spec['write_fields'] else 'off'}\n"
        )
    path.write_text(text, encoding="utf-8")


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One thread: the sparse LU is sequential, and idle BLAS threads competing
    # for the same cores only add run-to-run noise.
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(args, cwd, env, deadline):
    """Run one child in cwd, output to stdout.txt and stderr.txt there.

    Returns (exit code, start, end, peak RSS MB). os.wait4 reaps the child
    and reports its own peak RSS. A watchdog kills a child still running at
    the deadline.
    """
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(args, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss / 1024.0


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def read_vtk_values(path):
    text = path.read_text(encoding="utf-8")
    tail = text.split("LOOKUP_TABLE default", 1)[1]
    return np.array(tail.split(), dtype=float)


def check_outputs(workload, out_dir, stdout_path):
    """Correctness checks on one child's outputs; returns a list of failures."""
    spec = WORKLOADS[workload]
    if spec["verb"] == "verify":
        if "verdict: PASS" not in stdout_path.read_text(encoding="utf-8"):
            return ["verify did not print 'verdict: PASS'"]
        return []
    errors = []
    for level in spec["levels"]:
        level_dir = out_dir / f"level_{level}"
        rows = read_csv(level_dir / "convergence.csv")
        final_j = float(rows[-1]["J"])
        ref = PRESET_J[level]
        if abs(final_j - ref) > J_RTOL * abs(ref):
            errors.append(f"level {level}: final J {final_j!r} differs from {ref!r}")
        if spec["write_fields"]:
            u, y, phi = (
                read_vtk_values(level_dir / f"{name}.vtk")
                for name in ("control", "state", "adjoint")
            )
            res = np.max(np.abs(u - np.clip(y * phi / PRESET_NU, PRESET_ALPHA, PRESET_BETA)))
            if not res <= PROJECTION_TOL:
                errors.append(f"level {level}: projection residual {res:.3e}")
    return errors


def layer_metrics(record):
    """Per-layer counts and self times from one traced child's spans."""
    spans = record["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s = defaultdict(float)
    calls = Counter()
    values = Counter()
    for index, (name, start, end, _, value) in enumerate(spans):
        self_s[name] += end - start - covered[index]
        calls[name] += 1
        if value is not None:
            values[name] += value
    counts = Counter(record["counts"])
    return {
        "config.parse_s": self_s["config.parse"],
        "expressions.eval_calls": calls["expressions.eval"],
        "expressions.eval_s": self_s["expressions.eval"],
        "problem.validate_s": self_s["problem.validate"],
        "problem.nodal_calls": calls["problem.nodal"],
        "problem.nodal_s": self_s["problem.nodal"],
        "mesh.build_s": self_s["mesh.build"],
        "assembly.disc_init_s": self_s["assembly.disc_init"],
        "pde.factor_count": calls["pde.factor"],
        "pde.factor_s": self_s["pde.factor"],
        "pde.factor_nnz_lu": values["pde.factor"],
        "pde.trisolve_count": calls["pde.trisolve"],
        "pde.trisolve_s": self_s["pde.trisolve"],
        "pde.trisolve_bytes_computed": TRISOLVE_BYTES_PER_NNZ * values["pde.trisolve"],
        "pde.state_solves": calls["pde.state_solve"],
        "pde.newton_iters": values["pde.state_solve"],
        "pde.residual_evals": counts["pde.residual_evals"],
        # Every state solve evaluates one initial residual and one per Newton
        # step; each further evaluation is a halved step.
        "pde.halvings": counts["pde.residual_evals"]
        - values["pde.state_solve"]
        - calls["pde.state_solve"],
        "pde.state_solve_self_s": self_s["pde.state_solve"],
        "ssn.outer_iters": counts["ssn.outer_iters"],
        "ssn.cg_iters": values["ssn.cg"],
        "ssn.cg_self_s": self_s["ssn.cg"],
        "ssn.run_self_s": self_s["ssn.run"],
        "objective.hessvec_count": counts["objective.hessvec_count"],
        "objective.fd_evals": counts["objective.fd_evals"],
        "objective.fd_s": self_s["objective.fd"],
        "verification.self_s": self_s["verification"],
        "outputs.write_s": self_s["outputs.write"],
        "outputs.bytes": values["outputs.write"],
        "cli.self_s": self_s["cli"],
    }


def csv_totals(workload, out_dir):
    """Newton, CG and outer-iteration totals as convergence.csv reports them."""
    rows = [
        row
        for level in WORKLOADS[workload]["levels"]
        for row in read_csv(out_dir / f"level_{level}" / "convergence.csv")
    ]
    return {
        "pde.newton_iters": sum(int(row["newton_iters"]) for row in rows),
        "ssn.cg_iters": sum(int(row["cg_iters"]) for row in rows if row["cg_iters"]),
        "ssn.outer_iters": sum(1 for row in rows if row["delta"]),
    }


def trace_mismatches(layers, totals):
    """The traced counts must agree with what the program reports itself."""
    return [
        f"traced {name} = {layers[name]}, convergence.csv says {value}"
        for name, value in totals.items()
        if layers[name] != value
    ]


def run_child(workload, seed, traced, index, tmp, env, deadline):
    work = tmp / f"child_{index}"
    work.mkdir()
    out_dir = work / "out"
    config = work / "run.cfg"
    record_path = work / "record.json"
    write_config(workload, seed, config, out_dir)
    args = [
        sys.executable,
        str(CHILD),
        str(record_path),
        "1" if traced else "0",
        WORKLOADS[workload]["verb"],
        str(config),
    ]
    code, start, end, rss_mb = spawn(args, work, env, deadline)
    result = {"traced": traced, "wall_s": end - start, "peak_rss_mb": rss_mb, "errors": []}
    if code != 0:
        stderr = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        last = stderr.strip().splitlines()[-1:] or [""]
        result["errors"].append(f"exit code {code}: {last[0]}")
    try:
        record = json.loads(record_path.read_text(encoding="utf-8"))
        entries = record["entries"]
        if not entries:
            raise ValueError("no solver entry was reached")
        result["setup_s"] = entries[0][0] - start
        result["solve_s"] = sum(stop - begin for begin, stop in entries)
        if not result["errors"]:
            result["errors"] += check_outputs(workload, out_dir, work / "stdout.txt")
        if traced:
            result["layers"] = layer_metrics(record)
            if not result["errors"] and WORKLOADS[workload]["verb"] == "run":
                totals = csv_totals(workload, out_dir)
                result["errors"] += trace_mismatches(result["layers"], totals)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        result["errors"].append(f"unreadable child output: {exc!r}")
    shutil.rmtree(work)
    return result


def run_workload(workload, seed, seconds, trace, tmp):
    """Run children one at a time for `seconds`; returns the list of results."""
    env = child_env()
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    # Import once untimed so that compiled bytecode and the file cache are warm.
    subprocess.run([sys.executable, "-c", "import ssnbilinear.cli"], cwd=tmp, env=env)
    results = []
    while True:
        traced = trace and len(results) % 2 == 1
        result = run_child(workload, seed, traced, len(results), tmp, env, deadline)
        results.append(result)
        now = time.monotonic()
        paired = not trace or len(results) >= 2
        # Start another child only if most of it falls inside the window, so
        # a run lasts about `seconds` whatever a child takes.
        if (now - start + result["wall_s"] / 2 >= seconds and paired) or (
            now + result["wall_s"] > deadline
        ):
            return results


def median_metrics(results, names, median=statistics.median):
    return {name: median(r[name] for r in results) for name in names}


def summarize(workload, results, trace):
    """Median metrics of one workload, printed one per line."""
    ok = [r for r in results if not r["errors"]]
    for r in results:
        for error in r["errors"]:
            print(f"{workload}: FAILED: {error}", file=sys.stderr)
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    metrics = {}
    if trace and untraced and traced:
        # The low median is an observed value, so counts stay whole numbers.
        layers = median_metrics(
            [r["layers"] for r in traced], [n for n, _ in LAYERS[:-1]], statistics.median_low
        )
        layers["trace.overhead_s"] = statistics.median(
            r["wall_s"] for r in traced
        ) - statistics.median(r["wall_s"] for r in untraced)
        metrics = {name: (layers[name], unit) for name, unit in LAYERS}
        samples = len(traced)
    elif not trace and untraced:
        e2e = median_metrics(untraced, [n for n, _ in END_TO_END])
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END}
        samples = len(untraced)
    for name, (value, unit) in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"{workload:<13} {name:<28} {shown} {unit:<5} (median of {samples})")
    print(f"{workload:<13} operations attempted {len(results)}, failed {len(results) - len(ok)}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "ssnbilinear" / "__main__.py").is_file():
        print(f"error: no ssnbilinear sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for workload in workloads:
            results = run_workload(workload, args.seed, args.seconds, bool(args.trace), tmp)
            attempted += len(results)
            failed += sum(1 for r in results if r["errors"])
            prefix = f"{workload}." if args.workload == "all" else ""
            for name, (value, unit) in summarize(workload, results, bool(args.trace)).items():
                metrics[prefix + name] = {"value": value, "unit": unit}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    names = LAYERS if args.trace else END_TO_END
    correct = failed == 0 and len(metrics) == len(names) * len(workloads)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
