"""The ktr benchmark: one workload, one seed, one JSON result line.

    python3 ktrbench/run.py --workload gauge-exact --seed 1 --seconds 55 --trace 0

Run it from the root of a checkout; ``ktr`` is imported from its ``src``.
The seed writes the workload's inputs (see ``workloads.py``) and the
independent oracle energies.  With ``--trace 0`` the script times fresh-
interpreter set-up, then runs untraced passes of the workload through
``ktr.cli.main`` in one run process until ``--seconds`` (set-up probes
included) are spent, and prints the end-to-end metrics.  With ``--trace 1``
the run process makes one untraced and one traced pass, and a second run
process with a one-thread BLAS makes a traced pass of gauge-exact as the
plain baseline; it prints the per-layer metrics.  Every output is checked;
a failed check counts as a failed operation.  The last line of standard
output is the result object; the full record, with provenance and spans,
is kept under ``ktrbench/.work``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import workloads
from tracer import SELF_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

#: fresh-interpreter set-up probes per run; the median is reported
SETUP_PROBES = 3
#: wall-time budget of one invocation; child processes are killed past it
BUDGET_S = 170.0
_START = time.monotonic()


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _env(one_thread: bool = False) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if one_thread:
        env["OPENBLAS_NUM_THREADS"] = "1"
        env["OMP_NUM_THREADS"] = "1"
    return env


def _remaining_s() -> float:
    return max(1.0, BUDGET_S - (time.monotonic() - _START))


def _child(args: list[str], env: dict[str, str]) -> float:
    """Run child.py to completion; its wall time from start to exit."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *args], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=_remaining_s())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} process overran the {BUDGET_S:g} s budget") from exc
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} process failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed


def setup_seconds(manifest: Path) -> float:
    """Wall time of a fresh interpreter that sets up every run config and exits."""
    return _child(["setup", str(manifest)], _env())


def run_child(mode: str, manifest: Path, result: Path, *extra: str,
              one_thread: bool = False) -> dict:
    _child([mode, str(manifest), str(result), *extra], _env(one_thread))
    return json.loads(result.read_text())


class Checker:
    """Counts operations and checks each one against the oracle."""

    def __init__(self, jobs: list[workloads.Job]):
        self.jobs = {job.name: job for job in jobs}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.worst_rel_err = 0.0

    def check_op(self, op: dict, extra: tuple[str, ...] = ()) -> None:
        job = self.jobs[op["name"]]
        if job.csv is not None:
            problems, worst = workloads.check_run(job, op["rc"], op["csv"])
            self.worst_rel_err = max(self.worst_rel_err, worst)
        else:
            problems = workloads.check_symmetry(job, op["rc"], op["stdout"])
        problems += extra
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(problems[0])

    def check_traced(self, plain: list[dict], traced: dict) -> None:
        """A traced pass must print what the untraced one printed."""
        for a, b in zip(plain, traced["ops"]):
            same = _strip_wall(a) == _strip_wall(b)
            self.check_op(b, () if same else (f"{b['name']}: traced output differs",))
        if not traced["restored"]:
            self.failures.append("tracer left a wrapped name in place")


def _strip_wall(op: dict) -> tuple:
    """Output of an operation without the wall_ms column of its table."""
    csv = op["csv"]
    if csv is not None:
        csv = [line.rsplit(",", 1)[0] for line in csv.splitlines()]
    return op["rc"], op["stdout"], csv


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def provenance(workload: str, seed: int, threads: dict[str, int | None]) -> dict:
    git = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            git = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass  # no git here: the source digest still identifies the code
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "git_commit": git,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        **threads, "nproc": len(os.sched_getaffinity(0)),
        "couplings": workloads.COUPLING_RANGES[workload],
    }


def measure(workload: str, seed: int, seconds: int, work: Path, jobs, manifest) -> dict:
    start = time.perf_counter()
    setups = [setup_seconds(manifest) for _ in range(SETUP_PROBES)]
    # the set-up probes spend part of the budget; the passes get the rest
    left = seconds - (time.perf_counter() - start)
    res = run_child("measure", manifest, work / "result.json", repr(left))
    checker = Checker(jobs)
    for p in res["passes"]:
        for op in p["ops"]:
            checker.check_op(op)
    walls = [p["wall_s"] for p in res["passes"]]
    metrics = {
        "run_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in res["passes"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ground_rel_err": (checker.worst_rel_err, "1"),
        "op_ok_frac": (1.0 - checker.failed / checker.attempted, "1"),
    }
    summary = {"run_s": _quartiles(walls), "setup_s": _quartiles(setups)}
    return {"checker": checker, "metrics": metrics, "summary": summary,
            "threads": {"blas_threads": res["blas_threads"]}}


def trace(workload: str, seed: int, work: Path, jobs, manifest) -> dict:
    # plain baseline: gauge-exact with a one-thread BLAS, traced, not gated
    base_work = work / "baseline"
    base_work.mkdir()
    base_jobs = (jobs if workload == "gauge-exact"
                 else workloads.generate("gauge-exact", seed, base_work))
    base_manifest = base_work / "manifest.json"
    workloads.save_manifest(base_jobs, base_manifest)

    res = run_child("trace", manifest, work / "result.json")
    base = run_child("traced", base_manifest, base_work / "result.json", one_thread=True)
    checker = Checker(jobs + base_jobs)
    plain, traced = res["passes"][0], res["traced"]
    for op in plain["ops"] + base["traced"]["ops"]:
        checker.check_op(op)
    checker.check_traced(plain["ops"], traced)

    layers = traced["layers"]
    metrics = {name: (value, _unit(name)) for name, value in layers.items()}
    metrics["trace.run_s"] = (traced["wall_s"], "s")
    metrics["trace_overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    metrics["trace.unattributed_s"] = (
        traced["wall_s"] - sum(v for k, v in layers.items() if k in SELF_METRICS), "s")
    metrics["baseline_1t.run_s"] = (base["traced"]["wall_s"], "s")
    metrics["baseline_1t.cpu_s"] = (base["traced"]["cpu_s"], "s")
    return {"checker": checker, "metrics": metrics, "summary": {},
            "threads": {"blas_threads": res["blas_threads"],
                        "baseline_1t_blas_threads": base["blas_threads"]}}


def _unit(name: str) -> str:
    if name.endswith("_s") or name.startswith("krylov.pencil_s."):
        return "s"
    if name.endswith("_gb_computed"):
        return "GB"
    return "count" if name != "gevp.b_cond_final" else "1"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ktr" / "__init__.py").is_file():
        print(f"error: no ktr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        jobs = workloads.generate(args.workload, args.seed, work)
        manifest = work / "manifest.json"
        workloads.save_manifest(jobs, manifest)
        if args.trace:
            out = trace(args.workload, args.seed, work, jobs, manifest)
        else:
            out = measure(args.workload, args.seed, args.seconds, work, jobs, manifest)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checker = out["checker"]
    record = {
        "provenance": provenance(args.workload, args.seed, out["threads"]),
        "summary": out["summary"],
        "failures": checker.failures,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record["provenance"]))
    print(json.dumps({"summary": record["summary"], "failures": checker.failures[:10]}))
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
