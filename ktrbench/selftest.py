"""Checks of the benchmark itself (about two minutes):

    python3 -m pytest -q ktrbench/selftest.py

* tracing changes no output: traced and untraced tables agree apart from
  the wall_ms column, and every wrapped name holds its original afterwards;
* computed counts repeat exactly between runs of one seed;
* one seed gives one set of inputs;
* the output checks reject wrong answers;
* the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORK = HERE / ".work"


def _jobs(workload: str, seed: int, tag: str) -> tuple[list[workloads.Job], Path]:
    work = WORK / f"selftest-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return workloads.generate(workload, seed, work), work


def _as_dicts(jobs: list[workloads.Job]) -> list[dict]:
    """The jobs as the run process reads them from its manifest."""
    return [dataclasses.asdict(job) for job in jobs]


def test_tracing_changes_no_output_and_restores_every_name():
    import ktr.cli

    jobs, work = _jobs("trotter-sweep", 3, "identity")
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr in (tracer._owner(m, p) for m, p, *_ in tracer.TARGETS)]
    plain = child.run_pass(ktr.cli.main, _as_dicts(jobs))
    traced = child.traced_pass(_as_dicts(jobs), work / "spans.json")
    assert [run._strip_wall(op) for op in plain["ops"]] == \
        [run._strip_wall(op) for op in traced["ops"]]
    assert all(op["rc"] == 0 for op in traced["ops"])
    assert traced["restored"]
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)
    checker = run.Checker(jobs)
    checker.check_traced(plain["ops"], traced)
    assert checker.failed == 0 and not checker.failures


def _counts(layers: dict) -> dict:
    keys = tracer.COUNT_METRICS + ("states.evolve_gb_computed", "gevp.kept_dim_final")
    return {key: layers[key] for key in keys}


def test_computed_counts_repeat_exactly_for_one_seed():
    first, work_a = _jobs("trotter-sweep", 11, "counts-a")
    again, work_b = _jobs("trotter-sweep", 11, "counts-b")
    a = child.traced_pass(_as_dicts(first), work_a / "spans.json")["layers"]
    b = child.traced_pass(_as_dicts(again), work_b / "spans.json")["layers"]
    assert _counts(a) == _counts(b)
    assert a["states.evolve_calls"] > 0 and a["gevp.solve_calls"] > 0
    assert a["states.trotter_steps"] > 0 and a["states.pauli_applications"] > 0


def test_seed_fixes_the_inputs():
    a, work_a = _jobs("trotter-sweep", 5, "seed-a")
    b, work_b = _jobs("trotter-sweep", 5, "seed-b")
    c, _ = _jobs("trotter-sweep", 6, "seed-c")
    assert [(j.name, j.params, j.oracle) for j in a] == [(j.name, j.params, j.oracle) for j in b]
    assert [j.params for j in a] != [j.params for j in c]
    for job in a:
        if job.csv is not None:
            text_a = Path(job.argv[1]).read_text().replace(str(work_a), "")
            text_b = (work_b / Path(job.argv[1]).name).read_text().replace(str(work_b), "")
            assert text_a == text_b


def test_checks_reject_wrong_answers():
    jobs, _ = _jobs("trotter-sweep", 7, "reject")
    run_job = next(j for j in jobs if j.kind == "tfim" and j.n == 4)
    header = "method,m,dt,estimate,reference,rel_error,kept_dim,wall_ms"
    good = f"{header}\nktr,16,0.1,{run_job.oracle!r},{run_job.oracle!r},0,4,1\n"
    assert workloads.check_run(run_job, 0, good)[0] == []
    wrong = good.replace(f",{run_job.oracle!r},", f",{run_job.oracle * 0.95!r},", 1)
    assert workloads.check_run(run_job, 0, wrong)[0]
    assert workloads.check_run(run_job, 3, good)[0]

    sym = next(j for j in jobs if j.kind == "tfim" and j.csv is None)
    commuting = "Z" * sym.n  # commutes with every Z term
    assert workloads.check_symmetry(sym, 0, commuting + "\n")
    heis = next(j for j in jobs if j.kind == "heisenberg" and j.csv is None)
    assert workloads.check_symmetry(heis, 0, "INFEASIBLE\n") == []
    assert workloads.check_symmetry(heis, 0, "X" * heis.n + "\n")


def test_refuses_to_run_without_the_program():
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "trotter-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
