"""The benchmark's jobs at seeds 1-5 give the numbers recorded in
``same_numbers.json``.

The file freezes each job's inputs and outputs.  A run job is stored as its
config text (without ``output``), its exit code, the provenance values
``resolved.dt``, ``resolved.reference`` and ``exact.dropped_weight`` (exact
runs only), and per route and prefix its row: method, m, estimate and
kept_dim; dt and the reference are the same on every row of a job, so they
are stored once and every row is compared with them.  A ``find-symmetry`` job
is stored as its model kind, n and couplings, its exit code, and the line
count and sha256 of its standard output; the test writes its Pauli file from
:func:`ktr.models.build`.

Exact: exit codes, m, dt, kept_dim and every ``find-symmetry`` output.
Within tolerance: estimates within :data:`ESTIMATE_TOL` * |E0|, references
within :data:`REFERENCE_TOL` relative and the dropped weight within
:data:`DROPPED_WEIGHT_TOL` absolute.  These bounds sit above the rounding
that the kernel type of the BLAS moves (estimates by up to 7.2e-10 * |E0|,
references by 4.6e-15 relative, the dropped weight by 1.8e-33).

A change that moves these numbers on purpose regenerates the outputs from
the stored inputs with

    PYTHONPATH=src python3 tests/test_same_numbers.py

and says which rows moved, by how much, and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from ktr.cli import main
from ktr.models import ModelSpec, build

from helpers import pauli_sum_to_text

GOLDEN = Path(__file__).with_name("same_numbers.json")

ESTIMATE_TOL = 1e-9
REFERENCE_TOL = 1e-14
DROPPED_WEIGHT_TOL = 1e-30


def _main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _run_outputs(job: dict, work: Path) -> dict:
    csv = work / f"{job['name']}.csv"
    cfg = work / f"{job['name']}.cfg"
    cfg.write_text(job["config"] + f"output = {csv}\n")
    code, _ = _main(["run", str(cfg)])
    outputs = {"exit": code, "dt": None, "reference": None, "dropped_weight": None, "rows": []}
    if code != 0:
        return outputs
    for line in csv.read_text().splitlines()[1:]:
        method, m, dt, estimate, reference, _, kept_dim, _ = line.split(",")
        outputs["rows"].append([method, int(m), float(dt), float(estimate),
                                float(reference), int(kept_dim)])
    provenance = dict(line.split(" = ", 1) for line in
                      Path(f"{csv}.provenance").read_text().splitlines())
    for key, name in (("resolved.dt", "dt"), ("resolved.reference", "reference"),
                      ("exact.dropped_weight", "dropped_weight")):
        if key in provenance:
            outputs[name] = float(provenance[key])
    return outputs


def _symmetry_outputs(job: dict, work: Path) -> dict:
    path = work / f"{job['name']}.txt"
    path.write_text(pauli_sum_to_text(build(ModelSpec(job["kind"], job["n"], job["params"]))))
    code, stdout = _main(["find-symmetry", str(path)])
    lines = stdout.splitlines()
    return {"exit": code, "lines": len(lines),
            "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest()}


def outputs(job: dict, work: Path) -> dict:
    """The recorded outputs of one stored job, computed afresh."""
    return (_symmetry_outputs if "kind" in job else _run_outputs)(job, work)


def _inputs(job: dict) -> dict:
    keys = ("workload", "seed", "name", "kind", "n", "params", "config")
    return {key: job[key] for key in keys if key in job}


def _mismatches(want: dict, got: dict) -> list[str]:
    """What of ``got`` departs from the recorded ``want``, beyond its bound."""
    if "sha256" in want:
        keys = ("exit", "lines", "sha256")
        return [f"{key}: {got[key]!r} != {want[key]!r}" for key in keys if got[key] != want[key]]
    if got["exit"] != want["exit"]:
        return [f"exit code {got['exit']} != {want['exit']}"]
    problems = []
    if got["dt"] != want["dt"]:
        problems.append(f"resolved.dt {got['dt']!r} != {want['dt']!r}")
    e0 = want["reference"]
    if e0 is not None and not abs(got["reference"] - e0) <= REFERENCE_TOL * abs(e0):
        problems.append(f"resolved.reference {got['reference']!r} != {e0!r}")
    dropped = want["dropped_weight"]
    if (dropped is None) != (got["dropped_weight"] is None) or (
            dropped is not None and not abs(got["dropped_weight"] - dropped) <= DROPPED_WEIGHT_TOL):
        problems.append(f"exact.dropped_weight {got['dropped_weight']!r} != {dropped!r}")
    if [row[:2] for row in got["rows"]] != [row[:2] for row in want["rows"]]:
        return problems + ["the (method, m) rows differ"]
    for (method, m, dt, estimate, reference, kept), (_, _, want_estimate, want_kept) in zip(
            got["rows"], want["rows"]):
        where = f"{method} m={m}"
        if dt != want["dt"]:
            problems.append(f"{where}: dt {dt!r} != {want['dt']!r}")
        if not abs(reference - e0) <= REFERENCE_TOL * abs(e0):
            problems.append(f"{where}: reference {reference!r} != {e0!r}")
        if not abs(estimate - want_estimate) <= ESTIMATE_TOL * abs(e0):
            problems.append(f"{where}: estimate {estimate!r} != {want_estimate!r}")
        if kept != want_kept:
            problems.append(f"{where}: kept_dim {kept} != {want_kept}")
    return problems


def _recorded(got: dict) -> dict:
    """``got`` in the stored form: the rows without their dt and reference."""
    if "rows" in got:
        got = {**got, "rows": [[method, m, estimate, kept]
                               for method, m, _, estimate, _, kept in got["rows"]]}
    return got


def _groups() -> list[tuple[str, int]]:
    jobs = json.loads(GOLDEN.read_text())["jobs"]
    return sorted({(job["workload"], job["seed"]) for job in jobs})


@pytest.mark.parametrize("workload, seed", _groups())
def test_benchmark_jobs_give_the_recorded_numbers(workload, seed, tmp_path):
    jobs = [job for job in json.loads(GOLDEN.read_text())["jobs"]
            if (job["workload"], job["seed"]) == (workload, seed)]
    problems = [f"{job['name']}: {problem}" for job in jobs
                for problem in _mismatches(job, outputs(job, tmp_path))]
    assert not problems, "\n".join(problems[:20])


def write(jobs: list[dict]) -> None:
    """Record ``jobs`` (inputs) with their outputs, one job or row a line."""
    with tempfile.TemporaryDirectory() as work:
        jobs = [{**_inputs(job), **_recorded(outputs(job, Path(work)))} for job in jobs]
    lines = []
    for job in jobs:
        text = json.dumps({key: value for key, value in job.items() if key != "rows"})
        if "rows" in job:
            rows = ",\n".join(json.dumps(row) for row in job["rows"])
            text = f'{text[:-1]}, "rows": [\n{rows}\n]}}'
        lines.append(text)
    GOLDEN.write_text('{"jobs": [\n' + ",\n".join(lines) + "\n]}\n")


if __name__ == "__main__":
    write(json.loads(GOLDEN.read_text())["jobs"])
