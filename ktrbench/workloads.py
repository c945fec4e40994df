"""Workload inputs, independent oracles and output checks for the ktr benchmark.

Everything here is independent of the ``ktr`` package: the chains are
written out again as Pauli labels, ground energies come from a scipy dense
build, and ``find-symmetry`` answers are checked with a GF(2) anticommutation
test of our own.  The program under test only ever sees the config files and
Pauli-sum text files that :func:`generate` writes.

Why these workloads (see NOTES.md for the per-layer predictions):

* ``gauge-exact``   -- z2higgs, n=10, exact evolution, five routes.  Dense
  assembly, the eigh factorization, the Gauss-sector reference and ~1000
  exact evolutions dominate: the dense wall.
* ``trotter-sweep`` -- one tfim n=10 Trotter-2 ``ktr`` job, where matrix-free
  single-string Pauli actions dominate and no factorization runs, shuffled
  with many small jobs (d <= 256) and find-symmetry at n=256, where per-call
  Python overhead and the GF(2) solver dominate.  Both halves are bound by
  Python-level work, so they share one workload and its longer runs.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

WORKLOADS = ("gauge-exact", "trotter-sweep")

#: coupling ranges the seed draws from.  They are narrow on purpose: the
#: Krylov truncation error is a steep function of the couplings (up to 1.7x
#: per 1% change), and ``ground_rel_err`` must not spread across seeds by
#: more than a few percent.  The sweep's worst case, heisenberg n=6, is the
#: steepest, so its ranges are +-0.1%.
COUPLING_RANGES = {
    "gauge-exact": {"mu": (0.995, 1.005), "g": (0.995, 1.005)},
    "trotter-sweep": {
        "trotter": {"gamma": (0.4975, 0.5025)},
        "tfim": {"gamma": (0.499, 0.501)},
        "z2higgs": {"mu": (0.999, 1.001), "g": (0.999, 1.001)},
        "cluster": {"g_x": (0.999, 1.001), "g_zz": (0.4995, 0.5005), "g_zxz": (0.2997, 0.3003)},
        "heisenberg": {"j_x": (0.999, 1.001), "j_y": (0.7992, 0.8008), "j_z": (0.5994, 0.6006)},
    },
}

#: largest accepted final-prefix relative error of any route, per kind of job
ACCURACY_BOUND = {"gauge-exact": 1e-4, "trotter": 1e-3, "sweep": 1e-2}

#: agreement required between the program's own reference column and the oracle
REFERENCE_TOL = 1e-9

SWEEP_ROUTES = "kqd,ktr,implicit,local:2,derivative,integral"
SYMMETRY_N = 256


@dataclass
class Job:
    """One operation: a ``ktr run`` config or a ``ktr find-symmetry`` file."""

    name: str
    argv: list[str]
    kind: str                      # model kind
    n: int
    params: dict[str, float]
    csv: str | None = None         # output table of a run job
    oracle: float | None = None    # ground energy of a run job
    bound: float | None = None     # accepted relative error of a run job
    terms: list[tuple[float, str]] = field(default_factory=list)  # symmetry job input


# --- independent model definitions ----------------------------------------

def _label(n: int, letters: dict[int, str]) -> str:
    return "".join(letters.get(q, "I") for q in range(n))


def chain_terms(kind: str, n: int, p: dict[str, float]) -> list[tuple[float, str]]:
    """The open chains of the paper as (coefficient, label) pairs."""
    terms = []
    if kind == "tfim":
        terms += [(-1.0, _label(n, {i: "X", i + 1: "X"})) for i in range(n - 1)]
        terms += [(-p["gamma"], _label(n, {i: "Z"})) for i in range(n)]
    elif kind == "z2higgs":
        terms += [(-1.0, _label(n, {link - 1: "Z", link: "Z", link + 1: "Z"}))
                  for link in range(1, n - 1, 2)]
        terms += [(-p["mu"], _label(n, {v: "X"})) for v in range(0, n, 2)]
        terms += [(-p["g"], _label(n, {link: "X"})) for link in range(1, n, 2)]
    elif kind == "cluster":
        terms += [(-p["g_x"], _label(n, {i: "X"})) for i in range(n)]
        terms += [(-p["g_zz"], _label(n, {i: "Z", i + 1: "Z"})) for i in range(n - 1)]
        terms += [(p["g_zxz"], _label(n, {i: "Z", i + 1: "X", i + 2: "Z"})) for i in range(n - 2)]
    elif kind == "heisenberg":
        for j in range(n - 1):
            for key, letter in (("j_x", "X"), ("j_y", "Y"), ("j_z", "Z")):
                terms.append((-0.5 * p[key], _label(n, {j: letter, j + 1: letter})))
    else:
        raise ValueError(f"unknown chain {kind!r}")
    return [(c, s) for c, s in terms if c != 0.0]


def gauss_labels(n: int) -> list[str]:
    """Gauss law of the gauge chain: X on a vertex and its two links (ring closure)."""
    return [_label(n, {(v - 1) % n: "X", v: "X", v + 1: "X"}) for v in range(0, n, 2)]


# --- oracle ---------------------------------------------------------------

_SINGLE = {
    "I": sp.identity(2, dtype=complex, format="csr"),
    "X": sp.csr_matrix(np.array([[0, 1], [1, 0]], dtype=complex)),
    "Y": sp.csr_matrix(np.array([[0, -1j], [1j, 0]], dtype=complex)),
    "Z": sp.csr_matrix(np.array([[1, 0], [0, -1]], dtype=complex)),
}


def _sparse_string(label: str) -> sp.csr_matrix:
    mat = sp.identity(1, dtype=complex, format="csr")
    for letter in label:
        mat = sp.kron(mat, _SINGLE[letter], format="csr")
    return mat


def oracle_ground_energy(terms: list[tuple[float, str]], sector: list[str] = ()) -> float:
    """Lowest eigenvalue by scipy, restricted to the joint +1 space of ``sector``.

    Sector states are kept by adding a penalty above the spectrum to the
    complement of the sector projector, which commutes with H.
    """
    dim = 2 ** len(terms[0][1])
    h = sum(c * _sparse_string(s) for c, s in terms)
    if sector:
        eye = sp.identity(dim, dtype=complex, format="csr")
        proj = eye
        for label in sector:
            proj = proj @ (0.5 * (eye + _sparse_string(label)))
        penalty = 2.0 * sum(abs(c) for c, _ in terms) + 1.0
        h = proj @ h @ proj + penalty * (eye - proj)
    dense = h.toarray()
    return float(sla.eigh(dense, eigvals_only=True, subset_by_index=[0, 0])[0])


def _xz_bits(labels: list[str]) -> tuple[np.ndarray, np.ndarray]:
    arr = np.array([np.frombuffer(s.encode(), dtype=np.uint8) for s in labels])
    x = (arr == ord("X")) | (arr == ord("Y"))
    z = (arr == ord("Z")) | (arr == ord("Y"))
    return x.astype(np.int64), z.astype(np.int64)


def anticommuting(labels: list[str], terms: list[tuple[float, str]]) -> np.ndarray:
    """GF(2) check, per label, that it anticommutes with every term."""
    tx, tz = _xz_bits(labels)
    fx, fz = _xz_bits([s for _, s in terms])
    return np.all((fx @ tz.T + fz @ tx.T) % 2 == 1, axis=0)


# --- input generation -----------------------------------------------------

def _draw(rng: random.Random, ranges: dict[str, tuple[float, float]]) -> dict[str, float]:
    return {key: rng.uniform(lo, hi) for key, (lo, hi) in ranges.items()}


def _config_text(kind: str, n: int, params: dict[str, float], extra: dict[str, str]) -> str:
    lines = [f"model.kind = {kind}", f"model.n = {n}"]
    lines += [f"model.{k} = {v!r}" for k, v in params.items()]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    return "\n".join(lines) + "\n"


def _run_job(work: Path, name: str, kind: str, n: int, params: dict[str, float],
             extra: dict[str, str], bound: float) -> Job:
    cfg = work / f"{name}.cfg"
    csv = work / f"{name}.csv"
    cfg.write_text(_config_text(kind, n, params, {**extra, "output": str(csv)}))
    return Job(name=name, argv=["run", str(cfg)], kind=kind, n=n, params=params, csv=str(csv),
               bound=bound)


def _symmetry_job(work: Path, kind: str, params: dict[str, float]) -> Job:
    name = f"sym-{kind}-{SYMMETRY_N}"
    terms = chain_terms(kind, SYMMETRY_N, params)
    path = work / f"{name}.txt"
    path.write_text("".join(f"{c!r} {s}\n" for c, s in terms))
    return Job(name=name, argv=["find-symmetry", str(path)], kind=kind, n=SYMMETRY_N,
               params=params, terms=terms)


def generate(workload: str, seed: int, work: Path) -> list[Job]:
    """Write the workload's inputs for ``seed`` into ``work``; jobs in run order."""
    rng = random.Random(seed)
    ranges = COUPLING_RANGES[workload]
    if workload == "gauge-exact":
        jobs = [_run_job(work, "gauge-exact", "z2higgs", 10, _draw(rng, ranges), {
            "method": "kqd,ktr,implicit,local:8,derivative", "init": "project:00000",
            "grid.m": "32", "evolution": "exact"}, ACCURACY_BOUND["gauge-exact"])]
    elif workload == "trotter-sweep":
        jobs = [_run_job(work, "tfim-trotter-10", "tfim", 10, _draw(rng, ranges["trotter"]), {
            "method": "ktr", "init": "project:0", "grid.m": "32",
            "evolution": "trotter2:100", "epsilon": "1e-6"}, ACCURACY_BOUND["trotter"])]
        sweep = ACCURACY_BOUND["sweep"]
        for kind in ("tfim", "z2higgs", "cluster"):
            for n in (4, 6, 8):
                jobs.append(_run_job(work, f"{kind}-{n}", kind, n, _draw(rng, ranges[kind]), {
                    "method": SWEEP_ROUTES, "init": "project:00", "grid.m": "16"}, sweep))
        for n in range(4, 9):
            jobs.append(_run_job(work, f"heisenberg-{n}", "heisenberg", n,
                                 _draw(rng, ranges["heisenberg"]),
                                 {"method": "kqd", "init": "plus", "grid.m": "16"}, sweep))
        for kind in ("tfim", "z2higgs", "cluster", "heisenberg"):
            jobs.append(_symmetry_job(work, kind, _draw(rng, ranges[kind])))
        rng.shuffle(jobs)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for job in jobs:
        if job.csv is not None:
            terms = chain_terms(job.kind, job.n, job.params)
            sector = gauss_labels(job.n) if job.kind == "z2higgs" else ()
            job.oracle = oracle_ground_energy(terms, sector)
    return jobs


def save_manifest(jobs: list[Job], path: Path) -> None:
    path.write_text(json.dumps([asdict(job) for job in jobs]))


# --- output checks --------------------------------------------------------

def check_run(job: Job, rc: int, csv_text: str | None) -> tuple[list[str], float]:
    """Failures of one ``ktr run`` and its worst final-prefix relative error."""
    if rc != 0:
        return [f"{job.name}: exit code {rc}"], 0.0
    if not csv_text:
        return [f"{job.name}: no output table"], 0.0
    rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
    final_m = max(int(r[1]) for r in rows)
    problems = []
    worst = 0.0
    for method, m, _dt, estimate, reference, *_ in rows:
        if int(m) != final_m:
            continue
        err = abs(float(estimate) - job.oracle) / abs(job.oracle)
        worst = max(worst, err)
        if not err <= job.bound:
            problems.append(f"{job.name}/{method}: rel err {err:.3e} above {job.bound:g}")
        if not abs(float(reference) - job.oracle) <= REFERENCE_TOL * abs(job.oracle):
            problems.append(f"{job.name}/{method}: reference {reference} != oracle {job.oracle!r}")
    return problems, worst


def check_symmetry(job: Job, rc: int, stdout: str) -> list[str]:
    """Failures of one ``ktr find-symmetry``: every string must anticommute
    with every term; the generic Heisenberg chain has no solution."""
    if rc != 0:
        return [f"{job.name}: exit code {rc}"]
    lines = [ln.strip() for ln in stdout.splitlines() if ln.strip()]
    if job.kind == "heisenberg":
        return [] if lines == ["INFEASIBLE"] else [f"{job.name}: expected INFEASIBLE"]
    if not lines or len(set(lines)) != len(lines):
        return [f"{job.name}: expected distinct solutions, got {len(lines)} line(s)"]
    if any(len(ln) != job.n or set(ln) - set("IXYZ") for ln in lines):
        return [f"{job.name}: output is not a list of {job.n}-qubit Pauli labels"]
    bad = int(np.count_nonzero(~anticommuting(lines, job.terms)))
    return [f"{job.name}: {bad} string(s) fail the anticommutation check"] if bad else []
