"""Run process of the ktr benchmark.

It drives ``ktr.cli.main`` over a workload's jobs, in one process, and
writes what it saw to a JSON result file.  It imports neither scipy nor the
oracle, so its CPU time and peak memory are those of the program.

    python3 child.py measure MANIFEST RESULT SECONDS  # untraced passes for SECONDS
    python3 child.py trace MANIFEST RESULT            # one untraced, then one traced pass
    python3 child.py traced MANIFEST RESULT           # one traced pass
    python3 child.py setup MANIFEST                   # set-up probe

``ktr`` must be importable from the ``src`` directory of the checkout this
file lives in; anything else is refused.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_ktr():
    import ktr

    if Path(ktr.__file__).resolve().parent != ROOT / "src" / "ktr":
        raise SystemExit(f"ktr imported from {ktr.__file__}, not from {ROOT / 'src'}")
    return ktr


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                func = getattr(handle, symbol)
                func.argtypes = []
                func.restype = ctypes.c_int
                return int(func())
    return None


def run_op(main, job: dict) -> dict:
    """One ``ktr`` invocation; its exit code, output and time."""
    csv = Path(job["csv"]) if job["csv"] else None
    if csv is not None:
        csv.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    cpu0 = _cpu_s()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(job["argv"])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed operation, not a failed benchmark
        rc = -1
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu0
    return {"name": job["name"], "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "csv": csv.read_text() if csv is not None and csv.exists() else None,
            "wall_s": wall, "cpu_s": cpu}


def run_pass(main, jobs: list[dict]) -> dict:
    ops = [run_op(main, job) for job in jobs]
    return {"wall_s": sum(op["wall_s"] for op in ops),
            "cpu_s": sum(op["cpu_s"] for op in ops), "ops": ops}


def traced_pass(jobs: list[dict], spans_path: Path) -> dict:
    import ktr.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()

    def main(argv):
        with tracer.span("cli.main"):
            return ktr.cli.main(argv)

    try:
        result = run_pass(main, jobs)
    finally:
        tracer.restore()
    result["layers"] = tracer.metrics()
    result["restored"] = tracer.restored()
    tracer.write(spans_path)
    return result


def setup(jobs: list[dict]) -> None:
    """Everything before the pencils: parse, build, prepare the plan, reference."""
    _import_ktr()
    from ktr.cli import parse_config
    from ktr.gevp import exact_reference, sector_ground_energy
    from ktr.models import build, gauss_generators
    from ktr.states import EvolutionPlan

    for job in jobs:
        if job["csv"] is None:
            continue
        config = parse_config(Path(job["argv"][1]).read_text())
        h = build(config.model)
        if config.evolution == "exact":
            EvolutionPlan.exact(h).prepare()
        else:
            EvolutionPlan.trotter2(h, config.steps_per_unit).prepare()
        if config.model.kind == "z2higgs":
            sector_ground_energy(h, gauss_generators(config.model))
        else:
            exact_reference(h)


def main(argv: list[str]) -> int:
    mode, manifest = argv[0], Path(argv[1])
    jobs = json.loads(manifest.read_text())
    if mode == "setup":
        setup(jobs)
        return 0
    result_path = Path(argv[2])
    _import_ktr()
    import ktr.cli

    if mode == "measure":
        seconds = float(argv[3])
        passes = []
        start = time.perf_counter()
        # stop before a pass that would overrun the budget, so the number of
        # passes does not flip between runs whose passes take nearly seconds/k
        while not passes or time.perf_counter() - start + passes[-1]["wall_s"] <= seconds:
            passes.append(run_pass(ktr.cli.main, jobs))
        result = {"passes": passes}
    elif mode == "trace":
        plain = run_pass(ktr.cli.main, jobs)
        result = {"passes": [plain], "traced": traced_pass(jobs, result_path.with_suffix(".spans.json"))}
    elif mode == "traced":
        result = {"passes": [], "traced": traced_pass(jobs, result_path.with_suffix(".spans.json"))}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["blas_threads"] = blas_threads()
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
