"""Batch experiment runner.

Configs are flat ``key = value`` text files ('#' starts a comment, nested
structure is flattened with dots).  A run builds the requested model,
its evolution plan and start states, then the exact reference (the gauge
model's is its Gauss sector), then the overlap pencil of each method, and
records the ground-energy error of every even matrix prefix against it.

Subcommands:

* ``run <config>``            -- execute a config, emit a CSV table plus a
  provenance sidecar;
* ``find-symmetry <file>``    -- print anticommuting involutions of a
  Pauli-sum text file (or INFEASIBLE);
* ``spectrum <file>``         -- dump the exact spectrum of such a file.

Exit codes: 0 success, 2 config error, 3 numerical failure.

Every command runs its BLAS and LAPACK work on one thread
(:func:`_one_blas_thread`): at the orders ``ktr`` factorizes, a second
OpenBLAS thread saves almost no wall time, and once woken it spins for
about 0.13 s of CPU after the call.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import math
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, KtrError
from .gevp import DEFAULT_EPSILON, exact_reference, sector_ground_energy, solve
from .initial import ProjectorSpec, build_block_product, enumerate_local_projectors, project
from .krylov import (SAMPLES_PER_STEP, TimeGrid, ToeplitzPencil, _fine_grid, build_kqd,
                     build_ktr, default_dt, extended_local_pencil,
                     implicit_hadamard_rows, reconstruct_a_from_b,
                     reconstruct_b_from_a, sample_expectation_curves,
                     stencil_indices)
from .models import MODEL_KINDS, PARAM_KEYS, ModelSpec, build, gauss_generators, known_time_reversal
from .paulis import pauli_sum_from_text
from .states import EvolutionPlan, StateVector, check_steps_per_unit, plus_state
from .symmetry import Infeasible, solve_time_reversal

_METHODS = ("kqd", "ktr", "implicit", "local", "derivative", "integral")
_STABILIZED_METHODS = ("ktr", "derivative", "integral")

#: the least Gram threshold ``run`` accepts: below it rounding noise in the
#: overlap pencils survives the threshold, and estimates fall far below the
#: ground energy (tfim n=4 at epsilon = 0: 26.7 |E0| below it)
EPSILON_FLOOR = 1e-12

_BASE_KEYS = {"model.kind", "model.n", "method", "init", "grid.dt", "grid.m",
              "samples_per_step", "evolution", "epsilon", "output"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description."""

    model: ModelSpec
    methods: tuple[str, ...]
    init: str
    dt: float | None          # None means 'auto'
    m: int
    evolution: str
    steps_per_unit: int | None
    epsilon: float
    samples_per_step: int
    output: str | None
    raw: tuple[tuple[str, str], ...] = field(default=())


@dataclass(frozen=True)
class RunRecord:
    method: str
    m_used: int
    dt: float
    estimate: float
    reference: float
    rel_error: float
    kept_dim: int
    wall_ms: float


@dataclass(frozen=True)
class RunReport:
    records: tuple[RunRecord, ...]
    provenance: tuple[tuple[str, str], ...]


def _parse_kv_lines(text: str) -> list[tuple[str, str]]:
    pairs = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        pairs.append((key, value))
    return pairs


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_float(key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return number


def _validate_method(value: str) -> str:
    name, _, arg = value.partition(":")
    if name not in _METHODS:
        raise ConfigError(f"unknown method {value!r}")
    if name == "local":
        if not arg or _parse_int("method", arg) < 1:
            raise ConfigError("method local:<subset> needs a positive subset size")
    elif arg:
        raise ConfigError(f"method {name!r} takes no argument")
    return value


def _validate_init(value: str) -> str:
    name, _, arg = value.partition(":")
    if name == "plus":
        if arg:
            raise ConfigError("init plus takes no argument")
    elif name == "w0-blocks":
        if not arg or _parse_int("init", arg) < 1:
            raise ConfigError("init w0-blocks:<s> needs a positive block count")
    elif name == "project":
        if not arg or any(ch not in "01" for ch in arg):
            raise ConfigError("init project:<alpha-bits> needs a 0/1 pattern")
    else:
        raise ConfigError(f"unknown init {value!r}")
    return value


def _check_routes(model: ModelSpec, methods: tuple[str, ...], init: str) -> None:
    """Reject an init or a route that ``run`` could not build for ``model``."""
    t = known_time_reversal(model)
    has_t = t is not None
    name, _, arg = init.partition(":")
    s = 1
    if name != "plus":
        s = int(arg) if name == "w0-blocks" else len(arg)
        if model.n % s != 0:
            raise ConfigError(f"cannot split {model.n} qubits into {s} blocks")
    if name == "w0-blocks" and (model.n // s) % 4 != 0:
        raise ConfigError("block size must be a positive multiple of 4")
    if name == "project" and not has_t:
        raise ConfigError("init project requires a model with a known involution")
    for method in methods:
        route, _, subset = method.partition(":")
        if route != "kqd" and not has_t:
            raise ConfigError(f"method {route!r} requires a model with a known involution")
        if route in _STABILIZED_METHODS and name == "plus":
            raise ConfigError(
                f"method {route!r} needs a stabilized init (w0-blocks or project), not {init!r}")
        # the w0 block state is stabilized only by the alternating (Y X) involution
        if (route in _STABILIZED_METHODS and name == "w0-blocks"
                and t.label() != "YX" * (model.n // 2)):
            raise ConfigError(
                f"method {route!r} needs an init stabilized by {t.label()}; "
                f"{init!r} is stabilized only by the alternating (Y X) involution")
        if route == "local" and int(subset) > 2 ** s:
            raise ConfigError(f"subset {int(subset)} exceeds the {2 ** s} available projectors")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a flat key = value config."""
    pairs = _parse_kv_lines(text)
    table = dict(pairs)

    kind = table.get("model.kind")
    if kind is None:
        raise ConfigError("missing required key model.kind")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model.kind {kind!r}")
    if "model.n" not in table:
        raise ConfigError("missing required key model.n")
    n = _parse_int("model.n", table["model.n"])

    param_keys = {f"model.{p}": p for p in PARAM_KEYS[kind]}
    params = {}
    for cfg_key, param in param_keys.items():
        if cfg_key not in table:
            raise ConfigError(f"missing required key {cfg_key}")
        params[param] = _parse_float(cfg_key, table[cfg_key])

    allowed = _BASE_KEYS | set(param_keys)
    unknown = set(table) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(sorted(unknown))}")

    try:
        model = ModelSpec(kind, n, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    if "method" not in table:
        raise ConfigError("missing required key method")
    methods = tuple(_validate_method(v.strip()) for v in table["method"].split(","))

    init = _validate_init(table.get("init", "plus"))
    _check_routes(model, methods, init)

    if "grid.m" not in table:
        raise ConfigError("missing required key grid.m")
    m = _parse_int("grid.m", table["grid.m"])
    dt_raw = table.get("grid.dt", "auto")
    dt = None if dt_raw == "auto" else _parse_float("grid.dt", dt_raw)

    evolution_raw = table.get("evolution", "exact")
    ev_name, _, ev_arg = evolution_raw.partition(":")
    if ev_name == "exact":
        if ev_arg:
            raise ConfigError("evolution exact takes no argument")
        steps_per_unit = None
    elif ev_name == "trotter2":
        if not ev_arg:
            raise ConfigError("evolution trotter2:<steps-per-unit> needs an argument")
        steps_per_unit = _parse_int("evolution", ev_arg)
    else:
        raise ConfigError(f"unknown evolution {evolution_raw!r}")

    epsilon = _parse_float("epsilon", table.get("epsilon", repr(DEFAULT_EPSILON)))
    if not EPSILON_FLOOR <= epsilon < 1.0:
        raise ConfigError(f"epsilon must lie in [{EPSILON_FLOOR:g}, 1): below "
                          "the floor, rounding noise survives the Gram threshold")
    samples_per_step = _parse_int("samples_per_step",
                                  table.get("samples_per_step", str(SAMPLES_PER_STEP)))
    try:
        # the refusals of the plan, the grid and the fine grid, before any work
        if steps_per_unit is not None:
            check_steps_per_unit(steps_per_unit)
        _fine_grid(TimeGrid(1.0 if dt is None else dt, m), samples_per_step,
                   five_point="derivative" in methods)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    return ExperimentConfig(
        model=model, methods=methods, init=init, dt=dt, m=m,
        evolution=ev_name, steps_per_unit=steps_per_unit, epsilon=epsilon,
        samples_per_step=samples_per_step,
        output=table.get("output"), raw=tuple(pairs),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def _resolve_init(config: ExperimentConfig, t):
    """Initial states for the pipeline: (phi, v0, n_blocks).

    ``phi`` is the raw (pre-projection) state used by the implicit and
    local methods; ``v0`` is the start state T|v0> = c|v0> of the
    stabilized routes, or None for ``plus``.  ``parse_config`` has already
    checked that the init fits the model.
    """
    n = config.model.n
    name, _, arg = config.init.partition(":")
    if name == "plus":
        return plus_state(n), None, 1
    if name == "w0-blocks":
        s = int(arg)
        state = build_block_product(n // s, s)
        return state, state, s
    # project:<alpha-bits>
    bits = tuple(int(ch) for ch in arg)
    phi = plus_state(n)
    return phi, project(phi, ProjectorSpec.blocks_of(t, bits)), len(bits)


def _build_pencil(method: str, config: ExperimentConfig, phi: StateVector,
                  v0: StateVector | None, n_blocks: int, grid: TimeGrid,
                  plan: EvolutionPlan) -> ToeplitzPencil:
    name, _, arg = method.partition(":")
    if name == "kqd":
        return build_kqd(v0 if v0 is not None else phi, grid, plan)
    if name == "ktr":
        return build_ktr(v0, grid, plan)
    if name == "implicit":
        return implicit_hadamard_rows(phi, grid, plan)
    if name == "local":
        projector_set = enumerate_local_projectors(
            ProjectorSpec.blocks_of(plan.involution(), (0,) * n_blocks).t_blocks)
        return extended_local_pencil(phi, projector_set, grid, plan, int(arg))
    # reconstruction routes: one row direct, the other from fine samples;
    # the derivative reads only its stencil, so only that is sampled
    indices = stencil_indices(grid, config.samples_per_step) if name == "derivative" else None
    a_fine, b_fine = sample_expectation_curves(
        v0, grid, plan, samples_per_step=config.samples_per_step, indices=indices)
    # the curves keep the fine-grid length: every samples_per_step-th sample is a Krylov point
    if name == "derivative":
        row_a = reconstruct_a_from_b(b_fine, grid, config.samples_per_step)
        return ToeplitzPencil(row_a, b_fine[::config.samples_per_step], grid)
    row_b = reconstruct_b_from_a(a_fine, grid, config.samples_per_step)
    return ToeplitzPencil(1j * a_fine[::config.samples_per_step], row_b, grid)


def _prefix_sizes(m: int) -> list[int]:
    sizes = list(range(2, m + 1, 2))
    if sizes[-1] != m:
        sizes.append(m)
    return sizes


def run(config: ExperimentConfig) -> RunReport:
    """Execute the full pipeline described by the config: the plan, the
    start states, the exact reference, then each pencil and its prefix
    solves.  The reference comes before any evolution, so a run whose
    reference is refused (``trotter2`` above :data:`ktr.paulis.DENSE_QUBIT_CAP`)
    evolves nothing; an exact run of a model other than z2higgs reads it
    from ``plan.factorization()``, one fill of every block, which the
    pencils then reuse."""
    h = build(config.model)
    t = known_time_reversal(config.model)
    dt = config.dt if config.dt is not None else default_dt(h)
    grid = TimeGrid(dt, config.m)
    if config.evolution == "exact":
        plan = EvolutionPlan.exact(h, t)
    else:
        plan = EvolutionPlan.trotter2(h, config.steps_per_unit, t)
    phi, v0, n_blocks = _resolve_init(config, t)
    if config.model.kind == "z2higgs":
        reference = sector_ground_energy(h, gauss_generators(config.model))
    elif plan.mode == "exact":
        reference = float(plan.factorization()[0].min())
    else:
        reference = float(exact_reference(h)[0])

    records = []
    for method in config.methods:
        pencil = _build_pencil(method, config, phi, v0, n_blocks, grid, plan)
        for m_used in _prefix_sizes(config.m):
            start = time.perf_counter()
            result = solve(pencil.prefix(m_used), config.epsilon)
            wall_ms = (time.perf_counter() - start) * 1e3
            estimate = result.ground
            denom = abs(reference)
            rel_error = abs(estimate - reference) / denom if denom > 0 else abs(estimate)
            records.append(RunRecord(
                method=method, m_used=m_used, dt=dt, estimate=estimate,
                reference=reference, rel_error=rel_error,
                kept_dim=result.kept_dim, wall_ms=wall_ms))

    provenance = [(f"config.{k}", v) for k, v in config.raw]
    provenance.append(("resolved.dt", repr(dt)))
    provenance.append(("resolved.reference", repr(reference)))
    if plan.mode == "exact":
        # the largest weight of one state in the symmetry blocks dropped as unreached
        provenance.append(("exact.dropped_weight", repr(plan.dropped_weight)))
    provenance.append(("version.ktr", __version__))
    provenance.append(("version.numpy", np.__version__))
    provenance.append(("version.python", sys.version.split()[0]))
    return RunReport(records=tuple(records), provenance=tuple(provenance))


CSV_HEADER = "method,m,dt,estimate,reference,rel_error,kept_dim,wall_ms"


def report_table(report: RunReport) -> str:
    """CSV table, rows grouped by method with m ascending."""
    lines = [CSV_HEADER]
    for rec in report.records:
        lines.append(
            f"{rec.method},{rec.m_used},{rec.dt:.17e},{rec.estimate:.17e},"
            f"{rec.reference:.17e},{rec.rel_error:.17e},{rec.kept_dim},"
            f"{rec.wall_ms:.17e}")
    return "\n".join(lines) + "\n"


def emit(report: RunReport, path: str | Path) -> list[Path]:
    """Write the CSV table and a provenance sidecar next to it."""
    table_path = Path(path)
    table_path.write_text(report_table(report))
    sidecar = table_path.with_suffix(table_path.suffix + ".provenance")
    lines = [f"{key} = {value}" for key, value in report.provenance]
    sidecar.write_text("\n".join(lines) + "\n")
    return [table_path, sidecar]


def _cmd_run(args) -> int:
    if args.init is None:
        config = load_config(args.config)
    else:
        # override before validating: the config's own init may not fit its methods
        pairs = _parse_kv_lines(Path(args.config).read_text())
        raw = [(k, v) if k != "init" else (k, args.init) for k, v in pairs]
        if all(k != "init" for k, _ in raw):
            raw.append(("init", args.init))
        config = parse_config("\n".join(f"{k} = {v}" for k, v in raw))
    report = run(config)
    if config.output is not None:
        for written in emit(report, config.output):
            print(written)
    else:
        sys.stdout.write(report_table(report))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cmd_find_symmetry(args) -> int:
    h = pauli_sum_from_text(Path(args.hamiltonian).read_text())
    # one plain line per library warning, not Python's file:line report
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = solve_time_reversal(h)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if isinstance(outcome, Infeasible):
        print("INFEASIBLE")
        return 0
    for string in outcome.solutions(limit=args.max_solutions):
        print(string.label())
    if outcome.count > args.max_solutions:
        print(f"# {outcome.count - args.max_solutions} more solution(s) not shown",
              file=sys.stderr)
    return 0


def _cmd_spectrum(args) -> int:
    h = pauli_sum_from_text(Path(args.hamiltonian).read_text())
    for value in exact_reference(h):
        print(f"{value:.17e}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The ``ktr`` argument parser, built once per process: parsing leaves it
    unchanged, and each call gets its own namespace of defaults."""
    parser = argparse.ArgumentParser(
        prog="ktr",
        description="Krylov diagonalization experiments on spin chains")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--init", default=None,
                       help="override the config init (plus | w0-blocks:<s> | project:<alpha-bits>)")
    p_run.set_defaults(handler=_cmd_run)

    p_sym = sub.add_parser("find-symmetry",
                           help="list anticommuting involutions of a Hamiltonian file")
    p_sym.add_argument("hamiltonian", help="Pauli-sum text file")
    p_sym.add_argument("--max-solutions", type=_positive_int, default=16)
    p_sym.set_defaults(handler=_cmd_find_symmetry)

    p_spec = sub.add_parser("spectrum", help="dump the exact spectrum of a Hamiltonian file")
    p_spec.add_argument("hamiltonian", help="Pauli-sum text file")
    p_spec.set_defaults(handler=_cmd_spectrum)
    return parser


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """The OpenBLAS vendored with numpy (in ``numpy.libs`` beside the
    package), when it exports ``openblas_set_num_threads_local`` (OpenBLAS
    0.3.27 and later), else None: numpy on another BLAS (MKL, Accelerate),
    on a system OpenBLAS or on an older one.  Looked up on the first
    command, not at import."""
    for lib in sorted(Path(np.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*")):
        handle = ctypes.CDLL(str(lib))
        if hasattr(handle, "openblas_set_num_threads_local"):
            handle.openblas_set_num_threads_local.argtypes = [ctypes.c_int]
            handle.openblas_set_num_threads_local.restype = ctypes.c_int
            return handle
    return None


_BLAS_LOCK = threading.Lock()
# commands inside _one_blas_thread, and the count to restore when the last leaves
_blas_depth = 0
_blas_saved = 0


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with the OpenBLAS of :func:`_openblas` on one thread,
    then restore the count it had.

    The pthreads OpenBLAS that numpy bundles keeps one count for the whole
    process, despite the setter's name, so while any command is inside,
    every thread's BLAS calls run on one thread; commands that overlap in
    several threads share one scope, and the last to leave restores the
    count.  Without that OpenBLAS this does nothing, and BLAS keeps its own
    thread count."""
    global _blas_depth, _blas_saved
    lib = _openblas()
    if lib is None:
        yield
        return
    with _BLAS_LOCK:
        if _blas_depth == 0:
            _blas_saved = lib.openblas_set_num_threads_local(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_depth -= 1
            if _blas_depth == 0:
                lib.openblas_set_num_threads_local(_blas_saved)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        with _one_blas_thread():
            return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (KtrError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
