"""In-memory span tracer for the ktr pipeline, installed from outside.

The tracer replaces public names in the module namespaces where ``ktr.cli``,
``ktr.krylov``, ``ktr.states`` and ``ktr.gevp`` look them up, records one
span (name, start, end, parent, route) per call plus work counts computed
from the call's inputs, and puts every original back on :meth:`restore`.
No file of the program is changed.

A span's self time is its duration minus the durations of its direct
children; each span name maps to exactly one per-layer metric, so the
per-layer self times add up to the traced wall time of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

ROUTES = ("kqd", "ktr", "implicit", "local", "derivative", "integral")

#: span name -> per-layer self-time metric (default: the span name + "_s")
_SELF_METRIC = {
    "cli.main": "cli.run_self_s",
    "cli.run": "cli.run_self_s",
    "cli.build_pencil": "cli.run_self_s",
    "krylov.pencil": "krylov.pencil_self_s",
}

SELF_METRICS = (
    "cli.parse_s", "cli.report_s", "cli.run_self_s", "models.build_s",
    "paulis.dense_matrix_s", "paulis.parse_s", "paulis.iht_build_s",
    "symmetry.solve_s", "symmetry.verify_s",
    "states.factorization_s", "states.evolve_s", "states.observable_s",
    "initial.project_s", "krylov.pencil_self_s", "krylov.reconstruct_s",
    "gevp.reference_s", "gevp.solve_s",
)

COUNT_METRICS = (
    "paulis.dense_matrix_calls", "states.evolve_calls", "states.trotter_steps",
    "states.pauli_applications", "states.observable_calls", "initial.project_calls",
    "gevp.solve_calls",
)


# --- count hooks: called with the result and the call's own arguments ------

def _on_evolve(tracer, result, plan, t, s):
    counts = tracer.counts
    counts["states.evolve_calls"] += 1
    if t == 0.0:
        return
    if plan.mode == "trotter2":
        steps = max(1, math.ceil(abs(t) * plan.steps_per_unit))
        counts["states.trotter_steps"] += steps
        counts["states.pauli_applications"] += 2 * steps * len(plan.h.terms)
    else:
        # two dense complex128 matrix-vector products per exact evolution
        counts["states.evolve_bytes_computed"] += 2 * 16 * s.dim ** 2


def _on_observable(tracer, result, *args):
    tracer.counts["states.observable_calls"] += 1
    if hasattr(args[1], "terms"):  # expectation(s, o) or matrix_element(a, o, b)
        tracer.counts["states.pauli_applications"] += len(args[1].terms)


def _on_project(tracer, result, state, spec):
    tracer.counts["initial.project_calls"] += 1
    tracer.counts["states.pauli_applications"] += len(spec.t_blocks)


def _on_dense(tracer, result, op, max_qubits=None):
    tracer.counts["paulis.dense_matrix_calls"] += 1


def _on_solve(tracer, result, pencil, epsilon):
    tracer.counts["gevp.solve_calls"] += 1
    kept = [b for b in result.b_eigenvalues
            if b > 0.0 and b >= result.threshold * result.b_eigenvalues[-1]]
    tracer.solves.append((tracer.enclosing("cli.run"), pencil.grid.m, result.kept_dim,
                          float(max(kept) / min(kept))))


def _route(method, *args):
    return method.partition(":")[0]


#: (module, owner attribute path, span name, count hook, route label)
TARGETS = (
    ("ktr.cli", "load_config", "cli.parse", None, None),
    ("ktr.cli", "parse_config", "cli.parse", None, None),
    ("ktr.cli", "run", "cli.run", None, None),
    ("ktr.cli", "_build_pencil", "cli.build_pencil", None, _route),
    ("ktr.cli", "emit", "cli.report", None, None),
    ("ktr.cli", "report_table", "cli.report", None, None),
    ("ktr.cli", "build", "models.build", None, None),
    ("ktr.cli", "known_time_reversal", "models.build", None, None),
    ("ktr.cli", "gauss_generators", "models.build", None, None),
    ("ktr.cli", "pauli_sum_from_text", "paulis.parse", None, None),
    ("ktr.cli", "solve_time_reversal", "symmetry.solve", None, None),
    ("ktr.cli", "project", "initial.project", _on_project, None),
    ("ktr.cli", "exact_reference", "gevp.reference", None, None),
    ("ktr.cli", "sector_ground_energy", "gevp.reference", None, None),
    ("ktr.cli", "solve", "gevp.solve", _on_solve, None),
    ("ktr.cli", "build_kqd", "krylov.pencil", None, None),
    ("ktr.cli", "build_ktr", "krylov.pencil", None, None),
    ("ktr.cli", "implicit_hadamard_rows", "krylov.pencil", None, None),
    ("ktr.cli", "extended_local_pencil", "krylov.pencil", None, None),
    ("ktr.cli", "sample_expectation_curves", "krylov.pencil", None, None),
    ("ktr.cli", "reconstruct_a_from_b", "krylov.reconstruct", None, None),
    ("ktr.cli", "reconstruct_b_from_a", "krylov.reconstruct", None, None),
    ("ktr.krylov", "evolve", "states.evolve", _on_evolve, None),
    ("ktr.krylov", "expectation", "states.observable", _on_observable, None),
    ("ktr.krylov", "matrix_element", "states.observable", _on_observable, None),
    ("ktr.krylov", "inner", "states.observable", _on_observable, None),
    ("ktr.krylov", "project", "initial.project", _on_project, None),
    ("ktr.krylov", "project_array", "initial.project", _on_project, None),
    ("ktr.krylov", "build_iht_observable", "paulis.iht_build", None, None),
    ("ktr.symmetry", "verify_time_reversal", "symmetry.verify", None, None),
    ("ktr.states", "EvolutionPlan.factorization", "states.factorization", None, None),
    ("ktr.states", "dense_matrix", "paulis.dense_matrix", _on_dense, None),
    ("ktr.gevp", "dense_matrix", "paulis.dense_matrix", _on_dense, None),
)


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Spans and counts of one traced pass; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index, route]
        self.counts: Counter = Counter()
        self.solves: list[tuple] = []   # (cli.run span, m, kept_dim, kept-Gram condition)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str, route: str | None = None):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, route])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def enclosing(self, name: str) -> int:
        """Index of the innermost open span called ``name`` (-1 if none)."""
        idx = self._stack[-1] if self._stack else -1
        while idx >= 0 and self.spans[idx][0] != name:
            idx = self.spans[idx][3]
        return idx

    def _wrap(self, owner, attr: str, name: str, hook, label) -> None:
        original = vars(owner)[attr]
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          label(*args, **kwargs) if label else None])
            stack.append(idx)
            spans[idx][1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, result, *args, **kwargs)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        for module, path, name, hook, label in TARGETS:
            owner, attr = _owner(module, path)
            self._wrap(owner, attr, name, hook, label)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped name holds its original object again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self._patched)

    def metrics(self) -> dict[str, float]:
        """Per-layer self times, per-route pencil times, counts and health."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {metric: 0.0 for metric in SELF_METRICS}
        out.update({f"krylov.pencil_s.{route}": 0.0 for route in ROUTES})
        for idx, (name, start, end, _, route) in enumerate(self.spans):
            out[_SELF_METRIC.get(name, name + "_s")] += (end - start) - child[idx]
            if route is not None:
                out[f"krylov.pencil_s.{route}"] += end - start
        out.update({metric: self.counts[metric] for metric in COUNT_METRICS})
        out["states.evolve_gb_computed"] = self.counts["states.evolve_bytes_computed"] / 1e9
        final_m: dict[int, int] = {}
        for run, m, _, _ in self.solves:
            final_m[run] = max(final_m.get(run, 0), m)
        final = [(kept, cond) for run, m, kept, cond in self.solves if m == final_m[run]]
        out["gevp.kept_dim_final"] = min(kept for kept, _ in final) if final else 0
        out["gevp.b_cond_final"] = max(cond for _, cond in final) if final else 0.0
        return out

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": dict(self.counts),
                                    "solves": self.solves}))
