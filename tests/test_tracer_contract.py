"""The benchmark tracer wraps names in the program's modules; each must
exist, and its count hook must run on what the program passes it."""

import importlib.util
from pathlib import Path

import pytest

import ktr.cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "ktrbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("ktrbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    missing = []
    for module, path, *_ in tracer.TARGETS:
        owner, attr = tracer._owner(module, path)
        # Tracer.install reads the name from the owner's own namespace
        if attr not in vars(owner) or not callable(vars(owner)[attr]):
            missing.append(f"{module}:{path}")
    assert not missing, f"tracer targets missing from the program: {missing}"


RUN_CONFIG = """
{model}
method = {methods}
init = {init}
grid.m = 4
evolution = {evolution}
output = {output}
"""

TFIM = "model.kind = tfim\nmodel.n = 4\nmodel.gamma = 0.5"
# the gauge model's reference is the Gauss-sector ground energy
Z2HIGGS = "model.kind = z2higgs\nmodel.n = 4\nmodel.mu = 1.0\nmodel.g = 1.0"


@pytest.mark.parametrize("methods, evolution, model, init", [
    pytest.param("kqd,ktr,implicit,local:2,derivative,integral", "exact", TFIM, "project:0",
                 id="kqd,ktr,implicit,local:2,derivative,integral-exact"),
    pytest.param("ktr", "trotter2:20", TFIM, "project:0", id="ktr-trotter2:20"),
    pytest.param("kqd,ktr", "exact", Z2HIGGS, "project:00", id="z2higgs-kqd,ktr-exact"),
])
def test_tracer_hooks_run_on_a_traced_pass(tmp_path, methods, evolution, model, init):
    """Every count hook reads the attributes it needs from live program objects."""
    tracer = _load_tracer().Tracer()
    tables = []
    for traced in (False, True):
        csv = tmp_path / f"run{int(traced)}.csv"
        cfg = csv.with_suffix(".cfg")
        cfg.write_text(RUN_CONFIG.format(model=model, init=init, methods=methods,
                                         evolution=evolution, output=csv))
        if traced:
            tracer.install()
        try:
            assert ktr.cli.main(["run", str(cfg)]) == 0
        finally:
            tracer.restore()
        # every column but the trailing wall_ms
        tables.append([line.rsplit(",", 1)[0] for line in csv.read_text().splitlines()])
    assert tracer.restored()
    assert tables[1] == tables[0] and len(tables[0]) > 1
    layers = tracer.metrics()
    counted = ["initial.project_calls", "states.evolve_calls", "states.observable_calls",
               "gevp.solve_calls"]
    if evolution.startswith("trotter2"):
        counted.append("states.trotter_steps")
    assert all(layers[name] > 0 for name in counted), {name: layers[name] for name in counted}
