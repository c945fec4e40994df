"""The benchmark tracer wraps names in the program's modules; each must exist."""

import importlib.util
from pathlib import Path

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
