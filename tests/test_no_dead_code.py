"""Every definition in ``src/ktr`` is used by the program or by the benchmark.

A module-level function, class or UPPER_CASE constant, or a non-dunder
method, counts as used when its name appears anywhere in
``src/ktr`` or in ``ktrbench/*.py``: as a name, an attribute, an import
alias, or (in the benchmark, which looks names up by string) as a dotted
part of a string such as ``"EvolutionPlan.factorization"``.  The package
``__init__`` re-exports names and is neither scanned nor counted, so a
definition that only tests reach is flagged.

Every name a ``src/ktr`` module or a test module imports must also be
referenced in that module, except on a line marked ``# noqa: F401``: the
re-exports that the benchmark tracer wraps.  ``from __future__`` imports
bind no name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in (ROOT / "src" / "ktr").glob("*.py") if p.name != "__init__.py")
BENCHMARK = sorted((ROOT / "ktrbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _is_dunder(member.name)):
                    yield f"{node.name}.{member.name}"
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and target.id.isupper():
                yield target.id


def _references(tree: ast.Module, strings: bool) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
            if node.asname:
                names.add(node.asname)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def test_every_definition_is_referenced():
    assert SOURCES and BENCHMARK
    used = set()
    for path in SOURCES + BENCHMARK:
        used |= _references(ast.parse(path.read_text()), strings=path in BENCHMARK)
    unused = [f"{path.name}:{name}" for path in SOURCES
              for name in _definitions(ast.parse(path.read_text()))
              if name.rsplit(".", 1)[-1] not in used]
    assert not unused, f"defined but never referenced: {unused}"


def _unreferenced_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        if "# noqa: F401" in lines[node.end_lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".", 1)[0]
            if bound not in loaded:
                unused.append(f"{node.lineno}:{bound}")
    return unused


def test_every_import_is_referenced():
    assert TESTS
    unused = [f"{path.parent.name}/{path.name}:{name}" for path in SOURCES + TESTS
              for name in _unreferenced_imports(path.read_text())]
    assert not unused, f"imported but never referenced: {unused}"
