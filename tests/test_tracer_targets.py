"""The benchmark's tracer wraps package functions by name. Renaming or
deleting one of them would pass every other test and only fail a traced
benchmark run, so its target list is checked here, read from the source
without importing the benchmark."""
import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS list in perfbench/tracer.py")


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    for name, module, path in targets:
        owner = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(owner, part), f"{name}: {module}.{path} does not resolve"
            owner = getattr(owner, part)
        assert callable(owner), f"{name}: {module}.{path} is not callable"
