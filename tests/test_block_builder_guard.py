"""Every block coupling the package constructs comes from one builder,
BlockCoupling.conditioned, and parse_coupling reads the rest from a
document. A constructor that wrote its own within-distributions would pass
every other test while the rule lived in two places, so the call sites of
BlockCoupling(...) are checked here, read from the source."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coalesce"
ALLOWED = {"coupling.py:BlockCoupling.conditioned", "coupling.py:_parse_block"}


def _call_sites(name: str):
    """module:qualified function for each call of `name` or `x.name`."""
    sites = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    sites.append(f"{module}:{'.'.join(scope)}")
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, ())
    return sites


def test_block_couplings_are_built_only_by_the_builder_and_the_parser():
    sites = _call_sites("BlockCoupling")
    assert "coupling.py:_parse_block" in sites
    assert set(sites) <= ALLOWED, sorted(set(sites) - ALLOWED)
