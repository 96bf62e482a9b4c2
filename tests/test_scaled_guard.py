"""P becomes integers in one place, StochasticMatrix.scaled, and the exact
readers of P's numbers read that form. A reader that put P over a common
denominator by its own lcm, or read P's Fraction entries, would pass every
other test while the choice lived in two places, so both are checked here,
read from the source. Validation reads the entries only for their types,
and the other two lcms scale a sampled law's weights and a coupling's
one-step masses, not P."""
import ast

from test_block_builder_guard import PACKAGE, _call_sites

LCM_SITES = {
    "matrix.py:StochasticMatrix.scaled",
    "coupling.py:_sampling_table",
    "coupling.py:resum_mismatches",
}
READERS = {
    "matrix.py:StochasticMatrix.row_supports",
    "matrix.py:is_doubly_stochastic",
    "matrix.py:invariant_distribution",
    "kset.py:single_pair_balance",
    "feasibility.py:SupportTester.__init__",
    "birkhoff.py:birkhoff_decomposition",
    "coupling.py:resum_mismatches",
    "cli.py:_cmd_coupling_check",
    "cli.py:_cmd_sample",
    "feasibility.py:FeasibilityWitness.__post_init__",
    "matrix.py:invariant_scaled",
    "blocks.py:check_lumpability",
    "blocks.py:lumpable_partitions",
    "blocks.py:_PartitionSearch.__init__",
    "blocks.py:_PartitionSearch.partitions",
}


def _functions():
    """module:qualified name -> the ast node of every function."""
    found = {}

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{module}:{'.'.join(scope + (child.name,))}"
                if not isinstance(child, ast.ClassDef):
                    found[name] = child
                visit(child, module, scope + (child.name,))

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, ())
    return found


def test_only_scaled_puts_P_over_a_common_denominator():
    assert set(_call_sites("lcm")) == LCM_SITES


def test_exact_readers_read_the_integer_form():
    functions = _functions()
    assert READERS <= functions.keys(), sorted(READERS - functions.keys())
    reading_entries = {
        name for name in READERS
        if any(isinstance(node, ast.Attribute) and node.attr == "entries"
               for node in ast.walk(functions[name]))
    }
    assert not reading_entries, sorted(reading_entries)
