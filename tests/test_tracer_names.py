"""The benchmark's tracer wraps realops functions by name.  Its own tests
sit outside the tier-1 suite, so this one reads its tables of names, without
importing them, and checks that each still resolves."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def literal(filename, name):
    """The literal value assigned to ``name`` in perfbench/<filename>."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{filename} defines no {name}")


@pytest.mark.parametrize("module, attr, span",
                         literal("tracing.py", "SPAN_TARGETS"))
def test_traced_function_exists(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr)), span


def test_aggregated_singular_triple_exists():
    from realops import optim
    assert callable(optim.top_singular_triple)


def test_traced_suites_exist():
    # the tracer wraps these entries of SUITES, which ``verify`` runs
    from realops import suites
    assert set(literal("workloads.py", "VERIFY_SUITES")) <= set(suites.SUITES)
