"""The benchmark's tracer wraps realops functions by name.  Its own tests
sit outside the tier-1 suite, so this one reads its table of names, without
importing it, and checks that each still resolves."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def span_targets():
    """The literal value of ``SPAN_TARGETS`` in perfbench/tracing.py."""
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPAN_TARGETS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no SPAN_TARGETS")


@pytest.mark.parametrize("module, attr, span", span_targets())
def test_traced_function_exists(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr)), span


def test_aggregated_singular_triple_exists():
    from realops import optim
    assert callable(optim.top_singular_triple)
