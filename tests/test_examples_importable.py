"""Smoke checks that every example script is importable and well-formed.

The examples take seconds each (about 40 s for all twelve); CI's
``cli-gates`` job runs every one end to end.  These tests verify the
cheap invariants on every tier-1 run: each script parses, imports only
available modules, defines a ``main`` entry point, and guards it behind
``__main__``.
"""

import ast
import importlib.util
import os
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
SCRIPTS = sorted(f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".py"))


@pytest.mark.parametrize("script", SCRIPTS)
class TestExampleScripts:
    def _source(self, script):
        with open(os.path.join(EXAMPLES_DIR, script)) as fh:
            return fh.read()

    def test_parses_and_has_docstring(self, script):
        tree = ast.parse(self._source(script))
        assert ast.get_docstring(tree), f"{script} needs a module docstring"

    def test_defines_main_with_guard(self, script):
        tree = ast.parse(self._source(script))
        has_main = any(
            isinstance(node, ast.FunctionDef) and node.name == "main"
            for node in tree.body
        )
        assert has_main, f"{script} must define main()"
        guard = any(
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Compare)
            and getattr(node.test.left, "id", "") == "__name__"
            for node in tree.body
        )
        assert guard, f"{script} must guard main() behind __main__"

    def test_imports_resolve(self, script):
        """Importing the module (without running main) must succeed."""
        path = os.path.join(EXAMPLES_DIR, script)
        name = f"example_{script[:-3]}"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        old_argv = sys.argv
        sys.argv = [path]  # scripts reading argv get a clean slate
        try:
            spec.loader.exec_module(module)
        finally:
            sys.argv = old_argv
        assert callable(module.main)


def test_expected_example_set_present():
    names = set(SCRIPTS)
    assert {
        "quickstart.py",
        "fraud_detection_tgn.py",
        "recommendation_jodie_apan.py",
        "custom_operator.py",
        "discrete_time_snapshots.py",
        "dropout_prediction_nodeclass.py",
        "workload_profiling.py",
        "tgl_config_training.py",
    } <= names
