"""The scripts under ``examples/`` still run against the package's API."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_narrate_failure_tells_the_routing_story():
    done = run_example("narrate_failure.py", "bgp", "5", "4")
    assert done.returncode == 0, done.stderr
    assert "forwarding path" in done.stdout


EXAMPLES = sorted(
    name for name in os.listdir(os.path.join(ROOT, "examples")) if name.endswith(".py")
)


@pytest.mark.parametrize("name", EXAMPLES)
def test_every_example_imports_names_that_exist(name):
    """Each ``from repro... import name`` of an example resolves, so deleting
    or renaming a public name breaks a test, not a reader's copy."""
    with open(os.path.join(ROOT, "examples", name), encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=name)
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro"
    ]
    assert imports, f"{name} imports nothing from repro"
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module} has no {alias.name}"
