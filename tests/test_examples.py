"""The scripts under ``examples/`` still run against the package's API."""

from __future__ import annotations

import os
import subprocess
import sys

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
