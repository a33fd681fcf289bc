"""What a fresh interpreter must not load.

networkx stays off the run path.  It costs ~0.1 s and ~24 MiB per process, paid again in every pool child and
shard worker, so only the generators that wrap it (``random_regular``,
``waxman``) and ``Topology.to_networkx`` may import it, and only when called.
A fresh interpreter runs one scenario of each execution mode and must end
with the library unloaded.

``import repro`` stays off the network stack.  Every benchmark child, pool
worker and shard worker pays that import, and one ``xml.sax.saxutils`` import
(for a three-character escape) used to add ``urllib.request``, ``http.client``,
``email`` and ``ssl`` to it: 26-39 ms of about 235 ms.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro

_RUNS = """
import sys

import repro, repro.dist
from repro.dist import ShardScenarioSpec, run_sharded
from repro.experiments import ChurnConfig, ExperimentConfig, run_churn_scenario, run_scenario
from repro.net.dynamics import SingleLinkFailureDriver
from repro.topology.generators import scale_free

quick = ExperimentConfig.quick()
run_scenario("dbf", 4, 7, quick)

churn = ChurnConfig(model="waypoint", n_nodes=12, radio_range=400.0)
result = run_churn_scenario(
    "olsr", 7, quick.with_(validate=True, post_fail_window=10.0, churn=churn)
)
assert result.violations == (), result.violations

topo = scale_free(200, m=2, seed=3)
sender, receiver = 199, 198
path = topo.shortest_path(sender, receiver)
failed = (min(path[1], path[2]), max(path[1], path[2]))
config = quick.with_(runs=1, post_fail_window=5.0, shards=2, partition="mincut")
sharded = run_sharded(
    ShardScenarioSpec(
        protocol="bgp3", degree=2, seed=3, config=config, topology=topo,
        sender=sender, receiver=receiver, pre_path=tuple(path),
        expected_final=tuple(topo.shortest_path(sender, receiver, exclude_link=failed)),
        events=tuple(SingleLinkFailureDriver(failed, config.fail_time).generate(config.end_time)),
        warm_dests=(sender, receiver),
    ),
    exchange="local",
)
assert sharded.delivered > 0

assert "networkx" not in sys.modules, "networkx was imported on a run path"
"""


_IMPORTS = """
import sys

import repro, repro.experiments, repro.dist, repro.obs

heavy = ("xml.sax", "urllib.request", "http.client", "email", "ssl")
loaded = [name for name in heavy if name in sys.modules]
assert not loaded, f"import repro loaded {loaded}"
"""


def _fresh_interpreter(code: str) -> None:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr


def test_no_run_path_imports_networkx():
    _fresh_interpreter(_RUNS)


def test_importing_the_package_loads_no_network_stack():
    _fresh_interpreter(_IMPORTS)


# --------------------------------------------------------------------------
# One artifact codec (pins the design, as PR 13 pinned four ``schedule*``).
# --------------------------------------------------------------------------

_SRC = os.path.dirname(os.path.abspath(repro.__file__))


def _sources() -> dict[str, str]:
    """``{path relative to src/repro: text}`` of every module in the package."""
    out = {}
    for folder, _, files in os.walk(_SRC):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as f:
                    out[os.path.relpath(path, _SRC)] = f.read()
    return out


def test_json_is_parsed_and_written_only_by_the_codec():
    """Five formats, one module that touches ``json``: a sixth hand-rolled
    reader or writer fails here.  The one exception hashes a config, it
    reads and writes no file."""
    needles = ("json.load(", "json.loads(", "json.dump(", "json.dumps(", "JSONDecodeError")
    allowed = {
        "records.py": needles,
        os.path.join("experiments", "config.py"): ("json.dumps(",),
    }
    offenders = [
        (path, needle)
        for path, text in _sources().items()
        for needle in needles
        if needle in text and needle not in allowed.get(path, ())
    ]
    assert offenders == [], offenders


def test_int_and_number_predicates_are_defined_once():
    """``true`` passed as an int wherever a validator rolled its own check."""
    definitions = [
        (path, line.strip())
        for path, text in _sources().items()
        for line in text.splitlines()
        if line.lstrip().startswith(("def is_int", "def _is_int", "def is_num", "def _is_num"))
    ]
    assert [path for path, _ in definitions] == ["records.py", "records.py"], definitions


def test_the_codec_imports_only_json_and_os():
    """Every pool and shard worker imports it through ``import repro``."""
    import ast

    tree = ast.parse(_sources()["records.py"])
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"__future__", "json", "os", "typing"}, imported
