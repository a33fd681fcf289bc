"""A finished run frees itself.

``ScenarioRun.close`` (called by ``to_result``, and in a ``finally`` by the
runners that read their own result off the instruments) and a shard's
``finalize`` end their run: the simulator drops its pending events, the
network closes every node, link and protocol, and the bus drops its
subscribers.  With the cyclic collector off, every network a run built must
then be gone once the run is dropped, and a collection right after finds
(next to) nothing.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.cli import main
from repro.experiments.churn import run_churn_scenario
from repro.experiments.config import ChurnConfig, ExperimentConfig
from repro.experiments.extensions import run_transport_scenario
from repro.experiments.scenario import run_scenario
from repro.net.network import Network
from repro.routing.catalog import PROTOCOLS

TINY = ExperimentConfig.quick().with_(rows=5, cols=5, post_fail_window=20.0)
CHURN = ExperimentConfig.quick().with_(
    post_fail_window=20.0,
    churn=ChurnConfig(model="gauss-markov", n_nodes=16, radio_range=400.0),
)

#: Objects a collection may find after a finished quick run; 0 when measured.
GARBAGE_BOUND = 50


@pytest.fixture
def networks(monkeypatch):
    """Weak references to every Network built while the test runs."""
    made: list[weakref.ref] = []
    init = Network.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(Network, "__init__", recording)
    return made


def collected_after(run) -> int:
    """Call ``run()`` with the cyclic collector off; what a collection right
    after it frees."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def alive_after(run, networks) -> list[bool]:
    gc.collect()
    gc.disable()
    try:
        run()
        return [ref() is not None for ref in networks]
    finally:
        gc.enable()


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_scenario_network_dies_by_reference_count(networks, protocol):
    assert alive_after(lambda: run_scenario(protocol, 4, 7, TINY), networks) == [False]


def test_validated_network_dies_by_reference_count(networks):
    config = TINY.with_(validate=True)
    assert alive_after(lambda: run_scenario("bgp3", 4, 7, config), networks) == [False]


@pytest.mark.parametrize("protocol", ["dual", "aodv"])
def test_churn_network_dies_by_reference_count(networks, protocol):
    assert alive_after(lambda: run_churn_scenario(protocol, 1, CHURN), networks) == [False]


def test_local_shard_networks_die_by_reference_count(networks):
    config = TINY.with_(shards=2)
    assert alive_after(lambda: run_scenario("bgp3", 4, 7, config), networks) == [False, False]


def test_transport_network_dies_by_reference_count(networks):
    assert alive_after(lambda: run_transport_scenario("dbf", 4, 7, TINY), networks) == [False]


def test_traced_network_dies_by_reference_count(networks, capsys):
    argv = ["trace", "--protocol", "dbf", "--degree", "4", "--seed", "7", "--timeline"]
    assert alive_after(lambda: main(argv), networks) == [False]
    assert "forwarding path" in capsys.readouterr().out


@pytest.mark.parametrize("protocol", ["dbf", "bgp3"])
def test_finished_run_leaves_no_cyclic_garbage(protocol):
    config = ExperimentConfig.quick()
    assert collected_after(lambda: run_scenario(protocol, 4, 7, config)) <= GARBAGE_BOUND


def test_transport_run_leaves_no_cyclic_garbage():
    assert collected_after(lambda: run_transport_scenario("dbf", 4, 7, TINY)) <= GARBAGE_BOUND
