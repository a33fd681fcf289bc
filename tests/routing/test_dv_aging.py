"""Route aging in RIP and DBF: one timer per router, armed for the earliest
deadline among its live routes."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import ScenarioRun
from repro.routing.dbf import DbfProtocol
from repro.routing.dv_common import DistanceVectorConfig
from repro.routing.messages import DistanceVectorUpdate
from repro.routing.rip import RipProtocol
from repro.sim.rng import RngStreams
from repro.topology import generators

from ..conftest import build_network

CONFIG = DistanceVectorConfig(route_timeout=40.0, garbage_collect=10.0)


def learn(proto, dest: int, metric: int, from_node: int) -> None:
    proto.handle_message(DistanceVectorUpdate(routes=((dest, metric),)), from_node=from_node)


class TestDbfAging:
    def test_route_ages_again_after_timing_out_onto_an_alternate(self):
        """The hub learns dest 9 from both leaves at t=0 and hears nothing
        more: the best route times out at 40 onto the cached alternate, and
        that alternate must time out too."""
        sim, net, _ = build_network(generators.star(2), "none")
        hub = DbfProtocol(net.node(0), RngStreams(1), CONFIG)
        hub.start()
        learn(hub, 9, 1, from_node=1)
        learn(hub, 9, 2, from_node=2)
        assert (hub.route_metric(9), hub.table[9].next_hop) == (2, 1)
        sim.run(until=45.0)
        assert (hub.route_metric(9), hub.table[9].next_hop) == (3, 2)
        sim.run(until=200.0)
        assert hub.route_metric(9) is None

    def test_silent_next_hop_times_out_while_an_alternate_keeps_talking(self):
        """Only news from the current next hop refreshes an unchanged route
        (RFC 2453): leaf 1 goes silent after t=0 while leaf 2 speaks at 30
        and 60, so the route via leaf 1 times out at 40 onto leaf 2."""
        sim, net, _ = build_network(generators.star(2), "none")
        hub = DbfProtocol(net.node(0), RngStreams(1), CONFIG)
        hub.start()
        learn(hub, 9, 1, from_node=1)
        learn(hub, 9, 2, from_node=2)
        for t in (30.0, 60.0):
            sim.run(until=t)
            learn(hub, 9, 2, from_node=2)
        assert (hub.route_metric(9), hub.table[9].next_hop) == (3, 2)


class TestRipAging:
    def test_revived_route_adds_no_aging_event(self):
        """A route poisoned and revived is aged by the router's one timer;
        only the poisoning's garbage collection is a new pending event."""
        sim, net, _ = build_network(generators.line(2), "none")
        proto = RipProtocol(net.node(0), RngStreams(1), CONFIG)
        proto.start()
        learn(proto, 9, 1, from_node=1)
        learn(proto, 10, 1, from_node=1)
        pending = sim.pending_events
        learn(proto, 9, CONFIG.infinity, from_node=1)
        learn(proto, 9, 1, from_node=1)
        assert sim.pending_events == pending + 1
        sim.run(until=39.0)
        assert proto.route_metric(9) == 2 and proto.route_metric(10) == 2
        sim.run(until=41.0)
        assert proto.route_metric(9) is None and proto.route_metric(10) is None


@pytest.mark.parametrize("protocol", ["rip", "dbf"])
def test_warm_network_holds_a_few_pending_events_per_router(protocol):
    """After warm start on the quick 7x7 mesh, each router has its periodic
    update and its aging timer pending, not one aging event per route."""
    run = ScenarioRun(protocol, 4, 7, ExperimentConfig.quick())
    routers = len(run.network.nodes)
    assert routers == 51
    # Two timers per router, plus the flow's next emission and the failure.
    assert run.sim.pending_events <= 2 * routers + 4
