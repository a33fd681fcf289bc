"""Unit tests for the CBR source and flow spec."""

from __future__ import annotations

import pytest

from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.topology import generators
from repro.traffic.cbr import CbrSource
from repro.traffic.flows import FlowSpec


def make(spec):
    sim = Simulator()
    net = Network(sim, generators.line(2))
    net.node(0).set_next_hop(1, 1)
    return sim, net, CbrSource(sim, net, spec)


class TestFlowSpec:
    def test_interval(self):
        spec = FlowSpec(flow_id=1, src=0, dst=1, rate_pps=20, start=0.0, stop=5.0)
        assert spec.interval == pytest.approx(0.05)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate_pps": 0},
            {"rate_pps": -5},
            {"start": 5.0, "stop": 5.0},
            {"ttl": 0},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(flow_id=1, src=0, dst=1, rate_pps=10, start=0.0, stop=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            FlowSpec(**base)


class TestCbrSource:
    def test_emits_at_constant_rate(self):
        spec = FlowSpec(flow_id=1, src=0, dst=1, rate_pps=10, start=1.0, stop=2.0)
        sim, net, src = make(spec)
        src.start()
        sim.run(until=5.0)
        assert src.sent == 10
        assert net.node(1).delivered == 10

    def test_respects_start_time(self):
        spec = FlowSpec(flow_id=1, src=0, dst=1, rate_pps=10, start=2.0, stop=3.0)
        sim, net, src = make(spec)
        src.start()
        sim.run(until=1.9)
        assert src.sent == 0

    def test_stops_at_stop_time(self):
        spec = FlowSpec(flow_id=1, src=0, dst=1, rate_pps=100, start=0.5, stop=1.0)
        sim, net, src = make(spec)
        src.start()
        sim.run(until=10.0)
        assert src.sent == 50

    def test_start_is_idempotent(self):
        spec = FlowSpec(flow_id=1, src=0, dst=1, rate_pps=10, start=0.5, stop=1.5)
        sim, net, src = make(spec)
        src.start()
        src.start()
        sim.run(until=5.0)
        assert src.sent == 10

    def test_packets_carry_flow_spec_parameters(self):
        spec = FlowSpec(
            flow_id=7, src=0, dst=1, rate_pps=10, start=0.0, stop=0.2,
            packet_bytes=64, ttl=9,
        )
        sim = Simulator()
        net = Network(sim, generators.line(2))
        seen = []

        class App:
            def on_packet(self, packet, node):
                seen.append(packet)

        net.node(0).set_next_hop(1, 1)
        net.node(1).attach_app(App())
        CbrSource(sim, net, spec).start()
        sim.run(until=2.0)
        assert seen
        assert all(p.flow_id == 7 and p.size_bytes == 64 for p in seen)
        # TTL decremented zero times on a one-hop path (no intermediate router).
        assert all(p.ttl == 9 for p in seen)
