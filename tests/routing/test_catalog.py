"""The protocol catalogue, pinned row by row.

Every module that asks what a protocol name means (the CLI, config
validation, the scenario harness, the sharded worker, the monitors, the
oracle) reads :mod:`repro.routing.catalog`.  These literals were copied from
the per-module sets the table replaced, so a row edit that changes what a
protocol builds or promises fails here by name.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import PROTOCOL_NAMES, ExperimentConfig
from repro.experiments.scenario import run_scenario
from repro.net.network import Network
from repro.routing import catalog
from repro.routing.aodv import AodvConfig, AodvProtocol
from repro.routing.bgp import BgpConfig, BgpProtocol
from repro.routing.catalog import PROTOCOLS, build_factory, protocol_spec
from repro.routing.damping import DampingConfig
from repro.routing.dbf import DbfProtocol
from repro.routing.dsr import DsrConfig, DsrProtocol
from repro.routing.dual import DualProtocol
from repro.routing.dv_common import DistanceVectorConfig
from repro.routing.olsr import OlsrConfig, OlsrProtocol
from repro.routing.rip import RipProtocol
from repro.routing.spf import SpfConfig, SpfProtocol
from repro.routing.static import StaticProtocol
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.tracing import TraceBus
from repro.topology.graph import Topology

NAMES = (
    "rip", "rip-hd", "dbf", "dual", "bgp", "bgp3", "spf", "spf-slow", "spf-lfa",
    "bgp-pd", "bgp3-pd", "bgp-rfd", "bgp3-rfd", "bgp-ssld", "bgp3-ssld",
    "static", "aodv", "dsr", "olsr",
)  # fmt: skip

# name: (settle_margin, loop_free, converges, reactive, source_routed, distance_vector)
PROMISES = {
    "rip": (6.0, True, True, False, False, True),
    "rip-hd": (95.0, True, True, False, False, True),
    "dbf": (6.0, False, True, False, False, True),
    "dual": (3.0, True, True, False, False, False),
    "bgp": (32.0, False, True, False, False, False),
    "bgp3": (5.0, False, True, False, False, False),
    "spf": (4.0, False, True, False, False, False),
    "spf-slow": (4.0, False, True, False, False, False),
    "spf-lfa": (4.0, False, True, False, False, False),
    "bgp-pd": (32.0, False, True, False, False, False),
    "bgp3-pd": (5.0, False, True, False, False, False),
    "bgp-rfd": (32.0, False, False, False, False, False),
    "bgp3-rfd": (5.0, False, False, False, False, False),
    "bgp-ssld": (32.0, False, True, False, False, False),
    "bgp3-ssld": (5.0, False, True, False, False, False),
    "static": (3.0, False, False, False, False, False),
    "aodv": (12.0, True, False, True, False, False),
    "dsr": (12.0, True, False, True, True, False),
    "olsr": (18.0, False, True, False, False, False),
}

DV = DistanceVectorConfig(infinity=32)
DAMPING = DampingConfig()

# name: (class built, its ``config``; None where the class takes none)
BUILT = {
    "rip": (RipProtocol, DV),
    "rip-hd": (RipProtocol, DistanceVectorConfig(infinity=32, holddown=90.0)),
    "dbf": (DbfProtocol, DV),
    "dual": (DualProtocol, None),
    "bgp": (BgpProtocol, BgpConfig(30.0, 5.0, label="bgp")),
    "bgp3": (BgpProtocol, BgpConfig(3.0, 0.5, label="bgp3")),
    "spf": (SpfProtocol, SpfConfig(label="spf")),
    "spf-slow": (SpfProtocol, SpfConfig(spf_delay=2.0, label="spf-slow")),
    "spf-lfa": (SpfProtocol, SpfConfig(spf_delay=2.0, lfa=True, label="spf-lfa")),
    "bgp-pd": (BgpProtocol, BgpConfig(30.0, 5.0, per_destination_mrai=True, label="bgp-pd")),
    "bgp3-pd": (BgpProtocol, BgpConfig(3.0, 0.5, per_destination_mrai=True, label="bgp3-pd")),
    "bgp-rfd": (BgpProtocol, BgpConfig(30.0, 5.0, damping=DAMPING, label="bgp-rfd")),
    "bgp3-rfd": (BgpProtocol, BgpConfig(3.0, 0.5, damping=DAMPING, label="bgp3-rfd")),
    "bgp-ssld": (
        BgpProtocol,
        BgpConfig(30.0, 5.0, sender_side_loop_detection=True, label="bgp-ssld"),
    ),
    "bgp3-ssld": (
        BgpProtocol,
        BgpConfig(3.0, 0.5, sender_side_loop_detection=True, label="bgp3-ssld"),
    ),
    "static": (StaticProtocol, None),
    "aodv": (AodvProtocol, AodvConfig()),
    "dsr": (DsrProtocol, DsrConfig()),
    "olsr": (OlsrProtocol, OlsrConfig()),
}

UNKNOWN = ["", "ripp", "aodv2", "unknown", "OLSR", "bgp3-xx"]


def build_one(name: str):
    """The protocol ``name``'s factory builds on node 0 of a two-node link."""
    topo = Topology("pair")
    topo.connect(0, 1)
    network = Network(Simulator(), topo, TraceBus())
    protocol = build_factory(name, network, RngStreams(1), topo, 32)(network.node(0))
    assert network.node(0).protocol is protocol
    return protocol


def test_the_names_are_the_nineteen_in_cli_order():
    assert tuple(PROTOCOLS) == NAMES
    assert PROTOCOL_NAMES == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_margin_and_promises(name):
    spec = protocol_spec(name)
    row = (
        spec.settle_margin,
        spec.loop_free,
        spec.converges,
        spec.reactive,
        spec.source_routed,
        spec.distance_vector,
    )
    assert row == PROMISES[name]


@pytest.mark.parametrize("name", NAMES)
def test_built_class_and_config(name):
    cls, config = BUILT[name]
    protocol = build_one(name)
    assert type(protocol) is cls
    assert getattr(protocol, "config", None) == config


@pytest.mark.parametrize("name", NAMES)
def test_builders_look_their_class_up_when_they_run(monkeypatch, name):
    """A builder that captured its class at import would ignore this patch,
    and a test swapping in an oracle class would compare live against live."""
    cls, _ = BUILT[name]
    swapped = type(f"Swapped{cls.__name__}", (cls,), {})
    monkeypatch.setattr(catalog, cls.__name__, swapped)
    assert type(build_one(name)) is swapped


@pytest.mark.parametrize("name", UNKNOWN)
def test_an_unknown_name_raises_everywhere(name):
    with pytest.raises(ValueError, match="settle margin"):
        protocol_spec(name)
    with pytest.raises(ValueError, match="settle margin"):
        ExperimentConfig(protocols=("rip", name))
    with pytest.raises(ValueError, match="settle margin"):
        run_scenario(name, 4, 1, ExperimentConfig.quick())
