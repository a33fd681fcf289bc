"""The protocol catalogue: one row per protocol name.

A row says how to build the protocol on a node, its settle margin (seconds
of quiet after which its silence implies convergence: the longest
silent-churn horizon of its timers, plus slack) and the promises the
invariant monitors hold it to.  The CLI, config validation, the scenario
harness, the sharded worker, the monitors and the oracle all read this
table, so a new protocol is one row.  An unknown name raises: judged by
another protocol's margin and promises, its monitors would silently misfire.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from ..net.network import Network
from ..net.node import Node
from ..sim.rng import RngStreams
from ..topology.graph import Topology
from .aodv import AodvProtocol
from .base import RoutingProtocol
from .bgp import BgpConfig, BgpProtocol
from .damping import DampingConfig
from .dbf import DbfProtocol
from .dsr import DsrProtocol
from .dual import DualProtocol
from .dv_common import DistanceVectorConfig
from .olsr import OlsrProtocol
from .rip import RipProtocol
from .spf import SpfConfig, SpfProtocol
from .static import StaticProtocol

__all__ = ["PROTOCOLS", "ProtocolSpec", "build_factory", "protocol_spec", "settle_margin"]


class BuildEnv(NamedTuple):
    """What a builder may use besides the node; one per run."""

    name: str
    network: Network
    rng: RngStreams
    topology: Topology
    dv: DistanceVectorConfig


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol name: its constructor, settle margin and promises."""

    #: Builds the protocol on one node (the base constructor attaches it).
    build: Callable[[Node, BuildEnv], RoutingProtocol]
    #: Seconds of quiet after which silence implies convergence.
    settle_margin: float
    #: FIB state is loop-free at every instant (judged by ``fib-loop``).
    loop_free: bool = False
    #: Re-converges to SPF-optimal routes (judged by ``rib-consistency``).
    converges: bool = False
    #: On demand: judged only on destinations that carry traffic.
    reactive: bool = False
    #: Forwards on origin-stamped source routes, not FIBs.
    source_routed: bool = False
    #: Hop-metric vector: oracle costs at/above ``dv_infinity`` are unreachable.
    distance_vector: bool = False


# The configs are frozen and named after the row, so each row builds its one
# config on first use and every router of every run shares it.


def _spf(**options) -> Callable[[Node, BuildEnv], RoutingProtocol]:
    config = cache(lambda label: SpfConfig(label=label, **options))
    return lambda node, env: SpfProtocol(node, env.rng, config(env.name))


def _bgp(timers: BgpConfig, **options) -> Callable[[Node, BuildEnv], RoutingProtocol]:
    config = cache(lambda label: replace(timers, label=label, **options))
    return lambda node, env: BgpProtocol(node, env.rng, env.network, config(env.name))


_STANDARD, _FAST = BgpConfig.standard(), BgpConfig.fast()
_PD = {"per_destination_mrai": True}
_SSLD = {"sender_side_loop_detection": True}
_RFD = {"damping": DampingConfig()}

#: Every protocol name, in the order the CLI lists them.  Builders name their
#: class when they run, not when this module loads, so a test may swap a
#: protocol class by patching it here.  Cache-based protocols (DBF, BGP) loop
#: transiently by design; route-flap damping may suppress a route past the
#: end of the window and ``static`` never reacts: neither converges.
PROTOCOLS: Mapping[str, ProtocolSpec] = MappingProxyType(
    {
        # Split horizon with poison reverse keeps RIP loop-free (the paper's
        # Observation 2: not one TTL drop); 5 s max triggered-update damping.
        "rip": ProtocolSpec(
            lambda node, env: RipProtocol(node, env.rng, env.dv),
            6.0, loop_free=True, converges=True, distance_vector=True,
        ),
        # 90 s hold-down.
        "rip-hd": ProtocolSpec(
            lambda node, env: RipProtocol(node, env.rng, replace(env.dv, holddown=90.0)),
            95.0, loop_free=True, converges=True, distance_vector=True,
        ),
        "dbf": ProtocolSpec(
            lambda node, env: DbfProtocol(node, env.rng, env.dv),
            6.0, converges=True, distance_vector=True,
        ),
        # DUAL's feasibility condition keeps it loop-free.
        "dual": ProtocolSpec(
            lambda node, env: DualProtocol(node, env.rng, env.network),
            3.0, loop_free=True, converges=True,
        ),
        # The MRAI (30 s; BGP-3: 3 s) plus jitter slack.
        "bgp": ProtocolSpec(_bgp(_STANDARD), 32.0, converges=True),
        "bgp3": ProtocolSpec(_bgp(_FAST), 5.0, converges=True),
        # The spf_delay throttle.
        "spf": ProtocolSpec(_spf(), 4.0, converges=True),
        "spf-slow": ProtocolSpec(_spf(spf_delay=2.0), 4.0, converges=True),
        "spf-lfa": ProtocolSpec(_spf(spf_delay=2.0, lfa=True), 4.0, converges=True),
        "bgp-pd": ProtocolSpec(_bgp(_STANDARD, **_PD), 32.0, converges=True),
        "bgp3-pd": ProtocolSpec(_bgp(_FAST, **_PD), 5.0, converges=True),
        "bgp-rfd": ProtocolSpec(_bgp(_STANDARD, **_RFD), 32.0),
        "bgp3-rfd": ProtocolSpec(_bgp(_FAST, **_RFD), 5.0),
        "bgp-ssld": ProtocolSpec(_bgp(_STANDARD, **_SSLD), 32.0, converges=True),
        "bgp3-ssld": ProtocolSpec(_bgp(_FAST, **_SSLD), 5.0, converges=True),
        "static": ProtocolSpec(
            lambda node, env: StaticProtocol(node, env.rng, env.topology), 3.0
        ),
        # MANET trio (docs/manet.md).  AODV's destination sequence numbers
        # and DSR's acyclic source routes are loop-free; their last RREQ
        # retry fires up to 2.8 s * 2^2 after silence.
        "aodv": ProtocolSpec(
            lambda node, env: AodvProtocol(node, env.rng),
            12.0, loop_free=True, reactive=True,
        ),
        "dsr": ProtocolSpec(
            lambda node, env: DsrProtocol(node, env.rng),
            12.0, loop_free=True, reactive=True, source_routed=True,
        ),
        # TOP_HOLD_TIME (3 x 5 s TC interval): a stale TC entry can age out,
        # and reroute the node, that long after the last message, plus a
        # HELLO period of slack.  MPR flooding keeps hop-count-optimal paths
        # on unit-cost graphs, so OLSR is held to the convergence bar.
        "olsr": ProtocolSpec(
            lambda node, env: OlsrProtocol(node, env.rng), 18.0, converges=True
        ),
    }
)


def protocol_spec(name: str) -> ProtocolSpec:
    """The catalogue row for ``name``; an unknown name raises ValueError."""
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}: no catalogue row gives its builder, "
            f"settle margin and promises (known: {sorted(PROTOCOLS)})"
        ) from None


def settle_margin(name: str) -> float:
    """Seconds of quiet after which ``name``'s silence implies convergence."""
    return protocol_spec(name).settle_margin


def build_factory(
    name: str, network: Network, rng: RngStreams, topology: Topology, dv_infinity: int
) -> Callable[[Node], RoutingProtocol]:
    """Protocol constructor for one run's nodes, sharing one RNG family."""
    build = protocol_spec(name).build
    dv = DistanceVectorConfig(infinity=dv_infinity)
    env = BuildEnv(name, network, rng, topology, dv)
    return lambda node: build(node, env)
