"""Reliable transport on top of the simulated IP layer.

The paper's §6 lists "extending the packet delivery performance measure from
IP layer to include end-to-end TCP performance during routing convergence"
as future work; this module provides that extension with a deliberately
simple transport in the spirit of the flow model used by Shankar et al.
(the paper's [25]): a fixed-size sliding window, cumulative ACKs, and
timeout-driven retransmission with exponential backoff.  No congestion
control — the point is to observe how IP-layer convergence losses translate
into end-to-end stalls and retransmissions, not to model TCP Reno.

Wire format: data segments are data packets whose ``payload`` is
``("seg", seq)``; ACKs travel as data packets in the reverse direction with
payload ``("ack", cumulative_seq)``.  Both directions therefore experience
the same convergence dynamics, like real TCP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..net.network import Network
from ..net.node import Node
from ..net.packet import Packet
from ..sim.engine import Simulator
from ..sim.timers import OneShotTimer

__all__ = ["TransportConfig", "TransportStats", "ReliableSender", "ReliableReceiver"]


@dataclass(frozen=True)
class TransportConfig:
    """Window/retransmission parameters."""

    window: int = 8
    initial_rto: float = 1.0
    max_rto: float = 16.0
    segment_bytes: int = 64
    ack_bytes: int = 40
    ttl: int = 127

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.initial_rto <= 0 or self.max_rto < self.initial_rto:
            raise ValueError("bad RTO range")


@dataclass
class TransportStats:
    """Sender-side outcome of one transfer."""

    segments: int = 0
    transmissions: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    completed_at: Optional[float] = None
    #: (time, cumulative acked seq) — the transfer's progress curve.
    progress: list[tuple[float, int]] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return self.completed_at is not None


class ReliableReceiver:
    """Receiver half: delivers cumulative ACKs for in-order data."""

    def __init__(self, network: Network, host: int, peer: int, flow_id: int,
                 config: Optional[TransportConfig] = None) -> None:
        self.network = network
        self.host = host
        self.peer = peer
        self.flow_id = flow_id
        self.config = config or TransportConfig()
        self.next_expected = 0
        self.out_of_order: set[int] = set()
        self.segments_received = 0
        network.node(host).attach_app(self)

    def on_packet(self, packet: Packet, node: Node) -> None:
        if packet.flow_id != self.flow_id or not isinstance(packet.payload, tuple):
            return
        kind, seq = packet.payload
        if kind != "seg":
            return
        self.segments_received += 1
        if seq == self.next_expected:
            self.next_expected += 1
            while self.next_expected in self.out_of_order:
                self.out_of_order.discard(self.next_expected)
                self.next_expected += 1
        elif seq > self.next_expected:
            self.out_of_order.add(seq)
        self._send_ack(node)

    def _send_ack(self, node: Node) -> None:
        ack = Packet(
            src=self.host,
            dst=self.peer,
            kind="data",
            ttl=self.config.ttl,
            size_bytes=self.config.ack_bytes,
            flow_id=self.flow_id,
            payload=("ack", self.next_expected),
        )
        node.originate(ack)


class ReliableSender:
    """Sender half: fixed window, cumulative ACKs, RTO with backoff."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        host: int,
        peer: int,
        flow_id: int,
        total_segments: int,
        config: Optional[TransportConfig] = None,
    ) -> None:
        if total_segments < 1:
            raise ValueError("need at least one segment")
        self.sim = sim
        self.network = network
        self.host = host
        self.peer = peer
        self.flow_id = flow_id
        self.total_segments = total_segments
        self.config = config or TransportConfig()
        self.stats = TransportStats(segments=total_segments)
        self._base = 0  # lowest unacked seq
        self._next = 0  # next seq never sent
        self._rto = self.config.initial_rto
        self._timer = OneShotTimer(sim, self._on_timeout)
        self._started = False
        network.node(host).attach_app(self)

    # ----------------------------------------------------------------- driver

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._fill_window()

    @property
    def done(self) -> bool:
        return self._base >= self.total_segments

    def close(self) -> None:
        """End the transfer: drop the retransmission timer, whose action
        calls back into this sender (a reference cycle that would keep the
        network alive).  ``stats`` stays readable."""
        self._timer.cancel()
        self._timer = None

    def _fill_window(self) -> None:
        while (
            self._next < self.total_segments
            and self._next < self._base + self.config.window
        ):
            self._transmit(self._next)
            self._next += 1
        if not self.done and not self._timer.running:
            self._timer.start(self._rto)

    def _transmit(self, seq: int, is_retransmission: bool = False) -> None:
        segment = Packet(
            src=self.host,
            dst=self.peer,
            kind="data",
            ttl=self.config.ttl,
            size_bytes=self.config.segment_bytes,
            flow_id=self.flow_id,
            payload=("seg", seq),
        )
        self.stats.transmissions += 1
        if is_retransmission:
            self.stats.retransmissions += 1
        self.network.node(self.host).originate(segment)

    # ------------------------------------------------------------------ input

    def on_packet(self, packet: Packet, node: Node) -> None:
        if packet.flow_id != self.flow_id or not isinstance(packet.payload, tuple):
            return
        kind, cum = packet.payload
        if kind != "ack":
            return
        if cum > self._base:
            self._base = cum
            self.stats.progress.append((self.sim.now, cum))
            self._rto = self.config.initial_rto
            if self.done:
                self._timer.cancel()
                if self.stats.completed_at is None:
                    self.stats.completed_at = self.sim.now
                return
            self._timer.start(self._rto)
            self._fill_window()

    # --------------------------------------------------------------- timeouts

    def _on_timeout(self) -> None:
        if self.done:
            return
        self.stats.timeouts += 1
        # Go-back-N style: resend the whole outstanding window.
        for seq in range(self._base, min(self._next, self._base + self.config.window)):
            self._transmit(seq, is_retransmission=True)
        self._rto = min(self._rto * 2, self.config.max_rto)
        self._timer.start(self._rto)
