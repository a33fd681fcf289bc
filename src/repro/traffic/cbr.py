"""Constant-bit-rate packet source.

The paper's workload: a single sender emitting fixed-size IP packets with
TTL 127 at a constant rate toward a single receiver, starting after the
routing warm-up.

The source keeps one pending emission and re-arms the next from ``_emit``.
Times come from the historical float accumulation (``t += interval`` from a
first emission at ``now + max(0, start - now)``), and every emission is
ranked where a batch of the whole window, scheduled at ``start()``, put it.

That batch ranked emission *k* ``(t_k, t0, s0 + k)``, ``t0`` being the time
of ``start()``; here every emission ranks ``(t_k, t0, s0)``, one counter
value per flow.  With one emission pending, no two heap entries share a
rank.  An event tying with it at ``t_k`` as of ``t0`` was scheduled before
``start()`` (``seq`` below ``s0`` in both designs) or after it (above
``s0 + n - 1`` in the batch, above ``s0`` here), so it compares the same
way; all other counter values shift by the same ``n - 1``.  A rank does not
depend on when it is pushed, so re-arming after ``originate`` is safe.
"""

from __future__ import annotations

from ..net.network import Network
from ..net.packet import Packet
from ..sim.engine import Simulator
from .flows import FlowSpec

__all__ = ["CbrSource"]


class CbrSource:
    """Originates one packet every ``1/rate`` seconds during [start, stop)."""

    __slots__ = (
        "sim", "network", "spec", "sent", "_started", "_src_node", "_next", "_as_of", "_seq"
    )

    def __init__(self, sim: Simulator, network: Network, spec: FlowSpec) -> None:
        self.sim = sim
        self.network = network
        self.spec = spec
        self.sent = 0
        self._started = False
        self._src_node = network.node(spec.src)

    def start(self) -> None:
        """Arm the flow's first transmission (idempotent)."""
        if self._started:
            return
        self._started = True
        sim = self.sim
        now = sim.now
        t = now + max(0.0, self.spec.start - now)
        if t < self.spec.stop:
            self._as_of = now
            self._seq = next(sim._seq)
            self._next = t
            sim._schedule_ranked(t, now, self._seq, self._emit, ())

    def _emit(self) -> None:
        spec = self.spec
        packet = Packet(
            src=spec.src,
            dst=spec.dst,
            kind="data",
            ttl=spec.ttl,
            size_bytes=spec.packet_bytes,
            flow_id=spec.flow_id,
        )
        self._src_node.originate(packet)
        self.sent += 1
        t = self._next + spec.interval
        if t < spec.stop:
            self._next = t
            self.sim._schedule_ranked(t, self._as_of, self._seq, self._emit, ())
