"""MANET performance metrics: PDR, normalized routing load, end-to-end delay.

The MANET literature (Broch et al. MobiCom'98 and the comparison studies
that followed) reports protocol performance with a standard triple, distinct
from the wired paper's convergence-centric loss accounting:

* **Packet delivery ratio (PDR)** — data packets delivered at the sinks over
  data packets originated at the sources.
* **Normalized routing load (NRL)** — routing control packets transmitted
  (every hop of a flooded RREQ or TC counts once) per data packet
  *delivered*; the cost of the control plane in units of useful work.
* **End-to-end delay** — origination-to-delivery latency of the packets
  that did arrive; like the wired paper's delay figures it is only
  meaningful for delivered packets, so loss and delay must be read together.

This module computes the triple from the primitives the harness already
emits — sent/delivered counts, :class:`~repro.traffic.flows.Delivery`
records, and the message counts of a
:func:`~repro.metrics.counters.tally` — so wired and MANET protocols are
measured by the same instruments and the numbers are directly comparable
across the family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from ..traffic.flows import Delivery

__all__ = ["DelayStats", "ManetReport", "analyze_manet", "delay_stats"]


@dataclass(frozen=True)
class DelayStats:
    """Order statistics of per-packet end-to-end delay (delivered only)."""

    count: int
    mean: float
    median: float
    p95: float
    max: float

    @classmethod
    def empty(cls) -> "DelayStats":
        return cls(count=0, mean=0.0, median=0.0, p95=0.0, max=0.0)


def _quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile on pre-sorted data (numpy 'linear')."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def delay_stats(deliveries: Iterable[Delivery]) -> DelayStats:
    """Summarize the delays of delivered packets."""
    delays = sorted(d.delay for d in deliveries)
    if not delays:
        return DelayStats.empty()
    return DelayStats(
        count=len(delays),
        mean=sum(delays) / len(delays),
        median=_quantile(delays, 0.5),
        p95=_quantile(delays, 0.95),
        max=delays[-1],
    )


@dataclass(frozen=True)
class ManetReport:
    """The standard MANET metric triple for one run."""

    sent: int
    delivered: int
    #: Routing control packets transmitted over the whole run, counted per
    #: link traversal (a flood of one RREQ over n links is n packets).
    control_packets: int
    #: Control bytes transmitted over the whole run.
    control_bytes: int
    delay: DelayStats

    @property
    def pdr(self) -> float:
        """Packet delivery ratio: delivered / sent (0 when nothing sent)."""
        return self.delivered / self.sent if self.sent else 0.0

    @property
    def normalized_routing_load(self) -> float:
        """Control packets per delivered data packet.

        Infinite when the control plane spent packets but nothing got
        through — that is a signal, not an error, so it is reported rather
        than masked; zero only when no control traffic was sent at all.
        """
        if self.delivered:
            return self.control_packets / self.delivered
        return math.inf if self.control_packets else 0.0

    def summary(self) -> str:
        nrl = self.normalized_routing_load
        nrl_text = "inf" if math.isinf(nrl) else f"{nrl:.2f}"
        return (
            f"pdr={self.pdr:.3f} ({self.delivered}/{self.sent}) "
            f"nrl={nrl_text} ({self.control_packets} ctrl pkts) "
            f"delay mean={self.delay.mean * 1000:.1f}ms "
            f"p95={self.delay.p95 * 1000:.1f}ms "
            f"max={self.delay.max * 1000:.1f}ms"
        )


def analyze_manet(
    sent: int,
    deliveries: Iterable[Delivery],
    control_packets: int,
    control_bytes: int = 0,
) -> ManetReport:
    """Build the MANET triple from harness primitives.

    ``control_packets`` should count every message sent after warm start
    (the difference of two :func:`~repro.metrics.counters.tally` snapshots):
    NRL is a whole-protocol cost, unlike the paper's post-failure overhead
    window.
    """
    if sent < 0:
        raise ValueError("sent must be >= 0")
    if control_packets < 0:
        raise ValueError("control_packets must be >= 0")
    stats = delay_stats(deliveries)
    return ManetReport(
        sent=sent,
        delivered=stats.count,
        control_packets=control_packets,
        control_bytes=control_bytes,
        delay=stats,
    )
