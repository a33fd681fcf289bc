"""Flow descriptors and end-to-end statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["FlowSpec", "Delivery", "FlowStats"]


@dataclass(frozen=True)
class FlowSpec:
    """One constant-bit-rate flow (the paper uses a single sender/receiver pair)."""

    flow_id: int
    src: int
    dst: int
    rate_pps: float
    start: float
    stop: float
    packet_bytes: int = 500
    ttl: int = 127

    def __post_init__(self) -> None:
        if self.rate_pps <= 0:
            raise ValueError(f"rate must be positive, got {self.rate_pps}")
        if self.stop <= self.start:
            raise ValueError(f"stop ({self.stop}) must follow start ({self.start})")
        if self.ttl < 1:
            raise ValueError(f"ttl must be >= 1, got {self.ttl}")

    @property
    def interval(self) -> float:
        return 1.0 / self.rate_pps


@dataclass(frozen=True)
class Delivery:
    """One packet that reached the sink."""

    time: float
    delay: float
    hops: int
    packet_id: int
    path: Optional[tuple[int, ...]] = None


@dataclass
class FlowStats:
    """Aggregated outcome of one flow."""

    sent: int = 0
    delivered: int = 0
    deliveries: list[Delivery] = field(default_factory=list)

    @property
    def lost(self) -> int:
        return self.sent - self.delivered

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.sent if self.sent else 0.0

    @property
    def mean_delay(self) -> float:
        if not self.deliveries:
            return 0.0
        return sum(d.delay for d in self.deliveries) / len(self.deliveries)

    @property
    def max_delay(self) -> float:
        return max((d.delay for d in self.deliveries), default=0.0)
