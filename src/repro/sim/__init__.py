"""Discrete-event simulation substrate (engine, timers, RNG, tracing)."""

from .engine import EventHandle, EventStats, SimulationError, Simulator
from .eventq import HeapEventQueue
from .rng import RngStreams
from .timers import JitteredInterval, OneShotTimer, PeriodicTimer
from .tracing import (
    DropCause,
    LinkEventRecord,
    MessageRecord,
    PacketRecord,
    RouteChangeRecord,
    TraceBus,
    TraceCounters,
)
from . import units

__all__ = [
    "Simulator",
    "EventHandle",
    "EventStats",
    "SimulationError",
    "HeapEventQueue",
    "RngStreams",
    "JitteredInterval",
    "OneShotTimer",
    "PeriodicTimer",
    "DropCause",
    "PacketRecord",
    "RouteChangeRecord",
    "LinkEventRecord",
    "MessageRecord",
    "TraceBus",
    "TraceCounters",
    "units",
]
