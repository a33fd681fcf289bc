"""Measurement layer: drop and message tallies, time series, convergence,
loop analysis."""

from .convergence import ConvergenceTracker, PathSnapshot, walk_forwarding_path
from .counters import Tally, tally
from .loops import LoopReport, analyze_deliveries, first_loop, path_has_loop
from .manet import DelayStats, ManetReport, analyze_manet, delay_stats
from .reordering import ReorderingReport, analyze_reordering
from .timeseries import (
    BinnedSeries,
    average_series,
    delay_series,
    jitter_series,
    throughput_series,
)

__all__ = [
    "Tally",
    "tally",
    "BinnedSeries",
    "throughput_series",
    "delay_series",
    "jitter_series",
    "average_series",
    "ConvergenceTracker",
    "PathSnapshot",
    "walk_forwarding_path",
    "LoopReport",
    "DelayStats",
    "ManetReport",
    "analyze_manet",
    "delay_stats",
    "ReorderingReport",
    "analyze_reordering",
    "analyze_deliveries",
    "path_has_loop",
    "first_loop",
]
