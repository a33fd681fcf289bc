"""Plain-text rendering of figure results.

Produces the rows/series the paper reports, ready for EXPERIMENTS.md or
console output.
"""

from __future__ import annotations

from typing import Mapping

from ..metrics.timeseries import BinnedSeries
from .config import ExperimentConfig
from .figures import Row, SweepTable

__all__ = [
    "format_sweep_table",
    "format_series_grid",
    "format_ascii_curve",
    "format_row",
]


def format_sweep_table(table: SweepTable, precision: int = 1) -> str:
    """Render a SweepTable as a fixed-width text table."""
    header = [table.axis] + list(table.protocols)
    widths = [max(8, len(h) + 2) for h in header]
    lines = [table.title, ""]
    lines.append("".join(h.rjust(w) for h, w in zip(header, widths)))
    lines.append("".join("-" * w for w in widths))
    for degree in table.degrees:
        cells = [str(degree)]
        for protocol in table.protocols:
            cells.append(f"{table.value(protocol, degree):.{precision}f}")
        lines.append("".join(c.rjust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)


def format_row(row: Row, tables: tuple[SweepTable, ...], config: ExperimentConfig) -> str:
    """A catalogue row's panels as text, one block each: a scalar table, a
    time series sampled every 5 s of ``config``'s window, or Figure 2's
    lines."""
    blocks = []
    for panel, table in zip(row.panels, tables, strict=True):
        sample = next(iter(table.values.values()))
        if isinstance(sample, BinnedSeries):
            blocks.append(format_series_grid(
                table.values, table.title, t_min=-5,
                t_max=min(50.0, config.post_fail_window - 10), step=5,
                precision=panel.digits,
            ))
        elif isinstance(sample, str):
            blocks.append("\n".join([table.title, "", *table.values.values()]))
        else:
            blocks.append(format_sweep_table(table, panel.digits))
    return "\n\n".join(blocks)


def format_series_grid(
    series: Mapping[tuple[str, int], BinnedSeries],
    title: str,
    t_min: float = -5.0,
    t_max: float = 50.0,
    step: float = 5.0,
    precision: int = 1,
) -> str:
    """Render time series (one column per (protocol, degree)) sampled every
    ``step`` seconds relative to the failure instant."""
    keys = sorted(series)
    sample_times = []
    t = t_min
    while t <= t_max + 1e-9:
        sample_times.append(t)
        t += step
    header = ["t(s)"] + [f"{p}/d{d}" for p, d in keys]
    widths = [max(9, len(h) + 2) for h in header]
    lines = [title, ""]
    lines.append("".join(h.rjust(w) for h, w in zip(header, widths)))
    lines.append("".join("-" * w for w in widths))
    for t in sample_times:
        cells = [f"{t:.0f}"]
        for key in keys:
            value = series[key].value_at(t)
            cells.append("-" if value is None else f"{value:.{precision}f}")
        lines.append("".join(c.rjust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)


def format_ascii_curve(
    series: BinnedSeries, title: str, width: int = 60, height: int = 12
) -> str:
    """Tiny ASCII plot of one series (examples use it for quick looks)."""
    if not series.values:
        return f"{title}\n(empty series)"
    v_max = max(series.values)
    v_min = min(series.values)
    span = (v_max - v_min) or 1.0
    n = len(series.values)
    # Downsample/expand to `width` columns.
    cols = []
    for x in range(width):
        idx = min(n - 1, int(x * n / width))
        cols.append((series.values[idx] - v_min) / span)
    rows = []
    for y in range(height, -1, -1):
        threshold = y / height
        row = "".join("#" if c >= threshold and c > 0 else " " for c in cols)
        rows.append(row)
    t0, t1 = series.times[0], series.times[-1]
    footer = f"t: {t0:.0f}s .. {t1:.0f}s   y: {v_min:.1f} .. {v_max:.1f}"
    return "\n".join([title, *rows, footer])
