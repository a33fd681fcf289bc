"""Dependency-free SVG charts for the reproduced figures.

The paper's figures are simple line charts (metric vs node degree, or metric
vs time).  This module renders exactly those, as standalone SVG strings,
with no plotting dependency — suitable for headless CI and for dropping into
the repository's documentation.

Entry points:

* :func:`line_chart` — generic multi-series chart;
* :func:`sweep_chart` — a :class:`~repro.experiments.figures.SweepTable`
  (metric vs degree, one line per protocol) — Figures 3, 4, 6;
* :func:`series_chart` — time series per (protocol, degree) — Figures 5, 7;
* :func:`save_svg` — write to disk.
"""

from __future__ import annotations

import html
import math
from typing import Mapping, Optional, Sequence

from ..metrics.timeseries import BinnedSeries
from .figures import SweepTable

__all__ = ["line_chart", "sweep_chart", "series_chart", "save_svg"]

#: Color cycle (colorblind-safe-ish defaults).
_COLORS = (
    "#0072B2",  # blue
    "#D55E00",  # vermillion
    "#009E73",  # green
    "#CC79A7",  # magenta
    "#E69F00",  # orange
    "#56B4E9",  # sky
    "#000000",  # black
)

_DASHES = ("", "6,3", "2,2", "8,3,2,3", "1,3", "10,2", "4,4")


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Human-friendly axis tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw_step = span / max(1, target)
    magnitude = 10 ** math.floor(math.log10(raw_step))
    for mult in (1, 2, 2.5, 5, 10):
        step = magnitude * mult
        if span / step <= target + 1:
            break
    first = math.floor(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        if t >= lo - step * 1e-9:
            ticks.append(round(t, 10))
        t += step
    return ticks or [lo, hi]


def _escape(text: str) -> str:
    # html.escape, not xml.sax.saxutils.escape (same & < > mapping): xml.sax
    # drags in urllib.request, http.client, email and ssl, ~30 ms per process.
    return html.escape(text, quote=False)


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:g}"


def line_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    title: str,
    xlabel: str,
    ylabel: str,
    width: int = 640,
    height: int = 400,
    y_min: Optional[float] = None,
) -> str:
    """Render named (x, y) series as an SVG line chart with legend."""
    margin_l, margin_r, margin_t, margin_b = 64, 150, 40, 48
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        raise ValueError("nothing to plot")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo = min(ys) if y_min is None else y_min
    y_hi = max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi <= y_lo:
        y_hi = y_lo + 1

    def sx(x: float) -> float:
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="12">'
    )
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    parts.append(
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
        f'font-size="14" font-weight="bold">{_escape(title)}</text>'
    )

    # Axes frame.
    parts.append(
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333"/>'
    )
    # Ticks and gridlines.
    for t in _nice_ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{margin_t}" x2="{x:.1f}" '
            f'y2="{margin_t + plot_h}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{margin_t + plot_h + 16}" '
            f'text-anchor="middle">{_fmt(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(
            f'<line x1="{margin_l}" y1="{y:.1f}" x2="{margin_l + plot_w}" '
            f'y2="{y:.1f}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{margin_l - 6}" y="{y + 4:.1f}" '
            f'text-anchor="end">{_fmt(t)}</text>'
        )
    # Axis labels.
    parts.append(
        f'<text x="{margin_l + plot_w / 2:.0f}" y="{height - 10}" '
        f'text-anchor="middle">{_escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="16" y="{margin_t + plot_h / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {margin_t + plot_h / 2:.0f})">'
        f"{_escape(ylabel)}</text>"
    )

    # Series.
    legend_y = margin_t + 8
    for idx, (label, pts) in enumerate(series.items()):
        color = _COLORS[idx % len(_COLORS)]
        dash = _DASHES[idx % len(_DASHES)]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"{dash_attr}/>'
        )
        for x, y in pts:
            parts.append(
                f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2.4" '
                f'fill="{color}"/>'
            )
        # Legend entry.
        lx = margin_l + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="1.8"{dash_attr}/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{legend_y + 4}">{_escape(label)}</text>'
        )
        legend_y += 18

    parts.append("</svg>")
    return "\n".join(parts)


def sweep_chart(table: SweepTable, ylabel: str, title: Optional[str] = None) -> str:
    """Figure 3/4/6-style chart: one line per protocol, degree on the x axis."""
    series = {
        protocol: [(float(d), v) for d, v in table.series(protocol)]
        for protocol in table.protocols
    }
    return line_chart(
        series,
        title=title or table.title,
        xlabel="node degree",
        ylabel=ylabel,
        y_min=0.0,
    )


def series_chart(
    series: Mapping[tuple[str, int], BinnedSeries],
    title: str,
    ylabel: str,
    t_min: Optional[float] = None,
    t_max: Optional[float] = None,
) -> str:
    """Figure 5/7-style chart: one line per (protocol, degree) time series."""
    named: dict[str, list[tuple[float, float]]] = {}
    for (protocol, degree), s in sorted(series.items()):
        pts = [
            (t, v)
            for t, v in zip(s.times, s.values)
            if (t_min is None or t >= t_min) and (t_max is None or t <= t_max)
        ]
        if pts:
            named[f"{protocol} d={degree}"] = pts
    return line_chart(
        named,
        title=title,
        xlabel="time since failure (s)",
        ylabel=ylabel,
        y_min=0.0,
    )


def save_svg(svg: str, path: str) -> None:
    """Write an SVG string to ``path``."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(svg)
        if not svg.endswith("\n"):
            f.write("\n")
