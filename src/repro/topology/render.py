"""ASCII rendering of regular meshes (Figure 2's visual).

Draws nodes as two-digit ids, horizontal links as ``--``, vertical links as
``|``, main diagonals as ``\\``, anti-diagonals as ``/`` (both as ``X``).
Useful in examples and for eyeballing the degree-3..8 construction.
"""

from __future__ import annotations

from .graph import Topology
from .mesh import node_at

__all__ = ["render_mesh"]


def render_mesh(topo: Topology, rows: int, cols: int) -> str:
    """Render a mesh built by :func:`repro.topology.mesh.regular_mesh`."""
    has = topo.has_link
    lines: list[str] = []
    for r in range(rows):
        # Node row.
        parts = []
        for c in range(cols):
            node = node_at(r, c, cols)
            parts.append(f"{node:02d}")
            if c < cols - 1:
                right = node_at(r, c + 1, cols)
                parts.append("--" if has(node, right) else "  ")
        lines.append("".join(parts))
        if r == rows - 1:
            break
        # Inter-row: vertical and diagonal links.
        parts = []
        for c in range(cols):
            node = node_at(r, c, cols)
            below = node_at(r + 1, c, cols)
            parts.append("| " if has(node, below) else "  ")
            if c < cols - 1:
                right = node_at(r, c + 1, cols)
                below_right = node_at(r + 1, c + 1, cols)
                main = has(node, below_right)
                anti = has(right, below)
                if main and anti:
                    glyph = "X"
                elif main:
                    glyph = "\\"
                elif anti:
                    glyph = "/"
                else:
                    glyph = " "
                parts.append(glyph + " ")
        lines.append("".join(parts).rstrip())
    return "\n".join(lines)
