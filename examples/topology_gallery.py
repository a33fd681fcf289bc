#!/usr/bin/env python3
"""Figure 2 as ASCII art: the Baran regular-mesh family, degrees 3-8.

Shows each construction (brick lattice, grid, alternating / full diagonals,
alternating / full anti-diagonals) plus the structural stats the harness
verifies.

Run:  python examples/topology_gallery.py
"""

from repro.topology import (
    check_interior_degree,
    degree_histogram,
    interior_nodes,
    regular_mesh,
    render_mesh,
)


def main() -> None:
    rows = cols = 7
    for degree in range(3, 9):
        topo = regular_mesh(rows, cols, degree)
        interior = interior_nodes(topo, rows, cols)
        check_interior_degree(topo, interior, degree)
        print(f"=== interior degree {degree}: {topo.n_links} links "
              f"(histogram {sorted(degree_histogram(topo).items())}) ===")
        print(render_mesh(topo, rows, cols))
        print()
    print("Legend: -- horizontal, | vertical, \\ main diagonal, / anti-diagonal,")
    print("        X both diagonals.")


if __name__ == "__main__":
    main()
