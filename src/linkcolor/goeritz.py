"""Goeritz forms of a shaded diagram.

Every crossing gets a sign relative to a shading: -1 when the shaded
quadrants are the pair flanking the under strand (slots 0 and 2), +1
when they flank the over strand. The Goeritz matrix is indexed by the
unshaded regions in ascending region order; off the diagonal, entry
(i, j) is minus the sign sum over crossings where regions i and j meet,
and the diagonal makes every row sum to zero. A crossing whose two
unshaded quadrants fall in one region cancels out of the matrix
entirely.

The adjusted form pads the matrix with zero rows and columns, one fewer
than the number of connected components of the shaded checkerboard
graph, so that diagrams differing by which piece carries the shading
still present comparable lattices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Diagram, RegionMap
from .intlattice import IntMatrix
from .shading import Shading, checkerboard_graphs, shaded_pair

__all__ = [
    "GoeritzData",
    "adjusted_goeritz",
    "goeritz_index",
    "goeritz_matrix",
]

# Crossing sign by shaded_pair: under-strand quadrants shaded, over-strand.
_SIGN = (-1, 1)


def goeritz_index(rm: RegionMap, s: Shading, crossing: int) -> int:
    """Sign of one crossing: -1 if the under-strand quadrants are shaded."""
    return _SIGN[shaded_pair(s, rm.quadrant_region[crossing])]


@dataclass(frozen=True)
class GoeritzData:
    """A Goeritz matrix together with its row/column labels and padding.

    ``unshaded_regions[i]`` is the region id behind row and column i of
    ``matrix``. ``beta_s`` is the component count of the shaded
    checkerboard graph; ``adjusted`` carries beta_s - 1 extra zero rows
    and columns after the originals.
    """

    unshaded_regions: tuple[int, ...]
    matrix: IntMatrix
    beta_s: int
    adjusted: IntMatrix


def goeritz_matrix(d: Diagram, rm: RegionMap, s: Shading) -> GoeritzData:
    regions = s.unshaded_regions()
    col = {r: i for i, r in enumerate(regions)}
    n = len(regions)
    grid = [[0] * n for _ in range(n)]
    for quads in rm.quadrant_region:
        p = shaded_pair(s, quads)
        i, j = col[quads[1 - p]], col[quads[3 - p]]
        if i != j:
            # Off the diagonal -eta; the diagonal keeps every row sum 0.
            eta = _SIGN[p]
            grid[i][j] -= eta
            grid[j][i] -= eta
            grid[i][i] += eta
            grid[j][j] += eta
    beta_s = checkerboard_graphs(d, rm, s)[0].component_count
    matrix = IntMatrix.from_rows(grid, n)
    return GoeritzData(
        unshaded_regions=regions,
        matrix=matrix,
        beta_s=beta_s,
        adjusted=adjusted_goeritz(matrix, beta_s),
    )


def adjusted_goeritz(matrix: IntMatrix, beta_s: int) -> IntMatrix:
    """Pad with beta_s - 1 zero rows and columns."""
    if beta_s < 1:
        raise ValueError("a shaded graph has at least one component")
    pad = beta_s - 1
    n = matrix.rows
    grid = [list(row) + [0] * pad for row in matrix.entries]
    grid.extend([0] * (n + pad) for _ in range(pad))
    return IntMatrix.from_rows(grid, n + pad)
