"""Checkerboard shadings of a region map.

A shading assigns shaded/unshaded to every region so that the two
regions meeting along any edge of the diagram differ. Exactly two
shadings exist for a connected arrangement; we index them so that
shading 0 leaves the unbounded region unshaded.

The checkerboard graph of a shading has one vertex per shaded region
and one edge per crossing joining the two shaded quadrants there
(a loop when they coincide). Its component count beta_s feeds the
padding of the adjusted Goeritz matrix.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .diagram import Diagram, RegionMap, union_find

__all__ = [
    "CheckerboardGraph",
    "Shading",
    "checkerboard",
    "checkerboard_graphs",
    "shaded_pair",
]


@dataclass(frozen=True)
class Shading:
    """shade[r] says whether region r is shaded; index picks the variant."""

    shade: tuple[bool, ...]
    index: int

    def shaded_regions(self) -> tuple[int, ...]:
        return tuple(r for r, s in enumerate(self.shade) if s)

    def unshaded_regions(self) -> tuple[int, ...]:
        return tuple(r for r, s in enumerate(self.shade) if not s)


def _adjacency_pairs(rm: RegionMap):
    """Region pairs separated by an edge: consecutive quadrants around
    each crossing, plus inside/outside for each free circle."""
    for quads in rm.quadrant_region:
        for q in range(4):
            yield quads[q], quads[(q + 1) % 4]
    for inner in rm.circle_regions:
        yield inner, rm.unbounded_region


def checkerboard(rm: RegionMap) -> tuple[Shading, Shading]:
    """Both checkerboard shadings, unbounded-unshaded variant first.

    The region adjacency graph of a planar arrangement is always
    bipartite and connected, so a breadth-first 2-coloring from the
    unbounded region reaches everything; either failure mode indicates
    a corrupt region map rather than bad user input.
    """
    n = rm.region_count
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for a, b in _adjacency_pairs(rm):
        neighbors[a].add(b)
        neighbors[b].add(a)
    shade = [None] * n
    shade[rm.unbounded_region] = False
    queue = deque([rm.unbounded_region])
    while queue:
        r = queue.popleft()
        for nb in neighbors[r]:
            if shade[nb] is None:
                shade[nb] = not shade[r]
                queue.append(nb)
            elif shade[nb] == shade[r]:
                raise RuntimeError("region adjacency graph is not bipartite")
    if any(s is None for s in shade):
        raise RuntimeError("region adjacency graph is not connected")
    first = tuple(shade)
    second = tuple(not s for s in first)
    return Shading(first, 0), Shading(second, 1)


@dataclass(frozen=True)
class CheckerboardGraph:
    """One vertex per like-shaded region, one edge per crossing.

    Loops are kept (both quadrants of a crossing in the same region)
    and isolated vertices count toward ``component_count``.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    component_count: int


def shaded_pair(s: Shading, quads) -> int:
    """Which opposite quadrant pair a shading covers at one crossing:
    0 for quadrants {0, 2}, 1 for {1, 3}. The other pair is unshaded."""
    shade = [s.shade[r] for r in quads]
    if shade == [True, False, True, False]:
        return 0
    if shade == [False, True, False, True]:
        return 1
    raise RuntimeError("shading does not alternate around a crossing")


def _graph(vertices: tuple[int, ...], edges: list[tuple[int, int]]) -> CheckerboardGraph:
    components = len(set(union_find(vertices, edges).values()))
    return CheckerboardGraph(vertices, tuple(edges), components)


def checkerboard_graphs(
    d: Diagram, rm: RegionMap, s: Shading
) -> tuple[CheckerboardGraph, CheckerboardGraph]:
    """The (shaded, unshaded) checkerboard graphs of one shading.

    Each crossing shades exactly two opposite quadrants, so it yields
    one edge in each graph. Free circles contribute vertices only.
    """
    if len(rm.quadrant_region) != d.crossing_count:
        raise ValueError("region map does not match the diagram")
    if len(s.shade) != rm.region_count:
        raise ValueError("shading does not match the region map")
    shaded_edges: list[tuple[int, int]] = []
    unshaded_edges: list[tuple[int, int]] = []
    for quads in rm.quadrant_region:
        p = shaded_pair(s, quads)
        shaded_edges.append((quads[p], quads[p + 2]))
        unshaded_edges.append((quads[1 - p], quads[3 - p]))
    shaded = _graph(s.shaded_regions(), shaded_edges)
    unshaded = _graph(s.unshaded_regions(), unshaded_edges)
    return shaded, unshaded
