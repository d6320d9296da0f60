"""Planar link diagram codes.

A diagram is a list of crossings ``X(a,b,c,d)`` plus an optional count
of crossing-free circles ``O k``. The four labels of a crossing name
the edge ends met counterclockwise starting from an incoming under
strand, so slots 0 and 2 carry the under strand and slots 1 and 3 the
over strand. Each edge label appears exactly twice across the whole
code. Dart ``4*c + t`` is slot t of crossing c, and quadrant
``4*c + q`` is the corner of crossing c between darts q and q+1 (mod 4).

``trace_regions`` recovers the complementary regions of the underlying
curve. The code fixes the surface combinatorics but not the embedding,
so the choice of unbounded region is a convention: within each
connected piece of the diagram the face containing the slot-2 side of
its lowest-numbered crossing faces outward, and those outward faces
are merged into the single unbounded region.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Crossing",
    "Diagram",
    "DiagramError",
    "NonPlanarError",
    "RegionMap",
    "parse_diagram",
    "relabel_edges",
    "serialize_diagram",
    "trace_regions",
    "underlying_components",
    "union_find",
    "disjoint_union",
]


class DiagramError(ValueError):
    """The text or structure does not describe a valid diagram code."""


class NonPlanarError(DiagramError):
    """The code is combinatorially consistent but admits no planar drawing."""


@dataclass(frozen=True)
class Crossing:
    """Four edge labels, counterclockwise from an incoming under strand."""

    slots: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.slots) != 4:
            raise DiagramError("a crossing takes exactly four labels")
        for v in self.slots:
            if not isinstance(v, int) or v < 1:
                raise DiagramError(f"edge labels are positive integers, got {v!r}")


@dataclass(frozen=True)
class Diagram:
    """A crossing list plus free circles; the unit of every computation here."""

    crossings: tuple[Crossing, ...]
    free_circles: int = 0

    def __post_init__(self) -> None:
        if self.free_circles < 0:
            raise DiagramError("negative circle count")
        if not self.crossings and self.free_circles == 0:
            raise DiagramError("empty diagram: no crossings and no circles")
        counts: dict[int, int] = {}
        for c in self.crossings:
            for v in c.slots:
                counts[v] = counts.get(v, 0) + 1
        bad = sorted(v for v, n in counts.items() if n != 2)
        if bad:
            raise DiagramError(f"each edge label must occur exactly twice; offenders: {bad}")

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def edge_labels(self) -> tuple[int, ...]:
        seen = set()
        for c in self.crossings:
            seen.update(c.slots)
        return tuple(sorted(seen))


_TOKEN_X = re.compile(r"[Xx]\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\Z")
_TOKEN_O = re.compile(r"[Oo]\s*(\d+)\Z")


def parse_diagram(text: str) -> Diagram:
    """Parse a diagram code.

    Items are separated by semicolons or newlines; ``#`` starts a
    comment running to end of line. At most one ``O`` item is allowed.
    """
    items: list[str] = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        items.extend(part.strip() for part in line.split(";"))
    crossings: list[Crossing] = []
    circles: int | None = None
    for item in items:
        if not item:
            continue
        m = _TOKEN_X.match(item)
        if m:
            crossings.append(Crossing(tuple(int(g) for g in m.groups())))
            continue
        m = _TOKEN_O.match(item)
        if m:
            if circles is not None:
                raise DiagramError("at most one O item per code")
            circles = int(m.group(1))
            if circles < 1:
                raise DiagramError("circle count must be positive")
            continue
        raise DiagramError(f"unrecognized item: {item!r}")
    return Diagram(tuple(crossings), circles or 0)


def serialize_diagram(d: Diagram) -> str:
    parts = ["X({},{},{},{})".format(*c.slots) for c in d.crossings]
    if d.free_circles:
        parts.append(f"O {d.free_circles}")
    return ";".join(parts)


def _mates(d: Diagram) -> list[int]:
    """``mate[x]`` is the dart at the other end of dart x's edge."""
    first: dict[int, int] = {}
    mate = [0] * (4 * d.crossing_count)
    for x, v in enumerate(v for c in d.crossings for v in c.slots):
        y = first.setdefault(v, x)
        mate[x], mate[y] = y, x
    return mate


def union_find(items, pairs) -> dict:
    """Map each item to the root of its class once every pair is joined.

    Pairs are joined in order, the second root hanging under the first,
    so the roots themselves (not only the classes) follow the pair order.
    """
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    return {x: find(x) for x in parent}


def underlying_components(d: Diagram) -> tuple[tuple[int, ...], ...]:
    """Crossing indices grouped by connectivity of the underlying curve,
    each group ascending, groups ordered by their smallest member.
    Free circles are not included; they never touch a crossing."""
    return _components(d.crossing_count, _mates(d))


def _components(crossing_count: int, mate: list[int]) -> tuple[tuple[int, ...], ...]:
    """underlying_components from the mate list of ``_mates``."""
    root = union_find(range(crossing_count), ((x // 4, y // 4) for x, y in enumerate(mate)))
    groups: dict[int, list[int]] = {}
    for c, r in root.items():
        groups.setdefault(r, []).append(c)
    return tuple(sorted(map(tuple, groups.values())))


@dataclass(frozen=True)
class RegionMap:
    """Complementary regions of a diagram.

    ``quadrant_region[c][q]`` is the region seen from crossing c between
    slots q and q+1 (mod 4). ``circle_regions`` lists the region id
    inside each free circle. Region ids are dense from 0 and
    ``unbounded_region`` is always 0.
    """

    region_count: int
    quadrant_region: tuple[tuple[int, int, int, int], ...]
    circle_regions: tuple[int, ...]
    unbounded_region: int = 0

    def quadrants_of(self, region: int):
        """All (crossing, quadrant) pairs bordering the given region."""
        return tuple(
            (c, q)
            for c, quads in enumerate(self.quadrant_region)
            for q, r in enumerate(quads)
            if r == region
        )


def trace_regions(d: Diagram) -> RegionMap:
    """Compute the complementary regions by walking face boundaries.

    Standing on a dart, the face on the counterclockwise side continues
    through the mate dart's quadrant and departs from the next slot
    around. Each connected piece must close up into exactly
    ``crossings + 2`` faces; any shortfall means the code only embeds in
    a higher-genus surface and raises NonPlanarError.
    """
    mate = _mates(d)
    # Scanning the quadrants upward numbers the faces in first-seen order.
    face = [-1] * len(mate)
    n_faces = 0
    for x in range(len(mate)):
        if face[x] == -1:
            y = x
            while face[y] == -1:
                face[y] = n_faces
                y = mate[y - 3 if y % 4 == 3 else y + 1]
            n_faces += 1
    comps = _components(d.crossing_count, mate)
    for comp in comps:
        n = len({f for c in comp for f in face[4 * c:4 * c + 4]})
        if n != len(comp) + 2:
            raise NonPlanarError(
                f"component at crossing {comp[0]} traces {n} faces, "
                f"needs {len(comp) + 2} for a planar embedding")
    # Merge the outward face of every component into the unbounded
    # region 0; the other faces keep their order from 1.
    outer = {face[4 * comp[0] + 2] for comp in comps}
    inner = [f for f in range(n_faces) if f not in outer]
    region = [0] * n_faces
    for r, f in enumerate(inner, 1):
        region[f] = r
    # Each free circle encloses a region of its own, numbered last.
    n_regions = len(inner) + 1
    return RegionMap(
        region_count=n_regions + d.free_circles,
        quadrant_region=tuple(
            tuple(region[f] for f in face[x:x + 4]) for x in range(0, len(face), 4)),
        circle_regions=tuple(range(n_regions, n_regions + d.free_circles)),
    )


def relabel_edges(d: Diagram, mapping: dict[int, int]) -> Diagram:
    """Rename edge labels; labels missing from the mapping stay put."""
    return Diagram(
        tuple(Crossing(tuple(mapping.get(v, v) for v in c.slots)) for c in d.crossings),
        d.free_circles,
    )


def disjoint_union(a: Diagram, b: Diagram) -> Diagram:
    """Place two diagrams side by side, shifting b's labels clear of a's."""
    shift = max(a.edge_labels(), default=0)
    moved = relabel_edges(b, {v: v + shift for v in b.edge_labels()})
    return Diagram(a.crossings + moved.crossings, a.free_circles + b.free_circles)
