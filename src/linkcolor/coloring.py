"""Coloring counts and group structure.

Two routes to the same numbers live here on purpose. The structural
route reads the invariant factors of an adjusted Goeritz matrix and
predicts how many colorings exist over any Z/m. The brute-force route
never looks at a Goeritz matrix or an integer reduction: it enumerates
assignments straight from the diagram, within a fixed budget of
states. Tests lean on their agreement, so neither side may borrow from
the other.

Region colorings obey, at each crossing, the rule that the two
quadrants flanking one end of the over strand sum to the same value as
the two flanking the other end. Arc colorings live on over-arcs and
obey twice-the-over equals the sum of the two under ends. Free circles
contribute one unconstrained region (and one unconstrained arc) each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagram import Diagram, RegionMap, trace_regions, union_find
from .goeritz import GoeritzData, goeritz_matrix
from .intlattice import GroupDescriptor, WorkBoundError, invariant_factors
from .shading import Shading, checkerboard

__all__ = [
    "ColoringReport",
    "CrossingRelation",
    "arc_partition",
    "coloring_equivalent",
    "crossing_relations",
    "dehn_count_bruteforce",
    "dehn_structure",
    "fox_count_bruteforce",
    "structure_count",
]


@dataclass(frozen=True)
class CrossingRelation:
    """Region ids in quadrant order around one crossing.

    The relation is r[0] + r[1] - r[2] - r[3] == 0: quadrants 0 and 1
    flank one emerging end of the over strand, quadrants 2 and 3 the
    other.
    """

    regions: tuple[int, int, int, int]

    def coefficients(self) -> tuple[tuple[int, int], ...]:
        """(region, coefficient) pairs with repeats merged; zeros dropped."""
        acc: dict[int, int] = {}
        for q, r in enumerate(self.regions):
            acc[r] = acc.get(r, 0) + (1 if q < 2 else -1)
        return tuple((r, c) for r, c in sorted(acc.items()) if c)


def crossing_relations(
    d: Diagram, region_map: RegionMap | None = None
) -> tuple[CrossingRelation, ...]:
    rm = region_map if region_map is not None else trace_regions(d)
    return tuple(CrossingRelation(rm.quadrant_region[c]) for c in range(d.crossing_count))


@dataclass(frozen=True)
class ColoringReport:
    """Structural answer for one diagram and shading.

    ``phi`` is the invariant factor sequence of the adjusted Goeritz
    matrix; ``dehn`` and ``fox`` are the coloring group shapes it
    implies. The region count over Z/m is always m times the arc count,
    the extra factor being the translation freedom of region colorings.
    """

    dehn: GroupDescriptor
    fox: GroupDescriptor
    phi: tuple[int, ...]
    goeritz: GoeritzData


def dehn_structure(
    d: Diagram,
    shading: Shading | None = None,
    *,
    region_map: RegionMap | None = None,
) -> ColoringReport:
    """Coloring group structure via the Goeritz route.

    Defaults to the shading that leaves the unbounded region unshaded;
    either shading yields the same counts, which the tests exercise.
    """
    rm = region_map if region_map is not None else trace_regions(d)
    if shading is None:
        shading = checkerboard(rm)[0]
    gd = goeritz_matrix(d, rm, shading)
    phi = invariant_factors(gd.adjusted)
    zeros = sum(1 for f in phi if f == 0)
    torsion = tuple(f for f in phi if f > 1)
    return ColoringReport(
        dehn=GroupDescriptor(zeros + 1, torsion),
        fox=GroupDescriptor(zeros, torsion),
        phi=phi,
        goeritz=gd,
    )


def structure_count(report: ColoringReport, modulus: int, which: str = "dehn") -> int:
    if which == "dehn":
        return report.dehn.order_mod(modulus)
    if which == "fox":
        return report.fox.order_mod(modulus)
    raise ValueError(f"unknown coloring kind: {which!r}")


# The largest scan the acceptance tests run: the granny knot's 8
# regions at m=9. Counting real states, not variables, bounds the work
# whatever the modulus.
MAX_STATES = 9 ** 8


def _count_solutions(nvars: int, relations, modulus: int) -> int:
    """Count assignments in (Z/modulus)^nvars satisfying linear relations.

    relations is a list of (index, coefficient) lists. States are
    scanned in vectorized chunks; coefficients and digits are small, so
    int64 accumulators cannot overflow. Refuses (WorkBoundError) past
    MAX_STATES states.
    """
    total = modulus ** nvars
    if total > MAX_STATES:
        raise WorkBoundError(
            f"enumeration needs {modulus}^{nvars} states, over the cap of {MAX_STATES}")
    chunk = 1 << 20
    count = 0
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        rem = np.arange(start, stop, dtype=np.int64)
        digits = []
        for _ in range(nvars):
            rem, dig = np.divmod(rem, modulus)
            digits.append(dig)
        ok = np.ones(stop - start, dtype=bool)
        for rel in relations:
            acc = np.zeros(stop - start, dtype=np.int64)
            for var, coef in rel:
                acc += coef * digits[var]
            ok &= acc % modulus == 0
        count += int(ok.sum())
    return count


def dehn_count_bruteforce(
    d: Diagram,
    modulus: int,
    *,
    method: str = "enumerate",
    region_cap: int = 8,
) -> int:
    """Count region colorings over Z/modulus without Goeritz machinery.

    Scans all modulus**regions assignments and checks every crossing
    relation directly. Refuses (WorkBoundError) past ``region_cap``
    variables or MAX_STATES states. "enumerate" is the only method.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    if method != "enumerate":
        raise ValueError(f"unknown method: {method!r}")
    rm = trace_regions(d)
    if rm.region_count > region_cap:
        raise WorkBoundError(
            f"{rm.region_count} regions exceeds the enumeration cap {region_cap}")
    relations = [rel.coefficients() for rel in crossing_relations(d, rm)]
    return _count_solutions(rm.region_count, relations, modulus)


def arc_partition(d: Diagram) -> tuple[dict[int, int], int]:
    """Group edge labels into over-arcs.

    The over strand runs straight through each crossing, so the labels
    at slots 1 and 3 belong to the same arc; under-strand labels break
    there. Returns (label -> arc index, arc count) where the count
    includes one arc per free circle, numbered after the labeled ones.
    """
    labels = d.edge_labels()
    root = union_find(labels, ((c.slots[1], c.slots[3]) for c in d.crossings))
    root_index = {r: i for i, r in enumerate(sorted(set(root.values())))}
    return {v: root_index[root[v]] for v in labels}, len(root_index) + d.free_circles


def fox_count_bruteforce(d: Diagram, modulus: int, *, arc_cap: int = 8) -> int:
    """Count arc colorings over Z/modulus by direct enumeration.

    At every crossing twice the over-arc equals the sum of the two
    under-arc ends. Refuses past ``arc_cap`` arcs or MAX_STATES states.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    arc_of, n_arcs = arc_partition(d)
    if n_arcs > arc_cap:
        raise WorkBoundError(f"{n_arcs} arcs exceeds the enumeration cap {arc_cap}")
    relations = []
    for c in d.crossings:
        acc: dict[int, int] = {}
        for arc, coef in (
            (arc_of[c.slots[1]], 2),
            (arc_of[c.slots[0]], -1),
            (arc_of[c.slots[2]], -1),
        ):
            acc[arc] = acc.get(arc, 0) + coef
        relations.append(tuple((a, k) for a, k in sorted(acc.items()) if k))
    return _count_solutions(n_arcs, relations, modulus)


def coloring_equivalent(a: GoeritzData, b: GoeritzData) -> bool:
    """Whether two shaded diagrams present the same coloring groups:
    equal invariant factor multisets of the adjusted matrices once
    units are dropped. Zeros must match; only 1s are disposable."""
    fa = sorted(f for f in invariant_factors(a.adjusted) if f != 1)
    fb = sorted(f for f in invariant_factors(b.adjusted) if f != 1)
    return fa == fb
