"""Coloring counts and group structure.

Two routes to the same numbers live here on purpose. The structural
route reads the invariant factors of an adjusted Goeritz matrix and
predicts how many colorings exist over any Z/m. The direct route never
looks at a Goeritz matrix or an integer reduction: it counts the
solutions of the crossing relations mod m straight from the diagram,
by exact sparse elimination over each prime power of m. Tests lean
on their agreement, so neither side may borrow from the other.

Region colorings obey, at each crossing, the rule that the two
quadrants flanking one end of the over strand sum to the same value as
the two flanking the other end. Arc colorings live on over-arcs and
obey twice-the-over equals the sum of the two under ends. Free circles
contribute one unconstrained region (and one unconstrained arc) each.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd

from .diagram import Diagram, RegionMap, trace_regions, union_find
from .goeritz import GoeritzData, goeritz_matrix
from .intlattice import GroupDescriptor, WorkBoundError, cokernel_descriptor, invariant_factors
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


# Work caps of one direct count, in word operations: a trial division
# or an entry update costs one per 64-bit word of the number it works on
# (the modulus, or p**k); about 10^6 run per second. Factoring splits
# any modulus below 4 * 10^12, or whose second-largest prime factor is
# below 2 * 10^6. 1000-crossing braid closures at m = 10^6 take at most
# about 53,000 elimination operations per count.
MAX_FACTOR_WORK = 2 ** 20
MAX_ELIMINATION_WORK = 2 ** 21


def _words(n: int) -> int:
    return -(-n.bit_length() // 64)


def _prime_powers(m: int) -> dict[int, int]:
    """{p: k} with m == prod(p**k), by trial division within MAX_FACTOR_WORK."""
    factors: dict[int, int] = {}
    work, d = 0, 2
    while d * d <= m:
        work += _words(m)
        if work > MAX_FACTOR_WORK:
            left = work + (1 << (m.bit_length() + 1) // 2) // 2 * _words(m)
            raise WorkBoundError(
                f"factoring the modulus needs up to 2^{left.bit_length()} word operations "
                f"of trial division, over the cap of {MAX_FACTOR_WORK}")
        if m % d:
            d += 1 if d == 2 else 2
        else:
            m //= d
            factors[d] = factors.get(d, 0) + 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def _count_mod(nvars: int, relations, q: int, work: int) -> tuple[int, int]:
    """(solutions mod q, work) for q a prime power, by sparse elimination.

    gcd(c, q) is p**e for an entry c of p-adic valuation e. The pivot is
    an entry of least valuation in the shortest row holding one, in the
    column with fewest entries. Clearing its column keeps every
    valuation at least e, so the pivot row then admits exactly p**e
    values of its variable whatever the others are. Each variable left
    without a pivot is free and contributes q.
    """
    rows, cols = {}, {}
    for i, rel in enumerate(relations):
        row: dict[int, int] = {}
        for v, c in rel:
            row[v] = (row.get(v, 0) + c) % q
        rows[i] = {v: c for v, c in row.items() if c}
        for v in rows[i]:
            cols.setdefault(v, set()).add(i)

    def key(row: dict[int, int]) -> tuple[int, int]:
        return min(gcd(c, q) for c in row.values()), len(row)

    heap = [(*key(row), i) for i, row in rows.items() if row]
    heapify(heap)
    count, free = 1, nvars
    while heap:
        g, size, i = heappop(heap)
        row = rows.get(i)
        if not row or key(row) != (g, size):
            continue
        del rows[i]
        v = min((u for u, c in row.items() if gcd(c, q) == g), key=lambda u: (len(cols[u]), u))
        hits = cols[v] - {i}
        work += len(hits) * size * _words(q)
        if work > MAX_ELIMINATION_WORK:
            raise WorkBoundError(
                f"elimination needs at least {work} word operations, "
                f"over the cap of {MAX_ELIMINATION_WORK}")
        inverse = pow(row[v] // g, -1, q)
        for j in hits:
            other = rows[j]
            f = other[v] // g * inverse % q
            for u, c in row.items():
                x = (other.get(u, 0) - f * c) % q
                if x:
                    other[u] = x
                    cols[u].add(j)
                else:
                    other.pop(u, None)
                    cols[u].discard(j)
            if other:
                heappush(heap, (*key(other), j))
        for u in row:
            cols[u].discard(i)
        count *= g
        free -= 1
    return count * q ** free, work


def _count_solutions(nvars: int, relations, modulus: int) -> int:
    """Count assignments in (Z/modulus)^nvars satisfying linear relations.

    relations is a list of (index, coefficient) lists, each meaning
    sum(coefficient * x[index]) == 0 mod modulus; an index may repeat.
    By the Chinese remainder theorem the count is the product of the
    counts mod each prime power p**k of modulus (_count_mod). Over a
    diagonal form the count mod p**k is the product of gcd(d_i, p**k)
    (Newman, Integral Matrices, 1972). Refuses (WorkBoundError) past
    MAX_FACTOR_WORK or MAX_ELIMINATION_WORK.
    """
    count, work = 1, 0
    for p, k in _prime_powers(modulus).items():
        n, work = _count_mod(nvars, relations, p ** k, work)
        count *= n
    return count


def dehn_count_bruteforce(
    d: Diagram,
    modulus: int,
    *,
    method: str = "enumerate",
    region_cap: int | None = 8,
) -> int:
    """Count region colorings over Z/modulus without Goeritz machinery.

    Counts the solutions of the crossing relations mod modulus by
    sparse elimination (_count_solutions), one variable per region.
    Refuses (WorkBoundError) past ``region_cap`` variables, unless it
    is None, or past the work caps of _count_solutions. "enumerate" is
    the only method.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    if method != "enumerate":
        raise ValueError(f"unknown method: {method!r}")
    rm = trace_regions(d)
    if region_cap is not None and rm.region_count > region_cap:
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


def fox_count_bruteforce(d: Diagram, modulus: int, *, arc_cap: int | None = 8) -> int:
    """Count arc colorings over Z/modulus without Goeritz machinery.

    At every crossing twice the over-arc equals the sum of the two
    under-arc ends; the solutions are counted by sparse elimination
    (_count_solutions), one variable per arc. Refuses past ``arc_cap``
    arcs, unless it is None, or past the work caps of _count_solutions.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    arc_of, n_arcs = arc_partition(d)
    if arc_cap is not None and n_arcs > arc_cap:
        raise WorkBoundError(f"{n_arcs} arcs exceeds the enumeration cap {arc_cap}")
    relations = [((arc_of[c.slots[1]], 2), (arc_of[c.slots[0]], -1), (arc_of[c.slots[2]], -1))
                 for c in d.crossings]
    return _count_solutions(n_arcs, relations, modulus)


def coloring_equivalent(a: GoeritzData, b: GoeritzData) -> bool:
    """Whether two shaded diagrams present the same coloring groups:
    equal invariant factor multisets of the adjusted matrices once
    units are dropped. Zeros must match; only 1s are disposable."""
    return cokernel_descriptor(a.adjusted) == cokernel_descriptor(b.adjusted)
