"""Coloring counts and group structure.

Two routes to the same numbers live here on purpose. The structural
route reads the invariant factors of an adjusted Goeritz matrix and
predicts how many colorings exist over any Z/m. The direct route never
looks at a Goeritz matrix or an integer reduction: it counts the
solutions of the crossing relations mod m straight from the diagram,
summing out one variable at a time within a fixed budget of table
entries. Tests lean on their agreement, so neither side may borrow from
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


# The work budget of one count, in table entries: every indicator
# table, product and marginal the elimination allocates counts against
# it, so it bounds memory (about 32 MB for an int64 table at the cap)
# and work whatever the modulus. The catalog's worst case at m <= 9
# needs about 33,000 entries; seeded braid closures of 30-40 crossings
# at m <= 3 stay under 700,000.
MAX_TABLE_ENTRIES = 2 ** 22


def _elimination_order(scopes: list[frozenset], modulus: int) -> tuple[list[int], int]:
    """Greedy min-fill elimination order and the table entries it allocates.

    A variable's bucket is the union of the scopes mentioning it. The
    next variable is the one whose elimination joins the fewest pairs
    of bucket variables that share no scope yet, then the one with the
    smaller bucket, then the lower index. The entry count follows
    _count_solutions exactly: one table per scope, one per pairwise
    product inside a bucket, one per marginal.
    """
    # nbrs[v]: v's bucket, v included.
    nbrs: dict[int, set[int]] = {}
    for s in scopes:
        for v in s:
            nbrs.setdefault(v, set()).update(s)

    def cost(u: int) -> tuple[int, int, int]:
        others = nbrs[u] - {u}
        fill = sum(len(others - nbrs[w]) for w in others) // 2
        return fill, len(others), u

    entries = sum(modulus ** len(s) for s in scopes)
    order = []
    while nbrs:
        v = min(nbrs, key=cost)
        touching = [s for s in scopes if v in s]
        union = touching[0]
        for s in touching[1:]:
            union |= s
            entries += modulus ** len(union)
        rest = union - {v}
        entries += modulus ** len(rest)
        scopes = [s for s in scopes if v not in s] + [rest]
        del nbrs[v]
        for u in rest:
            nbrs[u] |= rest
            nbrs[u].discard(v)
        order.append(v)
    return order, entries


def _indicator(coefs: list[int], modulus: int, dtype) -> np.ndarray:
    """0/1 table over (Z/modulus)^len(coefs), 1 where sum(c * x) == 0."""
    k = len(coefs)
    acc = np.zeros((1,) * k, dtype=np.int64)
    for axis, c in enumerate(coefs):
        shape = [1] * k
        shape[axis] = modulus
        acc = (acc + c * np.arange(modulus, dtype=np.int64).reshape(shape)) % modulus
    return (acc == 0).astype(dtype)


def _count_solutions(nvars: int, relations, modulus: int) -> int:
    """Count assignments in (Z/modulus)^nvars satisfying linear relations.

    relations is a list of (index, coefficient) lists, each meaning
    sum(coefficient * x[index]) == 0 mod modulus; an index may repeat.
    Each relation becomes a 0/1 indicator table over its variables, and
    the variables are summed out one at a time (bucket elimination) in
    the order _elimination_order picks; a variable no relation mentions
    contributes a factor of modulus.

    When every relation's coefficients sum to 0 mod modulus, adding one
    constant to every variable permutes the solutions in orbits of
    size modulus, so the variable in most relations is pinned to 0 and
    counted as free. Table entries count partial assignments, so tables
    are int64 only while modulus**variables < 2**63 and hold Python
    ints beyond that: the count is exact at any size. Refuses
    (WorkBoundError) before allocating anything when the tables would
    hold more than MAX_TABLE_ENTRIES entries in total.
    """
    terms = []
    for rel in relations:
        acc: dict[int, int] = {}
        for var, coef in rel:
            acc[var] = (acc.get(var, 0) + coef) % modulus
        terms.append({v: c for v, c in acc.items() if c})
    if nvars and all(sum(t.values()) % modulus == 0 for t in terms):
        pin = max(range(nvars), key=lambda v: (sum(v in t for t in terms), -v))
        for t in terms:
            t.pop(pin, None)
    terms = [t for t in terms if t]
    order, entries = _elimination_order([frozenset(t) for t in terms], modulus)
    if entries > MAX_TABLE_ENTRIES:
        raise WorkBoundError(
            f"elimination needs {entries} table entries, over the cap of {MAX_TABLE_ENTRIES}")
    dtype = np.int64 if modulus ** len(order) < 2 ** 63 else object
    tables = []
    for t in terms:
        scope = sorted(t)
        tables.append((scope, _indicator([t[v] for v in scope], modulus, dtype)))
    for v in order:
        touching = [f for f in tables if v in f[0]]
        tables = [f for f in tables if v not in f[0]]
        union = sorted(set().union(*(scope for scope, _ in touching)))
        prod = None
        for scope, table in touching:
            view = table.reshape([modulus if u in scope else 1 for u in union])
            prod = view if prod is None else prod * view
        tables.append(([u for u in union if u != v], prod.sum(axis=union.index(v))))
    count = modulus ** (nvars - len(order))
    for _, table in tables:
        count *= int(table)
    return count


def dehn_count_bruteforce(
    d: Diagram,
    modulus: int,
    *,
    method: str = "enumerate",
    region_cap: int = 8,
) -> int:
    """Count region colorings over Z/modulus without Goeritz machinery.

    Counts the solutions of the crossing relations mod modulus by
    variable elimination (_count_solutions), one variable per region.
    Refuses (WorkBoundError) past ``region_cap`` variables or
    MAX_TABLE_ENTRIES table entries. "enumerate" is the only method.
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
    """Count arc colorings over Z/modulus without Goeritz machinery.

    At every crossing twice the over-arc equals the sum of the two
    under-arc ends; the solutions are counted by variable elimination
    (_count_solutions), one variable per arc. Refuses past ``arc_cap``
    arcs or MAX_TABLE_ENTRIES table entries.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    arc_of, n_arcs = arc_partition(d)
    if n_arcs > arc_cap:
        raise WorkBoundError(f"{n_arcs} arcs exceeds the enumeration cap {arc_cap}")
    relations = [((arc_of[c.slots[1]], 2), (arc_of[c.slots[0]], -1), (arc_of[c.slots[2]], -1))
                 for c in d.crossings]
    return _count_solutions(n_arcs, relations, modulus)


def coloring_equivalent(a: GoeritzData, b: GoeritzData) -> bool:
    """Whether two shaded diagrams present the same coloring groups:
    equal invariant factor multisets of the adjusted matrices once
    units are dropped. Zeros must match; only 1s are disposable."""
    fa = sorted(f for f in invariant_factors(a.adjusted) if f != 1)
    fb = sorted(f for f in invariant_factors(b.adjusted) if f != 1)
    return fa == fb
