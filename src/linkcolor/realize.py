"""Diagrams realizing prescribed invariant factors.

Any finite sequence of non-negative integers (f_1, ..., f_n) is the
torsion data of some diagram: chain one twist block per factor along a
closed strand. A factor f >= 1 becomes a row of f crossings all of one
sign; a factor 0 becomes a clasp, two crossings of opposite sign. The
blocks hang side by side under individual roof arcs, their bottoms
wired in series, and one long return edge closes the loop, so the
adjusted Goeritz matrix of the natural shading is diagonal blocks plus
a rim row and realizes (0, f_1, ..., f_n) on the nose.

Crossings are laid out by compass arms. A positive crossing reads
(NE, NW, SW, SE) into slots 0..3, putting the over strand on the
NW-SE diagonal; the negative layout (NW, SW, SE, NE) rotates the
strand one arm clockwise and flips the induced sign.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count

from .diagram import Crossing, Diagram, trace_regions
from .goeritz import GoeritzData, goeritz_matrix
from .intlattice import IntMatrix, WorkBoundError, invariant_factors
from .shading import checkerboard

__all__ = [
    "Realization",
    "realize",
    "verify_realization",
]

# Arm occupying slot i, by crossing sign.
_POS_ARMS = ("ne", "nw", "sw", "se")
_NEG_ARMS = ("nw", "sw", "se", "ne")

# A factor f costs f crossings (a 0 costs two) and the dense Goeritz
# matrix has one row per factor plus the rim. 2000 factors of 1 took
# 6.9 s and 700 MB, a single factor of 100000 2.9 s and 170 MB; these
# caps keep either part well under a second.
MAX_REALIZE_CROSSINGS = 10_000
MAX_REALIZE_ORDER = 400


@dataclass(frozen=True)
class Realization:
    """A built diagram plus the Goeritz data that certify it.

    ``goeritz`` comes from shading 0, the one leaving the unbounded
    region unshaded. Its rows/columns are permuted to construction
    order: one core region per block, the unbounded region last.
    """

    spec: tuple[int, ...]
    diagram: Diagram
    goeritz: GoeritzData


def realize(spec) -> Realization:
    """Build a diagram whose adjusted Goeritz matrix realizes (0, *spec)."""
    spec = tuple(int(f) for f in spec)
    if any(f < 0 for f in spec):
        raise ValueError("invariant factors are non-negative")
    crossings, order = sum(f or 2 for f in spec), len(spec) + 1
    if crossings > MAX_REALIZE_CROSSINGS or order > MAX_REALIZE_ORDER:
        if crossings.bit_length() > 256:  # str() refuses ints past 4,300 digits
            crossings = f"over 2^{crossings.bit_length() - 1}"
        raise WorkBoundError(
            f"realization needs {crossings} crossings and a matrix of order {order}, over the "
            f"caps of {MAX_REALIZE_CROSSINGS} crossings and order {MAX_REALIZE_ORDER}")
    if not spec:
        d = Diagram((), free_circles=1)
        rm = trace_regions(d)
        gd = goeritz_matrix(d, rm, checkerboard(rm)[0])
        return Realization(spec, d, gd)

    # One sign list per block; index ranges give each block's crossings.
    blocks = [[1, -1] if f == 0 else [1] * f for f in spec]
    spans = []
    base = 0
    for b in blocks:
        spans.append(range(base, base + len(b)))
        base += len(b)
    signs = [s for b in blocks for s in b]

    arms: list[dict[str, int]] = [{} for _ in range(base)]
    labels = count(1)

    def wire(c1: int, arm1: str, c2: int, arm2: str) -> None:
        lab = next(labels)
        arms[c1][arm1] = lab
        arms[c2][arm2] = lab

    for span in spans:
        wire(span[0], "nw", span[-1], "ne")
        for c in span[:-1]:
            wire(c, "ne", c + 1, "nw")
            wire(c, "se", c + 1, "sw")
    for left, right in zip(spans, spans[1:]):
        wire(left[-1], "se", right[0], "sw")
    wire(spans[-1][-1], "se", spans[0][0], "sw")

    d = Diagram(tuple(
        Crossing(tuple(arms[c][a] for a in (_POS_ARMS if signs[c] > 0 else _NEG_ARMS)))
        for c in range(base)))

    rm = trace_regions(d)
    gd = goeritz_matrix(d, rm, checkerboard(rm)[0])
    if gd.beta_s != 1:
        raise RuntimeError("realized diagram should have a connected shaded graph")
    # Cores sit under the roofs: the quadrant past slot 0 of each
    # block's first crossing faces north there.
    cores = [rm.quadrant_region[span[0]][0] for span in spans]
    order = (*cores, rm.unbounded_region)
    if sorted(order) != list(gd.unshaded_regions):
        raise RuntimeError("realized regions did not split into cores plus rim")
    idx = [gd.unshaded_regions.index(r) for r in order]
    m = IntMatrix.from_rows([[gd.matrix.entries[i][j] for j in idx] for i in idx], len(idx))
    return Realization(spec, d, replace(gd, unshaded_regions=order, matrix=m, adjusted=m))


def verify_realization(spec) -> bool:
    """Whether realize(spec) presents exactly the factors diag(0, *spec)
    would; exercises the construction end to end including the SNF."""
    r = realize(spec)
    target = IntMatrix.diagonal((0, *r.spec))
    return invariant_factors(r.goeritz.adjusted) == invariant_factors(target)
