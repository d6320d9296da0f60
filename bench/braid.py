"""Seeded braid-closure diagram codes.

A braid on ``strands`` strands is drawn bottom to top; generator
``(i, +1)`` or ``(i, -1)`` crosses the strands at positions i and i+1
(1-based), the sign choosing which one passes over. Each generator
becomes one ``X(...)`` crossing whose labels run counterclockwise from
the incoming under strand. Closing the braid joins the label leaving
the top of each position to the label entering its bottom, so the
final labels are renamed to the initial ones.

Every generator index appears at least once, so the closure is one
connected diagram with no free circles and, being planar, exactly
``crossings + 2`` complementary regions.
"""

from __future__ import annotations

import random

__all__ = ["braid_closure", "braid_word", "code_text"]


def braid_word(rng: random.Random, strands: int, crossings: int) -> list[tuple[int, int]]:
    """A random word of ``crossings`` generators using every index once at least.

    Indices are spread evenly over the ``strands - 1`` columns, so the
    Goeritz order of a closure depends on its size, not on the draw;
    the order of the letters and their signs are random.
    """
    if strands < 2 or crossings < strands - 1:
        raise ValueError("need at least two strands and one crossing per column")
    columns = strands - 1
    letters = [1 + k % columns for k in range(crossings)]
    rng.shuffle(letters)
    return [(i, rng.choice((1, -1))) for i in letters]


def braid_closure(strands: int, word) -> list[tuple[int, int, int, int]]:
    """Crossing label tuples of the closure of ``word``."""
    at = list(range(1, strands + 1))  # label currently entering each position
    nxt = strands + 1
    crossings = []
    for i, sign in word:
        if not 1 <= i < strands:
            raise ValueError(f"generator index {i} outside 1..{strands - 1}")
        sw, se = at[i - 1], at[i]
        nw, ne = nxt, nxt + 1
        nxt += 2
        # Counterclockwise around the crossing: SW, SE, NE, NW.
        if sign > 0:
            crossings.append((sw, se, ne, nw))  # under strand SW -> NE
        else:
            crossings.append((se, ne, nw, sw))  # under strand SE -> NW
        at[i - 1], at[i] = nw, ne
    close = {top: bottom for bottom, top in enumerate(at, start=1)}
    if any(top == bottom for top, bottom in close.items()):
        raise ValueError("every position needs a crossing")
    return [tuple(close.get(v, v) for v in c) for c in crossings]


def code_text(crossings) -> str:
    return ";".join("X({},{},{},{})".format(*c) for c in crossings)
