"""Spans around calls into linkcolor's public functions.

``instrument`` swaps each traced function for a wrapper in every
``linkcolor`` module namespace that binds it, so calls between modules
(``dehn_structure`` calling ``goeritz_matrix``, ``cli.main`` calling
``realize``) are recorded from outside the library, and restores the
originals on exit. A span is ``[name, start, end, parent, op, probe]``;
``probe`` holds sizes read from the call's arguments and result after
the span has closed, so reading them is not charged to the layer.
"""

from __future__ import annotations

import contextlib
import json
import sys
from time import perf_counter

NAME, START, END, PARENT, OP, PROBE = range(6)


def _bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


def _matrix_bits(m) -> int:
    return max((_bits(row) for row in m.entries), default=0)


def _factors(phi) -> dict:
    return {"factor_bits": _bits(phi), "unit_factors": sum(1 for f in phi if f == 1),
            "factors": len(phi)}


def _probe_trace(args, result, parent):
    return {"crossings": args[0].crossing_count, "regions": result.region_count}


def _probe_goeritz(args, result, parent):
    m = result.adjusted
    return {"order": m.rows, "nonzeros": sum(1 for row in m.entries for v in row if v)}


def _probe_factors(args, result, parent):
    # Only the outermost call into intlattice speaks for the answer.
    if parent is not None and parent.startswith("intlattice."):
        return None
    return _factors(result)


def _probe_snf(args, result, parent):
    # Inside invariant_factors the witnesses are thrown away: that call
    # is the factors-only path, not the witness path.
    if parent == "intlattice.invariant_factors":
        return None
    probe = _probe_factors(args, result.phi, parent) or {}
    probe["witness_bits"] = max(_matrix_bits(result.u1), _matrix_bits(result.u2))
    return probe


def _probe_realize(args, result, parent):
    return {"crossings": result.diagram.crossing_count}


# The layer boundaries: qualified name -> probe (or None).
TRACED = {
    "diagram.parse_diagram": None,
    "diagram.trace_regions": _probe_trace,
    "shading.checkerboard": None,
    "shading.checkerboard_graphs": None,
    "goeritz.goeritz_matrix": _probe_goeritz,
    "goeritz.adjusted_goeritz": None,
    "intlattice.invariant_factors": _probe_factors,
    "intlattice.smith_normal_form": _probe_snf,
    "coloring.dehn_structure": None,
    "coloring.structure_count": None,
    "coloring.dehn_count_bruteforce": None,
    "coloring.fox_count_bruteforce": None,
    "coloring.arc_partition": None,
    "realize.realize": _probe_realize,
    "cli.main": None,
}


class Tracer:
    """In-memory span list; ``op`` tags new spans with the current operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn, probe):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if probe is not None:
                parent = span[PARENT]
                span[PROBE] = probe(args, result, None if parent is None else self.spans[parent][NAME])
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body; yields the span's list."""
        parent = self.stack[-1] if self.stack else None
        span = [name, 0.0, 0.0, parent, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            yield span
        finally:
            span[END] = perf_counter()
            self.stack.pop()

    def dump(self, path, origin: float) -> None:
        """Write one JSON object per span, times in seconds from ``origin``."""
        with open(path, "w", encoding="ascii") as fh:
            for sid, (name, start, end, parent, op, probe) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "op": op,
                    **({"probe": probe} if probe else {})}) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every binding of each traced function through ``tracer``."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "linkcolor" or n.startswith("linkcolor."))]
    swaps = []
    for qual, probe in TRACED.items():
        mod, fname = qual.split(".")
        fn = getattr(sys.modules["linkcolor." + mod], fname)
        wrapper = tracer.wrap(qual, fn, probe)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    swaps.append((m, attr, fn))
                    setattr(m, attr, wrapper)
    try:
        yield tracer
    finally:
        for m, attr, fn in swaps:
            setattr(m, attr, fn)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own
