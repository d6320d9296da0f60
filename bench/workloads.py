"""The benchmark's two workloads, generated from a seed.

braid_structural is one pool of braid closures. catalog_cli joins two
pools: catalog_oracle (the structural counts against both enumerations)
and cli_realize_snf (the Smith normal form's witness path through the
CLI). Two workloads rather than three leave each run the time to
measure through the slow phases of a shared host.

A workload is a pool of operations. One pass runs every operation of a
pool once, in a seeded order, and every pass draws a fresh pool from
``(seed, turn)``: the same sizes, moduli and catalog diagrams in the
same slots, but new braid words, factor lists and matrix entries, and
catalog codes with their crossings listed from another starting point.
So no pass repeats an input string of an earlier pass, and a cache
between calls cannot turn later passes into hits. Sizes and moduli are
fixed ladders; the seed draws the inputs at those sizes.

An operation is a callable returning its answer; ``check`` raises
AssertionError on a wrong answer and otherwise returns the counts the
answer carries. Checks run outside the timed region and never call the
code path they check.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from typing import Callable

import linkcolor as lc
from linkcolor import cli

from braid import braid_closure, braid_word, code_text
from checks import FOX_PRIMES, check_fox, check_snf_report, diagonal_factors


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], dict]


@dataclass
class Workload:
    name: str
    ops: list[Op] = field(default_factory=list)


# Braid closures: (crossings, strands, copies). Odd strand counts give
# an even number of columns, so both shadings get the same share of
# crossings whichever column the first letter lands in. Diagrams of one
# size differ in Smith normal form cost by 10-25%, so the copies put
# the 50th percentile of the 105 operations in the middle of the 120
# class and the 90th in the middle of the 240 class, away from the gaps
# between classes, where a percentile would swing with the draw.
BRAID_LADDER = ((50, 5, 20), (80, 7, 20), (120, 9, 24), (170, 11, 24),
                (240, 13, 13), (400, 15, 3), (600, 19, 1))

# catalog_oracle: crossing count of the realized diagrams at each
# modulus, REALIZE_COPIES of each; m ** (crossings + 2) states stays
# well below the catalog's largest case.
REALIZE_CROSSINGS = {4: 6, 5: 5, 6: 4, 7: 4, 8: 4, 9: 4}
REALIZE_COPIES = 5
ENUM_CAP = 8

# cli_realize_snf: factor-list lengths of `realize | snf -`, and orders
# of the dense matrices given to `snf`. In the catalog_cli pool a
# 16-factor spec costs about as much as the median operation and an
# order-36 matrix about as much as the 90th percentile, so the copies of
# those two sizes put p50 and p90 inside a block of operations of one
# size. There a percentile follows the cost of that size, not which
# inputs the seed happens to draw.
CLI_SPEC_LENGTHS = (4, 8, 12) + (16,) * 40 + (20, 24, 28, 32, 36, 40)
CLI_DENSE_ORDERS = (20, 24, 28, 32) + (36,) * 10 + (44, 52, 60)


def _rng(seed: int, turn: int, part: str) -> random.Random:
    return random.Random(f"{seed}/{turn}/{part}")


def braid_structural(seed: int, turn: int) -> Workload:
    """Braid closures through parse_diagram -> dehn_structure -> structure_count."""
    rng = _rng(seed, turn, "braid")
    wl = Workload("braid_structural")
    for crossings, strands, copies in BRAID_LADDER:
        for k in range(copies):
            xs = braid_closure(strands, braid_word(rng, strands, crossings))
            code = code_text(xs)
            regions = lc.trace_regions(lc.parse_diagram(code)).region_count
            if regions != crossings + 2:
                raise RuntimeError(f"closure traced {regions} regions for {crossings} crossings")
            wl.ops.append(Op(f"braid c={crossings} s={strands} #{k}",
                             _braid_run(code), _braid_check(xs)))
    return wl


def _braid_run(code: str):
    def run():
        rep = lc.dehn_structure(lc.parse_diagram(code))
        return {p: lc.structure_count(rep, p, "fox") for p in FOX_PRIMES}
    return run


def _braid_check(crossings):
    def check(answer):
        check_fox(crossings, answer)
        return {}
    return check


def _spec_with_crossings(rng: random.Random, total: int) -> tuple[int, ...]:
    """Random factors whose realized diagram has ``total`` crossings
    (a factor f >= 1 takes f crossings, a 0 takes two)."""
    spec = []
    while total:
        f = rng.choice([v for v in range(total + 1) if (v or 2) <= total])
        spec.append(f)
        total -= f or 2
    return tuple(spec)


def _rotated(code: str, turn: int) -> str:
    """The same diagram with its crossings listed from another start."""
    items = [item for item in code.replace("\n", ";").split(";") if item.strip()]
    k = turn % len(items)
    return ";".join(items[k:] + items[:k])


def catalog_oracle(seed: int, turn: int) -> Workload:
    """Every catalog diagram at moduli 2-9, plus seeded realized diagrams
    within the enumeration cap: structural counts against both enumerations."""
    rng = _rng(seed, turn, "realize")
    wl = Workload("catalog_oracle")
    cases = [(name, _rotated(lc.CODES[name], turn), None, m)
             for name in lc.names() for m in range(2, 10)]
    for m, crossings in [kv for kv in REALIZE_CROSSINGS.items() for _ in range(REALIZE_COPIES)]:
        while True:
            spec = _spec_with_crossings(rng, crossings)
            d = lc.realize(spec).diagram
            if lc.arc_partition(d)[1] <= ENUM_CAP:
                break
        cases.append((f"realize{list(spec)}", lc.serialize_diagram(d), spec, m))
    for name, code, spec, m in cases:
        d = lc.parse_diagram(code)
        states = m ** lc.trace_regions(d).region_count + m ** lc.arc_partition(d)[1]
        wl.ops.append(Op(f"{name} m={m}", _catalog_run(code, m), _catalog_check(spec, states)))
    return wl


def _catalog_run(code: str, m: int):
    def run():
        d = lc.parse_diagram(code)
        rep = lc.dehn_structure(d)
        return (lc.structure_count(rep, m, "dehn"), lc.structure_count(rep, m, "fox"),
                lc.dehn_count_bruteforce(d, m, method="enumerate", region_cap=ENUM_CAP),
                lc.fox_count_bruteforce(d, m, arc_cap=ENUM_CAP), rep.phi)
    return run


def _catalog_check(spec, states: int):
    def check(answer):
        dehn, fox, dehn_enum, fox_enum, phi = answer
        if (dehn, fox) != (dehn_enum, fox_enum):
            raise AssertionError(f"structure ({dehn}, {fox}) != enumeration ({dehn_enum}, {fox_enum})")
        if spec is not None and phi != diagonal_factors((0, *spec)):
            raise AssertionError(f"phi {phi} does not realize {spec}")
        return {"states": states, "solutions": dehn_enum + fox_enum}
    return check


def _cli(argv, stdin: str = "") -> str:
    """Run ``linkcolor ARGV`` in-process on ``stdin``; return its stdout."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    if code != 0:
        raise RuntimeError(f"linkcolor {' '.join(argv)} exited {code}")
    return out.getvalue()


def cli_realize_snf(seed: int, turn: int) -> Workload:
    """In-process `linkcolor realize SPEC | linkcolor snf -`, and
    `linkcolor snf -` on dense matrices: the witness path and the JSON layer."""
    rng = _rng(seed, turn, "cli")
    wl = Workload("cli_realize_snf")
    for n in CLI_SPEC_LENGTHS:
        spec = tuple(rng.randint(0, 9) for _ in range(n))
        text = ",".join(map(str, spec))
        wl.ops.append(Op(f"realize|snf {n} factors", _pipe_run(text), _pipe_check(spec)))
    for n in CLI_DENSE_ORDERS:
        matrix = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        text = json.dumps([[str(v) for v in row] for row in matrix])
        wl.ops.append(Op(f"snf dense {n}x{n}", _snf_run(text), _snf_check(matrix)))
    return wl


def _pipe_run(spec_text: str):
    def run():
        built = _cli(["realize", spec_text])
        return built, _cli(["snf", "-"], built)
    return run


def _pipe_check(spec):
    def check(answer):
        built, reduced = answer
        matrix = [[int(v) for v in row] for row in json.loads(built)["matrix"]]
        phi = check_snf_report(json.loads(reduced), matrix)
        if phi != diagonal_factors((0, *spec)):
            raise AssertionError(f"phi {phi} does not realize {spec}")
        return {"output_bytes": len(built) + len(reduced)}
    return check


def _snf_run(matrix_text: str):
    return lambda: _cli(["snf", "-"], matrix_text)


def _snf_check(matrix):
    def check(answer):
        check_snf_report(json.loads(answer), matrix)
        return {"output_bytes": len(answer)}
    return check


def catalog_cli(seed: int, turn: int) -> Workload:
    """The catalog_oracle operations and the cli_realize_snf operations in
    one pool: enumeration and the witness path, which the braid closures
    both bypass."""
    return Workload("catalog_cli", catalog_oracle(seed, turn).ops + cli_realize_snf(seed, turn).ops)


WORKLOADS = {
    "braid_structural": braid_structural,
    "catalog_cli": catalog_cli,
}
