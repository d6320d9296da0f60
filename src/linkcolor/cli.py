"""Command-line front end.

Every subcommand reads diagram text from a file path (``-`` for
standard input) and prints a JSON report, or a terse text form under
``--plain``. Integers inside JSON are emitted as decimal strings so
arbitrary-precision values survive any consumer; matrices are row-major
arrays of such strings. Integers of any length are read and written,
whatever digit limit the interpreter sets on int/str conversion.

Exit codes: 0 success, 2 malformed input, 3 non-planar rotation data,
4 work bound exceeded: --bruteforce past coloring.MAX_FACTOR_WORK or
MAX_ELIMINATION_WORK, an snf matrix past MAX_SNF_WORK, or a realize
spec past its size caps.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .coloring import (
    ColoringReport,
    arc_partition,
    coloring_equivalent,
    dehn_count_bruteforce,
    dehn_structure,
    fox_count_bruteforce,
    structure_count,
)
from .diagram import (
    Diagram,
    DiagramError,
    NonPlanarError,
    parse_diagram,
    serialize_diagram,
    trace_regions,
)
from .goeritz import goeritz_matrix
from .intlattice import IntMatrix, WorkBoundError, smith_normal_form
from .realize import realize
from .shading import checkerboard, checkerboard_graphs

__all__ = ["main"]

# Work estimate of a witnessed Smith normal form: the Hermite passes
# and each of the min(rows, cols) pivots update rows and columns of the
# matrix and of both witnesses, (rows + cols)**2 entries, and the
# witnesses are printed. Witness entries stay near the size of the
# determinant, so the estimate counts operations, not digits. Dense
# order-63 input with entries in [-3, 3] fits and takes 0.2 s; order
# 120 is refused and would take about 1.2 s (2 vCPU, Python 3.11.7).
MAX_SNF_WORK = 2 ** 20

# Python 3.11 and later refuse int <-> str conversions of more than
# sys.get_int_max_str_digits() digits (4300 unless a caller changes it,
# never below 640). Splitting numerals into pieces of at most
# _SAFE_DIGITS digits keeps any length working without touching that
# process-wide setting.
_SAFE_DIGITS = 600


def _decimal(n: int) -> str:
    """str(n) for an int of any length."""
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() <= 3 * _SAFE_DIGITS:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits
    hi, lo = divmod(n, 10 ** k)
    return _decimal(hi) + _decimal(lo).zfill(k)


def _parse_int(text: str) -> int:
    """int(text, 10) for a numeral of any length."""
    s = text.strip()
    digits = s[1:] if s[:1] in ("+", "-") else s
    if len(digits) <= _SAFE_DIGITS or not (digits.isascii() and digits.isdigit()):
        return int(text, 10)
    k = len(digits) // 2
    value = _parse_int(digits[:-k]) * 10 ** k + _parse_int(digits[-k:])
    return -value if s[0] == "-" else value


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _load_diagram(path: str) -> Diagram:
    return parse_diagram(_read_text(path))


def _stringify(value):
    """Ints to decimal strings, recursively; everything else untouched."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return _decimal(value)
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, dict):
        return {k: _stringify(v) for k, v in value.items()}
    return value


def _emit(report: dict, plain_lines, plain: bool) -> None:
    if plain:
        for line in plain_lines:
            print(line)
    else:
        print(json.dumps(_stringify(report), indent=2))


def _parse_matrix_json(text: str) -> IntMatrix:
    try:
        data = json.loads(text, parse_int=_parse_int)
    except RecursionError:
        raise ValueError("matrix JSON nests too deeply") from None
    if isinstance(data, dict):
        if "matrix" not in data:
            raise ValueError("matrix object lacks a \"matrix\" key")
        data = data["matrix"]
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise ValueError("matrix JSON must be an array of arrays")
    # JSON numbers arrive as ints; strings are numerals, and anything
    # else (booleans, floats, nulls, arrays) fails to parse.
    rows = [[v if type(v) is int else _parse_int(str(v)) for v in row] for row in data]
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ValueError("ragged matrix JSON")
    return IntMatrix.from_rows(rows, widths.pop() if rows else 0)


def _shaded_goeritz(d: Diagram, index: int):
    rm = trace_regions(d)
    s = checkerboard(rm)[index]
    return rm, s, goeritz_matrix(d, rm, s)


def _matrix_rows(m: IntMatrix):
    return [" ".join(map(_decimal, row)) for row in m.entries]


def _cmd_regions(args) -> None:
    d = _load_diagram(args.path)
    rm = trace_regions(d)
    report = {
        "crossings": d.crossing_count,
        "free_circles": d.free_circles,
        "regions": rm.region_count,
        "unbounded": rm.unbounded_region,
        "quadrants": [list(q) for q in rm.quadrant_region],
        "circles": list(rm.circle_regions),
    }
    plain = [f"regions {rm.region_count}", f"unbounded {rm.unbounded_region}"]
    plain += [
        "crossing {}: {} {} {} {}".format(c, *rm.quadrant_region[c])
        for c in range(d.crossing_count)
    ]
    plain += [f"circle {i}: {r}" for i, r in enumerate(rm.circle_regions)]
    _emit(report, plain, args.plain)


def _cmd_shade(args) -> None:
    d = _load_diagram(args.path)
    rm = trace_regions(d)
    s = checkerboard(rm)[args.shading]
    gs, gu = checkerboard_graphs(d, rm, s)
    report = {
        "shading": s.index,
        "shaded": list(s.shaded_regions()),
        "unshaded": list(s.unshaded_regions()),
        "beta_s": gs.component_count,
        "beta_u": gu.component_count,
    }
    plain = [
        f"shading {s.index}",
        "shaded: " + " ".join(str(r) for r in s.shaded_regions()),
        "unshaded: " + " ".join(str(r) for r in s.unshaded_regions()),
        f"beta_s {gs.component_count}",
        f"beta_u {gu.component_count}",
    ]
    _emit(report, plain, args.plain)


def _cmd_matrix(args) -> None:
    d = _load_diagram(args.path)
    _, s, gd = _shaded_goeritz(d, args.shading)
    m = gd.adjusted if args.adjusted else gd.matrix
    report = {
        "shading": s.index,
        "unshaded_regions": list(gd.unshaded_regions),
        "beta_s": gd.beta_s,
        "matrix": m.to_lists(),
    }
    _emit(report, _matrix_rows(m), args.plain)


def _cmd_snf(args) -> None:
    m = _parse_matrix_json(_read_text(args.path))
    work = (min(m.rows, m.cols) + 1) * (m.rows + m.cols) ** 2
    if work > MAX_SNF_WORK:
        raise WorkBoundError(
            f"snf of a {m.rows}x{m.cols} matrix needs about {work} steps, "
            f"over the cap of {MAX_SNF_WORK}")
    res = smith_normal_form(m)
    report = {
        "phi": list(res.phi),
        "rank": res.rank,
        "u1": res.u1.to_lists(),
        "u2": res.u2.to_lists(),
        "normal_form": res.normal_form().to_lists(),
    }
    _emit(report, ["phi: " + " ".join(map(_decimal, res.phi))], args.plain)


def _structure(args) -> tuple[Diagram, ColoringReport]:
    d = _load_diagram(args.path)
    rm = trace_regions(d)
    return d, dehn_structure(d, checkerboard(rm)[args.shading], region_map=rm)


def _cmd_colorings(args) -> None:
    d, rep = _structure(args)
    report = {
        "phi": list(rep.phi),
        "modulus": args.mod,
        "dehn_order_mod_m": structure_count(rep, args.mod, "dehn"),
        "fox_order_mod_m": structure_count(rep, args.mod, "fox"),
    }
    plain = [
        "phi: " + " ".join(map(_decimal, rep.phi)),
        f"dehn_order_mod_{_decimal(args.mod)}: {_decimal(report['dehn_order_mod_m'])}",
        f"fox_order_mod_{_decimal(args.mod)}: {_decimal(report['fox_order_mod_m'])}",
    ]
    if args.bruteforce:
        n = dehn_count_bruteforce(d, args.mod, region_cap=None)
        report["bruteforce"] = n
        plain.append(f"bruteforce: {_decimal(n)}")
    _emit(report, plain, args.plain)


def _cmd_fox(args) -> None:
    d, rep = _structure(args)
    _, n_arcs = arc_partition(d)
    report = {
        "arc_count": n_arcs,
        "phi": list(rep.phi),
        "modulus": args.mod,
        "fox_order_mod_m": structure_count(rep, args.mod, "fox"),
    }
    plain = [
        f"arcs: {n_arcs}",
        "phi: " + " ".join(map(_decimal, rep.phi)),
        f"fox_order_mod_{_decimal(args.mod)}: {_decimal(report['fox_order_mod_m'])}",
    ]
    if args.bruteforce:
        n = fox_count_bruteforce(d, args.mod, arc_cap=None)
        report["bruteforce"] = n
        plain.append(f"bruteforce: {_decimal(n)}")
    _emit(report, plain, args.plain)


def _parse_spec(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        spec = tuple(_parse_int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad factor list: {text!r}") from None
    if any(f < 0 for f in spec):
        raise ValueError("factors must be non-negative")
    return spec


def _cmd_realize(args) -> None:
    r = realize(_parse_spec(args.spec))
    report = {
        "spec": list(r.spec),
        "diagram": serialize_diagram(r.diagram),
        "shading": 0,
        "matrix": r.goeritz.adjusted.to_lists(),
    }
    plain = [serialize_diagram(r.diagram)] + _matrix_rows(r.goeritz.adjusted)
    _emit(report, plain, args.plain)


def _cmd_compare(args) -> None:
    da = _load_diagram(args.path_a)
    db = _load_diagram(args.path_b)
    verdicts = {}
    for idx in (0, 1):
        _, _, ga = _shaded_goeritz(da, idx)
        _, _, gb = _shaded_goeritz(db, idx)
        verdicts[f"shading{idx}"] = coloring_equivalent(ga, gb)
    plain = [
        f"shading{i}: " + ("equivalent" if verdicts[f"shading{i}"] else "not equivalent")
        for i in (0, 1)
    ]
    _emit(verdicts, plain, args.plain)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="linkcolor",
        description="Goeritz matrices, Smith normal forms and coloring "
                    "invariants of link diagram codes.")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def add(name: str, handler, help_text: str, *, diagram_input: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--plain", action="store_true",
                       help="terse text output instead of JSON")
        if diagram_input:
            p.add_argument("path", help="diagram file, or - for stdin")
        return p

    add("regions", _cmd_regions, "trace complementary regions")

    p = add("shade", _cmd_shade, "checkerboard shading and graph components")
    p.add_argument("--shading", type=int, choices=(0, 1), default=0)

    p = add("matrix", _cmd_matrix, "Goeritz matrix of a shading")
    p.add_argument("--shading", type=int, choices=(0, 1), default=0)
    p.add_argument("--adjusted", action="store_true",
                   help="emit the zero-padded adjusted form")

    add("snf", _cmd_snf, "Smith normal form of a JSON matrix")

    for name, handler, help_text in (
        ("colorings", _cmd_colorings, "Dehn/Fox group orders over Z/m"),
        ("fox", _cmd_fox, "arc count and Fox order over Z/m"),
    ):
        p = add(name, handler, help_text)
        p.add_argument("--shading", type=int, choices=(0, 1), default=0)
        p.add_argument("--mod", type=_parse_int, required=True, metavar="M",
                       help="modulus, at least 2")
        p.add_argument("--bruteforce", action="store_true",
                       help="also enumerate colorings directly")

    p = add("realize", _cmd_realize, "diagram realizing given factors",
            diagram_input=False)
    p.add_argument("spec", nargs="?", default="",
                   help="comma-separated non-negative factors, e.g. 0,3,3,1")

    p = add("compare", _cmd_compare, "coloring equivalence of two diagrams",
            diagram_input=False)
    p.add_argument("path_a", help="first diagram file")
    p.add_argument("path_b", help="second diagram file")

    return top


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.handler(args)
    except NonPlanarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except WorkBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DiagramError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
