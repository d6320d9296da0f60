"""Byte-for-byte regression table for the command line.

Each case runs ``linkcolor.cli.main`` in-process, from inside
``tests/data/golden`` so that file arguments are relative, and compares
the exit code and the sha256 of standard output with the table in
``tests/data/cli_golden.json``. A case reads like a shell line:
``realize 0,3 | snf -`` feeds one stage's stdout to the next, and
``regions - < trefoil.txt`` feeds a file to standard input.

Rebuild the table only when an output change is intended::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from linkcolor.catalog import names
from linkcolor.cli import main

DATA = Path(__file__).parent / "data"
INPUTS = DATA / "golden"
TABLE = DATA / "cli_golden.json"

DIAGRAMS = (*names(), "trefoil_circle", "two_kinks", "trefoil_hopf",
            "nonplanar", "nonplanar_split", "label_once", "unknown_item", "absent")
MATRICES = ("golden", "strings", "wide", "tall", "empty", "empty_row",
            "ragged", "bad_json", "no_key", "not_rows", "absent")
SPECS = ("", "0", "1", "2", "0,0", "6,4", "0,3,3,1", "2,0,5", "3,x", "3,-1")
MODULI = (2, 3, 4, 6)


def cases() -> list[str]:
    out = []
    for fmt in ("", "--plain "):
        for name in DIAGRAMS:
            path = f"{name}.txt"
            out.append(f"regions {fmt}{path}")
            for s in (0, 1):
                out.append(f"shade {fmt}--shading {s} {path}")
                out.append(f"matrix {fmt}--shading {s} {path}")
                out.append(f"matrix {fmt}--shading {s} --adjusted {path}")
                for m in MODULI:
                    for cmd in ("colorings", "fox"):
                        out.append(f"{cmd} {fmt}--shading {s} --mod {m} {path}")
                        out.append(f"{cmd} {fmt}--shading {s} --mod {m} --bruteforce {path}")
        for cmd in ("colorings", "fox"):
            out.append(f"{cmd} {fmt}--mod 1 trefoil.txt")
        out.append(f"regions {fmt}- < trefoil.txt")
        out.append(f"matrix {fmt}--adjusted - < unlink2.txt")
        for name in MATRICES:
            out.append(f"snf {fmt}{name}.json")
        out.append(f"snf {fmt}- < golden.json")
        for spec in SPECS:
            out.append(f"realize {fmt}{spec}".rstrip())
            out.append(f"realize {spec} | snf {fmt}-".replace("  ", " "))
        for a in names():
            for b in names():
                out.append(f"compare {fmt}{a}.txt {b}.txt")
        out.append(f"compare {fmt}trefoil.txt absent.txt")
    out += ["colorings trefoil.txt", "frobnicate trefoil.txt", "matrix --shading 2 trefoil.txt"]
    return out


def run_case(case: str) -> list:
    """[exit code of the last stage, sha256 of its stdout]."""
    line, _, source = case.partition(" < ")
    data = (INPUTS / source).read_text() if source else ""
    for stage in line.split(" | "):
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(data)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(stage.split())
        finally:
            sys.stdin = saved
        data = out.getvalue()
    return [code, hashlib.sha256(data.encode()).hexdigest()]


GROUPS = sorted({c.split()[0] for c in cases()})


@pytest.mark.parametrize("group", GROUPS)
def test_cli_matches_golden_table(group, monkeypatch):
    table = json.loads(TABLE.read_text())
    monkeypatch.chdir(INPUTS)
    mine = [c for c in cases() if c.split()[0] == group]
    assert mine and all(c in table for c in mine)
    wrong = [(c, table[c], got) for c in mine if (got := run_case(c)) != table[c]]
    assert not wrong, f"{len(wrong)} of {len(mine)} cases differ, first: {wrong[:3]}"


def test_table_covers_every_case():
    assert sorted(json.loads(TABLE.read_text())) == sorted(cases())


if __name__ == "__main__":
    os.chdir(INPUTS)
    rows = (f"{json.dumps(c)}: {json.dumps(run_case(c))}" for c in sorted(cases()))
    TABLE.write_text("{\n" + ",\n".join(rows) + "\n}\n")
