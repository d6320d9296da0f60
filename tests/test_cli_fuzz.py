"""Fuzz of ``linkcolor.cli.main``: every input, however malformed, ends
in exit code 0, 2, 3 or 4 within bounded time and without a traceback.

Diagram codes pair labels at random, so most of them are non-planar.
Moduli run up to 10^6, with extra draws from 10^3-10^4; the direct
count under --bruteforce factors each one and eliminates over its
prime powers, and must finish or refuse within its work caps
(coloring.MAX_FACTOR_WORK and MAX_ELIMINATION_WORK).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from linkcolor.cli import main

EXAMPLE_DEADLINE_MS = 15_000


@st.composite
def diagram_codes(draw) -> str:
    n = draw(st.integers(0, 6))
    slots = draw(st.permutations([v for v in range(1, 2 * n + 1) for _ in range(2)]))
    items = ["X({},{},{},{})".format(*slots[4 * i:4 * i + 4]) for i in range(n)]
    circles = draw(st.integers(0, 3))
    if circles:
        items.append(f"O {circles}")
    return ";".join(items)


@st.composite
def diagram_argvs(draw) -> list[str]:
    cmd = draw(st.sampled_from(["regions", "shade", "matrix", "colorings", "fox"]))
    argv = [cmd]
    if cmd != "regions":
        argv += ["--shading", str(draw(st.integers(0, 1)))]
    if cmd == "matrix" and draw(st.booleans()):
        argv.append("--adjusted")
    if cmd in ("colorings", "fox"):
        argv += ["--mod", str(draw(st.integers(-1, 10**6) | st.integers(10**3, 10**4)))]
        if draw(st.booleans()):
            argv.append("--bruteforce")
    return argv


small_ints = st.integers(-9, 9)
json_values = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=False) | st.text(max_size=5) | small_ints,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=12)


@st.composite
def matrix_texts(draw) -> str:
    kind = draw(st.sampled_from(["matrix", "ragged", "values", "deep", "garbage"]))
    if kind == "matrix":
        rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        grid = [[draw(small_ints) for _ in range(cols)] for _ in range(rows)]
        if draw(st.booleans()):
            grid = [[str(v) for v in row] for row in grid]
        return json.dumps({"matrix": grid} if draw(st.booleans()) else grid)
    if kind == "ragged":
        return json.dumps(draw(st.lists(st.lists(small_ints, max_size=4), min_size=2, max_size=4)))
    if kind == "values":
        return json.dumps(draw(json_values))
    if kind == "deep":
        depth = draw(st.integers(1, 10**5))
        return "[" * depth + ("]" * depth if draw(st.booleans()) else "")
    return draw(st.text(max_size=20))


def run_cli(argv: list[str], stdin: str) -> tuple[int, str]:
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, err.getvalue()


def check(argv: list[str], stdin: str) -> None:
    code, err = run_cli(argv, stdin)
    assert code in (0, 2, 3, 4), (argv, stdin[:80], code, err[-500:])
    assert "Traceback" not in err


@settings(max_examples=150, deadline=EXAMPLE_DEADLINE_MS)
@given(argv=diagram_argvs(), plain=st.booleans(), code=diagram_codes())
def test_diagram_commands(argv, plain, code):
    check(argv + (["--plain"] if plain else []) + ["-"], code)


@settings(max_examples=150, deadline=EXAMPLE_DEADLINE_MS)
@given(plain=st.booleans(), text=matrix_texts())
def test_snf(plain, text):
    check(["snf"] + (["--plain"] if plain else []) + ["-"], text)
