import importlib.util
import os
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def src_env() -> dict[str, str]:
    """Environment for a child Python process with src/ first on its
    path. pytest's ``pythonpath`` setting reaches only the test process,
    so without this a child in a fresh checkout cannot import linkcolor."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)


@pytest.fixture(scope="session")
def braid():
    """bench/braid.py, the seeded braid-closure generator, loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_braid", ROOT / "bench" / "braid.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def two_bridge():
    """Builder of the known-answer 2-bridge family."""

    def four_plat(terms) -> tuple[str, int]:
        """Code of the 2-bridge link with continued fraction
        [a1; a2, ..., an], and the numerator p of that fraction.

        The link is the 4-plat of the word s2^a1 s1^-a2 s2^a3 ..., in the
        sign convention of bench/braid.py, cupped at the bottom and capped
        at the top on positions (1, 2) and (3, 4). Its double branched
        cover is the lens space L(p, q), so the non-unit invariant factors
        of either shading are exactly (0, p) (Schubert 1956). n must be
        odd and every ai at least 1: for even n the cap undoes the last
        twists by a Reidemeister I move and the last term is lost.
        """
        if len(terms) % 2 == 0 or min(terms) < 1:
            raise ValueError("need an odd number of terms, each at least 1")
        at = [1, 1, 2, 2]  # label entering each position; the cups pair them
        nxt = 3
        crossings = []
        for n, a in enumerate(terms):
            i, sign = (2, 1) if n % 2 == 0 else (1, -1)
            for _ in range(a):
                sw, se, nw, ne = at[i - 1], at[i], nxt, nxt + 1
                nxt += 2
                crossings.append((sw, se, ne, nw) if sign > 0 else (se, ne, nw, sw))
                at[i - 1], at[i] = nw, ne
        cap = {at[1]: at[0], at[3]: at[2]}
        code = ";".join("X({},{},{},{})".format(*(cap.get(v, v) for v in c)) for c in crossings)
        value = Fraction(terms[-1])
        for a in reversed(terms[:-1]):
            value = a + 1 / value
        return code, value.numerator

    return four_plat
