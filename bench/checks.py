"""Answer checks that never touch the code they check.

The Fox check rebuilds the arc-by-crossing coloring matrix from the
diagram code and counts its kernel over Z/p with numpy row reduction,
without any Goeritz matrix or Smith normal form. The witness check
multiplies the JSON matrices the ``snf`` subcommand prints.
"""

from __future__ import annotations

import math

import numpy as np

FOX_PRIMES = (2, 3, 5, 7)
UNIMODULAR_PRIMES = (998_244_353, 1_000_000_007)


def fox_arcs(crossings) -> tuple[list[int], int]:
    """Over-arc index of every label, and the arc count.

    The over strand (slots 1 and 3) runs through a crossing unbroken,
    so those two labels share an arc; under-strand ends break arcs.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in crossings:
        for v in c:
            find(v)
        ra, rb = find(c[1]), find(c[3])
        if ra != rb:
            parent[rb] = ra
    roots = sorted({find(v) for v in parent})
    index = {r: k for k, r in enumerate(roots)}
    size = max(parent) + 1
    arc = [-1] * size
    for v in parent:
        arc[v] = index[find(v)]
    return arc, len(roots)


def fox_matrix(crossings) -> np.ndarray:
    """One row per crossing: twice the over arc minus both under ends."""
    arc, n_arcs = fox_arcs(crossings)
    m = np.zeros((len(crossings), n_arcs), dtype=np.int64)
    for row, c in enumerate(crossings):
        m[row, arc[c[1]]] += 2
        m[row, arc[c[0]]] -= 1
        m[row, arc[c[2]]] -= 1
    return m


def reduce_mod(m: np.ndarray, p: int) -> tuple[int, int]:
    """Gaussian elimination over Z/p, p prime (below 2**31, so products
    of residues fit int64). Returns (rank, determinant mod p); the
    determinant is meaningful for square matrices only."""
    a = m % p
    rows, cols = a.shape
    rank, det = 0, 1
    for col in range(cols):
        if rank == rows:
            break
        nz = np.flatnonzero(a[rank:, col])
        if nz.size == 0:
            det = 0
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
            det = -det
        det = det * int(a[rank, col]) % p
        # Columns left of col are zero below the pivot rows already.
        a[rank, col:] = a[rank, col:] * pow(int(a[rank, col]), -1, p) % p
        below = rank + 1 + np.flatnonzero(a[rank + 1:, col])
        if below.size:
            a[below, col:] = (a[below, col:] - np.outer(a[below, col], a[rank, col:])) % p
        rank += 1
    return rank, det % p


def fox_counts(crossings, primes=FOX_PRIMES) -> dict[int, int]:
    """Fox colorings over Z/p for each prime: p ** (arcs - rank)."""
    m = fox_matrix(crossings)
    return {p: p ** (m.shape[1] - reduce_mod(m, p)[0]) for p in primes}


def check_fox(crossings, counts: dict[int, int], expected: dict[int, int] | None = None) -> None:
    """Raise AssertionError unless ``counts`` matches the Fox-matrix kernel."""
    if expected is None:
        expected = fox_counts(crossings, tuple(counts))
    if counts != expected:
        raise AssertionError(f"fox counts {counts}, kernel says {expected}")


def diagonal_factors(values) -> tuple[int, ...]:
    """Invariant factors of diag(values): descending divisibility, zeros first.

    Replacing a pair (a, b) by (gcd, lcm) keeps the cokernel, so sweeping
    until each entry divides the next settles the ascending chain.
    """
    d = sorted((abs(int(v)) for v in values), key=lambda v: (v == 0, v))
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            g = math.gcd(a, b)
            d[i], d[j] = g, (a // g * b if g else 0)
    return tuple(reversed(d))


def check_snf_report(report: dict, matrix) -> tuple[int, ...]:
    """Verify the JSON of ``linkcolor snf`` against its input; return phi.

    Asserts that u1 @ matrix @ u2 equals the printed normal form, that the
    normal form carries phi on its band in descending divisibility, and
    that u1 and u2 have determinant +-1 modulo two large primes.
    """
    phi = tuple(int(f) for f in report["phi"])
    u1 = [[int(v) for v in row] for row in report["u1"]]
    u2 = [[int(v) for v in row] for row in report["u2"]]
    nf = [[int(v) for v in row] for row in report["normal_form"]]
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    if len(phi) != cols or len(nf) != rows:
        raise AssertionError("normal form shape does not match the input")
    product = np.array(u1, dtype=object) @ np.array(matrix, dtype=object) @ np.array(u2, dtype=object)
    if product.tolist() != nf:
        raise AssertionError("u1 @ m @ u2 differs from the normal form")
    t = min(rows, cols)
    band = [[phi[cols - t + i] if j == cols - t + i else 0 for j in range(cols)]
            for i in range(t)] + [[0] * cols for _ in range(rows - t)]
    if band != nf:
        raise AssertionError("normal form does not lay out phi")
    if any(f < 0 for f in phi) or any(
            phi[j - 1] % phi[j] if phi[j] else phi[j - 1] for j in range(1, cols)):
        raise AssertionError(f"phi {phi} is not in descending divisibility order")
    for u in (u1, u2):
        for p in UNIMODULAR_PRIMES:
            _, det = reduce_mod(np.array([[v % p for v in row] for row in u], dtype=np.int64), p)
            if det not in (1, p - 1):
                raise AssertionError(f"witness determinant is {det} mod {p}, not +-1")
    return phi
