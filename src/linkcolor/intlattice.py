"""Exact integer matrix algebra.

Smith normal forms with unimodular witnesses, minor gcds, cokernel
structure and kernel counts over Z/m. Everything runs on plain Python
ints, so entries may grow without bound and no tolerance ever enters.

One reduction routine serves both routes to the invariant factors.
``invariant_factors`` runs it on the bare matrix and builds no
witnesses; it is what the cokernel, kernel-count and coloring code
call. ``smith_normal_form`` runs it on the matrix augmented with two
identities, which carry the witnesses, after a row and a column
Hermite pass. Each pass inserts rows one at a time into a reduced
Hermite basis (Kannan and Bachem, SIAM J. Comput. 1979), so no
intermediate entry grows far past the determinant, and size-reduces
the witnesses by the kernel rows it finds. A divisibility failure is
repaired by one extended-gcd column step.

The diagonal convention puts divisibility in descending order:
``phi[j]`` divides ``phi[j-1]``, with every integer dividing 0. For a
``rows x cols`` matrix the invariant factor sequence has exactly
``cols`` entries; when the matrix is wider than tall the excess columns
surface as leading zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

__all__ = [
    "GroupDescriptor",
    "IntMatrix",
    "SNFResult",
    "WorkBoundError",
    "cokernel_descriptor",
    "determinant",
    "elementary_gcds",
    "invariant_factors",
    "kernel_count_mod",
    "smith_normal_form",
    "snf_matrix",
]


class WorkBoundError(RuntimeError):
    """An enumeration would exceed its configured budget."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable row-major integer matrix.

    ``cols`` is stored explicitly so zero-row shapes keep their width;
    0x0, 0xn and nx0 are all legal.
    """

    entries: tuple[tuple[int, ...], ...]
    cols: int

    def __post_init__(self) -> None:
        if self.cols < 0:
            raise ValueError("negative width")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if cols is None:
            cols = len(data[0]) if data else 0
        return cls(data, cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(tuple((0,) * cols for _ in range(rows)), cols)

    @classmethod
    def diagonal(cls, values) -> "IntMatrix":
        vals = tuple(int(v) for v in values)
        n = len(vals)
        return cls(tuple(tuple(vals[i] if i == j else 0 for j in range(n)) for i in range(n)), n)

    def transpose(self) -> "IntMatrix":
        flipped = tuple(tuple(row[j] for row in self.entries) for j in range(self.cols))
        return IntMatrix(flipped, self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        out = []
        for i in range(self.rows):
            srow = self.entries[i]
            out.append(tuple(
                sum(srow[k] * other.entries[k][j] for k in range(self.cols))
                for j in range(other.cols)))
        return IntMatrix(tuple(out), other.cols)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


@dataclass(frozen=True)
class GroupDescriptor:
    """Shape of an abelian group A^free x A(t_1) x A(t_2) x ...

    ``free_rank`` counts every torsion-free summand. ``torsion`` holds
    the annihilator orders other than 0 and 1, in descending
    divisibility order.
    """

    free_rank: int
    torsion: tuple[int, ...]

    def order_mod(self, modulus: int) -> int:
        """Element count once A is specialized to Z/modulus."""
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        out = modulus ** self.free_rank
        for t in self.torsion:
            out *= math.gcd(t, modulus)
        return out

    def describe(self, symbol: str = "A") -> str:
        parts = [symbol] * self.free_rank + [f"{symbol}({t})" for t in self.torsion]
        return " x ".join(parts) if parts else "0"


@dataclass(frozen=True)
class SNFResult:
    """Invariant factors plus the unimodular change-of-basis witnesses.

    Invariant: ``u1 @ m @ u2 == snf_matrix(phi, m.rows, m.cols)`` and
    both witnesses have determinant +-1.
    """

    phi: tuple[int, ...]
    u1: IntMatrix
    u2: IntMatrix

    @property
    def rank(self) -> int:
        return sum(1 for f in self.phi if f)

    def normal_form(self) -> IntMatrix:
        return snf_matrix(self.phi, self.u1.rows, self.u2.rows)


def snf_matrix(phi, rows: int, cols: int) -> IntMatrix:
    """Lay out a factor sequence as the rows x cols normal form.

    The kappa x kappa diagonal of phi gains zero rows at the bottom when
    the matrix is taller than wide, and sheds its leading zero rows when
    wider than tall, so the nonzero band sits at (i, cols - t + i).
    """
    phi = tuple(int(f) for f in phi)
    if len(phi) != cols:
        raise ValueError("phi length must equal the column count")
    t = min(rows, cols)
    if any(phi[j] for j in range(cols - t)):
        raise ValueError("leading factors beyond the row count must vanish")
    grid = [[0] * cols for _ in range(rows)]
    for i in range(t):
        j = cols - t + i
        grid[i][j] = phi[j]
    return IntMatrix.from_rows(grid, cols)


# Reduction pivots are chosen deterministically: smallest |value|,
# positive before negative, then lowest row, then lowest column.
def _select_pivot(a, rows, cols, p):
    best = None
    where = None
    for i in range(p, rows):
        for j in range(p, cols):
            v = a[i][j]
            if v:
                key = (-v if v < 0 else v, 0 if v > 0 else 1, i, j)
                if best is None or key < best:
                    best = key
                    where = (i, j)
    return where


def _xgcd(x, y):
    """(g, s, t) with g = gcd(x, y) = s*x + t*y > 0, for y not 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while y:
        q, r = divmod(x, y)
        x, y = y, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (x, s0, t0) if x > 0 else (-x, -s0, -t0)


def _place_pivot(a, rows, cols, p):
    """Clear row/column p and make a[p][p] divide the rest of the block.

    Returns False when the trailing block is already all zero. Each
    step touches only what the pivot reaches. A row step subtracts a
    multiple of the pivot row at the pivot row's nonzero positions,
    witness columns included; they are listed once per round, since row
    steps leave the pivot row alone. A column step subtracts a multiple
    of column p from the rows with a nonzero in column p, witness rows
    included; they too are listed once per round, since column steps
    leave column p alone. A pivot of +-1 divides everything, so it
    returns without scanning the block for a divisibility failure.

    Every round that does not finish leaves a smaller nonzero |value|
    in the block: a remainder of the clearing, or the gcd that the
    repair of a divisibility failure puts at (p, p). So the loop
    terminates.
    """
    while True:
        found = _select_pivot(a, rows, cols, p)
        if found is None:
            return False
        bi, bj = found
        if bi != p:
            a[p], a[bi] = a[bi], a[p]
        if bj != p:
            for row in a:
                row[p], row[bj] = row[bj], row[p]
        prow = a[p]
        pivot = prow[p]
        support = [k for k, u in enumerate(prow) if u]
        clean = True
        for i in range(p + 1, rows):
            row = a[i]
            if row[p]:
                q = row[p] // pivot
                if q:
                    for k in support:
                        row[k] -= q * prow[k]
                if row[p]:
                    clean = False
        column = [row for row in a if row[p]]
        for j in range(p + 1, cols):
            if prow[j]:
                q = prow[j] // pivot
                if q:
                    for row in column:
                        row[j] -= q * row[p]
                if prow[j]:
                    clean = False
        if not clean:
            continue
        if pivot == 1 or pivot == -1:
            return True
        offender = next(((i, j) for i in range(p + 1, rows) for j in range(p + 1, cols)
                         if a[i][j] % pivot), None)
        if offender is None:
            return True
        # Fold the offending row into the pivot row, which puts y at
        # (p, j). One extended-gcd column step [[s, -y/g], [t, x/g]] on
        # columns p and j then leaves g = gcd(x, y) at (p, p) and 0 at
        # (p, j), with x the pivot and cofactors bounded by x and y.
        i, j = offender
        a[p] = [u + v for u, v in zip(a[p], a[i])]
        y = a[p][j]
        g, s, t = _xgcd(pivot, y)
        xg, yg = pivot // g, y // g
        for row in a:
            u, v = row[p], row[j]
            row[p], row[j] = s * u + t * v, xg * v - yg * u


def _diagonalize(a, rows, cols):
    """Reduce the leading rows x cols block of ``a`` in place to a
    nonnegative diagonal, each entry dividing the next; return it.

    Row operations run along the pivot row's nonzero positions in all
    of ``a``'s columns, and column operations down the nonzero
    positions of column p in all of ``a``'s rows, so extra columns
    right of the block take part in every row operation and extra rows
    below it in every column operation. That is how witnesses ride
    along; a bare matrix yields the factors alone. Swaps and the
    divisibility repair run over whole rows and columns.
    """
    t = min(rows, cols)
    for p in range(t):
        if not _place_pivot(a, rows, cols, p):
            break
        if a[p][p] < 0:
            a[p] = [-v for v in a[p]]
    return [a[i][i] for i in range(t)]


def _hermite_rows(a, rows, cols):
    """Row Hermite form of the leading rows x cols block of ``a``, by
    row insertion (Kannan and Bachem, SIAM J. Comput. 1979).

    The rows enter one at a time into a reduced basis kept as
    {pivot column: row}. An entering row is reduced at its leading
    column against the basis row there: by a multiple when that pivot
    divides the entry, else by one extended-gcd step that also replaces
    the basis row. A row whose leading column has no pivot joins the
    basis, made positive. After every change to the basis the entries
    above each pivot are reduced modulo it, in increasing pivot order,
    so entries stay near the size of the determinant of the lattice
    built so far instead of growing with each Euclid step.

    The pivot rows come out first, in column order, then the rows that
    ended zero in the block. Extra columns take part as in _diagonalize;
    the zero rows, which carry kernel vectors there, then size-reduce
    the extra columns of every other row (nearest-integer multiple of
    the projection, two sweeps), which leaves the block untouched.
    """
    basis = {}
    kernel = []
    for i in range(rows):
        row, c, changed = a[i], -1, False
        while True:
            c = next((j for j in range(c + 1, cols) if row[j]), None)
            if c is None:
                kernel.append(row)
                break
            b = basis.get(c)
            if b is None:
                basis[c] = row if row[c] > 0 else [-v for v in row]
                changed = True
                break
            x, y = b[c], row[c]
            if y % x == 0:
                q = y // x
                row = [v - q * u for u, v in zip(b, row)]
                continue
            g, s, t = _xgcd(x, y)
            xg, yg = x // g, y // g
            basis[c] = [s * u + t * v for u, v in zip(b, row)]
            row = [xg * v - yg * u for u, v in zip(b, row)]
            changed = True
        if changed:
            order = sorted(basis)
            for k, c in enumerate(order):
                b = basis[c]
                for d in order[:k]:
                    q = basis[d][c] // b[c]
                    if q:
                        basis[d] = [v - q * u for u, v in zip(b, basis[d])]
    out = [basis[c] for c in sorted(basis)] + kernel
    for _ in range(2):
        for k in range(len(basis), rows):
            w = out[k][cols:]
            ww = sum(v * v for v in w)
            for i in range(rows):
                if i != k:
                    q = (2 * sum(u * v for u, v in zip(w, out[i][cols:])) + ww) // (2 * ww)
                    if q:
                        out[i] = [v - q * u for u, v in zip(out[k], out[i])]
    a[:rows] = out


def _flip(a, rows, cols):
    """Transpose the augmented matrix: [[M, U1], [U2]] -> [[M^T, U2^T], [U1^T]]."""
    top = [[a[i][j] for i in range(rows + cols)] for j in range(cols)]
    return top + [[a[i][cols + k] for i in range(rows)] for k in range(rows)]


def _descending(diag, cols):
    """The ascending diagonal as the descending factor sequence."""
    return tuple(reversed(diag + [0] * (cols - len(diag))))


def smith_normal_form(m: IntMatrix) -> SNFResult:
    """Diagonalize over Z with witnesses, descending divisibility layout.

    The witnesses ride on the augmented matrix [[M, I], [I, 0]], whose
    zero corner is never read and so is left out. A row Hermite pass
    by row insertion (_hermite_rows) runs first; for square nonsingular
    M it leaves the unique u1 = H M^-1, of the size of the determinant
    rather than of the number of elimination steps, and otherwise the
    kernel rows size-reduce the witness rows. The same pass on the
    transpose then does the columns, which keeps the pivots the
    diagonalization meets small. The reduction of
    ``invariant_factors`` follows, and a fixed permutation then reverses
    the diagonal into the descending convention, which costs nothing
    but a relabeling of the witnesses.
    """
    rows, cols = m.rows, m.cols
    a = [list(row) + [int(i == k) for k in range(rows)] for i, row in enumerate(m.entries)]
    a += [[int(i == k) for k in range(cols)] for i in range(cols)]
    _hermite_rows(a, rows, cols)
    a = _flip(a, rows, cols)
    _hermite_rows(a, cols, rows)
    a = _flip(a, cols, rows)
    phi = _descending(_diagonalize(a, rows, cols), cols)
    t = min(rows, cols)
    u1 = [row[cols:] for row in a[:rows]]
    u1[:t] = u1[:t][::-1]
    u2 = [row[::-1] for row in a[rows:]]
    return SNFResult(phi=phi, u1=IntMatrix.from_rows(u1, rows), u2=IntMatrix.from_rows(u2, cols))


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """The invariant factors alone, in descending divisibility order.

    Runs the reduction of ``smith_normal_form`` on the bare matrix and
    skips the Hermite passes: no witness is built. On sparse Goeritz
    matrices the passes would cost more than they save.
    """
    a = [list(row) for row in m.entries]
    return _descending(_diagonalize(a, m.rows, m.cols), m.cols)


def determinant(m: IntMatrix) -> int:
    """Exact determinant (fraction-free Bareiss elimination)."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    return _bareiss_det(m.to_lists())


def _bareiss_det(a) -> int:
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def elementary_gcds(m: IntMatrix, max_minors: int = 1_000_000) -> tuple[int, ...]:
    """Minor-gcd sequence delta_0..delta_kappa, independent of any reduction.

    delta_j is the gcd of all (kappa-j)-sized minors; it is 0 below
    max(0, kappa-rho) where no such minor exists, and 1 from kappa up.
    This is the cross-check route for the invariant factors, so it must
    stay free of row operations; the cost guard refuses instances whose
    total minor count exceeds ``max_minors``.
    """
    rows, cols = m.rows, m.cols
    lo = max(0, cols - rows)
    total = 0
    for j in range(lo, cols):
        k = cols - j
        total += math.comb(rows, k) * math.comb(cols, k)
        if total > max_minors:
            raise WorkBoundError(
                f"minor enumeration needs {total}+ determinants (cap {max_minors})")
    delta = [0] * (cols + 1)
    delta[cols] = 1
    for j in range(lo, cols):
        k = cols - j
        g = 0
        for rsel in combinations(range(rows), k):
            picked = [m.entries[r] for r in rsel]
            for csel in combinations(range(cols), k):
                g = math.gcd(g, _bareiss_det([[row[c] for c in csel] for row in picked]))
                if g == 1:
                    break
            if g == 1:
                break
        delta[j] = g
    return tuple(delta)


def cokernel_descriptor(m: IntMatrix) -> GroupDescriptor:
    """Structure of Z^cols modulo the row span of m."""
    phi = invariant_factors(m)
    return GroupDescriptor(
        free_rank=sum(1 for f in phi if f == 0),
        torsion=tuple(f for f in phi if f > 1),
    )


def kernel_count_mod(m: IntMatrix, modulus: int) -> int:
    """Count row vectors x in (Z/modulus)^rows with x @ m == 0.

    That is the order of the transpose's cokernel over Z/modulus: the
    product of gcd(f, modulus) over its invariant factors (one per row),
    with gcd(0, m) = m picking up the free directions, excess rows
    included.
    """
    return cokernel_descriptor(m.transpose()).order_mod(modulus)
