"""Exact integer matrix algebra tests.

The frozen expected values here were derived by hand or against the
minor-gcd definition before the reduction code existed; the property
tests then tie the reduction route and the minor route together on
random input.
"""

import math
import random
import time
import tracemalloc
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkcolor import intlattice
from linkcolor.diagram import parse_diagram, trace_regions
from linkcolor.goeritz import goeritz_matrix
from linkcolor.intlattice import (
    GroupDescriptor,
    IntMatrix,
    WorkBoundError,
    _hermite_rows,
    cokernel_descriptor,
    determinant,
    elementary_gcds,
    invariant_factors,
    kernel_count_mod,
    smith_normal_form,
    snf_matrix,
)
from linkcolor.shading import checkerboard

# Adjusted Goeritz matrix of the four-block connected sum used as the
# golden fixture throughout the repo.
GOLDEN = IntMatrix.from_rows([
    [0, 0, 0, 0, 0],
    [0, 3, 0, 0, -3],
    [0, 0, 3, 0, -3],
    [0, 0, 0, 1, -1],
    [0, -3, -3, -1, 7],
])


def check_snf_invariants(m: IntMatrix):
    res = smith_normal_form(m)
    assert len(res.phi) == m.cols
    assert all(f >= 0 for f in res.phi)
    # Descending divisibility, every integer dividing 0.
    for prev, cur in zip(res.phi, res.phi[1:]):
        if prev == 0:
            continue
        assert cur != 0 and prev % cur == 0
    assert (res.u1 @ m @ res.u2).entries == res.normal_form().entries
    assert abs(determinant(res.u1)) == 1
    assert abs(determinant(res.u2)) == 1
    return res


class TestIntMatrix:
    def test_shape_and_accessors(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.shape == (2, 3)
        assert m.to_lists() == [[1, 2, 3], [4, 5, 6]]

    def test_zero_width_shapes(self):
        tall = IntMatrix.zeros(3, 0)
        assert tall.shape == (3, 0)
        assert tall.transpose().shape == (0, 3)
        assert tall.transpose().transpose().shape == (3, 0)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix(((1, 2), (3,)), 2)

    def test_matmul(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert (a @ b).to_lists() == [[2, 1], [4, 3]]

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            IntMatrix.identity(2) @ IntMatrix.identity(3)

    def test_diagonal(self):
        assert IntMatrix.diagonal((2, 5)).to_lists() == [[2, 0], [0, 5]]

    def test_transpose(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().to_lists() == [[1, 4], [2, 5], [3, 6]]


class TestDeterminant:
    def test_known_values(self):
        assert determinant(IntMatrix.from_rows([[2, 1], [7, 4]])) == 1
        assert determinant(IntMatrix.from_rows([[2, 4], [1, 2]])) == 0
        assert determinant(IntMatrix.identity(4)) == 1

    def test_empty(self):
        assert determinant(IntMatrix.zeros(0, 0)) == 1

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError):
            determinant(IntMatrix.zeros(2, 3))

    def test_pivot_fallback_row_swap(self):
        m = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert determinant(m) == -1


class TestSmithNormalForm:
    def test_golden_fixture(self):
        res = check_snf_invariants(GOLDEN)
        assert res.phi == (0, 0, 3, 3, 1)
        assert res.rank == 3

    def test_zero_matrix(self):
        assert invariant_factors(IntMatrix.zeros(3, 3)) == (0, 0, 0)

    def test_identity(self):
        assert invariant_factors(IntMatrix.identity(3)) == (1, 1, 1)

    def test_diagonal_2_3(self):
        assert invariant_factors(IntMatrix.diagonal((2, 3))) == (6, 1)

    def test_diagonal_0_6_4(self):
        assert invariant_factors(IntMatrix.diagonal((0, 6, 4))) == (0, 12, 2)

    def test_wide_matrix_leading_zeros(self):
        # kappa > rho forces the excess columns to surface as zeros, and
        # the divisor chain then puts them first.
        m = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
        assert invariant_factors(m) == (0, 1, 1)

    def test_tall_matrix(self):
        m = IntMatrix.from_rows([[6], [4]])
        assert invariant_factors(m) == (2,)
        check_snf_invariants(m)

    def test_empty_shapes(self):
        assert invariant_factors(IntMatrix.zeros(0, 0)) == ()
        assert invariant_factors(IntMatrix.zeros(0, 2)) == (0, 0)
        assert invariant_factors(IntMatrix.zeros(2, 0)) == ()

    def test_negative_entries_absorbed(self):
        assert invariant_factors(IntMatrix.diagonal((-4, 6))) == (12, 2)

    def test_deterministic(self):
        m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert smith_normal_form(m) == smith_normal_form(m)

    def test_coefficient_growth_is_exact(self):
        # Hilbert-like entries force large intermediate values; exact
        # arithmetic must survive them.
        n = 6
        m = IntMatrix.from_rows(
            [[math.factorial(i + j + 1) for j in range(n)] for i in range(n)])
        check_snf_invariants(m)


class TestSnfMatrixLayout:
    def test_square(self):
        assert snf_matrix((0, 3, 1), 3, 3).to_lists() == [
            [0, 0, 0], [0, 3, 0], [0, 0, 1]]

    def test_wide(self):
        assert snf_matrix((0, 0, 2, 1), 2, 4).to_lists() == [
            [0, 0, 2, 0], [0, 0, 0, 1]]

    def test_tall(self):
        assert snf_matrix((2, 1), 4, 2).to_lists() == [
            [2, 0], [0, 1], [0, 0], [0, 0]]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            snf_matrix((1,), 2, 2)


class TestElementaryGcds:
    def test_golden_fixture(self):
        assert elementary_gcds(GOLDEN) == (0, 0, 9, 3, 1, 1)

    def test_identity(self):
        assert elementary_gcds(IntMatrix.identity(2)) == (1, 1, 1)

    def test_zero(self):
        assert elementary_gcds(IntMatrix.zeros(2, 2)) == (0, 0, 1)

    def test_wide(self):
        m = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
        assert elementary_gcds(m) == (0, 1, 1, 1)

    def test_work_bound(self):
        with pytest.raises(WorkBoundError):
            elementary_gcds(IntMatrix.zeros(20, 20))
        # A generous explicit budget admits the same matrix shape.
        assert elementary_gcds(IntMatrix.identity(3), max_minors=10**3) == (1, 1, 1, 1)


def _ratio_factors(delta):
    out = []
    for j in range(len(delta) - 1):
        out.append(0 if delta[j] == 0 else delta[j] // delta[j + 1])
    return tuple(out)


class TestCokernelAndKernel:
    def test_golden_cokernel(self):
        g = cokernel_descriptor(GOLDEN)
        assert g.free_rank == 2
        assert g.torsion == (3, 3)

    def test_identity_cokernel_trivial(self):
        g = cokernel_descriptor(IntMatrix.identity(3))
        assert (g.free_rank, g.torsion) == (0, ())
        assert g.describe() == "0"

    def test_diag_0_2(self):
        g = cokernel_descriptor(IntMatrix.diagonal((0, 2)))
        assert (g.free_rank, g.torsion) == (1, (2,))

    def test_kernel_identity(self):
        assert kernel_count_mod(IntMatrix.identity(2), 5) == 1

    def test_kernel_zero(self):
        assert kernel_count_mod(IntMatrix.zeros(2, 2), 5) == 25

    def test_kernel_golden(self):
        # One factor gcd(phi_j, 3) per row of the transpose: 3*3*3*3*1.
        assert kernel_count_mod(GOLDEN, 3) == 81

    def test_kernel_excess_rows(self):
        m = IntMatrix.from_rows([[1, 0], [0, 1], [0, 0]])
        assert kernel_count_mod(m, 7) == 7

    def test_kernel_matches_enumeration(self):
        rng = random.Random(20260817)
        for _ in range(60):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 3)
            m = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
            for modulus in (2, 3, 4, 5, 6):
                direct = 0
                for vec in product(range(modulus), repeat=rows):
                    if all(
                        sum(vec[i] * m.entries[i][j] for i in range(rows)) % modulus == 0
                        for j in range(cols)
                    ):
                        direct += 1
                assert kernel_count_mod(m, modulus) == direct

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            kernel_count_mod(IntMatrix.identity(1), 1)


class TestGroupDescriptor:
    def test_order_mod(self):
        g = GroupDescriptor(free_rank=2, torsion=(3,))
        assert g.order_mod(3) == 27
        assert g.order_mod(2) == 4

    def test_order_mod_gcd_zero_convention(self):
        g = GroupDescriptor(free_rank=0, torsion=(6, 4))
        assert g.order_mod(8) == 2 * 4

    def test_describe(self):
        g = GroupDescriptor(free_rank=2, torsion=(3,))
        assert g.describe() == "A x A x A(3)"
        assert g.describe(symbol="Z") == "Z x Z x Z(3)"

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            GroupDescriptor(1, ()).order_mod(0)


matrices = st.integers(1, 6).flatmap(
    lambda rows: st.integers(1, 6).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_snf_invariants_random(rows):
    check_snf_invariants(IntMatrix.from_rows(rows))


small_matrices = st.integers(1, 5).flatmap(
    lambda rows: st.integers(1, 5).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))


@settings(max_examples=100, deadline=None)
@given(small_matrices)
def test_invariant_factors_match_minor_gcds(rows):
    m = IntMatrix.from_rows(rows)
    assert invariant_factors(m) == _ratio_factors(elementary_gcds(m))


def _random_unimodular(rng, n):
    """Product of up to 12 elementary integer row operations."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 12)):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            m[i], m[j] = m[j], m[i]
        elif kind == 1:
            m[i] = [-v for v in m[i]]
        elif kind == 2 and i != j:
            q = rng.randint(-3, 3)
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    return IntMatrix.from_rows(m, n)


def test_invariant_factors_respect_equivalence():
    rng = random.Random(99)
    for _ in range(120):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        p = _random_unimodular(rng, rows)
        q = _random_unimodular(rng, cols)
        assert invariant_factors(p @ m @ q) == invariant_factors(m)


def _witness_bits(res) -> int:
    return max(abs(v).bit_length() for w in (res.u1, res.u2) for row in w.entries for v in row)


def _hadamard_bits(rows) -> int:
    """ceil(log2) of the Hadamard bound prod_i |row_i| on |det|."""
    return math.ceil(sum(math.log2(sum(v * v for v in row)) / 2 for row in rows))


@pytest.mark.parametrize("n", range(20, 61, 8))
def test_witnesses_stay_near_the_determinant(n):
    # Before the Hermite passes, an order-60 matrix reached witnesses of
    # 30 times the Hadamard bits.
    rng = random.Random(n)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    res = check_snf_invariants(IntMatrix.from_rows(rows))
    assert _witness_bits(res) <= 2 * _hadamard_bits(rows)


def test_divisibility_repair_is_one_gcd_step():
    a, b = 2 ** 1600, 3 ** 1000
    t0 = time.perf_counter()
    res = smith_normal_form(IntMatrix.diagonal((a, b)))
    elapsed = time.perf_counter() - t0
    assert res.phi == (a * b, 1)
    assert _witness_bits(res) <= a.bit_length() + b.bit_length() + 2
    assert elapsed < 0.05
    assert (res.u1 @ IntMatrix.diagonal((a, b)) @ res.u2).entries == res.normal_form().entries


@st.composite
def assorted_matrices(draw, side=12):
    """Up to side x side, tall, wide or empty; zero, small, large
    (+-10**6) or rank-deficient entries."""
    rows, cols = draw(st.integers(0, side)), draw(st.integers(0, side))

    def grid(r, c, bound):
        return draw(st.lists(st.lists(st.integers(-bound, bound), min_size=c, max_size=c),
                             min_size=r, max_size=r))

    kind = draw(st.sampled_from(("zero", "small", "large", "low-rank")))
    if kind == "low-rank" and min(rows, cols) > 1:
        k = draw(st.integers(1, min(rows, cols) - 1))
        return IntMatrix.from_rows(grid(rows, k, 9), k) @ IntMatrix.from_rows(grid(k, cols, 9), cols)
    bound = {"zero": 0, "small": 3, "large": 10 ** 6}.get(kind, 9)
    return IntMatrix.from_rows(grid(rows, cols, bound), cols)


@settings(max_examples=200, deadline=None)
@given(assorted_matrices())
def test_factors_only_path_matches_witness_path(m):
    # invariant_factors skips the Hermite passes and builds no witnesses,
    # so the two routes reduce different matrices.
    assert invariant_factors(m) == smith_normal_form(m).phi


BRAID_SIZES = [(50, 5), (65, 7), (80, 9)]


def _braid_goeritz(crossings, strands, braid) -> IntMatrix:
    """Adjusted Goeritz matrix of a seeded braid closure."""
    code = braid.code_text(braid.braid_closure(
        strands, braid.braid_word(random.Random(crossings), strands, crossings)))
    d = parse_diagram(code)
    rm = trace_regions(d)
    return goeritz_matrix(d, rm, checkerboard(rm)[0]).adjusted


@pytest.mark.parametrize("crossings,strands", BRAID_SIZES)
def test_factors_only_path_on_braid_goeritz(crossings, strands, braid):
    m = _braid_goeritz(crossings, strands, braid)
    assert m.rows > 20
    assert invariant_factors(m) == check_snf_invariants(m).phi


def _reference_place_pivot(a, rows, cols, p):
    """The _place_pivot that pivot-local elimination replaced: row steps
    run along whole rows, column steps down whole columns, and a unit
    pivot is followed by the divisibility scan like any other. The
    reference for the reduction, which must agree with it step for step."""
    while True:
        found = intlattice._select_pivot(a, rows, cols, p)
        if found is None:
            return False
        bi, bj = found
        if bi != p:
            a[p], a[bi] = a[bi], a[p]
        if bj != p:
            for row in a:
                row[p], row[bj] = row[bj], row[p]
        pivot = a[p][p]
        clean = True
        for i in range(p + 1, rows):
            if a[i][p]:
                q = a[i][p] // pivot
                if q:
                    a[i] = [v - q * u for u, v in zip(a[p], a[i])]
                if a[i][p]:
                    clean = False
        for j in range(p + 1, cols):
            if a[p][j]:
                q = a[p][j] // pivot
                if q:
                    for row in a:
                        row[j] -= q * row[p]
                if a[p][j]:
                    clean = False
        if not clean:
            continue
        offender = next(((i, j) for i in range(p + 1, rows) for j in range(p + 1, cols)
                         if a[i][j] % pivot), None)
        if offender is None:
            return True
        i, j = offender
        a[p] = [u + v for u, v in zip(a[p], a[i])]
        y = a[p][j]
        g, s, t = intlattice._xgcd(pivot, y)
        xg, yg = pivot // g, y // g
        for row in a:
            u, v = row[p], row[j]
            row[p], row[j] = s * u + t * v, xg * v - yg * u


def _assert_diagonalize_matches_the_reference(m: IntMatrix):
    """_diagonalize with _place_pivot and with the reference gives the
    same diagonal and the same final matrix, on m alone and on m
    augmented with its witness identities, [[M, I], [I]]."""
    rows, cols = m.shape
    bare = m.to_lists()
    augmented = ([row + [int(i == k) for k in range(rows)] for i, row in enumerate(bare)]
                 + [[int(i == k) for k in range(cols)] for i in range(cols)])
    for a in (bare, augmented):
        mine, ref = [row[:] for row in a], [row[:] for row in a]
        diagonal = intlattice._diagonalize(mine, rows, cols)
        with mock.patch.object(intlattice, "_place_pivot", _reference_place_pivot):
            assert diagonal == intlattice._diagonalize(ref, rows, cols)
        assert mine == ref


@settings(max_examples=300, deadline=None)
@given(assorted_matrices(side=10))
def test_pivot_local_elimination_matches_the_reference(m):
    _assert_diagonalize_matches_the_reference(m)


@pytest.mark.parametrize("crossings,strands", BRAID_SIZES)
def test_pivot_local_elimination_matches_the_reference_on_braid_goeritz(
        crossings, strands, braid):
    _assert_diagonalize_matches_the_reference(_braid_goeritz(crossings, strands, braid))


def _euclid_hermite_rows(a, rows, cols):
    """The Euclid row Hermite pass that row insertion replaced: the
    reference for the Hermite form, which is unique."""
    r = 0
    for c in range(cols):
        if r == rows:
            break
        while True:
            below = [i for i in range(r, rows) if a[i][c]]
            if not below:
                break
            best = min(below, key=lambda i: (abs(a[i][c]), a[i][c] < 0))
            a[r], a[best] = a[best], a[r]
            if len(below) == 1:
                break
            for i in range(r + 1, rows):
                q = a[i][c] // a[r][c]
                if q:
                    a[i] = [v - q * u for u, v in zip(a[r], a[i])]
        if not below:
            continue
        if a[r][c] < 0:
            a[r] = [-v for v in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [v - q * u for u, v in zip(a[r], a[i])]
        r += 1


@settings(max_examples=300, deadline=None)
@given(assorted_matrices(side=10))
def test_row_insertion_gives_the_hermite_form(m):
    rows, cols = m.shape
    augmented = [list(row) + [int(i == k) for k in range(rows)] for i, row in enumerate(m.entries)]
    mine, ref = [row[:] for row in augmented], [row[:] for row in augmented]
    _hermite_rows(mine, rows, cols)
    _euclid_hermite_rows(ref, rows, cols)
    assert [row[:cols] for row in mine] == [row[:cols] for row in ref]
    u = IntMatrix.from_rows([row[cols:] for row in mine], rows)
    if rows == cols and determinant(m):
        # H is unique and m invertible, so U = H m^-1 is unique too.
        assert u.to_lists() == [row[cols:] for row in ref]
    assert (u @ m).to_lists() == [row[:cols] for row in mine]
    assert abs(determinant(u)) == 1


def test_witnessed_snf_peak_memory_stays_near_its_result():
    # The Euclid row pass peaked at 5.7 times the result here: its
    # unreduced rows reached 3,831 bits, where row insertion stays
    # within 196.
    rng = random.Random(60)
    m = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(60)] for _ in range(60)])
    tracemalloc.start()
    try:
        res = smith_normal_form(m)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.rank == 60
    assert peak <= 3 * size


def _rank_hadamard_bits(m: IntMatrix, rank: int) -> int:
    """ceil(log2) of a bound on every rank x rank minor of m: the
    product of the rank largest row norms, or of column norms if less."""
    def bound(vectors):
        logs = sorted((math.log2(sum(v * v for v in x)) / 2 for x in vectors if any(x)),
                      reverse=True)
        return sum(logs[:rank])
    return math.ceil(min(bound(m.entries), bound(m.transpose().entries)))


def _rectangular_or_deficient(seed: int) -> IntMatrix:
    rng = random.Random(seed)
    bound = rng.choice((3, 10 ** 6))
    rows, cols = rng.randint(1, 12), rng.randint(1, 12)
    if seed % 2 and min(rows, cols) > 1:
        k = rng.randint(1, min(rows, cols) - 1)
        f = 3 if bound == 3 else 1000
        left = [[rng.randint(-f, f) for _ in range(k)] for _ in range(rows)]
        right = [[rng.randint(-f, f) for _ in range(cols)] for _ in range(k)]
        return IntMatrix.from_rows(left, k) @ IntMatrix.from_rows(right, cols)
    while cols == rows:
        cols = rng.randint(1, 12)
    return IntMatrix.from_rows([[rng.randint(-bound, bound) for _ in range(cols)]
                                for _ in range(rows)], cols)


def test_witnesses_of_singular_input_stay_near_the_minors():
    # Kernel rows leave the Hermite pass with witness parts of any size;
    # without the size-reduction by them, 81 of these 500 cases exceed
    # twice the rank-Hadamard bits (42 with the Euclid pass).
    over = 0
    for seed in range(500):
        m = _rectangular_or_deficient(seed)
        res = check_snf_invariants(m)
        over += _witness_bits(res) > 2 * max(1, _rank_hadamard_bits(m, res.rank))
    assert over <= 60
