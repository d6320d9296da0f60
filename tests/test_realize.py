"""Realizing prescribed invariant factors as explicit diagrams."""

import random

import pytest

from linkcolor.catalog import load
from linkcolor.coloring import coloring_equivalent, dehn_count_bruteforce, dehn_structure
from linkcolor.diagram import serialize_diagram, trace_regions
from linkcolor.goeritz import goeritz_matrix
from linkcolor.intlattice import IntMatrix, invariant_factors
from linkcolor.realize import realize, verify_realization
from linkcolor.shading import checkerboard

GOLDEN_SPEC = (0, 3, 3, 1)

GOLDEN_ADJUSTED = (
    (0, 0, 0, 0, 0),
    (0, 3, 0, 0, -3),
    (0, 0, 3, 0, -3),
    (0, 0, 0, 1, -1),
    (0, -3, -3, -1, 7),
)


class TestGolden:
    def test_adjusted_matrix_exact(self):
        r = realize(GOLDEN_SPEC)
        assert r.goeritz.adjusted.entries == GOLDEN_ADJUSTED

    def test_phi(self):
        r = realize(GOLDEN_SPEC)
        assert invariant_factors(r.goeritz.adjusted) == (0, 0, 3, 3, 1)

    def test_adjusted_is_matrix(self):
        # Single shaded component, so no padding happens.
        r = realize(GOLDEN_SPEC)
        assert r.goeritz.beta_s == 1
        assert r.goeritz.adjusted == r.goeritz.matrix


class TestSmallCases:
    def test_empty_spec_is_unknot(self):
        r = realize(())
        assert serialize_diagram(r.diagram) == "O 1"
        assert r.goeritz.matrix.entries == ((0,),)

    def test_single_two(self):
        r = realize((2,))
        assert r.goeritz.adjusted.entries == ((2, -2), (-2, 2))

    def test_single_zero(self):
        assert invariant_factors(realize((0,)).goeritz.adjusted) == (0, 0)

    def test_single_one(self):
        assert invariant_factors(realize((1,)).goeritz.adjusted) == (0, 1)

    def test_six_four(self):
        assert invariant_factors(realize((6, 4)).goeritz.adjusted) == (0, 12, 2)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            realize((3, -1))


class TestCatalogLiterals:
    """Two catalog entries were produced by this constructor."""

    def test_granny(self):
        assert serialize_diagram(realize((3, 3)).diagram) == serialize_diagram(load("granny"))

    def test_t2_4(self):
        assert serialize_diagram(realize((4,)).diagram) == serialize_diagram(load("t2_4"))


class TestMatrixShape:
    def _check_shape(self, spec):
        adj = realize(spec).goeritz.adjusted
        n = len(spec) + 1
        assert adj.shape == (n, n)
        for i, f in enumerate(spec):
            assert adj.entries[i][i] == f
            assert adj.entries[i][n - 1] == -f
            assert adj.entries[n - 1][i] == -f
        assert adj.entries[n - 1][n - 1] == sum(spec)
        for i in range(n - 1):
            for j in range(n - 1):
                if i != j:
                    assert adj.entries[i][j] == 0

    def test_shapes(self):
        rng = random.Random(41)
        for _ in range(30):
            spec = tuple(rng.randrange(0, 10) for _ in range(rng.randrange(1, 6)))
            self._check_shape(spec)

    def test_uses_default_shading(self):
        # The returned matrix reorders regions (cores first, rim last),
        # so it is a symmetric permutation of the raw one: same diagonal
        # multiset, same invariant factors.
        r = realize((2, 3))
        rm = trace_regions(r.diagram)
        raw = goeritz_matrix(r.diagram, rm, checkerboard(rm)[0]).matrix
        assert sorted(raw.entries[i][i] for i in range(raw.rows)) == \
            sorted(r.goeritz.matrix.entries[i][i] for i in range(raw.rows))
        assert invariant_factors(raw) == invariant_factors(r.goeritz.matrix)


class TestVerify:
    def test_fixture_specs(self):
        for spec in [(), (0,), (1,), (2,), (5,), (0, 0), (3, 3), (4,),
                     (0, 3, 3, 1), (6, 4), (1, 1, 1), (0, 0, 0), (2, 4, 8)]:
            assert verify_realization(spec), spec

    def test_random_specs(self):
        rng = random.Random(20260817)
        for _ in range(200):
            spec = tuple(rng.randrange(0, 10) for _ in range(rng.randrange(0, 6)))
            assert verify_realization(spec), spec

    def test_diagonal_target_layout(self):
        # The comparison target pads a leading free factor onto the
        # prescribed list.
        spec = (6, 4)
        target = IntMatrix.diagonal((0, *spec))
        assert invariant_factors(target) == (0, 12, 2)


class TestAgainstCounting:
    def test_realized_counts_match_structure(self):
        for spec in [(), (3,), (0, 2), (3, 3)]:
            r = realize(spec)
            rep = dehn_structure(r.diagram)
            for m in (2, 3, 5):
                want = m
                for f in (0, *spec):
                    want *= m if f == 0 else __import__("math").gcd(f, m)
                assert dehn_count_bruteforce(r.diagram, m) == want

    def test_equivalent_to_catalog_trefoil(self):
        rep = dehn_structure(load("trefoil"))
        torsion_spec = tuple(f for f in rep.phi if f != 0)
        r = realize(torsion_spec)
        assert coloring_equivalent(rep.goeritz, r.goeritz)
