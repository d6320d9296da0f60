"""Coloring structure vs. brute-force counting.

The enumeration counters here are the oracles for the matrix-based
structure results, so these tests deliberately approach every number
from both sides.
"""

import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkcolor.catalog import load, names
from linkcolor.coloring import (
    MAX_FACTOR_WORK,
    _count_solutions,
    arc_partition,
    coloring_equivalent,
    crossing_relations,
    dehn_count_bruteforce,
    dehn_structure,
    fox_count_bruteforce,
    structure_count,
)
from linkcolor.diagram import Diagram, parse_diagram, relabel_edges, trace_regions
from linkcolor.goeritz import goeritz_matrix
from linkcolor.intlattice import WorkBoundError
from linkcolor.shading import checkerboard


def _goeritz(name, index=0):
    d = load(name)
    rm = trace_regions(d)
    return goeritz_matrix(d, rm, checkerboard(rm)[index])


class TestCrossingRelations:
    def test_trefoil_count(self):
        assert len(crossing_relations(load("trefoil"))) == 3

    def test_coefficients_merge_repeats(self):
        d = load("kink")
        rel, = crossing_relations(d)
        # Quadrants 0 and 2 share the unbounded region: +1 and -1 cancel.
        coeffs = dict(rel.coefficients())
        assert 0 not in coeffs
        assert sorted(coeffs.values()) == [-1, 1]

    def test_pair_structure(self):
        for rel in crossing_relations(load("figure_eight")):
            coeffs = [c for _, c in rel.coefficients()]
            assert sum(coeffs) == 0


class TestDehnStructure:
    def test_unknot(self):
        rep = dehn_structure(parse_diagram("O 1"))
        assert rep.phi == (0,)
        assert rep.dehn.describe() == "A x A"

    def test_unlink2_either_shading(self):
        d = parse_diagram("O 2")
        rm = trace_regions(d)
        for s in checkerboard(rm):
            rep = dehn_structure(d, s, region_map=rm)
            assert rep.phi == (0, 0)
            assert rep.dehn.describe() == "A x A x A"

    def test_trefoil(self):
        rep = dehn_structure(load("trefoil"))
        assert rep.dehn.describe() == "A x A x A(3)"
        assert rep.fox.describe() == "A x A(3)"

    def test_figure_eight(self):
        rep = dehn_structure(load("figure_eight"))
        assert rep.phi == (0, 5, 1)
        assert rep.dehn.describe() == "A x A x A(5)"


class TestStructureCount:
    def test_trefoil_orders(self):
        rep = dehn_structure(load("trefoil"))
        assert structure_count(rep, 3, "dehn") == 27
        assert structure_count(rep, 3, "fox") == 9

    def test_free_only(self):
        rep = dehn_structure(parse_diagram("O 1"))
        for m in (2, 5, 12):
            assert structure_count(rep, m, "dehn") == m * m

    def test_golden_phi_order(self):
        from linkcolor.intlattice import GroupDescriptor
        from linkcolor.coloring import ColoringReport

        phi = (0, 0, 3, 3, 1)
        zeros = sum(1 for f in phi if f == 0)
        rep = ColoringReport(
            dehn=GroupDescriptor(zeros + 1, (3, 3)),
            fox=GroupDescriptor(zeros, (3, 3)),
            phi=phi,
            goeritz=None,
        )
        assert structure_count(rep, 3, "dehn") == 243

    def test_unknown_kind(self):
        rep = dehn_structure(load("trefoil"))
        with pytest.raises(ValueError):
            structure_count(rep, 3, "alexander")


class TestDehnBruteForce:
    def test_unknot_m7(self):
        assert dehn_count_bruteforce(parse_diagram("O 1"), 7) == 49

    def test_trefoil_m3(self):
        assert dehn_count_bruteforce(load("trefoil"), 3) == 27

    def test_figure_eight_m5(self):
        assert dehn_count_bruteforce(load("figure_eight"), 5) == 125

    def test_enumeration_cap(self):
        with pytest.raises(WorkBoundError):
            dehn_count_bruteforce(load("granny"), 3, method="enumerate", region_cap=5)
        # A large modulus with small prime factors is cheap: 2^5 * 5^5.
        rep = dehn_structure(load("trefoil"))
        assert dehn_count_bruteforce(load("trefoil"), 100000) == \
            structure_count(rep, 100000, "dehn")
        assert fox_count_bruteforce(load("trefoil"), 100000) == \
            structure_count(rep, 100000, "fox")
        # Two primes near 10^20: trial division would need about 10^20
        # steps to split their product, and the factoring cap refuses.
        modulus = (10 ** 20 + 39) * (10 ** 20 + 129)
        for count in (dehn_count_bruteforce, fox_count_bruteforce):
            with pytest.raises(WorkBoundError, match=f"trial division.*{MAX_FACTOR_WORK}"):
                count(load("trefoil"), modulus)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            dehn_count_bruteforce(load("trefoil"), 3, method="magic")

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            dehn_count_bruteforce(load("trefoil"), 1)

    def test_invariant_under_relabel_and_reorder(self):
        rng = random.Random(7)
        for name in ("trefoil", "figure_eight", "hopf"):
            d = load(name)
            want = dehn_count_bruteforce(d, 4)
            labels = list(d.edge_labels())
            targets = rng.sample(range(1, 100), len(labels))
            moved = relabel_edges(d, dict(zip(labels, targets)))
            shuffled = list(moved.crossings)
            rng.shuffle(shuffled)
            moved = Diagram(tuple(shuffled), moved.free_circles)
            assert dehn_count_bruteforce(moved, 4) == want


def scan_count(nvars, relations, modulus):
    """Reference count: test every assignment in (Z/modulus)^nvars."""
    return sum(
        all(sum(c * x[v] for v, c in rel) % modulus == 0 for rel in relations)
        for x in itertools.product(range(modulus), repeat=nvars))


@st.composite
def linear_systems(draw):
    """Relations over 1-6 variables mod 2-9: repeated variables, zero and
    negative coefficients, variables no relation mentions. The modulus
    keeps the reference scan within 10,000 assignments. About half the
    systems get a last term in each relation making its coefficients
    sum to 0, like the crossing relations, whose solutions then come in
    orbits of translations."""
    nvars = draw(st.integers(1, 6))
    modulus = draw(st.integers(2, max(m for m in range(2, 10) if m ** nvars <= 10_000)))
    term = st.tuples(st.integers(0, nvars - 1), st.integers(-4, 4))
    relations = draw(st.lists(st.lists(term, max_size=5), max_size=6))
    if draw(st.booleans()):
        relations = [rel + [(draw(st.integers(0, nvars - 1)), -sum(c for _, c in rel))]
                     for rel in relations]
    return nvars, relations, modulus


class TestCountSolutions:
    @settings(max_examples=200, deadline=None)
    @given(linear_systems())
    def test_matches_scan(self, system):
        assert _count_solutions(*system) == scan_count(*system)

    def test_exact_past_int64(self):
        # 3*y_i == k*z (mod 9) for 45 variables y_i: the counts pass
        # 2**63 and stay exact; pivots of valuation 1 contribute 3 each.
        ys = range(45)
        balanced = [[(y, 3), (45, -3)] for y in ys]
        assert _count_solutions(46, balanced, 9) == 9 * 3 ** 45
        unbalanced = [[(y, 3), (45, -2)] for y in ys]
        assert _count_solutions(46, unbalanced, 9) == 3 * 3 ** 45


class TestTwoBridgeFamily:
    """2-bridge links and T(2, n) have non-unit invariant factors (0, p),
    so m^2 * gcd(p, m) Dehn and m * gcd(p, m) Fox colorings mod m: a
    third check on both routes that needs no reduction."""

    def test_both_routes_match_the_closed_form(self, two_bridge, braid):
        rng = random.Random(20261019)
        cases = [two_bridge([rng.randint(1, 40) for _ in range(rng.choice((3, 5, 7, 9)))])
                 for _ in range(10)]
        cases += [(braid.code_text(braid.braid_closure(2, [(1, 1)] * n)), n) for n in (2, 9, 24)]
        dividing = []
        for code, p in cases:
            d = parse_diagram(code)
            rm = trace_regions(d)
            reps = [dehn_structure(d, s, region_map=rm) for s in checkerboard(rm)]
            assert [tuple(f for f in rep.phi if f != 1) for rep in reps] == [(0, p)] * 2
            divisor = next((q for q in range(2, 10 ** 4) if p % q == 0), p)
            for m in sorted({divisor, 2, 3, 12, 10 ** 6}):
                g = gcd(p, m)
                dividing.append(g == m)
                assert {structure_count(rep, m, "dehn") for rep in reps} == {m * m * g}
                assert {structure_count(rep, m, "fox") for rep in reps} == {m * g}
                assert dehn_count_bruteforce(d, m, region_cap=rm.region_count) == m * m * g
                assert fox_count_bruteforce(d, m, arc_cap=d.crossing_count) == m * g
        assert sum(dividing) >= 13 and dividing.count(False) >= 13


class TestArcsAndFox:
    def test_arc_counts(self):
        for name, want in [("unknot", 1), ("kink", 1), ("trefoil", 3),
                           ("figure_eight", 4), ("hopf", 2), ("t2_4", 4)]:
            assert arc_partition(load(name))[1] == want, name

    def test_over_strand_joins(self):
        arc_of, n = arc_partition(load("trefoil"))
        for c in load("trefoil").crossings:
            assert arc_of[c.slots[1]] == arc_of[c.slots[3]]
        assert n == 3

    def test_unknot_m5(self):
        assert fox_count_bruteforce(parse_diagram("O 1"), 5) == 5

    def test_trefoil_m3(self):
        assert fox_count_bruteforce(load("trefoil"), 3) == 9

    def test_figure_eight_m5(self):
        assert fox_count_bruteforce(load("figure_eight"), 5) == 25

    def test_matches_structure_for_corpus(self):
        for name in names():
            d = load(name)
            rep = dehn_structure(d)
            for m in (2, 3, 5, 7):
                assert fox_count_bruteforce(d, m) == structure_count(rep, m, "fox")

    def test_dehn_is_m_times_fox(self):
        for name in names():
            rep = dehn_structure(load(name))
            for m in range(2, 8):
                assert structure_count(rep, m, "dehn") == \
                    m * structure_count(rep, m, "fox")

    def test_arc_cap(self):
        with pytest.raises(WorkBoundError):
            fox_count_bruteforce(load("figure_eight"), 3, arc_cap=2)


class TestColoringEquivalent:
    def test_reflexive(self):
        g = _goeritz("trefoil")
        assert coloring_equivalent(g, g)

    def test_kink_does_not_matter(self):
        assert coloring_equivalent(_goeritz("trefoil"), _goeritz("trefoil_kink"))

    def test_torsion_differs(self):
        assert not coloring_equivalent(_goeritz("trefoil"), _goeritz("figure_eight"))

    def test_free_rank_matters(self):
        # (0,) vs (0,0): equal torsion but different free rank.
        assert not coloring_equivalent(_goeritz("unknot"), _goeritz("unlink2"))
