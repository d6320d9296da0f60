"""Acceptance gate.

Seven headline checks (AC-1..AC-7) and one oracle check on braid
closures, each printing a single PASS/FAIL line with its wall-clock
time. Every numeric comparison is exact integer equality;
the printed line appears even under pytest capture.
"""

import random
import time

from linkcolor.catalog import load
from linkcolor.coloring import (
    coloring_equivalent,
    dehn_count_bruteforce,
    dehn_structure,
    fox_count_bruteforce,
    structure_count,
)
from linkcolor.diagram import (
    Diagram,
    disjoint_union,
    parse_diagram,
    relabel_edges,
    trace_regions,
    underlying_components,
)
from linkcolor.goeritz import goeritz_matrix
from linkcolor.intlattice import (
    IntMatrix,
    determinant,
    elementary_gcds,
    invariant_factors,
    smith_normal_form,
)
from linkcolor.realize import realize
from linkcolor.shading import checkerboard

CORPUS = ("unknot", "kink", "unlink2", "hopf", "trefoil",
          "figure_eight", "granny", "t2_4")

GOLDEN_ADJUSTED = (
    (0, 0, 0, 0, 0),
    (0, 3, 0, 0, -3),
    (0, 0, 3, 0, -3),
    (0, 0, 0, 1, -1),
    (0, -3, -3, -1, 7),
)


def _report(capsys, tag, ok, elapsed, limit, detail):
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    with capsys.disabled():
        print(f"{tag} {verdict} ({elapsed:.2f}s): {detail}")
    assert ok, f"{tag}: {detail}"
    assert elapsed < limit, f"{tag} over budget: {elapsed:.2f}s >= {limit}s"


def test_ac1_golden_fixture(capsys):
    t0 = time.perf_counter()
    r = realize((0, 3, 3, 1))
    ok = r.goeritz.adjusted.entries == GOLDEN_ADJUSTED
    ok = ok and invariant_factors(r.goeritz.adjusted) == (0, 0, 3, 3, 1)
    _report(capsys, "AC-1", ok, time.perf_counter() - t0, 1.0,
            "realize(0,3,3,1) reproduces the 5x5 adjusted matrix, "
            "factors (0,0,3,3,1)")


def test_ac2_dehn_count_oracle(capsys):
    t0 = time.perf_counter()
    ok = True
    cases = 0
    for name in CORPUS:
        d = load(name)
        rm = trace_regions(d)
        reps = [dehn_structure(d, s, region_map=rm) for s in checkerboard(rm)]
        for m in range(2, 10):
            brute = dehn_count_bruteforce(d, m, method="enumerate",
                                          region_cap=8)
            for rep in reps:
                ok = ok and brute == structure_count(rep, m, "dehn")
                cases += 1
    _report(capsys, "AC-2", ok, time.perf_counter() - t0, 60.0,
            f"enumerated Dehn counts match m*prod(gcd(phi_j,m)) in "
            f"{cases} cases (8 diagrams, m=2..9, both shadings)")


def test_oracle_on_braid_closures(capsys, braid):
    """Both counting routes agree on closures of 100-300 crossings, over
    thirty times the catalog's largest diagram and far past what a scan
    of m**regions assignments could reach."""
    t0 = time.perf_counter()
    rng = random.Random(20261018)
    ok = True
    cases = 0
    for crossings in (100, 170, 240, 300):
        for strands in (3, 5, 7):
            code = braid.code_text(braid.braid_closure(
                strands, braid.braid_word(rng, strands, crossings)))
            d = parse_diagram(code)
            regions = trace_regions(d).region_count
            ok = ok and regions == crossings + 2
            rep = dehn_structure(d)
            # 9 and 12 exercise prime powers and the product over primes,
            # 10**6 both at once with 2**6 and 5**6.
            for m in (2, 3, 9, 12, 10 ** 6):
                ok = ok and dehn_count_bruteforce(d, m, region_cap=regions) \
                    == structure_count(rep, m, "dehn")
                ok = ok and fox_count_bruteforce(d, m, arc_cap=crossings) \
                    == structure_count(rep, m, "fox")
                cases += 1
    _report(capsys, "ORACLE", ok, time.perf_counter() - t0, 10.0,
            f"Dehn and Fox elimination counts match the invariant factors "
            f"in {cases} cases (braid closures of 100-300 crossings, "
            f"m=2,3,9,12,10^6)")


def test_ac3_snf_property_suite(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20260817)
    ok = True
    delta_checks = 0
    for _ in range(1000):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)], nc)
        res = smith_normal_form(m)
        ok = ok and (res.u1 @ m @ res.u2).entries == res.normal_form().entries
        ok = ok and abs(determinant(res.u1)) == 1
        ok = ok and abs(determinant(res.u2)) == 1
        phi = res.phi
        for j in range(1, len(phi)):
            if phi[j] == 0:
                ok = ok and phi[j - 1] == 0
            else:
                ok = ok and phi[j - 1] % phi[j] == 0
        if nr <= 5 and nc <= 5:
            deltas = elementary_gcds(m)
            want = tuple(
                0 if deltas[j] == 0 else deltas[j] // deltas[j + 1]
                for j in range(nc))
            ok = ok and phi == want
            delta_checks += 1
    _report(capsys, "AC-3", ok, time.perf_counter() - t0, 30.0,
            f"1000 random matrices: witness product, unimodularity and "
            f"divisor chain hold; {delta_checks} minor-gcd cross-checks")


def test_ac4_equivalence_suite(capsys):
    t0 = time.perf_counter()

    def gd(name, idx):
        d = load(name)
        rm = trace_regions(d)
        return goeritz_matrix(d, rm, checkerboard(rm)[idx])

    ok = all(coloring_equivalent(gd(n, 0), gd(n, 1)) for n in CORPUS)
    ok = ok and coloring_equivalent(gd("trefoil", 0), gd("trefoil_kink", 0))
    ok = ok and not coloring_equivalent(gd("trefoil", 0), gd("figure_eight", 0))
    _report(capsys, "AC-4", ok, time.perf_counter() - t0, 5.0,
            "opposite shadings agree on all 8 diagrams; kinked trefoil "
            "equivalent; trefoil vs figure-eight distinct")


def test_ac5_realization_closure(capsys):
    t0 = time.perf_counter()
    ok = True
    for name in CORPUS:
        d = load(name)
        rep = dehn_structure(d)
        r = realize(rep.phi[1:])
        ok = ok and coloring_equivalent(rep.goeritz, r.goeritz)
        for m in range(2, 6):
            ok = ok and dehn_count_bruteforce(d, m) == \
                dehn_count_bruteforce(r.diagram, m)
    _report(capsys, "AC-5", ok, time.perf_counter() - t0, 60.0,
            "realize(nonleading factors) is coloring-equivalent to each "
            "diagram, with matching brute counts for m=2..5")


def test_ac6_fox_consistency(capsys):
    t0 = time.perf_counter()
    ok = True
    cases = 0
    for name in CORPUS:
        d = load(name)
        rep = dehn_structure(d)
        for m in range(2, 8):
            fox = fox_count_bruteforce(d, m)
            ok = ok and fox == structure_count(rep, m, "fox")
            ok = ok and dehn_count_bruteforce(d, m) == m * fox
            cases += 1
    _report(capsys, "AC-6", ok, time.perf_counter() - t0, 60.0,
            f"Fox counts equal prod(gcd(phi_j,m)) and Dehn = m * Fox in "
            f"{cases} cases (8 diagrams, m=2..7)")


def test_ac7_structural_invariants(capsys):
    t0 = time.perf_counter()
    rng = random.Random(99)
    ok = True
    for _ in range(500):
        spec = tuple(rng.randint(0, 6) for _ in range(rng.randint(0, 4)))
        d = realize(spec).diagram
        if rng.random() < 0.3:
            extra = tuple(rng.randint(0, 6) for _ in range(rng.randint(0, 3)))
            d = disjoint_union(d, realize(extra).diagram)
        labels = list(d.edge_labels())
        d = relabel_edges(d, dict(zip(labels,
                                      rng.sample(range(1, 2000), len(labels)))))
        crossings = list(d.crossings)
        rng.shuffle(crossings)
        d = Diagram(tuple(crossings), d.free_circles)

        rm = trace_regions(d)
        k = len(underlying_components(d))
        want = d.crossing_count + k + 1 + d.free_circles if k \
            else 1 + d.free_circles
        ok = ok and rm.region_count == want
        for s in checkerboard(rm):
            data = goeritz_matrix(d, rm, s)
            g = data.matrix
            ok = ok and g.entries == g.transpose().entries
            ok = ok and all(sum(row) == 0 for row in g.entries)
            ok = ok and invariant_factors(data.adjusted)[0] == 0
    _report(capsys, "AC-7", ok, time.perf_counter() - t0, 30.0,
            "500 composed/relabeled diagrams: Euler region count, "
            "symmetric zero-sum Goeritz, leading adjusted factor 0")
