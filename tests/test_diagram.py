"""Diagram code parsing and region tracing."""

import random

import pytest

from linkcolor.catalog import CODES, load, names
from linkcolor.diagram import (
    Crossing,
    Diagram,
    DiagramError,
    NonPlanarError,
    RegionMap,
    disjoint_union,
    parse_diagram,
    relabel_edges,
    serialize_diagram,
    trace_regions,
    underlying_components,
)
from linkcolor.realize import realize

REGION_COUNTS = {
    "unknot": 2,
    "kink": 3,
    "unlink2": 3,
    "hopf": 4,
    "trefoil": 5,
    "figure_eight": 6,
    "granny": 8,
    "t2_4": 6,
    "trefoil_kink": 6,
}


class TestParsing:
    def test_trefoil(self):
        d = parse_diagram("X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)")
        assert d.crossing_count == 3
        assert d.free_circles == 0
        assert d.edge_labels() == (1, 2, 3, 4, 5, 6)

    def test_free_circle(self):
        d = parse_diagram("O 1")
        assert d.crossing_count == 0
        assert d.free_circles == 1

    def test_kink_repeated_labels(self):
        d = parse_diagram("X(1,2,2,1)")
        assert d.crossings[0].slots == (1, 2, 2, 1)

    def test_whitespace_newlines_comments(self):
        text = """
        # a trefoil, one crossing per line
        X( 1 , 4 , 2 , 5 )
        x(3,6,4,1)   # lowercase works too
        X(5,2,6,3) ; o 2
        """
        d = parse_diagram(text)
        assert d.crossing_count == 3
        assert d.free_circles == 2

    def test_labels_need_not_be_consecutive(self):
        d = parse_diagram("X(10,30,20,40);X(30,10,40,20)")
        assert d.edge_labels() == (10, 20, 30, 40)

    def test_round_trip_whole_catalog(self):
        for name in names():
            d = load(name)
            assert parse_diagram(serialize_diagram(d)) == d

    def test_serialization_is_canonical(self):
        assert serialize_diagram(parse_diagram("x( 1, 3 ,2,4)\nX(3,1,4,2)")) == \
            "X(1,3,2,4);X(3,1,4,2)"
        assert serialize_diagram(parse_diagram("O 2")) == "O 2"

    @pytest.mark.parametrize("text", [
        "",
        "# only a comment",
        "X(1,2,3,4)",              # labels occur once
        "X(1,1,1,1)",              # label occurs four times
        "X(1,2,2,1);O 1;O 1",      # two O items
        "O 0",                     # non-positive circle count
        "X(0,1,1,0)",              # zero label
        "X(1,2,2)",                # wrong arity
        "Y(1,2,2,1)",              # unknown item
        "X(1,2,2,1) X(3,4,4,3)",   # missing separator
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(DiagramError):
            parse_diagram(text)

    def test_catalog_names(self):
        assert set(names()) == set(CODES)
        with pytest.raises(KeyError):
            load("perko_pair")


class TestComponents:
    def test_trefoil_single(self):
        assert underlying_components(load("trefoil")) == ((0, 1, 2),)

    def test_disjoint_trefoils(self):
        d = disjoint_union(load("trefoil"), load("trefoil"))
        assert underlying_components(d) == ((0, 1, 2), (3, 4, 5))

    def test_circles_only(self):
        assert underlying_components(parse_diagram("O 3")) == ()


class TestRegions:
    @pytest.mark.parametrize("name,count", sorted(REGION_COUNTS.items()))
    def test_corpus_counts(self, name, count):
        assert trace_regions(load(name)).region_count == count

    def test_unknot_nesting(self):
        rm = trace_regions(parse_diagram("O 1"))
        assert rm.unbounded_region == 0
        assert rm.circle_regions == (1,)

    def test_three_circles(self):
        rm = trace_regions(parse_diagram("O 3"))
        assert rm.region_count == 4
        assert rm.circle_regions == (1, 2, 3)

    def test_every_quadrant_assigned_once(self):
        for name in names():
            d = load(name)
            rm = trace_regions(d)
            assert len(rm.quadrant_region) == d.crossing_count
            seen = {r for quads in rm.quadrant_region for r in quads}
            seen.update(rm.circle_regions)
            if d.crossing_count or d.free_circles:
                seen.add(rm.unbounded_region)
            assert seen == set(range(rm.region_count))

    def test_split_union_shares_unbounded(self):
        a = load("trefoil")
        d = disjoint_union(a, a)
        rm = trace_regions(d)
        # 5 + 5 regions, unbounded counted once.
        assert rm.region_count == 9
        assert rm.quadrant_region[0][2] == rm.quadrant_region[3][2] == 0

    def test_circles_beside_crossings(self):
        d = parse_diagram(CODES["trefoil"] + ";O 2")
        rm = trace_regions(d)
        assert rm.region_count == 7
        assert rm.circle_regions == (5, 6)

    def test_quadrants_of(self):
        rm = trace_regions(load("hopf"))
        for region in range(rm.region_count):
            quads = rm.quadrants_of(region)
            assert quads
            assert all(rm.quadrant_region[c][q] == region for c, q in quads)

    def test_nonplanar_rejected(self):
        with pytest.raises(NonPlanarError):
            trace_regions(parse_diagram("X(1,2,1,2)"))

    def test_nonplanar_component_inside_split_diagram(self):
        d = parse_diagram("X(1,2,1,2);X(3,4,4,3)")
        with pytest.raises(NonPlanarError):
            trace_regions(d)


def _reference_trace_regions(d: Diagram) -> RegionMap:
    """The tracer that the walk over integer darts replaced: a mate
    table keyed by (crossing, slot), one face walk per component, then a
    renumbering. The reference for region numbering."""
    holders: dict[int, list[tuple[int, int]]] = {}
    for ci, c in enumerate(d.crossings):
        for t, v in enumerate(c.slots):
            holders.setdefault(v, []).append((ci, t))
    mate: dict[tuple[int, int], tuple[int, int]] = {}
    for a, b in holders.values():
        mate[a] = b
        mate[b] = a
    comps = underlying_components(d)
    quad_face = [[-1, -1, -1, -1] for _ in range(d.crossing_count)]
    n_faces = 0
    for comp in comps:
        comp_faces = 0
        for c0 in comp:
            for q0 in range(4):
                if quad_face[c0][q0] != -1:
                    continue
                face = n_faces + comp_faces
                comp_faces += 1
                dart = (c0, (q0 + 1) % 4)
                while True:
                    mc, mt = mate[dart]
                    if quad_face[mc][mt] != -1:
                        break
                    quad_face[mc][mt] = face
                    dart = (mc, (mt + 1) % 4)
        if comp_faces != len(comp) + 2:
            raise NonPlanarError(
                f"component at crossing {comp[0]} traces {comp_faces} faces, "
                f"needs {len(comp) + 2} for a planar embedding")
        n_faces += comp_faces
    remap = {f: 0 for f in sorted({quad_face[comp[0]][2] for comp in comps})}
    nxt = 1
    for c in range(d.crossing_count):
        for q in range(4):
            f = quad_face[c][q]
            if f not in remap:
                remap[f] = nxt
                nxt += 1
    quadrant_region = tuple(
        tuple(remap[f] for f in quad_face[c]) for c in range(d.crossing_count))
    circle_regions = []
    for _ in range(d.free_circles):
        circle_regions.append(nxt)
        nxt += 1
    return RegionMap(
        region_count=nxt,
        quadrant_region=quadrant_region,
        circle_regions=tuple(circle_regions),
    )


class TestReferenceTracer:
    """trace_regions numbers every region as the reference tracer does."""

    def test_catalog_and_circles(self):
        for d in [load(name) for name in names()] + [parse_diagram("O 3")]:
            assert trace_regions(d) == _reference_trace_regions(d)

    def test_braid_closures(self, braid):
        rng = random.Random(9)
        for crossings in [10, 600] + [rng.randint(10, 600) for _ in range(18)]:
            strands = rng.randint(2, 9)
            d = parse_diagram(braid.code_text(
                braid.braid_closure(strands, braid.braid_word(rng, strands, crossings))))
            assert trace_regions(d) == _reference_trace_regions(d)

    def test_realized_diagrams(self):
        for spec in [(), (0,), (1,), (0, 0), (6, 4), (0, 3, 3, 1), (2, 0, 5), (1, 0, 12, 7, 0)]:
            d = realize(spec).diagram
            assert trace_regions(d) == _reference_trace_regions(d)

    def test_disjoint_unions_with_circles(self):
        rng = random.Random(3)
        for _ in range(30):
            d = parse_diagram(f"O {rng.randint(1, 3)}")
            for name in rng.sample(names(), rng.randint(2, 3)):
                pair = (d, load(name)) if rng.random() < 0.5 else (load(name), d)
                d = disjoint_union(*pair)
            assert trace_regions(d) == _reference_trace_regions(d)

    @pytest.mark.parametrize("code", ["X(1,2,1,2)", "X(1,2,1,2);X(3,4,4,3)"])
    def test_same_nonplanar_message(self, code):
        d = parse_diagram(code)
        with pytest.raises(NonPlanarError) as mine:
            trace_regions(d)
        with pytest.raises(NonPlanarError) as ref:
            _reference_trace_regions(d)
        assert str(mine.value) == str(ref.value)


class TestRewriting:
    def test_relabel_partial_mapping(self):
        d = load("hopf")
        moved = relabel_edges(d, {1: 9})
        assert moved.edge_labels() == (2, 3, 4, 9)

    def test_relabel_preserves_regions(self):
        d = load("figure_eight")
        mapping = {v: v + 100 for v in d.edge_labels()}
        assert trace_regions(relabel_edges(d, mapping)).region_count == 6

    def test_disjoint_union_shifts_labels(self):
        d = disjoint_union(load("hopf"), load("hopf"))
        assert d.edge_labels() == (1, 2, 3, 4, 5, 6, 7, 8)
        assert d.crossing_count == 4

    def test_disjoint_union_carries_circles(self):
        d = disjoint_union(parse_diagram("O 1"), parse_diagram("O 2"))
        assert d.free_circles == 3


class TestValidation:
    def test_crossing_arity(self):
        with pytest.raises(DiagramError):
            Crossing((1, 2, 3))

    def test_crossing_label_type(self):
        with pytest.raises(DiagramError):
            Crossing((1, 2, 3, 0))

    def test_diagram_requires_content(self):
        with pytest.raises(DiagramError):
            Diagram(())

    def test_diagram_label_multiset(self):
        with pytest.raises(DiagramError):
            Diagram((Crossing((1, 2, 3, 4)),))
