import math
from fractions import Fraction

import pytest

from pergraph import (
    Bond,
    Edge,
    FundamentalGraph,
    GraphError,
    PeriodicDescription,
    Vertex,
    assign_indices,
    bridges,
    exact_quasimomentum,
    generate,
    is_bipartite,
    is_loop_graph,
    validate,
    zeta,
)
from pergraph.graph_core import sign_flip_classes

from conftest import (
    CATALOG_SAMPLE,
    chain_description,
    even_loop_line,
    mixed_class_space,
    single_loop_plane,
)


def test_validate_accepts_catalog_graphs():
    for name, kw in (("lattice", dict(d=2)), ("bcc", {}), ("fcc", {})):
        assert validate(generate(name, **kw)) == []


def test_validate_reports_bad_dimension():
    g = FundamentalGraph(0, (Vertex(1),), (Edge(1, 1, ()),))
    assert "dimension must be a positive integer" in validate(g)


def test_validate_reports_duplicate_ids():
    g = FundamentalGraph(
        1, (Vertex(1), Vertex(1)), (Edge(1, 1, (1,)),)
    )
    assert "vertex ids are not distinct" in validate(g)


def test_validate_reports_index_dimension_mismatch():
    g = FundamentalGraph(2, (Vertex(1),), (Edge(1, 1, (1,)),))
    assert any("index dimension mismatch" in v for v in validate(g))


def test_validate_reports_non_integer_index():
    g = FundamentalGraph(1, (Vertex(1),), (Edge(1, 1, (0.5,)),))
    assert any("non-integer index" in v for v in validate(g))


def test_validate_reports_dangling_endpoint():
    g = FundamentalGraph(1, (Vertex(1),), (Edge(1, 2, (0,)),))
    assert any("dangling edge endpoint" in v for v in validate(g))


def test_validate_reports_disconnected_quotient():
    g = FundamentalGraph(
        1,
        (Vertex(1), Vertex(2)),
        (Edge(1, 1, (1,)), Edge(2, 2, (1,))),
    )
    assert "disconnected" in validate(g)


def test_loop_counts_twice_in_degree():
    g = generate("lattice", d=3)
    assert g.degrees == {1: 6}


def test_bcc_degrees():
    g = generate("bcc")
    assert g.degrees == {1: 8, 2: 14}


def test_fcc_degrees():
    g = generate("fcc")
    assert g.degrees == {1: 4, 2: 4, 3: 4, 4: 18}


def test_assign_indices_chain():
    graph, assignment = assign_indices(chain_description())
    assert [e.index for e in graph.edges] == [(0,), (1,)]
    assert assignment.coordinates[1] == (0,)
    assert assignment.coordinates[2] == (0,)
    assert len(assignment.tree) == 1


def test_assign_indices_matches_cell_offsets():
    # 5-vertex quotient in d=2. Breadth-first from vertex 1, the tree is
    # (1,2), (1,4), (3,1), (4,5); vertices 4 and 5 land in the neighboring
    # cell, so both closing bonds pick up the offset difference.
    desc = PeriodicDescription(
        dimension=2,
        vertices=tuple(Vertex(k) for k in range(1, 6)),
        bonds=(
            Bond(1, 2, (0, 0)),
            Bond(2, 3, (0, 1)),
            Bond(1, 4, (1, 0)),
            Bond(4, 5, (0, 0)),
            Bond(3, 1, (0, 0)),
            Bond(5, 3, (-1, 1)),
        ),
    )
    graph, assignment = assign_indices(desc)
    assert assignment.coordinates == {
        1: (0, 0),
        2: (0, 0),
        3: (0, 0),
        4: (1, 0),
        5: (1, 0),
    }
    by_pair = {(e.tail, e.head): e.index for e in graph.edges}
    tree_pairs = {(b.tail, b.head) for b in assignment.tree}
    assert tree_pairs == {(1, 2), (1, 4), (3, 1), (4, 5)}
    for pair in tree_pairs:
        assert by_pair[pair] == (0, 0)
    assert by_pair[(2, 3)] == (0, 1)
    assert by_pair[(5, 3)] == (0, 1)


def test_assign_indices_rejects_disconnected():
    desc = PeriodicDescription(
        dimension=1,
        vertices=(Vertex(1), Vertex(2)),
        bonds=(Bond(1, 1, (1,)), Bond(2, 2, (1,))),
    )
    with pytest.raises(GraphError, match="quotient not connected"):
        assign_indices(desc)


def test_bridges_directed_counts_bcc():
    b = bridges(generate("bcc"))
    assert b.counts == {1: 7, 2: 13}
    assert len(b.directed) == 20
    for e in b.directed:
        assert e.index != (0, 0, 0)


def test_zeta_lattice_meets_single_vertex_bound():
    report = zeta(generate("lattice", d=2))
    assert report.value == 1.0
    assert report.bound == 1.0
    assert report.within_bound
    assert report.warning is None


def test_zeta_bcc_value_and_bound():
    report = zeta(generate("bcc"))
    assert math.isclose(report.value, 7 / 8 + 13 / 14, rel_tol=0, abs_tol=1e-15)
    assert Fraction(7, 8) + Fraction(13, 14) == Fraction(101, 56)
    assert math.isclose(report.bound, 2 - 1 / 8 - 1 / 14, abs_tol=1e-15)
    assert report.within_bound


def test_zeta_star_decorated():
    g = generate("star_decorated", d=2, nu=3)
    assert math.isclose(float(zeta(g)), 4 / 6, abs_tol=1e-15)


def test_zeta_warns_without_bridges():
    g = FundamentalGraph(
        1, (Vertex(1), Vertex(2)), (Edge(1, 2, (0,)), Edge(2, 1, (0,)))
    )
    report = zeta(g)
    assert report.value == 0.0
    assert report.warning == "no bridges: periodic graph cannot be connected"


def test_is_loop_graph():
    assert is_loop_graph(generate("lattice", d=2))
    assert is_loop_graph(generate("star_decorated", d=2, nu=4))
    assert not is_loop_graph(generate("bcc"))
    assert not is_loop_graph(generate("subdivided", d=2, n=1))


def test_exact_quasimomentum_lattice():
    assert exact_quasimomentum(generate("lattice", d=3)) == (
        math.pi,
        math.pi,
        math.pi,
    )


def test_exact_quasimomentum_star():
    theta = exact_quasimomentum(generate("star_decorated", d=2, nu=5))
    assert theta == (math.pi, math.pi)


def test_exact_quasimomentum_even_loop_has_none():
    assert exact_quasimomentum(even_loop_line()) is None


def test_exact_quasimomentum_rejects_non_loop_graph():
    with pytest.raises(GraphError, match="loop graphs only"):
        exact_quasimomentum(generate("bcc"))


def test_bipartite_subdivided_parts():
    parts = is_bipartite(generate("subdivided", d=3, n=1))
    assert parts is not None
    sizes = sorted(len(p) for p in parts)
    assert sizes == [1, 3]


def test_bipartite_rejects_loops():
    assert is_bipartite(generate("lattice", d=2)) is None


def test_bipartite_rejects_odd_cycle():
    g = FundamentalGraph(
        1,
        (Vertex(1), Vertex(2), Vertex(3)),
        (Edge(1, 2, (0,)), Edge(2, 3, (0,)), Edge(3, 1, (1,))),
    )
    assert is_bipartite(g) is None


def test_bipartite_even_subdivision_is_not():
    # N = 2 puts two midpoints on each cycle through the center, an odd cycle.
    assert is_bipartite(generate("subdivided", d=2, n=2)) is None


def test_single_loop_plane_is_valid_but_rank_deficient():
    g = single_loop_plane()
    assert validate(g) == []
    spans = {e.index for e in bridges(g).directed}
    assert spans == {(1, 0), (-1, 0)}


@pytest.mark.parametrize(
    "name, kw, classes",
    [
        ("lattice", dict(d=1), ((0,),)),
        ("lattice", dict(d=3), ((0,), (1,), (2,))),
        ("star_decorated", dict(d=2, nu=8), ((0,), (1,))),
        ("star_decorated", dict(d=3, nu=3), ((0,), (1,), (2,))),
        ("subdivided", dict(d=3, n=4), ((0,), (1,), (2,))),
        ("bcc", {}, ((0, 1, 2),)),
        ("fcc", {}, ((0, 1, 2),)),
    ],
)
def test_sign_flip_classes_of_catalog_graphs(name, kw, classes):
    assert sign_flip_classes(generate(name, **kw)) == classes


def test_sign_flip_classes_split_by_block():
    assert sign_flip_classes(mixed_class_space()) == ((0,), (1, 2))
    # an axis that no cycle winds around is a class of its own
    assert sign_flip_classes(single_loop_plane()) == ((0,), (1,))


def _shifted(graph, vertex, shift):
    """The same periodic graph with `vertex` moved into the cell `shift`."""

    def moved(e):
        sign = (e.tail == vertex) - (e.head == vertex)
        return Edge(
            e.tail, e.head, tuple(i + sign * s for i, s in zip(e.index, shift))
        )

    return FundamentalGraph(
        graph.dimension, graph.vertices, tuple(moved(e) for e in graph.edges)
    )


@pytest.mark.parametrize(
    "graph",
    [generate(name, **kw) for name, kw in CATALOG_SAMPLE]
    + [mixed_class_space()],
)
def test_sign_flip_classes_do_not_depend_on_the_cell_choice(graph):
    classes = sign_flip_classes(graph)
    for vertex in graph.vertex_ids:
        for axis in range(graph.dimension):
            shift = tuple(int(j == axis) for j in range(graph.dimension))
            moved = _shifted(graph, vertex, shift)
            assert moved.edges != graph.edges or graph.order == 1
            assert sign_flip_classes(moved) == classes
