import random

import pytest

import graphconf as gc
from graphconf.graphs import GraphSpec, GraphSpecError, parse_graph_spec


def valences(g):
    return tuple(g.valence(v) for v in range(g.num_vertices))


def test_named_families():
    g = gc.interval()
    assert (g.num_vertices, g.num_edges) == (2, 1)
    assert valences(g) == (1, 1)

    g = gc.circle()
    assert (g.num_vertices, g.num_edges) == (1, 1)
    assert g.valence(0) == 2 and g.is_loop(0)

    g = gc.star(3)
    assert (g.num_vertices, g.num_edges) == (4, 3)
    assert valences(g) == (3, 1, 1, 1)

    # the rank-three banana of the non-product construction has FOUR
    # parallel edges: banana(k) always means k parallel edges
    g = gc.banana(4)
    assert (g.num_vertices, g.num_edges) == (2, 4)
    assert valences(g) == (4, 4)

    g = gc.h_graph()
    assert (g.num_vertices, g.num_edges) == (6, 5)
    assert sorted(valences(g), reverse=True)[:2] == [3, 3]

    assert gc.complete(5).num_edges == 10
    assert gc.complete_bipartite(3, 3).num_edges == 9


def test_half_edge_structure():
    g = gc.banana(3)
    for e in range(g.num_edges):
        assert g.vertex_of_end(2 * e) == g.edges[e][0]
        assert g.vertex_of_end(2 * e + 1) == g.edges[e][1]
    # pairing is a fixed-point-free involution
    from graphconf.graphs import other_end
    for h in range(2 * g.num_edges):
        assert other_end(h) != h
        assert other_end(other_end(h)) == h


def test_valence_sum_is_twice_edge_count():
    rng = random.Random(3)
    from graphconf.checks import random_connected_graph
    for _ in range(200):
        g = random_connected_graph(rng)
        assert sum(g.valence(v) for v in range(g.num_vertices)) == 2 * g.num_edges


def test_build_graph_errors():
    with pytest.raises(GraphSpecError):
        gc.build_graph(GraphSpec.named("star", 2))
    with pytest.raises(GraphSpecError):
        gc.build_graph(GraphSpec.named("nosuch"))
    with pytest.raises(GraphSpecError):
        gc.Graph(4, [(0, 1), (2, 3)])  # disconnected
    with pytest.raises(GraphSpecError):
        gc.Graph(2, [(0, 1)], sinks=(5,))
    with pytest.raises(GraphSpecError):
        gc.Graph(2, [(0, 3)])
    with pytest.raises(GraphSpecError):
        gc.Graph(1, [])  # edgeless


def test_parse_graph_spec():
    assert gc.build_graph(parse_graph_spec("star:3")) == gc.star(3)
    assert gc.build_graph(parse_graph_spec("banana:4")) == gc.banana(4)
    assert gc.build_graph(parse_graph_spec("k:5")) == gc.complete(5)
    assert gc.build_graph(parse_graph_spec("k33")) == gc.complete_bipartite(3, 3)
    assert gc.build_graph(parse_graph_spec("bip:2:4")) == gc.complete_bipartite(2, 4)
    assert gc.build_graph(parse_graph_spec("h")) == gc.h_graph()
    assert gc.build_graph(parse_graph_spec("circle", sinks=(0,))) == \
        gc.circle(sinks={0})
    with pytest.raises(GraphSpecError):
        parse_graph_spec("frob:2")


def test_wedge_shapes():
    # two 3-stars joined leaf to leaf: the h-graph with a subdivided bar
    g = gc.wedge(gc.star(3), 1, gc.star(3), 1)
    assert g.num_vertices == 4 + 4 - 1
    assert g.num_edges == 6
    assert sorted(valences(g), reverse=True) == [3, 3, 2, 1, 1, 1, 1]

    # two circles at their vertices: a rose with one valence-4 vertex
    rose = gc.wedge(gc.circle(), 0, gc.circle(), 0)
    assert rose.num_vertices == 1 and rose.num_edges == 2
    assert rose.valence(0) == 4

    # iterated wedge of a 3-star, a circle and a 4-star
    g = gc.wedge(gc.star(3), 1, gc.circle(), 0)
    g = gc.wedge(g, 2, gc.star(4), 1)
    assert len(gc.essential_vertices(g)) == 3
    assert g.num_edges == 3 + 1 + 4


def test_wedge_vertex_and_edge_counts_random():
    rng = random.Random(11)
    from graphconf.checks import random_connected_graph
    for _ in range(50):
        g1 = random_connected_graph(rng)
        g2 = random_connected_graph(rng)
        v1 = rng.randrange(g1.num_vertices)
        v2 = rng.randrange(g2.num_vertices)
        w = gc.wedge(g1, v1, g2, v2)
        assert w.num_vertices == g1.num_vertices + g2.num_vertices - 1
        assert w.num_edges == g1.num_edges + g2.num_edges


def test_wedge_sink_inheritance():
    g1 = gc.star(3, sinks={1})
    g2 = gc.star(3)
    w = gc.wedge(g1, 1, g2, 1)
    assert w.is_sink(1)  # the wedge point was a sink on one side
    w2 = gc.wedge(g2, 1, g2, 1)
    assert not w2.sinks


def test_wedge_errors():
    with pytest.raises(GraphSpecError):
        gc.wedge(gc.star(3), 9, gc.star(3), 1)
    with pytest.raises(GraphSpecError):
        gc.wedge(gc.star(3), 1, gc.star(3), -1)


def test_essential_vertices():
    assert gc.essential_vertices(gc.star(3)) == frozenset({0})
    assert gc.essential_vertices(gc.interval()) == frozenset()
    assert gc.essential_vertices(gc.banana(4)) == frozenset({0, 1})


def test_dimension_bound():
    assert gc.dimension_bound(gc.banana(4), 3) == 2
    assert gc.dimension_bound(gc.interval(sinks={0, 1}), 5) == 1
    assert gc.dimension_bound(gc.star(3), 0) == 0
    # a loop at a sink counts as an edge between two sinks
    assert gc.dimension_bound(gc.circle(sinks={0}), 4) == 1
    with pytest.raises(ValueError):
        gc.dimension_bound(gc.star(3), -1)


def test_serialization_round_trip():
    for g in (gc.star(4, sinks={2}), gc.banana(3), gc.complete(4),
              gc.circle(sinks={0})):
        assert gc.load_graph(gc.dump_graph(g)) == g
    doc = gc.graph_to_doc(gc.h_graph())
    assert set(doc) == {"vertices", "edges", "sinks"}
    assert gc.graph_from_doc(doc) == gc.h_graph()
    with pytest.raises(GraphSpecError):
        gc.load_graph("not json {")


@pytest.mark.parametrize("doc", [
    {"vertices": 3, "edges": [[0, 1.5], [1, 2]]},
    {"vertices": 2, "edges": [[0, True]]},
    {"vertices": 2, "edges": [[0, 1, 1]]},
    {"vertices": 2, "edges": [[0]]},
    {"vertices": 2.5, "edges": [[0, 1]]},
    {"vertices": True, "edges": [[0, 0]]},
    {"vertices": 2, "edges": [[0, 1]], "sinks": [1.0]},
    {"vertices": 2, "edges": [[0, 1]], "sinks": [False]},
])
def test_graph_document_numbers_must_be_integers(doc):
    # no number is truncated by int(): 1.5 is not vertex 1, true is not 1
    with pytest.raises(GraphSpecError):
        gc.graph_from_doc(doc)


def test_subdivide_edge():
    g = gc.banana(4)
    sub = gc.subdivide_edge(g, 2)
    assert sub.num_vertices == 3
    assert sub.num_edges == 5
    assert sub.valence(2) == 2 and not sub.is_sink(2)
    with pytest.raises(GraphSpecError):
        gc.subdivide_edge(g, 10)
