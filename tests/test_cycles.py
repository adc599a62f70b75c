import hashlib
import importlib
import itertools
import json
import random

import pytest

import graphconf as gc
from graphconf.checks import random_connected_graph, wedge_corpus
from graphconf.cycles import (MAX_CIRCUIT_EDGES, CircuitSpec,
                              CycleConstructionError, HSpec, StarSpec,
                              _local_star_basis, _parking_options, _placed,
                              _Walk, chain_support_elements, chain_to_doc,
                              circuit_specs, h_specs, one_dim_cycle_basis,
                              product_chain)
from graphconf.graphs import edge_of_end, essential_vertices
from graphconf.model import (boundary_chain, make_cell, relabel_chain,
                             state_is_valid)
from conftest import (reference_attach_parked, reference_circuit_specs,
                      reference_h_cycle_chain, reference_parked_walk,
                      reference_push_in, reference_smith_generation,
                      reference_walk_move)


def star3_spec():
    g = gc.star(3)
    return g, StarSpec(0, tuple(sorted(g.ends_at(0))))


# -- star cycles ----------------------------------------------------------

def test_star_cycle_twelve_cells(small_complexes):
    cx = small_complexes("star3-n2")
    _, spec = star3_spec()
    z = gc.star_cycle_chain(cx.graph, spec, (0, 1))
    assert len(z) == 12
    assert all(abs(c) == 1 for c in z.terms.values())
    assert gc.is_cycle(z)
    assert not gc.is_boundary(z, cx)
    assert gc.class_span_rank([z], cx, 1) == 1 == gc.homology(cx).betti(1)


def test_star_cycle_alternates_in_the_ends(small_complexes):
    cx = small_complexes("star3-n2")
    g = cx.graph
    d0, d1, d2 = sorted(g.ends_at(0))
    base = gc.star_cycle_chain(cx.graph, StarSpec(0, (d0, d1, d2)), (0, 1))
    swapped = gc.star_cycle_chain(cx.graph, StarSpec(0, (d1, d0, d2)), (0, 1))
    assert swapped == -base
    cycled = gc.star_cycle_chain(cx.graph, StarSpec(0, (d1, d2, d0)), (0, 1))
    assert cycled == base


def test_star_cycle_particle_swap_sign(small_complexes):
    # swapping the two particles gives the same chain on the nose, so the
    # difference bounds (trivially) and the recorded sign is +1
    cx = small_complexes("star3-n2")
    _, spec = star3_spec()
    z = gc.star_cycle_chain(cx.graph, spec, (0, 1))
    zr = gc.relabel_chain(z, {0: 1, 1: 0})
    assert zr == z
    assert gc.is_boundary(z - zr, cx)


def test_star_cycle_with_parked_particle():
    g = gc.star(3)
    cx = gc.enumerate_cells(g, 3)
    spec = StarSpec(0, tuple(sorted(g.ends_at(0))))
    z = gc.star_cycle_chain(cx.graph, spec, (0, 1), parking={2: ("E", 2, 0)})
    assert len(z) == 12
    assert gc.is_cycle(z)
    assert not gc.is_boundary(z, cx)


def test_out_of_range_parking_is_a_construction_error():
    # the parking is checked against the state rules, so a vertex or edge
    # the graph does not have, or a state that is not a whole static state
    # of integers, is a bad request, not a TypeError or an IndexError
    spec = StarSpec(0, (0, 2, 4))
    for state in (("V", 99), ("E", 99, 0), 5, (), ("V",), ("E", 1),
                  ("V", 0, 0), ("X", 0), ("V", "0"), ("E", 1, None),
                  ("E", 1, 0.5)):
        with pytest.raises(CycleConstructionError):
            gc.star_cycle_chain(gc.star(3), spec, (0, 1), parking={2: state})
    # particle ids are non-negative integers, not bools, floats or tuples,
    # and the parking is a map
    for parking in ({2.0: ("E", 2, 0)}, {-1: ("E", 2, 0)}, {True: ("E", 2, 0)},
                    {(2,): ("E", 2, 0)}, 5):
        with pytest.raises(CycleConstructionError):
            gc.star_cycle_chain(gc.star(3), spec, (0, 1), parking=parking)


def test_star_cycle_errors(small_complexes):
    cx = small_complexes("star3-n2")
    g = cx.graph
    ends = tuple(sorted(g.ends_at(0)))
    with pytest.raises(CycleConstructionError):
        gc.star_cycle_chain(cx.graph, StarSpec(0, ends), (1, 1))
    with pytest.raises(CycleConstructionError):
        gc.star_cycle_chain(cx.graph, StarSpec(0, (ends[0], ends[1], 7)), (0, 1))
    with pytest.raises(CycleConstructionError):
        gc.star_cycle_chain(cx.graph, StarSpec(0, ends), (0, 1),
                            parking={1: ("V", 0)})
    with pytest.raises(CycleConstructionError):
        gc.star_cycle_chain(cx.graph, StarSpec(0, ends[:2] + (ends[0],)), (0, 1))
    sink_center = gc.enumerate_cells(gc.star(3, sinks={0}), 2)
    with pytest.raises(CycleConstructionError):
        gc.star_cycle_chain(sink_center.graph, StarSpec(0, ends), (0, 1))
    # particle ids are non-negative integers, not bools, floats or strings
    for pair in ((True, 0), (0, 1.5), ("a", "b"), (0, -1)):
        with pytest.raises(CycleConstructionError):
            gc.star_cycle_chain(g, StarSpec(0, ends), pair)
    with pytest.raises(CycleConstructionError):
        gc.circuit_cycle_chain(gc.circle(), CircuitSpec((0,)), 0.5)
    # an unhashable id is refused before it is hashed
    with pytest.raises(CycleConstructionError):
        gc.star_cycle_chain(g, StarSpec(0, ends), ([0], 1))
    with pytest.raises(CycleConstructionError):
        gc.circuit_cycle_chain(gc.circle(), CircuitSpec((0,)), ([0],))
    k4 = gc.complete(4)
    with pytest.raises(CycleConstructionError):
        gc.h_cycle_chain(k4, h_specs(k4)[0], ([0], 1))


def test_star_cycle_with_sink_leaf():
    # one spoke ends at a sink: the resting state there is the sink itself
    g = gc.star(3, sinks={1})
    cx = gc.enumerate_cells(g, 2)
    spec = StarSpec(0, tuple(sorted(g.ends_at(0))))
    z = gc.star_cycle_chain(cx.graph, spec, (0, 1))
    assert len(z) == 12
    assert gc.is_cycle(z)
    assert any(s == ("MF", 0) for cell in z.terms for _, s in cell)


# -- the four-star relation --------------------------------------------------

def test_star4_relation_on_star4(small_complexes):
    cx = small_complexes("star4-n2")
    g = cx.graph
    z = gc.star4_relation_chain(cx.graph, 0, tuple(sorted(g.ends_at(0))), (0, 1))
    assert z.is_zero()


def test_star4_relation_on_banana4(small_complexes):
    cx = small_complexes("banana4-n2")
    ends = tuple(2 * e for e in range(4))
    assert gc.star4_relation_chain(cx.graph, 0, ends, (0, 1)).is_zero()


def test_star4_relation_all_permutations(small_complexes):
    cx = small_complexes("star4-n2")
    ends = tuple(sorted(cx.graph.ends_at(0)))
    for perm in itertools.permutations(ends):
        assert gc.star4_relation_chain(cx.graph, 0, perm, (0, 1)).is_zero()


# -- circuit cycles ------------------------------------------------------------

def test_single_particle_circle():
    cx = gc.enumerate_cells(gc.circle(), 1)
    z = gc.circuit_cycle_chain(cx.graph, CircuitSpec((0,)), 0)
    assert len(z) == 2
    assert gc.is_cycle(z)
    assert gc.class_span_rank([z], cx, 1) == 1 == gc.homology(cx).betti(1)


def test_sink_circle_petals_span():
    cx = gc.enumerate_cells(gc.circle(sinks={0}), 3)
    petals = [gc.circuit_cycle_chain(
                  cx.graph, CircuitSpec((0,)), p,
                  parking={q: ("V", 0) for q in range(3) if q != p})
              for p in range(3)]
    assert all(len(z) == 1 for z in petals)
    assert gc.class_span_rank(petals, cx, 1) == 3 == gc.homology(cx).betti(1)


def test_banana_circuit_with_parked_particle(small_complexes):
    cx = small_complexes("banana4-n2")
    z = gc.circuit_cycle_chain(cx.graph, CircuitSpec((2, 5)), 0,
                               parking={1: ("E", 3, 0)})
    assert gc.is_cycle(z)
    assert len(z) == 4


def test_circuit_blocked_by_parking(small_complexes):
    cx = small_complexes("banana4-n2")
    with pytest.raises(CycleConstructionError):
        gc.circuit_cycle_chain(cx.graph, CircuitSpec((2, 5)), 0,
                               parking={1: ("E", 1, 0)})


def test_rotation_classes_span_circle_components():
    cx = gc.enumerate_cells(gc.circle(), 3)
    rots = [gc.circuit_cycle_chain(cx.graph, CircuitSpec((0,)), order)
            for order in ((0, 1, 2), (0, 2, 1))]
    for z in rots:
        assert len(z) == 6
        assert gc.is_cycle(z)
    assert gc.class_span_rank(rots, cx, 1) == 2 == gc.homology(cx).betti(1)


def test_multi_edge_circuit():
    g = gc.Graph(2, [(0, 1), (0, 1)])  # circle subdivided into two edges
    cx = gc.enumerate_cells(g, 1)
    z = gc.circuit_cycle_chain(cx.graph, CircuitSpec((0, 3)), 0)
    assert gc.is_cycle(z)
    assert gc.class_span_rank([z], cx, 1) == 1


def test_circuit_spec_validation(small_complexes):
    cx = small_complexes("banana4-n2")
    with pytest.raises(CycleConstructionError):
        gc.circuit_cycle_chain(cx.graph, CircuitSpec((0, 2)), 0)  # does not chain up
    with pytest.raises(CycleConstructionError):
        gc.circuit_cycle_chain(cx.graph, CircuitSpec((0, 1)), 0)  # repeats an edge
    with pytest.raises(CycleConstructionError):
        gc.circuit_cycle_chain(cx.graph, CircuitSpec((2, 5)), (0, 1))  # rotation off loop


def test_circuit_specs_match_the_reference_search():
    # closed embedded paths from every vertex, first spec per edge set, give
    # the specs of the pruned search in its order
    graphs = [g for _, g in wedge_corpus()]
    graphs += [gc.complete(5), gc.complete_bipartite(3, 3), gc.banana(4),
               gc.Graph(1, [(0, 0)] * 6)]
    rng = random.Random(5)
    graphs += [random_connected_graph(rng, max_edges=8) for _ in range(300)]
    for g in graphs:
        assert circuit_specs(g) == reference_circuit_specs(
            g, MAX_CIRCUIT_EDGES), g


def test_circuit_specs_on_k6_match_the_reference_search():
    # the search from each vertex enters no lower vertex; on K6, with its
    # 197 circuits of up to six edges, that still finds every circuit from
    # its least vertex, first in the reference's order
    g = gc.complete(6)
    specs = circuit_specs(g)
    assert len(specs) == 197
    assert specs == reference_circuit_specs(g, MAX_CIRCUIT_EDGES)


# -- crossing (h) cycles ---------------------------------------------------

def test_h_cycle_on_h_graph(small_complexes):
    cx = small_complexes("h-n2")
    spec = HSpec(0, 1, (0,), v_sides=(2, 4), w_sides=(6, 8))
    z = gc.h_cycle_chain(cx.graph, spec, (0, 1))
    assert len(z) == 16
    assert gc.is_cycle(z)
    assert not gc.is_boundary(z, cx)


def test_h_cycle_between_sinks(small_complexes):
    # both endpoints sinks: the generator of the two-sink interval
    cx = small_complexes("intervalsinks-n2")
    z = gc.h_cycle_chain(cx.graph, HSpec(0, 1, (0,)), (0, 1))
    assert len(z) == 4
    assert gc.is_cycle(z)
    assert gc.class_span_rank([z], cx, 1) == 1 == gc.homology(cx).betti(1)


def test_h_cycle_through_interior_sink():
    # two 3-stars joined at a leaf that is a sink: the crossing passes
    # through the sink by full edge traversals
    g = gc.wedge(gc.star(3), 1, gc.star(3), 1).with_sinks({1})
    cx = gc.enumerate_cells(g, 2)
    spec = HSpec(0, 4, (0, 7), v_sides=(2, 4), w_sides=(8, 10))
    z = gc.h_cycle_chain(cx.graph, spec, (0, 1))
    assert gc.is_cycle(z)
    assert not gc.is_boundary(z, cx)
    assert any(s[0] == "MF" for cell in z.terms for _, s in cell)


def test_h_cycle_degenerate_spec():
    with pytest.raises(CycleConstructionError):
        HSpec(0, 0, (0,))
    g = gc.h_graph()
    cx = gc.enumerate_cells(g, 2)
    with pytest.raises(CycleConstructionError):
        gc.h_cycle_chain(
            cx.graph, HSpec(0, 1, (0,), v_sides=(2, 4), w_sides=(1, 6)), (0, 1))
    with pytest.raises(CycleConstructionError):
        gc.h_cycle_chain(
            cx.graph, HSpec(0, 1, (2,), v_sides=(0, 4), w_sides=(6, 8)), (0, 1))


def _h_cases(g, n, rng=None):
    # every crossing spec, pair and parking that the enumeration tries, or
    # with ``rng`` one seeded pair and parking per spec
    for spec in h_specs(g):
        blocked = frozenset(edge_of_end(h) for h in spec.path)
        cases = []
        for pair in itertools.combinations(range(n), 2):
            rest = [p for p in range(n) if p not in pair]
            cases += [(spec, pair, parking)
                      for parking in _parking_options(g, rest, blocked)]
        yield from [rng.choice(cases)] if rng and cases else cases


def test_h_cycle_matches_the_two_walk_reference():
    # the one closed walk gives the difference of the two crossing walks,
    # or both refuse: every case on the wedge corpus (its own sink
    # variants included) and on banana(4) with zero, one and two sinks; on
    # K5 and K3,3, with and without a sink, every spec at n = 2, and every
    # spec with one seeded pair and parking at n = 3 (all of them take 15 s)
    rng = random.Random(16)
    b4 = gc.banana(4)
    cases = []
    for g in [g for _, g in wedge_corpus()] + [
            b4, b4.with_sinks({0}), b4.with_sinks({0, 1})]:
        cases += [(g, c) for n in (2, 3) for c in _h_cases(g, n)]
    for g in (gc.complete(5), gc.complete_bipartite(3, 3)):
        for g in (g, g.with_sinks({0})):
            cases += [(g, c) for n in (2, 3) for c in _h_cases(g, n, rng)]
    outcomes = {"built": 0, "parked": 0, "refused": 0}
    for g, (spec, pair, parking) in cases:
        try:
            want = reference_h_cycle_chain(g, spec, pair, parking)
        except CycleConstructionError:
            with pytest.raises(CycleConstructionError):
                gc.h_cycle_chain(g, spec, pair, parking)
            outcomes["refused"] += 1
            continue
        got = gc.h_cycle_chain(g, spec, pair, parking)
        assert got == want, (g, spec, pair, parking)
        outcomes["parked" if parking else "built"] += 1
    assert all(outcomes.values()), outcomes


# -- walk steps -----------------------------------------------------------

def _step(walk, step, pid, move_state):
    try:
        step(walk, pid, move_state)
    except CycleConstructionError:
        return None
    return walk.terms, walk.config


def test_walk_step_matches_full_validation():
    # every ME and MF move of every particle from seeded random 0-cells:
    # the step that checks only what the move adds and the step that
    # validates the whole cell both refuse, or agree on the cell, its
    # coefficient and the next configuration
    rng = random.Random(14)
    outcomes = {"moved": 0, "refused": 0, "claimed": 0}
    for _ in range(40):
        g = random_connected_graph(rng, max_edges=5, max_vertices=4)
        if not g.sinks:
            g = g.with_sinks({rng.randrange(g.num_vertices)})
        n = rng.randint(1, 3)
        cx = gc.enumerate_cells(g, n)
        moves = [st for e in range(g.num_edges)
                 for st in (("ME", e, 0), ("ME", e, 1), ("MF", e))]
        for start in rng.sample(cx.cells[0], min(8, len(cx.cells[0]))):
            for pid in range(n):
                for st in moves:
                    got = _step(_Walk(g, dict(start)), _Walk.move, pid, st)
                    want = _step(_Walk(g, dict(start)), reference_walk_move,
                                 pid, st)
                    assert got == want, (g, start, pid, st)
                    if got is not None:
                        outcomes["moved"] += 1
                    elif state_is_valid(g, st):
                        outcomes["refused"] += 1
                        ends = (g.edges[st[1]][st[2]],) if st[0] == "ME" \
                            else g.edges[st[1]]
                        if any(s[0] == "V" and not g.is_sink(s[1])
                               and s[1] in ends
                               for p, s in start if p != pid):
                            outcomes["claimed"] += 1
    # the corpus reaches every branch: moves, refusals of valid move
    # states, and refusals because another particle holds a claimed vertex
    assert all(outcomes.values()), outcomes


# -- products -------------------------------------------------------------

def test_product_with_empty_parked_chain():
    g3, spec = star3_spec()
    z = gc.star_cycle_chain(g3, spec, (0, 1))
    parked = gc.parked_chain(g3, {})
    assert gc.product_chain(z, parked) == z


def test_product_adds_parked_particle():
    g = gc.Graph(3, [(0, 1), (0, 2), (1, 1), (2, 2)])
    za = gc.circuit_cycle_chain(g, CircuitSpec((4,)), 0)
    parked = gc.parked_chain(g, {1: ("E", 1, 0)})
    prod = gc.product_chain(za, parked)
    assert len(prod) == len(za)
    for cell in prod.terms:
        assert (1, ("E", 1, 0)) in cell


def test_product_two_circles_gives_two_cycle():
    g = gc.Graph(3, [(0, 1), (0, 2), (1, 1), (2, 2)])
    cx = gc.enumerate_cells(g, 2)
    za = gc.circuit_cycle_chain(g, CircuitSpec((4,)), 0)
    zb = gc.circuit_cycle_chain(g, CircuitSpec((6,)), 1)
    zz = gc.product_chain(za, zb)
    assert zz.degree == 2
    assert gc.is_cycle(zz)
    assert not gc.is_boundary(zz, cx)


def test_product_rejects_overlap():
    g = gc.Graph(3, [(0, 1), (0, 2), (1, 1), (2, 2)])
    za = gc.circuit_cycle_chain(g, CircuitSpec((4,)), 0)
    zb = gc.circuit_cycle_chain(g, CircuitSpec((6,)), 0)
    with pytest.raises(ValueError):
        gc.product_chain(za, zb)  # same particle
    zc = gc.circuit_cycle_chain(g, CircuitSpec((4,)), 1)
    with pytest.raises(ValueError):
        gc.product_chain(za, zc)  # same loop


def test_product_leibniz_on_explicit_chains():
    g = gc.wedge(gc.star(3), 1, gc.star(3), 1)
    c1 = make_cell([(0, ("ME", 0, 0)), (1, ("E", 1, 0))])
    c2 = make_cell([(2, ("ME", 4, 0))])
    z1 = gc.Chain(g, 1, {c1: 3})
    z2 = gc.Chain(g, 1, {c2: -2})
    prod = gc.product_chain(z1, z2)
    lhs = boundary_chain(prod)
    rhs = gc.product_chain(boundary_chain(z1), z2) + \
        gc.product_chain(z1, boundary_chain(z2)).scaled(-1)
    assert lhs.terms == rhs.terms


# -- push-ins --------------------------------------------------------------

def test_push_in_zero_cell():
    g = gc.star(3)
    z = gc.Chain(g, 0, {make_cell([(0, ("E", 1, 0))]): 1})
    pushed = gc.push_in(z, 0, 1)
    (cell,) = pushed.terms
    assert (1, ("E", 0, 0)) in cell


def test_push_in_chain_map_exhaustive(small_complexes):
    # over every 1-cell of two particles on the 3-star
    cx = small_complexes("star3-n2")
    g = cx.graph
    for cell in cx.cells[1]:
        z = gc.Chain(g, 1, {cell: 1})
        pushed = gc.push_in(z, 2, 2)
        assert boundary_chain(pushed).terms == \
            gc.push_in(boundary_chain(z), 2, 2).terms


def test_push_in_star_cycle(small_complexes):
    cx = small_complexes("star3-n2")
    _, spec = star3_spec()
    z = gc.star_cycle_chain(cx.graph, spec, (0, 1))
    pushed = gc.push_in(z, 0, 2)
    assert len(pushed) == 12
    assert gc.is_cycle(pushed)
    cx3 = gc.enumerate_cells(cx.graph, 3)
    assert not gc.is_boundary(pushed, cx3)


def test_push_in_sink_leaf_variants():
    # leaf vertex is a sink: the new particle sits on it
    g = gc.star(3, sinks={1})
    z = gc.Chain(g, 0, {make_cell([(0, ("E", 1, 0))]): 1})
    (cell,) = gc.push_in(z, 0, 1).terms
    assert (1, ("V", 1)) in cell
    # inner endpoint is a sink: the edge has no interior, so the particle
    # settles on the inner sink
    g = gc.Graph(3, [(0, 1), (1, 2)], sinks={1})
    z = gc.Chain(g, 0, {make_cell([(0, ("V", 1))]): 1})
    (cell,) = gc.push_in(z, 1, 1).terms
    assert (1, ("V", 1)) in cell


@pytest.mark.parametrize("name", ["star3-n2", "star3-n3", "star4-n2", "h-n2",
                                  "intervalsinks-n2", "star3-leafsink-n2",
                                  "path-innersink-n2", "h-innersink-n2"])
def test_push_in_matches_the_insertion_rule(small_complexes, name):
    # every cell of every degree, pushed in on every leaf edge at each leaf
    # end, lands where the old cell-by-cell insertion rule put it
    variants = {
        "star3-leafsink-n2": lambda: gc.star(3, sinks={1}),
        "path-innersink-n2": lambda: gc.Graph(3, [(0, 1), (1, 2)], sinks={1}),
        "h-innersink-n2": lambda: gc.h_graph(sinks={0}),
    }
    cx = (gc.enumerate_cells(variants[name](), 2) if name in variants
          else small_complexes(name))
    g = cx.graph
    chains = [gc.Chain(g, k, {cell: i + 1 for i, cell in enumerate(cells)})
              for k, cells in enumerate(cx.cells)]
    pushes = 0
    for e, leaf_end in itertools.product(range(g.num_edges), (0, 1)):
        if g.valence(g.edges[e][leaf_end]) != 1:
            continue
        for z in chains:
            assert gc.push_in(z, e, cx.n, leaf_end) == \
                reference_push_in(z, e, cx.n, leaf_end), (name, e, leaf_end)
            pushes += 1
    assert pushes


def test_push_in_errors(small_complexes):
    cx = small_complexes("banana4-n2")
    z = gc.Chain(cx.graph, 0, {cx.cells[0][0]: 1})
    with pytest.raises(ValueError):
        gc.push_in(z, 0, 5)  # not a leaf edge
    g = gc.star(3)
    z = gc.Chain(g, 0, {make_cell([(0, ("E", 1, 0))]): 1})
    with pytest.raises(ValueError):
        gc.push_in(z, 0, 0)  # particle already present
    for leaf_end in (-1, 2):
        # -1 would index the leaf from the far end and park on edge 1
        with pytest.raises(ValueError):
            gc.push_in(z, 0, 1, leaf_end=leaf_end)
    # the new particle's id is a non-negative integer, not a bool
    g, spec = star3_spec()
    z = gc.star_cycle_chain(g, spec, (0, 1))
    for s in (1.5, -3, "x", True):
        with pytest.raises(ValueError):
            gc.push_in(z, 2, s)


# -- the 144-cell cycle -----------------------------------------------------

def test_nonproduct_cycle(small_complexes):
    cx = small_complexes("banana4-n3")
    z = gc.nonproduct_cycle(cx)
    assert len(z) == 144
    assert gc.is_cycle(z)
    assert not gc.is_boundary(z, cx)
    assert gc.class_span_rank([z], cx, 2) == 1 == gc.homology(cx).betti(2)


def test_nonproduct_cycle_wrong_input(small_complexes):
    with pytest.raises(CycleConstructionError):
        gc.nonproduct_cycle(small_complexes("banana4-n2"))
    cx = gc.enumerate_cells(gc.banana(3), 3)
    with pytest.raises(CycleConstructionError):
        gc.nonproduct_cycle(cx)


def test_loop_augmented_base_case():
    r = gc.loop_augmented_nonproduct(0)
    assert r.degree == 2 and r.num_particles == 3
    assert r.checks == {"support": 144, "is_cycle": True, "is_boundary": False}


def test_loop_augmented_one_loop():
    r = gc.loop_augmented_nonproduct(1)
    assert r.degree == 3 and r.num_particles == 4
    assert r.graph.num_vertices == 3
    assert r.graph.num_edges == 6  # four parallel edges, one stem, one loop
    assert sum(1 for e in range(r.graph.num_edges) if r.graph.is_loop(e)) == 1
    assert r.checks["is_cycle"] and not r.checks["is_boundary"]
    assert r.checks["support"] == 288


def test_loop_augmented_degree_certificate():
    # the cycle sits in the top degree of its complex, so it bounds only
    # if it is zero; for k <= 1 the enumerated complex is the oracle
    for k, support in ((0, 144), (1, 288), (2, 576), (3, 1152)):
        r = gc.loop_augmented_nonproduct(k)
        assert len(r.chain) == r.checks["support"] == support
        assert gc.is_cycle(r.chain) and r.checks["is_cycle"]
        assert r.chain.degree == r.degree == k + 2
        assert r.degree == gc.dimension_bound(r.graph, r.num_particles)
        assert r.checks["is_boundary"] is False
        if k <= 1:
            cx = gc.enumerate_cells(r.graph, r.num_particles)
            assert all(cell in cx.index for cell in r.chain.terms)
            assert gc.is_boundary(r.chain, cx) is False


# -- local star bases and enumeration -----------------------------------------

def test_one_dim_cycle_basis_counts():
    # the second graph has a loop at a sink, whose full traversal has no
    # boundary entry
    for graph, n in ((gc.star(4), 2),
                     (gc.Graph(2, [(0, 0), (0, 1), (1, 1)], sinks={0}), 1)):
        cx = gc.enumerate_cells(graph, n)
        basis = one_dim_cycle_basis(cx)
        h = gc.homology(cx)
        assert len(basis) == h.betti(1)
        for z in basis:
            assert gc.is_cycle(z)
        assert gc.class_span_rank(basis, cx, 1) == h.betti(1)


def local_star_classes(g, v, actives):
    """The local star classes at ``v`` of the increasing particles
    ``actives``: the basis of their count, placed on them."""
    return [_placed(z, actives) for z in _local_star_basis(g, v, len(actives))]


def test_local_star_classes_are_ambient_cycles():
    g = gc.wedge(gc.star(3), 1, gc.star(3), 1)
    classes = local_star_classes(g, 0, (0, 1))
    assert classes
    for z in classes:
        assert gc.is_cycle(z)
        support = chain_support_elements(z)
        assert ("v", 4) not in support  # never touches the far center
        assert all(elem[1] <= 2 for elem in support if elem[0] == "e")


def test_local_star_classes_share_a_sink():
    # all edges from vertex 1 run to the one sink 0: the local model has
    # one sink stub, so every local class maps to an ambient cycle
    g = gc.banana(4, sinks={0})
    for actives in ((0, 1), (0, 1, 2)):
        classes = local_star_classes(g, 1, actives)
        assert classes
        assert all(gc.is_cycle(z) for z in classes)


def test_local_star_classes_place_one_basis_per_subset_size():
    # a loop at the centre and a sink stub at a leaf: every subset of a
    # size gets the basis of that size, its particles renamed in order
    g = gc.wedge(gc.star(3), 0, gc.circle(), 0).with_sinks({1})
    for m in (2, 3):
        basis = _local_star_basis(g, 0, m)
        assert basis
        for actives in itertools.combinations(range(3), m):
            perm = dict(enumerate(actives))
            classes = local_star_classes(g, 0, actives)
            assert classes == [relabel_chain(z, perm) for z in basis]
            assert all(gc.is_cycle(z) for z in classes)


def _integer_combination(basis, z):
    """Whether ``z`` is an integer combination of the chains ``basis``,
    cell by cell: ``solve_in_image`` on the matrix whose columns are the
    basis chains and whose rows are their cells and those of ``z``."""
    rows = {}
    for c in itertools.chain(z.terms, *(b.terms for b in basis)):
        rows.setdefault(c, len(rows))
    m = gc.SparseIntMatrix(len(rows), len(basis), [
        (rows[c], j, v) for j, b in enumerate(basis) for c, v in b.terms.items()])
    return gc.solve_in_image(m, {rows[c]: v for c, v in z.terms.items()})


def test_local_star_bases_contain_shuffles_and_deep_parkings():
    # why the enumeration builds neither two-particle star shuffles nor
    # local classes with a particle parked deep on an edge of their
    # centre: each is a cycle of the configurations of the star of its
    # centre, so an integer combination, as chains, of the local star
    # basis placed on its particles
    cycles = importlib.import_module("graphconf.cycles")
    graphs = [gc.build_graph(gc.parse_graph_spec(spec, sinks=sinks))
              for spec, sinks in (("star:4", ()), ("k:4", ()), ("h", ()),
                                  ("banana:4", (0,)), ("k:4", (0,)),
                                  ("banana:3", ()))]
    graphs += [gc.wedge(gc.star(3), 0, gc.circle(), 0),
               gc.Graph(3, [(0, 1), (0, 0), (0, 2), (1, 2)])]
    n = 3
    shuffles = deep = 0
    for g in graphs:
        for v in sorted(essential_vertices(g)):
            if g.is_sink(v):
                continue
            bases = {m: _local_star_basis(g, v, m) for m in range(2, n + 1)}
            for triple in itertools.combinations(sorted(g.ends_at(v)), 3):
                for pair in itertools.combinations(range(n), 2):
                    z = gc.star_cycle_chain(g, StarSpec(v, triple), pair)
                    if z.is_zero():
                        continue
                    placed = [_placed(b, pair) for b in bases[2]]
                    assert _integer_combination(placed, z), (g, triple, pair)
                    shuffles += 1
            ends = [h for h in sorted(g.ends_at(v)) if not g.is_loop(
                edge_of_end(h)) and not g.sink_endpoints(edge_of_end(h))]
            for m in range(2, n):
                for actives in itertools.combinations(range(n), m):
                    for p in (p for p in range(n) if p not in actives):
                        grown = tuple(sorted(actives + (p,)))
                        placed = [_placed(b, grown) for b in bases[m + 1]]
                        for b in bases[m]:
                            z = _placed(b, actives)
                            support = chain_support_elements(z)
                            for h in ends:
                                w = cycles._attach_parked(
                                    z, g, {p: ("D", h, 0)}, support)
                                assert _integer_combination(placed, w), (
                                    g, v, actives, p, h)
                                deep += 1
    assert (shuffles, deep) == (87, 327)


def _candidates_digest(chains):
    h = hashlib.sha256()
    for z in chains:
        h.update(json.dumps(chain_to_doc(z), sort_keys=True).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("spec,sinks,n,degree,count,digest", [
    ("k:5", (), 2, 1, 625,
     "1b8125de5b74e1a23beb4699f1d7dfbb2b6912567d9b6f08530072b126b02c76"),
    ("banana:4", (0,), 3, 1, 45,
     "4423bf73712bb37a676827e47622c24fb55e5c4866baf7e5ac39ced780dfc0df"),
    ("k:4", (), 3, 2, 12,
     "759de8d865d2cb6f7c17b1713abb0fdd822e81d17ab14bd62b4be4592e766409"),
], ids=["k:5-n2-degree1", "banana:4+s0-n3-degree1", "k:4-n3-degree2"])
def test_candidate_chains_pinned(spec, sinks, n, degree, count, digest):
    # every candidate, in order, as the export writes it
    g = gc.build_graph(gc.parse_graph_spec(spec, sinks=sinks))
    chains = gc.enumerate_basic_classes(gc.enumerate_cells(g, n), degree).chains
    assert len(chains) == count
    assert _candidates_digest(chains) == digest


def test_candidate_chains_are_built_lazily(small_complexes):
    # iterating builds each chain when it is reached; len, indexing and
    # slicing build the rest; every read sees the same chains in order
    cx = small_complexes("k5-n2")
    chains = gc.enumerate_basic_classes(cx, degree=1).chains
    head = list(itertools.islice(chains, 10))
    assert len(chains._built) == 10
    assert head == list(itertools.islice(chains, 10))
    again = iter(chains)
    assert [next(again) for _ in range(12)] == head + [chains[10], chains[11]]
    assert len(chains._built) == len(chains) == 625
    built = list(chains)
    assert built == list(chains) == chains[:] == [chains[i] for i in range(625)]
    assert built[:10] == head and chains[-1] == built[-1]
    assert chains[100:110] == built[100:110]
    assert [next(again) for _ in range(3)] == built[12:15]
    fresh = gc.enumerate_basic_classes(cx, degree=1).chains
    assert fresh[:] == built and len(fresh) == 625


def test_a_failed_candidate_build_fails_every_later_read():
    def broken():
        yield "first"
        raise gc.model.InvariantError("built a non-cycle")

    chains = gc.cycles.LazyChains(broken())
    assert next(iter(chains)) == "first"
    for read in (list, len, lambda c: c[1], lambda c: c[:]):
        with pytest.raises(gc.model.InvariantError, match="non-cycle"):
            read(chains)


def test_candidate_chains_pinned_on_random_graphs():
    # degrees 1 and 2 on thirty seeded random graphs with up to four edges,
    # nine of them with sinks: local stars, loop rotations, circuits of two
    # and three edges and crossings, bare and parked
    rng = random.Random(16)
    chains = []
    for _ in range(30):
        g = random_connected_graph(rng, max_edges=4, max_vertices=4)
        cx = gc.enumerate_cells(g, rng.randint(2, 3))
        for degree in (1, 2):
            chains += gc.enumerate_basic_classes(cx, degree).chains
    assert len(chains) == 1329
    assert _candidates_digest(chains) == \
        "9e9999b74762ec8d334c74f38ba09a0053717435508768f1fafeecad8265e2a3"


def _reference_parked(walk, parking):
    """``walk``'s itinerary walked again by ``reference_parked_walk`` with
    the particles of ``parking`` in place; it must close, and its chain
    is a cycle."""
    again = reference_parked_walk(walk.graph, walk.rests, walk.moves, parking)
    if again.config != again.start:
        raise CycleConstructionError("itinerary is not closed")
    z = gc.Chain(walk.graph, 1, again.terms)
    assert gc.is_cycle(z)
    return z


def _reference_candidates(g, n, degree):
    """The candidates as first built: every circuit and crossing cycle
    walked again with the parked particles in place, once per
    parking, and every other parking merged cell by cell with each cell
    checked; a refused parking is skipped.  Same order as the
    enumeration, each with its parking."""
    cycles = importlib.import_module("graphconf.cycles")
    pids = range(n)
    probes = []  # (walker, spec, actives, blocked, local chain)
    for v in sorted(essential_vertices(g)):
        if g.is_sink(v):
            continue
        blocked = frozenset(edge_of_end(h) for h in g.ends_at(v))
        for m in range(2, n + 1):
            basis = _local_star_basis(g, v, m)
            probes += [(None, None, actives, blocked, _placed(z, actives))
                       for actives in itertools.combinations(pids, m)
                       for z in basis]
    for spec in circuit_specs(g):
        groups = [(p,) for p in pids]
        if len(spec.ends) == 1:
            groups = [(subset[0],) + order for m in range(1, n + 1)
                      for subset in itertools.combinations(pids, m)
                      for order in itertools.permutations(subset[1:])]
        blocked = frozenset(edge_of_end(h) for h in spec.ends)
        probes += [(cycles._circuit_walk, spec, actives, blocked, None)
                   for actives in groups]
    for spec in h_specs(g):
        blocked = frozenset(edge_of_end(h) for h in spec.path)
        probes += [(cycles._h_walk, spec, pair, blocked, None)
                   for pair in itertools.combinations(pids, 2)]
    partials = []
    for walker, spec, actives, blocked, z in probes:
        walk = None
        if z is None:
            try:
                walk = walker(g, spec, actives)
            except CycleConstructionError:
                continue
            z = walk.chain()
        if not z.is_zero():
            partials.append((walk, actives, blocked, z))
    if degree == 1:
        for walk, actives, blocked, z in partials:
            rest = [p for p in pids if p not in actives]
            for parking in _parking_options(g, rest, blocked):
                try:
                    yield (_reference_parked(walk, parking) if walk and parking
                           else reference_attach_parked(z, g, parking)), parking
                except CycleConstructionError:
                    pass
        return
    for i, (_, act1, blk1, z1) in enumerate(partials):
        for _, act2, blk2, z2 in partials[i + 1:]:
            s1, s2 = chain_support_elements(z1), chain_support_elements(z2)
            if set(act1) & set(act2) or s1 & s2:
                continue
            z = product_chain(z1, z2)
            support = s1 | s2
            rest = [p for p in pids if p not in act1 and p not in act2]
            blocked = blk1 | blk2 | {x for kind, x in support if kind == "e"}
            for parking in _parking_options(g, rest, blocked):
                try:
                    yield reference_attach_parked(z, g, parking), parking
                except CycleConstructionError:
                    pass


def test_parked_candidates_match_their_constructors():
    # every candidate, bare or parked, is the chain of its itinerary walked
    # with that parking in place (or the cell-by-cell checked merge), in order,
    # and a cycle: on the thirty seeded random graphs of the pinned digest
    # and on the sink rungs of the span ladder, in degrees 1 and 2
    rng = random.Random(16)
    cases = []
    for _ in range(30):
        g = random_connected_graph(rng, max_edges=4, max_vertices=4)
        cases.append((g, rng.randint(2, 3)))
    cases += [(gc.build_graph(gc.parse_graph_spec(spec, sinks=sinks)), n)
              for spec, sinks, n in (("k:4", (0,), 2), ("k:5", (0, 1), 2),
                                     ("h", (0,), 3), ("banana:4", (0,), 3))]
    parked = 0
    for g, n in cases:
        cx = gc.enumerate_cells(g, n)
        for degree in (1, 2):
            chains = list(gc.enumerate_basic_classes(cx, degree).chains)
            want = list(_reference_candidates(g, n, degree))
            assert chains == [z for z, _ in want], (g, n, degree)
            assert all(gc.is_cycle(z) for z in chains)
            parked += sum(1 for _, parking in want if parking)
    assert parked == 944


def test_renamed_walks_match_walks_of_every_tuple():
    # each circuit and crossing is walked once per number of particles and
    # renamed onto every tuple, where the reference walks every tuple: on a
    # path of three looped vertices, whose crossings rest on the loops, and
    # on a rose of three loops, whose rotations run in the cyclic orders
    # (0, 1, 2) and (0, 2, 1), in degrees 1 and 2
    cycles = importlib.import_module("graphconf.cycles")
    path = gc.Graph(3, [(0, 1), (1, 2), (0, 0), (1, 1), (2, 2)])
    rose = gc.Graph(1, [(0, 0)] * 3)
    for g, counts in ((path, (426, 156)), (rose, (199, 0))):
        cx = gc.enumerate_cells(g, 3)
        for degree, count in zip((1, 2), counts):
            chains = list(gc.enumerate_basic_classes(cx, degree).chains)
            assert len(chains) == count
            want = [z for z, _ in _reference_candidates(g, 3, degree)]
            assert chains == want, (g, degree)
    actives = {act for _, _, act, _ in cycles._candidate_partials(rose, 3, 3)}
    assert {(0, 1, 2), (0, 2, 1)} <= actives


def test_sink_and_edge_parkings_match_their_constructors():
    # from four particles on, one parking can hold a particle on a sink and
    # another on an edge the walk rests on: the retaken walk keeps the sink
    # particle where it is, as a walk with the parking in place does
    cycles = importlib.import_module("graphconf.cycles")
    g = gc.build_graph(gc.parse_graph_spec("star:4", sinks=(1,)))
    spec = StarSpec(0, (2, 4, 6))
    parking = {2: ("V", 1), 3: ("E", 1, 0)}
    walk = cycles._star_walk(g, spec, (0, 1))
    assert walk.parked(parking) == _reference_parked(walk, parking) == (
        gc.star_cycle_chain(g, spec, (0, 1), parking))
    parked = 0
    for spec, sinks, n in (("star:4", (1,), 4), ("h", (0,), 4)):
        g = gc.build_graph(gc.parse_graph_spec(spec, sinks=sinks))
        chains = list(gc.enumerate_basic_classes(gc.enumerate_cells(g, n), 1).chains)
        want = list(_reference_candidates(g, n, 1))
        assert chains == [z for z, _ in want], (spec, n)
        parked += sum(1 for _, parking in want if parking)
    assert parked == 564


def test_parked_replay_follows_the_entry_ends():
    # the two cases where one unparked cell recurs with its particle
    # entered by either end, so a parked particle on that edge sits on
    # either side of it: a loop at a star centre, and an edge that is a
    # side edge at both ends of a crossing; the retaken walk equals the
    # walk with the parking in place from its start
    cycles = importlib.import_module("graphconf.cycles")
    looped = gc.Graph(2, [(0, 0), (0, 1)])
    spec_loop = StarSpec(0, (0, 1, 2))
    walk = cycles._star_walk(looped, spec_loop, (0, 2))
    for parking in ({1: ("E", 0, 0)}, {1: ("E", 0, 0), 3: ("E", 0, 1)},
                    {3: ("E", 0, 0), 1: ("E", 0, 1)}):
        assert walk.parked(parking) == _reference_parked(walk, parking)
    k4 = gc.complete(4)
    sided = [(spec, e) for spec in h_specs(k4)
             for e in ({edge_of_end(h) for h in spec.v_sides}
                       & {edge_of_end(h) for h in spec.w_sides})]
    assert len(sided) == 24
    for spec, e in sided:
        walk = cycles._h_walk(k4, spec, (1, 2))
        for parking in ({0: ("E", e, 0)}, {0: ("E", e, 0), 3: ("E", e, 1)}):
            assert walk.parked(parking) == _reference_parked(walk, parking)
    # a parked particle on an edge the walk crosses would be passed, and
    # one on a vertex the walk passes through would be met: the walk with
    # the parking in place is blocked, and the retaken walk or the merge
    # refuses the same way
    circle = gc.Graph(3, [(0, 1), (1, 2), (2, 0)])
    spec = circuit_specs(circle)[0]
    for parking in ({1: ("E", 0, 0)}, {1: ("V", 1)}):
        with pytest.raises(CycleConstructionError):
            _reference_parked(cycles._circuit_walk(circle, spec, 0), parking)
        with pytest.raises(CycleConstructionError):
            cycles._circuit_walk(circle, spec, 0).parked(parking)


def test_parkings_off_the_support_but_on_the_itinerary(small_complexes):
    # two parkings that a choice of merge or retake by the chain's support
    # got wrong: a particle on a vertex that is not a sink, off a star's
    # itinerary, and a particle on a side edge of a banana:4 crossing whose
    # bare walk cancels to zero, though its cells meet the parked particle;
    # the constructor, the bare walk parked and the walk with the parking
    # in place from its start agree
    cycles = importlib.import_module("graphconf.cycles")
    g = gc.Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 4)])
    spec = StarSpec(0, (0, 2, 4))
    parking = {2: ("V", 4)}
    walk = cycles._star_walk(g, spec, (0, 1))
    z = gc.star_cycle_chain(g, spec, (0, 1), parking)
    assert len(z) == 12
    assert walk.parked(parking) == _reference_parked(walk, parking) == z
    cx = small_complexes("banana4-n3")
    spec = HSpec(0, 1, (0,), (2, 4), (3, 5))
    parking = {2: ("E", 1, 0)}
    walk = cycles._h_walk(cx.graph, spec, (0, 1))
    assert not walk.terms
    z = gc.h_cycle_chain(cx.graph, spec, (0, 1), parking)
    assert len(z) == 8
    assert walk.parked(parking) == _reference_parked(walk, parking) == z
    assert z == reference_h_cycle_chain(cx.graph, spec, (0, 1), parking)
    assert gc.is_cycle(z) and not gc.is_boundary(z, cx)


@pytest.mark.parametrize("graph,n,b1", [
    (gc.banana(4, sinks={0}), 3, 9),
    (gc.banana(3, sinks={0}), 2, 4),
    (gc.banana(3, sinks={0}), 3, 6),
])
def test_enumerate_basic_classes_span_at_shared_sink(graph, n, b1):
    cx = gc.enumerate_cells(graph, n)
    bc = gc.enumerate_basic_classes(cx, degree=1)
    assert gc.class_span_rank(bc.chains, cx, 1) == b1 == gc.homology(cx).betti(1)


def test_enumerate_basic_classes_star3(small_complexes):
    # the one candidate is the local star basis of two particles, which
    # is the twelve-cell shuffle up to sign
    cx = small_complexes("star3-n2")
    _, spec = star3_spec()
    twelve = gc.star_cycle_chain(cx.graph, spec, (0, 1))
    bc = gc.enumerate_basic_classes(cx, degree=1)
    assert bc.chains[:] == [-twelve]
    assert gc.class_span_rank(bc.chains, cx, 1) == 1


def test_enumerate_basic_classes_spans_k5(small_complexes):
    cx = small_complexes("k5-n2")
    bc = gc.enumerate_basic_classes(cx, degree=1)
    assert gc.class_span_rank(bc.chains, cx, 1) == 12 == gc.homology(cx).betti(1)


def test_enumerate_degree2_banana_empty(small_complexes):
    cx = small_complexes("banana4-n3")
    bc = gc.enumerate_basic_classes(cx, degree=2)
    assert gc.class_span_rank(bc.chains, cx, 2) == 0


def test_enumerate_degree2_finds_products():
    g = gc.Graph(3, [(0, 1), (0, 2), (1, 1), (2, 2)])
    cx = gc.enumerate_cells(g, 2)
    bc = gc.enumerate_basic_classes(cx, degree=2)
    b2 = gc.homology(cx).betti(2)
    assert gc.class_span_rank(bc.chains, cx, 2) == b2 == 2


def test_enumeration_is_complete_on_the_six_loop_rose():
    # three particles on a rose of six loops build 1693 candidates; all of
    # them are kept, and they generate H_1 over Z, as do the first 1051
    # alone, the local star classes, which the circuit classes follow
    cx = gc.enumerate_cells(gc.Graph(1, [(0, 0)] * 6), 3)
    bc = gc.enumerate_basic_classes(cx, degree=1)
    assert len(bc.chains) == 1693
    assert gc.class_span(bc.chains, cx, 1) == (1051, True)
    assert gc.class_span(bc.chains[:1051], cx, 1) == (1051, True)
    assert gc.homology(cx).betti(1) == 1051
    assert reference_smith_generation(bc.chains, cx, 1)


def test_each_candidate_is_built_once(small_complexes, monkeypatch):
    # two particles on K5 leave nothing to park, so every crossing
    # candidate is the chain its probe built: one walk each; with three
    # particles on K4 each crossing is walked once, for the particles 0
    # and 1, and renamed onto the other two pairs, and every parking
    # replays a renamed walk, so there are fewer walks than replays
    cycles = importlib.import_module("graphconf.cycles")
    build = cycles._h_walk
    calls = []

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(cycles, "_h_walk", counted)
    bc = gc.enumerate_basic_classes(small_complexes("k5-n2"), degree=1)
    assert len(bc.chains) == 625
    assert len(calls) == 160
    calls.clear()
    replays = []
    replay = cycles._Walk.parked
    monkeypatch.setattr(cycles._Walk, "parked", lambda walk, parking:
                        replays.append(parking) or replay(walk, parking))
    g = gc.complete(4)
    assert len(gc.enumerate_basic_classes(gc.enumerate_cells(g, 3)).chains) == 628
    assert len(calls) == len(h_specs(g)) < len(replays)
    assert all(args[2] == (0, 1) for args in calls)


def test_chain_export_doc(small_complexes):
    cx = small_complexes("star3-n2")
    _, spec = star3_spec()
    z = gc.star_cycle_chain(cx.graph, spec, (0, 1))
    doc = chain_to_doc(z)
    assert doc["degree"] == 1 and doc["support_size"] == 12
    assert len(doc["cells"]) == 12
    assert all(abs(item["coefficient"]) == 1 for item in doc["cells"])


def test_cycle_report(small_complexes):
    # degree, support, cycle and boundary status, and the rank the class
    # adds on top of the boundaries
    cx = small_complexes("star3-n2")
    _, spec = star3_spec()
    z = gc.star_cycle_chain(cx.graph, spec, (0, 1))
    assert (z.degree, len(z.terms)) == (1, 12)
    assert gc.is_cycle(z) is True
    assert gc.is_boundary(z, cx) is False
    assert gc.class_span_rank([z], cx, z.degree) == 1
    bnd = gc.boundary_chain(
        gc.Chain(cx.graph, 1, {cx.cells[1][0]: 1}))
    assert gc.is_cycle(bnd) and gc.is_boundary(bnd, cx)
    assert gc.class_span_rank([bnd], cx, bnd.degree) == 0
