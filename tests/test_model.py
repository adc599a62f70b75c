import hashlib
import itertools
import json
import random
from math import factorial

import pytest

import graphconf as gc
from graphconf.model import (CapExceededError, InvariantError,
                             boundary_of_cell, cell_is_valid,
                             cell_dimension, complex_to_doc,
                             corner_configurations, face, make_cell,
                             relabel_cell, state_record)

from graphconf.checks import random_connected_graph

from conftest import (brute_force_cells, reference_boundary_entries,
                      reference_face)


# -- enumeration ----------------------------------------------------------

def test_circle_two_particles_counts():
    # hand enumeration: 4 resting configurations (two orders on the loop,
    # or one particle on the vertex) and 4 move cells
    cx = gc.enumerate_cells(gc.circle(), 2)
    assert cx.cell_counts() == (4, 4)


def test_interval_no_sinks_orderings():
    for n in range(1, 5):
        cx = gc.enumerate_cells(gc.interval(), n)
        assert cx.cell_counts() == (factorial(n),)


def test_two_sink_interval_is_cube_skeleton():
    for n in range(1, 6):
        cx = gc.enumerate_cells(gc.interval(sinks={0, 1}), n)
        assert cx.cell_counts() == (2 ** n, n * 2 ** (n - 1))


def test_sink_circle_is_bouquet():
    for n in range(1, 6):
        cx = gc.enumerate_cells(gc.circle(sinks={0}), n)
        assert cx.cell_counts() == (1, n)


@pytest.mark.parametrize("graph,n", [
    (gc.circle(), 2),
    (gc.star(3), 2),
    (gc.interval(sinks={0, 1}), 3),
    (gc.banana(2), 2),
    (gc.banana(4), 2),
    (gc.circle(sinks={0}), 3),
    (gc.star(3, sinks={1}), 2),
    # two crowded edges in one cell
    (gc.banana(2), 4),
    (gc.star(3, sinks={1}), 4),
])
def test_enumeration_matches_brute_force(graph, n):
    # oracle: filter the full syntactic state universe through an
    # independent transcription of the validity rules
    expected = brute_force_cells(graph, n)
    cx = gc.enumerate_cells(graph, n)
    got = {dim: set(cells) for dim, cells in enumerate(cx.cells) if cells}
    assert got == expected
    # enumerated cells are canonical without passing through make_cell
    assert all(make_cell(c) == c for group in cx.cells for c in group)


def test_enumeration_deterministic():
    a = gc.enumerate_cells(gc.banana(3), 2)
    b = gc.enumerate_cells(gc.banana(3), 2)
    assert a.cells == b.cells


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        gc.enumerate_cells(gc.complete(5), 3, max_cells=100)
    # the cap is exact, also where one leaf emits every slot order of two
    # crowded edges at once
    assert sum(gc.enumerate_cells(gc.banana(3), 4,
                                  max_cells=4584).cell_counts()) == 4584
    with pytest.raises(CapExceededError, match="more than 4583 cells"):
        gc.enumerate_cells(gc.banana(3), 4, max_cells=4583)


def test_zero_particles():
    cx = gc.enumerate_cells(gc.star(3), 0)
    assert cx.cell_counts() == (1,)
    assert cx.cells[0] == [()]


# -- validity ----------------------------------------------------------------

def test_validity_examples():
    g = gc.banana(4)
    # two moves into the same end of one edge target the same vertex
    assert not cell_is_valid(g, make_cell([(0, ("ME", 0, 0)), (1, ("ME", 0, 0))]))
    # two moves on one edge at opposite ends are independent (they claim
    # different junctions), so the square exists
    assert cell_is_valid(g, make_cell([(0, ("ME", 0, 0)), (1, ("ME", 0, 1))]))
    # on a loop both ends claim the same vertex
    loop = gc.circle()
    assert not cell_is_valid(loop, make_cell([(0, ("ME", 0, 0)),
                                              (1, ("ME", 0, 1))]))
    # a non-sink leaf vertex is never occupied
    st = gc.star(3)
    assert not cell_is_valid(st, make_cell([(0, ("V", 1))]))
    # sinks admit collisions
    gs = gc.interval(sinks={0, 1})
    assert cell_is_valid(gs, make_cell([(0, ("V", 0)), (1, ("V", 0))]))
    # no two full traversals of one edge, even between sinks
    assert not cell_is_valid(gs, make_cell([(0, ("MF", 0)), (1, ("MF", 0))]))
    # no interior slots on sink-incident edges
    assert not cell_is_valid(gs, make_cell([(0, ("E", 0, 0))]))
    # a move toward an occupied non-sink vertex is blocked
    assert not cell_is_valid(g, make_cell([(0, ("V", 0)), (1, ("ME", 0, 0))]))
    # slot ranks must be exactly 0..m-1
    assert not cell_is_valid(g, make_cell([(0, ("E", 0, 1))]))
    assert cell_is_valid(g, make_cell([(0, ("E", 0, 1)), (1, ("E", 0, 0))]))


# -- faces and boundary ----------------------------------------------------

def test_full_traversal_faces():
    g = gc.interval(sinks={0, 1})
    cell = make_cell([(0, ("MF", 0))])
    assert face(g, cell, 0, 0) == make_cell([(0, ("V", 0))])
    assert face(g, cell, 0, 1) == make_cell([(0, ("V", 1))])
    bnd = boundary_of_cell(g, cell)
    assert bnd == {make_cell([(0, ("V", 1))]): 1, make_cell([(0, ("V", 0))]): -1}


def test_move_end_face_reranks():
    # entering at the iota end inserts at slot 0 and shifts the resident
    g = gc.banana(4)
    cell = make_cell([(0, ("ME", 0, 0)), (1, ("E", 0, 0))])
    assert face(g, cell, 0, 0) == make_cell([(0, ("E", 0, 0)), (1, ("E", 0, 1))])
    assert face(g, cell, 0, 1) == make_cell([(0, ("V", 0)), (1, ("E", 0, 0))])
    # entering at the tau end appends at the last rank
    cell = make_cell([(0, ("ME", 0, 1)), (1, ("E", 0, 0))])
    assert face(g, cell, 0, 0) == make_cell([(0, ("E", 0, 1)), (1, ("E", 0, 0))])


def test_face_index_error():
    g = gc.circle()
    cell = make_cell([(0, ("E", 0, 0))])
    with pytest.raises(IndexError):
        face(g, cell, 0, 1)


def _random_complexes(seed, count):
    rng = random.Random(seed)
    pool = []
    while len(pool) < count:
        g = random_connected_graph(rng, max_edges=5)
        try:
            pool.append(gc.enumerate_cells(g, rng.randint(1, 3),
                                           max_cells=20_000))
        except CapExceededError:
            pass
    return pool


def test_every_face_of_valid_cell_is_valid(small_complexes):
    # the in-place face agrees with the re-sorting reference face
    names = ["star3-n2", "star3-n3", "star4-n2", "banana4-n2", "banana4-n3",
             "k5-n2", "h-n2", "intervalsinks-n2"]
    pool = [small_complexes(name) for name in names]
    pool.append(gc.enumerate_cells(gc.circle(sinks={0}), 3))
    randoms = _random_complexes(2026, 40)
    assert any(cx.graph.sinks for cx in randoms)
    assert any(u == v for cx in randoms for u, v in cx.graph.edges)
    for cx in pool + randoms:
        for dim in range(1, cx.max_dim + 1):
            for cell in cx.cells[dim]:
                for slot in range(dim):
                    for side in (0, 1):
                        f = face(cx.graph, cell, slot, side)
                        assert f == reference_face(cx.graph, cell, slot, side)
                        assert cell_is_valid(cx.graph, f)
    # a full traversal of a loop at a sink has two equal faces that cancel
    loop = gc.circle(sinks={0})
    assert boundary_of_cell(loop, make_cell([(0, ("MF", 0))])) == {}


def test_boundary_of_zero_cell_is_zero():
    g = gc.star(3)
    assert boundary_of_cell(g, make_cell([(0, ("E", 0, 0))])) == {}


def test_boundary_squared_zero_exhaustive(small_complexes):
    cx = small_complexes("banana4-n3")
    g = cx.graph
    for cell in cx.cells[2]:
        total = {}
        for f, s in boundary_of_cell(g, cell).items():
            for ff, ss in boundary_of_cell(g, f).items():
                total[ff] = total.get(ff, 0) + s * ss
        assert not any(total.values())


def test_boundary_matrix_product_vanishes(small_complexes):
    cx = small_complexes("k5-n2")
    for k in (1, 2):
        entries = cx.boundary_entries(k).entries
        assert all(a[:2] < b[:2] for a, b in zip(entries, entries[1:]))
    d1_cols = {}
    for r, c, v in gc.boundary_matrix(cx, 1).entries:
        d1_cols.setdefault(c, {})[r] = v
    d2_cols = {}
    for r, c, v in gc.boundary_matrix(cx, 2).entries:
        d2_cols.setdefault(c, {})[r] = v
    for col in d2_cols.values():
        out = {}
        for r, v in col.items():
            for rr, vv in d1_cols.get(r, {}).items():
                out[rr] = out.get(rr, 0) + vv * v
        assert not any(out.values())


def test_boundary_entries_match_reference(small_complexes):
    # packed-key assembly against boundary_of_cell over pair-tuple cells
    names = ["star3-n2", "star3-n3", "star4-n2", "banana4-n2", "banana4-n3",
             "k5-n2", "h-n2", "intervalsinks-n2"]
    pool = [small_complexes(name) for name in names]
    loop_at_sink = gc.Graph(2, [(0, 0), (0, 1), (1, 1)], sinks={0})
    star_circle = gc.wedge(gc.star(3), 0, gc.circle(), 0)
    for n in range(4):
        pool.append(gc.enumerate_cells(loop_at_sink, n))
        pool.append(gc.enumerate_cells(gc.interval(sinks={0, 1}), n))
        pool.append(gc.enumerate_cells(star_circle, n))
        pool.append(gc.enumerate_cells(gc.h_graph(sinks={5}), n))
    pool.append(small_complexes("banana4-n3").relabeled({0: 2, 1: 0, 2: 1}))
    # 72 cells with two crowded edges, 792 with three particles on one edge
    pool.append(gc.enumerate_cells(gc.banana(3), 4))
    # the full traversal of the loop at the sink has two faces that cancel
    cx = gc.enumerate_cells(loop_at_sink, 1)
    assert cx.cell_counts() == (3, 4)
    assert len(cx.boundary_entries(1).entries) == 2 * 4 - 2
    for cx in pool:
        for k in range(cx.max_dim + 2):
            assert cx.boundary_entries(k) == reference_boundary_entries(cx, k)
    # a face missing from the complex is a library defect, never a wrong row
    for i in (0, -1):
        cx = gc.enumerate_cells(gc.banana(4), 2)
        del cx._keys[0][i]
        with pytest.raises(InvariantError, match="not a cell of the complex"):
            cx.boundary_entries(1)


def test_index_contract(small_complexes):
    cx = small_complexes("banana4-n3")
    assert cx.index and len(cx.index) == sum(cx.cell_counts())
    for dim, group in enumerate(cx.cells):
        for i, cell in enumerate(group):
            assert cell in cx.index and cx.index[cell] == (dim, i)
    cell = cx.cells[0][0]
    outside = [
        cell[:2],                                    # n - 1 particles
        ((0, ("E", 0, 3)), (1, ("E", 1, 0)), (2, ("E", 2, 0))),  # slot >= n
        ((0, ("V", 0)), (1, ("V", 0)), (2, ("E", 0, 0))),  # shared vertex
        tuple(reversed(cell)),                       # pids out of order
        (cell[0], cell[0], cell[2]),                 # a repeated pid
    ]
    assert cell_is_valid(cx.graph, outside[0])
    for bad in outside:
        assert bad not in cx.index
        with pytest.raises(KeyError):
            cx.index[bad]
        z = gc.Chain(cx.graph, 0, {bad: 1})
        with pytest.raises(ValueError, match="support outside the complex"):
            gc.is_boundary(z, cx)
        with pytest.raises(ValueError, match="support outside the complex"):
            gc.class_span_rank([z], cx, 0)
    for junk in ("abc", 3, ((0, ["V", 0]),) * 3, cell[:2] + ((2, ("X",)),),
                 cell[:2] + ((2, ["V", 0]),), cell + cell[:1]):
        assert junk not in cx.index
    empty = gc.enumerate_cells(gc.star(3), 0)
    assert empty.index[()] == (0, 0) and list(empty.index) == [()]


def test_export_pinned_with_crowded_edges():
    # cells with two crowded edges at once, in the machine export format
    cx = gc.enumerate_cells(gc.banana(3), 4)
    data = (json.dumps(complex_to_doc(cx), sort_keys=True, indent=2)
            + "\n").encode()
    assert len(data) == 1_557_884
    assert hashlib.sha256(data).hexdigest() == (
        "7692e6694c0ed319ba09560b1cbb2b2b6549a3062422602161b9fc1f22db43a9")


# -- corners ----------------------------------------------------------------

def test_corner_of_zero_cell_is_itself():
    g = gc.star(3)
    cell = make_cell([(0, ("E", 1, 0))])
    assert corner_configurations(g, cell) == [cell]


def test_two_cell_corners_distinct_and_valid(small_complexes):
    cx = small_complexes("k5-n2")
    for cell in cx.cells[2][::7]:
        corners = corner_configurations(cx.graph, cell)
        assert len(corners) == 4
        assert len(set(corners)) == 4
        for c in corners:
            assert cell_is_valid(cx.graph, c)
            assert cell_dimension(c) == 0


def test_conflicting_moves_detected_at_corner():
    # two moves toward one junction: the corner with both particles on it
    # is an invalid resting configuration
    g = gc.banana(4)
    candidate = make_cell([(0, ("ME", 0, 0)), (1, ("ME", 1, 0))])
    assert not cell_is_valid(g, candidate)
    corners = corner_configurations(g, candidate)
    bad = make_cell([(0, ("V", 0)), (1, ("V", 0))])
    assert bad in corners
    assert not cell_is_valid(g, bad)


# -- relabeling ----------------------------------------------------------------

def test_relabel_identity_and_inverse():
    g = gc.banana(4)
    cell = make_cell([(0, ("ME", 0, 0)), (1, ("E", 1, 0)), (2, ("E", 2, 0))])
    ident = {0: 0, 1: 1, 2: 2}
    assert relabel_cell(cell, ident) == cell
    perm = {0: 2, 1: 0, 2: 1}
    inv = {2: 0, 0: 1, 1: 2}
    assert relabel_cell(relabel_cell(cell, perm), inv) == cell


def test_relabeled_requires_a_permutation():
    cx = gc.enumerate_cells(gc.star(3), 2)
    for perm in ({0: 0, 1: 0}, {0: 1}, {0: 1, 1: 2}, [0], [1, 1]):
        with pytest.raises(ValueError, match="not a permutation"):
            cx.relabeled(perm)
    for perm in ({0: 1, 1: 0}, [1, 0]):
        swapped = cx.relabeled(perm)
        assert swapped.cell_counts() == cx.cell_counts()
        assert {c for group in swapped.cells for c in group} == {
            relabel_cell(c, perm) for group in cx.cells for c in group}


def test_relabel_chain_orientation_sign():
    # swapping the two movers of a square reverses its orientation
    g = gc.banana(4)
    cell = make_cell([(0, ("ME", 0, 0)), (1, ("ME", 1, 1))])
    z = gc.Chain(g, 2, {cell: 1})
    swapped = gc.relabel_chain(z, {0: 1, 1: 0})
    assert list(swapped.terms.values()) == [-1]
    # renaming a lone mover never picks up a sign
    single = gc.Chain(g, 1, {make_cell([(0, ("ME", 0, 0)),
                                        (1, ("E", 1, 0))]): 1})
    assert list(gc.relabel_chain(single, {0: 1, 1: 0}).terms.values()) == [1]


def test_relabel_chain_commutes_with_boundary(small_complexes):
    cx = small_complexes("banana4-n3")
    perm = {0: 1, 1: 2, 2: 0}
    for cell in cx.cells[2][::17]:
        z = gc.Chain(cx.graph, 2, {cell: 1})
        lhs = gc.relabel_chain(gc.boundary_chain(z), perm)
        rhs = gc.boundary_chain(gc.relabel_chain(z, perm))
        assert lhs.terms == rhs.terms


def test_betti_invariant_under_all_relabelings(small_complexes):
    cx = small_complexes("banana4-n3")
    base = gc.homology(cx).betti_vector()
    for perm in itertools.permutations(range(3)):
        relabeled = cx.relabeled(dict(enumerate(perm)))
        assert gc.homology(relabeled).betti_vector() == base


# -- chains -------------------------------------------------------------------

def test_chain_algebra():
    g = gc.star(3)
    c1 = make_cell([(0, ("E", 0, 0))])
    c2 = make_cell([(0, ("E", 1, 0))])
    z = gc.Chain(g, 0, {c1: 2, c2: -1})
    w = gc.Chain(g, 0, {c1: -2})
    s = z + w
    assert s.terms == {c2: -1}
    assert (z - z).is_zero()
    assert z.scaled(3).terms == {c1: 6, c2: -3}
    with pytest.raises(ValueError):
        gc.Chain(g, 1, {c1: 1})  # degree mismatch


def test_export_records():
    assert state_record(("ME", 3, 1)) == "ME 3 1"
    assert state_record(("V", 2)) == "V 2"
    cx = gc.enumerate_cells(gc.interval(sinks={0, 1}), 1)
    doc = complex_to_doc(cx)
    assert doc["particles"] == 1
    assert doc["cells"][0] == [[[0, "V 0"]], [[0, "V 1"]]]
    assert doc["boundaries"]["1"] == [[0, 0, -1], [1, 0, 1]]
