"""Explicit cycles in the cube-complex model.

Every star, circuit and crossing 1-cycle is an itinerary replayed by one
routine, :func:`_walk_cycle`.  A constructor only writes down data: the
rests of its active particles, which fix the starting configuration (a
0-cell), and a list of ``(particle, move state)`` steps.  Each step
replaces one particle's static state by a move state and crosses that
1-cell to its other face, with sign +1 along the stored orientation and
-1 against it.  Replaying a step backwards retraces its cell with the
opposite sign, so a crossing cycle is one walk: one crossing order
forwards, the other replayed in reverse.  The routine requires the walk
to return to its start, so the chain has zero boundary by telescoping;
it checks that contract explicitly and raises ``InvariantError`` when it
fails.  A walk moves only its active particles; the particles it does
not move are parked afterwards, in one way for every caller
(:meth:`_Walk.parked`): a parking on vertices, or on edges off the
walk's itinerary, is merged into every cell, and any other parking
walks the same itinerary again with them in place, through the same
checked step.

An "end station" abstracts where a particle rests just off a vertex v on
a chosen half-edge: on an edge without sink endpoints it is the outermost
interior slot at that end, reached by an 'ME' move; on an edge whose far
endpoint is a sink it is the sink vertex itself, reached by an 'MF' move.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from .graphs import Graph, banana, dimension_bound, edge_of_end, end_side, \
    essential_vertices, other_end, wedge
from .model import (Chain, InvariantError, _claimed_vertices, _face_at,
                    boundary_chain, cell_is_valid, enumerate_cells,
                    is_move_state, make_cell, state_is_valid, state_record)


class CycleConstructionError(ValueError):
    """A requested cycle cannot be realized (bad spec, blocked itinerary,
    or conflicting parking)."""


# -- specifications ----------------------------------------------------------

@dataclass(frozen=True)
class StarSpec:
    """Center vertex and an ordered triple of distinct edge-ends at it.

    A loop at the center contributes two usable ends.  The cycle is
    alternating in the triple: an odd permutation of the ends negates it.
    """

    vertex: int
    ends: tuple

    def __post_init__(self):
        if len(self.ends) != 3 or len(set(self.ends)) != 3:
            raise CycleConstructionError("star spec needs three distinct ends")


@dataclass(frozen=True)
class CircuitSpec:
    """Closed walk of edge-ends forming an embedded circuit.

    ``ends[i]`` is the half-edge along which the circuit leaves its i-th
    vertex; the far endpoint of ``ends[i]`` is the next vertex.  Edges and
    vertices are distinct; a single loop edge is the shortest case.
    """

    ends: tuple

    def __post_init__(self):
        if not self.ends:
            raise CycleConstructionError("empty circuit")


@dataclass(frozen=True)
class HSpec:
    """Two distinct vertices joined by an embedded path, with two side
    edge-ends designated at each non-sink endpoint (sink endpoints reorder
    particles on the sink itself and need no side ends)."""

    v: int
    w: int
    path: tuple
    v_sides: tuple = ()
    w_sides: tuple = ()

    def __post_init__(self):
        if self.v == self.w:
            raise CycleConstructionError("h spec endpoints must be distinct")


# -- stations and configuration assembly -------------------------------------

def _check_end(g, end):
    if not 0 <= end < 2 * g.num_edges:
        raise CycleConstructionError(f"no half-edge {end}")
    return end


def _station(g, end):
    """(kind, edge, data) for resting just off ``vertex_of_end(end)`` along
    ``end``: ('slot', e, side) or ('sink', e, far_vertex)."""
    e = edge_of_end(end)
    if g.sink_endpoints(e) == 0:
        return ("slot", e, end_side(end))
    far = g.vertex_of_end(other_end(end))
    if not g.is_sink(far):
        raise CycleConstructionError(
            f"end {end}: sink-incident edge with a non-sink far endpoint"
            " cannot hold a resting particle")
    return ("sink", e, far)


def _station_move(g, end):
    """The move between the vertex of ``end`` and its station."""
    kind, e, data = _station(g, end)
    return ("ME", e, data) if kind == "slot" else ("MF", e)


def _edge_moves(g, end):
    """The moves that carry a particle along the edge of ``end`` from the
    vertex of ``end`` to the far endpoint."""
    e = edge_of_end(end)
    if g.sink_endpoints(e):
        return [("MF", e)]
    return [("ME", e, end_side(end)), ("ME", e, end_side(other_end(end)))]


def _particle_ids(pids):
    """``pids`` as a tuple, checked before any of them is hashed to be
    distinct non-negative integers, not bools."""
    pids = tuple(pids)
    if (not all(type(p) is int and p >= 0 for p in pids)
            or len(set(pids)) != len(pids)):
        raise CycleConstructionError(
            f"particles {pids!r} are not distinct non-negative integers")
    return pids


def normalize_parking(g, parking):
    """Validate a parking map ``particle -> ('V', v) | ('E', e, k)`` to
    valid states with integer entries and particle ids; the ``k`` of an
    'E' state only orders the parked particles of one edge.  Anything
    else is a ``CycleConstructionError``."""
    try:
        parking = dict(parking or {})
    except (TypeError, ValueError):
        raise CycleConstructionError(
            f"parking {parking!r} is not a map of particles") from None
    _particle_ids(parking)
    for pid, st in parking.items():
        kind = st[0] if isinstance(st, (tuple, list)) and st else None
        if (kind not in ("V", "E") or len(st) != (2 if kind == "V" else 3)
                or not all(type(x) is int for x in st[1:])):
            raise CycleConstructionError(
                f"parking state {st!r} is not a static state")
        if not state_is_valid(g, st):
            raise CycleConstructionError(
                f"particle {pid} cannot park at {st}")
    return parking


def assemble_configuration(g, rests):
    """Build a 0-cell from the rests of its particles.

    ``rests`` maps particles to ``('V', v)``, ``('E', e, k)`` or
    ``('end', end)``; parked particles are its 'V' and 'E' rests.  The 'E'
    rests of one edge keep the order of their ``k`` and sit inward of any
    'end' rest, which occupies the outermost slot at its end (or the far
    sink).  An invalid cell is a ``CycleConstructionError``.
    """
    by_edge = {}
    pairs = []
    for pid, st in sorted(rests.items()):
        if st[0] == "V":
            pairs.append((pid, ("V", st[1])))
        elif st[0] == "E":
            by_edge.setdefault(st[1], []).append((st[2], pid))
    ordered = {e: [pid for _, pid in sorted(slots)] for e, slots in by_edge.items()}
    for pid, rest in sorted(rests.items()):
        if rest[0] != "end":
            continue
        kind, e, data = _station(g, rest[1])
        if kind == "sink":
            pairs.append((pid, ("V", data)))
        elif data == 0:
            ordered.setdefault(e, []).insert(0, pid)
        else:
            ordered.setdefault(e, []).append(pid)
    for e, pids in ordered.items():
        for r, pid in enumerate(pids):
            pairs.append((pid, ("E", e, r)))
    cell = make_cell(pairs)
    if not cell_is_valid(g, cell):
        raise CycleConstructionError(
            f"rests {rests} do not make a valid configuration")
    return cell


class _Walk:
    """Accumulates 1-cells while a configuration takes elementary moves.

    The configuration is always a valid 0-cell (a checked start, then
    faces of checked cells), so a move makes a valid cell exactly when its
    state is valid and claims no vertex another particle rests on.  A move
    leaves the configuration by whichever face of its cell it is on, so
    the same move state steps forwards or back.

    The walk starts from the 0-cell that :func:`assemble_configuration`
    builds from ``rests``, and ``moves`` records its itinerary as
    ``(particle, move state)`` steps.  From these :meth:`parked` builds
    the walk with more particles parked: the one way a star, circuit or
    crossing cycle gets parked particles."""

    def __init__(self, graph, rests):
        self.graph = graph
        self.start = self.config = assemble_configuration(graph, rests)
        self.index = {p: i for i, (p, _) in enumerate(self.start)}
        self.rests = rests
        self.terms = {}
        self.moves = []
        self._footprint = None

    def move(self, pid, move_state):
        """Cross the cell where ``pid`` takes ``move_state`` from the face
        the configuration is on: with sign +1 from its side-0 face, -1 from
        its side-1 face.  A blocked move, or a configuration on neither
        face, is a ``CycleConstructionError`` and moves nothing."""
        g = self.graph
        if pid not in self.index:
            raise CycleConstructionError(f"particle {pid} has no static state")
        valid = state_is_valid(g, move_state)
        claims = set(_claimed_vertices(g, move_state)) if valid else ()
        if not valid or any(s[0] == "V" and s[1] in claims
                            for p, s in self.config if p != pid):
            raise CycleConstructionError(
                f"itinerary blocked: move {move_state} of particle {pid}"
                " is not independent of the rest of the configuration")
        config = self.config
        i = self.index[pid]
        old = config[i][1]
        if old[0] == "E":
            e, r = old[1], old[2]
            config = tuple((p, ("E", e, s[2] - 1))
                           if s[0] == "E" and s[1] == e and s[2] > r
                           else (p, s) for p, s in config)
        cell = config[:i] + ((pid, move_state),) + config[i + 1:]
        # the walk rests between moves: the moving particle is the only mover
        f0 = _face_at(g, cell, i, 0)
        f1 = _face_at(g, cell, i, 1)
        if f0 == self.config:
            coef, self.config = 1, f1
        elif f1 == self.config:
            coef, self.config = -1, f0
        else:
            raise CycleConstructionError(
                "elementary move does not start at the current configuration")
        c = self.terms.get(cell, 0) + coef
        if c:
            self.terms[cell] = c
        else:
            self.terms.pop(cell, None)
        self.moves.append((pid, move_state))

    def chain(self):
        """The chain of the walk so far, its terms copied afresh: the
        walk's own dict keeps the room of every cell it dropped."""
        return Chain._merged(self.graph, 1, dict(self.terms.items()))

    def parked(self, parking):
        """The chain of this closed walk with the particles of ``parking``
        parked, as :func:`normalize_parking` returns them.

        The walk's footprint is every vertex and edge its start and its
        move states touch.  A parking on vertices and on edges off the
        footprint never meets a mover, so :func:`_attach_parked` merges it
        into every cell, refusing a non-sink vertex on the footprint.  Any
        other parking walks the itinerary again with the parked particles
        in place, through :meth:`move`, so a parked particle that a mover
        would pass refuses that step; the retaken walk keeps the cells
        that meet a parked particle, even where the bare walk's cancel.
        Every refusal is a ``CycleConstructionError``.
        """
        g = self.graph
        if not parking:
            return self.chain()
        if parking.keys() & self.rests.keys():
            raise CycleConstructionError("active particle is also parked")
        if self._footprint is None:
            self._footprint = {x for _, st in itertools.chain(self.start, self.moves)
                               for x in _state_support(g, st)}
        if all(st[0] == "V" or ("e", st[1]) not in self._footprint
               for st in parking.values()):
            return _attach_parked(Chain._merged(g, 1, self.terms), g, parking,
                                  self._footprint)
        walk = _Walk(g, {**self.rests, **parking})
        for pid, move_state in self.moves:
            walk.move(pid, move_state)
        if walk.config != walk.start:
            raise CycleConstructionError(f"parking {parking} does not close the walk")
        return walk.chain()


def _walk_cycle(g, rests, moves):
    """The closed walk of an itinerary: ``moves`` is a list of
    ``(particle, move state)`` steps replayed from the configuration that
    :func:`assemble_configuration` builds from ``rests``; the walk must end
    where it started, and its chain must be a cycle."""
    walk = _Walk(g, rests)
    for pid, move_state in moves:
        walk.move(pid, move_state)
    if walk.config != walk.start:
        raise CycleConstructionError("itinerary is not closed")
    if not boundary_chain(Chain._merged(g, 1, walk.terms)).is_zero():
        raise InvariantError("constructed chain is not a cycle")
    return walk


# -- star cycles --------------------------------------------------------------

def _check_star_spec(g, spec):
    v = spec.vertex
    if g.is_sink(v):
        raise CycleConstructionError("star center must not be a sink")
    if g.valence(v) < 3:
        raise CycleConstructionError(
            f"star center needs valence >= 3, has {g.valence(v)}")
    for end in spec.ends:
        _check_end(g, end)
        if g.vertex_of_end(end) != v:
            raise CycleConstructionError(f"end {end} is not incident to {v}")


def star_cycle_chain(g, spec, pair, parking=None):
    """The twelve-cell shuffle of two particles over three ends of a star.

    Both particles start on different ends; in turns each moves across the
    center to the free end until the initial configuration returns.  When
    the three ends lie on distinct edges and rest at three distinct places
    (ends resting on one sink rest at one place), each of the six transits
    contributes its outbound and inbound 1-cells, for a support of exactly
    twelve cells with coefficients +-1: the cell with a particle moving at
    end a and the other resting at end b carries the sign of the cyclic
    orientation of (a, b) within the spec triple.  The particles of
    ``parking`` are parked by :meth:`_Walk.parked`.
    """
    return _star_walk(g, spec, pair).parked(normalize_parking(g, parking))


def _star_walk(g, spec, pair):
    """The checked walk of :func:`star_cycle_chain`, without parked
    particles."""
    _check_star_spec(g, spec)
    x, y = _particle_ids(pair)
    d0, d1, d2 = spec.ends
    moves = [(pid, _station_move(g, end))
             for pid, frm, to in ((x, d0, d2), (y, d1, d0), (x, d2, d1),
                                  (y, d0, d2), (x, d1, d0), (y, d2, d1))
             for end in (frm, to)]
    walk = _walk_cycle(g, {x: ("end", d0), y: ("end", d1)}, moves)
    stations = [_station(g, d) for d in spec.ends]
    places = {(kind, data if kind == "sink" else (e, data))
              for kind, e, data in stations}
    if (len({e for _, e, _ in stations}) == 3 == len(places)
            and len(walk.terms) != 12):
        raise InvariantError("star cycle support must be twelve cells")
    return walk


def star4_relation_chain(g, vertex, ends, pair):
    """Alternating sum of the four star cycles over the 3-subsets of four
    ends, the omitted index carrying the sign; cancels cell by cell."""
    ends = tuple(ends)
    if len(ends) != 4 or len(set(ends)) != 4:
        raise CycleConstructionError("the relation needs four distinct ends")
    total = Chain(g, 1)
    for i in range(4):
        sub = tuple(d for j, d in enumerate(ends) if j != i)
        z = star_cycle_chain(g, StarSpec(vertex, sub), pair)
        total = total + (z if i % 2 == 0 else -z)
    return total


# -- circuit cycles ------------------------------------------------------------

def _check_circuit(g, spec):
    ends = spec.ends
    for h in ends:
        _check_end(g, h)
    edges = [edge_of_end(h) for h in ends]
    if len(set(edges)) != len(edges):
        raise CycleConstructionError("circuit repeats an edge")
    verts = [g.vertex_of_end(h) for h in ends]
    if len(set(verts)) != len(verts):
        raise CycleConstructionError("circuit repeats a vertex")
    for i, h in enumerate(ends):
        nxt = ends[(i + 1) % len(ends)]
        if g.vertex_of_end(other_end(h)) != g.vertex_of_end(nxt):
            raise CycleConstructionError("circuit ends do not chain up")
    return verts


def circuit_cycle_chain(g, spec, particles, parking=None):
    """One or more particles travelling once around an embedded circuit.

    ``particles`` is one id or a tuple or list of ids.  A single particle
    walks the whole circuit (two cells per sink-free edge, one full
    traversal per sink-incident edge).  Several particles
    are supported on one-edge circuits, i.e. loops, where they rotate
    cyclically in the given order; this realizes the classes that move all
    particles of a circle component at once.  The particles of
    ``parking`` are parked by :meth:`_Walk.parked`.
    """
    return _circuit_walk(g, spec, particles).parked(
        normalize_parking(g, parking))


def _circuit_walk(g, spec, particles):
    """The checked walk of :func:`circuit_cycle_chain`, without parked
    particles."""
    verts = _check_circuit(g, spec)
    particles = _particle_ids(particles if isinstance(particles, (tuple, list))
                              else (particles,))
    if not particles:
        raise CycleConstructionError("need an active particle")

    if len(particles) == 1:
        p = particles[0]
        return _walk_cycle(g, {p: ("V", verts[0])},
                           [(p, st) for h in spec.ends
                            for st in _edge_moves(g, h)])

    if len(spec.ends) != 1:
        raise CycleConstructionError(
            "multi-particle rotation is supported on loop circuits only")
    e = edge_of_end(spec.ends[0])
    u = verts[0]
    m = len(particles)
    if g.is_sink(u):
        # every particle traverses the loop once; each full traversal is
        # already closed since both endpoints coincide
        return _walk_cycle(g, {p: ("V", u) for p in particles},
                           [(p, ("MF", e)) for p in particles])
    rests = {p: ("E", e, i) for i, p in enumerate(particles[1:])}
    rests[particles[0]] = ("V", u)
    moves = [step for j in range(m)
             for step in ((particles[j], ("ME", e, 1)),
                          (particles[(j + 1) % m], ("ME", e, 0)))]
    return _walk_cycle(g, rests, moves)


# -- h cycles -----------------------------------------------------------------

def _check_h_spec(g, spec):
    if not spec.path:
        raise CycleConstructionError("h spec needs a connecting path")
    for h in spec.path + spec.v_sides + spec.w_sides:
        _check_end(g, h)
    verts = [g.vertex_of_end(spec.path[0])]
    for h in spec.path:
        if g.vertex_of_end(h) != verts[-1]:
            raise CycleConstructionError("path ends do not chain up")
        verts.append(g.vertex_of_end(other_end(h)))
    if verts[0] != spec.v or verts[-1] != spec.w:
        raise CycleConstructionError("path does not join the two endpoints")
    if len(set(verts)) != len(verts):
        raise CycleConstructionError("path is not embedded")
    edges = [edge_of_end(h) for h in spec.path]
    if len(set(edges)) != len(edges):
        raise CycleConstructionError("path repeats an edge")
    for vertex, sides, path_end in ((spec.v, spec.v_sides, spec.path[0]),
                                    (spec.w, spec.w_sides, other_end(spec.path[-1]))):
        if g.is_sink(vertex):
            continue
        if len(sides) != 2 or len(set(sides)) != 2:
            raise CycleConstructionError(
                f"non-sink endpoint {vertex} needs two distinct side ends")
        for s in sides:
            if g.vertex_of_end(s) != vertex:
                raise CycleConstructionError(f"side end {s} is not at {vertex}")
            if s == path_end:
                raise CycleConstructionError("side end lies on the path")


def h_cycle_chain(g, spec, pair, parking=None):
    """Difference of the two orders in which a particle pair crosses a
    path between two reordering vertices.

    At a sink endpoint the particles stack on the sink itself; at a
    non-sink endpoint each particle keeps its own designated side end.
    The walk crosses x then y, and returns by the y-then-x crossing
    replayed in reverse; it closes exactly when both orders meet.  The
    particles of ``parking`` are parked by :meth:`_Walk.parked`, and a
    parked chain that is zero is refused.
    """
    z = _h_walk(g, spec, pair).parked(normalize_parking(g, parking))
    if z.is_zero():
        raise CycleConstructionError("h cycle degenerated to zero")
    return z


def _h_walk(g, spec, pair):
    """The checked walk of :func:`h_cycle_chain`, without parked
    particles; it may be zero."""
    _check_h_spec(g, spec)
    x, y = _particle_ids(pair)

    path = [st for h in spec.path for st in _edge_moves(g, h)]
    crossings = {x: list(path), y: list(path)}
    if g.is_sink(spec.v):
        rests = {x: ("V", spec.v), y: ("V", spec.v)}
    else:
        rests = {x: ("end", spec.v_sides[0]), y: ("end", spec.v_sides[1])}
        for pid, side in zip((x, y), spec.v_sides):
            crossings[pid].insert(0, _station_move(g, side))
    for pid, side in zip((x, y), spec.w_sides):
        crossings[pid].append(_station_move(g, side))
    there, back = ([(pid, st) for pid in order for st in crossings[pid]]
                   for order in ((x, y), (y, x)))
    return _walk_cycle(g, rests, there + back[::-1])


# -- products and push-ins ------------------------------------------------------

def _state_support(g, state):
    kind = state[0]
    if kind == "V":
        return (("v", state[1]),)
    if kind == "E":
        return (("e", state[1]),)
    if kind == "ME":
        return (("e", state[1]), ("v", g.edges[state[1]][state[2]]))
    u, v = g.edges[state[1]]
    return (("e", state[1]), ("v", u), ("v", v))


def chain_support_elements(z):
    """Vertices and edges touched by any cell of the chain."""
    elems = set()
    for cell in z.terms:
        for _, s in cell:
            elems.update(_state_support(z.graph, s))
    return elems


def chain_particles(z):
    pids = set()
    for cell in z.terms:
        pids.update(p for p, _ in cell)
    return pids


def _shuffle_sign(pids1, pids2):
    inv = sum(1 for a in pids1 for b in pids2 if a > b)
    return -1 if inv % 2 else 1


def product_chain(z1, z2):
    """Bilinear cell-wise product of chains with disjoint particle sets and
    disjoint graph support.

    The merged move slots are ordered by particle id, so each cell pair
    picks up the sign of the shuffle interleaving the two mover id lists;
    this is exactly what makes the graded Leibniz rule hold.
    """
    if z1.graph != z2.graph:
        raise ValueError("product factors live on different graphs")
    if chain_particles(z1) & chain_particles(z2):
        raise ValueError("product factors share particles")
    if chain_support_elements(z1) & chain_support_elements(z2):
        raise ValueError("product factors share graph support")
    terms = {}
    for c1, a1 in z1.terms.items():
        movers1 = [p for p, s in c1 if is_move_state(s)]
        for c2, a2 in z2.terms.items():
            movers2 = [p for p, s in c2 if is_move_state(s)]
            coef = a1 * a2 * _shuffle_sign(movers1, movers2)
            cell = make_cell(c1 + c2)
            v = terms.get(cell, 0) + coef
            if v:
                terms[cell] = v
            else:
                terms.pop(cell, None)
    return Chain._merged(z1.graph, z1.degree + z2.degree, terms)


def parked_chain(g, parking):
    """Degree-0 chain with one cell holding the parked particles."""
    cell = assemble_configuration(g, normalize_parking(g, parking))
    return Chain(g, 0, {cell: 1})


def push_in(z, e, s, leaf_end=None):
    """Insert a new particle ``s`` just inside the leaf end of edge ``e``.

    The particle is parked by the parking rule of :func:`_attach_parked`:
    deep behind the inner end, that is, in the outermost interior slot at
    the leaf end, with the existing occupants re-ranked; if the leaf
    vertex is a sink the particle sits on it, and if instead the inner
    endpoint is a sink (the edge then has no interior slots in the model)
    the particle settles there.  This is a chain map: it commutes with
    the boundary and sends cycles to cycles.
    """
    g = z.graph
    if not 0 <= e < g.num_edges:
        raise ValueError(f"no edge {e}")
    if leaf_end is None:
        if g.valence(g.edges[e][1]) == 1:
            leaf_end = 1
        elif g.valence(g.edges[e][0]) == 1:
            leaf_end = 0
        else:
            raise ValueError(f"edge {e} is not a leaf edge")
    elif leaf_end not in (0, 1):
        raise ValueError(f"leaf end must be 0 or 1, got {leaf_end!r}")
    leaf = g.edges[e][leaf_end]
    if g.valence(leaf) != 1:
        raise ValueError(f"end {leaf_end} of edge {e} is not a leaf")
    _particle_ids((s,))
    if s in chain_particles(z):
        raise ValueError(f"particle {s} already present")
    if g.is_sink(leaf):
        state = ("V", leaf)
    elif g.sink_endpoints(e):
        state = ("V", g.edges[e][1 - leaf_end])
    else:
        state = ("D", 2 * e + 1 - leaf_end, 0)
    return _attach_parked(z, g, {s: state}, chain_support_elements(z))


# -- the non-product two-cycle --------------------------------------------------

def _parallel_four_layout(g):
    """Ends at the two vertices of the four parallel edges 0..3, which must
    join vertices 0 and 1 with no sinks involved."""
    if g.num_vertices < 2 or g.num_edges < 4:
        raise CycleConstructionError("expected four parallel edges")
    for e in range(4):
        if set(g.edges[e]) != {0, 1}:
            raise CycleConstructionError(
                "edges 0..3 must join vertices 0 and 1")
    if 0 in g.sinks or 1 in g.sinks:
        raise CycleConstructionError("the two junction vertices must not be sinks")
    v_ends = tuple(2 * e + (0 if g.edges[e][0] == 0 else 1) for e in range(4))
    w_ends = tuple(other_end(h) for h in v_ends)
    return v_ends, w_ends


def nonproduct_cycle_chain(g):
    """The 144-cell 2-cycle of three particles on four parallel edges.

    For each choice of a moving pair and each omitted edge (signed by its
    index), the twelve-cell star shuffle of the pair at one junction is
    multiplied with the 1-cell carrying the third particle along the
    omitted edge toward the other junction.  The junction-side boundary
    parts vanish by the four-star relation; the slot-side parts cancel in
    pairs across the choices of the pair.
    """
    v_ends, w_ends = _parallel_four_layout(g)
    total = Chain(g, 2)
    for t in range(3):
        pair = tuple(p for p in range(3) if p != t)
        for i in range(4):
            ends = tuple(d for j, d in enumerate(v_ends) if j != i)
            z = star_cycle_chain(g, StarSpec(0, ends), pair)
            mover = Chain(g, 1, {make_cell([(t, ("ME", i, end_side(w_ends[i])))]): 1})
            piece = product_chain(z, mover)
            total = total + (piece if i % 2 == 0 else -piece)
    if len(total) != 144:
        raise InvariantError("expected 144 distinct cells")
    if not boundary_chain(total).is_zero():
        raise InvariantError("the 144-cell chain must be a cycle")
    return total


def nonproduct_cycle(cx):
    """The 144-cell 2-cycle on the three-particle complex of the four-edge
    banana graph."""
    if cx.n != 3:
        raise CycleConstructionError("the non-product cycle needs 3 particles")
    g = cx.graph
    if g.num_vertices != 2 or g.num_edges != 4 or g.sinks:
        raise CycleConstructionError(
            "expected the two-vertex graph with four parallel edges and no sinks")
    return nonproduct_cycle_chain(g)


@dataclass
class LoopAugmentedCycle:
    graph: Graph
    num_particles: int
    degree: int
    description: str
    chain: Chain
    checks: dict


def loop_augmented_nonproduct(k):
    """The four-edge banana with ``k`` looped stems at one junction, and
    the recipe multiplying the 144-cell 2-cycle with one circle class per
    loop: a ``(k+2)``-cycle on ``k+3`` particles.

    The degree ``k+2`` is the dimension bound of ``k+3`` particles on this
    graph (two junctions and ``k`` stem ends), so the complex has no
    ``(k+3)``-cells and a nonzero cycle in it is not a boundary.  That
    certificate needs no enumeration of the complex: every support cell is
    checked to be a valid cell carrying the particles ``0..k+2``.
    """
    if k < 0:
        raise ValueError("loop count must be nonnegative")
    g = banana(4)
    for _ in range(k):
        g = wedge(g, 0, Graph(2, [(0, 1), (1, 1)]), 0)
    z = nonproduct_cycle_chain(g)
    for j in range(k):
        loop_edge = 4 + 2 * j + 1
        z = product_chain(
            z, circuit_cycle_chain(g, CircuitSpec((2 * loop_edge,)), 3 + j))
    n = k + 3
    if z.degree != dimension_bound(g, n):
        raise InvariantError("the augmented cycle must lie in the top degree")
    pids = list(range(n))
    if not all(cell_is_valid(g, cell) and [p for p, _ in cell] == pids
               for cell in z.terms):
        raise InvariantError("the augmented cycle has a cell outside the complex")
    description = ("product of the 144-cell two-cycle on the parallel edges"
                   f" with {k} one-particle circle class(es) on the attached loops")
    return LoopAugmentedCycle(
        graph=g, num_particles=n, degree=z.degree, description=description,
        chain=z, checks={"support": len(z),
                         "is_cycle": boundary_chain(z).is_zero(),
                         "is_boundary": z.is_zero()})


# -- local star bases -----------------------------------------------------------

def one_dim_cycle_basis(cx):
    """Fundamental-cycle basis of the first homology of a complex of
    dimension at most one: one cycle per 1-cell outside a breadth-first
    spanning forest of the 1-skeleton."""
    if cx.max_dim > 1:
        raise ValueError("cycle basis needs a complex of dimension <= 1")
    g = cx.graph
    if cx.max_dim < 1:
        return []
    n0, n1 = cx.cell_counts()
    adj = [[] for _ in range(n0)]
    # the side-0 and side-1 faces of each 1-cell: the rows of its -1 and +1
    # entries, none when they coincide (a loop at a sink)
    faces = [[None, None] for _ in range(n1)]
    for row, j, sign in cx.boundary_entries(1).entries:
        faces[j][sign > 0] = row
    for j, (a, b) in enumerate(faces):
        if a is not None:
            adj[a].append((b, j, 1))
            adj[b].append((a, j, -1))
    visited = [False] * n0
    to_root = [None] * n0  # sparse chain with boundary (node - root)
    tree = set()
    for root in range(n0):
        if visited[root]:
            continue
        visited[root] = True
        to_root[root] = {}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y, j, s in adj[x]:
                if visited[y]:
                    continue
                visited[y] = True
                tree.add(j)
                pc = dict(to_root[x])
                pc[j] = pc.get(j, 0) + s
                to_root[y] = pc
                queue.append(y)
    basis = []
    for j, (a, b) in enumerate(faces):
        if j in tree:
            continue
        coeffs = {j: 1}
        if a is not None:
            for jj, s in to_root[b].items():
                coeffs[jj] = coeffs.get(jj, 0) - s
            for jj, s in to_root[a].items():
                coeffs[jj] = coeffs.get(jj, 0) + s
        terms = {cx.cells[1][jj]: v for jj, v in coeffs.items() if v}
        basis.append(Chain._merged(g, 1, terms))
    return basis


def _local_star(g, v):
    """The star neighborhood of ``v`` as a standalone graph: incident
    edges keep their stored orientation and slot ranks, non-loop far
    endpoints become stubs, one per edge, except that all edges to one
    sink share one sink stub (a sink is a single point of the quotient).

    Returns the subgraph, the local-to-global edge map, and the
    local-to-global vertex map.
    """
    edges = []
    edge_map = []
    vertex_map = {0: v}
    sink_stubs = {}
    for e in range(g.num_edges):
        u0, u1 = g.edges[e]
        if u0 != v and u1 != v:
            continue
        if u0 == v and u1 == v:
            edges.append((0, 0))
        else:
            far = u1 if u0 == v else u0
            stub = sink_stubs.get(far)
            if stub is None:
                stub = len(vertex_map)
                vertex_map[stub] = far
                if g.is_sink(far):
                    sink_stubs[far] = stub
            edges.append((0, stub) if u0 == v else (stub, 0))
        edge_map.append(e)
    return (Graph(len(vertex_map), edges, sink_stubs.values()), edge_map,
            vertex_map)


def _map_local_state(edge_map, vertex_map, state):
    kind = state[0]
    if kind == "V":
        return ("V", vertex_map[state[1]])
    if kind == "E":
        return ("E", edge_map[state[1]], state[2])
    if kind == "ME":
        return ("ME", edge_map[state[1]], state[2])
    return ("MF", edge_map[state[1]])


def _local_star_basis(g, v, m):
    """The local star basis of the particles ``0..m-1`` at ``v``: a
    complete set of degree-1 classes confined to the star neighborhood of
    the essential vertex ``v``, as chains on ``g``.

    The confined model is one-dimensional (one essential vertex, no
    sink-to-sink edges), so a spanning-forest cycle basis of it is a basis
    of its first homology, and it maps verbatim onto cells of ``g``.  It
    depends on a subset of particles only through its size;
    :func:`_placed` puts it on one subset."""
    sub, edge_map, vertex_map = _local_star(g, v)
    cx = enumerate_cells(sub, m, max_cells=MAX_LOCAL_CELLS)
    return [Chain._merged(
                g, 1, {tuple((p, _map_local_state(edge_map, vertex_map, s))
                             for p, s in cell): coef
                       for cell, coef in z.terms.items()})
            for z in one_dim_cycle_basis(cx)]


def _placed(z, actives):
    """``z`` with particle ``p`` renamed ``actives[p]``; ``actives`` is
    increasing, so every cell keeps its pid order and no sign changes."""
    return Chain._merged(z.graph, z.degree,
                         {tuple(zip(actives, (s for _, s in cell))): coef
                          for cell, coef in z.terms.items()})


# -- enumeration of candidate generating cycles --------------------------------

MAX_PATH_EDGES = 4
MAX_CIRCUIT_EDGES = 6
MAX_LOCAL_CELLS = 200_000


class LazyChains(Sequence):
    """The chains of an iterator as a sequence that builds each one when
    first asked for it and keeps it.  Iterating reads the iterator one
    chain at a time, so a reader that stops early never builds the rest;
    ``len``, indexing and slicing build every chain first.  Iterating
    again, or after ``len``, replays the kept chains in the same order.  An
    error raised while building a chain is raised again on every later
    read, so a failed enumeration never looks complete."""

    __slots__ = ("_built", "_source", "_error")

    def __init__(self, source):
        self._built = []
        self._source = iter(source)
        self._error = None

    def _build_next(self):
        """Build one more chain; ``False`` when there is none."""
        if self._error is not None:
            raise self._error
        if self._source is None:
            return False
        try:
            self._built.append(next(self._source))
        except StopIteration:
            self._source = None
            return False
        except BaseException as exc:
            self._error = exc
            raise
        return True

    def __iter__(self):
        i = 0
        while i < len(self._built) or self._build_next():
            yield self._built[i]
            i += 1

    def _build_all(self):
        while self._build_next():
            pass
        return self._built

    def __len__(self):
        return len(self._build_all())

    def __getitem__(self, i):
        return self._build_all()[i]


@dataclass
class BasicClasses:
    chains: LazyChains


def star_specs(g):
    specs = []
    for v in sorted(essential_vertices(g)):
        if g.is_sink(v):
            continue
        for triple in itertools.combinations(sorted(g.ends_at(v)), 3):
            specs.append(StarSpec(v, triple))
    return specs


def circuit_specs(g):
    """Embedded circuits: the loops, then the closed embedded paths from
    each vertex in turn through no lower vertex, so from the least vertex
    of each circuit, one representative per edge set (the edge set of an
    embedded circuit determines it up to rotation and reflection, and the
    search meets each circuit in both directions)."""
    specs = [CircuitSpec((2 * e,)) for e in range(g.num_edges) if g.is_loop(e)]
    seen = set()
    for v in range(g.num_vertices):
        for path in _embedded_paths(g, v, v, MAX_CIRCUIT_EDGES):
            key = frozenset(edge_of_end(h) for h in path)
            if key not in seen:
                seen.add(key)
                specs.append(CircuitSpec(path))
    return specs


def h_specs(g):
    """Endpoint pairs (sinks or essential vertices) joined by short embedded
    paths, with canonical side ends at non-sink endpoints."""
    anchors = sorted(set(essential_vertices(g)) | g.sinks)
    specs = []
    for v, w in itertools.combinations(anchors, 2):
        for path in _embedded_paths(g, v, w, MAX_PATH_EDGES):
            v_sides = () if g.is_sink(v) else _side_ends(g, v, path[0])
            w_sides = () if g.is_sink(w) else _side_ends(g, w, other_end(path[-1]))
            if v_sides is None or w_sides is None:
                continue
            specs.append(HSpec(v, w, path, v_sides, w_sides))
    return specs


def _side_ends(g, v, path_end):
    free = [h for h in sorted(g.ends_at(v)) if h != path_end]
    if len(free) < 2:
        return None
    return tuple(free[:2])


def _embedded_paths(g, v, w, max_edges):
    """Paths of at most ``max_edges`` non-loop edges from ``v`` to ``w``
    that repeat no edge and no vertex, except that a path from ``v`` back
    to ``v`` closes at its start and enters no vertex below ``v`` (a
    circuit through one is found from its least vertex); tuples of the
    ends they leave along, in depth-first order."""
    paths = []

    def extend(at, ends, verts):
        if len(ends) >= max_edges:
            return
        for h in sorted(g.ends_at(at)):
            e = edge_of_end(h)
            if g.is_loop(e) or g.vertex_of_end(h) != at:
                continue
            if ends and e == edge_of_end(ends[-1]):
                continue  # no vertex repeats: the one path edge at ``at``
            far = g.vertex_of_end(other_end(h))
            if far == w:
                paths.append(ends + (h,))
                continue
            if far in verts or (v == w and far < v):
                continue
            extend(far, ends + (h,), verts | {far})

    extend(v, (), {v})
    return paths


def _parking_options(g, remaining, blocked, deep_ends=()):
    """Deterministic parkings of the remaining particles over sinks,
    non-blocked sink-free edges, and the deep slots behind the given ends;
    edge and deep groups run through all orders.  Yields every parking:
    one empty parking when nothing remains, none when there is nowhere
    to park.
    """
    if not remaining:
        yield {}
        return
    containers = [("V", s) for s in sorted(g.sinks)]
    for e in range(g.num_edges):
        if g.sink_endpoints(e) == 0 and e not in blocked:
            containers.append(("E", e))
    containers.extend(("D", h) for h in deep_ends)
    for combo in itertools.product(range(len(containers)), repeat=len(remaining)):
        groups = {}
        for pid, ci in zip(remaining, combo):
            groups.setdefault(ci, []).append(pid)
        orderings = []
        for ci, pids in sorted(groups.items()):
            if containers[ci][0] == "V":
                orderings.append([(ci, tuple(pids))])
            else:
                orderings.append([(ci, perm)
                                  for perm in itertools.permutations(pids)])
        for arrangement in itertools.product(*orderings):
            parking = {}
            for ci, pids in arrangement:
                kind, data = containers[ci]
                for slot, pid in enumerate(pids):
                    parking[pid] = ("V", data) if kind == "V" else (kind, data, slot)
            yield parking


def _attach_parked(z, g, parking, support):
    """Merge constant parked states into every cell of a partial chain.

    Parked particles sit on sinks, on edges untouched by the chain, or
    "deep" behind an end the chain rests on: a ``('D', end, k)`` entry
    parks leafward of every active occupant of that end's edge, so the
    moves of the chain never interact with it.  Ranks are recomputed per
    cell where an edge is shared.

    The parking is checked once, against ``support``: the chain's
    :func:`chain_support_elements`, or a walk's footprint, which holds
    it.  Every state must be valid, a parked
    particle on a non-sink vertex must be alone there and off the support,
    and one on an edge ('E') off the support, or ``CycleConstructionError``
    is raised.  Then no merged cell claims a vertex twice or breaks the
    slot ranks of an edge, so none is checked again.  The parked particles
    must not be particles of ``z``.
    """
    if not parking:
        return z
    claimed = set()
    for st in parking.values():
        if st[0] == "V":
            ok = state_is_valid(g, st) and (g.is_sink(st[1]) or (
                ("v", st[1]) not in support and st[1] not in claimed))
            claimed.add(st[1])
        else:
            e = st[1] if st[0] == "E" else edge_of_end(st[1])
            ok = (state_is_valid(g, ("E", e, 0))
                  and (st[0] == "D" or ("e", e) not in support))
        if not ok:
            raise CycleConstructionError("parking conflicts with the cycle")
    fixed = []
    free_edges = {}
    deep = {}
    for pid, st in sorted(parking.items()):
        if st[0] == "V":
            fixed.append((pid, ("V", st[1])))
        elif st[0] == "E":
            free_edges.setdefault(st[1], []).append((st[2], pid))
        else:
            end = st[1]
            deep.setdefault(edge_of_end(end), [end_side(end), []])[1].append(
                (st[2], pid))
    for e, slots in free_edges.items():
        for r, (_, pid) in enumerate(sorted(slots)):
            fixed.append((pid, ("E", e, r)))
    deep = [(e, side, [pid for _, pid in sorted(slots)])
            for e, (side, slots) in deep.items()]
    terms = {}
    for cell, coef in z.terms.items():
        pairs = list(cell) + fixed
        for e, side, group in deep:
            if side == 0:
                # actives hug the iota end; parked fill the tau side
                j = sum(1 for _, s in cell if s[0] == "E" and s[1] == e)
                pairs.extend((pid, ("E", e, j + k)) for k, pid in enumerate(group))
            else:
                # parked fill the iota side and push the actives up
                p = len(group)
                pairs = [(q, ("E", e, s[2] + p))
                         if s[0] == "E" and s[1] == e else (q, s)
                         for q, s in pairs]
                pairs.extend((pid, ("E", e, k)) for k, pid in enumerate(group))
        terms[tuple(sorted(pairs))] = coef
    return Chain._merged(g, z.degree, terms)


def _deep_ends(g, ends):
    """Ends usable for deep parking: not loops, not sink-incident."""
    out = []
    for h in ends:
        e = edge_of_end(h)
        if not g.is_loop(e) and g.sink_endpoints(e) == 0:
            out.append(h)
    return tuple(sorted(set(out)))


def _candidate_partials(g, n):
    """Candidate cycles: classic two-particle star shuffles, the complete
    local star bases at the essential vertices, circuit rotations, and
    path crossings, yielded in that order.

    Each entry is ``(z, make, actives, blocked_edges, deep_ends)``: ``z``
    is the cycle without parked particles, built once (a candidate that
    cannot be built or is zero is dropped), and ``make(parking)`` realizes
    it with the given parked particles.  A star, circuit or crossing
    cycle is walked once, with every check, and ``make`` is
    :meth:`_Walk.parked`, the constructors' own parking: it merges a
    parking off the walk's footprint into every cell, and walks the
    itinerary again, each step checked, for a parking on the edges the
    walk rests on.  The prebuilt local
    classes get parking merged in afterwards by :func:`_attach_parked`,
    checked once against the support of their basis chain, with the
    ``deep_ends`` available for leafward slots on their own edges.
    """
    pids = range(n)

    def built(walker, spec, actives, blocked):
        try:
            walk = walker(g, spec, actives)
        except CycleConstructionError:
            return ()
        if not walk.terms:
            return ()
        return ((walk.chain(), walk.parked, actives, blocked, ()),)

    for spec in star_specs(g):
        for pair in itertools.combinations(pids, 2):
            yield from built(_star_walk, spec, pair, frozenset())
    for v in sorted(essential_vertices(g)):
        if g.is_sink(v):
            continue
        blocked = frozenset(edge_of_end(h) for h in g.ends_at(v))
        deep = _deep_ends(g, g.ends_at(v))
        for m in range(2, n + 1):
            basis = [(z, chain_support_elements(z))
                     for z in _local_star_basis(g, v, m)]
            for actives in itertools.combinations(pids, m):
                for z, support in basis:
                    z = _placed(z, actives)
                    yield (z, lambda parking, z=z, support=support:
                           _attach_parked(z, g, parking, support),
                           actives, blocked, deep)
    for spec in circuit_specs(g):
        blocked = frozenset(edge_of_end(h) for h in spec.ends)
        if len(spec.ends) == 1:
            groups = []
            for m in range(1, n + 1):
                for subset in itertools.combinations(pids, m):
                    for order in itertools.permutations(subset[1:]):
                        groups.append((subset[0],) + order)
        else:
            groups = [(p,) for p in pids]
        for actives in groups:
            yield from built(_circuit_walk, spec, actives, blocked)
    for spec in h_specs(g):
        blocked = frozenset(edge_of_end(h) for h in spec.path)
        for pair in itertools.combinations(pids, 2):
            yield from built(_h_walk, spec, pair, blocked)


def _every_parking(z, make, g, remaining, blocked, deep=()):
    """``z`` with every parking of ``remaining`` that
    :func:`_parking_options` yields, each realized by ``make(parking)``.

    No such parking conflicts with its cycle: it parks on sinks, which
    hold any number of particles and which no move claims, on edges off
    ``blocked``, which holds every edge the cycle crosses (a star's
    particles leave each edge by the end they entered by) or, for a
    merged chain, touches, and deep behind the ends of a local star.  So
    a refusal is a defect and raises ``InvariantError``.
    """
    for parking in _parking_options(g, remaining, blocked, deep):
        if not parking:
            yield z
            continue
        try:
            parked = make(parking)
        except CycleConstructionError as exc:
            raise InvariantError(
                f"parking {parking} conflicts with its cycle") from exc
        yield parked


def _degree_one_classes(g, n):
    for z, make, actives, blocked, deep in _candidate_partials(g, n):
        remaining = [p for p in range(n) if p not in actives]
        yield from _every_parking(z, make, g, remaining, blocked, deep)


def _degree_two_classes(g, n):
    # every pair of partials is tried, so all of them are built first;
    # their walks are not kept, since products park by merging
    partials = [(z, act, blk)
                for z, _, act, blk, _ in _candidate_partials(g, n)]
    # a product's support is the union of its factors' supports
    supports = [chain_support_elements(z) for z, _, _ in partials]
    for i, (z1, act1, blk1) in enumerate(partials):
        for j in range(i + 1, len(partials)):
            z2, act2, blk2 = partials[j]
            if set(act1) & set(act2) or supports[i] & supports[j]:
                continue
            remaining = [p for p in range(n)
                         if p not in act1 and p not in act2]
            try:
                z = product_chain(z1, z2)
            except ValueError:
                continue
            support = supports[i] | supports[j]
            blocked = blk1 | blk2 | {x for kind, x in support if kind == "e"}
            yield from _every_parking(
                z, lambda parking, z=z, support=support:
                _attach_parked(z, g, parking, support),
                g, remaining, blocked)


def enumerate_basic_classes(cx, degree=1):
    """Deterministic candidate generating cycles, every one that builds.

    Degree 1: two-particle star shuffles, the full local star basis at
    every essential vertex for every active particle subset, circuit
    rotations and path-crossing differences, each filled up to all
    particles by every parking of the rest over sinks and the edges the
    cycle does not cross.  Degree 2: products of two degree-1 candidates
    with disjoint particles and disjoint graph support, parked the same
    way off their support.

    A star, circuit or crossing itinerary is walked once, and each of its
    parkings is merged in off the walk's footprint or walks the itinerary
    again with the parked particles in place (:meth:`_Walk.parked`); the
    local star classes and the products get their parkings merged in
    (:func:`_attach_parked`).  No parking tried can conflict with its
    cycle, so a refused one raises ``InvariantError``: a candidate is
    never skipped silently.

    ``chains`` is a :class:`LazyChains`: the candidates in this order,
    each built when a reader first reaches it.  A reader that iterates,
    such as :func:`graphconf.homology.class_span`, may stop early and
    leave the rest unbuilt; ``len``, indexing and slicing build them all,
    so the count and the list are those of the whole enumeration.
    """
    if degree not in (1, 2):
        raise ValueError("only degrees 1 and 2 are enumerated")
    classes = _degree_one_classes if degree == 1 else _degree_two_classes
    return BasicClasses(LazyChains(classes(cx.graph, cx.n)))


# -- export ---------------------------------------------------------------

def chain_to_doc(z):
    """Chain export: (coefficient, cell) pairs in the cell record syntax."""
    return {
        "degree": z.degree,
        "support_size": len(z.terms),
        "cells": [
            {"coefficient": coef,
             "cell": [[p, state_record(s)] for p, s in cell]}
            for cell, coef in sorted(z.terms.items())
        ],
    }

