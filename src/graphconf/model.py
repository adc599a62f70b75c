"""Combinatorial cube-complex model of configuration spaces with sinks.

A cell assigns one state to each participating particle:

``('V', v)``
    the particle sits on vertex ``v``; allowed when ``v`` is a sink or a
    non-sink vertex of valence >= 2 (valence-1 non-sink vertices are never
    occupied in the model).
``('E', e, r)``
    the particle sits at interior slot ``r`` of edge ``e``, slots counted
    0, 1, ... from the iota end; only on edges with no sink endpoint, and
    the slots of the static occupants of an edge are exactly ``0..m-1``.
``('ME', e, end)``
    a cube direction: the particle transitions between the vertex at the
    given end of ``e`` (``end``: 0 = iota, 1 = tau) and the outermost
    interior slot at that end; only on edges with no sink endpoint, and
    the end vertex must be non-sink of valence >= 2.
``('MF', e)``
    a cube direction: the particle traverses all of ``e`` between its two
    endpoint vertices; only on edges with at least one sink endpoint, and
    a non-sink endpoint must have valence >= 2.

A cell is a tuple of ``(particle, state)`` pairs sorted by particle id.
Cells may be partial (defined on a subset of particles); the cells of a
:class:`CubeComplex` with ``n`` particles carry all of ``0..n-1``.  The
dimension of a cell is its number of move states.  The fast paths rely
on two facts: a face replaces states but never particle ids, so it keeps
pid order and is built in place without re-sorting; and the cells of one
enumeration share each distinct ``(pid, state)`` pair object.

Independence of the moves within one cell:

* each non-sink vertex is claimed by at most one particle, where static
  occupancy, an ``ME`` at an end of that vertex, and an ``MF`` with that
  non-sink endpoint all claim it (one corner of the cube puts the moving
  particle on the vertex);
* each edge carries at most one ``MF`` (two full traversals of one edge
  would collide in the interior);
* two ``ME`` moves may share an edge only at opposite ends of a non-loop
  edge, which the vertex rule already enforces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import dimension_bound

DEFAULT_MAX_CELLS = 5_000_000


class CapExceededError(RuntimeError):
    """An enumeration or matrix assembly went past its configured cap."""


class InvariantError(RuntimeError):
    """A mathematical invariant that a construction guarantees failed to
    hold: a defect in the library, never a bad request, so it is not a
    ``ValueError`` that callers skipping unrealizable candidates catch."""


# -- single states ------------------------------------------------------------

def is_move_state(state):
    return state[0] in ("ME", "MF")


def state_is_valid(g, state):
    """Side conditions for one particle state on graph ``g``."""
    kind = state[0]
    if kind == "V":
        v = state[1]
        if not 0 <= v < g.num_vertices:
            return False
        return g.is_sink(v) or g.valence(v) >= 2
    if kind == "E":
        e, r = state[1], state[2]
        return (0 <= e < g.num_edges and r >= 0
                and g.sink_endpoints(e) == 0)
    if kind == "ME":
        e, end = state[1], state[2]
        if not (0 <= e < g.num_edges and end in (0, 1)):
            return False
        if g.sink_endpoints(e) != 0:
            return False
        v = g.edges[e][end]
        return not g.is_sink(v) and g.valence(v) >= 2
    if kind == "MF":
        e = state[1]
        if not 0 <= e < g.num_edges:
            return False
        if g.sink_endpoints(e) == 0:
            return False
        return all(g.is_sink(v) or g.valence(v) >= 2 for v in g.edges[e])
    return False


def _claimed_vertices(g, state):
    """Non-sink vertices this state claims exclusively."""
    kind = state[0]
    if kind == "V":
        v = state[1]
        if not g.is_sink(v):
            yield v
    elif kind == "ME":
        yield g.edges[state[1]][state[2]]
    elif kind == "MF":
        for v in g.edges[state[1]]:
            if not g.is_sink(v):
                yield v


# -- cells --------------------------------------------------------------------

def make_cell(pairs):
    cell = tuple(sorted(pairs))
    pids = [p for p, _ in cell]
    if len(set(pids)) != len(pids):
        raise ValueError("duplicate particle in cell")
    return cell


def cell_dimension(cell):
    return sum(1 for _, s in cell if is_move_state(s))


def cell_movers(cell):
    """(particle, state) pairs of the move states, by particle id."""
    return [(p, s) for p, s in cell if is_move_state(s)]


def cell_is_valid(g, cell):
    """Whether all cell invariants hold; accepts partial cells."""
    pids = [p for p, _ in cell]
    if len(set(pids)) != len(pids) or list(pids) != sorted(pids):
        return False
    claimed = set()
    mf_edges = set()
    slots = {}
    for _, state in cell:
        if not state_is_valid(g, state):
            return False
        if state[0] == "E":
            slots.setdefault(state[1], []).append(state[2])
        if state[0] == "MF":
            if state[1] in mf_edges:
                return False
            mf_edges.add(state[1])
        for v in _claimed_vertices(g, state):
            if v in claimed:
                return False
            claimed.add(v)
    for ranks in slots.values():
        ranks.sort()
        if ranks != list(range(len(ranks))):
            return False
    return True


def relabel_cell(cell, perm):
    """Rename particles by ``perm`` (old id -> new id)."""
    return make_cell((perm[p], s) for p, s in cell)


def _move_positions(cell):
    """Positions in ``cell`` of its move states, by particle id."""
    return [i for i, (_, s) in enumerate(cell) if s[0] in ("ME", "MF")]


def _face_at(g, cell, i, side):
    """The ``side`` face of the move at position ``i``; only that pair
    changes (and, for an ``ME`` side 0, the slots on its edge)."""
    pid, state = cell[i]
    if state[0] == "MF":
        new = (pid, ("V", g.edges[state[1]][1 if side else 0]))
    elif side == 1:
        new = (pid, ("V", g.edges[state[1]][state[2]]))
    elif state[2] == 0:
        # entering at the iota end takes slot 0 and pushes the others up
        e = state[1]
        cell = tuple((p, ("E", e, s[2] + 1)) if s[0] == "E" and s[1] == e
                     else (p, s) for p, s in cell)
        new = (pid, ("E", e, 0))
    else:
        e = state[1]
        new = (pid, ("E", e, sum(1 for _, s in cell
                                 if s[0] == "E" and s[1] == e)))
    return cell[:i] + (new,) + cell[i + 1:]


def face(g, cell, slot, side):
    """Replace the ``slot``-th move (movers ordered by particle id) by its
    ``side`` endpoint; ``side`` 1 is the vertex end of an ``ME`` and the tau
    vertex of an ``MF``."""
    positions = _move_positions(cell)
    if not 0 <= slot < len(positions):
        raise IndexError(f"cell has {len(positions)} move slots, asked for {slot}")
    return _face_at(g, cell, positions[slot], side)


def corner_configurations(g, cell):
    """All ``2**dim`` corners of the cube, as 0-cells.

    Together with the one-full-traversal-per-edge rule this is an oracle
    for validity: a well-formed candidate is a valid cell iff every corner
    is a valid 0-cell and no edge carries two ``MF`` states.
    """
    corners = [cell]
    while cell_dimension(corners[0]) > 0:
        corners = [face(g, c, 0, side) for c in corners for side in (0, 1)]
    return corners


def boundary_of_cell(g, cell):
    """Cubical boundary: alternating sum over move slots (ordered by moving
    particle id) of the side-1 face minus the side-0 face."""
    terms = {}
    sign = 1
    for i in _move_positions(cell):
        for f, s in ((_face_at(g, cell, i, 1), sign),
                     (_face_at(g, cell, i, 0), -sign)):
            c = terms.get(f, 0) + s
            if c:
                terms[f] = c
            else:
                terms.pop(f, None)
        sign = -sign
    return terms


# -- chains ---------------------------------------------------------------

class Chain:
    """Finitely supported integer combination of cells of one dimension."""

    __slots__ = ("graph", "degree", "terms")

    def __init__(self, graph, degree, terms=()):
        self.graph = graph
        self.degree = degree
        data = {}
        for cell, coef in (terms.items() if isinstance(terms, dict) else terms):
            if coef:
                data[cell] = data.get(cell, 0) + coef
                if not data[cell]:
                    del data[cell]
        for cell in data:
            if cell_dimension(cell) != degree:
                raise ValueError("cell dimension does not match chain degree")
        self.terms = data

    def support(self):
        return set(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, Chain) and self.degree == other.degree
                and self.graph == other.graph and self.terms == other.terms)

    def __add__(self, other):
        if self.graph != other.graph:
            raise ValueError("cannot add chains on different graphs")
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.degree != other.degree:
            raise ValueError("cannot add chains of different degree")
        terms = dict(self.terms)
        for cell, coef in other.terms.items():
            c = terms.get(cell, 0) + coef
            if c:
                terms[cell] = c
            else:
                terms.pop(cell, None)
        return Chain(self.graph, self.degree, terms)

    def __neg__(self):
        return Chain(self.graph, self.degree,
                     {c: -v for c, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, k):
        return Chain(self.graph, self.degree,
                     {c: k * v for c, v in self.terms.items()})

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return f"Chain(degree={self.degree}, support={len(self.terms)})"


def boundary_chain(z):
    """The boundary of a chain, computed cell by cell."""
    terms = {}
    for cell, coef in z.terms.items():
        for f, s in boundary_of_cell(z.graph, cell).items():
            c = terms.get(f, 0) + coef * s
            if c:
                terms[f] = c
            else:
                terms.pop(f, None)
    return Chain(z.graph, max(z.degree - 1, 0), terms)


def relabel_chain(z, perm):
    """Rename particles in every cell.

    A cell's orientation is fixed by listing its move slots in particle
    order, so renaming multiplies each coefficient by the parity of the
    induced permutation of the cell's movers; with this sign the renaming
    commutes with the boundary.
    """
    terms = {}
    for cell, coef in z.terms.items():
        movers = [p for p, s in cell if is_move_state(s)]
        images = [perm[p] for p in movers]
        sign = 1
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                if images[i] > images[j]:
                    sign = -sign
        terms[relabel_cell(cell, perm)] = sign * coef
    return Chain(z.graph, z.degree, terms)


# -- the complex ------------------------------------------------------------

@dataclass(frozen=True)
class SparseEntries:
    """Coordinate-format matrix data shared with the homology engine."""

    num_rows: int
    num_cols: int
    entries: tuple


class CubeComplex:
    """All valid cells of the model for ``n`` particles on one graph,
    deterministically indexed per dimension."""

    __slots__ = ("graph", "n", "cells", "index", "_matrices")

    def __init__(self, graph, n, cells):
        self.graph = graph
        self.n = n
        self.cells = cells
        self.index = {}
        for dim, group in enumerate(cells):
            for i, cell in enumerate(group):
                self.index[cell] = (dim, i)
        self._matrices = {}

    @property
    def max_dim(self):
        return len(self.cells) - 1

    def cell_counts(self):
        return tuple(len(group) for group in self.cells)

    def boundary_entries(self, k):
        """Boundary operator from ``k``-cells to ``(k-1)``-cells in
        coordinate form (row = target cell index, column = source)."""
        if k in self._matrices:
            return self._matrices[k]
        if not 1 <= k <= self.max_dim:
            rows = len(self.cells[k - 1]) if 0 <= k - 1 <= self.max_dim else 0
            cols = len(self.cells[k]) if 0 <= k <= self.max_dim else 0
            result = SparseEntries(rows, cols, ())
        else:
            entries = []
            append, index = entries.append, self.index
            for j, cell in enumerate(self.cells[k]):
                for f, s in boundary_of_cell(self.graph, cell).items():
                    append((index[f][1], j, s))
            entries.sort()
            result = SparseEntries(len(self.cells[k - 1]), len(self.cells[k]),
                                   tuple(entries))
        self._matrices[k] = result
        return result

    def relabeled(self, perm):
        """The same complex with particles renamed; cell sets per dimension
        are identical as sets, so this reindexes rather than re-enumerates."""
        cells = [sorted(relabel_cell(c, perm) for c in group)
                 for group in self.cells]
        return CubeComplex(self.graph, self.n, cells)


def enumerate_cells(g, n, max_cells=DEFAULT_MAX_CELLS):
    """Enumerate every valid cell of ``n`` particles on ``g``.

    Particles are assigned states one at a time with the exclusivity
    constraints tracked incrementally; interior occupants of each edge are
    then expanded into all orderings.  Within each dimension cells are
    sorted, so two runs produce identical orderings.
    """
    if n < 0:
        raise ValueError("particle count must be nonnegative")
    bound = dimension_bound(g, n)
    cells = [[] for _ in range(bound + 1)]
    total = 0

    vertex_menu = [("V", v) for v in range(g.num_vertices)
                   if g.is_sink(v) or g.valence(v) >= 2]
    interior_menu = [e for e in range(g.num_edges) if g.sink_endpoints(e) == 0]
    move_menu = []
    for e in range(g.num_edges):
        if g.sink_endpoints(e) == 0:
            for end in (0, 1):
                v = g.edges[e][end]
                if not g.is_sink(v) and g.valence(v) >= 2:
                    move_menu.append((("ME", e, end), (v,), None))
        else:
            if all(g.is_sink(v) or g.valence(v) >= 2 for v in g.edges[e]):
                claims = tuple(v for v in set(g.edges[e]) if not g.is_sink(v))
                move_menu.append((("MF", e), claims, e))

    # one shared (pid, state) object per distinct pair, for every cell
    fixed_pairs = [{s: (pid, s) for s in vertex_menu + [m[0] for m in move_menu]}
                   for pid in range(n)]
    slot_pairs = [[[(pid, ("E", e, r)) for r in range(n)]
                   for e in range(g.num_edges)] for pid in range(n)]
    claimed = set()
    mf_used = set()
    placement = []  # per particle: ('V', v) | ('I', e) | move state

    def emit():
        nonlocal total
        by_edge = {}
        pairs = [None] * n
        dim = 0
        for pid, item in enumerate(placement):
            if item[0] == "I":
                by_edge.setdefault(item[1], []).append(pid)
            else:
                pairs[pid] = fixed_pairs[pid][item]
                if is_move_state(item):
                    dim += 1
        edge_groups = list(by_edge.items())
        orderings = [itertools.permutations(group) for _, group in edge_groups]
        for combo in itertools.product(*orderings):
            for (e, _), order in zip(edge_groups, combo):
                for r, pid in enumerate(order):
                    pairs[pid] = slot_pairs[pid][e][r]
            total += 1
            if total > max_cells:
                raise CapExceededError(
                    f"more than {max_cells} cells; instance beyond desk scale")
            cells[dim].append(tuple(pairs))

    def assign(pid):
        if pid == n:
            emit()
            return
        for state in vertex_menu:
            v = state[1]
            if g.is_sink(v):
                placement.append(state)
                assign(pid + 1)
                placement.pop()
            elif v not in claimed:
                claimed.add(v)
                placement.append(state)
                assign(pid + 1)
                placement.pop()
                claimed.remove(v)
        for e in interior_menu:
            placement.append(("I", e))
            assign(pid + 1)
            placement.pop()
        for state, claims, mf_edge in move_menu:
            if any(v in claimed for v in claims):
                continue
            if mf_edge is not None and mf_edge in mf_used:
                continue
            claimed.update(claims)
            if mf_edge is not None:
                mf_used.add(mf_edge)
            placement.append(state)
            assign(pid + 1)
            placement.pop()
            if mf_edge is not None:
                mf_used.remove(mf_edge)
            claimed.difference_update(claims)

    assign(0)
    for group in cells:
        group.sort()
    return CubeComplex(g, n, cells)


# -- text export ---------------------------------------------------------

def state_record(state):
    """Stable text form of one state: ``V v``, ``E e r``, ``ME e end``,
    ``MF e``."""
    return " ".join(str(x) for x in state)


class _Records(dict):
    """``[pid, state_record]`` per distinct pair, built on first use."""

    def __missing__(self, pair):
        record = self[pair] = [pair[0], state_record(pair[1])]
        return record


def complex_to_doc(cx):
    records = _Records()
    doc = {
        "particles": cx.n,
        "cells": [[[records[p] for p in c] for c in group]
                  for group in cx.cells],
        "boundaries": {},
    }
    for k in range(1, cx.max_dim + 1):
        m = cx.boundary_entries(k)
        doc["boundaries"][str(k)] = [list(t) for t in m.entries]
    return doc
