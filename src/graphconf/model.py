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
dimension of a cell is its number of move states.  A face replaces
states but never particle ids, so it keeps pid order and is built in
place without re-sorting.

Pair tuples are the public form of a cell: chains, ``cx.cells``,
``cx.index`` and the export all speak it.  Inside a complex each cell is
one packed int.  A codebook per ``(graph, n)`` lists every state a
particle can take in sorted order, and a state's code is its rank, so
the key ``sum(code(state of p) << b*(n-1-p))`` orders like the pair
tuple: cell indices, matrices and export bytes do not depend on the
packing.  The slots ``('E', e, 0..n-1)`` of one edge get consecutive
codes, so every face of a key is a table lookup plus integer arithmetic.

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
from bisect import bisect_left
from collections.abc import Mapping
from operator import itemgetter

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
    """Finitely supported integer combination of cells of one dimension,
    given as a mapping of cells to coefficients (zeros are dropped)."""

    __slots__ = ("graph", "degree", "terms")

    def __init__(self, graph, degree, terms=None):
        self.graph = graph
        self.degree = degree
        self.terms = {cell: coef for cell, coef in (terms or {}).items() if coef}
        if any(cell_dimension(cell) != degree for cell in self.terms):
            raise ValueError("cell dimension does not match chain degree")

    @classmethod
    def _merged(cls, graph, degree, terms):
        """The chain of ``terms`` itself, not a checked copy: for callers
        whose terms are merged by construction, every coefficient nonzero
        and every cell of dimension ``degree``."""
        z = cls.__new__(cls)
        z.graph, z.degree, z.terms = graph, degree, terms
        return z

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
        return Chain._merged(self.graph, self.degree, terms)

    def __neg__(self):
        return Chain._merged(self.graph, self.degree,
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

class SparseIntMatrix:
    """Sparse integer matrix, one form from boundary assembly to
    elimination: ``entries`` holds the nonzero ``(row, col, value)``
    triples in (row, column) order, the order the export writes.

    The constructor requires a shape of non-negative ints and entries of
    ints (a float or a bool is never truncated into one), range-checks
    every entry, zeros included, rejects a repeated ``(row, col)`` and
    sorts.  :meth:`CubeComplex.boundary_entries` alone skips it: its
    entries are valid and sorted by construction, and it wraps them
    without a copy.

    A matrix is immutable after construction: nothing assigns to it
    after ``__init__`` or ``boundary_entries``.  That is what lets
    :mod:`graphconf.homology` keep the record of its Smith elimination in
    the private slot ``_elimination`` (``None`` until the first Smith form,
    rank or solve) and answer every later call from it.
    """

    __slots__ = ("num_rows", "num_cols", "entries", "_elimination")

    def __init__(self, num_rows, num_cols, entries=()):
        for n in (num_rows, num_cols):
            if type(n) is not int or n < 0:
                raise ValueError(f"matrix shape must be non-negative"
                                 f" integers, got {n!r}")
        entries = list(entries)
        for r, c, v in entries:
            if type(r) is not int or type(c) is not int or type(v) is not int:
                raise ValueError(f"entry ({r!r},{c!r},{v!r}) is not three"
                                 f" integers")
        kept = []
        last_r = last_c = None
        for r, c, v in sorted(entries):
            if not (0 <= r < num_rows and 0 <= c < num_cols):
                raise ValueError(f"entry ({r},{c}) out of range")
            if c == last_c and r == last_r:
                raise ValueError(f"duplicate entry at ({r},{c})")
            last_r, last_c = r, c
            if v:
                kept.append((r, c, v))
        self.num_rows, self.num_cols, self.entries = num_rows, num_cols, tuple(kept)
        self._elimination = None

    @property
    def nnz(self):
        return len(self.entries)

    def rows(self):
        """Mutable dict-of-rows copy for elimination; the entries of one
        row are one run of ``entries``."""
        rows = {}
        last = None
        for r, c, v in self.entries:
            if r != last:
                row = rows[r] = {}
                last = r
            row[c] = v
        return rows

    def __eq__(self, other):
        return (isinstance(other, SparseIntMatrix)
                and (self.num_rows, self.num_cols, self.entries)
                == (other.num_rows, other.num_cols, other.entries))

    def __repr__(self):
        return f"SparseIntMatrix({self.num_rows}x{self.num_cols}, nnz={self.nnz})"


# the kinds of move in a face table
_FULL, _LOOP, _PUSH, _APPEND = range(4)


class _Codebook:
    """Order-preserving int codes for the states of ``n`` particles on one
    graph, and the tables that pack, unpack and take faces of cell keys.

    ``states`` lists, in sorted order, every state that passes
    :func:`state_is_valid`, with the slots ``('E', e, r)`` for ``r < n``.
    ``slots[p]`` maps each pair ``(p, state)`` to its code shifted into
    particle ``p``'s place and then ``dim_bits`` further, plus 1 for a
    move, so the sum over a cell's pairs is ``key << dim_bits | dim``.
    ``faces[p][c]`` is ``None`` for a resting state; for a move it is
    ``(kind, up, down, lo)``: adding ``up`` or ``down`` to a key replaces
    particle ``p``'s move ``c`` by its side-1 or side-0 state, and ``lo``
    is the code of slot 0 of an ``ME``'s edge.  ``_FULL`` is an ``MF``,
    ``_LOOP`` an ``MF`` on a loop at a sink (its two faces cancel),
    ``_PUSH`` an ``ME`` at end 0 (into slot 0, pushing the occupants up)
    and ``_APPEND`` an ``ME`` at end 1 (into the slot after the
    occupants); the occupants of that edge hold the codes ``lo``,
    ``lo + 1``, ... in slot order.
    """

    __slots__ = ("graph", "n", "states", "mask", "shifts", "pairs",
                 "dim_bits", "slots", "faces")

    def __init__(self, g, n):
        states = [("V", v) for v in range(g.num_vertices)]
        for e in range(g.num_edges):
            states += [("E", e, r) for r in range(n)]
            states += [("ME", e, 0), ("ME", e, 1), ("MF", e)]
        states = sorted(s for s in states if state_is_valid(g, s))
        code = {s: c for c, s in enumerate(states)}
        width = max(1, (len(states) - 1).bit_length())
        self.graph, self.n, self.states = g, n, states
        self.mask = (1 << width) - 1
        self.shifts = shifts = [width * (n - 1 - p) for p in range(n)]
        # one shared (pid, state) pair per code, for every decoded cell
        self.pairs = [[(p, s) for s in states] for p in range(n)]
        self.dim_bits = bits = n.bit_length()
        self.slots = [{(p, s): (c << shifts[p] << bits) + is_move_state(s)
                       for c, s in enumerate(states)} for p in range(n)]
        self.faces = faces = [[None] * len(states) for _ in shifts]
        # with no particles there are no slots and no faces to take
        for c, s in enumerate(states if n else ()):
            if s[0] == "MF":
                down, up = (code[("V", v)] for v in g.edges[s[1]])
                kind, lo = _LOOP if up == down else _FULL, None
            elif s[0] == "ME":
                kind = _APPEND if s[2] else _PUSH
                up, lo = code[("V", g.edges[s[1]][s[2]])], code[("E", s[1], 0)]
                down = lo
            else:
                continue
            for table, shift in zip(faces, shifts):
                table[c] = (kind, (up - c) << shift, (down - c) << shift, lo)

    def encode(self, cell):
        """``(dim, key)`` of a complete pair-tuple cell; ``KeyError`` for
        anything that is not one."""
        slots = self.slots
        try:
            if len(cell) != self.n:
                raise KeyError(cell)
            # the table of place p holds only pairs of pid p
            packed = sum(map(dict.__getitem__, slots, cell))
        except TypeError:
            raise KeyError(cell) from None
        bits = self.dim_bits
        return packed & ((1 << bits) - 1), packed >> bits

    def decode(self, groups, table, make):
        """Cells of ``groups`` of keys, each ``make([table[p][code of p]
        for every particle p])``."""
        mask = self.mask
        cols = list(zip(table, self.shifts))
        return [[make([t[(key >> s) & mask] for t, s in cols]) for key in group]
                for group in groups]

    def boundary(self, cols, rows):
        """Sorted ``(row, col, sign)`` entries of the boundary from the keys
        ``cols`` to the sorted keys ``rows``; the same terms as
        :func:`boundary_of_cell` on the decoded cells."""
        mask, shifts, faces = self.mask, self.shifts, self.faces
        units = [1 << s for s in shifts]
        row = dict(zip(rows, range(len(rows))))
        entries = []
        append = entries.append
        for j, key in enumerate(cols):
            codes = [(key >> s) & mask for s in shifts]
            sign = 1
            try:
                for table, unit, c in zip(faces, units, codes):
                    move = table[c]
                    if move is None:
                        continue
                    kind, up, down, lo = move
                    if kind == _PUSH:
                        # the occupants hold slots lo, lo + 1, ...
                        d = lo
                        while d in codes:
                            down += units[codes.index(d)]
                            d += 1
                    elif kind == _APPEND:
                        d = lo
                        while d in codes:
                            d += 1
                        down += unit * (d - lo)
                    elif kind == _LOOP:
                        sign = -sign
                        continue
                    append((row[key + up], j, sign))
                    append((row[key + down], j, -sign))
                    sign = -sign
            except KeyError:
                cell = self.decode([[key]], self.pairs, tuple)[0][0]
                raise InvariantError(
                    f"a face of {cell} is not a cell of the complex") from None
        # columns were appended in order, one entry per (row, column), so a
        # stable sort by row is the (row, column) order
        entries.sort(key=itemgetter(0))
        return tuple(entries)


class _CellIndex(Mapping):
    """Read-only ``cell -> (dim, i)`` over the pair-tuple cells of a
    complex, found by encoding the cell and bisecting its dimension."""

    __slots__ = ("_cx",)

    def __init__(self, cx):
        self._cx = cx

    def __getitem__(self, cell):
        dim, key = self._cx._book.encode(cell)
        keys = self._cx._keys
        group = keys[dim] if dim < len(keys) else ()
        i = bisect_left(group, key)
        if i == len(group) or group[i] != key:
            raise KeyError(cell)
        return dim, i

    def __iter__(self):
        for group in self._cx.cells:
            yield from group

    def __len__(self):
        return sum(self._cx.cell_counts())


class CubeComplex:
    """All valid cells of the model for ``n`` particles on one graph,
    deterministically indexed per dimension: ``keys[dim]`` holds the sorted
    packed keys of one codebook.  ``cells`` (pair tuples, decoded on first
    use) and ``index`` are the public views; ``_matrices`` holds the
    operators of ``graphconf.homology._operator``, by degree."""

    __slots__ = ("graph", "n", "index", "_book", "_keys", "_cells",
                 "_matrices")

    def __init__(self, book, keys):
        self.graph = book.graph
        self.n = book.n
        self.index = _CellIndex(self)
        self._book = book
        self._keys = keys
        self._cells = None
        self._matrices = {}

    @property
    def cells(self):
        if self._cells is None:
            self._cells = self._book.decode(self._keys, self._book.pairs, tuple)
        return self._cells

    @property
    def max_dim(self):
        return len(self._keys) - 1

    def cell_counts(self):
        return tuple(len(group) for group in self._keys)

    def boundary_entries(self, k, cleared=()):
        """Boundary operator from ``k``-cells to ``(k-1)``-cells (row =
        target cell index, column = source), assembled on every call; the
        ``k``-cells indexed by ``cleared`` are left out, the others kept in
        order.  Outside ``1..max_dim`` it is the zero matrix of its shape."""
        rows = len(self._keys[k - 1]) if 1 <= k <= self.max_dim + 1 else 0
        cells = len(self._keys[k]) if 0 <= k <= self.max_dim else 0
        kept = [i for i in range(cells) if i not in cleared]
        # valid and sorted by construction: wrapped without a checked copy
        m = SparseIntMatrix.__new__(SparseIntMatrix)
        m.num_rows, m.num_cols = rows, len(kept)
        m.entries = tuple(self.boundary_columns(k, kept))
        m._elimination = None
        return m

    def boundary_columns(self, k, cells):
        """``(row, j, sign)`` entries of the boundary of the ``k``-cells
        indexed by ``cells``, ``j`` their position there, in (row, j)
        order, none outside ``1..max_dim``: the one assembly path, for
        :meth:`boundary_entries` and for the few cells of a span."""
        if not 1 <= k <= self.max_dim:
            return ()
        keys = self._keys[k]
        return self._book.boundary([keys[i] for i in cells], self._keys[k - 1])

    def relabeled(self, perm):
        """The same complex with particles renamed by ``perm`` (old id ->
        new id, a dict or a list), which must map ``range(n)`` onto itself;
        cell sets per dimension are identical as sets, so this reindexes
        rather than re-enumerates."""
        try:
            images = {perm[p] for p in range(self.n)}
        except LookupError:
            images = None
        if images != set(range(self.n)):
            raise ValueError(f"{perm!r} is not a permutation of the"
                             f" {self.n} particles")
        book = self._book
        moved = [(s, book.shifts[perm[p]]) for p, s in enumerate(book.shifts)]
        keys = [sorted(sum(((key >> s) & book.mask) << t for s, t in moved)
                       for key in group) for group in self._keys]
        return CubeComplex(book, keys)


def enumerate_cells(g, n, max_cells=DEFAULT_MAX_CELLS):
    """Enumerate every valid cell of ``n`` particles on ``g``.

    Particles are assigned states one at a time with the exclusivity
    constraints tracked incrementally, carrying the partial key; interior
    occupants of each edge are then expanded into all orderings.  Within
    each dimension keys are sorted, so two runs produce identical
    orderings.
    """
    if n < 0:
        raise ValueError("particle count must be nonnegative")
    bound = dimension_bound(g, n)
    cells = [[] for _ in range(bound + 1)]
    total = 0

    book = _Codebook(g, n)
    shifts = book.shifts
    states = list(enumerate(book.states))
    vertex_items = [(c, s[1], g.is_sink(s[1])) for c, s in states if s[0] == "V"]
    # a particle on an edge interior is packed at slot 0 until emit
    interior_items = [(c, []) for c, s in states if s[0] == "E" and s[2] == 0]
    move_items = [(c, tuple(_claimed_vertices(g, s)),
                   s[1] if s[0] == "MF" else None)
                  for c, s in states if is_move_state(s)]
    claimed = set()
    mf_used = set()
    # key offsets of every slot order of the particles on one edge
    slot_orders = {}

    def emit(key, dim, crowded):
        nonlocal total
        if crowded:
            offsets = [key]
            for _, group in interior_items:
                if len(group) > 1:
                    group = tuple(group)
                    orders = slot_orders.get(group)
                    if orders is None:
                        # slot r of an edge's occupant list adds r to its code
                        orders = slot_orders[group] = [
                            sum(r << shifts[p] for r, p in enumerate(order))
                            for order in itertools.permutations(group)]
                    offsets = [o + q for o in offsets for q in orders]
            cells[dim].extend(offsets)
            total += len(offsets)
        else:
            cells[dim].append(key)
            total += 1
        if total > max_cells:
            raise CapExceededError(
                f"more than {max_cells} cells; instance beyond desk scale")

    def assign(pid, key, dim, crowded):
        if pid == n:
            emit(key, dim, crowded)
            return
        shift = shifts[pid]
        for c, v, sink in vertex_items:
            if sink:
                assign(pid + 1, key + (c << shift), dim, crowded)
            elif v not in claimed:
                claimed.add(v)
                assign(pid + 1, key + (c << shift), dim, crowded)
                claimed.remove(v)
        for c, group in interior_items:
            group.append(pid)
            assign(pid + 1, key + (c << shift), dim, crowded or len(group) > 1)
            group.pop()
        for c, claims, mf_edge in move_items:
            if any(v in claimed for v in claims):
                continue
            if mf_edge is not None and mf_edge in mf_used:
                continue
            claimed.update(claims)
            if mf_edge is not None:
                mf_used.add(mf_edge)
            assign(pid + 1, key + (c << shift), dim + 1, crowded)
            if mf_edge is not None:
                mf_used.remove(mf_edge)
            claimed.difference_update(claims)

    assign(0, 0, 0, False)
    for group in cells:
        group.sort()
    return CubeComplex(book, cells)


# -- text export ---------------------------------------------------------

def state_record(state):
    """Stable text form of one state: ``V v``, ``E e r``, ``ME e end``,
    ``MF e``."""
    return " ".join(str(x) for x in state)


def complex_to_doc(cx):
    book = cx._book
    records = [[[p, state_record(s)] for s in book.states] for p in range(cx.n)]
    doc = {
        "particles": cx.n,
        "cells": book.decode(cx._keys, records, list),
        "boundaries": {},
    }
    for k in range(1, cx.max_dim + 1):
        m = cx.boundary_entries(k)
        doc["boundaries"][str(k)] = [list(t) for t in m.entries]
    return doc
