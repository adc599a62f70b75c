"""Shared independent oracles for the test suite.

These re-derive model facts through deliberately naive code paths (full
cartesian state universes, dense fraction arithmetic, minor expansions)
so that agreement with the library is meaningful.
"""

import itertools
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, prod

import pytest


def reference_cell_valid(g, cell):
    """First-principles transcription of the cell rules, written against
    the raw definitions rather than the library helpers."""
    pids = [p for p, _ in cell]
    if sorted(pids) != list(pids) or len(set(pids)) != len(pids):
        return False
    vertex_load = {}
    edge_ranks = {}
    full_traversals = []
    for _, state in cell:
        kind = state[0]
        if kind == "V":
            v = state[1]
            if not (0 <= v < g.num_vertices):
                return False
            if not g.is_sink(v):
                if g.valence(v) < 2:
                    return False
                vertex_load[v] = vertex_load.get(v, 0) + 1
        elif kind == "E":
            e, r = state[1], state[2]
            if not (0 <= e < g.num_edges):
                return False
            u0, u1 = g.edges[e]
            if g.is_sink(u0) or g.is_sink(u1):
                return False
            edge_ranks.setdefault(e, []).append(r)
        elif kind == "ME":
            e, end = state[1], state[2]
            if not (0 <= e < g.num_edges) or end not in (0, 1):
                return False
            u0, u1 = g.edges[e]
            if g.is_sink(u0) or g.is_sink(u1):
                return False
            target = g.edges[e][end]
            if g.is_sink(target) or g.valence(target) < 2:
                return False
            vertex_load[target] = vertex_load.get(target, 0) + 1
        elif kind == "MF":
            e = state[1]
            if not (0 <= e < g.num_edges):
                return False
            u0, u1 = g.edges[e]
            if not (g.is_sink(u0) or g.is_sink(u1)):
                return False
            for u in (u0, u1):
                if not g.is_sink(u):
                    if g.valence(u) < 2:
                        return False
                    vertex_load[u] = vertex_load.get(u, 0) + 1
            full_traversals.append(e)
        else:
            return False
    if any(load > 1 for load in vertex_load.values()):
        return False
    if len(full_traversals) != len(set(full_traversals)):
        return False
    for ranks in edge_ranks.values():
        if sorted(ranks) != list(range(len(ranks))):
            return False
    return True


def reference_face(g, cell, slot, side):
    """The face map as first written: rebuild the cell from its pairs and
    re-sort it by particle id."""
    from graphconf.model import is_move_state, make_cell
    movers = [(p, s) for p, s in cell if is_move_state(s)]
    if not 0 <= slot < len(movers):
        raise IndexError(f"cell has {len(movers)} move slots, asked for {slot}")
    pid, state = movers[slot]
    rest = [(p, s) for p, s in cell if p != pid]
    if state[0] == "MF":
        v = g.edges[state[1]][1 if side else 0]
        rest.append((pid, ("V", v)))
        return make_cell(rest)
    e, end = state[1], state[2]
    if side == 1:
        rest.append((pid, ("V", g.edges[e][end])))
        return make_cell(rest)
    count = sum(1 for _, s in rest if s[0] == "E" and s[1] == e)
    if end == 0:
        rest = [(p, ("E", e, s[2] + 1)) if s[0] == "E" and s[1] == e else (p, s)
                for p, s in rest]
        rest.append((pid, ("E", e, 0)))
    else:
        rest.append((pid, ("E", e, count)))
    return make_cell(rest)


def reference_walk_move(walk, pid, move_state):
    """One walk step as first written: rebuild the moved cell from its
    pairs, re-sort it, validate the whole cell, and take the faces of its
    one move slot."""
    from graphconf.cycles import CycleConstructionError
    from graphconf.model import cell_is_valid, face, make_cell
    g = walk.graph
    rest = []
    old = None
    for p, s in walk.config:
        if p == pid:
            old = s
        else:
            rest.append((p, s))
    if old is None:
        raise CycleConstructionError(f"particle {pid} has no static state")
    if old[0] == "E":
        e, r = old[1], old[2]
        rest = [(p, ("E", s[1], s[2] - 1))
                if s[0] == "E" and s[1] == e and s[2] > r else (p, s)
                for p, s in rest]
    cell = make_cell(rest + [(pid, move_state)])
    if not cell_is_valid(g, cell):
        raise CycleConstructionError("itinerary blocked")
    f0 = face(g, cell, 0, 0)
    f1 = face(g, cell, 0, 1)
    if f0 == walk.config:
        coef, nxt = 1, f1
    elif f1 == walk.config:
        coef, nxt = -1, f0
    else:
        raise CycleConstructionError(
            "elementary move does not start at the current configuration")
    c = walk.terms.get(cell, 0) + coef
    if c:
        walk.terms[cell] = c
    else:
        walk.terms.pop(cell, None)
    walk.config = nxt


def reference_push_in(z, e, s, leaf_end):
    """Push-in as first written: a cell-by-cell insertion rule of its own
    beside the parking rule (the leaf end is given, not inferred)."""
    from graphconf.model import Chain, make_cell
    g = z.graph
    leaf = g.edges[e][leaf_end]

    def insert(cell):
        if g.is_sink(leaf):
            return make_cell(cell + ((s, ("V", leaf)),))
        if g.sink_endpoints(e):
            inner = g.edges[e][1 - leaf_end]
            return make_cell(cell + ((s, ("V", inner)),))
        if leaf_end == 0:
            shifted = tuple(
                (p, ("E", e, st[2] + 1)) if st[0] == "E" and st[1] == e else (p, st)
                for p, st in cell)
            return make_cell(shifted + ((s, ("E", e, 0)),))
        count = sum(1 for _, st in cell if st[0] == "E" and st[1] == e)
        return make_cell(cell + ((s, ("E", e, count)),))

    return Chain(g, z.degree, {insert(c): v for c, v in z.terms.items()})


def reference_attach_parked(z, g, parking):
    """The parking merge as first written: every merged cell is sorted by
    ``make_cell`` and checked by ``cell_is_valid`` on its own."""
    from graphconf.cycles import CycleConstructionError
    from graphconf.graphs import edge_of_end, end_side
    from graphconf.model import Chain, cell_is_valid, make_cell
    if not parking:
        return z
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
    terms = {}
    for cell, coef in z.terms.items():
        pairs = list(cell) + fixed
        for e, (side, slots) in deep.items():
            group = [pid for _, pid in sorted(slots)]
            if side == 0:
                j = sum(1 for _, s in cell if s[0] == "E" and s[1] == e)
                pairs.extend((pid, ("E", e, j + k)) for k, pid in enumerate(group))
            else:
                p = len(group)
                pairs = [(q, ("E", e, s[2] + p))
                         if s[0] == "E" and s[1] == e else (q, s)
                         for q, s in pairs]
                pairs.extend((pid, ("E", e, k)) for k, pid in enumerate(group))
        merged = make_cell(pairs)
        if not cell_is_valid(g, merged):
            raise CycleConstructionError("parking conflicts with the cycle")
        terms[merged] = coef
    return Chain(g, z.degree, terms)


def reference_parked_walk(g, rests, moves, parking=None):
    """An itinerary walked with its parked particles in place from the
    start, each step validating its whole cell (:func:`reference_walk_move`):
    parked cycles as the constructors first built them, before every
    parking went through ``_Walk.parked``.  Returns the walk, closed or
    not; a parking that names an active particle, or a start that is not
    a valid configuration, is refused."""
    from graphconf.cycles import (CycleConstructionError, _Walk,
                                  normalize_parking)
    parking = normalize_parking(g, parking)
    if parking.keys() & rests.keys():
        raise CycleConstructionError("active particle is also parked")
    walk = _Walk(g, {**rests, **parking})
    for pid, move_state in moves:
        reference_walk_move(walk, pid, move_state)
    return walk


def reference_h_cycle_chain(g, spec, pair, parking=None):
    """The crossing cycle as first written: one walk per crossing order,
    each with the parked particles in place, the two walks must meet, and
    their difference is checked to be a cycle on its own."""
    from graphconf.cycles import CycleConstructionError, _check_h_spec, _station
    from graphconf.graphs import edge_of_end, end_side, other_end
    from graphconf.model import Chain, InvariantError, boundary_chain
    _check_h_spec(g, spec)
    x, y = pair
    if x == y:
        raise CycleConstructionError("h cycle needs two distinct particles")

    if g.is_sink(spec.v):
        rests = {x: ("V", spec.v), y: ("V", spec.v)}
        sides = {}
    else:
        rests = {x: ("end", spec.v_sides[0]), y: ("end", spec.v_sides[1])}
        sides = {x: spec.v_sides[0], y: spec.v_sides[1]}
    targets = {x: spec.w_sides[0], y: spec.w_sides[1]} if spec.w_sides else {}

    def go_through_end(pid, end):
        kind, e, data = _station(g, end)
        return [(pid, ("ME", e, data) if kind == "slot" else ("MF", e))]

    def traverse_edge(pid, end):
        e = edge_of_end(end)
        if g.sink_endpoints(e) == 0:
            return [(pid, ("ME", e, end_side(end))),
                    (pid, ("ME", e, end_side(other_end(end))))]
        return [(pid, ("MF", e))]

    def crossing(pid):
        moves = go_through_end(pid, sides[pid]) if sides else []
        for h in spec.path:
            moves += traverse_edge(pid, h)
        if targets:
            moves += go_through_end(pid, targets[pid])
        return moves

    first = reference_parked_walk(g, rests, crossing(x) + crossing(y), parking)
    second = reference_parked_walk(g, rests, crossing(y) + crossing(x), parking)
    if first.config != second.config:
        raise CycleConstructionError("the two crossing orders do not meet")
    z = Chain(g, 1, first.terms) - Chain(g, 1, second.terms)
    if not boundary_chain(z).is_zero():
        raise InvariantError("h cycle is not a cycle")
    if z.is_zero():
        raise CycleConstructionError("h cycle degenerated to zero")
    return z


def reference_circuit_specs(g, max_edges):
    """Circuit search as first written: its own depth-first search, pruned
    to circuits whose least vertex is the start, one spec per edge set."""
    from graphconf.cycles import CircuitSpec
    from graphconf.graphs import edge_of_end, other_end
    specs = [CircuitSpec((2 * e,)) for e in range(g.num_edges) if g.is_loop(e)]
    seen = set()

    def extend(start, at, ends, verts, used):
        if len(ends) >= max_edges:
            return
        for h in sorted(g.ends_at(at)):
            e = edge_of_end(h)
            if g.is_loop(e) or e in used or g.vertex_of_end(h) != at:
                continue
            far = g.vertex_of_end(other_end(h))
            if far == start:
                if ends:
                    key = frozenset(used | {e})
                    if key not in seen:
                        seen.add(key)
                        specs.append(CircuitSpec(ends + (h,)))
                continue
            if far < start or far in verts:
                continue
            extend(start, far, ends + (h,), verts | {far}, used | {e})

    for start in range(g.num_vertices):
        extend(start, start, (), {start}, frozenset())
    return specs


def reference_transpose(m):
    """The transpose of a sparse integer matrix."""
    from graphconf.homology import SparseIntMatrix
    return SparseIntMatrix(
        m.num_cols, m.num_rows,
        [(c, r, v) for r, c, v in m.entries])


def reference_diagonalize(rows, rows_only=False, modulus=0, max_nnz=None,
                          log=None):
    """``homology._diagonalize`` as it was before a unit pivot alone in its
    row cleared its column by deleting entries: every row operation goes
    through ``row_op``.  The library's loop must give the same pivots, the
    same log and the same residual rows."""
    from graphconf.homology import CapExceededError, _divmod_balanced
    cols = {}
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    pivot_of_row = {}
    ops = None if log is None else []
    queue = [(1, len(rs), c) for c, rs in cols.items()]
    heapify(queue)
    nnz = sum(map(len, rows.values())) if max_nnz is not None else 0
    touched = {}  # row: its length before the current pivot, when capped
    # a divisor of every entry left that a scan found: row operations,
    # residues modulo ``modulus`` (a multiple of it) and remainders modulo
    # a pivot (a multiple of it) keep it a divisor
    common = 1

    def next_pivot():
        while True:
            key, n, c = heappop(queue)
            rs = cols.get(c)
            if not rs:
                continue
            if len(rs) != n:
                heappush(queue, (key, len(rs), c))
                continue
            least, _, r = min((abs(rows[r][c]), len(rows[r]), r) for r in rs)
            if least <= key:
                return r, c
            heappush(queue, (least, n, c))

    def row_op(r, r0, q):
        # row_r -= q * row_r0, in residues modulo ``modulus`` when it is set
        row0 = rows[r0]
        row = rows[r]
        for c, v in row0.items():
            nv = row.get(c, 0) - q * v
            if nv:
                if c not in row:
                    cols[c].add(r)
                row[c] = nv
            elif c in row:
                del row[c]
                cols[c].discard(r)
        if modulus:
            for c in row0.keys() & row.keys():
                row[c] = _divmod_balanced(row[c], modulus)[1]
                if not row[c]:
                    del row[c]
                    cols[c].discard(r)
        if not row:
            del rows[r]
        if ops is not None:
            ops.append((r, r0, q))

    while rows:
        r0, c0 = next_pivot()
        if not (rows_only or modulus) and abs(rows[r0][c0]) != 1:
            # units left in columns queued under a larger value go first
            units = {c for row in rows.values() for c, v in row.items()
                     if v == 1 or v == -1}
            if not units:
                break  # ``rows`` holds the residual
            for c in units | {c0}:
                heappush(queue, (1, len(cols[c]), c))
            continue
        while True:
            if max_nnz is not None:
                for r in cols[c0]:
                    touched.setdefault(r, len(rows[r]))
            p = rows[r0][c0]
            piv = abs(p)
            if piv == 1:
                # a unit divides exactly: the quotient is the entry times p
                for r in list(cols[c0]):
                    if r != r0:
                        row_op(r, r0, rows[r][c0] * p)
                break
            for r in list(cols[c0]):
                if r == r0:
                    continue
                q, rem = _divmod_balanced(rows[r][c0], piv)
                if q:
                    row_op(r, r0, q if p > 0 else -q)
                if rem:
                    r0 = r  # strictly smaller value: restart the cascade
                    break
            else:
                if not modulus:
                    break
                for c, v in rows[r0].items():
                    rem = _divmod_balanced(v, piv)[1]
                    if rem:
                        break
                else:
                    # the pivot must divide every entry left, modulo
                    # modulus; a scan is needed only when g does not
                    # divide ``common``, which divides them all
                    g = gcd(piv, modulus)
                    if common % g == 0:
                        break
                    bad = next((r for r, row in rows.items()
                                if any(v % g for v in row.values())), None)
                    if bad is None:
                        common = g
                        break
                    row_op(r0, bad, -1)
                    continue
                # column c0 is clear: this column operation changes row r0
                # and moves the pivot to column c; c0 keeps its entry in row
                # r0, which stays if the cascade moves the pivot off r0
                rows[r0][c] = rem
                heappush(queue, (piv, 1, c0))
                c0 = c
        pivot_of_row[r0] = abs(rows[r0][c0])
        for c in rows.pop(r0):
            cols[c].discard(r0)
            if not cols[c]:
                del cols[c]
        if max_nnz is not None:
            nnz += sum(len(rows.get(r, ())) - n for r, n in touched.items())
            touched.clear()
            if nnz > max_nnz:
                raise CapExceededError(f"elimination fill-in over {max_nnz}")
    if log is not None:
        log.append((ops, dict(pivot_of_row), modulus))
    if rows and not (rows_only or modulus):
        echelon = reference_diagonalize(
            {r: dict(row) for r, row in rows.items()},
            rows_only=True, max_nnz=max_nnz, log=log)
        # a multiple of delta above twice every entry of R, so these are
        # residues already and no invariant factor is zero
        bound = max(abs(v) for row in rows.values() for v in row.values())
        mod = 2 * (bound + 1) * prod(echelon.values())
        found = reference_diagonalize(
            {r: dict(row) for r, row in rows.items()},
            modulus=mod, max_nnz=max_nnz, log=log)
        pivot_of_row.update((r, gcd(v, mod)) for r, v in found.items())
    return pivot_of_row


def reference_kernel_basis(m):
    """An integral basis of ``ker m`` (as column vectors, sparse dicts).

    The transpose is eliminated by row operations, and its logged
    operations are replayed on identity companion rows; companions of the
    rows that reduce to zero form the basis, because the operations are
    unimodular.
    """
    from graphconf.homology import _diagonalize
    log = []
    pivots = _diagonalize(reference_transpose(m).rows(), rows_only=True,
                          log=log)
    companion = {c: {c: 1} for c in range(m.num_cols)}
    for r, r0, q in log[0][0]:
        vec = companion[r]
        for j, v in list(companion[r0].items()):
            nv = vec.get(j, 0) - q * v
            if nv:
                vec[j] = nv
            else:
                del vec[j]
    return [companion[c] for c in range(m.num_cols) if c not in pivots]


def reference_integral_generation(zs, cx, degree):
    """Integral generation as first written: every vector of an integral
    basis of ``ker D_degree`` must be an integer combination of the cycles
    and the boundaries, one solve per kernel vector.  Small instances only:
    three inputs on a three-particle wedge of two 4-stars take minutes.
    The cycles are checked on pair tuples, and ``[zs | D_{degree+1}]`` is
    built from ``cx.index``, not by the library's span matrix.
    """
    from graphconf.homology import (SparseIntMatrix, boundary_matrix,
                                    is_cycle, solve_in_image)
    zs = list(zs)
    for z in zs:
        if z.degree != degree or not is_cycle(z):
            raise ValueError("integral certification needs cycles of the right degree")
    kernel = reference_kernel_basis(boundary_matrix(cx, degree))
    d = boundary_matrix(cx, degree + 1)
    entries = [(cx.index[cell][1], j, v)
               for j, z in enumerate(zs) for cell, v in z.terms.items()]
    entries += [(r, c + len(zs), v) for r, c, v in d.entries]
    generators = SparseIntMatrix(d.num_rows, len(zs) + d.num_cols, entries)
    return all(solve_in_image(generators, kvec) for kvec in kernel)


def reference_augmented_matrix(zs, cx, degree):
    """``[zs | D_{degree+1}]``, its rows the degree-``degree`` cells as
    counted by the shape of ``D_{degree+1}``; ``ValueError`` unless every
    chain is a cycle of that degree supported on the complex, found by
    indexing each chain once and checking ``D_degree Z = 0``.  The
    library's span matrix before spans read the record of ``D_{degree+1}``.
    """
    from graphconf.homology import SparseIntMatrix, _chain_vector
    d = cx.boundary_entries(degree + 1)
    columns = {}  # cell index: [(chain, coefficient)]
    for j, z in enumerate(zs):
        if z.degree != degree:
            raise ValueError("span input of wrong degree")
        for i, v in _chain_vector(z, cx).items():
            columns.setdefault(i, []).append((j, v))
    image = {}
    for r, c, v in cx.boundary_entries(degree).entries:
        for j, w in columns.get(c, ()):
            image[r, j] = image.get((r, j), 0) + v * w
    if any(image.values()):
        raise ValueError("span input is not a cycle")
    shift = len(zs)
    entries = [(i, j, v) for i, col in columns.items() for j, v in col]
    entries += [(r, c + shift, v) for r, c, v in d.entries]
    return SparseIntMatrix(d.num_rows, shift + d.num_cols, entries)


def reference_class_span(zs, cx, degree):
    """``(rank, saturated)`` of :func:`graphconf.class_span` as it was
    before spans streamed: every chain is indexed and checked against the
    whole assembled ``D_degree`` before any is reduced, and then all of
    them replay the recorded unit phase of ``D_{degree+1}`` together, are
    dropped on its pivot rows and are eliminated once beside its residual
    R."""
    from graphconf.homology import (_chain_vector, _diagonalize, _operator,
                                    _recorded, _replay)
    d = _operator(cx, degree + 1)
    rows = {}  # cell index: {chain: coefficient}, chains after D's columns
    for j, z in enumerate(zs, d.num_cols):
        if z.degree != degree:
            raise ValueError("span input of wrong degree")
        for i, v in _chain_vector(z, cx).items():
            rows.setdefault(i, {})[j] = v
    image = {}
    for r, c, v in cx.boundary_entries(degree).entries:
        for j, w in rows.get(c, {}).items():
            image[r, j] = image.get((r, j), 0) + v * w
    if any(image.values()):
        raise ValueError("span input is not a cycle")
    pivots, (unit, *_), residual = _recorded(d)
    _replay(unit, rows)
    units = unit[1]
    for r in units:
        rows.pop(r, None)  # free on the unit pivot rows
    for r, row in residual.items():
        rows.setdefault(r, {}).update(row)
    factors = _diagonalize(rows).values()
    return len(factors) + len(units) - len(pivots), all(f == 1 for f in factors)


def reference_smith_generation(zs, cx, degree):
    """Whether the classes of ``zs`` generate degree-``degree`` homology
    over the integers: the library's certificate before the span routine
    took it over.

    The lattice ``L`` spanned by the cycles and the boundaries lies in the
    cycle lattice ``Z = ker D_degree``, which is saturated.  So ``L = Z``
    exactly when ``[zs | D_{degree+1}]`` has the rank of ``Z``,
    ``#cells - rank D_degree``, and all its invariant factors are 1: one
    Smith form.
    """
    from graphconf.homology import (boundary_matrix, rank_over_rationals,
                                    smith_normal_form)
    aug = reference_augmented_matrix(list(zs), cx, degree)
    d = boundary_matrix(cx, degree)
    factors = smith_normal_form(aug)
    return (len(factors) == d.num_cols - rank_over_rationals(d)
            and all(f == 1 for f in factors))


def integral_verdicts(chains, cx, kernel=True):
    """``saturated and rank == b_1`` of :func:`graphconf.class_span` on the
    full, empty and doubled inputs, each asserted equal to the
    one-Smith-form certificate and, with ``kernel``, to the
    kernel-plus-solve reference."""
    import graphconf as gc
    b1 = gc.homology(cx).betti(1)
    verdicts = []
    for zs in (chains, [], [z.scaled(2) for z in chains]):
        rank, saturated = gc.class_span(zs, cx, 1)
        got = saturated and rank == b1
        assert got == reference_smith_generation(zs, cx, 1)
        if kernel:
            assert got == reference_integral_generation(zs, cx, 1)
        verdicts.append(got)
    return verdicts


def reference_components(cx):
    """Number of components of the 1-skeleton, by union-find."""
    from graphconf.model import face
    parent = list(range(len(cx.cells[0])))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    if cx.max_dim >= 1:
        for cell in cx.cells[1]:
            a = cx.index[face(cx.graph, cell, 0, 0)][1]
            b = cx.index[face(cx.graph, cell, 0, 1)][1]
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    return len({find(i) for i in range(len(parent))})


def reference_boundary_entries(cx, k):
    """The boundary assembly as first written: ``boundary_of_cell`` on every
    pair-tuple ``k``-cell, rows found in a dict over the pair-tuple
    ``(k-1)``-cells, entries sorted."""
    from graphconf.model import SparseIntMatrix, boundary_of_cell
    if not 1 <= k <= cx.max_dim:
        rows = len(cx.cells[k - 1]) if 0 <= k - 1 <= cx.max_dim else 0
        cols = len(cx.cells[k]) if 0 <= k <= cx.max_dim else 0
        return SparseIntMatrix(rows, cols, ())
    index = {cell: i for i, cell in enumerate(cx.cells[k - 1])}
    entries = []
    for j, cell in enumerate(cx.cells[k]):
        for f, s in boundary_of_cell(cx.graph, cell).items():
            entries.append((index[f], j, s))
    entries.sort()
    return SparseIntMatrix(len(cx.cells[k - 1]), len(cx.cells[k]),
                           tuple(entries))


def brute_force_cells(g, n):
    """All valid cells of n labeled particles from the full syntactic
    state universe, grouped by dimension."""
    states = [("V", v) for v in range(g.num_vertices)]
    for e in range(g.num_edges):
        states.extend(("E", e, r) for r in range(n))
        states.extend(("ME", e, end) for end in (0, 1))
        states.append(("MF", e))
    by_dim = {}
    for combo in itertools.product(states, repeat=n):
        cell = tuple((p, s) for p, s in enumerate(combo))
        if reference_cell_valid(g, cell):
            dim = sum(1 for s in combo if s[0] in ("ME", "MF"))
            by_dim.setdefault(dim, set()).add(cell)
    return by_dim


def fraction_rank(m):
    """Dense rank over exact fractions."""
    rows = [[Fraction(0)] * m.num_cols for _ in range(m.num_rows)]
    for r, c, v in m.entries:
        rows[r][c] = Fraction(v)
    rank = 0
    lead = 0
    for c in range(m.num_cols):
        piv = next((r for r in range(lead, m.num_rows) if rows[r][c]), None)
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        for r in range(lead + 1, m.num_rows):
            if rows[r][c]:
                f = rows[r][c] / rows[lead][c]
                for cc in range(c, m.num_cols):
                    rows[r][cc] -= f * rows[lead][cc]
        lead += 1
        rank += 1
    return rank


def minors_gcd_invariant_factors(m):
    """Smith invariant factors through determinantal divisors: d_k is the
    gcd of all k x k minors, and the k-th factor is d_k / d_(k-1).
    Exponential; only for tiny matrices."""
    rows = [[0] * m.num_cols for _ in range(m.num_rows)]
    for r, c, v in m.entries:
        rows[r][c] = v

    def det(rs, cs):
        if not rs:
            return 1
        total = 0
        r0 = rs[0]
        for i, c in enumerate(cs):
            minor = det(rs[1:], cs[:i] + cs[i + 1:])
            term = rows[r0][c] * minor
            total += term if i % 2 == 0 else -term
        return total

    factors = []
    prev = 1
    for k in range(1, min(m.num_rows, m.num_cols) + 1):
        dk = 0
        for rs in itertools.combinations(range(m.num_rows), k):
            for cs in itertools.combinations(range(m.num_cols), k):
                dk = gcd(dk, det(list(rs), list(cs)))
        if dk == 0:
            break
        factors.append(dk // prev)
        prev = dk
    return sorted(factors)


def minors_solvable(m, target):
    """Whether ``m x = target`` has an integer solution, by determinantal
    divisors: exactly when ``m`` and ``[m | target]`` have the same rank r
    and the same gcd of r x r minors (H. J. S. Smith, 1861).  Exponential;
    only for tiny matrices."""
    from graphconf.homology import SparseIntMatrix
    aug = SparseIntMatrix(m.num_rows, m.num_cols + 1, m.entries + tuple(
        (r, m.num_cols, v) for r, v in target.items()))
    a = minors_gcd_invariant_factors(m)
    b = minors_gcd_invariant_factors(aug)
    return len(a) == len(b) and prod(a) == prod(b)


@pytest.fixture(scope="session")
def small_complexes():
    """Cache of enumerated complexes reused across test modules; the
    getter's ``names`` lists them all."""
    import graphconf as gc
    builders = {
        "star3-n2": lambda: gc.enumerate_cells(gc.star(3), 2),
        "star3-n3": lambda: gc.enumerate_cells(gc.star(3), 3),
        "star4-n2": lambda: gc.enumerate_cells(gc.star(4), 2),
        "banana4-n2": lambda: gc.enumerate_cells(gc.banana(4), 2),
        "banana4-n3": lambda: gc.enumerate_cells(gc.banana(4), 3),
        "k5-n2": lambda: gc.enumerate_cells(gc.complete(5), 2),
        "h-n2": lambda: gc.enumerate_cells(gc.h_graph(), 2),
        "intervalsinks-n2": lambda: gc.enumerate_cells(
            gc.interval(sinks={0, 1}), 2),
    }
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = builders[name]()
        return cache[name]

    get.names = tuple(builders)
    return get
