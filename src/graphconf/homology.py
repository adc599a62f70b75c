"""Exact integer linear algebra and homology of cube complexes.

All arithmetic is arbitrary-precision integer arithmetic; ranks are exact
ranks over the rationals and torsion is certified through Smith normal
form invariant factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import islice
from math import gcd, prod

from .model import CapExceededError, SparseIntMatrix, boundary_chain


def _divmod_balanced(a, p):
    """Quotient and remainder with the remainder in (-p/2, p/2]; small
    quotients keep elimination entries from blowing up."""
    q, r = divmod(a, p)
    if 2 * r > p:
        q += 1
        r -= p
    return q, r


def _diagonalize(rows, rows_only=False, modulus=0, max_nnz=None, log=None):
    """Eliminate a dict-of-rows matrix by unimodular row and column
    operations; the one elimination loop behind every routine here.

    Returns ``{row: pivot_value}`` with positive pivot values; rows absent
    from the result were reduced to zero.  ``rows`` is consumed down to the
    residual R defined below, empty when there is none; so in the Smith
    mode (neither ``rows_only`` nor ``modulus``) the unit-phase pivot rows
    are the result's rows that are not in ``rows``.  ``max_nnz`` caps the
    nonzeros after each pivot.  ``log``, a list, receives ``(ops, pivots,
    modulus)`` for each pass: its row operations in order, ``(r, r0, q)``
    for ``row_r -= q * row_r0`` with ``r != r0``, its pivots and its
    modulus.  The Smith mode logs its unit phase and, when that leaves a
    residual, the row-only and modular passes over R.  No row is negated:
    a pivot ``p`` clears its column by the balanced quotients modulo
    ``|p|`` given the sign of ``p``, so every other row changes as if its
    row had been made positive first, and ``|p|`` is its value here.

    Every pivot comes from one lazy queue of columns, keyed ``(least, len,
    c)``: ``least`` is the least ``|v|`` the column held when queued (1 for
    every column at the start) and ``len`` its number of entries then.  A
    popped column whose length changed is queued again with its new
    length.  Otherwise one pass over it finds its least ``|v|`` entry in
    its shortest row; that is the pivot unless its value exceeds the key,
    and then the column is queued again under that value.  So units come
    first, the sparsest column first, then the least values, with no scan
    of the whole matrix.  A column that loses its pivot to a column
    operation is queued again, so every nonempty column stays queued and
    the queue runs dry only with the matrix.

    A unit pivot clears its column, and then its row is dropped: clearing
    it by column operations would change nothing else.  When the pivot is
    the only entry of its row, each row operation that clears its column
    only deletes the entry there, so it is done as that deletion and
    logged as the same operation.  No later operation reads a pivot row,
    so the drop is not logged, and a replay of the unit phase drops its
    pivot rows at the end (:func:`_replay_units`).  With ``rows_only`` a
    non-unit pivot clears its column by a remainder cascade, which keeps
    the rank but not the pivot values.  Otherwise the unit phase ends when
    the queue offers a non-unit pivot and no unit is left (a row operation
    can make a unit in a column queued under a larger value; one pass over
    the rows left queues such columns again), and the residual R is
    eliminated in residues modulo ``modulus``, a multiple of delta, the
    product of the pivots of a row-only pass over R: an r x r minor of a
    unimodular transform of R, so a multiple of d_r(R).  Each pivot there
    is made to divide every entry left, so the gcds of the pivots with the
    modulus are the invariant factors of R in order (Domich, Kannan and
    Trotter 1987; Dumas, Saunders and Villard 2001).
    """
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
                if len(rows[r0]) > 1:
                    for r in list(cols[c0]):
                        if r != r0:
                            row_op(r, r0, rows[r][c0] * p)
                    break
                # a lone entry: each row operation only deletes the entry
                # of c0, so delete it and log the operation
                for r in cols[c0]:
                    if r != r0:
                        row = rows[r]
                        q = row.pop(c0) * p
                        if not row:
                            del rows[r]
                        if ops is not None:
                            ops.append((r, r0, q))
                cols[c0] = {r0}
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
        echelon = _diagonalize({r: dict(row) for r, row in rows.items()},
                               rows_only=True, max_nnz=max_nnz, log=log)
        # a multiple of delta above twice every entry of R, so these are
        # residues already and no invariant factor is zero
        bound = max(abs(v) for row in rows.values() for v in row.values())
        mod = 2 * (bound + 1) * prod(echelon.values())
        found = _diagonalize({r: dict(row) for r, row in rows.items()},
                             modulus=mod, max_nnz=max_nnz, log=log)
        pivot_of_row.update((r, gcd(v, mod)) for r, v in found.items())
    return pivot_of_row


def _replay(logged, rows):
    """Apply the row operations of a logged pass, ``(ops, pivots,
    modulus)``, in place to sparse rows ``{row: {col: value}}``, in
    residues modulo ``modulus`` when it is set.  No operation adds a row
    to itself, so the row read is never the row written."""
    ops, _, modulus = logged
    for r, r0, q in ops:
        row0 = rows.get(r0)
        if not row0:
            continue
        row = rows.setdefault(r, {})
        for c, v in row0.items():
            nv = row.get(c, 0) - q * v
            if modulus:
                nv %= modulus
            if nv:
                row[c] = nv
            else:
                row.pop(c, None)
        if not row:
            del rows[r]
    return rows


def _replay_units(unit, rows):
    """:func:`_replay` the logged unit phase ``unit`` on sparse rows, then
    drop them on its pivot rows, which that phase drops as it takes them."""
    _replay(unit, rows)
    for r in unit[1]:
        rows.pop(r, None)
    return rows


def _recorded(m, max_nnz=None):
    """The record of the Smith elimination of ``m``, made by the first
    Smith form, rank or solve on it and kept in its ``_elimination`` slot
    (a matrix is immutable): ``(pivots, passes, residual)``, the pivots
    ``{row: value}`` of :func:`_diagonalize`, its log of every pass, and
    the residual R its unit phase left, as the rows it leaves.
    ``max_nnz`` caps the fill-in of the elimination that makes it."""
    if m._elimination is None:
        log, rows = [], m.rows()
        pivots = _diagonalize(rows, max_nnz=max_nnz, log=log)
        m._elimination = (pivots, log, rows)
    return m._elimination


def rank_over_rationals(m):
    """Exact rank over the rationals: the number of pivots in the record
    of the Smith elimination, since its modulus makes no invariant factor
    zero."""
    return len(_recorded(m)[0])


def smith_normal_form(m):
    """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix, all
    positive, with r equal to the rank.  The pivots are units, then a
    divisibility chain, so sorting orders them; each call returns a fresh
    list from the record of the elimination."""
    return sorted(_recorded(m)[0].values())


def solve_in_image(m, vec):
    """Whether ``m x = vec`` has an integer solution; ``vec`` is a sparse
    dict from rows of ``m`` to ints, and ``ValueError`` rejects any other
    before any elimination.

    No elimination runs here: the target, one column of sparse rows,
    replays the row operations of the three recorded passes and is tested
    after each.  After the unit phase it is dropped on that phase's pivot
    rows, where it is free (:func:`_replay_units`); it must vanish on the
    rows reduced to zero, and the rest lies on R.  After the row-only pass
    over R, a copy must vanish on the rows that pass reduced to zero, so
    the target lies in Sat(R), the integer points of the rational span of
    R.  Replayed modulo M through the modular
    pass, it is in the image of R modulo M iff M divides it off the pivot
    rows and each pivot gcd(v, M) divides it on its row.  That decides
    membership in L(R), the lattice of R: the last invariant factor of R
    kills Sat(R)/L(R) and divides delta, so delta Sat(R), and with it M
    Sat(R), lies in L(R).  Sat(R) is saturated, so ``Sat(R) & M Z^m = M
    Sat(R)``: a ``t`` in Sat(R) with ``t = R x + M y`` has ``M y`` in
    Sat(R), so in ``M Sat(R)``, and ``t`` is in L(R).  The span test comes
    first: ``(-2, 1)`` is ``3 (2, 3)`` modulo 8, its M, but off the span.
    """
    for r, v in vec.items():
        if type(r) is not int or not 0 <= r < m.num_rows:
            raise ValueError(f"target row {r!r} is not a row of the matrix")
        if type(v) is not int:
            raise ValueError(f"target value {v!r} is not an integer")
    pivots, (unit, *residual), _ = _recorded(m)
    target = _replay_units(unit, {r: {0: v} for r, v in vec.items() if v})
    if not residual:
        return not target  # every row left was reduced to zero
    echelon, modular = residual
    copy = {r: dict(row) for r, row in target.items()}
    if not _replay(echelon, copy).keys() <= echelon[1].keys():
        return False  # off the rational span of R
    _, found, modulus = modular
    return all(row[0] % (pivots[r] if r in found else modulus) == 0
               for r, row in _replay(modular, target).items())


# -- homology ---------------------------------------------------------------

@dataclass(frozen=True)
class DegreeData:
    cells: int
    betti: int
    torsion: tuple


@dataclass(frozen=True)
class HomologySummary:
    degrees: tuple
    euler: int

    def betti(self, k):
        return self.degrees[k].betti if 0 <= k < len(self.degrees) else 0

    def torsion(self, k):
        return self.degrees[k].torsion if 0 <= k < len(self.degrees) else ()

    def betti_vector(self):
        return tuple(d.betti for d in self.degrees)

    def torsion_free(self):
        return all(not d.torsion for d in self.degrees)

    def to_doc(self):
        return {
            "degrees": [
                {"degree": k, "cells": d.cells, "betti": d.betti,
                 "torsion": list(d.torsion)}
                for k, d in enumerate(self.degrees)
            ],
            "euler": self.euler,
        }


def boundary_matrix(cx, k):
    """The full boundary operator ``D_k``, assembled on every call."""
    return cx.boundary_entries(k)


def _operator(cx, k):
    """``D_k`` as every elimination on the complex reads it, assembled
    once and kept in ``cx._matrices``, where :func:`_recorded` keeps its
    record: without the ``k``-cells that were unit-phase pivot rows of
    the operator one degree up, which is built and recorded first.

    This clearing (Chen and Kerber 2011; Bauer, Kerber and Reininghaus
    2014) keeps the image of ``D_k``.  Let ``B`` be the operator of degree
    ``k+1``, so ``D_k B = 0``, and ``P`` and ``Q`` the rows and columns of
    its unit-phase pivots, in the order taken.  Each unit pivot clears its
    column by adding multiples of its row to the rows left, and its row is
    then dropped.  So the row of the i-th pivot, when taken, is its row
    of ``B`` plus an integer combination of the rows of the earlier
    pivots, and it is zero in their columns: a lower-triangular matrix
    with 1 on its diagonal turns ``B[P,Q]`` into an
    upper-triangular one with +-1 on its diagonal, so ``B[P,Q]`` is
    unimodular.  From ``D_k[:,P] B[P,Q] + D_k[:,P^c] B[P^c,Q] = 0``,
    ``D_k[:,P] = -D_k[:,P^c] B[P^c,Q] B[P,Q]^{-1}``, an integral product:
    the cleared columns are integer combinations of the kept ones.  So
    column operations remove them, and the Smith form, torsion included,
    is unchanged.  Pivots of the residual phase are not cleared; a gcd of
    1 there does not make their minor unimodular.  Equal images give equal
    span ``(rank, saturated)`` and equal solvability.
    """
    m = cx._matrices.get(k)
    if m is None:
        cleared = ()
        if k < cx.max_dim:
            pivots, _, residual = _recorded(_operator(cx, k + 1))
            cleared = pivots.keys() - residual.keys()
        m = cx._matrices[k] = cx.boundary_entries(k, cleared)
    return m


def euler_characteristic(cx):
    return sum((-1) ** k * c for k, c in enumerate(cx.cell_counts()))


def _incidence_rank(m):
    """The rank of ``m`` when it is the incidence matrix of a graph on its
    rows, every column holding one +1 and one -1 in two rows or nothing
    (a loop), else ``None``: the number of rows less the number of
    components, found by one union-find pass over the columns."""
    ends = {}
    for r, c, v in m.entries:
        if v != 1 and v != -1:
            return None
        ends.setdefault(c, []).append((v, r))
    parent = list(range(m.num_rows))

    def root(r):
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        return r

    rank = 0
    for pair in ends.values():
        if len(pair) != 2:
            return None
        (v, a), (w, b) = pair
        if v == w:
            return None
        a, b = root(a), root(b)
        if a != b:
            parent[a] = b
            rank += 1
    return rank


def homology(cx, max_nnz=None):
    """Betti numbers, torsion coefficients and Euler characteristic:
    ``b_k = #k-cells - rank D_k - rank D_{k+1}``, and the torsion in degree
    ``k`` is the invariant factors of ``D_{k+1}`` exceeding 1, read from
    the records of the operators of :func:`_operator`, top degree first.
    ``max_nnz`` caps the entries of each operator, also one recorded
    before, and the fill-in of the elimination that records it.

    ``D_1`` of a cube complex is the signed incidence matrix of its
    1-skeleton, and it is not eliminated when its cleared operator is
    still one (:func:`_incidence_rank`; any other ``D_1`` is recorded like
    the operators above it).  A graph incidence matrix is totally
    unimodular, so every invariant factor is 1 and ``H_0`` has no
    torsion, and its rank is the number of 0-cells less the number of
    components.  Clearing keeps the image, so the kept columns span the
    same graph: they leave the components of the 1-skeleton as they are.
    ``D_1`` gets no record here; :func:`is_boundary` on 0-chains and a
    span in degree 0 make it on demand."""
    counts = cx.cell_counts()
    factors = [[] for _ in range(len(counts) + 1)]
    for k in range(len(counts) - 1, 0, -1):
        m = _operator(cx, k)
        if max_nnz is not None and m.nnz > max_nnz:
            raise CapExceededError(f"boundary operator in degree {k} has"
                                   f" more than {max_nnz} entries")
        rank = _incidence_rank(m) if k == 1 else None
        factors[k] = [1] * rank if rank is not None \
            else sorted(_recorded(m, max_nnz)[0].values())
    return HomologySummary(degrees=tuple(
        DegreeData(cells=c, betti=c - len(factors[k]) - len(factors[k + 1]),
                   torsion=tuple(d for d in factors[k + 1] if d > 1))
        for k, c in enumerate(counts)), euler=euler_characteristic(cx))


# -- cycles and spans -------------------------------------------------------

def is_cycle(z):
    """Whether the chain has zero boundary."""
    return boundary_chain(z).is_zero()


def _chain_vector(z, cx):
    vec = {}
    for cell, coef in z.terms.items():
        try:
            dim, i = cx.index[cell]
        except KeyError:
            raise ValueError("chain has support outside the complex") from None
        if dim != z.degree:
            raise ValueError("chain degree does not match its cells")
        vec[i] = coef
    return vec


def is_boundary(z, cx):
    """Whether ``z`` is the boundary of an integral chain of the complex."""
    vec = _chain_vector(z, cx)
    return solve_in_image(_operator(cx, z.degree + 1), vec)


# the number of chains in the first batch a span reads (see class_span);
# over the benchmark's span ladder first batches of 16, 32, 64 and 128
# chains took 0.51, 0.48, 0.50 and 0.52 s: 32 reads the 24 degree-2
# candidates of k:4 n3 whole, without rank D_2, and lets the small inputs
# with sinks stop early
FIRST_BATCH = 32


def _add_mod_2(basis, bits, rows):
    """Add the columns of the sparse rows ``rows``, ``{row: {column:
    value}}``, modulo 2 to ``basis``, which keeps one vector per leading
    bit, so that ``len(basis)`` is the rank over GF(2) of every column
    added; ``bits`` numbers the rows in the order they are first seen.
    The columns are those the rows hold whole, so each is added once."""
    columns = {}
    for r, row in rows.items():
        bit = 1 << bits.setdefault(r, len(bits))
        for c, v in row.items():
            if v & 1:
                columns[c] = columns.get(c, 0) | bit
    for v in columns.values():
        while v:
            lead = v.bit_length()
            w = basis.get(lead)
            if w is None:
                basis[lead] = v
                break
            v ^= w


def _cycle_rows(zs, cx, degree, first, faces):
    """The chains ``zs`` as sparse rows ``{cell index: {column:
    coefficient}}``, the ``j``-th chain in column ``first + j``.
    ``ValueError`` unless every chain is a cycle of degree ``degree`` on
    the complex, found by indexing each chain once and then checking
    ``D_k Z = 0`` on the columns of ``D_k`` that their cells index.
    ``faces`` keeps those columns, ``{cell index: [(row, sign)]}``, so
    that later calls assemble only the cells new to them."""
    rows = {}
    for j, z in enumerate(zs, first):
        if z.degree != degree:
            raise ValueError("span input of wrong degree")
        for i, v in _chain_vector(z, cx).items():
            rows.setdefault(i, {})[j] = v
    new = [i for i in rows if i not in faces]
    for i in new:
        faces[i] = []
    for r, p, v in cx.boundary_columns(degree, new):
        faces[new[p]].append((r, v))
    image = {}
    for i, row in rows.items():
        for r, v in faces[i]:
            for j, w in row.items():
                image[r, j] = image.get((r, j), 0) + v * w
    if any(image.values()):
        raise ValueError("span input is not a cycle")
    return rows


def class_span(zs, cx, degree):
    """``(rank, saturated)`` for the classes of the chains of ``zs``, any
    iterable, in ``H_k``, ``k = degree``: the rational rank of their span,
    and whether every invariant factor of ``A = [zs | D]``, ``D =
    D_{k+1}``, is 1.  The chains are read in order, in batches, and the
    span stops reading once the chains read generate ``H_k`` over the
    integers; its answer is then that of the whole input.  ``ValueError``
    unless every chain read is a cycle of degree ``k`` on the complex
    (see :func:`_cycle_rows`); the chains after a stop are neither read
    nor checked, so whether they are valid is the caller's concern.

    ``D`` is the cleared operator of :func:`_operator`, read through the
    one record that :func:`homology` and every solve share.  Its unit
    phase is a unimodular ``U``, and ``U D`` is zero off its pivot rows
    ``P`` in its pivot columns and unimodular on that block, so column
    operations split ``U A`` into that block and ``[(U zs) off P | R]``,
    R the recorded residual: ``A`` has ``|P|`` factors 1 and those of the
    small matrix, ``rank D = |P| + rank R``, and ``rank = len(factors) +
    |P| - rank D``.  The chains, as sparse rows, replay the unit phase
    and are dropped on ``P`` (:func:`_replay_units`).  Row operations act
    on each column alone, so each batch replays it once, and the rows of
    the batches add up.

    They generate ``H_k`` over the integers iff ``saturated and rank ==
    b_k``.  ``L = span(zs) + im D_{k+1}`` lies in ``Z = ker D_k``, which is
    saturated, of rank ``#C_k - rank D_k = b_k + rank D_{k+1}``, and
    ``L = Z`` gives both conditions.  Conversely ``rank == b_k`` makes
    ``Z / L`` finite and ``saturated`` makes ``Z^{C_k} / L`` free; a finite
    subgroup of a free group is 0, so ``L = Z``.

    The stop.  The first batch is ``FIRST_BATCH`` chains, so a smaller
    input is read whole and pays for nothing but its one Smith form.  A
    longer input needs ``b_k`` from :func:`homology`, which records the
    operators below ``D_{k+1}`` that no call has recorded yet (``D_1``
    only when it is no incidence matrix), and its first batch reads on
    to ``b_k`` chains, since fewer cannot generate.
    Each later batch is as large as all the batches before it, so a whole
    read of ``N`` chains replays the unit phase at most ``2 + log2(N /
    max(b_k, FIRST_BATCH))`` times, and a span that stops has read at most
    twice the chains of the shortest prefix that generates, or its first
    batch.  After each batch a checkpoint asks whether the chains read
    generate.  They do only if the small matrix ``[chains read | R]`` has
    ``b_k + rank R`` invariant factors, all 1, and then its rank modulo
    every prime is ``b_k + rank R``.  Its rank modulo 2 grows as each
    batch's columns join one basis over GF(2) (:func:`_add_mod_2`), so a
    checkpoint short of that costs no elimination; one that reaches it
    takes the Smith form of a copy of the small matrix.  At ``(b_k, True)``
    the span returns: the lattice ``L'`` of the chains read is ``Z``, and
    every chain is a cycle, so ``L' <= L <= Z`` gives ``L = Z`` for the
    whole input, whose answer is then ``(b_k, True)`` too.  (The rank never
    exceeds ``b_k``, and a superset of a generating set still generates.)
    A Smith form that misses, at a prime other than 2, is taken again only
    once the chains read have doubled.  An input that never gets there is
    read to its end and answered by one Smith form of the whole small
    matrix, as if it had been read at once.
    """
    d = _operator(cx, degree + 1)
    pivots, (unit, *_), residual = _recorded(d)
    rank_r = len(pivots) - len(unit[1])
    chains = iter(zs)
    rows = {}  # cell index: {chain: coefficient}, chains after D's columns
    faces = {}  # the columns of D_k read by the cycle checks
    odd, bits = {}, {}  # the columns read, modulo 2
    read, size, betti, smith_at = 0, FIRST_BATCH, None, 0
    while True:
        batch = list(islice(chains, size))
        if betti is None and len(batch) == size:
            betti = homology(cx).betti(degree)
            _add_mod_2(odd, bits, residual)
            # fewer than b_k chains cannot generate: read on to b_k first
            size = max(size, betti)
            batch.extend(islice(chains, size - len(batch)))
        batch_rows = _replay_units(unit, _cycle_rows(
            batch, cx, degree, d.num_cols + read, faces))
        for r, row in batch_rows.items():
            rows.setdefault(r, {}).update(row)
        read += len(batch)
        end = len(batch) < size
        if not end:
            _add_mod_2(odd, bits, batch_rows)
        if end or len(odd) - rank_r >= betti and read >= smith_at:
            # the small matrix [chains read | R], on a copy short of the end
            small = rows if end else {r: dict(row) for r, row in rows.items()}
            for r, row in residual.items():
                small.setdefault(r, {}).update(row)
            factors = _diagonalize(small).values()
            got = len(factors) - rank_r, all(f == 1 for f in factors)
            if end or got == (betti, True):
                return got
            smith_at = 2 * read
        size = read


def class_span_rank(zs, cx, degree):
    """The ``rank`` of :func:`class_span`, which reads ``zs`` the same
    way; 0 when ``zs`` is empty."""
    return class_span(zs, cx, degree)[0]
