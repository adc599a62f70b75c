"""Exact integer linear algebra and homology of cube complexes.

All arithmetic is arbitrary-precision integer arithmetic; ranks are exact
ranks over the rationals and torsion is certified through Smith normal
form invariant factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd, prod

from .model import CapExceededError, SparseIntMatrix, boundary_chain


def _column_index(rows):
    cols = {}
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    return cols


def _divmod_balanced(a, p):
    """Quotient and remainder with the remainder in (-p/2, p/2]; small
    quotients keep elimination entries from blowing up."""
    q, r = divmod(a, p)
    if 2 * r > p:
        q += 1
        r -= p
    return q, r


def _diagonalize(rows, carry=None, rows_only=False, modulus=0, max_nnz=None,
                 log=None):
    """Eliminate a dict-of-rows matrix by unimodular row and column
    operations; the one elimination loop behind every routine here.

    Returns ``{row: pivot_value}`` with positive pivot values; rows absent
    from the result were reduced to zero.  ``rows`` is consumed down to the
    residual R defined below, empty when there is none; so in the Smith
    mode (neither ``rows_only`` nor ``modulus``) the unit-phase pivot rows
    are the result's rows that are not in ``rows``.  Row operations are
    mirrored on ``carry``, a dict of sparse companion rows indexed like
    ``rows``; ``max_nnz`` caps the nonzeros after each pivot.  ``log``, a
    list, receives the row operations of the Smith mode's unit phase in
    order, each as ``(r, r0, q)`` for ``row_r -= q * row_r0``; the sign
    flip of a pivot row ``r0`` is ``(r0, r0, 2)``, which negates it.  The
    residual phase, run on a copy of R, logs nothing.

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
    it by column operations would change nothing else.  With ``rows_only``
    a non-unit pivot clears its column by a remainder cascade, which keeps
    the rank but not the pivot values.  Otherwise the unit phase ends when
    the queue offers a non-unit pivot and no unit is left (a row operation
    can make a unit in a column queued under a larger value; one pass over
    the rows left queues such columns again), and the residual R is
    eliminated in residues modulo ``modulus``, a multiple of delta, the
    product of the pivots of a row-only pass over R: an r x r minor of a
    unimodular transform of R, so a multiple of d_r(R).  Each pivot there
    is made to divide every entry left, so the gcds of the pivots with the
    modulus are the invariant factors of R in order, and a target in the
    rational span of R is in its image iff it is modulo the modulus
    (Domich, Kannan and Trotter 1987; Dumas, Saunders and Villard 2001).
    """
    cols = _column_index(rows)
    pivot_of_row = {}
    queue = [(1, len(rs), c) for c, rs in cols.items()]
    heapify(queue)
    nnz = sum(map(len, rows.values())) if max_nnz is not None else 0
    touched = {}  # row: its length before the current pivot, when capped

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
        if log is not None:
            log.append((r, r0, q))
        if carry is not None and r0 in carry:
            vec = carry.setdefault(r, {})
            for j, v in carry[r0].items():
                nv = vec.get(j, 0) - q * v
                if modulus:
                    nv %= modulus
                if nv:
                    vec[j] = nv
                else:
                    vec.pop(j, None)
            if not vec:
                del carry[r]

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
            if rows[r0][c0] < 0:
                rows[r0] = {c: -v for c, v in rows[r0].items()}
                if log is not None:
                    log.append((r0, r0, 2))
                if carry is not None and r0 in carry:
                    carry[r0] = {j: -v for j, v in carry[r0].items()}
            piv = rows[r0][c0]
            for r in list(cols[c0]):
                if r == r0:
                    continue
                q, rem = _divmod_balanced(rows[r][c0], piv)
                if q:
                    row_op(r, r0, q)
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
                    # the pivot must divide every entry left, modulo modulus
                    g = gcd(piv, modulus)
                    bad = [r for r, row in rows.items()
                           if g > 1 and any(v % g for v in row.values())]
                    if not bad:
                        break
                    row_op(r0, bad[0], -1)
                    continue
                # column c0 is clear: this column operation changes row r0
                # and moves the pivot to column c; c0 keeps its entry in row
                # r0, which stays if the cascade moves the pivot off r0
                rows[r0][c] = rem
                heappush(queue, (piv, 1, c0))
                c0 = c
        pivot_of_row[r0] = rows[r0][c0]
        for c in rows.pop(r0):
            cols[c].discard(r0)
            if not cols[c]:
                del cols[c]
        if max_nnz is not None:
            nnz += sum(len(rows.get(r, ())) - n for r, n in touched.items())
            touched.clear()
            if nnz > max_nnz:
                raise CapExceededError(f"elimination fill-in over {max_nnz}")
    if rows and not (rows_only or modulus):
        shadow = carry and {r: dict(carry[r]) for r in rows if r in carry}
        echelon = _diagonalize({r: dict(row) for r, row in rows.items()},
                               shadow, rows_only=True, max_nnz=max_nnz)
        if shadow and not shadow.keys() <= echelon.keys():
            return pivot_of_row  # the target leaves the rational span of R
        # a multiple of delta above twice every entry and target of R, so
        # these are residues already and no invariant factor is zero
        bound = max(abs(v) for vecs in (rows, carry or {}) for r in rows
                    for v in vecs.get(r, {}).values())
        mod = 2 * (bound + 1) * prod(echelon.values())
        found = _diagonalize({r: dict(row) for r, row in rows.items()},
                             carry, modulus=mod, max_nnz=max_nnz)
        pivot_of_row.update((r, gcd(v, mod)) for r, v in found.items())
    return pivot_of_row


def rank_over_rationals(m):
    """Exact rank over the rationals: the number of pivots of a row-only
    elimination."""
    return len(_diagonalize(m.rows(), rows_only=True))


def _recorded(m):
    """The record of the Smith elimination of ``m``, made by the first
    Smith form or solve on it and kept in its ``_elimination`` slot (a
    matrix is immutable): ``(pivots, log, residual)``, the pivots
    ``{row: value}`` of :func:`_diagonalize`, the log of its unit-phase
    row operations, and the residual rows R that phase left."""
    if m._elimination is None:
        rows, log = m.rows(), []
        m._elimination = (_diagonalize(rows, log=log), log, rows)
    return m._elimination


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

    The target is carried through the recorded elimination of ``m``: the
    logged unit-phase row operations are replayed on it, and then the
    residual phase alone is run again on a copy of R with the target as a
    one-column companion.  That is exactly what carrying the target
    through the whole elimination gives, because the unit phase never
    reads the carry: ``next_pivot`` and the check for units left read
    only ``rows`` and ``cols``, so with or without a carry it takes the
    same pivots, makes the same operations in the same order and leaves
    the same R, and a replay of those operations makes the same carry.
    The residual phase does read the carry, in its rational span test and
    in the bound behind its modulus, so it is not replayed but run again.
    Solvability is then vanishing on the rows the unit phase reduced to
    zero (its pivot rows are units and divide anything), and on R,
    membership in the rational span of R plus divisibility on the pivot
    rows modulo the residual phase's modulus.
    """
    for r, v in vec.items():
        if type(r) is not int or not 0 <= r < m.num_rows:
            raise ValueError(f"target row {r!r} is not a row of the matrix")
        if type(v) is not int:
            raise ValueError(f"target value {v!r} is not an integer")
    pivots, log, residual = _recorded(m)
    target = {r: v for r, v in vec.items() if v}
    for r, r0, q in log:
        v0 = target.get(r0)
        if v0:
            v = target.get(r, 0) - q * v0
            if v:
                target[r] = v
            else:
                del target[r]
    carry = {}
    for r, v in target.items():
        if r in residual:
            carry[r] = {0: v}
        elif r not in pivots:
            return False  # a row the unit phase reduced to zero
    if not carry:
        return True
    found = _diagonalize({r: dict(row) for r, row in residual.items()}, carry)
    return all(r in found and v[0] % found[r] == 0 for r, v in carry.items())


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
    """The full boundary operator ``D_k``, assembled once per complex."""
    return cx.boundary_entries(k)


def euler_characteristic(cx):
    return sum((-1) ** k * c for k, c in enumerate(cx.cell_counts()))


def homology(cx, max_nnz=None):
    """Betti numbers, torsion coefficients and Euler characteristic.

    ``b_k = #k-cells - rank D_k - rank D_{k+1}``; torsion in degree ``k``
    is the list of invariant factors of ``D_{k+1}`` exceeding 1.  The
    ranks are the lengths of the Smith normal forms, one elimination per
    matrix, taken from the top degree down with clearing (Chen and Kerber
    2011; Bauer, Kerber and Reininghaus 2014): ``D_k`` is assembled and
    eliminated only on the ``k``-cells that were not unit-phase pivot rows
    of ``D_{k+1}``.

    This keeps the Smith form of ``D_k``, torsion included.  Let ``B`` be
    the matrix eliminated in degree ``k+1``, the kept columns of
    ``D_{k+1}``, so ``D_k B = 0``; let ``P`` and ``Q`` be the rows and
    columns of its unit-phase pivots, in the order taken.  Each unit pivot
    clears its column by adding multiples of its row to the rows left, and
    its row is then dropped.  So the row of the i-th pivot, when taken, is
    up to sign its row of ``B`` plus an integer combination of the rows of
    the earlier pivots, and it is zero in their columns: a lower-triangular
    matrix with +-1 on its diagonal turns ``B[P,Q]`` into an
    upper-triangular one with +-1 on its diagonal, so ``B[P,Q]`` is
    unimodular.  From ``D_k[:,P] B[P,Q] + D_k[:,P^c] B[P^c,Q] = 0``,
    ``D_k[:,P] = -D_k[:,P^c] B[P^c,Q] B[P,Q]^{-1}``, an integral product:
    the cleared columns are integer combinations of the kept ones, and
    column operations remove them.  Pivots of the residual phase are not
    cleared; a gcd of 1 there does not make their minor unimodular.

    ``max_nnz`` caps the entries of each matrix assembled here, so of the
    cleared ``D_k``, and the fill-in of its elimination.  The cleared
    matrices are built afresh from the packed cells and not cached;
    :meth:`CubeComplex.boundary_entries` stays the full operator.
    """
    counts = cx.cell_counts()
    top = cx.max_dim
    book, keys = cx._book, cx._keys
    factors = [[] for _ in range(top + 2)]
    cleared = set()
    for k in range(top, 0, -1):
        kept = [key for i, key in enumerate(keys[k]) if i not in cleared]
        entries = book.boundary(kept, keys[k - 1])
        if max_nnz is not None and len(entries) > max_nnz:
            raise CapExceededError(f"boundary operator in degree {k} has"
                                   f" more than {max_nnz} entries")
        rows = {}
        for r, c, v in entries:
            rows.setdefault(r, {})[c] = v
        pivots = _diagonalize(rows, max_nnz=max_nnz)
        factors[k] = sorted(pivots.values())
        cleared = pivots.keys() - rows.keys()
    degrees = []
    for k in range(top + 1):
        betti = counts[k] - len(factors[k]) - len(factors[k + 1])
        tors = tuple(d for d in factors[k + 1] if d > 1)
        degrees.append(DegreeData(cells=counts[k], betti=betti, torsion=tors))
    return HomologySummary(degrees=tuple(degrees), euler=euler_characteristic(cx))


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
    k = z.degree
    vec = _chain_vector(z, cx)
    if k + 1 > cx.max_dim:
        return not vec
    return solve_in_image(boundary_matrix(cx, k + 1), vec)


def _augmented_matrix(zs, cx, degree):
    """``[zs | D_{degree+1}]``, its rows the degree-``degree`` cells as
    counted by the shape of ``D_{degree+1}``; ``ValueError`` unless every
    chain is a cycle of that degree supported on the complex, found by
    indexing each chain once and checking ``D_degree Z = 0``."""
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


def class_span(zs, cx, degree):
    """``(rank, saturated)`` for the classes of ``zs`` in ``H_k``,
    ``k = degree``, from one Smith form of ``A = [zs | D_{k+1}]``: ``rank``
    is ``len(factors) - rank D_{k+1}``, the rational rank of their span,
    and ``saturated`` says that every factor is 1.

    They generate ``H_k`` over the integers iff ``saturated and rank ==
    b_k``.  ``L = span(zs) + im D_{k+1}`` lies in ``Z = ker D_k``, which is
    saturated, of rank ``#C_k - rank D_k = b_k + rank D_{k+1}``, and
    ``L = Z`` gives both conditions.  Conversely ``rank == b_k`` makes
    ``Z / L`` finite and ``saturated`` makes ``Z^{C_k} / L`` free; a finite
    subgroup of a free group is 0, so ``L = Z``.
    """
    zs = list(zs)
    factors = smith_normal_form(_augmented_matrix(zs, cx, degree))
    rank = len(factors) - rank_over_rationals(boundary_matrix(cx, degree + 1))
    return rank, all(f == 1 for f in factors)


def class_span_rank(zs, cx, degree):
    """The ``rank`` of :func:`class_span`; 0 when ``zs`` is empty."""
    zs = list(zs)
    return class_span(zs, cx, degree)[0] if zs else 0
