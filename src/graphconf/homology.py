"""Exact integer linear algebra and homology of cube complexes.

All arithmetic is arbitrary-precision integer arithmetic; ranks are exact
ranks over the rationals and torsion is certified through Smith normal
form invariant factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd, inf

from .model import CapExceededError, SparseEntries, boundary_chain


class SparseIntMatrix:
    """Sparse integer matrix in coordinate form."""

    __slots__ = ("num_rows", "num_cols", "data")

    def __init__(self, num_rows, num_cols, entries=()):
        self.num_rows = num_rows
        self.num_cols = num_cols
        data = {}
        if isinstance(entries, dict):
            entries = [(r, c, v) for (r, c), v in entries.items()]
        for r, c, v in entries:
            if not (0 <= r < num_rows and 0 <= c < num_cols):
                raise ValueError(f"entry ({r},{c}) out of range")
            if (r, c) in data:
                raise ValueError(f"duplicate entry at ({r},{c})")
            if v:
                data[(r, c)] = int(v)
        self.data = data

    @classmethod
    def from_entries(cls, entries: SparseEntries):
        return cls(entries.num_rows, entries.num_cols, entries.entries)

    @property
    def nnz(self):
        return len(self.data)

    def rows(self):
        """Mutable dict-of-rows copy for elimination."""
        rows = {}
        for (r, c), v in self.data.items():
            rows.setdefault(r, {})[c] = v
        return rows

    def __eq__(self, other):
        return (isinstance(other, SparseIntMatrix)
                and (self.num_rows, self.num_cols) == (other.num_rows, other.num_cols)
                and self.data == other.data)

    def __repr__(self):
        return f"SparseIntMatrix({self.num_rows}x{self.num_cols}, nnz={self.nnz})"


def _column_index(rows):
    cols = {}
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    return cols


def _pick_pivot(rows, cols):
    """The entry that minimises ``(|v| != 1, |v|, cost, r, c)``, with
    ``cost = (len(row) - 1) * (len(col) - 1)``, ties included.

    Units are sought line by line in increasing length, rows and columns
    alike, the shorter next line first.  An entry not yet seen lies in an
    unread row and an unread column, so its cost is at least the cost an
    entry would have at the crossing of the next two lines; once that
    bound exceeds the best unit's cost, no unread entry can beat or tie
    it.  Without a unit every entry is read.
    """
    by_row = sorted((len(row) - 1, r) for r, row in rows.items())
    by_col = sorted((len(rs) - 1, c) for c, rs in cols.items() if rs)
    best = (inf,)
    i = j = 0
    while i < len(by_row) and j < len(by_col):
        lr, r0 = by_row[i]
        lc, c0 = by_col[j]
        if lr * lc > best[0]:
            break
        if lr <= lc:
            i += 1
            for c, v in rows[r0].items():
                if v == 1 or v == -1:
                    key = (lr * (len(cols[c]) - 1), r0, c)
                    if key < best:
                        best = key
        else:
            j += 1
            for r in cols[c0]:
                v = rows[r][c0]
                if v == 1 or v == -1:
                    key = ((len(rows[r]) - 1) * lc, r, c0)
                    if key < best:
                        best = key
    if best[0] == inf:
        for r, row in rows.items():
            for c, v in row.items():
                key = (abs(v), (len(row) - 1) * (len(cols[c]) - 1), r, c)
                if key < best:
                    best = key
    return best[-2:]


def _divmod_balanced(a, p):
    """Quotient and remainder with the remainder in (-p/2, p/2]; small
    quotients keep elimination entries from blowing up."""
    q, r = divmod(a, p)
    if 2 * r > p:
        q += 1
        r -= p
    return q, r


def _diagonalize(rows, carry=None, rows_only=False):
    """Eliminate a dict-of-rows matrix by unimodular row and column
    operations; the one elimination loop behind every routine here.

    Returns ``{row: pivot_value}`` with positive pivot values; rows absent
    from the result were reduced to zero, and ``rows`` is consumed.  Row
    operations are mirrored on ``carry``, a dict of sparse companion rows
    indexed like ``rows``.  With ``rows_only`` no column operation is made:
    a pivot row is dropped once its column is cleared below it, which
    leaves the rank and the zero rows right but not the pivot values.

    On input whose entries are all +-1, pivots come first from a lazy heap
    over columns: a unit in the sparsest column, in its shortest row.  A
    unit pivot clears its column without remainders.  Other input, and
    whatever that phase leaves, goes to ``_pick_pivot``, which prefers
    units, then small values, then low fill-in.  The cost of a Smith form
    on non-unit input swings with the pivot order, so that order is fixed:
    the search reads lines in increasing length and stops once no unread
    entry can compete, but it returns exactly the pivot of a full scan over
    every entry, ties included.
    """
    cols = _column_index(rows)
    pivot_of_row = {}
    heap = []
    if all(abs(v) == 1 for row in rows.values() for v in row.values()):
        heap = [(len(rs), c) for c, rs in cols.items()]
        heapify(heap)

    def next_pivot():
        while heap:
            n, c = heappop(heap)
            rs = cols.get(c)
            if not rs:
                continue
            if len(rs) != n:
                heappush(heap, (len(rs), c))
                continue
            units = [(len(rows[r]), r) for r in rs if abs(rows[r][c]) == 1]
            if units:
                return min(units)[1], c
        return _pick_pivot(rows, cols)

    def row_op(r, r0, q):
        # row_r -= q * row_r0
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
        if not row:
            del rows[r]
        if carry is not None and r0 in carry:
            vec = carry.setdefault(r, {})
            for j, v in carry[r0].items():
                nv = vec.get(j, 0) - q * v
                if nv:
                    vec[j] = nv
                else:
                    vec.pop(j, None)
            if not vec:
                del carry[r]

    def col_op(c, c0, q):
        # col_c -= q * col_c0; only rows holding c0 are affected
        for r in list(cols.get(c0, ())):
            v0 = rows[r][c0]
            nv = rows[r].get(c, 0) - q * v0
            if nv:
                if c not in rows[r]:
                    cols.setdefault(c, set()).add(r)
                rows[r][c] = nv
            elif c in rows[r]:
                del rows[r][c]
                cols[c].discard(r)

    while rows:
        r0, c0 = next_pivot()
        while True:
            if rows[r0][c0] < 0:
                rows[r0] = {c: -v for c, v in rows[r0].items()}
                if carry is not None and r0 in carry:
                    carry[r0] = {j: -v for j, v in carry[r0].items()}
            piv = rows[r0][c0]
            moved = False
            for r in list(cols[c0]):
                if r == r0:
                    continue
                q, rem = _divmod_balanced(rows[r][c0], piv)
                if q:
                    row_op(r, r0, q)
                if rem:
                    r0 = r  # strictly smaller value: restart the cascade
                    moved = True
                    break
            if moved:
                continue
            if rows_only:
                break
            for c in list(rows[r0]):
                if c == c0:
                    continue
                q, rem = _divmod_balanced(rows[r0][c], piv)
                if q:
                    col_op(c, c0, q)
                if rem:
                    c0 = c
                    moved = True
                    break
            if not moved:
                break
        pivot_of_row[r0] = rows[r0][c0]
        for c in rows.pop(r0):
            cols[c].discard(r0)
            if not cols[c]:
                del cols[c]
    return pivot_of_row


def rank_over_rationals(m):
    """Exact rank over the rationals: the number of pivots of a row-only
    elimination."""
    return len(_diagonalize(m.rows(), rows_only=True))


def smith_normal_form(m):
    """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix, all
    positive, with r equal to the rank."""
    pivots = _diagonalize(m.rows())
    # a unit divides everything: only the factors above 1 need the gcd sweep
    factors = sorted(v for v in pivots.values() if v > 1)
    changed = True
    while changed:
        changed = False
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                if factors[j] % factors[i]:
                    g = gcd(factors[i], factors[j])
                    factors[i], factors[j] = g, factors[i] * factors[j] // g
                    changed = True
        factors.sort()
    return [1] * (len(pivots) - len(factors)) + factors


def solve_in_image(m, vec):
    """Whether ``m x = vec`` has an integer solution; ``vec`` is a sparse
    dict indexed by row.

    The matrix is diagonalized with the target carried along the row
    operations as a one-column companion; solvability is divisibility on
    the pivot rows plus vanishing on the rows that reduce to zero.
    """
    carry = {r: {0: v} for r, v in vec.items() if v}
    pivots = _diagonalize(m.rows(), carry=carry)
    return all(r in pivots and v[0] % pivots[r] == 0
               for r, v in carry.items())


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


def boundary_matrix(cx, k, max_nnz=None):
    entries = cx.boundary_entries(k)
    if max_nnz is not None and len(entries.entries) > max_nnz:
        raise CapExceededError(
            f"boundary operator in degree {k} has more than {max_nnz} entries")
    return SparseIntMatrix.from_entries(entries)


def euler_characteristic(cx):
    return sum((-1) ** k * c for k, c in enumerate(cx.cell_counts()))


def homology(cx, max_nnz=None):
    """Betti numbers, torsion coefficients and Euler characteristic.

    ``b_k = #k-cells - rank D_k - rank D_{k+1}``; torsion in degree ``k``
    is the list of invariant factors of ``D_{k+1}`` exceeding 1.  The
    ranks are the lengths of the Smith normal forms, one elimination per
    matrix.
    """
    counts = cx.cell_counts()
    top = cx.max_dim
    ranks = [0] * (top + 2)
    factors = [[] for _ in range(top + 2)]
    for k in range(1, top + 1):
        factors[k] = smith_normal_form(boundary_matrix(cx, k, max_nnz=max_nnz))
        ranks[k] = len(factors[k])
    degrees = []
    for k in range(top + 1):
        betti = counts[k] - ranks[k] - ranks[k + 1]
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
    num_rows = len(cx.cells[degree])
    d = (cx.boundary_entries(degree + 1) if degree + 1 <= cx.max_dim
         else SparseEntries(num_rows, 0, ()))
    entries = []
    for j, z in enumerate(zs):
        for i, v in _chain_vector(z, cx).items():
            entries.append((i, j, v))
    shift = len(zs)
    for (r, c, v) in d.entries:
        entries.append((r, c + shift, v))
    return SparseIntMatrix(num_rows, shift + d.num_cols, entries), d


def class_span_rank(zs, cx, degree):
    """Rank over the rationals of the span of the classes of ``zs`` in
    degree-``degree`` homology, computed as
    ``rank [zs | D_{degree+1}] - rank D_{degree+1}``."""
    zs = list(zs)
    for z in zs:
        if z.degree != degree:
            raise ValueError("span input of wrong degree")
        if not is_cycle(z):
            raise ValueError("span input is not a cycle")
    if not zs:
        return 0
    aug, d = _augmented_matrix(zs, cx, degree)
    return rank_over_rationals(aug) - rank_over_rationals(
        SparseIntMatrix.from_entries(d))


def certify_integral_generation(zs, cx, degree):
    """Whether the classes of ``zs`` generate degree-``degree`` homology
    over the integers.

    The lattice ``L`` spanned by the cycles and the boundaries lies in the
    cycle lattice ``Z = ker D_degree``, which is saturated.  So ``L = Z``
    exactly when ``[zs | D_{degree+1}]`` has the rank of ``Z``,
    ``#cells - rank D_degree``, and all its invariant factors are 1: one
    Smith form.
    """
    zs = list(zs)
    for z in zs:
        if z.degree != degree or not is_cycle(z):
            raise ValueError("integral certification needs cycles of the right degree")
    cycle_rank = len(cx.cells[degree]) - rank_over_rationals(
        boundary_matrix(cx, degree))
    factors = smith_normal_form(_augmented_matrix(zs, cx, degree)[0])
    return len(factors) == cycle_rank and all(f == 1 for f in factors)
