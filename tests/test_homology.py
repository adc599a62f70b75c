import importlib
import random
from functools import reduce
from types import SimpleNamespace
from math import factorial, gcd, prod

import pytest

import graphconf as gc
from graphconf.model import Chain, boundary_chain
from graphconf.homology import (SparseIntMatrix, _diagonalize,
                                _incidence_rank, _operator, _replay,
                                rank_over_rationals, smith_normal_form,
                                solve_in_image)
from graphconf.checks import (_random_matrix, _random_unimodular_shuffle,
                              dense_rank_oracle, random_connected_graph,
                              wedge_corpus)
from conftest import (fraction_rank, integral_verdicts,
                      minors_gcd_invariant_factors, minors_solvable,
                      reference_augmented_matrix, reference_class_span,
                      reference_components, reference_diagonalize,
                      reference_kernel_basis, reference_smith_generation)


def random_matrix(rng, max_size=8, lo=-9, hi=9):
    nr, nc = rng.randint(1, max_size), rng.randint(1, max_size)
    entries = []
    seen = set()
    for _ in range(rng.randint(0, nr * nc)):
        r, c = rng.randrange(nr), rng.randrange(nc)
        if (r, c) in seen:
            continue
        seen.add((r, c))
        entries.append((r, c, rng.randint(lo, hi)))
    return SparseIntMatrix(nr, nc, entries)


# -- rank ----------------------------------------------------------------

def test_rank_trivial_cases():
    assert rank_over_rationals(SparseIntMatrix(4, 6)) == 0
    ident = SparseIntMatrix(5, 5, [(i, i, 1) for i in range(5)])
    assert rank_over_rationals(ident) == 5


def test_rank_star3_boundary(small_complexes):
    # connected with one independent cycle: rank D1 = cells0 - 1
    cx = small_complexes("star3-n2")
    d1 = gc.boundary_matrix(cx, 1)
    assert rank_over_rationals(d1) == len(cx.cells[0]) - 1
    assert fraction_rank(d1) == len(cx.cells[0]) - 1


def test_rank_against_dense_oracle():
    rng = random.Random(20)
    # the +-1 inputs take the unit-pivot phase first
    for count, lo, hi in ((400, -9, 9), (200, -1, 1)):
        for _ in range(count):
            m = random_matrix(rng, lo=lo, hi=hi)
            assert rank_over_rationals(m) == fraction_rank(m)


# -- Smith normal form ----------------------------------------------------

def snf_oracle_case(seed, index):
    """The matrix that ``checks.suite_snf_oracle(seed)`` draws as its case
    ``index``, replaying the suite's draws."""
    rng = random.Random(seed)
    for i in range(index + 1):
        size = 40 if i % 25 == 0 else rng.randint(1, 10)
        m = _random_matrix(rng, max_size=size)
        if i < index and m.num_rows <= 12 and m.num_cols <= 12 and i % 5 == 0:
            _random_unimodular_shuffle(rng, m)
    return m


def test_snf_hand_cases():
    assert smith_normal_form(SparseIntMatrix(2, 2, [(0, 0, 2)])) == [2]
    # gcd 2, determinant -4: invariant factors (2, 2)
    m = SparseIntMatrix(2, 2, [(0, 0, 2), (0, 1, 4), (1, 0, 6), (1, 1, 10)])
    assert smith_normal_form(m) == [2, 2]
    assert smith_normal_form(SparseIntMatrix(3, 3)) == []
    # +-1 input whose unit phase leaves the non-unit residual (-2)
    m = SparseIntMatrix(2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, -1)])
    assert smith_normal_form(m) == [1, 2]
    # residual pivots made into a divisibility chain, with and without a
    # unit
    assert smith_normal_form(SparseIntMatrix(2, 2, [(0, 0, 6), (1, 1, 4)])) \
        == [2, 12]
    m = SparseIntMatrix(3, 3, [(0, 0, 1), (1, 1, 6), (2, 2, 4)])
    assert smith_normal_form(m) == [1, 2, 12]
    # a residual whose last factor equals delta, the product of its
    # row-only pivots, which is zero modulo delta itself
    m = SparseIntMatrix(2, 2, [(0, 0, 2), (0, 1, 3), (1, 0, 4)])
    assert prod(_diagonalize(m.rows(), rows_only=True).values()) == 12
    assert smith_normal_form(m) == [1, 12]
    # case 950 of the property suite's snf-oracle run (seed 2026 + 7); the
    # factors are those of the remainder-cascade engine this one replaced
    m = snf_oracle_case(2033, 950)
    assert (m.num_rows, m.num_cols, m.nnz) == (36, 38, 117)
    assert smith_normal_form(m) == [1] * 26 + [2] * 5 + [10, 20, 120, 720]
    # the 59th draw of seed 24: no factor is pinned, the rank and the
    # invariance under unimodular operations are
    rng = random.Random(24)
    for _ in range(59):
        m = _random_matrix(rng)
    assert (m.num_rows, m.num_cols, m.nnz) == (35, 38, 121)
    factors = smith_normal_form(m)
    assert len(factors) == dense_rank_oracle(m) == rank_over_rationals(m)
    for _ in range(3):
        assert smith_normal_form(_random_unimodular_shuffle(rng, m)) == factors


def non_unit_matrix(rng, max_size, values=(2, 3, 4, 6, 8, 9, 10, 12, 30)):
    """Random entries none of which is a unit, so the unit phase leaves
    the whole (nonzero) matrix as its residual; a third of the draws get a
    row that is a multiple of another, for rank deficiency."""
    nr, nc = rng.randint(1, max_size), rng.randint(1, max_size)
    a = [[rng.choice((0,) + values) * rng.choice((1, -1)) for _ in range(nc)]
         for _ in range(nr)]
    if nr > 1 and rng.random() < 1 / 3:
        i, j = rng.sample(range(nr), 2)
        a[j] = [rng.choice((1, 2, -3)) * v for v in a[i]]
    return SparseIntMatrix(nr, nc, [(r, c, v) for r, row in enumerate(a)
                                    for c, v in enumerate(row) if v])


def test_snf_against_minors_oracle():
    rng = random.Random(21)
    for count, lo, hi in ((200, -4, 4), (100, -1, 1)):
        for _ in range(count):
            m = random_matrix(rng, max_size=3, lo=lo, hi=hi)
            assert smith_normal_form(m) == minors_gcd_invariant_factors(m)
    # residual-only inputs, and planted factors behind unit pivots
    torsion = 0
    for _ in range(200):
        m = non_unit_matrix(rng, 4)
        factors = smith_normal_form(m)
        assert factors == minors_gcd_invariant_factors(m)
        torsion += any(f > 1 for f in factors)
    assert torsion > 100
    for size in (3, 4, 5):
        m, diag = planted_matrix(rng, size, factors=(2, 6))
        assert smith_normal_form(m) == minors_gcd_invariant_factors(m) == diag


def test_snf_divisibility_and_rank():
    rng = random.Random(22)
    for count, lo, hi in ((200, -9, 9), (100, -1, 1)):
        for _ in range(count):
            m = random_matrix(rng, lo=lo, hi=hi)
            factors = smith_normal_form(m)
            assert len(factors) == rank_over_rationals(m)
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0
            assert all(f > 0 for f in factors)


def planted_matrix(rng, size, factors=(2, 6, 12), rank=None, image=False):
    """``diag(1, ..., 1, factors, 0, ...)`` of the given rank (default
    ``size``) hidden by 4 * size random +-1 row and column operations, with
    its invariant factors; with ``image``, also the columns of ``U``, the
    product of the row operations, as sparse dicts."""
    rank = size if rank is None else rank
    diag = [1] * (rank - len(factors)) + list(factors)
    a = [[d if i == j else 0 for j in range(size)] for i, d in enumerate(diag)]
    a += [[0] * size for _ in range(size - rank)]
    u = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(4 * size):
        i, j = rng.sample(range(size), 2)
        s = rng.choice((1, -1))
        if rng.random() < 0.5:
            a[i] = [x + s * y for x, y in zip(a[i], a[j])]
            u[i] = [x + s * y for x, y in zip(u[i], u[j])]
        else:
            for row in a:
                row[i] += s * row[j]
    entries = [(r, c, v) for r, row in enumerate(a) for c, v in enumerate(row)
               if v]
    m = SparseIntMatrix(size, size, entries)
    if not image:
        return m, diag
    cols = [{r: u[r][j] for r in range(size) if u[r][j]} for j in range(size)]
    return m, diag, cols


def test_pivot_queue_on_any_input(monkeypatch):
    # every pivot of every routine built on the elimination comes from the
    # column queue; the unit phase hands on no unit to the residual pass
    homology = importlib.import_module("graphconf.homology")
    diagonalize = homology._diagonalize
    residuals = []

    def checked(rows, rows_only=False, modulus=0, max_nnz=None, log=None):
        if modulus:
            residuals.append(dict(rows))
            assert all(abs(v) != 1 for row in rows.values()
                       for v in row.values())
        return diagonalize(rows, rows_only, modulus, max_nnz, log)

    monkeypatch.setattr(homology, "_diagonalize", checked)
    rng = random.Random(25)
    cases = [(_random_matrix(rng), None) for _ in range(60)]
    cases += [planted_matrix(rng, size) for size in (8, 20, 40, 60)]
    cases.append((SparseIntMatrix(
        2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, -1)]), [1, 2]))
    # column 0 is queued again under 4, its least value; the unit pivot in
    # column 2 turns its 5 into a unit and keeps its length, so only the
    # check before the residual pass finds that unit, ahead of the 2 that
    # column 1 offers
    unit_late = SparseIntMatrix(3, 3, [(0, 0, 4), (0, 2, 1), (1, 0, 5),
                                       (1, 1, 2), (1, 2, 1), (2, 1, 3),
                                       (2, 2, 1)])
    cases.append((unit_late, [1, 1, 11]))
    for m, diag in cases:
        factors = smith_normal_form(m)
        assert diag is None or factors == diag
        # the minors oracle is exponential: small or thin matrices only
        if min(m.num_rows, m.num_cols) <= 2 or max(m.num_rows, m.num_cols) <= 5:
            assert factors == minors_gcd_invariant_factors(m)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        if factors:
            assert factors[0] == reduce(gcd, (v for _, _, v in m.entries))
        assert rank_over_rationals(m) == len(factors) == fraction_rank(m) \
            == len(diagonalize(m.rows(), rows_only=True))
        column = {r: v for r, c, v in m.entries if c == 0}
        assert solve_in_image(m, column)
        assert len(reference_kernel_basis(m)) == m.num_cols - len(factors)
    assert residuals  # non-unit pivots came from the queue too
    # the recorded matrix answers without eliminating again; an equal,
    # fresh one hands the residual pass exactly the late unit's leftover
    residuals.clear()
    assert smith_normal_form(unit_late) == [1, 1, 11] and not residuals
    fresh = SparseIntMatrix(3, 3, unit_late.entries)
    assert smith_normal_form(fresh) == [1, 1, 11]
    assert residuals == [{2: {1: 11}}]


# the instances of the benchmark's homology ladder: spec, particles, sinks
HOMOLOGY_LADDER = (("k:5", 2, None), ("k33", 2, None), ("banana:4", 3, None),
                   ("h", 3, None), ("k:4", 3, None), ("k:4", 3, (0,)),
                   ("banana:4", 5, (0, 1)))


def _eliminations(m):
    """``(pivots, log, residual rows)`` of the elimination of ``m`` in the
    Smith, row-only and modular modes, by ``_diagonalize`` and by the
    reference loop, and the number of lone-row unit pivots it took.  The
    modulus is the one the Smith mode would give the whole matrix: twice
    its largest entry plus 2, times the product of its row-only pivots."""
    bound = max((abs(v) for _, _, v in m.entries), default=0)
    mod = 2 * (bound + 1) * prod(_diagonalize(m.rows(), rows_only=True)
                                 .values())
    runs = []
    for mode in ({}, {"rows_only": True}, {"modulus": mod}):
        for diagonalize in (_diagonalize, reference_diagonalize):
            rows, log = m.rows(), []
            pivots = diagonalize(rows, log=log, **mode)
            runs.append((list(pivots.items()), log, list(rows.items())))
    return runs


def _lone_unit_pivots(m):
    """How many unit pivots of the Smith elimination of ``m`` were the only
    entry of their row when taken.  No operation writes a pivot row once
    it is taken, so a replay of the unit log leaves each pivot row as it
    was then."""
    log = []
    _diagonalize(m.rows(), log=log)
    rows = _replay(log[0], m.rows())
    return sum(len(rows.get(r, ())) == 1 for r in log[0][1])


def test_lone_unit_rows_eliminate_like_row_operations(small_complexes):
    # a unit pivot alone in its row deletes its column's entries instead
    # of running row operations; pivots, logs and residual rows must be
    # those of the reference loop, which runs every operation, in every
    # mode, on every operator of the homology ladder and of the small
    # complexes, full and cleared, and on random matrices
    matrices = []
    complexes = [small_complexes(name) for name in small_complexes.names]
    complexes += [gc.enumerate_cells(gc.build_graph(gc.parse_graph_spec(
        spec, sinks=sinks or ())), n) for spec, n, sinks in HOMOLOGY_LADDER]
    for cx in complexes:
        for k in range(1, cx.max_dim + 1):
            matrices += [gc.boundary_matrix(cx, k),
                         _operator(cx, k)]
    rng = random.Random(26)
    matrices += [random_matrix(rng, max_size=rng.choice((6, 12, 24)),
                               lo=-1, hi=1) for _ in range(200)]
    # the _random_matrix inputs of the pivot queue test
    rng = random.Random(25)
    matrices += [_random_matrix(rng) for _ in range(60)]
    lone = 0
    for m in matrices:
        runs = _eliminations(m)
        for got, want in zip(runs[::2], runs[1::2]):
            assert got == want
        lone += _lone_unit_pivots(m)
    assert lone > 1000  # the deletion path ran


def test_k5_boundaries_are_unimodular(small_complexes):
    cx = small_complexes("k5-n2")
    for k in (1, 2):
        assert all(f == 1 for f in smith_normal_form(gc.boundary_matrix(cx, k)))


# -- integer solving -------------------------------------------------------

def test_solve_in_image():
    m = SparseIntMatrix(2, 1, [(0, 0, 2)])
    assert solve_in_image(m, {0: 4})
    assert not solve_in_image(m, {0: 3})
    assert not solve_in_image(m, {1: 1})
    m = SparseIntMatrix(1, 2, [(0, 0, 2), (0, 1, 3)])
    assert solve_in_image(m, {0: 1})
    assert solve_in_image(SparseIntMatrix(3, 2), {})
    # Smith form [1, 2]: the second pivot comes from the non-unit residual
    m = SparseIntMatrix(2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, -1)])
    assert solve_in_image(m, {0: 2})
    assert not solve_in_image(m, {0: 1})
    # a rank-deficient residual: a target off its rational span, one in
    # the span but not the lattice, and one in the lattice
    m = SparseIntMatrix(2, 2, [(0, 0, 2), (0, 1, 4), (1, 0, 4), (1, 1, 8)])
    assert not solve_in_image(m, {0: 2, 1: 2})
    assert not solve_in_image(m, {0: 1, 1: 2})
    assert solve_in_image(m, {0: 2, 1: 4})
    # (-2, 1) is off the span of (2, 3) but equals 3 * (2, 3) modulo 8, so
    # the rank test, not the modular one, must reject it
    m = SparseIntMatrix(2, 1, [(0, 0, 2), (1, 0, 3)])
    assert not solve_in_image(m, {0: -2, 1: 1})
    assert solve_in_image(m, {0: -4, 1: -6})
    # the factor equal to delta: (0, 12) = m (3, -2) but (0, 6) is not
    m = SparseIntMatrix(2, 2, [(0, 0, 2), (0, 1, 3), (1, 0, 4)])
    assert solve_in_image(m, {1: 12}) and not solve_in_image(m, {1: 6})
    # planted residuals: U (d_j e_j) is in the image of U diag V and U e_j
    # is not when d_j > 1; past the rank, U e_j is off the rational span
    # and so is every multiple of it
    rng = random.Random(26)
    for size, rank, factors in ((6, 6, (2, 6)), (8, 6, (3, 3, 9)),
                                (12, 9, (2, 4, 8)), (20, 17, (2, 2, 6, 12))):
        m, diag, cols = planted_matrix(rng, size, factors, rank, image=True)
        assert smith_normal_form(m) == diag
        for j, col in enumerate(cols):
            if j < rank:
                assert solve_in_image(m, {r: diag[j] * v
                                          for r, v in col.items()})
                assert solve_in_image(m, col) == (diag[j] == 1)
            else:
                assert not solve_in_image(m, col)
                assert not solve_in_image(m, {r: 720 * v
                                              for r, v in col.items()})


def test_solve_in_image_rejects_malformed_targets():
    # checked before any elimination: no record is made
    m = SparseIntMatrix(2, 2, [(0, 0, 1), (1, 1, 2)])
    for target in ({0: 3.5}, {0: 2.0}, {0: True}, {7: 1}, {-1: 1}, {2: 0},
                   {0.0: 1}, {"0": 1}):
        with pytest.raises(ValueError):
            solve_in_image(m, target)
    assert m._elimination is None
    assert solve_in_image(m, {0: 3, 1: 4}) and not solve_in_image(m, {1: 3})


def test_a_recorded_matrix_answers_with_no_elimination(monkeypatch):
    # after the first Smith form, the rank, the Smith form and every solve
    # replay the record; each matrix has a residual, and its targets lie in
    # the lattice, in the rational span but not the lattice, and off it
    homology = importlib.import_module("graphconf.homology")
    diagonalize = homology._diagonalize
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return diagonalize(*args, **kwargs)

    monkeypatch.setattr(homology, "_diagonalize", counted)
    cases = [
        # (-2, 1) is 3 (2, 3) modulo 8, the modulus, but off the span
        (SparseIntMatrix(2, 1, [(0, 0, 2), (1, 0, 3)]), [1],
         [({0: -4, 1: -6}, True), ({0: -2, 1: 1}, False),
          ({1: 1}, False)]),
        # a rank-deficient residual: (1, 2) is in the span, not the lattice
        (SparseIntMatrix(2, 2, [(0, 0, 2), (0, 1, 4), (1, 0, 4), (1, 1, 8)]),
         [2], [({0: 2, 1: 4}, True), ({0: 1, 1: 2}, False),
               ({0: 2, 1: 2}, False)]),
        # a unit phase, then the residual (-2)
        (SparseIntMatrix(2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, -1)]),
         [1, 2], [({0: 2}, True), ({0: 1, 1: 1}, True), ({0: 1}, False)]),
        # a unit, the residual (6, 4) of rank 1, and a zero row
        (SparseIntMatrix(4, 3, [(0, 0, 1), (0, 2, 5), (1, 1, 6), (2, 1, 4)]),
         [1, 2], [({0: 7, 1: 12, 2: 8}, True), ({1: 3, 2: 2}, False),
                  ({1: 1}, False), ({3: 1}, False), ({0: 1, 3: 2}, False)]),
        # the modulus is 18, and the target's 36 on row 1, a row of R that
        # no modular pivot takes, is a multiple of it, not a residue
        (SparseIntMatrix(7, 2, [(1, 0, 6), (3, 0, 8), (4, 1, -3), (5, 1, 5),
                                (6, 0, -3)]),
         [1, 1], [({1: 36, 3: 48, 4: 9, 5: -15, 6: -18}, True),
                  ({1: 36, 3: 48, 4: 9, 5: -15, 6: -17}, False)]),
    ]
    for m, factors, targets in cases:
        assert smith_normal_form(m) == factors and calls
        calls.clear()
        assert rank_over_rationals(m) == len(factors)
        assert smith_normal_form(m) == factors
        assert [solve_in_image(m, t) for t, _ in targets] \
            == [want for _, want in targets]
        assert not calls
        assert [minors_solvable(m, t) for t, _ in targets] \
            == [want for _, want in targets]


def _targets(rng, m):
    """Random sparse targets, and integer combinations of the columns of
    ``m`` (so in its image) with and without one entry moved."""
    cols = {}
    for r, c, v in m.entries:
        cols.setdefault(c, {})[r] = v
    targets = [{r: rng.randint(-4, 4) for r in rng.sample(
        range(m.num_rows), rng.randint(0, m.num_rows))} for _ in range(3)]
    for _ in range(3):
        t = {}
        for col in rng.sample(list(cols.values()), min(2, len(cols))):
            k = rng.randint(-3, 3)
            for r, v in col.items():
                t[r] = t.get(r, 0) + k * v
        targets.append(dict(t))
        r = rng.randrange(m.num_rows)
        t[r] = t.get(r, 0) + 1
        targets.append(t)
    return targets


def _recorded_cases(rng):
    """Random small matrices, non-unit ones and three planted ones, the
    last returned also as ``(matrix, factors, columns)``."""
    cases = [random_matrix(rng, max_size=4, lo=-2, hi=2) for _ in range(120)]
    cases += [non_unit_matrix(rng, 4) for _ in range(60)]
    planted = [planted_matrix(rng, size, factors, rank, image=True)
               for size, rank, factors in ((6, 5, (2, 6)), (10, 8, (3, 9)),
                                           (16, 14, (2, 4, 8)))]
    return cases + [m for m, _, _ in planted], planted


def _took_a_negative_unit(m, unit):
    """Whether the unit phase of ``m`` took a pivot -1, as far as its log
    tells.  After the replay each pivot row is its row when taken, and its
    pivot column is zero in every row left after it: a row whose entries
    of +-1 in such columns are all -1 took a pivot -1."""
    rows = _replay(unit, m.rows())
    units = unit[1]
    later = set()
    for r, row in rows.items():
        if r not in units:
            later |= row.keys()
    for r in reversed(list(units)):
        row = rows[r]
        signs = {v for c, v in row.items() if v in (1, -1) and c not in later}
        if signs == {-1}:
            return True
        later |= row.keys()
    return False


def test_recorded_elimination_answers_like_a_fresh_matrix():
    # a Smith form or a solve records the elimination on the matrix, and
    # every later call reads the record: in either order and repeated, each
    # answer equals the same call on an equal matrix with no record, and
    # the minors oracles on small matrices
    rng = random.Random(27)
    cases, planted = _recorded_cases(rng)
    negative = deficient = 0
    for i, m in enumerate(cases):
        targets = _targets(rng, m)

        def fresh():
            return SparseIntMatrix(m.num_rows, m.num_cols, m.entries)

        factors = smith_normal_form(fresh())
        verdicts = [solve_in_image(fresh(), t) for t in targets]
        if i % 2:
            assert smith_normal_form(m) == factors
        for _ in range(2):
            assert [solve_in_image(m, t) for t in targets] == verdicts
            assert smith_normal_form(m) == factors
        if max(m.num_rows, m.num_cols) <= 4:
            assert factors == minors_gcd_invariant_factors(m)
            assert verdicts == [minors_solvable(m, t) for t in targets]
        pivots, passes, residual = m._elimination
        # every logged operation adds a multiple of another row: no pivot
        # row is negated, and none is dropped by an operation
        assert all(r != r0 for ops, _, _ in passes for r, r0, _ in ops)
        # the unit pass's pivots are the record's pivot rows off R
        units = passes[0][1]
        assert units == dict.fromkeys(pivots.keys() - residual.keys(), 1)
        negative += _took_a_negative_unit(m, passes[0])
        assert bool(residual) == (len(passes) == 3)
        if residual:
            # the rows of R are the row-only pass's pivot rows and the
            # rows it reduced to zero, each of which took a row operation
            (echelon, span, _), (_, found, _) = passes[1:]
            assert len(found) == len(span)
            assert residual.keys() == {r for r, _, _ in echelon} | span.keys()
            deficient += len(residual) > len(span)
    assert negative > 20 and deficient > 10
    for (m, diag, cols), rank in zip(planted, (5, 8, 14)):
        assert smith_normal_form(m) == diag
        for j, col in enumerate(cols[:rank]):
            assert solve_in_image(m, {r: diag[j] * v for r, v in col.items()})
            assert solve_in_image(m, col) == (diag[j] == 1)
        assert not any(solve_in_image(m, col) for col in cols[rank:])
    # a returned list is the caller's to change
    m = cases[-1]
    factors = smith_normal_form(m)
    want = list(factors)
    factors[0] = 0
    factors.append(7)
    assert smith_normal_form(m) == want


def test_negated_matrices_answer_alike():
    # -m has every unit pivot of m with the other sign, so the two cover
    # both signs of a pivot row that is never negated: the same Smith
    # form, rank and solves, on the matrices of the recorded-elimination
    # test
    rng = random.Random(27)
    cases, _ = _recorded_cases(rng)
    for m in cases:
        neg = SparseIntMatrix(m.num_rows, m.num_cols,
                              [(r, c, -v) for r, c, v in m.entries])
        assert smith_normal_form(neg) == smith_normal_form(m)
        assert rank_over_rationals(neg) == rank_over_rationals(m)
        for t in _targets(rng, m):
            assert solve_in_image(neg, t) == solve_in_image(m, t)


def test_integer_kernel_basis():
    rng = random.Random(23)
    for count, lo, hi in ((100, -3, 3), (50, -1, 1)):
        for _ in range(count):
            m = random_matrix(rng, max_size=6, lo=lo, hi=hi)
            basis = reference_kernel_basis(m)
            assert len(basis) == m.num_cols - rank_over_rationals(m)
            rows = m.rows()
            for vec in basis:
                assert vec
                for r, row in rows.items():
                    assert sum(row.get(c, 0) * v
                               for c, v in vec.items()) == 0


# -- homology summaries -----------------------------------------------------

def test_reference_betti_table():
    for n in range(1, 5):
        assert gc.homology(gc.enumerate_cells(gc.interval(), n)).betti_vector() \
            == (factorial(n),)
        h = gc.homology(gc.enumerate_cells(gc.circle(), n))
        assert h.betti_vector() == (factorial(n - 1), factorial(n - 1))
        assert gc.homology(
            gc.enumerate_cells(gc.interval(sinks={0}), n)).betti_vector() == (1,)
        h = gc.homology(gc.enumerate_cells(gc.interval(sinks={0, 1}), n))
        want = (n - 2) * 2 ** (n - 1) + 1
        assert h.betti_vector() == ((1, want) if want else (1, 0))
        h = gc.homology(gc.enumerate_cells(gc.circle(sinks={0}), n))
        assert h.betti_vector() == (1, n)


def test_surface_profiles(small_complexes):
    h = gc.homology(small_complexes("banana4-n3"))
    assert h.betti_vector() == (1, 26, 1)
    assert h.torsion_free()
    assert h.euler == -24
    h = gc.homology(small_complexes("k5-n2"))
    assert h.betti_vector() == (1, 12, 1) and h.euler == -10
    h = gc.homology(gc.enumerate_cells(gc.complete_bipartite(3, 3), 2))
    assert h.betti_vector() == (1, 8, 1) and h.euler == -6


def test_planar_two_particle_profiles():
    # hand-counted cell totals: K4 has 102 - 216 + 108 cells, K2,3 has
    # 122 - 240 + 114, the three-edge banana 26 - 48 + 18; none of these
    # planar graphs gives a closed surface for two particles
    for g, chi, betti in ((gc.complete(4), -6, (1, 7, 0)),
                          (gc.complete_bipartite(2, 3), -4, (1, 5, 0)),
                          (gc.banana(3), -4, (1, 5, 0))):
        cx = gc.enumerate_cells(g, 2)
        assert gc.euler_characteristic(cx) == chi
        h = gc.homology(cx)
        assert h.betti_vector() == betti
        assert h.torsion_free()


def test_euler_characteristic_formulas():
    for n in range(1, 6):
        cx = gc.enumerate_cells(gc.interval(sinks={0, 1}), n)
        assert gc.euler_characteristic(cx) == (2 - n) * 2 ** (n - 1)
        cx = gc.enumerate_cells(gc.circle(sinks={0}), n)
        assert gc.euler_characteristic(cx) == 1 - n


def test_homology_consistency(small_complexes):
    # alternating sums over cells and over Betti numbers agree
    for key in ("h-n2", "banana4-n2", "star4-n2"):
        cx = small_complexes(key)
        h = gc.homology(cx)
        assert h.euler == sum((-1) ** k * c for k, c in enumerate(cx.cell_counts()))
        assert h.euler == sum((-1) ** k * b for k, b in enumerate(h.betti_vector()))
        assert reference_components(cx) == h.betti(0)


def test_components_of_interval_two_particles():
    cx = gc.enumerate_cells(gc.interval(), 2)
    assert reference_components(cx) == 2


def test_summary_doc():
    h = gc.homology(gc.enumerate_cells(gc.circle(sinks={0}), 2))
    doc = h.to_doc()
    assert doc["euler"] == -1
    assert doc["degrees"][1] == {"degree": 1, "cells": 2, "betti": 2,
                                 "torsion": []}


# -- clearing ---------------------------------------------------------------

def full_smith_homology(cx):
    """``(betti, torsion)`` per degree from one Smith form of every full
    boundary matrix, with no clearing."""
    factors = [[]] + [smith_normal_form(cx.boundary_entries(k))
                      for k in range(1, cx.max_dim + 1)] + [[]]
    counts = cx.cell_counts()
    return [(counts[k] - len(factors[k]) - len(factors[k + 1]),
             tuple(d for d in factors[k + 1] if d > 1))
            for k in range(cx.max_dim + 1)]


def test_clearing_matches_full_smith_forms():
    complexes = [gc.enumerate_cells(g, n)
                 for _, g in wedge_corpus() for n in (1, 2, 3)]
    rng = random.Random(15)
    for _ in range(60):
        g = random_connected_graph(rng, max_edges=5, max_vertices=4)
        if not g.sinks:
            g = g.with_sinks({rng.randrange(g.num_vertices)})
        complexes.append(gc.enumerate_cells(g, rng.randint(1, 3)))
    for cx in complexes:
        h = gc.homology(cx)
        assert [(d.betti, d.torsion) for d in h.degrees] \
            == full_smith_homology(cx), cx.graph


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _unimodular_pair(rng, size, ops):
    """A random unimodular matrix and its inverse, from ``ops`` +-1 row
    operations on the identity."""
    u = [[int(i == j) for j in range(size)] for i in range(size)]
    inv = [row[:] for row in u]
    for _ in range(ops):
        i, j = rng.sample(range(size), 2)
        s = rng.choice((1, -1))
        u[i] = [x + s * y for x, y in zip(u[i], u[j])]
        # (E u)^-1 = u^-1 E^-1: the inverse column operation
        for row in inv:
            row[j] -= s * row[i]
    return u, inv


def exact_pair(rng, size, b_diag, a_diag):
    """``(A, B, U)`` with ``A B = 0`` and Smith forms ``a_diag`` and
    ``b_diag``: ``B = U D_B V`` and ``A = W D_A U^-1``, where ``D_A`` has
    its entries in the columns past the rank of ``B``; ``U`` is a list of
    rows."""
    assert len(b_diag) + len(a_diag) <= size
    u, u_inv = _unimodular_pair(rng, size, 4 * size)
    v, _ = _unimodular_pair(rng, size, 4 * size)
    w, _ = _unimodular_pair(rng, size, 4 * size)
    d_b = [[d if i == j else 0 for j in range(size)]
           for i, d in enumerate(b_diag + [0] * (size - len(b_diag)))]
    d_a = [[0] * size for _ in range(size)]
    for i, d in enumerate(a_diag):
        d_a[i][len(b_diag) + i] = d
    b = _matmul(_matmul(u, d_b), v)
    a = _matmul(_matmul(w, d_a), u_inv)
    assert not any(any(row) for row in _matmul(a, b))
    return (*(SparseIntMatrix(size, size, [
        (r, c, x) for r, row in enumerate(m) for c, x in enumerate(row) if x])
        for m in (a, b)), u)


class MatrixComplex:
    """A stand-in for a cube complex, given by its boundary matrices
    ``d[k]`` (``D_k`` for ``k >= 1``): its cells are their indices, its
    ``boundary_entries`` keeps the columns it is not asked to clear, as
    :meth:`CubeComplex.boundary_entries` does, and records them in
    ``columns[k]``, and ``_matrices`` is the cache of the operators that
    ``homology._operator`` builds.  ``boundary_columns`` reads the
    columns of ``d[k]`` that it names, as
    :meth:`CubeComplex.boundary_columns` does.  Its ``k``-cell ``i`` is
    ``(k, i)``, which ``index`` maps to itself."""

    def __init__(self, counts, d):
        self._keys = [list(range(c)) for c in counts]
        self._d = d
        self._matrices = {}
        self.max_dim = len(counts) - 1
        self.columns = {}
        self.index = {(k, i): (k, i)
                      for k, c in enumerate(counts) for i in range(c)}

    def cell_counts(self):
        return tuple(map(len, self._keys))

    def boundary_entries(self, k, cleared=()):
        m = self._d[k]
        self.columns[k] = [c for c in range(m.num_cols) if c not in cleared]
        if not cleared:
            return m
        place = {c: j for j, c in enumerate(self.columns[k])}
        return SparseIntMatrix(m.num_rows, len(place), [
            (r, place[c], v) for r, c, v in m.entries if c in place])

    def boundary_columns(self, k, cells):
        place = {c: j for j, c in enumerate(cells)}
        return [(r, place[c], v) for r, c, v in self._d[k].entries
                if c in place]


def test_clearing_an_exact_pair_with_a_residual(monkeypatch):
    # B has planted non-unit invariant factors, so its elimination runs a
    # residual phase: homology clears exactly the rows of B's unit phase
    # from A, and keeps the Betti numbers and torsion of the full matrices
    homology = importlib.import_module("graphconf.homology")
    diagonalize = homology._diagonalize
    found, smith = [], []

    def recorded(rows, rows_only=False, modulus=0, max_nnz=None, log=None):
        pivots = diagonalize(rows, rows_only, modulus, max_nnz, log)
        if modulus:
            found.append(set(pivots))
        elif not rows_only:
            smith.append((set(pivots), set(rows),
                          found.pop() if found else set()))
        return pivots

    monkeypatch.setattr(homology, "_diagonalize", recorded)
    rng = random.Random(16)
    for size, b_diag, a_diag in ((8, [1, 1, 1, 2, 6], [1, 3]),
                                 (12, [1] * 5 + [2, 2, 4], [1, 1, 5]),
                                 (14, [1] * 8 + [3], [1, 1, 2, 2, 6])):
        for _ in range(5):
            a, b, _ = exact_pair(rng, size, b_diag, a_diag)
            cx = MatrixComplex((size, size, size), {1: a, 2: b})
            smith.clear()
            h = gc.homology(cx)
            (pivots, residual, found_b), _ = smith
            unit = pivots - residual
            assert found_b and unit and unit.isdisjoint(found_b)
            assert unit | found_b == pivots
            assert cx.columns[1] == [c for c in range(size) if c not in unit]
            assert [(d.betti, d.torsion) for d in h.degrees] \
                == full_smith_homology(cx)
            assert h.torsion(0) == tuple(f for f in a_diag if f > 1)
            assert h.torsion(1) == tuple(f for f in b_diag if f > 1)
    # a residual pivot of value 1 is not unimodular: B = (2, 3)^T has no
    # unit entry and one residual pivot, 1; clearing its row from
    # A = (3, -2) would leave (-2) or (3), where the Smith form is (1)
    cx = MatrixComplex((1, 2, 1), {
        1: SparseIntMatrix(1, 2, [(0, 0, 3), (0, 1, -2)]),
        2: SparseIntMatrix(2, 1, [(0, 0, 2), (1, 0, 3)])})
    h = gc.homology(cx)
    assert cx.columns[1] == [0, 1]
    assert h.betti_vector() == (0, 0, 0) and h.torsion_free()
    # a D_1 that is no incidence matrix is eliminated, its torsion kept
    assert cx._matrices[1]._elimination is not None


def test_incidence_rank():
    # a path 0 - 1 - 2, an isolated row 3 and an empty column (a loop)
    path = SparseIntMatrix(4, 3, [(0, 0, 1), (1, 0, -1), (1, 1, -1),
                                  (2, 1, 1)])
    assert _incidence_rank(path) == 2
    # a triangle: its third edge closes a cycle
    assert _incidence_rank(SparseIntMatrix(3, 3, [
        (0, 0, -1), (1, 0, 1), (1, 1, -1), (2, 1, 1), (0, 2, 1),
        (2, 2, -1)])) == 2
    assert _incidence_rank(SparseIntMatrix(0, 0)) == 0
    for entries in ([(0, 0, 1), (1, 0, 1)],  # equal signs
                    [(0, 0, 2), (1, 0, -2)],  # not units
                    [(0, 0, 1)],  # one end
                    [(0, 0, 1), (1, 0, -1), (2, 0, 1)]):  # three ends
        assert _incidence_rank(SparseIntMatrix(3, 1, entries)) is None


def test_homology_reads_d1_from_components(small_complexes):
    # homology takes rank D_1 from the components of the 1-skeleton and
    # makes no record of it; every degree must answer as the Smith forms
    # of the full boundary matrices do
    path = gc.Graph(3, [(0, 1), (1, 2)])  # D_1 is the top operator
    fresh = [gc.enumerate_cells(path, n) for n in (2, 3)]
    assert [gc.homology(cx).betti(0) for cx in fresh] == [2, 6]
    # loops at a sink give empty columns of D_1
    loops = gc.Graph(2, [(0, 0), (0, 1), (1, 1)], sinks={0})
    fresh.append(gc.enumerate_cells(loops, 2))
    assert gc.homology(fresh[-1]).betti_vector() == (1, 6, 2)
    rng = random.Random(27)
    for _ in range(20):
        g = random_connected_graph(rng, max_edges=4, max_vertices=4)
        sinks = sorted(g.sinks or {rng.randrange(g.num_vertices)})
        edges = [(s, s) for s in sinks if rng.random() < 0.5]
        edges = list(g.edges) + (edges or [(sinks[0], sinks[0])])
        fresh.append(gc.enumerate_cells(
            gc.Graph(g.num_vertices, edges, sinks), rng.randint(1, 3)))
    # the shared small complexes may hold records made by other tests
    shared = [small_complexes(name) for name in small_complexes.names]
    for cx in fresh + shared:
        h = gc.homology(cx)
        assert [(d.betti, d.torsion) for d in h.degrees] \
            == full_smith_homology(cx), cx.graph
    empty = 0
    for cx in fresh:
        if cx.max_dim:
            assert cx._matrices[1]._elimination is None
            d1 = cx.boundary_entries(1)
            empty += d1.num_cols - len({c for _, c, _ in d1.entries})
    assert empty > 20


def test_span_through_a_residual_matches_the_smith_form():
    # no real complex leaves a residual after the unit phase, so planted
    # exact pairs reach that branch of the span: with F the Smith form of
    # [zs | B], it must give len(F) - rank B, saturated iff F is all ones
    rng = random.Random(19)
    for size, b_diag, a_diag in ((8, [1, 1, 2, 6], [1, 3]),
                                 (12, [1] * 5 + [2, 2, 4], [1, 5]),
                                 (14, [1] * 6 + [3, 9], [2, 2, 4])):
        for _ in range(4):
            a, b, u = exact_pair(rng, size, b_diag, a_diag)
            cx = MatrixComplex((size, size, size), {1: a, 2: b})

            def cycle(j, scale=1):
                # U e_j, in ker A for j < rank B and past the ranks of both
                return SimpleNamespace(degree=1, terms={
                    (1, r): scale * u[r][j] for r in range(size) if u[r][j]})

            j = len(b_diag) - 1  # its factor exceeds 1
            lattice = cycle(j, b_diag[j])  # a column of U D_B: a boundary
            span = cycle(j)  # in the rational span of B, not its lattice
            off = cycle(size - 1)  # off the span of B
            for zs in ([lattice], [span], [off], [lattice, span, off]):
                factors = smith_normal_form(
                    reference_augmented_matrix(zs, cx, 1))
                assert gc.class_span(zs, cx, 1) == (
                    len(factors) - len(b_diag), all(f == 1 for f in factors))
            assert b._elimination[2]  # the residual R was reached
            assert gc.class_span([span], cx, 1) == (0, False)
            assert gc.class_span([lattice, off], cx, 1)[0] == 1
    # the same oracle on complexes of random graphs with sinks, where the
    # chains only replay the unit phase
    rng = random.Random(20)
    for _ in range(40):
        g = random_connected_graph(rng, max_edges=5, max_vertices=4)
        if not g.sinks:
            g = g.with_sinks({rng.randrange(g.num_vertices)})
        cx = gc.enumerate_cells(g, rng.randint(1, 3))
        d = gc.boundary_matrix(cx, 2)
        rank_d = rank_over_rationals(SparseIntMatrix(
            d.num_rows, d.num_cols, d.entries))
        chains = gc.enumerate_basic_classes(cx, degree=1).chains
        for zs in (chains, [], [z.scaled(2) for z in chains]):
            factors = smith_normal_form(reference_augmented_matrix(zs, cx, 1))
            assert gc.class_span(zs, cx, 1) == (
                len(factors) - rank_d, all(f == 1 for f in factors)), g


def test_clearing_below_the_top_keeps_spans_and_solves():
    # spans and solves read D_{k+1} cleared by the record of D_{k+2}; they
    # must answer as the full operator does.  Each degree below the top
    # one is checked (the top one only where nothing is below it), degree
    # 0 with single 0-cells as its candidates
    rng = random.Random(21)
    complexes = [gc.enumerate_cells(gc.complete(4), 3),
                 gc.enumerate_cells(gc.h_graph(), 4),
                 gc.enumerate_cells(gc.banana(4, sinks={0}), 4)]
    while len(complexes) < 6:
        g = random_connected_graph(rng, max_edges=6, max_vertices=5)
        try:
            cx = gc.enumerate_cells(g, rng.randint(2, 3), max_cells=1500)
        except gc.model.CapExceededError:
            continue
        if cx.max_dim >= 3 and cx.boundary_entries(cx.max_dim).nnz:
            complexes.append(cx)
    for cx in complexes:
        g = cx.graph
        for k in range(max(cx.max_dim - 1, 1)):
            if k:
                chains = gc.enumerate_basic_classes(cx, degree=1).chains
            else:
                chains = [Chain(g, 0, {c: 1}) for c in rng.sample(
                    cx.cells[0], min(3, len(cx.cells[0])))]
            full = smith_normal_form(cx.boundary_entries(k + 1))
            for zs in (chains, [], [z.scaled(2) for z in chains]):
                factors = smith_normal_form(
                    reference_augmented_matrix(zs, cx, k))
                rank, saturated = gc.class_span(zs, cx, k)
                assert (rank, saturated) == (len(factors) - len(full), all(
                    f == 1 for f in factors)), (g, k)
                assert (saturated and rank == gc.homology(cx).betti(k)) \
                    == reference_smith_generation(zs, cx, k)
            assert (cx._matrices[k + 1].num_cols < cx.cell_counts()[k + 1]) \
                == (k + 1 < cx.max_dim)
            z = rng.choice(chains)
            b = boundary_chain(Chain(g, k + 1, {
                c: rng.choice((-2, -1, 1, 2)) for c in rng.sample(
                    cx.cells[k + 1], min(3, len(cx.cells[k + 1])))}))
            for t in (z, z.scaled(2), b, b + z):
                aug = smith_normal_form(reference_augmented_matrix([t], cx, k))
                assert gc.is_boundary(t, cx) == (aug == full), (g, k)


def test_k4_four_particles():
    # four boundary matrices, each below the top cleared by the unit
    # pivots of the one above it
    h = gc.homology(gc.enumerate_cells(gc.complete(4), 4))
    assert h.betti_vector() == (1, 18, 161, 0, 0)
    assert h.torsion_free() and h.euler == 144


# -- cycles, boundaries, spans ----------------------------------------------

def test_zero_chain_is_cycle_and_boundary(small_complexes):
    cx = small_complexes("star3-n2")
    z = gc.Chain(cx.graph, 1)
    assert gc.is_cycle(z)
    assert gc.is_boundary(z, cx)


def test_boundary_of_two_cell_is_cycle_and_boundary(small_complexes):
    cx = small_complexes("banana4-n3")
    cell = cx.cells[2][5]
    z = gc.boundary_chain(gc.Chain(cx.graph, 2, {cell: 1}))
    assert gc.is_cycle(z)
    assert gc.is_boundary(z, cx)


def test_is_boundary_degree_checks(small_complexes):
    cx = small_complexes("star3-n2")
    other = gc.enumerate_cells(gc.banana(2), 1)
    z = gc.Chain(other.graph, 0, {other.cells[0][0]: 1})
    with pytest.raises(ValueError):
        gc.is_boundary(z, cx)


def test_span_rank_basics(small_complexes):
    cx = small_complexes("banana4-n3")
    assert gc.class_span_rank([], cx, 2) == 0
    boundaries = [gc.boundary_chain(gc.Chain(cx.graph, 2, {c: 1}))
                  for c in cx.cells[2][:6]]
    assert gc.class_span_rank(boundaries, cx, 1) == 0
    nz = gc.Chain(cx.graph, 1, {cx.cells[1][0]: 1})
    with pytest.raises(ValueError, match="not a cycle"):
        gc.class_span_rank([nz], cx, 1)
    # above the top degree the row count comes from the shape of D_{k+1}
    z = gc.nonproduct_cycle_chain(cx.graph)
    assert len(z) == 144 and gc.is_cycle(z)
    low = gc.enumerate_cells(gc.banana(4), 1)
    assert low.max_dim == 1
    for span in (gc.class_span_rank, gc.class_span):
        with pytest.raises(ValueError, match="support outside the complex"):
            span([z], low, 2)
    assert gc.class_span([], low, 3) == (0, True)  # H_3 = 0
    with pytest.raises(ValueError, match="wrong degree"):
        gc.class_span([z], cx, 1)
    # every chain is indexed before any is tested as a cycle
    with pytest.raises(ValueError, match="support outside the complex"):
        gc.class_span([nz], low, 1)


def test_span_rank_monotone_and_capped(small_complexes):
    cx = small_complexes("star4-n2")
    b1 = gc.homology(cx).betti(1)
    chains = gc.enumerate_basic_classes(cx, degree=1).chains
    last = 0
    for i in range(1, len(chains) + 1):
        r = gc.class_span_rank(chains[:i], cx, 1)
        assert last <= r <= b1
        last = r
    assert last == b1


class Counted:
    """An iterator over ``items`` that counts the items read from it."""

    def __init__(self, items):
        self._items = iter(items)
        self.read = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._items)
        self.read += 1
        return item


def test_streamed_span_answers_like_reading_everything():
    # the streamed span stops once the chains it read generate H_k; on
    # valid input it must answer as reading every chain does, in degrees 1
    # and 2, on the full, empty and doubled candidates and on a list that
    # only its last chain completes: the shortest prefix of the candidates
    # that generates, where there are at most 200 of them.  Three
    # particles on the wedges, up to 400 candidates: two particles give
    # few enough that the span mostly reads them whole
    rng = random.Random(23)
    cases = [(g, 3) for _, g in wedge_corpus()]
    while len(cases) < len(wedge_corpus()) + 10:
        g = random_connected_graph(rng, max_edges=4, max_vertices=4)
        if not g.sinks:
            g = g.with_sinks({rng.randrange(g.num_vertices)})
        cases.append((g, rng.randint(2, 3)))
    stopped = completed = 0
    for g, n in cases:
        cx = gc.enumerate_cells(g, n)
        h = gc.homology(cx)
        for degree in (1, 2):
            chains = list(gc.enumerate_basic_classes(cx, degree).chains)
            if len(chains) > 400:
                continue
            doubled = [z.scaled(2) for z in chains]
            inputs = [chains, [], doubled]
            whole = reference_class_span(chains, cx, degree)
            betti = h.betti(degree)
            if whole == (betti, True) and betti and len(chains) <= 200:
                lo, hi = 1, len(chains)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if reference_class_span(chains[:mid], cx, degree) == whole:
                        hi = mid
                    else:
                        lo = mid + 1
                last = chains[:lo]
                assert reference_class_span(last[:-1], cx, degree) != whole
                inputs.append(last)
                completed += 1
            for i, zs in enumerate(inputs):
                counted = Counted(zs)
                answer = gc.class_span(counted, cx, degree)
                assert answer == reference_class_span(zs, cx, degree), (
                    g, n, degree, i)
                if counted.read < len(zs):
                    assert answer == (betti, True)
                    stopped += 1
    assert stopped and completed


def test_span_stops_reading_once_it_generates(small_complexes):
    # k:5 n2 generates H_1 over Z from its first 149 of 625 candidates, so
    # the span returns at a checkpoint before their end, and the chains
    # after it are neither built nor read nor checked
    cx = small_complexes("k5-n2")
    bc = gc.enumerate_basic_classes(cx, degree=1)
    counted = Counted(bc.chains)
    assert gc.class_span(counted, cx, 1) == (12, True)
    assert 149 <= counted.read < 625
    assert len(bc.chains._built) == counted.read
    assert len(bc.chains) == 625
    not_a_cycle = gc.Chain(cx.graph, 1, {cx.cells[1][0]: 1})
    assert gc.class_span(bc.chains[:counted.read] + [not_a_cycle], cx, 1) \
        == (12, True)
    with pytest.raises(ValueError, match="not a cycle"):
        gc.class_span([not_a_cycle] + bc.chains[:], cx, 1)
    # the rank alone reads the same way
    counted = Counted(bc.chains)
    assert gc.class_span_rank(counted, cx, 1) == 12
    assert counted.read < 625


def test_span_skips_the_smith_form_short_of_b_k_modulo_2(monkeypatch):
    # doubled candidates have rank 0 modulo 2, so their span takes one
    # Smith form, at their end; the candidates themselves take one at the
    # checkpoint whose rank modulo 2 reaches b_1.  (A Smith form with
    # invariant factors other than 1 calls _diagonalize again on its
    # residual, rows only and modulo a multiple of them.)
    homology = importlib.import_module("graphconf.homology")
    diagonalize, add_mod_2 = homology._diagonalize, homology._add_mod_2
    smith, added = [], []

    def counted(rows, rows_only=False, modulus=0, max_nnz=None, log=None):
        smith.append(not (rows_only or modulus))
        return diagonalize(rows, rows_only, modulus, max_nnz, log)

    def counted_add(basis, bits, rows):
        added.append(len(rows))
        return add_mod_2(basis, bits, rows)

    cx = gc.enumerate_cells(gc.complete(5), 2)
    gc.homology(cx)
    chains = gc.enumerate_basic_classes(cx, degree=1).chains
    monkeypatch.setattr(homology, "_diagonalize", counted)
    monkeypatch.setattr(homology, "_add_mod_2", counted_add)
    assert gc.class_span([z.scaled(2) for z in chains], cx, 1) == (12, False)
    assert smith.count(True) == 1 and len(added) > 1
    smith.clear()
    counted_chains = Counted(chains)
    assert gc.class_span(counted_chains, cx, 1) == (12, True)
    assert smith == [True] and counted_chains.read < len(chains)
    # tripled candidates reach b_1 modulo 2 but have factors 3: the Smith
    # forms at 256 and 512 chains miss, and the span reads to the end
    smith.clear()
    counted_chains = Counted([z.scaled(3) for z in chains])
    assert gc.class_span(counted_chains, cx, 1) == (12, False)
    assert counted_chains.read == len(chains) and smith.count(True) == 3


def test_rank_mod_2_grows_like_a_bitmask_elimination():
    # columns added in parts, on rows seen in any order, give the rank over
    # GF(2) of all of them, and the parts are left unchanged
    add_mod_2 = importlib.import_module("graphconf.homology")._add_mod_2

    def bitmask_rank(rows):
        basis = {}  # leading bit: row
        for row in rows:
            while row:
                top = row.bit_length() - 1
                if top not in basis:
                    basis[top] = row
                    break
                row ^= basis[top]
        return len(basis)

    rng = random.Random(24)
    for _ in range(300):
        m = random_matrix(rng, max_size=9)
        rows = m.rows()
        cuts = sorted(rng.randint(0, m.num_cols) for _ in range(2))
        basis, bits = {}, {}
        for lo, hi in zip([0] + cuts, cuts + [m.num_cols]):
            part = {r: {c: v for c, v in row.items() if lo <= c < hi}
                    for r, row in rows.items()}
            copy = {r: dict(row) for r, row in part.items()}
            add_mod_2(basis, bits, part)
            assert part == copy
            masks = [sum(1 << c for c, v in row.items() if v % 2 and c < hi)
                     for row in rows.values()]
            assert len(basis) == bitmask_rank(masks)


def test_integral_generation_certificate(small_complexes):
    # the empty input misses the rank, the doubled one a unit factor
    cx = small_complexes("star3-n2")
    chains = gc.enumerate_basic_classes(cx, degree=1).chains
    assert integral_verdicts(chains, cx) == [True, False, False]


def test_integral_generation_on_small_instances(small_complexes):
    # the enumerated candidates generate over the integers, not just
    # rationally, on torsion-free instances small enough for the reference
    cases = [(key, small_complexes(key))
             for key in ("h-n2", "intervalsinks-n2", "banana4-n2")]
    cases.append(("circle-n3", gc.enumerate_cells(gc.circle(), 3)))
    for key, cx in cases:
        chains = gc.enumerate_basic_classes(cx, degree=1).chains
        assert integral_verdicts(chains, cx) == [True, False, False], key


def test_matrix_entry_validation():
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, [(0, 0, 1), (0, 0, 2)])
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, [(3, 0, 1)])
    # zeros are checked too, and stored entries are the sorted nonzeros
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, [(0, 2, 0)])
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, [(0, 0, 0), (0, 0, 1)])
    # shapes, indices and values are ints: nothing is truncated into one
    for shape, entries in (((2, 2), [(0, 0, 1.5), (1, 1, 2)]),
                           ((2, 2), [(0, 0, 2.0)]), ((2, 2), [(0.5, 0, 1)]),
                           ((2, 2), [(0, 1.0, 1)]), ((2, 2), [(0, 0, True)]),
                           ((2, 2), [(None, 0, 1), (0, 0, 1)]),
                           ((2.5, 2), [(2, 0, 1)]), ((2, "2"), []),
                           ((-1, 2), []), ((2, -3), []), ((True, 1), [])):
        with pytest.raises(ValueError):
            SparseIntMatrix(*shape, entries)
    assert SparseIntMatrix(0, 3).entries == ()
    m = SparseIntMatrix(2, 3, [(1, 0, 4), (0, 2, -1), (0, 1, 0), (0, 0, 2)])
    assert m.entries == ((0, 0, 2), (0, 2, -1), (1, 0, 4)) and m.nnz == 3
    assert m.rows() == {0: {0: 2, 2: -1}, 1: {0: 4}}
    assert m == SparseIntMatrix(2, 3, reversed(m.entries))


def test_homology_cross_checks_both_eliminations(small_complexes):
    # the Smith form length and the row-only rank agree with the dense
    # fraction oracle on every boundary matrix
    for key in ("h-n2", "k5-n2"):
        cx = small_complexes(key)
        for k in range(1, cx.max_dim + 1):
            d = gc.boundary_matrix(cx, k)
            assert len(smith_normal_form(d)) == rank_over_rationals(d) \
                == fraction_rank(d) \
                == len(_diagonalize(d.rows(), rows_only=True)), (key, k)
    assert gc.homology(small_complexes("h-n2")).betti_vector() == (1, 3, 0)


def test_homology_matrix_cap(small_complexes):
    from graphconf.model import CapExceededError
    with pytest.raises(CapExceededError):
        gc.homology(small_complexes("h-n2"), max_nnz=10)
    # operators recorded without the cap still have their entries capped
    cx = gc.enumerate_cells(gc.h_graph(), 2)
    h = gc.homology(cx)
    cap = max(m.nnz for m in cx._matrices.values())
    assert gc.homology(cx, max_nnz=cap) == h
    with pytest.raises(CapExceededError, match="entries"):
        gc.homology(cx, max_nnz=10)
