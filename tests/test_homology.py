import importlib
import random
from math import factorial

import pytest

import graphconf as gc
from graphconf.homology import (SparseIntMatrix, rank_over_rationals,
                                smith_normal_form, solve_in_image)
from graphconf.checks import _random_matrix
from conftest import (fraction_rank, minors_gcd_invariant_factors,
                      reference_components, reference_integral_generation,
                      reference_kernel_basis, reference_pick_pivot)


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

def test_snf_hand_cases():
    assert smith_normal_form(SparseIntMatrix(2, 2, [(0, 0, 2)])) == [2]
    # gcd 2, determinant -4: invariant factors (2, 2)
    m = SparseIntMatrix(2, 2, [(0, 0, 2), (0, 1, 4), (1, 0, 6), (1, 1, 10)])
    assert smith_normal_form(m) == [2, 2]
    assert smith_normal_form(SparseIntMatrix(3, 3)) == []
    # +-1 input whose unit phase leaves the non-unit residual (-2)
    m = SparseIntMatrix(2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, -1)])
    assert smith_normal_form(m) == [1, 2]
    # the gcd fix-up reaches factors above 2, with and without a unit
    assert smith_normal_form(SparseIntMatrix(2, 2, [(0, 0, 6), (1, 1, 4)])) \
        == [2, 12]
    m = SparseIntMatrix(3, 3, [(0, 0, 1), (1, 1, 6), (2, 2, 4)])
    assert smith_normal_form(m) == [1, 2, 12]


def test_snf_against_minors_oracle():
    rng = random.Random(21)
    for count, lo, hi in ((200, -4, 4), (100, -1, 1)):
        for _ in range(count):
            m = random_matrix(rng, max_size=3, lo=lo, hi=hi)
            assert smith_normal_form(m) == minors_gcd_invariant_factors(m)


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


def planted_matrix(rng, size, factors=(2, 6, 12)):
    """``diag(1, ..., 1, factors)`` hidden by 4 * size random +-1 row and
    column operations, with its invariant factors."""
    diag = [1] * (size - len(factors)) + list(factors)
    a = [[d if i == j else 0 for j in range(size)] for i, d in enumerate(diag)]
    for _ in range(4 * size):
        i, j = rng.sample(range(size), 2)
        s = rng.choice((1, -1))
        if rng.random() < 0.5:
            a[i] = [x + s * y for x, y in zip(a[i], a[j])]
        else:
            for row in a:
                row[i] += s * row[j]
    entries = [(r, c, v) for r, row in enumerate(a) for c, v in enumerate(row)
               if v]
    return SparseIntMatrix(size, size, entries), diag


def test_pivot_search_matches_full_scan(monkeypatch):
    # the bounded search returns the full scan's pivot, ties included, in
    # every search of every routine built on the elimination (the kernel
    # basis is the reference one, on the same elimination)
    homology = importlib.import_module("graphconf.homology")
    search = homology._pick_pivot
    picked = []

    def checked(rows, cols):
        got = search(rows, cols)
        assert got == reference_pick_pivot(rows, cols)
        picked.append(abs(rows[got[0]][got[1]]) == 1)
        return got

    monkeypatch.setattr(homology, "_pick_pivot", checked)
    rng = random.Random(25)
    cases = [(_random_matrix(rng), None) for _ in range(60)]
    cases += [planted_matrix(rng, size) for size in (8, 20, 40, 60)]
    cases.append((SparseIntMatrix(
        2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, -1)]), [1, 2]))
    for m, diag in cases:
        factors = smith_normal_form(m)
        assert diag is None or factors == diag
        assert rank_over_rationals(m) == len(factors)
        column = {r: v for (r, c), v in m.data.items() if c == 0}
        assert solve_in_image(m, column)
        assert len(reference_kernel_basis(m)) == m.num_cols - len(factors)
    # both branches ran: a unit found by the bounded walk, and the full
    # scan when no unit is left
    assert True in picked and False in picked


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
    with pytest.raises(ValueError):
        nz = gc.Chain(cx.graph, 1, {cx.cells[1][0]: 1})
        gc.class_span_rank([nz], cx, 1)  # not a cycle


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


def integral_verdicts(chains, cx):
    """The one-Smith-form certificate on the full, empty and doubled
    inputs, each asserted equal to the kernel-plus-solve reference."""
    verdicts = []
    for zs in (chains, [], [z.scaled(2) for z in chains]):
        got = gc.certify_integral_generation(zs, cx, 1)
        assert got == reference_integral_generation(zs, cx, 1)
        verdicts.append(got)
    return verdicts


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


def test_homology_cross_checks_both_eliminations(small_complexes):
    # the Smith form length and the row-only rank agree with the dense
    # fraction oracle on every boundary matrix
    for key in ("h-n2", "k5-n2"):
        cx = small_complexes(key)
        for k in range(1, cx.max_dim + 1):
            d = gc.boundary_matrix(cx, k)
            assert len(smith_normal_form(d)) == rank_over_rationals(d) \
                == fraction_rank(d), (key, k)
    assert gc.homology(small_complexes("h-n2")).betti_vector() == (1, 3, 0)


def test_homology_matrix_cap(small_complexes):
    from graphconf.model import CapExceededError
    with pytest.raises(CapExceededError):
        gc.homology(small_complexes("h-n2"), max_nnz=10)
