"""Acceptance criteria, one test per criterion.

Every expected number here is pinned exactly; tolerances are exact
equality throughout.  Each test prints one PASS line per criterion so a
verbose run doubles as the acceptance report.
"""

from math import factorial

import graphconf as gc
from graphconf import checks
from conftest import integral_verdicts


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_reference_homology_table():
    """Exact Betti numbers and torsion for the five small families,
    particle counts 1 through 5."""
    families = [
        (lambda: gc.interval(), lambda n: (factorial(n),)),
        (lambda: gc.circle(), lambda n: (factorial(n - 1), factorial(n - 1))),
        (lambda: gc.interval(sinks={0}), lambda n: (1,)),
        (lambda: gc.interval(sinks={0, 1}),
         lambda n: (1, (n - 2) * 2 ** (n - 1) + 1)),
        (lambda: gc.circle(sinks={0}), lambda n: (1, n)),
    ]

    def trim(v):
        v = list(v)
        while v and v[-1] == 0:
            v.pop()
        return tuple(v)

    for builder, expected in families:
        for n in range(1, 6):
            h = gc.homology(gc.enumerate_cells(builder(), n))
            assert trim(h.betti_vector()) == trim(expected(n)), (builder(), n)
            assert h.torsion_free(), (builder(), n)
    report(1, "reference Betti table exact for n = 1..5, all torsion-free")


def test_criterion_2_cell_counts():
    """Exact cell counts and Euler characteristics of the two 1-dimensional
    sink models."""
    for n in range(1, 6):
        cx = gc.enumerate_cells(gc.interval(sinks={0, 1}), n)
        assert cx.cell_counts() == (2 ** n, n * 2 ** (n - 1))
        assert gc.euler_characteristic(cx) == (2 - n) * 2 ** (n - 1)
        cx = gc.enumerate_cells(gc.circle(sinks={0}), n)
        assert cx.cell_counts() == (1, n)
        assert gc.euler_characteristic(cx) == 1 - n
    report(2, "cube counts 2^n, n*2^(n-1) and 1, n with the stated Euler"
              " characteristics")


def test_criterion_3_complete_graph_surfaces():
    h = gc.homology(gc.enumerate_cells(gc.complete(5), 2))
    assert h.betti_vector() == (1, 12, 1)
    assert h.torsion_free() and h.euler == -10
    h = gc.homology(gc.enumerate_cells(gc.complete_bipartite(3, 3), 2))
    assert h.betti_vector() == (1, 8, 1)
    assert h.torsion_free() and h.euler == -6
    report(3, "two particles on K5 and K33: genus 6 and genus 4 homology"
              " surfaces")


def test_criterion_4_nonproduct_two_cycle():
    cx = gc.enumerate_cells(gc.banana(4), 3)
    h = gc.homology(cx)
    assert h.betti_vector() == (1, 26, 1)
    assert h.torsion_free() and h.euler == -24
    assert cx.max_dim == 2
    z = gc.nonproduct_cycle(cx)
    assert len(z) == 144
    assert gc.is_cycle(z)
    assert not gc.is_boundary(z, cx)
    assert gc.class_span_rank([z], cx, 2) == 1 == h.betti(2)
    products = gc.enumerate_basic_classes(cx, degree=2)
    assert gc.class_span_rank(products.chains, cx, 2) == 0
    report(4, "genus-13 profile, no 3-cells, the 144-cell cycle generates"
              " degree 2, and no products reach it")


def test_criterion_5_four_star_relation():
    g = gc.star(4)
    cx = gc.enumerate_cells(g, 2)
    ends = tuple(sorted(g.ends_at(0)))
    assert gc.star4_relation_chain(cx.graph, 0, ends, (0, 1)).is_zero()
    gb = gc.banana(4)
    cxb = gc.enumerate_cells(gb, 2)
    ends = tuple(2 * e for e in range(4))
    assert gc.star4_relation_chain(cxb.graph, 0, ends, (0, 1)).is_zero()
    report(5, "the signed four-star relation vanishes cell by cell on the"
              " 4-star and at a four-edge junction")


def test_criterion_6_tree_corpus_generation():
    """Wedges of up to two factors from {3-star, 4-star, circle}, the
    h-graph, and their one-sink variants: torsion-free with degree-1 span
    equal to the first Betti number and generation over Z, for up to three
    particles."""
    corpus = checks.wedge_corpus()
    assert len(corpus) == 18
    checked = 0
    for name, g in corpus:
        for n in (1, 2, 3):
            cx = gc.enumerate_cells(g, n)
            h = gc.homology(cx)
            assert h.torsion_free(), (name, n)
            bc = gc.enumerate_basic_classes(cx, degree=1)
            rank = gc.class_span_rank(bc.chains, cx, 1) if bc.chains else 0
            assert rank == h.betti(1), (name, n, rank, h.betti(1))
            # on three particles the kernel oracle takes up to minutes: the
            # one-Smith-form certificate alone there, doubled input included
            verdicts = integral_verdicts(bc.chains, cx, kernel=n < 3)
            assert verdicts[0], (name, n)
            assert h.betti(1) == 0 or verdicts[1:] == [False, False], \
                (name, n, verdicts)
            checked += 1
    report(6, f"{checked} corpus instances torsion-free with full degree-1"
              " generation over Z")


def test_criterion_7_general_graph_generation():
    for key, g in (("k5", gc.complete(5)),
                   ("k33", gc.complete_bipartite(3, 3)),
                   ("banana4", gc.banana(4))):
        cx = gc.enumerate_cells(g, 2)
        h = gc.homology(cx)
        bc = gc.enumerate_basic_classes(cx, degree=1)
        rank = gc.class_span_rank(bc.chains, cx, 1)
        assert rank == h.betti(1), (key, rank, h.betti(1))
        # the kernel oracle takes seconds per input on K33 and K5
        verdicts = integral_verdicts(bc.chains, cx, kernel=key == "banana4")
        assert verdicts == [True, False, False], (key, verdicts)
    report(7, "degree-1 classes generate over Z for two particles on K5,"
              " K33 and the four-edge banana")


def test_criterion_8_property_suites():
    results = checks.run_verification(only="property/", seed=2026,
                                      cases=1000)["checks"]
    assert len(results) == 8
    for r in results:
        assert r["details"]["cases"] >= 1000, r["id"]
        assert r["passed"], (r["id"], r["details"]["failures"][:3])
    names = ", ".join(r["id"].removeprefix("property/") for r in results)
    report(8, f"eight randomized suites with >= 1000 cases each: {names}")


def test_criterion_9_torsion_search_report():
    reportdoc = checks.torsion_search(seed=2127, instances=100)
    assert reportdoc["completed"]
    assert reportdoc["instances"] == 100
    findings = reportdoc["torsion_findings"]
    note = (f"{len(findings)} torsion finding(s), a noteworthy observation"
            if findings else "no torsion found")
    report(9, f"random-graph torsion search completed on 100 instances;"
              f" {note}")
