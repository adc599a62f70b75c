"""Built-in verification suite: named checks over the reference values,
seeded property suites, and the random torsion search.

Each check carries a reference string stating the expected mathematical
fact, so every number in a verification report traces back to a claim.
Checks are ordered by id and run sequentially; results are deterministic
for a fixed seed.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import cycles as cyc
from . import graphs as gr
from .homology import (SparseIntMatrix, _diagonalize, class_span,
                       class_span_rank, euler_characteristic, homology,
                       is_boundary, is_cycle, rank_over_rationals,
                       smith_normal_form, solve_in_image)
from . import model as mdl


@dataclass
class Check:
    check_id: str
    description: str
    reference: str
    run: object  # () -> (bool, dict)


def _result(check):
    try:
        passed, details = check.run()
    except mdl.CapExceededError as exc:
        passed, details = False, {"error": f"cap exceeded: {exc}"}
    return {"id": check.check_id, "description": check.description,
            "reference": check.reference, "passed": bool(passed),
            "details": details}


# -- small-model reference table ---------------------------------------------

def _baseline_families():
    """(key, graph builder, expected Betti vector as a function of n)."""
    return [
        ("interval", lambda: gr.interval(),
         lambda n: (factorial(n),),
         "n particles on an interval: n! contractible components"),
        ("circle", lambda: gr.circle(),
         lambda n: (factorial(n - 1), factorial(n - 1)),
         "n particles on a circle: (n-1)! components, each a circle"),
        ("interval-one-sink", lambda: gr.interval(sinks={0}),
         lambda n: (1,),
         "an interval with one sink absorbs everything: a point"),
        ("interval-two-sinks", lambda: gr.interval(sinks={0, 1}),
         lambda n: (1, (n - 2) * 2 ** (n - 1) + 1),
         "interval with two sinks: connected with first Betti number"
         " (n-2)*2^(n-1)+1"),
        ("circle-sink", lambda: gr.circle(sinks={0}),
         lambda n: (1, n),
         "circle with a sink: a bouquet of n circles"),
    ]


def _trim(vec):
    vec = list(vec)
    while vec and vec[-1] == 0:
        vec.pop()
    return tuple(vec)


def _betti_check(builder, n, expected):
    def run():
        cx = mdl.enumerate_cells(builder(), n)
        h = homology(cx)
        got = _trim(h.betti_vector())
        want = _trim(expected)
        ok = got == want and h.torsion_free()
        return ok, {"betti": list(h.betti_vector()),
                    "expected": list(want),
                    "torsion_free": h.torsion_free(),
                    "euler": h.euler}
    return run


def baseline_checks():
    checks = []
    for key, builder, expect, why in _baseline_families():
        for n in (2, 3, 4, 5):
            checks.append(Check(
                f"baseline/{key}/n={n}",
                f"Betti numbers of {n} particles, family {key}",
                why,
                _betti_check(builder, n, expect(n))))
    return checks


def cellcount_checks():
    checks = []

    def two_sinks(n):
        def run():
            cx = mdl.enumerate_cells(gr.interval(sinks={0, 1}), n)
            counts = cx.cell_counts()
            want = (2 ** n, n * 2 ** (n - 1))
            chi = euler_characteristic(cx)
            ok = counts == want and chi == (2 - n) * 2 ** (n - 1)
            return ok, {"counts": list(counts), "expected": list(want),
                        "euler": chi}
        return run

    def circle_sink(n):
        def run():
            cx = mdl.enumerate_cells(gr.circle(sinks={0}), n)
            counts = cx.cell_counts()
            ok = counts == (1, n) and euler_characteristic(cx) == 1 - n
            return ok, {"counts": list(counts), "expected": [1, n],
                        "euler": euler_characteristic(cx)}
        return run

    for n in range(1, 6):
        checks.append(Check(
            f"cellcount/interval-two-sinks/n={n}",
            f"cube counts for {n} particles on the two-sink interval",
            "the model is the 1-skeleton of the n-cube: 2^n vertices and"
            " n*2^(n-1) edges",
            two_sinks(n)))
        checks.append(Check(
            f"cellcount/circle-sink/n={n}",
            f"cube counts for {n} particles on the one-sink circle",
            "one resting configuration and one full loop traversal per"
            " particle",
            circle_sink(n)))
    return checks


def _surface_profile(g, n, genus):
    def run():
        cx = mdl.enumerate_cells(g, n)
        h = homology(cx)
        ok = (h.betti_vector() == (1, 2 * genus, 1) and h.torsion_free()
              and h.euler == 2 - 2 * genus)
        return ok, {"betti": list(h.betti_vector()), "euler": h.euler,
                    "genus": genus, "torsion_free": h.torsion_free()}
    return run


def surface_checks():
    return [
        Check("surface/k5",
              "two particles on the complete graph K5",
              "a genus-6 homology surface: Betti (1, 12, 1), Euler -10",
              _surface_profile(gr.complete(5), 2, 6)),
        Check("surface/k33",
              "two particles on the complete bipartite graph K33",
              "a genus-4 homology surface: Betti (1, 8, 1), Euler -6",
              _surface_profile(gr.complete_bipartite(3, 3), 2, 4)),
        Check("surface/banana4",
              "three particles on four parallel edges",
              "a genus-13 homology surface: Betti (1, 26, 1), Euler -24",
              _surface_profile(gr.banana(4), 3, 13)),
    ]


def nonproduct_checks():
    # the group's checks share one complex, enumerated when first needed
    @functools.cache
    def banana():
        return mdl.enumerate_cells(gr.banana(4), 3)

    def dimension():
        cx = banana()
        ok = cx.max_dim == 2 == gr.dimension_bound(cx.graph, 3)
        return ok, {"max_dim": cx.max_dim, "counts": list(cx.cell_counts())}

    def cycle_check():
        cx = banana()
        z = cyc.nonproduct_cycle(cx)
        cycle, bounds = is_cycle(z), is_boundary(z, cx)
        ok = len(z) == 144 and cycle and not bounds
        return ok, {"support": len(z), "is_cycle": cycle,
                    "is_boundary": bounds}

    def spans():
        cx = banana()
        z = cyc.nonproduct_cycle(cx)
        rank = class_span_rank([z], cx, 2)
        b2 = homology(cx).betti(2)
        return rank == b2 == 1, {"span": rank, "b2": b2}

    def no_products():
        cx = banana()
        bc = cyc.enumerate_basic_classes(cx, degree=2)
        rank = class_span_rank(bc.chains, cx, 2)
        return rank == 0, {"span": rank, "candidates": len(bc.chains)}

    return [
        Check("nonproduct/dimension",
              "no 3-cells for three particles on four parallel edges",
              "the model dimension is capped by the two junction vertices",
              dimension),
        Check("nonproduct/cycle",
              "the 144-cell 2-cycle exists and does not bound",
              "a sum of 144 two-cells with zero boundary; with no 3-cells"
              " it cannot be a boundary",
              cycle_check),
        Check("nonproduct/span",
              "the 144-cell cycle generates the top homology",
              "the second Betti number of the genus-13 surface is 1",
              spans),
        Check("nonproduct/no-products",
              "no degree-2 products of disjoint 1-cycles exist here",
              "every circle class uses both junctions and three particles"
              " cannot carry two disjoint 1-classes",
              no_products),
    ]


def starfour_checks():
    def on_star4():
        g = gr.star(4)
        z = cyc.star4_relation_chain(g, 0, tuple(sorted(g.ends_at(0))), (0, 1))
        return z.is_zero(), {"support": len(z)}

    def on_banana4():
        g = gr.banana(4)
        ends = tuple(2 * e + (0 if g.edges[e][0] == 0 else 1) for e in range(4))
        z = cyc.star4_relation_chain(g, 0, ends, (0, 1))
        return z.is_zero(), {"support": len(z)}

    reference = ("the alternating sum of the four 3-end shuffles of four"
                 " ends cancels cell by cell")
    return [
        Check("starfour/star4", "signed four-star relation on the 4-star",
              reference, on_star4),
        Check("starfour/banana4", "signed four-star relation at a junction"
              " of four parallel edges", reference, on_banana4),
    ]


# -- tree corpus ----------------------------------------------------------------

def wedge_corpus():
    """Wedges of up to two factors from the 3-star, the 4-star and the
    circle (stars wedge at a leaf, circles at their vertex), the h-graph,
    and each of those with its lowest leaf turned into a sink."""
    factories = {
        "star3": lambda: gr.star(3),
        "star4": lambda: gr.star(4),
        "circle": gr.circle,
    }

    def wedge_point(name, g):
        return 1 if name.startswith("star") else 0

    out = [(name, factories[name]()) for name in sorted(factories)]
    for n1, n2 in itertools.combinations_with_replacement(sorted(factories), 2):
        g1, g2 = factories[n1](), factories[n2]()
        out.append((f"{n1}^{n2}",
                    gr.wedge(g1, wedge_point(n1, g1), g2, wedge_point(n2, g2))))
    out.append(("h", gr.h_graph()))
    with_sinks = []
    for name, g in out:
        leaves = g.leaf_vertices()
        if leaves:
            with_sinks.append((f"{name}+sink", g.with_sinks({leaves[0]})))
    return out + with_sinks


def _generation(g, n):
    """Homology of ``n`` particles on ``g``, and the span rank, integral
    verdict and number of its degree-1 candidates, as report fields."""
    cx = mdl.enumerate_cells(g, n)
    h = homology(cx)
    bc = cyc.enumerate_basic_classes(cx, degree=1)
    rank, saturated = class_span(bc.chains, cx, 1)
    return h, {"span": rank, "integral": saturated and rank == h.betti(1),
               "candidates": len(bc.chains)}


def tree_corpus_checks():
    def run(g, n):
        h, details = _generation(g, n)
        return h.torsion_free() and details["integral"], {
            **details, "betti": list(h.betti_vector()),
            "torsion_free": h.torsion_free()}

    checks = []
    for name, g in wedge_corpus():
        for n in range(1, 4):
            checks.append(Check(
                f"trees/{name}/n={n}",
                f"torsion-freeness and degree-1 generation over Z on {name}"
                f" with {n} particles",
                "homology of particles on wedges of stars and circles is"
                " torsion-free and the first homology is generated over the"
                " integers by star, circle and crossing classes",
                functools.partial(run, g, n)))
    return checks


def general_graph_checks():
    def run(g):
        h, details = _generation(g, 2)
        return details["integral"], {**details, "b1": h.betti(1)}

    checks = []
    for key, g in (("k5", gr.complete(5)),
                   ("k33", gr.complete_bipartite(3, 3)),
                   ("banana4", gr.banana(4))):
        checks.append(Check(
            f"general/{key}",
            f"degree-1 generation over Z for two particles on {key}",
            "the first homology of any graph configuration space is"
            " generated over the integers by star, circle and crossing"
            " classes",
            functools.partial(run, g)))
    return checks


# -- randomized property suites ---------------------------------------------

def random_connected_graph(rng, max_edges=6, max_vertices=5):
    nv = rng.randint(1, max_vertices)
    edges = []
    for v in range(1, nv):
        edges.append((rng.randrange(v), v))
    max_extra = max_edges - len(edges)
    for _ in range(rng.randint(0 if edges else 1, max(max_extra, 0))):
        u = rng.randrange(nv)
        v = rng.randrange(nv)
        edges.append((u, v))
    if not edges:
        edges = [(0, 0)]
    sinks = set()
    if rng.random() < 0.5:
        for v in range(nv):
            if rng.random() < 0.3:
                sinks.add(v)
    return gr.Graph(nv, edges, sinks)


def _instance_pool(rng, count, max_edges=5, max_n=3):
    pool = []
    while len(pool) < count:
        g = random_connected_graph(rng, max_edges=max_edges)
        n = rng.randint(1, max_n)
        try:
            cx = mdl.enumerate_cells(g, n, max_cells=120_000)
        except mdl.CapExceededError:
            continue
        pool.append(cx)
    return pool


def suite_boundary_squares_zero(seed=0, cases=1000, boundary_fn=None):
    """The boundary of the boundary of random cells vanishes."""
    rng = random.Random(seed)
    boundary_fn = boundary_fn or mdl.boundary_of_cell
    pool = [cx for cx in _instance_pool(rng, 30) if cx.max_dim >= 1]
    failures = []
    done = 0
    while done < cases:
        cx = rng.choice(pool)
        dim = rng.randint(1, cx.max_dim)
        cell = rng.choice(cx.cells[dim])
        total = {}
        for f, s in boundary_fn(cx.graph, cell).items():
            for ff, ss in boundary_fn(cx.graph, f).items():
                total[ff] = total.get(ff, 0) + s * ss
        if any(total.values()):
            failures.append(f"dd != 0 at {cell}")
            if len(failures) > 4:
                break
        done += 1
    return done, failures


def _zero_cell_valid_reference(g, cell):
    """Independent transcription of the 0-cell rules for the oracle."""
    occupied = {}
    ranks = {}
    for p, s in cell:
        if s[0] == "V":
            v = s[1]
            if not (0 <= v < g.num_vertices):
                return False
            if not g.is_sink(v):
                if g.valence(v) < 2 or occupied.get(v):
                    return False
                occupied[v] = True
        elif s[0] == "E":
            e, r = s[1], s[2]
            if not (0 <= e < g.num_edges) or g.sink_endpoints(e) or r < 0:
                return False
            ranks.setdefault(e, []).append(r)
        else:
            return False
    return all(sorted(v) == list(range(len(v))) for v in ranks.values())


def corner_validity_oracle(g, cell):
    """Validity via corners: every corner is a valid resting configuration
    and no edge carries two full traversals."""
    mf_edges = [s[1] for _, s in cell if s[0] == "MF"]
    if len(mf_edges) != len(set(mf_edges)):
        return False
    for _, s in cell:
        if not mdl.state_is_valid(g, s):
            return False
    try:
        corners = mdl.corner_configurations(g, cell)
    except (IndexError, ValueError):
        return False
    return all(_zero_cell_valid_reference(g, c) for c in corners)


def _random_candidate_cell(rng, cx):
    g = cx.graph
    if rng.random() < 0.5 and cx.index:
        dim = rng.randint(0, cx.max_dim)
        cell = list(rng.choice(cx.cells[dim]))
        if cell and rng.random() < 0.7:
            i = rng.randrange(len(cell))
            pid = cell[i][0]
            cell[i] = (pid, _random_state(rng, g))
        return tuple(sorted(cell))
    n = rng.randint(1, 3)
    return tuple((p, _random_state(rng, g)) for p in range(n))


def _random_state(rng, g):
    kind = rng.choice(["V", "E", "E", "ME", "ME", "MF"])
    if kind == "V":
        return ("V", rng.randrange(g.num_vertices))
    e = rng.randrange(g.num_edges)
    if kind == "E":
        return ("E", e, rng.randint(0, 2))
    if kind == "ME":
        return ("ME", e, rng.randint(0, 1))
    return ("MF", e)


def suite_validity_oracle(seed=1, cases=1000):
    """cell_is_valid agrees with the corner-configuration oracle."""
    rng = random.Random(seed)
    pool = _instance_pool(rng, 25)
    failures = []
    for _ in range(cases):
        cx = rng.choice(pool)
        cell = _random_candidate_cell(rng, cx)
        got = mdl.cell_is_valid(cx.graph, cell)
        want = corner_validity_oracle(cx.graph, cell)
        if got != want:
            failures.append(f"validity {got} vs oracle {want} on {cell}")
            if len(failures) > 4:
                break
    return cases, failures


def suite_equivariance(seed=2, cases=1000):
    """Relabeling commutes with faces and boundaries, and Betti numbers
    are invariant under renaming the particles."""
    rng = random.Random(seed)
    pool = [cx for cx in _instance_pool(rng, 25) if cx.max_dim >= 1]
    failures = []
    done = 0
    betti_cases = 12
    while done < cases - betti_cases:
        cx = rng.choice(pool)
        dim = rng.randint(1, cx.max_dim)
        cell = rng.choice(cx.cells[dim])
        perm = list(range(cx.n))
        rng.shuffle(perm)
        for slot in range(dim):
            side = rng.randint(0, 1)
            lhs = mdl.relabel_cell(mdl.face(cx.graph, cell, slot, side), perm)
            movers = [p for p, s in cell if mdl.is_move_state(s)]
            new_slot = sorted(perm[p] for p in movers).index(perm[movers[slot]])
            rhs = mdl.face(cx.graph, mdl.relabel_cell(cell, perm), new_slot, side)
            if lhs != rhs:
                failures.append(f"face/relabel mismatch on {cell}")
        z = mdl.Chain(cx.graph, dim, {cell: 1})
        lhs = mdl.relabel_chain(mdl.boundary_chain(z), perm)
        rhs = mdl.boundary_chain(mdl.relabel_chain(z, perm))
        if lhs.terms != rhs.terms:
            failures.append(f"boundary/relabel mismatch on {cell}")
        done += 1
        if len(failures) > 4:
            return done, failures
    small = [cx for cx in pool if sum(cx.cell_counts()) <= 700] or pool[:1]
    for _ in range(betti_cases):
        cx = rng.choice(small)
        perm = list(range(cx.n))
        rng.shuffle(perm)
        base = homology(cx)
        relabeled = homology(cx.relabeled(perm))
        if base.betti_vector() != relabeled.betti_vector():
            failures.append(f"betti changed under {perm}")
        done += 1
    return done, failures


def suite_push_in(seed=3, cases=1000):
    """Pushing a particle in at a leaf commutes with the boundary, and
    forgetting it again recovers the original chain."""
    rng = random.Random(seed)
    pool = []
    for cx in _instance_pool(rng, 40, max_n=2):
        leafy = [e for e in range(cx.graph.num_edges)
                 if cx.graph.valence(cx.graph.edges[e][0]) == 1
                 or cx.graph.valence(cx.graph.edges[e][1]) == 1]
        if leafy and cx.max_dim >= 1:
            pool.append((cx, leafy))
    failures = []
    for _ in range(cases):
        cx, leafy = rng.choice(pool)
        e = rng.choice(leafy)
        dim = rng.randint(1, cx.max_dim)
        terms = {}
        for cell in rng.sample(cx.cells[dim], k=min(3, len(cx.cells[dim]))):
            terms[cell] = rng.choice([-2, -1, 1, 2])
        z = mdl.Chain(cx.graph, dim, terms)
        s = cx.n
        pushed = cyc.push_in(z, e, s)
        lhs = mdl.boundary_chain(pushed)
        rhs = cyc.push_in(mdl.boundary_chain(z), e, s)
        if lhs.terms != rhs.terms:
            failures.append(f"push-in does not commute with boundary on edge {e}")
            if len(failures) > 4:
                break
        if _drop_particle(pushed, s) != z:
            failures.append("dropping the pushed particle does not recover"
                            " the chain")
            break
    return cases, failures


def _drop_particle(z, s):
    """Remove particle ``s`` from every support cell, re-normalizing the
    slot ranks of the edge it sat on."""
    terms = {}
    for cell, v in z.terms.items():
        gone = next(st for p, st in cell if p == s)
        pairs = []
        for p, st in cell:
            if p == s:
                continue
            if (gone[0] == "E" and st[0] == "E" and st[1] == gone[1]
                    and st[2] > gone[2]):
                st = ("E", st[1], st[2] - 1)
            pairs.append((p, st))
        terms[mdl.make_cell(pairs)] = v
    return mdl.Chain(z.graph, z.degree, terms)


def _two_zone_instance(rng):
    """Two stars wedged at a leaf; the two edge zones meet only at the
    wedge point, which no zone chain ever occupies."""
    k1, k2 = rng.randint(3, 4), rng.randint(3, 4)
    g = gr.wedge(gr.star(k1), 1, gr.star(k2), 1)
    return g, k1 + 1, list(range(k1)), list(range(k1, k1 + k2))


def _random_zone_chain(rng, g, center, edges, pids, degree):
    """Random (not necessarily closed) chain of the given degree supported
    on slots and moves at one star zone."""
    cells = []
    for _ in range(rng.randint(1, 3)):
        pairs = []
        movers = rng.sample(list(pids), k=degree) if degree else []
        edge_pool = list(edges)
        rng.shuffle(edge_pool)
        used = {}
        for p in pids:
            if p in movers:
                e = edge_pool.pop()
                pairs.append((p, ("ME", e, 0 if g.edges[e][0] == center else 1)))
            else:
                e = rng.choice(edge_pool) if edge_pool else rng.choice(list(edges))
                r = used.get(e, 0)
                used[e] = r + 1
                pairs.append((p, ("E", e, r)))
        cell = mdl.make_cell(pairs)
        if mdl.cell_is_valid(g, cell):
            cells.append(cell)
    if not cells:
        return None
    return mdl.Chain(g, degree, {c: rng.choice([-2, -1, 1, 2]) for c in cells})


def suite_leibniz(seed=4, cases=1000):
    """Graded Leibniz rule for products of disjoint-zone chains."""
    rng = random.Random(seed)
    failures = []
    done = 0
    while done < cases:
        g, center2, zone1, zone2 = _two_zone_instance(rng)
        d1, d2 = rng.randint(0, 1), rng.randint(0, 1)
        z1 = _random_zone_chain(rng, g, 0, zone1, (0, 1), d1)
        z2 = _random_zone_chain(rng, g, center2, zone2, (2,), d2)
        if z1 is None or z2 is None:
            continue
        prod = cyc.product_chain(z1, z2)
        lhs = mdl.boundary_chain(prod)
        sign = -1 if z1.degree % 2 else 1
        rhs = cyc.product_chain(mdl.boundary_chain(z1), z2) + \
            cyc.product_chain(z1, mdl.boundary_chain(z2)).scaled(sign)
        if lhs.terms != rhs.terms:
            failures.append("Leibniz rule failed")
            if len(failures) > 4:
                break
        done += 1
    return done, failures


def suite_subdivision(seed=5, cases=1000):
    """Betti numbers and torsion are unchanged when a valence-2 vertex is
    inserted in the middle of a sink-free edge."""
    rng = random.Random(seed)
    failures = []
    done = 0
    while done < cases:
        g = random_connected_graph(rng, max_edges=4, max_vertices=4)
        free = [e for e in range(g.num_edges) if g.sink_endpoints(e) == 0]
        if not free:
            continue
        e = rng.choice(free)
        n = rng.randint(1, 2)
        try:
            base = homology(mdl.enumerate_cells(g, n, max_cells=60_000))
            sub = homology(
                mdl.enumerate_cells(gr.subdivide_edge(g, e), n,
                                    max_cells=120_000))
        except mdl.CapExceededError:
            continue
        if (_trim(base.betti_vector()) != _trim(sub.betti_vector())
                or [d.torsion for d in base.degrees if d.torsion]
                != [d.torsion for d in sub.degrees if d.torsion]):
            failures.append(f"subdivision changed homology of {g} at edge {e}")
            if len(failures) > 4:
                break
        done += 1
    return done, failures


def suite_dimension_bound(seed=6, cases=1000):
    """Every enumerated complex respects the dimension bound."""
    rng = random.Random(seed)
    failures = []
    done = 0
    while done < cases:
        g = random_connected_graph(rng)
        n = rng.randint(0, 3)
        try:
            cx = mdl.enumerate_cells(g, n, max_cells=120_000)
        except mdl.CapExceededError:
            continue
        bound = gr.dimension_bound(g, n)
        top = max((k for k, count in enumerate(cx.cell_counts()) if count),
                  default=0)
        if top > bound:
            failures.append(f"dimension {top} exceeds bound {bound} on {g}")
            if len(failures) > 4:
                break
        done += 1
    return done, failures


def dense_rank_oracle(m):
    """Textbook dense fraction-free elimination (two plain loops, first
    nonzero pivot in each column, no sparsity or pivoting strategy)."""
    nr, nc = m.num_rows, m.num_cols
    a = [[0] * nc for _ in range(nr)]
    for r, c, v in m.entries:
        a[r][c] = v
    rank = 0
    row = 0
    prev = 1
    for col in range(nc):
        piv = next((r for r in range(row, nr) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        lead = a[row][col]
        for r in range(row + 1, nr):
            f = a[r][col]
            for c in range(col + 1, nc):
                q, rem = divmod(lead * a[r][c] - f * a[row][c], prev)
                if rem:
                    raise mdl.InvariantError("inexact dense elimination")
                a[r][c] = q
            a[r][col] = 0
        prev = lead
        row += 1
        rank += 1
    return rank


def fraction_rank_oracle(m):
    """Gaussian elimination over exact fractions, for small matrices."""
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
        pv = rows[lead][c]
        for r in range(lead + 1, m.num_rows):
            if rows[r][c]:
                f = rows[r][c] / pv
                for cc in range(c, m.num_cols):
                    rows[r][cc] -= f * rows[lead][cc]
        lead += 1
        rank += 1
    return rank


def _random_matrix(rng, max_size=40):
    nr = rng.randint(1, max_size)
    nc = rng.randint(1, max_size)
    density = rng.choice([0.1, 0.25, 0.5])
    entries = []
    for r in range(nr):
        for c in range(nc):
            if rng.random() < density:
                entries.append((r, c, rng.randint(-5, 5)))
    return SparseIntMatrix(nr, nc, entries)


def _random_unimodular_shuffle(rng, m, ops=6):
    rows = m.rows()
    cols = sorted({c for row in rows.values() for c in row})
    row_ids = list(range(m.num_rows))
    for _ in range(ops):
        if rng.random() < 0.5 and len(row_ids) >= 2:
            a, b = rng.sample(row_ids, 2)
            q = rng.randint(-2, 2)
            target = rows.setdefault(a, {})
            for c, v in list(rows.get(b, {}).items()):
                target[c] = target.get(c, 0) + q * v
        elif len(cols) >= 2:
            a, b = rng.sample(cols, 2)
            q = rng.randint(-2, 2)
            for row in rows.values():
                row[a] = row.get(a, 0) + q * row.get(b, 0)
    # the matrix drops the zeros these sums leave
    entries = [(r, c, v) for r, row in rows.items() for c, v in row.items()]
    return SparseIntMatrix(m.num_rows, m.num_cols, entries)


def suite_snf_oracle(seed=7, cases=1000):
    """Rank agreement between the row-only elimination, the Smith normal
    form, and dense exact elimination; invariance of the Smith form under
    unimodular operations; and ``solve_in_image`` on a combination of at
    most two columns and on it with 1 or 2 added on one row, against
    whether appending the target as a column keeps the Smith form.  The
    targets come from a second generator, so the matrices do not change."""
    rng = random.Random(seed)
    pick = random.Random(f"solve-targets-{seed}")
    failures = []
    for i in range(cases):
        size = 40 if i % 25 == 0 else rng.randint(1, 10)
        m = _random_matrix(rng, max_size=size)
        want = dense_rank_oracle(m)
        factors = smith_normal_form(m)
        if (len(_diagonalize(m.rows(), rows_only=True)) != want
                or rank_over_rationals(m) != want or len(factors) != want):
            failures.append(f"rank mismatch on {m}")
        target = {}
        for j in pick.sample(range(m.num_cols), min(2, m.num_cols)):
            k = pick.randint(-3, 3)
            for r, c, v in m.entries:
                if c == j:
                    target[r] = target.get(r, 0) + k * v
        moved = dict(target)
        r = pick.randrange(m.num_rows)
        moved[r] = moved.get(r, 0) + pick.choice((1, 2))
        for t in (target, moved):
            aug = SparseIntMatrix(m.num_rows, m.num_cols + 1, m.entries + tuple(
                (r, m.num_cols, v) for r, v in t.items()))
            if solve_in_image(m, t) != (smith_normal_form(aug) == factors):
                failures.append(f"solve of {t} disagrees on {m}")
        if len(failures) > 4:
            break
        if m.num_rows <= 12 and m.num_cols <= 12:
            if fraction_rank_oracle(m) != want:
                failures.append(f"fraction oracle disagrees on {m}")
                break
            if i % 5 == 0:
                shuffled = _random_unimodular_shuffle(rng, m)
                if smith_normal_form(shuffled) != factors:
                    failures.append(f"Smith form not invariant on {m}")
                    if len(failures) > 4:
                        break
    return cases, failures


# (name, suite, reference); suite i runs with seed + i and returns
# (cases run, failure messages)
PROPERTY_SUITES = [
    ("boundary-squares-to-zero", suite_boundary_squares_zero,
     "the composite of two boundary operators vanishes"),
    ("validity-oracle", suite_validity_oracle,
     "a candidate cube is valid exactly when all its corners are valid"
     " resting configurations and no edge is traversed twice"),
    ("equivariance", suite_equivariance,
     "renaming particles commutes with faces and boundaries and"
     " preserves Betti numbers"),
    ("push-in", suite_push_in,
     "adding a particle at a leaf end is a chain map"),
    ("leibniz", suite_leibniz,
     "the boundary of a product obeys the graded Leibniz rule"),
    ("subdivision", suite_subdivision,
     "homology is invariant under edge subdivision"),
    ("dimension-bound", suite_dimension_bound,
     "cube dimension never exceeds the resource bound"),
    ("snf-oracle", suite_snf_oracle,
     "exact eliminations agree with a dense fraction oracle"),
]


def property_checks(seed=2026, cases=1000):
    checks = []
    for i, (name, fn, why) in enumerate(PROPERTY_SUITES):
        def run(fn=fn, i=i):
            done, failures = fn(seed + i, cases)
            return not failures, {"cases": done, "failures": failures[:5]}
        checks.append(Check(f"property/{name}",
                            f"randomized property suite: {name}", why, run))
    return checks


# -- torsion search -------------------------------------------------------------

def torsion_search(seed=11, instances=100):
    """Random connected graphs reporting any torsion found.

    Torsion-freeness for arbitrary graphs is an open expectation, so
    findings are flagged as noteworthy rather than failures; the search
    itself completing is the check.
    """
    rng = random.Random(seed)
    findings = []
    ran = 0
    skipped = 0
    while ran < instances:
        g = random_connected_graph(rng)
        n = rng.randint(1, 3)
        try:
            cx = mdl.enumerate_cells(g, n, max_cells=400_000)
            h = homology(cx)
        except mdl.CapExceededError:
            skipped += 1
            if skipped > 10 * instances:
                break
            continue
        ran += 1
        for k, d in enumerate(h.degrees):
            if d.torsion:
                findings.append({
                    "graph": gr.graph_to_doc(g),
                    "particles": n,
                    "degree": k,
                    "torsion": list(d.torsion),
                })
    return {"instances": ran, "skipped": skipped,
            "torsion_findings": findings, "completed": True}


def fuzz_check(seed=11, instances=100):
    def run():
        report = torsion_search(seed=seed, instances=instances)
        return report["completed"], report
    return Check("fuzz/torsion",
                 "random graph torsion search (findings are noteworthy,"
                 " not failures)",
                 "torsion-freeness beyond wedges of stars and circles is"
                 " conjectural; the search documents the evidence",
                 run)


# -- assembly -------------------------------------------------------------------

def all_checks(seed=2026, cases=1000, fuzz_instances=100):
    checks = []
    checks += baseline_checks()
    checks += cellcount_checks()
    checks += surface_checks()
    checks += nonproduct_checks()
    checks += starfour_checks()
    checks += tree_corpus_checks()
    checks += general_graph_checks()
    checks += property_checks(seed=seed, cases=cases)
    checks.append(fuzz_check(seed=seed + 100, instances=fuzz_instances))
    return sorted(checks, key=lambda c: c.check_id)


def run_verification(only=None, seed=2026, cases=1000, fuzz_instances=100):
    """Run the named checks (optionally filtered by id prefix) and return
    the report document; ``ValueError`` when the prefix matches no check
    or when ``cases`` or ``fuzz_instances`` is not positive (zero cases
    would pass vacuously)."""
    if cases < 1 or fuzz_instances < 1:
        raise ValueError("cases and fuzz instances must be positive")
    checks = all_checks(seed=seed, cases=cases, fuzz_instances=fuzz_instances)
    if only:
        checks = [c for c in checks if c.check_id.startswith(only)]
        if not checks:
            raise ValueError(f"no check id starts with {only!r}")
    results = [_result(c) for c in checks]
    return {
        "checks": results,
        "total": len(results),
        "failed": sum(1 for r in results if not r["passed"]),
        "passed": all(r["passed"] for r in results),
    }
