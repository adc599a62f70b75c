import importlib

from graphconf import checks


def run_only(prefix, **kw):
    return checks.run_verification(only=prefix, **kw)


def test_baseline_group_has_twenty_subchecks():
    report = run_only("baseline")
    assert report["total"] == 20
    assert report["passed"]


def test_cellcount_and_surface_groups():
    assert run_only("cellcount")["passed"]
    assert run_only("surface")["passed"]
    assert run_only("starfour")["passed"]


def test_nonproduct_group():
    assert run_only("nonproduct")["passed"]


def test_general_group():
    assert run_only("general")["passed"]


def test_tree_check_spans_through_the_record_of_d2(monkeypatch):
    # homology and the span share D_2's one recorded elimination: over the
    # whole check the Smith mode sees D_2's rows once and the span sees
    # them never; the span builds no matrix, takes no Smith form, and
    # checks its cycles on the packed D_1, not by pair-tuple boundaries.
    # The candidates are built while the span reads them, and each walk
    # checks its own cycle, so only the span's binding is counted
    homology = importlib.import_module("graphconf.homology")
    model = importlib.import_module("graphconf.model")
    span, init = checks.class_span, model.SparseIntMatrix.__init__
    snf, diagonalize = homology.smith_normal_form, homology._diagonalize
    boundary = homology.boundary_chain
    calls = {"inside": False, "matrices": 0, "snf": 0, "boundaries": 0}
    seen = []  # (rows, inside the span) of each Smith-mode elimination

    def counted_span(*args):
        calls["inside"] = True
        try:
            return span(*args)
        finally:
            calls["inside"] = False

    def counted_init(self, *args):
        calls["matrices"] += calls["inside"]
        init(self, *args)

    def counted_snf(m):
        calls["snf"] += calls["inside"]
        return snf(m)

    def seen_rows(rows, rows_only=False, modulus=0, max_nnz=None, log=None):
        if not (rows_only or modulus):
            seen.append(({r: dict(row) for r, row in rows.items()},
                         calls["inside"]))
        return diagonalize(rows, rows_only, modulus, max_nnz, log)

    def counted_boundary(z):
        calls["boundaries"] += calls["inside"]
        return boundary(z)

    monkeypatch.setattr(checks, "class_span", counted_span)
    monkeypatch.setattr(model.SparseIntMatrix, "__init__", counted_init)
    monkeypatch.setattr(homology, "smith_normal_form", counted_snf)
    monkeypatch.setattr(homology, "_diagonalize", seen_rows)
    monkeypatch.setattr(homology, "boundary_chain", counted_boundary)
    (check,) = [c for c in checks.tree_corpus_checks()
                if c.check_id == "trees/h/n=2"]
    passed, details = check.run()
    assert passed and details["integral"] and details["span"] == 3
    assert calls == {"inside": False, "matrices": 0, "snf": 0,
                     "boundaries": 0}
    d2 = model.enumerate_cells(checks.gr.h_graph(), 2).boundary_entries(2)
    assert d2.nnz
    assert [inside for rows, inside in seen if rows == d2.rows()] == [False]


def test_wedge_corpus_shape():
    corpus = checks.wedge_corpus()
    names = [name for name, _ in corpus]
    assert len(names) == 18
    assert len(set(names)) == 18
    assert "h" in names and "circle^circle" in names
    assert sum(1 for n in names if n.endswith("+sink")) == 8
    for _, g in corpus:
        assert g.num_vertices >= 1


def test_property_suites_quick_pass():
    report = run_only("property/", seed=99, cases=60)
    assert report["total"] == 8
    for item in report["checks"]:
        assert item["details"]["cases"] >= 60 or item["passed"]
        assert item["passed"], item["details"]["failures"]


def test_boundary_sign_bug_is_detected():
    # negative control: drop the minus sign between the two faces of each
    # move on 1-cells and the square-zero suite must notice
    from graphconf.model import boundary_of_cell, face, cell_dimension

    def broken_boundary(g, cell):
        if cell_dimension(cell) == 1:
            bad = {}
            for side in (0, 1):
                f = face(g, cell, 0, side)
                bad[f] = bad.get(f, 0) + 1
            return bad
        return boundary_of_cell(g, cell)

    _, failures = checks.suite_boundary_squares_zero(
        seed=5, cases=300, boundary_fn=broken_boundary)
    assert failures


def test_random_connected_graphs_are_connected_and_bounded():
    import random
    rng = random.Random(17)
    for _ in range(100):
        g = checks.random_connected_graph(rng)
        assert g.num_edges <= 6
        assert sum(g.valence(v) for v in range(g.num_vertices)) == 2 * g.num_edges


def test_torsion_search_completes():
    report = checks.torsion_search(seed=1, instances=12)
    assert report["completed"]
    assert report["instances"] == 12
    assert isinstance(report["torsion_findings"], list)


def test_run_verification_filters_and_reports():
    report = run_only("surface/k33")
    assert report["total"] == 1
    item = report["checks"][0]
    assert item["passed"]
    assert item["reference"]
    assert item["details"]["betti"] == [1, 8, 1]


def test_check_registry_structure():
    # stable ids, sorted order, every check described and referenced
    all_checks = checks.all_checks()
    ids = [c.check_id for c in all_checks]
    assert len(ids) == len(set(ids)) == 105
    assert ids == sorted(ids)
    assert all(c.description and c.reference for c in all_checks)
