import hashlib
import importlib
import json

import pytest

import graphconf as gc
import graphconf.model as model
from graphconf.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def machine(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "machine")
    return code, json.loads(out) if out else None, err


def test_span_eliminates_only_capped_operators(capsys, monkeypatch):
    # the span reads homology's capped records: D_2 of k:4 n3 has 10,368
    # entries, its cleared form 7,776, and no operator is eliminated
    # without MAX_NNZ or past it
    homology = importlib.import_module("graphconf.homology")
    diagonalize = homology._diagonalize
    recorded = []  # (entries, cap) of each recorded Smith elimination

    def seen(rows, rows_only=False, modulus=0, max_nnz=None, log=None):
        if log is not None and not (rows_only or modulus):
            recorded.append((sum(map(len, rows.values())), max_nnz))
        return diagonalize(rows, rows_only, modulus, max_nnz, log)

    monkeypatch.setattr(homology, "_diagonalize", seen)
    code, _, _ = run(capsys, "span", "--graph", "k:4", "-n", "3",
                     "--caps", ",8000")
    assert code == 0 and (7776, 8000) in recorded
    assert all(n <= cap == 8000 for n, cap in recorded), recorded


def test_homology_banana(capsys):
    code, doc, _ = machine(capsys, "homology", "--graph", "banana:4", "-n", "3")
    assert code == 0
    betti = [d["betti"] for d in doc["result"]["degrees"]]
    assert betti == [1, 26, 1]
    assert all(not d["torsion"] for d in doc["result"]["degrees"])
    assert doc["result"]["euler"] == -24


def test_homology_k5(capsys):
    code, doc, _ = machine(capsys, "homology", "--graph", "k:5", "-n", "2")
    assert code == 0
    assert [d["betti"] for d in doc["result"]["degrees"]] == [1, 12, 1]


def test_homology_interval_with_sink_override(capsys):
    code, doc, _ = machine(capsys, "homology", "--graph", "interval",
                           "-n", "3", "--sinks", "0,1")
    assert code == 0
    assert [d["betti"] for d in doc["result"]["degrees"]] == [1, 5]


def test_surface_checks(capsys):
    code, doc, _ = machine(capsys, "surface-check", "--graph", "k33", "-n", "2")
    assert code == 0
    assert doc["result"]["status"] == "surface"
    assert doc["result"]["genus"] == 4

    code, doc, _ = machine(capsys, "surface-check", "--graph", "banana:4",
                           "-n", "3")
    assert code == 0
    assert doc["result"]["genus"] == 13

    # a non-surface profile still exits 0 and reports through the status
    code, doc, _ = machine(capsys, "surface-check", "--graph", "star:3",
                           "-n", "2")
    assert code == 0
    assert doc["result"]["status"] == "not a homology surface"


def test_span_command(capsys):
    code, doc, _ = machine(capsys, "span", "--graph", "h", "-n", "2",
                           "--degree", "1")
    assert code == 0
    assert doc["result"]["status"] == "GENERATED"
    assert doc["result"]["span_rank"] == doc["result"]["betti"]


@pytest.mark.parametrize("graph,n,row", [
    ("k33", 2, (0, 0, 1, "NOT-GENERATED")),
    ("k:5", 2, (0, 0, 1, "NOT-GENERATED")),
    ("banana:4", 3, (0, 0, 1, "NOT-GENERATED")),
    ("k33", 3, (135, 38, 41, "NOT-GENERATED")),
    ("k:4", 3, (24, 11, 11, "GENERATED")),
])
def test_degree_two_span_statuses_pinned(capsys, graph, n, row):
    # today's degree-2 rows as (candidates, span rank, b_2, status): the
    # product candidates miss the surface class of Conf_2 on K3,3 and K5
    # and the non-product class on banana:4, and generate H_2 of K4 n3
    code, doc, _ = machine(capsys, "span", "--graph", graph, "-n", str(n),
                           "--degree", "2")
    r = doc["result"]
    assert code == 0
    assert (r["candidates"], r["span_rank"], r["betti"], r["status"]) == row


def test_span_status_is_generation_over_the_integers(capsys, monkeypatch):
    # doubled candidates reach the rank of H_1 of h n2 but not its lattice;
    # no candidates miss its rank
    cycles = importlib.import_module("graphconf.cycles")
    enumerate_classes = cycles.enumerate_basic_classes

    def scaled(scale):
        return lambda cx, degree: cycles.BasicClasses(
            [z.scaled(scale) for z in enumerate_classes(cx, degree).chains]
            if scale else [])

    for scale, status, rank in ((2, "RATIONAL-ONLY", 3), (0, "NOT-GENERATED", 0)):
        monkeypatch.setattr(cycles, "enumerate_basic_classes", scaled(scale))
        code, doc, _ = machine(capsys, "span", "--graph", "h", "-n", "2")
        assert code == 0 and doc["result"]["betti"] == 3
        assert (doc["result"]["status"], doc["result"]["span_rank"]) == (
            status, rank)
        code, out, _ = run(capsys, "span", "--graph", "h", "-n", "2")
        assert out.endswith(f"-> {status}\n")


def test_export_document(capsys, tmp_path):
    out = tmp_path / "export.json"
    code, _, _ = run(capsys, "export", "--graph", "circle", "-n", "2",
                     "--format", "machine", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["complex"]["particles"] == 2
    assert len(doc["complex"]["cells"][0]) == 4
    assert doc["basic_classes"]
    assert doc["homology"]["degrees"][1]["betti"] == 1


@pytest.mark.parametrize("args,digest", [
    (("export", "--graph", "circle", "--sinks", "0", "-n", "3"),
     "6dcc061e6d36a9a5eab4abe8fbc2992bcae82b69915f73ed1e93daa8a9df3d2f"),
    (("export", "--graph", "circle", "-n", "3"),
     "c2f00728d7771ddc441f7f116f9ec5885c83e9f11789bf151fe4cb587017e725"),
    (("export", "--graph", "h", "-n", "2"),
     "cc723784b00b847d004311162d71dc3b2fe795627c2bca1170dcbf356122f8aa"),
    (("homology", "--graph", "k:4", "-n", "3"),
     "6ada5d0d210cf6ee4b66e64502bd3f8e04960434337c30229faf792cc433d3e8"),
    (("span", "--graph", "h", "-n", "3"),
     "41362e024e38c2602f3f5df5bd7729f61c5f47bf3c0dba88d7f05f054390f3dd"),
    (("export", "--graph", "k:5", "-n", "2"),
     "d2691674aec91fdf6abe543c2566effdee9e2e0ec191f71e19fbf7534209be7c"),
    (("surface-check", "--graph", "banana:4", "-n", "3"),
     "efaa5488e6542bf01b72ab1ddabe84d519ae60e2dbbcbfb4a06851d02c892a22"),
    (("homology", "--graph", "banana:4", "--sinks", "0,1", "-n", "5"),
     "ba3e97946339c0cfc2e04aa73070915b7debb3baf9d0b378dcc1a130f47b3d97"),
])
def test_export_machine_bytes_pinned(capsys, args, digest):
    # machine output is a file format: its bytes must not drift
    code, out, _ = run(capsys, *args, "--format", "machine")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_export_at_shared_sink(capsys):
    # every edge at vertex 1 runs to the one sink 0
    code, doc, _ = machine(capsys, "export", "--graph", "banana:3",
                           "--sinks", "0", "-n", "2")
    assert code == 0
    assert doc["basic_classes"]
    assert doc["homology"]["degrees"][1]["betti"] == 4


def test_graph_file_input(capsys, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(gc.dump_graph(gc.banana(4)))
    code, doc, _ = machine(capsys, "homology", "--graph", str(path), "-n", "2")
    assert code == 0
    assert doc["graph"]["edges"] == [[0, 1]] * 4


@pytest.mark.parametrize("text", [
    '{"vertices": 3, "edges": [[0, 1.5], [1, 2]]}',
    '{"vertices": 2, "edges": [[0, true]]}',
    '{"vertices": 2, "edges": [[0, 1, 1]]}',
])
def test_graph_file_with_non_integer_numbers_is_a_usage_error(capsys, tmp_path,
                                                              text):
    path = tmp_path / "graph.json"
    path.write_text(text)
    code, out, err = run(capsys, "homology", "--graph", str(path), "-n", "2")
    assert code == 2 and not out
    assert err.startswith("error:") and "edge" in err


def test_missing_graph_file_is_a_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "homology", "--graph",
                         str(tmp_path / "missing.json"), "-n", "2")
    assert code == 2 and not out
    assert err.startswith("error:") and "missing.json" in err


def test_family_spec_wins_over_a_directory_of_that_name(capsys, tmp_path,
                                                        monkeypatch):
    (tmp_path / "h").mkdir()
    monkeypatch.chdir(tmp_path)
    code, doc, _ = machine(capsys, "homology", "--graph", "h", "-n", "2")
    assert code == 0
    assert doc["graph"] == gc.graph_to_doc(gc.h_graph())


def test_successive_calls_share_no_state(capsys, tmp_path, monkeypatch):
    # the parser is built once per process; the options of one call must
    # not reach the next, whatever its subcommand
    from graphconf import cli
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    parsed = []
    parse_args = parser.parse_args

    def recorded(*args, **kwargs):
        parsed.append(parse_args(*args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(parser, "parse_args", recorded)
    out = tmp_path / "first.json"
    code, text, _ = run(capsys, "homology", "--graph", "interval", "-n", "3",
                        "--sinks", "0,1", "--caps", "50", "--format",
                        "machine", "--out", str(out))
    assert code == 0 and not text
    assert json.loads(out.read_text())["graph"]["sinks"] == [0, 1]
    code, doc, _ = machine(capsys, "verify", "--only", "surface")
    assert code == 0 and doc["report"]["total"] == 3
    code, doc, _ = machine(capsys, "span", "--graph", "star:3", "-n", "2")
    assert code == 0 and doc["command"] == "span"
    assert doc["graph"] == gc.graph_to_doc(gc.star(3)) and doc["degree"] == 1
    code, text, _ = run(capsys, "surface-check", "--graph", "star:3", "-n", "2")
    assert code == 0 and text.startswith("not a homology surface\n")
    # a call that fails to parse leaves nothing behind either
    assert run(capsys, "homology", "--graph", "star:3")[0] == 2
    code, text, _ = run(capsys, "export", "--graph", "star:3", "-n", "2")
    assert code == 0 and text.startswith("cells per dimension")
    assert len({id(args) for args in parsed}) == len(parsed) == 5
    # each namespace holds its own subcommand's options and nothing else
    assert vars(parsed[2]) == {
        "command": "span", "graph": "star:3", "n": 2, "sinks": None,
        "caps": "", "format": "machine", "out": None, "degree": 1,
        "fn": cli.cmd_span}
    assert vars(parsed[-1]) == {
        "command": "export", "graph": "star:3", "n": 2, "sinks": None,
        "caps": "", "format": "human", "out": None, "fn": cli.cmd_export}


def test_machine_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "span", "--graph", "star:4", "-n", "2",
                     "--format", "machine")
    _, out2, _ = run(capsys, "span", "--graph", "star:4", "-n", "2",
                     "--format", "machine")
    assert out1 == out2


def test_verify_only_baseline(capsys):
    code, doc, _ = machine(capsys, "verify", "--only", "baseline")
    assert code == 0
    assert doc["report"]["total"] == 20
    assert doc["report"]["passed"]


def test_verify_only_unknown_prefix_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--only", "nosuch")
    assert code == 2 and not out
    assert err.startswith("error:") and "nosuch" in err


@pytest.mark.parametrize("argv", [("--cases", "0"), ("--cases", "-1"),
                                  ("--fuzz-instances", "0")])
def test_verify_without_cases_is_a_usage_error(capsys, argv):
    # zero cases would report every property suite or the fuzz check as
    # a vacuous PASS
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and not out
    assert err.startswith("error:")


def test_verify_human_lines(capsys):
    code, out, _ = run(capsys, "verify", "--only", "surface")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == 3
    assert all(l.startswith("[PASS]") for l in lines)


def test_exit_codes(capsys, monkeypatch):
    code, _, err = run(capsys, "homology", "--graph", "nosuch:1", "-n", "2")
    assert code == 2 and "error" in err

    code, _, err = run(capsys, "homology", "--graph", "k:5", "-n", "3",
                       "--caps", "1000")
    assert code == 3 and "beyond desk scale" in err

    # export honours MAX_NNZ, and verify has no caps to accept
    code, _, err = run(capsys, "export", "--graph", "k:5", "-n", "2",
                       "--caps", ",10")
    assert code == 3 and "entries" in err
    code, _, _ = run(capsys, "verify", "--caps", "5")
    assert code == 2

    code, _, _ = run(capsys, "nosuchcommand")
    assert code == 2

    # every matrix that homology assembles for banana:4 --sinks 0,1 n5
    # passes a MAX_NNZ of 5000 (the cleared D_3 has 4326 of D_3's 5760
    # entries), but eliminating the cleared D_3 fills in past it
    assembled = []
    boundary = model._Codebook.boundary

    def recorded(book, cols, rows):
        entries = boundary(book, cols, rows)
        assembled.append(len(entries))
        return entries

    monkeypatch.setattr(model._Codebook, "boundary", recorded)
    argv = ("homology", "--graph", "banana:4", "--sinks", "0,1", "-n", "5")
    code, _, err = run(capsys, *argv, "--caps", ",5000")
    assert code == 3 and "fill-in" in err
    assert 4326 in assembled and max(assembled) <= 5000
    code, _, _ = run(capsys, *argv, "--caps", ",20000")
    assert code == 0

    code, _, err = run(capsys, "homology", "--graph", "banana:1", "-n", "2")
    assert code == 2
