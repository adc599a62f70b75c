"""Command-line front end.

Commands: ``homology``, ``verify``, ``span``, ``surface-check``, ``export``.
Exit codes: 0 success, 1 check failure, 2 usage or parse error, 3 cap
exceeded.  ``--caps MAX_CELLS[,MAX_NNZ]``: MAX_NNZ bounds each boundary
operator, which holds only the columns that clearing keeps, and the
fill-in of its elimination, not a span's candidates.  Machine output is
one self-describing JSON document per run, byte-identical for identical
configurations.  ``span`` prints ``GENERATED`` when the candidates
generate the homology group over the integers, ``RATIONAL-ONLY`` when
they reach its rank but not the whole lattice, and ``NOT-GENERATED``
otherwise.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import cycles as cyc
from .graphs import (GraphSpecError, dimension_bound, graph_to_doc,
                     load_graph, parse_graph_spec, build_graph)
from .homology import class_span, homology
from .model import CapExceededError, DEFAULT_MAX_CELLS, complex_to_doc, \
    enumerate_cells

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _load_graph_arg(text, sinks):
    """A family spec, or a graph file when the text ends in ``.json`` or
    is a file that names no family."""
    if not text.endswith(".json"):
        try:
            spec = parse_graph_spec(text, sinks=sinks or ())
        except GraphSpecError:
            if not Path(text).exists():
                raise
        else:
            return build_graph(spec)
    g = load_graph(Path(text).read_text())
    return g if sinks is None else g.with_sinks(sinks)


def _parse_sinks(text):
    if text is None:
        return None
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(int(v) for v in text.split(","))


def _parse_caps(text):
    if not text:
        return DEFAULT_MAX_CELLS, None
    parts = text.split(",")
    max_cells = int(parts[0]) if parts[0] else DEFAULT_MAX_CELLS
    max_nnz = int(parts[1]) if len(parts) > 1 and parts[1] else None
    if max_cells <= 0 or (max_nnz is not None and max_nnz <= 0):
        raise ValueError("caps must be positive")
    return max_cells, max_nnz


def _emit(doc, fmt, out, human_lines):
    if fmt == "machine":
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(human_lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _homology_table(summary):
    lines = ["degree  cells  betti  torsion"]
    for k, d in enumerate(summary.degrees):
        tors = ",".join(str(t) for t in d.torsion) if d.torsion else "-"
        lines.append(f"{k:>6}  {d.cells:>5}  {d.betti:>5}  {tors}")
    lines.append(f"euler characteristic: {summary.euler}")
    return lines


def _graph_complex(args):
    """Complex, homology and machine-document head of a graph command."""
    g = _load_graph_arg(args.graph, _parse_sinks(args.sinks))
    max_cells, max_nnz = _parse_caps(args.caps)
    cx = enumerate_cells(g, args.n, max_cells=max_cells)
    head = {"command": args.command, "graph": graph_to_doc(g),
            "particles": args.n}
    return cx, homology(cx, max_nnz=max_nnz), head


def cmd_homology(args):
    cx, summary, head = _graph_complex(args)
    doc = {
        **head,
        "dimension_bound": dimension_bound(cx.graph, args.n),
        "result": summary.to_doc(),
    }
    _emit(doc, args.format, args.out, _homology_table(summary))
    return EXIT_OK


def cmd_surface_check(args):
    _, summary, head = _graph_complex(args)
    b = summary.betti_vector()
    is_surface = (len(b) >= 3 and b[0] == 1 and b[2] == 1
                  and all(x == 0 for x in b[3:])
                  and b[1] % 2 == 0 and summary.torsion_free())
    genus = b[1] // 2 if is_surface else None
    doc = {
        **head,
        "result": {
            "betti": list(b),
            "torsion_free": summary.torsion_free(),
            "euler": summary.euler,
            "status": "surface" if is_surface else "not a homology surface",
            "genus": genus,
        },
    }
    if is_surface:
        human = [f"homology surface of genus {genus}",
                 f"betti: {list(b)}  euler: {summary.euler}"]
    else:
        human = ["not a homology surface",
                 f"betti: {list(b)}  torsion-free: {summary.torsion_free()}"]
    _emit(doc, args.format, args.out, human)
    return EXIT_OK


def cmd_span(args):
    cx, summary, head = _graph_complex(args)
    degree = args.degree
    bc = cyc.enumerate_basic_classes(cx, degree=degree)
    rank, saturated = class_span(bc.chains, cx, degree)
    betti = summary.betti(degree)
    if rank != betti:
        status = "NOT-GENERATED"
    else:
        status = "GENERATED" if saturated else "RATIONAL-ONLY"
    doc = {
        **head,
        "degree": degree,
        "result": {
            "betti": betti,
            "span_rank": rank,
            "candidates": len(bc.chains),
            "status": status,
        },
    }
    human = [f"degree {degree}: span rank {rank} of betti {betti}"
             f" from {len(bc.chains)} candidates -> {status}"]
    _emit(doc, args.format, args.out, human)
    return EXIT_OK


def cmd_export(args):
    cx, summary, head = _graph_complex(args)
    chains = cyc.enumerate_basic_classes(cx, degree=1).chains \
        if cx.max_dim >= 1 else []
    doc = {
        **head,
        "complex": complex_to_doc(cx),
        "homology": summary.to_doc(),
        "basic_classes": [cyc.chain_to_doc(z) for z in chains],
    }
    human = [f"cells per dimension: {list(cx.cell_counts())}",
             f"betti: {list(summary.betti_vector())}",
             f"basic classes exported: {len(chains)}"]
    _emit(doc, args.format, args.out, human)
    return EXIT_OK


def cmd_verify(args):
    from .checks import run_verification  # only verify needs the suite
    report = run_verification(only=args.only, seed=args.seed,
                              cases=args.cases,
                              fuzz_instances=args.fuzz_instances)
    human = []
    for item in report["checks"]:
        mark = "PASS" if item["passed"] else "FAIL"
        human.append(f"[{mark}] {item['id']}: {item['description']}")
        if not item["passed"]:
            human.append(f"       expected: {item['reference']}")
            human.append(f"       details: {item['details']}")
    human.append(f"{report['total'] - report['failed']}/{report['total']}"
                 " checks passed")
    doc = {"command": "verify", "report": report}
    _emit(doc, args.format, args.out, human)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing keeps no
    state on it, each call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="graphconf",
        description="exact homology of configuration spaces of graphs"
                    " with sinks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_graph=True):
        if needs_graph:
            p.add_argument("--graph", required=True,
                           help="family spec like star:3, banana:4, k:5,"
                                " k33, circle, interval, h, or a JSON file")
            p.add_argument("-n", type=int, required=True,
                           help="number of particles")
            p.add_argument("--sinks", default=None,
                           help="comma-separated sink vertices (overrides"
                                " the spec)")
            p.add_argument("--caps", default="",
                           help="MAX_CELLS[,MAX_NNZ] resource caps")
        p.add_argument("--format", choices=("human", "machine"),
                       default="human")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("homology", help="Betti numbers and torsion")
    common(p)
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("surface-check",
                       help="homological surface profile and genus")
    common(p)
    p.set_defaults(fn=cmd_surface_check)

    p = sub.add_parser("span", help="span of enumerated basic classes")
    common(p)
    p.add_argument("--degree", type=int, default=1, choices=(1, 2))
    p.set_defaults(fn=cmd_span)

    p = sub.add_parser("export",
                       help="complex, boundary matrices and cycles")
    common(p)
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    common(p, needs_graph=False)
    p.add_argument("--only", default=None,
                   help="run only checks whose id starts with this prefix")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--cases", type=int, default=1000,
                   help="cases per randomized property suite")
    p.add_argument("--fuzz-instances", type=int, default=100)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        # GraphSpecError and CycleConstructionError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
