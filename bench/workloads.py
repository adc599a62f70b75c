"""The benchmark's four workloads.

Each workload has a fixed instance ladder, an answer oracle that does not
come from the program, a set-up step that builds its raw inputs from the
seed, and a pass that builds every graph, complex and matrix fresh and
calls the program once per instance.  An operation is one instance; it
fails on an exception, a nonzero exit code or a wrong answer.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import random
import signal
import statistics
from math import comb, factorial
from pathlib import Path
from time import perf_counter


def lib(module="graphconf"):
    """The module as it is bound now, so that installed wrappers apply."""
    return importlib.import_module(module)


# -- oracles -------------------------------------------------------------------

# vertex valences (a loop counts twice) and edge count of each sink-free
# graph, written out here so the oracle does not read the program's graphs
VALENCES = {
    "k:5": ((4,) * 5, 10),
    "k:4": ((3,) * 4, 6),
    "k33": ((3,) * 6, 9),
    "banana:4": ((4, 4), 4),
    "h": ((3, 3, 1, 1, 1, 1), 5),
    "star:3+circle": ((5, 1, 1, 1), 4),
}


def gal_euler(spec, n):
    """Euler characteristic of Conf_n of a sink-free graph by Gal's formula:
    sum_n chi_n t^n / n! = prod_v (1 - (d_v - 1) t) / (1 - t)^|E|."""
    valences, edges = VALENCES[spec]
    num = [1]
    for d in valences:
        nxt = num + [0]
        for i, c in enumerate(num):
            nxt[i + 1] -= (d - 1) * c
        num = nxt
    coeff = sum(num[i] * comb(n - i + edges - 1, edges - 1)
                for i in range(min(n, len(num) - 1) + 1))
    return coeff * factorial(n)


def alternating(xs):
    return sum((-1) ** k * x for k, x in enumerate(xs))


# -- host speed ----------------------------------------------------------------

# The host's speed drifts by up to a factor of two, in phases of seconds
# (NOTES.md, "Host speed").  So a fixed reference workload is timed before
# and during every operation, and the operation's time is reported at the
# nominal speed where one reference() call takes REFERENCE_S.
REFERENCE_S = 0.004
BRACKET = 6  # reference() timings before each operation and after the last
PROBE_INTERVAL = 0.1  # wall seconds between timings during an operation


def reference():
    """A fixed pure-Python workload of the same kind as the program's:
    cube-like tuple cells in a dict, then sparse elimination mod a prime
    over dict rows.  It is the benchmark's own code, so no change to the
    program changes its cost; only the host's speed does."""
    rng = random.Random(12345)
    cells = {}
    for _ in range(300):
        cell = tuple(sorted(rng.sample(range(16), 4)))
        cells.setdefault(cell, len(cells))
    p = 2**31 - 1
    n = 24
    rows = [{c: rng.randint(-3, 3) or 1 for c in rng.sample(range(n), 6)}
            for _ in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in rows if col in r), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rank += 1
        inv = pow(pivot[col], p - 2, p)
        for row in rows:
            f = row.get(col)
            if f:
                f = f * inv % p
                for c, v in pivot.items():
                    x = (row.get(c, 0) - f * v) % p
                    if x:
                        row[c] = x
                    else:
                        row.pop(c, None)
    return len(cells), rank


def reference_timings(count):
    timings = []
    for _ in range(count):
        start = perf_counter()
        reference()
        timings.append(perf_counter() - start)
    return timings


class SpeedProbe:
    """Times reference() every PROBE_INTERVAL wall seconds while an
    operation runs.  The timer signal is handled in the benchmark's own
    thread, between the program's bytecodes.  ``spent`` adds up the wall
    time of every probe in the process, which program_clock() leaves out."""

    spent = 0.0

    def __init__(self):
        self.timings = []

    def _sample(self, signum, frame):
        start = perf_counter()
        reference()
        self.timings.append(perf_counter() - start)
        SpeedProbe.spent += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def program_clock():
    """Wall seconds, less the time the speed probe took."""
    return perf_counter() - SpeedProbe.spent


class OpLog:
    """Outcome of every operation of one pass: id, seconds, status
    (``ok``, ``error`` or ``wrong``) and a detail line, with the reference
    timings taken before (``before``) and during (``during``) each."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.records = []
        self.before = []
        self.during = []
        self.speeds = []

    def scaled(self):
        """Operation seconds at the nominal speed, once the pass is over.
        An operation's speed is the mean of REFERENCE_S / timing over the
        reference timings before it, during it and after it (before the
        next operation); in phases of seconds, short operations take the
        speed from their neighbours and long ones from their own probe."""
        self.before.append(reference_timings(BRACKET))
        self.speeds = [
            statistics.fmean(REFERENCE_S / t for t in
                             self.before[i] + self.during[i]
                             + self.before[i + 1])
            for i in range(len(self.records))]
        return [seconds * speed for (_, seconds, _, _), speed
                in zip(self.records, self.speeds)]

    def run(self, op_id, call, check):
        self.tracer.op = op_id
        gc.collect()  # every call starts from the same heap state
        self.before.append(reference_timings(BRACKET))
        probe = SpeedProbe()
        self.during.append(probe.timings)
        start = program_clock()
        try:
            with probe, self.tracer.span("op"):
                value = call()
        except Exception as exc:  # counted as a failed operation
            self.records.append((op_id, program_clock() - start, "error",
                                 f"{type(exc).__name__}: {exc}"))
            return
        seconds = program_clock() - start
        try:
            problem = check(value)
        except Exception as exc:  # output the oracle cannot read is wrong
            problem = f"unreadable answer: {type(exc).__name__}: {exc}"
        self.records.append((op_id, seconds, "wrong" if problem else "ok",
                             problem or ""))


def _mismatch(what, got, want):
    return None if got == want else f"{what} {got!r}, expected {want!r}"


def _first(*problems):
    return next((p for p in problems if p), None)


# -- homology-ladder -----------------------------------------------------------

# spec, particles, sinks, Betti numbers, Euler characteristic; all torsion-free
HOMOLOGY_LADDER = (
    ("k:5", 2, None, (1, 12, 1), -10),
    ("k33", 2, None, (1, 8, 1), -6),
    ("banana:4", 3, None, (1, 26, 1), -24),
    ("h", 3, None, (1, 31, 0), -30),
    ("k:4", 3, None, (1, 12, 11, 0), 0),
    ("k:4", 3, "0", (1, 9, 12, 0), 4),
    ("banana:4", 5, "0,1", (1, 15, 70, 105, 1), -48),
)


def _label(spec, n, sinks=None):
    return f"{spec}{'+s' + sinks if sinks else ''}/n{n}"


def homology_setup(rng, workdir):
    out = workdir / "homology"
    out.mkdir(parents=True, exist_ok=True)
    return [(spec, n, sinks, betti, euler, out / f"{i}.json")
            for i, (spec, n, sinks, betti, euler) in enumerate(HOMOLOGY_LADDER)]


def homology_pass(inputs, log):
    for spec, n, sinks, betti, euler, out in inputs:
        argv = ["homology", "--graph", spec, "-n", str(n),
                "--format", "machine", "--out", str(out)]
        if sinks:
            argv += ["--sinks", sinks]
        out.unlink(missing_ok=True)

        def call(argv=argv):
            code = lib("graphconf.cli").main(argv)
            if code != 0:
                raise RuntimeError(f"exit code {code}")

        def check(_, spec=spec, n=n, sinks=sinks, betti=betti, euler=euler,
                  out=out):
            doc = json.loads(out.read_text())
            res = doc["result"]
            degrees = res["degrees"]
            got_betti = tuple(d["betti"] for d in degrees)
            cells = [d["cells"] for d in degrees]
            return _first(
                _mismatch("particles", doc["particles"], n),
                _mismatch("betti", got_betti, betti),
                _mismatch("torsion", [d["torsion"] for d in degrees],
                          [[]] * len(degrees)),
                _mismatch("euler", res["euler"], euler),
                _mismatch("sum of (-1)^k cells", alternating(cells), euler),
                _mismatch("sum of (-1)^k betti", alternating(got_betti), euler),
                None if sinks else _mismatch("Gal's euler", gal_euler(spec, n),
                                             euler))

        log.run(_label(spec, n, sinks), call, check)


# -- cells-build ---------------------------------------------------------------

# spec, particles, cells per dimension
CELLS_LADDER = (
    ("h", 5, (36120, 75600, 37800)),
    ("k:4", 4, (12024, 39744, 44064, 18144, 1944)),
)
# the K5 n3 complex in the CLI's machine format, as
# json.dumps(complex_to_doc(cx), sort_keys=True, indent=2) + "\n"
EXPORT = ("k:5", 3, 10943266,
          "7d8527cecba51c86b23ee30eb2e8476de776db90264758049276d331cea1d0e0")


def _graph(spec, sinks=()):
    api = lib()
    return api.build_graph(api.parse_graph_spec(spec, sinks=sinks))


def cells_setup(rng, workdir):
    return list(CELLS_LADDER) + [EXPORT]


def cells_pass(inputs, log):
    for item in inputs:
        if item is not EXPORT:
            spec, n, counts = item
            g = _graph(spec)

            def call(g=g, n=n):
                api = lib()
                cx = api.enumerate_cells(g, n)
                nnz = tuple(len(cx.boundary_entries(k).entries)
                            for k in range(1, cx.max_dim + 1))
                return cx.cell_counts(), nnz, api.euler_characteristic(cx)

            def check(value, spec=spec, n=n, counts=counts):
                got_counts, nnz, chi = value
                return _first(
                    _mismatch("cells", got_counts, counts),
                    # each k-cube has 2k distinct codimension-1 faces
                    _mismatch("nnz", nnz, tuple(2 * k * c for k, c in
                                                enumerate(counts) if k)),
                    _mismatch("euler", chi, gal_euler(spec, n)),
                    _mismatch("sum of (-1)^k cells", alternating(counts),
                              gal_euler(spec, n)))

            log.run(_label(spec, n), call, check)
        else:
            spec, n, size, digest = item
            g = _graph(spec)

            def call(g=g, n=n):
                cx = lib().enumerate_cells(g, n)
                tracer = log.tracer
                with tracer.span("bench.export", "model.export_s"):
                    doc = lib("graphconf.model").complex_to_doc(cx)
                    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
                tracer.counts["model.export_bytes"] += len(text)
                return text

            def check(text, size=size, digest=digest):
                data = text.encode()
                return _first(
                    _mismatch("export bytes", len(data), size),
                    _mismatch("export sha256",
                              hashlib.sha256(data).hexdigest(), digest))

            log.run(f"{_label(spec, n)}/export", call, check)


# -- span-classes --------------------------------------------------------------

# label, graph, particles, degree, Betti number that the span must reach;
# a graph is a family spec with sinks, or the JSON file written in set-up
SPAN_LADDER = (
    ("k:5/n2", ("k:5", ()), 2, 1, 12),
    ("banana:4/n3", ("banana:4", ()), 3, 1, 26),
    ("k33/n2", ("k33", ()), 2, 1, 8),
    ("h/n3", ("h", ()), 3, 1, 31),
    ("star:3+circle/n3", "star3-circle.json", 3, 1, 121),
    ("k:4+s0/n2", ("k:4", (0,)), 2, 1, 6),
    ("k:5+s0,1/n2", ("k:5", (0, 1)), 2, 1, 12),
    ("h+s0/n3", ("h", (0,)), 3, 1, 18),
    ("banana:4+s0/n3", ("banana:4", (0,)), 3, 1, 9),
    ("k:4/n3/degree2", ("k:4", ()), 3, 2, 11),
)


def span_setup(rng, workdir):
    api = lib()
    out = workdir / "span"
    out.mkdir(parents=True, exist_ok=True)
    # the 3-star wedged at its centre with a circle
    g = api.wedge(api.star(3), 0, api.circle(), 0)
    (out / "star3-circle.json").write_text(api.dump_graph(g))
    items = [(label, out / graph if isinstance(graph, str) else graph,
              n, degree, betti)
             for label, graph, n, degree, betti in SPAN_LADDER]
    return items + [("banana:4/n3/nonproduct", None, 3, 2, None)]


def span_pass(inputs, log):
    for label, graph, n, degree, betti in inputs:
        if graph is None:
            g = _graph("banana:4")

            def call(g=g):
                api = lib()
                cx = api.enumerate_cells(g, 3)
                z = api.nonproduct_cycle(cx)
                return (len(z), api.is_cycle(z), api.is_boundary(z, cx),
                        api.class_span_rank([z], cx, 2))

            log.run(label, call,
                    lambda v: _mismatch("support, cycle, boundary, span",
                                        v, (144, True, False, 1)))
            continue
        if isinstance(graph, Path):
            g = lib().load_graph(graph.read_text())
        else:
            g = _graph(*graph)

        def call(g=g, n=n, degree=degree):
            api = lib()
            cx = api.enumerate_cells(g, n)
            bc = api.enumerate_basic_classes(cx, degree=degree)
            return api.class_span_rank(bc.chains, cx, degree)

        log.run(label, call,
                lambda rank, betti=betti: _mismatch("span rank", rank, betti))


# -- snf-torsion ---------------------------------------------------------------

# invariant factors planted beside the units; each divides the next
FACTOR_CHAINS = ((2, 2, 6, 12), (2, 4, 8), (3, 3, 9), (2, 6, 30), (5, 10))
BODY_SIZES = (40, 60, 80, 100, 120)
BODY_PER_SIZE = 4
# One matrix with a fixed generator seed sits in every pass.  It is dense
# enough that today's Smith form takes its slow path on it, so the tail
# shows in max_call_s on every seed; a seeded tail would make max_call_s
# swing by 100x between seeds.
WITNESS = (9, 60, 6 * 60)  # generator seed, size, hiding operations


def planted(rng, size, rank, factors, ops):
    """Dense rows of ``U diag(1, ..., 1, factors, 0, ...) V`` and the
    columns of ``U``, for ``ops`` random +-1 elementary row and column
    operations."""
    diag = [1] * (rank - len(factors)) + list(factors)
    a = [[0] * size for _ in range(size)]
    u = [[int(i == j) for j in range(size)] for i in range(size)]
    for i, d in enumerate(diag):
        a[i][i] = d
    for _ in range(ops):
        i, j = rng.sample(range(size), 2)
        s = rng.choice((1, -1))
        if rng.random() < 0.5:
            for rows in (a, u):
                ri, rj = rows[i], rows[j]
                for c in range(size):
                    ri[c] += s * rj[c]
        else:
            for row in a:
                row[i] += s * row[j]
    return a, u


def _matrix_case(label, a, u, rank, factors, j):
    size = len(a)
    entries = tuple((r, c, v) for r, row in enumerate(a)
                    for c, v in enumerate(row) if v)
    d = factors[j - (rank - len(factors))]
    col = {r: u[r][j] for r in range(size) if u[r][j]}
    return (label, size, entries, rank,
            [1] * (rank - len(factors)) + list(factors),
            {r: d * v for r, v in col.items()}, col)


def snf_setup(rng, workdir):
    cases = []
    for size in BODY_SIZES:
        for k in range(BODY_PER_SIZE):
            rank = size - rng.randint(0, size // 10)
            factors = rng.choice(FACTOR_CHAINS)
            j = rank - len(factors) + rng.randrange(len(factors))
            a, u = planted(rng, size, rank, factors, 4 * size)
            cases.append(_matrix_case(f"body{size}.{k}", a, u, rank,
                                      factors, j))
    seed, size, ops = WITNESS
    a, u = planted(random.Random(seed), size, size - 4, (2, 2, 6, 12), ops)
    cases.append(_matrix_case(f"witness{size}", a, u, size - 4,
                              (2, 2, 6, 12), size - 5))
    return cases


def snf_pass(inputs, log):
    for label, size, entries, rank, diag, image, unit in inputs:
        m = lib().SparseIntMatrix(size, size, entries)

        def call(m=m, image=image, unit=unit):
            api = lib()
            return (api.smith_normal_form(m), api.rank_over_rationals(m),
                    api.solve_in_image(m, dict(image)),
                    api.solve_in_image(m, dict(unit)))

        def check(value, rank=rank, diag=diag):
            factors, got_rank, multiple, single = value
            return _first(
                _mismatch("invariant factors", factors, diag),
                _mismatch("rank", got_rank, rank),
                _mismatch("U(d_j e_j) in image", multiple, True),
                _mismatch("U e_j in image", single, False))

        log.run(label, call, check)


WORKLOADS = {
    "homology-ladder": (homology_setup, homology_pass),
    "cells-build": (cells_setup, cells_pass),
    "span-classes": (span_setup, span_pass),
    "snf-torsion": (snf_setup, snf_pass),
}
