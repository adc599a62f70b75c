"""In-memory span tracing around the public functions of graphconf.

The wrappers are installed from outside the program, so they survive
refactors: modules are reached through ``importlib.import_module`` (the
package attribute ``graphconf.homology`` is the ``homology`` function, not
the submodule), every binding of a wrapped function in any loaded
``graphconf`` module is patched (this covers names taken with
``from ... import``), methods are wrapped on their class, and a name that
no longer exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, layer metric that takes the span's self time)
TARGETS = (
    ("graphconf.cli", "main", "cli.self_s"),
    ("graphconf.model", "enumerate_cells", "model.enumerate_s"),
    ("graphconf.model", "CubeComplex.boundary_entries", "model.assemble_s"),
    ("graphconf.model", "complex_to_doc", "model.export_s"),
    ("graphconf.homology", "smith_normal_form", "homology.snf_s"),
    ("graphconf.homology", "rank_over_rationals", "homology.rank_s"),
    ("graphconf.homology", "solve_in_image", "homology.solve_s"),
    ("graphconf.homology", "homology", "homology.self_s"),
    ("graphconf.homology", "class_span_rank", "homology.self_s"),
    ("graphconf.homology", "boundary_matrix", "homology.self_s"),
    ("graphconf.cycles", "enumerate_basic_classes", "cycles.classes_s"),
    ("graphconf.cycles", "nonproduct_cycle", "cycles.classes_s"),
)


def _nnz(matrix):
    nnz = getattr(matrix, "nnz", None)
    return nnz if isinstance(nnz, int) else 0


def _count(tracer, attr, args, result):
    """Work counters taken at the layer boundary of one wrapped call."""
    c = tracer.counts
    if attr == "enumerate_cells":
        counts = getattr(result, "cell_counts", None)
        c["model.cells"] += sum(counts()) if counts else 0
    elif attr == "CubeComplex.boundary_entries":
        # count each (complex, degree) once per operation: the complex may
        # cache its matrices, and a repeated call assembles nothing
        key = (tracer.op, id(args[0]), args[1] if len(args) > 1 else None)
        if key not in tracer.assembled:
            tracer.assembled.add(key)
            c["model.nnz"] += len(getattr(result, "entries", ()))
    elif attr == "smith_normal_form":
        c["homology.snf_calls"] += 1
        c["homology.elim_nnz"] += _nnz(args[0]) if args else 0
    elif attr == "rank_over_rationals":
        c["homology.rank_calls"] += 1
        c["homology.elim_nnz"] += _nnz(args[0]) if args else 0
    elif attr == "solve_in_image":
        c["homology.elim_nnz"] += _nnz(args[0]) if args else 0
    elif attr == "enumerate_basic_classes":
        tracer.op_candidates[tracer.op] += len(getattr(result, "chains", ()))
    elif attr == "class_span_rank" and isinstance(result, int):
        tracer.op_span_rank[tracer.op] += result


class Tracer:
    """Spans kept in memory: ``[name, start, end, parent, op]``, where
    ``parent`` is the index of the enclosing span and ``op`` the id of the
    operation (the instance) it belongs to.  ``clock`` gives the span
    times; the benchmark passes one that leaves out its own speed probe."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans = []
        self.metric_of = {}
        self.counts = Counter()
        self.assembled = set()
        self.op_candidates = Counter()
        self.op_span_rank = Counter()
        self.op = None
        self.absent = []
        self._stack = []
        self._restore = []

    # -- spans -------------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = self.clock()

    def span(self, name, metric=None):
        """Context manager for a span recorded by the benchmark itself."""
        if metric:
            self.metric_of[name] = metric
        return _Span(self, name)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name, attr):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            _count(tracer, attr, args, result)
            return result

        return wrapper

    def install(self):
        self.absent = []
        for modname, attr, metric in TARGETS:
            name = f"{modname.rpartition('.')[2]}.{attr}"
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent.append(f"{modname}.{attr}")
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                fn = vars(owner).get(method) if isinstance(owner, type) else None
                if not callable(fn):
                    self.absent.append(f"{modname}.{attr}")
                    continue
                self._patch(owner, method, self._wrap(fn, name, attr))
            else:
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.absent.append(f"{modname}.{attr}")
                    continue
                wrapper = self._wrap(fn, name, attr)
                for mod in list(sys.modules.values()):
                    mname = getattr(mod, "__name__", "")
                    if mname != "graphconf" and not mname.startswith("graphconf."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, wrapper)
            self.metric_of[name] = metric

    def _patch(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # -- per-layer numbers -----------------------------------------------------

    def self_times(self):
        """Per-metric sum of self time: each span's duration minus the
        durations of its direct children (spans nest on one thread)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            metric = self.metric_of.get(name)
            if metric:
                totals[metric] += (end - start) - child[i]
        return totals

    def useful(self):
        """Span rank and candidate count summed over the operations that
        enumerated candidate classes."""
        ops = [op for op, n in self.op_candidates.items() if n]
        self.counts["cycles.candidates"] = sum(self.op_candidates.values())
        return (sum(self.op_span_rank[op] for op in ops),
                sum(self.op_candidates[op] for op in ops))

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.assembled.clear()
        self.op_candidates.clear()
        self.op_span_rank.clear()


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer.begin(self.name)

    def __exit__(self, *exc):
        self.tracer.end()
        return False
