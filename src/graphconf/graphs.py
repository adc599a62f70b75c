"""Finite multigraphs with sink vertices.

A graph is stored as a count of vertices, an ordered list of edges and a
set of sink vertices.  Edges are ordered pairs ``(u, v)``; the pair order
fixes an orientation, with half-edge ``2*e`` sitting at ``u`` (the iota
end) and half-edge ``2*e + 1`` at ``v`` (the tau end).  Loops (``u == v``)
and parallel edges are allowed.  Sinks are vertices where any number of
particles may collide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


class GraphSpecError(ValueError):
    """Raised for malformed graph specifications."""


class Graph:
    """Immutable connected multigraph with a distinguished sink set.

    Vertices are dense integers ``0..num_vertices-1``.  Edge ids are the
    indices into ``edges``.  Half-edge (end) ids are ``2*e + side`` with
    side 0 at the first endpoint of the pair and side 1 at the second.
    """

    __slots__ = ("num_vertices", "edges", "sinks", "_valence", "_ends_at",
                 "_sink_end_count")

    def __init__(self, num_vertices, edges, sinks=()):
        edges = tuple(tuple(edge) for edge in edges)
        sinks = tuple(sinks)
        if any(len(edge) != 2 for edge in edges):
            raise GraphSpecError("every edge needs exactly two endpoints")
        # a float or a bool is never read as a vertex number
        for x in (num_vertices, *sinks, *(x for edge in edges for x in edge)):
            if type(x) is not int:
                raise GraphSpecError(
                    f"vertex count, edge endpoints and sinks must be integers,"
                    f" got {x!r}")
        sinks = frozenset(sinks)
        for (u, v) in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise GraphSpecError(f"edge endpoint out of range: {(u, v)}")
        for s in sinks:
            if not 0 <= s < num_vertices:
                raise GraphSpecError(f"sink {s} is not a vertex")
        if not edges:
            raise GraphSpecError("a graph needs at least one edge")
        self.num_vertices = num_vertices
        self.edges = edges
        self.sinks = sinks
        valence = [0] * self.num_vertices
        ends_at = [[] for _ in range(self.num_vertices)]
        for e, (u, v) in enumerate(edges):
            valence[u] += 1
            valence[v] += 1
            ends_at[u].append(2 * e)
            ends_at[v].append(2 * e + 1)
        self._valence = tuple(valence)
        self._ends_at = tuple(tuple(h) for h in ends_at)
        self._sink_end_count = tuple(
            (u in sinks) + (v in sinks) for (u, v) in edges)
        if not self._is_connected():
            raise GraphSpecError("graph is not connected")

    def _is_connected(self):
        if self.num_vertices == 0:
            return False
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for h in self._ends_at[v]:
                w = self.vertex_of_end(other_end(h))
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.num_vertices

    # -- elementary queries -------------------------------------------------

    @property
    def num_edges(self):
        return len(self.edges)

    def valence(self, v):
        """Number of half-edges at ``v``; a loop contributes 2."""
        return self._valence[v]

    def ends_at(self, v):
        """Half-edge ids incident to ``v``, in edge order."""
        return self._ends_at[v]

    def vertex_of_end(self, h):
        return self.edges[h >> 1][h & 1]

    def is_sink(self, v):
        return v in self.sinks

    def is_loop(self, e):
        u, v = self.edges[e]
        return u == v

    def sink_endpoints(self, e):
        """Number of endpoints of ``e`` that are sinks (a loop at a sink
        counts as 2)."""
        return self._sink_end_count[e]

    def leaf_vertices(self):
        return tuple(v for v in range(self.num_vertices) if self._valence[v] == 1)

    def __eq__(self, other):
        return (isinstance(other, Graph)
                and self.num_vertices == other.num_vertices
                and self.edges == other.edges
                and self.sinks == other.sinks)

    def __hash__(self):
        return hash((self.num_vertices, self.edges, self.sinks))

    def __repr__(self):
        return (f"Graph({self.num_vertices}, {list(self.edges)},"
                f" sinks={sorted(self.sinks)})")

    def with_sinks(self, sinks):
        return Graph(self.num_vertices, self.edges, sinks)


def other_end(h):
    """The partner half-edge; the pairing is a fixed-point-free involution."""
    return h ^ 1


def edge_of_end(h):
    return h >> 1


def end_side(h):
    return h & 1


# -- named graph families ---------------------------------------------------

def interval(sinks=()):
    """Two vertices joined by one edge."""
    return Graph(2, [(0, 1)], sinks)


def circle(sinks=()):
    """One vertex with a loop.  A circle with a single valence-2 vertex is
    exactly this; no subdivision is performed."""
    return Graph(1, [(0, 0)], sinks)


def star(k, sinks=()):
    """Central vertex 0 with ``k`` leaves 1..k."""
    if k < 3:
        raise GraphSpecError("star graphs need at least 3 leaves")
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)], sinks)


def h_graph(sinks=()):
    """Two adjacent valence-3 vertices, each carrying two leaves."""
    return Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)], sinks)


def banana(k, sinks=()):
    """Two vertices joined by ``k`` parallel edges.

    Note the naming: ``banana(k)`` always has ``k`` parallel edges, so the
    four-edge graph whose three-particle configuration space is a genus-13
    homology surface is ``banana(4)``.
    """
    if k < 2:
        raise GraphSpecError("banana graphs need at least 2 parallel edges")
    return Graph(2, [(0, 1)] * k, sinks)


def complete(m, sinks=()):
    if m < 2:
        raise GraphSpecError("complete graphs need at least 2 vertices")
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    return Graph(m, edges, sinks)


def complete_bipartite(a, b, sinks=()):
    if a < 1 or b < 1:
        raise GraphSpecError("bipartite parts must be nonempty")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Graph(a + b, edges, sinks)


_FAMILIES = {
    "interval": (interval, 0),
    "circle": (circle, 0),
    "star": (star, 1),
    "h": (h_graph, 0),
    "banana": (banana, 1),
    "k": (complete, 1),
    "bip": (complete_bipartite, 2),
}


@dataclass(frozen=True)
class GraphSpec:
    """A named family with parameters; ``Graph(...)`` is the explicit
    form."""

    family: str
    params: tuple = ()
    sinks: tuple = ()

    @classmethod
    def named(cls, family, *params, sinks=()):
        return cls(family=family, params=tuple(params), sinks=tuple(sinks))


def build_graph(spec):
    """Build and validate a :class:`Graph` from a :class:`GraphSpec`."""
    try:
        builder, arity = _FAMILIES[spec.family]
    except KeyError:
        raise GraphSpecError(f"unknown graph family {spec.family!r}") from None
    if len(spec.params) != arity:
        raise GraphSpecError(
            f"family {spec.family!r} takes {arity} parameter(s),"
            f" got {len(spec.params)}")
    return builder(*spec.params, sinks=spec.sinks)


def parse_graph_spec(text, sinks=()):
    """Parse CLI shorthand such as ``star:3``, ``banana:4``, ``k:5``, ``k33``."""
    text = text.strip()
    if text == "k33":
        return GraphSpec.named("bip", 3, 3, sinks=sinks)
    name, _, rest = text.partition(":")
    if name not in _FAMILIES:
        raise GraphSpecError(f"unknown graph family {name!r}")
    params = tuple(int(p) for p in rest.split(":") if p) if rest else ()
    return GraphSpec.named(name, *params, sinks=sinks)


# -- canonical text format ---------------------------------------------------

def graph_to_doc(g):
    """Canonical dictionary form: vertex count, edge list in id order with
    the stored (iota, tau) orientation, and the sorted sink list."""
    return {
        "vertices": g.num_vertices,
        "edges": [list(e) for e in g.edges],
        "sinks": sorted(g.sinks),
    }


def graph_from_doc(doc):
    try:
        return Graph(doc["vertices"], doc["edges"], doc.get("sinks", ()))
    except (KeyError, TypeError) as exc:
        raise GraphSpecError(f"malformed graph document: {exc}") from exc


def dump_graph(g):
    return json.dumps(graph_to_doc(g), sort_keys=True, indent=2) + "\n"


def load_graph(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphSpecError(f"not a graph document: {exc}") from exc
    return graph_from_doc(doc)


# -- constructions -----------------------------------------------------------

def wedge(g1, v1, g2, v2):
    """Glue ``g2`` to ``g1`` by identifying ``v2`` with ``v1``.

    Vertices of ``g1`` keep their ids; the remaining vertices of ``g2`` are
    appended in order.  A vertex is a sink in the result iff it was one in
    its source, so the wedge point is a sink iff ``v1`` or ``v2`` was.
    """
    if not 0 <= v1 < g1.num_vertices:
        raise GraphSpecError(f"vertex {v1} not in first graph")
    if not 0 <= v2 < g2.num_vertices:
        raise GraphSpecError(f"vertex {v2} not in second graph")
    remap = {}
    next_id = g1.num_vertices
    for v in range(g2.num_vertices):
        if v == v2:
            remap[v] = v1
        else:
            remap[v] = next_id
            next_id += 1
    edges = list(g1.edges) + [(remap[u], remap[v]) for (u, v) in g2.edges]
    sinks = set(g1.sinks) | {remap[s] for s in g2.sinks}
    return Graph(next_id, edges, sinks)


def subdivide_edge(g, e):
    """Insert a non-sink valence-2 vertex in the middle of edge ``e``.

    Edge ``e`` is replaced in place by its first half; the second half is
    appended at the end of the edge list.
    """
    if not 0 <= e < g.num_edges:
        raise GraphSpecError(f"no edge {e}")
    u, v = g.edges[e]
    z = g.num_vertices
    edges = list(g.edges)
    edges[e] = (u, z)
    edges.append((z, v))
    return Graph(g.num_vertices + 1, edges, g.sinks)


def essential_vertices(g):
    """Vertices of valence at least three."""
    return frozenset(v for v in range(g.num_vertices) if g.valence(v) >= 3)


def dimension_bound(g, n):
    """Upper bound for the dimension of the combinatorial model of ``n``
    particles in ``g``: the smaller of ``n`` and the number of non-sink
    vertices of valence >= 2 plus the number of edges with both endpoints
    sinks (a loop at a sink counts)."""
    if n < 0:
        raise ValueError("particle count must be nonnegative")
    v2 = sum(1 for v in range(g.num_vertices)
             if not g.is_sink(v) and g.valence(v) >= 2)
    ew = sum(1 for e in range(g.num_edges) if g.sink_endpoints(e) == 2)
    return min(n, v2 + ew)
