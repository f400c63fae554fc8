"""Planar multigraphs given by rotation systems.

A graph embedded in the sphere is recorded combinatorially: at each vertex we
list the cyclic (anticlockwise) order of the edge ends meeting it.  Faces are
traced from this data alone.  Following a directed edge into its head, the
face boundary continues along the rotation predecessor of the arriving end;
this keeps every face on the left of its (anticlockwise) boundary walk.  A
trace reads each rotation list once into a map from each half-edge to the
next one along its face and walks that map's cycles with :func:`cycles`,
so it costs O(E log E), the log for sorting the half-edges.  The same
walker traces Seifert circles, strands and P-arc curves.  On the sphere the
count of traced faces then satisfies F = E - V + 1 + C, where C is the
number of connected components, and every trace asserts this.  The surgeries
of :mod:`kakimizu.theta` update only the faces they touch, each checked
locally, and every stage there ends with one full trace.

Edges of a black-region graph carry a transverse orientation, read off the
vertex classes rather than stored: every such edge joins a +1 vertex to a -1
vertex, and its positive side is the one on the left when the edge is walked
from its +1 end.  The rule is robust under face retracing -- faces are
renumbered freely by surgeries, but "left of the +1 end" never changes
meaning.

Vertices carry an orientation class in {+1, -1, 0}: +1 for a vertex whose
attaching circle runs anticlockwise, -1 for clockwise, 0 for unoriented.
Black-region graphs of special alternating diagrams are bipartite between the
two classes, and cyclic edge orders of theta graphs are read at the +1 end.
"""

from __future__ import annotations

from .record import Record

__all__ = [
    "Edge",
    "EmbeddedGraph",
    "HalfEdge",
    "cycles",
    "embed",
    "face_index",
]

# A dart is one end of an edge: (edge id, end) with end 0 at u and end 1 at v.
Dart = tuple[int, int]

# A half-edge is a directed edge: (edge id, direction) with direction 0
# meaning u -> v and direction 1 meaning v -> u.  The half-edge leaving along
# a dart is the same pair as the dart.
HalfEdge = tuple[int, int]


class Edge(Record):
    """One edge of an embedded multigraph.

    ``crossings`` lists the diagram crossings sitting along the edge, in
    transverse order from the negative side to the positive side; it is empty
    for edges that do not come from a diagram (added arcs, hand-built
    graphs).  An edge of F(D) has weight ``len(crossings)``.
    """

    def __init__(self, id: int, u: int, v: int, crossings: tuple[int, ...] = ()):
        self.id = id
        self.u = u
        self.v = v
        self.crossings = crossings


def cycles(succ: dict, starts) -> list[list]:
    """The cycles of the map ``succ`` through each of ``starts`` still a
    key, each beginning at its start, popping ``succ`` as they go.  A walk
    that meets a popped key raises ``KeyError``, so a map sending two keys
    to one value is caught, not looped on.  No value may be ``None``: a
    start that pops to ``None`` counts as walked."""
    out = []
    pop = succ.pop
    for start in starts:
        x = pop(start, None)
        if x is not None:
            cycle = [start]
            while x != start:
                cycle.append(x)
                x = pop(x)
            out.append(cycle)
    return out


def face_index(faces: list[list[HalfEdge]]) -> dict[HalfEdge, int]:
    """Map each half-edge of traced ``faces`` to the index of the face on
    its left."""
    return {h: i for i, cycle in enumerate(faces) for h in cycle}


class EmbeddedGraph:
    """A multigraph embedded in the sphere, with oriented edges.

    The embedding is the rotation system ``rotation``: for each vertex, the
    anticlockwise cyclic list of darts.  All structural operations keep the
    rotation lists and the edge dict consistent; ``trace_faces`` checks
    Euler's formula.
    """

    def __init__(self) -> None:
        self.orientation: dict[int, int] = {}
        self.edges: dict[int, Edge] = {}
        self.rotation: dict[int, list[Dart]] = {}

    # -- construction -----------------------------------------------------

    def add_vertex(self, v: int, orientation: int = 0) -> None:
        if v in self.rotation:
            raise ValueError(f"duplicate vertex {v}")
        self.rotation[v] = []
        self.orientation[v] = orientation

    def insert_edge(self, edge: Edge, after_u: Dart, after_v: Dart) -> None:
        """Insert an edge whose u-dart follows ``after_u`` anticlockwise at u
        and whose v-dart follows ``after_v`` at v."""
        if edge.id in self.edges:
            raise ValueError(f"duplicate edge id {edge.id}")
        for vertex in (edge.u, edge.v):
            if vertex not in self.rotation:
                raise ValueError(f"unknown vertex {vertex}")
        if edge.u == edge.v:
            raise ValueError(f"loop edge {edge.id} not supported in embeddings")
        self.edges[edge.id] = edge
        for vertex, end, anchor in ((edge.u, 0, after_u), (edge.v, 1, after_v)):
            rot = self.rotation[vertex]
            rot.insert(rot.index(anchor) + 1, (edge.id, end))

    # -- basic queries ----------------------------------------------------

    def edge_ids(self) -> list[int]:
        return sorted(self.edges)

    def dart_vertex(self, dart: Dart) -> int:
        edge = self.edges[dart[0]]
        return edge.u if dart[1] == 0 else edge.v

    def half_edge_head(self, h: HalfEdge) -> int:
        edge = self.edges[h[0]]
        return edge.v if h[1] == 0 else edge.u

    def component_count(self) -> int:
        edges = self.edges
        seen: set[int] = set()
        count = 0
        for start in self.rotation:
            if start in seen:
                continue
            count += 1
            stack = [start]
            seen.add(start)
            while stack:
                v = stack.pop()
                for eid, end in self.rotation[v]:
                    e = edges[eid]
                    w = e.u if end else e.v  # the far end of the dart
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return count

    # -- faces ------------------------------------------------------------

    def trace_faces(self) -> list[list[HalfEdge]]:
        """All faces, each an anticlockwise cycle of half-edges.

        Arriving at the head of a half-edge, the face on its left leaves
        along the rotation predecessor of the arriving end: one map sends
        each half-edge to that dart of the rotation lists, and the faces
        are its :func:`cycles` from the half-edges in sorted order.  So
        every face begins at its lexicographically least half-edge and the
        list comes out sorted by it, which keeps face indices
        reproducible.  Raises ``ValueError`` unless the rotation lists hold
        each dart of each edge once and the faces close up on the sphere.
        """
        # the half-edge arriving at dart (eid, end) is (eid, 1 - end)
        succ: dict[HalfEdge, Dart] = {}
        for rot in self.rotation.values():
            before = rot[-1] if rot else None
            for dart in rot:
                succ[dart[0], 1 - dart[1]] = before
                before = dart
        try:
            faces = cycles(succ, [(e, end) for e in sorted(self.edges) for end in (0, 1)])
            if succ:  # left over: half-edges of edges the graph lacks
                raise KeyError(next(iter(succ)))
            if self.edges:
                # Each connected component must close up spherically.  The
                # traced walks do not merge across components: a disconnected
                # graph on the sphere has E - V + 1 + C faces but E - V + 2C
                # boundary walks, less one per isolated vertex, which has none.
                isolated = sum(1 for rot in self.rotation.values() if not rot)
                expected = (len(self.edges) - len(self.rotation)
                            + 2 * self.component_count() - isolated)
                if len(faces) != expected:
                    raise ValueError(
                        f"embedding is not spherical: {len(faces)} faces, "
                        f"expected {expected}"
                    )
        except KeyError as e:  # a dart missing, listed twice or of no edge
            raise ValueError(
                f"rotation lists do not hold each dart of each edge once (at {e})"
            ) from None
        return faces

    def positive_face(self, eid: int, face_of: dict):
        """``face_of`` at the half-edge with the positive side of edge
        ``eid`` on its left, the one leaving its +1 end: a face index for a
        map from :func:`face_index`, a region id for
        ``ThetaGraph.region_of``.  The edge must join a +1 and a -1 vertex."""
        return face_of[(eid, 0 if self.orientation[self.edges[eid].u] == 1 else 1)]

    def negative_face(self, eid: int, face_of: dict):
        """``face_of`` at the half-edge with the negative side on its left,
        the one leaving the -1 end; the edge must join a +1 and a -1
        vertex."""
        return face_of[(eid, 1 if self.orientation[self.edges[eid].u] == 1 else 0)]

    # -- views ------------------------------------------------------------

    def parallel_classes(self) -> dict[tuple[int, int], list[int]]:
        """Edge ids grouped by unordered endpoint pair, each group sorted."""
        groups: dict[tuple[int, int], list[int]] = {}
        for eid in self.edge_ids():
            e = self.edges[eid]
            key = (min(e.u, e.v), max(e.u, e.v))
            groups.setdefault(key, []).append(eid)
        return groups


def embed(
    classes: dict[int, int],
    endpoints: dict[int, tuple[int, int]],
    rotations: dict[int, list[int]],
) -> tuple[EmbeddedGraph, list[list[HalfEdge]]]:
    """The embedded graph with vertex classes ``classes``, edges
    ``endpoints`` (id to (u, v)) and anticlockwise lists of edge ids
    ``rotations``, and its traced faces.  Edges go in in sorted id order,
    each its own one crossing, as the medial names crossings after edges.
    Every vertex gets its own rotation list, which surgeries edit.  Raises
    ``ValueError`` for an edge listed at a vertex it does not touch (a loop
    touches its vertex twice, so it cannot be resolved) or, as
    :meth:`EmbeddedGraph.trace_faces` does, for a non-spherical system."""
    g = EmbeddedGraph()
    g.orientation = dict(classes)
    for eid, (u, v) in sorted(endpoints.items()):
        g.edges[eid] = Edge(eid, u, v, (eid,))
    for x in classes:
        rot = g.rotation[x] = []
        for eid in rotations.get(x, ()):
            u, v = endpoints[eid]
            if x != u and x != v:
                raise ValueError(f"edge {eid} not incident to vertex {x}")
            rot.append((eid, 0 if x == u else 1))
    return g, g.trace_faces()
