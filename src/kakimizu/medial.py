"""Rebuild a special alternating diagram from its black-region graph.

The black regions of a special alternating diagram, one vertex each and one
edge per crossing, determine the diagram: thicken each vertex to a disk and
each edge to a band crossing itself once, and the boundary is the link.  This
module performs that construction combinatorially.  Given a plane bipartite
multigraph whose vertices are oriented (+1 anticlockwise, -1 clockwise, the
two classes of the bipartition), it produces the PD-coded diagram whose
black-region graph is the input again.  That round trip is the correctness
oracle for both directions, and the fixture generators build all example
diagrams this way.

Each strand arc of the diagram lives in one corner of the graph (a wedge
between anticlockwise-consecutive edge ends at a vertex).  Draw the edge e
from its anticlockwise endpoint x up to its clockwise endpoint y and put the
crossing on its midpoint; the four arms, anticlockwise from the incoming
under-strand, sit in the corners

    p0 = corner before e at x,   p1 = corner after e at y,
    p2 = corner before e at y,   p3 = corner after e at x.

The under-strand runs p0 -> p2 and the over-strand p1 -> p3, which makes the
strands alternate and every crossing positive, and makes the Seifert circle
around each +1 vertex run anticlockwise.
"""

from __future__ import annotations

from .diagram import Crossing, Diagram
from .planar import EmbeddedGraph, cycles

__all__ = ["medial"]

# a corner is (vertex, rotation index): the wedge anticlockwise after the
# dart at that index
Corner = tuple[int, int]


def _corners(g: EmbeddedGraph, dart: tuple[int, int]) -> tuple[Corner, Corner]:
    """The corners before and after ``dart`` at its vertex."""
    v = g.dart_vertex(dart)
    rot = g.rotation[v]
    i = rot.index(dart)
    return (v, (i - 1) % len(rot)), (v, i)


def medial(g: EmbeddedGraph) -> Diagram:
    """The special alternating diagram whose black-region graph is ``g``.

    ``g`` must be connected, loop-free, have at least two edges, and carry a
    proper vertex orientation: every edge must join a +1 vertex to a -1
    vertex.  Edge weights and sides are ignored; every edge contributes one
    crossing, with the edge's id as the crossing id.
    """
    if len(g.edges) < 2:
        raise ValueError("need at least 2 edges to build a diagram")
    for e in g.edges.values():
        cls = (g.orientation.get(e.u), g.orientation.get(e.v))
        if sorted(cls) != [-1, 1]:
            raise ValueError(
                f"edge {e.id} does not join the two orientation classes"
            )
    if g.component_count() != 1:
        raise ValueError("graph is not connected")

    succ: dict[Corner, Corner] = {}
    arms: dict[int, tuple[Corner, Corner, Corner, Corner]] = {}
    for eid in g.edge_ids():
        e = g.edges[eid]
        x, y = (e.u, e.v) if g.orientation[e.u] == 1 else (e.v, e.u)
        dart_x = (eid, 0 if e.u == x else 1)
        dart_y = (eid, 1 if e.u == x else 0)
        p0, p3 = _corners(g, dart_x)
        p2, p1 = _corners(g, dart_y)
        arms[eid] = (p0, p1, p2, p3)
        succ[p0] = p2  # under-strand
        succ[p1] = p3  # over-strand
    if len(succ) != sum(len(r) for r in g.rotation.values()):
        raise ValueError("corner bookkeeping failed; orientation not proper")

    try:  # trace the strands and hand out labels along them
        strands = cycles(succ, sorted(succ))
    except KeyError:
        raise ValueError("strand tracing did not close up") from None
    label = {c: i for i, c in enumerate((c for s in strands for c in s), 1)}

    crossings = [
        Crossing(eid, tuple(label[c] for c in arms[eid])) for eid in g.edge_ids()
    ]
    d = Diagram(crossings)
    if not d.is_special() or not all(d.over_in_first.values()):
        raise ValueError("medial construction produced a non-special diagram")
    return d
