"""Black-region graphs assembled from per-vertex lists of edge ids; the
benchmark builds its hub graphs with :func:`build_graph`."""

from __future__ import annotations

from .planar import Edge, EmbeddedGraph

__all__ = ["build_graph"]


def build_graph(
    classes: dict[int, int],
    endpoints: dict[int, tuple[int, int]],
    rotations: dict[int, list[int]],
) -> EmbeddedGraph:
    """Assemble an embedded graph from per-vertex lists of edge ids.

    ``rotations`` lists plain edge ids anticlockwise at each vertex; they are
    resolved to edge ends using ``endpoints``.  Parallel edges are fine since
    a loop-free edge has one end per endpoint.
    """
    g = EmbeddedGraph()
    for v, cls in classes.items():
        g.add_vertex(v, cls)
    for eid, (u, v) in sorted(endpoints.items()):
        # the medial names its crossings after the black edges, so record
        # that here too; each edge then has weight 1
        g.edges[eid] = Edge(id=eid, u=u, v=v, crossings=(eid,))
    for v, order in rotations.items():
        g.rotation[v] = [
            (eid, 0 if endpoints[eid][0] == v else 1) for eid in order
        ]
        for eid in order:
            if v not in endpoints[eid]:
                raise ValueError(f"edge {eid} not incident to vertex {v}")
    g.trace_faces()  # raises unless the rotation system is spherical
    return g

