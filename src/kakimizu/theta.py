"""Theta graphs: reduction, flype-arc augmentation, and regions.

The black-region graph of a diagram is simplified in two steps.  First all
bigons are removed: when two parallel edges bound a 2-sided face, one is
deleted and its weight added to the other, so weights count the crossings
that stack along each surviving edge.  Second the graph is augmented: a new
weight-0 edge may be drawn parallel to an existing edge through a face,
provided the complement still has no bigon region, and this is repeated
until no further arc fits.  Arcs record where equivalent flype circles can
run.  The result F(D) is well defined: processing candidates in any order
gives the same graph.  Each stage traces its map once, at its end, with the
global Euler check, and hands the faces on; in between, a merge joins two
faces and an arc splits one, each updating only those faces.

The theta graph keeps only the essential part of F(D): for every pair of
vertices joined by at least two edges, the ordered list of those edges with
their weights.  Each such component, with its endpoints cut apart, is a
circle of edges on the sphere; what matters beyond the cyclic edge order is
how these circles nest, recorded as a placement forest.  The complement of
the cut-apart theta graph falls into regions, and the graph keeps one fact
about them: the region of each wedge (``ThetaGraph.wedges``).  Wedge j of
a component lies on the positive side of its edge j and on the negative
side of edge j+1, and the two sides of an edge lie in different regions.
Adding a region moves a weight vector by +1 on the edges it meets on their
negative side and by -1 on those it meets on their positive side; these
moves generate the surface complex.
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections import deque

from .diagram import Diagram, _region_graph, decode_document
from .planar import Dart, Edge, EmbeddedGraph, HalfEdge, face_index
from .record import Record

__all__ = [
    "SPHERE",
    "ThetaComponent",
    "ThetaEdge",
    "ThetaGraph",
    "compute_regions",
    "merge_classes",
    "parse_theta",
    "theta_pipeline",
]

SPHERE = "sphere"


# -- the theta graph type ---------------------------------------------------


class ThetaEdge(Record):
    def __init__(self, id: int, weight: int):
        self.id = id
        self.weight = weight


class Placement(Record):
    def __init__(self, parent: int | str, parent_face: int, outer_face: int):
        self.parent = parent  # component id, or SPHERE
        self.parent_face = parent_face
        self.outer_face = outer_face


class ThetaComponent(Record):
    def __init__(self, id: int, edges: list[ThetaEdge], placement: Placement):
        self.id = id
        self.edges = edges  # positive cyclic order
        self.placement = placement

    @property
    def k(self) -> int:
        return len(self.edges)

    def total_weight(self) -> int:
        return sum(e.weight for e in self.edges)


class ThetaGraph:
    """A disjoint union of edge-circles with weights and a nesting forest.

    ``source`` (in-memory only, never serialized) keeps the F(D) graph when
    the graph came from a diagram, with the diagram crossings stacked along
    each of its edges, and ``region_of`` maps each half-edge of that graph
    to the id of the region of the face on its left.  ``wedges[c][j]`` is
    the id of the region of the cut-apart graph holding wedge j of
    component c; there are ``region_count`` regions.
    """

    def __init__(self, components: list[ThetaComponent]):
        self.components = sorted(components, key=lambda c: c.id)
        self.source: EmbeddedGraph | None = None
        self.region_of: dict[HalfEdge, int] | None = None
        self._validate()
        self.global_edge_order: list[int] = [
            e.id for comp in self.components for e in comp.edges
        ]
        self.edge_position = {eid: i for i, eid in enumerate(self.global_edge_order)}
        self.wedges = compute_regions(self)
        self.region_count = len(set().union(*self.wedges.values()))

    def _validate(self) -> None:
        ids = [c.id for c in self.components]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate component ids")
        seen_edges: set[int] = set()
        for comp in self.components:
            if comp.k < 2:
                raise ValueError(
                    f"component {comp.id}: a theta component needs at least 2 edges"
                )
            for e in comp.edges:
                if e.weight < 0:
                    raise ValueError(f"edge {e.id}: negative weight")
                if e.id in seen_edges:
                    raise ValueError(f"edge {e.id}: duplicate edge id")
                seen_edges.add(e.id)
            if comp.total_weight() < 1:
                raise ValueError(f"component {comp.id}: weightless theta component")
        by_id = {c.id: c for c in self.components}
        for comp in self.components:
            p = comp.placement
            if not (0 <= p.outer_face < comp.k):
                raise ValueError(f"component {comp.id}: outer_face out of range")
            if p.parent == SPHERE:
                parent_faces = 1  # the sphere has one face, face 0
            elif p.parent not in by_id:
                raise ValueError(f"component {comp.id}: unknown parent {p.parent}")
            elif p.parent == comp.id:
                raise ValueError(f"component {comp.id}: is its own parent")
            else:
                parent_faces = by_id[p.parent].k
            if not (0 <= p.parent_face < parent_faces):
                raise ValueError(f"component {comp.id}: parent_face out of range")

    @property
    def n_edges(self) -> int:
        return len(self.global_edge_order)

    def edge_regions(self) -> tuple[list[int], list[int]]:
        """Per edge position, the id of the region on the edge's negative
        side, which adding that region raises the edge by, and of the one
        on its positive side, which lowers it."""
        rows = [self.wedges[c.id] for c in self.components]
        negative = [r for row in rows for r in row[-1:] + row[:-1]]  # wedge j - 1
        return negative, [r for row in rows for r in row]

    def weights(self) -> tuple[int, ...]:
        return tuple(e.weight for c in self.components for e in c.edges)

    def to_json(self) -> dict:
        return {
            "components": [
                {
                    "id": c.id,
                    "edges": [e.to_json() for e in c.edges],
                    "placement": c.placement.to_json(),
                }
                for c in self.components
            ]
        }


def parse_theta(text: str) -> ThetaGraph:
    """Parse the theta JSON schema, checking every invariant."""
    return _theta_from_doc(decode_document(text))


def _theta_from_doc(doc) -> ThetaGraph:
    """:func:`parse_theta` on an already decoded document."""
    if not isinstance(doc, dict) or not isinstance(doc.get("components"), list):
        raise ValueError("malformed document: missing 'components'")

    def integer(x):
        # JSON integers only: bool is an int subclass, floats would truncate
        if type(x) is not int:
            raise TypeError(f"{x!r} is not an integer")
        return x

    comps = []
    for rec in doc["components"]:
        try:
            edges = [
                ThetaEdge(integer(e["id"]), integer(e["weight"])) for e in rec["edges"]
            ]
            pl = rec["placement"]
            parent = pl["parent"]
            if parent != SPHERE:
                parent = integer(parent)
            placement = Placement(
                parent, integer(pl["parent_face"]), integer(pl["outer_face"])
            )
            comps.append(ThetaComponent(integer(rec["id"]), edges, placement))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed component record: {exc}") from exc
    return ThetaGraph(comps)


# -- bigon reduction -------------------------------------------------------

Faces = list[list[HalfEdge]]


def _rooted(cycle: list) -> list:
    """A face walk restarted at its least half-edge, as traces give it."""
    i = cycle.index(min(cycle))
    return cycle[i:] + cycle[:i]


def _reduce_bigons(g: EmbeddedGraph, faces: Faces) -> tuple[EmbeddedGraph, Faces]:
    """Merge parallel edges bounding bigons until none remain, in place on
    ``g`` and its traced ``faces``; returns ``g`` with its traced faces.

    The surviving edge of each merge keeps the lower id, and the crossing
    chains concatenate in transverse order, so the chain of the final edge
    lists its crossings from the negative side to the positive.

    Bigons merge in the order of their least half-edges.  A merge puts the
    kept half-edge in place of the dropped edge's far half-edge, in the face
    across the dropped edge; that face keeps its length and now starts below
    the merged bigon, so when it is a bigon too it merges next, and no other
    face becomes a bigon.  Every face stays a closed walk, so a bigon walks
    a -> b -> a, and as each edge joins a +1 end to a -1 end, it lies on
    the positive side of one of its edges and the negative side of the other.
    """
    where = {h: (i, k) for i, cycle in enumerate(faces) for k, h in enumerate(cycle)}
    dropped: set[int] = set()
    for b in range(len(faces)):
        while faces[b] and len(faces[b]) == 2 and faces[b][0][0] != faces[b][1][0]:
            (keep, dk), (drop, dd) = sorted(faces[b])
            ek, ed = g.edges[keep], g.edges[drop]
            if g.positive_face(keep, where)[0] == b:
                # the bigon, and so drop, lies on keep's positive side: drop's
                # crossings come after
                ek.crossings = ek.crossings + ed.crossings
            else:
                ek.crossings = ed.crossings + ek.crossings
            del g.edges[drop], where[(drop, dd)]  # its darts go at the end
            dropped.add(drop)
            x, k = where.pop((drop, 1 - dd))
            faces[x][k] = (keep, dk)
            where[(keep, dk)] = (x, k)
            faces[b], b = None, x
    for rot in g.rotation.values():
        rot[:] = [dart for dart in rot if dart[0] not in dropped]
    traced = g.trace_faces()
    if sorted(_rooted(cycle) for cycle in faces if cycle) != traced:
        raise AssertionError("bigon merges disagree with the traced faces")
    return g, traced


# -- flype-arc augmentation ------------------------------------------------


def _face_arc_candidates(
    g: EmbeddedGraph, cycle: list[HalfEdge], near: dict[int, set[int]]
) -> list[tuple[tuple[int, Dart], tuple[int, Dart]]]:
    """The pairs of corners of one face, ``cycle`` from its least half-edge,
    in corner order, across which an arc parallel to an existing edge could
    be added without creating a bigon; ``near`` holds each vertex's
    neighbours.  Corners are indexed by vertex, so each corner meets only
    the corners of the face at its neighbours."""
    if len(cycle) < 4:
        return []  # two corners of a triangle are neighbours both ways round
    # The corner before each half-edge sits at its tail; a new dart belongs
    # immediately anticlockwise after the departing half-edge, which is
    # itself the dart it leaves along.
    edges = g.edges
    corners = [(edges[h[0]].v if h[1] else edges[h[0]].u, h) for h in cycle[1:] + cycle[:1]]
    at: dict[int, list[int]] = {}
    for i, (u, _) in enumerate(corners):
        at.setdefault(u, []).append(i)
    on_face, length = set(at), len(corners)
    return [
        (corners[i], corners[j])
        for i, (u, _) in enumerate(corners)
        for j in sorted(j for v in near[u] & on_face if v > u for j in at[v])
        if (j - i) % length >= 2 and (i - j) % length >= 2
    ]


def _augment_flype_arcs(g: EmbeddedGraph, faces: Faces) -> tuple[EmbeddedGraph, Faces]:
    """Add weight-0 arcs parallel to existing edges until no more fit, in
    place on ``g`` and its traced ``faces``; returns ``g`` with its traced
    faces.

    An arc through a face is admissible when the face has both endpoints of
    an existing edge on its boundary and neither side of the split it makes
    is a bigon.  At most one arc is added per face corner pair.  Candidates
    are processed in canonical (face, corner) order; any other order gives
    the same graph, which the test suite checks by isomorphism against
    shuffled runs of the retracing oracle.

    Each face keeps its candidate list.  An arc splits the one face whose
    corners it joins, and only the two new faces get new lists: arcs add no
    vertex pair, and every other face keeps its walk and corners.
    """
    near: dict[int, set[int]] = {v: set() for v in g.rotation}
    for e in g.edges.values():
        for w in (e.u, e.v):
            if g.orientation.get(w) not in (1, -1):
                raise ValueError("vertices must carry orientation classes")
        near[e.u].add(e.v)
        near[e.v].add(e.u)
    # no arc makes a bigon, and a map without 2-gon faces has at most
    # 3V - 6 edges, so that bounds the arcs the input has room for
    room = 3 * len(g.rotation) - 6 - len(g.edges)
    cycles = dict(enumerate(faces))
    face_of = face_index(faces)
    cands = {f: arcs for f, c in cycles.items() if (arcs := _face_arc_candidates(g, c, near))}
    queue = sorted((cycles[f][0], f) for f in cands)
    fresh = itertools.count(len(faces))
    eid = max(g.edges, default=-1) + 1
    while cands:
        if room <= 0:
            raise AssertionError("augmentation added more arcs than the map holds")
        room -= 1
        while queue[0][1] not in cands:
            del queue[0]
        (u, dart_u), (v, dart_v) = cands[queue[0][1]][0]
        f = face_of[dart_u]
        if face_of[dart_v] != f:
            raise AssertionError("an arc must join two corners of one face")
        g.insert_edge(Edge(eid, u, v), after_u=dart_u, after_v=dart_v)
        # the walk arriving at u now leaves along the arc and comes back
        # along the face from dart_v on; the arc's other half-edge closes
        # the face from dart_u on
        cands.pop(f, None)
        cycle = cycles.pop(f)
        a = cycle.index(dart_u)
        ring = cycle[a:] + cycle[:a]
        k = ring.index(dart_v)
        for part in ([(eid, 0), *ring[k:]], [(eid, 1), *ring[:k]]):
            f = next(fresh)
            cycle = cycles[f] = _rooted(part)
            face_of.update(dict.fromkeys(cycle, f))
            if arcs := _face_arc_candidates(g, cycle, near):
                cands[f] = arcs
                insort(queue, (cycle[0], f))
        eid += 1
    traced = g.trace_faces()
    if sorted(cycles.values()) != traced:
        raise AssertionError("arc splits disagree with the traced faces")
    return g, traced


# -- theta extraction ------------------------------------------------------


def _extract_theta(f: EmbeddedGraph, faces: Faces) -> ThetaGraph:
    """Keep the vertex pairs of F(D) joined by at least two edges; ``faces``
    are the traced faces of ``f``.

    Components are ordered by their smallest edge id; within a component the
    edges start at the smallest id and follow the positive cyclic order (the
    anticlockwise rotation at the +1 end, from which each edge's positive
    side lies to the left).  Wedge j of a component, between its j-th and
    j+1-st edges, holds the positive face of the j-th.  Faces merge across
    every edge outside the components into the regions of the cut-apart
    graph, and the components are placed by a walk from the region of the
    first wedge of the first component.  ``t.region_of`` maps each
    half-edge of ``f`` to its region id.
    """
    classes = [
        (pair, eids) for pair, eids in f.parallel_classes().items() if len(eids) >= 2
    ]
    classes.sort(key=lambda item: min(item[1]))
    if not classes:
        t = ThetaGraph([])
        t.source = f
        return t

    ordered_eids: list[list[int]] = []
    for (u, v), eids in classes:
        x = u if f.orientation[u] == 1 else v
        members = set(eids)
        rot = [eid for eid, _end in f.rotation[x] if eid in members]
        start = rot.index(min(rot))
        ordered_eids.append(rot[start:] + rot[:start])

    face_of = face_index(faces)
    in_theta = {eid for eids in ordered_eids for eid in eids}
    merged = merge_classes(
        sorted(set(face_of.values())),
        ((face_of[(eid, 0)], face_of[(eid, 1)]) for eid in f.edges if eid not in in_theta),
    )
    class_of = {face: c for c, members in enumerate(merged) for face in members}
    wedges = {
        i: [class_of[f.positive_face(eid, face_of)] for eid in eids]
        for i, eids in enumerate(ordered_eids)
    }
    t, region = _place(
        {i: [ThetaEdge(eid, len(f.edges[eid].crossings)) for eid in eids]
         for i, eids in enumerate(ordered_eids)},
        wedges, wedges[0][0],
    )
    if len(region) != len(merged):
        raise ValueError("the faces of F(D) do not form the regions of its theta graph")
    t.source = f
    t.region_of = {h: region[class_of[face]] for h, face in face_of.items()}
    return t


def _place(
    edges: dict[int, list[ThetaEdge]], wedges: dict[int, list], start
) -> tuple[ThetaGraph, dict]:
    """The theta graph of the components ``edges``, placed by a walk from
    the class ``start`` (:func:`_walk_placements`), and the region id of
    each class; ``wedges[c][j]`` is the class of wedge j of component c.  The
    walk places every component, and each region then holds the wedges of
    one class, since a component's outer face joins a face of its class;
    each class must hold those of exactly one region."""
    placement = _walk_placements(wedges, start)
    if len(placement) == len(edges):
        t = ThetaGraph([ThetaComponent(c, row, placement[c]) for c, row in edges.items()])
        region = {wedges[c][j]: r for c, row in t.wedges.items() for j, r in enumerate(row)}
        if len(region) == t.region_count:
            return t, region
    raise ValueError("the wedges do not form the regions of the theta graph")


def _walk_placements(wedges: dict[int, list], start) -> dict[int, Placement]:
    """Place components by a breadth-first walk of the tree of components
    and regions from the region ``start``; ``wedges[c][j]`` is the region
    of wedge j of component c, and a component is joined to the regions of
    its wedges.  A component's outer face is the wedge it is reached
    through, and its parent is the component, with the wedge, that this
    region was reached through, or the sphere in ``start``.  Components
    come in walk order, each after its parent."""
    held: dict = {}
    for c, row in wedges.items():
        for j, r in enumerate(row):
            held.setdefault(r, []).append((c, j))
    placement: dict[int, Placement] = {}
    queue = deque([(start, SPHERE, 0)])
    while queue:
        r, parent, parent_face = queue.popleft()
        for c, j in held[r]:
            if c not in placement:
                placement[c] = Placement(parent, parent_face, j)
                queue.extend((s, c, m) for m, s in enumerate(wedges[c]) if m != j)
    return placement


def theta_pipeline(d: Diagram) -> ThetaGraph:
    """Diagram to theta graph: black regions, bigon reduction, arc
    augmentation, theta extraction.  Each stage hands its traced faces to
    the next, so the map is traced once per stage."""
    g, faces = _region_graph(d, "black")
    g, faces = _reduce_bigons(g, faces)
    return _extract_theta(*_augment_flype_arcs(g, faces))


# -- regions ---------------------------------------------------------------


def merge_classes(items: list, pairs) -> list[set]:
    """The classes of ``items`` under the equivalence generated by
    ``pairs``, each a set, ordered by least member (union-find)."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict = {}
    for x in items:
        groups.setdefault(find(x), set()).add(x)
    return sorted(groups.values(), key=min)


def compute_regions(t: ThetaGraph) -> dict[int, list[int]]:
    """The regions of the cut-apart theta graph: per component id, the
    region id of each of its wedges.

    Wedge (local face) j of a component lies between its j-th and j+1-st
    edges and is on the positive side of the j-th.  Faces merge along one
    walk of the placement forest down from the sphere: the sphere's
    components chain their outer faces, then each child's outer face joins
    its parent's parent_face.  A component the walk misses lies on a cycle
    of parents and is refused.  Each merge joins two components across a
    tree edge, so sum(k - 1) + 1 regions remain, numbered by least wedge,
    different on the two sides of each edge.
    """
    children: dict = {}
    for c in t.components:
        children.setdefault(c.placement.parent, []).append(c)
    reached = children.get(SPHERE, [])
    outer = [(c.id, c.placement.outer_face) for c in reached]
    pairs = list(zip(outer, outer[1:]))
    for c in reached:  # grows as the walk reaches each component's children
        for d in children.get(c.id, []):
            pairs.append(((d.id, d.placement.outer_face), (c.id, d.placement.parent_face)))
            reached.append(d)
    if len(reached) != len(t.components):
        raise ValueError("placement contains a cycle")
    wedges = {c.id: [0] * c.k for c in t.components}
    local = [(c.id, j) for c in t.components for j in range(c.k)]
    for r, faces in enumerate(merge_classes(local, pairs)):
        for c, j in faces:
            wedges[c][j] = r
    return wedges
