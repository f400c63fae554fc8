"""Theta graphs: reduction, flype-arc augmentation, and regions.

The black-region graph of a diagram is simplified in two steps.  First all
bigons are removed: when two parallel edges bound a 2-sided face, one is
deleted and its weight added to the other, so weights count the crossings
that stack along each surviving edge.  Second the graph is augmented: a new
weight-0 edge may be drawn parallel to an existing edge through a face,
provided the complement still has no bigon region, and this is repeated
until no further arc fits.  Arcs record where equivalent flype circles can
run.  The result F(D) is well defined: processing candidates in any order
gives the same graph.

The theta graph keeps only the essential part of F(D): for every pair of
vertices joined by at least two edges, the ordered list of those edges with
their weights.  Each such component, with its endpoints cut apart, is a
circle of edges on the sphere; what matters beyond the cyclic edge order is
how these circles nest, recorded as a placement forest.  The complement of
the cut-apart theta graph falls into regions, and each region r meets every
theta edge either not at all, on both sides, or on one side only: the edges
met exactly on the negative side form the set written r+ below
(``boundary_plus``), those met exactly on the positive side form r-.
Adding or subtracting a region moves a weight vector by +1 on
``boundary_plus`` and -1 on ``boundary_minus``; these moves generate the
surface complex.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .diagram import Diagram, black_region_graph
from .planar import Dart, Edge, EmbeddedGraph, face_index

__all__ = [
    "Region",
    "SPHERE",
    "ThetaComponent",
    "ThetaEdge",
    "ThetaGraph",
    "augment_flype_arcs",
    "compute_regions",
    "extract_theta",
    "merge_classes",
    "parse_theta",
    "reduce_bigons",
    "theta_pipeline",
]

SPHERE = "sphere"


# -- the theta graph type ---------------------------------------------------


@dataclass
class ThetaEdge:
    id: int
    weight: int


@dataclass
class Placement:
    parent: int | str  # component id, or SPHERE
    parent_face: int
    outer_face: int


@dataclass
class ThetaComponent:
    id: int
    edges: list[ThetaEdge]  # positive cyclic order
    placement: Placement
    vertices: tuple[int, int] | None = None  # F(D) vertex pair, if known

    @property
    def k(self) -> int:
        return len(self.edges)

    def total_weight(self) -> int:
        return sum(e.weight for e in self.edges)


class ThetaGraph:
    """A disjoint union of edge-circles with weights and a nesting forest.

    ``crossings`` (in-memory only, never serialized) maps edge ids to the
    diagram crossings stacked along the edge, when the graph came from a
    diagram; ``source`` keeps the F(D) graph for the same reason.
    ``regions`` are the regions of the cut-apart graph.
    """

    def __init__(self, components: list[ThetaComponent]):
        self.components = sorted(components, key=lambda c: c.id)
        self.crossings: dict[int, tuple[int, ...]] = {}
        self.source: EmbeddedGraph | None = None
        self._validate()
        self.global_edge_order: list[int] = [
            e.id for comp in self.components for e in comp.edges
        ]
        self.edge_position = {eid: i for i, eid in enumerate(self.global_edge_order)}
        self.regions = compute_regions(self)

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
                continue
            if p.parent not in by_id:
                raise ValueError(f"component {comp.id}: unknown parent {p.parent}")
            if p.parent == comp.id:
                raise ValueError(f"component {comp.id}: is its own parent")
            if not (0 <= p.parent_face < by_id[p.parent].k):
                raise ValueError(f"component {comp.id}: parent_face out of range")
        # forest check: walking up parents must terminate at SPHERE
        for comp in self.components:
            slow = comp
            seen = set()
            while slow.placement.parent != SPHERE:
                if slow.id in seen:
                    raise ValueError("placement contains a cycle")
                seen.add(slow.id)
                slow = by_id[slow.placement.parent]

    @property
    def n_edges(self) -> int:
        return len(self.global_edge_order)

    def component_by_id(self, cid: int) -> ThetaComponent:
        for c in self.components:
            if c.id == cid:
                return c
        raise KeyError(cid)

    def weights(self) -> tuple[int, ...]:
        w = {e.id: e.weight for c in self.components for e in c.edges}
        return tuple(w[eid] for eid in self.global_edge_order)

    def to_json(self) -> dict:
        return {
            "components": [
                {
                    "id": c.id,
                    "edges": [{"id": e.id, "weight": e.weight} for e in c.edges],
                    "placement": {
                        "parent": c.placement.parent,
                        "parent_face": c.placement.parent_face,
                        "outer_face": c.placement.outer_face,
                    },
                }
                for c in self.components
            ]
        }


def parse_theta(text: str) -> ThetaGraph:
    """Parse the theta JSON schema, checking every invariant."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed document: {exc}") from exc
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


def reduce_bigons(g: EmbeddedGraph) -> EmbeddedGraph:
    """Merge parallel edges bounding bigons until none remain.

    The surviving edge of each merge keeps the lower id; weights add, and
    the crossing chains concatenate in transverse order, so the chain of the
    final edge lists its crossings from the negative side to the positive.
    """
    g = g.copy()
    while True:
        faces = g.trace_faces()
        bigon = next(
            (c for c in faces if len(c) == 2 and c[0][0] != c[1][0]), None
        )
        if bigon is None:
            return g
        face_of = face_index(faces)
        a, b = bigon[0][0], bigon[1][0]
        keep, drop = (a, b) if a < b else (b, a)
        ek, ed = g.edges[keep], g.edges[drop]
        if {ek.u, ek.v} != {ed.u, ed.v}:
            raise ValueError("bigon edges are not parallel")
        keep_pos = g.positive_face(keep, face_of)
        drop_pos = g.positive_face(drop, face_of)
        drop_neg = g.negative_face(drop, face_of)
        if keep_pos == drop_neg:
            # drop sits on keep's positive side: its crossings come after
            ek.crossings = ek.crossings + ed.crossings
        elif g.negative_face(keep, face_of) == drop_pos:
            ek.crossings = ed.crossings + ek.crossings
        else:
            raise ValueError("bigon edges have incoherent sides")
        ek.weight += ed.weight
        g.remove_edge(drop)


# -- flype-arc augmentation ------------------------------------------------


def _face_corners(g: EmbeddedGraph, cycle: list) -> list[tuple[int, tuple[int, int]]]:
    """Corners of a face as (vertex, dart after which an arc would insert).

    The corner between consecutive boundary half-edges sits at their common
    vertex; a new dart belongs immediately anticlockwise after the departing
    half-edge, which is itself the dart it leaves along.
    """
    return [(g.dart_vertex(h), h) for h in cycle[1:] + cycle[:1]]


def _arc_candidates(
    g: EmbeddedGraph,
) -> list[tuple[tuple[int, Dart], tuple[int, Dart]]]:
    """All pairs of corners of one face, in (face, corner) order, across
    which an arc parallel to an existing edge could be added without
    creating a bigon."""
    pairs = set(g.parallel_classes())
    out = []
    for cycle in g.trace_faces():
        corners = _face_corners(g, cycle)
        length = len(corners)
        for i in range(length):
            for j in range(length):
                u, v = corners[i][0], corners[j][0]
                if u >= v or (u, v) not in pairs:
                    continue
                if (j - i) % length < 2 or (i - j) % length < 2:
                    continue  # one side of the split would be a bigon
                out.append((corners[i], corners[j]))
    return out


def augment_flype_arcs(
    g: EmbeddedGraph, rng: random.Random | None = None
) -> EmbeddedGraph:
    """Add weight-0 arcs parallel to existing edges until no more fit.

    An arc through a face is admissible when the face has both endpoints of
    an existing edge on its boundary and neither side of the split it makes
    is a bigon.  At most one arc is added per face corner pair.  Candidates
    are processed in canonical (face, corner) order, or shuffled when
    ``rng`` is given; the outcome is the same graph either way, which the
    test suite checks by isomorphism.  Each candidate search traces, and
    Euler-checks, the map the previous arc left, the final map included.
    """
    g = g.copy()
    for e in g.edges.values():
        for w in (e.u, e.v):
            if g.orientation.get(w) not in (1, -1):
                raise ValueError("vertices must carry orientation classes")
    # no arc makes a bigon, and a map without 2-gon faces has at most
    # 3V - 6 edges, so that bounds the arcs the input has room for
    room = 3 * len(g.rotation) - 6 - len(g.edges)
    while cands := _arc_candidates(g):
        if room <= 0:
            raise AssertionError("augmentation added more arcs than the map holds")
        room -= 1
        if rng is not None:
            cands = cands[:]
            rng.shuffle(cands)
        (u, dart_u), (v, dart_v) = cands[0]
        eid = max(g.edges) + 1
        if g.orientation[u] == 1:
            edge = Edge(id=eid, u=u, v=v, weight=0, pos_left=True)
        else:
            edge = Edge(id=eid, u=u, v=v, weight=0, pos_left=False)
        g.insert_edge(edge, after_u=dart_u, after_v=dart_v)
    return g


# -- theta extraction ------------------------------------------------------


def _component_x_end(g: EmbeddedGraph, u: int, v: int, eids: list[int]) -> int:
    """The endpoint from which every edge of the class has its positive side
    on the left."""
    def all_left(x: int) -> bool:
        ok = True
        for eid in eids:
            e = g.edges[eid]
            left_of_x = e.pos_left if e.u == x else not e.pos_left
            ok = ok and left_of_x
        return ok

    if all_left(u):
        return u
    if all_left(v):
        return v
    raise ValueError(f"edges {eids} have incoherent transverse sides")


def _wedge_of_face(
    g: EmbeddedGraph, eids: list[int], face_of: dict
) -> dict[int, int]:
    """Assign every face of ``g`` to a wedge of the component ``eids``.

    Wedge j is seeded by the positive face of the j-th edge (equally the
    negative face of the j+1-st), and faces merge across all edges outside
    the component; the component's circle is the only barrier on the
    sphere, so each merged class holds exactly one wedge's seeds, and a
    class with two or none means the embedding is broken.
    """
    k = len(eids)
    in_comp = set(eids)
    classes = merge_classes(
        sorted(set(face_of.values())),
        (
            (face_of[(eid, 0)], face_of[(eid, 1)])
            for eid in g.edges
            if eid not in in_comp
        ),
    )
    class_of = {f: i for i, members in enumerate(classes) for f in members}
    seeds: list[set[int]] = [set() for _ in classes]
    for j, eid in enumerate(eids):
        seeds[class_of[g.positive_face(eid, face_of)]].add(j)
        seeds[class_of[g.negative_face(eid, face_of)]].add((j - 1) % k)
    if any(len(ws) > 1 for ws in seeds):
        raise ValueError("component wedges are inconsistent")
    if not all(seeds):
        raise ValueError("wedge assignment did not cover the sphere")
    return {f: w for members, (w,) in zip(classes, seeds) for f in members}


def extract_theta(f: EmbeddedGraph) -> ThetaGraph:
    """Keep the vertex pairs of F(D) joined by at least two edges.

    Components are ordered by their smallest edge id; within a component the
    edges start at the smallest id and follow the positive cyclic order (the
    anticlockwise rotation at the endpoint from which all positive sides lie
    to the left).  The placement forest describes how the cut-apart circles
    nest, seen from a point placed in the positive face of the first edge of
    the first component.
    """
    classes = [
        (pair, eids) for pair, eids in f.parallel_classes().items() if len(eids) >= 2
    ]
    classes.sort(key=lambda item: min(item[1]))
    if not classes:
        t = ThetaGraph([])
        t.source = f
        return t

    face_of = face_index(f.trace_faces())
    ordered_eids: list[list[int]] = []
    weights: dict[int, int] = {}
    for (u, v), eids in classes:
        x = _component_x_end(f, u, v, eids)
        rot = [eid for eid, _end in f.rotation[x] if eid in set(eids)]
        start = rot.index(min(rot))
        cyc = rot[start:] + rot[:start]
        ordered_eids.append(cyc)
        for eid in eids:
            w = f.edges[eid].weight
            weights[eid] = w

    wedges = [ _wedge_of_face(f, eids, face_of) for eids in ordered_eids ]
    seats = [ f.positive_face(eids[0], face_of) for eids in ordered_eids ]
    p_face = seats[0]

    comps: list[ThetaComponent] = []
    n = len(ordered_eids)
    anc: list[list[int]] = []
    for i in range(n):
        anc.append(
            [j for j in range(n) if j != i and wedges[j][seats[i]] != wedges[j][p_face]]
        )
    for i in range(n):
        if not anc[i]:
            placement = Placement(SPHERE, 0, wedges[i][p_face])
        else:
            depths = sorted(anc[i], key=lambda j: len(anc[j]))
            if len({len(anc[j]) for j in anc[i]}) != len(anc[i]):
                raise ValueError("nesting of components is not a chain")
            parent = depths[-1]
            placement = Placement(
                parent, wedges[parent][seats[i]], wedges[i][p_face]
            )
        pair = classes[i][0]
        comps.append(
            ThetaComponent(
                id=i,
                edges=[ThetaEdge(eid, weights[eid]) for eid in ordered_eids[i]],
                placement=placement,
                vertices=pair,
            )
        )
    t = ThetaGraph(comps)
    t.crossings = {
        eid: f.edges[eid].crossings for eids in ordered_eids for eid in eids
    }
    t.source = f
    return t


def theta_pipeline(d: Diagram) -> ThetaGraph:
    """Diagram to theta graph: black regions, bigon reduction, arc
    augmentation, theta extraction."""
    return extract_theta(augment_flype_arcs(reduce_bigons(black_region_graph(d))))


# -- regions ---------------------------------------------------------------


@dataclass
class Region:
    id: int
    faces: set[tuple[int, int]]
    boundary_plus: set[int] = field(default_factory=set)
    boundary_minus: set[int] = field(default_factory=set)

    def delta(self, t: ThetaGraph) -> tuple[int, ...]:
        # compute_regions never puts an edge on both sides of one region
        return tuple(
            (eid in self.boundary_plus) - (eid in self.boundary_minus)
            for eid in t.global_edge_order
        )


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


def compute_regions(t: ThetaGraph) -> list[Region]:
    """The regions of the cut-apart theta graph with their signed boundaries.

    Local face j of a component lies between its j-th and j+1-st edges and
    is on the positive side of the j-th.  Faces merge along the placement
    forest: a child's outer face joins its parent's parent_face, and the
    outer faces of all components at the sphere root join each other.
    """
    local = [(c.id, j) for c in t.components for j in range(c.k)]
    pairs = []
    sphere_outer: list[tuple[int, int]] = []
    for c in t.components:
        p = c.placement
        if p.parent == SPHERE:
            sphere_outer.append((c.id, p.outer_face))
        else:
            pairs.append(((c.id, p.outer_face), (p.parent, p.parent_face)))
    pairs.extend(zip(sphere_outer, sphere_outer[1:]))
    regions = [Region(id=i, faces=g) for i, g in enumerate(merge_classes(local, pairs))]
    expected = sum(c.k - 1 for c in t.components) + 1
    if t.components and len(regions) != expected:
        raise ValueError(
            f"placement inconsistent: {len(regions)} regions, expected {expected}"
        )
    member: dict[tuple[int, int], Region] = {}
    for r in regions:
        for lf in r.faces:
            member[lf] = r
    for c in t.components:
        for j, e in enumerate(c.edges):
            pos = member[(c.id, j)]
            neg = member[(c.id, (j - 1) % c.k)]
            if pos is neg:
                raise ValueError(
                    f"edge {e.id} has the same region on both sides"
                )
            # the region meeting e exactly on its negative side gains e
            neg.boundary_plus.add(e.id)
            pos.boundary_minus.add(e.id)
    return regions
