"""Special alternating link diagrams in PD notation.

A link diagram is stored as a 4-valent map on the sphere: vertices are
crossings and edges are the strand arcs between them.  Each crossing records
the labels of its four incident arcs anticlockwise starting at the incoming
under-strand (PD convention), so positions 0 and 2 are the under-strand (in,
out) and positions 1 and 3 carry the over-strand.  Strand orientations are
read off one walk along each strand, which enters a crossing at arm p and
leaves it at arm p+2; the walk keeps the direction in which the strand's
under-passages enter at position 0.

From this single structure everything else is derived combinatorially:

* faces, by tracing the rotation system;
* the checkerboard colouring, from corner parities (a diagram is alternating
  exactly when every arc has one under end and one over end, and then every
  face meets its crossings in corners of a single parity);
* Seifert circles, by smoothing every crossing respecting orientation; in a
  special diagram each circle bounds a black region, and the regions the
  circles bound make up the Seifert surface;
* the black-region graph (a vertex in each black region, an edge through
  each crossing) with its rotation system, vertex orientations and
  transversely oriented edges, and the white-region graph used by the
  fibredness criterion.
"""

from __future__ import annotations

import json
from collections import Counter

from .planar import Edge, EmbeddedGraph, HalfEdge, cycles, embed, face_index
from .record import Record

__all__ = [
    "Crossing",
    "Diagram",
    "is_fibred",
    "parse_diagram",
    "seifert",
    "validate",
    "white_region_graph",
]

UNDER_IN, OVER_A, UNDER_OUT, OVER_B = 0, 1, 2, 3


class Crossing(Record):
    def __init__(self, id: int, pd: tuple[int, int, int, int]):
        self.id = id
        self.pd = pd

    def __hash__(self) -> int:
        # by the fields, so a crossing held in a set or dict must not change
        return hash((self.id, self.pd))


class Diagram:
    """A PD-coded link diagram with orientations resolved.

    Raises ``ValueError`` on structurally invalid input (bad labels,
    inconsistent orientations, non-spherical face tracing).
    """

    def __init__(self, crossings: list[Crossing]):
        if not crossings:
            raise ValueError("no crossings")
        if len(crossings) < 2:
            raise ValueError("diagrams need at least 2 crossings")
        self.crossings = sorted(crossings, key=lambda c: c.id)
        ids = [c.id for c in self.crossings]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate crossing ids")
        self.n = len(self.crossings)
        self.by_id = {c.id: c for c in self.crossings}

        # Arms: label -> the one or two (crossing id, position) pairs.
        arms: dict[int, list[tuple[int, int]]] = {}
        for c in self.crossings:
            if len(c.pd) != 4:
                raise ValueError(f"crossing {c.id}: pd tuple must have 4 labels")
            for pos, lab in enumerate(c.pd):
                arms.setdefault(lab, []).append((c.id, pos))
        for lab, ends in arms.items():
            if len(ends) != 2:
                raise ValueError(f"label multiplicity: label {lab} appears {len(ends)} time(s)")
        if sorted(arms) != list(range(1, 2 * self.n + 1)):
            raise ValueError("labels must be 1..2n")
        self.arms = arms

        self.over_in_first, self.components = self._walk_strands()
        self.map = self._build_map()
        self.faces = self.map.trace_faces()  # raises if not spherical
        self.face_of = face_index(self.faces)
        # Corner k of a crossing is the wedge between arms k and k+1.  A face
        # arriving along arm p leaves along arm p-1, so half-edge (lab, way),
        # which arrives along arm arms[lab][1 - way], turns in corner p-1.
        self.corners: dict[HalfEdge, tuple[int, int]] = {
            (lab, way): (ends[1 - way][0], (ends[1 - way][1] - 1) % 4)
            for lab, ends in arms.items()
            for way in (0, 1)
        }

    # -- construction helpers ---------------------------------------------

    def _walk_strands(self) -> tuple[dict[int, bool], list[list[int]]]:
        """Orient every strand by walking it once.

        A strand entering a crossing at arm p leaves at arm p+2 and enters
        the next crossing at the far end of that arc.  With valid labels
        every arm is paired twice, so the strands are disjoint cycles.  A
        component is kept in the direction in which its under-passages
        enter at position 0, or, passing under nowhere, in which it enters
        its least crossing at position 1.  Returns whether each crossing's
        over-strand enters at position 1, and the components as label lists
        in travel order from their least labels.
        """
        over_in_first: dict[int, bool] = {}
        components = []
        seen: set[int] = set()
        for start in sorted(self.arms):
            if start in seen:
                continue
            # labels in walk order, and the arms at which the walk enters
            # crossings; it starts by arriving along ``start`` at its first arm
            labels, entries = [], []
            lab, (cid, pos) = start, self.arms[start][0]
            while True:
                labels.append(lab)
                entries.append((cid, pos))
                out = pos ^ 2
                lab = self.by_id[cid].pd[out]
                if lab == start:
                    break
                a, b = self.arms[lab]
                cid, pos = b if a == (cid, out) else a
            seen.update(labels)
            unders = {pos for _, pos in entries if pos % 2 == 0}
            if len(unders) == 2:
                raise ValueError("inconsistent strand orientations")
            forward = unders == {UNDER_IN} or (not unders and min(entries)[1] == OVER_A)
            for cid, pos in entries:
                if pos % 2:
                    over_in_first[cid] = (pos == OVER_A) == forward
            components.append(labels if forward else labels[:1] + labels[:0:-1])
        return over_in_first, components

    def arm_is_in(self, cid: int, pos: int) -> bool:
        if pos == UNDER_IN:
            return True
        if pos == UNDER_OUT:
            return False
        return (pos == OVER_A) == self.over_in_first[cid]

    def _build_map(self) -> EmbeddedGraph:
        # Each edge runs from its label's first arm to its second (edges in
        # label order), and each rotation lists its crossing's darts in pd
        # order, so rotation position == pd position at every crossing.
        g = EmbeddedGraph()
        g.rotation = {c.id: [None] * 4 for c in self.crossings}
        g.orientation = dict.fromkeys(g.rotation, 0)
        for lab in sorted(self.arms):
            (c1, p1), (c2, p2) = self.arms[lab]
            g.edges[lab] = Edge(lab, c1, c2)
            g.rotation[c1][p1] = (lab, 0)
            g.rotation[c2][p2] = (lab, 1)
        return g

    # -- corner utilities --------------------------------------------------

    def corner_face(self, cid: int, corner: int) -> int:
        """Face in the corner between arms ``corner`` and ``corner+1``."""
        return self.face_of[self.map.rotation[cid][corner]]

    def face_corners(self, face_idx: int) -> list[tuple[int, int]]:
        """Corners (crossing id, corner index) of a face, in boundary order."""
        return [self.corners[h] for h in self.faces[face_idx]]

    def is_alternating(self) -> bool:
        return all(
            (ends[0][1] - ends[1][1]) % 2 == 1 for ends in self.arms.values()
        )

    def is_special(self) -> bool:
        return self.is_alternating() and len(set(self.over_in_first.values())) == 1

    def smoothing_parity(self) -> int:
        """Corner-index parity of the black corners (1 if over enters at
        position 1 everywhere, else 0).  Only meaningful for special
        diagrams."""
        if not self.is_special():
            raise ValueError("diagram is not special alternating")
        return 1 if next(iter(self.over_in_first.values())) else 0

    def black_faces(self) -> list[int]:
        return self._faces_of_parity(self.smoothing_parity())

    def white_faces(self) -> list[int]:
        return self._faces_of_parity(1 - self.smoothing_parity())

    def _faces_of_parity(self, par: int) -> list[int]:
        """Faces whose corners have index parity ``par``.  Only meaningful
        for alternating diagrams, where every face's corners share one
        parity, so the first corner decides."""
        return [f for f, cycle in enumerate(self.faces) if self.corners[cycle[0]][1] % 2 == par]


def decode_document(text: str):
    """``json.loads``, with malformed or too deeply nested JSON a ValueError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed document: {exc}") from exc


def parse_diagram(text: str) -> Diagram:
    """Parse the diagram JSON schema into a :class:`Diagram`.

    Schema: ``{"crossings": [{"id": int, "pd": [int, int, int, int]}, ...]}``
    with strand labels 1..2n, each appearing exactly twice.  Distinct label
    sets are normalized to 1..2n by rank.
    """
    return _diagram_from_doc(decode_document(text))


def _diagram_from_doc(doc) -> Diagram:
    """:func:`parse_diagram` on an already decoded document."""
    if not isinstance(doc, dict) or "crossings" not in doc:
        raise ValueError("malformed document: missing 'crossings'")
    raw = doc["crossings"]
    if not isinstance(raw, list):
        raise ValueError("malformed document: 'crossings' must be a list")
    crossings = []
    labels = []
    for rec in raw:
        if not isinstance(rec, dict) or "id" not in rec or "pd" not in rec:
            raise ValueError("malformed document: crossing needs 'id' and 'pd'")
        cid, pd = rec["id"], rec["pd"]
        # JSON integers only: bool is an int subclass, floats would truncate
        if type(cid) is not int:
            raise ValueError(f"crossing {cid!r}: id must be an integer")
        if not (isinstance(pd, list) and len(pd) == 4 and all(type(x) is int for x in pd)):
            raise ValueError(f"crossing {cid}: pd must be 4 integers")
        labels.extend(pd)
        crossings.append((cid, tuple(pd)))
    counts = Counter(labels)
    distinct = sorted(counts)
    for lab in distinct:
        if counts[lab] != 2:
            raise ValueError(
                f"label multiplicity: label {lab} appears {counts[lab]} time(s)"
            )
    if distinct != list(range(1, len(distinct) + 1)):
        rank = {lab: i + 1 for i, lab in enumerate(distinct)}
        crossings = [(cid, tuple(rank[x] for x in pd)) for cid, pd in crossings]
    return Diagram([Crossing(cid, pd) for cid, pd in crossings])


# -- validation ------------------------------------------------------------


def _two_edge_cut(d: Diagram) -> tuple[int, int] | None:
    """The least pair of arcs whose removal disconnects the crossings, if any.

    Such a pair is crossed by a simple closed curve meeting the diagram in
    two edge points with crossings on both sides; its absence (on a
    connected diagram) is Menasco's visibility criterion for primeness.
    The 4-valent map has no bridges, so a separating set of two arcs is a
    minimal cut, whose duals form a 2-cycle: the two arcs border the same
    two faces.
    """
    groups: dict[frozenset, list[int]] = {}
    for lab in sorted(d.map.edges):
        sides = frozenset({d.face_of[(lab, 0)], d.face_of[(lab, 1)]})
        groups.setdefault(sides, []).append(lab)
    return min(((g[0], g[1]) for g in groups.values() if len(g) > 1), default=None)


def _smoothing_is_prime(d: Diagram, cid: int) -> bool:
    """Whether smoothing crossing ``cid`` respecting orientation leaves a
    diagram that splits off no circle and has no separating pair of arcs.

    The smoothing is read off the faces ``d`` already has.  It joins two
    pairs of neighbouring arms: the corner between each joined pair stays a
    face, the other two corners merge into one face, and the arcs through a
    joined pair become one arc (a pair carrying one label closes into a
    circle).  Every other face and arc is unchanged, so by the rule of
    :func:`_two_edge_cut` the smoothed diagram has a separating pair of arcs
    exactly when two of its arcs border the same two faces after the merge.

    A face meeting ``cid`` in both merged corners makes the crossing a cut
    vertex: the smoothing then splits off a circle or disconnects the
    diagram.  Reduced diagrams, the only ones the cuttable-region search
    runs on, have no such face, so there every smoothing stays connected.
    """
    c = d.by_id[cid]
    m = 0 if d.over_in_first[cid] else 1  # the first merged corner
    pairs = [(c.pd[(m + 1) % 4], c.pd[(m + 2) % 4]), (c.pd[(m + 3) % 4], c.pd[m])]
    # The two pairs share no label: one label at opposite arms would make
    # a loop that the other strand crosses exactly once, which no closed
    # curve on the sphere can do.  So each pair is a kink or joins two arcs.
    joined: set[int] = set()
    for x, y in pairs:
        if x == y:
            return False  # a circle splits off
        joined.add(max(x, y))
    if d.n == 2:
        # 1 crossing left: nothing can be on both sides of a curve
        return True
    a, b = d.corner_face(cid, m), d.corner_face(cid, m + 2)
    if a == b:
        return False
    seen: set[frozenset] = set()
    for lab in d.arms:
        if lab in joined:
            continue  # joined into the arc of a smaller label
        sides = frozenset(
            a if f == b else f for f in (d.face_of[(lab, 0)], d.face_of[(lab, 1)])
        )
        if sides in seen:
            return False
        seen.add(sides)
    return True


def validate(d: Diagram) -> dict:
    """The six diagram flags, each under its own key, and ``messages`` on
    them; the diagram meets the theorem's hypotheses when all six hold."""
    messages: list[str] = []
    # the map has n vertices, 2n edges and none isolated, so the Euler
    # check of its trace (F = E - V + 2C) leaves n + 2 faces just when C = 1
    connected = len(d.faces) == d.n + 2
    if not connected:
        messages.append("diagram is not connected")

    alternating = d.is_alternating()
    if not alternating:
        bad = [lab for lab, ends in d.arms.items() if (ends[0][1] - ends[1][1]) % 2 == 0]
        messages.append(f"not alternating: arcs {sorted(bad)} have equal-type ends")

    special = d.is_special()
    if alternating and not special:
        messages.append("not special: crossings of both signs")

    reduced = True
    for c in d.crossings:
        faces = [d.corner_face(c.id, k) for k in range(4)]
        if len(set(faces)) < 4:
            reduced = False
            messages.append(f"not reduced: crossing {c.id} meets a region twice")
            break

    prime = connected
    if connected:
        cut = _two_edge_cut(d)
        if cut is not None:
            prime = False
            messages.append(f"not prime: arcs {cut} separate the diagram")
    else:
        messages.append("not prime: diagram is disconnected")

    cuttable = False
    if connected and alternating and special and reduced and prime:
        # a white region is cuttable when each smoothing leaves a prime diagram
        region = next((f for f in d.white_faces() if all(
            _smoothing_is_prime(d, cid) for cid, _pos in d.face_corners(f))), None)
        cuttable = region is not None
        messages.append(f"white region {region} is cuttable" if cuttable
                        else "no cuttable white region")
    else:
        messages.append("cuttable-region search skipped: prerequisites failed")
    return {
        "connected": connected,
        "alternating": alternating,
        "special": special,
        "reduced": reduced,
        "prime": prime,
        "cuttable_region_exists": cuttable,
        "messages": messages,
    }


# -- Seifert's algorithm ---------------------------------------------------


def _circles(d: Diagram) -> list[list[int]]:
    """The Seifert circles, the cycles of the label-to-label successor map
    of the orientation-respecting smoothing, each from its least label."""
    succ = {}
    for c in d.crossings:
        if d.over_in_first[c.id]:
            succ[c.pd[UNDER_IN]] = c.pd[OVER_B]
            succ[c.pd[OVER_A]] = c.pd[UNDER_OUT]
        else:
            succ[c.pd[UNDER_IN]] = c.pd[OVER_A]
            succ[c.pd[OVER_B]] = c.pd[UNDER_OUT]
    return cycles(succ, sorted(succ))


def _circle_black_faces(d: Diagram, circles: list[list[int]]) -> list[int]:
    """The black region bounded by each Seifert circle.

    In a special diagram each circle hugs the corners of a single black
    face; this is asserted, not assumed.  One pass over the smoothing
    corners files each corner's face under the circle of its labels.
    """
    par = d.smoothing_parity()
    circle_of = {lab: i for i, circle in enumerate(circles) for lab in circle}
    faces: list[set[int]] = [set() for _ in circles]
    for c in d.crossings:
        for corner in (par, par + 2):
            # the smoothing joins the labels at arms corner and corner+1
            # (_circles), so the circle hugging the corner has both
            faces[circle_of[c.pd[corner]]].add(d.corner_face(c.id, corner))
    for hugged in faces:
        if len(hugged) != 1:
            raise ValueError("Seifert circle is not innermost; diagram not special")
    return [min(hugged) for hugged in faces]


def seifert(d: Diagram) -> dict:
    """Run Seifert's algorithm on a special alternating diagram: its
    ``circles`` as label cycles, their number ``s``, the black and white
    regions, the Euler characteristic ``chi`` of the Seifert surface and
    the genus it gives."""
    if not d.is_special():
        raise ValueError("diagram is not special alternating")
    circles = _circles(d)
    s = len(circles)
    # in an alternating diagram every face's corners share one parity, so
    # these two lists split the faces
    black = d.black_faces()
    white = d.white_faces()
    bounded = _circle_black_faces(d, circles)
    if sorted(bounded) != sorted(black):
        raise ValueError("Seifert circles do not bound the black regions")
    chi = s - d.n
    # smoothing one crossing changes the number of curves by one, so s has
    # the parity of mu + n and the genus below is an integer
    mu = len(d.components)
    return {
        "circles": circles,
        "s": s,
        "black_regions": black,
        "white_regions": white,
        "chi": chi,
        "genus_like": (2 - chi - mu) // 2,
    }


# -- region graphs ---------------------------------------------------------


def _region_graph(d: Diagram, colour: str) -> tuple[EmbeddedGraph, list[list[HalfEdge]]]:
    """The region graph of ``colour`` with its traced faces.  Each edge runs
    from the region at corner par+2 of its crossing to the one at par: a
    black edge from its +1 end, so its positive side is on its left."""
    par = d.smoothing_parity()  # raises unless the diagram is special
    if colour != "black":
        par = 1 - par
    classes: dict[int, int] = {}
    rotations: dict[int, list[int]] = {}
    for f in d._faces_of_parity(par):
        cs = d.face_corners(f)
        # crossings in boundary order around the region: the anticlockwise
        # order at the vertex placed inside it
        rotations[f] = [cid for cid, _ in cs]
        # Of the two black corners at a crossing, the one at index par+2
        # is traversed by its Seifert circle in the same direction as the
        # face boundary walk: that region's circle runs anticlockwise.
        signs = {1 if pos == par + 2 else -1 for _, pos in cs} if colour == "black" else {0}
        if len(signs) != 1:
            raise ValueError("black regions are not consistently oriented")
        classes[f] = signs.pop()
    endpoints: dict[int, tuple[int, int]] = {}
    for c in d.crossings:
        endpoints[c.id] = u, v = d.corner_face(c.id, par + 2), d.corner_face(c.id, par)
        if u == v:
            raise ValueError(f"crossing {c.id} joins a region to itself; reduce the diagram first")
    return embed(classes, endpoints, rotations)


def white_region_graph(d: Diagram) -> EmbeddedGraph:
    """The graph with a vertex in each white region and an edge through each
    crossing (the fibredness graph)."""
    return _region_graph(d, "white")[0]


# -- fibredness reduction --------------------------------------------------


def is_fibred(g: EmbeddedGraph) -> bool:
    """Whether the white-region graph reduces to a single vertex.

    Moves: delete a loop; contract an edge incident to a valence-2 vertex.
    The reduction is confluent, so a single greedy pass decides it: the
    graphs that reduce are exactly the "trees of loops".  Valence-2 vertices
    wait in a worklist; folding one into a neighbour relinks one edge end,
    dropping the edge if it became a loop, so each contraction costs O(1).
    """
    ends: dict[int, list[int]] = {}  # edge id -> its two end vertices
    incident: dict[int, set[int]] = {v: set() for v in g.rotation}
    for eid, e in g.edges.items():
        if e.u != e.v:
            ends[eid] = [e.u, e.v]
            incident[e.u].add(eid)
            incident[e.v].add(eid)
    work = [v for v, es in incident.items() if len(es) == 2]
    while work:
        v = work.pop()
        if len(incident.get(v, ())) != 2:
            continue
        gone, kept = incident.pop(v)
        a, b = ends.pop(gone)
        u = b if a == v else a  # v folds into u
        incident[u].discard(gone)
        side = ends[kept]
        side[side.index(v)] = u
        if side[0] == side[1]:  # the kept edge became a loop
            del ends[kept]
            incident[u].discard(kept)
        else:
            incident[u].add(kept)
        if len(incident[u]) == 2:
            work.append(u)
    return len(incident) == 1 and not ends
