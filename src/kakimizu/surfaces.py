"""Flype circles and P-arc configurations on the diagram.

A vertex of the complex adjacent to the base vertex differs from it by a
set A of regions.  Edge j of a theta component has local face j-1 on its
negative side and local face j on its positive side, so A changes its
weight by [face j-1 in A] - [face j in A], the sum of the deltas of the
regions in A.  Going round a component these labels telescope: their
nonzero values alternate between -1 (a crossing leaves) and +1 (a crossing
arrives).  Pairing each -1 edge with the +1 edge on its positive side draws
one flype circle per pair.  The circles 2-colour the rest of the sphere: a
region is on the positive side exactly when it lies in A.

The surface the move produces is recorded on the unchanged diagram as a
set of P-arcs, disjoint arcs in the white regions with exactly one
endpoint on every strand.  A crossing on the positive side of the circles
takes an arc hugging its negative side, which joins its two incoming
strands; one on the negative side takes the arc on its positive side,
joining the outgoing strands.  Where a circle crosses the diagram the arc
of the circle itself becomes a P-arc, and the crossing it passes through
is left bare.  Tracing the closed curves made of P-arcs together with the
overcrossing arcs, and again with the undercrossing arcs, counts the discs
above and below the projection sphere, giving the Euler characteristic
-n + n_a + n_b of the traced surface.  Each part is built as the JSON
that ``kakimizu surface`` prints.
"""

from __future__ import annotations

from collections import Counter

from .diagram import Diagram
from .kcomplex import heights
from .planar import cycles
from .theta import ThetaGraph

__all__ = ["flype_set_for_edge", "p_arcs", "realize_vertex", "trace_curves"]


# -- flype sets -------------------------------------------------------------


def flype_set_for_edge(t: ThetaGraph, u: tuple[int, ...], a: set[int]) -> dict:
    """The flype circles realizing the move from ``u`` by the region ids
    ``a``, with the label of every theta edge and the regions on each side
    of the circles.  Each -1 edge pairs with the next nonzero edge in the
    positive cyclic direction, which alternation makes a +1 edge.  The empty
    set, the base vertex's, has no circles, labels or sides."""
    if not a:
        return {
            "base": list(u),
            "regions": [],
            "labels": {},
            "circles": [],
            "positive_side_regions": [],
            "negative_side_regions": [],
        }
    labels: dict[str, int] = {}
    circles: list[dict] = []
    for comp in t.components:
        inside = [r in a for r in t.wedges[comp.id]]
        seq = [inside[j - 1] - inside[j] for j in range(comp.k)]
        for j, e in enumerate(comp.edges):
            labels[str(e.id)] = seq[j]
            if seq[j] != -1:
                continue
            if u[t.edge_position[e.id]] < 1:
                raise ValueError(f"edge {e.id} has no crossing to move")
            m = (j + 1) % comp.k
            while not seq[m]:
                m = (m + 1) % comp.k
            circles.append(
                {"component": comp.id, "crossing_edge": e.id, "arc_edge": comp.edges[m].id}
            )
    return {
        "base": list(u),
        "regions": sorted(a),
        "labels": labels,
        "circles": circles,
        "positive_side_regions": sorted(a),
        "negative_side_regions": sorted(set(range(t.region_count)) - a),
    }


# -- P-arc configurations ---------------------------------------------------


def _strands(d: Diagram, cid: int, inward: bool) -> list[int]:
    """The two labels entering crossing ``cid``, or the two leaving it:
    position 0 enters, position 2 leaves, and exactly one of 1 and 3
    enters."""
    pd = d.by_id[cid].pd
    return [pd[p] for p in range(4) if d.arm_is_in(cid, p) == inward]


def _arc_strand(d: Diagram, t: ThetaGraph, arc_eid: int, vertex: int) -> int:
    """The strand a flype circle crosses next to one endpoint of a
    weight-0 arc edge: the boundary strand of the black region ``vertex``
    between the two nearest crossing-carrying edges around the arc."""
    f = t.source
    edge = f.edges[arc_eid]
    end = 0 if edge.u == vertex else 1
    rot = f.rotation[vertex]
    i = rot.index((arc_eid, end))

    def scan(step: int) -> int:
        j = i
        for _ in range(len(rot)):
            j = (j + step) % len(rot)
            if f.edges[rot[j][0]].crossings:
                return rot[j][0]
        raise ValueError("no crossing-carrying edge at the arc endpoint")

    e_bwd, e_fwd = scan(-1), scan(1)
    chain_bwd = set(f.edges[e_bwd].crossings)
    chain_fwd = set(f.edges[e_fwd].crossings)
    cycle = d.faces[vertex]
    heads = [d.map.half_edge_head(h) for h in cycle]
    candidates = [
        cycle[s][0]
        for s in range(len(cycle))
        if heads[s - 1] in chain_bwd and heads[s] in chain_fwd
    ]
    if len(candidates) != 1:
        raise ValueError("arc endpoint does not sit in a single wedge")
    return candidates[0]


def p_arcs(d: Diagram, t: ThetaGraph, fs: dict) -> dict:
    """The P-arc configuration of the surface encoded by the flype set
    ``fs``: one arc per strand pair, the side of each crossing its arc hugs
    ("flype" marks the bare crossings that the circles pass through), and
    the arcs the circles draw themselves.

    With no circles every crossing is on the positive side, which gives the
    special form of the Seifert-algorithm surface, with an arc across the
    negative side of every crossing.  ``t`` must keep its source graph, as
    ``theta_pipeline`` leaves it.
    """
    graph, region_of = t.source, t.region_of
    if graph is None:
        raise ValueError("theta graph does not carry its source graph")
    labels, in_a = fs["labels"], set(fs["regions"])
    arcs: list[list[int]] = []
    sides: dict[str, str] = {}
    flype_arcs: list = []

    def corner_arc(cid: int, positive: bool) -> None:
        sides[str(cid)] = "negative" if positive else "positive"
        arcs.append(_strands(d, cid, inward=positive))

    for eid in sorted(graph.edges):
        e = graph.edges[eid]
        chain = e.crossings
        label = labels.get(str(eid), 0)
        if label == -1:
            # one crossing leaves: the circle passes through the last
            # crossing of the stack and the rest hug their positive side
            for cid in chain[:-1]:
                corner_arc(cid, False)
            sides[str(chain[-1])] = "flype"
            for a, b in zip(chain, chain[1:]):
                if set(_strands(d, a, False)) != set(_strands(d, b, True)):
                    raise AssertionError(f"crossings {a} and {b} do not stack")
        elif label == 1:
            # a crossing arrives: the circle crosses the corridor at its
            # negative end and every present crossing hugs its positive
            # side
            for cid in chain:
                corner_arc(cid, False)
            if chain:
                pair = _strands(d, chain[0], inward=True)
            else:
                pair = [_arc_strand(d, t, eid, e.u), _arc_strand(d, t, eid, e.v)]
            flype_arcs.append([eid, pair])
            arcs.append(pair)
        elif chain:
            # a label of 0 puts both sides of a theta edge on one side of
            # the circles, and every other edge lies inside one region
            positive = not in_a or graph.positive_face(eid, region_of) in in_a
            for cid in chain:
                corner_arc(cid, positive)

    _check_arcs(d, arcs)
    return {"arcs": arcs, "crossing_sides": sides, "flype_arcs": flype_arcs}


def _check_arcs(d: Diagram, arcs: list[list[int]]) -> None:
    """Each strand carries exactly one arc endpoint, and the two endpoints
    of every arc lie on the boundary of a common white region."""
    seen = Counter(lab for arc in arcs for lab in arc)
    labels = sorted(d.arms)
    bad = [lab for lab in labels if seen[lab] != 1]
    if bad or len(seen) != len(labels):
        raise ValueError(
            f"arc endpoints do not cover each strand exactly once: {bad[:6]}"
        )
    # each side of an arc is a corner just before one of its arms, whose
    # parities differ on an alternating diagram: one side is white
    whites = set(d.white_faces())

    def white_of(lab: int) -> int:
        side = d.face_of[(lab, 0)]
        return side if side in whites else d.face_of[(lab, 1)]

    for a, b in arcs:
        if white_of(a) != white_of(b):
            raise ValueError(f"arc ({a}, {b}) does not stay in one white region")


# -- curve tracing ----------------------------------------------------------


def _cycle_count(pairings: list, other: list) -> int:
    """The closed curves made by two perfect pairings of the same labels.

    Following one pairing and then the other visits every second label
    round a curve, so each curve is exactly two cycles of the composite
    map a -> other[pairing[a]], its labels at even and at odd places (two
    fixed points for a curve of two labels): the count is half of them.
    """
    second: dict[int, int] = {}
    for a, b in other:
        second[a], second[b] = b, a
    succ: dict[int, int] = {}
    for a, b in pairings:
        succ[a], succ[b] = second[b], second[a]
    return len(cycles(succ, list(succ))) // 2


def trace_curves(d: Diagram, arcs: list[list[int]]) -> tuple[int, int]:
    """Count the closed curves of the P-arcs ``arcs`` with the overcrossing
    arcs (``n_a``, discs above) and with the undercrossing arcs (``n_b``)."""
    over = [(c.pd[1], c.pd[3]) for c in d.crossings]
    under = [(c.pd[0], c.pd[2]) for c in d.crossings]
    return _cycle_count(arcs, over), _cycle_count(arcs, under)


def realize_vertex(d: Diagram, t: ThetaGraph, v: tuple[int, ...]) -> dict:
    """Flype set, P-arcs, curve counts, and Euler characteristic for a
    vertex at distance at most 1 from the base vertex, whose regions at
    height 1 make the flype set."""
    base = t.weights()
    h = heights(t, base, v)
    if max(h, default=0) > 1:
        raise ValueError("vertex is not within distance 1 of the base vertex")
    fs = flype_set_for_edge(t, base, {r for r, x in enumerate(h) if x})
    config = p_arcs(d, t, fs)
    n_a, n_b = trace_curves(d, config["arcs"])
    return {
        "vertex": list(v),
        "flype_set": fs,
        "p_arcs": config,
        "n_a": n_a,
        "n_b": n_b,
        # the projection annulus contributes -n, each disc above or below 1
        "euler_characteristic": n_a + n_b - d.n,
    }
