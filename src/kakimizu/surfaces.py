"""Flype circles and P-arc configurations on the diagram.

A vertex of the complex adjacent to the base vertex differs from it by a
set A of regions.  On each theta component the net weight changes induced
by A alternate around the cyclic edge order between -1 (a crossing leaves)
and +1 (a crossing arrives); pairing each -1 edge with the +1 edge on its
positive side draws one flype circle per pair.  The circles 2-colour the
rest of the sphere: a region is on the positive side exactly when it lies
in A.

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
-n + n_a + n_b of the traced surface.
"""

from __future__ import annotations

from .diagram import Diagram
from .kcomplex import heights
from .record import Record
from .theta import Region, ThetaGraph

__all__ = [
    "FlypeCircle",
    "FlypeSet",
    "PArcConfig",
    "euler_characteristic",
    "flype_set_for_edge",
    "p_arcs",
    "realize_vertex",
    "trace_curves",
]


# -- flype sets -------------------------------------------------------------


class FlypeCircle(Record):
    def __init__(self, component: int, crossing_edge: int, arc_edge: int):
        self.component = component
        self.crossing_edge = crossing_edge  # the -1 edge: one of its crossings moves away
        self.arc_edge = arc_edge  # the +1 edge on its positive side: the crossing arrives


class FlypeSet(Record):
    """A coherent set of flype circles, together with the side 2-colouring.

    ``labels`` records the net weight change of every theta edge; the
    regions of A, ``region_ids``, sit on the positive side of every circle,
    the rest on the negative side.
    """

    def __init__(self, base: tuple[int, ...], region_ids: tuple[int, ...],
                 labels: dict[int, int], circles: list[FlypeCircle],
                 negative_side_regions: tuple[int, ...] = ()):
        self.base = base
        self.region_ids = region_ids
        self.labels = labels
        self.circles = circles
        self.negative_side_regions = negative_side_regions

    def to_json(self) -> dict:
        return {
            "base": list(self.base),
            "regions": list(self.region_ids),
            "labels": {str(k): v for k, v in sorted(self.labels.items())},
            "circles": [c.to_json() for c in self.circles],
            "positive_side_regions": list(self.region_ids),
            "negative_side_regions": list(self.negative_side_regions),
        }


def flype_set_for_edge(t: ThetaGraph, u: tuple[int, ...], a: list[Region]) -> FlypeSet:
    """The flype circles realizing the move from ``u`` by the region set
    ``a``: per component, each -1 edge paired with the next nonzero edge in
    the positive cyclic direction, which alternation makes a +1 edge."""
    labels: dict[int, int] = {eid: 0 for eid in t.global_edge_order}
    for r in a:
        for eid in r.boundary_plus:
            labels[eid] += 1
        for eid in r.boundary_minus:
            labels[eid] -= 1
    circles: list[FlypeCircle] = []
    for comp in t.components:
        seq = [labels[e.id] for e in comp.edges]
        if any(v not in (-1, 0, 1) for v in seq):
            raise ValueError("label pattern non-alternating")
        nonzero = [v for v in seq if v]
        if any(x == y for x, y in zip(nonzero, nonzero[1:] + nonzero[:1])):
            raise ValueError("label pattern non-alternating")
        for i, v in enumerate(seq):
            if v != -1:
                continue
            crossing_edge = comp.edges[i]
            if u[t.edge_position[crossing_edge.id]] < 1:
                raise ValueError(
                    f"edge {crossing_edge.id} has no crossing to move"
                )
            j = (i + 1) % comp.k
            while seq[j] == 0:
                j = (j + 1) % comp.k
            if seq[j] != 1:
                raise AssertionError("a -1 label is not followed by a +1")
            circles.append(
                FlypeCircle(comp.id, crossing_edge.id, comp.edges[j].id)
            )
    in_a = tuple(sorted(r.id for r in a))
    all_ids = {r.id for r in t.regions}
    return FlypeSet(
        base=tuple(u),
        region_ids=in_a,
        labels=labels,
        circles=circles,
        negative_side_regions=tuple(sorted(all_ids - set(in_a))),
    )


# -- P-arc configurations ---------------------------------------------------


class PArcConfig(Record):
    """One P-arc per strand pair; ``crossing_sides`` says which side of
    each crossing its arc hugs ("flype" marks the bare crossings that the
    circles pass through)."""

    def __init__(self, arcs: list[tuple[int, int]], crossing_sides: dict[int, str],
                 flype_arcs: list[tuple[int, tuple[int, int]]] | None = None):
        self.arcs = arcs
        self.crossing_sides = crossing_sides
        self.flype_arcs = [] if flype_arcs is None else flype_arcs

    def to_json(self) -> dict:
        return {
            "arcs": [list(p) for p in self.arcs],
            "crossing_sides": {
                str(k): v for k, v in sorted(self.crossing_sides.items())
            },
            "flype_arcs": [[eid, list(p)] for eid, p in self.flype_arcs],
        }


def _strands(d: Diagram, cid: int, inward: bool) -> tuple[int, int]:
    """The two labels entering crossing ``cid``, or the two leaving it."""
    pd = d.by_id[cid].pd
    pair = tuple(pd[p] for p in range(4) if d.arm_is_in(cid, p) == inward)
    if len(pair) != 2:
        raise AssertionError(f"crossing {cid} has {len(pair)} strands one way")
    return pair


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


def p_arcs(
    d: Diagram, t: ThetaGraph, fs: FlypeSet, convention: str = "positive"
) -> PArcConfig:
    """The P-arc configuration of the surface encoded by a flype set.

    With no circles the ``convention`` side is used everywhere; "positive"
    reproduces the special form of the Seifert-algorithm surface, with an
    arc across the negative side of every crossing.  ``t`` must keep its
    source graph, as ``theta_pipeline`` leaves it.
    """
    if convention not in ("positive", "negative"):
        raise ValueError("convention must be 'positive' or 'negative'")
    theta_edges = set(t.global_edge_order)
    in_a = set(fs.region_ids)
    graph, region_of = t.source, t.region_of
    if graph is None:
        raise ValueError("theta graph does not carry its source graph")
    uniform = 1 if convention == "positive" else -1

    def sigma_of_region(region: Region) -> int:
        return 1 if region.id in in_a else -1

    arcs: list[tuple[int, int]] = []
    sides: dict[int, str] = {}
    flype_arcs: list[tuple[int, tuple[int, int]]] = []

    def corner_arc(cid: int, sigma: int) -> None:
        sides[cid] = "negative" if sigma > 0 else "positive"
        arcs.append(_strands(d, cid, inward=sigma > 0))

    for eid in sorted(graph.edges):
        e = graph.edges[eid]
        chain = e.crossings
        delta = fs.labels.get(eid, 0) if eid in theta_edges else 0
        if delta == -1:
            # one crossing leaves: the circle passes through the last
            # crossing of the stack and the rest hug their positive side
            if not chain:
                raise AssertionError(f"crossing edge {eid} carries no crossing")
            for cid in chain[:-1]:
                corner_arc(cid, -1)
            sides[chain[-1]] = "flype"
            for a, b in zip(chain, chain[1:]):
                if set(_strands(d, a, False)) != set(_strands(d, b, True)):
                    raise AssertionError(f"crossings {a} and {b} do not stack")
        elif delta == 1:
            # a crossing arrives: the circle crosses the corridor at its
            # negative end and every present crossing hugs its positive
            # side
            for cid in chain:
                corner_arc(cid, -1)
            if chain:
                pair = _strands(d, chain[0], inward=True)
            else:
                pair = (_arc_strand(d, t, eid, e.u), _arc_strand(d, t, eid, e.v))
            flype_arcs.append((eid, pair))
            arcs.append(pair)
        else:
            if not chain:
                continue
            if in_a:
                pos_r = graph.positive_face(eid, region_of)
                neg_r = graph.negative_face(eid, region_of)
                sigma = sigma_of_region(pos_r)
                if eid in theta_edges:
                    # both sides of the corridor have the same status
                    if sigma != sigma_of_region(neg_r):
                        raise AssertionError(
                            f"zero-labelled edge {eid} separates the two sides"
                        )
                elif pos_r is not neg_r:
                    raise AssertionError(f"edge {eid} is not inside a region")
            else:
                sigma = uniform
            for cid in chain:
                corner_arc(cid, sigma)

    config = PArcConfig(arcs=arcs, crossing_sides=sides, flype_arcs=flype_arcs)
    _check_arcs(d, config)
    return config


def _check_arcs(d: Diagram, config: PArcConfig) -> None:
    """Each strand carries exactly one arc endpoint, and the two endpoints
    of every arc lie on the boundary of a common white region."""
    seen: dict[int, int] = {}
    for a, b in config.arcs:
        seen[a] = seen.get(a, 0) + 1
        seen[b] = seen.get(b, 0) + 1
    labels = sorted(d.arms)
    bad = [lab for lab in labels if seen.get(lab, 0) != 1]
    if bad or len(seen) != len(labels):
        raise ValueError(
            f"arc endpoints do not cover each strand exactly once: {bad[:6]}"
        )
    whites = set(d.white_faces())

    def white_of(lab: int) -> int:
        fa = d.face_of[(lab, 0)]
        fb = d.face_of[(lab, 1)]
        in_w = [x for x in (fa, fb) if x in whites]
        if len(in_w) != 1:
            raise AssertionError(f"strand {lab} does not border one white face")
        return in_w[0]

    for a, b in config.arcs:
        if white_of(a) != white_of(b):
            raise ValueError(f"arc ({a}, {b}) does not stay in one white region")


# -- curve tracing ----------------------------------------------------------


def _cycle_count(pairings: list[tuple[int, int]], other: list[tuple[int, int]]) -> int:
    """The closed curves made by two perfect pairings of the same labels."""
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    for partner, pairs in ((first, pairings), (second, other)):
        for a, b in pairs:
            partner[a], partner[b] = b, a
    count = 0
    seen: set[int] = set()
    for start in first:
        if start not in seen:
            count += 1
            a = start
            while a not in seen:
                seen.update((a, first[a]))
                a = second[first[a]]
    return count


def trace_curves(d: Diagram, config: PArcConfig) -> tuple[int, int]:
    """Count the closed curves of P-arcs with the overcrossing arcs
    (``n_a``, discs above) and with the undercrossing arcs (``n_b``)."""
    over = []
    under = []
    for c in d.crossings:
        over.append((c.pd[1], c.pd[3]))
        under.append((c.pd[0], c.pd[2]))
    n_a = _cycle_count(config.arcs, over)
    n_b = _cycle_count(config.arcs, under)
    return n_a, n_b


def euler_characteristic(n: int, n_a: int, n_b: int) -> int:
    """Euler characteristic of a surface in special form: the projection
    annulus contributes -n and each disc above or below contributes 1."""
    return -n + n_a + n_b


def realize_vertex(
    d: Diagram, t: ThetaGraph, v: tuple[int, ...], convention: str = "positive"
) -> dict:
    """Flype set, P-arcs, curve counts, and Euler characteristic for a
    vertex at distance at most 1 from the base vertex, whose regions at
    height 1 make the flype set."""
    base = t.weights()
    h = heights(t, base, v)
    if max(h, default=0) > 1:
        raise ValueError("vertex is not within distance 1 of the base vertex")
    if any(h):
        fs = flype_set_for_edge(t, base, [r for r in t.regions if h[r.id]])
    else:
        fs = FlypeSet(base=base, region_ids=(), labels={}, circles=[])
    config = p_arcs(d, t, fs, convention=convention)
    n_a, n_b = trace_curves(d, config)
    return {
        "vertex": list(v),
        "flype_set": fs.to_json(),
        "p_arcs": config.to_json(),
        "n_a": n_a,
        "n_b": n_b,
        "euler_characteristic": euler_characteristic(d.n, n_a, n_b),
    }
