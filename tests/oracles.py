"""Independent oracles used by several test modules.

Each checks a fast library routine against a slower route to the same
answer:

- the fibredness oracle tries every reduction order instead of trusting
  the greedy pass;
- networkx's clique search checks the library's own;
- ``delta`` reads a region's delta off the wedge map edge by edge, where
  the library sums region codes in one pass over the edges;
- ``region_add`` adds a region's delta to a weight tuple, where
  ``SimplicialComplex.moves`` looks every move up once per complex;
  ``tuple_moves`` builds that table by adding each delta to each weight
  tuple, where ``moves`` adds integer codes;
- ``adjacency`` decides whether two vertices are adjacent by solving a
  two-colouring of the regions, fixed by the owners of each theta edge,
  and then orders the region set greedily; ``all_pairs_neighbours`` runs it
  on every pair of vertices, which the walk ``neighbours`` (adding one
  region at a time with ``region_add``) and the move-table search of
  ``kcomplex.flag_check`` must match, and whose region sets
  ``surfaces.realize_vertex`` must read off the region heights;
- ``region_sets`` searches the region sets of one start vertex depth
  first over the move table, where ``kcomplex._neighbour_sets`` extends
  every start's region sets together, one set size at a time;
- ``bfs_distance`` is a breadth-first search over every skeleton edge,
  where ``kcomplex.distance`` is the spread of the region heights;
- ``scan_circle_black_face`` finds the black face of one Seifert circle by
  scanning every crossing, where ``diagram.seifert`` files every smoothing
  corner under its circle in one pass;
- ``union_find_orientation`` orients the strands of a PD code by solving
  the in/out constraints of every arc as a parity union-find and then
  traces the components, where ``Diagram`` walks each strand once;
  ``rotation_face_corners`` finds each corner of a face with a
  ``list.index`` in the rotation at the crossing, where
  ``Diagram.face_corners`` reads a table built with the diagram;
- ``bfs_two_edge_cut`` finds a separating pair of arcs by a connectivity
  search on the diagram with each pair of arcs removed, where
  ``diagram._two_edge_cut`` reads the pair off the faces;
- ``white_smooth`` smooths a crossing by building the whole smoothed
  diagram, on which a connectivity search and ``_two_edge_cut`` run again,
  where ``diagram._smoothing_is_prime`` reads the smoothing off the faces
  of the diagram it starts from;
- ``cyclic_order_maximal_simplices`` memoizes the completions of every
  region walk from every start, finding each maximal simplex once per
  rotation of its walk, where ``kcomplex.build_complex`` walks only from
  region 0 and finds each once;
- ``exhaustive_colour_schemes`` filters every weakly increasing sequence
  for distinct columns, where ``structure.colour_schemes`` grows the
  sequence and prunes branches that can no longer separate their columns;
- ``retrace_reduce_bigons``, ``retrace_arc_candidates`` and
  ``retrace_augment_flype_arcs`` retrace, and Euler-check, the whole map
  after every bigon merge and every arc, and rescan every face for a bigon
  or for arc candidates, where ``theta._reduce_bigons`` and
  ``theta._augment_flype_arcs`` trace once per stage and update only the
  faces each surgery touches;
- ``rescan_eliminate`` is ``matrix_homology``'s eliminator: it pivots on
  unit entries, rescanning every row for the best Markowitz pivot at each
  step, and hands the unit-free rest to ``homology.smith_diagonal``; the
  tests check it against ``smith_diagonal`` on the whole matrix;
- ``min_pivot_trace_faces`` traces the faces of a planar map by taking
  the least untraced half-edge with ``min`` for every face, stepping with
  ``next_in_face`` and ``rotation_prev`` (a ``list.index`` per step), then
  rotating each face to its least half-edge and sorting the list, where
  ``EmbeddedGraph.trace_faces`` makes one sorted sweep, popping a map
  from each half-edge to the next; its Euler check counts the components
  by merging the ends of every edge, where ``trace_faces`` subtracts the
  isolated vertices from ``component_count``;
- ``walk_curve_count`` counts the closed curves of two perfect pairings by
  walking each curve label by label, marking both ends of every pair
  seen, where ``surfaces.trace_curves`` halves the cycle count of the
  composite of the two pairings;
- ``dart_table_map`` builds the crossing map of a diagram with
  ``add_vertex`` and a table from each arm to its dart, where
  ``Diagram._build_map`` writes each rotation straight from the arms;
- ``hand_region_graph`` builds a region graph vertex by vertex with
  ``add_vertex``, storing white edges from their lesser region to their
  greater, and resolves each rotation entry by its edge's ``u``, where
  ``diagram._region_graph`` hands classes, endpoints and edge-id lists to
  ``planar.embed`` and stores every edge from the region at corner par+2
  to the one at par;
- ``wedge_placements`` places the components of an extracted theta graph
  one at a time: it merges the faces of F(D) across every edge outside
  one component into that component's wedges, and reads a component's
  ancestors off the wedges that separate it from the first wedge of the
  first component, where ``theta._extract_theta`` merges the faces once
  into regions and walks the tree of components and regions;
- ``split_regions`` predicts the region deltas of each side of a split
  from the regions of the whole graph, where ``structure.split_theta``
  places each side afresh and checks only that its regions match the
  regions of the whole graph one to one;
- ``tuple_ordered_product`` names product vertices by nested pairs, sorts
  them and looks every pair up with ``SimplicialComplex.index``, and
  orders them componentwise by the factor relations of ``key_pairs``,
  where ``structure.ordered_product`` numbers the pair (i, j) by
  ``i * len(c2.vertices) + j`` and sorts each chain by its factor key;
  ``tuple_verify_iso`` compares frozensets of vertices, where
  ``structure.verify_iso`` compares frozensets of vertex indices;
- ``key_pairs`` expands a vertex key into the directed pairs it orders
  over ``skeleton_edges``, the pairs of vertices sharing a maximal simplex,
  and ``relation_chains`` reads each maximal simplex as a chain of such a
  relation by counting predecessors, checking every pair along the chain;
  the library keeps only the key and sorts by it;
- ``greedy_is_fibred`` deletes every loop and contracts one valence-2 edge
  per pass over the whole edge list, where ``diagram.is_fibred`` keeps a
  worklist of valence-2 vertices; ``vertex_rank`` inverts
  ``kcomplex.vertex_at`` by counting, like it, the compositions that come
  before;
- ``matrix_homology`` builds every boundary matrix of the augmented chain
  complex from the set of all faces, checks that consecutive boundaries
  compose to zero by multiplying them out, and eliminates each matrix on
  its own with ``rescan_eliminate``, where ``homology.homology`` first
  deletes dominated vertices, then pairs cells off by coreduction and
  gives only the residue to the Smith form;
- ``dominated`` decides whether a vertex is dominated by listing the
  maximal simplices of a complex with a pairwise subset test and trying
  every other vertex of the star, where ``homology._strong_core`` compares
  sets of simplex ids;
- ``star_intersection_core`` strong-collapses a complex, looking for a
  live simplex that contains each shrunk face among the intersection of
  the stars of all of the face's vertices, where
  ``homology._strong_core`` looks only among the simplices through one
  edge from the face's dominator while the dominator's star is short;
  both delete the same vertices in the same order and return the same
  list;
- ``argparse_parser`` is the CLI's argument parser written out by hand,
  one ``ArgumentParser`` per subcommand, where ``cli._parse`` reads plain
  command lines directly and builds its argparse parser for the rest from
  the ``cli.COMMANDS`` table; both must accept the same command lines and
  give the same handler, input reader and option values.
"""

from __future__ import annotations

import argparse
import itertools
import random
from collections import deque
from math import comb
from operator import add

import networkx as nx

from conftest import copy_graph
from kakimizu.cli import (
    _sniff,
    cmd_analyze,
    cmd_complex,
    cmd_esd,
    cmd_fibred,
    cmd_product,
    cmd_seifert,
    cmd_selftest,
    cmd_surface,
    cmd_theta,
    cmd_validate,
    cmd_verify_esd,
    cmd_verify_product,
)
from kakimizu.diagram import (
    OVER_A,
    OVER_B,
    UNDER_IN,
    UNDER_OUT,
    Crossing,
    Diagram,
    parse_diagram,
)
from kakimizu.homology import smith_diagonal
from kakimizu.kcomplex import SimplicialComplex, Vertex, enumerate_vertices
from kakimizu.structure import _staircases
from kakimizu.planar import Dart, Edge, EmbeddedGraph, HalfEdge, face_index
from kakimizu.theta import SPHERE, Placement, ThetaGraph, merge_classes

__all__ = [
    "adjacency",
    "all_pairs_neighbours",
    "all_simplices",
    "argparse_parser",
    "bfs_distance",
    "boundary",
    "bfs_two_edge_cut",
    "cyclic_order_maximal_simplices",
    "compose",
    "delta",
    "exhaustive_colour_schemes",
    "exhaustive_is_fibred",
    "faces_by_dim",
    "greedy_is_fibred",
    "key_pairs",
    "matrix_homology",
    "min_pivot_trace_faces",
    "neighbours",
    "next_in_face",
    "networkx_maximal_cliques",
    "order_regions",
    "owner_maps",
    "relation_chains",
    "region_add",
    "region_sets",
    "rescan_eliminate",
    "retrace_arc_candidates",
    "retrace_augment_flype_arcs",
    "retrace_reduce_bigons",
    "rotation_face_corners",
    "rotation_prev",
    "scan_circle_black_face",
    "skeleton_edges",
    "split_regions",
    "star_intersection_core",
    "tuple_moves",
    "tuple_ordered_product",
    "tuple_verify_iso",
    "union_find_orientation",
    "vertex_rank",
    "wedge_placements",
    "white_smooth",
]


def owner_maps(t: ThetaGraph) -> tuple[dict[int, int], dict[int, int]]:
    """Maps from each edge id to the id of the region on its negative side,
    which wedge j - 1 holds for edge j, and of the one on its positive
    side, wedge j."""
    plus: dict[int, int] = {}
    minus: dict[int, int] = {}
    for c in t.components:
        row = t.wedges[c.id]
        for j, e in enumerate(c.edges):
            plus[e.id], minus[e.id] = row[j - 1], row[j]
    return plus, minus


def delta(t: ThetaGraph, r: int) -> tuple[int, ...]:
    """The delta of region ``r`` in global edge order: +1 on the edges with
    ``r`` on their negative side, -1 on those with ``r`` on their positive
    side; ``test_region_invariants`` checks that no edge has it on both."""
    plus, minus = owner_maps(t)
    return tuple((plus[e] == r) - (minus[e] == r) for e in t.global_edge_order)


def region_add(v: Vertex, r: int, t: ThetaGraph) -> Vertex | None:
    """``v`` shifted by the delta of region ``r``, or None where undefined."""
    out = tuple(map(add, v, delta(t, r)))
    return None if min(out, default=0) < 0 else out


def neighbours(t: ThetaGraph, u: Vertex) -> dict[Vertex, list[int]]:
    """Every vertex adjacent to ``u``, mapped to the regions carrying ``u``
    to it.

    A depth-first walk adds one region at a time with ``region_add``,
    staying on vertices, and visits each proper non-empty region set at
    most once.
    """
    if len(u) != t.n_edges:
        raise ValueError("vertex does not match the theta graph")
    full = (1 << t.region_count) - 1
    out: dict[Vertex, list[int]] = {}
    seen = {0}
    stack = [(0, tuple(u))]
    while stack:
        used, v = stack.pop()
        for r in range(t.region_count):
            w = region_add(v, r, t)
            nxt = used | 1 << r
            if w is not None and nxt not in seen:
                seen.add(nxt)
                if nxt != full:
                    out[w] = [s for s in range(t.region_count) if nxt >> s & 1]
                    stack.append((nxt, w))
    return out


def tuple_moves(c: SimplicialComplex) -> list[tuple[int | None, ...]]:
    """``c.moves`` keyed by weight tuples: ``moves[i][r]`` is the index of
    ``vertices[i]`` plus the delta of region r, or None where that point is
    not a vertex, one tuple addition per vertex and region."""
    if c.theta is None:
        raise ValueError("complex does not carry a theta graph")
    index = {v: i for i, v in enumerate(c.vertices)}
    columns = [
        [index.get(tuple(map(add, v, d))) for v in c.vertices]
        for d in (delta(c.theta, r) for r in range(c.theta.region_count))
    ]
    return list(zip(*columns)) if columns else [()] * len(c.vertices)


def region_sets(moves: list, start: int) -> set[int]:
    """Every vertex reached from vertex ``start`` by adding a proper
    non-empty set of the regions one at a time, read off the move table.

    The search visits each region set, a bit mask, at most once.  The
    region deltas sum to zero and span a space of dimension one less than
    their number, so distinct proper non-empty sets reach distinct vertices
    and the search costs O(deg * R) lookups.
    """
    full = (1 << len(moves[start])) - 1
    out = set()
    seen = {0}
    stack = [(0, start)]
    while stack:
        used, i = stack.pop()
        for r, j in enumerate(moves[i]):
            nxt = used | 1 << r
            if j is not None and nxt not in seen:
                seen.add(nxt)
                if nxt != full:
                    out.add(j)
                    stack.append((nxt, j))
    return out


def skeleton_edges(c: SimplicialComplex) -> set[tuple[int, int]]:
    """Every pair i < j of vertex indices sharing a maximal simplex."""
    out: set[tuple[int, int]] = set()
    for s in c.maximal_simplices:
        out.update(itertools.combinations(sorted(s), 2))
    return out


def key_pairs(c: SimplicialComplex, key: list[int]) -> frozenset:
    """The directed pairs (i, j) over the skeleton edges of ``c`` with
    ``key[i] < key[j]``.  A tie leaves its edge out, so the support falls
    short of the skeleton."""
    return frozenset(
        (i, j) if key[i] < key[j] else (j, i)
        for i, j in skeleton_edges(c)
        if key[i] != key[j]
    )


def relation_chains(c: SimplicialComplex, order) -> list[list[int]]:
    """Each maximal simplex sorted by how many of its vertices come before
    each vertex in the relation ``order``, checked to be a chain in it."""
    chains = []
    for s in c.maximal_simplices:
        chain = sorted(s, key=lambda v: sum((u, v) in order for u in s))
        if not all(p in order for p in itertools.combinations(chain, 2)):
            raise ValueError("order violates axioms")
        chains.append(chain)
    return chains


def bfs_distance(c: SimplicialComplex, u, v) -> int:
    """Edge distance in the 1-skeleton, by breadth-first search over every
    skeleton edge; raises ValueError when no path joins the two."""
    adj: dict[int, set[int]] = {i: set() for i in range(len(c.vertices))}
    for i, j in skeleton_edges(c):
        adj[i].add(j)
        adj[j].add(i)
    target = c.index(v)
    frontier = seen = {c.index(u)}
    d = 0
    while target not in frontier:
        frontier = {j for i in frontier for j in adj[i]} - seen
        if not frontier:
            raise ValueError("complex is disconnected")
        seen = seen | frontier
        d += 1
    return d


def order_regions(a: list[int], u: Vertex, t: ThetaGraph) -> list[int]:
    """Order the region ids ``a`` so the regions can be added starting from
    ``u``.

    Greedy by lowest region id; for genuinely adjacent vertices this never
    sticks, so sticking signals corrupted input.
    """
    remaining = sorted(a)
    out: list[int] = []
    current = u
    while remaining:
        for r in remaining:
            nxt = region_add(current, r, t)
            if nxt is not None:
                remaining.remove(r)
                out.append(r)
                current = nxt
                break
        else:
            raise RuntimeError("stuck: region set admits no addition order")
    return out


def adjacency(u: Vertex, v: Vertex, t: ThetaGraph) -> list[int] | None:
    """The ids of the regions carrying ``u`` to ``v``, or None when not
    adjacent.

    Each theta edge has one region on its negative side and another on its
    positive side; a weight difference constrains
    whether those owners are in the set, and equal weights force the owners
    into or out of it together.  Propagation either fails (not adjacent) or
    determines the set and its complement; the returned set is the one
    whose deltas sum to ``v - u``.
    """
    if len(u) != t.n_edges or len(v) != t.n_edges:
        raise ValueError("vertices do not match the theta graph")
    if u == v:
        return None
    d = [b - a for a, b in zip(u, v)]
    if any(abs(x) > 1 for x in d):
        return None

    regions = range(t.region_count)
    plus_owner, minus_owner = owner_maps(t)
    value: dict[int, bool] = {}
    same: dict[int, list[int]] = {r: [] for r in regions}
    pending: list[tuple[int, bool]] = []
    for eid in t.global_edge_order:
        de = d[t.edge_position[eid]]
        rp, rm = plus_owner[eid], minus_owner[eid]
        if de == 1:
            pending.append((rp, True))
            pending.append((rm, False))
        elif de == -1:
            pending.append((rp, False))
            pending.append((rm, True))
        else:
            same[rp].append(rm)
            same[rm].append(rp)
    while pending:
        rid, val = pending.pop()
        if rid in value:
            if value[rid] != val:
                return None
            continue
        value[rid] = val
        for other in same[rid]:
            pending.append((other, val))
    if len(value) != len(regions):
        # the constraint graph on regions is connected, so this cannot
        # happen for distinct vertices; guard rather than guess
        raise RuntimeError("underdetermined region set")
    a = [r for r in regions if value[r]]
    if not a or len(a) == len(regions):
        return None
    order_regions(a, u, t)  # adjacency requires a valid addition order
    return a


def all_pairs_neighbours(t: ThetaGraph) -> dict[Vertex, dict[Vertex, list[int]]]:
    """For every vertex, its neighbours and the regions reaching each, from
    ``adjacency`` on every ordered pair of vertices."""
    vertices = enumerate_vertices(t)
    out: dict[Vertex, dict[Vertex, list[int]]] = {u: {} for u in vertices}
    for u in vertices:
        for v in vertices:
            a = adjacency(u, v, t)
            if a is not None:
                out[u][v] = a
    return out


def cyclic_order_maximal_simplices(t: ThetaGraph) -> set[frozenset]:
    """Maximal simplices found from their definition, not from cliques.

    A set of vertices spans a maximal simplex when some ordering of all
    regions, added one at a time, walks through exactly those vertices and
    returns to its start.  The start is determined by the current vertex
    and the regions still unused (their deltas sum to the remaining
    displacement), so walk completions can be memoized without it.  Every
    start is tried, so each simplex is found once per rotation of its walk;
    ``kcomplex.build_complex`` roots the walk at region 0 instead.
    """
    if not t.components:
        return {frozenset({()})}
    deltas = [delta(t, r) for r in range(t.region_count)]
    m = len(deltas)
    vset = set(enumerate_vertices(t))
    memo: dict[tuple[Vertex, int], frozenset] = {}

    def step(v: Vertex, d: tuple[int, ...]) -> Vertex:
        return tuple(a + b for a, b in zip(v, d))

    def completions(v: Vertex, used: int) -> frozenset:
        key = (v, used)
        if key in memo:
            return memo[key]
        remaining = [i for i in range(m) if not used >> i & 1]
        if len(remaining) == 1:
            # the last region closes the walk back to its start
            w = step(v, deltas[remaining[0]])
            out = frozenset({frozenset()}) if w in vset else frozenset()
        else:
            acc = set()
            for r in remaining:
                w = step(v, deltas[r])
                if w in vset:
                    for tail in completions(w, used | 1 << r):
                        acc.add(tail | {w})
            out = frozenset(acc)
        memo[key] = out
        return out

    orbits: set[frozenset] = set()
    for u in vset:
        for tail in completions(u, 0):
            orbits.add(tail | {u})
    return orbits


def union_find_orientation(
    crossings: list[Crossing],
) -> tuple[dict[int, bool], list[list[int]]]:
    """Strand orientations of a PD code by solving the in/out constraints.

    Returns what ``Diagram`` computes by walking the strands: per crossing,
    whether the over-strand enters at position 1, and the oriented strand
    cycles.  The labels must already be valid (each of 1..2n twice).
    """
    crossings = sorted(crossings, key=lambda c: c.id)
    by_id = {c.id: c for c in crossings}
    arms: dict[int, list[tuple[int, int]]] = {}
    for c in crossings:
        for pos, lab in enumerate(c.pd):
            arms.setdefault(lab, []).append((c.id, pos))
    over_in_first = _orient(crossings, arms)
    return over_in_first, _trace_components(by_id, arms, over_in_first)


def _orient(crossings: list[Crossing], arms: dict) -> dict[int, bool]:
    """Decide, per crossing, whether the over-strand enters at position 1.

    Each arm is "in" or "out": the under-strand fixes positions 0 (in)
    and 2 (out), and each arc must have exactly one in end.  This is a
    parity constraint system over one boolean per crossing, solved by
    union-find with parities; components not forced by any under-arm get
    the value True at their smallest crossing id.
    """
    # Union-find over crossing ids plus the constant node None (= True).
    parent: dict[object, object] = {None: None}
    parity: dict[object, int] = {None: 0}

    def find(x: object) -> tuple[object, int]:
        path = []
        p = 0
        while parent.setdefault(x, x) != x:
            path.append(x)
            p ^= parity.setdefault(x, 0)
            x = parent[x]
        acc = p
        for y in path:
            oldp = parity[y]
            parent[y] = x
            parity[y] = acc
            acc ^= oldp
        return x, p

    def union(a: object, pa: int, b: object, pb: int, rel: int) -> None:
        # impose (value(a) ^ pa) == (value(b) ^ pb) ^ rel
        ra, qa = find(a)
        rb, qb = find(b)
        want = pa ^ pb ^ rel
        if ra == rb:
            if qa ^ qb != want:
                raise ValueError("inconsistent strand orientations")
            return
        if rb is None:
            ra, rb, qa, qb = rb, ra, qb, qa
        parent[rb] = ra
        parity[rb] = qa ^ qb ^ want

    # literal for "arm is an in end": (node, parity); value = node ^ parity
    def lit(arm: tuple[int, int]) -> tuple[object, int]:
        cid, pos = arm
        if pos == UNDER_IN:
            return None, 0
        if pos == UNDER_OUT:
            return None, 1
        if pos == OVER_A:
            return cid, 0
        return cid, 1

    for ends in arms.values():
        (na, pa), (nb, pb) = lit(ends[0]), lit(ends[1])
        # exactly one in end: values differ
        union(na, pa, nb, pb, 1)
    for c in crossings:
        root, _ = find(c.id)
        if root is not None:
            union(None, 0, c.id, 0, 0)  # free component: choose True
    result = {}
    for c in crossings:
        root, p = find(c.id)
        if root is not None:
            raise AssertionError(f"crossing {c.id} left unoriented")
        result[c.id] = p == 0
    return result


def _trace_components(
    by_id: dict[int, Crossing], arms: dict, over_in_first: dict[int, bool]
) -> list[list[int]]:
    """Oriented strand cycles, as lists of labels in travel order."""

    def arm_is_in(cid: int, pos: int) -> bool:
        if pos == UNDER_IN:
            return True
        if pos == UNDER_OUT:
            return False
        return (pos == OVER_A) == over_in_first[cid]

    in_arm = {}
    for lab, ends in arms.items():
        ins = [a for a in ends if arm_is_in(*a)]
        if len(ins) != 1:
            raise ValueError("inconsistent strand orientations")
        in_arm[lab] = ins[0]
    comps = []
    seen: set[int] = set()
    for start in sorted(arms):
        if start in seen:
            continue
        cycle = []
        lab = start
        while lab not in seen:
            seen.add(lab)
            cycle.append(lab)
            cid, pos = in_arm[lab]
            lab = by_id[cid].pd[(pos + 2) % 4]
        if lab != start:
            raise ValueError("strand does not close up")
        comps.append(cycle)
    return comps


def rotation_face_corners(d: Diagram, face_idx: int) -> list[tuple[int, int]]:
    """Corners (crossing id, corner index) of a face, in boundary order,
    each found by searching the rotation at the crossing a half-edge
    arrives at, where ``Diagram.face_corners`` reads a table built once."""
    corners = []
    for h in d.faces[face_idx]:
        lab, direction = h
        head = d.map.half_edge_head(h)
        arrival = (lab, 1) if direction == 0 else (lab, 0)
        pos = d.map.rotation[head].index(arrival)
        corners.append((head, (pos - 1) % 4))
    return corners


def bfs_two_edge_cut(d: Diagram) -> tuple[int, int] | None:
    """The first pair of arcs, in label order, whose removal disconnects the
    crossings, found by a depth-first search for each pair."""
    g = d.map
    labels = sorted(g.edges)
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            # connectivity of the map minus edges a, b
            seen = {d.crossings[0].id}
            stack = [d.crossings[0].id]
            while stack:
                v = stack.pop()
                for eid, end in g.rotation[v]:
                    if eid in (a, b):
                        continue
                    e = g.edges[eid]
                    w = e.u if end else e.v  # the far end of the dart
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) < d.n:
                return (a, b)
    return None


def white_smooth(d: Diagram, cid: int) -> tuple[Diagram | None, int]:
    """Smooth crossing ``cid`` respecting orientation.

    This is the cut used on a crossing of a white region: the two white
    corners at the crossing merge and the crossing disappears.  Returns the
    resulting diagram (None if fewer than 2 crossings remain) and the number
    of crossing-free circles that split off.
    """
    c = d.by_id[cid]
    if d.over_in_first[cid]:
        pairs = [(c.pd[UNDER_IN], c.pd[OVER_B]), (c.pd[OVER_A], c.pd[UNDER_OUT])]
    else:
        pairs = [(c.pd[UNDER_IN], c.pd[OVER_A]), (c.pd[OVER_B], c.pd[UNDER_OUT])]
    # merge each label pair; equal labels mean a circle splits off
    dropped = 0
    rename: dict[int, int] = {}
    for x, y in pairs:
        if x == y:
            dropped += 1
        else:
            rename[max(x, y)] = min(x, y)

    def resolve(lab: int) -> int:
        while lab in rename:
            lab = rename[lab]
        return lab

    new = []
    for other in d.crossings:
        if other.id == cid:
            continue
        new.append((other.id, tuple(resolve(x) for x in other.pd)))
    if len(new) < 2:
        return None, dropped
    relabel = {lab: i + 1 for i, lab in enumerate(sorted({x for _, pd in new for x in pd}))}
    out = Diagram([Crossing(i, tuple(relabel[x] for x in pd)) for i, pd in new])
    return out, dropped


def scan_circle_black_face(d: Diagram, circle: list[int]) -> int:
    """The black region bounded by one Seifert circle, by scanning every
    smoothing corner of every crossing for the circle's labels."""
    par = d.smoothing_parity()
    faces = set()
    label_set = set(circle)
    for c in d.crossings:
        for corner in (par, par + 2):
            a, b = c.pd[corner], c.pd[(corner + 1) % 4]
            if a in label_set or b in label_set:
                if not (a in label_set and b in label_set):
                    raise ValueError("smoothing corner splits a Seifert circle")
                faces.add(d.corner_face(c.id, corner))
    if len(faces) != 1:
        raise ValueError("Seifert circle is not innermost; diagram not special")
    return faces.pop()


def networkx_maximal_cliques(adj: dict[int, set[int]]) -> list[list[int]]:
    """Maximal cliques of a graph given by neighbour sets, found by
    ``networkx.find_cliques``, each sorted and listed in sorted order."""
    g = nx.Graph()
    g.add_nodes_from(adj)
    g.add_edges_from((i, j) for i in adj for j in adj[i])
    return sorted(sorted(c) for c in nx.find_cliques(g))


def exhaustive_colour_schemes(n: int, m: int, l: int):
    """All m-row matrices of l+1 distinct monotone columns over {0..n}
    whose row-major reading sequence is weakly increasing.

    Yields each matrix as its list of columns.
    """
    width = l + 1
    for seq in itertools.combinations_with_replacement(range(n + 1), m * width):
        rows = [seq[i * width : (i + 1) * width] for i in range(m)]
        cols = [tuple(r[j] for r in rows) for j in range(width)]
        if len(set(cols)) == width:
            yield cols


def exhaustive_is_fibred(g: EmbeddedGraph) -> bool:
    """Whether some sequence of loop deletions and valence-2 contractions
    reduces the graph to a single vertex, trying every order."""
    edges = tuple(sorted((min(e.u, e.v), max(e.u, e.v)) for e in g.edges.values()))
    vertices = frozenset(g.rotation)
    memo: dict[tuple, bool] = {}

    def solve(edges: tuple, vertices: frozenset) -> bool:
        if not edges:
            return len(vertices) == 1
        key = (edges, vertices)
        if key in memo:
            return memo[key]
        memo[key] = False  # cycles cannot occur, but be safe
        deg: dict[int, int] = {}
        for u, v in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        result = False
        tried: set[tuple] = set()
        for i, (u, v) in enumerate(edges):
            rest = edges[:i] + edges[i + 1 :]
            if u == v:
                move = ("loop", rest, vertices)
            elif deg[u] == 2 or deg[v] == 2:
                a, b = (u, v) if deg[v] == 2 else (v, u)
                merged = tuple(
                    sorted(
                        (min(x, y), max(x, y))
                        for x, y in (
                            (a if p == b else p, a if q == b else q)
                            for p, q in rest
                        )
                    )
                )
                move = ("contract", merged, vertices - {b})
            else:
                continue
            if move in tried:
                continue
            tried.add(move)
            if solve(move[1], move[2]):
                result = True
                break
        memo[key] = result
        return result

    return solve(edges, vertices)


def rotation_prev(g: EmbeddedGraph, dart: Dart) -> Dart:
    rot = g.rotation[g.dart_vertex(dart)]
    return rot[(rot.index(dart) - 1) % len(rot)]


def next_in_face(g: EmbeddedGraph, h: HalfEdge) -> HalfEdge:
    """The successor of half-edge ``h`` on the face to its left.

    Arriving at the head of ``h``, the left face occupies the wedge
    whose anticlockwise-upper boundary is the arriving end, so its
    boundary leaves along the rotation predecessor of that end.
    """
    eid, direction = h
    # The arriving end is the head of h: end 1 when walking u -> v.
    arrival: Dart = (eid, 1) if direction == 0 else (eid, 0)
    return rotation_prev(g, arrival)


def dart_table_map(d: Diagram) -> EmbeddedGraph:
    """The crossing map of ``d``: a vertex for each crossing, an edge for
    each label from its first arm to its second, and each rotation in pd
    order, read through a table from each arm to its dart."""
    g = EmbeddedGraph()
    for c in d.crossings:
        g.add_vertex(c.id)
    darts: dict[tuple[int, int], Dart] = {}
    for lab in sorted(d.arms):
        (c1, p1), (c2, p2) = d.arms[lab]
        g.edges[lab] = Edge(id=lab, u=c1, v=c2)
        darts[(c1, p1)] = (lab, 0)
        darts[(c2, p2)] = (lab, 1)
    for c in d.crossings:
        g.rotation[c.id] = [darts[(c.id, pos)] for pos in range(4)]
    return g


def hand_region_graph(d: Diagram, colour: str) -> tuple[EmbeddedGraph, list[list[HalfEdge]]]:
    """The region graph of ``colour`` with its traced faces, assembled by
    hand: a vertex in each region of that colour, an edge through each
    crossing and each rotation in the region's boundary order."""
    par = d.smoothing_parity()
    if colour != "black":
        par = 1 - par
    corners = {f: d.face_corners(f) for f in d._faces_of_parity(par)}
    g = EmbeddedGraph()
    for f, cs in corners.items():
        cls = 0
        if colour == "black":
            # the region whose corners sit at index par+2 runs anticlockwise
            classes = {1 if pos == par + 2 else -1 for _, pos in cs}
            if len(classes) != 1:
                raise ValueError("black regions are not consistently oriented")
            cls = classes.pop()
        g.add_vertex(f, cls)
    for c in d.crossings:
        f_low = d.corner_face(c.id, par)
        f_high = d.corner_face(c.id, par + 2)
        if f_low == f_high:
            raise ValueError(
                f"crossing {c.id} joins a region to itself; reduce the diagram first"
            )
        if colour == "black":
            u, v = f_high, f_low  # from the +1 end
        else:
            u, v = min(f_low, f_high), max(f_low, f_high)
        g.edges[c.id] = Edge(id=c.id, u=u, v=v, crossings=(c.id,))
    for f, cs in corners.items():
        g.rotation[f] = [(cid, 0 if g.edges[cid].u == f else 1) for cid, _ in cs]
    return g, g.trace_faces()


def min_pivot_trace_faces(g: EmbeddedGraph) -> list[list[HalfEdge]]:
    """All faces, each an anticlockwise cycle of half-edges.

    Faces are rotated to start at their lexicographically least half-edge
    and the list is sorted by that key, so face indices are reproducible.
    """
    remaining: set[HalfEdge] = set()
    for eid in g.edges:
        remaining.add((eid, 0))
        remaining.add((eid, 1))
    faces: list[list[HalfEdge]] = []
    while remaining:
        h = min(remaining)
        cycle: list[HalfEdge] = []
        cur = h
        while True:
            cycle.append(cur)
            remaining.discard(cur)
            cur = next_in_face(g, cur)
            if cur == h:
                break
        pivot = cycle.index(min(cycle))
        faces.append(cycle[pivot:] + cycle[:pivot])
    faces.sort(key=lambda c: c[0])
    if g.edges:
        # Each connected component must close up spherically.  The traced
        # walks do not merge across components: a disconnected graph on
        # the sphere has E - V + 1 + C faces but E - V + 2C boundary
        # walks, one pair of walks bounding each shared face.  Components
        # with an edge are counted by merging the endpoints of every edge.
        root = {v: v for v in g.rotation if g.rotation[v]}
        for e in g.edges.values():
            a, b = e.u, e.v
            while root[a] != a:
                a = root[a]
            while root[b] != b:
                b = root[b]
            root[a] = b
        components = sum(1 for v, r in root.items() if v == r)
        expected = len(g.edges) - len(root) + 2 * components
        if len(faces) != expected:
            raise ValueError(
                f"embedding is not spherical: {len(faces)} faces, "
                f"expected {expected}"
            )
    return faces


def walk_curve_count(pairings: list, other: list) -> int:
    """The closed curves made by two perfect pairings of the same labels,
    each walked label by label."""
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


def retrace_reduce_bigons(g: EmbeddedGraph) -> EmbeddedGraph:
    """Merge parallel edges bounding bigons until none remain.

    The surviving edge of each merge keeps the lower id, and the crossing
    chains concatenate in transverse order, so the chain of the final edge
    lists its crossings from the negative side to the positive.
    """
    g = copy_graph(g)
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
        here = face_of[bigon[0]]
        if g.positive_face(keep, face_of) == here == g.negative_face(drop, face_of):
            # the bigon, and so drop, lies on keep's positive side: drop's
            # crossings come after
            ek.crossings = ek.crossings + ed.crossings
        elif g.negative_face(keep, face_of) == here == g.positive_face(drop, face_of):
            ek.crossings = ed.crossings + ek.crossings
        else:
            raise ValueError("bigon edges have incoherent sides")
        del g.edges[drop]
        g.rotation[ed.u].remove((drop, 0))
        g.rotation[ed.v].remove((drop, 1))


def _face_corners(g: EmbeddedGraph, cycle: list) -> list[tuple[int, tuple[int, int]]]:
    """Corners of a face as (vertex, dart after which an arc would insert).

    The corner between consecutive boundary half-edges sits at their common
    vertex; a new dart belongs immediately anticlockwise after the departing
    half-edge, which is itself the dart it leaves along.
    """
    return [(g.dart_vertex(h), h) for h in cycle[1:] + cycle[:1]]


def retrace_arc_candidates(
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


def retrace_augment_flype_arcs(
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
    g = copy_graph(g)
    for e in g.edges.values():
        for w in (e.u, e.v):
            if g.orientation.get(w) not in (1, -1):
                raise ValueError("vertices must carry orientation classes")
    # no arc makes a bigon, and a map without 2-gon faces has at most
    # 3V - 6 edges, so that bounds the arcs the input has room for
    room = 3 * len(g.rotation) - 6 - len(g.edges)
    while cands := retrace_arc_candidates(g):
        if room <= 0:
            raise AssertionError("augmentation added more arcs than the map holds")
        room -= 1
        if rng is not None:
            cands = cands[:]
            rng.shuffle(cands)
        (u, dart_u), (v, dart_v) = cands[0]
        g.insert_edge(Edge(max(g.edges) + 1, u, v), after_u=dart_u, after_v=dart_v)
    return g


def rescan_eliminate(rows: dict[int, dict[int, int]]) -> tuple[int, list[int]]:
    """Rank and nontrivial elementary divisors of a sparse integer matrix.

    Unit entries pivot first (choosing a sparse row, then its least-used
    column, keeps fill low); rows and columns they clear contribute
    divisor 1.  The unit-free residue is small and goes through
    ``smith_diagonal``.
    """
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    rank = 0
    while True:
        best = None
        for i, row in rows.items():
            units = [j for j, v in row.items() if v in (1, -1)]
            if not units:
                continue
            j = min(units, key=lambda j: len(cols[j]))
            key = (len(row), len(cols[j]))
            if best is None or key < best[0]:
                best = (key, i, j)
                if key == (1, 1):
                    break
        if best is None:
            break
        _, pi, pj = best
        prow = rows.pop(pi)
        sign = prow[pj]
        for i in list(cols[pj]):
            if i == pi:
                continue
            row = rows[i]
            factor = row[pj] * sign
            for j, v in prow.items():
                new = row.get(j, 0) - factor * v
                if new:
                    row[j] = new
                    cols.setdefault(j, set()).add(i)
                else:
                    row.pop(j, None)
                    cols[j].discard(i)
            if not row:
                del rows[i]
        for j in prow:
            cols[j].discard(pi)
        rank += 1
    divisors: list[int] = []
    if rows:
        live_rows = sorted(rows)
        live_cols = sorted({j for row in rows.values() for j in row})
        cindex = {j: k for k, j in enumerate(live_cols)}
        dense = [[0] * len(live_cols) for _ in live_rows]
        for a, i in enumerate(live_rows):
            for j, v in rows[i].items():
                dense[a][cindex[j]] = v
        diag = smith_diagonal(dense)
        rank += len(diag)
        divisors = [d for d in diag if d > 1]
    return rank, divisors


def all_simplices(c: SimplicialComplex) -> set[tuple[int, ...]]:
    """Every face of every maximal simplex, including the empty one."""
    out: set[tuple[int, ...]] = set()
    for s in c.maximal_simplices:
        for size in range(len(s) + 1):
            out.update(itertools.combinations(s, size))
    return out


def faces_by_dim(c: SimplicialComplex) -> list[list[tuple[int, ...]]]:
    """The non-empty faces of ``c``, one sorted list per dimension."""
    faces = all_simplices(c)
    top = max((len(f) for f in faces), default=0)
    if not top:
        raise ValueError("homology of the empty complex is not reported")
    return [sorted(f for f in faces if len(f) == k) for k in range(1, top + 1)]


def boundary(
    lower: list[tuple[int, ...]], upper: list[tuple[int, ...]]
) -> dict[int, dict[int, int]]:
    """Signed incidence of ``upper`` faces over ``lower``, as sparse rows."""
    index = {f: i for i, f in enumerate(lower)}
    rows: dict[int, dict[int, int]] = {}
    for j, f in enumerate(upper):
        for omit in range(len(f)):
            sub = f[:omit] + f[omit + 1 :]
            i = index[sub]
            row = rows.setdefault(i, {})
            row[j] = row.get(j, 0) + (-1) ** omit
            if not row[j]:
                del row[j]
    return rows


def compose(
    a: dict[int, dict[int, int]], b: dict[int, dict[int, int]]
) -> dict[int, dict[int, int]]:
    """The product of two sparse matrices, without zero entries."""
    out: dict[int, dict[int, int]] = {}
    for i, row in a.items():
        acc: dict[int, int] = {}
        for k, v in row.items():
            for j, w in b.get(k, {}).items():
                acc[j] = acc.get(j, 0) + v * w
        acc = {j: x for j, x in acc.items() if x}
        if acc:
            out[i] = acc
    return out


def matrix_homology(c: SimplicialComplex) -> dict:
    """Reduced homology with every boundary matrix eliminated on its own."""
    by_dim = faces_by_dim(c)
    f_counts = [len(fs) for fs in by_dim]
    euler = sum((-1) ** k * f_counts[k] for k in range(len(f_counts)))

    # boundaries[k] maps k-chains to (k-1)-chains; dimension -1 is the
    # augmentation by the empty simplex
    boundaries: list[dict[int, dict[int, int]]] = [
        {0: {j: 1 for j in range(f_counts[0])}}
    ]
    for k in range(1, len(by_dim)):
        boundaries.append(boundary(by_dim[k - 1], by_dim[k]))
    for k in range(1, len(boundaries)):
        if compose(boundaries[k - 1], boundaries[k]):
            raise AssertionError("the boundary of a boundary is not zero")

    results = [
        rescan_eliminate({i: dict(r) for i, r in b.items()}) for b in boundaries
    ]
    betti = []
    torsion = []
    for k in range(len(by_dim)):
        out_rank = results[k][0]
        in_rank, in_div = results[k + 1] if k + 1 < len(boundaries) else (0, [])
        betti.append(f_counts[k] - out_rank - in_rank)
        torsion.append(list(in_div))
    return {"reduced_betti": betti, "torsion": torsion, "euler_characteristic": euler}


def dominated(simplices, v) -> bool:
    """Whether some vertex other than ``v`` lies in every maximal simplex
    that holds ``v``; a vertex in no simplex is not dominated."""
    sets = {frozenset(s) for s in simplices}
    star = [s for s in sets if v in s and not any(s < t for t in sets)]
    return any(all(w in s for s in star) for w in set().union(*star) - {v})


def star_intersection_core(simplices) -> list[frozenset]:
    """The maximal simplices left once no vertex is dominated, deleting
    dominated vertices first in, first out.  ``star[v]`` holds the ids of
    the live simplices that hold v, so a simplex lies in a live one exactly
    when the stars of all of its vertices meet."""
    live: dict[int, frozenset] = {}
    star: dict[int, set[int]] = {}
    ids, nowhere = itertools.count(), set()

    def inside(s: frozenset) -> set[int]:
        stars = sorted(map(star.get, s, itertools.repeat(nowhere)), key=len)
        return set.intersection(*stars)

    def add(s: frozenset) -> None:
        live[i := next(ids)] = s
        for v in s:
            star.setdefault(v, set()).add(i)

    # larger first, dropping listed faces; one of the largest size is maximal
    listed = sorted(dict.fromkeys(map(frozenset, simplices)), key=len, reverse=True)
    for s in listed:
        if s and (len(s) == len(listed[0]) or not inside(s)):
            add(s)
    queue = deque(sorted(star))
    while queue and len(star) > 1:
        v = queue.popleft()
        mine = star.get(v)
        if not mine or not any(mine <= star[w] for w in live[min(mine)] - {v}):
            continue
        gone = [live.pop(i) for i in mine]
        del star[v]
        touched = set().union(*gone) - {v}
        for w in touched:
            star[w] -= mine
        for s in gone:
            if not inside(s := s - {v}):  # not empty: v is dominated
                add(s)
        queue.extend(sorted(touched))
    return list(live.values())


def wedge_placements(t: ThetaGraph) -> list[Placement]:
    """The placement of each component of ``t``, extracted from F(D) =
    ``t.source``, worked out one component at a time on a fresh trace.

    Wedge j of a component holds the positive face of its j-th edge and
    the negative face of its j+1-st; faces merge across every edge outside
    the component, and each merged class must hold exactly one wedge.  The
    ancestors of a component are those whose wedges separate the positive
    face of its first edge from that of the first component's first edge;
    they must form a chain, and the parent is the deepest of them.
    """
    f = t.source
    face_of = face_index(f.trace_faces())
    seat = [f.positive_face(c.edges[0].id, face_of) for c in t.components]

    def wedge_of_face(eids: list[int]) -> dict[int, int]:
        classes = merge_classes(
            sorted(set(face_of.values())),
            ((face_of[(e, 0)], face_of[(e, 1)]) for e in f.edges if e not in eids),
        )
        seeds: list[set[int]] = [set() for _ in classes]
        class_of = {face: i for i, members in enumerate(classes) for face in members}
        for j, eid in enumerate(eids):
            seeds[class_of[f.positive_face(eid, face_of)]].add(j)
            seeds[class_of[f.negative_face(eid, face_of)]].add((j - 1) % len(eids))
        assert all(len(ws) == 1 for ws in seeds), "one wedge per class"
        return {face: w for members, (w,) in zip(classes, seeds) for face in members}

    wedges = [wedge_of_face([e.id for e in c.edges]) for c in t.components]
    n = len(wedges)
    anc = [
        [j for j in range(n) if j != i and wedges[j][seat[i]] != wedges[j][seat[0]]]
        for i in range(n)
    ]
    out = []
    for i in range(n):
        assert sorted(len(anc[j]) for j in anc[i]) == list(range(len(anc[i]))), "a chain"
        if anc[i]:
            parent = max(anc[i], key=lambda j: len(anc[j]))
            out.append(Placement(parent, wedges[parent][seat[i]], wedges[i][seat[0]]))
        else:
            out.append(Placement(SPHERE, 0, wedges[i][seat[0]]))
    return out


def split_regions(t: ThetaGraph, sub: ThetaGraph) -> tuple[set, tuple[int, ...]]:
    """The region deltas of ``sub``, one side of ``t`` cut inside its
    lowest-numbered region touching two components, predicted from the
    regions of ``t``: each region lying inside the side keeps its delta,
    restricted to the side's edges, and the cut region leaves its own
    restriction.  Returns the predicted set and the cut's restriction."""
    in_side = {c.id for c in sub.components}

    def restrict(r: int) -> tuple[int, ...]:
        d = delta(t, r)
        return tuple(d[t.edge_position[eid]] for eid in sub.global_edge_order)

    met = [{cid for cid, row in t.wedges.items() if r in row} for r in range(t.region_count)]
    cut = next(r for r in range(t.region_count) if len(met[r]) >= 2)
    inside = {restrict(r) for r in range(t.region_count) if r != cut and met[r] <= in_side}
    return inside | {restrict(cut)}, restrict(cut)


def tuple_ordered_product(
    c1: SimplicialComplex, key1: list[int], c2: SimplicialComplex, key2: list[int]
) -> tuple[SimplicialComplex, frozenset]:
    """The product of ``c1`` and ``c2`` ordered by ``key1`` and ``key2``,
    with nested pairs as vertex names: the sorted pairs, one top simplex
    per pair of chains and staircase, and the componentwise order of the
    factor relations, as directed pairs, each pair looked up by name."""
    o1, o2 = key_pairs(c1, key1), key_pairs(c2, key2)
    chains1, chains2 = relation_chains(c1, o1), relation_chains(c2, o2)
    product = SimplicialComplex(
        vertices=sorted((u, v) for u in c1.vertices for v in c2.vertices),
        maximal_simplices=[],
    )
    chains2 = [[c2.vertices[i] for i in ch] for ch in chains2]
    maximal = set()
    for ch in chains1:
        chain1 = [c1.vertices[i] for i in ch]
        for chain2 in chains2:
            p, q = len(chain1) - 1, len(chain2) - 1
            for path in _staircases(p, q):
                pairs = [(chain1[a], chain2[b]) for a, b in path]
                maximal.add(tuple(sorted(product.index(x) for x in pairs)))
    product.maximal_simplices = sorted(list(s) for s in maximal)

    def leq(c, o, a, b):
        return a == b or (c.index(a), c.index(b)) in o

    order = set()
    for i, j in skeleton_edges(product):
        (u1, v1), (u2, v2) = product.vertices[i], product.vertices[j]
        forward = leq(c1, o1, u1, u2) and leq(c2, o2, v1, v2)
        backward = leq(c1, o1, u2, u1) and leq(c2, o2, v2, v1)
        if forward == backward:
            raise AssertionError("product pairs must be strictly comparable")
        order.add((i, j) if forward else (j, i))
    return product, frozenset(order)


def tuple_verify_iso(c1: SimplicialComplex, c2: SimplicialComplex, f: dict) -> bool:
    """Whether ``f`` is a vertex bijection carrying the maximal simplices of
    ``c1``, as frozensets of vertices, onto those of ``c2``."""
    if set(f) != set(c1.vertices):
        return False
    image = list(f.values())
    if len(set(image)) != len(image) or set(image) != set(c2.vertices):
        return False
    m1 = {frozenset(f[c1.vertices[i]] for i in s) for s in c1.maximal_simplices}
    m2 = {frozenset(c2.vertices[i] for i in s) for s in c2.maximal_simplices}
    n1, n2 = len(c1.maximal_simplices), len(c2.maximal_simplices)
    return m1 == m2 and len(m1) == n1 == n2


def greedy_is_fibred(g: EmbeddedGraph) -> bool:
    """Delete every loop, then contract one edge at a valence-2 vertex,
    rebuilding the edge list, until neither move applies."""
    edges: list[tuple[int, int]] = [(e.u, e.v) for e in g.edges.values()]
    vertices: set[int] = set(g.rotation)
    changed = True
    while changed:
        changed = False
        kept = []
        for u, v in edges:
            if u == v:
                changed = True  # delete loop
            else:
                kept.append((u, v))
        edges = kept
        deg: dict[int, int] = {}
        for u, v in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        target = next(
            ((u, v) for u, v in edges if deg[u] == 2 or deg[v] == 2), None
        )
        if target is not None:
            u, v = target
            if deg[v] != 2:
                u, v = v, u
            # contract this one edge, folding v into u
            edges.remove(target)
            edges = [(u if a == v else a, u if b == v else b) for a, b in edges]
            vertices.discard(v)
            changed = True
    return len(vertices) == 1 and not edges


def vertex_rank(t: ThetaGraph, v: Vertex) -> int:
    """The index of ``v`` in ``enumerate_vertices(t)``: per component, the
    compositions before it are counted part by part, and the ranks are read
    as a mixed-radix number with the last component least significant."""
    if len(v) != t.n_edges:
        raise ValueError("vertex does not match the theta graph")
    rank, at = 0, 0
    for c in t.components:
        parts = v[at : at + c.k]
        at += c.k
        m, k = c.total_weight(), c.k
        if min(parts) < 0 or sum(parts) != m:
            raise ValueError(f"{v!r} is not a vertex")
        r = 0
        for j, x in enumerate(parts[:-1]):
            left = k - 1 - j
            r += sum(comb(m - y + left - 1, left - 1) for y in range(x))
            m -= x
        rank = rank * comb(c.total_weight() + k - 1, k - 1) + r
    return rank


def argparse_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kakimizu",
        description=(
            "Seifert-surface complexes of special alternating diagrams"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, reader):
        if reader is not None:
            p.add_argument("input", help="input file, or - for stdin")
        p.add_argument("-o", "--output", default=None, help="write to file")
        p.set_defaults(reader=reader)

    p = sub.add_parser("validate", help="check a diagram document")
    common(p, parse_diagram)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("seifert", help="Seifert circles and counts")
    common(p, parse_diagram)
    p.set_defaults(handler=cmd_seifert)

    p = sub.add_parser("theta", help="diagram to theta graph")
    common(p, parse_diagram)
    p.set_defaults(handler=cmd_theta)

    p = sub.add_parser("complex", help="surface complex of a diagram or theta")
    common(p, _sniff)
    p.set_defaults(handler=cmd_complex)

    p = sub.add_parser("analyze", help="reports on the surface complex")
    common(p, _sniff)
    p.add_argument("--homology", action="store_true")
    p.add_argument("--flag-check", action="store_true")
    p.add_argument("--ball", action="store_true")
    p.add_argument("--metric", nargs=2, type=int, metavar=("U", "V"))
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("esd", help="edgewise subdivision of a simplex")
    common(p, None)
    p.add_argument("--n", type=int, required=True, help="simplex dimension")
    p.add_argument("--m", type=int, required=True, help="subdivision degree")
    p.set_defaults(handler=cmd_esd)

    p = sub.add_parser("product", help="product complex over the components")
    common(p, _sniff)
    p.set_defaults(handler=cmd_product)

    p = sub.add_parser("verify-esd", help="subdivision theorem sweep")
    common(p, None)
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--max-m", type=int, default=4)
    p.set_defaults(handler=cmd_verify_esd)

    p = sub.add_parser("verify-product", help="product theorem on one input")
    common(p, _sniff)
    p.set_defaults(handler=cmd_verify_product)

    p = sub.add_parser("fibred", help="fibredness from the white-region graph")
    common(p, parse_diagram)
    p.set_defaults(handler=cmd_fibred)

    p = sub.add_parser("surface", help="surface realization at a vertex")
    common(p, parse_diagram)
    p.add_argument("--vertex", type=int, required=True, help="vertex index")
    p.set_defaults(handler=cmd_surface)

    p = sub.add_parser("selftest", help="randomized property suites")
    common(p, None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20)
    p.set_defaults(handler=cmd_selftest)

    return parser
