"""The complex of weight vectors on a theta graph.

Vertices are the nonnegative integer weightings of the theta edges whose
per-component totals match the input weights.  Adding a region to a vertex
raises the weight by 1 on each edge the region meets only on its negative
side and lowers it on each edge met only on the positive side; this is
defined only when no weight would go negative.  A maximal simplex is the
set of vertices met by adding every region once, in some order, staying on
vertices; the region deltas sum to zero, so the walk closes.  Two vertices
are adjacent when a proper part of such a walk joins them.  The complex is
flag, so its maximal simplices are also the maximal cliques of this
neighbour graph.

Every single-region move of a complex is looked up once, in its move
table ``SimplicialComplex.moves``, as an integer add: each vertex and each
region delta is coded as one integer whose digits are the weights.  The
rooted walk of ``build_complex`` and the neighbour search of
``flag_check``, which extends the region sets of every vertex together, one
set size at a time, read that table.  What ``flag_check`` keeps independent
of the walk is the clique search: Bron-Kerbosch over the neighbour graph,
compared with the walk's simplices.

Two vertices differ by a sum of region deltas whose coefficients, the
``heights``, give the skeleton distance (Przytycki & Schultens, Trans. AMS
364, 2012), the region set of a move and, by a flow, the vertex orders.  A
vertex order is one integer key per vertex; sorting a simplex by it gives
the simplex as a chain.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import comb
from operator import mul, sub

from .generate import predicted_vertex_count
from .record import Record
from .theta import ThetaGraph

__all__ = [
    "SimplicialComplex",
    "build_complex",
    "distance",
    "enumerate_vertices",
    "flag_check",
    "heights",
    "order_vertices",
    "vertex_at",
]

Vertex = tuple[int, ...]


class SimplicialComplex(Record):
    """A finite complex given by its maximal simplices.

    ``vertices`` is canonically sorted and simplices refer to it by index.
    Complexes built from a theta graph keep the graph, whose regions derive
    vertex orders later; generic complexes leave it empty.
    """

    def __init__(self, vertices: list, maximal_simplices: list[list[int]],
                 theta: ThetaGraph | None = None):
        self.vertices = vertices
        self.maximal_simplices = maximal_simplices
        self.theta = theta

    @property
    def dim(self) -> int:
        return max(len(s) for s in self.maximal_simplices) - 1

    def is_pure(self) -> bool:
        return len({len(s) for s in self.maximal_simplices}) == 1

    @cached_property
    def _index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def moves(self) -> list[tuple[int | None, ...]]:
        """``moves[i][r]`` is the index of ``vertices[i]`` plus the delta of
        region r, or None where that point is not a vertex.

        Each weight vector v is coded as sum(v[e] * B**(n-1-e)), with B two
        more than the greatest component weight, and so is each region
        delta, so a move is one integer add and one lookup.  No point off
        the vertices takes a vertex's code: a digit of m + 1 stays below B,
        and a digit of -1 borrows, which raises the digit sum by B - 1 over
        the total weight that every move keeps.
        """
        if self.theta is None:
            raise ValueError("complex does not carry a theta graph")
        t = self.theta
        base = max((c.total_weight() for c in t.components), default=0) + 2
        place = [base**e for e in reversed(range(t.n_edges))]
        codes = [sum(map(mul, place, v)) for v in self.vertices]
        index = {x: i for i, x in enumerate(codes)}
        deltas = [0] * t.region_count
        for p, plus, minus in zip(place, *t.edge_regions()):
            deltas[plus] += p
            deltas[minus] -= p
        columns = [[index.get(x + d) for x in codes] for d in deltas]
        return list(zip(*columns)) if columns else [()] * len(self.vertices)

    def index(self, v) -> int:
        try:
            return self._index[v]
        except (KeyError, TypeError):
            raise ValueError(f"{v!r} is not a vertex") from None

    def to_json(self) -> dict:
        """The complex as JSON.  ``vertices`` and ``maximal_simplices`` are
        the complex's own lists, not copies, and vertices are tuples, which
        ``json.dumps`` writes as arrays."""
        return {
            "edge_order": list(self.theta.global_edge_order) if self.theta else [],
            "vertices": self.vertices,
            "maximal_simplices": self.maximal_simplices,
        }


# -- vertices --------------------------------------------------------------


def _compositions(total: int, parts: int):
    """All ways to write ``total`` as an ordered sum of ``parts`` >= 0, in
    lexicographic order: by stars and bars, the gaps between ``parts - 1``
    weakly increasing cuts of 0..total."""
    for cuts in itertools.combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, cuts + (total,), (0,) + cuts))


def enumerate_vertices(t: ThetaGraph) -> list[Vertex]:
    """Every vertex, sorted: a product of sorted lists of equal-length tuples."""
    vertices: list[Vertex] = [()]
    for c in t.components:
        parts = list(_compositions(c.total_weight(), c.k))
        vertices = [v + x for v in vertices for x in parts]
    if len(vertices) != predicted_vertex_count(t):
        raise AssertionError("vertex count differs from the closed form")
    return vertices


def vertex_at(t: ThetaGraph, i: int) -> Vertex:
    """``enumerate_vertices(t)[i]``, without listing the other vertices.

    The index is a mixed-radix number whose digits are the lexicographic
    ranks of the per-component compositions, the last component least
    significant.  A composition is unranked part by part: the ones with a
    smaller first part come first, C(m - x + p - 1, p - 1) of them for
    first part x, where p parts are left to share the rest of the weight m.
    """
    if not 0 <= i < predicted_vertex_count(t):
        raise ValueError(f"vertex index {i} out of range")
    parts: list[list[int]] = []
    for c in reversed(t.components):
        m, k = c.total_weight(), c.k
        i, r = divmod(i, comb(m + k - 1, k - 1))
        digits = []
        for left in range(k - 1, 0, -1):
            x = 0
            while r >= (n := comb(m - x + left - 1, left - 1)):
                r -= n
                x += 1
            digits.append(x)
            m -= x
        parts.append(digits + [m])
    return tuple(itertools.chain.from_iterable(reversed(parts)))


# -- the complex -----------------------------------------------------------


def _maximal_cliques(adj: list[set[int]]) -> list[list[int]]:
    """Every maximal clique of the graph on vertices 0..n-1 with neighbour
    sets ``adj``, by Bron-Kerbosch on its own stack, rooted at each vertex in
    index order with later neighbours as candidates and earlier ones done
    (Eppstein, Loffler & Strash, ISAAC 2010).  The pivot is a done vertex that
    sees every candidate, else a candidate with the most candidate neighbours;
    any pivot lists each clique once (Tomita, Tanaka & Takahashi, 2006)."""
    out: list[list[int]] = []
    for v, nbrs in enumerate(adj):
        done = {u for u in nbrs if u < v}
        stack = [([v], nbrs - done, done)]
        while stack:
            clique, cand, done = stack.pop()
            if not cand:
                if not done:
                    out.append(clique)
                continue
            for pivot in done:
                if cand <= adj[pivot]:
                    break  # it joins every clique below, so none is maximal
            else:
                most = -1
                for u in cand:
                    k = len(cand & adj[u])
                    if k > most:
                        most, pivot = k, u
            # a branch leaves the candidates for the done set before the
            # next one is drawn; a branch without candidates is a leaf
            for w in cand - adj[pivot]:
                near = adj[w]
                if sub := cand & near:
                    stack.append((clique + [w], sub, done & near))
                elif done.isdisjoint(near):
                    out.append(clique + [w])
                cand.remove(w)
                done.add(w)
    return out


def build_complex(t: ThetaGraph) -> SimplicialComplex:
    """All vertices, with each maximal simplex found from its definition as
    a closed walk through all regions.

    Rotating a closed walk only moves its start, so every simplex is reached
    by a walk whose first move is region 0: a depth-first search from each
    vertex through the orderings of the other regions, keeping only steps
    that land on vertices (read off the move table), finds each simplex
    once.  The search keeps its own stack, so a component with thousands of
    regions does not exhaust Python's recursion limit.  The empty graph has
    one vertex, which is its only simplex.
    """
    c = SimplicialComplex(enumerate_vertices(t), [], theta=t)
    simplices = c.maximal_simplices
    if not t.components:
        simplices.append([0])
        return c
    # every component has at least two edges, hence at least two regions
    moves = c.moves
    # walks (vertex reached, regions left, vertices so far), depth first
    rest = list(range(1, t.region_count))
    stack = [(j, rest, [i, j]) for i, row in enumerate(moves) if (j := row[0]) is not None]
    while stack:
        i, remaining, path = stack.pop()
        if len(remaining) == 1:
            simplices.append(sorted(path))
            continue
        row = moves[i]
        last = len(remaining) == 2
        for r in remaining:
            j = row[r]
            if j is None:
                continue
            if last:
                # the deltas sum to zero, so the last region closes the walk
                simplices.append(sorted(path + [j]))
            else:
                stack.append((j, [s for s in remaining if s != r], path + [j]))
    simplices.sort()
    return c


def _neighbour_sets(c: SimplicialComplex) -> list[set[int]]:
    """The neighbour graph of a theta complex: the indices each vertex
    reaches by adding a proper non-empty set of the regions one at a time,
    read off the move table one region-set size at a time.

    A level maps each region set reached, a bit mask, to the vertex it
    reaches from each start that reaches it; the next level extends every
    such group by one column of the table.  The region deltas sum to zero
    and span a space of dimension one less than their number, so distinct
    proper sets reach distinct vertices and the search costs O(deg * R)
    lookups, made a whole group at a time.
    """
    columns = list(zip(*c.moves))
    out: list[set[int]] = [set() for _ in c.vertices]
    level = {0: {i: i for i in range(len(out))}}
    for _ in range(len(columns) - 1):
        nxt: dict[int, dict[int, int]] = {}
        for used, group in level.items():
            for r, col in enumerate(columns):
                if used >> r & 1 or not (
                    reached := {s: j for s, i in group.items() if (j := col[i]) is not None}
                ):
                    continue
                if (mask := used | 1 << r) in nxt:
                    nxt[mask].update(reached)
                else:
                    nxt[mask] = reached
        level = nxt
        for group in level.values():
            for s, j in group.items():
                out[s].add(j)
    return out


def flag_check(c: SimplicialComplex) -> bool:
    """Whether the maximal simplices of a complex built from a theta graph
    are exactly the maximal cliques of its neighbour graph, as the flag
    property says; the clique search is independent of the region walk.
    The move table refuses a complex without a theta graph."""
    cliques = sorted(sorted(s) for s in _maximal_cliques(_neighbour_sets(c)))
    return cliques == sorted(sorted(s) for s in c.maximal_simplices)


# -- the region potential -------------------------------------------------


def _region_tree(t: ThetaGraph, root: int):
    """A breadth-first spanning tree of the region graph, whose edges are
    the theta edges, each joining the regions on its two sides.

    Returns the tree as (region, parent, edge position) steps away from
    ``root``, and per edge position the ids of the regions on its negative
    and on its positive side.
    """
    plus, minus = t.edge_regions()
    at: list[list[int]] = [[] for _ in range(t.region_count)]
    for i, (a, b) in enumerate(zip(plus, minus)):
        at[a].append(i)
        at[b].append(i)
    steps = [(root, root, -1)]
    seen = {root}
    for p, _, _ in steps:
        for i in at[p]:
            s = plus[i] + minus[i] - p
            if s not in seen:
                seen.add(s)
                steps.append((s, p, i))
    if len(steps) != t.region_count:
        raise AssertionError("the region graph is disconnected")
    return steps[1:], plus, minus


def heights(t: ThetaGraph, u, v) -> list[int]:
    """The region heights carrying vertex ``u`` to vertex ``v``: one integer
    per region, indexed by region id, the least 0, with
    ``v - u = sum(h[r] * delta(r))``.

    Each theta edge changes by the height of the region on its negative
    side less that of the region on its positive side.  A
    walk over the region graph from region 0 fixes the heights and every
    other edge checks them; the deltas sum to zero, so the least height
    fixes the shift.
    """
    if len(u) != t.n_edges or len(v) != t.n_edges:
        raise ValueError("vertex does not match the theta graph")
    if not t.region_count:
        return []
    steps, plus, minus = _region_tree(t, 0)
    change = list(map(sub, v, u))
    h = [0] * t.region_count
    for s, p, i in steps:
        h[s] = h[p] + change[i] if s == plus[i] else h[p] - change[i]
    if any(h[a] - h[b] != d for a, b, d in zip(plus, minus, change)):
        raise AssertionError("region heights misfit a theta edge")
    low = min(h)
    return [x - low for x in h]


def distance(c: SimplicialComplex, u, v) -> int:
    """Edge distance in the 1-skeleton: the greatest region height carrying
    ``u`` to ``v``.  Raises ValueError unless both are vertices."""
    if c.theta is None:
        raise ValueError("complex does not carry a theta graph")
    c.index(u)
    c.index(v)
    return max(heights(c.theta, u, v), default=0)


def order_vertices(c: SimplicialComplex, r: int) -> list[int]:
    """One key per vertex, ordering adjacent vertices: ``i`` comes before
    ``j`` when the region set carrying vertex i to vertex j omits region
    id ``r``.

    Key each vertex by the sum of its heights over a base vertex, with the
    height of ``r`` held at 0: a move by a region set A raises the key by
    |A| when A omits ``r`` and lowers it otherwise, so each maximal simplex
    sorted by key is a chain.  The key is linear in the weights, with the
    flow across each theta edge as its coefficient when every other region
    sends one unit to ``r`` along a spanning tree of the region graph.
    """
    if c.theta is None:
        raise ValueError("complex does not carry a theta graph")
    t = c.theta
    if not 0 <= r < t.region_count:
        raise ValueError(f"region {r} is not a region of the complex's theta graph")
    steps, plus, _ = _region_tree(t, r)
    size = [1] * t.region_count
    flow = [0] * t.n_edges
    for s, p, i in reversed(steps):
        flow[i] = size[s] if s == plus[i] else -size[s]
        size[p] += size[s]
    return [sum(map(mul, flow, v)) for v in c.vertices]
