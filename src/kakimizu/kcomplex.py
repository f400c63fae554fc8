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
table ``SimplicialComplex.moves``.  The rooted walk of ``build_complex``,
the per-simplex lines of ``order_vertices`` and the neighbour search of
``flag_check`` all read that table instead of adding tuples; ``neighbours``
runs the same region-set search over ``region_add``.  What ``flag_check``
keeps independent of the walk is the clique search: Bron-Kerbosch over the
neighbour graph, compared with the walk's simplices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import add

from .generate import predicted_vertex_count
from .theta import Region, ThetaGraph

__all__ = [
    "SimplicialComplex",
    "base_vertex",
    "build_complex",
    "distance",
    "enumerate_vertices",
    "flag_check",
    "neighbours",
    "order_vertices",
    "region_add",
]

Vertex = tuple[int, ...]


@dataclass
class SimplicialComplex:
    """A finite complex given by its maximal simplices.

    ``vertices`` is canonically sorted and simplices refer to it by index.
    Complexes built from a theta graph keep the graph, whose regions derive
    vertex orders later; generic complexes leave it empty.
    """

    vertices: list
    maximal_simplices: list[list[int]]
    theta: ThetaGraph | None = None
    # optional vertex order (set of directed index pairs), e.g. from
    # order_vertices; products of ordered complexes need it
    order: frozenset | None = None

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
        region r, or None where that point is not a vertex."""
        if self.theta is None:
            raise ValueError("complex does not carry a theta graph")
        index = self._index
        columns = [
            [index.get(tuple(map(add, v, d))) for v in self.vertices]
            for d in (r.delta(self.theta) for r in self.theta.regions)
        ]
        return list(zip(*columns)) if columns else [()] * len(self.vertices)

    def index(self, v) -> int:
        try:
            return self._index[v]
        except (KeyError, TypeError):
            raise ValueError(f"{v!r} is not a vertex") from None

    def skeleton_edges(self) -> set[tuple[int, int]]:
        out: set[tuple[int, int]] = set()
        for s in self.maximal_simplices:
            out.update(itertools.combinations(s, 2))
        return out

    def to_json(self) -> dict:
        return {
            "edge_order": list(self.theta.global_edge_order) if self.theta else [],
            "vertices": [list(v) for v in self.vertices],
            "maximal_simplices": [list(s) for s in self.maximal_simplices],
        }


# -- vertices --------------------------------------------------------------


def base_vertex(t: ThetaGraph) -> Vertex:
    return t.weights()


def _compositions(total: int, parts: int):
    """All ways to write ``total`` as an ordered sum of ``parts`` >= 0."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_vertices(t: ThetaGraph) -> list[Vertex]:
    per_comp = [
        sorted(_compositions(c.total_weight(), c.k)) for c in t.components
    ]
    vertices = sorted(
        tuple(itertools.chain.from_iterable(choice))
        for choice in itertools.product(*per_comp)
    )
    if len(vertices) != predicted_vertex_count(t):
        raise AssertionError("vertex count differs from the closed form")
    return vertices


# -- region moves ----------------------------------------------------------


def region_add(v: Vertex, r: Region, t: ThetaGraph) -> Vertex | None:
    """``v`` shifted by the region's delta, or None where undefined."""
    out = list(v)
    for eid in r.boundary_minus:
        i = t.edge_position[eid]
        if out[i] == 0:
            return None
        out[i] -= 1
    for eid in r.boundary_plus:
        out[t.edge_position[eid]] += 1
    return tuple(out)


def _region_sets(start, step, n: int) -> dict:
    """Every point reached from ``start`` by adding a proper non-empty set of
    the ``n`` regions one at a time, mapped to that set as a bit mask.

    ``step(p)`` lists, region by region, the point one move from ``p``, or
    None where the move leaves the vertices.  The search visits each region
    set at most once.
    """
    full = (1 << n) - 1
    out = {}
    seen = {0}
    stack = [(0, start)]
    while stack:
        used, p = stack.pop()
        bit = 1
        for q in step(p):
            if q is not None:
                nxt = used | bit
                if nxt not in seen:
                    seen.add(nxt)
                    if nxt != full:
                        out[q] = nxt
                        stack.append((nxt, q))
            bit <<= 1
    return out


def neighbours(t: ThetaGraph, u: Vertex) -> dict[Vertex, list[Region]]:
    """Every vertex adjacent to ``u``, mapped to the regions carrying ``u``
    to it.

    A depth-first walk adds one region at a time, staying on vertices, and
    visits each region set at most once.  The region deltas sum to zero and
    span a space of dimension one less than their number, so distinct
    proper non-empty sets reach distinct vertices and the walk costs
    O(deg(u) * R) additions.
    """
    if len(u) != t.n_edges:
        raise ValueError("vertex does not match the theta graph")
    regions = t.regions
    reached = _region_sets(
        tuple(u), lambda v: [region_add(v, r, t) for r in regions], len(regions)
    )
    return {
        w: [r for j, r in enumerate(regions) if used >> j & 1]
        for w, used in reached.items()
    }


# -- the complex -----------------------------------------------------------


def _maximal_cliques(adj: list[set[int]]) -> list[list[int]]:
    """Every maximal clique of the graph on vertices 0..n-1 with neighbour
    sets ``adj``, by Bron-Kerbosch with the pivot rule of Tomita, Tanaka &
    Takahashi (TCS 363, 2006), rooted at each vertex in index order with its
    later neighbours as candidates and its earlier ones as done (Eppstein,
    Loffler & Strash, ISAAC 2010)."""
    out: list[list[int]] = []

    def expand(clique: list[int], cand: set[int], done: set[int]) -> None:
        if not cand:
            if not done:
                out.append(clique)
            return
        most = -1
        for u in cand | done:
            k = len(cand & adj[u])
            if k > most:
                most, pivot = k, u
        for v in cand - adj[pivot]:
            expand(clique + [v], cand & adj[v], done & adj[v])
            cand.remove(v)
            done.add(v)

    for v, nbrs in enumerate(adj):
        done = {u for u in nbrs if u < v}
        expand([v], nbrs - done, done)
    return out


def build_complex(t: ThetaGraph) -> SimplicialComplex:
    """All vertices, with each maximal simplex found from its definition as
    a closed walk through all regions.

    Rotating a closed walk only moves its start, so every simplex is reached
    by a walk whose first move is region 0: a depth-first search from each
    vertex through the orderings of the other regions, keeping only steps
    that land on vertices (read off the move table), finds each simplex
    once.  The empty graph has
    one vertex, which is its only simplex.
    """
    c = SimplicialComplex(enumerate_vertices(t), [], theta=t)
    simplices = c.maximal_simplices
    if not t.components:
        simplices.append([0])
        return c
    # every component has at least two edges, hence at least two regions
    moves = c.moves
    path: list[int] = []

    def extend(i: int, remaining: list[int]) -> None:
        if len(remaining) == 1:
            # the deltas sum to zero, so the last region closes the walk
            simplices.append(sorted(path))
            return
        row = moves[i]
        for r in remaining:
            j = row[r]
            if j is not None:
                path.append(j)
                extend(j, [s for s in remaining if s != r])
                path.pop()

    rest = list(range(1, len(t.regions)))
    for i, row in enumerate(moves):
        j = row[0]
        if j is not None:
            path[:] = [i, j]
            extend(j, rest)
    simplices.sort()
    return c


def _neighbour_sets(c: SimplicialComplex) -> list[set[int]]:
    """The neighbour graph of a theta complex: the indices adjacent to each
    vertex, by the region-set search over the move table."""
    step = c.moves.__getitem__
    n = len(c.theta.regions)
    return [set(_region_sets(i, step, n)) for i in range(len(c.vertices))]


def flag_check(c: SimplicialComplex) -> bool:
    """Whether the maximal simplices of a complex built from a theta graph
    are exactly the maximal cliques of its neighbour graph, as the flag
    property says; the clique search is independent of the region walk."""
    if c.theta is None:
        raise ValueError("complex does not carry a theta graph")
    cliques = sorted(sorted(s) for s in _maximal_cliques(_neighbour_sets(c)))
    return cliques == sorted(sorted(s) for s in c.maximal_simplices)


def distance(c: SimplicialComplex, u, v) -> int:
    """Edge distance in the 1-skeleton, by breadth-first search."""
    adj: dict[int, set[int]] = {i: set() for i in range(len(c.vertices))}
    for i, j in c.skeleton_edges():
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


def order_vertices(c: SimplicialComplex, r: Region) -> set[tuple[int, int]]:
    """Orient each edge: ``i`` comes before ``j`` when the region set
    carrying vertex i to vertex j omits ``r``.

    Within a simplex the vertices sit on a cycle of single-region moves;
    dropping the move through ``r`` breaks every cycle into a line, giving
    a relation that is antisymmetric, defined exactly on adjacent pairs,
    and transitive on every simplex.  Each move lands on the only vertex of
    the simplex that its region reaches, so the lines are read off the
    maximal simplices.
    """
    if c.theta is None:
        raise ValueError("complex does not carry a theta graph")
    deltas = [reg.delta(c.theta) for reg in c.theta.regions]
    try:
        cut = deltas.index(r.delta(c.theta))
    except ValueError:
        raise ValueError(
            f"region {r.id} is not a region of the complex's theta graph"
        ) from None
    moves = c.moves
    out: set[tuple[int, int]] = set()
    for s in c.maximal_simplices:
        members = set(s)
        # each vertex -> the one vertex of the simplex a region moves it to
        step = {}
        for i in s:
            for k, j in enumerate(moves[i]):
                if j in members:
                    step[i] = j
                    if k == cut:
                        first = j
        line = [first]
        while len(line) < len(s):
            line.append(step[line[-1]])
        out.update(itertools.combinations(line, 2))
    return out
