"""The complex of weight vectors on a theta graph.

Vertices are the nonnegative integer weightings of the theta edges whose
per-component totals match the input weights.  Adding a region to a vertex
raises the weight by 1 on each edge the region meets only on its negative
side and lowers it on each edge met only on the positive side; this is
defined only when no weight would go negative.  Two vertices are adjacent
when one is obtained from the other by adding a proper non-empty set of
regions one at a time, every intermediate vector again a vertex; the
neighbours of a vertex are found by walking those additions from it.  The
complex is flag, so its simplices are exactly the cliques of this
neighbour graph.
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
    "cyclic_order_simplices",
    "distance",
    "enumerate_vertices",
    "neighbours",
    "order_vertices",
    "ordered_by",
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
    full = (1 << len(regions)) - 1
    out: dict[Vertex, list[Region]] = {}
    seen = {0}
    stack = [(0, tuple(u))]
    while stack:
        used, v = stack.pop()
        for i, r in enumerate(regions):
            nxt = used | 1 << i
            if nxt in seen:
                continue
            w = region_add(v, r, t)
            if w is None:
                continue
            seen.add(nxt)
            if nxt != full:
                out[w] = [s for j, s in enumerate(regions) if nxt >> j & 1]
                stack.append((nxt, w))
    return out


# -- the complex -----------------------------------------------------------


def _maximal_cliques(adj: dict[int, set[int]]) -> list[list[int]]:
    """Every maximal clique of the graph, by Bron-Kerbosch with the pivot
    rule of Tomita, Tanaka & Takahashi (TCS 363, 2006)."""
    out: list[list[int]] = []

    def expand(clique: list[int], cand: set[int], done: set[int]) -> None:
        if not cand and not done:
            out.append(clique)
            return
        pivot = max(cand | done, key=lambda u: len(cand & adj[u]))
        for v in cand - adj[pivot]:
            expand(clique + [v], cand & adj[v], done & adj[v])
            cand.remove(v)
            done.add(v)

    if adj:
        expand([], set(adj), set())
    return out


def build_complex(t: ThetaGraph) -> SimplicialComplex:
    """All vertices, with maximal simplices as maximal cliques of the
    neighbour graph; the complex is flag, so this is the whole complex."""
    vertices = enumerate_vertices(t)
    index = {v: i for i, v in enumerate(vertices)}
    adj = {i: {index[w] for w in neighbours(t, v)} for i, v in enumerate(vertices)}
    simplices = sorted(sorted(c) for c in _maximal_cliques(adj))
    return SimplicialComplex(vertices=vertices, maximal_simplices=simplices, theta=t)


def cyclic_order_simplices(t: ThetaGraph) -> set[frozenset]:
    """Maximal simplices found from their definition, not from cliques.

    A set of vertices spans a maximal simplex when some ordering of all
    regions, added one at a time, walks through exactly those vertices and
    returns to its start.  Rotating a closed walk only moves its start, so
    every simplex is reached by a walk whose first move is region 0: a
    depth-first search from each vertex through the orderings of the other
    regions, keeping only steps that land on vertices, finds each simplex
    once.  The flag property says this agrees with ``build_complex``; the
    test suite compares the two.
    """
    if not t.components:
        return {frozenset({()})}
    # every component has at least two edges, hence at least two regions
    deltas = [r.delta(t) for r in t.regions]
    vset = set(enumerate_vertices(t))
    out: set[frozenset] = set()
    path: list[Vertex] = []

    def extend(v: Vertex, remaining: list[int]) -> None:
        if len(remaining) == 1:
            # the last region closes the walk back to its start
            if tuple(map(add, v, deltas[remaining[0]])) in vset:
                out.add(frozenset(path))
            return
        for r in remaining:
            w = tuple(map(add, v, deltas[r]))
            if w in vset:
                path.append(w)
                extend(w, [s for s in remaining if s != r])
                path.pop()

    rest = list(range(1, len(deltas)))
    for u in vset:
        w = tuple(map(add, u, deltas[0]))
        if w in vset:
            path[:] = [u, w]
            extend(w, rest)
    return out


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
    dropping the moves through ``r`` breaks every cycle into a line, giving
    a relation that is antisymmetric, defined exactly on adjacent pairs,
    and transitive on every simplex.
    """
    if c.theta is None:
        raise ValueError("complex does not carry a theta graph")
    return {
        (i, c.index(w))
        for i, v in enumerate(c.vertices)
        for w, a in neighbours(c.theta, v).items()
        if all(reg.id != r.id for reg in a)
    }


def ordered_by(c: SimplicialComplex, r: Region) -> SimplicialComplex:
    """Copy of ``c`` carrying the vertex order broken at region ``r``."""
    return SimplicialComplex(
        vertices=c.vertices,
        maximal_simplices=c.maximal_simplices,
        theta=c.theta,
        order=frozenset(order_vertices(c, r)),
    )
