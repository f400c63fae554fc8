"""Independent oracles used by several test modules.

The fibredness oracle tries every reduction order instead of trusting the
greedy pass; networkx's clique search checks the library's own; the
cyclic-order simplex enumeration (a second route to the maximal simplices,
independent of clique search) lives in ``kakimizu.kcomplex`` and is
re-exported here for the tests that compare it against ``build_complex``.
"""

from __future__ import annotations

import networkx as nx

from kakimizu.kcomplex import cyclic_order_simplices as cyclic_order_maximal_simplices
from kakimizu.planar import EmbeddedGraph

__all__ = [
    "cyclic_order_maximal_simplices",
    "exhaustive_is_fibred",
    "networkx_maximal_cliques",
]


def networkx_maximal_cliques(adj: dict[int, set[int]]) -> list[list[int]]:
    """Maximal cliques of a graph given by neighbour sets, found by
    ``networkx.find_cliques``, each sorted and listed in sorted order."""
    g = nx.Graph()
    g.add_nodes_from(adj)
    g.add_edges_from((i, j) for i in adj for j in adj[i])
    return sorted(sorted(c) for c in nx.find_cliques(g))


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
