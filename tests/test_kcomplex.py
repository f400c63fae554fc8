"""Vertex enumeration, region moves, neighbours, the region walk, cliques,
the flag check, region heights, the metric, and orders."""

import itertools
import random
import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakimizu.generate import predicted_cell_count, random_theta
from kakimizu.kcomplex import (
    SimplicialComplex,
    _compositions,
    _maximal_cliques,
    _neighbour_sets,
    build_complex,
    distance,
    enumerate_vertices,
    flag_check,
    heights,
    order_vertices,
    vertex_at,
)
from kakimizu.theta import (
    Placement,
    SPHERE,
    ThetaComponent,
    ThetaEdge,
    ThetaGraph,
    _augment_flype_arcs,
    _extract_theta,
    _reduce_bigons,
)

from conftest import run_stages
from families import dalpha_graph
from oracles import (
    adjacency,
    all_pairs_neighbours,
    bfs_distance,
    cyclic_order_maximal_simplices,
    delta,
    key_pairs,
    neighbours,
    networkx_maximal_cliques,
    order_regions,
    region_add,
    region_sets,
    skeleton_edges,
    tuple_moves,
    vertex_rank,
)

BASE = (1, 0, 2, 0, 1)

# the four weight-vector cycles through the base vertex, written as the
# delta vectors applied at each step
R_B = (-1, 1, 0, 0, 0)
R_C = (1, -1, -1, 1, 0)
R_D = (0, 0, 0, -1, 1)
R_A = (0, 0, 1, 0, -1)
CYCLES = [
    [R_A, R_B, R_C, R_D],
    [R_B, R_A, R_C, R_D],
    [R_B, R_C, R_A, R_D],
    [R_B, R_C, R_D, R_A],
]


@pytest.fixture(scope="module")
def dalpha():
    t = run_stages(dalpha_graph(), _reduce_bigons, _augment_flype_arcs, _extract_theta)
    return t, list(range(t.region_count))


@pytest.fixture(scope="module")
def dalpha_complex(dalpha):
    t, _regions = dalpha
    return build_complex(t)


def by_delta(regions, t, d):
    matches = [r for r in regions if delta(t, r) == d]
    assert len(matches) == 1
    return matches[0]


def small_theta(weights_per_comp):
    comps = []
    eid = 0
    for cid, ws in enumerate(weights_per_comp):
        edges = [ThetaEdge(eid + i, w) for i, w in enumerate(ws)]
        eid += len(ws)
        placement = (
            Placement(SPHERE, 0, 0) if cid == 0 else Placement(cid - 1, 1, 0)
        )
        comps.append(ThetaComponent(cid, edges, placement))
    return ThetaGraph(comps)


# -- vertices --------------------------------------------------------------


def test_base_vertex(dalpha):
    t, _ = dalpha
    assert t.weights() == BASE


def test_enumerate_dalpha(dalpha):
    t, _ = dalpha
    vs = enumerate_vertices(t)
    assert len(vs) == 20
    assert vs == sorted(vs)
    assert BASE in vs
    assert all(sum(v[:2]) == 1 and sum(v[2:]) == 3 for v in vs)


def test_enumerate_single_component():
    t = small_theta([(1, 0, 0)])
    assert enumerate_vertices(t) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_enumerate_empty():
    assert enumerate_vertices(ThetaGraph([])) == [()]


def test_enumerate_long_component():
    # one composition per edge; deeper than the interpreter's recursion limit
    t = small_theta([(1,) + (0,) * 1099])
    vs = enumerate_vertices(t)
    assert len(vs) == 1100
    assert vs == sorted(vs) and vs[-1] == t.weights()


def test_walk_and_clique_search_keep_their_own_stacks():
    # 60 regions and 60 pairwise adjacent vertices: the region walk and the
    # clique search each go 60 levels deep, under a limit of 40 frames more
    # than the test already uses
    t = small_theta([(1,) + (0,) * 59])
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        c = build_complex(t)
        flag = flag_check(c)
    finally:
        sys.setrecursionlimit(limit)
    assert len(c.vertices) == 60 and len(c.maximal_simplices) == 1
    assert flag


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_vertex_at_unranks_the_enumeration(seed):
    """Vertex i of the sorted enumeration is unranked without listing the
    others, and the counting rank of the oracle inverts it."""
    t = random_theta(random.Random(seed), max_components=3, max_edges=5)
    vs = enumerate_vertices(t)
    assert vs == sorted(vs)
    assert [vertex_at(t, i) for i in range(len(vs))] == vs
    assert [vertex_rank(t, v) for v in vs] == list(range(len(vs)))
    for i in (-1, len(vs)):
        with pytest.raises(ValueError, match=f"vertex index {i} out of range"):
            vertex_at(t, i)


def test_vertex_at_on_the_empty_and_a_huge_graph():
    assert vertex_at(ThetaGraph([]), 0) == ()
    # C(307, 7) vertices, far too many to list
    weights = (41, 0, 77, 3, 0, 90, 1, 88)
    t = small_theta([weights])
    assert vertex_at(t, vertex_rank(t, weights)) == weights
    assert vertex_at(t, 0) == (0,) * 7 + (300,)


@pytest.mark.parametrize("total,parts", [(0, 1), (3, 1), (0, 4), (4, 3), (5, 5)])
def test_compositions_are_every_sorted_tuple(total, parts):
    every = [
        p for p in itertools.product(range(total + 1), repeat=parts) if sum(p) == total
    ]
    assert list(_compositions(total, parts)) == every


# -- region moves ----------------------------------------------------------


def test_region_add_follows_first_cycle(dalpha):
    t, regions = dalpha
    r_a = by_delta(regions, t, R_A)
    assert region_add(BASE, r_a, t) == (1, 0, 3, 0, 0)
    assert region_add((1, 0, 3, 0, 0), r_a, t) is None


@pytest.mark.parametrize("deltas", CYCLES)
def test_displayed_cycles_return_to_base(dalpha, deltas):
    t, regions = dalpha
    current = BASE
    seen = [current]
    for d in deltas:
        current = region_add(current, by_delta(regions, t, d), t)
        assert current is not None
        seen.append(current)
    assert current == BASE
    assert len(set(seen[:-1])) == 4


def test_region_add_preserves_component_sums(dalpha):
    t, regions = dalpha
    rng = random.Random(7)
    vs = enumerate_vertices(t)
    for _ in range(100):
        v = rng.choice(vs)
        r = rng.choice(regions)
        out = region_add(v, r, t)
        if out is not None:
            assert sum(out[:2]) == 1 and sum(out[2:]) == 3
            assert out in vs


# -- neighbours ------------------------------------------------------------


def test_adjacency_two_step(dalpha):
    t, regions = dalpha
    a = adjacency(BASE, (0, 1, 3, 0, 0), t)
    assert {delta(t, r) for r in a} == {R_A, R_B}
    assert neighbours(t, BASE)[(0, 1, 3, 0, 0)] == a


def test_adjacency_rejects_far_and_equal(dalpha):
    t, regions = dalpha
    assert adjacency((1, 0, 3, 0, 0), (1, 0, 0, 3, 0), t) is None
    assert adjacency(BASE, BASE, t) is None
    assert (1, 0, 0, 3, 0) not in neighbours(t, (1, 0, 3, 0, 0))
    assert BASE not in neighbours(t, BASE)


def test_adjacency_complement_symmetry(dalpha):
    t, regions = dalpha
    vs = enumerate_vertices(t)
    rng = random.Random(3)
    found = 0
    for _ in range(200):
        u, v = rng.sample(vs, 2)
        a = adjacency(u, v, t)
        b = adjacency(v, u, t)
        assert (a is None) == (b is None)
        if a is not None:
            found += 1
            assert set(a) & set(b) == set()
            assert set(a) | set(b) == set(regions)
    assert found > 0


def test_neighbours_reject_foreign_vertex(dalpha):
    t, _ = dalpha
    with pytest.raises(ValueError):
        neighbours(t, (1, 0, 2, 0))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_neighbours_match_all_pairs_oracle(seed):
    t = random_theta(random.Random(seed), max_vertices=60, max_cells=60)
    for u, expected in all_pairs_neighbours(t).items():
        assert neighbours(t, u) == expected


def test_order_regions_greedy_follows_third_cycle(dalpha):
    t, regions = dalpha
    a = [by_delta(regions, t, d) for d in (R_B, R_C, R_A)]
    ordered = order_regions(a, BASE, t)
    assert [delta(t, r) for r in ordered] == [R_B, R_C, R_A]
    assert region_add(
        region_add(region_add(BASE, ordered[0], t), ordered[1], t), ordered[2], t
    ) == (1, 0, 2, 1, 0)


def test_order_regions_singleton(dalpha):
    t, regions = dalpha
    r_b = by_delta(regions, t, R_B)
    assert order_regions([r_b], BASE, t) == [r_b]


def test_order_regions_stuck(dalpha):
    t, regions = dalpha
    r_a = by_delta(regions, t, R_A)
    with pytest.raises(RuntimeError, match="stuck"):
        order_regions([r_a], (1, 0, 3, 0, 0), t)


# -- the complex -----------------------------------------------------------


def test_dalpha_complex_shape(dalpha_complex):
    c = dalpha_complex
    assert len(c.vertices) == 20
    assert c.dim == 3
    assert len(c.maximal_simplices) == 27
    assert c.is_pure()


def test_base_lies_in_four_simplices(dalpha_complex):
    c = dalpha_complex
    b = c.index(BASE)
    stars = [s for s in c.maximal_simplices if b in s]
    assert len(stars) == 4
    cycle_vertex_sets = []
    for deltas in CYCLES:
        current = BASE
        cycle = {current}
        for d in deltas[:-1]:
            current = tuple(x + y for x, y in zip(current, d))
            cycle.add(current)
        cycle_vertex_sets.append(sorted(c.index(v) for v in cycle))
    assert sorted(cycle_vertex_sets) == sorted(sorted(s) for s in stars)


def test_empty_theta_complex():
    c = build_complex(ThetaGraph([]))
    assert c.vertices == [()]
    assert c.maximal_simplices == [[0]]
    assert c.dim == 0


def test_two_edge_weight_two_complex():
    c = build_complex(small_theta([(1, 1)]))
    assert [tuple(v) for v in c.vertices] == [(0, 2), (1, 1), (2, 0)]
    assert sorted(c.maximal_simplices) == [[0, 1], [1, 2]]


def test_nested_pair_complex():
    c = build_complex(small_theta([(1, 1), (2, 1)]))
    assert len(c.vertices) == 3 * 4
    assert c.dim == 2
    assert c.is_pure()
    # 2 edges times 3 edges times 2 staircase shuffles
    assert len(c.maximal_simplices) == 12


def test_connected(dalpha_complex):
    g = nx.Graph()
    g.add_nodes_from(range(len(dalpha_complex.vertices)))
    g.add_edges_from(skeleton_edges(dalpha_complex))
    assert nx.is_connected(g)


@st.composite
def neighbour_sets(draw):
    """Graphs on 0-12 vertices: edgeless, complete, or each pair kept at
    random, so isolated vertices are common."""
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(n), 2))
    shape = draw(st.sampled_from(["edgeless", "complete", "random"]))
    if shape == "random":
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    else:
        keep = [shape == "complete"] * len(pairs)
    adj = {i: set() for i in range(n)}
    for (i, j), k in zip(pairs, keep):
        if k:
            adj[i].add(j)
            adj[j].add(i)
    return adj


@settings(max_examples=300, deadline=None)
@given(neighbour_sets())
def test_maximal_cliques_match_networkx(adj):
    ours = sorted(sorted(c) for c in _maximal_cliques([adj[i] for i in range(len(adj))]))
    assert ours == networkx_maximal_cliques(adj)


# -- region heights and the metric -----------------------------------------


def assert_heights_carry(t, u, v):
    h = heights(t, u, v)
    assert len(h) == t.region_count and min(h, default=0) == 0
    moved = list(u)
    for r in range(t.region_count):
        for k, d in enumerate(delta(t, r)):
            moved[k] += h[r] * d
    assert tuple(moved) == tuple(v)
    return h


def test_heights_on_dalpha(dalpha, dalpha_complex):
    t, regions = dalpha
    assert heights(t, BASE, BASE) == [0] * len(regions)
    h = assert_heights_carry(t, BASE, (0, 1, 3, 0, 0))
    assert {delta(t, r) for r in regions if h[r] == 1} == {R_A, R_B}
    for v in dalpha_complex.vertices:
        assert_heights_carry(t, BASE, v)


def test_heights_of_neighbours_are_their_region_sets(dalpha_complex):
    t = dalpha_complex.theta
    for u in dalpha_complex.vertices:
        for v, a in neighbours(t, u).items():
            h = heights(t, u, v)
            assert [r for r in range(t.region_count) if h[r]] == a
            assert max(h) == 1


def test_heights_reject_foreign_and_unrelated_vectors(dalpha):
    t, _ = dalpha
    with pytest.raises(ValueError, match="does not match"):
        heights(t, BASE, (1, 0, 2, 0))
    with pytest.raises(ValueError, match="does not match"):
        heights(t, (1, 0, 2, 0), BASE)
    # different component totals: no region sum carries one to the other
    with pytest.raises(AssertionError, match="misfit"):
        heights(t, BASE, (1, 0, 2, 0, 2))


def test_heights_on_the_empty_graph():
    assert heights(ThetaGraph([]), (), ()) == []
    c = build_complex(ThetaGraph([]))
    assert distance(c, (), ()) == 0


def test_distance_examples(dalpha_complex):
    c = dalpha_complex
    assert distance(c, BASE, (1, 0, 3, 0, 0)) == 1
    assert distance(c, BASE, BASE) == 0
    assert distance(c, (1, 0, 3, 0, 0), (0, 1, 0, 0, 3)) == bfs_distance(
        c, (1, 0, 3, 0, 0), (0, 1, 0, 0, 3)
    )


def test_distance_disconnected_generic_complex():
    c = SimplicialComplex([0, 1], [[0], [1]])
    with pytest.raises(ValueError, match="disconnected"):
        bfs_distance(c, 0, 1)


def test_distance_needs_a_theta_graph():
    c = SimplicialComplex([0, 1], [[0, 1]])
    assert bfs_distance(c, 0, 1) == 1
    with pytest.raises(ValueError, match="theta graph"):
        distance(c, 0, 1)


def test_index_and_distance_reject_non_vertices(dalpha_complex):
    c = dalpha_complex
    assert c.index(BASE) == c.vertices.index(BASE)
    for bad in [(9, 9, 9, 9, 9), (1, 0, 2, 0), [1, 0, 2, 0, 1], "base"]:
        with pytest.raises(ValueError):
            c.index(bad)
        with pytest.raises(ValueError):
            distance(c, BASE, bad)
        with pytest.raises(ValueError):
            distance(c, bad, BASE)


def test_metric_axioms(dalpha_complex):
    c = dalpha_complex
    n = len(c.vertices)
    table = [[distance(c, u, v) for v in c.vertices] for u in c.vertices]
    for i in range(n):
        assert table[i][i] == 0
        for j in range(n):
            assert table[i][j] == table[j][i]
            assert (table[i][j] == 0) == (i == j)
            for k in range(n):
                assert table[i][k] <= table[i][j] + table[j][k]


def assert_distance_matches_bfs(c):
    for u in c.vertices:
        for v in c.vertices:
            assert distance(c, u, v) == bfs_distance(c, u, v)


def test_distance_matches_bfs_on_dalpha(dalpha_complex):
    assert_distance_matches_bfs(dalpha_complex)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_distance_matches_bfs_on_random_graphs(seed):
    # one to three components, nested or side by side
    assert_distance_matches_bfs(
        build_complex(random_theta(random.Random(seed), max_vertices=60, max_cells=60))
    )


# -- the cyclic simplex rule as an oracle ----------------------------------


def cyclic_realizable(vertex_set, regions, t):
    """Is there an ordering of all regions whose successive additions start
    and end at a member of the set and pass exactly through the set?"""
    start = min(vertex_set)
    members = frozenset(vertex_set)

    def dfs(current, remaining):
        if not remaining:
            return current == start
        for r in remaining:
            nxt = region_add(current, r, t)
            if nxt is not None and nxt in members:
                if dfs(nxt, remaining - {r}):
                    return True
        return False

    return dfs(start, frozenset(regions))


def test_maximal_simplices_are_region_cycles(dalpha, dalpha_complex):
    t, regions = dalpha
    c = dalpha_complex
    for s in c.maximal_simplices:
        assert len(s) == len(regions)
        assert cyclic_realizable({c.vertices[i] for i in s}, regions, t)


def test_random_region_cycles_are_maximal_simplices(dalpha, dalpha_complex):
    t, regions = dalpha
    c = dalpha_complex
    known = {tuple(s) for s in c.maximal_simplices}
    rng = random.Random(11)
    walks = 0
    for _ in range(300):
        current = rng.choice(c.vertices)
        first = current
        remaining = list(regions)
        visited = [current]
        while remaining:
            options = [
                (r, region_add(current, r, t))
                for r in remaining
            ]
            options = [(r, n) for r, n in options if n is not None]
            if not options:
                break
            r, current = rng.choice(options)
            remaining.remove(r)
            visited.append(current)
        if remaining:
            continue
        walks += 1
        assert current == first
        distinct = set(visited[:-1])
        assert len(distinct) == len(regions)
        simplex = tuple(sorted(c.index(v) for v in distinct))
        assert simplex in known
        if walks >= 30:
            break
    assert walks >= 30


# (edge count, total weight) per component: the theta-ball and theta-build
# shapes of the benchmark
BENCH_SHAPES = [
    [(3, 6)], [(3, 10)], [(4, 3)], [(4, 4)], [(4, 5)], [(5, 2)], [(5, 3)],
    [(6, 2)], [(2, 3), (3, 2)], [(2, 4), (3, 3)], [(2, 5), (2, 5)],
    [(2, 6), (2, 6)], [(3, 2), (3, 2)], [(3, 3), (2, 2)], [(3, 4), (2, 3)],
    [(2, 4), (4, 2)], [(2, 2), (2, 2), (2, 2)], [(2, 2), (2, 3), (2, 2)],
    [(2, 3), (2, 3), (2, 3)], [(2, 5), (2, 2), (2, 4)],
    [(3, 30)], [(4, 12)], [(3, 24)], [(2, 10), (3, 8)], [(2, 20), (2, 20)],
]


def shaped_theta(rng, shape):
    """A theta graph of the given shape with seeded weights and nesting."""
    comps = []
    eid = 0
    for cid, (k, m) in enumerate(shape):
        weights = [0] * k
        for _ in range(m):
            weights[rng.randrange(k)] += 1
        edges = [ThetaEdge(eid + j, w) for j, w in enumerate(weights)]
        eid += k
        if cid == 0 or rng.random() < 0.3:
            placement = Placement(SPHERE, 0, rng.randrange(k))
        else:
            parent = rng.randrange(cid)
            parent_face = rng.randrange(shape[parent][0])
            placement = Placement(parent, parent_face, rng.randrange(k))
        comps.append(ThetaComponent(cid, edges, placement))
    return ThetaGraph(comps)


def vertex_sets(c):
    """The maximal simplices of ``c`` as sets of vertices, none repeated."""
    out = {frozenset(c.vertices[i] for i in s) for s in c.maximal_simplices}
    assert len(out) == len(c.maximal_simplices)
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_rooted_walk_matches_memoized_oracle(seed):
    t = random_theta(random.Random(seed))
    assert vertex_sets(build_complex(t)) == cyclic_order_maximal_simplices(t)


def test_rooted_walk_on_two_edges():
    # the smallest graph with edges: two regions, a walk of two moves
    t = small_theta([[1, 0]])
    expected = {frozenset({(1, 0), (0, 1)})}
    assert vertex_sets(build_complex(t)) == cyclic_order_maximal_simplices(t) == expected


def test_rooted_walk_on_the_empty_graph():
    t = ThetaGraph([])
    assert vertex_sets(build_complex(t)) == cyclic_order_maximal_simplices(t)


@pytest.mark.parametrize("shape", BENCH_SHAPES, ids=str)
def test_rooted_walk_on_benchmark_shapes(shape):
    t = shaped_theta(random.Random(str(shape)), shape)
    walk = vertex_sets(build_complex(t))
    assert walk == cyclic_order_maximal_simplices(t)
    assert len(walk) == predicted_cell_count(t)


# -- the flag check --------------------------------------------------------


def test_flag_check_passes_on_built_complexes(dalpha_complex):
    assert flag_check(dalpha_complex)
    assert flag_check(build_complex(ThetaGraph([])))
    rng = random.Random(7)
    for _ in range(20):
        assert flag_check(build_complex(random_theta(rng, max_vertices=60, max_cells=60)))


def test_flag_check_fails_on_tampered_complexes(dalpha_complex):
    c = dalpha_complex

    def tampered(simplices):
        return SimplicialComplex(c.vertices, simplices, theta=c.theta)

    first, *rest = c.maximal_simplices
    assert not flag_check(tampered(rest))
    # a proper face in place of its simplex is no maximal clique either
    assert not flag_check(tampered([first[:-1], *rest]))
    assert not flag_check(tampered([first, first, *rest]))


def test_flag_check_needs_a_theta_graph():
    c = SimplicialComplex(vertices=[(0,)], maximal_simplices=[[0]])
    with pytest.raises(ValueError, match="theta graph"):
        flag_check(c)


def neighbour_vertex_sets(c):
    return {
        c.vertices[i]: {c.vertices[j] for j in s}
        for i, s in enumerate(_neighbour_sets(c))
    }


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_flag_check_neighbours_match_all_pairs_oracle(seed):
    t = random_theta(random.Random(seed), max_vertices=60, max_cells=60)
    expected = {u: set(nbrs) for u, nbrs in all_pairs_neighbours(t).items()}
    assert neighbour_vertex_sets(build_complex(t)) == expected


def test_flag_check_neighbours_on_dalpha(dalpha, dalpha_complex):
    t, _ = dalpha
    expected = {u: set(nbrs) for u, nbrs in all_pairs_neighbours(t).items()}
    assert neighbour_vertex_sets(dalpha_complex) == expected


def region_set_oracle(c):
    moves = tuple_moves(c)
    return [region_sets(moves, i) for i in range(len(moves))]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_neighbour_sets_match_the_region_set_oracle(seed):
    """The search one region-set size at a time reaches from every vertex
    what the depth-first search of that vertex's region sets reaches."""
    t = random_theta(random.Random(seed), max_components=3, max_vertices=200, max_cells=200)
    c = SimplicialComplex(enumerate_vertices(t), [], theta=t)
    assert _neighbour_sets(c) == region_set_oracle(c)


def test_neighbour_sets_on_sixty_regions():
    # one 59-simplex: every vertex reaches each other one by one region set
    t = small_theta([(1,) + (0,) * 59])
    c = SimplicialComplex(enumerate_vertices(t), [], theta=t)
    got = _neighbour_sets(c)
    assert got == region_set_oracle(c)
    assert got == [set(range(60)) - {i} for i in range(60)]


# -- the move table --------------------------------------------------------


def assert_moves_match_region_add(c):
    """``moves[i][r]`` is the index of ``region_add(vertices[i], r)``, and
    None exactly where that is None."""
    t = c.theta
    assert len(c.moves) == len(c.vertices)
    for v, row in zip(c.vertices, c.moves):
        assert len(row) == t.region_count
        for r, j in enumerate(row):
            w = region_add(v, r, t)
            assert (j is None) == (w is None)
            if w is not None:
                assert c.vertices[j] == w


def test_moves_match_region_add_on_dalpha(dalpha_complex):
    assert_moves_match_region_add(dalpha_complex)


def test_moves_on_the_empty_graph():
    c = build_complex(ThetaGraph([]))
    assert c.moves == [()]
    assert_moves_match_region_add(c)


@pytest.mark.parametrize("shape", BENCH_SHAPES, ids=str)
def test_moves_match_region_add_on_benchmark_shapes(shape):
    assert_moves_match_region_add(build_complex(shaped_theta(random.Random(str(shape)), shape)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_moves_match_region_add_on_random_graphs(seed):
    t = random_theta(random.Random(seed), max_vertices=200, max_cells=200)
    c = build_complex(t)
    assert_moves_match_region_add(c)
    assert c.moves == tuple_moves(c)
    # a complex that only shares the vertices and graph has the same table
    assert SimplicialComplex(c.vertices, [], theta=t).moves == c.moves


def test_moves_refuse_a_borrow_beside_a_full_weight():
    """A move that takes a weight of 0 to -1 next to an edge of the full
    component weight m is where an integer code borrows from the digit of
    that edge; the table must find no vertex there."""
    m = 3
    t = small_theta([(m, 0, 0), (0, m, 0)])
    c = build_complex(t)
    assert_moves_match_region_add(c)
    borrows = [
        (i, r)
        for i, v in enumerate(c.vertices)
        for r in range(t.region_count)
        if any(
            v[e] + d == -1 and v[e - 1] == m
            for e, d in enumerate(delta(t, r))
            if e
        )
    ]
    assert borrows
    assert all(c.moves[i][r] is None for i, r in borrows)


def test_moves_need_a_theta_graph():
    c = SimplicialComplex(vertices=[(0,)], maximal_simplices=[[0]])
    with pytest.raises(ValueError, match="theta graph"):
        c.moves


# -- vertex orders ---------------------------------------------------------


@pytest.mark.parametrize("region_idx", [0, 1, 2, 3])
def test_order_axioms(dalpha, dalpha_complex, region_idx):
    t, regions = dalpha
    c = dalpha_complex
    order = key_pairs(c, order_vertices(c, regions[region_idx]))
    edges = skeleton_edges(c)
    # antisymmetric, and defined exactly once per adjacent pair
    assert all((j, i) not in order for i, j in order)
    assert {tuple(sorted(p)) for p in order} == {tuple(sorted(e)) for e in edges}
    # transitive on every 2-simplex, hence a total order on each simplex
    for s in c.maximal_simplices:
        rel = {(i, j) for i, j in order if i in s and j in s}
        for i in s:
            for j in s:
                for k in s:
                    if (i, j) in rel and (j, k) in rel:
                        assert (i, k) in rel
        chain = sorted(s, key=lambda i: sum(1 for p in rel if p[0] == i), reverse=True)
        assert all(
            (chain[a], chain[b]) in rel
            for a in range(len(chain))
            for b in range(a + 1, len(chain))
        )


def oracle_order(c, r):
    """The region-broken order from ``adjacency`` on every skeleton edge."""
    order = set()
    for i, j in skeleton_edges(c):
        a = adjacency(c.vertices[i], c.vertices[j], c.theta)
        order.add((j, i) if r in a else (i, j))
    return order


def test_order_vertices_matches_oracle(dalpha_complex):
    c = dalpha_complex
    for r in range(c.theta.region_count):
        assert key_pairs(c, order_vertices(c, r)) == oracle_order(c, r)
    rng = random.Random(11)
    for _ in range(15):
        c = build_complex(random_theta(rng, max_vertices=60, max_cells=60))
        for r in range(c.theta.region_count):
            assert key_pairs(c, order_vertices(c, r)) == oracle_order(c, r)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_order_vertices_matches_oracle_on_random_graphs(seed):
    c = build_complex(random_theta(random.Random(seed), max_vertices=60, max_cells=60))
    for r in range(c.theta.region_count):
        assert key_pairs(c, order_vertices(c, r)) == oracle_order(c, r)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_order_vertices_separates_every_simplex(seed):
    """No two vertices of a maximal simplex share a key, for any region, on
    graphs of one to three components, so sorting by key breaks no tie."""
    t = random_theta(random.Random(seed), max_components=3)
    c = build_complex(t)
    for r in range(t.region_count):
        key = order_vertices(c, r)
        assert len(key) == len(c.vertices)
        for s in c.maximal_simplices:
            assert len({key[i] for i in s}) == len(s), (r, s)


def test_order_vertices_rejects_foreign_region(dalpha_complex):
    """Region ids run from 0 to one less than the region count."""
    for c in (dalpha_complex, build_complex(ThetaGraph([]))):
        for r in (-1, c.theta.region_count):
            with pytest.raises(ValueError, match="not a region"):
                order_vertices(c, r)


def test_to_json_shape(dalpha_complex):
    doc = dalpha_complex.to_json()
    assert doc["edge_order"] == list(dalpha_complex.theta.global_edge_order)
    assert len(doc["vertices"]) == 20
    assert len(doc["maximal_simplices"]) == 27
