"""Bigon reduction, arc augmentation, theta extraction, and regions."""

import io
import json
import random

import networkx as nx
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from kakimizu.diagram import _region_graph, parse_diagram, seifert
from kakimizu.generate import random_theta
from kakimizu.medial import medial
from kakimizu import theta
from kakimizu.cli import main
from kakimizu.planar import EmbeddedGraph, face_index
from kakimizu.theta import (
    Placement,
    SPHERE,
    ThetaComponent,
    ThetaEdge,
    ThetaGraph,
    _augment_flype_arcs,
    _extract_theta,
    _reduce_bigons,
    compute_regions,
    parse_theta,
    theta_pipeline,
)
from kakimizu.surfaces import realize_vertex

from conftest import FIXTURES, HUB_CHAINS, hub_graph, load_text, run_stages, wedge_sum
from families import book, cube_graph, dalpha_graph, granny_graph
from oracles import (
    delta,
    neighbours,
    owner_maps,
    retrace_augment_flype_arcs,
    retrace_reduce_bigons,
    wedge_placements,
)

# The five-edge golden example: a two-component theta with weights
# (1, 0, 2, 0, 1) and these four region delta vectors.
GOLDEN_WEIGHTS = (1, 0, 2, 0, 1)
GOLDEN_DELTAS = {
    (0, 0, 1, 0, -1),
    (-1, 1, 0, 0, 0),
    (1, -1, -1, 1, 0),
    (0, 0, 0, -1, 1),
}


def region_deltas(t):
    return [delta(t, r) for r in range(t.region_count)]


def total_weight(g):
    return sum(len(e.crossings) for e in g.edges.values())


# -- _reduce_bigons --------------------------------------------------------


def test_reduce_book3_single_edge():
    g = run_stages(book(3), _reduce_bigons)
    assert sorted(g.edge_ids()) == [0]
    assert len(g.edges[0].crossings) == 3
    assert {g.edges[0].u, g.edges[0].v} == {0, 1}


def test_reduce_book2_chain_order():
    g = book(2)
    g.edges[0].crossings = (10,)
    g.edges[1].crossings = (20,)
    r = run_stages(g, _reduce_bigons)
    # edge 1 sits on the positive side of edge 0, so its crossing comes last
    assert r.edges[0].crossings == (10, 20)
    assert len(r.edges[0].crossings) == 2


def test_reduce_orders_the_chain_by_the_bigon_side():
    """In the nugatory fixture's black graph the bigon of edges 0 and 1 has
    one face on both sides, so only the bigon itself tells the sides apart:
    it lies on edge 0's negative side, so edge 1's crossing comes first."""
    black = _region_graph(parse_diagram(load_text("nugatory.json")), "black")[0]
    face_of = face_index(black.trace_faces())
    bigon = face_of[(0, 1)]
    assert black.negative_face(0, face_of) == black.positive_face(1, face_of) == bigon
    assert black.positive_face(0, face_of) == black.negative_face(1, face_of) != bigon
    for reduced in (run_stages(black, _reduce_bigons), retrace_reduce_bigons(black)):
        assert reduced.edges[0].crossings == (1, 0)


def test_reduce_granny():
    g = run_stages(granny_graph(), _reduce_bigons)
    assert len(g.edges) == 2
    assert sorted(len(e.crossings) for e in g.edges.values()) == [3, 3]
    assert sorted(g.rotation) == [0, 1, 2]


def test_reduce_dalpha():
    g = run_stages(dalpha_graph(), _reduce_bigons)
    assert len(g.edges) == 14
    assert 2 not in g.edges
    assert len(g.edges[1].crossings) == 2
    assert all(len(e.crossings) == 1 for eid, e in g.edges.items() if eid != 1)


@pytest.mark.parametrize(
    "make", [lambda: book(2), lambda: book(5), granny_graph, dalpha_graph, cube_graph]
)
def test_reduce_preserves_weight_and_vertices(make):
    g = make()
    r = run_stages(g, _reduce_bigons)
    assert total_weight(r) == total_weight(g)
    assert sorted(r.rotation) == sorted(g.rotation)
    # no bigon survives
    assert all(
        len(c) != 2 or c[0][0] == c[1][0] for c in r.trace_faces()
    )


# -- _augment_flype_arcs ---------------------------------------------------


def test_augment_single_edge_adds_nothing():
    f = run_stages(book(3), _reduce_bigons, _augment_flype_arcs)
    assert sorted(f.edge_ids()) == [0]


def test_augment_cube_adds_nothing():
    f = run_stages(cube_graph(), _augment_flype_arcs)
    assert len(f.edges) == 12


def test_augment_dalpha_adds_two_arcs():
    f = run_stages(dalpha_graph(), _reduce_bigons, _augment_flype_arcs)
    assert len(f.edges) == 16
    arcs = [e for e in f.edges.values() if not e.crossings]
    assert len(arcs) == 2
    pairs = sorted((min(e.u, e.v), max(e.u, e.v)) for e in arcs)
    assert pairs == [(0, 1), (0, 2)]
    classes = f.parallel_classes()
    assert len(classes[(0, 1)]) == 3
    assert len(classes[(0, 2)]) == 2


def as_multigraph(g):
    m = nx.MultiGraph()
    m.add_nodes_from(g.rotation)
    for e in g.edges.values():
        m.add_edge(e.u, e.v, weight=len(e.crossings))
    return m


def test_augment_order_independent():
    base = run_stages(dalpha_graph(), _reduce_bigons)
    canonical = run_stages(base, _augment_flype_arcs)
    want = as_multigraph(canonical)
    t = run_stages(canonical, _extract_theta)
    want_regions = sorted(region_deltas(t))
    for seed in range(20):
        # shuffled candidate order, which only the retracing oracle offers
        f = retrace_augment_flype_arcs(base, random.Random(seed))
        assert nx.is_isomorphic(
            as_multigraph(f),
            want,
            edge_match=nx.isomorphism.categorical_multiedge_match("weight", -1),
        )
        t2 = run_stages(f, _extract_theta)
        assert t2.weights() == t.weights()
        assert sorted(region_deltas(t2)) == want_regions


def test_augment_requires_orientation():
    g = run_stages(book(3), _reduce_bigons)
    g.orientation = {v: 0 for v in g.rotation}
    with pytest.raises(ValueError, match="orientation"):
        run_stages(g, _augment_flype_arcs)


def test_augment_guard_fires_within_the_room_of_the_input(monkeypatch):
    base = run_stages(dalpha_graph(), _reduce_bigons)
    room = 3 * len(base.rotation) - 6 - len(base.edges)
    inserted = []
    insert = EmbeddedGraph.insert_edge

    def counting(g, edge, after_u, after_v):
        inserted.append(edge.id)
        if len(inserted) > 4 * room + 16:
            pytest.fail("the augmentation guard never fired")
        insert(g, edge, after_u, after_v)

    def stuck(g, cycle, near):
        # an arc across the first two corners of every face: it splits off
        # a bigon, and both faces offer the same again, so only the guard
        # can stop the loop
        first, second = cycle[1], cycle[2 % len(cycle)]
        return [((g.dart_vertex(first), first), (g.dart_vertex(second), second))]

    monkeypatch.setattr(EmbeddedGraph, "insert_edge", counting)
    monkeypatch.setattr(theta, "_face_arc_candidates", stuck)
    with pytest.raises(AssertionError, match="more arcs"):
        run_stages(base, _augment_flype_arcs)
    assert len(inserted) == room


def test_augmented_maps_keep_within_the_edge_bound():
    for g in [book(10), cube_graph(), dalpha_graph(), granny_graph()]:
        reduced = run_stages(g, _reduce_bigons)
        f = run_stages(reduced, _augment_flype_arcs)
        assert len(f.rotation) == len(reduced.rotation)
        assert len(f.edges) <= max(3 * len(f.rotation) - 6, len(reduced.edges))


@pytest.mark.parametrize(
    "make",
    [lambda: book(10), dalpha_graph, lambda: hub_graph(HUB_CHAINS[2])],
    ids=["book10", "dalpha", "hub"],
)
def test_pipeline_traces_once_per_stage(make, trace_calls):
    d = medial(make())
    black = _region_graph(d, "black")[0]
    reduced = run_stages(black, _reduce_bigons)
    assert len(black.edges) > len(reduced.edges)  # the reduction merges
    trace_calls.clear()
    theta_pipeline(d)
    # the black graph, the reduced map and the augmented map, whatever the
    # number of merges and arcs; the extraction reads the augmented faces
    assert len(trace_calls) == 3


# -- the local stages against the retracing oracles --------------------------


def map_state(g):
    """Everything an embedded graph holds, for exact comparison."""
    edges = {eid: vars(e) for eid, e in sorted(g.edges.items())}
    return edges, g.rotation, g.orientation


def assert_stages_match_oracles(d):
    black = _region_graph(d, "black")[0]
    reduced = retrace_reduce_bigons(black)
    before = repr(map_state(black)), repr(map_state(reduced))
    assert map_state(run_stages(black, _reduce_bigons)) == map_state(reduced)
    augmented = retrace_augment_flype_arcs(reduced)
    assert map_state(run_stages(reduced, _augment_flype_arcs)) == map_state(augmented)
    assert (repr(map_state(black)), repr(map_state(reduced))) == before  # inputs kept
    want = run_stages(augmented, _extract_theta)
    t = theta_pipeline(d)
    assert json.dumps(t.to_json()) == json.dumps(want.to_json())
    for eid in want.global_edge_order:
        assert t.source.edges[eid].crossings == want.source.edges[eid].crossings
    assert map_state(t.source) == map_state(augmented)
    if t.components:
        assert [c.placement for c in t.components] == wedge_placements(t)
        deltas = {h: delta(t, r) for h, r in t.region_of.items()}
        assert deltas == embedded_deltas(augmented, t)


@pytest.mark.parametrize(
    "name",
    sorted(p.stem for p in FIXTURES.glob("*.json") if not p.name.endswith(".theta.json")),
)
def test_stages_match_oracles_on_fixtures(name):
    assert_stages_match_oracles(parse_diagram(load_text(f"{name}.json")))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 120))
def test_stages_match_oracles_on_books(k):
    assert_stages_match_oracles(medial(book(k)))


chains = st.lists(
    st.tuples(st.integers(0, 10).map(lambda x: 2 * x + 1), st.booleans()),
    min_size=1,
    max_size=8,
).filter(lambda cs: sum(length + doubled for length, doubled in cs) >= 2)


@settings(max_examples=60, deadline=None)
@given(chains)
def test_stages_match_oracles_on_hub_medials(chains):
    assert_stages_match_oracles(medial(hub_graph(chains)))


# -- _extract_theta --------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4])
def test_extract_empty_after_full_reduction(k):
    t = run_stages(book(k), _reduce_bigons, _augment_flype_arcs, _extract_theta)
    assert t.components == []
    assert t.global_edge_order == []


def test_extract_granny_empty():
    t = run_stages(granny_graph(), _reduce_bigons, _augment_flype_arcs, _extract_theta)
    assert t.components == []


def dalpha_theta():
    return run_stages(dalpha_graph(), _reduce_bigons, _augment_flype_arcs, _extract_theta)


def test_extract_dalpha_golden():
    t = dalpha_theta()
    assert len(t.components) == 2
    c0, c1 = t.components
    ends = [t.source.edges[c.edges[0].id] for c in (c0, c1)]
    assert [sorted((e.u, e.v)) for e in ends] == [[0, 2], [0, 1]]
    assert [len(c.edges) for c in (c0, c1)] == [2, 3]
    assert t.weights() == GOLDEN_WEIGHTS
    assert c0.total_weight() == 1 and c1.total_weight() == 3
    # the two circles nest: one is placed inside a face of the other
    parents = {c.placement.parent for c in t.components}
    assert SPHERE in parents and len(parents) == 2


def test_dalpha_region_deltas_golden():
    t = dalpha_theta()
    assert t.region_count == 4
    assert set(region_deltas(t)) == GOLDEN_DELTAS


def test_extract_records_crossing_chains():
    t = dalpha_theta()
    chains = [t.source.edges[eid].crossings for eid in t.global_edge_order]
    assert sorted(len(c) for c in chains) == [0, 0, 1, 1, 2]
    seen = [cid for chain in chains for cid in chain]
    assert len(seen) == len(set(seen)) == 4


# -- regions on hand-built theta graphs ------------------------------------


def two_edge_theta():
    return ThetaGraph(
        [
            ThetaComponent(
                0,
                [ThetaEdge(0, 1), ThetaEdge(1, 1)],
                Placement(SPHERE, 0, 0),
            )
        ]
    )


def nested_theta():
    return ThetaGraph(
        [
            ThetaComponent(
                0,
                [ThetaEdge(0, 1), ThetaEdge(1, 1)],
                Placement(SPHERE, 0, 0),
            ),
            ThetaComponent(
                1,
                [ThetaEdge(2, 2), ThetaEdge(3, 1)],
                Placement(0, 1, 0),
            ),
        ]
    )


def test_regions_two_edge_component():
    t = two_edge_theta()
    assert compute_regions(t) == t.wedges == {0: [0, 1]}
    assert region_deltas(t) == [(-1, 1), (1, -1)]


def test_regions_nested_components():
    t = nested_theta()
    assert t.wedges == {0: [0, 1], 1: [1, 2]}
    assert set(region_deltas(t)) == {
        (-1, 1, 0, 0),
        (1, -1, -1, 1),
        (0, 0, 1, -1),
    }


@pytest.mark.parametrize(
    "maker",
    [two_edge_theta, nested_theta, dalpha_theta]
    + [
        # 1-3 components, on the sphere and nested
        pytest.param(lambda seed=seed: random_theta(random.Random(seed)), id=f"random{seed}")
        for seed in range(16)
    ],
)
def test_region_invariants(maker):
    t = maker()
    assert t.region_count == sum(c.k - 1 for c in t.components) + 1
    plus, minus = owner_maps(t)
    # each edge has one region on each side, the two differ, and every
    # region meets some edge
    assert set(plus) == set(minus) == set(t.global_edge_order)
    assert all(plus[e] != minus[e] for e in plus)
    assert {*plus.values(), *minus.values()} == set(range(t.region_count))
    assert all(x == 0 for x in map(sum, zip(*region_deltas(t))))


@pytest.mark.parametrize(
    "maker", [two_edge_theta, nested_theta, dalpha_theta]
)
def test_graph_owns_its_regions(maker):
    t = maker()
    assert t.wedges == compute_regions(t)


@pytest.mark.parametrize(
    "maker", [two_edge_theta, nested_theta, dalpha_theta]
)
def test_owner_maps(maker):
    """The owner maps, read off the wedges edge by edge, agree with the
    per-edge region lists that the library derives."""
    t = maker()
    plus_owner, minus_owner = owner_maps(t)
    plus, minus = t.edge_regions()
    assert [plus_owner[e] for e in t.global_edge_order] == plus
    assert [minus_owner[e] for e in t.global_edge_order] == minus


def embedded_deltas(f, t):
    """The signed boundary of the region on the left of every half-edge of
    F(D), read directly off its embedding: faces merge across every edge
    that is not a theta edge."""
    face_of = face_index(f.trace_faces())
    theta_edges = set(t.global_edge_order)
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for eid in f.edges:
        if eid not in theta_edges:
            a, b = find(face_of[(eid, 0)]), find(face_of[(eid, 1)])
            if a != b:
                parent[max(a, b)] = min(a, b)
    groups = {}
    for face in set(face_of.values()):
        groups.setdefault(find(face), set()).add(face)
    delta_of = {}
    for root, faces in groups.items():
        vec = []
        for eid in t.global_edge_order:
            pos = f.positive_face(eid, face_of) in faces
            neg = f.negative_face(eid, face_of) in faces
            vec.append(1 if neg and not pos else (-1 if pos and not neg else 0))
        delta_of[root] = tuple(vec)
    return {h: delta_of[find(face)] for h, face in face_of.items()}


def test_regions_match_embedding():
    t = dalpha_theta()
    deltas = embedded_deltas(t.source, t)
    assert {h: delta(t, r) for h, r in t.region_of.items()} == deltas
    assert sorted(region_deltas(t)) == sorted(set(deltas.values()))


def test_pipeline_merges_faces_once(monkeypatch):
    """Extraction merges the faces of F(D) into regions once for all
    components, and ``compute_regions`` merges the local faces once."""
    calls = []
    merge = theta.merge_classes

    def counting(items, pairs):
        calls.append(len(items))
        return merge(items, pairs)

    monkeypatch.setattr(theta, "merge_classes", counting)
    t = theta_pipeline(medial(dalpha_graph()))
    assert len(t.components) == 2
    assert len(calls) == 2


def test_extraction_checks_faces_against_regions(monkeypatch):
    """A face merge that splits one region in two no longer matches the
    regions of the theta graph, and extraction refuses it."""
    merge = theta.merge_classes
    calls = []

    def splitting(items, pairs):
        classes = merge(items, pairs)
        if not calls:
            big = max(classes, key=len)
            classes.append({max(big)})
            big.discard(max(big))
        calls.append(classes)
        return classes

    monkeypatch.setattr(theta, "merge_classes", splitting)
    with pytest.raises(ValueError, match="do not form the regions"):
        theta_pipeline(medial(dalpha_graph()))
    assert len(calls) == 2  # the face merge, then compute_regions


def test_place_gives_each_class_one_region():
    """Placing needs each class in exactly one region: a class on two
    wedges of one component, or on a cycle of components and classes, is
    refused."""
    edges = {0: [ThetaEdge(0, 1), ThetaEdge(1, 0), ThetaEdge(2, 0)]}
    t, region = theta._place(edges, {0: ["a", "b", "c"]}, "b")
    assert t.components[0].placement == Placement(SPHERE, 0, 1)
    assert [region[x] for x in "abc"] == [0, 1, 2] and t.wedges == {0: [0, 1, 2]}
    with pytest.raises(ValueError, match="do not form the regions"):
        theta._place(edges, {0: ["a", "b", "a"]}, "a")
    ring = {0: ["a", "b"], 1: ["b", "c"], 2: ["c", "a"]}
    with pytest.raises(ValueError, match="do not form the regions"):
        theta._place({c: [ThetaEdge(2 * c, 1), ThetaEdge(2 * c + 1, 0)] for c in ring},
                     ring, "a")


def test_extraction_checks_every_component_is_placed(monkeypatch):
    """A walk that misses a component leaves the faces unmatched."""
    walk = theta._walk_placements

    def missing_last(wedges, start):
        placement = walk(wedges, start)
        del placement[max(placement)]
        return placement

    monkeypatch.setattr(theta, "_walk_placements", missing_last)
    with pytest.raises(ValueError, match="do not form the regions"):
        theta_pipeline(medial(dalpha_graph()))


GLUED = [*(lambda c=c: hub_graph(c) for c in HUB_CHAINS), dalpha_graph, cube_graph]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(GLUED), min_size=2, max_size=3), st.integers(0, 2**32 - 1))
def test_wedge_sums_nest_components(makers, seed):
    """Wedge sums of the hub graphs, dalpha and the cube nest theta
    components inside one another: the placements are the per-component
    oracle's, every half-edge's region has the signed boundary read off the
    embedding, and every vertex at distance 1 from the base realizes a
    surface of the Seifert surface's Euler characteristic."""
    rng = random.Random(seed)
    g = makers[0]()
    for make in makers[1:]:
        g = wedge_sum(g, make(), rng)
    d = medial(g)
    t = theta_pipeline(d)
    assert len(t.components) >= 2
    assert [c.placement for c in t.components] == wedge_placements(t)
    deltas = {h: delta(t, r) for h, r in t.region_of.items()}
    assert deltas == embedded_deltas(t.source, t)
    s, u = seifert(d)["s"], t.weights()
    for v in [u, *neighbours(t, u)]:
        assert realize_vertex(d, t, v)["euler_characteristic"] == s - d.n


def wedge_sum_medial(seed):
    rng = random.Random(seed)
    g = rng.choice(GLUED)()
    for make in rng.sample(GLUED, 2):
        g = wedge_sum(g, make(), rng)
    return medial(g)


CLASSED = {
    **{
        f"fixture-{p.stem}": lambda p=p: parse_diagram(p.read_text())
        for p in FIXTURES.glob("*.json")
        if not p.name.endswith(".theta.json")
    },
    **{f"hub-{i}": lambda c=c: medial(hub_graph(c)) for i, c in enumerate(HUB_CHAINS)},
    **{f"wedge-sum-{seed}": lambda seed=seed: wedge_sum_medial(seed) for seed in range(5)},
}


@pytest.mark.parametrize("name", sorted(CLASSED))
def test_stage_edges_join_opposite_classes(name):
    """Every edge of the black-region graph, of its bigon reduction and
    of F(D) joins a +1 and a -1 vertex, which the positive side read from
    the +1 end rests on."""
    g, faces = _region_graph(CLASSED[name](), "black")
    for stage in (_reduce_bigons, _augment_flype_arcs, None):
        for e in g.edges.values():
            assert sorted((g.orientation[e.u], g.orientation[e.v])) == [-1, 1]
        if stage is not None:
            g, faces = stage(g, faces)


# -- serialization ---------------------------------------------------------


def test_theta_roundtrip():
    t = dalpha_theta()
    doc = json.dumps(t.to_json())
    again = parse_theta(doc)
    assert again.to_json() == t.to_json()
    assert again.weights() == t.weights()
    assert set(region_deltas(again)) == GOLDEN_DELTAS


def test_parse_rejects_weightless_component():
    doc = {
        "components": [
            {
                "id": 0,
                "edges": [{"id": 0, "weight": 0}, {"id": 1, "weight": 0}],
                "placement": {"parent": "sphere", "parent_face": 0, "outer_face": 0},
            }
        ]
    }
    with pytest.raises(ValueError, match="weightless theta component"):
        parse_theta(json.dumps(doc))


def test_parse_rejects_single_edge_component():
    doc = {
        "components": [
            {
                "id": 0,
                "edges": [{"id": 0, "weight": 3}],
                "placement": {"parent": "sphere", "parent_face": 0, "outer_face": 0},
            }
        ]
    }
    with pytest.raises(ValueError, match="at least 2 edges"):
        parse_theta(json.dumps(doc))


def comp_doc(cid, parent, parent_face=0, outer_face=0, eids=(0, 1)):
    return {
        "id": cid,
        "edges": [{"id": e, "weight": 1} for e in eids],
        "placement": {
            "parent": parent,
            "parent_face": parent_face,
            "outer_face": outer_face,
        },
    }


# component 0 on the sphere, components 1 and 2 each other's parent
CYCLE_BESIDE_SPHERE = {
    "components": [
        comp_doc(0, "sphere"),
        comp_doc(1, 2, outer_face=1, eids=(2, 3)),
        comp_doc(2, 1, outer_face=1, eids=(4, 5)),
    ]
}


def test_parse_rejects_bad_placement():
    with pytest.raises(ValueError, match="unknown parent"):
        parse_theta(json.dumps({"components": [comp_doc(0, 7)]}))
    with pytest.raises(ValueError, match="outer_face out of range"):
        parse_theta(json.dumps({"components": [comp_doc(0, "sphere", outer_face=2)]}))
    with pytest.raises(ValueError, match="cycle"):
        parse_theta(
            json.dumps(
                {
                    "components": [
                        comp_doc(0, 1),
                        comp_doc(1, 0, eids=(2, 3)),
                    ]
                }
            )
        )
    with pytest.raises(ValueError, match="duplicate edge id"):
        parse_theta(
            json.dumps(
                {"components": [comp_doc(0, "sphere"), comp_doc(1, "sphere")]}
            )
        )
    # beside a sphere component the region count alone would not see the
    # cycle: only the walk down from the sphere refuses it
    with pytest.raises(ValueError, match="^placement contains a cycle$"):
        parse_theta(json.dumps(CYCLE_BESIDE_SPHERE))
    with pytest.raises(ValueError, match="component 1: is its own parent"):
        parse_theta(
            json.dumps({"components": [comp_doc(0, "sphere"), comp_doc(1, 1, eids=(2, 3))]})
        )
    with pytest.raises(ValueError, match="component 1: parent_face out of range"):
        parse_theta(
            json.dumps(
                {"components": [comp_doc(0, "sphere"), comp_doc(1, 0, 2, eids=(2, 3))]}
            )
        )
    # the sphere has one face, so a component on it names face 0
    with pytest.raises(ValueError, match="component 0: parent_face out of range"):
        parse_theta(json.dumps({"components": [comp_doc(0, "sphere", 1)]}))
    negative = comp_doc(0, "sphere")
    negative["edges"][1]["weight"] = -1
    with pytest.raises(ValueError, match="edge 1: negative weight"):
        parse_theta(json.dumps({"components": [negative]}))
    with pytest.raises(ValueError, match="duplicate component ids"):
        parse_theta(
            json.dumps(
                {"components": [comp_doc(0, "sphere"), comp_doc(0, "sphere", eids=(2, 3))]}
            )
        )


def test_cli_refuses_a_cycle_of_parents(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(CYCLE_BESIDE_SPHERE)))
    assert main(["complex", "-"]) == 1
    expected = {"error": "placement contains a cycle"}
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def test_cli_refuses_a_sphere_parent_face(capsys, monkeypatch):
    doc = {"components": [comp_doc(0, "sphere", 1)]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["complex", "-"]) == 1
    expected = {"error": "component 0: parent_face out of range"}
    assert json.loads(capsys.readouterr().out) == expected


def test_parse_rejects_malformed():
    with pytest.raises(ValueError, match="malformed"):
        parse_theta("{not json")
    with pytest.raises(ValueError, match="malformed"):
        parse_theta('{"wrong": []}')
    with pytest.raises(ValueError, match="malformed"):
        parse_theta('{"components": [{"id": 0}]}')
    # JSON integers only: a float weight is not truncated, a bool is not 1
    for path, value in [
        (("id",), True),
        (("edges", 0, "id"), 0.0),
        (("edges", 0, "weight"), 1.5),
        (("edges", 0, "weight"), True),
        (("placement", "parent_face"), None),
        (("placement", "outer_face"), "0"),
    ]:
        rec = comp_doc(0, "sphere")
        *outer, last = path
        target = rec
        for key in outer:
            target = target[key]
        target[last] = value
        with pytest.raises(ValueError, match="integer"):
            parse_theta(json.dumps({"components": [rec]}))
    nested = {"components": [comp_doc(0, "sphere"), comp_doc(1, 0.0, eids=(2, 3))]}
    with pytest.raises(ValueError, match="integer"):
        parse_theta(json.dumps(nested))
