"""Flype circles, P-arc configurations, and the Euler-count identity."""

import json
import random
from itertools import combinations

import pytest

from conftest import FIXTURES, HUB_CHAINS, hub_graph
from families import book, dalpha_graph
from kakimizu.diagram import parse_diagram, seifert
from kakimizu.generate import random_theta
from kakimizu.kcomplex import build_complex
from kakimizu.medial import medial
from kakimizu.surfaces import flype_set_for_edge, p_arcs, realize_vertex, trace_curves
from kakimizu.theta import parse_theta, theta_pipeline

from oracles import delta, neighbours, skeleton_edges


def pipeline(graph):
    d = medial(graph)
    t = theta_pipeline(d)
    return d, t


@pytest.fixture(scope="module")
def hopf():
    return pipeline(book(2))


@pytest.fixture(scope="module")
def trefoil():
    return pipeline(book(3))


@pytest.fixture(scope="module")
def dalpha():
    return pipeline(dalpha_graph())


def empty_set(t):
    return flype_set_for_edge(t, t.weights(), set())


# -- the base configuration -------------------------------------------------


@pytest.mark.parametrize("maker", [book(2), book(3), book(4)])
def test_base_configuration_counts_seifert_circles(maker):
    d, t = pipeline(maker)
    s = seifert(d)["s"]
    config = p_arcs(d, t, empty_set(t))
    assert len(config["arcs"]) == d.n
    n_a, n_b = trace_curves(d, config["arcs"])
    assert n_a + n_b == s
    assert set(config["crossing_sides"].values()) == {"negative"}


def test_base_configuration_dalpha(dalpha):
    d, t = dalpha
    s = seifert(d)["s"]
    config = p_arcs(d, t, empty_set(t))
    n_a, n_b = trace_curves(d, config["arcs"])
    assert n_a + n_b == s
    assert set(config["crossing_sides"].values()) == {"negative"}


# -- flype sets -------------------------------------------------------------


def region_by_delta(t, d):
    for r in range(t.region_count):
        if delta(t, r) == d:
            return r
    raise AssertionError(f"no region with delta {d}")


def test_flype_set_single_circle(dalpha):
    d, t = dalpha
    u = t.weights()
    r_a = region_by_delta(t, (0, 0, 1, 0, -1))
    fs = flype_set_for_edge(t, u, {r_a})
    order = t.global_edge_order
    # the -1 edge of r_a loses a crossing, which its +1 edge gains
    assert fs["circles"] == [
        {"component": 1, "crossing_edge": order[4], "arc_edge": order[2]}
    ]
    assert fs["regions"] == fs["positive_side_regions"] == [r_a]
    assert len(fs["negative_side_regions"]) == 3


def test_flype_set_two_circles(dalpha):
    d, t = dalpha
    u = t.weights()
    r_a = region_by_delta(t, (0, 0, 1, 0, -1))
    r_b = region_by_delta(t, (-1, 1, 0, 0, 0))
    fs = flype_set_for_edge(t, u, {r_a, r_b})
    assert len(fs["circles"]) == 2
    assert {c["component"] for c in fs["circles"]} == {c.id for c in t.components}


def test_flype_set_requires_movable_crossing(dalpha):
    d, t = dalpha
    u = t.weights()
    # this region subtracts from a weight-0 edge at the base vertex
    r_c = region_by_delta(t, (1, -1, -1, 1, 0))
    with pytest.raises(ValueError, match="no crossing to move"):
        flype_set_for_edge(t, u, {r_c})


def test_flype_set_json(dalpha):
    d, t = dalpha
    u = t.weights()
    r_a = region_by_delta(t, (0, 0, 1, 0, -1))
    doc = flype_set_for_edge(t, u, {r_a})
    assert json.loads(json.dumps(doc)) == doc
    assert doc["base"] == list(u)
    assert sorted(doc["labels"], key=int) == [str(eid) for eid in sorted(t.global_edge_order)]
    assert set(doc["circles"][0]) == {"component", "crossing_edge", "arc_edge"}


def test_p_arcs_needs_the_source_faces(dalpha):
    d, t = dalpha
    r_a = region_by_delta(t, (0, 0, 1, 0, -1))
    fs = flype_set_for_edge(t, t.weights(), {r_a})
    parsed = parse_theta(json.dumps(t.to_json()))
    assert parsed.region_of is None
    for flypes in (fs, empty_set(parsed)):
        with pytest.raises(ValueError, match="source graph"):
            p_arcs(d, parsed, flypes)


@pytest.mark.parametrize("seed", [None, *range(30)])
def test_labels_telescope_and_alternate(dalpha, seed):
    """The labels of a region set A, on dalpha's theta graph (seed None)
    or a seeded random one of 1-3 components, are the sum of the deltas of
    its regions; round each component their nonzero values alternate, and
    there is one circle per -1 label.  Every region set is tried, or 50
    seeded ones when there are more than 6 regions."""
    t = dalpha[1] if seed is None else random_theta(random.Random(seed))
    ids = list(range(t.region_count))
    if len(ids) <= 6:
        subsets = [set(a) for k in range(1, len(ids) + 1) for a in combinations(ids, k)]
    else:
        rng = random.Random(seed)
        subsets = [set(rng.sample(ids, rng.randint(1, len(ids)))) for _ in range(50)]
    # every edge has a crossing to move, so no region set is refused
    u = (1,) * t.n_edges
    for a in subsets:
        fs = flype_set_for_edge(t, u, a)
        summed = [sum(col) for col in zip(*(delta(t, r) for r in a))]
        labels = [fs["labels"][str(eid)] for eid in t.global_edge_order]
        assert labels == summed
        assert set(labels) <= {-1, 0, 1}
        for comp in t.components:
            nonzero = [fs["labels"][str(e.id)] for e in comp.edges if fs["labels"][str(e.id)]]
            assert all(x == -y for x, y in zip(nonzero, nonzero[1:] + nonzero[:1]))
        assert len(fs["circles"]) == labels.count(-1)


# -- realizations -----------------------------------------------------------


def test_all_neighbor_realizations_satisfy_identity(dalpha):
    d, t = dalpha
    s = seifert(d)["s"]
    u = t.weights()
    neighbors = neighbours(t, u)
    assert len(neighbors) == 6
    for v in [u, *neighbors]:
        result = realize_vertex(d, t, v)
        assert result["n_a"] + result["n_b"] == s
        assert result["euler_characteristic"] == s - d.n


def relabelled(d, ids):
    """``d`` with its crossings, in order of id, renamed to ``ids``."""
    new = dict(zip(sorted(c.id for c in d.crossings), ids))
    doc = {"crossings": [{"id": new[c.id], "pd": list(c.pd)} for c in d.crossings]}
    return parse_diagram(json.dumps(doc))


@pytest.mark.parametrize(
    "make",
    [lambda: parse_diagram((FIXTURES / "dalpha.json").read_text()),
     *(lambda c=c: medial(hub_graph(c)) for c in HUB_CHAINS)],
    ids=["dalpha", *(f"hub{i}" for i in range(len(HUB_CHAINS)))],
)
def test_relabelled_crossings_give_the_same_complex_and_surfaces(make):
    """Crossing ids are names only.  Reversed ids, and four seeded
    shuffles, send bigon merges down the branch that puts the dropped
    edge's crossings first."""
    d = make()
    c = build_complex(theta_pipeline(d))
    ids = sorted(x.id for x in d.crossings)
    rng = random.Random(0)
    for order in [ids[::-1], *(rng.sample(ids, len(ids)) for _ in range(4))]:
        e = relabelled(d, order)
        t = theta_pipeline(e)
        ce = build_complex(t)
        assert len(ce.vertices) == len(c.vertices)
        assert len(ce.maximal_simplices) == len(c.maximal_simplices)
        chi = seifert(e)["chi"]
        u = t.weights()
        for v in [u, *neighbours(t, u)]:
            assert realize_vertex(e, t, v)["euler_characteristic"] == chi


def test_neighbor_realization_structure(dalpha):
    d, t = dalpha
    u = t.weights()
    v = sorted(neighbours(t, u))[0]
    result = realize_vertex(d, t, v)
    config = result["p_arcs"]
    circles = result["flype_set"]["circles"]
    sides = list(config["crossing_sides"].values())
    assert sides.count("flype") == len(circles)
    assert len(config["flype_arcs"]) == len(circles)
    # every strand carries exactly one arc endpoint
    seen = {}
    for a, b in config["arcs"]:
        seen[a] = seen.get(a, 0) + 1
        seen[b] = seen.get(b, 0) + 1
    assert set(seen.values()) == {1}
    assert len(seen) == 2 * d.n


def test_arcs_stay_in_white_regions(dalpha):
    d, t = dalpha
    u = t.weights()
    whites = set(d.white_faces())

    def white_of(lab):
        faces = [d.face_of[(lab, 0)], d.face_of[(lab, 1)]]
        found = [f for f in faces if f in whites]
        assert len(found) == 1
        return found[0]

    for v in neighbours(t, u):
        config = realize_vertex(d, t, v)["p_arcs"]
        for a, b in config["arcs"]:
            assert white_of(a) == white_of(b)


def special_diagrams():
    """The special fixtures, the (2, k) torus diagrams for k = 2..11 and the
    hub-graph medials."""
    fixtures = [
        parse_diagram(p.read_text())
        for p in sorted(FIXTURES.glob("*.json"))
        if not p.name.endswith(".theta.json")
    ]
    return [
        *(d for d in fixtures if d.is_special()),
        *(medial(book(k)) for k in range(2, 12)),
        *(medial(hub_graph(c)) for c in HUB_CHAINS),
    ]


def test_every_arc_has_one_white_side():
    """Half-edge (lab, way) lies in the corner just before the arm it
    arrives along, and the two arms of an alternating arc differ in parity,
    so of each arc's two sides exactly one is white, the one ``p_arcs``
    reads an arc endpoint's region from."""
    diagrams = special_diagrams()
    arcs = 0
    for d in diagrams:
        whites = set(d.white_faces())
        for lab, ends in d.arms.items():
            for way in (0, 1):
                cid, arm = ends[1 - way]
                assert d.corners[(lab, way)] == (cid, (arm - 1) % 4)
            assert (d.face_of[(lab, 0)] in whites) != (d.face_of[(lab, 1)] in whites)
            arcs += 1
    assert (len(diagrams), arcs) == (20, 308)


def test_realized_flype_sets_match_the_neighbour_walk(dalpha):
    # the region set read off the heights is the one the walk finds
    d, t = dalpha
    for v, a in neighbours(t, t.weights()).items():
        fs = realize_vertex(d, t, v)["flype_set"]
        assert fs["regions"] == a


def test_realize_vertex_rejects_distant(dalpha):
    d, t = dalpha
    u = t.weights()
    c = build_complex(t)
    near = {u, *neighbours(t, u)}
    far = next(v for v in c.vertices if v not in near)
    with pytest.raises(ValueError):
        realize_vertex(d, t, far)


def test_neighbors_empty_for_empty_theta(trefoil):
    d, t = trefoil
    assert neighbours(t, ()) == {}


def test_neighbors_match_skeleton_everywhere(dalpha):
    d, t = dalpha
    c = build_complex(t)
    skeleton = skeleton_edges(c)
    for i, v in enumerate(c.vertices):
        ball = sorted(
            c.vertices[j]
            for j in range(len(c.vertices))
            if j != i and (min(i, j), max(i, j)) in skeleton
        )
        assert sorted(neighbours(t, v)) == ball
