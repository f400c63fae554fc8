"""Flype circles, P-arc configurations, and the Euler-count identity."""

import json

import pytest

from kakimizu.diagram import seifert
from kakimizu.families import book, dalpha_graph
from kakimizu.kcomplex import build_complex
from kakimizu.medial import medial
from kakimizu.surfaces import (
    FlypeSet,
    euler_characteristic,
    flype_set_for_edge,
    p_arcs,
    realize_vertex,
    trace_curves,
)
from kakimizu.theta import compute_regions, parse_theta, theta_pipeline

from oracles import neighbours, skeleton_edges


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
    base = t.weights()
    return FlypeSet(base=base, region_ids=(), labels={}, circles=[])


# -- the base configuration -------------------------------------------------


@pytest.mark.parametrize("maker", [book(2), book(3), book(4)])
def test_base_configuration_counts_seifert_circles(maker):
    d, t = pipeline(maker)
    s = seifert(d).s
    for convention in ("positive", "negative"):
        config = p_arcs(d, t, empty_set(t), convention=convention)
        assert len(config.arcs) == d.n
        n_a, n_b = trace_curves(d, config)
        assert n_a + n_b == s
    pos = p_arcs(d, t, empty_set(t), convention="positive")
    assert set(pos.crossing_sides.values()) == {"negative"}
    neg = p_arcs(d, t, empty_set(t), convention="negative")
    assert set(neg.crossing_sides.values()) == {"positive"}


def test_base_configuration_dalpha(dalpha):
    d, t = dalpha
    s = seifert(d).s
    for convention in ("positive", "negative"):
        config = p_arcs(d, t, empty_set(t), convention=convention)
        n_a, n_b = trace_curves(d, config)
        assert n_a + n_b == s
        assert euler_characteristic(d.n, n_a, n_b) == s - d.n


def test_bad_convention_rejected(trefoil):
    d, t = trefoil
    with pytest.raises(ValueError):
        p_arcs(d, t, empty_set(t), convention="sideways")


def test_euler_characteristic_formula():
    assert euler_characteristic(3, 1, 1) == -1
    assert euler_characteristic(2, 1, 1) == 0
    assert euler_characteristic(15, 5, 5) == -5


# -- flype sets -------------------------------------------------------------


def region_by_delta(t, delta):
    for r in compute_regions(t):
        if r.delta(t) == delta:
            return r
    raise AssertionError(f"no region with delta {delta}")


def test_flype_set_single_circle(dalpha):
    d, t = dalpha
    u = t.weights()
    r_a = region_by_delta(t, (0, 0, 1, 0, -1))
    fs = flype_set_for_edge(t, u, [r_a])
    assert len(fs.circles) == 1
    circle = fs.circles[0]
    order = t.global_edge_order
    assert circle.crossing_edge == order[4]  # the -1 edge of r_a
    assert circle.arc_edge == order[2]  # the +1 edge of r_a
    assert fs.region_ids == (r_a.id,)
    assert len(fs.negative_side_regions) == 3


def test_flype_set_two_circles(dalpha):
    d, t = dalpha
    u = t.weights()
    r_a = region_by_delta(t, (0, 0, 1, 0, -1))
    r_b = region_by_delta(t, (-1, 1, 0, 0, 0))
    fs = flype_set_for_edge(t, u, [r_a, r_b])
    assert len(fs.circles) == 2
    assert {c.component for c in fs.circles} == {c.id for c in t.components}


def test_flype_set_requires_movable_crossing(dalpha):
    d, t = dalpha
    u = t.weights()
    # this region subtracts from a weight-0 edge at the base vertex
    r_c = region_by_delta(t, (1, -1, -1, 1, 0))
    with pytest.raises(ValueError):
        flype_set_for_edge(t, u, [r_c])


def test_flype_set_json(dalpha):
    d, t = dalpha
    u = t.weights()
    r_a = region_by_delta(t, (0, 0, 1, 0, -1))
    doc = flype_set_for_edge(t, u, [r_a]).to_json()
    assert doc["base"] == list(u)
    assert len(doc["circles"]) == 1
    assert set(doc["circles"][0]) == {"component", "crossing_edge", "arc_edge"}


def test_p_arcs_needs_the_source_faces(dalpha):
    d, t = dalpha
    r_a = region_by_delta(t, (0, 0, 1, 0, -1))
    fs = flype_set_for_edge(t, t.weights(), [r_a])
    parsed = parse_theta(json.dumps(t.to_json()))
    assert parsed.region_of is None
    for flypes in (fs, empty_set(parsed)):
        with pytest.raises(ValueError, match="source graph"):
            p_arcs(d, parsed, flypes)


# -- realizations -----------------------------------------------------------


def test_all_neighbor_realizations_satisfy_identity(dalpha):
    d, t = dalpha
    s = seifert(d).s
    u = t.weights()
    neighbors = neighbours(t, u)
    assert len(neighbors) == 6
    for v in [u, *neighbors]:
        result = realize_vertex(d, t, v)
        assert result["n_a"] + result["n_b"] == s
        assert result["euler_characteristic"] == s - d.n


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


def test_realized_flype_sets_match_the_neighbour_walk(dalpha):
    # the region set read off the heights is the one the walk finds
    d, t = dalpha
    for v, a in neighbours(t, t.weights()).items():
        fs = realize_vertex(d, t, v)["flype_set"]
        assert fs["regions"] == sorted(r.id for r in a)


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
