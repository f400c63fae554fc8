"""The medial construction inverts the black-region graph, exactly."""

import json

import pytest

from kakimizu.diagram import _region_graph, validate
from kakimizu.families import build_graph
from kakimizu.medial import medial
from kakimizu.theta import theta_pipeline

from conftest import load_text
from families import book, cube_graph, dalpha_graph, granny_graph, pendant_book


def cyclic_eq(a, b):
    return len(a) == len(b) and (not a or any(a[i:] + a[:i] == b for i in range(len(a))))


def assert_roundtrip(g):
    """The black-region graph of medial(g) is g, orientation-preserving.

    The vertex correspondence sends each +1 vertex to the black region at
    the anticlockwise black corner of any of its crossings, and the match
    must preserve endpoints, orientation classes and rotation (as a cyclic
    sequence, not just up to reflection).
    """
    d = medial(g)
    b = _region_graph(d, "black")[0]
    par = d.smoothing_parity()
    vmap = {}
    for w in g.rotation:
        corner = par + 2 if g.orientation[w] == 1 else par
        images = {d.corner_face(eid, corner) for eid, _ in g.rotation[w]}
        assert len(images) == 1
        vmap[w] = images.pop()
    assert sorted(b.edges) == sorted(g.edges)
    for eid, e in g.edges.items():
        x, y = (e.u, e.v) if g.orientation[e.u] == 1 else (e.v, e.u)
        assert (b.edges[eid].u, b.edges[eid].v) == (vmap[x], vmap[y])
    for w in g.rotation:
        assert b.orientation[vmap[w]] == g.orientation[w]
        rot_g = [eid for eid, _ in g.rotation[w]]
        rot_b = [eid for eid, _ in b.rotation[vmap[w]]]
        assert cyclic_eq(rot_g, rot_b)
    return d


@pytest.mark.parametrize(
    "factory",
    [lambda: book(2), lambda: book(3), lambda: book(4), cube_graph, dalpha_graph,
     granny_graph, pendant_book],
)
def test_roundtrip(factory):
    assert_roundtrip(factory())


def diagram_doc(g):
    return {"crossings": [{"id": c.id, "pd": list(c.pd)} for c in medial(g).crossings]}


# each shipped fixture that demos/make_fixtures.py derives from a hand-built
# graph, with the document it writes there
GENERATED_FIXTURES = {
    "trefoil.json": lambda: diagram_doc(book(3)),
    "torus24.json": lambda: diagram_doc(book(4)),
    "granny.json": lambda: diagram_doc(granny_graph()),
    "cube.json": lambda: diagram_doc(cube_graph()),
    "dalpha.json": lambda: diagram_doc(dalpha_graph()),
    "dalpha.theta.json": lambda: theta_pipeline(medial(dalpha_graph())).to_json(),
}


@pytest.mark.parametrize("name", GENERATED_FIXTURES)
def test_shipped_fixture_is_generated(name):
    doc = GENERATED_FIXTURES[name]()
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == load_text(name)


def test_medial_diagrams_are_special(subtests=None):
    for fam in [book(2), book(3), cube_graph(), dalpha_graph()]:
        d = medial(fam)
        r = validate(d)
        assert r["alternating"] and r["special"] and r["connected"]


def test_medial_crossing_count_and_ids():
    d = medial(dalpha_graph())
    assert d.n == 15
    assert sorted(c.id for c in d.crossings) == list(range(15))


def test_medial_rejects_unoriented():
    g = build_graph(
        classes={0: 1, 1: 1},
        endpoints={0: (0, 1), 1: (0, 1)},
        rotations={0: [0, 1], 1: [1, 0]},
    )
    with pytest.raises(ValueError, match="orientation"):
        medial(g)


def test_medial_rejects_disconnected():
    g = build_graph(
        classes={0: 1, 1: -1, 2: 1, 3: -1},
        endpoints={0: (0, 1), 1: (0, 1), 2: (2, 3), 3: (2, 3)},
        rotations={0: [0, 1], 1: [1, 0], 2: [2, 3], 3: [3, 2]},
    )
    with pytest.raises(ValueError, match="connected"):
        medial(g)
