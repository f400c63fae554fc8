"""Rotation-system plumbing: face tracing, Euler counts, surgeries."""

import pytest

from kakimizu.families import book, build_graph, cube_graph, dalpha_graph
from kakimizu.planar import Edge, EmbeddedGraph, face_index


def triangle():
    return build_graph(
        classes={0: 0, 1: 0, 2: 0},
        endpoints={0: (0, 1), 1: (1, 2), 2: (2, 0)},
        rotations={0: [0, 2], 1: [1, 0], 2: [2, 1]},
    )


def test_triangle_faces():
    g = triangle()
    faces = g.trace_faces()
    assert len(faces) == 2
    assert sorted(len(f) for f in faces) == [3, 3]


def test_euler_formula_families():
    for g in [book(2), book(4), cube_graph(), dalpha_graph(), triangle()]:
        f = len(g.trace_faces())
        c = g.component_count()
        assert f == len(g.edges) - len(g.rotation) + 1 + c


def test_face_index_covers_both_sides():
    g = cube_graph()
    face_of = face_index(g.trace_faces())
    for eid in g.edges:
        left, right = face_of[(eid, 0)], face_of[(eid, 1)]
        assert left != right  # no edge borders the same square twice


def test_positive_and_negative_faces_differ_by_flag():
    g = book(3)
    face_of = face_index(g.trace_faces())
    for eid, e in g.edges.items():
        assert g.positive_face(eid, face_of) == face_of[(eid, 0 if e.pos_left else 1)]
        assert g.negative_face(eid, face_of) != g.positive_face(eid, face_of)


def test_insert_edge_splits_face():
    # adding a chord across the outer triangle face creates one more face
    g = triangle()
    before = len(g.trace_faces())
    g.edges[3] = Edge(id=3, u=0, v=1)
    g.rotation[0].append((3, 0))
    g.rotation[1].insert(0, (3, 1))
    # rotations were edited by hand; retrace and recheck Euler
    after = len(g.trace_faces())
    assert after == before + 1


def test_remove_edge_keeps_consistency():
    g = book(3)
    g.remove_edge(1)
    assert len(g.trace_faces()) == 2
    assert sorted(g.edges) == [0, 2]


def test_loops_rejected():
    g = EmbeddedGraph()
    g.add_vertex(0)
    with pytest.raises(ValueError):
        g.insert_edge(Edge(id=0, u=0, v=0), after_u=(0, 0), after_v=(0, 0))


def test_bad_embedding_rejected():
    # book(3) with one rotation list not reversed is not spherical
    with pytest.raises(ValueError):
        build_graph(
            classes={0: 1, 1: -1},
            endpoints={i: (0, 1) for i in range(3)},
            rotations={0: [0, 1, 2], 1: [0, 1, 2]},
        )


def test_parallel_classes():
    g = dalpha_graph()
    groups = g.parallel_classes()
    assert groups[(0, 1)] == [1, 2, 3]
    assert groups[(0, 2)] == [0]
