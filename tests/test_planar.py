"""Rotation-system plumbing: face tracing, Euler counts, surgeries."""

import pytest

from conftest import FIXTURES, HUB_CHAINS, hub_graph
from families import book, cube_graph, dalpha_graph
from oracles import min_pivot_trace_faces
from kakimizu.diagram import _region_graph, parse_diagram
from kakimizu.families import build_graph
from kakimizu.medial import medial
from kakimizu.planar import Edge, EmbeddedGraph, face_index
from kakimizu.theta import theta_pipeline


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


def test_positive_face_is_left_of_the_plus_one_end():
    # dalpha stores some edges from their +1 end and some from their -1 end;
    # stored the other way round, every edge keeps its two sides
    g = dalpha_graph()
    r = EmbeddedGraph()
    r.orientation = dict(g.orientation)
    r.edges = {i: Edge(i, e.v, e.u, e.crossings) for i, e in g.edges.items()}
    r.rotation = {v: [(eid, 1 - end) for eid, end in rot] for v, rot in g.rotation.items()}

    def sides(graph):
        faces = graph.trace_faces()
        face_of = face_index(faces)
        walls = [frozenset(eid for eid, _ in cycle) for cycle in faces]
        out = {}
        for eid, e in graph.edges.items():
            plus = 0 if graph.orientation[e.u] == 1 else 1
            pos, neg = graph.positive_face(eid, face_of), graph.negative_face(eid, face_of)
            assert (pos, neg) == (face_of[(eid, plus)], face_of[(eid, 1 - plus)])
            out[eid] = (walls[pos], walls[neg])
            assert walls[pos] != walls[neg]  # so a swap of sides would show
        return out

    assert {g.orientation[e.u] for e in g.edges.values()} == {1, -1}
    assert sides(r) == sides(g)


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


def test_loops_rejected():
    g = EmbeddedGraph()
    g.add_vertex(0)
    with pytest.raises(ValueError):
        g.insert_edge(Edge(id=0, u=0, v=0), after_u=(0, 0), after_v=(0, 0))


def test_duplicate_vertex_rejected():
    g = triangle()
    with pytest.raises(ValueError, match="duplicate vertex 1"):
        g.add_vertex(1)
    assert g.rotation[1] == [(1, 0), (0, 1)]


@pytest.mark.parametrize(
    "edge, message",
    [(Edge(id=2, u=0, v=1), "duplicate edge id 2"), (Edge(id=3, u=0, v=7), "unknown vertex 7")],
)
def test_insert_edge_rejects_bad_edge(edge, message):
    g = triangle()
    with pytest.raises(ValueError, match=message):
        g.insert_edge(edge, after_u=(0, 0), after_v=(0, 1))
    assert sorted(g.edges) == [0, 1, 2]


def test_bad_embedding_rejected():
    # book(3) with one rotation list not reversed is not spherical
    with pytest.raises(ValueError):
        build_graph(
            classes={0: 1, 1: -1},
            endpoints={i: (0, 1) for i in range(3)},
            rotations={0: [0, 1, 2], 1: [0, 1, 2]},
        )


@pytest.mark.parametrize(
    "rotation",
    [
        {0: [(0, 0), (1, 0), (2, 0)], 1: [(2, 1), (1, 1)]},
        {0: [(0, 0), (1, 0), (7, 0), (2, 0)], 1: [(2, 1), (1, 1), (0, 1)]},
        {0: [(0, 0), (1, 0), (2, 0)], 1: [(2, 1), (1, 1), (0, 1), (1, 1)]},
        {0: [(7, 0), (1, 0), (2, 0)], 1: [(2, 1), (1, 1), (7, 1)]},
    ],
    ids=["missing", "unknown-edge", "twice", "renamed-edge"],
)
def test_bad_rotation_system_rejected(rotation):
    """Rotation lists that are not a permutation of the edges' darts are a
    ``ValueError``, not a ``KeyError``."""
    g = book(3)
    g.rotation = rotation
    with pytest.raises(ValueError, match="each dart of each edge once"):
        g.trace_faces()


def test_darts_of_an_edgeless_graph_rejected():
    g = EmbeddedGraph()
    g.add_vertex(0)
    g.add_vertex(1)
    g.rotation = {0: [(0, 0)], 1: [(0, 1)]}
    with pytest.raises(ValueError, match="each dart of each edge once"):
        g.trace_faces()


def test_parallel_classes():
    g = dalpha_graph()
    groups = g.parallel_classes()
    assert groups[(0, 1)] == [1, 2, 3]
    assert groups[(0, 2)] == [0]


# -- the sweep trace against the min-per-face oracle -------------------------


@pytest.fixture
def checked_traces(monkeypatch):
    """Makes every ``trace_faces`` call also run the oracle trace on the
    same map and compare the face lists, order included; collects the
    traced maps."""
    traced = []
    sweep = EmbeddedGraph.trace_faces

    def checking(self):
        faces = sweep(self)
        assert faces == min_pivot_trace_faces(self)
        traced.append(self)
        return faces

    monkeypatch.setattr(EmbeddedGraph, "trace_faces", checking)
    return traced


def test_trace_matches_oracle_on_fixture_maps():
    names = sorted(p.name for p in FIXTURES.glob("*.json"))
    names = [n for n in names if not n.endswith(".theta.json")]
    assert len(names) == 7
    for name in names:
        d = parse_diagram((FIXTURES / name).read_text())
        for g in (d.map, _region_graph(d, "black")[0]):
            assert g.trace_faces() == min_pivot_trace_faces(g)


@pytest.mark.parametrize("k", range(2, 31))
def test_trace_matches_oracle_through_book_pipeline(k, checked_traces):
    theta_pipeline(medial(book(k)))
    assert len(checked_traces) >= 4


@pytest.mark.parametrize("chains", HUB_CHAINS)
def test_trace_matches_oracle_through_hub_pipeline(chains, checked_traces):
    theta_pipeline(medial(hub_graph(chains)))
    assert len(checked_traces) >= 4


def test_trace_matches_oracle_with_isolated_vertex():
    g = triangle()
    g.add_vertex(7)
    faces = g.trace_faces()
    assert faces == min_pivot_trace_faces(g)
    assert len(faces) == 2


def test_trace_matches_oracle_on_disconnected_graph():
    # a triangle and a separate book(3) on vertices 10, 11
    g = triangle()
    g.add_vertex(10, 1)
    g.add_vertex(11, -1)
    for eid in (20, 21, 22):
        g.edges[eid] = Edge(id=eid, u=10, v=11)
    g.rotation[10] = [(20, 0), (21, 0), (22, 0)]
    g.rotation[11] = [(22, 1), (21, 1), (20, 1)]
    faces = g.trace_faces()
    assert faces == min_pivot_trace_faces(g)
    # 2 + 3 boundary walks; the two components share one face of the sphere
    assert len(faces) == 5


def test_non_spherical_error_matches_oracle():
    g = book(3)
    g.rotation[1] = [(0, 1), (1, 1), (2, 1)]
    with pytest.raises(ValueError) as oracle_error:
        min_pivot_trace_faces(g)
    with pytest.raises(ValueError) as error:
        g.trace_faces()
    assert str(error.value) == str(oracle_error.value)
    assert "not spherical" in str(error.value)
