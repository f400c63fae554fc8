import json
import pathlib

import pytest

from kakimizu.families import build_graph
from kakimizu.planar import Edge, EmbeddedGraph

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / name


def load_text(name: str) -> str:
    return fixture_path(name).read_text()


def copy_graph(g: EmbeddedGraph) -> EmbeddedGraph:
    """A copy of ``g`` whose edges and rotation lists are its own."""
    out = EmbeddedGraph()
    out.orientation = dict(g.orientation)
    out.edges = {i: Edge(i, e.u, e.v, e.crossings) for i, e in g.edges.items()}
    out.rotation = {v: list(r) for v, r in g.rotation.items()}
    return out


def run_stages(g, *stages):
    """``g`` through the private diagram-to-theta stages of
    ``kakimizu.theta`` in turn (``_reduce_bigons``, ``_augment_flype_arcs``,
    ``_extract_theta``) on a copy, with its faces traced once and handed
    from stage to stage as ``theta_pipeline`` does; returns the last
    stage's graph without its faces."""
    out = (copy_graph(g), g.trace_faces())
    for stage in stages:
        out = stage(*out)
    return out[0] if isinstance(out, tuple) else out


def wedge_sum(g1, g2, rng):
    """Black-region graphs ``g1`` and ``g2`` glued at one vertex: a vertex of
    ``g2`` drawn by ``rng`` is identified with one of ``g1`` of the same
    orientation class, its rotation opened at a random dart and spliced
    into a random corner of the other's, so ``g2`` sits in that corner's
    face.  The other vertices and the edges of ``g2`` are renumbered after
    those of ``g1``."""
    x = rng.choice(sorted(g1.rotation))
    y = rng.choice(sorted(v for v in g2.rotation if g2.orientation[v] == g1.orientation[x]))
    vshift, eshift = max(g1.rotation) + 1, max(g1.edges) + 1
    name = {v: x if v == y else v + vshift for v in g2.rotation}
    g = copy_graph(g1)
    for e in g2.edges.values():
        g.edges[e.id + eshift] = Edge(
            e.id + eshift, name[e.u], name[e.v], tuple(c + eshift for c in e.crossings),
        )
    for v, rot in g2.rotation.items():
        darts = [(eid + eshift, end) for eid, end in rot]
        if v == y:
            k, at = rng.randrange(len(darts)), rng.randrange(len(g.rotation[x])) + 1
            g.rotation[x][at:at] = darts[k:] + darts[:k]
        else:
            g.add_vertex(name[v], g2.orientation[v])
            g.rotation[name[v]] = darts
    g.trace_faces()  # raises unless the splice is spherical
    return g


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture
def trace_calls(monkeypatch) -> list:
    """Counts ``EmbeddedGraph.trace_faces`` calls: one entry per call."""
    from kakimizu.planar import EmbeddedGraph

    calls: list = []
    original = EmbeddedGraph.trace_faces

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(EmbeddedGraph, "trace_faces", counting)
    return calls


# -- hub graphs -----------------------------------------------------------


def hub_graph(chains):
    """Two hubs, 0 anticlockwise and 1 clockwise, joined by paths of odd
    length listed anticlockwise at hub 0; a doubled path has a second copy
    of its first edge."""
    classes = {0: 1, 1: -1}
    endpoints = {}
    rotations = {0: [], 1: []}
    for length, doubled in chains:
        inner = list(range(len(classes), len(classes) + length - 1))
        path = [0, *inner, 1]
        for i, v in enumerate(inner, 1):
            classes[v] = 1 if i % 2 == 0 else -1
        steps = []
        for i, (a, b) in enumerate(zip(path, path[1:])):
            ids = list(range(len(endpoints), len(endpoints) + 1 + (doubled and i == 0)))
            for eid in ids:
                endpoints[eid] = (a, b) if classes[a] == 1 else (b, a)
            steps.append(ids)
        rotations[0] += steps[0]
        rotations[1][:0] = steps[-1][::-1]
        for i, v in enumerate(inner, 1):
            rotations[v] = steps[i - 1][::-1] + steps[i]
    return build_graph(classes, endpoints, rotations)


HUB_CHAINS = [
    [(3, True), (1, False), (3, False)],
    [(3, True), (1, True), (5, False), (1, False), (3, True)],
    [(5, True), (1, False), (1, False), (7, False), (1, True), (3, False)],
]
