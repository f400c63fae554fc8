"""Diagrams: parsing, validation flags, Seifert data, region graphs."""

import functools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakimizu.diagram import (
    Crossing,
    Diagram,
    _circle_black_faces,
    _circles,
    _smoothing_is_prime,
    _region_graph,
    _two_edge_cut,
    is_fibred,
    parse_diagram,
    seifert,
    validate,
    white_region_graph,
)
from kakimizu.families import build_graph
from kakimizu.medial import medial

from conftest import FIXTURES, HUB_CHAINS, hub_graph
from families import book, cube_graph, dalpha_graph, granny_graph, pendant_book
from oracles import (
    bfs_two_edge_cut,
    dart_table_map,
    exhaustive_is_fibred,
    greedy_is_fibred,
    hand_region_graph,
    rotation_face_corners,
    scan_circle_black_face,
    union_find_orientation,
    white_smooth,
)

HOPF = '{"crossings":[{"id":0,"pd":[1,3,2,4]},{"id":1,"pd":[3,1,4,2]}]}'


# -- parsing ---------------------------------------------------------------


def test_parse_hopf():
    d = parse_diagram(HOPF)
    assert d.n == 2
    assert len(d.components) == 2


def test_parse_empty():
    with pytest.raises(ValueError, match="no crossings"):
        parse_diagram('{"crossings":[]}')


def test_parse_label_multiplicity():
    bad = '{"crossings":[{"id":0,"pd":[5,5,5,2]},{"id":1,"pd":[2,1,1,3]}]}'
    with pytest.raises(ValueError, match="label multiplicity"):
        parse_diagram(bad)
    # labels 6 and 10 are both wrong: the smaller raw label is reported,
    # before labels are renumbered (6 would become 3)
    two_bad = '{"crossings":[{"id":0,"pd":[10,10,10,4]},{"id":1,"pd":[4,2,2,6]}]}'
    with pytest.raises(ValueError) as exc:
        parse_diagram(two_bad)
    assert str(exc.value) == "label multiplicity: label 6 appears 1 time(s)"


def test_parse_malformed():
    with pytest.raises(ValueError, match="malformed"):
        parse_diagram("{nope")
    with pytest.raises(ValueError, match="malformed"):
        parse_diagram('{"crossings": 3}')
    # JSON integers only: no null, object, float, bool or string ids or labels
    bad = [(None, 1), ({}, 1), (1.5, 1), (True, 1), ("0", 1), (0, 1.0), (0, True)]
    for cid, label in bad:
        first = {"id": cid, "pd": [label, 3, 2, 4]}
        doc = {"crossings": [first, {"id": 1, "pd": [3, 1, 4, 2]}]}
        with pytest.raises(ValueError, match="integer"):
            parse_diagram(json.dumps(doc))


def test_parse_normalizes_sparse_labels():
    # same Hopf with labels doubled: normalized back to 1..4
    sparse = '{"crossings":[{"id":0,"pd":[2,6,4,8]},{"id":1,"pd":[6,2,8,4]}]}'
    d = parse_diagram(sparse)
    assert sorted(d.arms) == [1, 2, 3, 4]
    assert d.crossings[0].pd == (1, 3, 2, 4)


def test_one_crossing_rejected():
    with pytest.raises(ValueError):
        parse_diagram('{"crossings":[{"id":0,"pd":[1,2,2,1]}]}')


# -- validation ------------------------------------------------------------


def test_validate_hopf_all_good():
    r = validate(parse_diagram(HOPF))
    assert r["connected"] and r["alternating"] and r["special"]
    assert r["reduced"] and r["prime"] and r["cuttable_region_exists"]


def test_validate_granny_not_prime():
    r = validate(medial(granny_graph()))
    assert r["connected"] and r["alternating"] and r["special"] and r["reduced"]
    assert not r["prime"]
    assert any("not prime" in m for m in r["messages"])


def test_validate_kink_not_reduced():
    r = validate(medial(pendant_book()))
    assert not r["reduced"]
    assert any("not reduced" in m for m in r["messages"])


def bridged_books():
    """Two 3-edge books joined by a bridge: its medial has a nugatory
    crossing with crossings on both sides."""
    return build_graph(
        classes={0: 1, 1: -1, 2: 1, 3: -1},
        endpoints={
            **{i: (0, 1) for i in range(3)},
            **{i: (2, 3) for i in range(3, 6)},
            6: (0, 3),  # the bridge
        },
        rotations={0: [0, 1, 2, 6], 1: [2, 1, 0], 2: [3, 4, 5], 3: [5, 4, 3, 6]},
    )


def oracle_diagrams():
    """The fixture diagrams and medials of the hand-built graphs, reduced
    or not."""
    diagrams = [
        parse_diagram(p.read_text())
        for p in sorted(FIXTURES.glob("*.json"))
        if not p.name.endswith(".theta.json")
    ]
    graphs = [book(k) for k in range(2, 12)]
    graphs += [granny_graph(), pendant_book(), cube_graph(), dalpha_graph()]
    graphs.append(bridged_books())
    return diagrams + [medial(g) for g in graphs]


def test_connected_flag_matches_the_component_count():
    """``validate`` reads connectivity off the face count; a walk of the map
    agrees on the oracle diagrams and on every white smoothing of theirs,
    some of which fall apart."""
    cases = oracle_diagrams()
    cases += [s for d in cases for c in d.crossings if (s := white_smooth(d, c.id)[0])]
    flags = [validate(d)["connected"] for d in cases]
    assert flags == [d.map.component_count() == 1 for d in cases]
    assert 0 < flags.count(False) < len(flags)


def test_two_edge_cut_matches_bfs_oracle():
    diagrams = oracle_diagrams()
    cases = list(diagrams)
    for d in diagrams:
        for c in d.crossings:
            smoothed, _ = white_smooth(d, c.id)
            if smoothed is not None:
                cases.append(smoothed)
    cases = [d for d in cases if d.map.component_count() == 1]
    cuts = [_two_edge_cut(d) for d in cases]
    assert cuts == [bfs_two_edge_cut(d) for d in cases]
    assert sum(cut is not None for cut in cuts) >= 10
    assert sum(cut is None for cut in cuts) >= 10


def rebuilt_smoothing_is_prime(d, cid):
    """The verdict on the smoothed diagram built in full."""
    smoothed, dropped = white_smooth(d, cid)
    if dropped:
        return False
    if smoothed is None:
        return True
    return smoothed.map.component_count() == 1 and _two_edge_cut(smoothed) is None


def test_smoothing_judgement_matches_rebuilt_diagram():
    diagrams = oracle_diagrams() + [medial(book(k)) for k in range(12, 31)]
    verdicts = []
    for d in diagrams:
        for c in d.crossings:
            want = rebuilt_smoothing_is_prime(d, c.id)
            assert _smoothing_is_prime(d, c.id) == want, (d.crossings, c.id)
            verdicts.append(want)
    assert sum(verdicts) >= 10 and len(verdicts) - sum(verdicts) >= 10


def assert_map_matches_dart_table(d):
    """``d.map`` has the oracle's edges, rotations and orientations, each
    dict in the same order."""
    want = dart_table_map(d)
    for name in ("edges", "rotation", "orientation"):
        got, expected = getattr(d.map, name), getattr(want, name)
        assert list(got.items()) == list(expected.items()), name


def test_map_matches_dart_table_on_fixtures():
    paths = [p for p in sorted(FIXTURES.glob("*.json")) if not p.name.endswith(".theta.json")]
    assert len(paths) == 7
    for p in paths:
        assert_map_matches_dart_table(parse_diagram(p.read_text()))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 60))
def test_map_matches_dart_table_on_books(k):
    assert_map_matches_dart_table(medial(book(k)))


@pytest.mark.parametrize("chains", HUB_CHAINS)
def test_map_matches_dart_table_on_hub_medials(chains):
    assert_map_matches_dart_table(medial(hub_graph(chains)))


def test_diagram_traces_its_map_once(trace_calls):
    parse_diagram(HOPF)
    assert len(trace_calls) == 1


def test_validate_traces_nothing(trace_calls):
    d = parse_diagram((FIXTURES / "cube.json").read_text())
    trace_calls.clear()
    # all flags hold, so the cuttable-region search smooths crossings
    assert all(v for k, v in validate(d).items() if k != "messages")
    assert trace_calls == []


# One strand passing over the other twice: a valid oriented 2-crossing
# diagram that is not alternating.
POKE = '{"crossings":[{"id":0,"pd":[1,3,2,4]},{"id":1,"pd":[2,3,1,4]}]}'


def test_validate_non_alternating():
    r = validate(parse_diagram(POKE))
    assert not r["alternating"]
    assert not r["special"]


def test_validate_disconnected():
    # two disjoint Hopf links
    doc = {
        "crossings": [
            {"id": 0, "pd": [1, 3, 2, 4]},
            {"id": 1, "pd": [3, 1, 4, 2]},
            {"id": 2, "pd": [5, 7, 6, 8]},
            {"id": 3, "pd": [7, 5, 8, 6]},
        ]
    }
    r = validate(parse_diagram(json.dumps(doc)))
    assert not r["connected"]
    assert not r["prime"]


def test_flags_stable_under_relabeling():
    rng = random.Random(7)
    base = parse_diagram(HOPF)
    expected = validate(base)
    labels = list(range(1, 5))
    for _ in range(10):
        perm = labels[:]
        rng.shuffle(perm)
        relabel = dict(zip(labels, perm))
        doc = {
            "crossings": [
                {"id": c.id, "pd": [relabel[x] for x in c.pd]} for c in base.crossings
            ]
        }
        got = validate(parse_diagram(json.dumps(doc)))
        got.pop("messages")
        trimmed = dict(expected)
        trimmed.pop("messages")
        assert got == trimmed


# -- strand walk and corner table -----------------------------------------


@functools.cache
def walk_bases():
    """The oracle diagrams and the hub-graph medials."""
    return tuple(oracle_diagrams() + [medial(hub_graph(c)) for c in HUB_CHAINS])


def variant(d, switched, reversed_components):
    """The crossings of ``d`` with the crossings in ``switched`` changed and
    the components (indices into ``d.components``) in
    ``reversed_components`` reversed, each pd rotated to start at the
    incoming under-strand."""
    component = {lab: i for i, comp in enumerate(d.components) for lab in comp}
    out = []
    for c in d.crossings:
        shift = (1 if d.over_in_first[c.id] else 3) if c.id in switched else 0
        if component[c.pd[shift]] in reversed_components:
            shift += 2
        shift %= 4
        out.append(Crossing(c.id, c.pd[shift:] + c.pd[:shift]))
    return out


def walked(crossings):
    """Orientations and components from ``Diagram``, or its error."""
    try:
        d = Diagram(crossings)
    except ValueError as exc:
        return str(exc)
    return d.over_in_first, d.components


def solved(crossings):
    """Orientations and components from the union-find, or its error."""
    try:
        return union_find_orientation(crossings)
    except ValueError as exc:
        return str(exc)


def test_inconsistent_orientations_rejected():
    bad = '{"crossings":[{"id":0,"pd":[1,2,3,4]},{"id":1,"pd":[1,3,2,4]}]}'
    with pytest.raises(ValueError, match="inconsistent strand orientations"):
        parse_diagram(bad)


def test_component_passing_over_everywhere():
    # strand 3 -> 4 passes over at both crossings: it enters crossing 0,
    # its least, at position 1
    d = parse_diagram(POKE)
    assert d.over_in_first == {0: True, 1: False}
    assert d.components == [[1, 2], [3, 4]]


def test_strand_walk_matches_union_find():
    for d in walk_bases():
        assert walked(d.crossings) == solved(d.crossings)


def test_alternating_faces_keep_one_corner_parity():
    """A face leaving a crossing along arm p-1 reaches the next crossing at
    an arm whose parity differs from p-1's, and turns there in corner q-1
    of p-1's parity: in an alternating diagram every face's corners share
    one parity, so the black and white faces split the faces."""
    checked = 0
    for d in walk_bases():
        if not d.is_alternating():
            continue
        for f in range(len(d.faces)):
            assert len({pos % 2 for _, pos in d.face_corners(f)}) == 1
        if d.is_special():
            assert sorted(d.black_faces() + d.white_faces()) == list(range(len(d.faces)))
        checked += 1
    assert checked == len(walk_bases())


def test_smoothing_corners_stay_on_one_circle_of_parity_mu_plus_n():
    """Seifert's algorithm relies on two facts it does not check: the two
    arms of each smoothing corner lie on one circle, since the smoothing
    joins them, and the circle count s has the parity of mu + n, since
    smoothing one crossing changes the number of curves by one."""
    for d in walk_bases():
        circles = _circles(d)
        circle_of = {lab: i for i, circle in enumerate(circles) for lab in circle}
        for c in d.crossings:
            par = 1 if d.over_in_first[c.id] else 0
            for corner in (par, par + 2):
                assert circle_of[c.pd[corner]] == circle_of[c.pd[(corner + 1) % 4]]
        assert (len(circles) - len(d.components) - d.n) % 2 == 0


def test_strand_walk_matches_union_find_over_everywhere():
    """Each component free of self-crossings, switched to pass over at
    every crossing it meets, in both directions."""
    cases = 0
    for d in walk_bases():
        for i, comp in enumerate(d.components):
            labels = set(comp)
            under = {c.id for c in d.crossings if c.pd[0] in labels}
            over = {c.id for c in d.crossings if c.pd[1] in labels}
            if under & over:
                continue
            for flipped in ((), (i,)):
                crossings = variant(d, under, flipped)
                assert walked(crossings) == solved(crossings)
                cases += 1
    assert cases >= 20


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_strand_walk_matches_union_find_on_variants(data):
    d = data.draw(st.sampled_from(walk_bases()))
    ids = [c.id for c in d.crossings]
    switched = data.draw(st.sets(st.sampled_from(ids)))
    flipped = data.draw(st.sets(st.sampled_from(range(len(d.components)))))
    crossings = variant(d, switched, flipped)
    got = walked(crossings)
    assert not isinstance(got, str)
    assert got == solved(crossings)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_strand_walk_errors_match_union_find(data):
    """Rotating each pd at random mostly breaks the orientations; the walk
    and the union-find must agree on which rotations do."""
    d = data.draw(st.sampled_from(walk_bases()))
    shifts = data.draw(st.lists(st.integers(0, 3), min_size=d.n, max_size=d.n))
    crossings = [Crossing(c.id, c.pd[k:] + c.pd[:k]) for c, k in zip(d.crossings, shifts)]
    assert walked(crossings) == solved(crossings)


def test_face_corners_match_rotation_search():
    for d in walk_bases():
        for i in range(len(d.faces)):
            assert d.face_corners(i) == rotation_face_corners(d, i)


# -- Seifert ---------------------------------------------------------------


def test_seifert_hopf():
    data = seifert(parse_diagram(HOPF))
    assert data["s"] == 2
    assert data["chi"] == 0
    assert len(data["black_regions"]) == 2 and len(data["white_regions"]) == 2


def test_seifert_trefoil():
    data = seifert(medial(book(3)))
    assert data["s"] == 2
    assert data["chi"] == -1
    assert data["genus_like"] == 1


def test_seifert_rejects_non_special():
    with pytest.raises(ValueError):
        seifert(parse_diagram(POKE))


def test_chi_equals_s_minus_n_everywhere():
    for g in [book(2), book(3), book(4), cube_graph(), dalpha_graph()]:
        d = medial(g)
        data = seifert(d)
        assert data["chi"] == data["s"] - d.n
        assert data["s"] == len(data["black_regions"])


def test_circle_black_faces_match_per_circle_scan():
    checked = 0
    for d in walk_bases():
        if not d.is_special():
            continue
        circles = _circles(d)
        try:
            expected = [scan_circle_black_face(d, c) for c in circles]
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                _circle_black_faces(d, circles)
            continue
        assert _circle_black_faces(d, circles) == expected
        checked += 1
    assert checked >= len(HUB_CHAINS)


def test_seifert_is_linear_on_many_circles():
    # one long doubled chain: 1,606 crossings and about as many circles
    d = medial(hub_graph([(1601, True), (1, False), (3, False)]))
    assert d.n == 1606
    start = time.perf_counter()
    data = seifert(d)
    elapsed = time.perf_counter() - start
    assert data["s"] == len(data["black_regions"]) > 1500
    assert elapsed < 0.2, f"seifert took {elapsed:.3f} s"


# -- region graphs ---------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4])
def test_black_graph_of_torus_links(k):
    g = _region_graph(medial(book(k)), "black")[0]
    assert len(g.rotation) == 2
    assert len(g.edges) == k
    (pair, ids), = g.parallel_classes().items()
    assert len(ids) == k


def test_black_graph_no_loops_and_bipartite():
    for fam in [book(3), cube_graph(), dalpha_graph()]:
        g = _region_graph(medial(fam), "black")[0]
        for e in g.edges.values():
            assert e.u != e.v
            assert {g.orientation[e.u], g.orientation[e.v]} == {1, -1}


def test_white_graph_even_valencies():
    for fam in [book(2), book(3), cube_graph(), dalpha_graph(), granny_graph()]:
        w = white_region_graph(medial(fam))
        for rot in w.rotation.values():
            assert len(rot) % 2 == 0


def test_white_graph_reduced_prime_no_cut_vertex_no_loop():
    import networkx as nx

    for fam in [book(2), book(3), cube_graph(), dalpha_graph()]:
        w = white_region_graph(medial(fam))
        for e in w.edges.values():
            assert e.u != e.v
        m = nx.MultiGraph()
        m.add_nodes_from(w.rotation)
        m.add_edges_from((e.u, e.v) for e in w.edges.values())
        if len(m) > 2:
            assert not list(nx.articulation_points(nx.Graph(m)))


def test_hopf_white_graph_shape():
    w = white_region_graph(parse_diagram(HOPF))
    assert len(w.rotation) == 2 and len(w.edges) == 2


@pytest.mark.parametrize(
    "name",
    sorted(p.name for p in FIXTURES.glob("*.json") if not p.name.endswith(".theta.json")),
)
def test_region_graphs_match_the_hand_assembly(name):
    """The black-region graph is the hand-assembled one, faces included.
    The white one keeps its vertices, classes, rotations and edge ends, and
    only the direction of its edges changed: each now runs from the region
    at corner par+2 of its crossing to the one at par, as black edges do."""
    d = parse_diagram((FIXTURES / name).read_text())
    black, faces = _region_graph(d, "black")
    want, want_faces = hand_region_graph(d, "black")
    for field in ("edges", "rotation", "orientation"):
        assert list(getattr(black, field).items()) == list(getattr(want, field).items())
    assert faces == want_faces
    try:
        want = hand_region_graph(d, "white")[0]
    except ValueError as error:  # nugatory: a crossing joins a region to itself
        with pytest.raises(ValueError, match=str(error)):
            white_region_graph(d)
        return
    white = white_region_graph(d)
    assert list(white.orientation.items()) == list(want.orientation.items())
    assert [(e.id, {e.u, e.v}, e.crossings) for e in white.edges.values()] == [
        (e.id, {e.u, e.v}, e.crossings) for e in want.edges.values()
    ]
    assert {v: [eid for eid, _ in rot] for v, rot in white.rotation.items()} == {
        v: [eid for eid, _ in rot] for v, rot in want.rotation.items()
    }
    par = 1 - d.smoothing_parity()
    for e in white.edges.values():
        assert (e.u, e.v) == (d.corner_face(e.id, par + 2), d.corner_face(e.id, par))


# -- fibredness ------------------------------------------------------------


def _loose_graph(edges, n_vertices):
    """A bare multigraph stand-in for is_fibred (embedding irrelevant)."""
    g = EmbeddedGraphStub(n_vertices, edges)
    return g


class EmbeddedGraphStub:
    def __init__(self, n_vertices, edges):
        self.rotation = {v: [] for v in range(n_vertices)}
        self.edges = {
            i: type("E", (), {"u": u, "v": v})() for i, (u, v) in enumerate(edges)
        }


def test_fibred_is_linear_on_long_chains():
    """Each contraction relinks one edge end: a 3,200-crossing book reduces
    in a fraction of a second, where rebuilding the edge list per
    contraction took seconds."""
    g = white_region_graph(medial(book(3200)))
    start = time.perf_counter()
    assert is_fibred(g) is True
    assert time.perf_counter() - start < 0.3


def test_fibred_examples():
    assert is_fibred(_loose_graph([], 1)) is True
    assert is_fibred(white_region_graph(parse_diagram(HOPF))) is True
    assert is_fibred(white_region_graph(medial(book(3)))) is True
    # theta-shaped graph: stuck immediately
    assert is_fibred(_loose_graph([(0, 1)] * 3, 2)) is False
    # K4
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert is_fibred(_loose_graph(k4, 4)) is False
    # octahedron = G(D) of the cube medial
    assert is_fibred(white_region_graph(medial(cube_graph()))) is False
    # a rose of loops deletes down to a point
    assert is_fibred(_loose_graph([(0, 0)] * 3, 1)) is True
    # doubled edge: contract one copy, delete the resulting loop
    assert is_fibred(_loose_graph([(0, 1), (0, 1)], 2)) is True
    # loops joined by a path do not reduce: the path edges are stuck
    assert is_fibred(_loose_graph([(0, 1), (1, 1), (0, 2), (2, 2)], 3)) is False


def _oracle_reducible(n_vertices, edges):
    """Exhaustive search over all reduction sequences (the confluence oracle)."""
    start = (frozenset(range(n_vertices)), tuple(sorted(tuple(sorted(e)) for e in edges)))
    seen = set()
    stack = [start]
    while stack:
        verts, es = stack.pop()
        if (verts, es) in seen:
            continue
        seen.add((verts, es))
        if len(verts) == 1 and not es:
            return True
        moves = []
        es_list = list(es)
        for i, (u, v) in enumerate(es_list):
            if u == v:
                moves.append((frozenset(verts), tuple(sorted(es_list[:i] + es_list[i + 1 :]))))
        deg = {}
        for u, v in es_list:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        for i, (u, v) in enumerate(es_list):
            if u == v:
                continue
            for keep, fold in ((u, v), (v, u)):
                if deg[fold] == 2:
                    rest = es_list[:i] + es_list[i + 1 :]
                    folded = tuple(
                        sorted(
                            tuple(sorted((keep if a == fold else a, keep if b == fold else b)))
                            for a, b in rest
                        )
                    )
                    moves.append((frozenset(verts - {fold}), folded))
        stack.extend(moves)
    return False


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fibred_matches_exhaustive_oracle(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    m = data.draw(st.integers(min_value=0, max_value=8))
    edges = [
        (
            data.draw(st.integers(min_value=0, max_value=n - 1)),
            data.draw(st.integers(min_value=0, max_value=n - 1)),
        )
        for _ in range(m)
    ]
    g = _loose_graph(edges, n)
    want = _oracle_reducible(n, edges)
    assert is_fibred(g) == greedy_is_fibred(g) == exhaustive_is_fibred(g) == want
