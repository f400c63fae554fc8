"""Subdivision model, products, decomposition, and ball reports."""

import itertools
import json
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_text, run_stages
from families import dalpha_graph
from oracles import (
    delta,
    exhaustive_colour_schemes,
    relation_chains,
    split_regions,
    tuple_ordered_product,
    tuple_verify_iso,
)
from test_homology import HOLLOW_TETRAHEDRON, PROJECTIVE_PLANE, complex_on
from kakimizu import structure
from kakimizu.generate import random_theta, random_theta_family
from kakimizu.kcomplex import (
    SimplicialComplex,
    build_complex,
    order_vertices,
)
from kakimizu.medial import medial
from kakimizu.structure import (
    ball_report,
    colour_schemes,
    component_product,
    esd,
    ordered_product,
    split_theta,
    theta_to_esd_map,
    validate_order,
    verify_iso,
)
from kakimizu.theta import (
    SPHERE,
    Placement,
    ThetaComponent,
    ThetaEdge,
    ThetaGraph,
    _augment_flype_arcs,
    _extract_theta,
    _reduce_bigons,
    parse_theta,
    theta_pipeline,
)


def single_component(weights, outer_face=0):
    edges = [ThetaEdge(i, w) for i, w in enumerate(weights)]
    return ThetaGraph([ThetaComponent(0, edges, Placement(SPHERE, 0, outer_face))])


@pytest.fixture(scope="module")
def dalpha_theta():
    return run_stages(dalpha_graph(), _reduce_bigons, _augment_flype_arcs, _extract_theta)


# -- edgewise subdivision ---------------------------------------------------


def test_esd_interval_subdivided():
    c = esd(1, 2)
    assert c.vertices == [(0, 0), (0, 1), (1, 1)]
    assert len(c.maximal_simplices) == 2
    assert c.dim == 1


def test_esd_triangle_subdivided():
    c = esd(2, 2)
    assert len(c.vertices) == 6
    assert len(c.maximal_simplices) == 4
    assert c.dim == 2 and c.is_pure()


def test_esd_simplex_itself():
    c = esd(3, 1)
    assert len(c.vertices) == 4
    assert c.maximal_simplices == [sorted(range(4))]


def test_esd_point():
    c = esd(0, 3)
    assert len(c.vertices) == 1
    assert len(c.maximal_simplices) == 1
    assert c.dim == 0


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("m", range(1, 5))
def test_esd_counts(n, m):
    c = esd(n, m)
    assert len(c.vertices) == comb(n + m, n)
    assert len(c.maximal_simplices) == m**n
    assert c.is_pure() and c.dim == n


@pytest.mark.parametrize("n", range(6))
def test_colour_schemes_match_exhaustive_filter(n):
    for m in range(1, 6):
        for l in range(n + 1):
            assert list(colour_schemes(n, m, l)) == list(
                exhaustive_colour_schemes(n, m, l)
            )


def test_colour_scheme_columns_are_vertices():
    verts = set(esd(2, 3).vertices)
    for scheme in colour_schemes(2, 3, 2):
        for col in scheme:
            assert col in verts


def test_subdivision_vertices_cover():
    c = esd(2, 3)
    used = {i for s in c.maximal_simplices for i in s}
    assert used == set(range(len(c.vertices)))


@pytest.mark.parametrize(
    "k,m", [(k, m) for k in range(2, 6) for m in range(1, 5) if m ** (k - 1) <= 100]
)
def test_single_component_complex_is_esd(k, m):
    """At every weight vector of total m and every outer face; dropping any
    one of the first five simplices breaks the isomorphism."""
    image = esd(k - 1, m)
    for weights in itertools.product(range(m + 1), repeat=k):
        if sum(weights) != m:
            continue
        for outer_face in range(k):
            t = single_component(weights, outer_face)
            c = build_complex(t)
            f = theta_to_esd_map(t)
            assert verify_iso(c, image, f), (weights, outer_face)
            for i in range(min(5, len(c.maximal_simplices))):
                rest = c.maximal_simplices[:i] + c.maximal_simplices[i + 1:]
                assert not verify_iso(SimplicialComplex(c.vertices, rest), image, f)


def test_esd_map_needs_single_component(dalpha_theta):
    with pytest.raises(ValueError):
        theta_to_esd_map(dalpha_theta)


# -- isomorphism verification ----------------------------------------------


def test_verify_iso_identity():
    c = esd(2, 2)
    f = {v: v for v in c.vertices}
    assert verify_iso(c, c, f)


def test_verify_iso_rejects_collapse():
    c = esd(1, 2)
    f = {v: c.vertices[0] for v in c.vertices}
    assert not verify_iso(c, c, f)


def test_verify_iso_rejects_map_missing_a_vertex():
    """A map onto every vertex of ``c2`` that skips a vertex of ``c1``,
    sending a stray point in its place, is no vertex map of ``c1``."""
    c = esd(1, 2)
    f = {v: v for v in c.vertices}
    f[("stray",)] = f.pop(c.vertices[-1])
    assert not verify_iso(c, c, f)


def test_verify_iso_rejects_wrong_simplices():
    c1 = esd(1, 2)  # path on 3 vertices
    c2 = SimplicialComplex(
        vertices=list(c1.vertices),
        maximal_simplices=[[0, 1], [0, 2]],  # different edge set
    )
    f = {v: v for v in c1.vertices}
    assert not verify_iso(c1, c2, f)


# -- ordered products -------------------------------------------------------


def order_by_first_region(t):
    """The complex of ``t`` and its vertex order broken at region 0."""
    c = build_complex(t)
    return c, order_vertices(c, 0)


def test_product_of_intervals_is_square():
    a = order_by_first_region(single_component([1, 0]))
    b = order_by_first_region(single_component([2, 0]))
    p = ordered_product(*a, *a)
    assert len(p.vertices) == 4
    assert len(p.maximal_simplices) == 2  # two staircase triangles
    assert p.dim == 2
    q = ordered_product(*a, *b)
    assert len(q.vertices) == 6
    assert len(q.maximal_simplices) == 2 * comb(2, 1)


def test_product_with_point():
    a, key = order_by_first_region(single_component([1, 0, 0]))
    point = SimplicialComplex(vertices=[("pt",)], maximal_simplices=[[0]])
    p = ordered_product(a, key, point, [0])
    assert len(p.vertices) == len(a.vertices)
    assert len(p.maximal_simplices) == len(a.maximal_simplices)
    assert p.dim == a.dim


def test_product_reads_each_chain_once(monkeypatch):
    a = order_by_first_region(single_component([10, 10]))
    b = order_by_first_region(single_component([5, 5, 0]))
    assert len(a[0].maximal_simplices) + len(b[0].maximal_simplices) == 120
    validated = []
    validate = structure.validate_order

    def counting(c, key):
        validated.append((c, key))
        return validate(c, key)

    monkeypatch.setattr(structure, "validate_order", counting)
    p = ordered_product(*a, *b)
    assert len(p.maximal_simplices) == 20 * 100 * comb(3, 1)
    assert validated == [a, b]


def test_product_requires_order():
    plain = build_complex(single_component([1, 0]))
    with pytest.raises(ValueError):
        ordered_product(plain, [], plain, [])


def test_validate_order_rejects_broken_relation():
    c = esd(1, 2)
    assert validate_order(c, [0, 1, 2]) == [[0, 1], [1, 2]]
    assert validate_order(c, [2, 1, 0]) == [[1, 0], [2, 1]]
    # a key tying the two vertices of one edge leaves them incomparable
    with pytest.raises(ValueError, match="order violates axioms"):
        validate_order(c, [0, 1, 1])


@pytest.mark.parametrize(
    "key", [[], [0, 1], [0, 1, 2, 3]], ids=["empty", "short", "long"]
)
def test_validate_order_rejects_missing_key(key):
    with pytest.raises(ValueError, match=f"key gives {len(key)} values for 3 vertices"):
        validate_order(esd(1, 2), key)


def test_order_vertices_gives_valid_order(dalpha_theta):
    c = build_complex(dalpha_theta)
    for r in range(dalpha_theta.region_count):
        validate_order(c, order_vertices(c, r))


# -- splitting at a region --------------------------------------------------


def test_split_dalpha(dalpha_theta):
    (left, left_cut), (right, right_cut) = split_theta(dalpha_theta)
    assert [c.k for c in left.components] == [2]
    assert [c.k for c in right.components] == [3]
    assert delta(left, left_cut) == (1, -1)
    assert delta(right, right_cut) == (-1, 1, 0)
    # both are restrictions of the cut region, which meets both components
    assert delta(left, left_cut) == split_regions(dalpha_theta, left)[1]
    assert delta(right, right_cut) == split_regions(dalpha_theta, right)[1]


def test_split_needs_two_components():
    with pytest.raises(ValueError):
        split_theta(single_component([1, 0]))


def test_split_preserves_total_weight(dalpha_theta):
    (left, _), (right, _) = split_theta(dalpha_theta)
    total = sum(c.total_weight() for c in dalpha_theta.components)
    assert (
        sum(c.total_weight() for c in left.components)
        + sum(c.total_weight() for c in right.components)
        == total
    )


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_split_regions_match_the_prediction(seed):
    """Each side of a split of a graph with 2 to 4 components has the
    regions of the whole graph that lie inside it, restricted to its edges,
    plus its copy of the cut region, which ``split_theta`` returns."""
    rng = random.Random(seed)
    t = random_theta(rng, max_components=4)
    while len(t.components) < 2:
        t = random_theta(rng, max_components=4)
    sides = split_theta(t)
    assert sides[0][0].components[0].id == t.components[0].id
    ids = sorted(c.id for sub, _ in sides for c in sub.components)
    assert ids == [c.id for c in t.components]
    for sub, cut in sides:
        predicted, cut_delta = split_regions(t, sub)
        assert {delta(sub, r) for r in range(sub.region_count)} == predicted
        assert delta(sub, cut) == cut_delta


def test_split_checks_every_component_is_placed(monkeypatch):
    """A walk that misses a component leaves it on the wrong side, where the
    side's own walk from the cut region cannot place it."""
    walk = structure._walk_placements

    def missing_last(wedges, start):
        placement = walk(wedges, start)
        placement.popitem()  # component 2, the last one walked
        return placement

    t = chain_beside_sibling()
    assert [len(sub.components) for sub, _ in split_theta(t)] == [3, 1]
    monkeypatch.setattr(structure, "_walk_placements", missing_last)
    with pytest.raises(ValueError, match="do not form the regions"):
        split_theta(t)


# -- full decomposition -----------------------------------------------------


def test_component_product_dalpha(dalpha_theta):
    c = build_complex(dalpha_theta)
    prod, f = component_product(dalpha_theta)
    assert verify_iso(c, prod, f)
    assert set(f) == set(c.vertices)


def chain3():
    comps = [
        ThetaComponent(0, [ThetaEdge(0, 1), ThetaEdge(1, 1)], Placement(SPHERE, 0, 0)),
        ThetaComponent(1, [ThetaEdge(2, 2), ThetaEdge(3, 0), ThetaEdge(4, 0)],
                       Placement(0, 1, 0)),
        ThetaComponent(2, [ThetaEdge(5, 1), ThetaEdge(6, 1)], Placement(1, 2, 1)),
    ]
    return ThetaGraph(comps)


def star3():
    comps = [
        ThetaComponent(0, [ThetaEdge(0, 2), ThetaEdge(1, 0)], Placement(SPHERE, 0, 0)),
        ThetaComponent(1, [ThetaEdge(2, 1), ThetaEdge(3, 1)], Placement(0, 0, 0)),
        ThetaComponent(2, [ThetaEdge(4, 3), ThetaEdge(5, 0)], Placement(0, 0, 1)),
    ]
    return ThetaGraph(comps)


@pytest.mark.parametrize("maker", [chain3, star3])
def test_component_product_three_components(maker):
    t = maker()
    c = build_complex(t)
    prod, f = component_product(t)
    assert verify_iso(c, prod, f)


def test_component_product_random_family():
    for t in random_theta_family(7, 10):
        c = build_complex(t)
        prod, f = component_product(t)
        assert verify_iso(c, prod, f)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_products_and_isomorphisms_match_tuple_oracles(seed):
    """Every ordered product that ``component_product`` forms has the
    vertices and simplices of the pair-named oracle, each of its top
    simplices is a chain of the oracle's componentwise order, and the
    isomorphism verdicts agree, also on a map with two images swapped."""
    t = random_theta(random.Random(seed), max_components=3)
    formed = []

    def compared(c1, key1, c2, key2):
        p = ordered_product(c1, key1, c2, key2)
        q, order = tuple_ordered_product(c1, key1, c2, key2)
        assert p.vertices == q.vertices
        assert p.maximal_simplices == q.maximal_simplices
        relation_chains(p, order)
        formed.append(p)
        return p

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "ordered_product", compared)
        prod, f = component_product(t)
    assert len(formed) == len(t.components) - 1
    c = build_complex(t)
    assert verify_iso(c, prod, f) and tuple_verify_iso(c, prod, f)
    if len(c.vertices) > 1:
        u, v = random.Random(seed).sample(c.vertices, 2)
        swapped = {**f, u: f[v], v: f[u]}
        assert verify_iso(c, prod, swapped) == tuple_verify_iso(c, prod, swapped)


def chain_beside_sibling():
    """Components 0 > 1 > 2 nested in a chain, with 3 beside 0 on the sphere."""
    comps = [
        ThetaComponent(
            0,
            [ThetaEdge(0, 1), ThetaEdge(1, 0), ThetaEdge(2, 1)],
            Placement(SPHERE, 0, 0),
        ),
        ThetaComponent(1, [ThetaEdge(3, 1), ThetaEdge(4, 0)], Placement(0, 2, 1)),
        ThetaComponent(2, [ThetaEdge(5, 0), ThetaEdge(6, 1)], Placement(1, 0, 0)),
        ThetaComponent(3, [ThetaEdge(7, 1), ThetaEdge(8, 0)], Placement(SPHERE, 0, 1)),
    ]
    return ThetaGraph(comps)


def nesting_depth(t, comp):
    depth = 0
    while comp.placement.parent != SPHERE:
        comp = next(c for c in t.components if c.id == comp.placement.parent)
        depth += 1
    return depth


def test_component_product_four_or_more_components():
    """Splits whose sides hold several components: nested chains below
    one component and sibling components on the sphere."""
    family = [chain_beside_sibling()] + [
        t
        for seed in range(3)
        for t in random_theta_family(
            seed, 30, max_components=5, max_edges=2, max_weight=2
        )
        if len(t.components) >= 4
    ]
    assert sum(
        max(nesting_depth(t, c) for c in t.components) >= 2
        and sum(c.placement.parent == SPHERE for c in t.components) >= 2
        for t in family
    ) >= 2
    for t in family:
        c = build_complex(t)
        prod, f = component_product(t)
        assert verify_iso(c, prod, f)


def dalpha_theta_document():
    return parse_theta(load_text("dalpha.theta.json"))


@pytest.mark.parametrize(
    "maker", [dalpha_theta_document, chain3, star3, chain_beside_sibling]
)
def test_component_product_builds_each_factor_once(maker, monkeypatch):
    """n components take 2n - 2 complex builds: one per one-component side,
    and one per larger side to check against its recursive product."""
    t = maker()
    calls = []

    def counting(sub):
        calls.append(sub)
        return build_complex(sub)

    monkeypatch.setattr(structure, "build_complex", counting)
    prod, f = component_product(t)
    assert len(calls) == 2 * len(t.components) - 2
    assert verify_iso(build_complex(t), prod, f)


# -- ball reports -----------------------------------------------------------


def test_ball_report_dalpha(dalpha_theta):
    assert ball_report(dalpha_theta, build_complex(dalpha_theta)) == {
        "dimension": 3,
        "expected_dimension": 3,
        "pure": True,
        "region_count": 4,
        "homology": {
            "reduced_betti": [0, 0, 0, 0],
            "torsion": [[], [], [], []],
            "euler_characteristic": 1,
        },
        "ok": True,
    }


def test_ball_report_interval():
    t = single_component([3, 0])
    rep = ball_report(t, build_complex(t))
    assert rep["dimension"] == 1
    assert rep["ok"]


def test_ball_report_empty_theta():
    t = ThetaGraph([])
    rep = ball_report(t, build_complex(t))
    assert rep["dimension"] == 0 == rep["expected_dimension"]
    assert rep["region_count"] == 0
    assert rep["ok"]


def test_ball_report_random_family():
    for t in random_theta_family(11, 10):
        rep = ball_report(t, build_complex(t))
        assert rep["region_count"] == rep["dimension"] + 1
        assert rep["ok"]


def test_ball_report_json_shape(dalpha_theta):
    doc = ball_report(dalpha_theta, build_complex(dalpha_theta))
    assert doc["pure"] is True and doc["ok"] is True
    assert json.loads(json.dumps(doc)) == doc


# a 2-sphere and an annulus sharing vertex 0: reduced betti [0, 1, 1], yet
# Euler characteristic 1, so only the betti numbers tell it from a ball
SPHERE_AND_ANNULUS = HOLLOW_TETRAHEDRON + [
    [0, 4, 6], [4, 6, 7], [4, 5, 7], [5, 7, 8], [0, 5, 8], [0, 6, 8],
]


@pytest.mark.parametrize(
    "n, faces, weights, broken",
    [
        (3, [[0, 1], [1, 2], [0, 2]], [1, 0], {"homology"}),
        (9, SPHERE_AND_ANNULUS, [1, 0, 0], {"homology"}),
        (6, PROJECTIVE_PLANE, [1, 0, 0], {"homology"}),
        (4, [[0, 1, 2], [2, 3]], [1, 0, 0], {"pure"}),
        (3, [[0, 1, 2]], [1, 0], {"dimension"}),
    ],
    ids=["hollow-triangle", "sphere-and-annulus", "rp2", "impure", "wrong-dimension"],
)
def test_ball_report_not_ok(n, faces, weights, broken):
    """Each complex fails the ball statement in one piece, against a theta
    graph of the dimension it should have, and ``ok`` is false."""
    rep = ball_report(single_component(weights), complex_on(n, faces))
    h = rep["homology"]
    holds = {
        "dimension": rep["dimension"] == rep["expected_dimension"],
        "pure": rep["pure"],
        "homology": not any(h["reduced_betti"]) and not any(h["torsion"]),
    }
    assert {k for k, v in holds.items() if not v} == broken
    assert not rep["ok"]


# -- the pipeline route matches the hand-built route ------------------------


def test_dalpha_via_medial_matches(dalpha_theta):
    d = medial(dalpha_graph())
    t = theta_pipeline(d)
    assert t.weights() == dalpha_theta.weights()
    assert [c.k for c in t.components] == [c.k for c in dalpha_theta.components]
    c1, c2 = build_complex(t), build_complex(dalpha_theta)
    assert c1.vertices == c2.vertices
    assert sorted(map(sorted, c1.maximal_simplices)) == sorted(
        map(sorted, c2.maximal_simplices)
    )
