"""Integer homology: Smith form against sympy, and known complexes."""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from conftest import load_text
from oracles import (
    boundary,
    dominated,
    faces_by_dim,
    matrix_homology,
    rescan_eliminate,
    star_intersection_core,
)
from test_acceptance import family50
from test_kcomplex import BENCH_SHAPES, shaped_theta
from kakimizu import homology as homology_module
from kakimizu.generate import random_theta, random_theta_family
from kakimizu.homology import homology, smith_diagonal
from kakimizu.homology import (
    _chain_homology,
    _check_boundary_squared,
    _coreduce,
    _lattice,
    _strong_core,
)
from kakimizu.kcomplex import SimplicialComplex, build_complex
from kakimizu.theta import (
    SPHERE,
    Placement,
    ThetaComponent,
    ThetaEdge,
    ThetaGraph,
    parse_theta,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def complex_on(n_vertices, maximal):
    return SimplicialComplex(
        vertices=list(range(n_vertices)),
        maximal_simplices=[sorted(s) for s in maximal],
    )


# -- smith normal form ------------------------------------------------------


def test_smith_diagonal_examples():
    assert smith_diagonal([[2]]) == [2]
    assert smith_diagonal([[0]]) == []
    assert smith_diagonal([[1, 0], [0, 3]]) == [1, 3]
    # divisibility is enforced, not just diagonalization
    assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert smith_diagonal([[4, 0], [0, 6]]) == [2, 12]
    assert smith_diagonal([[0, 0], [0, 0]]) == []
    assert smith_diagonal([[1, 2, 3]]) == [1]
    # no rows, no columns, a zero row and a zero column
    assert smith_diagonal([]) == []
    assert smith_diagonal([[]]) == []
    assert smith_diagonal([[0, 0, 0], [0, 6, 4]]) == [2]
    assert smith_diagonal([[0, 9], [0, -6], [0, 3]]) == [3]
    rows = [[9, -6], [6, 9], [0, 0]]
    assert smith_diagonal(rows) == [3, 39]
    assert rows == [[9, -6], [6, 9], [0, 0]]  # the input is left as it was


def sympy_diagonal(rows):
    m = Matrix(rows)
    s = smith_normal_form(m)
    out = []
    for i in range(min(s.shape)):
        v = abs(s[i, i])
        if v:
            out.append(int(v))
    return sorted(out)


@pytest.mark.parametrize("seed", range(30))
def test_smith_matches_sympy(seed):
    """Entries up to 4, or up to 9 on odd seeds; seeds 1, 4, 7, ... have a
    zero row and seeds 2, 5, 8, ... a zero column."""
    rng = random.Random(seed)
    rows = rng.randint(1, 5)
    cols = rng.randint(1, 5)
    bound = 9 if seed % 2 else 4
    mat = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    if seed % 3 == 1:
        mat[rng.randrange(rows)] = [0] * cols
    elif seed % 3 == 2:
        zero = rng.randrange(cols)
        for row in mat:
            row[zero] = 0
    assert sorted(smith_diagonal(mat)) == sympy_diagonal(mat)


def test_smith_divisibility_chain():
    rng = random.Random(99)
    for _ in range(20):
        mat = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(4)]
        diag = smith_diagonal(mat)
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))


def sparse_of(mat):
    return {
        i: {j: v for j, v in enumerate(row) if v}
        for i, row in enumerate(mat)
        if any(row)
    }


def rank_and_divisors(mat):
    diag = smith_diagonal(mat)
    return len(diag), sorted(d for d in diag if d > 1)


def assert_eliminators_agree(mat):
    """The rescanning eliminator and the dense Smith form give the same
    rank and the same non-unit divisors."""
    rank, divisors = rescan_eliminate(sparse_of(mat))
    assert (rank, sorted(divisors)) == rank_and_divisors(mat)


@pytest.mark.parametrize("seed", range(15))
def test_sparse_elimination_matches_dense(seed):
    rng = random.Random(1000 + seed)
    rows = rng.randint(1, 7)
    cols = rng.randint(1, 7)
    mat = [
        [rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(cols)]
        for _ in range(rows)
    ]
    assert_eliminators_agree(mat)


@st.composite
def integer_matrices(draw):
    """Small integer matrices of three kinds: sparse with units, unit-free
    (all the work falls to the Smith form), and a diagonal with torsion
    hidden by random unimodular row and column operations."""
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["sparse", "unit-free", "torsion"]))
    if kind != "torsion":
        values = [0, 0, 0, 1, -1, 2, -3] if kind == "sparse" else [0, 0, 2, -2, 3, 6]
        return [[draw(st.sampled_from(values)) for _ in range(n)] for _ in range(m)]
    mat = [[0] * n for _ in range(m)]
    for k in range(min(m, n)):
        mat[k][k] = draw(st.sampled_from([0, 1, 1, 2, 3, 4, 6]))
    for _ in range(draw(st.integers(0, 10))):
        c = draw(st.sampled_from([-2, -1, 1, 2]))
        if draw(st.booleans()) and m > 1:
            a, b = draw(st.permutations(range(m)))[:2]
            mat[a] = [x + c * y for x, y in zip(mat[a], mat[b])]
        elif n > 1:
            a, b = draw(st.permutations(range(n)))[:2]
            for row in mat:
                row[a] += c * row[b]
    return mat


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_eliminators_agree_on_random_matrices(mat):
    assert_eliminators_agree(mat)


def test_eliminators_agree_on_theta_boundaries():
    for t in random_theta_family(77, 20, max_vertices=30, max_cells=30):
        by_dim = faces_by_dim(build_complex(t))
        for lower, upper in zip(by_dim, by_dim[1:]):
            rows = boundary(lower, upper)
            assert_eliminators_agree(
                [[rows.get(i, {}).get(j, 0) for j in range(len(upper))]
                 for i in range(len(lower))]
            )


# -- homology of known complexes -------------------------------------------


def homology_doc(betti, torsion, euler):
    return {"reduced_betti": betti, "torsion": torsion, "euler_characteristic": euler}


def test_single_simplex_is_trivial():
    rep = homology(complex_on(4, [[0, 1, 2, 3]]))
    assert rep == homology_doc([0, 0, 0, 0], [[], [], [], []], 1)


def test_unsorted_simplex_names_its_faces_once():
    # the disk of two triangles on the edge {1, 2}, the second listed
    # against vertex order
    c = SimplicialComplex(
        vertices=[0, 1, 2, 3], maximal_simplices=[[0, 1, 2], [2, 1, 3]]
    )
    assert homology(c) == homology_doc([0, 0, 0], [[], [], []], 1)


def test_two_points():
    assert homology(complex_on(2, [[0], [1]])) == homology_doc([1], [[]], 2)


def test_hollow_triangle_is_a_circle():
    rep = homology(complex_on(3, [[0, 1], [1, 2], [0, 2]]))
    assert rep == homology_doc([0, 1], [[], []], 0)


HOLLOW_TETRAHEDRON = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]


def cycle(n):
    """A circle of ``n`` edges; no vertex is dominated when n > 3."""
    return complex_on(n, [[i, (i + 1) % n] for i in range(n)])


def test_hollow_tetrahedron_is_a_sphere():
    rep = homology(complex_on(4, HOLLOW_TETRAHEDRON))
    assert rep == homology_doc([0, 0, 1], [[], [], []], 2)


# minimal 6-vertex triangulation of the projective plane
PROJECTIVE_PLANE = [
    [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 5], [0, 3, 4],
    [1, 2, 3], [1, 2, 4], [1, 3, 5], [2, 4, 5], [3, 4, 5],
]
# an 8-vertex dunce hat: contractible, but no edge is free
DUNCE_HAT = [
    [0, 1, 3], [0, 1, 6], [0, 1, 7], [0, 2, 3], [0, 2, 4], [0, 2, 5],
    [0, 4, 5], [0, 6, 7], [1, 2, 4], [1, 2, 6], [1, 2, 7], [1, 3, 4],
    [2, 3, 7], [2, 5, 6], [3, 4, 5], [3, 5, 7], [5, 6, 7],
]


def edge_use(faces):
    use = {}
    for f in faces:
        for e in itertools.combinations(f, 2):
            use[e] = use.get(e, 0) + 1
    return use


def test_projective_plane_torsion():
    # sanity: a closed surface (every edge in exactly two triangles) with
    # euler characteristic 1 is the projective plane
    use = edge_use(PROJECTIVE_PLANE)
    assert len(use) == 15 and set(use.values()) == {2}
    rep = homology(complex_on(6, PROJECTIVE_PLANE))
    assert rep == homology_doc([0, 0, 0], [[], [2], []], 1)


def test_dunce_hat_is_acyclic():
    # no edge lies in a single triangle, so no triangle collapses
    assert 1 not in edge_use(DUNCE_HAT).values()
    rep = homology(complex_on(8, DUNCE_HAT))
    assert rep == homology_doc([0, 0, 0], [[], [], []], 1)


# -- coreduction against the per-matrix oracle -------------------------------


def residue_cells(c):
    """How many cells coreduction leaves for the eliminator."""
    return sum(_coreduce(_lattice(c.maximal_simplices)[1]))


@st.composite
def small_complexes(draw):
    """Complexes on up to 8 vertices, from up to 10 random simplices of up
    to 5 vertices each; some listed simplices may lie in others."""
    n = draw(st.integers(1, 8))
    simplex = st.lists(st.integers(0, n - 1), min_size=1, max_size=5, unique=True)
    return complex_on(n, draw(st.lists(simplex, min_size=1, max_size=10)))


@st.composite
def theta_balls(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return build_complex(random_theta(rng, max_vertices=100, max_cells=100))


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_complexes(), theta_balls()))
@example(complex_on(6, PROJECTIVE_PLANE))
@example(complex_on(8, DUNCE_HAT))
@example(complex_on(4, HOLLOW_TETRAHEDRON))
@example(cycle(500))
def test_coreduction_matches_matrix_homology(c):
    """The strong core has no dominated vertex and each of its simplices
    lies in a simplex of the input; the homology of the core, the
    coreduced homology of the whole complex and the per-matrix oracle's
    agree."""
    core = _strong_core(c.maximal_simplices)
    assert all(not dominated(core, v) for v in set().union(*core))
    assert all(any(s <= set(t) for t in c.maximal_simplices) for s in core)
    assert homology(c) == _chain_homology(c.maximal_simplices) == matrix_homology(c)


@st.composite
def with_listed_faces(draw):
    """The simplices of a small complex or theta ball, shuffled, with some
    faces of them listed too, which the collapse must drop at the start."""
    c = draw(st.one_of(small_complexes(), theta_balls()))
    simplices = [list(s) for s in c.maximal_simplices]
    picks = draw(st.lists(st.sampled_from(simplices), max_size=10))
    faces = [draw(st.lists(st.sampled_from(s), min_size=1, unique=True)) for s in picks]
    return draw(st.permutations(simplices + faces))


def sphere_theta(*components):
    """Theta components with the given edge weights, all on the sphere."""
    comps, eid = [], 0
    for cid, weights in enumerate(components):
        edges = [ThetaEdge(eid + i, w) for i, w in enumerate(weights)]
        eid += len(weights)
        comps.append(ThetaComponent(cid, edges, Placement(SPHERE, 0, 0)))
    return ThetaGraph(comps)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.one_of(small_complexes(), theta_balls()).map(lambda c: c.maximal_simplices),
        with_listed_faces(),
    )
)
@example(PROJECTIVE_PLANE)
@example(DUNCE_HAT + [[0, 1], [2]])
@example(build_complex(sphere_theta((1, 1), (1, 1), (1, 1), (1, 1))).maximal_simplices)
def test_strong_core_matches_star_intersection_core(simplices):
    """Testing a shrunk face only against the simplices through one edge
    from its dominator deletes the same vertices in the same order as
    intersecting the stars of all its vertices: the cores are equal as
    lists.  The 81-vertex ball of four (1, 1) components has dominators
    with more than 32 live simplices, whose faces take the other path."""
    assert _strong_core(simplices) == star_intersection_core(simplices)


def test_coreduction_pairs_off_every_theta_ball():
    """No cell is left on the acceptance family, on the benchmark's shapes,
    or on the 225- and 441-vertex balls of the ROADMAP baseline."""
    shapes = [shaped_theta(random.Random(str(s)), s) for s in BENCH_SHAPES]
    for t in [*family50(), *shapes]:
        assert residue_cells(build_complex(t)) == 0
    for weights, n in [((2, 1, 1), 225), ((3, 1, 1), 441)]:
        c = build_complex(sphere_theta(weights, weights))
        assert len(c.vertices) == n
        assert residue_cells(c) == 0


@pytest.mark.parametrize(
    "n, faces, left",
    [(6, PROJECTIVE_PLANE, 10), (8, DUNCE_HAT, 18)],
    ids=["rp2", "dunce-hat"],
)
def test_coreduction_residue_is_eliminated(monkeypatch, n, faces, left):
    """Coreduction stalls on the projective plane and on the dunce hat, so
    their homology, the projective plane's torsion included, comes from the
    Smith form of the residue; it is called on non-empty matrices only."""
    c = complex_on(n, faces)
    assert residue_cells(c) == left
    seen = []

    def recording(rows):
        seen.append(rows)
        return smith_diagonal(rows)

    monkeypatch.setattr(homology_module, "smith_diagonal", recording)
    report = homology(c)
    assert seen and all(rows and rows[0] for rows in seen)
    assert report == matrix_homology(c)


def test_boundary_of_boundary_checked_on_large_complexes(monkeypatch):
    """A 500-edge path is a contractible complex; with the signs dropped
    from its facets, the check that the boundary of a boundary vanishes
    must fire, however many faces there are.  ``homology`` collapses the
    path to a point first, so its lattice goes through the stages by hand;
    the 500-edge cycle has no dominated vertex and goes end to end."""
    path = complex_on(501, [[i, i + 1] for i in range(500)])
    assert homology(path) == homology_doc([0, 0], [[], []], 1)
    monkeypatch.setattr(homology_module, "_facet_sign", lambda j, k: 1)
    with pytest.raises(AssertionError, match="dimension 1"):
        _check_boundary_squared(*_lattice(path.maximal_simplices))
    with pytest.raises(AssertionError, match="dimension 1"):
        homology(cycle(500))


def test_boundary_of_boundary_checks_face_ids(monkeypatch):
    """An edge of a triangle that names a wrong vertex leaves the signs
    right, but the triangle's codimension-2 faces no longer cancel: on a
    triangle's lattice, and end to end on the hollow tetrahedron, which
    has no dominated vertex."""
    lattice = homology_module._lattice

    def corrupted(simplices):
        dims, facets = lattice(simplices)
        # the first edge's first facet: the last vertex instead of the first
        facets[dims[1].start][0] = dims[0].stop - 1
        return dims, facets

    monkeypatch.setattr(homology_module, "_lattice", corrupted)
    triangle = complex_on(3, [[0, 1, 2]])
    with pytest.raises(AssertionError, match="dimension 2"):
        _check_boundary_squared(*corrupted(triangle.maximal_simplices))
    with pytest.raises(AssertionError, match="dimension 2"):
        homology(complex_on(4, HOLLOW_TETRAHEDRON))


def test_boundary_of_boundary_checked_under_optimisation():
    """``python -O`` strips assert statements; the check must still fire,
    on the 500-edge path's lattice and end to end on the 500-edge cycle."""
    script = (
        "from kakimizu import homology as h\n"
        "from kakimizu.kcomplex import SimplicialComplex\n"
        "h._facet_sign = lambda j, k: 1\n"
        "path = SimplicialComplex(vertices=list(range(501)),\n"
        "    maximal_simplices=[[i, i + 1] for i in range(500)])\n"
        "cycle = SimplicialComplex(vertices=list(range(500)),\n"
        "    maximal_simplices=[[i, (i + 1) % 500] for i in range(500)])\n"
        "for run in (lambda: h._check_boundary_squared(\n"
        "        *h._lattice(path.maximal_simplices)),\n"
        "        lambda: h.homology(cycle)):\n"
        "    try:\n"
        "        run()\n"
        "    except AssertionError as e:\n"
        "        print('raised:', e)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised: the boundary of a boundary is not zero")
    assert out.stdout.count("raised: the boundary of a boundary is not zero") == 2


def test_theta_balls_collapse_to_a_vertex():
    """The cores of dalpha's theta graph, of the 675-vertex ball of
    (2,1,1) (2,1,1) (1,1) and of the 8-cube (eight components of weights
    (1, 0); 256 vertices, 40,320 simplices of dimension 8) are a single
    vertex, so no face lattice of more than one cell is built for them.
    This guards the speed of ``homology``, not its answers."""
    dalpha = parse_theta(load_text("dalpha.theta.json"))
    cube = sphere_theta(*[(1, 0)] * 8)
    for t in [dalpha, sphere_theta((2, 1, 1), (2, 1, 1), (1, 1)), cube]:
        core = _strong_core(build_complex(t).maximal_simplices)
        assert len(core) == 1 and len(core[0]) == 1


def test_empty_complex_is_refused():
    # reduced homology of the empty complex is Z in degree -1, which a
    # report indexed from dimension 0 cannot hold
    with pytest.raises(ValueError, match="empty complex"):
        homology(SimplicialComplex(vertices=[], maximal_simplices=[]))


def test_report_json_fields():
    """The report is the JSON document, its keys in this order."""
    rep = homology(complex_on(6, PROJECTIVE_PLANE))
    assert list(rep) == ["reduced_betti", "torsion", "euler_characteristic"]
    assert json.loads(json.dumps(rep)) == rep
