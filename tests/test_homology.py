"""Integer homology: Smith form against sympy, and known complexes."""

import random

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from kakimizu import homology as homology_module
from kakimizu.homology import HomologyReport, homology, smith_diagonal
from kakimizu.homology import _eliminate
from kakimizu.kcomplex import SimplicialComplex


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
    rng = random.Random(seed)
    rows = rng.randint(1, 5)
    cols = rng.randint(1, 5)
    mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
    assert sorted(smith_diagonal(mat)) == sympy_diagonal(mat)


def test_smith_divisibility_chain():
    rng = random.Random(99)
    for _ in range(20):
        mat = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(4)]
        diag = smith_diagonal(mat)
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))


@pytest.mark.parametrize("seed", range(15))
def test_sparse_elimination_matches_dense(seed):
    rng = random.Random(1000 + seed)
    rows = rng.randint(1, 7)
    cols = rng.randint(1, 7)
    mat = [
        [rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(cols)]
        for _ in range(rows)
    ]
    sparse = {
        i: {j: v for j, v in enumerate(row) if v}
        for i, row in enumerate(mat)
        if any(row)
    }
    rank, divisors = _eliminate(sparse)
    diag = smith_diagonal(mat)
    assert rank == len(diag)
    assert sorted(divisors) == sorted(d for d in diag if d > 1)


# -- homology of known complexes -------------------------------------------


def test_single_simplex_is_trivial():
    rep = homology(complex_on(4, [[0, 1, 2, 3]]))
    assert rep.is_trivial()
    assert rep.euler == 1
    assert rep.betti == [0, 0, 0, 0]


def test_two_points():
    rep = homology(complex_on(2, [[0], [1]]))
    assert rep.betti == [1]
    assert rep.euler == 2
    assert not rep.is_trivial()


def test_hollow_triangle_is_a_circle():
    rep = homology(complex_on(3, [[0, 1], [1, 2], [0, 2]]))
    assert rep.betti == [0, 1]
    assert rep.torsion == [[], []]
    assert rep.euler == 0


def test_hollow_tetrahedron_is_a_sphere():
    faces = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    rep = homology(complex_on(4, faces))
    assert rep.betti == [0, 0, 1]
    assert rep.euler == 2


def test_projective_plane_torsion():
    # minimal 6-vertex triangulation of the projective plane
    faces = [
        [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 5], [0, 3, 4],
        [1, 2, 3], [1, 2, 4], [1, 3, 5], [2, 4, 5], [3, 4, 5],
    ]
    # sanity: a closed surface (every edge in exactly two triangles) with
    # euler characteristic 1 is the projective plane
    edge_use = {}
    for f in faces:
        for i in range(3):
            for j in range(i + 1, 3):
                edge_use[(f[i], f[j])] = edge_use.get((f[i], f[j]), 0) + 1
    assert len(edge_use) == 15 and set(edge_use.values()) == {2}
    rep = homology(complex_on(6, faces))
    assert rep.euler == 1
    assert rep.betti == [0, 0, 0]
    assert rep.torsion[1] == [2]
    assert not rep.is_trivial()


def test_boundary_of_boundary_checked_on_large_complexes(monkeypatch):
    """A 500-edge path is a contractible complex; with the signs dropped
    from its boundary matrices, the check that the boundary of a boundary
    vanishes must fire, however many faces there are."""
    path = complex_on(501, [[i, i + 1] for i in range(500)])
    assert homology(path).is_trivial()
    signed = homology_module._boundary

    def unsigned(lower, upper):
        rows = signed(lower, upper)
        return {i: {j: abs(v) for j, v in row.items()} for i, row in rows.items()}

    monkeypatch.setattr(homology_module, "_boundary", unsigned)
    with pytest.raises(AssertionError):
        homology(path)


def test_report_json_fields():
    rep = HomologyReport(betti=[0, 0], torsion=[[], [2]], euler=1)
    doc = rep.to_json()
    assert doc == {
        "reduced_betti": [0, 0],
        "torsion": [[], [2]],
        "euler_characteristic": 1,
    }
    assert not rep.is_trivial()
