"""Reduced integer homology of simplicial complexes.

The chain complex is augmented by the empty face in dimension -1, so all
betti numbers below are reduced: a cone has none.  Before any matrix is
built the whole complex is reduced by coreductions (Kaczynski, Mrozek and
Ślusarek, *Homology computation by reduction of chain complexes*, 1998;
Mrozek and Batko, *Coreduction homology algorithm*, 2009): a cell whose
boundary on the cells still alive is a single facet is deleted together
with that facet.  On the complexes of theta graphs this pairs off every
cell.  Whatever survives keeps its original boundary restricted to the
survivors, and each of those matrices goes through a dense Smith normal
form with exact integer arithmetic, so torsion is reported exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, combinations, compress, repeat
from operator import itemgetter

from .kcomplex import SimplicialComplex

__all__ = ["HomologyReport", "homology", "smith_diagonal"]


@dataclass
class HomologyReport:
    betti: list[int]  # reduced, indexed by dimension
    torsion: list[list[int]]  # torsion coefficients per dimension
    euler: int  # alternating sum of face counts

    def is_trivial(self) -> bool:
        return all(b == 0 for b in self.betti) and all(
            not t for t in self.torsion
        )

    def to_json(self) -> dict:
        return {
            "reduced_betti": list(self.betti),
            "torsion": [list(t) for t in self.torsion],
            "euler_characteristic": self.euler,
        }


def smith_diagonal(rows: list[list[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form of an integer matrix."""
    mat = [row[:] for row in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    diag: list[int] = []
    top = 0
    while True:
        pivot = None
        for i in range(top, m):
            for j in range(top, n):
                v = mat[i][j]
                if v and (pivot is None or abs(v) < abs(pivot[2])):
                    pivot = (i, j, v)
        if pivot is None:
            break
        pi, pj, _ = pivot
        mat[top], mat[pi] = mat[pi], mat[top]
        for row in mat:
            row[top], row[pj] = row[pj], row[top]
        while True:
            p = mat[top][top]
            dirty = False
            for i in range(top + 1, m):
                q = mat[i][top] // p
                if q:
                    for j in range(top, n):
                        mat[i][j] -= q * mat[top][j]
                if mat[i][top]:
                    # remainder smaller than the pivot: swap it up and redo
                    mat[top], mat[i] = mat[i], mat[top]
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(top + 1, n):
                q = mat[top][j] // p
                if q:
                    for i in range(top, m):
                        mat[i][j] -= q * mat[i][top]
                if mat[top][j]:
                    for i in range(top, m):
                        mat[i][top], mat[i][j] = mat[i][j], mat[i][top]
                    dirty = True
                    break
            if not dirty:
                break
        # the pivot must divide the rest of the matrix for true SNF
        p = mat[top][top]
        fixed = True
        for i in range(top + 1, m):
            for j in range(top + 1, n):
                if mat[i][j] % p:
                    for k in range(top, n):
                        mat[top][k] += mat[i][k]
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        diag.append(abs(p))
        top += 1
    return diag


def _faces_by_dim(c: SimplicialComplex) -> list[list[tuple[int, ...]]]:
    """The non-empty faces of ``c``, one sorted list per dimension, found
    from the top down: the faces of one size are the maximal simplices of
    that size and the facets of the faces one size up.  Each maximal
    simplex is sorted first, so a face has one name however it is listed."""
    top = max(map(len, c.maximal_simplices), default=0)
    if not top:
        # reduced H_{-1} of the empty complex is Z, and a report indexed
        # from dimension 0 has no place for it
        raise ValueError("homology of the empty complex is not reported")
    by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(top)]
    upper: list[tuple[int, ...]] = []
    for size in range(top, 0, -1):
        faces = set(chain.from_iterable(map(combinations, upper, repeat(size))))
        faces.update(tuple(sorted(s)) for s in c.maximal_simplices if len(s) == size)
        upper = by_dim[size - 1] = sorted(faces)
    return by_dim


def _facet_signs(size: int) -> list[int]:
    """Incidence signs of the facets of a face with ``size`` vertices, listed
    as ``combinations(face, size - 1)`` lists them.  Dropping the i-th
    vertex has sign (-1)**i, and combinations drop the last vertex first."""
    return [-1 if (size - 1 - j) & 1 else 1 for j in range(size)]


def _lattice(
    by_dim: list[list[tuple[int, ...]]],
) -> tuple[list[range], list[list[int]], list[list[int]]]:
    """Global cell ids and signed facets of the augmented chain complex.

    Cell 0 is the empty face, then come the vertices, the edges and so on,
    each dimension in the order of ``by_dim``.  Returns the ids of each
    dimension from 0 up, the ids of each cell's facets in ``combinations``
    order, and per dimension the signs of those facets.
    """
    dims: list[range] = []
    facets: list[list[int]] = [[]]
    lower = {(): 0}
    for size, faces in enumerate(by_dim, 1):
        get = lower.__getitem__
        ids = range(len(facets), len(facets) + len(faces))
        facets.extend([list(map(get, combinations(f, size - 1))) for f in faces])
        dims.append(ids)
        lower = dict(zip(faces, ids))
    signs = [_facet_signs(size) for size in range(1, len(by_dim) + 1)]
    return dims, facets, signs


def _check_boundary_squared(
    dims: list[range], facets: list[list[int]], signs: list[list[int]]
) -> None:
    """Raise unless the codimension-2 faces of every cell cancel.

    Facets are listed in ``combinations`` order, so the terms of the
    boundary of a boundary come in pairs at positions that depend on the
    dimension only: the j-th facet of the i-th facet and the j'-th facet of
    the i'-th drop the same two vertices.  In each dimension every pair
    must carry opposite signs and, in every cell, the same face id; then
    each cell's codimension-2 faces cancel pair by pair.  The ids are
    compared a whole dimension at a time.
    """
    for k in range(1, len(dims)):
        size = k + 1
        where: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for i, f in enumerate(combinations(range(size), size - 1)):
            for j, h in enumerate(combinations(f, size - 2)):
                where.setdefault(h, []).append((i, j))
        cells = facets[dims[k].start : dims[k].stop]
        # below[i][x]: the facets of the i-th facet of the x-th cell
        below = [
            list(map(facets.__getitem__, map(itemgetter(i), cells)))
            for i in range(size)
        ]
        for (i, j), (i2, j2) in where.values():
            cancel = signs[k][i] * signs[k - 1][j] == -signs[k][i2] * signs[k - 1][j2]
            first = list(map(itemgetter(j), below[i]))
            if not cancel or first != list(map(itemgetter(j2), below[i2])):
                raise AssertionError(
                    f"the boundary of a boundary is not zero in dimension {k}"
                )


def _coreduce(first_vertex: int, facets: list[list[int]]) -> bytearray:
    """Live flags of the cells left by coreduction.

    The empty face pairs with the least vertex; then a cell with exactly
    one live facet pairs with that facet, and both die.  Such a cell's
    boundary on the live cells is a unit times the facet, so deleting the
    pair needs no change to any other boundary (no fill) and leaves the
    homology as it was.  Candidates wait in a first-in first-out queue,
    which pairs off far more cells than a stack does.
    """
    n = len(facets)
    cofacets: list[list[int]] = [[] for _ in range(n)]
    for g, fs in enumerate(facets):
        for f in fs:
            cofacets[f].append(g)
    count = [len(fs) for fs in facets]
    live = bytearray(b"\x01") * n
    queue: deque[int] = deque()

    def kill(x: int) -> None:
        live[x] = 0
        for y in cofacets[x]:
            if live[y]:
                count[y] -= 1
                if count[y] == 1:
                    queue.append(y)

    kill(0)
    kill(first_vertex)
    while queue:
        a = queue.popleft()
        if live[a] and count[a] == 1:
            kill(a)
            kill(next(f for f in facets[a] if live[f]))
    return live


def homology(c: SimplicialComplex) -> HomologyReport:
    """Reduced homology from the augmented chain complex."""
    by_dim = _faces_by_dim(c)
    f_counts = [len(fs) for fs in by_dim]
    euler = sum((-1) ** k * f_counts[k] for k in range(len(f_counts)))
    dims, facets, signs = _lattice(by_dim)
    _check_boundary_squared(dims, facets, signs)
    live = _coreduce(dims[0].start, facets)

    # the residue's boundary is the original one restricted to live cells;
    # diags[k] is the Smith diagonal of the boundary out of dimension k,
    # and the empty face is dead, so vertices bound nothing
    survivors = [list(compress(ids, live[ids.start : ids.stop])) for ids in dims]
    diags: list[list[int]] = [[]]
    for k in range(1, len(dims)):
        lower, upper = survivors[k - 1], survivors[k]
        diag: list[int] = []
        if lower and upper:
            row = {f: i for i, f in enumerate(lower)}
            dense = [[0] * len(upper) for _ in lower]
            for j, g in enumerate(upper):
                for f, s in zip(facets[g], signs[k]):
                    if live[f]:
                        dense[row[f]][j] = s
            diag = smith_diagonal(dense)
        diags.append(diag)
    diags.append([])
    betti = [
        len(survivors[k]) - len(diags[k]) - len(diags[k + 1])
        for k in range(len(by_dim))
    ]
    torsion = [[d for d in diags[k + 1] if d > 1] for k in range(len(by_dim))]
    return HomologyReport(betti=betti, torsion=torsion, euler=euler)
