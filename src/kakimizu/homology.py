"""Reduced integer homology of simplicial complexes.

The chain complex is augmented by the empty face in dimension -1, so all
betti numbers below are reduced: a cone has none.  First dominated
vertices are deleted, a strong collapse that keeps the homotopy type
(Boissonnat, Pritam and Pareek, *Strong collapse for persistence*, 2018);
each theta complex tried collapses to a vertex.  The faces of the rest are
reduced by coreductions (Kaczynski, Mrozek and Ślusarek, *Homology
computation by reduction of chain complexes*, 1998; Mrozek and Batko,
*Coreduction homology algorithm*, 2009): a cell whose boundary on the
cells still alive is a single facet is deleted together with that facet.
Whatever survives keeps its original boundary restricted to the survivors,
and each of those matrices goes through a dense Smith normal form with
exact integer arithmetic, so torsion is reported exactly.

Cells are integer ids, and the facets of the k-cells sit in one flat list
per dimension, k + 1 ids per cell, so ``flat[k][i::k + 1]`` is the i-th
facet of every k-cell.  The ids and the coreduction order are those of
per-cell facet lists, so the same cells survive.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, combinations, compress, count, repeat

from .kcomplex import SimplicialComplex
from .record import Record

__all__ = ["HomologyReport", "homology", "smith_diagonal"]


class HomologyReport(Record):
    def __init__(self, betti: list[int], torsion: list[list[int]], euler: int):
        self.betti = betti  # reduced, indexed by dimension
        self.torsion = torsion  # torsion coefficients per dimension
        self.euler = euler  # alternating sum of face counts; the strong core's is the same

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
) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Global cell ids and signed facets of the augmented chain complex.

    Cell 0 is the empty face, then come the vertices, the edges and so on,
    each dimension in the order of ``by_dim``.  Returns the id of the first
    cell of each dimension from 0 up, followed by the cell count; per
    dimension k one flat list of the ids of the facets of every k-cell,
    k + 1 per cell in ``combinations`` order; and per dimension the signs
    of those facets.
    """
    offsets = [1]
    flat: list[list[int]] = []
    lower = {(): 0}
    for size, faces in enumerate(by_dim, 1):
        facets = chain.from_iterable(map(combinations, faces, repeat(size - 1)))
        flat.append(list(map(lower.__getitem__, facets)))
        ids = range(offsets[-1], offsets[-1] + len(faces))
        offsets.append(ids.stop)
        lower = dict(zip(faces, ids))
    signs = [_facet_signs(size) for size in range(1, len(by_dim) + 1)]
    return offsets, flat, signs


def _check_boundary_squared(
    offsets: list[int], flat: list[list[int]], signs: list[list[int]]
) -> None:
    """Raise unless the codimension-2 faces of every cell cancel.

    Facets are listed in ``combinations`` order, so the terms of the
    boundary of a boundary come in pairs at positions that depend on the
    dimension only: the j-th facet of the i-th facet and the j'-th facet of
    the i'-th drop the same two vertices.  In each dimension every pair
    must carry opposite signs and, in every cell, the same face id; then
    each cell's codimension-2 faces cancel pair by pair.  The ids are
    compared a whole column of the flat facet lists at a time.
    """
    for k in range(1, len(flat)):
        size = k + 1
        where: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for i, f in enumerate(combinations(range(size), size - 1)):
            for j, h in enumerate(combinations(f, size - 2)):
                where.setdefault(h, []).append((i, j))
        # column i: the i-th facet of every k-cell; below[j][f]: the j-th
        # facet of the (k-1)-cell f, padded so that a global id indexes it
        column = [flat[k][i::size] for i in range(size)]
        pad = [0] * offsets[k - 1]
        below = [(pad + flat[k - 1][j::k]).__getitem__ for j in range(k)]
        for (i, j), (i2, j2) in where.values():
            cancel = signs[k][i] * signs[k - 1][j] == -signs[k][i2] * signs[k - 1][j2]
            if not cancel or list(map(below[j], column[i])) != list(
                map(below[j2], column[i2])
            ):
                raise AssertionError(
                    f"the boundary of a boundary is not zero in dimension {k}"
                )


def _coreduce(offsets: list[int], flat: list[list[int]]) -> bytearray:
    """Live flags of the cells left by coreduction.

    The empty face pairs with the least vertex; then a cell with exactly
    one live facet pairs with that facet, and both die.  Such a cell's
    boundary on the live cells is a unit times the facet, so deleting the
    pair needs no change to any other boundary (no fill) and leaves the
    homology as it was.  Candidates wait in a first-in first-out queue,
    which pairs off far more cells than a stack does.
    """
    n = offsets[-1]
    cofacets: list[list[int]] = [[] for _ in range(n)]
    count = [0]  # live facets per cell; the empty face has none
    dim = bytearray(1)
    for k, ids in enumerate(flat):
        cells, size = range(offsets[k], offsets[k + 1]), k + 1
        for f, g in zip(ids, chain.from_iterable(map(repeat, cells, repeat(size)))):
            cofacets[f].append(g)
        count += repeat(size, len(cells))
        dim += bytes([k]) * len(cells)
    live = bytearray(b"\x01") * n
    # the least vertex's one facet is the empty face
    queue = deque([offsets[0]])
    while queue:
        a = queue.popleft()
        if live[a] and count[a] == 1:
            k = dim[a]
            row = (a - offsets[k]) * (k + 1)
            for b in flat[k][row : row + k + 1]:
                if live[b]:
                    break
            for x in (a, b):
                live[x] = 0
                for y in cofacets[x]:
                    if live[y]:
                        count[y] -= 1
                        if count[y] == 1:
                            queue.append(y)
    return live


def _strong_core(simplices) -> list[frozenset]:
    """The maximal simplices left once no vertex is dominated.  Vertex v is
    dominated by w when every maximal simplex that holds v holds w; then v
    is deleted, each simplex of its star shrinking to its face without v,
    kept where no live simplex contains it.  This keeps the homotopy type
    (Barmak and Minian, *Strong homotopy types, nerves and collapses*,
    2012).  ``star[v]`` holds the ids of the live simplices that hold v, so
    a simplex lies in a live one exactly when the stars of its vertices
    meet.  Vertices wait first in, first out."""
    live: dict[int, frozenset] = {}
    star: dict[int, set[int]] = {}
    ids, nowhere = count(), set()

    def inside(s: frozenset) -> set[int]:
        return set.intersection(*sorted(map(star.get, s, repeat(nowhere)), key=len))

    def add(s: frozenset) -> None:
        live[i := next(ids)] = s
        for v in s:
            star.setdefault(v, set()).add(i)

    # larger first, dropping listed faces; one of the largest size is maximal
    listed = sorted(dict.fromkeys(map(frozenset, simplices)), key=len, reverse=True)
    for s in listed:
        if s and (len(s) == len(listed[0]) or not inside(s)):
            add(s)
    queue = deque(sorted(star))
    while queue and len(star) > 1:
        v = queue.popleft()
        mine = star.get(v)
        if not mine or not any(mine <= star[w] for w in live[min(mine)] - {v}):
            continue
        gone = [live.pop(i) for i in mine]
        del star[v]
        touched = set().union(*gone) - {v}
        for w in touched:
            star[w] -= mine
        for s in gone:
            if not inside(s := s - {v}):  # not empty: v is dominated
                add(s)
        queue.extend(sorted(touched))
    return list(live.values())


def homology(c: SimplicialComplex) -> HomologyReport:
    """Reduced homology of ``c``, from the chain complex of its strong core,
    which has the same homotopy type, hence the same reduced betti numbers,
    torsion and Euler characteristic; dimensions above its own are empty."""
    core = _strong_core(c.maximal_simplices)
    label = {v: i for i, v in enumerate(sorted(set().union(*core)))}
    core = [sorted(map(label.__getitem__, s)) for s in core]
    report = _chain_homology(SimplicialComplex(list(range(len(label))), core))
    pad = max(map(len, c.maximal_simplices)) - len(report.betti)
    report.betti += [0] * pad
    report.torsion += [[] for _ in range(pad)]
    return report


def _chain_homology(c: SimplicialComplex) -> HomologyReport:
    """Reduced homology from the augmented chain complex."""
    by_dim = _faces_by_dim(c)
    f_counts = [len(fs) for fs in by_dim]
    euler = sum((-1) ** k * f_counts[k] for k in range(len(f_counts)))
    offsets, flat, signs = _lattice(by_dim)
    del by_dim  # free the face tuples: cells are ids from here on
    _check_boundary_squared(offsets, flat, signs)
    live = _coreduce(offsets, flat)

    # the residue's boundary is the original one restricted to live cells;
    # diags[k] is the Smith diagonal of the boundary out of dimension k,
    # and the empty face is dead, so vertices bound nothing
    survivors = [
        list(compress(range(lo, hi), live[lo:hi]))
        for lo, hi in zip(offsets, offsets[1:])
    ]
    diags: list[list[int]] = [[]]
    for k in range(1, len(flat)):
        lower, upper = survivors[k - 1], survivors[k]
        diag: list[int] = []
        if lower and upper:
            row = {f: i for i, f in enumerate(lower)}
            dense = [[0] * len(upper) for _ in lower]
            for j, g in enumerate(upper):
                start = (g - offsets[k]) * (k + 1)
                for f, s in zip(flat[k][start : start + k + 1], signs[k]):
                    if live[f]:
                        dense[row[f]][j] = s
            diag = smith_diagonal(dense)
        diags.append(diag)
    diags.append([])
    betti = [
        len(survivors[k]) - len(diags[k]) - len(diags[k + 1])
        for k in range(len(flat))
    ]
    torsion = [[d for d in diags[k + 1] if d > 1] for k in range(len(flat))]
    return HomologyReport(betti=betti, torsion=torsion, euler=euler)
