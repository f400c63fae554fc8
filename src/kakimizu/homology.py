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

Cells are integer ids, numbered one dimension after another from the
empty face, and each cell keeps the list of its facets' ids in
``combinations`` order, whose incidence signs depend only on the position
in the list and the dimension.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import chain, combinations, compress, repeat

from .kcomplex import SimplicialComplex

__all__ = ["homology", "smith_diagonal"]


def smith_diagonal(rows: list[list[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form of an integer matrix, in
    divisor-chain order.  An entry of least absolute value is the pivot,
    and its row and column are reduced modulo it; a remainder is a smaller
    pivot.  A pivot left alone in its row and column is finished once it
    divides every entry, so it is recorded and its row and column deleted;
    until then the row of an entry it fails to divide is added to its own."""
    mat = [row[:] for row in rows if any(row)]
    diag: list[int] = []
    while mat:
        least = min(abs(v) for row in mat for v in row if v)
        i, j = next((i, j) for i, row in enumerate(mat)
                    for j, v in enumerate(row) if abs(v) == least)
        pivot = mat[i]
        p = pivot[j]
        for row in mat:
            if row is not pivot and (q := row[j] // p):
                row[:] = [a - q * b for a, b in zip(row, pivot)]
        for k, v in enumerate(pivot):
            if k != j and (q := v // p):
                for row in mat:
                    row[k] -= q * row[j]
        if sum(map(bool, pivot)) > 1 or sum(bool(row[j]) for row in mat) > 1:
            continue  # a remainder is left, and it is a smaller pivot
        # a unit divides every entry; a larger pivot is checked against each
        bad = least > 1 and next((row for row in mat if any(v % p for v in row)), None)
        if bad:
            pivot[:] = [a + b for a, b in zip(pivot, bad)]
            continue
        diag.append(least)
        del mat[i]
        for row in mat:
            del row[j]
        mat = [row for row in mat if any(row)]
    return diag


def _facet_sign(j: int, k: int) -> int:
    """Incidence sign of the j-th facet of a k-cell, facets listed as
    ``combinations(face, k)`` lists them.  Dropping the i-th vertex has sign
    (-1)**i, and combinations drop the last vertex first."""
    return -1 if (k - j) & 1 else 1


def _lattice(simplices) -> tuple[list[range], list[list[int]]]:
    """Global cell ids and facets of the augmented chain complex of the
    complex whose maximal simplices are ``simplices``.

    The faces of one size are the listed simplices of that size and the
    facets of the faces one size up, found from the top down; each simplex
    is sorted first, so a face has one name however it is listed.  Cell 0
    is the empty face, then come the vertices, the edges and so on, each
    dimension in sorted order.  Returns the ids of each dimension from 0 up
    and the ids of each cell's facets in ``combinations`` order.
    """
    top = max(map(len, simplices), default=0)
    if not top:
        # reduced H_{-1} of the empty complex is Z, and a report indexed
        # from dimension 0 has no place for it
        raise ValueError("homology of the empty complex is not reported")
    by_size: list[list[tuple[int, ...]]] = []  # sizes top, top - 1, ..., 1
    upper: list[tuple[int, ...]] = []
    for size in range(top, 0, -1):
        faces = set(chain.from_iterable(map(combinations, upper, repeat(size))))
        faces.update(tuple(sorted(s)) for s in simplices if len(s) == size)
        upper = sorted(faces)
        by_size.append(upper)
    dims: list[range] = []
    facets: list[list[int]] = [[]]
    lower = {(): 0}
    for size, faces in enumerate(reversed(by_size), 1):
        get = lower.__getitem__
        ids = range(len(facets), len(facets) + len(faces))
        facets.extend([list(map(get, combinations(f, size - 1))) for f in faces])
        dims.append(ids)
        lower = dict(zip(faces, ids))
    return dims, facets


def _check_boundary_squared(dims: list[range], facets: list[list[int]]) -> None:
    """Raise unless the boundary of the boundary of every cell is zero: each
    codimension-2 face, reached through two facets, must cancel."""
    for k in range(1, len(dims)):
        signs = [[_facet_sign(i, k) * _facet_sign(j, k - 1) for j in range(k)]
                 for i in range(k + 1)]
        for g in dims[k]:
            total: dict[int, int] = {}
            for i, f in enumerate(facets[g]):
                for j, h in enumerate(facets[f]):
                    total[h] = total.get(h, 0) + signs[i][j]
            if any(total.values()):
                raise AssertionError(
                    f"the boundary of a boundary is not zero in dimension {k}"
                )


def _coreduce(facets: list[list[int]]) -> bytearray:
    """Live flags of the cells left by coreduction.

    The empty face, cell 0, pairs with the least vertex, cell 1; then a
    cell with exactly one live facet pairs with that facet, and both die.
    Such a cell's boundary on the live cells is a unit times the facet, so
    deleting the pair needs no change to any other boundary (no fill) and
    leaves the homology as it was.  Candidates wait in a first-in first-out
    queue, which pairs off far more cells than a stack does.
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
    kill(1)
    while queue:
        a = queue.popleft()
        if live[a] and count[a] == 1:
            kill(a)
            kill(next(f for f in facets[a] if live[f]))
    return live


def _strong_core(simplices) -> list[frozenset]:
    """The maximal simplices left once no vertex is dominated.  Vertex v is
    dominated by w when every maximal simplex that holds v holds w; then v
    is deleted, each simplex of its star shrinking to its face without v,
    kept where no live simplex contains it.  This keeps the homotopy type
    (Barmak and Minian, *Strong homotopy types, nerves and collapses*,
    2012).  ``star[v]`` holds the ids of the live simplices that hold v.  A
    shrunk face holds w, so a live simplex holding it lies in ``star[w] &
    star[x]`` for x in the face, or in all its stars if ``star[w]`` is long."""
    live: dict[int, frozenset] = {}
    star: dict[int, set[int]] = defaultdict(set)
    i = 0
    # larger first, dropping listed faces; one of the largest size is maximal
    listed = sorted(dict.fromkeys(map(frozenset, simplices)), key=len, reverse=True)
    for s in listed:
        if s and (len(s) == len(listed[0])
                  or not set.intersection(*[star[x] for x in s])):
            live[i] = s
            for x in s:
                star[x].add(i)
            i += 1
    queue = deque(sorted(star))  # vertices wait first in, first out
    while queue and len(star) > 1:
        v = queue.popleft()
        mine = star.get(v)
        for w in live[min(mine)] if mine else ():
            if w != v and mine <= star[w]:
                break
        else:
            continue
        gone = [live.pop(j) for j in mine]
        del star[v]
        touched = set().union(*gone) - {v}
        for x in touched:
            star[x] -= mine
        for s in gone:
            s = s - {v}
            near = star[w]
            if len(near) > 32:  # too many to scan: intersect every star
                near = set.intersection(*sorted(map(star.__getitem__, s), key=len))
                if near:
                    continue
            else:
                for x in s:
                    if x != w:
                        near = near & star[x]
                        break
            for j in near:
                if s <= live[j]:
                    break
            else:
                live[i] = s
                for x in s:
                    star[x].add(i)
                i += 1
        queue.extend(sorted(touched))
    return list(live.values())


def homology(c: SimplicialComplex) -> dict:
    """Reduced homology of ``c``, from the chain complex of its strong core,
    which has the same homotopy type, hence the same reduced betti numbers,
    torsion and Euler characteristic; dimensions above its own are empty."""
    report = _chain_homology(_strong_core(c.maximal_simplices))
    pad = max(map(len, c.maximal_simplices)) - len(report["reduced_betti"])
    report["reduced_betti"] += [0] * pad
    report["torsion"] += [[] for _ in range(pad)]
    return report


def _chain_homology(simplices) -> dict:
    """Reduced homology from the augmented chain complex of the complex
    whose maximal simplices are ``simplices``: the reduced betti number and
    the torsion coefficients of each dimension, and the Euler
    characteristic, the alternating sum of the face counts."""
    dims, facets = _lattice(simplices)
    euler = sum((-1) ** k * len(ids) for k, ids in enumerate(dims))
    _check_boundary_squared(dims, facets)
    live = _coreduce(facets)

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
                for i, f in enumerate(facets[g]):
                    if live[f]:
                        dense[row[f]][j] = _facet_sign(i, k)
            diag = smith_diagonal(dense)
        diags.append(diag)
    diags.append([])
    betti = [
        len(survivors[k]) - len(diags[k]) - len(diags[k + 1])
        for k in range(len(dims))
    ]
    torsion = [[d for d in diags[k + 1] if d > 1] for k in range(len(dims))]
    return {"reduced_betti": betti, "torsion": torsion, "euler_characteristic": euler}
