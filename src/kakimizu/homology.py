"""Reduced integer homology of simplicial complexes.

Boundary matrices are mostly eliminated with unit pivots in a sparse
representation, taken from a priority queue in Markowitz order; whatever
core survives without a unit entry goes through a dense Smith normal form
with exact integer arithmetic, so torsion is reported exactly.  The chain
complex is augmented, so all betti numbers below are reduced: a cone has
none.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

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


def _eliminate(rows: dict[int, dict[int, int]]) -> tuple[int, list[int]]:
    """Rank and nontrivial elementary divisors of a sparse integer matrix.

    Unit entries pivot first, in Markowitz order: the row with fewest
    entries, then its unit entry whose column has fewest entries, keeps
    fill low.  Rows and columns a unit pivot clears contribute divisor 1.
    Candidates wait in a priority queue keyed ``(len(row), len(column))``
    and are re-keyed lazily: a popped key that no longer matches its live
    row and column goes back with the current key.  An elimination
    changes only the rows in the pivot column, so only those are queued
    again; no other row can gain a unit, and any that has one still has
    an entry, perhaps stale, in the queue.
    The unit-free residue is small and goes through ``smith_diagonal``.
    """
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)

    def key(i: int) -> tuple[int, int, int, int] | None:
        row = rows.get(i)
        if row is None:
            return None
        best = None
        for j, v in row.items():
            if v in (1, -1) and (best is None or len(cols[j]) < len(cols[best])):
                best = j
        return None if best is None else (len(row), len(cols[best]), i, best)

    queue = [k for k in map(key, rows) if k is not None]
    heapq.heapify(queue)
    rank = 0
    while queue:
        popped = heapq.heappop(queue)
        live = key(popped[2])
        if live != popped:
            if live is not None:
                heapq.heappush(queue, live)
            continue
        _, _, pi, pj = popped
        prow = rows.pop(pi)
        sign = prow[pj]
        changed = [i for i in cols[pj] if i != pi]
        for i in changed:
            row = rows[i]
            factor = row[pj] * sign
            for j, v in prow.items():
                new = row.get(j, 0) - factor * v
                if new:
                    row[j] = new
                    cols.setdefault(j, set()).add(i)
                else:
                    row.pop(j, None)
                    cols[j].discard(i)
            if not row:
                del rows[i]
        for j in prow:
            cols[j].discard(pi)
        rank += 1
        for i in changed:
            k = key(i)
            if k is not None:
                heapq.heappush(queue, k)
    divisors: list[int] = []
    if rows:
        live_rows = sorted(rows)
        live_cols = sorted({j for row in rows.values() for j in row})
        cindex = {j: k for k, j in enumerate(live_cols)}
        dense = [[0] * len(live_cols) for _ in live_rows]
        for a, i in enumerate(live_rows):
            for j, v in rows[i].items():
                dense[a][cindex[j]] = v
        diag = smith_diagonal(dense)
        rank += len(diag)
        divisors = [d for d in diag if d > 1]
    return rank, divisors


def _faces_by_dim(c: SimplicialComplex) -> list[list[tuple[int, ...]]]:
    faces = c.all_simplices()
    top = max((len(f) for f in faces), default=0)
    if not top:
        # reduced H_{-1} of the empty complex is Z, and a report indexed
        # from dimension 0 has no place for it
        raise ValueError("homology of the empty complex is not reported")
    return [sorted(f for f in faces if len(f) == k) for k in range(1, top + 1)]


def _boundary(
    lower: list[tuple[int, ...]], upper: list[tuple[int, ...]]
) -> dict[int, dict[int, int]]:
    """Signed incidence of ``upper`` faces over ``lower``, as sparse rows."""
    index = {f: i for i, f in enumerate(lower)}
    rows: dict[int, dict[int, int]] = {}
    for j, f in enumerate(upper):
        for omit in range(len(f)):
            sub = f[:omit] + f[omit + 1 :]
            i = index[sub]
            row = rows.setdefault(i, {})
            row[j] = row.get(j, 0) + (-1) ** omit
            if not row[j]:
                del row[j]
    return rows


def _compose(
    a: dict[int, dict[int, int]], b: dict[int, dict[int, int]]
) -> dict[int, dict[int, int]]:
    out: dict[int, dict[int, int]] = {}
    for i, row in a.items():
        acc: dict[int, int] = {}
        for k, v in row.items():
            for j, w in b.get(k, {}).items():
                acc[j] = acc.get(j, 0) + v * w
        acc = {j: x for j, x in acc.items() if x}
        if acc:
            out[i] = acc
    return out


def homology(c: SimplicialComplex) -> HomologyReport:
    """Reduced homology from the augmented chain complex."""
    by_dim = _faces_by_dim(c)
    f_counts = [len(fs) for fs in by_dim]
    euler = sum((-1) ** k * f_counts[k] for k in range(len(f_counts)))

    # boundary[k] maps k-chains to (k-1)-chains; dimension -1 is the
    # augmentation by the empty simplex
    boundaries: list[dict[int, dict[int, int]]] = [
        {0: {j: 1 for j in range(f_counts[0])}}
    ]
    for k in range(1, len(by_dim)):
        boundaries.append(_boundary(by_dim[k - 1], by_dim[k]))

    for k in range(1, len(boundaries)):
        assert not _compose(boundaries[k - 1], boundaries[k])

    results = [_eliminate({i: dict(r) for i, r in b.items()}) for b in boundaries]
    betti = []
    torsion = []
    for k in range(len(by_dim)):
        out_rank = results[k][0]
        in_rank, in_div = (
            results[k + 1] if k + 1 < len(boundaries) else (0, [])
        )
        betti.append(f_counts[k] - out_rank - in_rank)
        torsion.append(list(in_div))
    return HomologyReport(betti=betti, torsion=torsion, euler=euler)
