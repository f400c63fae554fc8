"""Edgewise subdivision, ordered products, and the ball structure.

The complex of a single k-edge component of total weight m is the
edgewise subdivision of a (k-1)-simplex into m^(k-1) pieces.  A
multi-component complex factors as an ordered product of the complexes of
the two sides of any region that touches more than one component; applied
recursively this writes the whole complex as a product of per-component
subdivisions, so it triangulates a ball whose dimension is the sum of
(edge count - 1) over the components -- one less than the region count.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb

from .homology import homology
from .kcomplex import (
    SimplicialComplex,
    build_complex,
    enumerate_vertices,
    order_vertices,
)
from .theta import SPHERE, ThetaGraph, _place, _walk_placements

__all__ = [
    "ball_report",
    "colour_schemes",
    "component_product",
    "esd",
    "ordered_product",
    "split_theta",
    "theta_to_esd_map",
    "validate_order",
    "verify_iso",
]


# -- edgewise subdivision ---------------------------------------------------


def colour_schemes(n: int, m: int, l: int):
    """All m-row matrices of l+1 distinct monotone columns over {0..n}
    whose row-major reading sequence is weakly increasing.

    Yields each matrix as its list of columns, in the lexicographic order
    of the reading sequences.  Each row is weakly increasing, so the
    columns are componentwise ordered and they are distinct exactly when
    every neighbouring pair differs in some row.  The sequence grows one
    entry at a time, tracking the neighbouring pairs still equal; each
    needs its own strict step inside a later or the current row, so a
    branch whose last value is x stops once more than n - x pairs remain.
    The search keeps its own stack, so it needs no deep recursion.
    """
    width = l + 1
    size = m * width
    seq: list[int] = []
    masks = [(1 << l) - 1]  # masks[p]: the pairs still equal before entry p
    y = 0  # the next value to try at entry len(seq)
    while True:
        pos, equal = len(seq), masks[-1]
        if pos == size and not equal:
            yield [tuple(seq[j::width]) for j in range(width)]
        col = pos % width
        left = equal & ~(1 << (col - 1)) if col and y > seq[-1] else equal
        # a larger y leaves no fewer pairs and less room
        if pos < size and y <= n and left.bit_count() <= n - y:
            seq.append(y)
            masks.append(left)
        elif seq:
            y = seq.pop() + 1
            masks.pop()
        else:
            return


def esd(n: int, m: int) -> SimplicialComplex:
    """The edgewise subdivision of the n-simplex with vertices of weight m.

    Vertices are the size-m multisets over {0..n}; the top simplices are
    the colour schemes with n+1 columns.  Counts are checked against the
    closed forms C(n+m, n) and m^n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if m < 1:
        raise ValueError("m must be positive")
    vertices = sorted(itertools.combinations_with_replacement(range(n + 1), m))
    if len(vertices) != comb(n + m, n):
        raise AssertionError("vertex count differs from C(n+m, n)")
    index = {v: i for i, v in enumerate(vertices)}
    maximal = {
        tuple(sorted(index[c] for c in cols)) for cols in colour_schemes(n, m, n)
    }
    if len(maximal) != m**n:
        raise AssertionError("top simplex count differs from m^n")
    return SimplicialComplex(
        vertices=list(vertices),
        maximal_simplices=sorted(list(s) for s in maximal),
    )


def theta_to_esd_map(t: ThetaGraph) -> dict[tuple, tuple]:
    """The bijection from weight vectors of a one-component graph to
    subdivision vertices: list each edge position as often as its weight."""
    if len(t.components) != 1:
        raise ValueError("theta graph must have a single component")
    vertices = enumerate_vertices(t)
    return {u: tuple(j for j, w in enumerate(u) for _ in range(w)) for u in vertices}


# -- isomorphism checking ---------------------------------------------------


def verify_iso(c1: SimplicialComplex, c2: SimplicialComplex, f: dict) -> bool:
    """True iff ``f`` is a vertex bijection carrying the maximal simplices
    of ``c1`` onto those of ``c2``."""
    if set(f) != set(c1.vertices):
        return False
    image = list(f.values())
    if len(set(image)) != len(image) or set(image) != set(c2.vertices):
        return False
    to2 = list(map(c2.index, map(f.__getitem__, c1.vertices)))  # f on indices
    m1 = {frozenset(map(to2.__getitem__, s)) for s in c1.maximal_simplices}
    m2 = set(map(frozenset, c2.maximal_simplices))
    n1, n2 = len(c1.maximal_simplices), len(c2.maximal_simplices)
    return m1 == m2 and len(m1) == n1 == n2


# -- ordered products -------------------------------------------------------


def validate_order(c: SimplicialComplex, key: list[int]) -> list[list[int]]:
    """Every maximal simplex of ``c`` read as a chain in the vertex order
    ``key``, that is sorted by key.  The key must give each vertex of ``c``
    one integer, in vertex order, and separate the vertices of every
    simplex; antisymmetry, transitivity and a support of exactly the
    adjacent pairs then hold by construction."""
    if len(key) != len(c.vertices):
        raise ValueError("complex carries no vertex order")
    chains = [sorted(s, key=key.__getitem__) for s in c.maximal_simplices]
    if any(len({key[i] for i in s}) < len(s) for s in chains):
        raise ValueError("order violates axioms")
    return chains


def _staircases(p: int, q: int):
    """Monotone lattice paths from (0,0) to (p,q), as vertex lists."""
    for xs in itertools.combinations(range(p + q), p):
        steps = set(xs)
        a = b = 0
        path = [(0, 0)]
        for i in range(p + q):
            if i in steps:
                a += 1
            else:
                b += 1
            path.append((a, b))
        yield path


def ordered_product(c1: SimplicialComplex, key1: list[int],
                    c2: SimplicialComplex, key2: list[int]) -> SimplicialComplex:
    """The product complex of ``c1`` and ``c2``, ordered by the vertex keys
    ``key1`` and ``key2``.

    Vertices are pairs; each pair of maximal simplices, read as chains in
    the factor orders, contributes one top simplex per monotone staircase
    through the grid of pairs.  The product carries no order: to iterate,
    order it afresh, as ``component_product`` does.  The pair of the i-th
    and the j-th vertex is the product's vertex ``i * len(c2.vertices) +
    j``, so pairs of sorted, distinct vertex lists come out sorted and
    distinct too.
    """
    chains1 = validate_order(c1, key1)
    chains2 = validate_order(c2, key2)
    n2 = len(c2.vertices)
    vertices = [(u, v) for u in c1.vertices for v in c2.vertices]
    # one int object per vertex, shared by every simplex that holds it
    ids = list(range(len(vertices)))
    stairs: dict[tuple[int, int], list] = {}
    maximal = set()
    for chain1 in chains1:
        rows = [i * n2 for i in chain1]
        for chain2 in chains2:
            shape = (len(chain1) - 1, len(chain2) - 1)
            if shape not in stairs:
                stairs[shape] = list(_staircases(*shape))
            for path in stairs[shape]:
                maximal.add(tuple(sorted([ids[rows[a] + chain2[b]] for a, b in path])))
    return SimplicialComplex(vertices, sorted(list(s) for s in maximal))


# -- splitting at a region --------------------------------------------------


def _restrict(w: tuple[int, ...], t: ThetaGraph, sub: ThetaGraph) -> tuple[int, ...]:
    return tuple(w[t.edge_position[eid]] for eid in sub.global_edge_order)


def split_theta(t: ThetaGraph) -> list[tuple[ThetaGraph, int]]:
    """Cut a multi-component graph along a curve inside one region; returns
    ``[(left, left_cut), (right, right_cut)]``, each side with the id of
    its copy of the cut region.

    The cut region is the lowest-numbered one touching at least two
    components.  A walk of the tree of components and regions from it
    roots one branch at each component touching it.  The branch holding
    the lowest component becomes ``left`` and the rest together become
    ``right``.  Each side is placed by a walk from the cut region, whose
    regions must be those of ``t`` inside that side, one each, with the
    cut region restricted to the side.
    """
    if len(t.components) < 2:
        raise ValueError("cannot split a single-component theta graph")
    wedges = t.wedges
    met = Counter(r for row in wedges.values() for r in set(row))  # components per region
    cut = min(r for r, n in met.items() if n >= 2)
    branch: dict[int, int | None] = {}
    for cid, pl in _walk_placements(wedges, cut).items():  # parents first
        branch[cid] = cid if pl.parent == SPHERE else branch.get(pl.parent)
    lowest = branch.get(t.components[0].id)  # components are sorted by id
    sides = []
    for side in (True, False):
        edges = {
            c.id: c.edges for c in t.components if (branch.get(c.id) == lowest) == side
        }
        sub, region = _place(edges, {cid: wedges[cid] for cid in edges}, cut)
        sides.append((sub, region[cut]))
    return sides


# -- products over all components -------------------------------------------


def component_product(t: ThetaGraph) -> tuple[SimplicialComplex, dict]:
    """The iterated ordered product of the per-component complexes.

    Returns the product complex together with the vertex map sending each
    weight vector of ``t`` to its nested pair of per-side restrictions.
    Splitting happens at regions touching several components, and at each
    level the two factors are ordered by the restricted copies of the
    split region, as the product decomposition requires: each side's
    ``order_vertices`` key, read on its weight-vector complex, is carried
    to its product's vertices through the side's vertex map.
    """
    if len(t.components) <= 1:
        c = build_complex(t)
        return c, {v: v for v in c.vertices}
    sides = []
    for sub, region in split_theta(t):
        p, f = component_product(sub)
        # a one-component side is its own product; a larger side's
        # weight-vector complex is built here and checked against it
        k = p if len(sub.components) == 1 else build_complex(sub)
        if k is not p and not verify_iso(k, p, f):
            raise AssertionError("factor complex does not match its product form")
        key = [0] * len(p.vertices)
        for v, x in zip(k.vertices, order_vertices(k, region)):
            key[p.index(f[v])] = x
        sides.append((sub, p, key, f))
    (tl, left, kl, fl), (tr, right, kr, fr) = sides
    product = ordered_product(left, kl, right, kr)
    f = {
        w: (fl[_restrict(w, t, tl)], fr[_restrict(w, t, tr)])
        for w in enumerate_vertices(t)
    }
    return product, f


# -- ball structure ---------------------------------------------------------


def ball_report(t: ThetaGraph, c: SimplicialComplex) -> dict:
    """The checkable pieces of the ball statement for ``c``, the complex of
    ``t``, and ``ok`` when they all hold: dimension equal to the sum of
    (edge count - 1), purity, and trivial reduced homology with Euler
    characteristic 1.  A graph has one more region than that sum, so the
    region count adds no check."""
    dim, expected, pure = c.dim, sum(comp.k - 1 for comp in t.components), c.is_pure()
    h = homology(c)
    ok = (dim == expected and pure and not any(h["reduced_betti"])
          and not any(h["torsion"]) and h["euler_characteristic"] == 1)
    return {"dimension": dim, "expected_dimension": expected, "pure": pure,
            "region_count": t.region_count, "homology": h, "ok": ok}
