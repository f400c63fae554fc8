"""Every connected bipartite plane map up to n edges, counted against Tutte.

A special alternating diagram is the medial of its black-region graph, a
connected bipartite plane multigraph, so enumerating those maps enumerates
the diagrams.

A map with n edges is a permutation ``sigma`` of the darts 0..2n-1: the
next dart anticlockwise at the same vertex.  The edge involution is
d -> d ^ 1, so edge e has darts 2e and 2e + 1.  The faces are the cycles of
d -> sigma[d ^ 1], and the corner after dart x (between x and sigma[x]) lies
in the face of x ^ 1.

Each map with n - 1 edges grows by one edge in every way: a pendant edge
after any dart, or a chord between two corners of one face at vertices of
opposite colour.  Every connected bipartite map with n edges is reached:
it is a tree with a leaf, or it has an edge that is no bridge, whose
deletion merges two faces into one that holds both of its ends.  Duplicates are dropped by the
least BFS code over root darts.  The roots that reach that code are one
orbit of the orientation-preserving automorphisms, which act freely on the
darts, so the maps with n edges have 2n / |Aut+| rootings each.  Their sum
is Tutte's count of rooted bipartite planar maps (*A census of planar
maps*, Canad. J. Math. 15, 1963; OEIS A000257).

Run as ``python3 tests/census.py N`` (with ``src`` on the path or the
package installed) to enumerate to N edges, check the counts and send
every map through the diagram pipeline; it prints one line per edge count
and exits 1 on a wrong count.
"""

from __future__ import annotations

import sys
from math import comb

from kakimizu.diagram import validate
from kakimizu.families import build_graph
from kakimizu.kcomplex import build_complex, flag_check
from kakimizu.medial import medial
from kakimizu.structure import ball_report
from kakimizu.theta import theta_pipeline

__all__ = ["VALID", "census", "pipeline", "rooted", "tutte"]

# diagrams that meet all six validate flags, by crossing count, as an
# earlier enumerator of the same maps counted them (18,985 maps at 9 edges)
VALID = {2: 1, 3: 1, 4: 1, 5: 2, 6: 4, 7: 7, 8: 22, 9: 56}

FLAGS = ("connected", "alternating", "special", "reduced", "prime", "cuttable_region_exists")


def tutte(n: int) -> int:
    """The number of rooted bipartite planar maps with ``n`` edges."""
    return 3 * 2 ** (n - 1) * comb(2 * n, n) // ((n + 1) * (n + 2))


def orbits(perm: list[int]) -> list[list[int]]:
    """The cycles of a permutation of 0..len(perm)-1, each from its least
    element."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = perm[x]
        if cycle:
            out.append(cycle)
    return out


def faces(sigma: list[int]) -> list[list[int]]:
    """The faces, as cycles of the darts each face leaves along."""
    return orbits([sigma[d ^ 1] for d in range(len(sigma))])


def colours(sigma: list[int]) -> list[int]:
    """The colour, 0 or 1, of each dart's vertex; dart 0's vertex has 0."""
    colour = [-1] * len(sigma)
    colour[0] = 0
    stack = [0]
    while stack:
        x = stack.pop()
        for y, c in ((sigma[x], colour[x]), (x ^ 1, 1 - colour[x])):
            if colour[y] < 0:
                colour[y] = c
                stack.append(y)
            elif colour[y] != c:
                raise ValueError("map is not bipartite")
    return colour


def children(sigma: list[int]):
    """Every map with one edge more, darts len(sigma) and len(sigma) + 1."""
    a, b = len(sigma), len(sigma) + 1
    for x in range(len(sigma)):  # a pendant edge after x
        child = sigma + [sigma[x], b]
        child[x] = a
        yield child
    colour = colours(sigma)
    for face in faces(sigma):
        corners = [d ^ 1 for d in face]  # the darts the face's corners follow
        for i, x in enumerate(corners):
            for y in corners[i + 1:]:
                if colour[x] != colour[y]:  # a chord from after x to after y
                    child = sigma + [sigma[x], sigma[y]]
                    child[x], child[y] = a, b
                    yield child


def canonical(sigma: list[int]) -> tuple[tuple[int, ...], int]:
    """The least BFS code over root darts, and how many roots reach it.

    From a root, darts are labelled in the order a breadth-first search
    over sigma and d -> d ^ 1 reaches them; the code lists, for each dart
    in label order, the labels of its images under both.
    """
    m = len(sigma)
    best, count = None, 0
    for root in range(m):
        label = [-1] * m
        label[root] = 0
        order = [root]
        code = []
        for x in order:  # grows as the search goes
            for y in (sigma[x], x ^ 1):
                if label[y] < 0:
                    label[y] = len(order)
                    order.append(y)
                code.append(label[y])
        code = tuple(code)
        if best is None or code < best:
            best, count = code, 1
        elif code == best:
            count += 1
    return best, count


def census(n_max: int) -> dict[int, list[tuple[list[int], int]]]:
    """The maps with 1..``n_max`` edges up to orientation-preserving
    isomorphism, each as (sigma, |Aut+|), by edge count."""
    levels = {1: [([0, 1], 2)]}
    for n in range(2, n_max + 1):
        found: dict[tuple[int, ...], tuple[list[int], int]] = {}
        for sigma, _ in levels[n - 1]:
            for child in children(sigma):
                code, aut = canonical(child)
                found.setdefault(code, (child, aut))
        levels[n] = list(found.values())
    return levels


def rooted(maps: list[tuple[list[int], int]]) -> int:
    """The number of rooted maps: 2n / |Aut+| rootings of each."""
    total = 0
    for sigma, aut in maps:
        if len(sigma) % aut:
            raise ValueError(f"|Aut+| = {aut} does not divide {len(sigma)} darts")
        total += len(sigma) // aut
    return total


def black_graph(sigma: list[int]):
    """The map as an embedded graph through ``build_graph``: vertex i is
    the i-th cycle of sigma, +1 for dart 0's colour, and edge e joins
    the vertices of darts 2e and 2e + 1."""
    vertices = orbits(sigma)
    vertex_of = {d: v for v, cycle in enumerate(vertices) for d in cycle}
    colour = colours(sigma)
    return build_graph(
        classes={v: 1 - 2 * colour[cycle[0]] for v, cycle in enumerate(vertices)},
        endpoints={e: (vertex_of[2 * e], vertex_of[2 * e + 1]) for e in range(len(sigma) // 2)},
        rotations={v: [d >> 1 for d in cycle] for v, cycle in enumerate(vertices)},
    )


def pipeline(sigma: list[int]) -> bool:
    """Sends a map with at least 2 edges through ``medial`` and
    ``validate``; a diagram that meets all six flags also goes through
    ``theta_pipeline``, ``build_complex``, ``ball_report`` and
    ``flag_check``.  Returns whether it met them; raises ``ValueError``
    when a check fails."""
    d = medial(black_graph(sigma))
    report = validate(d)
    if not report["connected"]:
        raise ValueError(f"medial of {sigma} read as disconnected")
    if not all(report[flag] for flag in FLAGS):
        return False
    t = theta_pipeline(d)
    c = build_complex(t)
    if not ball_report(t, c)["ok"] or not flag_check(c):
        raise ValueError(f"complex of the medial of {sigma} fails a structure check")
    return True


def main(argv: list[str]) -> int:
    n_max = int(argv[1]) if len(argv) > 1 else 7
    wrong = 0
    for n, maps in census(n_max).items():
        count = rooted(maps)
        valid = sum(pipeline(sigma) for sigma, _ in maps) if n >= 2 else 0
        bad = count != tutte(n) or valid != VALID.get(n, valid)
        wrong += bad
        print(f"n={n}: {len(maps)} maps, {count} rooted (Tutte {tutte(n)}), "
              f"{valid} valid diagrams{'  WRONG' if bad else ''}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
