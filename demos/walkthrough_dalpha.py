#!/usr/bin/env python3
"""
End-to-end walkthrough on the 15-crossing fixture fixtures/dalpha.json.

Runs the whole pipeline once and prints what each stage produces:

  diagram -> validation flags -> Seifert counts -> black region graph
  -> bigon reduction -> flype-arc augmentation -> theta graph -> regions
  -> simplicial complex -> star of the base vertex -> one neighbouring
  surface realization -> ball report with reduced homology.

Every number printed here is asserted, so the script doubles as a smoke
test: it exits nonzero the moment the fixture and the code disagree.
"""

import itertools
import json
from pathlib import Path

from kakimizu.diagram import parse_diagram, seifert, validate
from kakimizu.kcomplex import build_complex, distance
from kakimizu.structure import ball_report
from kakimizu.surfaces import realize_vertex
from kakimizu.theta import theta_pipeline

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "dalpha.json"


# =============================================================================
# Stage helpers
# =============================================================================

def simplex_cycles(c, idx):
    """All ways to walk a maximal simplex from vertex ``idx`` region by region.

    A maximal simplex can be traversed as a closed walk that starts at any
    of its vertices and adds every region exactly once; each such walk is a
    permutation of the regions whose moves, read off the complex's move
    table, stay inside the simplex.  Returns the walks as vertex tuples
    (start omitted from the end).
    """
    simplex = c.maximal_simplices[idx]
    cycles = set()
    for start in simplex:
        for perm in itertools.permutations(range(c.theta.region_count)):
            walk = [start]
            i = start
            for r in perm:
                i = c.moves[i][r]
                if i not in simplex:
                    break
                walk.append(i)
            else:
                if i == start:
                    cycles.add(tuple(c.vertices[j] for j in walk[:-1]))
    return cycles


# =============================================================================
# Walkthrough
# =============================================================================

def main():
    text = FIXTURE.read_text()
    d = parse_diagram(text)
    print(f"fixture: {FIXTURE.name}, {len(d.crossings)} crossings")

    report = validate(d)
    flags = {k: v for k, v in report.items() if k != "messages"}
    assert all(flags.values()), report["messages"]
    print(f"validation: {json.dumps(flags)}")

    sd = seifert(d)
    print(f"seifert: s={sd['s']} circles, chi={sd['chi']}, genus-like={sd['genus_like']}")
    assert sd["s"] == 10

    t = theta_pipeline(d)  # black regions, bigons, flype arcs, theta graph
    counts = tuple(len(comp.edges) for comp in t.components)
    weights = [[e.weight for e in comp.edges] for comp in t.components]
    print(f"theta: component edge counts {counts}, weights {weights}")
    assert counts == (2, 3)

    u0 = t.weights()
    print(f"base vertex: {u0}")
    assert u0 == (1, 0, 2, 0, 1)

    c = build_complex(t)
    print(
        f"complex: {len(c.vertices)} vertices, dimension {c.dim}, "
        f"{len(c.maximal_simplices)} maximal simplices, pure={c.is_pure()}"
    )
    assert len(c.vertices) == 20 and c.dim == 3

    base_idx = c.index(u0)
    star = [i for i, s in enumerate(c.maximal_simplices) if base_idx in s]
    print(f"star of base: {len(star)} maximal 3-simplices")
    assert len(star) == 4
    for i in star:
        cycles = simplex_cycles(c, i)
        from_base = sorted(w for w in cycles if w[0] == u0)
        print(f"  simplex {i}: cycle {' -> '.join(map(str, from_base[0]))} -> back")

    nbrs = [v for v in c.vertices if distance(c, u0, v) == 1]
    print(f"flype neighbours of base: {len(nbrs)}")
    assert len(nbrs) == 6

    v = (1, 0, 3, 0, 0)
    real = realize_vertex(d, t, v)
    n = len(d.crossings)
    print(
        f"surface at {v}: {len(real['flype_set']['circles'])} flype circle(s), "
        f"n_a={real['n_a']}, n_b={real['n_b']}, "
        f"chi = -{n} + {real['n_a']} + {real['n_b']} = {real['euler_characteristic']}"
    )
    assert real["n_a"] + real["n_b"] == sd["s"]

    ball = ball_report(t, c)
    h = ball["homology"]
    print(
        f"ball report: dimension {ball['dimension']}, pure={ball['pure']}, "
        f"euler={h['euler_characteristic']}, reduced betti {h['reduced_betti']}, "
        f"ok={ball['ok']}"
    )
    assert ball["ok"]
    print("all assertions passed")


if __name__ == "__main__":
    main()
