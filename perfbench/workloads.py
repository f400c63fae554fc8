"""Seeded, size-stratified request lists for the three workloads.

Every workload is a fixed ladder of shapes; the seed only draws what the
shape leaves free (weight distributions and nesting for theta graphs, chain
lengths, doublings and cyclic order for diagrams).  Each request carries the
argv it is run with, the document fed on stdin, its expected exit code and
the closed-form facts the oracle checks its output against.

Theta documents are written here as JSON rather than through
``kakimizu.generate``.  Diagrams are medials of "hub" graphs built with
``kakimizu.families.build_graph`` and ``kakimizu.medial.medial``; the
input hash recorded for the canonical seed catches any change there that
would silently change the inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from math import comb, factorial
from pathlib import Path

WORKLOADS = ("theta-ball", "theta-build", "diagram")

# (edges k, total weight m) per component
THETA_BALL_LADDER = [
    [(3, 6)], [(3, 10)], [(4, 3)], [(4, 4)], [(4, 5)], [(5, 2)], [(5, 3)],
    [(6, 2)], [(2, 3), (3, 2)], [(2, 4), (3, 3)], [(2, 5), (2, 5)],
    [(2, 6), (2, 6)], [(3, 2), (3, 2)], [(3, 3), (2, 2)], [(3, 4), (2, 3)],
    [(2, 4), (4, 2)], [(2, 2), (2, 2), (2, 2)], [(2, 2), (2, 3), (2, 2)],
    [(2, 3), (2, 3), (2, 3)], [(2, 5), (2, 2), (2, 4)],
]
THETA_BUILD_LADDER = [
    [(3, 30)], [(4, 12)], [(3, 24)], [(2, 10), (3, 8)], [(2, 20), (2, 20)],
]
# (simplex dimension n, subdivision degree m)
ESD_SIZES = [(1, 6), (2, 4), (3, 3), (4, 2), (2, 8), (3, 5), (1, 12), (2, 6),
             (4, 3), (5, 2), (3, 4), (2, 10)]
VERIFY_ESD_SIZES = [(3, 4), (2, 6), (4, 2), (3, 3)]
# (crossings n, long chains k, hub-to-hub weight m); the theta graph is one
# k-edge circle of weight m, so the complex has C(m+k-1, k-1) <= 300 vertices
DIAGRAM_LADDER = [
    (15, 2, 3), (18, 3, 3), (20, 3, 4), (24, 4, 3), (25, 3, 5), (28, 4, 4),
    (30, 4, 6), (35, 5, 5), (40, 4, 8), (45, 3, 12), (50, 6, 3),
]

# golden facts of the shipped fixtures: crossings n, Seifert circles s,
# fibredness, theta edge weights and the base vertex's index
FIXTURE_GOLDEN = {
    "hopf": dict(n=2, s=2, fibred=True, theta=[], base_index=0),
    "trefoil": dict(n=3, s=2, fibred=True, theta=[], base_index=0),
    "torus24": dict(n=4, s=2, fibred=True, theta=[], base_index=0),
    "cube": dict(n=12, s=8, fibred=False, theta=[], base_index=0),
    "dalpha": dict(n=15, s=10, fibred=False, theta=[[1, 0], [2, 0, 1]], base_index=17),
}
# diagrams that are not reduced/prime: only validate is in the oracle's scope
INVALID_FIXTURES = {
    "nugatory": ["reduced", "prime", "cuttable_region_exists"],
    "granny": ["prime", "cuttable_region_exists"],
}
OUT_OF_SCOPE = [
    "analyze --ball on nugatory/granny exits 0 with a one-vertex ball "
    "although validate rejects them; not requested",
]


# -- closed forms -----------------------------------------------------------


def vertex_count(shape) -> int:
    out = 1
    for k, m in shape:
        out *= comb(m + k - 1, k - 1)
    return out


def top_simplex_count(shape) -> int:
    """Per component m^(k-1), times the multinomial of the (k-1)'s."""
    out = factorial(sum(k - 1 for k, _ in shape))
    for k, m in shape:
        out = out * m ** (k - 1) // factorial(k - 1)
    return out


def compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All ordered ways to write ``total`` as ``parts`` summands >= 0."""
    return [
        tuple(b - a - 1 for a, b in zip((-1,) + cut, cut + (total + parts - 1,)))
        for cut in itertools.combinations(range(total + parts - 1), parts - 1)
    ]


def sorted_vertices(weights: list[list[int]]) -> list[tuple[int, ...]]:
    """The complex's vertex list: per-component compositions, concatenated
    in component order and sorted."""
    per = [compositions(sum(w), len(w)) for w in weights]
    return sorted(tuple(itertools.chain.from_iterable(c)) for c in itertools.product(*per))


# -- theta documents ----------------------------------------------------------


def _random_composition(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def theta_document(rng: random.Random, shape) -> tuple[str, list[list[int]]]:
    """A theta document of the given shape with seeded weights and nesting."""
    comps = []
    weights = []
    eid = 0
    for cid, (k, m) in enumerate(shape):
        w = _random_composition(rng, m, k)
        weights.append(w)
        if cid == 0 or rng.random() < 0.3:
            parent, parent_face = "sphere", 0
        else:
            parent = rng.randrange(cid)
            parent_face = rng.randrange(shape[parent][0])
        comps.append({
            "id": cid,
            "edges": [{"id": eid + j, "weight": w[j]} for j in range(k)],
            "placement": {
                "parent": parent,
                "parent_face": parent_face,
                "outer_face": rng.randrange(k),
            },
        })
        eid += k
    return json.dumps({"components": comps}, sort_keys=True), weights


def _theta_facts(shape, weights) -> dict:
    return {
        "vertices": vertex_count(shape),
        "top": top_simplex_count(shape),
        "dim": sum(k - 1 for k, _ in shape),
        "weights": weights,
    }


def theta_ball(rng: random.Random) -> list[dict]:
    reqs = []
    for shape in THETA_BALL_LADDER:
        doc, weights = theta_document(rng, shape)
        facts = _theta_facts(shape, weights)
        reqs.append(_req(["analyze", "-", "--homology", "--ball", "--flag-check"],
                         doc, "analyze_ball", facts))
        reqs.append(_req(["verify-product", "-"], doc, "verify_product", facts))
    return reqs


def theta_build(rng: random.Random) -> list[dict]:
    reqs = []
    for shape in THETA_BUILD_LADDER:
        doc, weights = theta_document(rng, shape)
        facts = _theta_facts(shape, weights)
        # vertex 0 puts component 0's weight on its last edge; the far vertex
        # moves all of it to the first edge and keeps the other components.
        # Each step changes a weight by at most one and a step inside one
        # factor of the product is an edge, so the distance is m_0.
        verts = sorted_vertices(weights)
        k0, m0 = shape[0]
        far = verts.index((m0,) + (0,) * (k0 - 1) + verts[0][k0:])
        reqs.append(_req(["complex", "-"], doc, "complex", facts))
        reqs.append(_req(["analyze", "-", "--flag-check", "--metric", "0", str(far)],
                         doc, "analyze_metric", dict(facts, far=far, distance=m0)))
        reqs.append(_req(["product", "-"], doc, "product", facts))
    for n, m in ESD_SIZES:
        reqs.append(_req(["esd", "--n", str(n), "--m", str(m)], "", "esd",
                         {"vertices": comb(n + m, n), "top": m ** n, "dim": n}))
    for n, m in VERIFY_ESD_SIZES:
        reqs.append(_req(["verify-esd", "--max-n", str(n), "--max-m", str(m)], "",
                         "verify_esd", {"pairs": n * m}))
    return reqs


# -- diagrams -------------------------------------------------------------------


def hub_graph(chains: list[tuple[int, bool]]):
    """Two hubs (0 anticlockwise, 1 clockwise) joined by chains, listed in
    anticlockwise order at hub 0.  A chain (L, doubled) has L edges (L odd,
    so classes alternate) and, when doubled, a second copy of its first
    edge.  Returns the embedded graph and its vertex count."""
    from kakimizu.families import build_graph

    classes = {0: 1, 1: -1}
    endpoints: dict[int, tuple[int, int]] = {}
    rotations: dict[int, list[int]] = {0: [], 1: []}
    nv = 2
    ne = 0
    for length, doubled in chains:
        path = [0]
        for i in range(1, length):
            classes[nv] = 1 if i % 2 == 0 else -1
            path.append(nv)
            nv += 1
        path.append(1)
        steps = []
        for i in range(length):
            a, b = path[i], path[i + 1]
            ids = []
            for _ in range(2 if doubled and i == 0 else 1):
                endpoints[ne] = (a, b) if classes[a] == 1 else (b, a)
                ids.append(ne)
                ne += 1
            steps.append(ids)
        rotations[0].extend(steps[0])
        rotations[1][:0] = list(reversed(steps[-1]))
        for i in range(1, length):
            rotations[path[i]] = list(reversed(steps[i - 1])) + steps[i]
    return build_graph(classes, endpoints, rotations), nv


def hub_chains(rng: random.Random, n: int, k: int, m: int) -> list[tuple[int, bool]]:
    """Chains for a hub diagram with ``n`` crossings, ``k`` long chains
    (length >= 3) and hub-to-hub weight ``m``, carried by direct edges.

    At least one long chain is doubled, which makes the diagram prime with
    a cuttable white region.  The first chain is a doubled one: then white
    region 1 is cuttable, so the cost of validate's cuttable-region search
    does not depend on the seed (``DEEP_SEARCH_CHAINS`` covers the other
    case at a fixed cost).
    """
    doubled_options = [
        d for d in range(1, k + 1)
        if (n - m - d - 3 * k) >= 0 and (n - m - d - 3 * k) % 2 == 0
    ]
    d = rng.choice(doubled_options)
    extra = _random_composition(rng, (n - m - d - 3 * k) // 2, k)
    flags = [True] * (d - 1) + [False] * (k - d)
    rng.shuffle(flags)
    flags.insert(0, True)
    slots: list[list[tuple[int, bool]]] = [[] for _ in range(k)]
    left = m
    while left:
        w = 2 if left >= 2 and rng.random() < 0.4 else 1
        slots[rng.randrange(k)].append((1, w == 2))
        left -= w
    chains = []
    for x, f, slot in zip(extra, flags, slots):
        chains.append((3 + 2 * x, f))
        chains += slot
    return chains


def hub_theta(chains: list[tuple[int, bool]]) -> list[int]:
    """Closed-form theta edge weights of a hub diagram.

    Long chains cut the hub into slots; the direct hub edges in a slot
    merge into one theta edge whose weight is their count (a doubled direct
    edge counts two).  The circle starts at the slot holding the first
    direct edge.
    """
    slots: list[int] = []
    first = None
    for length, doubled in chains:
        if length > 1:
            slots.append(0)
            continue
        if first is None:
            first = len(slots) - 1
        slots[-1] += 2 if doubled else 1
    return slots[first:] + slots[:first]


# validate's cuttable-region search tries white regions 1..8 before 9
DEEP_SEARCH_CHAINS = [(7, False), (1, False), (5, False), (1, True), (3, True),
                      (1, True), (5, False), (1, False)]


def diagram_document(d) -> str:
    return json.dumps(
        {"crossings": [{"id": c.id, "pd": list(c.pd)} for c in d.crossings]},
        sort_keys=True,
    )


def _diagram_requests(doc: str, facts: dict, vertex_index: int, vertex) -> list[dict]:
    surface = dict(facts, vertex=list(vertex), vertex_index=vertex_index)
    return [
        _req(["validate", "-"], doc, "validate_ok", facts),
        _req(["theta", "-"], doc, "theta", facts),
        _req(["seifert", "-"], doc, "seifert", facts),
        _req(["fibred", "-"], doc, "fibred", facts),
        _req(["complex", "-"], doc, "diagram_complex", facts),
        _req(["surface", "-", "--vertex", str(vertex_index)], doc, "surface", surface),
    ]


def diagram(rng: random.Random, root: Path) -> list[dict]:
    from kakimizu.medial import medial

    reqs = []
    fixtures = root / "fixtures"
    for name, g in FIXTURE_GOLDEN.items():
        doc = (fixtures / f"{name}.json").read_text()
        verts = sorted_vertices(g["theta"])
        facts = {"n": g["n"], "s": g["s"], "fibred": g["fibred"], "theta": g["theta"],
                 "vertices": len(verts), "top": _top_from_weights(g["theta"])}
        reqs += _diagram_requests(doc, facts, g["base_index"], verts[g["base_index"]])
    for name, failing in INVALID_FIXTURES.items():
        doc = (fixtures / f"{name}.json").read_text()
        reqs.append(_req(["validate", "-"], doc, "validate_rejects", {"failing": failing}, exit=1))
    doc = (fixtures / "dalpha.theta.json").read_text()
    shape = [(2, 1), (3, 3)]
    facts = _theta_facts(shape, [[1, 0], [2, 0, 1]])
    reqs.append(_req(["complex", "-"], doc, "complex", facts))
    reqs.append(_req(["analyze", "-", "--homology", "--ball", "--flag-check"], doc,
                     "analyze_ball", facts))
    reqs.append(_req(["verify-product", "-"], doc, "verify_product", facts))

    ladder = [hub_chains(rng, n, k, m) for n, k, m in DIAGRAM_LADDER]
    for chains in ladder + [DEEP_SEARCH_CHAINS]:
        g, nv = hub_graph(chains)
        d = medial(g)
        doc = diagram_document(d)
        weights = hub_theta(chains)
        verts = sorted_vertices([weights])
        vertex = tuple(weights)
        if rng.random() < 0.5:
            # a distance-1 neighbour: one unit of weight moves to another
            # edge of the circle
            i = rng.choice([j for j, w in enumerate(weights) if w])
            j = rng.choice([j for j in range(len(weights)) if j != i])
            moved = list(weights)
            moved[i] -= 1
            moved[j] += 1
            vertex = tuple(moved)
        facts = {"n": d.n, "s": nv, "fibred": None, "theta": [weights],
                 "vertices": len(verts), "top": _top_from_weights([weights])}
        reqs += _diagram_requests(doc, facts, verts.index(vertex), vertex)
    return reqs


def _top_from_weights(weights: list[list[int]]) -> int:
    return top_simplex_count([(len(w), sum(w)) for w in weights])


# -- requests and hashing -----------------------------------------------------


def _req(argv, doc, kind, facts, exit=0) -> dict:
    return {"argv": argv, "stdin": doc, "kind": kind, "facts": facts, "exit": exit}


def generate(workload: str, seed: int, root: Path) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "theta-ball":
        reqs = theta_ball(rng)
    elif workload == "theta-build":
        reqs = theta_build(rng)
    elif workload == "diagram":
        reqs = diagram(rng, root)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, r in enumerate(reqs):
        r["id"] = i
    return reqs


def input_hash(requests: list[dict]) -> str:
    text = json.dumps(requests, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
