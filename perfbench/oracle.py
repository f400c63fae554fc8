"""Output checks that rest on closed forms and golden values, not on the
code under test.

``check(request, exit_code, stdout)`` returns None when the output is right
and a one-line reason otherwise.
"""

from __future__ import annotations

import json

from workloads import sorted_vertices

FLAGS = ("connected", "alternating", "special", "reduced", "prime",
         "cuttable_region_exists")


class Wrong(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Wrong(what)


def _complex_shape(doc: dict, facts: dict) -> None:
    _expect(len(doc["vertices"]) == facts["vertices"],
            f"{len(doc['vertices'])} vertices, expected {facts['vertices']}")
    simplices = doc["maximal_simplices"]
    _expect(len(simplices) == facts["top"],
            f"{len(simplices)} top simplices, expected {facts['top']}")
    if "dim" in facts:
        _expect(all(len(s) == facts["dim"] + 1 for s in simplices),
                "top simplex of the wrong dimension")
    _expect(all(0 <= i < facts["vertices"] for s in simplices for i in s),
            "simplex refers to a missing vertex")
    _expect(len({tuple(s) for s in simplices}) == len(simplices), "repeated simplex")


def _weight_vertices(doc: dict, weights: list[list[int]]) -> None:
    _expect([tuple(v) for v in doc["vertices"]] == sorted_vertices(weights),
            "vertex list differs from the weight compositions")


def _ball(ball: dict, facts: dict) -> None:
    h = ball["homology"]
    _expect(ball["ok"] is True, "ball report not ok")
    _expect(ball["dimension"] == ball["expected_dimension"] == facts["dim"],
            f"ball dimension {ball['dimension']}, expected {facts['dim']}")
    _expect(ball["pure"] is True, "ball not pure")
    _expect(ball["region_count"] == facts["dim"] + 1, "region count is not dim + 1")
    _expect(not any(h["reduced_betti"]), f"reduced betti {h['reduced_betti']}")
    _expect(not any(h["torsion"]), f"torsion {h['torsion']}")
    _expect(h["euler_characteristic"] == 1, f"euler {h['euler_characteristic']}")


def _analyze_counts(doc: dict, facts: dict) -> None:
    _expect(doc["vertex_count"] == facts["vertices"], "vertex_count")
    _expect(doc["maximal_simplex_count"] == facts["top"], "maximal_simplex_count")
    _expect(doc["dimension"] == facts["dim"], "dimension")
    _expect(doc["pure"] is True, "not pure")
    _expect(doc["flag_check"] is True, "flag check failed")


def _seifert_counts(doc: dict, facts: dict) -> None:
    n, s = facts["n"], facts["s"]
    _expect(doc["s"] == s, f"{doc['s']} Seifert circles, expected {s}")
    _expect(len(doc["circles"]) == s and len(doc["black_regions"]) == s,
            "circle or black-region count")
    _expect(len(doc["white_regions"]) == n + 2 - s, "white-region count")
    _expect(doc["chi"] == s - n, f"chi {doc['chi']}, expected {s - n}")


def _check_doc(kind: str, doc: dict, facts: dict) -> None:
    if kind == "complex":
        _complex_shape(doc, facts)
        _weight_vertices(doc, facts["weights"])
    elif kind == "product":
        _complex_shape(doc, facts)
    elif kind == "analyze_metric":
        _analyze_counts(doc, facts)
        m = doc["metric"]
        _expect((m["u"], m["v"]) == (0, facts["far"]), "metric endpoints")
        _expect(m["distance"] == facts["distance"],
                f"distance {m['distance']}, expected {facts['distance']}")
    elif kind == "analyze_ball":
        _analyze_counts(doc, facts)
        _ball(doc["ball"], facts)
        _expect(doc["homology"] == doc["ball"]["homology"], "homology reports differ")
    elif kind == "verify_product":
        _expect(doc["isomorphic"] is True, "product map is not an isomorphism")
        _ball(doc["ball"], facts)
    elif kind == "esd":
        _complex_shape(doc, facts)
    elif kind == "verify_esd":
        _expect(doc["all_ok"] is True, "verify-esd not all ok")
        _expect(len(doc["checked"]) == facts["pairs"], "verify-esd pair count")
        _expect(all(c["isomorphic"] is True for c in doc["checked"]), "esd not isomorphic")
    elif kind == "validate_ok":
        bad = [f for f in FLAGS if doc[f] is not True]
        _expect(not bad, f"validate flags {bad} not set")
    elif kind == "validate_rejects":
        bad = [f for f in facts["failing"] if doc[f] is not False]
        _expect(not bad, f"validate flags {bad} should fail")
    elif kind == "theta":
        got = [[e["weight"] for e in c["edges"]] for c in doc["components"]]
        _expect(got == facts["theta"], f"theta weights {got}, expected {facts['theta']}")
    elif kind == "seifert":
        _seifert_counts(doc, facts)
    elif kind == "fibred":
        n, s = facts["n"], facts["s"]
        _expect(doc["graph_vertices"] == n + 2 - s, "white graph vertex count")
        _expect(doc["graph_edges"] == n, "white graph edge count")
        _expect(isinstance(doc["fibred"], bool), "fibred is not a boolean")
        if facts["fibred"] is not None:
            _expect(doc["fibred"] == facts["fibred"], f"fibred {doc['fibred']}")
    elif kind == "diagram_complex":
        _complex_shape(doc, facts)
        _weight_vertices(doc, facts["theta"])
    elif kind == "surface":
        n, s = facts["n"], facts["s"]
        _expect(doc["vertex"] == facts["vertex"], f"vertex {doc['vertex']}")
        _expect(doc["vertex_index"] == facts["vertex_index"], "vertex index")
        _expect(doc["n_a"] + doc["n_b"] == s, f"n_a + n_b = {doc['n_a'] + doc['n_b']}, s = {s}")
        _expect(doc["euler_characteristic"] == s - n,
                f"euler {doc['euler_characteristic']}, expected {s - n}")
    else:
        raise ValueError(f"unknown request kind {kind!r}")


def check(request: dict, exit_code: int, stdout: str) -> str | None:
    if exit_code != request["exit"]:
        return f"exit {exit_code}, expected {request['exit']}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON document"
    try:
        _check_doc(request["kind"], doc, request["facts"])
    except Wrong as exc:
        return str(exc)
    except (KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"
    return None
