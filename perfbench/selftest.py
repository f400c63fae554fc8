"""Self-tests of the benchmark: oracles, generators and traced counts.

    python3 perfbench/selftest.py

Run from the repository root; exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from math import isclose
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def call(req: dict) -> tuple[int, str]:
    from kakimizu.cli import main

    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(req["stdin"])
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(req["argv"]))
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def find(requests: list[dict], kind: str, crossings: int | None = None) -> dict:
    return next(r for r in requests if r["kind"] == kind
                and (crossings is None or r["facts"].get("n") == crossings))


def tampered(req: dict, edit) -> str | None:
    code, text = call(req)
    assert oracle.check(req, code, text) is None, "untouched output rejected"
    doc = json.loads(text)
    edit(doc)
    return oracle.check(req, code, json.dumps(doc))


def test_oracle_rejects_tampered_output():
    reqs = workloads.generate("diagram", 0, ROOT)
    cases = [
        (find(reqs, "complex"), lambda d: d["vertices"].pop()),
        (find(reqs, "diagram_complex", 15), lambda d: d["maximal_simplices"].pop()),
        (find(reqs, "theta", 15), lambda d: d["components"][1]["edges"].reverse()),
        (find(reqs, "surface", 15), lambda d: d.update(euler_characteristic=0)),
        (find(reqs, "surface", 50), lambda d: d.update(n_a=d["n_a"] + 1)),
        (find(reqs, "validate_ok"), lambda d: d.update(prime=False)),
        (find(reqs, "seifert"), lambda d: d.update(s=d["s"] + 1)),
        (find(reqs, "analyze_ball"), lambda d: d["homology"]["reduced_betti"].append(1)),
    ]
    for req, edit in cases:
        assert tampered(req, edit) is not None, f"tampered {req['kind']} output accepted"
    code, text = call(find(reqs, "validate_rejects"))
    assert oracle.check(find(reqs, "validate_rejects"), 0, text) is not None, \
        "wrong exit code accepted"


def test_metric_distance_oracle():
    reqs = workloads.generate("theta-build", 0, ROOT)
    req = find(reqs, "analyze_metric")
    assert tampered(req, lambda d: d["metric"].update(distance=d["metric"]["distance"] + 1))


def test_generators_are_seeded():
    for name in workloads.WORKLOADS:
        a = workloads.input_hash(workloads.generate(name, 7, ROOT))
        b = workloads.input_hash(workloads.generate(name, 7, ROOT))
        c = workloads.input_hash(workloads.generate(name, 8, ROOT))
        assert a == b, f"{name}: same seed, different inputs"
        assert a != c, f"{name}: the seed does not reach the inputs"


def test_canonical_hashes_recorded():
    expected = json.loads(run.HASHES.read_text())
    for name in workloads.WORKLOADS:
        got = workloads.input_hash(workloads.generate(name, run.CANONICAL_SEED, ROOT))
        assert got == expected[name], f"{name}: canonical inputs drifted"


def test_benchmark_json_matches():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    hashes = json.loads(run.HASHES.read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"].endswith(hashes[w["name"]][:12]), f"{w['name']}: stale hash in why"


def test_closed_forms():
    assert workloads.vertex_count([(2, 1), (3, 3)]) == 20
    assert workloads.top_simplex_count([(2, 1), (3, 3)]) == 27
    assert workloads.sorted_vertices([[1, 0], [2, 0, 1]]).index((1, 0, 2, 0, 1)) == 17
    assert workloads.hub_theta(workloads.DEEP_SEARCH_CHAINS) == [1, 2, 2, 1]


def test_tail_percentile():
    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert (value, pct) == (30.0, 75.0)


def test_common_scale():
    """Latencies keep their value when the reference loop runs at the
    common scale's speed and double when it runs twice as fast."""
    ref = run.REFERENCE_S
    result = {"latencies_s": [1.0, 2.0], "reference_s": [ref] * 3, "wall_s": 3.5}
    assert all(isclose(x, y) for x, y in zip(run.scaled_latencies(result), [1.0, 2.0]))
    assert isclose(run.scale(result), 1.0)
    result["reference_s"] = [ref / 2] * 3
    assert all(isclose(x, y) for x, y in zip(run.scaled_latencies(result), [2.0, 4.0]))
    assert isclose(run.scale(result), 2.0)
    # a request is scaled by the reference runs on either side of it only
    result["reference_s"] = [ref, ref, ref / 2]
    assert isclose(run.scaled_latencies(result)[0], 1.0)


def test_traced_counts_repeat():
    sample = []
    for name in workloads.WORKLOADS:
        sample += workloads.generate(name, 0, ROOT)[:12]
    for i, r in enumerate(sample):
        r["id"] = i
    first = run.run_worker(sample, True, 120)
    second = run.run_worker(sample, True, 120)
    assert first and second, "traced worker failed"
    assert not first["failures"], first["failures"]
    for key in tracing.EXACT:
        assert first["layers"][key] == second["layers"][key], f"{key} differs"
    # balls reduce by unit pivots alone, so the Smith residue stays empty
    for key in ("kcomplex.adjacency.calls", "planar.trace_faces.calls", "homology.faces"):
        assert first["layers"][key] > 0, f"{key} never counted"
    assert not first["missing"], f"hooks not found: {first['missing']}"


def main() -> int:
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
