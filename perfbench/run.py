"""End-to-end and per-layer benchmark of the kakimizu CLI.

    python3 perfbench/run.py --workload theta-ball --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each pass runs one workload's request list
through ``kakimizu.cli.main`` in a fresh worker interpreter (closed loop,
one client), so every pass has its own import time and peak RSS and a hung
pass is killed and counted as failed.  Passes repeat, with the workload
order rotated every round, until ``--seconds`` have gone by.

On a shared host the speed of Python can drift twofold over minutes, so
every time is put on a common scale: the worker runs a fixed reference
loop before the import and between requests, and each request's latency
is multiplied by ``REFERENCE_S`` over the mean time of the reference runs
just before and after it (a pass's wall time and traced self times by the
time-weighted mean of its requests' factors; the import by the median of
the five runs before it).  The reported times are thus seconds on a host
where the loop takes ``REFERENCE_S``; the report prints the unscaled
medians beside them.
``wall_s`` is the median pass, ``latency_p50_ms`` the median latency of
every request served, and ``latency_tail_ms`` the highest percentile with
ten requests beyond it of each request's median latency over the passes
(so the percentile depends on the request list only, not on how many
passes fit in ``--seconds``).
``setup_s`` (importing ``kakimizu.cli`` in a fresh interpreter) and
``peak_rss_mb`` are medians over passes.  With ``--trace 1`` traced passes
alternate with untraced ones and the per-layer metrics are reported
instead: self times are medians, counts come from one pass and must repeat
exactly in every traced pass.
``--workload all`` runs every workload within the same ``--seconds`` and
prefixes metric names with the workload.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 only when every output passed its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

CANONICAL_SEED = 0
HASHES = BENCH / "input_hashes.json"
SPANS_DIR = ROOT / ".perfbench"
MIN_ROUNDS = 3
START_CAP_S = 120  # start no pass after this long
DEADLINE_S = 170  # kill a pass still running this long after the start
PASS_CAP_S = 60  # a pass running longer counts as hung
REFERENCE_S = 0.005  # the reference loop's time on the common scale

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def per_layer_units() -> list[tuple[str, str]]:
    out = [(f"{n}.self_s", "s") for n in tracing.SELF_TIMES]
    out += [(f"{n}.calls", "count") for n in tracing.CALLS]
    out += [(n, "bytes" if n == "cli.output_bytes" else "count") for n in tracing.COUNTS]
    out += [("kcomplex.adjacency.useful_ratio", "ratio"), ("trace.overhead_s", "s")]
    return out


def die(message: str, code: int = 2) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(code)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def check_program() -> None:
    """Refuse to run without the program; compile it once before timing."""
    if not (ROOT / "src" / "kakimizu" / "cli.py").is_file():
        die(f"no kakimizu sources under {ROOT / 'src'}")
    if not (ROOT / "fixtures").is_dir():
        die(f"no fixtures under {ROOT}")
    try:
        subprocess.run([sys.executable, "-c", "import kakimizu.cli"], env=worker_env(),
                       cwd=ROOT, check=True, timeout=PASS_CAP_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        die(f"cannot import kakimizu.cli: {exc}")


def check_inputs(names: list[str]) -> None:
    """The canonical seed must still generate the recorded inputs."""
    expected = json.loads(HASHES.read_text())
    for name in names:
        got = workloads.input_hash(workloads.generate(name, CANONICAL_SEED, ROOT))
        if got != expected[name]:
            die(f"{name}: inputs for seed {CANONICAL_SEED} hash to {got}, "
                f"recorded {expected[name]}; the generators or fixtures changed", 3)


def run_worker(requests: list[dict], traced: bool, cap: float) -> dict | None:
    job = json.dumps({"requests": requests, "trace": traced})
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=job,
                              capture_output=True, text=True, env=worker_env(),
                              cwd=ROOT, timeout=cap)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: pass killed after {cap:.0f} s\n")
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(proc.stdout)


def scaled_latencies(result: dict) -> list[float]:
    """A pass's latencies on the common scale: each request by the
    reference runs just before and after it."""
    refs = result["reference_s"]
    return [t * 2 * REFERENCE_S / (a + b)
            for t, a, b in zip(result["latencies_s"], refs, refs[1:])]


def scale(result: dict) -> float:
    """The factor that puts a pass's wall and self times on the common
    scale: the time-weighted mean of its requests' factors."""
    return sum(scaled_latencies(result)) / sum(result["latencies_s"])


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten requests beyond it."""
    xs = sorted(latencies)
    rank = max(len(xs) - 10, 1)
    return xs[rank - 1], 100.0 * rank / len(xs)


class Workload:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.requests = workloads.generate(name, seed, ROOT)
        self.sha256 = workloads.input_hash(self.requests)
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.attempted = 0
        self.failures: list[dict] = []
        self.count_drift: list[str] = []

    def run_pass(self, traced: bool, cap: float) -> None:
        result = run_worker(self.requests, traced, cap)
        self.attempted += len(self.requests)
        if result is None:
            self.failures += [{"id": r["id"], "why": "pass hung or crashed"}
                              for r in self.requests]
            return
        self.failures += result["failures"]
        if traced:
            if self.traced:
                first = self.traced[0]["layers"]
                self.count_drift += [k for k in tracing.EXACT
                                     if result["layers"][k] != first[k]]
            self.traced.append(result)
        else:
            self.plain.append(result)

    def end_to_end(self, scaled: bool = True) -> dict[str, float]:
        """Medians over the untraced passes; ``scaled=False`` gives them
        in the host's own seconds."""
        def factor(r: dict) -> float:
            return scale(r) if scaled else 1.0

        def setup_factor(r: dict) -> float:
            return REFERENCE_S / r["import_reference_s"] if scaled else 1.0

        per_pass = [scaled_latencies(r) if scaled else r["latencies_s"] for r in self.plain]
        per_request = [statistics.median(times) for times in zip(*per_pass)]
        return {
            "setup_s": statistics.median(r["import_s"] * setup_factor(r)
                                         for r in self.plain + self.traced),
            "wall_s": statistics.median(r["wall_s"] * factor(r) for r in self.plain),
            "latency_p50_ms": 1000 * statistics.median(t for p in per_pass for t in p),
            "latency_tail_ms": 1000 * tail(per_request)[0],
            "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in self.plain),
        }

    def per_layer(self) -> dict[str, float]:
        out = {}
        for name, unit in per_layer_units():
            if name == "trace.overhead_s":
                continue
            if unit == "s":
                out[name] = statistics.median(r["layers"][name] * scale(r)
                                              for r in self.traced)
            else:
                out[name] = self.traced[0]["layers"][name]
        out["trace.overhead_s"] = (
            statistics.median(r["wall_s"] * scale(r) for r in self.traced)
            - self.end_to_end()["wall_s"])
        return out

    def write_spans(self, seed: int) -> Path:
        SPANS_DIR.mkdir(exist_ok=True)
        path = SPANS_DIR / f"spans-{self.name}-seed{seed}.json"
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "request"],
                                    "spans": self.traced[-1]["spans"]}))
        return path

    def report(self, seed: int, with_layers: bool) -> None:
        e2e = self.end_to_end()
        raw = self.end_to_end(scaled=False)
        n = len(self.requests)
        failed = len(self.failures)
        print(f"workload {self.name}  seed {seed}  inputs sha256 {self.sha256}")
        print(f"  {len(self.plain)} untraced + {len(self.traced)} traced passes, "
              f"{n} requests per pass, closed loop, 1 client")
        units = dict(END_TO_END)
        for name, value in e2e.items():
            unscaled = f"(unscaled {raw[name]:.4f})" if raw[name] != value else ""
            print(f"  {name:<18} {value:12.4f} {units[name]:<3} {unscaled}")
        _, pct = tail(self.plain[0]["latencies_s"])
        print(f"  {'':<18} p50 of {n * len(self.plain)} requests served; the tail is "
              f"p{pct:.1f} of {n} requests' medians over {len(self.plain)} passes")
        print(f"  {'error_rate':<18} {failed / self.attempted:12.4f} ratio "
              f"({failed} failed of {self.attempted} attempted)")
        ref = statistics.median(t for r in self.plain + self.traced for t in r["reference_s"])
        print(f"  {'reference_ms':<18} {1000 * ref:12.4f} ms "
              f"(median reference loop; the common scale is {1000 * REFERENCE_S:g} ms)")
        for f in self.failures[:10]:
            print(f"  FAILED request {f['id']}: {f.get('argv', '')} {f['why']}")
        if self.count_drift:
            print(f"  FAILED exact counts differ between traced passes: {self.count_drift}")
        if self.name == "diagram":
            for note in workloads.OUT_OF_SCOPE:
                print(f"  out of oracle scope: {note}")
        if with_layers:
            missing = sorted({m for r in self.traced for m in r["missing"]})
            if missing:
                print(f"  not traced (not found): {missing}")
            layers = self.per_layer()
            for name, unit in per_layer_units():
                print(f"  {name:<44} {layers[name]:14.6f} {unit}")
            print(f"  spans written to {self.write_spans(seed).relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    check_program()
    check_inputs(names)
    loads = [Workload(name, args.seed) for name in names]

    start = time.monotonic()
    rounds = 0
    while rounds < MIN_ROUNDS or time.monotonic() - start < args.seconds:
        if time.monotonic() - start > START_CAP_S:
            break
        shift = rounds % len(loads)
        for w in loads[shift:] + loads[:shift]:
            modes = [False, True] if args.trace else [False]
            if rounds % 2:
                modes.reverse()
            for traced in modes:
                cap = min(PASS_CAP_S, DEADLINE_S - (time.monotonic() - start))
                w.run_pass(traced, max(cap, 1))
        rounds += 1

    if any(not w.plain or (args.trace and not w.traced) for w in loads):
        die("a workload completed no pass", 1)
    metrics = {}
    for w in loads:
        w.report(args.seed, bool(args.trace))
        prefix = "" if len(loads) == 1 else f"{w.name}."
        if args.trace:
            values, units = w.per_layer(), dict(per_layer_units())
        else:
            values, units = w.end_to_end(), dict(END_TO_END)
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    attempted = sum(w.attempted for w in loads)
    failed = sum(len(w.failures) for w in loads)
    correct = failed == 0 and not any(w.count_drift for w in loads)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
