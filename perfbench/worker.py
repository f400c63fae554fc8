"""One pass over a workload's request list, in a fresh interpreter.

Reads {"requests": [...], "trace": bool} as JSON on stdin, times the import
of ``kakimizu.cli`` (the set-up cost every CLI invocation pays), then runs
every request through ``kakimizu.cli.main`` in a closed loop with one
client, capturing stdout.  The outputs are checked by the oracle after
the timed loop.  Writes one JSON result document to stdout.

A fixed pure-Python reference loop runs five times before the import,
once before the first request and once after every request, outside the
timed spans.  Its times measure how fast the host runs Python at that
moment; ``run.py`` uses them to put every time on a common scale.
"""

import sys
import time

REFERENCE_ITERATIONS = 60_000


def reference() -> float:
    """Time one run of a fixed loop that allocates no containers.  A loop
    that builds dicts or tuples runs up to a fifth slower after a request
    that left a large heap behind, which would tie the scale to the
    program's memory use."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


IMPORT_REFERENCE_S = sorted(reference() for _ in range(5))[2]
_t0 = time.perf_counter()
import kakimizu.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402


def run_pass(requests, tracer):
    """Time every request, then check the outputs outside the timed loop."""
    latencies = []
    outputs = []
    stdin = sys.stdin
    clock = time.perf_counter
    references = [reference()]
    pass_start = clock()
    for req in requests:
        if tracer is not None:
            tracer.request = req["id"]
        out = io.StringIO()
        sys.stdin = io.StringIO(req["stdin"])
        start = clock()
        try:
            with contextlib.redirect_stdout(out):
                code = kakimizu.cli.main(list(req["argv"]))
        except Exception as exc:  # an escaping exception is a failed request
            code = f"exception {exc!r}"
        finally:
            sys.stdin = stdin
        latencies.append(clock() - start)
        outputs.append((code, out.getvalue()))
        references.append(reference())
    wall = clock() - pass_start - sum(references[1:])
    failures = []
    for req, (code, text) in zip(requests, outputs):
        why = code if isinstance(code, str) else oracle.check(req, code, text)
        if why is not None:
            failures.append({"id": req["id"], "argv": req["argv"], "why": why})
    output_bytes = sum(len(text.encode()) for _, text in outputs)
    return wall, latencies, references, failures, output_bytes


def main() -> None:
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    wall, latencies, references, failures, output_bytes = run_pass(job["requests"], tracer)
    result = {
        "import_s": IMPORT_S,
        "import_reference_s": IMPORT_REFERENCE_S,
        "wall_s": wall,
        "latencies_s": latencies,
        "reference_s": references,
        "failures": failures,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.counts["cli.output_bytes"] += output_bytes
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing
        result["spans"] = tracer.spans
    sys.stdout.write(json.dumps(result))


if __name__ == "__main__":
    main()
