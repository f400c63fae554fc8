"""Per-layer spans and counts, recorded by wrapping kakimizu's functions.

Nothing under ``src/`` changes: ``Tracer.install`` replaces each traced
function in every kakimizu module that imported it (and two methods on
``EmbeddedGraph``, and two networkx entry points), so calls made through
any import site are seen.  A span is (name, start, end, parent span, request
id); spans stay in memory until the worker reports them.  Functions in
``COUNTED`` feed counters without a span.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (defining module, attribute, span name); the span name is the metric prefix
SPANS = [
    ("kakimizu.cli", "main", "cli.main"),
    ("kakimizu.diagram", "parse_diagram", "diagram.parse_diagram"),
    ("kakimizu.diagram", "validate", "diagram.validate"),
    ("kakimizu.diagram", "seifert", "diagram.seifert"),
    ("kakimizu.diagram", "black_region_graph", "diagram.black_region_graph"),
    ("kakimizu.diagram", "is_fibred", "diagram.is_fibred"),
    ("kakimizu.theta", "reduce_bigons", "theta.reduce_bigons"),
    ("kakimizu.theta", "augment_flype_arcs", "theta.augment_flype_arcs"),
    ("kakimizu.theta", "extract_theta", "theta.extract_theta"),
    ("kakimizu.theta", "parse_theta", "theta.parse_theta"),
    ("kakimizu.theta", "compute_regions", "theta.compute_regions"),
    ("kakimizu.kcomplex", "enumerate_vertices", "kcomplex.enumerate_vertices"),
    ("kakimizu.kcomplex", "build_complex", "kcomplex.build_complex"),
    ("kakimizu.kcomplex", "cyclic_order_simplices", "kcomplex.cyclic_order_simplices"),
    ("kakimizu.kcomplex", "distance", "kcomplex.distance"),
    ("kakimizu.structure", "component_product", "structure.component_product"),
    ("kakimizu.structure", "split_theta", "structure.split_theta"),
    ("kakimizu.structure", "ordered_product", "structure.ordered_product"),
    ("kakimizu.structure", "verify_iso", "structure.verify_iso"),
    ("kakimizu.structure", "esd", "structure.esd"),
    ("kakimizu.structure", "ball_report", "structure.ball_report"),
    ("kakimizu.homology", "homology", "homology.homology"),
    ("kakimizu.homology", "smith_diagonal", "homology.smith_diagonal"),
    ("kakimizu.surfaces", "realize_vertex", "surfaces.realize_vertex"),
    ("kakimizu.surfaces", "p_arcs", "surfaces.p_arcs"),
    ("kakimizu.surfaces", "trace_curves", "surfaces.trace_curves"),
]
METHOD_SPANS = [
    ("kakimizu.planar", "EmbeddedGraph", "trace_faces", "planar.trace_faces"),
    ("kakimizu.planar", "EmbeddedGraph", "component_count", "planar.component_count"),
]
NETWORKX_SPANS = [
    ("find_cliques", "networkx.find_cliques"),
    ("shortest_path_length", "networkx.shortest_path_length"),
]

SELF_TIMES = [
    "cli.main", "diagram.parse_diagram", "diagram.validate", "diagram.seifert",
    "diagram.black_region_graph", "diagram.is_fibred", "planar.trace_faces",
    "theta.reduce_bigons", "theta.augment_flype_arcs", "theta.extract_theta",
    "theta.parse_theta", "theta.compute_regions", "kcomplex.enumerate_vertices",
    "kcomplex.build_complex", "kcomplex.cyclic_order_simplices", "kcomplex.distance",
    "networkx.find_cliques", "networkx.shortest_path_length",
    "structure.component_product", "structure.ordered_product", "structure.verify_iso",
    "structure.esd", "structure.ball_report", "homology.homology",
    "homology.smith_diagonal", "surfaces.realize_vertex", "surfaces.p_arcs",
    "surfaces.trace_curves",
]
CALLS = [
    "planar.trace_faces", "planar.component_count", "theta.compute_regions",
    "structure.split_theta", "homology.smith_diagonal",
]
COUNTS = [
    "cli.output_bytes", "diagram.crossings", "theta.arcs_added",
    "kcomplex.adjacency.calls", "kcomplex.vertices", "kcomplex.maximal_simplices",
    "homology.faces", "homology.smith_diagonal.residue_cells",
]
# counts that must repeat bit for bit across traced passes of one input
EXACT = [
    "kcomplex.adjacency.calls", "planar.trace_faces.calls",
    "homology.smith_diagonal.residue_cells", "homology.faces",
]


def _post_parse_diagram(counts, args, out):
    counts["diagram.crossings"] += len(out.crossings)


def _post_augment(counts, args, out):
    counts["theta.arcs_added"] += len(out.edges) - len(args[0].edges)


def _post_build(counts, args, out):
    counts["kcomplex.vertices"] += len(out.vertices)
    counts["kcomplex.maximal_simplices"] += len(out.maximal_simplices)


def _post_smith(counts, args, out):
    rows = args[0]
    counts["homology.smith_diagonal.residue_cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_adjacency(counts, args, out):
    counts["kcomplex.adjacency.calls"] += 1
    if out is not None:
        counts["kcomplex.adjacency.useful"] += 1


def _count_faces(counts, args, out):
    counts["homology.faces"] += sum(len(fs) for fs in out)


POST = {
    "diagram.parse_diagram": _post_parse_diagram,
    "theta.augment_flype_arcs": _post_augment,
    "kcomplex.build_complex": _post_build,
    "homology.smith_diagonal": _post_smith,
}
# functions that are counted but get no span: adjacency runs millions of
# times per pass, and the face lattice is part of homology's own time
COUNTED = [
    ("kakimizu.kcomplex", "adjacency", _count_adjacency),
    ("kakimizu.homology", "_faces_by_dim", _count_faces),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request: int | None = None
        self.missing: list[str] = []

    def _wrap(self, fn, name, materialize=False):
        spans, stack, counts = self.spans, self.stack, self.counts
        post = POST.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
                if materialize:
                    out = list(out)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            if post is not None:
                post(counts, args, out)
            return out

        return traced

    def _count(self, fn, post):
        counts = self.counts

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            post(counts, args, out)
            return out

        return counted

    def install(self) -> None:
        """Wrap every traced function at each kakimizu import site."""
        replace = {}
        for module, attr, name in SPANS:
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            replace[id(fn)] = self._wrap(fn, name)
        for module, attr, post in COUNTED:
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            replace[id(fn)] = self._count(fn, post)
        for modname, module in list(sys.modules.items()):
            if modname != "kakimizu" and not modname.startswith("kakimizu."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replace and callable(value):
                    setattr(module, attr, replace[id(value)])
        for module, cls, attr, name in METHOD_SPANS:
            klass = getattr(sys.modules.get(module), cls, None)
            if klass is None or not hasattr(klass, attr):
                self.missing.append(f"{module}.{cls}.{attr}")
                continue
            setattr(klass, attr, self._wrap(getattr(klass, attr), name))
        nx = sys.modules.get("networkx")
        for attr, name in NETWORKX_SPANS:
            if nx is None or not hasattr(nx, attr):
                self.missing.append(f"networkx.{attr}")
                continue
            # find_cliques is a lazy generator: consume it inside its span
            setattr(nx, attr, self._wrap(getattr(nx, attr), name,
                                         materialize=attr == "find_cliques"))

    def metrics(self) -> dict[str, float]:
        """Self time per span name, call counts and work counts."""
        total = defaultdict(float)
        child = defaultdict(float)
        calls = Counter()
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            if parent is not None:
                child[parent] += dur
        self_time = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child.get(i, 0.0)
        out: dict[str, float] = {}
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = self_time.get(name, 0.0)
        for name in CALLS:
            out[f"{name}.calls"] = calls.get(name, 0)
        for name in COUNTS:
            out[name] = self.counts.get(name, 0)
        adj = self.counts.get("kcomplex.adjacency.calls", 0)
        out["kcomplex.adjacency.useful_ratio"] = (
            self.counts.get("kcomplex.adjacency.useful", 0) / adj if adj else 0.0
        )
        return out
