"""Command-line front end: file I/O and report aggregation.

One tool with subcommands; every report is JSON with sorted keys, so a
given (input, flags, seed) always produces byte-identical output.  Exit
codes: 0 success, 1 validation or computation failure on the input data
(or a broken library invariant, reported as ``internal_error``), 2 usage
error.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
from json.encoder import encode_basestring_ascii

from .diagram import (
    _diagram_from_doc,
    decode_document,
    is_fibred,
    parse_diagram,
    seifert,
    validate,
    white_region_graph,
)
from .generate import predicted_vertex_count, random_theta_family
from .kcomplex import (
    SimplicialComplex,
    build_complex,
    distance,
    flag_check as is_flag,
    vertex_at,
)
from .structure import ball_report, component_product, esd, theta_to_esd_map, verify_iso
from .surfaces import realize_vertex
from .theta import (
    SPHERE,
    Placement,
    ThetaComponent,
    ThetaEdge,
    ThetaGraph,
    _theta_from_doc,
    theta_pipeline,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as f:
        return f.read()


def _sniff(text: str) -> ThetaGraph:
    """Accept either a diagram document or a theta document."""
    doc = decode_document(text)
    if isinstance(doc, dict) and "components" in doc:
        return _theta_from_doc(doc)
    return theta_pipeline(_diagram_from_doc(doc))


# -- subcommand handlers ----------------------------------------------------


def cmd_validate(d) -> tuple[int, dict]:
    report = validate(d)
    ok = all(v for k, v in report.items() if k != "messages")
    return (EXIT_OK if ok else EXIT_INVALID), report


def cmd_seifert(d) -> tuple[int, dict]:
    return EXIT_OK, seifert(d)


def cmd_theta(d) -> tuple[int, dict]:
    return EXIT_OK, theta_pipeline(d).to_json()


def cmd_complex(t) -> tuple[int, dict]:
    return EXIT_OK, build_complex(t).to_json()


def cmd_analyze(t, homology, flag_check, ball, metric) -> tuple[int, dict]:
    for idx in metric or ():
        if not 0 <= idx < predicted_vertex_count(t):
            raise ValueError(f"vertex index {idx} out of range")
    c = build_complex(t)
    doc: dict = {
        "vertex_count": len(c.vertices),
        "maximal_simplex_count": len(c.maximal_simplices),
        "dimension": c.dim,
        "pure": c.is_pure(),
    }
    code = EXIT_OK
    if homology or ball:
        report = ball_report(t, c)
        if homology:
            doc["homology"] = report["homology"]
        if ball:
            doc["ball"] = report
            if not report["ok"]:
                code = EXIT_INVALID
    if flag_check:
        doc["flag_check"] = is_flag(c)
        if not doc["flag_check"]:
            code = EXIT_INVALID
    if metric is not None:
        iu, iv = metric
        doc["metric"] = {
            "u": iu,
            "v": iv,
            "distance": distance(c, c.vertices[iu], c.vertices[iv]),
        }
    return code, doc


def cmd_esd(n, m) -> tuple[int, dict]:
    return EXIT_OK, esd(n, m).to_json()


def cmd_product(t) -> tuple[int, dict]:
    prod, _ = component_product(t)
    return EXIT_OK, prod.to_json()


def _at_least_one(name: str, value: int) -> None:
    """A sweep over fewer than one case checks nothing, so refuse it."""
    if value < 1:
        raise ValueError(f"{name} must be positive")


def cmd_verify_esd(max_n, max_m) -> tuple[int, dict]:
    _at_least_one("max-n", max_n)
    _at_least_one("max-m", max_m)
    checked = []
    all_ok = True
    for n in range(1, max_n + 1):
        for m in range(1, max_m + 1):
            edges = [ThetaEdge(i, m if i == 0 else 0) for i in range(n + 1)]
            t = ThetaGraph([ThetaComponent(0, edges, Placement(SPHERE, 0, 0))])
            ok = verify_iso(build_complex(t), esd(n, m), theta_to_esd_map(t))
            checked.append({"n": n, "m": m, "isomorphic": ok})
            all_ok = all_ok and ok
    return (EXIT_OK if all_ok else EXIT_INVALID), {
        "checked": checked,
        "all_ok": all_ok,
    }


def _is_component_product(t: ThetaGraph, c: SimplicialComplex) -> bool:
    """Whether ``c``, the complex of ``t``, is the product of its component
    complexes.  With one component, ``c`` is compared with itself, which
    catches only a simplex listed twice."""
    if len(t.components) <= 1:
        return verify_iso(c, c, {v: v for v in c.vertices})
    return verify_iso(c, *component_product(t))


def cmd_verify_product(t) -> tuple[int, dict]:
    c = build_complex(t)
    ok = _is_component_product(t, c)
    report = ball_report(t, c)
    code = EXIT_OK if ok and report["ok"] else EXIT_INVALID
    return code, {"isomorphic": ok, "ball": report}


def cmd_fibred(d) -> tuple[int, dict]:
    g = white_region_graph(d)
    return EXIT_OK, {
        "fibred": is_fibred(g),
        "graph_vertices": len(g.rotation),
        "graph_edges": len(g.edges),
    }


def cmd_surface(d, vertex) -> tuple[int, dict]:
    t = theta_pipeline(d)
    doc = realize_vertex(d, t, vertex_at(t, vertex))
    doc["vertex_index"] = vertex
    return EXIT_OK, doc


def cmd_selftest(seed, count) -> tuple[int, dict]:
    _at_least_one("count", count)
    failures = []
    family = random_theta_family(seed, count)
    for i, t in enumerate(family):
        c = build_complex(t)
        if not _is_component_product(t, c):
            failures.append({"instance": i, "check": "product"})
        if not ball_report(t, c)["ok"]:
            failures.append({"instance": i, "check": "ball"})
        if not is_flag(c):
            failures.append({"instance": i, "check": "flag"})
    doc = {
        "seed": seed,
        "instances": len(family),
        "failures": failures,
        "all_ok": not failures,
    }
    return (EXIT_OK if not failures else EXIT_INVALID), doc


# -- the command table and its parsers -------------------------------------

# One row per subcommand: its handler, its help line, the reader that
# parses its input document (None for no input), and its options.  Each
# option maps to its metavar, one word per value it takes (none for a
# flag), and then its default; an option without a default is required.
# Option values are ints.  Every subcommand also takes -h/--help and
# -o/--output FILE.  ``main`` calls the handler with what the reader
# returns, if there is a reader, and each option by name.
COMMANDS = {
    "validate": (cmd_validate, "check a diagram document", parse_diagram, {}),
    "seifert": (cmd_seifert, "Seifert circles and counts", parse_diagram, {}),
    "theta": (cmd_theta, "diagram to theta graph", parse_diagram, {}),
    "complex": (cmd_complex, "surface complex of a diagram or theta", _sniff, {}),
    "analyze": (cmd_analyze, "reports on the surface complex", _sniff, {
        "--homology": ("", False), "--flag-check": ("", False), "--ball": ("", False),
        "--metric": ("U V", None)}),
    "esd": (cmd_esd, "edgewise subdivision of a simplex", None,
            {"--n": ("N",), "--m": ("M",)}),
    "product": (cmd_product, "product complex over the components", _sniff, {}),
    "verify-esd": (cmd_verify_esd, "subdivision theorem sweep", None,
                   {"--max-n": ("N", 3), "--max-m": ("M", 4)}),
    "verify-product": (cmd_verify_product, "product theorem on one input", _sniff, {}),
    "fibred": (cmd_fibred, "fibredness from the white-region graph", parse_diagram, {}),
    "surface": (cmd_surface, "surface realization at a vertex", parse_diagram,
                {"--vertex": ("INDEX",)}),
    "selftest": (cmd_selftest, "randomized property suites", None,
                 {"--seed": ("SEED", 0), "--count": ("COUNT", 20)}),
}


class _UsageError(Exception):
    """The command line does not parse; the argument is the usage line and
    the ``kakimizu: error:`` line naming the bad token."""


class _Help(Exception):
    """-h or --help was read; the argument is the help text to print."""


def _plain(argv: list[str]) -> tuple | None:
    """The handler, reader and options of a plain command line: the
    subcommand, then exact option names, each followed by its values, and
    the input, in any order, where no value and no input but ``-`` starts
    with ``-``.  None for any other line, which ``_argparse`` reads."""
    if not argv or argv[0] not in COMMANDS:
        return None
    handler, _, reader, options = COMMANDS[argv[0]]
    arity = {"-o": 1, "--output": 1}
    values = {"output": None}
    for option, (metavar, *default) in options.items():
        arity[option] = len(metavar.split())
        if default:
            values[option[2:].replace("-", "_")] = default[0]

    def plain(word: str) -> bool:
        return word[:1] != "-" or word == "-"

    words = iter(argv[1:])
    for word in words:
        if plain(word):
            if reader is None or "input" in values:
                return None
            values["input"] = word
            continue
        k = arity.get(word)
        strings = list(itertools.islice(words, k or 0))
        if k is None or len(strings) < k or not all(map(plain, strings)):
            return None
        if word in ("-o", "--output"):
            values["output"] = strings[0]
            continue
        try:
            ints = [int(s) for s in strings]
        except ValueError:
            return None
        values[word[2:].replace("-", "_")] = True if k == 0 else ints[0] if k == 1 else ints
    # one key each for the output, every option and the input: none is missing
    if len(values) < 1 + len(options) + (reader is not None):
        return None
    return handler, reader, values


def _argparse(argv: list[str]) -> tuple:
    """``_plain`` for every other line: help, usage errors, unique
    prefixes, ``=`` and attached values, ``--`` and negative numbers,
    read by an argparse parser built from ``COMMANDS``."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def __init__(self, **kwargs):
            super().__init__(
                epilog="INPUT is a file, or - for stdin; -o/--output writes the report to a file.",
                formatter_class=lambda prog: argparse.HelpFormatter(prog, width=1 << 16),
                **kwargs,
            )

        def error(self, message):
            raise _UsageError(f"{self.format_usage()}kakimizu: error: {message}\n")

        def print_help(self, file=None):
            raise _Help(self.format_help())

    parser = Parser(
        prog="kakimizu",
        description="Seifert-surface complexes of special alternating diagrams",
    )
    sub = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    for name, (handler, line, reader, options) in COMMANDS.items():
        p = sub.add_parser(name, help=line, description=line)
        p.set_defaults(handler=handler, reader=reader)
        p.add_argument("-o", "--output")
        for option, (metavar, *default) in options.items():
            words = metavar.split()
            if not words:
                p.add_argument(option, action="store_true")
            else:
                p.add_argument(
                    option,
                    type=int,
                    nargs=len(words) if len(words) > 1 else None,
                    metavar=tuple(words) if len(words) > 1 else metavar,
                    required=not default,
                    default=default[0] if default else None,
                )
        if reader is not None:
            p.add_argument("input", metavar="INPUT")
    values = vars(parser.parse_args(argv))
    empty = [name for name, value in values.items() if value == []]
    if empty:
        # argparse before 3.12.7 reads "--output=--" and "-o--" as no value
        parser.error(f"argument --{empty[0].replace('_', '-')}: expected one argument")
    return values.pop("handler"), values.pop("reader"), values


def _parse(argv: list[str]) -> tuple:
    """The handler that ``argv`` selects, the reader of its input and the
    options to call it with, as argparse reads them; argparse itself is
    loaded only for the lines ``_plain`` leaves to it."""
    return _plain(argv) or _argparse(argv)


_compact = json.JSONEncoder(separators=(",", ":")).encode
_SEQS = {list, tuple}
# rows formatted per write: enough that the cost of a write vanishes, few
# enough that the text held at once is a small part of a large complex's
_CHUNK = 4096


class _Unmirrored(Exception):
    """A value the writer leaves to ``json.dumps``."""


def _depth(o) -> int:
    """How many levels of lists lead from the list ``o`` to ints, the same
    on every branch (an empty list may end one), or 0 when they differ or
    something else is met.  Ints must be exactly ``int``, as ``"%d"``
    writes True as 1 and 1.5 as 1."""
    depth, level = 1, o
    while not (kinds := set(map(type, level))) <= {int}:
        if not kinds <= _SEQS:
            return 0
        level = o
        for _ in range(depth):
            level = itertools.chain.from_iterable(level)
        depth += 1
    return depth


@functools.lru_cache(maxsize=1024)
def _template(shape, nl: str) -> str:
    """The ``%`` template of a row whose line starts ``nl``: ``shape`` is
    its length for a row of ints, or the tuple of their lengths for a row
    of int rows."""
    if not shape:
        return "[]"
    inner = nl + "  "
    items = ["%d"] * shape if isinstance(shape, int) else [_template(n, inner) for n in shape]
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def _chunks(rows, nl: str, depth: int):
    """The text of a list of rows of ints (``depth`` 2) or of int rows (3),
    a chunk of rows at a time, each row one ``%`` on its shape's template."""
    shape, values = (len, tuple) if depth == 2 else (
        lambda r: tuple(map(len, r)), lambda r: tuple(itertools.chain.from_iterable(r)))
    inner = nl + "  "
    templates = {s: _template(s, inner) for s in set(map(shape, rows))}
    sep = "," + inner
    for i in range(0, len(rows), _CHUNK):
        text = sep.join([templates[shape(r)] % values(r) for r in rows[i : i + _CHUNK]])
        yield ("," if i else "[") + inner + text
    yield nl + "]"


def _plan(o, nl: str, out: list) -> None:
    """Append the JSON text of ``o`` to ``out``: strings, and for each list
    of rows longer than a chunk a generator of its text.  ``nl`` is a
    newline plus the indentation of the line ``o`` starts on.  Every value
    is read here, so an unmirrored one is met before anything is written."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None or isinstance(o, (int, float)):
        out.append(_compact(o))
    elif isinstance(o, (list, tuple)):
        depth = _depth(o)
        if depth == 1:
            out.append(_template(len(o), nl) % tuple(o))
        elif depth in (2, 3):
            rows = _chunks(o, nl, depth)
            out.append(rows if len(o) > _CHUNK else "".join(rows))
        else:
            inner = nl + "  "
            sep = "[" + inner
            for v in o:
                out.append(sep)
                _plan(v, inner, out)
                sep = "," + inner
            out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        if set(map(type, o)) != {str}:
            raise _Unmirrored
        inner = nl + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            out.append(sep + encode_basestring_ascii(k) + ": ")
            _plan(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise _Unmirrored


def _emit(doc: dict, output: str | None) -> None:
    """Write ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline to
    the file ``output``, or to stdout when it is None, byte for byte.

    The document is read to the end first, and one with a non-string key
    or a value of another type goes to ``json.dumps`` whole.  Otherwise
    each run of text is written in one piece and each long list of rows,
    the bulk of a complex, a chunk at a time, so the whole text is never
    held at once.
    """
    parts: list = []
    try:
        _plan(doc, "\n", parts)
    except _Unmirrored:
        parts = [json.dumps(doc, indent=2, sort_keys=True)]
    parts.append("\n")
    with open(output, "w") if output is not None else contextlib.nullcontext(sys.stdout) as f:
        for text, run in itertools.groupby(parts, lambda p: type(p) is str):
            for piece in ["".join(run)] if text else itertools.chain.from_iterable(run):
                f.write(piece)


def main(argv: list[str] | None = None) -> int:
    try:
        handler, reader, values = _parse(sys.argv[1:] if argv is None else argv)
    except _Help as exc:
        sys.stdout.write(str(exc))
        return EXIT_OK
    except _UsageError as exc:
        sys.stderr.write(str(exc))
        return EXIT_USAGE
    output = values.pop("output")
    try:
        try:
            inputs = [reader(_read_input(values.pop("input")))] if reader else []
            code, doc = handler(*inputs, **values)
        except (ValueError, OverflowError) as exc:
            # an OverflowError is a number too large for an index or a range
            code, doc = EXIT_INVALID, {"error": str(exc)}
        except AssertionError as exc:
            code, doc = EXIT_INVALID, {"internal_error": str(exc)}
        _emit(doc, output)
    except OSError as exc:
        sys.stderr.write(f"kakimizu: {exc}\n")
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
