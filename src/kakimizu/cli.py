"""Command-line front end: file I/O and report aggregation.

One tool with subcommands; every report is JSON with sorted keys, so a
given (input, flags, seed) always produces byte-identical output.  Exit
codes: 0 success, 1 validation or computation failure on the input data
(or a broken library invariant, reported as ``internal_error``), 2 usage
error.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

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
    flag_check,
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


def cmd_validate(args) -> tuple[int, dict]:
    report = validate(parse_diagram(_read_input(args.input)))
    ok = all(v for k, v in report.items() if k != "messages")
    return (EXIT_OK if ok else EXIT_INVALID), report


def cmd_seifert(args) -> tuple[int, dict]:
    d = parse_diagram(_read_input(args.input))
    return EXIT_OK, seifert(d)


def cmd_theta(args) -> tuple[int, dict]:
    d = parse_diagram(_read_input(args.input))
    return EXIT_OK, theta_pipeline(d).to_json()


def cmd_complex(args) -> tuple[int, dict]:
    t = _sniff(_read_input(args.input))
    return EXIT_OK, build_complex(t).to_json()


def cmd_analyze(args) -> tuple[int, dict]:
    t = _sniff(_read_input(args.input))
    for idx in args.metric or ():
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
    if args.homology or args.ball:
        report = ball_report(t, c)
        if args.homology:
            doc["homology"] = report["homology"]
        if args.ball:
            doc["ball"] = report
            if not report["ok"]:
                code = EXIT_INVALID
    if args.flag_check:
        doc["flag_check"] = flag_check(c)
        if not doc["flag_check"]:
            code = EXIT_INVALID
    if args.metric is not None:
        iu, iv = args.metric
        doc["metric"] = {
            "u": iu,
            "v": iv,
            "distance": distance(c, c.vertices[iu], c.vertices[iv]),
        }
    return code, doc


def cmd_esd(args) -> tuple[int, dict]:
    return EXIT_OK, esd(args.n, args.m).to_json()


def cmd_product(args) -> tuple[int, dict]:
    t = _sniff(_read_input(args.input))
    prod, _ = component_product(t)
    return EXIT_OK, prod.to_json()


def _at_least_one(name: str, value: int) -> None:
    """A sweep over fewer than one case checks nothing, so refuse it."""
    if value < 1:
        raise ValueError(f"{name} must be positive")


def cmd_verify_esd(args) -> tuple[int, dict]:
    _at_least_one("max-n", args.max_n)
    _at_least_one("max-m", args.max_m)
    checked = []
    all_ok = True
    for n in range(1, args.max_n + 1):
        for m in range(1, args.max_m + 1):
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


def cmd_verify_product(args) -> tuple[int, dict]:
    t = _sniff(_read_input(args.input))
    c = build_complex(t)
    ok = _is_component_product(t, c)
    report = ball_report(t, c)
    code = EXIT_OK if ok and report["ok"] else EXIT_INVALID
    return code, {"isomorphic": ok, "ball": report}


def cmd_fibred(args) -> tuple[int, dict]:
    d = parse_diagram(_read_input(args.input))
    g = white_region_graph(d)
    return EXIT_OK, {
        "fibred": is_fibred(g),
        "graph_vertices": len(g.rotation),
        "graph_edges": len(g.edges),
    }


def cmd_surface(args) -> tuple[int, dict]:
    d = parse_diagram(_read_input(args.input))
    t = theta_pipeline(d)
    doc = realize_vertex(d, t, vertex_at(t, args.vertex))
    doc["vertex_index"] = args.vertex
    return EXIT_OK, doc


def cmd_selftest(args) -> tuple[int, dict]:
    _at_least_one("count", args.count)
    failures = []
    family = random_theta_family(args.seed, args.count)
    for i, t in enumerate(family):
        c = build_complex(t)
        if not _is_component_product(t, c):
            failures.append({"instance": i, "check": "product"})
        if not ball_report(t, c)["ok"]:
            failures.append({"instance": i, "check": "ball"})
        if not flag_check(c):
            failures.append({"instance": i, "check": "flag"})
    doc = {
        "seed": args.seed,
        "instances": len(family),
        "failures": failures,
        "all_ok": not failures,
    }
    return (EXIT_OK if not failures else EXIT_INVALID), doc


# -- the command table and its parser --------------------------------------

# One row per subcommand: its handler, its help line, whether it reads an
# input document, and its options.  Each option maps to its metavar, one
# word per value it takes (none for a flag), and then its default; an
# option without a default is required.  Option values are ints.  Every
# subcommand also takes -h/--help and -o/--output FILE.
COMMANDS = {
    "validate": (cmd_validate, "check a diagram document", True, {}),
    "seifert": (cmd_seifert, "Seifert circles and counts", True, {}),
    "theta": (cmd_theta, "diagram to theta graph", True, {}),
    "complex": (cmd_complex, "surface complex of a diagram or theta", True, {}),
    "analyze": (cmd_analyze, "reports on the surface complex", True, {
        "--homology": ("", False), "--flag-check": ("", False), "--ball": ("", False),
        "--metric": ("U V", None)}),
    "esd": (cmd_esd, "edgewise subdivision of a simplex", False,
            {"--n": ("N",), "--m": ("M",)}),
    "product": (cmd_product, "product complex over the components", True, {}),
    "verify-esd": (cmd_verify_esd, "subdivision theorem sweep", False,
                   {"--max-n": ("N", 3), "--max-m": ("M", 4)}),
    "verify-product": (cmd_verify_product, "product theorem on one input", True, {}),
    "fibred": (cmd_fibred, "fibredness from the white-region graph", True, {}),
    "surface": (cmd_surface, "surface realization at a vertex", True, {"--vertex": ("INDEX",)}),
    "selftest": (cmd_selftest, "randomized property suites", False,
                 {"--seed": ("SEED", 0), "--count": ("COUNT", 20)}),
}

_SHORT = {"-h": "--help", "-o": "--output"}
# every option string before the subcommand, and of every subcommand, with
# the number of values it takes
_TOP = {"-h": 0, "--help": 0}
_COMMON = {**_TOP, "-o": 1, "--output": 1}
# argparse reads a token that looks like a negative number as a value; the
# pattern is compiled on first use, which the usual command line never needs
_NEGATIVE = r"-\d+$|-\d*\.\d+$"


class _UsageError(Exception):
    """The command line does not parse; the message names the bad token,
    and ``command`` is the subcommand it follows, if any."""

    command = None


class _Help(Exception):
    """-h or --help was read; the argument is the help text to print."""


def _usage(name: str | None) -> str:
    if name is None:
        return "usage: kakimizu [-h] COMMAND ..."
    words = ["usage: kakimizu", name, "[-h] [-o OUTPUT]"]
    for option, (metavar, *default) in COMMANDS[name][3].items():
        word = f"{option} {metavar}".rstrip()
        words.append(f"[{word}]" if default else word)
    if COMMANDS[name][2]:
        words.append("INPUT")
    return " ".join(words)


def _help(name: str | None) -> str:
    if name is None:
        rows = "".join(f"  {n:<16}{row[1]}\n" for n, row in COMMANDS.items())
        head = f"Seifert-surface complexes of special alternating diagrams\n\ncommands:\n{rows}"
    else:
        head = f"{COMMANDS[name][1]}\n"
    return (
        f"{_usage(name)}\n\n{head}\nINPUT is a file, or - for stdin; "
        "-o/--output writes the report to a file.\n"
    )


def _classify(token: str, names) -> tuple | None:
    """What argparse makes of ``token``, met before any ``--``, when ``names``
    are the option strings: None for a value, else the option string (None
    for an unknown option) and the value attached to it by ``=`` or, after a
    one-letter option, directly."""
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    head, eq, tail = token.partition("=")
    if eq and head in names:
        return head, tail
    if token[1] == "-":
        found = [(n, tail if eq else None) for n in names if n.startswith(head)]
    else:
        found = [(n, token[2:]) for n in names if n == token[:2]]
    if len(found) > 1:
        matches = ", ".join(n for n, _ in found)
        raise _UsageError(f"ambiguous option: {token} could match {matches}")
    if found:
        return found[0]
    if re.match(_NEGATIVE, token) or " " in token:
        return None
    return None, None


def _take_option(tokens, i, kinds, arity) -> tuple[int, list]:
    """Read the option at ``tokens[i]``, where ``kinds`` classifies the
    tokens before any ``--`` and ``arity`` maps each option string to the
    number of values it takes.  Returns the index after the option and its
    (option, value strings) pairs, one for each one-letter flag run
    together with it, as in ``-ho``."""
    written, attached = kinds[i]
    taken = []
    while True:
        k = arity[written]
        option = _SHORT.get(written, written)
        if attached is None:
            if kinds[i + 1 : i + 1 + k] != [None] * k:
                raise _UsageError(f"argument {written}: expected {k} value(s)")
            taken.append((option, tokens[i + 1 : i + 1 + k]))
            return i + 1 + k, taken
        if k == 1:
            taken.append((option, [attached]))
            return i + 1, taken
        if k or written[1] == "-" or not attached or "-" + attached[0] not in arity:
            raise _UsageError(f"argument {tokens[i]}: ignored value {attached!r}")
        taken.append((option, []))
        written, attached = "-" + attached[0], attached[1:] or None


def _value(option: str, strings: list[str]):
    """True for a flag, the file name for --output, else the ints given,
    in a list when there are several."""
    if option == "--output":
        return strings[0]
    if not strings:
        return True
    ints = []
    for s in strings:
        try:
            ints.append(int(s))
        except ValueError:
            raise _UsageError(f"argument {option}: invalid int value: {s!r}") from None
    return ints[0] if len(ints) == 1 else ints


def _parse(argv: list[str]) -> tuple:
    """The handler that ``argv`` selects and the options to call it with,
    read as argparse read them when the parser was built with it: before
    the subcommand only -h/--help is an option, an option may be shortened
    to a unique prefix, and ``--`` ends the options."""
    unknown = []
    for i, token in enumerate(argv):
        kind = None if token == "--" else _classify(token, _TOP)
        if kind is None:
            break
        if kind[0] is None:
            unknown.append(token)
        else:
            _take_option([token], 0, [kind], _TOP)
            raise _Help(_help(None))
    else:
        raise _UsageError("a command is required")
    if argv[i] not in COMMANDS:
        raise _UsageError(f"invalid choice: {argv[i]!r}")
    try:
        return _parse_command(argv[i], argv[i + 1 :], unknown)
    except _UsageError as exc:
        exc.command = argv[i]
        raise


def _parse_command(name: str, tokens: list[str], unknown: list[str]) -> tuple:
    """``_parse`` after the subcommand ``name``; ``unknown`` holds the
    unknown options met before it."""
    handler, _, reads_input, options = COMMANDS[name]
    arity = dict(_COMMON)
    values = {"output": None}
    for option, (metavar, *default) in options.items():
        arity[option] = len(metavar.split())
        if default:
            values[option[2:].replace("-", "_")] = default[0]
    end = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_classify(token, arity) for token in tokens[:end]]
    seen, got_input = set(), False
    i = 0
    while i < len(tokens):
        kind = kinds[i] if i < end else None
        if kind and kind[0]:
            i, taken = _take_option(tokens, i, kinds, arity)
            for option, strings in taken:
                if option == "--help":
                    raise _Help(_help(name))
                seen.add(option)
                values[option[2:].replace("-", "_")] = _value(option, strings)
        elif not kind and reads_input and not got_input and (i < end or i + 1 < len(tokens)):
            # argparse matches the input to the pattern '-*A-*', so a '--'
            # just before or just after it goes with it
            i += i == end
            values["input"] = tokens[i]
            got_input = True
            i += 1 + (i + 1 == end)
        else:
            unknown.append(tokens[i])
            i += 1
    missing = [o for o, spec in options.items() if len(spec) == 1 and o not in seen]
    if reads_input and not got_input:
        missing.append("INPUT")
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise _UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return handler, values


_compact = json.JSONEncoder(separators=(",", ":")).encode
_INTS = {int, bool}
_SEQS = {list, tuple}


class _Unmirrored(Exception):
    """A value ``_dumps`` does not write itself."""


def _dumps(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte.

    Lists nesting non-empty lists to the same depth on every branch down
    to ints, the bulk of a complex, are written by the C encoder and
    re-indented by one ``str.replace`` per level; a document with a
    non-string key or a value of another type goes to ``json.dumps`` whole.
    """
    out: list[str] = []
    try:
        _write(doc, "\n", out)
    except _Unmirrored:
        return json.dumps(doc, indent=2, sort_keys=True)
    return "".join(out)


def _int_depth(o) -> int:
    """How many levels of non-empty lists lead from ``o`` to ints, the same
    on every branch, or 0 when they differ or something else is met; each
    level is read through lazy chains, so nothing is copied."""

    def level(k: int):
        items = o
        for _ in range(k):
            items = itertools.chain.from_iterable(items)
        return items

    depth = 0
    while not (kinds := set(map(type, level(depth)))) <= _INTS:
        if not (kinds <= _SEQS and all(level(depth))):
            return 0
        depth += 1
    return depth + 1


def _write(o, nl: str, out: list[str]) -> None:
    """Append the JSON text of ``o`` to ``out``; ``nl`` is a newline plus the
    indentation of the line ``o`` starts on."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None or isinstance(o, (int, float)):
        out.append(_compact(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
        elif depth := _int_depth(o):
            # ind[j] starts a line j levels in, so the ints sit at
            # ind[depth]; where an innermost list ends inside a list k
            # levels out, k lists close and k open, and the widest such
            # fences are replaced first, as each holds the narrower ones
            ind = [nl + "  " * j for j in range(depth + 1)]

            def opens(k: int) -> str:
                return "".join(ind[j] + "[" for j in range(depth - k, depth)) + ind[depth]

            def closes(k: int) -> str:
                return "".join(ind[j] + "]" for j in reversed(range(depth - k, depth)))

            body = _compact(o)[depth:-depth].replace(",", "," + ind[depth])
            for k in range(depth - 1, 0, -1):
                fence = "]" * k + "," + ind[depth] + "[" * k
                body = body.replace(fence, closes(k) + "," + opens(k))
            out.append(opens(depth)[len(nl):] + body + closes(depth))
        else:
            inner = nl + "  "
            sep = "[" + inner
            for v in o:
                out.append(sep)
                _write(v, inner, out)
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
            _write(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise _Unmirrored


def _emit(doc: dict, output: str | None) -> None:
    text = _dumps(doc) + "\n"
    if output is not None:
        with open(output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    try:
        handler, values = _parse(sys.argv[1:] if argv is None else argv)
    except _Help as exc:
        sys.stdout.write(str(exc))
        return EXIT_OK
    except _UsageError as exc:
        sys.stderr.write(f"{_usage(exc.command)}\nkakimizu: error: {exc}\n")
        return EXIT_USAGE
    try:
        try:
            code, doc = handler(SimpleNamespace(**values))
        except (ValueError, OverflowError) as exc:
            # an OverflowError is a number too large for an index or a range
            code, doc = EXIT_INVALID, {"error": str(exc)}
        except AssertionError as exc:
            code, doc = EXIT_INVALID, {"internal_error": str(exc)}
        _emit(doc, values["output"])
    except OSError as exc:
        sys.stderr.write(f"kakimizu: {exc}\n")
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
