"""Command-line behaviour: exit codes, report shapes, determinism."""

import ast
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakimizu import cli, kcomplex, structure
from kakimizu.cli import EXIT_INVALID, EXIT_OK, EXIT_USAGE, main
from kakimizu.diagram import parse_diagram, seifert, validate
from kakimizu.homology import homology
from kakimizu.kcomplex import build_complex
from kakimizu.structure import ball_report
from kakimizu.theta import parse_theta
from oracles import argparse_parser
from test_golden_cli import commands as golden_commands

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kakimizu"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out else None
    return code, doc, captured.err


def fx(name):
    return str(FIXTURES / name)


# -- validate ---------------------------------------------------------------


def test_validate_good_fixture(capsys):
    code, doc, _ = run(capsys, "validate", fx("hopf.json"))
    assert code == EXIT_OK
    for flag in ("connected", "alternating", "special", "reduced", "prime"):
        assert doc[flag] is True
    assert not any(m.startswith("not ") for m in doc["messages"])


def test_validate_nugatory_fixture(capsys):
    code, doc, _ = run(capsys, "validate", fx("nugatory.json"))
    assert code == EXIT_INVALID
    assert doc["alternating"] is True and doc["special"] is True
    assert doc["reduced"] is False
    assert any("reduced" in m for m in doc["messages"])


def test_validate_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO((FIXTURES / "hopf.json").read_text()))
    code, doc, _ = run(capsys, "validate", "-")
    assert code == EXIT_OK and doc["connected"] is True


def diagram_doc(pds, ids=None):
    """An inline diagram document: one crossing per PD code."""
    ids = range(len(pds)) if ids is None else ids
    return json.dumps({"crossings": [{"id": i, "pd": pd} for i, pd in zip(ids, pds)]})


def run_stdin(capsys, monkeypatch, text, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return run(capsys, *argv, "-")


# the figure-eight knot: alternating, with crossings of both signs
FIGURE_EIGHT = [[4, 2, 5, 1], [8, 6, 1, 5], [6, 3, 7, 4], [2, 7, 3, 8]]
# the medial of the 4-cycle: special, reduced and prime, but no white
# region is cuttable
MEDIAL_C4 = [[1, 8, 2, 5], [7, 2, 8, 3], [3, 6, 4, 7], [5, 4, 6, 1]]


def test_validate_figure_eight_is_not_special(capsys, monkeypatch):
    code, doc, _ = run_stdin(capsys, monkeypatch, diagram_doc(FIGURE_EIGHT), "validate")
    assert code == EXIT_INVALID
    assert doc["alternating"] is True and doc["special"] is False
    assert "not special: crossings of both signs" in doc["messages"]


@pytest.mark.parametrize(
    "argv",
    [["seifert"], ["theta"], ["fibred"], ["complex"], ["surface", "--vertex", "0"]],
    ids=lambda argv: argv[0],
)
def test_stages_refuse_a_diagram_that_is_not_special(capsys, monkeypatch, argv):
    code, doc, _ = run_stdin(capsys, monkeypatch, diagram_doc(FIGURE_EIGHT), *argv)
    assert code == EXIT_INVALID
    assert doc == {"error": "diagram is not special alternating"}


def test_medial_of_four_cycle_fails_only_the_cuttable_region(capsys, monkeypatch):
    """Today's behaviour, recorded rather than endorsed: every other flag
    holds, and the ball checks pass on its one-vertex complex."""
    text = diagram_doc(MEDIAL_C4)
    code, doc, _ = run_stdin(capsys, monkeypatch, text, "validate")
    assert code == EXIT_INVALID
    assert doc["cuttable_region_exists"] is False
    for flag in ("connected", "alternating", "special", "reduced", "prime"):
        assert doc[flag] is True
    assert doc["messages"] == ["no cuttable white region"]
    code, doc, _ = run_stdin(capsys, monkeypatch, text, "analyze", "--ball", "--flag-check")
    assert code == EXIT_OK and doc["ball"]["ok"] and doc["flag_check"]
    code, doc, _ = run_stdin(capsys, monkeypatch, text, "verify-product")
    assert code == EXIT_OK and doc["ball"]["ok"] and doc["isomorphic"]


# -- pipeline stages --------------------------------------------------------


def test_seifert_hopf(capsys):
    code, doc, _ = run(capsys, "seifert", fx("hopf.json"))
    assert code == EXIT_OK
    assert doc["s"] == 2 and doc["chi"] == 0


def test_theta_dalpha(capsys):
    code, doc, _ = run(capsys, "theta", fx("dalpha.json"))
    assert code == EXIT_OK
    counts = sorted(len(comp["edges"]) for comp in doc["components"])
    assert counts == [2, 3]


def test_complex_from_diagram(capsys):
    code, doc, _ = run(capsys, "complex", fx("dalpha.json"))
    assert code == EXIT_OK
    assert len(doc["vertices"]) == 20
    assert len(doc["maximal_simplices"]) == 27


def test_complex_from_theta_document(capsys):
    code_d, doc_d, _ = run(capsys, "complex", fx("dalpha.json"))
    code_t, doc_t, _ = run(capsys, "complex", fx("dalpha.theta.json"))
    assert code_d == code_t == EXIT_OK
    assert doc_d == doc_t


# -- analyze ----------------------------------------------------------------


def test_analyze_reports(capsys):
    code, doc, _ = run(
        capsys,
        "analyze",
        fx("dalpha.theta.json"),
        "--homology",
        "--ball",
        "--flag-check",
    )
    assert code == EXIT_OK
    assert doc["vertex_count"] == 20
    assert doc["dimension"] == 3
    assert doc["pure"] is True
    assert doc["homology"]["reduced_betti"] == [0, 0, 0, 0]
    assert doc["homology"]["torsion"] == [[], [], [], []]
    assert doc["ball"]["ok"] is True
    assert doc["flag_check"] is True


DIAGRAMS = sorted(p.name for p in FIXTURES.glob("*.json") if not p.name.endswith(".theta.json"))


@pytest.mark.parametrize("name", DIAGRAMS)
def test_validate_and_seifert_print_the_library_reports(capsys, name):
    d = parse_diagram((FIXTURES / name).read_text())
    assert run(capsys, "validate", fx(name))[1] == validate(d)
    assert run(capsys, "seifert", fx(name))[1] == seifert(d)


def test_analyze_prints_the_library_reports(capsys):
    t = parse_theta((FIXTURES / "dalpha.theta.json").read_text())
    _, doc, _ = run(capsys, "analyze", fx("dalpha.theta.json"), "--ball", "--homology")
    assert doc["ball"] == ball_report(t, build_complex(t))
    assert doc["homology"] == homology(build_complex(t))


def test_analyze_metric_symmetric(capsys):
    code, doc, _ = run(capsys, "analyze", fx("dalpha.theta.json"), "--metric", "0", "7")
    assert code == EXIT_OK
    forward = doc["metric"]["distance"]
    _, doc2, _ = run(capsys, "analyze", fx("dalpha.theta.json"), "--metric", "7", "0")
    assert doc2["metric"]["distance"] == forward >= 1


def test_analyze_metric_out_of_range(capsys):
    code, doc, _ = run(capsys, "analyze", fx("dalpha.theta.json"), "--metric", "0", "99")
    assert code == EXIT_INVALID
    assert "out of range" in doc["error"]


def test_analyze_metric_checked_before_homology(capsys, monkeypatch):
    argv = ["analyze", fx("dalpha.theta.json"), "--homology", "--ball", "--metric", "0", "99"]
    expected = run(capsys, *argv)
    assert expected[0] == EXIT_INVALID and "out of range" in expected[1]["error"]

    def refuse(*args, **kwargs):
        raise AssertionError("homology ran before the range check")

    monkeypatch.setattr("kakimizu.structure.homology", refuse)
    assert run(capsys, *argv) == expected


def test_analyze_metric_checked_before_the_build(capsys, monkeypatch):
    argv = ["analyze", fx("dalpha.theta.json"), "--flag-check", "--metric", "0", "20"]
    expected = run(capsys, *argv)
    assert expected[:2] == (EXIT_INVALID, {"error": "vertex index 20 out of range"})

    def refuse(*args, **kwargs):
        raise AssertionError("the complex was built before the range check")

    monkeypatch.setattr(cli, "build_complex", refuse)
    assert run(capsys, *argv) == expected


# -- structure subcommands --------------------------------------------------


def test_esd_counts(capsys):
    code, doc, _ = run(capsys, "esd", "--n", "2", "--m", "2")
    assert code == EXIT_OK
    assert len(doc["vertices"]) == 6
    assert len(doc["maximal_simplices"]) == 4


def test_esd_long_sequences(capsys):
    # 1,200-entry reading sequences, deeper than the recursion limit
    code, doc, err = run(capsys, "esd", "--n", "1", "--m", "600")
    assert code == EXIT_OK and err == ""
    assert len(doc["vertices"]) == 601
    assert len(doc["maximal_simplices"]) == 600


def test_verify_esd_sweep(capsys):
    code, doc, _ = run(capsys, "verify-esd", "--max-n", "2", "--max-m", "2")
    assert code == EXIT_OK
    assert doc["all_ok"] is True
    assert len(doc["checked"]) == 4
    assert all(entry["isomorphic"] for entry in doc["checked"])


@pytest.mark.parametrize(
    "argv,message",
    [
        (["selftest", "--count", "-2"], "count must be positive"),
        (["selftest", "--count", "0"], "count must be positive"),
        (["verify-esd", "--max-n", "0"], "max-n must be positive"),
        (["verify-esd", "--max-m", "-1"], "max-m must be positive"),
        (["esd", "--n", "-1", "--m", "1"], "n must be nonnegative"),
        (["esd", "--n", "1", "--m", "0"], "m must be positive"),
    ],
)
def test_empty_sweeps_are_refused(capsys, argv, message):
    code, doc, err = run(capsys, *argv)
    assert code == EXIT_INVALID
    assert doc == {"error": message}
    assert err == ""


def test_product_counts(capsys):
    code, doc, _ = run(capsys, "product", fx("dalpha.theta.json"))
    assert code == EXIT_OK
    assert len(doc["vertices"]) == 20
    assert len(doc["maximal_simplices"]) == 27


def test_verify_product(capsys):
    code, doc, _ = run(capsys, "verify-product", fx("dalpha.theta.json"))
    assert code == EXIT_OK
    assert doc["isomorphic"] is True
    assert doc["ball"]["ok"] is True


def test_verify_product_builds_one_component_complex_once(capsys, monkeypatch, tmp_path):
    """A one-component graph is its own product: the complex is built once
    and still checked against itself and as a ball."""
    doc = {"components": [{
        "id": 0,
        "edges": [{"id": 0, "weight": 2}, {"id": 1, "weight": 1}, {"id": 2, "weight": 1}],
        "placement": {"parent": "sphere", "parent_face": 0, "outer_face": 0},
    }]}
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(doc))
    before = run(capsys, "verify-product", str(path))
    calls = []

    def counting(t):
        calls.append(t)
        return kcomplex.build_complex(t)

    monkeypatch.setattr(cli, "build_complex", counting)
    monkeypatch.setattr(structure, "build_complex", counting)
    assert run(capsys, "verify-product", str(path)) == before
    assert len(calls) == 1
    assert before[0] == EXIT_OK and before[1]["isomorphic"] is True


# -- the builder and the flag check -----------------------------------------


def test_builder_needs_no_neighbour_graph(capsys, monkeypatch):
    """The complex comes from the region walk alone: the neighbour graph and
    the clique search are left to the flag check."""
    commands = [
        ("complex", fx("dalpha.theta.json")),
        ("product", fx("dalpha.theta.json")),
        ("verify-product", fx("dalpha.theta.json")),
        ("verify-esd",),
    ]
    before = [run(capsys, *argv) for argv in commands]
    t = parse_theta((FIXTURES / "dalpha.theta.json").read_text())
    built = kcomplex.build_complex(t).to_json()

    def refuse(*args):
        raise AssertionError("the neighbour graph was used")

    monkeypatch.setattr(kcomplex, "_neighbour_sets", refuse)
    monkeypatch.setattr(kcomplex, "_maximal_cliques", refuse)
    assert kcomplex.build_complex(t).to_json() == built
    after = [run(capsys, *argv) for argv in commands]
    assert after == before
    assert all(code == EXIT_OK for code, _, _ in after)


def drop_first_simplex(monkeypatch):
    """Make the CLI build every complex without its first maximal simplex."""

    def dropping(t):
        c = kcomplex.build_complex(t)
        c.maximal_simplices = c.maximal_simplices[1:]
        return c

    monkeypatch.setattr(cli, "build_complex", dropping)


def test_flag_check_failure_exits_invalid(capsys, monkeypatch):
    drop_first_simplex(monkeypatch)
    code, doc, _ = run(capsys, "analyze", "--flag-check", fx("dalpha.theta.json"))
    assert code == EXIT_INVALID
    assert doc["flag_check"] is False


def test_selftest_reports_flag_failures(capsys, monkeypatch):
    drop_first_simplex(monkeypatch)
    # seed 0 starts with complexes of 24, 81 and 27 top simplices, so each
    # keeps some after the drop
    code, doc, _ = run(capsys, "selftest", "--seed", "0", "--count", "3")
    assert code == EXIT_INVALID
    assert doc["all_ok"] is False
    flags = [f for f in doc["failures"] if f["check"] == "flag"]
    assert flags == [{"instance": i, "check": "flag"} for i in range(3)]


def test_ball_check_failure_exits_invalid(capsys, monkeypatch):
    def holed(c):
        report = homology(c)
        report["reduced_betti"][-1] = 1
        return report

    monkeypatch.setattr("kakimizu.structure.homology", holed)
    code, doc, _ = run(capsys, "analyze", "--ball", fx("dalpha.theta.json"))
    assert code == EXIT_INVALID and doc["ball"]["ok"] is False
    code, doc, _ = run(capsys, "verify-product", fx("dalpha.theta.json"))
    assert code == EXIT_INVALID and doc["ball"]["ok"] is False
    assert doc["isomorphic"] is True
    code, doc, _ = run(capsys, "selftest", "--seed", "0", "--count", "1")
    assert code == EXIT_INVALID
    assert doc["failures"] == [{"instance": 0, "check": "ball"}]


def test_fibred_trefoil(capsys):
    code, doc, _ = run(capsys, "fibred", fx("trefoil.json"))
    assert code == EXIT_OK
    assert doc["fibred"] is True
    assert doc["graph_vertices"] >= 1 and doc["graph_edges"] >= 1


# -- surface ----------------------------------------------------------------


def test_surface_every_vertex_in_the_unit_ball(capsys):
    _, complex_doc, _ = run(capsys, "complex", fx("dalpha.json"))
    vertices = complex_doc["vertices"]
    realized = []
    for idx in range(len(vertices)):
        code, doc, _ = run(capsys, "surface", fx("dalpha.json"), "--vertex", str(idx))
        if code == EXIT_OK:
            realized.append(idx)
            assert doc["n_a"] + doc["n_b"] == 10
            assert doc["euler_characteristic"] == -5
            assert doc["vertex_index"] == idx
        else:
            assert "distance 1" in doc["error"]
    # base plus its six flype neighbours
    assert len(realized) == 7
    assert vertices.index([1, 0, 2, 0, 1]) in realized


def test_surface_has_no_convention_option(capsys):
    # the base vertex's arcs always sit on the negative side of each crossing
    argv = ["surface", fx("dalpha.json"), "--vertex", "17", "--convention", "negative"]
    assert main(argv) == EXIT_USAGE
    assert "--convention" in capsys.readouterr().err


def test_surface_does_not_build_the_complex(capsys, monkeypatch):
    _, complex_doc, _ = run(capsys, "complex", fx("dalpha.json"))
    idx = complex_doc["vertices"].index([1, 0, 2, 0, 1])

    def refuse(t):
        raise AssertionError("surface built the whole complex")

    monkeypatch.setattr("kakimizu.cli.build_complex", refuse)
    code, doc, _ = run(capsys, "surface", fx("dalpha.json"), "--vertex", str(idx))
    assert code == EXIT_OK
    assert doc["vertex"] == [1, 0, 2, 0, 1] and doc["vertex_index"] == idx
    code, doc, _ = run(capsys, "surface", fx("dalpha.json"), "--vertex", "20")
    assert code == EXIT_INVALID
    assert "out of range" in doc["error"]


def test_surface_unranks_a_vertex_of_a_huge_complex(capsys, tmp_path):
    """The 1,200-crossing hub diagram of the benchmark's diagram ladder has
    one theta component of 8 edges and weight 300, so C(307, 7) vertices;
    its base vertex is realized by rank, without listing the others."""
    import importlib.util
    import random

    from kakimizu.medial import medial
    from oracles import vertex_rank

    spec = importlib.util.spec_from_file_location(
        "workloads", FIXTURES.parent / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    chains = workloads.hub_chains(random.Random(0), 1200, 8, 300)
    path = tmp_path / "hub1200.json"
    path.write_text(workloads.diagram_document(medial(workloads.hub_graph(chains)[0])))
    weights = workloads.hub_theta(chains)
    _, theta_doc, _ = run(capsys, "theta", str(path))
    t = parse_theta(json.dumps(theta_doc))
    assert vertex_rank(t, (300,) + (0,) * 7) == comb(307, 7) - 1
    idx = vertex_rank(t, tuple(weights))
    code, doc, _ = run(capsys, "surface", str(path), "--vertex", str(idx))
    assert code == EXIT_OK
    assert doc["vertex"] == weights and doc["vertex_index"] == idx
    code, doc, _ = run(capsys, "surface", str(path), "--vertex", str(comb(307, 7)))
    assert code == EXIT_INVALID and "out of range" in doc["error"]


def test_surface_vertex_out_of_range(capsys):
    code, doc, _ = run(capsys, "surface", fx("dalpha.json"), "--vertex", "99")
    assert code == EXIT_INVALID
    assert "out of range" in doc["error"]


# -- selftest and seeds -----------------------------------------------------


def test_selftest_small_family(capsys):
    code, doc, _ = run(capsys, "selftest", "--seed", "3", "--count", "3")
    assert code == EXIT_OK
    assert doc == {"all_ok": True, "failures": [], "instances": 3, "seed": 3}


def test_selftest_seed_comes_from_the_flag_alone(capsys, monkeypatch):
    """No environment variable stands in for ``--seed``: the same input and
    flags print the same bytes."""
    monkeypatch.setenv("KAKIMIZU_SEED", "99")
    code, doc, _ = run(capsys, "selftest", "--seed", "3", "--count", "2")
    assert code == EXIT_OK and doc["seed"] == 3


# -- output handling --------------------------------------------------------


def test_repeat_runs_are_byte_identical(capsys):
    main(["complex", fx("dalpha.json")])
    first = capsys.readouterr().out
    main(["complex", fx("dalpha.json")])
    second = capsys.readouterr().out
    assert first == second
    assert first.endswith("\n")


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = main(["seifert", fx("hopf.json"), "-o", str(target)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.out == ""
    assert json.loads(target.read_text())["s"] == 2


def reference_dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


ints = st.integers() | st.integers(min_value=-(2**80), max_value=2**80)
scalars = (
    st.none()
    | st.booleans()
    | ints
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf")])
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F) | st.sampled_from("\u00e9\u2211\U0001f600\"\\"))
)
# the shapes the emitter writes without recursing: int lists, and int lists
# of int lists, including empty ones (``torsion``) and tuples
int_rows = (
    st.lists(ints)
    | st.lists(st.booleans() | ints).map(tuple)
    | st.lists(st.lists(ints, max_size=4), max_size=5)
    | st.lists(st.lists(ints, min_size=1, max_size=4).map(tuple), max_size=5)
    | st.lists(st.lists(st.floats() | ints, min_size=1, max_size=3), max_size=3)
)
documents = st.recursive(
    scalars | int_rows,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


class Recorder:
    """A stand-in for stdout that keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def emitted(doc):
    """What the CLI's writer prints for ``doc``, less its final newline."""
    out = Recorder()
    with contextlib.redirect_stdout(out):
        cli._emit(doc, None)
    text = "".join(out.writes)
    assert text.endswith("\n")
    return text[:-1]


@settings(max_examples=200, deadline=None)
@given(documents)
def test_emitter_matches_json_dumps(doc):
    assert emitted(doc) == reference_dumps(doc)


def nested_ints(depth):
    """Lists and tuples of non-empty lists, ``depth`` levels down to ints."""
    s = ints
    for _ in range(depth):
        s = st.lists(s, min_size=1, max_size=3) | st.lists(s, min_size=1, max_size=3).map(tuple)
    return s


uniform_nests = st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), nested_ints(d)))
mixed_nests = st.recursive(
    ints,
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(uniform_nests)
def test_emitter_writes_uniform_int_nests_in_one_piece(case):
    """A list of ints, of int rows or of rows of int rows is one piece of
    text from row templates; deeper nests recurse down to such lists."""
    depth, doc = case
    parts = []
    cli._plan(doc, "\n", parts)
    if depth <= 3:
        assert len(parts) == 1
    assert emitted(doc) == reference_dumps(doc)
    assert emitted({"v": [doc]}) == reference_dumps({"v": [doc]})


@settings(max_examples=200, deadline=None)
@given(mixed_nests)
def test_emitter_matches_json_dumps_on_mixed_int_nests(doc):
    assert emitted(doc) == reference_dumps(doc)
    assert emitted({"v": [doc, doc]}) == reference_dumps({"v": [doc, doc]})


class Count(int):
    """An int subclass, which the row templates leave alone."""


@pytest.mark.parametrize(
    "doc",
    [
        # rows of one width where one value is not exactly an int: "%d"
        # would write True as 1
        [[1, 2], [True, 3]],
        [[1, 2], [3, False]],
        [[1, 2], [1.5, 3]],
        [[1, 2], [Count(7), 3]],
        [True, 1],
        [[], [], []],
        [[1], [], [2, 3]],
        [[[], []], [[1]]],
        [[-1, 2**63], [-(2**70), 2**64 + 1]],
        [(1, 2), [3, 4]],
        ((1, 2), (3,)),
        {"rows": ((0, -1),), "edge_order": (), "vertices": [()]},
        [[1, [2]], [3, 4]],
        [[1, None], [2, 3]],
    ],
)
def test_emitter_rows_match_json_dumps(doc):
    assert emitted(doc) == reference_dumps(doc)
    assert emitted({"v": [doc, 0]}) == reference_dumps({"v": [doc, 0]})


def test_emitter_writes_long_row_lists_a_chunk_at_a_time():
    rows = [[i, -i, i * 2**40] for i in range(2 * cli._CHUNK + 5)] + [[], [7]]
    doc = {"a": rows, "b": [tuple(r) for r in rows]}
    out = Recorder()
    with contextlib.redirect_stdout(out):
        cli._emit(doc, None)
    assert "".join(out.writes) == reference_dumps(doc) + "\n"
    # three chunks and the closing bracket for each list
    assert len(out.writes) >= 8
    assert max(map(len, out.writes)) < len(reference_dumps(doc)) / 3


def test_emitter_defers_non_string_keys_to_json_dumps():
    doc = {"a": [[1, 2]], "b": {1: [3], 2: "x"}}
    assert emitted(doc) == reference_dumps(doc)
    # a key json.dumps accepts but does not keep as it is
    assert emitted({True: None}) == reference_dumps({True: None}) == '{\n  "true": null\n}'
    # the fallback is decided before the row lists ahead of the key are
    # written, so the document goes out in one piece
    doc = {"a": [[i] for i in range(cli._CHUNK + 1)], "z": {1: 2}}
    out = Recorder()
    with contextlib.redirect_stdout(out):
        cli._emit(doc, None)
    assert out.writes == [reference_dumps(doc) + "\n"]


def test_emitter_defers_unknown_values_to_json_dumps(tmp_path):
    doc = {"a": [[i] for i in range(cli._CHUNK + 1)], "b": [1, {2}]}
    out = Recorder()
    with contextlib.redirect_stdout(out), pytest.raises(TypeError, match="set is not JSON serializable"):
        cli._emit(doc, None)
    assert out.writes == []
    target = tmp_path / "report.json"
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        cli._emit(doc, str(target))
    assert not target.exists()


def test_complex_is_printed_a_chunk_at_a_time(tmp_path, monkeypatch):
    """A complex of more simplices than one chunk is never held as one
    string, and ``-o FILE`` writes exactly what stdout gets."""
    source = tmp_path / "theta.json"
    source.write_text(json.dumps({"components": [{
        "id": 0,
        "edges": [{"id": e, "weight": 5} for e in range(4)],
        "placement": {"parent": "sphere", "parent_face": 0, "outer_face": 0},
    }]}))
    c = build_complex(parse_theta(source.read_text()))
    assert len(c.maximal_simplices) > cli._CHUNK
    doc = c.to_json()
    # the complex's own lists, not copies
    assert doc["maximal_simplices"] is c.maximal_simplices
    assert doc["vertices"] is c.vertices
    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["complex", str(source)]) == EXIT_OK
    text = "".join(out.writes)
    assert text == reference_dumps(doc) + "\n"
    assert max(map(len, out.writes)) < len(text) / 2
    target = tmp_path / "complex.json"
    assert main(["complex", str(source), "-o", str(target)]) == EXIT_OK
    assert "".join(out.writes) == text  # nothing more went to stdout
    assert target.read_bytes() == text.encode()


# -- error paths ------------------------------------------------------------


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def test_missing_required_option_is_usage_error(capsys):
    assert main(["esd"]) == EXIT_USAGE
    capsys.readouterr()


def test_format_option_is_gone(capsys):
    # JSON is the only output, so no option selects it
    assert main(["esd", "--n", "1", "--m", "1", "--format", "json"]) == EXIT_USAGE
    capsys.readouterr()


def test_missing_input_file(capsys):
    code = main(["validate", "no-such-file.json"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "no-such-file.json" in captured.err


def test_io_errors_are_usage_errors(capsys, tmp_path):
    # reading a directory, writing into a directory that does not exist,
    # and writing to an empty path, which names no file and not stdout
    missing = tmp_path / "no-such-dir" / "x.json"
    for argv in (
        ["complex", str(tmp_path)],
        ["esd", "--n", "1", "--m", "1", "-o", str(missing)],
        ["esd", "--n", "1", "--m", "1", "--output="],
        ["esd", "--n", "1", "--m", "1", "-o", ""],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("kakimizu: ") and captured.err.count("\n") == 1


def test_import_leaves_networkx_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    code = "import sys, kakimizu.cli; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_import_loads_no_dataclasses_inspect_or_typing():
    """Start-up cost: the CLI's import pulls in none of these modules, nor
    argparse and the translation machinery it loads.  The child runs
    without site, which on some hosts preloads ``typing``."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys; before = set(sys.modules); import kakimizu.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    added = set(out.stdout.split())
    assert "kakimizu.cli" in added
    forbidden = {"dataclasses", "inspect", "typing", "pathlib", "argparse", "gettext", "locale"}
    assert not added & forbidden


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"kakimizu.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_library_has_no_bare_asserts():
    """``python -O`` strips assert statements, so library invariants raise
    ``AssertionError`` explicitly."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    bare = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert bare == []


def test_malformed_document(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    code, doc, _ = run(capsys, "validate", str(bad))
    assert code == EXIT_INVALID
    assert "malformed document" in doc["error"]
    # non-integer JSON fields are rejected, not truncated or coerced
    for text in (
        '{"crossings": [{"id": null, "pd": [1, 2, 2, 1]}]}',
        '{"crossings": [{"id": {}, "pd": [1, 2, 2, 1]}]}',
    ):
        bad.write_text(text)
        code, doc, _ = run(capsys, "validate", str(bad))
        assert code == EXIT_INVALID and "integer" in doc["error"]
    for text, message in (
        (diagram_doc(FIGURE_EIGHT, ids=[0, 1, 1, 2]), "duplicate crossing ids"),
        ('{"crossings": [{"id": 0}, {"id": 1, "pd": [1, 2, 3, 4]}]}',
         "malformed document: crossing needs 'id' and 'pd'"),
    ):
        bad.write_text(text)
        code, doc, _ = run(capsys, "validate", str(bad))
        assert code == EXIT_INVALID and doc == {"error": message}
    theta = json.loads((FIXTURES / "dalpha.theta.json").read_text())
    theta["components"][0]["edges"][0]["weight"] = 1.5
    bad.write_text(json.dumps(theta))
    code, doc, _ = run(capsys, "complex", str(bad))
    assert code == EXIT_INVALID and "integer" in doc["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["validate"],
        ["seifert"],
        ["theta"],
        ["fibred"],
        ["surface", "--vertex", "0"],
        ["complex"],
        ["analyze"],
        ["product"],
        ["verify-product"],
    ],
    ids=lambda argv: argv[0],
)
def test_deeply_nested_document_is_a_json_error(capsys, monkeypatch, argv):
    """A nesting too deep for the JSON decoder is a malformed document,
    reported as JSON with exit 1, not a traceback."""
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100_000 + "]" * 100_000))
    code = main([argv[0], "-", *argv[1:]])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert "malformed document" in json.loads(captured.out)["error"]
    assert captured.err == ""


HUGE = 10**30
HUGE_WEIGHT_THETA = json.dumps(
    {
        "components": [
            {
                "id": 0,
                "edges": [{"id": 0, "weight": HUGE}, {"id": 1, "weight": 0}],
                "placement": {"parent": "sphere", "parent_face": 0, "outer_face": 0},
            }
        ]
    }
)


@pytest.mark.parametrize(
    "argv",
    [
        ["complex", "-"],
        ["analyze", "-"],
        ["product", "-"],
        ["verify-product", "-"],
        ["esd", "--n", "1", "--m", str(10**21)],
        ["esd", "--n", str(10**21), "--m", "1"],
    ],
    ids=["complex", "analyze", "product", "verify-product", "esd-m", "esd-n"],
)
def test_numbers_too_large_are_a_json_error(capsys, monkeypatch, argv):
    """A weight or a size too large for an index or a range ends in exit 1
    with an error document, not an ``OverflowError`` traceback."""
    monkeypatch.setattr("sys.stdin", io.StringIO(HUGE_WEIGHT_THETA))
    code, doc, err = run(capsys, *argv)
    assert code == EXIT_INVALID
    assert set(doc) == {"error"}
    assert err == ""


ODD = st.sampled_from([True, 1.5, None, "x", [], HUGE])


@st.composite
def fuzz_theta(draw):
    """A theta document of distinct small int ids, up to 3 components of 2
    or 3 edges and weight at most 2 each, with up to two of its ids,
    weights, edge lists or placements replaced by values a theta document
    must not hold."""
    cids, eids = draw(st.permutations(range(4))), iter(draw(st.permutations(range(9))))
    comps, slots = [], []
    # sampled from the largest down, as draws lean to the first choice
    for cid in cids[: draw(st.sampled_from([3, 2, 1, 0]))]:
        k = draw(st.sampled_from([3, 2]))
        weights = draw(
            st.lists(st.integers(0, 2), min_size=k, max_size=k).filter(lambda w: sum(w) <= 2)
        )
        edges = [{"id": next(eids), "weight": w} for w in weights]
        placement = {
            "parent": draw(st.sampled_from(["sphere", *(c["id"] for c in comps)])),
            "parent_face": draw(st.integers(0, 2)),
            "outer_face": draw(st.integers(0, k - 1)),
        }
        comp = {"id": cid, "edges": edges, "placement": placement}
        comps.append(comp)
        slots += [(e, key) for key in ("weight", "id") for e in edges]
        slots += [*((placement, key) for key in placement), (comp, "placement")]
        slots += [(comp, "edges"), (comp, "id")]
    for _ in range(draw(st.integers(0, 2)) if slots else 0):
        # half the time the one odd value that parses, so the work starts
        container, key = draw(st.sampled_from(slots))
        container[key] = draw(st.just(HUGE) | ODD)
    return {"components": comps}


@settings(max_examples=100, deadline=None)
@given(fuzz_theta())
def test_random_theta_documents_end_in_a_json_document(doc):
    text = json.dumps(doc)
    for argv in (
        ["complex", "-"],
        ["analyze", "-", "--ball", "--flag-check"],
        ["product", "-"],
        ["verify-product", "-"],
    ):
        out = io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(out):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_INVALID, EXIT_USAGE), argv
        assert isinstance(json.loads(out.getvalue()), dict), argv


PD_FIXTURES = [
    json.loads((FIXTURES / p).read_text())["crossings"]
    for p in sorted(os.listdir(FIXTURES))
    if p.endswith(".json") and not p.endswith(".theta.json")
]


@st.composite
def fuzz_pd(draw):
    """A fixture's PD code with one mutation: one pd rotated, two labels
    swapped within a crossing or between two crossings, one pd reversed, or
    every crossing mirrored (each pd rotated by one)."""
    crossings = [{"id": c["id"], "pd": list(c["pd"])} for c in draw(st.sampled_from(PD_FIXTURES))]
    pds = [c["pd"] for c in crossings]
    kind = draw(st.sampled_from(["rotate", "swap-within", "swap-between", "reverse", "mirror"]))
    i, j = draw(st.integers(0, len(pds) - 1)), draw(st.integers(0, len(pds) - 1))
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if kind == "rotate":
        k = draw(st.integers(1, 3))
        pds[i][:] = pds[i][k:] + pds[i][:k]
    elif kind == "swap-within":
        pds[i][a], pds[i][b] = pds[i][b], pds[i][a]
    elif kind == "swap-between":
        pds[i][a], pds[j][b] = pds[j][b], pds[i][a]
    elif kind == "reverse":
        pds[i].reverse()
    else:
        for pd in pds:
            pd[:] = pd[1:] + pd[:1]
    return {"crossings": crossings}


@settings(max_examples=100, deadline=None)
@given(fuzz_pd())
def test_mutated_pd_documents_end_in_a_json_document(doc):
    """Every diagram command on a mutated fixture exits 0, 1 or 2 with one
    JSON document on stdout."""
    text = json.dumps(doc)
    for argv in (
        ["validate", "-"],
        ["seifert", "-"],
        ["theta", "-"],
        ["fibred", "-"],
        ["surface", "-", "--vertex", "0"],
        ["complex", "-"],
        ["analyze", "-", "--ball"],
        ["product", "-"],
        ["verify-product", "-"],
    ):
        out = io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(out):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_INVALID, EXIT_USAGE), argv
        assert isinstance(json.loads(out.getvalue()), dict), argv


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()


# -- the command line -------------------------------------------------------


def test_reused_parser_matches_fresh_parser(capsys):
    """Call for call, a run sequence prints and exits the second time as it
    did the first, so a run leaves nothing behind that changes the next."""
    analyze = ["analyze", fx("dalpha.theta.json"), "--metric", "0", "7"]
    sequence = [analyze, ["frobnicate"], ["esd"], ["--help"], analyze]

    def outcomes():
        results = []
        for argv in sequence:
            code = main(list(argv))
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    first = outcomes()
    assert outcomes() == first
    assert [r[0] for r in first] == [EXIT_OK, EXIT_USAGE, EXIT_USAGE, EXIT_OK, EXIT_OK]
    assert first[0] == first[4]


ARGPARSE = argparse_parser()
OPTION_NAMES = sorted(
    {o for row in cli.COMMANDS.values() for o in row[3]} | {"-h", "--help", "-o", "--output"}
)
PREFIXES = sorted({o[:k] for o in OPTION_NAMES if o.startswith("--") for k in range(3, len(o))})
# values carry no "--": argparse before 3.12.7 drops it from "--output=--",
# leaving an empty list, where later releases keep it
VALUES = st.one_of(
    st.integers(-20, 40).map(str),
    st.sampled_from(["-", "", "in.json", "x", "1.5", "-1.5", " 4", "+2", "1_0", "a b", "-x y"]),
)
JUNK = ["-", "--", "-h", "-hh", "-hx", "-ho", "-oh", "-h=", "-o=", "--help=", "-=", "---",
        "-x", "--x", "--zz=1", "frobnicate"]


@st.composite
def command_lines(draw):
    """A command line: now and then a token before the subcommand, the
    subcommand (or junk), then options, their prefixes and ``=`` forms,
    values, ``--`` and junk in any order."""
    name = st.sampled_from(OPTION_NAMES + PREFIXES)
    chunk = st.one_of(
        st.tuples(name, st.lists(VALUES, max_size=3)).map(lambda t: [t[0], *t[1]]),
        st.tuples(name, VALUES).map(lambda t: [f"{t[0]}={t[1]}"]),
        VALUES.map(lambda v: ["-o" + v]),
        st.sampled_from(JUNK).map(lambda t: [t]),
        VALUES.map(lambda v: [v]),
    )
    before = draw(st.lists(st.sampled_from(["-h", "--he", "-x", "--x", "--help=1", "-hx", "-1"]),
                           max_size=1))
    command = draw(st.sampled_from([*cli.COMMANDS, "frobnicate"]))
    return [*before, command, *(t for c in draw(st.lists(chunk, max_size=6)) for t in c)]


def argparse_outcome(argv):
    """The exit code argparse gives ``argv``, and its handler, reader and
    options."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            ns = ARGPARSE.parse_args(argv)
    except SystemExit as exc:
        return (EXIT_USAGE if exc.code else EXIT_OK), None
    values = vars(ns)
    del values["command"]
    return EXIT_OK, (values.pop("handler"), values.pop("reader"), values)


def table_outcome(argv):
    try:
        return EXIT_OK, cli._parse(argv)
    except cli._Help:
        return EXIT_OK, None
    except cli._UsageError:
        return EXIT_USAGE, None


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_table_parser_matches_argparse(argv):
    assert table_outcome(list(argv)) == argparse_outcome(list(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["esd", "--n", "2", "--m=3", "-o", "out.json"],
        ["esd", "--n=-1", "--m", "-1", "-oout.json"],
        ["verify-esd", "--max-n", "2", "--max-m=1"],
        ["analyze", "--hom", "--flag", "--metric", "-1", "2", "--", "-in.json"],
        ["analyze", "in.json", "--"],
        ["validate", "--", "--"],
        ["selftest", "--s", "3", "--c", "1"],
        ["surface", "-", "--vert", "7"],
        ["esd", "-ho", "out.json"],
        ["--he"],
        ["--x", "esd", "-h"],
        ["verify-esd", "-h", "--max", "2"],
        ["esd", "--n", "1", "--m", "1", "--"],
        ["validate", "in.json", "-o", "out.json", "--"],
        ["esd", "--n", "x", "-h"],
        ["analyze", "--metric=3", "in.json"],
        ["analyze", "--h", "in.json"],
        ["validate", "a", "b"],
        ["esd", "--output", "--x", "--n", "1", "--m", "1"],
        ["-hx"],
        [],
    ],
    ids=" ".join,
)
def test_table_parser_matches_argparse_on_edge_cases(argv):
    """The spellings that need care: prefixes, attached values, -h before
    and after other tokens, ``--`` and negative numbers."""
    assert table_outcome(list(argv)) == argparse_outcome(list(argv))


PLAIN_INTS = st.one_of(st.integers(0, 40).map(str), st.sampled_from(["+2", " 4", "1_0", "007"]))
PLAIN_WORDS = st.sampled_from(["-", "in.json", "x", "a b", "", "x=1", "7"])


@st.composite
def clean_lines(draw):
    """A command line the plain reader must answer: the subcommand, then in
    any order each required option, maybe the others, maybe -o/--output,
    each with plain values, and the input."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    _, _, reader, options = cli.COMMANDS[name]
    chunks = []
    for option, (metavar, *default) in options.items():
        for _ in range(draw(st.integers(0 if default else 1, 2))):
            chunks.append([option, *(draw(PLAIN_INTS) for _ in metavar.split())])
    if draw(st.booleans()):
        chunks.append([draw(st.sampled_from(["-o", "--output"])), draw(PLAIN_WORDS)])
    if reader is not None:
        chunks.append([draw(PLAIN_WORDS)])
    return [name, *(t for c in draw(st.permutations(chunks)) for t in c)]


@settings(max_examples=300, deadline=None)
@given(clean_lines())
def test_plain_reader_answers_clean_lines(argv):
    assert (EXIT_OK, cli._plain(list(argv))) == argparse_outcome(list(argv))


def no_argparse(argv):
    raise AssertionError(f"argparse read {argv}")


BENCHMARK_LINES = [
    ["analyze", "-", "--homology", "--ball", "--flag-check"],
    ["analyze", "-", "--flag-check", "--metric", "0", "12340"],
    ["esd", "--n", "3", "--m", "4"],
    ["verify-esd", "--max-n", "2", "--max-m", "3"],
    ["surface", "-", "--vertex", "47601293640635"],
    *([name, "-"] for name in ("validate", "theta", "seifert", "fibred", "complex", "product",
                               "verify-product")),
    ["esd", "--n", "1", "--m", "1", "-o", "out.json"],
    ["validate", "-", "--output", "out.json"],
]


@pytest.mark.parametrize("argv", golden_commands() + BENCHMARK_LINES, ids=" ".join)
def test_plain_lines_never_load_argparse(monkeypatch, argv):
    """Every golden command line and every shape of line the benchmark
    sends is read without argparse, and read as argparse reads it."""
    monkeypatch.setattr(cli, "_argparse", no_argparse)
    assert (EXIT_OK, cli._parse(list(argv))) == argparse_outcome(list(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["esd", "--n", "1", "--m", "1", "--output=--"],
        ["esd", "--n", "1", "--m", "1", "-o--"],
        ["esd", "--n=--", "--m", "1"],
    ],
    ids=" ".join,
)
def test_double_dash_value_is_no_traceback(tmp_path, argv):
    """argparse before 3.12.7 reads ``--`` attached to an option as no value
    at all, later releases as the value ``--``: the line either runs, or is
    a usage error with nothing on stdout, never a traceback."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-m", "kakimizu", *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode in (EXIT_OK, EXIT_USAGE)
    assert "Traceback" not in out.stderr
    if out.returncode == EXIT_USAGE:
        assert out.stdout == ""


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["frobnicate"], "frobnicate"),
        (["esd", "--n", "x", "--m", "1"], "'x'"),
        (["verify-esd", "--max", "2"], "--max"),
        (["analyze", "--metric=3", "in.json"], "--metric"),
        (["validate", "a.json", "b.json"], "b.json"),
        (["esd", "--n", "1"], "--m"),
    ],
)
def test_usage_error_names_the_bad_token(capsys, argv, bad):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error, rest = captured.err.split("\n")
    assert usage.startswith("usage: kakimizu")
    assert error.startswith("kakimizu: error: ") and bad in error
    assert rest == ""


@pytest.mark.parametrize("name", [None, *cli.COMMANDS])
def test_help_lists_every_command_and_option(capsys, name):
    argv = ["-h"] if name is None else [name, "--help"]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    names = cli.COMMANDS if name is None else cli.COMMANDS[name][3]
    assert all(n in captured.out for n in names)


@pytest.mark.parametrize(
    "argv, code, printed",
    [(["esd", "--n", "1", "--m", "1"], EXIT_OK, True), (["--help"], EXIT_OK, True),
     (["frobnicate"], EXIT_USAGE, False)],
)
def test_module_entry_point_reads_sys_argv(argv, code, printed):
    """``python -m kakimizu`` calls ``main()`` with no argv, so the command
    line comes from ``sys.argv``."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-m", "kakimizu", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == code
    assert bool(out.stdout) == printed
    if argv[0] == "esd":
        assert json.loads(out.stdout)["maximal_simplices"]


def test_internal_error_is_a_json_report(capsys, monkeypatch):
    def broken(c):
        raise AssertionError("boom")

    monkeypatch.setattr("kakimizu.structure.homology", broken)
    code = main(["analyze", "--homology", fx("dalpha.theta.json")])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert json.loads(captured.out) == {"internal_error": "boom"}
    assert captured.err == ""
