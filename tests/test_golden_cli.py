"""Golden CLI output: every recorded command prints what it printed before.

``golden_cli.json`` maps each command line (fixture paths relative to the
repository root) to the sha256 of its exit code, stdout and stderr.  A
change meant to keep the CLI byte-identical must leave every hash as it is.
When a change alters some output on purpose, regenerate the file with
``PYTHONPATH=src python tests/test_golden_cli.py`` and list the commands
whose hashes moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

from kakimizu.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

FIXTURE_NAMES = [
    "cube.json",
    "dalpha.json",
    "dalpha.theta.json",
    "granny.json",
    "hopf.json",
    "nugatory.json",
    "torus24.json",
    "trefoil.json",
]
PER_FIXTURE = [
    ["validate"],
    ["theta"],
    ["seifert"],
    ["fibred"],
    ["complex"],
    ["product"],
    ["verify-product"],
    ["analyze", "--homology", "--ball", "--flag-check", "--metric", "0", "1"],
    ["surface", "--vertex", "0"],
]
STANDALONE = [
    ["esd", "--n", "3", "--m", "3"],
    ["verify-esd"],
    ["selftest", "--count", "10"],
    # dalpha's base vertex and its six neighbours, realized as surfaces
    *(
        ["surface", "fixtures/dalpha.json", "--vertex", str(i)]
        for i in (7, 9, 14, 15, 17, 18, 19)
    ),
]


def commands() -> list[list[str]]:
    out = []
    for name in FIXTURE_NAMES:
        for sub in PER_FIXTURE:
            out.append([sub[0], f"fixtures/{name}", *sub[1:]])
    return out + STANDALONE


def output_hash(argv: list[str]) -> str:
    """sha256 of the exit code, stdout and stderr of one in-process run."""
    resolved = [str(ROOT / a) if a.startswith("fixtures/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_cli_output_matches_golden(argv):
    golden = json.loads(GOLDEN.read_text())
    assert output_hash(argv) == golden[" ".join(argv)]


def sphere_theta(weights: list[list[int]]) -> str:
    """A theta document with one component per weight list, all on the
    sphere, and edge ids counted up across the components."""
    ids = itertools.count()
    return json.dumps({"components": [
        {"id": i, "edges": [{"id": next(ids), "weight": w} for w in ws],
         "placement": {"parent": "sphere", "parent_face": 0, "outer_face": 0}}
        for i, ws in enumerate(weights)]})


@pytest.mark.parametrize(
    "weights, argv, digest",
    [
        # the product over three components, the only iterated product pinned
        ([[2, 1, 1], [2, 1, 1], [1, 1]], ["product", "-"],
         "bf801a30eb8269fb93c1aba7ca876fb9f94fa505ed5c12792f5c2f2defe487d0"),
        # the 8-cube: 256 vertices, 40,320 simplices of dimension 8
        ([[1, 0]] * 8, ["analyze", "--ball", "--homology", "-"],
         "120c47a796583098e6346e0f630ad7473f82a84bd0402e3beb9fd85882ab190f"),
    ],
    ids=["product-three", "ball-cube8"],
)
def test_stdin_output_matches_recorded_digest(monkeypatch, capsys, weights, argv, digest):
    """The sha256 of what the CLI prints for two theta documents read from
    stdin, the digests the CI workflow also checks."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(sphere_theta(weights)))
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


if __name__ == "__main__":
    table = {" ".join(argv): output_hash(argv) for argv in commands()}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(table)} hashes to {GOLDEN.name}\n")
