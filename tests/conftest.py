import json
import pathlib

import pytest

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / name


def load_text(name: str) -> str:
    return fixture_path(name).read_text()


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture
def trace_calls(monkeypatch) -> list:
    """Counts ``EmbeddedGraph.trace_faces`` calls: one entry per call."""
    from kakimizu.planar import EmbeddedGraph

    calls: list = []
    original = EmbeddedGraph.trace_faces

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(EmbeddedGraph, "trace_faces", counting)
    return calls
