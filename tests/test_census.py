"""The map census to 7 edges: Tutte's counts, and every map through the
diagram pipeline (``tests/census.py``)."""

import pytest

from census import VALID, census, pipeline, rooted, tutte


@pytest.fixture(scope="module")
def maps():
    return census(7)


def test_rooted_maps_match_tutte(maps):
    counts = [rooted(maps[n]) for n in range(1, 8)]
    assert counts == [tutte(n) for n in range(1, 8)]
    assert counts == [1, 3, 12, 56, 288, 1584, 9152]


def test_every_map_goes_through_the_pipeline(maps):
    """Each map's medial reads as connected, and each valid diagram's
    complex passes ``ball_report`` and ``flag_check``."""
    valid = {n: sum(pipeline(sigma) for sigma, _ in maps[n]) for n in range(2, 8)}
    assert valid == {n: VALID[n] for n in range(2, 8)}
