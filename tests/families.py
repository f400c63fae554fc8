"""Hand-built black-region graphs for the worked examples and tests.

Each function returns an :class:`~kakimizu.planar.EmbeddedGraph` ready for
the medial construction: vertices carry their orientation class and the
rotation lists are anticlockwise.  The fixture diagrams shipped with the
repository are the medials of these graphs (``demos/make_fixtures.py``
writes them; ``test_medial.py`` checks them).
"""

from __future__ import annotations

from kakimizu.families import build_graph
from kakimizu.planar import EmbeddedGraph

__all__ = [
    "book",
    "cube_graph",
    "dalpha_graph",
    "granny_graph",
    "pendant_book",
]


def book(k: int) -> EmbeddedGraph:
    """Two vertices joined by ``k`` parallel edges (ids 0..k-1).

    Its medial is the (2, k) torus link diagram: Hopf link for k=2, trefoil
    for k=3, and so on.
    """
    return build_graph(
        classes={0: 1, 1: -1},
        endpoints={i: (0, 1) for i in range(k)},
        rotations={0: list(range(k)), 1: list(reversed(range(k)))},
    )


def granny_graph() -> EmbeddedGraph:
    """Two 3-edge books sharing a vertex: a connected-sum diagram."""
    return build_graph(
        classes={0: 1, 1: -1, 2: 1},
        endpoints={**{i: (0, 1) for i in range(3)}, **{i: (2, 1) for i in range(3, 6)}},
        rotations={
            0: [0, 1, 2],
            1: [2, 1, 0, 5, 4, 3],
            2: [3, 4, 5],
        },
    )


def pendant_book() -> EmbeddedGraph:
    """A 3-edge book with one pendant edge: its medial has a kink."""
    return build_graph(
        classes={0: 1, 1: -1, 2: 1},
        endpoints={**{i: (0, 1) for i in range(3)}, 3: (2, 1)},
        rotations={0: [0, 1, 2], 1: [3, 2, 1, 0], 2: [3]},
    )


def cube_graph() -> EmbeddedGraph:
    """The cube, embedded with outer square 0-1-2-3 and inner square 4-5-6-7.

    Its medial diagram has the octahedron as white-region graph, which does
    not reduce to a point: the standard non-fibred example.
    """
    endpoints = {
        0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (3, 0),  # outer square
        4: (4, 5), 5: (5, 6), 6: (6, 7), 7: (7, 4),  # inner square
        8: (0, 4), 9: (1, 5), 10: (2, 6), 11: (3, 7),  # spokes
    }
    return build_graph(
        classes={0: 1, 2: 1, 5: 1, 7: 1, 1: -1, 3: -1, 4: -1, 6: -1},
        endpoints=endpoints,
        rotations={
            0: [0, 8, 3],
            1: [1, 9, 0],
            2: [2, 10, 1],
            3: [2, 3, 11],
            4: [4, 7, 8],
            5: [5, 4, 9],
            6: [10, 6, 5],
            7: [6, 11, 7],
        },
    )


def dalpha_graph() -> EmbeddedGraph:
    """The running 20-vertex example: black-region graph of the diagram whose
    theta graph has components of 2 and 3 edges with weights (1,0) and
    (2,0,1).

    Vertices: 0 and 1 are the two big regions joined by a doubled edge
    (ids 1, 2, which merge to weight 2), a single crossing (id 3), and two
    3-crossing chains through 4-7 and 5-6; vertex 2 is joined to 0 by one
    crossing (id 0) and a 3-crossing chain through 9-8, and to 1 by a
    2-crossing chain through 3.
    """
    classes = {
        0: 1, 3: 1, 4: 1, 5: 1, 8: 1,  # anticlockwise regions
        1: -1, 2: -1, 6: -1, 7: -1, 9: -1,  # clockwise regions
    }
    endpoints = {
        0: (2, 0),  # the weight-1 edge between regions 2 and 0
        1: (0, 1), 2: (0, 1),  # the bigon pair, merging to weight 2
        3: (0, 1),  # the weight-1 edge between 0 and 1
        4: (1, 3), 5: (3, 2),  # chain region 1 - 3 - region 2
        6: (0, 9), 7: (9, 8), 8: (8, 2),  # chain 0 - 9 - 8 - 2
        9: (1, 4), 10: (4, 7), 11: (7, 0),  # chain 1 - 4 - 7 - 0
        12: (1, 5), 13: (5, 6), 14: (6, 0),  # chain 1 - 5 - 6 - 0
    }
    rotations = {
        0: [1, 2, 0, 6, 11, 3, 14],
        1: [12, 3, 9, 4, 2, 1],
        2: [8, 0, 5],
        3: [5, 4],
        4: [9, 10],
        5: [12, 13],
        6: [13, 14],
        7: [10, 11],
        8: [7, 8],
        9: [6, 7],
    }
    return build_graph(classes, endpoints, rotations)
