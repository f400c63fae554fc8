"""The benchmark's import of :func:`kakimizu.planar.embed`."""

from .planar import embed


def build_graph(classes, endpoints, rotations):
    """:func:`kakimizu.planar.embed`'s graph, without its faces."""
    return embed(classes, endpoints, rotations)[0]
