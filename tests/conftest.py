"""Shared helpers: graphs and distance matrices are cached per session."""

from functools import lru_cache

from schrijver import CycleParams, SchrijverGraph


@lru_cache(maxsize=None)
def graph(n: int, k: int) -> SchrijverGraph:
    return SchrijverGraph(CycleParams(n, k))


@lru_cache(maxsize=None)
def distance_matrix(n: int, k: int):
    return graph(n, k).all_distances()


def intersecting_pairs(g: SchrijverGraph):
    """All index pairs i < j whose vertices intersect."""
    verts = g.vertices
    total = len(verts)
    for i in range(total):
        mi = verts[i].mask
        for j in range(i + 1, total):
            if mi & verts[j].mask:
                yield i, j


# Certificate payloads with a malformed shape: a non-numeric element, a
# string where the vertex list belongs (once read one character at a time),
# and a JSON boolean as k.
MALFORMED_PAYLOADS = [
    {"n": 10, "k": 3, "claimed_bound": 0, "vertices": ["1,3,x"]},
    {"n": 9, "k": 1, "claimed_bound": 1, "vertices": "13"},
    {"n": 9, "k": True, "claimed_bound": 1, "vertices": ["1", "3"]},
]
