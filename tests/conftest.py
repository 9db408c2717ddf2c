"""Shared test data and oracles.  Graphs, distance matrices and pair sweeps
come from `schrijver.suites`, whose caches the checks and the tests share."""

from itertools import combinations

import numpy as np

from schrijver import CycleParams, blocks, cli, lift, paths, stable_set, suites

EX1 = CycleParams(20, 7)


def ex1_pair():
    """The worked example pair of SG(20,7): |A n B| = 3, seven blocks."""
    return (
        stable_set([2, 8, 10, 12, 15, 18, 20], EX1),
        stable_set([1, 6, 8, 10, 12, 14, 17], EX1),
    )


def record_decompositions(monkeypatch) -> list[tuple[int, int, int]]:
    """Patch `decompose` in every module that binds it; returns the list of
    (n, A mask, B mask) that the calls receive, in call order."""
    calls = []
    real = blocks.decompose

    def recording(a, b):
        calls.append((a.params.n, a.mask, b.mask))
        return real(a, b)

    for module in (blocks, cli, lift, paths, suites):
        monkeypatch.setattr(module, "decompose", recording)
    return calls


def record_picks(monkeypatch) -> list[tuple]:
    """Patch the stable-picks formula `blocks._picks`; returns the argument
    tuples that its calls receive, in call order."""
    calls = []
    real = blocks._picks

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(blocks, "_picks", recording)
    return calls


def bfs_levels(masks: np.ndarray, src: int) -> np.ndarray:
    """Independent BFS oracle: int8 levels from src in the disjointness graph
    on the uint64 `masks`, -1 where unreachable.  One plain level loop per
    source: each level tests the unreached masks against the frontier in
    chunks of 64, and a mask leaves the test at its first hit."""
    levels = np.full(masks.size, -1, dtype=np.int8)
    levels[src] = 0
    frontier = masks[src : src + 1]
    level = 0
    while frontier.size:
        level += 1
        todo = np.flatnonzero(levels < 0)
        for start in range(0, frontier.size, 64):
            hit = ((masks[todo, None] & frontier[None, start : start + 64]) == 0).any(axis=1)
            levels[todo[hit]] = level
            todo = todo[~hit]
        frontier = masks[levels == level]
    return levels


def brute_force_stable(n: int, k: int) -> list[tuple[int, ...]]:
    """Independent oracle: filter every k-subset with a local adjacency test."""
    out = []
    for combo in combinations(range(1, n + 1), k):
        ok = all(combo[i + 1] - combo[i] >= 2 for i in range(k - 1))
        if ok and not (combo[0] == 1 and combo[-1] == n):
            out.append(combo)
    return out


def orbit_minimum(members, n: int) -> tuple[int, ...]:
    """Independent orbit oracle: the least sorted member tuple over the 2n
    dihedral images m -> m + t and m -> t - m (mod n, elements 1..n)."""
    return min(
        tuple(sorted((image - 1) % n + 1 for image in images))
        for t in range(n)
        for images in ([m + t for m in members], [t - m for m in members])
    )


# Certificate payloads with a malformed shape: a non-numeric element, a
# string where the vertex list belongs (once read one character at a time),
# a JSON boolean as k, n above the library's single-word cap, n below 2 and
# k below 1.
MALFORMED_PAYLOADS = [
    {"n": 10, "k": 3, "claimed_bound": 0, "vertices": ["1,3,x"]},
    {"n": 9, "k": 1, "claimed_bound": 1, "vertices": "13"},
    {"n": 9, "k": True, "claimed_bound": 1, "vertices": ["1", "3"]},
    {"n": 100, "k": 1, "claimed_bound": 1, "vertices": ["1", "99"]},
    {"n": 1, "k": 1, "claimed_bound": 0, "vertices": ["1"]},
    {"n": 9, "k": 0, "claimed_bound": 0, "vertices": ["1"]},
    {"n": 10, "k": 1, "claimed_bound": 0, "vertices": ["1" + "0" * 4999]},  # past int()'s digit limit
]
