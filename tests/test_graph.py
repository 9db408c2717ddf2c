"""Graph oracle: the BFS kernels, the pair distance, orbit representatives, brute-force diameter."""

import threading
from collections import Counter
from itertools import combinations
from random import Random
from time import perf_counter
from unittest.mock import patch

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schrijver import (
    CycleParams,
    InvariantError,
    ParameterError,
    SchrijverGraph,
    rotate,
    stable_count,
    stable_masks,
    stable_set,
)
from conftest import bfs_levels, orbit_minimum
from schrijver import graph as graph_module
from schrijver.cyclic import mask_of, rol_mask
from schrijver.suites import graph, sweep, table_grid


def nx_oracle(g):
    """Independent BFS oracle built on networkx."""
    gx = nx.Graph()
    gx.add_nodes_from(range(len(g)))
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            if not g.vertices[i].mask & g.vertices[j].mask:
                gx.add_edge(i, j)
    return gx


def test_rotation_is_a_neighbor():
    for s in graph(13, 5).vertices:
        # a rotation of a 2-stable set never meets the set itself
        assert not s.mask & rotate(s, 1).mask


@pytest.mark.parametrize("n,k", [(10, 4), (9, 4), (8, 3)])
def test_distances_match_networkx(n, k):
    g = graph(n, k)
    dmat = graph(n, k).all_distances()
    lengths = dict(nx.all_pairs_shortest_path_length(nx_oracle(g)))
    for i in range(len(g)):
        for j in range(len(g)):
            assert dmat[i, j] == lengths[i].get(j, -1)


def test_bfs_distance_examples():
    g = graph(10, 4)
    p = g.params
    a = stable_set([1, 3, 5, 7], p)
    b = stable_set([1, 3, 6, 8], p)
    c = stable_set([1, 4, 6, 9], p)
    assert g.bfs_distance(a, b).distance == 3
    assert g.bfs_distance(b, c).distance == 2
    assert g.bfs_distance(a, a).distance == 0
    assert g.bfs_distance(b, a).distance == 3


def test_bfs_distance_lookup_error():
    g = graph(10, 4)
    foreign = stable_set([1, 3, 5, 7], CycleParams(12, 4))
    with pytest.raises(ParameterError):
        g.bfs_distance(foreign, foreign)


def test_triangle_inequality_sampled():
    g = graph(11, 4)
    dmat = graph(11, 4).all_distances()
    total = len(g)
    for i in range(0, total, 3):
        for j in range(1, total, 4):
            for l in range(2, total, 5):
                assert dmat[i, j] <= dmat[i, l] + dmat[l, j]


def test_eccentricity_examples():
    assert graph(9, 4).distances_from(0).max() == 4
    assert graph(7, 3).distances_from(0).max() == 3
    g = graph(10, 4)
    assert g.distances_from(g.vertex_index(stable_set([1, 3, 5, 7], g.params))).max() == 3


def test_eccentricity_constant_on_orbits():
    for n, k in ((9, 4), (10, 4), (11, 4)):
        g = graph(n, k)
        eccs = {}
        for i, s in enumerate(g.vertices):
            eccs.setdefault(orbit_minimum(s.members, n), set()).add(int(g.distances_from(i).max()))
        assert all(len(vals) == 1 for vals in eccs.values())


def test_cycle_diameters():
    # SG(2k+1,k) is the (2k+1)-cycle, so its diameter is k
    for k in range(2, 7):
        res = graph(2 * k + 1, k).diameter_bruteforce()
        assert res.value == k


# SG(14,6): the published closed form says 4, but exhaustive search (here,
# networkx on an independent construction, and the coordinate model) gives 5.
@pytest.mark.parametrize("n,k,expected", [(14, 6, 5), (13, 6, 6), (17, 7, 5)])
def test_diameter_bruteforce_examples(n, k, expected):
    res = graph(n, k).diameter_bruteforce()
    assert res.value == expected
    assert res.method == "bfs"
    a, b = res.witness
    assert graph(n, k).bfs_distance(a, b).distance == expected


def test_orbit_reduction_matches_full_sweep():
    # both source orders meet the least vertex of the first orbit that
    # reaches the diameter first, so the witnesses agree too
    for n, k in ((9, 4), (10, 4), (11, 4), (12, 4)):
        g = graph(n, k)
        assert g.diameter_bruteforce(orbit_reduction=True) == g.diameter_bruteforce(
            orbit_reduction=False
        )


def test_orbit_representatives_are_canonical():
    # one representative per orbit, the orbit's least member tuple, in order;
    # the n = 64 cells put bit 63 in the reversed masks.  Only the vertices
    # holding 1 are compared, so the `diameters` latency cells, where most
    # vertices do not, are checked too.
    latency_cells = [(n, 6) for n in range(19, 23)] + [(n, 7) for n in range(20, 23)]
    for n, k in [*table_grid(5), (64, 2), (64, 31), *latency_cells]:
        g = graph(n, k)
        reps = g.orbit_representatives()
        want = sorted({orbit_minimum(s.members, n) for s in g.vertices})
        assert [g.vertices[i].members for i in reps] == want


def test_distance_record_symmetry_and_unreachable_marker():
    g = graph(8, 4)  # two disjoint alternating sets: a single edge
    a, b = g.vertices
    assert g.bfs_distance(a, b).distance == 1
    assert g.distances_from(0).max() == 1


def test_connectedness_small():
    for n, k in ((7, 3), (9, 4), (10, 4), (12, 5), (13, 5)):
        assert (graph(n, k).all_distances() >= 0).all()


# two intersecting masks, and an edge plus a vertex that meets both ends:
# the first row already holds a -1
@pytest.mark.parametrize("masks", [[0b0101, 0b0110], [0b0011, 0b1100, 0b0110]])
def test_diameter_of_a_disconnected_vertex_set_raises(masks):
    g = SchrijverGraph(CycleParams(10, 4))
    g._masks = np.array(masks, dtype=np.uint64)
    with pytest.raises(InvariantError, match="disconnected"):
        g.diameter_bruteforce(orbit_reduction=False)


def test_graph_work_builds_no_vertex_list():
    g = SchrijverGraph(CycleParams(10, 4))
    a = stable_set([1, 3, 5, 7], g.params)
    b = stable_set([1, 3, 6, 8], g.params)
    assert g.bfs_distance(a, b).distance == 3
    g.distances_from(g.vertex_index(a))
    g.orbit_representatives()
    assert g.diameter_bruteforce().witness is not None
    g.all_distances()
    assert "vertices" not in g.__dict__


@pytest.mark.parametrize("src", [-1, 25, 10**6])
def test_distances_from_checks_its_index(src):
    # SG(10,4) is connected and has 25 vertices
    g = graph(10, 4)
    assert len(g) == 25 and (g.distances_from(24) >= 0).all()
    with pytest.raises(ParameterError, match="outside 0..24"):
        g.distances_from(src)


def test_sweeps_of_no_mask_and_of_one():
    # SG(5,3) has no vertices: an empty sweep and a (0, 0) matrix
    assert SchrijverGraph(CycleParams(5, 3)).all_distances().shape == (0, 0)
    empty = np.empty(0, dtype=np.uint64)
    assert list(graph_module.bfs_sweeps(empty, [])) == []
    for mask in (0b101, 0):  # a vertex with no neighbour, and one that is its own
        one = np.array([mask], dtype=np.uint64)
        [(src, levels)] = graph_module.bfs_sweeps(one, [0])
        assert src == 0 and levels.dtype == np.int8 and levels.tolist() == [0]


def _refuse(*args):
    raise AssertionError("refused call")


@pytest.mark.parametrize("n,k", [(14, 6), (21, 7)])
def test_sampled_sweep_draws_distinct_intersecting_pairs(monkeypatch, n, k):
    monkeypatch.setattr(SchrijverGraph, "vertices", property(_refuse))  # no vertex list
    pairs = list(sweep([(n, k)], sample=50, rng=Random(3)))
    g = graph(n, k)
    seen = {(g.vertex_index(a), g.vertex_index(b)) for a, b, _ in pairs}
    assert len(pairs) == len(seen) == 50
    for a, b, dist in pairs:
        assert a.mask & b.mask and a != b
        assert dist == g.bfs_distance(a, b).distance
    assert [(a, b) for a, b, _ in sweep([(n, k)], sample=50, rng=Random(3))] == [
        (a, b) for a, b, _ in pairs
    ]


def test_exhaustive_sweep_reads_bfs_rows(monkeypatch):
    # SG(21,8) has 2079 vertices; every distance comes from the sweep rows
    g = graph(21, 8)
    dmat = g.all_distances()
    monkeypatch.setattr(SchrijverGraph, "bfs_distance", _refuse)  # no per-pair BFS
    monkeypatch.setattr(SchrijverGraph, "vertices", property(_refuse))  # no vertex list
    masks = stable_masks(g.params)
    index = {m: i for i, m in enumerate(masks.tolist())}
    got = [(index[a.mask], index[b.mask], dist) for a, b, dist in sweep([(21, 8)], min_dist=4)]
    meet = np.triu((masks[:, None] & masks[None, :]) != 0, 1)
    want = [(i, j, int(dmat[i, j])) for i, j in zip(*np.nonzero(meet & (dmat >= 4)))]
    assert got and got == want


def test_pair_distance_stops_when_the_frontiers_touch(monkeypatch):
    advanced, touched = [], []
    advance, touches = graph_module._advance, graph_module._touches

    def counted_advance(frontier, candidates):
        advanced.append(frontier.tolist())
        return advance(frontier, candidates)

    def counted_touches(one, other):
        touched.append((one.size, other.size))
        return touches(one, other)

    monkeypatch.setattr(graph_module, "_advance", counted_advance)
    monkeypatch.setattr(graph_module, "_touches", counted_touches)
    # adjacent: one 1 x 1 meeting test, no level built from either end
    masks = stable_masks(CycleParams(13, 5))
    ib = int(np.flatnonzero((masks & masks[0]) == 0)[0])
    assert graph_module.pair_distance(masks, 0, ib) == 1
    assert (advanced, touched) == ([], [(1, 1)])
    # SG(22,7), distance 3: each end grows its first level once, then they meet
    advanced.clear()
    touched.clear()
    masks = stable_masks(CycleParams(22, 7))
    assert graph_module.pair_distance(masks, 0, 495) == 3
    assert sorted(advanced) == sorted([[int(masks[0])], [int(masks[495])]])
    assert len(touched) == 3  # three meeting tests around the two steps


@pytest.mark.parametrize("size", [0, 1, 63, 64, 65, 200])
def test_touches_matches_any_disjoint_pair(size):
    rng = np.random.default_rng(size)
    for other_size in (0, 1, 64, 130):
        for density in (0.2, 0.5, 0.8):
            # sparse masks on 12 bits: disjoint pairs common; dense: rare
            bits = rng.random((size + other_size, 12)) < density
            masks = (bits * (1 << np.arange(12))).sum(axis=1).astype(np.uint64)
            one, other = masks[:size], masks[size:]
            want = any(not a & b for a in one.tolist() for b in other.tolist())
            assert graph_module._touches(one, other) is want
            assert graph_module._touches(other, one) is want
    if size:  # one disjoint pair, both masks last: found past the first chunk
        one = np.full(size, 0xFFF, dtype=np.uint64)
        other = np.full(130, 0xFFF, dtype=np.uint64)
        one[-1], other[-1] = 0x0F0, 0x00F
        assert graph_module._touches(one, other) and graph_module._touches(other, one)
        assert not graph_module._touches(one[:-1], other)


# -- the batched lattice kernel ----------------------------------------------

# Cells with n <= 64 and at most 1500 vertices, full or as induced subsets.
SMALL_CELLS = [
    (n, k)
    for n in range(3, 65)
    for k in range(1, n // 2 + 1)
    if 2 <= stable_count(CycleParams(n, k)) <= 1500
]


def _draw_masks(cell, keep, rng):
    """The cell's masks, or an induced subset (possibly disconnected) if keep < 1."""
    masks = stable_masks(CycleParams(*cell))
    return masks if keep >= 1.0 else masks[rng.random(masks.size) < keep]


# Each path of `_lattice_levels`, by the module constants it runs under:
# level 2 from the table and then the completion test and residue scans or
# lattice passes by the cost rule (the lattice allowed past its cap too),
# the same with every residue scanned or every residue given a lattice pass
# (the build counted for nothing) while the lattice is under its cap, the
# table with the lattice over its cap (every residue scanned), no table,
# where a lattice pass takes level 2, and neither, where each source column
# takes `_advance` steps over its residue cells.  A single source runs that
# last path under every setting.
SWEEP_PATHS = {
    "table": {"_TABLE_RATIO": 1 << 30, "_LATTICE_RATIO": 64},
    "scan forced": {"_TABLE_RATIO": 1 << 30, "_LATTICE_RATIO": 64, "_SCAN_RATIO": 0},
    "lattice forced": {"_TABLE_RATIO": 1 << 30, "_LATTICE_RATIO": 64, "_SCAN_RATIO": 1 << 30, "_BUILD_ROWS": 0},
    "table, lattice over its cap": {"_TABLE_RATIO": 1 << 30, "_LATTICE_RATIO": 0},
    "no table": {"_TABLE_BYTES": 0, "_LATTICE_RATIO": 64},
    "no table, lattice over its cap": {"_TABLE_BYTES": 0, "_LATTICE_RATIO": 0},
}


@settings(derandomize=True, deadline=None, max_examples=1500)
@given(
    path=st.sampled_from(list(SWEEP_PATHS)),
    cell=st.sampled_from(SMALL_CELLS),
    keep=st.floats(0.2, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_lattice_levels_equal_bfs_levels(path, cell, keep, seed):
    rng = np.random.default_rng(seed)
    masks = _draw_masks(cell, keep, rng)
    assume(masks.size >= 1)
    count = int(rng.integers(1, min(5, masks.size) + 1))
    sources = rng.choice(masks.size, size=count, replace=False).tolist()
    with patch.multiple(graph_module, **SWEEP_PATHS[path]):
        assume(path.startswith("no table") or graph_module._Sweep(masks, many=True).table is not None)
        swept = list(graph_module.bfs_sweeps(masks, sources))
    assert [src for src, _ in swept] == sources
    for src, levels in swept:
        assert np.array_equal(levels, bfs_levels(masks, src))


def _sweep_work(monkeypatch):
    """Counts of what `bfs_sweeps` runs: lattice builds, lattice passes,
    residue scans and `_advance` steps."""
    calls = Counter()
    for name in ("subset_lattice", "_disjoint_counts", "_reach", "_advance"):
        inner = getattr(graph_module, name)

        def counted(*args, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(graph_module, name, counted)
    return calls


# SG(21,7) (D = 3): the completion test ends every batch after the table's
# level 2.  SG(20,7) (D = 3): its 76 orbit representatives go in batches of
# 48 and 28, and a lattice pass takes at most 32 sources.  Both batches
# still need level 3, for 31 and 17 residue vertices of 2640: one scan
# each, lattice or not; with no table, three passes take level 2 and three
# more level 3.  SG(19,7) (D = 3): one batch of 38, whose residue (658
# vertices of 1254) passes the ratio but not the ratio plus the whole
# build: one scan, and no lattice is built or tried.  SG(21,8) (D = 4): two
# batches of 48 and 9, whose first residue (1939 of 2079 vertices) passes
# the ratio plus half the build: four lattice passes of at most 16 sources,
# or the lattice tried once and both residues scanned.  SG(22,8) (D = 4):
# eight batches, whose first residue (550 of 4719 vertices) passes the
# ratio plus an eighth of the build, so all eight take a lattice pass and
# none is scanned; charged the whole build, the first seven would scan.
# With neither a table nor a lattice, SG(20,7) tries the lattice once and
# takes levels 2 and 3 from `_advance` steps, the only path that runs them.
@pytest.mark.parametrize(
    "n,k,path,built,passes,scans",
    [
        (21, 7, "table", 0, 0, 0),
        (20, 7, "table", 0, 0, 2),
        (20, 7, "table, lattice over its cap", 0, 0, 2),
        (20, 7, "no table", 1, 6, 0),
        (20, 7, "no table, lattice over its cap", 1, 0, 0),
        (19, 7, "table", 0, 0, 1),
        (19, 7, "table, lattice over its cap", 0, 0, 1),
        (21, 8, "table", 1, 4, 0),
        (21, 8, "table, lattice over its cap", 1, 0, 2),
        (22, 8, "table", 1, 8, 0),
    ],
)
def test_every_sweep_path_runs_and_equals_bfs_levels(monkeypatch, n, k, path, built, passes, scans):
    g = graph(n, k)
    sources = g.orbit_representatives()
    for name, value in SWEEP_PATHS[path].items():
        monkeypatch.setattr(graph_module, name, value)
    calls = _sweep_work(monkeypatch)
    swept = list(graph_module.bfs_sweeps(g._masks, sources))
    assert (calls["subset_lattice"], calls["_disjoint_counts"], calls["_reach"]) == (built, passes, scans)
    assert (calls["_advance"] > 0) == (path == "no table, lattice over its cap")
    assert [src for src, _ in swept] == sources
    monkeypatch.undo()
    for src, levels in swept:
        assert np.array_equal(levels, bfs_levels(g._masks, src))


def _check_reach(masks, rows, frontier):
    """`_reach` against its definition with Python ints: row u reaches
    column s iff some vertex of column s is disjoint from u."""
    values = masks.tolist()
    columns = [sum(1 << s for s, bit in enumerate(row) if bit) for row in frontier.tolist()]
    got = graph_module._reach(masks, np.asarray(rows, dtype=np.intp), frontier)
    assert got.dtype == bool and got.shape == (len(rows), frontier.shape[1])
    for u, reached in zip(rows, got.tolist()):
        want = 0
        for v, m in enumerate(values):
            if not m & values[u]:
                want |= columns[v]
        assert reached == [bool(want >> s & 1) for s in range(frontier.shape[1])], u


# Full cells and induced subsets (some with vertices that have no
# neighbour), any rows, none included, and random frontier columns, in
# chunks of one row, a few rows or all of them.
@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    cell=st.sampled_from(SMALL_CELLS),
    keep=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
    cells=st.sampled_from([1, 100, 1 << 17]),
)
def test_reach_matches_its_definition(cell, keep, seed, cells):
    rng = np.random.default_rng(seed)
    masks = _draw_masks(cell, keep, rng)
    assume(masks.size >= 1)
    rows = rng.choice(masks.size, size=int(rng.integers(0, min(masks.size, 12) + 1)), replace=False)
    frontier = rng.random((masks.size, int(rng.integers(1, 20)))) < rng.random()
    with patch.object(graph_module, "_BATCH_CELLS", cells):
        _check_reach(masks, rows.tolist(), frontier)


# The full mask meets every other mask, so rows 1 and 4 have no neighbour:
# inside a chunk, at the end of one and alone in the last one.  Column 2 is
# empty.
@pytest.mark.parametrize("cells", [1, 10, 1 << 17])
@pytest.mark.parametrize("rows", [[], [1], [0, 1, 2, 3, 4], [4, 1, 0]])
def test_reach_of_rows_without_a_neighbour(rows, cells):
    masks = np.array([0b000011, 0b111111, 0b001100, 0b110000, 0b111111], dtype=np.uint64)
    frontier = np.array([[1, 1, 0], [1, 0, 0], [1, 0, 0], [1, 1, 0], [1, 0, 0]], dtype=bool)
    with patch.object(graph_module, "_BATCH_CELLS", cells):
        _check_reach(masks, rows, frontier)


# `_reach` and `_disjoint_counts` take the frontier as `_lattice_levels`
# passes it: rows of a (source, vertex) C-order matrix, transposed into a
# (vertex, source) view that is not C-contiguous once it has two sources.
# Full cells and induced subsets; the lattice allowed past its cap, as in
# the sweep paths above.
@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    cell=st.sampled_from(SMALL_CELLS),
    keep=st.one_of(st.just(1.0), st.floats(0.2, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_helpers_take_the_frontier_as_the_level_loop_passes_it(cell, keep, seed):
    rng = np.random.default_rng(seed)
    masks = _draw_masks(cell, keep, rng)
    assume(masks.size >= 1)
    frontier = rng.random((int(rng.integers(1, 40)), masks.size)) < rng.random()
    start = int(rng.integers(frontier.shape[0]))
    part = frontier[start : start + int(rng.integers(1, frontier.shape[0] + 1))]
    # (source, vertex): whether some vertex of the source's frontier avoids v
    disjoint = (masks[:, None] & masks[None, :]) == 0
    want = (part.astype(np.int64) @ disjoint) > 0
    rows = rng.permutation(masks.size)[: int(rng.integers(0, masks.size + 1))]
    reached = graph_module._reach(masks, rows, part.T)
    assert reached.shape == (rows.size, part.shape[0])
    assert np.array_equal(reached.T, want[:, rows])
    with patch.object(graph_module, "_LATTICE_RATIO", 64):
        lat = graph_module.subset_lattice(masks)
    if lat is not None:
        counts = graph_module._disjoint_counts(lat, part.T)
        assert counts.shape == (masks.size, part.shape[0])
        assert np.array_equal((counts != 0).T, want)


def _check_cover_table(masks, subsets=None):
    """`cover_table` against its definition with Python ints, at every subset
    W of the ground set or at the given ones."""
    values = masks.tolist()
    n = max(values).bit_length()
    words = graph_module.cover_table(masks, n)
    assert words.dtype == np.uint64 and words.size == max(1, 2**n >> 6)
    for w in range(2**n) if subsets is None else subsets:
        want = any(m & ~w == 0 for m in values)
        assert bool(int(words[w >> 6]) >> (w & 63) & 1) == want, (n, w)


# Cells whose table has at most 2^20 bits, full or as induced subsets.  Every
# subset W is checked up to n = 12; past that, each mask with one ground-set
# element added (set, but through the OR pass of that element only when no
# mask holding it lies inside) or its lowest element removed (mostly clear),
# and random W.
@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    cell=st.sampled_from([cell for cell in SMALL_CELLS if cell[0] <= 20]),
    keep=st.floats(0.2, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_cover_table_matches_its_definition(cell, keep, seed):
    rng = np.random.default_rng(seed)
    masks = _draw_masks(cell, keep, rng)
    assume(masks.size >= 1)
    n = int(np.bitwise_or.reduce(masks)).bit_length()
    subsets = None
    if n > 12:
        drawn = masks[rng.choice(masks.size, size=min(20, masks.size), replace=False)].tolist()
        subsets = [m | 1 << i for m in drawn for i in range(n)]
        subsets += [m & m - 1 for m in drawn]
        subsets += rng.integers(0, 2**n, size=200).tolist()
    _check_cover_table(masks, subsets)


# the mixed-size masks of `test_lattice_needs_masks_of_one_size`, and a
# two-word table (n = 7) whose word pass lifts 0b0000011 into the upper word
@pytest.mark.parametrize("masks", [[0b0011, 0b0100], [0b0001, 0b0110], [0b0000011, 0b1100000]])
def test_cover_table_of_mixed_and_wide_masks(masks):
    _check_cover_table(np.array(masks, dtype=np.uint64))


def _down_closure(masks, cap):
    """Independent oracle: every submask of every mask, ascending, with Python
    ints only; None once there are more than `cap`."""
    family = set()
    for mask in masks:
        sub = mask
        while True:  # submasks of mask, largest first
            family.add(sub)
            if len(family) > cap:
                return None
            if not sub:
                break
            sub = (sub - 1) & mask
    return sorted(family)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    cell=st.sampled_from(SMALL_CELLS),
    keep=st.floats(0.2, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_subset_lattice_matches_its_definition(cell, keep, seed):
    masks = _draw_masks(cell, keep, np.random.default_rng(seed))
    lat = graph_module.subset_lattice(masks)
    family = _down_closure(masks.tolist(), graph_module._LATTICE_RATIO * masks.size)
    assert (lat is None) == (family is None)
    if family is None:
        return
    row = {s: r for r, s in enumerate(family)}
    assert lat.sets.tolist() == family
    assert lat.vertex_rows.tolist() == [row[m] for m in masks.tolist()]
    union = int(np.bitwise_or.reduce(masks))
    pairs = []
    for i in range(union.bit_length()):
        if union >> i & 1:
            upper = [r for r, s in enumerate(family) if s >> i & 1]
            pairs.append(([row[family[r] ^ 1 << i] for r in upper], upper))
    assert [(lower.tolist(), upper.tolist()) for lower, upper in lat.pairs] == pairs


def _check_rotation_partners(masks):
    """`_rotation_partners` against its definition with Python ints."""
    values = masks.tolist()
    index = {m: i for i, m in enumerate(values)}
    n = max(values).bit_length()  # the masks' highest element
    got = graph_module._rotation_partners(masks)
    for shift, partners in zip((1, -1), got):
        want = []
        for i, m in enumerate(values):
            turned = rol_mask(m, shift, n)
            want.append(i if turned & m else index.get(turned, i))
        assert partners.tolist() == want


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    cell=st.sampled_from(SMALL_CELLS),
    keep=st.floats(0.2, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_rotation_partners_match_their_definition(cell, keep, seed):
    masks = _draw_masks(cell, keep, np.random.default_rng(seed))
    assume(masks.size >= 1)
    _check_rotation_partners(masks)


@pytest.mark.parametrize(
    "masks",
    [
        # {2,3} meets both its rotations {1,2} and {3,4}, and neither reaches it
        [0b0011, 0b0110, 0b1100],
        # all k-subsets: the Kneser graphs KG(7,3) and KG(9,4), diameters 3, 4
        [mask_of(c) for c in combinations(range(1, 8), 3)],
        [mask_of(c) for c in combinations(range(1, 10), 4)],
    ],
)
def test_a_rotation_that_meets_its_set_ends_no_batch(masks):
    # such a rotation may be a vertex, but it is no neighbour
    masks = np.array(masks, dtype=np.uint64)
    _check_rotation_partners(masks)
    for src, levels in graph_module.bfs_sweeps(masks, range(masks.size)):
        assert np.array_equal(levels, bfs_levels(masks, src))


def test_every_vertex_of_a_full_cell_has_two_partners():
    for cell in SMALL_CELLS:
        masks = stable_masks(CycleParams(*cell))
        own = np.arange(masks.size)
        for partners in graph_module._rotation_partners(masks):
            assert (partners != own).all(), cell
            assert not (masks[partners] & masks).any(), cell


def test_subset_lattice_gives_up_early():
    # SG(63,30) has |F| about 10^13; its second layer already passes the cap
    masks = stable_masks(CycleParams(63, 30))
    start = perf_counter()
    assert graph_module.subset_lattice(masks) is None
    assert perf_counter() - start < 1.0


# a mask with fewer elements than the least mask, and one with more
@pytest.mark.parametrize("masks", [[0b0011, 0b0100], [0b0001, 0b0110]])
def test_lattice_needs_masks_of_one_size(masks):
    masks = np.array(masks, dtype=np.uint64)
    assert graph_module.subset_lattice(masks) is None
    for src, levels in graph_module.bfs_sweeps(masks, [0, 1]):
        assert np.array_equal(levels, bfs_levels(masks, src))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    cell=st.sampled_from(SMALL_CELLS),
    keep=st.floats(0.2, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_distance_equals_bfs_levels(cell, keep, seed):
    rng = np.random.default_rng(seed)
    masks = _draw_masks(cell, keep, rng)
    assume(masks.size >= 1)
    src = int(rng.integers(masks.size))
    levels = bfs_levels(masks, src)
    # the source itself, one unreachable vertex if any (the derandomized
    # draws include over a hundred), and a sample
    far = np.flatnonzero(levels < 0)[:1]
    for dst in [src, *far, *rng.choice(masks.size, size=min(20, masks.size), replace=False)]:
        assert graph_module.pair_distance(masks, src, int(dst)) == levels[dst]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    cell=st.sampled_from(SMALL_CELLS),
    keep=st.floats(0.2, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_advance_from_one_mask_equals_the_chunked_scan(cell, keep, seed):
    rng = np.random.default_rng(seed)
    masks = _draw_masks(cell, keep, rng)
    assume(masks.size >= 1)
    one = masks[rng.integers(masks.size)][None]
    # the same mask twice takes the chunked scan
    want = graph_module._advance(np.repeat(one, 2), masks)
    got = graph_module._advance(one, masks)
    assert got.dtype == bool and np.array_equal(got, want)
    assert np.array_equal(got, [not m & int(one[0]) for m in masks.tolist()])


def _kernel_calls(monkeypatch):
    """Counts of the kernels a BFS runs: the level loop, its `_advance`
    steps, residue scans, lattice passes and the builds of the table and
    the lattice."""
    calls = Counter()
    for name in ("_lattice_levels", "_advance", "_reach", "_disjoint_counts", "cover_table", "subset_lattice"):
        inner = getattr(graph_module, name)

        def counted(*args, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(graph_module, name, counted)
    return calls


@pytest.mark.parametrize(
    "n,k,table,capped,kernels",
    # SG(22,7): a 512 KB table, 56 bytes a vertex, and |F|/|V| = 3.6; the
    # completion test ends the batch after the table's level 2.  SG(19,7)
    # and SG(16,6) have a table and the lattice under its cap, but the one
    # batch scans its residue, which costs less than the lattice build and
    # a pass.  SG(20,8) has a table (159 bytes a vertex) and |F|/|V| = 18.2
    # passes the cap; its batch scans the residues past level 2 without
    # trying the lattice.  SG(23,9) (319 bytes a vertex, 19.3) has neither,
    # and nor does SG(63,30), whose |F| (about 10^13) gives up within the
    # first layers: each column takes `_advance` steps, with no scan and no
    # lattice pass.
    [
        pytest.param(22, 7, True, False, {"_lattice_levels", "cover_table"}, id="22-7-_lattice_levels"),
        pytest.param(19, 7, True, False, {"_lattice_levels", "cover_table", "_reach"}, id="19-7-_reach"),
        pytest.param(16, 6, True, False, {"_lattice_levels", "cover_table", "_reach"}, id="16-6-_reach"),
        pytest.param(20, 8, True, True, {"_lattice_levels", "cover_table", "_reach"}, id="20-8-_lattice_levels"),
        pytest.param(23, 9, False, True, {"_lattice_levels", "subset_lattice", "_advance"}, id="23-9-_advance"),
        pytest.param(63, 30, False, True, {"_lattice_levels", "subset_lattice", "_advance"}, id="63-30-_advance"),
    ],
)
def test_cost_rule_picks_the_kernel(monkeypatch, n, k, table, capped, kernels):
    masks = stable_masks(CycleParams(n, k))
    assert (graph_module._Sweep(masks, many=True).table is not None) == table
    assert (graph_module.subset_lattice(masks) is None) == capped
    calls = _kernel_calls(monkeypatch)
    swept = list(graph_module.bfs_sweeps(masks, [0, 1]))
    assert set(calls) == kernels
    assert calls["_lattice_levels"] == 1  # one batch of two sources
    for src, levels in swept:
        assert np.array_equal(levels, bfs_levels(masks, src))


def test_single_source_sweep_runs_advance(monkeypatch):
    # one source builds no table, no lattice and no rotation partners,
    # although SG(22,7) allows all three to a sweep of two; `distances_from`
    # runs the same batch of one without going through `bfs_sweeps`
    masks = stable_masks(CycleParams(22, 7))
    calls = _kernel_calls(monkeypatch)
    partners = graph_module._rotation_partners

    def counted_partners(masks):
        calls["_rotation_partners"] += 1
        return partners(masks)

    monkeypatch.setattr(graph_module, "_rotation_partners", counted_partners)
    [(src, levels)] = graph_module.bfs_sweeps(masks, [3])
    assert set(calls) == {"_lattice_levels", "_advance"}
    assert calls["_lattice_levels"] == 1
    monkeypatch.setattr(graph_module, "bfs_sweeps", _refuse)
    g = graph(22, 7)
    assert np.array_equal(g.distances_from(3), levels)
    assert set(calls) == {"_lattice_levels", "_advance"}
    assert calls["_lattice_levels"] == 2
    assert calls["_rotation_partners"] == 0
    monkeypatch.undo()
    assert src == 3 and np.array_equal(levels, bfs_levels(masks, 3))


def _lattice_levels_from_both_ends(monkeypatch, masks):
    """Levels from the first and last vertex with no table, so that lattice
    passes take every level past 1, equal `bfs_levels`; returns the count
    types of the passes."""
    monkeypatch.setattr(graph_module, "_TABLE_BYTES", 0)
    count_types = []
    inner = graph_module._disjoint_counts

    def counted(lat, frontier):
        count_types.append(lat.count_type)
        return inner(lat, frontier)

    monkeypatch.setattr(graph_module, "_disjoint_counts", counted)
    sources = [0, masks.size - 1]
    for src, levels in graph_module.bfs_sweeps(masks, sources):
        assert np.array_equal(levels, bfs_levels(masks, src))
    return count_types


def test_lattice_counts_modulo_2_16(monkeypatch):
    # SG(26,7) has 68 952 >= 2^16 vertices, but a count is at most the
    # C(19,7) = 50 388 7-sets that avoid a vertex, so counts are uint16
    masks = stable_masks(CycleParams(26, 7))
    assert masks.size == 68952
    assert set(_lattice_levels_from_both_ends(monkeypatch, masks)) == {np.uint16}


def test_lattice_counts_modulo_2_32(monkeypatch):
    # SG(27,7): 104 652 vertices and C(20,7) = 77 520 >= 2^16, so uint32
    masks = stable_masks(CycleParams(27, 7))
    assert masks.size == 104652
    assert set(_lattice_levels_from_both_ends(monkeypatch, masks)) == {np.uint32}


# SG(21,7): 5 148 vertices, 16 sources.  SG(18,5): 1 782 vertices, so four
# multiples of 16 sources fit in 2^17 (vertex, source) cells, 64 sources.
@pytest.mark.parametrize("n,k,width", [(21, 7, 16), (18, 5, 64)])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_sweep_batches_split_at_the_width(monkeypatch, n, k, width, extra):
    masks = stable_masks(CycleParams(n, k))
    sources = np.random.default_rng(width + extra).permutation(masks.size)[: width + extra].tolist()
    batches = []
    inner = graph_module._lattice_levels

    def counted(sweep, batch):
        batches.append(list(batch))
        return inner(sweep, batch)

    monkeypatch.setattr(graph_module, "_lattice_levels", counted)
    swept = list(graph_module.bfs_sweeps(masks, sources))
    # helper threads may start a later batch first
    batches.sort(key=lambda batch: sources.index(batch[0]))
    assert [len(batch) for batch in batches] == ([width, 1] if extra > 0 else [width + extra])
    assert sum(batches, []) == sources
    assert [src for src, _ in swept] == sources
    for src, levels in swept:
        assert np.array_equal(levels, bfs_levels(masks, src))


def test_sweep_ends_at_the_last_level_without_a_lattice_pass(monkeypatch):
    # SG(21,7) has D = 3.  After the table's level 2 every unvisited vertex
    # has a visited rotation partner, so none of the 9 batches of its 133
    # orbit representatives runs a lattice pass, and no lattice is built.
    g = graph(21, 7)
    sources = g.orbit_representatives()
    calls = _sweep_work(monkeypatch)
    swept = list(graph_module.bfs_sweeps(g._masks, sources))
    assert calls == {}
    monkeypatch.undo()
    assert max(int(levels.max()) for _, levels in swept) == 3
    for src, levels in swept:
        assert np.array_equal(levels, bfs_levels(g._masks, src))


def _set_cpus(monkeypatch, count):
    monkeypatch.setattr(graph_module.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _count_threads(monkeypatch) -> list[int]:
    """Live threads as each batch of a sweep starts."""
    threads = []
    inner = graph_module._lattice_levels

    def counted(sweep, batch):
        threads.append(threading.active_count())
        return inner(sweep, batch)

    monkeypatch.setattr(graph_module, "_lattice_levels", counted)
    return threads


@pytest.mark.parametrize(
    "n,k,budget",
    # SG(21,7): its 133 orbit representatives in 9 batches of 16; SG(14,5):
    # 196 sources, 13 batches of 16 with a one-cell budget.  Neither has a
    # table, as in the "no table" sweep path, so both may start helpers.
    [(21, 7, None), (14, 5, 1)],
)
def test_sweep_rows_do_not_depend_on_the_cpu_count(monkeypatch, n, k, budget):
    monkeypatch.setattr(graph_module, "_TABLE_BYTES", 0)
    g = graph(n, k)
    masks = g._masks
    sources = g.orbit_representatives() if budget is None else list(range(len(g)))
    if budget is not None:
        monkeypatch.setattr(graph_module, "_BATCH_CELLS", budget)
    batches = []
    threads = []  # live threads as each batch starts
    inner = graph_module._lattice_levels

    def counted(sweep, batch):
        batches.append(len(batch))
        threads.append(threading.active_count())
        return inner(sweep, batch)

    monkeypatch.setattr(graph_module, "_lattice_levels", counted)
    swept, started = {}, {}
    for cpus in (1, 4):
        _set_cpus(monkeypatch, cpus)
        threads.clear()
        before = threading.active_count()
        swept[cpus] = list(graph_module.bfs_sweeps(masks, sources))
        started[cpus] = max(threads) - before
    assert started[1] == 0 and started[4] > 0  # one CPU starts no thread
    assert len(batches) == 2 * (9 if budget is None else 13)
    assert [src for src, _ in swept[1]] == [src for src, _ in swept[4]] == sources
    for (src, one), (_, four) in zip(swept[1], swept[4]):
        assert np.array_equal(one, four)
        assert np.array_equal(one, bfs_levels(masks, src))


def test_closing_a_sweep_joins_its_helpers(monkeypatch):
    _set_cpus(monkeypatch, 4)
    monkeypatch.setattr(graph_module, "_TABLE_BYTES", 0)  # no table: helpers start
    masks = stable_masks(CycleParams(21, 7))
    before = threading.active_count()
    sweep_rows = graph_module.bfs_sweeps(masks, range(64))  # four batches
    src, levels = next(sweep_rows)
    assert threading.active_count() > before  # the helpers are running
    sweep_rows.close()
    assert threading.active_count() == before
    assert np.array_equal(levels, bfs_levels(masks, src))


def test_cpu_count_without_affinity(monkeypatch):
    # macOS and Windows have no sched_getaffinity
    monkeypatch.delattr(graph_module.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(graph_module.os, "cpu_count", lambda: 3)
    assert graph_module._cpus() == 3
    monkeypatch.setattr(graph_module.os, "cpu_count", lambda: None)
    assert graph_module._cpus() == 1
    masks = stable_masks(CycleParams(21, 7))
    monkeypatch.setattr(graph_module, "_TABLE_BYTES", 0)  # no table: helpers may start
    threads = _count_threads(monkeypatch)
    for cpus in (None, 3):
        monkeypatch.setattr(graph_module.os, "cpu_count", lambda: cpus)
        threads.clear()
        before = threading.active_count()
        assert [src for src, _ in graph_module.bfs_sweeps(masks, range(40))] == list(range(40))
        assert (max(threads) > before) == (cpus == 3)


# SG(21,7) and SG(22,6): 5148 and 11011 vertices, batches of 0.3-0.7 ms with
# a table, which run faster on the calling thread alone; SG(25,7): 44 200
# vertices, from `_HELPER_VERTICES` on, whose two batches of 16 and 1 take
# a helper.
@pytest.mark.parametrize("n,k,helpers", [(21, 7, False), (22, 6, False), (25, 7, True)])
def test_short_table_sweeps_start_no_thread(monkeypatch, n, k, helpers):
    g = graph(n, k)
    masks = g._masks
    sources = g.orbit_representatives()[: 17 if helpers else None]
    assert graph_module._Sweep(masks, many=True).table is not None
    threads = _count_threads(monkeypatch)
    swept = {}
    for cpus in (1, 4):
        _set_cpus(monkeypatch, cpus)
        threads.clear()
        before = threading.active_count()
        swept[cpus] = list(graph_module.bfs_sweeps(masks, sources))
        assert len(threads) > 1
        assert (max(threads) > before) == (helpers and cpus == 4)
    assert [src for src, _ in swept[1]] == [src for src, _ in swept[4]] == sources
    for (src, one), (_, four) in zip(swept[1], swept[4]):
        assert np.array_equal(one, four)
    if not helpers:
        for src, levels in swept[4]:
            assert np.array_equal(levels, bfs_levels(masks, src))


@pytest.mark.parametrize("n,k", [(14, 6), (17, 7), (22, 7)])
def test_diameter_witness_matches_per_source_loop(n, k):
    g = graph(n, k)
    best, witness = -1, None
    for src in g.orbit_representatives():
        dist = g.distances_from(src)
        if dist.max() > best:
            best, witness = int(dist.max()), (src, int(dist.argmax()))
    res = g.diameter_bruteforce()
    assert res.value == best
    assert res.witness == (g.vertices[witness[0]], g.vertices[witness[1]])
    assert not any(isinstance(v, (graph_module.SubsetLattice, graph_module._Sweep)) for v in vars(g).values())
    # no table either: the masks are the graph's only array
    assert [name for name, v in vars(g).items() if isinstance(v, np.ndarray)] == ["_masks"]


# SG(22,6) (D = 2) and SG(22,7) (D = 3) need no lattice pass after the
# table's level 2 and the completion test, and SG(20,7) (D = 3) scans the
# small level-3 residues of its two batches instead; the residue of
# SG(19,7) passes the ratio but costs less to scan than the lattice build
# and a pass.  SG(21,8) (two batches) and SG(22,8) (eight) build the
# lattice for their first residue and pass every batch.
@pytest.mark.parametrize("n,k,built", [(22, 6, 0), (22, 7, 0), (20, 7, 0), (19, 7, 0), (21, 8, 1), (22, 8, 1)])
def test_diameter_builds_the_lattice_only_when_a_batch_needs_it(monkeypatch, n, k, built):
    g = graph(n, k)
    calls = _sweep_work(monkeypatch)
    g.diameter_bruteforce()
    assert calls["subset_lattice"] == built
    assert (calls["_disjoint_counts"] > 0) == (built > 0)
    assert calls["_advance"] == 0


def test_diameter_over_the_lattice_cap_scans_and_runs_no_bfs_levels(monkeypatch):
    # SG(20,8) (D = 5): |F|/|V| = 18.2 is over the cap, so the levels past
    # 2 of its one batch come from the completion test and residue scans;
    # the residues (825 and 128 of 825 vertices) cost less to scan than a
    # lattice build, so the lattice is not even tried
    g = graph(20, 8)
    calls = _sweep_work(monkeypatch)
    assert g.diameter_bruteforce().value == 5
    assert calls == {"_reach": 2}
