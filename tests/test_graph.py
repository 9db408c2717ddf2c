"""Graph oracle: adjacency, BFS distances, eccentricity, brute-force diameter."""

from itertools import islice
from random import Random

import networkx as nx
import pytest

from schrijver import (
    CycleParams,
    ParameterError,
    SchrijverGraph,
    adjacent,
    canonical_form,
    rotate,
    stable_masks,
    stable_set,
)
from schrijver.graph import bfs_levels
from schrijver.suites import distance_matrix, graph, sweep


def nx_oracle(g):
    """Independent BFS oracle built on networkx."""
    gx = nx.Graph()
    gx.add_nodes_from(range(len(g)))
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            if not g.vertices[i].mask & g.vertices[j].mask:
                gx.add_edge(i, j)
    return gx


def test_adjacent_examples():
    p = CycleParams(10, 4)
    assert adjacent(stable_set([1, 3, 5, 7], p), stable_set([2, 4, 6, 8], p))
    assert not adjacent(stable_set([1, 3, 5, 7], p), stable_set([1, 4, 6, 9], p))
    with pytest.raises(ParameterError):
        adjacent(stable_set([1, 3, 5, 7], p), stable_set([1, 3, 5], CycleParams(10, 3)))


def test_adjacent_symmetric_irreflexive_and_shift():
    g = graph(13, 5)
    for s in g.vertices:
        assert not adjacent(s, s)
        # a rotation of a 2-stable set never meets the set itself
        assert adjacent(s, rotate(s, 1))
    for a, b, _ in islice(sweep([(13, 5)]), 500):
        assert adjacent(a, b) == adjacent(b, a)


@pytest.mark.parametrize("n,k", [(10, 4), (9, 4), (8, 3)])
def test_distances_match_networkx(n, k):
    g = graph(n, k)
    dmat = distance_matrix(n, k)
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
    dmat = distance_matrix(11, 4)
    total = len(g)
    for i in range(0, total, 3):
        for j in range(1, total, 4):
            for l in range(2, total, 5):
                assert dmat[i, j] <= dmat[i, l] + dmat[l, j]


def test_eccentricity_examples():
    assert graph(9, 4).eccentricity(0) == 4
    assert graph(7, 3).eccentricity(0) == 3
    g = graph(10, 4)
    assert g.eccentricity(stable_set([1, 3, 5, 7], g.params)) == 3


def test_eccentricity_constant_on_orbits():
    for n, k in ((9, 4), (10, 4), (11, 4)):
        g = graph(n, k)
        eccs = {}
        for i, s in enumerate(g.vertices):
            eccs.setdefault(canonical_form(s).mask, set()).add(g.eccentricity(i))
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
    for n, k in ((9, 4), (10, 4), (11, 4), (12, 4)):
        g = graph(n, k)
        assert (
            g.diameter_bruteforce(orbit_reduction=True).value
            == g.diameter_bruteforce(orbit_reduction=False).value
        )


def test_orbit_representatives_are_canonical():
    g = graph(12, 5)
    reps = g.orbit_representatives()
    rep_masks = {g.vertices[i].mask for i in reps}
    assert rep_masks == {canonical_form(s).mask for s in g.vertices}


def test_distance_record_symmetry_and_unreachable_marker():
    g = graph(8, 4)  # two disjoint alternating sets: a single edge
    a, b = g.vertices
    assert g.bfs_distance(a, b).distance == 1
    assert g.eccentricity(0) == 1


def test_connectedness_small():
    for n, k in ((7, 3), (9, 4), (10, 4), (12, 5), (13, 5)):
        assert (distance_matrix(n, k) >= 0).all()


def test_graph_work_builds_no_vertex_list():
    g = SchrijverGraph(CycleParams(10, 4))
    a = stable_set([1, 3, 5, 7], g.params)
    b = stable_set([1, 3, 6, 8], g.params)
    assert g.bfs_distance(a, b).distance == 3
    g.distances_from(a)
    g.orbit_representatives()
    assert g.diameter_bruteforce().witness is not None
    g.all_distances()
    assert "vertices" not in g.__dict__


def test_sampled_sweep_draws_distinct_intersecting_pairs():
    pairs = list(sweep([(14, 6)], sample=50, rng=Random(3)))
    g, dmat = graph(14, 6), distance_matrix(14, 6)
    seen = {(g.vertex_index(a), g.vertex_index(b)) for a, b, _ in pairs}
    assert len(pairs) == len(seen) == 50
    for a, b, dist in pairs:
        assert a.mask & b.mask and a != b
        assert dist == dmat[g.vertex_index(a), g.vertex_index(b)]
    assert [(a, b) for a, b, _ in sweep([(14, 6)], sample=50, rng=Random(3))] == [
        (a, b) for a, b, _ in pairs
    ]


def test_pair_distance_stops_at_target_level():
    g = graph(13, 5)
    a = g.vertices[0]
    ia, ib = 0, g.vertex_index(g.neighbors(a)[0])
    dist = bfs_levels(stable_masks(g.params), ia, target=ib)
    assert dist[ib] == 1 and dist.max() == 1 and (dist < 0).any()
