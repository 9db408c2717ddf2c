"""Closed forms: piecewise diameter, the 2k+2 coordinate model, witnesses."""

from math import ceil

import networkx as nx
import pytest

from schrijver import (
    ParameterError,
    RegimeError,
    Sg2k2Coordinate,
    Sg2k2Model,
    classify_sg2k2_vertex,
    decompose,
    diameter_formula,
    sg2k2_diameter,
    sg2k2_model,
    sg2k2_vertex,
    verify_certificate,
    witness_dist3,
    witness_lower4,
)
from schrijver import suites
from schrijver.cyclic import wrap
from schrijver.suites import SuiteResult, check_model, graph


@pytest.mark.parametrize(
    "n,k,lo,hi",
    [
        (14, 6, 4, 4),
        (9, 4, 4, 4),
        (17, 7, 4, 5),
        (10, 4, 3, 3),
        (26, 7, 2, 2),
        (16, 7, 6, 6),
        (12, 5, 4, 4),
        (5, 2, 2, 2),
        (18, 7, 4, 4),
        (13, 6, 6, 6),
        (11, 5, 5, 5),
        (4, 1, 1, 1),
    ],
)
def test_formula_branches(n, k, lo, hi):
    res = diameter_formula(n, k)
    assert (res.lo, res.hi) == (lo, hi)
    assert res.exact == (lo == hi)
    assert res.method == "formula"


def test_formula_rejects_small_n():
    with pytest.raises(ParameterError):
        diameter_formula(8, 4)
    with pytest.raises(ParameterError):
        diameter_formula(10, 0)


def test_interval_result_refuses_value():
    res = diameter_formula(17, 7)
    with pytest.raises(ParameterError):
        res.value


def test_r2_closed_form_coincides_with_other_branches_small_k():
    # k in {3,4,5}: the 2k+2 value equals what the general bands give
    assert sg2k2_diameter(3) == 3
    assert sg2k2_diameter(4) == 3
    assert sg2k2_diameter(5) == 4
    with pytest.raises(ParameterError):
        sg2k2_diameter(2)


def test_sg2k2_diameters_are_ceil_3k_over_4():
    # Evidence, not proof: BFS gives ceil(3k/4) for every 3 <= k <= 31.  The
    # published floor(3k/4) for even k (sg2k2_diameter) is one short when
    # k = 2 (mod 4); networkx on the coordinate model agrees for k <= 12.
    for k in range(3, 32):
        assert graph(2 * k + 2, k).diameter_bruteforce().value == ceil(3 * k / 4), k
    for k in range(3, 13):
        model = sg2k2_model(k)
        gx = nx.Graph(tuple(edge) for edge in model.edges)
        gx.add_nodes_from(model.vertices)
        assert nx.diameter(gx) == ceil(3 * k / 4), k


def test_formula_matches_bfs_small():
    for k in range(2, 6):
        for n in range(2 * k + 1, min(4 * k - 1, 15)):
            res = diameter_formula(n, k)
            bfs = graph(n, k).diameter_bruteforce().value
            assert res.lo <= bfs <= res.hi
            if res.exact:
                assert res.value == bfs


def test_open_regime_bfs_lies_above_the_abstracts_interval():
    # PAPER.md's abstract gives [4..k-r-1] for 3 <= r <= k-4.  BFS exceeds
    # its upper end on these cells, and stays inside diameter_formula's
    # [4..k-r+1] (README, "Known discrepancy").
    measured = {(17, 7): 5, (19, 8): 6, (20, 8): 5, (21, 9): 6, (22, 9): 5, (24, 10): 6}
    for (n, k), bfs in measured.items():
        r = n - 2 * k
        assert 3 <= r <= k - 4
        assert graph(n, k).diameter_bruteforce().value == bfs
        res = diameter_formula(n, k)
        assert (res.lo, res.hi) == (4, k - r + 1)
        assert k - r - 1 < bfs <= res.hi, (n, k)


def test_sg2k2_vertex_examples():
    s = sg2k2_vertex(Sg2k2Coordinate(0, 1), 3)
    assert s.members == (4, 6, 8)
    # complement holds the order-3 run {1,2,3}
    kind, v = classify_sg2k2_vertex(s)
    assert (kind, v) == ("B3", 1)


def test_sg2k2_vertex_coordinate_validation():
    with pytest.raises(ParameterError):
        sg2k2_vertex(Sg2k2Coordinate(3, 0), 4)  # level beyond k//2
    with pytest.raises(ParameterError):
        sg2k2_vertex(Sg2k2Coordinate(2, 5), 4)  # identified level caps v at k
    with pytest.raises(ParameterError):
        sg2k2_vertex(Sg2k2Coordinate(0, 10), 4)


def test_sg2k2_degrees():
    for k in (3, 4):
        g = graph(2 * k + 2, k)
        for s in g.vertices:
            kind, _ = classify_sg2k2_vertex(s)
            deg = sum(not v.mask & s.mask for v in g.vertices)
            assert deg == (k + 2 if kind == "B3" else 4)


def test_even_k_identification():
    # for even k the top level wraps: positions v and v+k+1 name one vertex
    k = 4
    n = 2 * k + 2
    top = k // 2

    def raw_vertex(i, v):
        u = v - i
        raw = (
            [u - 1]
            + [u + 2 * j for j in range(1, i + 1)]
            + [u + 2 * i + 1 + 2 * j for j in range(1, k - i)]
        )
        return tuple(sorted(wrap(x, n) for x in raw))

    for v in range(k + 1):
        assert raw_vertex(top, v) == raw_vertex(top, v + k + 1)
        assert sg2k2_vertex(Sg2k2Coordinate(top, v), k).members == raw_vertex(top, v)


@pytest.mark.parametrize("k", [3, 4])
def test_model_counts_small(k):
    res = SuiteResult("model")
    check_model(res, k)
    assert res.ok, res.failures


def _broken_model_failures(monkeypatch, k, drop, add=()):
    """check_model's failure kinds for the real model less `drop`, plus `add`."""
    model = sg2k2_model(k)
    assert drop in model.edges and not set(add) & model.edges
    broken = Sg2k2Model(k, model.vertices, model.edges - {drop} | set(add))
    monkeypatch.setattr(suites, "sg2k2_model", lambda _: broken)
    res = SuiteResult("model")
    check_model(res, k)
    return [msg.split(": ", 1)[1].split(" at ")[0] for msg in res.failures]


def test_model_check_catches_a_broken_model(monkeypatch):
    chord = frozenset((Sg2k2Coordinate(0, 0), Sg2k2Coordinate(0, 1)))
    non_edge = frozenset((Sg2k2Coordinate(0, 0), Sg2k2Coordinate(0, 2)))
    assert _broken_model_failures(monkeypatch, 4, chord) == [
        "edge counts differ",
        "adjacency mismatch",
    ]
    # an edge swapped for a non-edge keeps the edge count
    assert _broken_model_failures(monkeypatch, 4, chord, [non_edge]) == [
        "adjacency mismatch",
        "adjacency mismatch",
    ]


def test_witness_lower4_examples():
    a, b = witness_lower4(12, 5)
    assert a.members == (1, 3, 5, 7, 10)
    assert b.members == (1, 3, 6, 8, 11)
    assert set(a.members) & set(b.members) == {1, 3}
    d = decompose(a, b)
    assert all(blk.length == 1 for blk in d.blocks)
    assert len(d.blocks) == 5 - 1
    with pytest.raises(RegimeError):
        witness_lower4(13, 5)  # r=3 > k-3


def test_witness_lower4_distance_and_blocking():
    for n, k in ((12, 5), (15, 6)):
        a, b = witness_lower4(n, k)
        g = graph(n, k)
        assert g.bfs_distance(a, b).distance >= 4
        # no neighbor of a is adjacent to any neighbor of b
        na = [v for v in g.vertices if not v.mask & a.mask]
        nb = [v for v in g.vertices if not v.mask & b.mask]
        assert all(x.mask & y.mask for x in na for y in nb)


def test_witness_dist3_examples():
    a, b, cert = witness_dist3(10, 4)
    assert a.members == (1, 4, 6, 8)
    assert b.members == (1, 5, 7, 9)
    verify_certificate(cert, source=a, target=b)
    assert cert.edge_count == 3
    assert graph(10, 4).bfs_distance(a, b).distance == 3

    a, b, _ = witness_dist3(13, 5)
    assert graph(13, 5).bfs_distance(a, b).distance == 3

    with pytest.raises(RegimeError):
        witness_dist3(22, 6)  # r = 2k-2 is outside
    with pytest.raises(RegimeError):
        witness_dist3(7, 3)  # below 2k+2
