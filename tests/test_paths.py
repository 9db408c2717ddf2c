"""Constructive paths: star rules, reduction, short walks."""

import hashlib
import random
from itertools import combinations

import pytest

from conftest import ex1_pair, record_decompositions, record_picks
from schrijver import paths, suites
from schrijver import (
    CycleParams,
    DegenerateInputError,
    ParameterError,
    RegimeError,
    build_star_pair,
    decompose,
    diameter_formula,
    path_dist3,
    path_small_intersection,
    path_via_reduction,
    reduce_intersection,
    stable_set,
    verify_certificate,
)
from schrijver.cyclic import mask_of, parse_set_text
from schrijver.suites import (
    SuiteResult,
    check_dist3,
    check_reduction,
    check_star_pair,
    check_walks,
    graph,
    suite_paths,
    sweep,
    table_grid,
)


def test_star_pair_example_walkthrough():
    d = decompose(*ex1_pair())
    sp = build_star_pair(d)
    assert sp.a_star == mask_of({1, 3, 6, 14, 17, 19})
    assert sp.b_star == mask_of({2, 4, 7, 13, 15, 18, 20})
    assert sp.i_prime == mask_of({9, 11})
    # r = 0: no type-I block of length >= 2
    assert sp.s == 1 and d.h == 3
    assert not any(blk.btype == "I" and blk.length >= 2 for blk in d.blocks)
    assert mask_of({1, 3, 6, 9, 11, 14, 17, 19}) & ~(sp.a_star | sp.i_prime) == 0


def test_star_pair_invariants_exhaustive():
    res = SuiteResult("star pairs")
    for a, b, _ in sweep([(10, 4), (13, 5)]):
        check_star_pair(res, decompose(a, b))
    assert res.ok, res.failures


def _star_pair_digest_pairs():
    """Every intersecting pair of the table cells with n <= 15, then 2000
    seeded pairs each of SG(22,7), SG(63,30) and SG(64,30)."""
    for n, k in table_grid(5):
        if n <= 15:
            for a, b in combinations(graph(n, k).vertices, 2):
                if a.mask & b.mask:
                    yield a, b
    rng = random.Random(2021)
    for cell in ((22, 7), (63, 30), (64, 30)):
        verts = graph(*cell).vertices
        drawn = 0
        while drawn < 2000:
            a, b = rng.choice(verts), rng.choice(verts)
            if a.mask != b.mask and a.mask & b.mask:
                drawn += 1
                yield a, b


def test_star_pairs_match_the_per_type_rules_digest():
    # (a_star, b_star, I', s) of 138 938 pairs, hashed; the digest was taken
    # from the eight per-block-type rules R1-R8 written out one by one
    digest = hashlib.sha256()
    for a, b in _star_pair_digest_pairs():
        sp = build_star_pair(decompose(a, b))
        digest.update(f"{sp.a_star:x} {sp.b_star:x} {sp.i_prime:x} {sp.s};".encode())
    assert digest.hexdigest() == "e6a3c00ae926bc3eb6e7f73332a59281754b83b183dc1af57504375134c5445d"


def test_i_prime_empty_without_singleton_type_i():
    seen = 0
    for a, b, _ in sweep([(13, 5)]):
        d = decompose(a, b)
        singles = [
            blk for blk in d.blocks if blk.btype == "I" and blk.length == 1
        ]
        if not singles:
            assert build_star_pair(d).i_prime == 0
            seen += 1
    assert seen


def test_reduce_intersection_example():
    a2, b2 = reduce_intersection(*ex1_pair())
    assert a2.members == (1, 3, 6, 9, 14, 17, 19)
    assert b2.members == (2, 4, 7, 13, 15, 18, 20)
    assert not a2.mask & b2.mask


def test_reduce_intersection_contract_exhaustive():
    res = SuiteResult("reduction")
    for a, b, _ in sweep([(10, 4), (11, 4), (13, 5)], min_dist=3):
        check_reduction(res, decompose(a, b))
    assert res.ok, res.failures
    assert res.counts["reduction"]


def test_no_singleton_type_i_gives_disjoint_reduction():
    seen = 0
    for a, b, _ in sweep([(13, 5)], min_dist=3):
        d = decompose(a, b)
        if any(blk.btype == "I" and blk.length == 1 for blk in d.blocks):
            continue
        a2, b2 = reduce_intersection(a, b)
        assert not a2.mask & b2.mask  # distance <= 3 immediately
        seen += 1
    assert seen


def test_reduce_intersection_refusals():
    p = CycleParams(10, 4)
    a = stable_set([1, 3, 5, 7], p)
    with pytest.raises(DegenerateInputError):
        reduce_intersection(a, a)
    with pytest.raises(DegenerateInputError):
        reduce_intersection(a, stable_set([2, 4, 6, 8], p))


def test_path_small_intersection_k_minus_1():
    g = graph(10, 4)
    a = stable_set([1, 3, 5, 7], g.params)
    b = stable_set([1, 3, 5, 8], g.params)
    cert = path_small_intersection(a, b)
    verify_certificate(cert, source=a, target=b)
    assert cert.edge_count == 2
    assert g.bfs_distance(a, b).distance == 2


def test_path_small_intersection_sweeps():
    res = SuiteResult("walks")
    for a, b, dist in sweep([(10, 4), (12, 5)]):
        check_walks(res, decompose(a, b), dist)
    assert res.ok, res.failures


def test_path_small_intersection_wrong_h():
    p = CycleParams(20, 7)
    a, b = ex1_pair()  # intersection size 3
    with pytest.raises(ParameterError):
        path_small_intersection(a, b)


@pytest.mark.parametrize("n,k", [(10, 4), (13, 5)])
def test_path_dist3_exhaustive(n, k):
    res = SuiteResult("dist3")
    for a, b, dist in sweep([(n, k)]):
        if dist >= 3:
            check_dist3(res, decompose(a, b), dist)
        else:
            with pytest.raises((RegimeError, DegenerateInputError)):
                path_dist3(a, b)
    assert res.ok, res.failures
    assert res.counts["dist3"]


def test_check_dist3_fails_below_the_bfs_distance():
    p = CycleParams(10, 4)
    a, b = stable_set([1, 3, 5, 7], p), stable_set([1, 3, 6, 8], p)
    assert graph(10, 4).bfs_distance(a, b).distance == 3
    res = SuiteResult("dist3")
    check_dist3(res, decompose(a, b), 3)
    assert res.ok, res.failures
    check_dist3(res, decompose(a, b), 4)
    assert res.failure_count == 1
    assert "length-3 walk length 3 below BFS distance 4" in res.failures[0]


def test_path_dist3_regime_errors():
    p = CycleParams(12, 5)  # n < 3k-2
    a = stable_set([1, 3, 5, 7, 10], p)
    b = stable_set([1, 3, 6, 8, 11], p)
    with pytest.raises(RegimeError):
        path_dist3(a, b)


def test_dist3_regime_is_where_the_formula_gives_3():
    # the constructive n-form and the closed form's r-form, k-2 <= r <= 2k-3,
    # name the same cells; SG(5,2), the 5-cycle, is the one exception k >= 2
    for k in range(3, 32):
        for n in range(2 * k + 1, 65):
            fm = diameter_formula(n, k)
            assert paths.in_dist3_regime(n, k) == (fm.exact and fm.value == 3), (n, k)
    assert paths.in_dist3_regime(5, 2) and diameter_formula(5, 2).value == 2


def test_path_via_reduction_examples():
    g = graph(10, 4)
    a = stable_set([1, 3, 5, 7], g.params)
    b = stable_set([2, 4, 6, 8], g.params)
    assert path_via_reduction(a, b).edge_count == 1
    assert path_via_reduction(a, a).edge_count == 0

    cert = path_via_reduction(*ex1_pair())
    verify_certificate(cert)
    assert cert.claimed_bound == 1 + 2 * 3
    assert cert.edge_count >= graph(20, 7).bfs_distance(*ex1_pair()).distance


def test_path_via_reduction_exhaustive_small():
    res = SuiteResult("walks")
    for a, b, dist in sweep([(9, 4), (10, 4), (11, 4)]):
        check_walks(res, decompose(a, b), dist)
    assert res.ok, res.failures


def test_path_via_reduction_with_middle():
    g = graph(12, 5)
    a = g.vertices[0]
    dmat = graph(12, 5).all_distances()
    mid = g.vertices[10]
    b = g.vertices[20]
    cert = path_via_reduction(a, b, via=mid)
    verify_certificate(cert, source=a, target=b)
    h_star = (mid.mask & a.mask).bit_count() + (mid.mask & b.mask).bit_count()
    assert cert.edge_count <= 2 + 2 * h_star
    assert cert.edge_count >= dmat[0, 20]
    assert mid in cert.vertices


def test_path_via_reduction_decomposes_each_step_once(monkeypatch):
    real = paths.decompose
    pairs = []

    def counting(x, y):
        pairs.append((x.mask, y.mask))
        return real(x, y)

    monkeypatch.setattr(paths, "decompose", counting)
    params = CycleParams(13, 6)
    a, b = (stable_set(parse_set_text(s), params) for s in ("1,3,5,7,9,11", "1,3,5,7,10,12"))
    cert = path_via_reduction(a, b)
    verify_certificate(cert, source=a, target=b)
    assert cert.edge_count == 9  # four reduction steps, then a disjoint pair
    assert len(pairs) == len(set(pairs)) == 4


def test_suite_paths_decomposes_each_pair_once(monkeypatch):
    # the swept pair goes into the call list ahead of the calls its checks
    # make; the reduction's own steps decompose other pairs
    calls = record_decompositions(monkeypatch)
    real_sweep = suites.sweep

    def marking(*args, **kwargs):
        for a, b, dist in real_sweep(*args, **kwargs):
            calls.append(("pair", a.params.n, a.mask, b.mask))
            yield a, b, dist

    monkeypatch.setattr(suites, "sweep", marking)
    res = suite_paths(4)
    assert res.ok, res.failures
    starts = [i for i, call in enumerate(calls) if call[0] == "pair"]
    assert len(starts) == res.checked == 51570
    for start, end in zip(starts, starts[1:] + [len(calls)]):
        assert calls[start + 1 : end].count(calls[start][1:]) == 1, calls[start]


def test_suite_paths_builds_each_star_pair_once(monkeypatch):
    # the walk, star-pair, reduction and middle-pair checks of a deep pair
    # share its decomposition, and so the star pair kept on it
    built = []
    real = paths.build_star_pair

    def recording(d):
        built.append(d)
        return real(d)

    monkeypatch.setattr(paths, "build_star_pair", recording)
    res = suite_paths(4)
    assert res.ok, res.failures
    # 896 deep pairs and 9 pairs of later reduction steps; 3575 builds when
    # each check built its own
    assert res.counts["star_pair"] == res.counts["reduction"] == 896
    assert len({id(d) for d in built}) == len(built) == 905


def test_suite_paths_derives_the_picks_once_per_pair(monkeypatch):
    # `decompose` derives the stable picks; the criterion, the middle
    # vertex and the star pair read them from the decomposition
    calls = record_decompositions(monkeypatch)
    derived = record_picks(monkeypatch)
    res = suite_paths(5)
    assert res.ok, res.failures
    assert len(calls) > res.checked == 132938
    assert derived == [(am, bm, size) for size, am, bm in calls]
