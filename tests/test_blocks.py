"""Pair decomposition: components, blocks, ends, counting identities, criterion."""

from itertools import combinations, islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import ex1_pair
from schrijver import (
    CycleParams,
    DegenerateInputError,
    InvariantError,
    StableSet,
    blocks,
    component_counts,
    decompose,
    disjoint_middle_vertex,
    distance2_criterion,
    m_sum_bound,
    stable_set,
    witness_lower4,
)
from schrijver.cyclic import interval_elements, lowest_bits, mask_of, rol_mask, runs
from schrijver.suites import SuiteResult, check_blocks, graph, sweep, table_grid

def test_example_walkthrough_components_and_blocks():
    d = decompose(*ex1_pair())
    n = d.params.n
    comps = {interval_elements(c.start, c.length, n) for c in d.components}
    assert comps == {
        (20, 1, 2),
        (6,),
        (8,),
        (10,),
        (12,),
        (14, 15),
        (17, 18),
    }
    blocks = {interval_elements(blk.start, blk.length, n): blk.btype for blk in d.blocks}
    assert blocks == {
        (3, 4, 5): "IV(H)",
        (7,): "III(B)",
        (9,): "I",
        (11,): "I",
        (13,): "II(B)",
        (16,): "IV(H)",
        (19,): "IV(A)",
    }
    ms = {interval_elements(blk.start, blk.length, n): blk.m for blk in d.blocks}
    assert ms == {
        (3, 4, 5): 2,
        (7,): 1,
        (9,): 1,
        (11,): 1,
        (13,): 1,
        (16,): 0,
        (19,): 0,
    }


def test_example_walkthrough_ends_and_counts():
    d = decompose(*ex1_pair())
    assert d.ends.eA == mask_of({2, 15, 18, 20})
    assert d.ends.eB == mask_of({6, 14, 17})
    assert d.ends.eH == mask_of({8, 10, 12})
    assert d.h == 3
    counts = component_counts(d)
    assert counts["A"] == counts["B"] == 1
    assert counts["H'"] == 3
    assert counts["H''"] == 2


def test_decompose_refusals():
    p = CycleParams(10, 4)
    a = stable_set([1, 3, 5, 7], p)
    with pytest.raises(DegenerateInputError):
        decompose(a, a)
    with pytest.raises(DegenerateInputError):
        decompose(a, stable_set([2, 4, 6, 8], p))


def test_criterion_false_for_dist3_witness_family():
    # A = {1,4,6,...,2k}, B = {1,5,7,...,2k+1}: nothing fits in the complement
    for k in (4, 5, 6):
        for n in range(2 * k + 2, 4 * k - 2):
            p = CycleParams(n, k)
            a = stable_set([1] + list(range(4, 2 * k + 1, 2)), p)
            b = stable_set([1] + list(range(5, 2 * k + 2, 2)), p)
            assert not distance2_criterion(decompose(a, b))


def test_criterion_true_when_many_blocks():
    # r >= 2k-2 forces distance 2 for every intersecting pair
    for a, b, _ in sweep([(14, 4)]):
        assert distance2_criterion(decompose(a, b))


def test_criterion_matches_bfs_on_example_graph():
    d = decompose(*ex1_pair())
    g = graph(20, 7)
    dist = g.bfs_distance(*ex1_pair()).distance
    assert distance2_criterion(d) == (dist == 2)
    assert dist == 2  # the walkthrough pair is closer than its P4 suggests


@pytest.mark.parametrize("n,k", [(10, 4), (11, 4), (12, 5), (13, 5)])
def test_counting_identities_exhaustive(n, k):
    res = SuiteResult("blocks")
    for a, b, dist in sweep([(n, k)]):
        check_blocks(res, decompose(a, b), dist)
    assert res.ok, res.failures
    assert res.counts["blocks"]


def test_m_sum_bound_witness_equality():
    a, b = witness_lower4(12, 5)
    d = decompose(a, b)
    assert sum(blk.m for blk in d.blocks) == 12 - 15 + 2 * d.h + 2
    assert m_sum_bound(d)


def test_block_intervals_partition_cycle():
    for a, b, _ in islice(sweep([(13, 5)]), 800):
        d = decompose(a, b)
        seen = []
        for c in d.components:
            seen.extend(interval_elements(c.start, c.length, 13))
        for blk in d.blocks:
            seen.extend(interval_elements(blk.start, blk.length, 13))
        assert sorted(seen) == list(range(1, 14))


def test_disjoint_middle_vertex_contract():
    hits = 0
    for a, b, dist in sweep([(12, 4)]):
        d = decompose(a, b)
        if distance2_criterion(d):
            mid = disjoint_middle_vertex(d)
            assert not mid.mask & (a.mask | b.mask)
            hits += 1
        else:
            assert dist >= 3
            with pytest.raises(InvariantError):
                disjoint_middle_vertex(d)
    assert hits


def test_wrapping_block_normalized():
    p = CycleParams(12, 4)
    a = stable_set([2, 4, 6, 8], p)
    b = stable_set([2, 4, 6, 10], p)
    d = decompose(a, b)
    wrapped = [blk for blk in d.blocks if blk.start + blk.length - 1 > 12]
    assert len(wrapped) == 1
    assert interval_elements(wrapped[0].start, wrapped[0].length, 12) == (11, 12, 1)


def assert_matches_blocks(a, b):
    """Criterion and middle vertex equal their block-based definitions:
    odd + total >= 2k, and the k lowest bits of the blocks' Z halves."""
    d = decompose(a, b)
    n = a.params.n
    odd = total = z = 0
    for blk in decompose(a, b).blocks:  # a second decomposition: d builds no parts
        odd += blk.length % 2
        total += blk.length
        z |= mask_of(interval_elements(blk.start, blk.length, n)[::2])
    k = a.params.k
    assert distance2_criterion(d) == (odd + total >= 2 * k), (a, b)
    if odd + total >= 2 * k:
        assert disjoint_middle_vertex(d).mask == lowest_bits(z, k), (a, b)
    else:
        with pytest.raises(InvariantError):
            disjoint_middle_vertex(d)


@pytest.mark.parametrize("n,k", [(n, k) for n, k in table_grid(5) if n <= 16])
def test_criterion_and_middle_vertex_match_blocks_exhaustive(n, k):
    for a, b in combinations(graph(n, k).vertices, 2):
        if a.mask & b.mask:
            assert_matches_blocks(a, b)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from([(63, 30), (64, 30)]), st.data())
def test_criterion_and_middle_vertex_match_blocks_near_cap(cell, data):
    """Random pairs near the single-word cap.  Half of them are rotated so
    that their longest complement run starts at element n: it wraps past
    bit n-1 whenever it has two elements (about one pair in five)."""
    n = cell[0]
    verts = graph(*cell).vertices
    a, b = (verts[data.draw(st.integers(0, len(verts) - 1))] for _ in range(2))
    assume(a.mask != b.mask and a.mask & b.mask)
    start, _ = max(runs(~(a.mask | b.mask) & a.params.full_mask, n), key=lambda run: run[1])
    shift = n - start if data.draw(st.booleans()) else data.draw(st.integers(0, n - 1))
    a, b = (StableSet(v.params, rol_mask(v.mask, shift, n)) for v in (a, b))
    assert_matches_blocks(a, b)


def test_parts_built_once_on_first_read(monkeypatch):
    """The criterion, middle vertex and end sets build no part; the first
    read of a part builds all of them, once."""
    built = {"Component": 0, "Block": 0}

    def counting(name):
        real = getattr(blocks, name)

        def make(*args):
            built[name] += 1
            return real(*args)

        return make

    for name in built:
        monkeypatch.setattr(blocks, name, counting(name))
    d = decompose(*ex1_pair())
    assert d.ends.eA == mask_of({2, 15, 18, 20})
    assert built == {"Component": 0, "Block": 0}
    assert distance2_criterion(d)
    disjoint_middle_vertex(d)
    assert built == {"Component": 0, "Block": 0}
    assert len(d.blocks) == 7
    assert built == {"Component": 7, "Block": 7}
    assert len(d.components) == 7
    assert d.ends.eH == mask_of({8, 10, 12})
    assert built == {"Component": 7, "Block": 7}
