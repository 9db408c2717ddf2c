"""Ground-set resizing: the four operations and the full certificate pipeline."""

from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schrijver import (
    CycleParams,
    ParameterError,
    RegimeError,
    bound_path_m_plus_3,
    bound_path_with_trace,
    decompose,
    distance2_criterion,
    op_down,
    op_minus,
    op_plus,
    op_up,
    parse_set_text,
    stable_set,
    verify_certificate,
    witness_lower4,
)
from schrijver import lift
from schrijver.cyclic import interval_elements
from schrijver.suites import graph, sweep


def lower4_shape(n, k):
    """The all-singleton-blocks pair pattern, valid down to r=1."""
    r = n - 2 * k
    t = k - 3 - r
    p = CycleParams(n, k)
    a = [1, 3, 5] + [7 + 2 * i for i in range(t + 1)] + [7 + 2 * t + 3 * j for j in range(1, r)]
    b = [1, 3, 6] + [8 + 2 * i for i in range(t + 1)] + [8 + 2 * t + 3 * j for j in range(1, r)]
    return stable_set(a, p), stable_set(b, p)


def test_op_plus_on_singleton_block_pair():
    a, b = lower4_shape(13, 6)
    assert a.members == (1, 3, 5, 7, 9, 11)
    assert b.members == (1, 3, 6, 8, 10, 12)
    a2, b2, u = op_plus(decompose(a, b))
    assert a2.params.n == 14 and b2.params.n == 14
    assert len(a2.members) == len(b2.members) == 6
    assert u not in a2.members and u not in b2.members
    d2 = decompose(a2, b2)
    blk = next(blk for blk in d2.blocks if interval_elements(blk.start, blk.length, 14) == (u,))
    assert blk.btype == "IV(H)"


def test_op_plus_marker_is_vacant_everywhere():
    for a, b, _ in sweep([(12, 5)], min_dist=3):
        a2, b2, u = op_plus(decompose(a, b))
        assert u not in a2.members and u not in b2.members
        assert (a2.mask & b2.mask).bit_count() == (a.mask & b.mask).bit_count()


def test_op_plus_needs_a_big_component():
    found = False
    for a, b, _ in sweep([(12, 4)]):
        d = decompose(a, b)
        if all(c.length <= 2 for c in d.components):
            assert distance2_criterion(d)  # Observation: such pairs sit at distance 2
            with pytest.raises(RegimeError):
                op_plus(d)
            found = True
            break
    assert found


def test_op_minus_round_trip_bookkeeping():
    a, b = lower4_shape(12, 5)
    a2, b2, u = op_plus(decompose(a, b))
    g2 = graph(13, 5)
    checked_plain = checked_holding = 0
    for y in g2.vertices:
        if u in y.members:
            # u present: the merge shifts it onto u-1
            if u - 2 not in y.members:
                y0 = op_minus(y, u)
                assert len(y0.members) == 5
                checked_holding += 1
            continue
        if u - 1 in y.members and u + 1 in y.members:
            continue  # deletion would make them consecutive
        y0 = op_minus(y, u)
        # intersections with the lifted pair survive the deletion
        assert (y0.mask & a.mask).bit_count() + (y0.mask & b.mask).bit_count() == (
            y.mask & a2.mask
        ).bit_count() + (y.mask & b2.mask).bit_count()
        if not y.mask & a2.mask:
            assert not y0.mask & a.mask
        checked_plain += 1
    assert checked_plain and checked_holding


def test_op_minus_pairwise_intersections_preserved():
    a, b = lower4_shape(12, 5)
    a2, b2, u = op_plus(decompose(a, b))
    g2 = graph(13, 5)
    safe = [
        y
        for y in g2.vertices
        if u not in y.members and u + 1 not in y.members and u - 2 not in y.members
    ]
    for y1, y2 in combinations(safe[:40], 2):
        assert (
            op_minus(y1, u).mask & op_minus(y2, u).mask
        ).bit_count() == (y1.mask & y2.mask).bit_count()


def test_op_minus_stability_error_names_pair():
    p = CycleParams(13, 5)
    y = stable_set([2, 4, 6, 8, 11], p)
    with pytest.raises(ParameterError, match=r"2,3|3,4"):
        op_minus(y, 3)


def test_op_minus_at_position_one_wraps_onto_n():
    # the merged position 0 is n: element 1 lands on the new n
    p = CycleParams(13, 5)
    assert op_minus(stable_set([1, 4, 6, 8, 11], p), 1).members == (3, 5, 7, 10, 12)
    with pytest.raises(ParameterError, match="12,1"):
        op_minus(stable_set([2, 4, 6, 8, 13], p), 1)


def _plus_position(d):
    """u from the components: after the second element of the component of
    size >= 3 with the least start."""
    n = d.params.n
    second = min(c.start for c in d.components if c.length >= 3) % n + 1
    return n + 1 if second == n else second + 1


def _up_position(d):
    """t from the blocks: the least singleton type-I block."""
    return min(
        blk.start for blk in d.blocks if blk.btype == "I" and blk.length == 1
    )


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.sampled_from([(14, 6), (16, 7), (18, 8), (19, 8)]), st.data())
def test_lift_markers_match_their_block_definitions(cell, data):
    """op_plus and the up step read their positions off the masks; those
    equal the definitions through components and blocks, at every level."""
    verts = graph(*cell).vertices
    a, b = (verts[data.draw(st.integers(0, len(verts) - 1))] for _ in range(2))
    assume(a.mask != b.mask and a.mask & b.mask)
    d = decompose(a, b)
    reference = decompose(a, b)  # d itself must build no parts
    if any(c.length >= 3 for c in reference.components):
        assert op_plus(d)[2] == _plus_position(reference)
    else:
        with pytest.raises(RegimeError):
            op_plus(d)
    assert d._parts is None
    _, trace = lift._bound_path(d)
    for step, a_level, b_level in zip(trace.steps, trace.a_levels, trace.b_levels):
        position = _plus_position if step.kind == "plus" else _up_position
        assert step.marker == position(decompose(a_level, b_level))


def test_op_up_and_down():
    a, b = witness_lower4(12, 5)
    d = decompose(a, b)
    t = next(
        blk.start
        for blk in d.blocks
        if blk.btype == "I" and blk.length == 1
    )
    assert t == 2
    a2, b2 = op_up(a, b, t)
    assert a2.params.n == 13
    assert len(a2.members) == len(b2.members) == 5
    d2 = decompose(a2, b2)
    blk = next(blk for blk in d2.blocks if blk.start == t)
    assert blk.btype == "I" and blk.length == 2

    with pytest.raises(ParameterError):
        op_up(a, b, 9)  # [9,9] is type IV(H) here, not I

    g2 = graph(13, 5)
    for y in g2.vertices[:60]:
        if y.mask & a2.mask & b2.mask:
            continue
        y0 = op_down(y, t)
        assert len(y0.members) == 5
        assert not y0.mask & a.mask & b.mask
        assert (y0.mask & a.mask).bit_count() + (y0.mask & b.mask).bit_count() == (
            y.mask & a2.mask
        ).bit_count() + (y.mask & b2.mask).bit_count()


def test_op_down_intersection_growth_is_bounded():
    t = 2
    g2 = graph(13, 5)
    for y1, y2 in combinations(g2.vertices[:50], 2):
        before = (y1.mask & y2.mask).bit_count()
        try:
            after = (op_down(y1, t).mask & op_down(y2, t).mask).bit_count()
        except ParameterError:
            continue
        assert after <= before + 1
        both = y1.mask | y2.mask
        if not (both >> (t - 1) & 1 and both >> t & 1):
            assert after == before
    # t in y1 and t+1 in y2: the merged position lands in both images
    p = CycleParams(13, 5)
    y1 = stable_set([2, 5, 7, 9, 11], p)
    y2 = stable_set([3, 5, 7, 9, 11], p)
    assert (op_down(y1, t).mask & op_down(y2, t).mask).bit_count() == 5


def test_bound_path_exhaustive_sg12_5():
    deep = 0
    for a, b, dist in sweep([(12, 5)]):
        cert, trace = bound_path_with_trace(a, b)
        verify_certificate(cert, source=a, target=b)
        assert dist <= cert.edge_count <= 4  # m+3 with m=1
        kinds = [st.kind for st in trace.steps]
        assert kinds == ["plus", "up", "plus", "up"][: len(kinds)]
        assert trace.p <= 1 or dist >= 4
        deep += dist >= 4
    assert deep == 108


def test_bound_path_common_branch_joins_through_y0():
    # the common-neighbour branch joins two reduction paths through the
    # projected y0: length <= 2 + 2h*, h* = |A n y0| + |y0 n B| <= (p+1)/2
    joined = 0
    for a, b, dist in sweep([(16, 7)], min_dist=3):
        d = decompose(a, b)
        trace, walk = lift._lift_until_short(d, lift.regime_m(d.params))
        if len(walk) != 1:
            continue
        y0 = lift._project_common(walk[0], trace)
        h_star = (y0.mask & a.mask).bit_count() + (y0.mask & b.mask).bit_count()
        assert h_star <= (trace.p + 1) // 2
        cert, _ = lift._bound_path(d)
        verify_certificate(cert, source=a, target=b)
        assert y0 in cert.vertices
        assert dist <= cert.edge_count <= cert.claimed_bound == 2 + 2 * h_star
        joined += 1
    assert joined == 568


@pytest.mark.parametrize(
    "n,k,a,b,p",
    [
        (16, 7, "1,3,5,7,9,11,13", "1,3,5,7,10,12,14", 3),
        (18, 8, "1,3,5,7,9,11,13,15", "1,3,5,7,10,12,14,16", 4),
    ],
    ids=["p3", "p4"],
)
def test_lift_decomposes_each_level_once(monkeypatch, n, k, a, b, p):
    real = lift.decompose
    levels = []

    def counting(x, y):
        levels.append(x.params.n)
        return real(x, y)

    monkeypatch.setattr(lift, "decompose", counting)
    params = CycleParams(n, k)
    a, b = (stable_set(parse_set_text(s), params) for s in (a, b))
    cert, trace = bound_path_with_trace(a, b)
    verify_certificate(cert, source=a, target=b)
    assert trace.p == p
    assert levels == list(range(n, n + p + 1))


def test_bound_path_delegation():
    g = graph(12, 5)
    dmat = graph(12, 5).all_distances()
    a = g.vertices[0]
    assert bound_path_m_plus_3(a, a).edge_count == 0
    for j in range(1, len(g)):
        b = g.vertices[j]
        if dmat[0, j] == 1:
            assert bound_path_m_plus_3(a, b).edge_count == 1
        elif dmat[0, j] == 2:
            assert bound_path_m_plus_3(a, b).edge_count == 2


def test_bound_path_regime_errors():
    p = CycleParams(13, 5)  # m = 0
    a = stable_set([1, 3, 5, 7, 9], p)
    b = stable_set([1, 3, 6, 8, 11], p)
    with pytest.raises(RegimeError):
        bound_path_m_plus_3(a, b)
    p = CycleParams(11, 5)  # m = 2 > k-4
    a = stable_set([1, 3, 5, 7, 9], p)
    b = stable_set([2, 4, 6, 8, 10], p)
    with pytest.raises(RegimeError):
        bound_path_m_plus_3(a, b)


def test_bound_path_refuses_cells_whose_lift_passes_the_word_cap():
    # SG(52,24) has m = 18 <= k-4, but the lift would climb to n = 70 > 64
    p = CycleParams(52, 24)
    a = stable_set([1, 3, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38, 40, 42, 45, 47, 49], p)
    b = stable_set([2, 4, 7, 9, 11, 15, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38, 40, 42, 44, 46, 48, 50, 52], p)
    with pytest.raises(RegimeError, match="single-word cap"):
        bound_path_m_plus_3(a, b)
