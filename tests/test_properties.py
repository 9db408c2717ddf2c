"""Property tests: certificates on random pairs up to the n <= 64 cap.

The exhaustive sweeps stop at k <= 7; these draw 2-stable pairs from the
whole single-word range and check each certificate with the independent
verifier alone (no BFS), against the bound of its regime.
`blocks.singleton_blocks` and the end-set formulas of
`Decomposition.ends` are checked on such pairs against the `Block` and
`Component` objects.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schrijver import (
    CycleParams,
    StableSet,
    bound_path_m_plus_3,
    decompose,
    distance2_criterion,
    path_dist3,
    path_via_reduction,
    verify_certificate,
)
from schrijver.blocks import singleton_blocks
from schrijver.cyclic import interval_elements, rol_mask

PROPERTY = settings(derandomize=True, deadline=None, max_examples=500)


@st.composite
def vertex(draw, params: CycleParams) -> StableSet:
    """A 2-stable k-set: k of the n-k slots, spread one apart, then rotated."""
    n, k = params.n, params.k
    slots = sorted(draw(st.permutations(range(n - k)))[:k])
    shift = draw(st.integers(0, n - 1))
    mask = 0
    for i, x in enumerate(slots):
        mask |= 1 << (x + i + shift) % n
    return StableSet(params, mask)


@st.composite
def intersecting_pair(draw, params: CycleParams) -> tuple[StableSet, StableSet]:
    a, b = draw(vertex(params)), draw(vertex(params))
    assume(a.mask != b.mask and a.mask & b.mask)
    return a, b


@st.composite
def reduction_case(draw):
    n = draw(st.integers(4, 64))
    return draw(intersecting_pair(CycleParams(n, draw(st.integers(2, n // 2)))))


@st.composite
def dist3_case(draw):
    """A pair at distance >= 3 (the criterion fails) with 3k-2 <= n <= 4k-3.

    B moves a cyclic arc of A's members one step clockwise; the arcs are
    tried from a drawn one on, and the first 2-stable B with the criterion
    failing is kept (some arc works for about four A in five).
    """
    k = draw(st.integers(3, 22))
    params = CycleParams(draw(st.integers(3 * k - 2, min(4 * k - 3, 64))), k)
    a = draw(vertex(params))
    members, arcs = a.members, k * (k - 1)
    first = draw(st.integers(0, arcs - 1))
    for t in range(arcs):
        start, length = divmod((first + t) % arcs, k - 1)
        moved = {(start + j) % k for j in range(length + 1)}
        mask = 0
        for j, x in enumerate(members):
            mask |= 1 << (x % params.n if j in moved else x - 1)
        if mask & rol_mask(mask, 1, params.n):
            continue
        b = StableSet(params, mask)
        if not distance2_criterion(decompose(a, b)):
            return a, b
    assume(False)


@st.composite
def lift_case(draw):
    # the lift climbs to n = 3k-2, which must stay within the cap
    k = draw(st.integers(5, 22))
    m = draw(st.integers(1, k - 4))
    return draw(intersecting_pair(CycleParams(3 * k - 2 - m, k))), m


@PROPERTY
@given(reduction_case())
def test_path_via_reduction_within_1_plus_2h(pair):
    a, b = pair
    cert = path_via_reduction(a, b)
    verify_certificate(cert, source=a, target=b)
    assert cert.edge_count <= 1 + 2 * (a.mask & b.mask).bit_count()


@PROPERTY
@given(dist3_case())
def test_path_dist3_has_three_edges(pair):
    a, b = pair
    cert = path_dist3(a, b)
    verify_certificate(cert, source=a, target=b)
    assert cert.edge_count == 3


@PROPERTY
@given(lift_case())
def test_bound_path_within_m_plus_3(case):
    (a, b), m = case
    cert = bound_path_m_plus_3(a, b)
    verify_certificate(cert, source=a, target=b)
    assert cert.edge_count <= m + 3


@PROPERTY
@given(reduction_case())
def test_singleton_blocks_match_the_block_objects(pair):
    singles = {"I": 0, "IV(H)": 0}
    for blk in decompose(*pair).blocks:
        if blk.length == 1 and blk.btype in singles:
            singles[blk.btype] |= 1 << (blk.start - 1)
    assert singleton_blocks(*pair) == (singles["I"], singles["IV(H)"])


@PROPERTY
@given(reduction_case())
def test_end_sets_match_the_component_objects(pair):
    """Each component's first and last element are ends, those of A n B
    excepted; e'' is the elements of the one-element components among them."""
    a, b = pair
    d = decompose(a, b)
    hm = a.mask & b.mask
    ends = singles = 0
    for c in d.components:
        elements = interval_elements(c.start, c.length, a.params.n)
        ends |= ((1 << (elements[0] - 1)) | (1 << (elements[-1] - 1))) & ~hm
        if c.length == 1:
            singles |= (1 << (c.start - 1)) & ~hm
    e_prime = ends & ~singles
    e = d.ends
    assert (e.eA, e.eB, e.eH) == (ends & a.mask, ends & b.mask, hm)
    assert (e.eA_prime, e.eA_dprime) == (e_prime & a.mask, singles & a.mask)
    assert (e.eB_prime, e.eB_dprime) == (e_prime & b.mask, singles & b.mask)
