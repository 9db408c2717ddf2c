"""Constructive short paths between vertices of SG(n,k).

Everything here emits PathCertificate values; validity is established by
the independent verifier in `certificates`, never assumed.  The central
construction grows two supersets, a_star avoiding A and b_star avoiding B,
by one rule: each complement block splits into its two alternating
halves, and the one-sided boundary of the block (in A or B only) decides
which half each star takes, so that both stay 2-stable.  Singleton blocks
between two elements of A n B go to a reserve that is distributed last.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import (
    Decomposition,
    decompose,
    disjoint_middle_vertex,
    distance2_criterion,
    singleton_blocks,
)
from .certificates import PathCertificate
from .cyclic import StableSet, lowest_bits, members_of, rol_mask, rotate, stable_set
from .errors import InvariantError, ParameterError, RegimeError


@dataclass
class StarPair:
    """Supersets grown by the boundary rule before the type-I reserve is placed.

    All three sets are masks: a_star avoids A, b_star avoids B, the two are
    disjoint, and i_prime holds the still-unassigned singleton type-I block
    elements.
    """

    a_star: int
    b_star: int
    i_prime: int
    s: int


def build_star_pair(d: Decomposition) -> StarPair:
    """Grow the stars by the boundary rule and check the outcome.

    a_star starts as B\\A and b_star as A\\B; I' is the singleton type-I
    blocks (`singleton_blocks`).  Every other block [i..j] splits into
    halves Z, Y counted from i: Z is the block's share of the stable picks
    `d.picks` (every other element, from i) and Y the rest.  Z', Y' count
    from j instead: (Z, Y) for an odd length, (Y, Z) for an even one.  If
    i-1 is one-sided, Z goes to i-1's star (a_star when i-1 is in A only:
    i-1 itself is in b_star, so i cannot be); otherwise, if j+1 is
    one-sided, Z' goes to j+1's star.  The other half goes to the other
    star, and each star drops every j whose j+1 it already holds.  By block
    type (sides of i-1, j+1), the eight per-type rules R1-R8 are this rule:

    - R1, I (H,H): a singleton to I', else Z/Y to a_star/b_star, counted in r;
    - R2-R3, II(A)/II(B) (H,A)/(H,B): Z' to j+1's star, Y' to the other;
    - R4-R5, III(A)/III(B) (A,H)/(B,H): Z to i-1's star, Y to the other;
    - R6-R7, IV(A)/IV(B) (A,A)/(B,B): as III, less j from the Y half;
    - R8, IV(H) (A,B)/(B,A): as III, less j from the Z half.

    Types II and III, with exactly one end in A n B, count toward 2s.  The
    stars come out 2-stable, disjoint, off their own sets and holding the
    opposite difference, with |I'| = h - s - r.  Total on every
    decomposable pair: that counting needs intersection and A != B,
    nothing about distance.  `_star_pair` builds and keeps it on first use.
    """
    n = d.params.n
    am, bm = d.a.mask, d.b.mask
    hm = am & bm
    a_only, b_only = am & ~hm, bm & ~hm
    a_star, b_star = b_only, a_only
    i_prime = singleton_blocks(d.a, d.b)[0]
    r_blocks = two_s = 0

    for blk in d.blocks:
        start, length = blk.start, blk.length
        run = rol_mask((1 << length) - 1, start - 1, n)
        if run & i_prime:  # a singleton type-I block: held in I'
            continue
        z, y = d.picks & run, run & ~d.picks
        zp, yp = (z, y) if length % 2 else (y, z)
        left = 1 << (start - 2) % n  # i-1
        right = 1 << (start + length - 1) % n  # j+1
        if not left & hm:  # i-1 one-sided: Z to its side's star
            half_a, half_b = (z, y) if left & a_only else (y, z)
        elif not right & hm:  # j+1 one-sided: Z' to its side's star
            half_a, half_b = (zp, yp) if right & a_only else (yp, zp)
        else:  # type I
            half_a, half_b = z, y
            r_blocks += 1
        a_star |= half_a
        b_star |= half_b
        two_s += bool(left & hm) != bool(right & hm)

    # the only element below a B\A element that a_star can hold is a block's
    # j; dropping it keeps a_star 2-stable (and likewise for b_star)
    a_star &= ~rol_mask(b_only, -1, n)
    b_star &= ~rol_mask(a_only, -1, n)
    s, odd = divmod(two_s, 2)
    if odd:
        raise InvariantError("odd number of type II/III blocks")
    if a_star & rol_mask(a_star, 1, n) or b_star & rol_mask(b_star, 1, n):
        raise InvariantError("star sets are not 2-stable")
    if a_star & am or b_star & bm or a_star & b_star:
        raise InvariantError("star sets violate the disjointness conditions")
    if b_only & ~a_star or a_only & ~b_star:
        raise InvariantError("star sets do not contain the opposite difference")
    if i_prime.bit_count() != d.h - s - r_blocks:
        raise InvariantError("|I'| != h - s - r")
    return StarPair(a_star, b_star, i_prime, s)


def _star_pair(d: Decomposition) -> StarPair:
    """`build_star_pair(d)`, built on the first call for `d` and kept on it."""
    if d._star is None:
        d._star = build_star_pair(d)
    return d._star


def reduce_intersection(a: StableSet, b: StableSet) -> tuple[StableSet, StableSet]:
    """Produce (a', b') with a n a' = b n b' = empty and |a' n b'| <= h-1."""
    return _reduce(decompose(a, b))


def _reduce(d: Decomposition) -> tuple[StableSet, StableSet]:
    """The reduction step on a decomposed pair; see `reduce_intersection`.

    The reserve goes to a_star first (smallest elements, only as many as
    needed to reach size k), the rest to b_star; elements are re-used on
    both sides only when unavoidable, which caps the new intersection at
    |I'| <= h-1.
    """
    k = d.params.k
    sp = _star_pair(d)

    take_a = lowest_bits(sp.i_prime, k - sp.a_star.bit_count())
    a_pool = sp.a_star | take_a
    b_pool = sp.b_star | lowest_bits(sp.i_prime & ~take_a, k - sp.b_star.bit_count())
    b_pool |= lowest_bits(take_a, k - b_pool.bit_count())
    if a_pool.bit_count() < k or b_pool.bit_count() < k:
        raise InvariantError("star sets plus reserve cannot reach size k")

    a2 = StableSet(d.params, lowest_bits(a_pool, k))
    b2 = StableSet(d.params, lowest_bits(b_pool, k))
    if a2.mask & d.a.mask or b2.mask & d.b.mask:
        raise InvariantError("reduced pair meets its own endpoint")
    if (a2.mask & b2.mask).bit_count() > d.h - 1:
        raise InvariantError("intersection did not shrink")
    return a2, b2


def path_small_intersection(a: StableSet, b: StableSet) -> PathCertificate:
    """Short path for |A n B| = k-1 (via the +1 shift) or = 1 (P4/paw)."""
    if a.params != b.params:
        raise ParameterError("vertices come from different SG(n,k)")
    params = a.params
    n, k = params.n, params.k
    h = (a.mask & b.mask).bit_count()

    if h == k - 1 and k >= 2 and a.mask != b.mask:
        mid = rotate(b, 1)
        if mid.mask & a.mask:
            mid = rotate(a, 1)
            if mid.mask & b.mask:
                raise InvariantError("neither shifted endpoint is a common neighbor")
        return PathCertificate((a, mid, b), 2)

    if h == 1:
        common = members_of(a.mask & b.mask)[0]
        shift = (1 - common) % n
        ar, br = rotate(a, shift), rotate(b, shift)
        swapped = ar.members[1] > br.members[1]
        if swapped:
            ar, br = br, ar
        x = stable_set((2,) + br.members[1:], params)
        y = rotate(x, 1)
        walk = [ar, x, y, br]
        if swapped:
            walk.reverse()
        back = (-shift) % n
        return PathCertificate(tuple(rotate(v, back) for v in walk), 3)

    raise ParameterError(f"|A n B| = {h}, expected 1 or k-1")


def _disjoint_middle_pair(d: Decomposition) -> tuple[StableSet, StableSet] | None:
    """Disjoint (A', B') adjacent to A resp. B via the star pair, or None.

    The reserve distribution follows the large-n argument: a_star takes
    the smallest elements it needs, b_star all the rest.  Below n = 3k-2
    this can fail (return None); at n >= 3k-2 it cannot.
    """
    k = d.params.k
    sp = _star_pair(d)
    need_a = k - sp.a_star.bit_count()
    if need_a > sp.i_prime.bit_count():
        return None
    take_a = lowest_bits(sp.i_prime, need_a)
    b_pool = sp.b_star | sp.i_prime & ~take_a
    if b_pool.bit_count() < k:
        return None
    a2 = StableSet(d.params, lowest_bits(sp.a_star | take_a, k))
    b2 = StableSet(d.params, lowest_bits(b_pool, k))
    return a2, b2


def in_dist3_regime(n: int, k: int) -> bool:
    """3k-2 <= n <= 4k-3, i.e. k-2 <= r <= 2k-3: where `path_dist3` applies."""
    return 3 * k - 2 <= n <= 4 * k - 3


def path_dist3(a: StableSet, b: StableSet) -> PathCertificate:
    """Length-3 certificate A - A' - B' - B for dist >= 3 pairs, k-2 <= r <= 2k-3."""
    return _path_dist3(decompose(a, b))


def _path_dist3(d: Decomposition) -> PathCertificate:
    """`path_dist3` on a decomposed pair."""
    n, k = d.params.n, d.params.k
    if not in_dist3_regime(n, k):
        raise RegimeError(
            f"path_dist3 needs 3k-2 <= n <= 4k-3, got n={n}, k={k}"
        )
    if distance2_criterion(d):
        raise RegimeError("pair is at distance 2")
    pair = _disjoint_middle_pair(d)
    if pair is None:
        raise InvariantError("middle-pair construction failed in its proven regime")
    a2, b2 = pair
    leaked = (a2.mask | b2.mask) & singleton_blocks(d.a, d.b)[1]
    if leaked:
        t = (leaked & -leaked).bit_length()
        raise InvariantError(f"singleton IV(H) element {t} leaked into the path")
    return PathCertificate((d.a, a2, b2, d.b), 3)


def path_via_reduction(
    a: StableSet, b: StableSet, via: StableSet | None = None
) -> PathCertificate:
    """Certificate of length <= 1 + 2|A n B| by repeated intersection reduction.

    With `via` given, joins the two half-paths through it instead
    (length <= 2 + 2(|A n Y| + |Y n B|)).
    """
    if via is not None:
        left = path_via_reduction(a, via)
        right = path_via_reduction(via, b)
        return PathCertificate(
            left.vertices + right.vertices[1:],
            left.claimed_bound + right.claimed_bound,
        )
    if a.params != b.params:
        raise ParameterError("vertices come from different SG(n,k)")
    if a.mask == b.mask:
        return PathCertificate((a,), 0)
    if not a.mask & b.mask:
        return PathCertificate((a, b), 1)
    return _reduction_path(decompose(a, b))


def _reduction_path(d: Decomposition) -> PathCertificate:
    """`path_via_reduction` on a decomposed pair: its first step here, the
    rest through `path_via_reduction` on the reduced pair."""
    a, b = d.a, d.b
    bound = 1 + 2 * d.h
    if distance2_criterion(d):
        return PathCertificate((a, disjoint_middle_vertex(d), b), bound)
    a2, b2 = _reduce(d)
    inner = path_via_reduction(a2, b2)
    cert = PathCertificate((a,) + inner.vertices + (b,), bound)
    if cert.edge_count > bound:
        raise InvariantError("reduction path exceeded 1 + 2h")
    return cert
