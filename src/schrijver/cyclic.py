"""Ground-set arithmetic modulo n and the 2-stable k-subsets of the n-cycle.

Elements are 1-based (1..n) with 1 and n cyclically consecutive; arithmetic
wraps with the convention 0 = n.  A vertex is represented as a single-word
bitmask (bit i-1 set iff element i is present), so membership and
disjointness tests are one AND each.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb
from typing import Iterable

import numpy as np

from .errors import ParameterError

# Single-word bitmask cap: every vertex is one uint64 mask, so n <= 64.
MAX_N = 64

# Vertex-count cap for enumeration.  Building the masks of SG(64,5)
# (5 430 656 vertices, 43 MB as uint64) peaks at 115 MB RSS: the result,
# one array of its size holding the first-element bits, and 29 MB of
# interpreter and NumPy.  SG(48,6) (5 995 184 vertices, 48 MB) peaks at
# 126 MB, so a graph at the cap (64 MB of masks) stays near 160 MB.
# SG(64,10) has 28 362 326 720 vertices and would exhaust memory instead of
# failing.
MAX_VERTICES = 8_000_000


def wrap(x: int, n: int) -> int:
    """Reduce x into 1..n (0 and n coincide)."""
    return (x - 1) % n + 1


@dataclass(frozen=True)
class CycleParams:
    """Ground-set size n and subset size k of SG(n,k).

    Accepts any 2 <= n <= 64, k >= 1: combinations with no 2-stable
    k-subsets simply have an empty vertex set.
    """

    n: int
    k: int

    def __post_init__(self) -> None:
        # exact type: bool is an int subclass, and True must not pass as 1
        if type(self.n) is not int or type(self.k) is not int:
            raise ParameterError(f"n and k must be integers, got n={self.n!r}, k={self.k!r}")
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got k={self.k}")
        if self.n < 2:
            raise ParameterError(f"n must be >= 2, got n={self.n}")
        if self.n > MAX_N:
            raise ParameterError(
                f"n={self.n} exceeds the single-word cap n <= {MAX_N}"
            )

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1


def rol_mask(mask: int, shift: int, n: int) -> int:
    """Rotate an n-bit mask left by shift (element i maps to i+shift).

    The same formula rotates every mask of a uint64 array, n = 64 included.
    """
    shift %= n
    full = (1 << n) - 1
    return ((mask << shift) | (mask >> (n - shift))) & full if shift else mask


def mask_of(members: Iterable[int]) -> int:
    m = 0
    for x in members:
        m |= 1 << (x - 1)
    return m


def members_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def lowest_bits(mask: int, count: int) -> int:
    """The `count` lowest set bits of mask (all of them if it has fewer)."""
    out = 0
    while mask and count > 0:
        low = mask & -mask
        out |= low
        mask ^= low
        count -= 1
    return out


def reflect_mask(mask: int, n: int) -> int:
    """Mirror an n-bit mask about element 1: m maps to n - m + 2 (mod n).

    Bit i moves to bit n - i (bit 0 stays), one bit at a time, so the same
    loop mirrors a Python int and every mask of a uint64 array.
    """
    out = mask & 1
    for i in range(1, n):
        out |= (mask >> i & 1) << (n - i)
    return out


def run_starts(mask: int, n: int) -> int:
    """Set bits whose cyclic predecessor is clear: the first element of each run."""
    return mask & ~rol_mask(mask, 1, n)


def runs(mask: int, n: int) -> list[tuple[int, int]]:
    """Maximal cyclic runs of set bits as (start, length), sorted by start."""
    if mask == (1 << n) - 1:
        return [(1, n)]
    out = []
    s = run_starts(mask, n)
    while s:
        low = s & -s
        p = low.bit_length()
        t = mask >> (p - 1) | mask << (n - p + 1)  # the cycle read from p on
        out.append((p, ((t + 1) & ~t).bit_length() - 1))  # its trailing ones
        s ^= low
    return out


def interval_elements(start: int, length: int, n: int) -> tuple[int, ...]:
    """The elements start, start+1, ..., start+length-1 of the n-cycle, wrapped into 1..n."""
    return tuple(wrap(start + t, n) for t in range(length))


@dataclass(frozen=True)
class StableSet:
    """A 2-stable k-subset of the n-cycle: a vertex of SG(n,k)."""

    params: CycleParams
    mask: int

    def __post_init__(self) -> None:
        n, k = self.params.n, self.params.k
        if self.mask < 0 or self.mask >> n:
            raise ParameterError("mask has bits outside 1..n")
        if self.mask.bit_count() != k:
            raise ParameterError(
                f"expected {k} members, got {self.mask.bit_count()}"
            )
        if self.mask & rol_mask(self.mask, 1, n):
            raise ParameterError(
                f"set {members_of(self.mask)} contains cyclically consecutive elements (n={n})"
            )

    @property
    def members(self) -> tuple[int, ...]:
        """Members in strictly increasing order."""
        return members_of(self.mask)

    def __str__(self) -> str:
        return ",".join(map(str, self.members))


def stable_set(members: Iterable[int], params: CycleParams) -> StableSet:
    """Build a StableSet from raw members, validating everything."""
    mems = tuple(members)
    for x in mems:
        if not 1 <= x <= params.n:
            raise ParameterError(f"element {x} out of range 1..{params.n}")
    if len(set(mems)) != len(mems):
        raise ParameterError(f"duplicate elements in {mems}")
    return StableSet(params, mask_of(mems))


def is_2_stable(members: Iterable[int], params: CycleParams) -> bool:
    """True iff no two elements are cyclically adjacent (1 and n included)."""
    n = params.n
    mask = 0
    for x in members:
        if not 1 <= x <= n:
            raise ParameterError(f"element {x} out of range 1..{n}")
        mask |= 1 << (x - 1)
    return not mask & rol_mask(mask, 1, n)


def stable_count(params: CycleParams) -> int:
    """Number of 2-stable k-subsets: (n/(n-k)) * C(n-k, k)."""
    n, k = params.n, params.k
    if n < 2 * k:
        return 0
    return n * comb(n - k, k) // (n - k)


_ONE, _TWO = np.uint64(1), np.uint64(2)
_BITS = _ONE << np.arange(MAX_N, dtype=np.uint64)


def _suffixes(masks: np.ndarray, counts: list[int]) -> np.ndarray:
    """The last counts[t] masks, for each t in turn, in one new array."""
    return np.concatenate([masks[masks.size - c :] for c in counts])


def check_vertex_cap(params: CycleParams) -> None:
    """Refuse SG(n,k) if it has more than MAX_VERTICES vertices."""
    count = stable_count(params)
    if count > MAX_VERTICES:
        raise ParameterError(
            f"SG({params.n},{params.k}) has {count} vertices, "
            f"more than the enumeration cap of {MAX_VERTICES}"
        )


def stable_masks(params: CycleParams) -> np.ndarray:
    """Vertex masks of SG(n,k) as uint64, lexicographic on the member sequence.

    Built one set size at a time from the subsets of a path with no two
    consecutive elements.  The s-subsets of the path 1..L whose first
    element is t+1 are 1 << t plus an (s-1)-subset of t+3..L: one of the
    (s-1)-subsets of 1..L-2 that avoid 1..t, moved up two bits, and in
    lexicographic order those are the last C(L-t-s, s-1) of them.  Size s
    is built on the path of length n-3-2(k-1-s), so the loop ends at the
    (k-1)-subsets of 1..n-3.  On the cycle, a set whose first element is
    t+1 is 1 << t plus a (k-1)-subset of 3..n-1 if t = 0, of t+3..n if not:
    a subset of 1..n-3 moved up two bits, or one that avoids 1..t-1 moved
    up three.
    """
    check_vertex_cap(params)
    n, k = params.n, params.k
    if n < 2 * k:
        return np.zeros(0, dtype=np.uint64)
    path = np.zeros(1, dtype=np.uint64)  # the empty set
    for s in range(1, k):
        length = n - 3 - 2 * (k - 1 - s)
        counts = [comb(length - t - s, s - 1) for t in range(length - 2 * s + 2)]
        path = _suffixes(path, counts)
        path <<= _TWO
        path |= np.repeat(_BITS[: len(counts)], counts)
    counts = [path.size] + [comb(n - t - k, k - 1) for t in range(1, n - 2 * k + 2)]
    out = _suffixes(path, counts)
    out[path.size :] <<= _ONE
    out <<= _TWO
    out |= np.repeat(_BITS[: len(counts)], counts)
    return out


def enumerate_stable_sets(params: CycleParams) -> list[StableSet]:
    """All vertices of SG(n,k), lexicographic on the member sequence."""
    return [StableSet(params, m) for m in stable_masks(params).tolist()]


def rotate(s: StableSet, shift: int) -> StableSet:
    """Shift every member by +shift around the cycle."""
    return StableSet(s.params, rol_mask(s.mask, shift, s.params.n))


# Set text: ASCII decimal elements joined by commas, nothing else.
SET_TEXT = re.compile(r"[0-9]+(?:,[0-9]+)*")


def set_text_ints(text: str, context: str) -> tuple[int, ...]:
    """The integers of `SET_TEXT` text; `context` leads the digit-limit error."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:  # more digits than int() converts
        raise ParameterError(f"{context}: an element has too many digits") from None


def parse_set_text(text: str) -> tuple[int, ...]:
    """Parse `1,3,6,8` (ascending, no spaces); rejects any other text.

    Element ranges are left to `stable_set`.
    """
    if not SET_TEXT.fullmatch(text):
        raise ParameterError(f"bad set text {text!r}: expected integers like 1,3,6,8")
    mems = set_text_ints(text, "bad set text")
    for prev, cur in zip(mems, mems[1:]):
        if cur <= prev:
            raise ParameterError(
                f"set text {text!r} must be strictly ascending"
            )
    return mems
