"""Structural decomposition of a vertex pair on the cycle.

For intersecting A != B the cycle splits into the components of X = A u B
and the complement intervals between them (the blocks).  Block boundaries
are classified by which kind of end (A-, B- or H-end) sits on each side;
those types drive every constructive path in this package, and the
odd-block count decides whether the pair is at distance 2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cyclic import CycleParams, StableSet, mask_of, members_of, rol_mask, run_starts, runs, wrap
from .errors import DegenerateInputError, InvariantError, ParameterError

# Block types: boundary ends (i-1, j+1) in order, H = element of both sets.
TYPE_I = "I"
TYPE_IIA = "II(A)"
TYPE_IIB = "II(B)"
TYPE_IIIA = "III(A)"
TYPE_IIIB = "III(B)"
TYPE_IVA = "IV(A)"
TYPE_IVB = "IV(B)"
TYPE_IVH = "IV(H)"

_BLOCK_TYPE = {
    ("H", "H"): TYPE_I,
    ("H", "A"): TYPE_IIA,
    ("H", "B"): TYPE_IIB,
    ("A", "H"): TYPE_IIIA,
    ("B", "H"): TYPE_IIIB,
    ("A", "A"): TYPE_IVA,
    ("B", "B"): TYPE_IVB,
    ("A", "B"): TYPE_IVH,
    ("B", "A"): TYPE_IVH,
}

# Component classes: single H'-vertices, alternating runs ending in A/A,
# B/B, or mixed (H'').
COMP_A = "A"
COMP_B = "B"
COMP_H_PRIME = "H'"
COMP_H_DPRIME = "H''"


@dataclass
class CyclicInterval:
    """Interval [start .. start+length-1] on the n-cycle; at most one wraps."""

    start: int
    length: int
    n: int

    @property
    def end(self) -> int:
        return wrap(self.start + self.length - 1, self.n)

    def elements(self) -> tuple[int, ...]:
        n = self.n
        return tuple(wrap(self.start + t, n) for t in range(self.length))

    def __str__(self) -> str:
        return f"[{self.start},{self.end}]"


@dataclass
class Block:
    """Maximal complement interval with its boundary type and usable count m."""

    interval: CyclicInterval
    btype: str
    m: int


@dataclass
class Component:
    """Maximal interval of X = A u B with its class."""

    interval: CyclicInterval
    cclass: str


@dataclass
class EndSets:
    """A-, B- and H-ends, with the singleton-component split e' / e''."""

    eA: frozenset[int]
    eB: frozenset[int]
    eH: frozenset[int]
    eA_prime: frozenset[int]
    eA_dprime: frozenset[int]
    eB_prime: frozenset[int]
    eB_dprime: frozenset[int]


@dataclass
class Decomposition:
    a: StableSet
    b: StableSet
    components: tuple[Component, ...]
    blocks: tuple[Block, ...]
    ends: EndSets
    h: int

    @property
    def params(self) -> CycleParams:
        return self.a.params


def decompose(a: StableSet, b: StableSet) -> Decomposition:
    """Components, blocks, ends and h for an intersecting pair A != B.

    A and B are 2-stable, so every element of A n B is a singleton
    component of X = A u B: the A- and B-ends are the run starts and stops
    of X outside A n B, and e'' holds the ends that are both (singletons).
    """
    if a.params != b.params:
        raise ParameterError("vertices come from different SG(n,k)")
    am, bm = a.mask, b.mask
    if am == bm:
        raise DegenerateInputError("decompose needs A != B")
    hm = am & bm
    if hm == 0:
        raise DegenerateInputError(
            "decompose needs A and B to intersect (disjoint pairs are adjacent)"
        )
    n = a.params.n
    xm = am | bm
    starts = run_starts(xm, n)
    stops = xm & ~rol_mask(xm, -1, n)

    def side(x: int) -> str:
        bit = 1 << (x - 1)
        return "H" if hm & bit else "A" if am & bit else "B"

    components = []
    for start, length in runs(xm, n):
        first = side(start)
        if length == 1:
            cls = COMP_H_PRIME if first == "H" else first  # COMP_A/COMP_B name the side
        else:
            cls = first if first == side((start + length - 2) % n + 1) else COMP_H_DPRIME
        components.append(Component(CyclicInterval(start, length, n), cls))

    blocks = []
    for start, length in runs(~xm & a.params.full_mask, n):
        btype = _BLOCK_TYPE[(side(start - 1 or n), side((start + length - 1) % n + 1))]
        usable = length - 1 if btype in (TYPE_IVA, TYPE_IVB, TYPE_IVH) else length
        blocks.append(Block(CyclicInterval(start, length, n), btype, usable))

    end_bits = (starts | stops) & ~hm
    e_a = frozenset(members_of(end_bits & am))
    e_b = frozenset(members_of(end_bits & bm))
    e_a2 = frozenset(members_of(end_bits & am & starts & stops))
    e_b2 = frozenset(members_of(end_bits & bm & starts & stops))
    ends = EndSets(
        eA=e_a,
        eB=e_b,
        eH=frozenset(members_of(hm)),
        eA_prime=e_a - e_a2,
        eA_dprime=e_a2,
        eB_prime=e_b - e_b2,
        eB_dprime=e_b2,
    )
    return Decomposition(a, b, tuple(components), tuple(blocks), ends, hm.bit_count())


def distance2_criterion(d: Decomposition) -> bool:
    """True iff dist(A,B) = 2: (|odd blocks| + |complement|) / 2 >= k."""
    odd = sum(1 for blk in d.blocks if blk.interval.length % 2)
    total = sum(blk.interval.length for blk in d.blocks)
    return odd + total >= 2 * d.params.k


def component_counts(d: Decomposition) -> Counter:
    """Components by class and blocks by type (the paper's counting identities)."""
    return Counter([c.cclass for c in d.components] + [blk.btype for blk in d.blocks])


def m_sum_bound(d: Decomposition) -> bool:
    """Whether sum of m over blocks >= n - 3k + 2h + 2 (holds when dist >= 3)."""
    n, k = d.params.n, d.params.k
    return sum(blk.m for blk in d.blocks) >= n - 3 * k + 2 * d.h + 2


def disjoint_middle_vertex(d: Decomposition) -> StableSet:
    """A vertex disjoint from A and B; exists iff the distance-2 criterion holds.

    Takes every other element of each block starting at its first element
    (the maximum stable subset of that block), then keeps the k smallest.
    """
    picks: list[int] = []
    n = d.params.n
    for blk in d.blocks:
        start, length = blk.interval.start, blk.interval.length
        picks.extend(wrap(start + t, n) for t in range(0, length, 2))
    if len(picks) < d.params.k:
        raise InvariantError(
            "no common neighbor: the distance-2 criterion does not hold"
        )
    chosen = sorted(picks)[: d.params.k]
    return StableSet(d.params, mask_of(chosen))


def decomposition_to_json(d: Decomposition) -> dict:
    return {
        "h": d.h,
        "x_components": [
            {
                "start": c.interval.start,
                "length": c.interval.length,
                "elements": list(c.interval.elements()),
                "class": c.cclass,
            }
            for c in d.components
        ],
        "blocks": [
            {
                "start": blk.interval.start,
                "length": blk.interval.length,
                "elements": list(blk.interval.elements()),
                "type": blk.btype,
                "m": blk.m,
            }
            for blk in d.blocks
        ],
        "ends": {
            "A": sorted(d.ends.eA),
            "B": sorted(d.ends.eB),
            "H": sorted(d.ends.eH),
            "A_prime": sorted(d.ends.eA_prime),
            "A_dprime": sorted(d.ends.eA_dprime),
            "B_prime": sorted(d.ends.eB_prime),
            "B_dprime": sorted(d.ends.eB_dprime),
        },
        "distance2": distance2_criterion(d),
    }
