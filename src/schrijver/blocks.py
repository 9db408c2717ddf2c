"""Structural decomposition of a vertex pair on the cycle.

For intersecting A != B the cycle splits into the components of X = A u B
and the complement intervals between them (the blocks).  Block boundaries
are classified by which kind of end (A-, B- or H-end) sits on each side;
those types drive every constructive path in this package, and the
odd-block count decides whether the pair is at distance 2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass

from .cyclic import CycleParams, StableSet, lowest_bits, members_of, rol_mask, run_starts, runs, wrap
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

# Bits 0, 2, 4, ...: every other element of a run, from its first.
_EVERY_OTHER = int("01" * 32, 2)


@dataclass
class CyclicInterval:
    """Interval [start .. start+length-1] on the n-cycle; at most one wraps."""

    start: int
    length: int
    n: int

    @property
    def end(self) -> int:
        return wrap(self.start + self.length - 1, self.n)

    @property
    def mask(self) -> int:
        return rol_mask((1 << self.length) - 1, self.start - 1, self.n)

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
    """A-, B- and H-ends as masks, with the singleton-component split e' / e''."""

    eA: int
    eB: int
    eH: int
    eA_prime: int
    eA_dprime: int
    eB_prime: int
    eB_dprime: int


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
    singles = starts & stops
    e_a, e_b = end_bits & am, end_bits & bm
    ends = EndSets(
        eA=e_a,
        eB=e_b,
        eH=hm,
        eA_prime=e_a & ~singles,
        eA_dprime=e_a & singles,
        eB_prime=e_b & ~singles,
        eB_dprime=e_b & singles,
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


def zy_split(block: Block) -> tuple[int, int, int, int]:
    """Parity split of a block as masks: (Z, Y, Z', Y').

    Z holds the elements at odd clockwise distance from the left boundary
    i-1 (so the first, third, ... element of the block); Y the even ones.
    Z'/Y' count from the right boundary j+1 instead: the same split for an
    odd length, swapped for an even one.
    """
    iv = block.interval
    z = rol_mask(_EVERY_OTHER & ((1 << iv.length) - 1), iv.start - 1, iv.n)
    y = iv.mask & ~z
    return (z, y, z, y) if iv.length % 2 else (z, y, y, z)


def disjoint_middle_vertex(d: Decomposition) -> StableSet:
    """A vertex disjoint from A and B; exists iff the distance-2 criterion holds.

    Takes the Z half of each block (every other element from its first: the
    maximum stable subset of that block), then keeps the k smallest.
    """
    picks = 0
    for blk in d.blocks:
        picks |= zy_split(blk)[0]
    if picks.bit_count() < d.params.k:
        raise InvariantError(
            "no common neighbor: the distance-2 criterion does not hold"
        )
    return StableSet(d.params, lowest_bits(picks, d.params.k))


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
        # keyed by field name without its "e": A, B, H, A_prime, ...
        "ends": {name[1:]: list(members_of(m)) for name, m in asdict(d.ends).items()},
        "distance2": distance2_criterion(d),
    }
