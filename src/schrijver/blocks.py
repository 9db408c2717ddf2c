"""Structural decomposition of a vertex pair on the cycle.

For intersecting A != B the cycle splits into the components of X = A u B
and the complement intervals between them (the blocks).  Block boundaries
are classified by which kind of end (A-, B- or H-end) sits on each side;
the counting identities and the JSON report name blocks by those types.

Whether the pair is at distance 2 needs none of that: it is whether the
complement holds a stable k-set.  Its stable picks, every other element of
each complement run counted from the run's first, are a largest one, and
they come from the masks alone, as do the singleton type-I and IV(H)
blocks (`singleton_blocks`).  So `decompose` checks the pair and derives
h and the picks once, for the criterion, middle vertex and star pair; the
components and blocks are built together on the first read of either, the
end sets are mask formulas read on demand, and the star pair
(`paths._star_pair`) is built on its first use.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .cyclic import (
    CycleParams,
    StableSet,
    interval_elements,
    lowest_bits,
    members_of,
    rol_mask,
    run_starts,
    runs,
)
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
_ODD_BITS = _EVERY_OTHER << 1


@dataclass(slots=True)
class Block:
    """Maximal complement interval with its boundary type and usable count m."""

    start: int
    length: int
    btype: str
    m: int


@dataclass(slots=True)
class Component:
    """Maximal interval of X = A u B with its class."""

    start: int
    length: int
    cclass: str


@dataclass(slots=True)
class EndSets:
    """A-, B- and H-ends as masks, with the singleton-component split e' / e''."""

    eA: int
    eB: int
    eH: int
    eA_prime: int
    eA_dprime: int
    eB_prime: int
    eB_dprime: int


@dataclass(slots=True)
class Decomposition:
    """An intersecting pair A != B, h and picks set by `decompose`; parts built on first read.

    `_star` keeps the pair's `paths.StarPair` once `paths._star_pair` has
    built it, so the reduction and the middle-pair step share one.
    """

    a: StableSet
    b: StableSet
    h: int
    picks: int
    _parts: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _star: object | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def params(self) -> CycleParams:
        return self.a.params

    @property
    def components(self) -> tuple[Component, ...]:
        return (self._parts or self._build())[0]

    @property
    def blocks(self) -> tuple[Block, ...]:
        return (self._parts or self._build())[1]

    @property
    def ends(self) -> EndSets:
        """The end sets, from the masks on each read.

        A and B are 2-stable, so every element of A n B is a singleton
        component of X = A u B: the A- and B-ends are the run starts and
        stops of X outside A n B, and e'' holds the ends that are both
        (singletons).
        """
        am, bm = self.a.mask, self.b.mask
        hm = am & bm
        n = self.params.n
        xm = am | bm
        starts = run_starts(xm, n)
        stops = xm & ~rol_mask(xm, -1, n)
        end_bits = (starts | stops) & ~hm
        singles = starts & stops
        e_a, e_b = end_bits & am, end_bits & bm
        return EndSets(
            eA=e_a,
            eB=e_b,
            eH=hm,
            eA_prime=e_a & ~singles,
            eA_dprime=e_a & singles,
            eB_prime=e_b & ~singles,
            eB_dprime=e_b & singles,
        )

    def _build(self) -> tuple[tuple[Component, ...], tuple[Block, ...]]:
        """Components and blocks, both at once: the runs of X = A u B and of its complement."""
        am, bm = self.a.mask, self.b.mask
        hm = am & bm
        n = self.params.n
        xm = am | bm

        def side(x: int) -> str:
            bit = 1 << (x - 1)
            return "H" if hm & bit else "A" if am & bit else "B"

        components = []
        for start, length in runs(xm, n):
            first, last = side(start), side((start + length - 2) % n + 1)
            # an H is a run alone (H'); COMP_A/COMP_B name the side of a one-sided run
            cls = COMP_H_PRIME if first == "H" else first if first == last else COMP_H_DPRIME
            components.append(Component(start, length, cls))

        blocks = []
        for start, length in runs(~xm & self.params.full_mask, n):
            btype = _BLOCK_TYPE[(side(start - 1 or n), side((start + length - 1) % n + 1))]
            usable = length - 1 if btype in (TYPE_IVA, TYPE_IVB, TYPE_IVH) else length
            blocks.append(Block(start, length, btype, usable))
        self._parts = (tuple(components), tuple(blocks))
        return self._parts


def decompose(a: StableSet, b: StableSet) -> Decomposition:
    """The decomposition of an intersecting pair A != B (h and picks now, parts on first read)."""
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
    return Decomposition(a, b, hm.bit_count(), _picks(am, bm, a.params.n))


def _picks(am: int, bm: int, n: int) -> int:
    """Every other element of each complement run of am | bm, from its first: the Z halves.

    The complement is rotated so that a member of X sits on the top bit
    and no run wraps.  Adding a run's start bit then clears that run and
    nothing else, so g & ~(g + starts) keeps exactly the runs whose start
    is among the added bits.  Runs starting on an even bit keep their even
    bits, runs starting on an odd bit their odd ones.
    """
    xm = am | bm
    shift = n - xm.bit_length()  # the top member of X goes to bit n-1
    g = rol_mask(~xm & ((1 << n) - 1), shift, n)
    starts = g & ~(g << 1)
    even = g & ~(g + (starts & _EVERY_OTHER)) & _EVERY_OTHER
    odd = g & ~(g + (starts & _ODD_BITS)) & _ODD_BITS
    return rol_mask(even | odd, -shift, n)


def singleton_blocks(a: StableSet, b: StableSet) -> tuple[int, int]:
    """The singleton blocks of the pair as masks: (type I, type IV(H)).

    A vacant t is a type-I singleton between two elements of A n B, and an
    IV(H) singleton between an A-only and a B-only element.
    """
    n = a.params.n
    am, bm = a.mask, b.mask
    h, a_only, b_only = am & bm, am & ~bm, bm & ~am
    vacant = ~(am | bm)
    type_i = vacant & rol_mask(h, 1, n) & rol_mask(h, -1, n)
    iv_h = vacant & (
        rol_mask(a_only, 1, n) & rol_mask(b_only, -1, n)
        | rol_mask(b_only, 1, n) & rol_mask(a_only, -1, n)
    )
    return type_i, iv_h


def distance2_criterion(d: Decomposition) -> bool:
    """True iff dist(A,B) = 2: the complement holds a stable k-set.

    That is (|odd blocks| + |complement|) / 2 >= k, and the left side
    counts the stable picks, ceil(length / 2) of each block.
    """
    return d.picks.bit_count() >= d.params.k


def component_counts(d: Decomposition) -> Counter:
    """Components by class and blocks by type (the paper's counting identities)."""
    return Counter([c.cclass for c in d.components] + [blk.btype for blk in d.blocks])


def m_sum_bound(d: Decomposition) -> bool:
    """Whether sum of m over blocks >= n - 3k + 2h + 2 (holds when dist >= 3)."""
    n, k = d.params.n, d.params.k
    return sum(blk.m for blk in d.blocks) >= n - 3 * k + 2 * d.h + 2


def disjoint_middle_vertex(d: Decomposition) -> StableSet:
    """A vertex disjoint from A and B; exists iff the distance-2 criterion holds.

    Keeps the k smallest stable picks: the Z half of each block (every other
    element from its first) is the maximum stable subset of that block.
    """
    if d.picks.bit_count() < d.params.k:
        raise InvariantError("no common neighbor: the distance-2 criterion does not hold")
    return StableSet(d.params, lowest_bits(d.picks, d.params.k))


def _span(part: Component | Block, n: int) -> dict:
    """The JSON fields a component and a block share: start, length and elements."""
    return {
        "start": part.start,
        "length": part.length,
        "elements": list(interval_elements(part.start, part.length, n)),
    }


def decomposition_to_json(d: Decomposition) -> dict:
    ends, n = d.ends, d.params.n
    return {
        "h": d.h,
        "x_components": [{**_span(c, n), "class": c.cclass} for c in d.components],
        "blocks": [{**_span(blk, n), "type": blk.btype, "m": blk.m} for blk in d.blocks],
        # keyed by field name without its "e": A, B, H, A_prime, ...
        "ends": {name[1:]: list(members_of(getattr(ends, name))) for name in EndSets.__slots__},
        "distance2": distance2_criterion(d),
    }
