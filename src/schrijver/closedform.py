"""Closed-form diameters, the explicit model of SG(2k+2,k), and witness pairs.

The piecewise formula is exact except for 3 <= r <= k-4, where only the
interval [4 .. k-r+1] is known; interval results are first-class and are
never silently collapsed to an endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .certificates import PathCertificate
from .cyclic import CycleParams, StableSet, runs, stable_set, wrap
from .errors import ParameterError, RegimeError


@dataclass(frozen=True)
class DiameterResult:
    """Diameter value or interval for SG(n,k), tagged with how it was obtained."""

    n: int
    k: int
    lo: int
    hi: int
    method: str
    witness: tuple[StableSet, StableSet] | None = None

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ParameterError(f"empty interval [{self.lo}..{self.hi}]")

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> int:
        if not self.exact:
            raise ParameterError(
                f"diameter of SG({self.n},{self.k}) is only bounded in [{self.lo}..{self.hi}]"
            )
        return self.lo


def sg2k2_diameter(k: int) -> int:
    """Closed-form diameter claim for SG(2k+2,k): floor(3k/4) + (k mod 2).

    Known discrepancy: brute-force search contradicts the even-k branch
    when k = 2 (mod 4) -- SG(14,6) has BFS diameter 5, not 4 (likewise
    SG(22,10): 8, not 7), while k = 0 (mod 4) and odd k check out.  The
    value returned here is the stated closed form; the table command's
    `agree` flag and the test suite surface the clash.
    """
    if k < 3:
        raise ParameterError(f"the r=2 closed form needs k >= 3, got k={k}")
    return 3 * k // 4 + k % 2


def diameter_formula(n: int, k: int) -> DiameterResult:
    """Piecewise diameter of SG(n,k) = SG(2k+r,k) for n >= 2k+1."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if n < 2 * k + 1:
        raise ParameterError(f"diameter formula needs n >= 2k+1, got n={n}, k={k}")
    r = n - 2 * k

    def exact(v: int) -> DiameterResult:
        return DiameterResult(n, k, v, v, "formula")

    if k == 1:
        # all singletons are pairwise disjoint: a complete graph
        return exact(1)
    if r == 1:
        return exact(k)
    if r == 2 and k >= 3:
        return exact(sg2k2_diameter(k))
    if r >= 2 * k - 2:
        return exact(2)
    if k - 2 <= r <= 2 * k - 3:
        return exact(3)
    if r == k - 3:
        return exact(4)
    if 3 <= r <= k - 4:
        return DiameterResult(n, k, 4, k - r + 1, "formula")
    raise ParameterError(f"no formula branch covers n={n}, k={k}")  # pragma: no cover


# ---------------------------------------------------------------------------
# The explicit structure of SG(2k+2,k)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sg2k2Coordinate:
    """Level i in 0..floor(k/2) and position v on the (2k+2)-cycle.

    For even k the top level is identified antipodally, so v is restricted
    to 0..k there.
    """

    i: int
    v: int


def _check_coordinate(c: Sg2k2Coordinate, k: int) -> None:
    top = k // 2
    if not 0 <= c.i <= top:
        raise ParameterError(f"level {c.i} outside 0..{top}")
    v_max = k if (k % 2 == 0 and c.i == top) else 2 * k + 1
    if not 0 <= c.v <= v_max:
        raise ParameterError(f"position {c.v} outside 0..{v_max} at level {c.i}")


def sg2k2_vertex(c: Sg2k2Coordinate, k: int) -> StableSet:
    """The member set of the vertex with coordinate c in SG(2k+2,k)."""
    if k < 3:
        raise ParameterError(f"the coordinate model needs k >= 3, got k={k}")
    _check_coordinate(c, k)
    n = 2 * k + 2
    params = CycleParams(n, k)
    if c.i == 0:
        raw = [c.v - 1] + [c.v + 2 * j + 1 for j in range(1, k)]
    else:
        u = c.v - c.i
        raw = (
            [u - 1]
            + [u + 2 * j for j in range(1, c.i + 1)]
            + [u + 2 * c.i + 1 + 2 * j for j in range(1, k - c.i)]
        )
    return stable_set(sorted(wrap(x, n) for x in raw), params)


@dataclass
class Sg2k2Model:
    """Abstract graph on coordinates, isomorphic to SG(2k+2,k)."""

    k: int
    vertices: tuple[Sg2k2Coordinate, ...]
    edges: frozenset[frozenset[Sg2k2Coordinate]] = field(repr=False)


def sg2k2_model(k: int) -> Sg2k2Model:
    """Build the coordinate graph: chords at level 0, level cycles, vertical
    edges, and the antipodal edges / identification at the top level."""
    if k < 3:
        raise ParameterError(f"the coordinate model needs k >= 3, got k={k}")
    n = 2 * k + 2
    top = k // 2
    even = k % 2 == 0

    def node(i: int, v: int) -> Sg2k2Coordinate:
        v %= n
        if even and i == top:
            v %= k + 1
        return Sg2k2Coordinate(i, v)

    vertices: list[Sg2k2Coordinate] = []
    for i in range(top + 1):
        count = k + 1 if (even and i == top) else n
        vertices.extend(Sg2k2Coordinate(i, v) for v in range(count))

    edges: set[frozenset[Sg2k2Coordinate]] = set()
    for v in range(n):
        for w in range(v + 1, n):
            if (w - v) % 2 == 1:
                edges.add(frozenset((node(0, v), node(0, w))))
    for i in range(1, top + 1):
        count = k + 1 if (even and i == top) else n
        for v in range(count):
            edges.add(frozenset((node(i, v), node(i, v + 1))))
    for i in range(top):
        for v in range(n):
            edges.add(frozenset((node(i, v), node(i + 1, v))))
    if not even:
        for v in range(n):
            edges.add(frozenset((node(top, v), node(top, v + k + 1))))

    return Sg2k2Model(k, tuple(vertices), frozenset(edges))


def classify_sg2k2_vertex(s: StableSet) -> tuple[str, int]:
    """Class of a vertex of SG(2k+2,k): ("B3", v) or ("B2", i).

    B3 vertices have one complement component of order 3 (v = its first
    position, 0-based); B2 vertices have two order-2 components separated
    by i elements of the vertex.
    """
    n, k = s.params.n, s.params.k
    if n != 2 * k + 2:
        raise ParameterError(f"vertex lives in SG({n},{k}), not SG(2k+2,k)")
    by_len = sorted(runs(~s.mask & s.params.full_mask, n), key=lambda run: -run[1])
    if by_len[0][1] == 3:
        return ("B3", by_len[0][0] % n)
    first, second = by_len[0][0], by_len[1][0]
    d = (second - first) % n
    sep = (min(d, n - d) - 1) // 2
    return ("B2", sep)


# ---------------------------------------------------------------------------
# Witness pairs
# ---------------------------------------------------------------------------


def witness_lower4(n: int, k: int) -> tuple[StableSet, StableSet]:
    """The distance->=4 witness pair for n = 2k+r with 2 <= r <= k-3.

    Every complement block of the pair is a singleton and there are k-1
    of them, which blocks any common neighborhood two steps out.
    """
    r = n - 2 * k
    if not 2 <= r <= k - 3:
        raise RegimeError(f"witness_lower4 needs 2 <= r <= k-3, got n={n}, k={k}")
    t = k - 3 - r
    params = CycleParams(n, k)
    a = [1, 3, 5] + [7 + 2 * i for i in range(t + 1)] + [
        7 + 2 * t + 3 * j for j in range(1, r)
    ]
    b = [1, 3, 6] + [8 + 2 * i for i in range(t + 1)] + [
        8 + 2 * t + 3 * j for j in range(1, r)
    ]
    return stable_set(a, params), stable_set(b, params)


def witness_dist3(n: int, k: int) -> tuple[StableSet, StableSet, PathCertificate]:
    """The distance-3 witness A = {1,4,6,...,2k}, B = {1,5,7,...,2k+1}.

    Valid for 2k+2 <= n <= 4k-3; includes the explicit length-3 path
    through {3,5,...,2k+1} and {2,4,...,2k}.
    """
    if k < 3:
        raise RegimeError(f"witness_dist3 needs k >= 3, got k={k}")
    if not 2 * k + 2 <= n <= 4 * k - 3:
        raise RegimeError(
            f"witness_dist3 needs 2k+2 <= n <= 4k-3, got n={n}, k={k}"
        )
    params = CycleParams(n, k)
    a = stable_set([1] + list(range(4, 2 * k + 1, 2)), params)
    b = stable_set([1] + list(range(5, 2 * k + 2, 2)), params)
    x = stable_set(range(3, 2 * k + 2, 2), params)
    y = stable_set(range(2, 2 * k + 1, 2), params)
    return a, b, PathCertificate((a, x, y, b), 3)
