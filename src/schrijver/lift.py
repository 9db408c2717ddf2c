"""Ground-set resizing: grow a pair into a larger cycle, find a short path
there, and project it back down.

Two grow operations alternate, starting with the insertion step: `plus`
opens a fresh vacant position inside a component of size >= 3 (leaving a
singleton IV(H) block), `up` widens a singleton type-I block.  Their
inverses delete a position again.  The pipeline lifts until the pair is
provably at distance <= 3, pulls the middle walk (one common neighbor or
the middle pair) back through the inverse operations, and assembles a
certificate of length at most m + 3 where n = 3k - 2 - m.
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
from .cyclic import MAX_N, CycleParams, StableSet, rol_mask, run_starts, wrap
from .errors import InvariantError, ParameterError, RegimeError
from .paths import _disjoint_middle_pair, _star_pair, path_via_reduction


@dataclass(frozen=True)
class LiftStep:
    kind: str  # "plus" | "up"
    marker: int  # vacant position u (plus) / widened block position t (up)
    n_before: int
    n_after: int


@dataclass(frozen=True)
class LiftTrace:
    steps: tuple[LiftStep, ...]
    a_levels: tuple[StableSet, ...]
    b_levels: tuple[StableSet, ...]

    @property
    def p(self) -> int:
        return len(self.steps)


def _shift_up(s: StableSet, threshold: int, params: CycleParams) -> StableSet:
    """Members >= threshold move up by one; the rest stay."""
    low = s.mask & ((1 << (threshold - 1)) - 1)
    return StableSet(params, low | (s.mask ^ low) << 1)


def op_plus(d: Decomposition) -> tuple[StableSet, StableSet, int]:
    """Insert a vacant position after the second element of a component of
    size >= 3 of the decomposed pair; returns the lifted pair in [n+1] and
    the new position u."""
    n = d.params.n
    xm = d.a.mask | d.b.mask
    # first elements of the runs of X that go on for two more elements
    big = run_starts(xm, n) & rol_mask(xm, -1, n) & rol_mask(xm, -2, n)
    if not big:
        raise RegimeError("no component of size >= 3 (pair is at distance 2)")
    second = wrap((big & -big).bit_length() + 1, n)
    u = n + 1 if second == n else second + 1
    params2 = CycleParams(n + 1, d.params.k)
    a2 = _shift_up(d.a, u, params2)
    b2 = _shift_up(d.b, u, params2)
    if not singleton_blocks(a2, b2)[1] >> (u - 1) & 1:
        raise InvariantError(f"[{u},{u}] did not come out as a IV(H) block")
    return a2, b2, u


def op_minus(y: StableSet, u: int) -> StableSet:
    """Delete position u (inverse of plus): members > u move down by one,
    u itself merges onto u - 1 (0 = n)."""
    n1 = y.params.n
    if not 1 <= u <= n1:
        raise ParameterError(f"position {u} outside 1..{n1}")
    n = n1 - 1
    mask = y.mask & ((1 << (u - 1)) - 1) | (y.mask >> u) << (u - 1)
    if y.mask >> (u - 1) & 1:
        mask |= 1 << (wrap(u - 1, n) - 1)
    clash = mask & rol_mask(mask, 1, n)
    if clash:
        j = (clash & -clash).bit_length()
        raise ParameterError(
            f"deleting position {u} breaks 2-stability: elements {wrap(j - 1, n)},{j} "
            f"become consecutive"
        )
    return StableSet(CycleParams(n, y.params.k), mask)


def op_up(a: StableSet, b: StableSet, t: int) -> tuple[StableSet, StableSet]:
    """Widen the singleton type-I block [t,t] to [t,t+1]."""
    n = a.params.n
    if not 1 <= t <= n:
        raise ParameterError(f"position {t} outside 1..{n}")
    if not singleton_blocks(a, b)[0] >> (t - 1) & 1:
        raise ParameterError(f"[{t},{t}] is not a type-I block of this pair")
    params2 = CycleParams(n + 1, a.params.k)
    return _shift_up(a, t + 1, params2), _shift_up(b, t + 1, params2)


def op_down(y: StableSet, t: int) -> StableSet:
    """Merge positions t and t+1 back into one (inverse of up)."""
    if not 1 <= t <= y.params.n - 1:
        raise ParameterError(f"position {t} outside 1..{y.params.n - 1}")
    return op_minus(y, t + 1)


# ---------------------------------------------------------------------------
# The full pipeline
# ---------------------------------------------------------------------------


def _lift_until_short(d: Decomposition, depth_cap: int) -> tuple[LiftTrace, tuple]:
    """Lift the decomposed pair alternately until it is provably at distance <= 3.

    Returns the trace and the middle walk of the top level: `(y,)`, a
    common neighbor, when the distance-2 criterion holds, or `(y1, y2)`
    when the disjoint middle-pair construction succeeds.  Both are exact
    tests, so no BFS runs in the lifted graphs.
    """
    steps: list[LiftStep] = []
    a_levels = [d.a]
    b_levels = [d.b]
    while True:
        if distance2_criterion(d):
            walk = (disjoint_middle_vertex(d),)
        else:
            walk = _disjoint_middle_pair(d)
        if walk is not None:
            return LiftTrace(tuple(steps), tuple(a_levels), tuple(b_levels)), walk
        level = len(steps)
        if level >= depth_cap:
            raise InvariantError(
                f"lift did not terminate within the proven depth {depth_cap}"
            )
        n_here = d.params.n
        if level % 2 == 0:
            a2, b2, marker = op_plus(d)
            steps.append(LiftStep("plus", marker, n_here, n_here + 1))
        else:
            singles = _star_pair(d).i_prime  # built by the middle-pair step
            if not singles:
                raise InvariantError(
                    "middle-pair construction failed but no singleton type-I block exists"
                )
            marker = (singles & -singles).bit_length()
            a2, b2 = op_up(d.a, d.b, marker)
            steps.append(LiftStep("up", marker, n_here, n_here + 1))
        a_levels.append(a2)
        b_levels.append(b2)
        d = decompose(a2, b2)


def _lower(y: StableSet, step: LiftStep) -> StableSet:
    """Pull y one level down through the inverse of `step`."""
    if step.kind == "plus":
        return op_minus(y, step.marker)
    return op_down(y, step.marker)


def _project_common(y: StableSet, trace: LiftTrace) -> StableSet:
    """Pull a common neighbor of the top pair down to level 0."""
    for level in range(trace.p - 1, -1, -1):
        step = trace.steps[level]
        a_top, b_top = trace.a_levels[level + 1], trace.b_levels[level + 1]
        if step.kind == "plus":
            if y.mask & run_starts(a_top.mask | b_top.mask, a_top.params.n):
                raise InvariantError(
                    "projected vertex touches the first element of a component"
                )
        elif y.mask & a_top.mask & b_top.mask:
            raise InvariantError("projected vertex meets A and B simultaneously")
        y = _lower(y, step)
        if y.mask & trace.a_levels[level].mask & trace.b_levels[level].mask:
            raise InvariantError("projection broke Y n A n B = empty")
    return y


def _project_pair(y1: StableSet, y2: StableSet, trace: LiftTrace):
    """Pull the disjoint middle pair down, keeping y1 off A and y2 off B."""
    a_levels, b_levels = trace.a_levels, trace.b_levels
    if y1.mask & a_levels[-1].mask or y2.mask & b_levels[-1].mask:
        raise InvariantError("middle pair is not adjacent to the lifted endpoints")
    for level in range(trace.p - 1, -1, -1):
        step = trace.steps[level]
        if step.kind == "plus" and (y1.mask | y2.mask) >> (step.marker - 1) & 1:
            raise InvariantError("inserted position leaked into the middle pair")
        y1, y2 = _lower(y1, step), _lower(y2, step)
        if y1.mask & a_levels[level].mask or y2.mask & b_levels[level].mask:
            raise InvariantError("projection broke the endpoint adjacencies")
    return y1, y2


def regime_m(params: CycleParams) -> int:
    """m = 3k-2-n for a cell the pipeline covers; RegimeError with the reason otherwise."""
    n, k = params.n, params.k
    m = 3 * k - 2 - n
    if not 1 <= m <= k - 4:
        raise RegimeError(
            f"lift pipeline needs n = 3k-2-m with 1 <= m <= k-4, got n={n}, k={k}"
        )
    if 3 * k - 2 > MAX_N:
        raise RegimeError(
            f"lift pipeline climbs to n = 3k-2 = {3 * k - 2}, past the single-word "
            f"cap n <= {MAX_N}, for k={k}"
        )
    return m


def bound_path_m_plus_3(a: StableSet, b: StableSet) -> PathCertificate:
    """Certificate of length <= m+3 for any pair of SG(3k-2-m, k), 1 <= m <= k-4.

    Pairs at distance <= 3 are handled directly (criterion or middle-pair
    construction at level 0); deeper pairs go through the lift pipeline.
    """
    return bound_path_with_trace(a, b)[0]


def bound_path_with_trace(a: StableSet, b: StableSet) -> tuple[PathCertificate, LiftTrace]:
    """`bound_path_m_plus_3` together with the lift levels it went through."""
    if a.params != b.params:
        raise ParameterError("vertices come from different SG(n,k)")
    regime_m(a.params)
    empty = LiftTrace((), (a,), (b,))
    if a.mask == b.mask:
        return PathCertificate((a,), 0), empty
    if not a.mask & b.mask:
        return PathCertificate((a, b), 1), empty
    return _bound_path(decompose(a, b))


def _bound_path(d: Decomposition) -> tuple[PathCertificate, LiftTrace]:
    """`bound_path_with_trace` on a decomposed pair (A != B, intersecting)."""
    a, b = d.a, d.b
    m = regime_m(d.params)
    trace, walk = _lift_until_short(d, m)
    p = trace.p
    if len(walk) == 1:
        if p and p % 2 == 0:
            raise InvariantError(
                f"common-neighbor branch reached with even p={p}; "
                "the projection argument requires the last step to be an insertion"
            )
        y0 = _project_common(walk[0], trace)
        h_star = (y0.mask & a.mask).bit_count() + (y0.mask & b.mask).bit_count()
        if h_star > (p + 1) // 2:
            raise InvariantError("projection bookkeeping bound (p+1)/2 failed")
        cert = path_via_reduction(a, b, via=y0)
    else:
        y1, y2 = _project_pair(*walk, trace)
        if (y1.mask & y2.mask).bit_count() > p // 2:
            raise InvariantError("projection bookkeeping bound p/2 failed")
        inner = path_via_reduction(y1, y2)
        cert = PathCertificate(
            (a,) + inner.vertices + (b,), inner.claimed_bound + 2
        )

    if cert.edge_count > m + 3 or cert.claimed_bound > m + 3:
        raise InvariantError(
            f"certificate of length {cert.edge_count} exceeds the bound m+3 = {m + 3}"
        )
    return cert, trace
