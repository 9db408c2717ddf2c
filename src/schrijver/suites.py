"""Invariant checks, the sweeps that run them, and the table/scan engines.

This module is the single home of the checks of the structural facts the
package relies on: the distance-2 criterion against BFS, the block and
end-set identities, the star-pair and reduction contracts, the short-walk,
length-3 and m+3 certificates, and the SG(2k+2,k) coordinate model.  Each
check records into a `SuiteResult`.  `verify` runs them through `SUITES`:
`blocks`/`paths` on every pair of small cells for k <= 5 and seeded samples
for k >= 6, `lift` on every distance->=4 pair but 1500 seeded ones in each of
SG(17,7) and SG(18,7).  The acceptance tests run them over the spec ranges.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import chain, combinations, repeat

import numpy as np

from .blocks import (
    COMP_A,
    COMP_B,
    TYPE_I,
    TYPE_IIA,
    TYPE_IIB,
    TYPE_IIIA,
    TYPE_IIIB,
    TYPE_IVA,
    TYPE_IVB,
    TYPE_IVH,
    Decomposition,
    component_counts,
    decompose,
    distance2_criterion,
    m_sum_bound,
)
from .certificates import PathCertificate, verify_certificate
from .closedform import (
    classify_sg2k2_vertex,
    diameter_formula,
    sg2k2_model,
    sg2k2_vertex,
)
from .cyclic import CycleParams, StableSet, check_vertex_cap
from .errors import ParameterError, SchrijverError
from .graph import SchrijverGraph, bfs_sweeps
from .lift import bound_path_m_plus_3
from .paths import (
    _path_dist3,
    _reduce,
    _reduction_path,
    _star_pair,
    in_dist3_regime,
    path_small_intersection,
)

_SAMPLE_SEED = 7150  # fixed seed: sampled sweeps are reproducible

_MAX_STORED_FAILURES = 12


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    failure_count: int = 0
    counts: Counter = field(default_factory=Counter)  # runs of each check, by name

    @property
    def ok(self) -> bool:
        return self.failure_count == 0

    def fail(self, message: str, a: StableSet | None = None, b: StableSet | None = None) -> None:
        """Count one violation; store it, labelled with the pair if given."""
        self.failure_count += 1
        if len(self.failures) < _MAX_STORED_FAILURES:
            if a is not None:
                message = f"SG({a.params.n},{a.params.k}) {a} / {b}: {message}"
            self.failures.append(message)

    def summary(self) -> str:
        state = "pass" if self.ok else f"FAIL ({self.failure_count} violations)"
        return f"suite {self.name}: {self.checked} checks, {state}"


@lru_cache(maxsize=None)
def graph(n: int, k: int) -> SchrijverGraph:
    return SchrijverGraph(CycleParams(n, k))


def _sampled_pairs(masks: list[int], count: int, rng: random.Random):
    """Up to `count` distinct intersecting index pairs i < j, in draw order."""
    total = len(masks)
    seen = set()
    attempts = 0
    while len(seen) < count and attempts < 50 * count:
        attempts += 1
        i, j = rng.randrange(total), rng.randrange(total)
        pair = (min(i, j), max(i, j))
        if i != j and pair not in seen and masks[i] & masks[j]:
            seen.add(pair)
            yield pair


def _pair_distances(masks: np.ndarray, min_dist: int, sample: int, rng: random.Random | None):
    """`(i, j, dist)` for intersecting pairs i < j at least `min_dist` apart.

    Every distance is read off a `bfs_sweeps` row.  Exhaustively, one row
    per source i in index order gives its pairs with every j > i.  With
    `sample`, the pairs come in `_sampled_pairs` draw order, and only the
    drawn entries of each distinct source's row are kept.
    """
    if not sample:
        for i, row in bfs_sweeps(masks, range(masks.size - 1)):
            js = np.flatnonzero(masks[i + 1 :] & masks[i]) + (i + 1)
            js = js[row[js] >= min_dist]
            yield from zip(repeat(i), js.tolist(), row[js].tolist())
        return
    pairs = list(_sampled_pairs(masks.tolist(), sample, rng))
    targets: dict[int, list[int]] = {}
    for i, j in pairs:
        targets.setdefault(i, []).append(j)
    dist = {(i, j): int(row[j]) for i, row in bfs_sweeps(masks, targets) for j in targets[i]}
    for i, j in pairs:
        if dist[i, j] >= min_dist:
            yield i, j, dist[i, j]


def sweep(cells, min_dist: int = 0, sample: int = 0, rng: random.Random | None = None):
    """Yield `(a, b, dist)` for vertex pairs of each (n,k) cell in turn.

    By default every intersecting pair i < j in index order; with `sample`,
    up to that many distinct intersecting pairs per cell, drawn from `rng`.
    `min_dist` keeps only the pairs at least that far apart.  Distances come
    from the cell's BFS sweeps, one row per source.
    """
    for n, k in cells:
        g = graph(n, k)
        if len(g) < 2:
            continue
        vertex = cache(g._vertex)  # only the vertices it yields, each once
        for i, j, dist in _pair_distances(g._masks, min_dist, sample, rng):
            yield vertex(i), vertex(j), dist


# ---------------------------------------------------------------------------
# Invariant checks: one per fact, each counted under its own name.  A check
# records violations into the result; a certificate builder or verifier that
# raises is left to the caller (`verify` records it, a test fails on it), so a
# contract its builder raises on is not checked again here.
# ---------------------------------------------------------------------------


def check_distance2(res: SuiteResult, d: Decomposition, dist: int) -> None:
    """The distance-2 criterion holds exactly for the pairs at BFS distance 2."""
    res.counts["distance2"] += 1
    if distance2_criterion(d) != (dist == 2):
        res.fail(f"distance-2 criterion disagrees with BFS ({dist})", d.a, d.b)


def check_blocks(res: SuiteResult, d: Decomposition, dist: int) -> None:
    """Block and end-set identities; the m-sum lower bound past distance 2."""
    res.counts["blocks"] += 1
    a, b = d.a, d.b
    components, blocks = d.components, d.blocks
    if len(components) != len(blocks):
        res.fail("|X-components| != |blocks|", a, b)
    n = a.params.n
    if sum(c.length for c in components) + sum(blk.length for blk in blocks) != n:
        res.fail("components and blocks do not partition the cycle", a, b)
    for blk in blocks:
        short = blk.btype in (TYPE_IVA, TYPE_IVB, TYPE_IVH)  # type IV: m = length - 1
        if blk.m != blk.length - (1 if short else 0):
            end = (blk.start + blk.length - 2) % n + 1
            res.fail(f"block [{blk.start},{end}] has m={blk.m}", a, b)

    bc = component_counts(d)
    if bc[COMP_A] != bc[COMP_B]:
        res.fail("n(A) != n(B)", a, b)
    if 2 * d.h != 2 * bc[TYPE_I] + bc[TYPE_IIA] + bc[TYPE_IIB] + bc[TYPE_IIIA] + bc[TYPE_IIIB]:
        res.fail("2h identity failed", a, b)
    if bc[TYPE_IIA] + bc[TYPE_IIIA] + 2 * bc[TYPE_IVA] != bc[TYPE_IIB] + bc[TYPE_IIIB] + 2 * bc[TYPE_IVB]:
        res.fail("endpoint identity failed", a, b)
    e = d.ends
    if (
        e.eA_prime.bit_count() + 2 * e.eA_dprime.bit_count()
        != e.eB_prime.bit_count() + 2 * e.eB_dprime.bit_count()
    ):
        res.fail("e'(A)+2e''(A) identity failed", a, b)
    if not e.eA or not e.eB or not e.eH:
        res.fail("some end set is empty", a, b)
    if e.eH != a.mask & b.mask:
        res.fail("e(H) != A n B", a, b)
    if dist >= 3 and not m_sum_bound(d):
        res.fail("m-sum lower bound failed", a, b)


def check_star_pair(res: SuiteResult, d: Decomposition) -> None:
    """The star pair has s >= 1 (`build_star_pair` raises unless |I'| = h - s - r)."""
    res.counts["star_pair"] += 1
    sp = _star_pair(d)
    if sp.s < 1:
        res.fail(f"star pair has s={sp.s}", d.a, d.b)


def check_reduction(res: SuiteResult, d: Decomposition) -> None:
    """Intersection reduction succeeds: `_reduce` raises unless the reduced
    sets avoid their sources and meet in fewer than h elements."""
    res.counts["reduction"] += 1
    _reduce(d)


def _check_walk(
    res: SuiteResult, cert: PathCertificate, a: StableSet, b: StableSet, dist: int, label: str
) -> None:
    """`cert` is a valid walk from a to b, no shorter than the BFS distance."""
    verify_certificate(cert, source=a, target=b)
    if cert.edge_count < dist:
        res.fail(f"{label} length {cert.edge_count} below BFS distance {dist}", a, b)


def check_walks(res: SuiteResult, d: Decomposition, dist: int) -> None:
    """Valid walks no shorter than BFS: by reduction (`path_via_reduction`
    raises past 1 + 2h), and for h = 1 or h = k-1 the small-intersection
    walk (3 or 2 edges by construction)."""
    res.counts["walks"] += 1
    a, b = d.a, d.b
    if d.h in (1, a.params.k - 1):
        _check_walk(res, path_small_intersection(a, b), a, b, dist, "small-intersection walk")
    _check_walk(res, _reduction_path(d), a, b, dist, "reduction walk")


def check_dist3(res: SuiteResult, d: Decomposition, dist: int) -> None:
    """`path_dist3` gives a valid walk (A - A' - B' - B by construction) no
    shorter than BFS."""
    res.counts["dist3"] += 1
    _check_walk(res, _path_dist3(d), d.a, d.b, dist, "length-3 walk")


def check_lift(res: SuiteResult, a: StableSet, b: StableSet, dist: int) -> None:
    """`bound_path_m_plus_3` gives a valid walk no shorter than BFS (it raises
    past m+3 edges, m = 3k-2-n)."""
    res.counts["lift"] += 1
    _check_walk(res, bound_path_m_plus_3(a, b), a, b, dist, "m+3 walk")


def _classes(k: int) -> list[tuple[str, int]]:
    return [classify_sg2k2_vertex(s) for s in graph(2 * k + 2, k).vertices]


def check_model(res: SuiteResult, k: int) -> None:
    """The coordinate model is isomorphic to SG(2k+2,k); its class sizes.

    Counted once for the whole graph and once per coordinate pair compared.
    """
    g = graph(2 * k + 2, k)
    model = sg2k2_model(k)
    label = f"SG(2k+2,k) for k={k}"
    res.counts["model"] += 1
    image = {c: sg2k2_vertex(c, k).mask for c in model.vertices}
    masks = [v.mask for v in g.vertices]
    if len(set(image.values())) != len(model.vertices):
        res.fail(f"{label}: coordinate map is not injective")
    if set(image.values()) != set(masks):
        res.fail(f"{label}: coordinate map is not onto the vertex set")
    if len(model.vertices) != len(g):
        res.fail(f"{label}: vertex counts differ")
    if len(model.edges) != sum(1 for x, y in combinations(masks, 2) if not x & y):
        res.fail(f"{label}: edge counts differ")
    for c1, c2 in combinations(model.vertices, 2):
        res.counts["model"] += 1
        if (frozenset((c1, c2)) in model.edges) != (not image[c1] & image[c2]):
            res.fail(f"{label}: adjacency mismatch at {c1}, {c2}")

    classes = _classes(k)
    b3 = sum(1 for c in classes if c[0] == "B3")
    if b3 != 2 * k + 2:
        res.fail(f"{label}: |B3| = {b3}, expected {2 * k + 2}")
    for i in range(1, k // 2 + 1):
        size = classes.count(("B2", i))
        expect = k + 1 if (k % 2 == 0 and i == k // 2) else 2 * k + 2
        if size != expect:
            res.fail(f"{label}: |B2,{i}| = {size}, expected {expect}")


def check_class_diameters(res: SuiteResult, k: int) -> None:
    """Induced diameters in SG(2k+2,k): B3 has 2, the top level (k+1)//2.

    Each induced subgraph runs the graph's BFS sweeps over its own masks.
    """
    res.counts["class_diameters"] += 1
    labelled = list(zip(graph(2 * k + 2, k).vertices, _classes(k)))
    b3 = [v.mask for v, c in labelled if c[0] == "B3"]
    top = [v.mask for v, c in labelled if c == ("B2", k // 2)]
    for name, masks, want in (("B3", b3, 2), ("top-level", top, (k + 1) // 2)):
        masks = np.array(masks, dtype=np.uint64)
        levels = [lv for _, lv in bfs_sweeps(masks, range(masks.size))]
        diam = -1 if any((lv < 0).any() for lv in levels) else max(int(lv.max()) for lv in levels)
        if diam != want:
            res.fail(f"SG(2k+2,k) for k={k}: induced {name} diameter {diam} != {want}")


def suite_blocks(k_max: int) -> SuiteResult:
    res = SuiteResult("blocks")
    sampled = [(n, k) for k in range(6, k_max + 1) for n in (2 * k + 2, 2 * k + 3, 3 * k - 2)]
    rng = random.Random(_SAMPLE_SEED)
    exhaustive = [(n, k) for n, k in table_grid(min(k_max, 5)) if n <= 18]
    pairs = chain(sweep(exhaustive), sweep(sampled, sample=250, rng=rng))
    for a, b, dist in pairs:
        res.checked += 1
        d = decompose(a, b)
        check_blocks(res, d, dist)
        check_distance2(res, d, dist)
    return res


def suite_paths(k_max: int) -> SuiteResult:
    res = SuiteResult("paths")
    sampled = [(n, k) for k in range(6, k_max + 1) for n in (2 * k + 2, 3 * k - 2, 3 * k)]
    rng = random.Random(_SAMPLE_SEED + 1)
    exhaustive = [(n, k) for n, k in table_grid(min(k_max, 5)) if n <= 15]
    pairs = chain(sweep(exhaustive), sweep(sampled, sample=200, rng=rng))
    for a, b, dist in pairs:
        res.checked += 1
        try:
            d = decompose(a, b)
            check_walks(res, d, dist)
            if dist >= 3:
                check_star_pair(res, d)
                check_reduction(res, d)
                if in_dist3_regime(a.params.n, a.params.k):
                    check_dist3(res, d, dist)
        except SchrijverError as exc:
            res.fail(str(exc), a, b)
    return res


def suite_lift(k_max: int) -> SuiteResult:
    res = SuiteResult("lift")
    rng = random.Random(_SAMPLE_SEED + 2)
    for k in range(5, k_max + 1):
        for m in range(1, k - 3):
            deep = list(sweep([(3 * k - 2 - m, k)], min_dist=4))
            if k == 7 and len(deep) > 1500:
                deep = rng.sample(deep, 1500)
            for a, b, dist in deep:
                res.checked += 1
                try:
                    check_lift(res, a, b, dist)
                except SchrijverError as exc:
                    res.fail(str(exc), a, b)
    return res


def suite_model(k_max: int) -> SuiteResult:
    res = SuiteResult("model")
    for k in range(3, min(k_max, 7) + 1):
        check_model(res, k)
        check_class_diameters(res, k)
    res.checked = res.counts["model"]
    return res


SUITES = {
    "blocks": suite_blocks,
    "paths": suite_paths,
    "lift": suite_lift,
    "model": suite_model,
}


# ---------------------------------------------------------------------------
# Table and scan engines
# ---------------------------------------------------------------------------


def table_cell(n: int, k: int) -> dict:
    fm = diameter_formula(n, k)
    bfs = graph(n, k).diameter_bruteforce().value
    return {
        "n": n,
        "k": k,
        "r": n - 2 * k,
        "formula_lo": fm.lo,
        "formula_hi": fm.hi,
        "bfs": bfs,
        "agree": int(fm.lo <= bfs <= fm.hi),
    }


def table_grid(k_max: int) -> list[tuple[int, int]]:
    """The cells (n, k) with 2 <= k <= k_max and 2k+1 <= n <= 4k-2, by k then n."""
    return [(n, k) for k in range(2, k_max + 1) for n in range(2 * k + 1, 4 * k - 1)]


def table_rows(k_max: int) -> list[dict]:
    """One row per cell of the non-empty `table_grid(k_max)`, in its order; every
    cell is checked against the n <= 64 and vertex caps before the first diameter."""
    cells = table_grid(k_max)
    if not cells:
        raise ParameterError(f"the table grid needs k_max >= 2, got {k_max}")
    for n, k in cells:
        check_vertex_cap(CycleParams(n, k))
    return [table_cell(n, k) for n, k in cells]


def scan_rows(k_max: int) -> list[dict]:
    """Diameters by r for each k, with consecutive gaps: conjecture evidence."""
    diam = {(row["n"], row["k"]): row["bfs"] for row in table_rows(k_max)}
    rows = []
    for (n, k), d in diam.items():
        nxt = diam.get((n + 1, k))
        rows.append(
            {
                "k": k,
                "r": n - 2 * k,
                "n": n,
                "diameter": d,
                "next_diameter": "" if nxt is None else nxt,
                "gap": "" if nxt is None else d - nxt,
            }
        )
    return rows
