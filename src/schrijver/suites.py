"""Verification sweeps and the table/scan engines behind the CLI.

The sweeps re-check the structural facts this package relies on (block
classification, counting identities, certificate constructions, lift
bookkeeping, the coordinate model) against the BFS oracle: exhaustively for
k <= 5 on small ground sets, on seeded samples for k in {6, 7}.  The
acceptance test suite runs the full spec ranges; these are the fast,
CLI-facing versions of the same checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from .blocks import (
    TYPE_I,
    TYPE_IIA,
    TYPE_IIB,
    TYPE_IIIA,
    TYPE_IIIB,
    TYPE_IVA,
    TYPE_IVB,
    TYPE_IVH,
    component_counts,
    decompose,
    distance2_criterion,
    m_sum_bound,
)
from .certificates import verify_certificate
from .closedform import (
    classify_sg2k2_vertex,
    diameter_formula,
    sg2k2_model,
    sg2k2_vertex,
)
from .cyclic import CycleParams
from .errors import CertificateError, SchrijverError
from .graph import SchrijverGraph
from .lift import bound_path_m_plus_3
from .paths import (
    build_star_pair,
    path_dist3,
    path_small_intersection,
    path_via_reduction,
    reduce_intersection,
)

_SAMPLE_SEED = 7150  # fixed seed: sampled sweeps are reproducible

_MAX_STORED_FAILURES = 12


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    failure_count: int = 0

    @property
    def ok(self) -> bool:
        return self.failure_count == 0

    def fail(self, message: str) -> None:
        self.failure_count += 1
        if len(self.failures) < _MAX_STORED_FAILURES:
            self.failures.append(message)

    def summary(self) -> str:
        state = "pass" if self.ok else f"FAIL ({self.failure_count} violations)"
        return f"suite {self.name}: {self.checked} checks, {state}"


@lru_cache(maxsize=None)
def get_graph(n: int, k: int) -> SchrijverGraph:
    return SchrijverGraph(CycleParams(n, k))


_diameters: dict[tuple[int, int], int] = {}


def bfs_diameter(n: int, k: int) -> int:
    """Memoized brute-force diameter (orbit reduced)."""
    key = (n, k)
    if key not in _diameters:
        _diameters[key] = get_graph(n, k).diameter_bruteforce().value
    return _diameters[key]


def _intersecting_pairs(g: SchrijverGraph):
    verts = g.vertices
    for i, j in combinations(range(len(verts)), 2):
        if verts[i].mask & verts[j].mask:
            yield i, j


def _sampled_pairs(g: SchrijverGraph, count: int, rng: random.Random):
    verts = g.vertices
    total = len(verts)
    seen = set()
    attempts = 0
    while len(seen) < count and attempts < 50 * count:
        attempts += 1
        i, j = rng.randrange(total), rng.randrange(total)
        if i == j:
            continue
        pair = (min(i, j), max(i, j))
        if pair in seen:
            continue
        if verts[pair[0]].mask & verts[pair[1]].mask:
            seen.add(pair)
            yield pair


def _check_pair_blocks(g, dmat, i, j, res: SuiteResult) -> None:
    a, b = g.vertices[i], g.vertices[j]
    label = f"SG({g.params.n},{g.params.k}) {a} / {b}"
    d = decompose(a, b)
    res.checked += 1

    if len(d.components) != len(d.blocks):
        res.fail(f"{label}: |X-components| != |blocks|")
    if (
        sum(c.interval.length for c in d.components)
        + sum(blk.interval.length for blk in d.blocks)
        != g.params.n
    ):
        res.fail(f"{label}: components and blocks do not partition the cycle")
    for blk in d.blocks:
        expect = (
            blk.interval.length - 1
            if blk.btype in (TYPE_IVA, TYPE_IVB, TYPE_IVH)
            else blk.interval.length
        )
        if blk.m != expect:
            res.fail(f"{label}: block {blk.interval} has m={blk.m}")

    counts = component_counts(d)
    bc = counts.block_counts
    if counts.n_a != counts.n_b:
        res.fail(f"{label}: n(A) != n(B)")
    if 2 * d.h != 2 * bc[TYPE_I] + bc[TYPE_IIA] + bc[TYPE_IIB] + bc[TYPE_IIIA] + bc[TYPE_IIIB]:
        res.fail(f"{label}: 2h identity failed")
    if bc[TYPE_IIA] + bc[TYPE_IIIA] + 2 * bc[TYPE_IVA] != bc[TYPE_IIB] + bc[TYPE_IIIB] + 2 * bc[TYPE_IVB]:
        res.fail(f"{label}: endpoint identity failed")
    e = d.ends
    if len(e.eA_prime) + 2 * len(e.eA_dprime) != len(e.eB_prime) + 2 * len(e.eB_dprime):
        res.fail(f"{label}: e'(A)+2e''(A) identity failed")
    if not e.eA or not e.eB or not e.eH:
        res.fail(f"{label}: some end set is empty")
    if e.eH != frozenset(a.intersection(b)):
        res.fail(f"{label}: e(H) != A n B")

    dist = int(dmat[i, j]) if dmat is not None else g.bfs_distance(a, b).distance
    if distance2_criterion(d) != (dist == 2):
        res.fail(f"{label}: distance-2 criterion disagrees with BFS ({dist})")
    if dist >= 3 and not m_sum_bound(d):
        res.fail(f"{label}: m-sum lower bound failed")


def suite_blocks(k_max: int) -> SuiteResult:
    res = SuiteResult("blocks")
    rng = random.Random(_SAMPLE_SEED)
    for k in range(2, min(k_max, 5) + 1):
        for n in range(2 * k + 1, min(4 * k - 2, 18) + 1):
            g = get_graph(n, k)
            if len(g) < 2:
                continue
            dmat = g.all_distances()
            for i, j in _intersecting_pairs(g):
                _check_pair_blocks(g, dmat, i, j, res)
    for k in range(6, k_max + 1):
        for n in (2 * k + 2, 2 * k + 3, 3 * k - 2):
            g = get_graph(n, k)
            dmat = g.all_distances() if len(g) <= 2000 else None
            for i, j in _sampled_pairs(g, 250, rng):
                _check_pair_blocks(g, dmat, i, j, res)
    return res


def _check_pair_paths(g, dmat, i, j, res: SuiteResult) -> None:
    a, b = g.vertices[i], g.vertices[j]
    n, k = g.params.n, g.params.k
    label = f"SG({n},{k}) {a} / {b}"
    dist = int(dmat[i, j]) if dmat is not None else g.bfs_distance(a, b).distance
    h = (a.mask & b.mask).bit_count()
    res.checked += 1

    try:
        if h in (1, k - 1):
            cert = path_small_intersection(a, b)
            verify_certificate(cert, source=a, target=b)
            if cert.edge_count < dist:
                res.fail(f"{label}: small-intersection walk shorter than BFS")
        cert = path_via_reduction(a, b)
        verify_certificate(cert, source=a, target=b)
        if cert.edge_count > 1 + 2 * h or cert.edge_count < dist:
            res.fail(
                f"{label}: reduction walk length {cert.edge_count} outside [{dist}, {1 + 2 * h}]"
            )
        if dist >= 3:
            sp = build_star_pair(decompose(a, b))
            if len(sp.i_prime) != sp.h - sp.s - sp.r_blocks:
                res.fail(f"{label}: |I'| != h-s-r")
            a2, b2 = reduce_intersection(a, b)
            if (a2.mask & b2.mask).bit_count() > h - 1:
                res.fail(f"{label}: reduction left intersection too large")
            if 3 * k - 2 <= n <= 4 * k - 3:
                cert3 = path_dist3(a, b)
                verify_certificate(cert3, source=a, target=b)
                if cert3.edge_count != 3:
                    res.fail(f"{label}: dist-3 certificate has wrong length")
    except (SchrijverError, CertificateError) as exc:
        res.fail(f"{label}: {exc}")


def suite_paths(k_max: int) -> SuiteResult:
    res = SuiteResult("paths")
    rng = random.Random(_SAMPLE_SEED + 1)
    for k in range(2, min(k_max, 5) + 1):
        for n in range(2 * k + 1, min(4 * k - 2, 15) + 1):
            g = get_graph(n, k)
            if len(g) < 2:
                continue
            dmat = g.all_distances()
            for i, j in _intersecting_pairs(g):
                _check_pair_paths(g, dmat, i, j, res)
    for k in range(6, k_max + 1):
        for n in (2 * k + 2, 3 * k - 2, 3 * k):
            g = get_graph(n, k)
            dmat = g.all_distances() if len(g) <= 2000 else None
            for i, j in _sampled_pairs(g, 200, rng):
                _check_pair_paths(g, dmat, i, j, res)
    return res


def suite_lift(k_max: int) -> SuiteResult:
    res = SuiteResult("lift")
    rng = random.Random(_SAMPLE_SEED + 2)
    for k in range(5, k_max + 1):
        for m in range(1, k - 3):
            n = 3 * k - 2 - m
            g = get_graph(n, k)
            dmat = g.all_distances()
            deep = [
                (i, j)
                for i, j in combinations(range(len(g)), 2)
                if dmat[i, j] >= 4
            ]
            if k == 7 and len(deep) > 1500:
                deep = rng.sample(deep, 1500)
            for i, j in deep:
                a, b = g.vertices[i], g.vertices[j]
                label = f"SG({n},{k}) {a} / {b}"
                res.checked += 1
                try:
                    cert = bound_path_m_plus_3(a, b)
                    verify_certificate(cert, source=a, target=b)
                    if cert.edge_count > m + 3:
                        res.fail(f"{label}: certificate longer than m+3")
                    if cert.edge_count < dmat[i, j]:
                        res.fail(f"{label}: certificate shorter than BFS distance")
                except (SchrijverError, CertificateError) as exc:
                    res.fail(f"{label}: {exc}")
    return res


def suite_model(k_max: int) -> SuiteResult:
    res = SuiteResult("model")
    for k in range(3, min(k_max, 7) + 1):
        n = 2 * k + 2
        g = get_graph(n, k)
        model = sg2k2_model(k)
        label = f"SG(2k+2,k) for k={k}"
        res.checked += 1

        image = {}
        for coord in model.vertices:
            image[coord] = sg2k2_vertex(coord, k)
        masks = {s.mask for s in image.values()}
        if len(masks) != len(model.vertices):
            res.fail(f"{label}: coordinate map is not injective")
        if masks != set(g.index):
            res.fail(f"{label}: coordinate map is not onto the vertex set")
        if model.n_vertices != len(g):
            res.fail(f"{label}: vertex counts differ")

        direct_edges = sum(
            1
            for i, j in combinations(range(len(g)), 2)
            if not g.vertices[i].mask & g.vertices[j].mask
        )
        if model.n_edges != direct_edges:
            res.fail(f"{label}: edge counts differ")
        for c1, c2 in combinations(model.vertices, 2):
            res.checked += 1
            if model.adjacent(c1, c2) != (not image[c1].mask & image[c2].mask):
                res.fail(f"{label}: adjacency mismatch at {c1}, {c2}")

        b3 = [s for s in g.vertices if classify_sg2k2_vertex(s)[0] == "B3"]
        if len(b3) != 2 * k + 2:
            res.fail(f"{label}: |B3| = {len(b3)}, expected {2 * k + 2}")
        top = [
            s
            for s in g.vertices
            if classify_sg2k2_vertex(s) == ("B2", k // 2)
        ]
        expect_top = k + 1 if k % 2 == 0 else 2 * k + 2
        if len(top) != expect_top:
            res.fail(f"{label}: |B2,{k // 2}| = {len(top)}, expected {expect_top}")

        if _induced_diameter(g, b3) != 2:
            res.fail(f"{label}: induced B3 diameter != 2")
        if _induced_diameter(g, top) != (k + 1) // 2:
            res.fail(f"{label}: induced top-level diameter != {(k + 1) // 2}")
    return res


def _induced_diameter(g: SchrijverGraph, vertices) -> int:
    """BFS diameter of the subgraph induced by the given vertices."""
    masks = [s.mask for s in vertices]
    count = len(masks)
    best = 0
    for src in range(count):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in range(count):
                    if v not in dist and not masks[u] & masks[v]:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        if len(dist) != count:
            return -1
        best = max(best, max(dist.values()))
    return best


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
    bfs = bfs_diameter(n, k)
    return {
        "n": n,
        "k": k,
        "r": n - 2 * k,
        "formula_lo": fm.lo,
        "formula_hi": fm.hi,
        "bfs": bfs,
        "agree": int(fm.lo <= bfs <= fm.hi and (not fm.exact or fm.value == bfs)),
    }


def table_grid(k_max: int) -> list[tuple[int, int]]:
    cells = []
    for k in range(2, k_max + 1):
        for n in range(2 * k + 1, 4 * k - 2 + 1):
            cells.append((n, k))
    return cells


def table_rows(k_max: int, jobs: int = 1) -> list[dict]:
    """One row per (n,k) cell, k <= k_max, 2k+1 <= n <= 4k-2."""
    cells = table_grid(k_max)
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            rows = pool.starmap(table_cell, cells)
    else:
        rows = [table_cell(n, k) for n, k in cells]
    rows.sort(key=lambda row: (row["k"], row["n"]))
    return rows


def scan_rows(k_max: int, jobs: int = 1) -> list[dict]:
    """Diameters by r for each k, with consecutive gaps: conjecture evidence."""
    cells = [
        (2 * k + r, k) for k in range(2, k_max + 1) for r in range(1, 2 * k - 1)
    ]
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            diams = pool.starmap(bfs_diameter, cells)
        by_cell = dict(zip(cells, diams))
    else:
        by_cell = {(n, k): bfs_diameter(n, k) for n, k in cells}
    rows = []
    for k in range(2, k_max + 1):
        for r in range(1, 2 * k - 1):
            n = 2 * k + r
            diam = by_cell[(n, k)]
            nxt = by_cell.get((n + 1, k))
            rows.append(
                {
                    "k": k,
                    "r": r,
                    "n": n,
                    "diameter": diam,
                    "next_diameter": "" if nxt is None else nxt,
                    "gap": "" if nxt is None else diam - nxt,
                }
            )
    return rows
