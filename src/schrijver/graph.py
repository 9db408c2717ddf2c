"""SG(n,k) as an explicit graph: the exact oracle for every constructive claim.

The graph holds only the uint64 vertex masks; `StableSet` objects are built
on demand.  Adjacency is mask disjointness, tested on the fly against the
whole mask array (no adjacency lists are stored).  BFS advances a frontier
with chunked mask broadcasts, dropping candidates from the unvisited pool as
soon as they are hit, so dense levels cost far less than |frontier| x |V|.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .closedform import DiameterResult
from .cyclic import CycleParams, StableSet, reflect_mask, rol_mask, stable_masks
from .errors import InvariantError, ParameterError

# Frontier masks broadcast per scan; 64 keeps each outer product around
# |V| x 64 x 8B, i.e. ~35 MB for the largest acceptance graph.
_CHUNK = 64


@dataclass(frozen=True)
class DistanceRecord:
    """BFS result for one pair; distance None marks unreachable."""

    a: StableSet
    b: StableSet
    distance: int | None


def adjacent(a: StableSet, b: StableSet) -> bool:
    """True iff the two vertices are disjoint."""
    if a.params != b.params:
        raise ParameterError("vertices come from different SG(n,k)")
    return not a.mask & b.mask


def _advance(frontier_masks: np.ndarray, cand_masks: np.ndarray) -> np.ndarray:
    """Boolean array over candidates: adjacent to some frontier vertex."""
    hit = np.zeros(cand_masks.size, dtype=bool)
    alive = np.arange(cand_masks.size)
    live = cand_masks
    for s in range(0, frontier_masks.size, _CHUNK):
        chunk = frontier_masks[s : s + _CHUNK]
        newly = ((live[:, None] & chunk[None, :]) == 0).any(axis=1)
        if newly.any():
            hit[alive[newly]] = True
            keep = ~newly
            alive = alive[keep]
            live = live[keep]
            if not alive.size:
                break
    return hit


def bfs_levels(masks: np.ndarray, src: int, target: int | None = None) -> np.ndarray:
    """BFS levels from src in the disjointness graph on `masks` (uint64).

    -1 marks vertices not reached; the search stops once target is reached.
    This is the package's one BFS engine: `SchrijverGraph` runs it on its
    vertex masks, and induced subgraphs run it on a subset of them.
    """
    dist = np.full(masks.size, -1, dtype=np.int8)
    dist[src] = 0
    frontier = masks[src : src + 1]
    unvisited = np.flatnonzero(dist < 0)
    level = 0
    while unvisited.size and (target is None or dist[target] < 0):
        level += 1
        hit = _advance(frontier, masks[unvisited])
        if not hit.any():
            break
        new = unvisited[hit]
        dist[new] = level
        frontier = masks[new]
        unvisited = unvisited[~hit]
    return dist


class SchrijverGraph:
    """Vertex masks of SG(n,k), lexicographic; vertex objects on demand."""

    def __init__(self, params: CycleParams):
        self.params = params
        self._masks = stable_masks(params)

    @cached_property
    def vertices(self) -> list[StableSet]:
        return [StableSet(self.params, m) for m in self._masks.tolist()]

    def __len__(self) -> int:
        return len(self._masks)

    def _vertex(self, i: int) -> StableSet:
        return StableSet(self.params, int(self._masks[i]))

    def vertex_index(self, s: StableSet) -> int:
        if s.params != self.params:
            raise ParameterError("vertex parameters do not match this graph")
        hit = np.flatnonzero(self._masks == np.uint64(s.mask))
        if not hit.size:
            raise ParameterError(f"{s} is not a vertex of SG{self.params}")
        return int(hit[0])

    def neighbor_indices(self, s: StableSet) -> np.ndarray:
        return np.flatnonzero((self._masks & np.uint64(s.mask)) == 0)

    def neighbors(self, s: StableSet) -> list[StableSet]:
        return [self._vertex(i) for i in self.neighbor_indices(s)]

    def degree(self, s: StableSet) -> int:
        return int(self.neighbor_indices(s).size)

    def distances_from(self, source: int | StableSet) -> np.ndarray:
        """Exact BFS distances from one vertex; -1 where unreachable."""
        src = source if isinstance(source, int) else self.vertex_index(source)
        return bfs_levels(self._masks, src)

    # -- distance, eccentricity, diameter ------------------------------------

    def bfs_distance(self, a: StableSet, b: StableSet) -> DistanceRecord:
        ib = self.vertex_index(b)
        d = int(bfs_levels(self._masks, self.vertex_index(a), target=ib)[ib])
        return DistanceRecord(a, b, None if d < 0 else d)

    def eccentricity(self, source: int | StableSet) -> int | None:
        """Max distance from source; None when some vertex is unreachable."""
        dist = self.distances_from(source)
        if (dist < 0).any():
            return None
        return int(dist.max())

    def orbit_representatives(self) -> list[int]:
        """One vertex index per dihedral orbit.

        Enumeration is lexicographic, so the first vertex met in each orbit
        is exactly its canonical form.
        """
        n = self.params.n
        covered: set[int] = set()
        reps: list[int] = []
        for i, mask in enumerate(self._masks.tolist()):
            if mask not in covered:
                reps.append(i)
                for base in (mask, reflect_mask(mask, n)):
                    covered.update(rol_mask(base, shift, n) for shift in range(n))
        return reps

    def diameter_bruteforce(self, orbit_reduction: bool = True) -> DiameterResult:
        """Exact diameter: max eccentricity over orbit representatives.

        Graph automorphisms preserve eccentricity, so one source per
        dihedral orbit suffices; a flag disables the reduction for
        validation runs.
        """
        if not len(self):
            raise ParameterError(f"SG({self.params.n},{self.params.k}) has no vertices")
        sources = (
            self.orbit_representatives()
            if orbit_reduction
            else range(len(self))
        )
        best = -1
        witness = (0, 0)
        for src in sources:
            dist = self.distances_from(src)
            if (dist < 0).any():
                raise InvariantError(
                    f"SG({self.params.n},{self.params.k}) is disconnected"
                )
            far = int(dist.max())
            if far > best:
                best = far
                witness = (src, int(dist.argmax()))
        return DiameterResult(
            self.params.n,
            self.params.k,
            best,
            best,
            "bfs",
            witness=(self._vertex(witness[0]), self._vertex(witness[1])),
        )

    def all_distances(self) -> np.ndarray:
        """Full distance matrix (int8, -1 unreachable); small graphs only."""
        count = len(self)
        if count > 6000:
            raise ParameterError(
                f"refusing an all-pairs matrix for {count} vertices"
            )
        out = np.empty((count, count), dtype=np.int8)
        for i in range(count):
            out[i] = self.distances_from(i)
        return out
