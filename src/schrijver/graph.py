"""SG(n,k) as an explicit graph: the exact oracle for every constructive claim.

The graph holds only the uint64 vertex masks; `StableSet` objects are built
on demand.  Adjacency is mask disjointness; no adjacency lists are stored.

* `pair_distance` (`bfs_distance`) is a bidirectional BFS.  Both ends draw
  their next level from one pool of masks that neither has visited; the end
  with the smaller frontier takes an `_advance` step, a top-down scan of
  candidates against the frontier in chunked mask broadcasts, and the search
  stops when `_touches` finds a disjoint pair across the two frontiers.
* Every full BFS, from one source (`distances_from`) or many
  (`diameter_bruteforce`, `all_distances`, the sweeps of `suites`), is one
  `_Sweep`.  It cuts its sources into batches (as in MS-BFS), and
  `_lattice_levels` takes the levels of one batch.  The frontier, the
  unvisited cells, the levels and the residue are (source, column) C-order
  matrices, so every array pass runs along the vertices of a row, not
  along the batch's sources.  The columns are the vertices in vertex
  order, or in orbit order in an orbit-reduced diameter ("The sweep plan").
  - Levels 0 and 1 come from the masks: the source, and the masks disjoint
    from it.
  - Level 2 comes from the common-neighbour table, if the sweep has one.
    Vertices s and v share a neighbour iff some mask lies inside ~s & ~v,
    which depends on s | v alone, so one bit per subset W of the ground
    set, set iff some mask lies inside W (`cover_table`), answers it for
    every source at once.  The table is read as bytes, bit i at bit i & 7
    of byte i >> 3, and each complement is split once into its byte index
    (uint32) and its bit index (uint8).  AND distributes over both, so the
    cell (s, v) reads table[byte_s & byte_v] >> (bit_s & bit_v) & 1, with
    no shift, mask or cast of its own.
  - Before each further level L + 1, the completion test: an unvisited
    vertex u with a visited rotation partner (u turned by +-1 on the cycle)
    is at level L + 1.  A 2-stable set never meets its one-step rotation, so
    a partner w is a neighbour, and level(w) <= L < level(u) gives level(u)
    = L + 1.  A rotation that is not a vertex of the mask array, or that
    meets u (both happen on induced subsets), is replaced by u itself, which
    certifies nothing.  If the test places every unvisited cell, the batch
    ends.
  - Otherwise the residue, the vertices with a cell the test left open,
    takes one of three steps, as `_Sweep.closer` decides:
    - a scan (`_reach`), a bottom-up BFS step (Beamer, Asanovic &
      Patterson, SC 2012) over the residue alone: a residue cell (u, s) is
      at level L + 1 iff some mask of source s's frontier avoids u, so each
      residue vertex ORs the bit-packed frontier columns of the masks it
      avoids;
    - a lattice pass, subset inclusion-exclusion (Bjorklund-Husfeldt-
      Koivisto) on the down-closed family F of all subsets of the vertex
      masks: a superset-sum pass over F gives g(S) = #{u in frontier :
      S <= u} for every S in F, and a Moebius (subset-difference) pass then
      gives, at each vertex v, sum over S <= v of (-1)^(|v|-|S|) g(S) =
      (-1)^|v| #{u in frontier : u & v = 0}; only whether that is zero
      matters;
    - an `_advance` step per source, from its frontier over its own
      residue cells.

Counts are kept modulo 2^16 when no count can reach 2^16, and modulo 2^32
otherwise.  The count at vertex v, #{u in frontier : u & v = 0}, is at most
|V| - 1, and at most C(|U| - k, k) when the masks are k-sets with union U:
the k-sets of U that avoid v.  That is 50 388 for the 68 952 vertices of
SG(26,7), but 77 520 for SG(27,7).  Both passes use only additions and
subtractions, so the result is exact modulo that power of two; the true
count is below the modulus, so it is nonzero exactly when the stored one is.

The sweep plan.  `_Sweep(masks, sources, orbits)` decides everything once,
from the masks, the number of sources, the orbits if given and the CPUs, so
induced subgraphs get the same plan, and every path gives the same rows.
The measurements behind each constant are in the CHANGES.md entries cited
at it.
- One source builds neither the table, F nor the rotation partners, which
  cost more than a single BFS saves: each of its levels past 1 is an
  `_advance` step over the unvisited vertices.
- Two or more sources build the table when its 2^n bits fit `_TABLE_BYTES`
  and come to at most `_TABLE_RATIO` bytes a vertex.
- F is used while |F| <= `_LATTICE_RATIO` |V|.  The first batch that needs a
  pass builds it, layer by layer, giving up as soon as it passes the cap.
- With no table, each open level takes a lattice pass, or, with F over its
  cap, `_advance` steps.  With a table, a residue of at most |V| /
  `_SCAN_RATIO` vertices is scanned; while F is not built, so is a residue
  of up to `build_rows` more, one batch's share of the build.  A larger
  residue takes a pass, or a scan when F is over its cap.
- An orbit-reduced diameter gives the sweep the orbit representatives r_0 <
  r_1 < ... as sources, and each vertex's orbit.  With a table and more
  than one batch, the columns go in orbit order: the vertices by the batch
  of their orbit, ascending inside each batch's group (a full orbit-major
  order made the table lookup about twice as slow per cell: it lost the
  locality of vertex order).  A batch whose first source is r_b keeps the
  columns of the orbits from b on and skips the rest.  The diameter and its
  witness, the first row reaching D and that row's first vertex at D, stay
  the same:
  - a pair (r_i, v) with v in an earlier orbit j has the distance of a pair
    (r_j, w), since an automorphism takes v to r_j, so row j reaches it;
  - so if row i is the first to reach D, every vertex at distance D from
    r_i lies in an orbit from i on, a column that row i's batch kept.
  Levels 0 to 2 and the completion test read each cell on its own, and a
  rotation partner lies in its vertex's orbit, so they are exact on the
  kept columns.  A scan or a lattice pass reads the whole frontier (a sweep
  with a table takes no `_advance` step), so a batch that needs one first
  takes levels 0 to 2 of its skipped columns and joins them to the kept
  ones.

Threads.  The batches of one sweep are independent and spend their time in
NumPy array passes, which release the interpreter lock.  With c CPUs and b
batches, h = min(c, b) - 1 helper threads join the calling thread, but only
in a sweep without a table or of at least `_HELPER_VERTICES` vertices.
Batches go in rounds of h + 1: the calling thread computes the first batch
of each round and the helpers the other h, and the round's batches are
yielded in source order before the next round is submitted.  So at most
h + 1 batches are in flight, and `diameter_bruteforce`'s witness comes from
the same rows in the same order as with one CPU.  The calling thread works
instead of waiting on a pool of c threads because each new thread also
costs a malloc arena.  With no helper, the calling thread runs every batch
and no pool is set up; a one-source sweep, such as `distances_from`, is one
batch.  The rotation partners and F are built under a lock by the first
batch that needs them, so at most once per sweep.  Each batch tallies what
it ran, and the calling thread adds the tallies into `_Sweep.work`, so the
tally does not depend on how the threads interleave.  The helpers are
joined when the generator of batches finishes or is closed.
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .closedform import DiameterResult
from .cyclic import CycleParams, StableSet, reflect_mask, rol_mask, stable_masks
from .errors import InvariantError, ParameterError

# Frontier masks broadcast per scan; 64 keeps each outer product around
# |V| x 64 x 8B, i.e. ~35 MB for the largest acceptance graph.
_CHUNK = 64

# F is used while |F| <= 16 |V|: past about that ratio a lattice pass per
# source costs about as much as `_advance` ("Batched subset-lattice BFS for
# multi-source sweeps" in CHANGES.md).
_LATTICE_RATIO = 16

# Byte budget of a lattice pass's count matrix (|F| rows x source columns).
# A row is as many whole 32-byte blocks as fit, and at least one
# (`SubsetLattice.width`); a batch wider than that takes several passes per
# level.  Moving rows with `take` and `put` sets the kernel's cost, and
# 32-byte rows move the cheapest per source ("Lattice BFS in 32-byte count
# rows").
_LATTICE_BYTES = 1 << 20

# Byte budget of the common-neighbour table: 2^n bits, so n <= 27, and the
# lookup's uint32 byte indices hold any n it allows ("Level 2 of every
# multi-source sweep from one common-neighbour bit table").
_TABLE_BYTES = 1 << 24

# At most this many table bytes a vertex, so that the build costs less per
# vertex than building F, and small induced-subset sweeps over a wide ground
# set build no table (same entry).
_TABLE_RATIO = 256

# With a table, a residue of at most |V| / 32 vertices is scanned instead of
# given a lattice pass: a scan's cost grows with the residue, a pass's does
# not, and 1/32 lies below every measured break-even ("Finish a sweep level
# from the completion test's residue").
_SCAN_RATIO = 32

# Building F costs about as much as scanning this many residue vertices, so
# while F is not built each of a sweep's b batches may scan 1024 / b more
# ("Diameter sweeps stop paying fixed costs").
_BUILD_ROWS = 1024

# Sources per batch: 16, or as many multiples of 16 as fit 2^17 (source,
# vertex) cells when |V| is small; wider batches won no cell for certain and
# raised the peak RSS ("Source-major sweep batches").  A residue scan takes
# at most as many (row, mask) cells per chunk.
_BATCH_CELLS = 1 << 17

# A sweep with a table starts helper threads from this many vertices on; one
# without a table always may.  A helper's malloc arena faults its
# temporaries in anew, which costs more than the short table batches of
# smaller sweeps save ("Diameter sweeps stop paying fixed costs").
_HELPER_VERTICES = 1 << 15


@dataclass(frozen=True)
class DistanceRecord:
    """BFS result for one pair; distance None marks unreachable."""

    a: StableSet
    b: StableSet
    distance: int | None


def _advance(frontier_masks: np.ndarray, cand_masks: np.ndarray) -> np.ndarray:
    """Boolean array over candidates: adjacent to some frontier vertex.

    The top-down step of `pair_distance` and of a sweep with neither a
    table nor a lattice.  A one-mask frontier (each end's first step in
    `pair_distance`) is one comparison; larger ones are scanned in chunks.
    """
    if frontier_masks.size == 1:
        return (cand_masks & frontier_masks[0]) == 0
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


def _touches(one: np.ndarray, other: np.ndarray) -> bool:
    """True iff some mask of `one` is disjoint from some mask of `other`.

    Chunks of the smaller array go against the whole larger one, and the
    first chunk holding a disjoint pair ends the test.
    """
    if one.size > other.size:
        one, other = other, one
    for s in range(0, one.size, _CHUNK):
        if ((other[:, None] & one[None, s : s + _CHUNK]) == 0).any():
            return True
    return False


def pair_distance(masks: np.ndarray, src: int, dst: int) -> int:
    """Distance from src to dst on `masks` by bidirectional BFS; -1 if none.

    Each end keeps a frontier, and their depths da, db keep dist > da + db.
    Once frontier masks of the two ends are disjoint (`_touches`), dist =
    da + db + 1 (a shortest path has a vertex at da from src next to one at
    db from dst).  Otherwise dist > da + db + 1, so the ball of radius
    da + 1 around src misses the ball of radius db around dst: both ends
    draw their next level from one pool of the masks neither has visited,
    and the end with the smaller frontier takes an `_advance` step.  The
    pool holds masks, not indices, so a level's new frontier and the next
    pool are both split off it.
    """
    if src == dst:
        return 0
    keep = np.ones(masks.size, dtype=bool)
    keep[[src, dst]] = False
    pool = masks[keep]
    fronts = [masks[src : src + 1], masks[dst : dst + 1]]
    depth = 0  # da + db
    while not _touches(*fronts):
        end = 0 if fronts[0].size <= fronts[1].size else 1
        hit = _advance(fronts[end], pool)
        fronts[end] = pool[hit]
        if not fronts[end].size:
            return -1
        pool = pool[~hit]
        depth += 1
    return depth + 1


@dataclass(frozen=True)
class SubsetLattice:
    """The down-closed family F of all subsets of some vertex masks of one size.

    `sets` is F in ascending order and `vertex_rows` the row of each vertex
    in it; `pairs` holds, per ground-set element i, the rows of S - {i} and
    of S for every S in F that contains i.  `count_type` is uint16 when the
    module docstring's bound on a count is below 2^16, else uint32.
    """

    sets: np.ndarray
    vertex_rows: np.ndarray
    pairs: tuple[tuple[np.ndarray, np.ndarray], ...]
    count_type: type

    @property
    def width(self) -> int:
        """Sources per pass: as many whole 32-byte blocks of counts per row
        as fit in `_LATTICE_BYTES`, and at least one."""
        row_bytes = 32 * max(1, _LATTICE_BYTES // (32 * self.sets.size))
        return row_bytes // np.dtype(self.count_type).itemsize


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending; a sort and one comparison pass, which
    runs several times faster here than `np.unique`."""
    values = np.sort(values, axis=None)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def subset_lattice(masks: np.ndarray) -> SubsetLattice | None:
    """F for `masks`, or None as soon as |F| passes the cost rule's cap.

    F is built one layer per set size, from the masks down to the empty set,
    so the layers are disjoint.  None also when the masks differ in size.
    """
    cap = _LATTICE_RATIO * masks.size
    union = int(np.bitwise_or.reduce(masks)) if masks.size else 0
    bits = [np.uint64(1 << i) for i in range(union.bit_length()) if union >> i & 1]
    layer = _distinct(masks)
    layers = [layer]
    size = layer.size
    k = int(layer[0]).bit_count() if layer.size else 0
    for j in range(k, 0, -1):
        # the next layer: each j-set less one element, taking its lowest
        # remaining bit j times
        rest = layer.copy()
        children = np.empty((j, layer.size), dtype=layer.dtype)
        for child in children:
            low = rest & -rest
            np.bitwise_xor(layer, low, out=child)
            rest ^= low
        if rest.any() or not low.all():  # some mask has more or fewer than j
            return None
        layer = _distinct(children)
        layers.append(layer)
        size += layer.size
        if size > cap:
            return None
    sets = np.sort(np.concatenate(layers))
    pairs = []
    for bit in bits:
        upper = np.flatnonzero(sets & bit)
        pairs.append((np.searchsorted(sets, sets[upper] ^ bit), upper))
    bound = min(masks.size - 1, comb(len(bits) - k, k))
    count_type = np.uint16 if bound < 1 << 16 else np.uint32
    vertex_rows = np.empty(masks.size, dtype=np.intp)
    order = np.argsort(masks)  # needles in ascending order, as in `_rotation_partners`
    vertex_rows[order] = np.searchsorted(sets, masks[order])
    return SubsetLattice(sets, vertex_rows, tuple(pairs), count_type)


def _rotation_partners(masks: np.ndarray) -> np.ndarray:
    """Two rows of vertex indices: each vertex's rotation by +1 and by -1,
    or the vertex itself.

    The rotations are taken on the cycle 1..n of the masks' highest element
    n.  A rotation counts only if it is a vertex of `masks` and disjoint
    from the vertex, so a partner other than the vertex itself is always a
    neighbour.  On a full SG(n,k) both rotations of every vertex are its
    partners: a 2-stable set never meets its one-step rotation.  Only the
    +1 row is looked up; the -1 row is its inverse, since vertex j is the
    +1 partner of i iff i is the -1 partner of j.
    """
    # the result is allocated before the temporaries, so that freeing them
    # leaves no hole below it: allocated after them, it raised the peak RSS
    # of the `diameters` benchmark workload by 4 MB, 7 % (glibc, 2-vCPU
    # AMD EPYC)
    partners = np.empty((2, masks.size), dtype=np.intp)
    partners[:] = np.arange(masks.size)
    n = int(np.bitwise_or.reduce(masks)).bit_length()
    if not n:  # no masks, or only empty ones
        return partners
    order = np.argsort(masks)
    ascending = masks[order]
    # looked up in ascending order: about twice as fast as in vertex order,
    # where each binary search starts cold
    turned = rol_mask(masks, 1, n)
    by_value = np.argsort(turned)
    wanted = turned[by_value]
    at = np.minimum(np.searchsorted(ascending, wanted), masks.size - 1)
    found = (ascending[at] == wanted) & ((wanted & masks[by_value]) == 0)
    up, down = partners
    up[by_value[found]] = order[at[found]]
    down[order[at[found]]] = by_value[found]
    return partners


# For element i < 6 of the ground set, the bits W of a uint64 word that lack
# i: `cover_table`'s in-word passes move each of them to W + {i}.
_WITHOUT = tuple(
    np.uint64(m)
    for m in (
        0x5555555555555555,
        0x3333333333333333,
        0x0F0F0F0F0F0F0F0F,
        0x00FF00FF00FF00FF,
        0x0000FFFF0000FFFF,
        0x00000000FFFFFFFF,
    )
)


def cover_table(masks: np.ndarray, n: int) -> np.ndarray:
    """Bit W set iff some mask lies inside W, over the 2^n subsets W of the
    ground set {0..n-1} of `masks`: uint64 words, bit W in word W >> 6.

    The masks' own bits are set, then one OR pass per element i lifts each
    set bit W to W + {i}: shifts inside a word for i < 6, whole words
    2^(i-6) apart for the rest.
    """
    words = np.zeros(max(1, 2**n >> 6), dtype=np.uint64)
    bits = np.uint64(1) << (masks & np.uint64(63))
    np.bitwise_or.at(words, (masks >> np.uint64(6)).astype(np.intp), bits)
    for i in range(min(n, 6)):
        words |= (words & _WITHOUT[i]) << np.uint64(1 << i)
    for i in range(6, n):
        halves = words.reshape(-1, 2, 2 ** (i - 6))  # without i, with i
        halves[:, 1] |= halves[:, 0]
    return words


class _Sweep:
    """The plan of one full BFS call, and what its batches share.

    It is made once, from the masks, the sources, each vertex's orbit as an
    index into the sources if given, and `_cpus()` (module docstring, "The
    sweep plan"): the `batches` of sources; the vertex `order` of the
    columns and each vertex's column `position` (both None in vertex
    order), the masks in vertex order (`vertex_masks`) and in column order
    (`masks`), each batch's sources as `columns` and its first kept column
    in `starts`; the
    common-neighbour `table`, with each mask's complement on the ground set
    split into a `byte` index and a `bit` index (all three None without a
    table); `build_rows`, one batch's share of the lattice build in scanned
    residue vertices; and `helpers`, the helper threads that `levels` runs
    the batches on.  `built` holds the rotation partners and the lattice
    once a batch has built them; a one-source sweep holds both as None from
    the start.  `work` tallies the builds, the joins and the steps that the
    batches ran.
    """

    def __init__(self, masks: np.ndarray, sources, orbits: np.ndarray | None = None):
        sources = list(sources)
        width = 16 * max(1, _BATCH_CELLS // (16 * max(1, masks.size)))
        self.batches = [sources[start : start + width] for start in range(0, len(sources), width)]
        self.build_rows = _BUILD_ROWS // max(1, len(self.batches))
        self.built = {} if len(sources) > 1 else {"partners": None, "lattice": None}
        self.work = Counter()
        self._lock = threading.Lock()
        n = int(np.bitwise_or.reduce(masks)).bit_length()
        table = len(sources) > 1 and max(8, 2**n // 8) <= min(_TABLE_BYTES, _TABLE_RATIO * masks.size)
        self.vertex_masks = masks
        self.order = self.position = None
        self.starts = [0] * len(self.batches)
        self.columns = self.batches
        if table and orbits is not None and len(self.batches) > 1:
            self.order, self.starts = _orbit_order(orbits, width, len(self.batches))
            masks = masks[self.order]
            self.position = np.empty_like(self.order)
            self.position[self.order] = np.arange(masks.size)
            self.columns = [self.position[batch] for batch in self.batches]
        self.masks = masks
        self.table = self.byte = self.bit = None
        if table:
            # bit i of the table is bit i & 7 of byte i >> 3 in little-endian
            # order, and AND distributes over both parts of i = ~s & ~v
            self.table = cover_table(masks, n).astype("<u8", copy=False).view(np.uint8)
            comp = (np.uint64(2**n - 1) ^ masks).astype(np.uint32)
            self.byte = comp >> 3
            self.bit = (comp & 7).astype(np.uint8)
            self.work["table"] += 1
        self.helpers = 0
        if self.table is None or masks.size >= _HELPER_VERTICES:
            self.helpers = max(0, min(_cpus(), len(self.batches)) - 1)

    def build(self, name: str, work: Counter):
        """`built[name]`, "partners" or "lattice": built by the first batch
        that asks, which counts the build in its `work`."""
        if name not in self.built:
            with self._lock:
                if name not in self.built:
                    make = _rotation_partners if name == "partners" else subset_lattice
                    self.built[name] = make(self.masks)
                    work[name] += 1
        return self.built[name]

    def closer(self, residue: int, work: Counter) -> str:
        """What closes an open level of a batch whose residue has `residue`
        vertices: "scan", "pass" or "advance".  Asking whether a pass does
        builds the lattice if no batch has yet.  Whether it is built is read
        without the lock: a stale read changes the step, not the rows."""
        if self.table is not None:
            build = 0 if "lattice" in self.built else self.build_rows
            if _SCAN_RATIO * (residue - build) <= self.masks.size:
                return "scan"
        if self.build("lattice", work) is not None:
            return "pass"
        return "advance" if self.table is None else "scan"

    def reach(self, rows: np.ndarray, frontier: np.ndarray) -> np.ndarray:
        """`_reach` of the columns `rows`, scanned against the masks in
        vertex order: against orbit order, the scans of the SG(23,8)
        diameter took 16 % longer."""
        if self.order is not None:
            rows = self.order[rows]
        return _reach(self.vertex_masks, rows, frontier, self.position)

    def levels(self) -> Iterator[tuple[list, np.ndarray]]:
        """(batch, levels) for every batch, in order: its sources and its
        (source, column) level matrix, whose columns run from the batch's
        first kept column to the last (all of them, in vertex order, without
        an orbit order), in rounds of `helpers` + 1 (module docstring,
        "Threads")."""
        jobs = list(zip(self.batches, self.columns, self.starts))
        if not self.helpers:
            for batch, columns, start in jobs:
                yield batch, self._done(_lattice_levels(self, columns, start))
            return
        # imported here: at module top it costs every import about 10 ms
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(self.helpers) as pool:
            for first in range(0, len(jobs), self.helpers + 1):
                (batch, columns, start), *rest = jobs[first : first + self.helpers + 1]
                futures = [pool.submit(_lattice_levels, self, *job[1:]) for job in rest]
                yield batch, self._done(_lattice_levels(self, columns, start))
                for job, future in zip(rest, futures):
                    yield job[0], self._done(future.result())

    def rows(self) -> Iterator[tuple[int, np.ndarray]]:
        """(source, levels) for every source, in order (`bfs_sweeps`): whole
        rows in vertex order, for a sweep made without orbits."""
        for batch, levels in self.levels():
            yield from zip(batch, levels)

    def _done(self, done: tuple[np.ndarray, Counter]) -> np.ndarray:
        """A batch's levels; its tally joins `work` here, on the calling
        thread."""
        levels, work = done
        self.work.update(work)
        return levels


def _orbit_order(orbits: np.ndarray, width: int, batches: int) -> tuple[np.ndarray, list[int]]:
    """The sweep's columns in orbit order, and the first column of each
    batch's group: the vertices ordered by the batch of their orbit (orbit
    i goes in batch i // width), ascending inside each group.  A stable sort
    of a key this small is a radix sort."""
    group = (orbits // width).astype(np.min_scalar_type(batches))
    order = np.argsort(group, kind="stable")
    ends = np.cumsum(np.bincount(group, minlength=batches))
    return order, [0, *ends[:-1].tolist()]


def _disjoint_counts(lat: SubsetLattice, frontier: np.ndarray) -> np.ndarray:
    """At each vertex v and source column, +-#{u in frontier : u & v = 0}.

    `frontier` is a (vertex, source) bool matrix in any memory order (the
    level loop passes the transpose of its rows).  A |F| x source work
    matrix of counts takes a superset-sum pass and then a Moebius pass over
    F (module docstring).  Rows are gathered with `take` and written back
    with `put` through a one-item-per-row view, which is several times
    faster than row fancy indexing at these widths.
    """
    counts = np.zeros((lat.sets.size, frontier.shape[1]), dtype=lat.count_type)
    rows = counts.view(np.dtype((np.void, counts.itemsize * counts.shape[1]))).reshape(-1)

    def write(at: np.ndarray, values: np.ndarray) -> None:
        rows.put(at, values.view(rows.dtype).reshape(-1))

    write(lat.vertex_rows, frontier.astype(counts.dtype, order="C"))
    for lower, upper in lat.pairs:  # superset sums: frontier sets above S
        total = counts.take(lower, axis=0)
        total += counts.take(upper, axis=0)
        write(lower, total)
    for lower, upper in lat.pairs:  # signed subset sums (Moebius)
        diff = counts.take(upper, axis=0)
        diff -= counts.take(lower, axis=0)
        write(upper, diff)
    return counts.take(lat.vertex_rows, axis=0)


def _reach(
    masks: np.ndarray, rows: np.ndarray, frontier: np.ndarray, position: np.ndarray | None = None
) -> np.ndarray:
    """(row, source) bool matrix: whether vertex `rows[i]` is disjoint from
    some vertex of source column s of the (vertex, source) bool matrix
    `frontier`, in any memory order (the level loop passes the transpose
    of its rows).  Vertex v is row `position[v]` of `frontier`, or row v
    when `position` is None.

    A bottom-up BFS step over the given rows only.  The frontier columns are
    packed to bits, the rows are scanned against all masks, `_BATCH_CELLS`
    (row, mask) cells at a time, and each row ORs the packed columns of the
    masks it avoids.  A row that avoids none reaches no column.
    """
    packed = np.packbits(frontier, axis=1, bitorder="little")
    if position is not None:
        packed = packed[position]
    out = np.zeros((rows.size, packed.shape[1]), dtype=np.uint8)
    step = max(1, _BATCH_CELLS // masks.size)
    for start in range(0, rows.size, step):
        block = masks[rows[start : start + step]]
        # flat indices: `np.nonzero` of the 2-D hits took 1.5-2x as long
        i, j = np.divmod(np.flatnonzero((block[:, None] & masks[None, :]) == 0), masks.size)
        counts = np.bincount(i, minlength=block.size)
        some = counts > 0
        if some.any():
            # segments in row order; only the nonempty ones are reduced
            first = (np.cumsum(counts) - counts)[some]
            out[start : start + step][some] = np.bitwise_or.reduceat(packed[j], first, axis=0)
    return np.unpackbits(out, axis=1, count=frontier.shape[1], bitorder="little").view(bool)


def _first_levels(sweep: _Sweep, src: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, ...]:
    """The frontier, the unvisited cells and the levels of sources `src`
    (sweep columns) after level 2 when the sweep has a table, else after
    level 1: (source, column) matrices over the columns lo..hi-1.  Every
    cell depends on its own source and vertex alone.  A batch's sources lie
    in its kept columns, none in those it skipped."""
    masks = sweep.masks
    # a vertex's level counts the levels that start with it unvisited: 1 for
    # all but the source, then one more after each level that leaves it so
    frontier = (masks[src][:, None] & masks[None, lo:hi]) == 0
    unvisited = ~frontier
    levels = np.ones(frontier.shape, dtype=np.int8)
    if lo <= src[0] < hi:
        own = np.arange(src.size), src - lo
        unvisited[own] = False
        levels[own] = 0
    levels += unvisited
    if sweep.table is not None:
        # v shares a neighbour with s iff some mask avoids s | v: table bit
        # ~s & ~v, which is bit (~s & ~v) & 7 of byte (~s & ~v) >> 3
        common = np.take(sweep.table, sweep.byte[src][:, None] & sweep.byte[None, lo:hi])
        common >>= sweep.bit[src][:, None] & sweep.bit[None, lo:hi]
        common &= 1
        frontier = unvisited & common.view(bool)
        unvisited ^= frontier
        levels += unvisited
    return frontier, unvisited, levels


def _residue(unvisited: np.ndarray, partners: np.ndarray | None, lo: int) -> np.ndarray:
    """The completion test's residue on the columns lo.. of a batch: the
    unvisited cells with no visited rotation partner, or every unvisited
    cell when there are no partners.  A visited neighbour is at level <= L
    and an unvisited vertex beyond L, so an unvisited vertex with a visited
    partner is at L + 1.  The columns hold whole orbits, so their partners
    lie among them."""
    if partners is None:
        return unvisited
    up, down = partners[:, lo : lo + unvisited.shape[1]]
    if lo:
        up, down = up - lo, down - lo
    return unvisited & unvisited.take(up, axis=1) & unvisited.take(down, axis=1)


def _lattice_levels(sweep: _Sweep, sources, start: int = 0) -> tuple[np.ndarray, Counter]:
    """BFS levels for one batch of a sweep, and what the batch ran: a
    (source, column) int8 matrix whose rows are the sources' levels over
    the sweep columns from `start` on, and a tally of its builds, joins
    ("join", the skipped columns 0..start-1 added), lattice passes ("pass",
    one per `lat.width` sources), residue scans and `_advance` steps (one
    per source).  `sources` are sweep columns.

    Level 1 comes from the masks and level 2 from the table, if the sweep
    has one.  Before each further level, the completion test; its residue
    takes the step that `sweep.closer` picks, after the skipped columns
    join the kept ones (module docstring).
    """
    masks = sweep.masks
    work = Counter()
    src = np.asarray(sources, dtype=np.intp)
    frontier, unvisited, levels = _first_levels(sweep, src, start, masks.size)
    # with columns skipped, an empty frontier still leaves a residue to join
    while unvisited.any() and (start or frontier.any()):
        partners = sweep.build("partners", work)
        left = _residue(unvisited, partners, start)
        if partners is not None and not left.any():
            return levels, work
        if start:
            # a step reads the whole frontier: the skipped columns join
            skipped = _first_levels(sweep, src, 0, start)
            skipped += (_residue(skipped[1], partners, 0),)
            frontier, unvisited, levels, left = (
                np.concatenate(parts, axis=1) for parts in zip(skipped, (frontier, unvisited, levels, left))
            )
            start = 0
            work["join"] += 1
        rows = np.flatnonzero(left.any(axis=0))
        step = sweep.closer(rows.size, work)
        if step == "pass":
            lat = sweep.built["lattice"]
            for first in range(0, src.size, lat.width):
                cols = slice(first, first + lat.width)
                frontier[cols] = (_disjoint_counts(lat, frontier[cols].T) != 0).T
                work["pass"] += 1
            frontier &= unvisited
        else:
            reached = unvisited ^ left  # `left` lies inside `unvisited`
            if step == "scan":
                reached[:, rows] |= sweep.reach(rows, frontier.T).T & left[:, rows]
                work["scan"] += 1
            else:
                for s in np.flatnonzero(left.any(axis=1)):
                    cells = np.flatnonzero(left[s])
                    reached[s, cells[_advance(masks[frontier[s]], masks[cells])]] = True
                    work["advance"] += 1
            frontier = reached
        unvisited ^= frontier
        levels += unvisited
    levels[unvisited] = -1
    return levels, work


def _cpus() -> int:
    """CPUs this process may run on; `os.cpu_count()` where the affinity
    call does not exist (macOS, Windows)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def bfs_sweeps(masks: np.ndarray, sources) -> Iterator[tuple[int, np.ndarray]]:
    """Full BFS levels from each source, in order: yields (source, levels),
    an int8 row per source with -1 where unreachable, a view into its
    batch's (source, vertex) matrix.  The `_Sweep` plan decides how."""
    return _Sweep(masks, sources).rows()


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

    def distances_from(self, src: int) -> np.ndarray:
        """Exact BFS distances from vertex index src; -1 where unreachable:
        the one row of a one-source sweep."""
        if not 0 <= src < len(self):
            raise ParameterError(f"vertex index {src} is outside 0..{len(self) - 1}")
        [(_, levels)] = bfs_sweeps(self._masks, [src])
        return levels

    # -- distance, diameter --------------------------------------------------

    def bfs_distance(self, a: StableSet, b: StableSet) -> DistanceRecord:
        d = pair_distance(self._masks, self.vertex_index(a), self.vertex_index(b))
        return DistanceRecord(a, b, None if d < 0 else d)

    def orbit_representatives(self) -> list[int]:
        """One vertex index per dihedral orbit, ascending: the member with the
        orbit's least member sequence."""
        return self._orbits()[0]

    def _orbits(self) -> tuple[list[int], np.ndarray]:
        """The orbit representatives, ascending, and each vertex's orbit as
        an index into them.

        A representative's least member sequence starts with 1, so only the
        vertices holding 1 are compared.  Two k-sets compare
        lexicographically at the least element in which they differ, so the
        smaller sequence has the larger bit-reversed mask (bit i to bit
        n-1-i).  Bit reversal is a reflection of the n-cycle and maps each
        orbit onto itself, so a vertex is its orbit's representative iff its
        bit-reversed mask is the largest of its 2n dihedral images, and that
        largest image names the orbit, the larger for the earlier one.

        Every other vertex turns by one shift onto a vertex holding 1: the
        vertices whose least element is t + 1 come, in lexicographic order,
        after those with a smaller least element, and shifting them down by
        t bits gives, in order, the vertices holding 1 whose masks lie below
        2^(n-t).  No mask wraps, so no rotation is taken per vertex.
        """
        n, k = self.params.n, self.params.k
        held = np.flatnonzero(self._masks & np.uint64(1))
        masks = self._masks[held]
        mirrored = reflect_mask(masks, n)
        largest = np.zeros_like(masks)
        for base in (masks, mirrored):
            for shift in range(n):
                np.maximum(largest, rol_mask(base, shift, n), out=largest)
        # the bit reversal is the mirror image turned back one step
        canonical = rol_mask(mirrored, -1, n) == largest
        names = largest[canonical][::-1]  # ascending
        orbit = names.size - 1 - np.searchsorted(names, largest)
        turned = [orbit[masks < np.uint64(1) << np.uint64(n - t)] for t in range(1, n - 2 * k + 2)]
        return held[canonical].tolist(), np.concatenate([orbit, *turned])

    def diameter_bruteforce(self, orbit_reduction: bool = True) -> DiameterResult:
        """Exact diameter: max eccentricity over orbit representatives.

        Graph automorphisms preserve eccentricity, so one source per
        dihedral orbit suffices, and a batch may leave out the columns of
        the orbits before its first source (module docstring, "The sweep
        plan"); a flag disables the reduction for validation runs.  The
        witness is the first row reaching the maximum and that row's first
        vertex at the maximum.
        """
        if not len(self):
            raise ParameterError(f"SG({self.params.n},{self.params.k}) has no vertices")
        sources, orbits = self._orbits() if orbit_reduction else (range(len(self)), None)
        sweep = _Sweep(self._masks, sources, orbits)
        best = -1
        witness = (0, 0)
        for batch, levels in sweep.levels():
            # one BFS reaches every vertex iff the graph is connected; the
            # first batch keeps every column
            if best < 0 and (levels[0] < 0).any():
                raise InvariantError(
                    f"SG({self.params.n},{self.params.k}) is disconnected"
                )
            far = levels.max(axis=1)
            row = int(far.argmax())
            if far[row] > best:
                best = int(far[row])
                if sweep.order is None:
                    witness = (batch[row], int(levels[row].argmax()))
                else:  # the row's first vertex at the maximum, in vertex order
                    kept = sweep.order[len(self) - levels.shape[1] :]
                    witness = (batch[row], int(kept[levels[row] == best].min()))
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
        for i, dist in bfs_sweeps(self._masks, range(count)):
            out[i] = dist
        return out
