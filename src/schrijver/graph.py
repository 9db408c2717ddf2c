"""SG(n,k) as an explicit graph: the exact oracle for every constructive claim.

The graph holds only the uint64 vertex masks; `StableSet` objects are built
on demand.  Adjacency is mask disjointness; no adjacency lists are stored.
Every full BFS, from one source or many, runs one level loop,
`_lattice_levels`, over a batch of sources (as in MS-BFS); only a single
pair has its own kernel.

* `pair_distance` (`bfs_distance`) is a bidirectional BFS.  It grows the
  end with the smaller frontier from one pool that neither end has
  visited, one `_advance` step at a time, and stops when `_touches` finds
  a disjoint pair across the two frontiers; that test returns at the first
  chunk of the smaller frontier that holds one.  `_advance` scans
  candidates against a frontier with chunked mask broadcasts, dropping
  candidates as soon as they are hit: up to |frontier| x |candidates| mask
  tests, O(|V|) memory.
* `_lattice_levels` (`distances_from` as a batch of one source, and
  `bfs_sweeps`) takes the levels in four steps.  Its bookkeeping is
  (source, vertex) C-order matrices, so every array pass over a batch runs
  its inner loop along the |V| vertices of a row rather than along the
  batch's 16 sources.  With the byte/bit split below, levels 1 and 2 of
  one 16-source batch took 457-466 us against 1768-2261 us in (vertex,
  source) order on SG(22,6), 182-273 against 344-347 on SG(21,7) and
  381-501 against 1402-1471 on SG(22,7) (medians of 31, two runs, one CPU,
  2-vCPU Xeon).
  - Levels 0 and 1 from the masks: the source, and the masks disjoint
    from it, one row per source.
  - Level 2 from the common-neighbour table, if the sweep has one (else
    level 2 is taken as the further levels are).  Vertices s and v share a
    neighbour iff some mask lies inside ~s & ~v, which depends on s | v
    alone.  So one bit array over the 2^n subsets W of the ground set, bit
    W set iff some mask lies inside W (`cover_table`), answers it for every
    source at once: 512 KB at n = 22, 8 MB at n = 26.  The table is read
    as bytes, bit i at bit i & 7 of byte i >> 3, and each complement is
    split once into its byte index (uint32) and its bit index (uint8).
    AND distributes over both, so the cell (s, v) reads
    table[byte_s & byte_v] >> (bit_s & bit_v) & 1, with no shift, mask or
    cast per cell: 457-466 us against 1397-1537 us for levels 1 and 2 of
    a 16-source SG(22,6) batch with per-cell i >> 3 and i & 7.
  - Before each further level L + 1, the completion test: an unvisited
    vertex u with a visited rotation partner (u turned by +-1 on the
    cycle) is at level L + 1.  A 2-stable set never meets its one-step
    rotation, so a partner w is a neighbour, and level(w) <= L < level(u)
    gives level(u) = L + 1.  A rotation that is not a vertex of the mask
    array, or that meets u (both happen on induced subsets), is replaced
    by u itself, which certifies nothing.  The test costs two gathers
    along the rows of the (source, vertex) bool matrix.  If it certifies
    every unvisited cell, the batch ends.  A one-source BFS has no
    partners, so every unvisited cell is residue.
  - Otherwise the residue R, the vertices with a cell the test left
    undecided, is decided in one of three ways.
    - By a scan (`_reach`) when the sweep has a table and |R| <= |V| /
      `_SCAN_RATIO` (32): a bottom-up BFS step (Beamer, Asanovic &
      Patterson, SC 2012) over R alone.  A residue cell (u, s) is at level
      L + 1 iff some mask of source s's frontier avoids u.  The frontier
      columns are packed to bits, R is scanned against the masks in
      chunks, and each residue vertex ORs the packed columns of the masks
      it avoids.  The scan costs about 2-9 ns per (residue vertex, mask)
      cell, so it beats a lattice pass only on small residues (see
      `_SCAN_RATIO`): on SG(20,7), SG(23,8) and SG(17,6), at most 1.2 % of
      |V|.
    - Otherwise by a lattice pass: subset inclusion-exclusion
      (Bjorklund-Husfeldt-Koivisto) on the down-closed family F of all
      subsets of the vertex masks.  A superset-sum pass over F gives g(S)
      = #{u in frontier : S <= u} for every S in F, and a Moebius
      (subset-difference) pass then gives, at each vertex v, sum over S <=
      v of (-1)^(|v|-|S|) g(S) = (-1)^|v| #{u in frontier : u & v = 0}:
      the parity sign of inclusion-exclusion is folded into the
      differences, and only whether the count is zero matters.  A pass
      costs about 2 sum_{S in F} |S| row operations for the batch, and
      memory is fixed in advance.  The lattice is built once per sweep,
      when a batch first needs a pass; with a table, the D <= 3 cells of
      the table grid need it on few or no batches (none on SG(20,7),
      SG(21,7), SG(22,6), SG(22,7) or SG(23,8); SG(19,7) and SG(22,8),
      whose residues pass the ratio, do).
    - With neither a table nor a lattice, by a top-down step per source:
      `_advance` from the source's frontier masks over its own residue
      cells.
  `_reach` and `_disjoint_counts` take the frontier as a (vertex, source)
  view, the transpose of the batch's rows.

Counts are kept modulo 2^16 when no count can reach 2^16, and modulo 2^32
otherwise.  The count at vertex v, #{u in frontier : u & v = 0}, is at most
|V| - 1, and at most C(|U| - k, k) when the masks are k-sets with union U:
the k-sets of U that avoid v.  That is 50 388 for the 68 952 vertices of
SG(26,7), but 77 520 for SG(27,7).  Both passes use only additions and
subtractions, so the result is exact modulo that power of two; the true
count is below the modulus, so it is nonzero exactly when the stored one is.

Cost rule, on the masks alone.  A BFS from one source (`distances_from`,
or a `bfs_sweeps` call with one source) builds neither the table, the
lattice nor the rotation partners (three argsorts over |V|), so each level
past 1 is an `_advance` step over the unvisited vertices.  A sweep of two or more sources builds the table when
its 2^n bits fit `_TABLE_BYTES` (16 MB, so n <= 27) and come to at most
`_TABLE_RATIO` (256) bytes per vertex, so that small induced-subset sweeps
over a wide ground set build none.  The table takes about 4 ns a byte to
build (SG(22,7) 1.6 ms, SG(26,7) 34 ms, SG(27,8) 67 ms; 2-vCPU Xeon), so at
256 bytes a vertex it costs at most about 1 us per vertex, below the
1.4-1.7 us per vertex of `subset_lattice` on SG(22..26,7).  The lattice
runs while |F| <= _LATTICE_RATIO |V|; it is built layer by layer and the
build gives up as soon as it passes the cap.  With no table, every level
past 1 that the completion test leaves undecided takes a lattice pass, or
`_advance` steps when the lattice is over its cap.  With a table, a residue
past `_SCAN_RATIO` takes a lattice pass, or a scan when the lattice is over
its cap.  The rows are the same on every path.  The table and the lattice
are local to one call and never stored on the graph.

Threads: the batches of one `bfs_sweeps` call are independent and spend
their time in NumPy array passes, so they run on every CPU the process may
use.  With c CPUs and b batches, h = min(c, b) - 1 helper threads join the
calling thread.  Batches go in rounds of h + 1: the calling thread computes
the first batch of each round and the helpers the other h, and the round's
rows are yielded in source order before the next round is submitted.  So at
most h + 1 batches are in flight, and `diameter_bruteforce`'s witness (the
first row reaching the maximum, and that row's first argmax) comes from the
same rows in the same order as with one CPU.  One CPU or one batch makes
rounds of one batch, which the calling thread runs with no thread started.
The rotation partners and the lattice of a sweep of two or more sources
are built by the first batch that needs them, under a lock, so at most
once per call; a scan shares nothing but the masks.  The calling thread
works instead of waiting on a pool of c threads because each new thread
also costs a malloc arena: on the
`diameters` benchmark workload a pool of two raised peak RSS by 13.5 %,
the caller plus one helper by 7-8 %.  The helpers are joined when the
generator finishes or is closed.  `distances_from` calls `_lattice_levels`
itself, so a one-source BFS sets up no pool at all.
"""

from __future__ import annotations

import os
import threading
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

# Cost rule for the lattice: it is built while |F| <= 16 |V|.  Per-source
# time of `_advance` over the lattice kernel, measured on a 2-vCPU Xeon with
# the byte budget below, before the table took level 2: SG(22,7) (|F|/|V| =
# 3.6) 5.7x, SG(26,9) (6.9) 5.2x, SG(28,10) (10.1) 3.3x, SG(24,9) (12.7)
# 1.2x, SG(27,10) (14.0) 1.06x; past the cap, SG(20,8) (18.2) 1.09x, SG(23,9)
# (19.3) 0.9x, SG(26,10) (20.7) 0.33x, SG(25,10) (33.3) 0.19x.
_LATTICE_RATIO = 16

# Byte budget of a lattice pass's count matrix (|F| rows x source columns).
# A row is as many whole 32-byte blocks as fit in the budget, and at least
# one (`SubsetLattice.width`); a batch wider than that takes several passes
# per level.  Moving rows with `take` and `put` sets the kernel's cost, and
# 32-byte rows move the cheapest per source: over the rows of one SG(22,7)
# pass on a 2-vCPU Xeon, a `take` plus a `put` cost about 5.3 ns a row at 32
# bytes, 6.9 ns at 30 and 15-17 ns at 64.  So SG(21..26,7) pass 16 sources
# of uint16 counts at a time (a 5 MB matrix at SG(26,7)), and small cells
# more (up to 128 on SG(18,5)).  The gathers of one pass add at most as much
# again: a pass touches only the sets that hold one element.
_LATTICE_BYTES = 1 << 20

# Byte budget of the common-neighbour table: 2^n bits, n <= 27.  The lookup
# keeps byte indices as uint32, which holds any n this budget allows.  At
# n = 27, `diameter --n 27 --k 8 --method bfs` took 1.6-1.8 s against
# 10.2-10.7 s with lattice passes for level 2 (2-vCPU Xeon).
_TABLE_BYTES = 1 << 24

# At most this many table bytes per vertex (module docstring).
_TABLE_RATIO = 256

# With a table, a level whose residue (module docstring) has at most
# |V| / 32 vertices is finished by a scan of the residue instead of a
# lattice pass.  Measured break-even |R| / |V| of one level, scan against
# pass (one CPU, 2-vCPU Xeon): SG(23,8) 0.022, SG(20,7) 0.075, SG(22,8)
# 0.10, SG(19,7) 0.36.  Over the table grid's cells of at most 25 000
# vertices (k <= 8) with the lattice under its cap, a residue is at most
# 0.012 of |V| (SG(17,6), SG(20,7), SG(23,8)) or at least 0.117 (SG(22,8)
# and smaller cells).
_SCAN_RATIO = 32

# Sources per batch: 16, or as many multiples of 16 as fit 2^17 (source,
# vertex) cells when |V| is small.  On a 2-vCPU Xeon, with (source, vertex)
# matrices, neither fixed batches of 32 nor of 64 sources beat 16 on every
# one of the seven `diameters` latency cells (SG(19..22,6), SG(20..22,7))
# and SG(26,7) (diameter medians of five, two runs): on one CPU both lost on
# SG(20,6) and SG(21,6) (4.5-4.9 and 8.5-10.5 ms against 3.5-3.7 and 8.2
# ms), and 64 on SG(26,7) (435-483 ms against 358-375 ms); on two CPUs
# both lost on SG(21,6) and SG(22,6).  Three passes over the job's 38 cells
# peaked at 38.5-38.6 MB RSS with this rule, 38.5-39.2 MB at 16, 44.2-44.4
# MB at 32 and 56-67 MB at 64.  `all_distances` over the nine `sweep`
# benchmark cells (up to 1386 vertices) took 231 ms at 16, 134 ms at 128,
# 151 ms with this rule and 271 ms before the table (vertex-major matrices).
# A residue scan takes at most as many (row, mask) cells per chunk: 2^16 to
# 2^22 cells a chunk scanned SG(22,8) and SG(23,8) equally fast.
_BATCH_CELLS = 1 << 17


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
    partners: a 2-stable set never meets its one-step rotation.
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
    for partner, shift in zip(partners, (1, -1)):
        # looked up in ascending order: about twice as fast as in vertex
        # order, where each binary search starts cold
        turned = rol_mask(masks, shift, n)
        by_value = np.argsort(turned)
        wanted = turned[by_value]
        at = np.minimum(np.searchsorted(ascending, wanted), masks.size - 1)
        found = (ascending[at] == wanted) & ((wanted & masks[by_value]) == 0)
        partner[by_value[found]] = order[at[found]]
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


def _once(build):
    """A function that returns `build()`, calling it on its first call only,
    from whichever thread comes first."""
    lock = threading.Lock()
    built = []

    def get():
        with lock:
            if not built:
                built.append(build())
        return built[0]

    return get


class _Sweep:
    """What the batches of one BFS call share: the masks, the
    common-neighbour table when the cost rule allows it (else None) with
    each mask's complement on the ground set split into a byte index and a
    bit index (else both None), and the rotation partners and the lattice,
    each built on first use.  With `many` false (one source) there is no
    table, and the partners and the lattice are None."""

    def __init__(self, masks: np.ndarray, many: bool):
        self.masks = masks
        self.table = self.byte = self.bit = None
        n = int(np.bitwise_or.reduce(masks)).bit_length()
        if many and max(8, 2**n // 8) <= min(_TABLE_BYTES, _TABLE_RATIO * masks.size):
            # bit i of the table is bit i & 7 of byte i >> 3 in little-endian
            # order, and AND distributes over both parts of i = ~s & ~v
            self.table = cover_table(masks, n).astype("<u8", copy=False).view(np.uint8)
            comp = (np.uint64(2**n - 1) ^ masks).astype(np.uint32)
            self.byte = comp >> 3
            self.bit = (comp & 7).astype(np.uint8)
        self.partners = _once(lambda: _rotation_partners(masks) if many else None)
        self.lattice = _once(lambda: subset_lattice(masks) if many else None)


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


def _reach(masks: np.ndarray, rows: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """(row, source) bool matrix: whether vertex `rows[i]` is disjoint from
    some vertex of source column s of the (vertex, source) bool matrix
    `frontier`, in any memory order (the level loop passes the transpose
    of its rows).

    A bottom-up BFS step over the given rows only.  The frontier columns are
    packed to bits, the rows are scanned against all masks, `_BATCH_CELLS`
    (row, mask) cells at a time, and each row ORs the packed columns of the
    masks it avoids.  A row that avoids none reaches no column.
    """
    packed = np.packbits(frontier, axis=1, bitorder="little")
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


def _lattice_levels(sweep: _Sweep, sources) -> np.ndarray:
    """BFS levels for one batch of a sweep: a (source, vertex) int8 matrix,
    whose rows are the sources' levels.

    The frontier, the unvisited cells, the levels and the residue are
    (source, vertex) C-order matrices, so each array pass runs along the
    vertices.  Level 1 comes from the masks and level 2 from the table, if
    the sweep has one.  Before each further level, the completion test: an
    unvisited vertex with a visited rotation partner is at the next level,
    and once that holds for every unvisited vertex the batch ends; with no
    partners (one source), every unvisited cell is residue.  Otherwise the
    next level comes from a scan of the residue, the vertices the test left
    undecided, from a lattice pass per `lat.width` sources, or, with
    neither a table nor a lattice, from an `_advance` step per source over
    its residue cells, by the cost rule of the module docstring.
    """
    masks = sweep.masks
    src = np.asarray(sources, dtype=np.intp)
    batch = np.arange(src.size)
    # a vertex's level counts the levels that start with it unvisited: 1 for
    # all but the source, then one more after each level that leaves it so
    frontier = (masks[src][:, None] & masks[None, :]) == 0
    unvisited = ~frontier
    unvisited[batch, src] = False
    levels = np.ones((src.size, masks.size), dtype=np.int8)
    levels[batch, src] = 0
    levels += unvisited
    if sweep.table is not None:
        # v shares a neighbour with s iff some mask avoids s | v: table bit
        # ~s & ~v, which is bit (~s & ~v) & 7 of byte (~s & ~v) >> 3
        common = np.take(sweep.table, sweep.byte[src][:, None] & sweep.byte[None, :])
        common >>= sweep.bit[src][:, None] & sweep.bit[None, :]
        common &= 1
        frontier = unvisited & common.view(bool)
        unvisited ^= frontier
        levels += unvisited
    while unvisited.any() and frontier.any():
        # a visited neighbour is at level <= L and an unvisited vertex beyond
        # L, so an unvisited vertex with a visited partner is at L + 1; the
        # residue `left` is the unvisited cells with no visited partner, and
        # every unvisited cell when there are no partners
        left = unvisited
        partners = sweep.partners()
        if partners is not None:
            up, down = partners
            left = unvisited & unvisited.take(up, axis=1) & unvisited.take(down, axis=1)
            if not left.any():
                return levels
        rows = np.flatnonzero(left.any(axis=0))
        # with a table, a small residue is scanned, and so is any residue
        # while the lattice is over its cap; with neither, each source steps
        # from its own frontier
        lat = None
        if sweep.table is None or _SCAN_RATIO * rows.size > masks.size:
            lat = sweep.lattice()
        if lat is not None:
            for start in range(0, src.size, lat.width):
                cols = slice(start, start + lat.width)
                frontier[cols] = (_disjoint_counts(lat, frontier[cols].T) != 0).T
            frontier &= unvisited
        else:
            reached = unvisited ^ left  # `left` lies inside `unvisited`
            if sweep.table is not None:
                reached[:, rows] |= _reach(masks, rows, frontier.T).T & left[:, rows]
            else:
                for s in np.flatnonzero(left.any(axis=1)):
                    cells = np.flatnonzero(left[s])
                    reached[s, cells[_advance(masks[frontier[s]], masks[cells])]] = True
            frontier = reached
        unvisited ^= frontier
        levels += unvisited
    levels[unvisited] = -1
    return levels


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
    batch's (source, vertex) matrix.

    The sources go through `_lattice_levels` in batches, which share one
    `_Sweep`: the table and the lattice by the cost rule, and the rotation
    partners, none of them for a single source.  Batches run on every CPU, in rounds of at most one batch per
    CPU, and come out in source order (see the module docstring).
    """
    sources = list(sources)
    sweep = _Sweep(masks, many=len(sources) > 1)
    width = 16 * max(1, _BATCH_CELLS // (16 * max(1, masks.size)))
    batches = [sources[start : start + width] for start in range(0, len(sources), width)]
    helpers = max(0, min(_cpus(), len(batches)) - 1)
    # imported here: at module top it costs every import about 10 ms
    from concurrent.futures import ThreadPoolExecutor

    # with no helper, rounds of one batch submit nothing, so no thread starts
    with ThreadPoolExecutor(max(1, helpers)) as pool:
        for start in range(0, len(batches), helpers + 1):
            own, *rest = batches[start : start + helpers + 1]
            futures = [pool.submit(_lattice_levels, sweep, batch) for batch in rest]
            yield from zip(own, _lattice_levels(sweep, own))
            for batch, future in zip(rest, futures):
                yield from zip(batch, future.result())


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
        """Exact BFS distances from vertex index src; -1 where unreachable.

        A batch of one source, run here rather than through `bfs_sweeps`,
        which would set up a thread pool for it.
        """
        if not 0 <= src < len(self):
            raise ParameterError(f"vertex index {src} is outside 0..{len(self) - 1}")
        return _lattice_levels(_Sweep(self._masks, many=False), [src])[0]

    # -- distance, diameter --------------------------------------------------

    def bfs_distance(self, a: StableSet, b: StableSet) -> DistanceRecord:
        d = pair_distance(self._masks, self.vertex_index(a), self.vertex_index(b))
        return DistanceRecord(a, b, None if d < 0 else d)

    def orbit_representatives(self) -> list[int]:
        """One vertex index per dihedral orbit, ascending: the member with the
        orbit's least member sequence.

        Two k-sets compare lexicographically at the least element in which
        they differ, so the smaller sequence has the larger bit-reversed
        mask (bit i to bit n-1-i).  Bit reversal is a reflection of the
        n-cycle and maps each orbit onto itself, so a vertex is its orbit's
        representative iff its bit-reversed mask is the largest of its 2n
        dihedral images.
        """
        n = self.params.n
        mirrored = reflect_mask(self._masks, n)
        largest = np.zeros_like(self._masks)
        for base in (self._masks, mirrored):
            for shift in range(n):
                np.maximum(largest, rol_mask(base, shift, n), out=largest)
        # the bit reversal is the mirror image turned back one step
        return np.flatnonzero(rol_mask(mirrored, -1, n) == largest).tolist()

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
        for src, dist in bfs_sweeps(self._masks, sources):
            # one BFS reaches every vertex iff the graph is connected
            if best < 0 and (dist < 0).any():
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
        for i, dist in bfs_sweeps(self._masks, range(count)):
            out[i] = dist
        return out
