"""Immutable bit-row graphs, bitmask traversals, and GF(2) linear algebra.

Vertices are dense integers 0..n-1.  Adjacency is one integer bitmask per
vertex, so neighbourhood algebra, cut matrices, and subset sweeps are
word-parallel.  Labels are an optional side table consulted only by
verifiers and reporters, never by algorithms.

Every bitmask traversal of a graph in the package goes through these:
:func:`components` (connected components of a vertex mask),
:func:`ball` and :func:`shells` (bounded BFS inside a vertex mask), and
:func:`degeneracy_order`.  :func:`select_bits` finds every set bit of a
whole row in one pass, for writers that read rows out in full, and
:func:`mask_of_flags` is its inverse, packing a run of 0/1 flags into a
mask in one pass, for readers that set whole rows at once.

Cut-ranks come from :func:`cutrank_mask`, one elimination per cut, or from
:func:`cutrank_table`, one elimination that is lane-parallel over every
subset and fills the whole table from its bit-sliced planes
(:func:`_cutrank_planes`); the exact rank-width solver reads those planes
and builds no table.  The planes and the tree-depth levels read their
lanes, one bit per vertex subset, from
:func:`subset_lanes`; :func:`reverse_lanes` maps a lane set to the set of
its complements by a byte table, without binary text.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, islice
from typing import Iterable, Iterator, Mapping, Sequence


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of *mask* in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_BINARY_DIGIT_TO_FLAG = bytes.maketrans(b"01", b"\0\1")
_FLAG_TO_BINARY_DIGIT = bytes.maketrans(b"\0\1", b"01")


def select_bits(items: Iterable, mask: int) -> Iterator:
    """The items at the set bit positions of *mask* >= 0, in increasing
    position order; *items* must reach past the highest set bit.

    Every set bit is found in one C-level pass (``bin``, ``bytes.translate``,
    ``itertools.compress``) from the lowest set bit up, instead of one Python
    step per bit, which pays off on whole dense rows such as the edge-list
    writer reads; :func:`bits_of` stays the cheaper walk of a sparse mask.
    """
    low = max((mask & -mask).bit_length() - 1, 0)
    flags = bin(mask >> low).encode()[:1:-1].translate(_BINARY_DIGIT_TO_FLAG)
    return compress(islice(items, low, None), flags)


def mask_of_flags(flags: bytes) -> int:
    """The mask whose bit i is set when flags[i] is 1; the flags must be
    non-empty and each 0 or 1.

    The flags are read in one C-level pass (reversed, translated to binary
    digits and parsed by ``int``), so a row or a membership test built as
    ``bytes(map(...))`` becomes a mask without one Python step per bit, as
    :func:`mask_of` takes.
    """
    return int(flags[::-1].translate(_FLAG_TO_BINARY_DIGIT), 2)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with bit-row adjacency.

    Instances are immutable; all operations on them are pure and safe to
    share across threads.  Construction through :func:`build_graph` (or any
    generator in this package) guarantees a symmetric, loop-free adjacency.
    """

    n: int
    adj: tuple[int, ...]
    labels: tuple[Mapping, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph must have at least one vertex")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count differs from vertex count")
        for v, row in enumerate(self.adj):
            if row >> self.n:
                raise ValueError(f"row {v} has bits outside 0..{self.n - 1}")
            if row >> v & 1:
                raise ValueError(f"self-loop on vertex {v}")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels, when present, must cover all vertices")

    def validate_symmetric(self) -> None:
        """Raise if the adjacency relation is not symmetric."""
        for u in range(self.n):
            for v in bits_of(self.adj[u]):
                if not self.adj[v] >> u & 1:
                    raise ValueError(f"asymmetric adjacency at ({u}, {v})")

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        return bits_of(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, lexicographically."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits_of(row):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


def build_graph(
    n: int,
    edges: Iterable[tuple[int, int]],
    labels: Sequence[Mapping] | None = None,
) -> Graph:
    """Build a graph from an edge list, taking the symmetric closure.

    Duplicate pairs (in either orientation) collapse.  Out-of-range
    endpoints and self-loops are rejected with the offending pair index.
    """
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    adj = [0] * n
    for idx, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {idx}: endpoint out of range: ({u}, {v})")
        if u == v:
            raise ValueError(f"edge {idx}: self-loop on vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    g = Graph(n, tuple(adj), tuple(labels) if labels is not None else None)
    g.validate_symmetric()
    return g


def check_vertex_mask(mask: int, n: int) -> None:
    """Refuse *mask* as a vertex set of an n-vertex graph when it is negative
    (its bits never end) or has a bit at or above n, naming the lowest."""
    if mask < 0:
        raise ValueError(f"vertex mask {mask} is negative")
    outside = mask >> n
    if outside:
        raise ValueError(f"vertex {n + (outside & -outside).bit_length() - 1} not in graph")


def induced_subgraph(G: Graph, mask: int) -> Graph:
    """Induced subgraph on the vertex mask.

    Vertex v becomes the number of set bits of *mask* below v, so the kept
    vertices, and their labels, keep their relative order.
    """
    check_vertex_mask(mask, G.n)
    if not mask:
        raise ValueError("induced subgraph on an empty vertex set")
    index = {}  # kept vertex -> the number of kept vertices below it
    left = mask
    while left:
        low = left & -left
        index[low.bit_length() - 1] = len(index)
        left ^= low
    adj = G.adj
    rows = []
    for v in index:
        row = adj[v] & mask
        new = 0
        while row:
            bit = row & -row
            new |= 1 << index[bit.bit_length() - 1]
            row ^= bit
        rows.append(new)
    labels = tuple(G.labels[v] for v in index) if G.labels is not None else None
    return Graph(len(rows), tuple(rows), labels)


def _union_rows(adj: Sequence[int], mask: int) -> int:
    """OR of adj[v] over the bits v of mask.

    This is the innermost step of every traversal, so it walks the bits
    inline instead of through the :func:`bits_of` generator.
    """
    out = 0
    while mask:
        low = mask & -mask
        out |= adj[low.bit_length() - 1]
        mask ^= low
    return out


def components(G: Graph, mask: int) -> list[int]:
    """Connected components of G[mask] as bitmasks, ordered by smallest vertex."""
    comps = []
    left = mask
    while left:
        seen = left & -left
        frontier = seen
        while frontier:
            frontier = _union_rows(G.adj, frontier) & left & ~seen
            seen |= frontier
        comps.append(seen)
        left &= ~seen
    return comps


def ball(G: Graph, v: int, r: int, within: int) -> int:
    """Vertices reachable from v in at most r steps through vertices of *within*.

    The result always contains v itself, whether or not v is in *within*.
    """
    seen = frontier = 1 << v
    for _ in range(r):
        frontier = _union_rows(G.adj, frontier) & within & ~seen
        if not frontier:
            break
        seen |= frontier
    return seen


def shells(G: Graph, v: int, within: int, r: int) -> list[int]:
    """BFS layers from v through vertices of *within*, out to distance r.

    shells[d] is the mask of vertices at distance exactly d from v inside
    G[within + v]; the list stops early at the first empty layer.
    """
    seen = frontier = 1 << v
    out = [frontier]
    for _ in range(r):
        frontier = _union_rows(G.adj, frontier) & within & ~seen
        if not frontier:
            break
        seen |= frontier
        out.append(frontier)
    return out


def degeneracy_order(G: Graph) -> list[int]:
    """Repeatedly remove a minimum-degree vertex (smallest id on ties); the
    removal sequence reversed, so every vertex has few earlier neighbours."""
    remaining = (1 << G.n) - 1
    suffix = []
    while remaining:
        v = min(bits_of(remaining), key=lambda u: ((G.adj[u] & remaining).bit_count(), u))
        suffix.append(v)
        remaining &= ~(1 << v)
    return list(reversed(suffix))


def power(G: Graph, r: int) -> Graph:
    """r-th power: u ~ v iff 1 <= dist(u, v) <= r.  Requires r >= 1."""
    if r < 1:
        raise ValueError("power radius must be >= 1")
    if r == 1:
        return G
    full = (1 << G.n) - 1
    adj = tuple(ball(G, v, r, full) & ~(1 << v) for v in range(G.n))
    return Graph(G.n, adj, G.labels)


def complement(G: Graph) -> Graph:
    full = (1 << G.n) - 1
    adj = tuple((full ^ row) & ~(1 << v) for v, row in enumerate(G.adj))
    return Graph(G.n, adj, G.labels)


def rank_of_bitrows(rows: Iterable[int]) -> int:
    """GF(2) rank of integer bit-rows via an XOR basis keyed by leading bit."""
    basis: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            hb = row.bit_length() - 1
            piv = basis.get(hb)
            if piv is None:
                basis[hb] = row
                rank += 1
                break
            row ^= piv
    return rank


def cutrank_mask(G: Graph, mask: int) -> int:
    """GF(2) rank of the adjacency block between the vertex mask and the rest;
    an empty or full mask has cut-rank 0."""
    full = (1 << G.n) - 1
    mask &= full
    co = full ^ mask
    if not mask or not co:
        return 0
    # rank is invariant under transposition; eliminate on the smaller side
    if mask.bit_count() > co.bit_count():
        mask, co = co, mask
    return rank_of_bitrows(G.adj[v] & co for v in bits_of(mask))


@lru_cache(maxsize=8)
def subset_lanes(n: int) -> tuple[int, ...]:
    """For v < n, the 2^n-bit int whose bit S is set when v is in S: every
    subset S of {0, ..., n-1} is one bit position ("lane"), and shifting a
    lane set left by 2^v adds v to each of its lanes that lack v.  The
    pattern of v is built by doubling one period.  The cache keeps 8 sizes;
    the entry for n = 18 is 18 ints of 32 KB, 576 KB."""
    lanes = 1 << n
    out = []
    for v in range(n):
        period = 1 << (v + 1)
        pattern = ((1 << (period >> 1)) - 1) << (period >> 1)
        while period < lanes:
            pattern |= pattern << period
            period <<= 1
        out.append(pattern)
    return tuple(out)


_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def reverse_lanes(x: int, lanes: int) -> int:
    """*x* with its low *lanes* bits in reverse order, which maps a set of
    the 2^n lanes of :func:`subset_lanes` to the set of their complements.
    The bytes of x have their bits reversed by a table and are read back in
    the other byte order, three C-level passes; the shift drops the padding."""
    k = (lanes + 7) >> 3
    flipped = x.to_bytes(k, "little").translate(_REVERSED_BYTE)
    return int.from_bytes(flipped, "big") >> (8 * k - lanes)


def _cutrank_planes(G: Graph) -> list[int]:
    """The cut-ranks of the vertex masks X without vertex n-1 as bit-sliced
    planes over their 2^(n-1) lanes: bit X of plane p is bit p of the rank.

    One GF(2) elimination runs for all subsets X of {0, ..., n-2} at once,
    each subset a bit position ("lane") of an int of L = 2^(n-1) bits.
    Entry (i, j) of the matrix is the int whose bit X is A[i][j] when i is
    in X and j is not, so lane X holds the cut matrix of (X, rest); the row
    of vertex n-1 is zero in every lane and left out.  Column by column,
    each lane's pivot is its first row with the column set; the pivot
    rows' later entries, masked to their lanes, are XORed into every row
    with the column set, which also clears each pivot row in its own lanes.
    The lanes that found a pivot add one to the bit-sliced counters.
    """
    n = G.n
    lanes = 1 << (n - 1)
    inside = subset_lanes(n - 1)
    every = (1 << lanes) - 1
    outside = [every ^ p for p in inside] + [every]
    rows = [
        [p & q if adj >> j & 1 else 0 for j, q in enumerate(outside)]
        for adj, p in zip(G.adj, inside)
        if adj
    ]
    planes = [0] * (n // 2).bit_length()
    for j in range(n):
        found = 0
        hits = []
        pivots = []
        for row in rows:
            hit = row[j]
            if hit:
                hits.append((row, hit))
                s = hit & ~found
                if s:
                    found |= s
                    pivots.append((row, s))
        if not found:
            continue
        for k in range(j + 1, n):
            pv = 0
            for row, s in pivots:
                pv |= row[k] & s
            if pv:
                for row, hit in hits:
                    row[k] ^= pv & hit
        for p, plane in enumerate(planes):
            planes[p] = plane ^ found
            found &= plane
            if not found:
                break
    return planes


def cutrank_table(G: Graph) -> bytes:
    """Cut-rank of every vertex mask, as bytes: entry m is ``cutrank_mask(G, m)``.

    The masks without vertex n-1 take their ranks from one lane-parallel
    elimination (:func:`_cutrank_planes`), its planes read out as one byte
    per lane at C level; the masks with vertex n-1 take the cut-rank of
    their complement.  The exact rank-width solver reads the planes, not
    this table.
    """
    planes = _cutrank_planes(G)
    lanes = 1 << (G.n - 1)
    ranks = 0
    for p, plane in enumerate(planes):
        digits = format(plane, f"0{lanes}b").encode().translate(_BINARY_DIGIT_TO_FLAG)
        ranks += int.from_bytes(digits, "big") << p
    low = ranks.to_bytes(lanes, "little")
    return low + low[::-1]
