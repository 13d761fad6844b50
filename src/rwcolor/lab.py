"""Cut-rank lower-bound machinery for twisted chains.

Ordered matchings across a bipartition pin a triangular identity-diagonal
submatrix inside the cut matrix, certifying a rank lower bound.  Balanced
bipartitions of a chain always contain such matchings, which is how large
chains defeat small rank-width.  A product-Ramsey reducer extracts
few-colored sub-chains from colored chains.

The harness steps work from the chain's order, so a certificate is drawn
and checked without building the chain.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .graph import Graph, induced_subgraph, mask_of, mask_of_flags, rank_of_bitrows, select_bits
from .families import (
    chain_blocks,
    chain_labels,
    chain_lines,
    chain_order,
    col_scalar,
    row_scalar,
    verify_twisted_chain,
)


@dataclass(frozen=True)
class Bipartition:
    """Disjoint cover (S, T) of the vertex set, one bit mask per side: bit v
    of ``s_mask`` is set when vertex v is in S, of ``t_mask`` when it is in T.
    """

    s_mask: int
    t_mask: int

    @classmethod
    def of(cls, G: Graph, S: Iterable[int]) -> "Bipartition":
        """S and the rest of 0..n-1 as T.  S is read in one pass that sets
        one flag byte per member, and the flags become the S mask."""
        n = G.n
        flags = bytearray(n)
        for v in S:
            if not (isinstance(v, int) and 0 <= v < n):
                raise ValueError("S contains vertices outside the graph")
            flags[v] = 1
        s = mask_of_flags(flags)
        return cls(s, ((1 << n) - 1) ^ s)

    def side(self, v: int) -> str:
        if v >= 0:
            if self.s_mask >> v & 1:
                return "S"
            if self.t_mask >> v & 1:
                return "T"
        raise ValueError(f"vertex {v} is on neither side")


@dataclass(frozen=True)
class MatchingCertificate:
    """Ordered matching certifying a cut-rank lower bound.

    pairs[i] = (a_i, b_i, c_i) couples the a_i-th vertex of the A (or B)
    block with z_(b_i, c_i).  The interleaving condition
    a_1 <= s_1 < a_2 <= s_2 < ... with s_i the scalar index of the z
    partner (row-major for side A, column-major for side B) forces the cut
    submatrix to be triangular with an all-ones diagonal.
    """

    side: str  # "A" | "B"
    direction: tuple[str, str]  # ("S","T") or ("T","S")
    pairs: tuple[tuple[int, int, int], ...]
    m: int

    @property
    def order(self) -> int:
        return len(self.pairs)

    def partner_scalar(self, i: int) -> int:
        _, b, c = self.pairs[i]
        return (row_scalar if self.side == "A" else col_scalar)(self.m, b, c)

    def check_chain(self) -> None:
        prev_s = None
        for i, (a, b, c) in enumerate(self.pairs):
            if not (1 <= a <= self.m * self.m and 1 <= b <= self.m and 1 <= c <= self.m):
                raise ValueError(f"pair {i} is out of range for order {self.m}")
            s = self.partner_scalar(i)
            if prev_s is not None and not prev_s < a:
                raise ValueError(f"chain condition fails at index {i}: {prev_s} !< {a}")
            if not a <= s:
                raise ValueError(f"chain condition fails at index {i}: {a} !<= {s}")
            prev_s = s


@dataclass
class ImbalanceReport:
    """Evidence that a bipartition is not balanced on the C block."""

    heavy_side: str
    heavy_count: int
    c_size: int
    mixed_rows: int
    mixed_cols: int

    @property
    def exceeds_two_thirds(self) -> bool:
        return 3 * self.heavy_count > 2 * self.c_size


def chain_certificate_rank(cert: MatchingCertificate, row: Callable[[int], int]) -> int:
    """GF(2) rank of the cut submatrix the certificate points at, reading
    the row of each A/B vertex v its pairs name as ``row(v)``: an adjacency
    row of the order-``cert.m`` chain, or its C part from
    :func:`families.chain_cross_row`.

    Validates the interleaving condition first (naming the failing index);
    for a certificate built from a genuine chain the rank equals its order.
    """
    n = cert.m
    cert.check_chain()
    a0, b0, c0 = chain_blocks(n)
    row_base = a0 if cert.side == "A" else b0
    cols = [c0 + row_scalar(n, b, c) - 1 for _, b, c in cert.pairs]
    rows = []
    for a, _, _ in cert.pairs:
        src = row(row_base + a - 1)
        bitsrow = 0
        for jj, z in enumerate(cols):
            if src >> z & 1:
                bitsrow |= 1 << jj
        rows.append(bitsrow)
    return rank_of_bitrows(rows)


def certificate_rank(G: Graph, cert: MatchingCertificate) -> int:
    """:func:`chain_certificate_rank` on the adjacency rows of the chain G,
    whose order must be the certificate's."""
    n = chain_order(G)
    if cert.m != n:
        raise ValueError(f"certificate is for order {cert.m}, graph has order {n}")
    return chain_certificate_rank(cert, G.adj.__getitem__)


def _z_side(n: int, partition: Bipartition, i: int, j: int) -> str:
    """Side of z_(i,j) of an order-n chain."""
    return partition.side(chain_blocks(n)[2] + row_scalar(n, i, j) - 1)


def _c_mask(n: int, partition: Bipartition) -> int:
    """The S side of the order-n chain's C block as one n^2-bit mask: bit
    s-1 is set when z with row-major scalar s, z_(i,j) with s = n(i-1)+j,
    is in S.

    Both sides are read by one shift of their masks; a C vertex on neither
    side raises the error of :meth:`Bipartition.side`, naming the smallest
    such vertex.
    """
    c0 = chain_blocks(n)[2]
    block = (1 << n * n) - 1
    uncovered = ~(partition.s_mask | partition.t_mask) >> c0 & block
    if uncovered:
        partition.side(c0 + (uncovered & -uncovered).bit_length() - 1)  # raises
    return partition.s_mask >> c0 & block


def _mixed_lines(n: int, s: int) -> tuple[list[int], list[int]]:
    """Row and column indices of the order-n chain's C block containing
    vertices from both sides, read from its C-block mask *s* (as from
    :func:`_c_mask`): row i is ``(s >> n(i-1)) & row`` and column j is
    ``(s >> (j-1)) & col``, with row and col from :func:`families.chain_lines`;
    a line is mixed when its bits are neither all clear nor all set."""
    row, col = chain_lines(n)
    lines = range(1, n + 1)
    rows = [i for i in lines if (s >> n * (i - 1) & row) not in (0, row)]
    cols = [j for j in lines if (s >> j - 1 & col) not in (0, col)]
    return rows, cols


def _alternate(n: int, s: int, lines: list[int], lex: int) -> list[tuple[int, int]]:
    """The alternation along *lines* of the C-block mask *s* (bit s-1 for
    row-major scalar s, as in :func:`_c_mask`).

    The element taken from a line is its first cell on the wanted side:
    the lowest set bit of the line read from s for S, or from the
    complement of s for T.  In a row (lex=1) bit n(i-1)+j-1 is z_(i,j); in
    a column (lex=2), read as ``(s >> (j-1)) & col``, bit n(i-1) is z_(i,j).
    """
    row, col = chain_lines(n)
    sides = (s, ((1 << n * n) - 1) ^ s)
    seq = []
    for pos, line in enumerate(lines):
        side = sides[pos % 2]
        bits = side >> n * (line - 1) & row if lex == 1 else side >> line - 1 & col
        assert bits, "mixed line lost a side"
        low = (bits & -bits).bit_length() - 1
        seq.append((line, low + 1) if lex == 1 else (low // n + 1, line))
    return seq


def matching_from_alternation(
    n: int,
    partition: Bipartition,
    seq: Sequence[tuple[int, int]],
    side: str,
) -> MatchingCertificate:
    """Pair alternation elements into an ordered matching of half their count.

    Consecutive sequence elements (odd, even) contribute the A/B vertex
    whose scalar index is the odd element's, paired with whichever z of the
    two lies on the opposite side; keeping the majority direction yields at
    least a quarter of the sequence length as matching order.
    """
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    if len(seq) < 4:
        raise ValueError("alternating sequence must have length >= 4")
    scalar = row_scalar if side == "A" else col_scalar
    prev = None
    for idx, (i, j) in enumerate(seq):
        want = "S" if idx % 2 == 0 else "T"
        if _z_side(n, partition, i, j) != want:
            raise ValueError(f"sequence element {idx} is not on side {want}")
        s = scalar(n, i, j)
        if prev is not None and s <= prev:
            raise ValueError(f"sequence element {idx} breaks the lex order")
        prev = s
    a0, b0, _ = chain_blocks(n)
    row_base = a0 if side == "A" else b0
    st_pairs, ts_pairs = [], []
    for i2 in range(len(seq) // 2):
        odd = seq[2 * i2]
        even = seq[2 * i2 + 1]
        a = scalar(n, *odd)
        a_side = partition.side(row_base + a - 1)
        partner = even if a_side == "S" else odd
        entry = (a, partner[0], partner[1])
        (st_pairs if a_side == "S" else ts_pairs).append(entry)
    if len(st_pairs) >= len(ts_pairs):
        pairs, direction = st_pairs, ("S", "T")
    else:
        pairs, direction = ts_pairs, ("T", "S")
    cert = MatchingCertificate(side, direction, tuple(pairs), n)
    cert.check_chain()
    return cert


# The least chain order the lower-bound pipeline takes: below it the
# certificate order floor(n/12) is 0.
MIN_CERTIFICATE_ORDER = 12


def chain_certificate(n: int, partition: Bipartition) -> MatchingCertificate | ImbalanceReport:
    """Certificate of order >= floor(m/12) from a bipartition of the order-n
    chain that is balanced on the C block.

    Enough mixed rows feed the row-lex pipeline, enough mixed columns the
    column-lex one; if both counts fall short, the non-mixed lines all sit
    on one side, which already overfills it past 2|C|/3 -- returned as an
    imbalance report instead of a certificate.

    The C block is read once, into the n^2-bit mask of :func:`_c_mask`
    (bit s-1 set when z with row-major scalar s is in S): the S count is
    its popcount, and the mixed lines and the alternation read its rows
    ``(s >> n(i-1)) & (2^n - 1)`` and columns ``(s >> (j-1)) & col``, col
    having the bits 0, n, 2n, ...; only the matching step asks
    :meth:`Bipartition.side` about single vertices.
    """
    if n < MIN_CERTIFICATE_ORDER:
        raise ValueError(f"lower-bound pipeline needs chain order >= {MIN_CERTIFICATE_ORDER}")
    s = _c_mask(n, partition)
    s_count = s.bit_count()
    t_count = n * n - s_count
    k = n // 12
    mrows, mcols = _mixed_lines(n, s)
    balanced = 3 * s_count >= n * n and 3 * t_count >= n * n
    if balanced and len(mrows) >= 4 * k:
        return matching_from_alternation(n, partition, _alternate(n, s, mrows, 1), "A")
    if balanced and len(mcols) >= 4 * k:
        return matching_from_alternation(n, partition, _alternate(n, s, mcols, 2), "B")
    # an imbalanced C block, or few mixed lines, which force all non-mixed
    # rows onto one side
    heavy = "S" if s_count >= t_count else "T"
    return ImbalanceReport(heavy, max(s_count, t_count), n * n, len(mrows), len(mcols))


def lower_bound_certificate(
    G: Graph, partition: Bipartition
) -> MatchingCertificate | ImbalanceReport:
    """:func:`chain_certificate` for the chain G."""
    return chain_certificate(chain_order(G), partition)


def _shuffle(rng: random.Random, x: list) -> None:
    """Shuffle x in place exactly as ``rng.shuffle(x)`` does: the same
    permutation, and the same generator state after it.

    This is the Fisher-Yates loop of :meth:`random.Random.shuffle` with its
    ``_randbelow(i + 1)`` written out: draw k = (i+1).bit_length() random
    bits until the draw is at most i.  Written out, it saves the Python-level
    method call per element.
    """
    getrandbits = rng.getrandbits
    for i in reversed(range(1, len(x))):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


# byte b -> 1 when its high bit is clear, else 0
_HIGH_BIT_CLEAR = bytes([1] * 128 + [0] * 128)


def _coin_mask(rng: random.Random, count: int) -> int:
    """The mask whose bit v is set when the v-th of *count* >= 1 calls of
    ``rng.random()`` would be below 0.5, leaving *rng* in the state those
    calls leave it in.

    ``rng.random()`` reads two 32-bit words and is below 0.5 exactly when
    bit 31 of the first is clear; ``getrandbits(64 * count)`` reads the same
    2 * count words into its bits from the least significant up, so coin v
    is the high bit of byte 8v + 3 of its little-endian bytes.  One C-level
    draw replaces *count* Python calls.
    """
    words = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
    return mask_of_flags(words[3::8].translate(_HIGH_BIT_CLEAR))


def chain_bipartition(n: int, seed: int) -> Bipartition:
    """Seeded bipartition of the order-n chain, balanced with respect to
    the C block.

    The draws are those of ``rng.shuffle`` of the C block, ``rng.randint``
    of how many of its first vertices go to S, and one ``rng.random() <
    0.5`` coin per A/B vertex in vertex order, putting the vertex in S
    (:func:`_shuffle` and :func:`_coin_mask` make them); the outcomes go
    straight into the S mask.
    """
    if n < 2:
        raise ValueError(f"a C-balanced bipartition needs chain order >= 2, not {n}")
    c0 = chain_blocks(n)[2]
    rng = random.Random(seed)
    nn = n * n
    positions = list(range(nn))
    _shuffle(rng, positions)
    cut = rng.randint((nn + 2) // 3, nn - (nn + 2) // 3)
    c_flags = bytearray(nn)
    for i in positions[:cut]:
        c_flags[i] = 1
    s = _coin_mask(rng, c0) | mask_of_flags(c_flags) << c0
    return Bipartition(s, ((1 << 3 * nn) - 1) ^ s)


def random_balanced_bipartition(G: Graph, seed: int) -> Bipartition:
    """:func:`chain_bipartition` for the chain G."""
    return chain_bipartition(chain_order(G), seed)


def ramsey_threshold(k: int, d: int) -> int:
    """Set size above which a k-by-k single-valued block always exists."""
    return k * d ** (d * k)


def ramsey_threshold_within(k: int, d: int, limit: int) -> int | None:
    """The threshold when it is at most *limit*, else None.

    The value grows doubly fast under iteration, so it must never be
    materialized unless it fits; the log test keeps huge exponents out.
    """
    if limit < 1:
        return None
    if k * d * math.log2(d) + math.log2(max(k, 1)) > math.log2(limit) + 1:
        return None
    t = ramsey_threshold(k, d)
    return t if t <= limit else None


@dataclass
class RamseyResult:
    xs: tuple
    ys: tuple
    color: object
    guaranteed: bool

    @property
    def size(self) -> int:
        return min(len(self.xs), len(self.ys))


def ramsey_bireduce(
    f: Callable[[object, object], object],
    X: Sequence,
    Y: Sequence,
    k: int,
    d: int,
) -> RamseyResult:
    """Find X' x Y' of size k on which f is constant, by type counting.

    Fixes the first d*k elements of X, groups Y by the restriction pattern
    of f, then picks a value hit k times inside the largest group's shared
    pattern.  At the threshold size this always succeeds (guaranteed=True);
    below it the best block found is returned, flagged.
    """
    if k < 1 or d < 1:
        raise ValueError("need k, d >= 1")
    M = ramsey_threshold_within(k, d, max(len(X), len(Y)))
    guaranteed = M is not None and len(X) >= M and len(Y) >= M
    X0 = list(X[: min(d * k, len(X))])
    groups: dict[tuple, list] = {}
    for y in Y:
        groups.setdefault(tuple(f(x, y) for x in X0), []).append(y)
    best: RamseyResult | None = None
    for gtype, members in sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0])):
        counts: dict[object, int] = {}
        for val in gtype:
            counts[val] = counts.get(val, 0) + 1
        for val, cnt in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            size = min(k, len(members), cnt)
            if best is not None and size <= best.size:
                continue
            xs = tuple(x for x, v in zip(X0, gtype) if v == val)[:size]
            ys = tuple(members[:size])
            assert all(f(x, y) == val for x in xs for y in ys)
            best = RamseyResult(xs, ys, val, guaranteed)
            if size == k:
                if guaranteed:
                    return best
                break
    if best is None:
        best = RamseyResult((), (), None, False)
    if guaranteed and best.size < k:
        raise AssertionError("counting argument failed above the threshold")
    if best.size < k:
        best.guaranteed = False
    return best


@dataclass
class ExtractionReport:
    """Outcome of the three-stage extraction.

    thresholds holds the stage sizes (outermost first) that would make each
    counting step unconditional; None marks a threshold beyond the instance
    order (the usual case at desk scale).
    """

    target: int
    achieved: int
    guaranteed: bool
    colors_used: tuple
    stage_sizes: tuple[int, int, int]
    thresholds: tuple[int | None, int | None, int | None]
    x_rows: tuple[int, ...]
    y_cols: tuple[int, ...]


# The unguaranteed extraction tries block order k only while C(n, k), the
# number of k-row sets of an order-n chain, is at most this; it caps the
# block order tried, not the work the search does.
EXTRACT_COMBO_BUDGET = 300_000


def _first_block(row_masks: list[list[int]], n: int, k: int) -> tuple | None:
    """``(xs, ys, ti)``: the lexicographically first k rows xs that share k
    columns under one color triple, the least such triple index ti, and
    its first k columns ys; None when no k rows do.

    Bit y - 1 of ``row_masks[x - 1][ti]`` is set when grid point (x, y) has
    triple ti.  Rows join the prefix depth-first in increasing order, each
    ANDing its masks into the prefix's; a triple left with fewer than k
    columns drops out, and a prefix with no triple left is dropped.
    """
    xs: list[int] = []

    def extend(start: int, alive: list[tuple[int, int]]) -> list[tuple[int, int]] | None:
        if len(xs) == k:
            return alive
        for x in range(start, n - k + len(xs) + 1):
            row = row_masks[x]
            kept = [(ti, r) for ti, m in alive if (r := m & row[ti]).bit_count() >= k]
            if kept:
                xs.append(x + 1)
                found = extend(x + 1, kept)
                if found:
                    return found
                xs.pop()
        return None

    alive = extend(0, [(ti, (1 << n) - 1) for ti in range(len(row_masks[0]))])
    if alive is None:
        return None
    ti, cand = alive[0]
    return tuple(xs), tuple(itertools.islice(select_bits(range(1, n + 1), cand), k)), ti


def monochromatic_substructure(
    G: Graph, c: Sequence[int], target: int
) -> tuple[Graph, ExtractionReport]:
    """Extract a sub-chain whose three blocks are each single-colored.

    Reduces the index grid in three stages (C, then A, then B layer); with
    chain orders past the triple Ramsey threshold the stage-wise counting
    is guaranteed.  Below it, the block order k grows from 1 while C(n, k)
    is at most ``EXTRACT_COMBO_BUDGET`` and a search over row prefixes
    (:func:`_first_block`) finds a k-by-k block: the lexicographically
    first k rows that share k columns under one (C, A, B) color triple,
    the first such triple in sorted order, and its first k columns.  The
    output graph carries fresh canonical chain labels and receives at
    most 3 colors.
    """
    n = chain_order(G)
    if target < 1:
        raise ValueError("target must be >= 1")
    c = list(c)
    if len(c) != G.n:
        raise ValueError("coloring does not match the graph")
    d = len(set(c))
    a0, b0, c0 = chain_blocks(n)
    nn = n * n
    # grid[x - 1][y - 1] = colors of z_(x,y), v_s and w_t, with s and t the
    # row- and column-major scalars of (x, y): row x of the C and A blocks,
    # and the B block from w_x on with stride n
    grid = [
        list(zip(c[c0 + n * i : c0 + n * i + n], c[a0 + n * i : a0 + n * i + n],
                 c[b0 + i : b0 + nn : n]))
        for i in range(n)
    ]

    def cell(x: int, y: int) -> tuple[int, int, int]:
        """The C, A and B vertices of grid point (x, y): z_(x,y), v_s and
        w_t, with s and t its row- and column-major scalars."""
        s = row_scalar(n, x, y)
        return c0 + s - 1, a0 + s - 1, b0 + col_scalar(n, x, y) - 1

    def colors_at(x: int, y: int) -> tuple:
        return grid[x - 1][y - 1]

    def chain_thresholds(t: int) -> tuple[int | None, int | None, int | None]:
        t1 = ramsey_threshold_within(t, d, n)
        t2 = ramsey_threshold_within(t1, d, n) if t1 is not None else None
        t3 = ramsey_threshold_within(t2, d, n) if t2 is not None else None
        return t1, t2, t3

    # largest target whose full threshold chain fits inside this instance
    t_eff = None
    for t in range(n, target - 1, -1):
        t1, t2, t3 = chain_thresholds(t)
        if t3 is not None and n >= t3:
            t_eff = t
            m1, m2, m3 = t1, t2, t3
            break
    guaranteed = t_eff is not None
    if not guaranteed:
        m1, m2, m3 = chain_thresholds(target)

    best_xs: tuple[int, ...] = ()
    best_ys: tuple[int, ...] = ()
    best_colors: tuple = ()
    stage_sizes = (0, 0, 0)

    if guaranteed:
        idx = list(range(1, n + 1))
        s1 = ramsey_bireduce(lambda x, y: colors_at(x, y)[0], idx, idx, m2, d)
        s2 = ramsey_bireduce(lambda x, y: colors_at(x, y)[1], list(s1.xs), list(s1.ys), m1, d)
        s3 = ramsey_bireduce(lambda x, y: colors_at(x, y)[2], list(s2.xs), list(s2.ys), t_eff, d)
        best_xs, best_ys = tuple(sorted(s3.xs)), tuple(sorted(s3.ys))
        best_colors = colors_at(best_xs[0], best_ys[0])
        stage_sizes = (len(s1.xs), len(s2.xs), len(s3.xs))
    else:
        # Any order-k sub-chain restricts to stages of exactly size k, so
        # searching equal-size row sets is complete.  For each row and each
        # color triple, the bitmask of columns where all three layers hit
        # that triple; the common columns of a row set are one AND per
        # triple.
        triples = sorted(set().union(*grid))
        index = {t: ti for ti, t in enumerate(triples)}
        row_masks = []
        for row in grid:
            masks = [0] * len(triples)
            for y, t in enumerate(row):
                masks[index[t]] |= 1 << y
            row_masks.append(masks)
        k = 1
        while k <= n and math.comb(n, k) <= EXTRACT_COMBO_BUDGET:
            found = _first_block(row_masks, n, k)
            if not found:
                break
            best_xs, best_ys, ti = found
            best_colors = triples[ti]
            stage_sizes = (k, k, k)
            k += 1

    achieved = len(best_xs)
    if achieved == 0:
        raise AssertionError("an order-1 block always exists")
    sub = induced_subgraph(G, mask_of(v for x in best_xs for y in best_ys for v in cell(x, y)))
    out = Graph(sub.n, sub.adj, chain_labels(achieved))
    verify_twisted_chain(out)
    report = ExtractionReport(
        target=target,
        achieved=achieved,
        guaranteed=bool(guaranteed and achieved >= target),
        colors_used=best_colors,
        stage_sizes=stage_sizes,
        thresholds=(m3, m2, m1),
        x_rows=best_xs,
        y_cols=best_ys,
    )
    return out, report
