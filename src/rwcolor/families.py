"""Graph families: layered H-graphs, twisted chains, intersection models,
map graphs via radial squares, line graphs via subdivision, and utility
generators.

Canonical vertex numbering is row-major for H-graphs; twisted chains lay
out the A block (by scalar index), then B, then C in row-major (i, j)
order.  Labels carry the family coordinates for verifiers.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Sequence

from .coloring import Coloring
from .graph import Graph, build_graph, components, induced_subgraph, power


def h_graph(n: int, m: int) -> Graph:
    """Layered graph on n rows of m columns; row i vertex j is adjacent to
    the first j vertices of row i+1.  Rows are independent sets."""
    return _h_family(n, m, row_cliques=False)


def h_tilde(n: int, m: int) -> Graph:
    """h_graph with every row turned into a clique."""
    return _h_family(n, m, row_cliques=True)


def _h_family(n: int, m: int, row_cliques: bool) -> Graph:
    if n < 1 or m < 1:
        raise ValueError("need n, m >= 1")
    N = n * m
    adj = [0] * N

    def vid(i: int, j: int) -> int:
        return (i - 1) * m + (j - 1)

    for i in range(1, n):
        for j in range(1, m + 1):
            v = vid(i, j)
            row_below = ((1 << j) - 1) << vid(i + 1, 1)
            adj[v] |= row_below
            for jp in range(1, j + 1):
                adj[vid(i + 1, jp)] |= 1 << v
    if row_cliques:
        for i in range(1, n + 1):
            row_mask = ((1 << m) - 1) << vid(i, 1)
            for j in range(1, m + 1):
                v = vid(i, j)
                adj[v] |= row_mask & ~(1 << v)
    labels = tuple(
        {"row": i, "col": j} for i in range(1, n + 1) for j in range(1, m + 1)
    )
    return Graph(N, tuple(adj), labels)


def row_coloring(n: int, m: int, p: int) -> Coloring:
    """Color row i with (i mod (p+1)) + 1; unions of few classes split into
    short stacked segments of the family."""
    if p < 1:
        raise ValueError("p must be >= 1")
    colors = []
    for i in range(1, n + 1):
        colors.extend([(i % (p + 1)) + 1] * m)
    return Coloring(tuple(colors), p + 1)


TWISTED_CHAIN_VARIANTS = ("bare", "interval", "permutation-derived")


def chain_blocks(n: int) -> tuple[int, int, int]:
    """First vertex of the A, B and C blocks of an order-n chain; v_k is
    vertex a0 + k - 1, w_k is b0 + k - 1, and z_(i,j) is c0 + s - 1 with s
    its row-major scalar."""
    nn = n * n
    return 0, nn, 2 * nn


def row_scalar(n: int, i: int, j: int) -> int:
    """Row-major scalar n(i-1)+j of grid point (i, j): the index v_k is
    compared with, and the position of z_(i,j) in the C block."""
    return n * (i - 1) + j


def col_scalar(n: int, i: int, j: int) -> int:
    """Column-major scalar n(j-1)+i of grid point (i, j): the index w_k is
    compared with."""
    return n * (j - 1) + i


@functools.cache
def chain_labels(n: int) -> tuple[dict, ...]:
    """Canonical labels of an order-n chain: A/k, then B/k, then C/(i,j)
    row-major.

    Built once per order and shared by every chain of that order, so the
    dicts must be treated as read-only, as all labels are.
    """
    nn = n * n
    return (
        tuple({"role": "A", "k": k} for k in range(1, nn + 1))
        + tuple({"role": "B", "k": k} for k in range(1, nn + 1))
        + tuple(
            {"role": "C", "i": i, "j": j}
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        )
    )


@functools.cache
def chain_lines(n: int) -> tuple[int, int]:
    """Masks of row 1 (bits 0..n-1) and column 1 (bits 0, n, 2n, ...) of
    the order-n chain's C block as an n^2-bit mask, bit s-1 for row-major
    scalar s; row i and column j are these shifted up by n(i-1) and j-1."""
    row = (1 << n) - 1
    return row, ((1 << n * n) - 1) // row


def chain_cross_row(n: int, v: int) -> int:
    """Row v of the order-n chain inside C, v in A or B: v_k sees one run
    of C from row-major scalar k on, and w_t, t = n(j-1)+i, the z of
    column-major scalar >= t: the columns after j, and column j from row i."""
    nn = n * n
    a0, b0, c0 = chain_blocks(n)
    if not a0 <= v < b0 + nn:
        raise ValueError(f"vertex {v} is not in the A or B block of the order-{n} chain")
    if v < b0:
        k = v - a0 + 1
        return ((1 << (nn - k + 1)) - 1) << (c0 + k - 1)
    j, i = divmod(v - b0, n)  # t - 1 = n*j + i, both from 0
    row, col = chain_lines(n)
    after = col * (row ^ ((1 << (j + 1)) - 1))
    down = col >> n * i << n * i + j
    return (after | down) << c0


def twisted_chain(n: int, variant: str = "bare") -> Graph:
    """Twisted chain graph of order n.

    A = v_1..v_{n^2}, B = w_1..w_{n^2}, C = z_(i,j) row-major.  v_k with
    k = n(x-1)+y is adjacent to z_(i,j) iff x < i, or x = i and y <= j
    (equivalently k <= n(i-1)+j); w_k uses the transposed rule
    k <= n(j-1)+i.  Both neighbourhoods are contiguous scalar ranges, so
    every row is one mask.  The free parts (edges inside A u B and inside
    C) are fixed by the variant: "bare" leaves them empty, "interval" makes
    A, B, and C cliques (no A-B edges), and "permutation-derived" gives C
    the crossing relation of its segment model while A and B stay edgeless.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if variant not in TWISTED_CHAIN_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    nn = n * n
    a0, b0, c0 = chain_blocks(n)
    adj = [chain_cross_row(n, v) for v in range(2 * nn)] + [0] * nn
    # z sees v_1..v_s and w_1..w_t, s and t its row- and column-major scalars
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            s, t = row_scalar(n, i, j), col_scalar(n, i, j)
            adj[c0 + s - 1] = ((1 << s) - 1) << a0 | ((1 << t) - 1) << b0
    if variant == "interval":
        for block_start in (a0, b0, c0):
            block = ((1 << nn) - 1) << block_start
            for v in range(block_start, block_start + nn):
                adj[v] |= block & ~(1 << v)
    elif variant == "permutation-derived":
        # The model puts the column-major scalar on the reversed top line, so
        # z_(i,j) and z_(i',j') cross iff (s - s')(t - t') > 0: iff the grid
        # points are distinct and comparable in the product order of (i, j).
        full = (1 << nn) - 1
        row, col = chain_lines(n)
        for i in range(1, n + 1):
            rows_le = (1 << (n * i)) - 1
            rows_ge = full ^ ((1 << (n * (i - 1))) - 1)
            for j in range(1, n + 1):
                cols_le = col * ((1 << j) - 1)
                cols_ge = col * (row ^ ((1 << (j - 1)) - 1))
                s = row_scalar(n, i, j)
                crossing = (rows_le & cols_le | rows_ge & cols_ge) & ~(1 << (s - 1))
                adj[c0 + s - 1] |= crossing << c0
    return Graph(3 * nn, tuple(adj), chain_labels(n))


def chain_order(G: Graph) -> int:
    """Order n of a canonically labeled twisted chain; validates the labels."""
    if G.labels is None:
        raise ValueError("twisted chain operations need labels")
    nn = G.n // 3
    n = math.isqrt(nn)
    if G.n % 3 != 0 or n * n != nn:
        raise ValueError("vertex count is not 3*n^2")
    labels = chain_labels(n)
    if G.labels is not labels and tuple(G.labels) != labels:
        for v, (got, want) in enumerate(zip(G.labels, labels)):
            if got != want:
                name = f"{want['k']}" if "k" in want else f"({want['i']},{want['j']})"
                raise ValueError(f"vertex {v} is not labeled {want['role']}/{name}")
    return n


def verify_twisted_chain(G: Graph) -> int:
    """Check both block adjacency rules against the labels; returns the order.

    The first violation is named: lowest k, then z in row-major order, the
    A-C rule before the B-C rule."""
    n = chain_order(G)
    nn = n * n
    a0, b0, c0 = chain_blocks(n)
    cmask = ((1 << nn) - 1) << c0
    for k in range(1, nn + 1):
        bad_v = (G.adj[a0 + k - 1] & cmask) ^ chain_cross_row(n, a0 + k - 1)
        bad_w = (G.adj[b0 + k - 1] & cmask) ^ chain_cross_row(n, b0 + k - 1)
        bad = bad_v | bad_w
        if bad:
            z = (bad & -bad).bit_length() - 1
            at = f"z_({G.labels[z]['i']},{G.labels[z]['j']})"
            if bad_v >> z & 1:
                raise ValueError(f"A-C rule violated at v_{k}, {at}")
            raise ValueError(f"B-C rule violated at w_{k}, {at}")
    return n


@dataclass(frozen=True)
class IntervalModel:
    """Closed intervals on the integer line realizing a twisted chain.

    Vertex order matches the chain layout (A block, B block, C row-major)
    but with reversed indices; relabel_to_chain[model_vertex] gives the
    vertex of twisted_chain(n, "interval") it plays.
    """

    n: int
    scale: int
    intervals: tuple[tuple[int, int], ...]
    relabel_to_chain: tuple[int, ...]


@dataclass(frozen=True)
class SegmentModel:
    """Segments between two horizontal lines realizing a twisted chain.

    segments[v] = (bottom_x, top_x); crossing pairs are adjacent.  The same
    index reversal as the interval model maps onto
    twisted_chain(n, "permutation-derived").
    """

    n: int
    scale: int
    segments: tuple[tuple[int, int], ...]
    relabel_to_chain: tuple[int, ...]


def _reversal_relabeling(n: int) -> tuple[int, ...]:
    """v_k -> v_{n^2+1-k}, w_k -> w_{n^2+1-k}, z_(x,y) -> z_(n+1-x,n+1-y)."""
    nn = n * n
    a0, b0, c0 = chain_blocks(n)
    return (
        tuple(a0 + nn - k for k in range(1, nn + 1))
        + tuple(b0 + nn - k for k in range(1, nn + 1))
        + tuple(
            c0 + row_scalar(n, n + 1 - x, n + 1 - y) - 1
            for x in range(1, n + 1)
            for y in range(1, n + 1)
        )
    )


def _z_items(n: int, M: int) -> list[tuple[int, int]]:
    """(row-major scalar, M - column-major scalar) of each z_(x,y), the C
    block of both intersection models."""
    return [
        (row_scalar(n, x, y), M - col_scalar(n, x, y))
        for x in range(1, n + 1)
        for y in range(1, n + 1)
    ]


def interval_model(n: int) -> IntervalModel:
    """Interval model with M = 2n^2 + 1: v_i = [0, i], w_i = [M-i, M],
    z_(x,y) = [(x-1)n+y, M-(y-1)n-x]."""
    if n < 1:
        raise ValueError("order must be >= 1")
    nn = n * n
    M = 2 * nn + 1
    iv = [(0, i) for i in range(1, nn + 1)] + [(M - i, M) for i in range(1, nn + 1)]
    return IntervalModel(n, M, tuple(iv + _z_items(n, M)), _reversal_relabeling(n))


def segment_model(n: int) -> SegmentModel:
    """Segment model with M = 10n^2 + 1: v_i vertical at i, w_i vertical at
    M-i, z_(x,y) from ((x-1)n+y, 0) up to (M-(y-1)n-x, 1)."""
    if n < 1:
        raise ValueError("order must be >= 1")
    nn = n * n
    M = 10 * nn + 1
    segs = [(i, i) for i in range(1, nn + 1)] + [(M - i, M - i) for i in range(1, nn + 1)]
    return SegmentModel(n, M, tuple(segs + _z_items(n, M)), _reversal_relabeling(n))


def intersection_graph(model: IntervalModel | SegmentModel) -> Graph:
    """Adjacency by nonempty closed-interval overlap, or by segment crossing
    (shared endpoint coordinates count as crossing)."""
    if isinstance(model, IntervalModel):
        items = model.intervals

        def meet(a, b):
            return max(a[0], b[0]) <= min(a[1], b[1])
    elif isinstance(model, SegmentModel):
        items = model.segments

        def meet(a, b):
            return (a[0] - b[0]) * (a[1] - b[1]) <= 0
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    N = len(items)
    edges = [(u, v) for u in range(N) for v in range(u + 1, N) if meet(items[u], items[v])]
    return build_graph(N, edges)


def trace_faces(rotations: Sequence[Sequence[int]]) -> list[list[tuple[int, int]]]:
    """Face boundaries of a plane rotation system as dart cycles.

    Successive dart of (u, v) is (v, w) with w following u in the cyclic
    order around v.  The rotation system must describe a connected simple
    graph and satisfy Euler's formula, else it is rejected.
    """
    n = len(rotations)
    if n < 1:
        raise ValueError("rotation system needs at least one vertex")
    nbrs = []
    for v, rot in enumerate(rotations):
        if len(set(rot)) != len(rot):
            raise ValueError(f"rotation of vertex {v} repeats a neighbor")
        for u in rot:
            if not 0 <= u < n or u == v:
                raise ValueError(f"rotation of vertex {v} mentions invalid vertex {u}")
        nbrs.append(list(rot))
    for v in range(n):
        for u in nbrs[v]:
            if v not in nbrs[u]:
                raise ValueError(f"rotation system is asymmetric at ({v}, {u})")
    g = build_graph(n, [(v, u) for v, rot in enumerate(nbrs) for u in rot])
    m = g.edge_count()
    if len(components(g, (1 << n) - 1)) > 1:
        raise ValueError("rotation system describes a disconnected graph")
    if m == 0:
        return [[]]  # single vertex: one face, empty boundary walk
    succ = {}
    for v, rot in enumerate(nbrs):
        for idx, u in enumerate(rot):
            succ[(v, u)] = rot[(idx + 1) % len(rot)]
    faces = []
    visited = set()
    for start in sorted(succ):
        if start in visited:
            continue
        cycle = []
        dart = start
        while dart not in visited:
            visited.add(dart)
            cycle.append(dart)
            u, v = dart
            dart = (v, succ[(v, u)])
        faces.append(cycle)
    if n - m + len(faces) != 2:
        raise ValueError(
            f"face tracing found {len(faces)} faces on {n} vertices and {m} edges; "
            "the rotation system is not plane"
        )
    return faces


def radial_graph(rotations: Sequence[Sequence[int]]) -> tuple[Graph, int]:
    """Bipartite incidence graph between vertices and traced faces.

    Returns the radial graph and the number of original vertices; faces are
    the vertices n..n+F-1.
    """
    n = len(rotations)
    faces = trace_faces(rotations)
    edges = []
    for f, cycle in enumerate(faces):
        boundary = {u for u, _ in cycle} if cycle else {0}
        for u in sorted(boundary):
            edges.append((u, n + f))
    labels = tuple({"kind": "vertex", "id": v} for v in range(n)) + tuple(
        {"kind": "face", "id": f} for f in range(len(faces))
    )
    return build_graph(n + len(faces), edges, labels), n


def map_graph_from_rotation(rotations: Sequence[Sequence[int]]) -> Graph:
    """Adjacency of faces sharing a vertex: the square of the radial graph
    induced on its face vertices."""
    R, n = radial_graph(rotations)
    return induced_subgraph(power(R, 2), (1 << R.n) - (1 << n))


def line_graph_via_subdivision(G: Graph) -> Graph:
    """Line graph obtained by subdividing every edge once and taking the
    square induced on the subdividing vertices."""
    edge_list = G.edges()
    if not edge_list:
        raise ValueError("line graph of an edgeless graph is empty")
    n = G.n
    edges1 = []
    for e, (u, v) in enumerate(edge_list):
        edges1.append((u, n + e))
        edges1.append((v, n + e))
    G1 = build_graph(n + len(edge_list), edges1)
    return induced_subgraph(power(G1, 2), (1 << G1.n) - (1 << n))


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("need n >= 1")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need n >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def grid(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("need a, b >= 1")
    edges = []
    for i in range(a):
        for j in range(b):
            v = i * b + j
            if j + 1 < b:
                edges.append((v, v + 1))
            if i + 1 < a:
                edges.append((v, v + b))
    return build_graph(a * b, edges)


def random_degenerate(n: int, d: int, seed: int) -> Graph:
    """d-degenerate graph from seeded random back-edges; vertices after the
    first pick 1..d earlier neighbors each (so d >= 1 gives a connected
    graph)."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    rng = random.Random(seed)
    edges = []
    for v in range(1, n):
        if d == 0:
            break
        cnt = rng.randint(1, min(d, v))
        for u in rng.sample(range(v), cnt):
            edges.append((u, v))
    return build_graph(n, edges)
