"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: span enumeration instead of
elimination, path enumeration instead of pruned search, full tree
enumeration instead of subset dynamic programming (and, as the references
for pruned searches, the unpruned subset DP, the n! order sweep and the
unbounded deletion recursion; as the reference for exact wcol's
completion bound, the prefix search cut by the counts alone; as the
reference for exact rank-width's bitset-decided largest subsets, the
integer-order submask scan; as the references for the one-walk tree
code, the per-edge width check, the rooted balanced partition and the
prune-and-suppress restriction; as the reference for the mask-walked
induced subgraph, the sorted vertex list with its index map; as the reference for the range-built
twisted chain, the pair-by-pair rule builder; as the references for the
bulk edge-list reader and writer, the per-line parser, the per-edge
serializer and the per-bit symmetry scan; as the references for the
mask-read certificate harness, the per-cell side lookups and the
generator's own shuffle and per-vertex coin flips; as the reference for
the row-prefix search of the sub-chain extraction, the scan of every row
set, and for its one-colour case, the three-stage Ramsey reduction; as
the reference for the walk of colour-connected class sets, the
enumeration of every class union; as the reference for the smallest td
colouring's one-component check, the check of every component of every
union; as the reference for the clique-or-independent-set witness that
takes its class tree from the width check, the flow that solves the
majority class exactly on its own; as the reference for the mask-walked
cotree dynamic program, the one with a vertex set at every node).  The
cotree evaluator and the width-1 decomposition read off a cotree build
the cograph cases the cotree tests check.  The helpers at the end (the
BFS distances, the expansion of a refined colour set to its base
classes, the refinement lemmas' hitter and closure checks, one vertex's
weakly reachable set, the mixed lines and alternation of a bipartition,
the local complement of a graph at a vertex) are called by the tests
alone, so they live here rather than in the package.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from typing import Sequence

from rwcolor.coloring import Coloring, RefinementColoring, UnionReport
from rwcolor.ehchi import (
    Cotree,
    EHParams,
    cograph_clique_or_is,
    cograph_extract,
    is_cograph,
)
from rwcolor.families import (
    TWISTED_CHAIN_VARIANTS,
    chain_blocks,
    chain_labels,
    chain_order,
    col_scalar,
    row_scalar,
    verify_twisted_chain,
)
from rwcolor.graph import (
    Graph,
    ball,
    bits_of,
    build_graph,
    components,
    cutrank_table,
    degeneracy_order,
    mask_of,
    shells,
)
from rwcolor.lab import (
    EXTRACT_COMBO_BUDGET,
    Bipartition,
    ExtractionReport,
    ImbalanceReport,
    MatchingCertificate,
    _alternate,
    _c_mask,
    _mixed_lines,
    matching_from_alternation,
    ramsey_bireduce,
    ramsey_threshold_within,
)
from rwcolor.orderings import LinearOrder, wcol_heuristic, wreach_sets
from rwcolor.widths import (
    RankDecomposition,
    rank_width_exact,
    rank_width_of_subgraph,
    tree_depth_at_most,
)

INF = float("inf")


def span_rank(rows: list[int]) -> int:
    """GF(2) rank as log2 of the row-span size."""
    span = {0}
    for row in rows:
        if row not in span:
            span |= {s ^ row for s in span}
    return len(span).bit_length() - 1


def cutrank_by_span(G: Graph, X) -> int:
    X = set(X)
    co = [v for v in range(G.n) if v not in X]
    if not X or not co:
        return 0
    comask = 0
    for v in co:
        comask |= 1 << v
    return span_rank([G.adj[v] & comask for v in sorted(X)])


def floyd_warshall(G: Graph) -> list[list[float]]:
    n = G.n
    dist = [[0 if i == j else (1 if G.has_edge(i, j) else INF) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


def all_graphs(n: int):
    """Every labeled simple graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield build_graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def random_graph(n: int, p: float, rng) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return build_graph(n, edges)


def wreach_by_paths(G: Graph, L, r: int, v: int) -> set[int]:
    """Weakly reachable set by enumerating all simple paths up to length r."""
    out = {v}
    pos = L.position

    def walk(path: list[int]):
        if len(path) - 1 >= 1:
            u = path[-1]
            if all(pos[u] <= pos[w] for w in path):
                out.add(u)
        if len(path) - 1 == r:
            return
        for w in G.neighbors(path[-1]):
            if w not in path:
                path.append(w)
                walk(path)
                path.pop()

    walk([v])
    return out


def treedepth_by_recursion(G: Graph) -> int:
    """Plain recursion on vertex sets, no memoization."""

    def comps(vs: frozenset) -> list[frozenset]:
        left = set(vs)
        out = []
        while left:
            seen = {next(iter(sorted(left)))}
            stack = list(seen)
            while stack:
                v = stack.pop()
                for u in G.neighbors(v):
                    if u in vs and u not in seen:
                        seen.add(u)
                        stack.append(u)
            out.append(frozenset(seen))
            left -= seen
        return out

    def td(vs: frozenset) -> int:
        if len(vs) == 1:
            return 1
        parts = comps(vs)
        if len(parts) > 1:
            return max(td(p) for p in parts)
        return 1 + min(td(vs - {v}) for v in sorted(vs))

    return td(frozenset(range(G.n)))


def tree_depth_by_deletion(G: Graph) -> int:
    """Deletion recursion memoized on vertex subsets, with no bounds:
    ``tree_depth_exact`` and ``tree_depth_at_most`` must agree with it."""
    from rwcolor.graph import bits_of, components

    memo: dict[int, int] = {}

    def td(mask: int) -> int:
        if mask.bit_count() == 1:
            return 1
        got = memo.get(mask)
        if got is not None:
            return got
        comps = components(G, mask)
        if len(comps) > 1:
            val = max(td(c) for c in comps)
        else:
            val = 1 + min(td(mask & ~(1 << v)) for v in bits_of(mask))
        memo[mask] = val
        return val

    return td((1 << G.n) - 1)


def wcol_by_permutations(G: Graph, r: int):
    """Sweep of all n! orders, first strict minimum kept: ``wcol_exact``
    must return this value and this order."""
    from rwcolor.orderings import LinearOrder, wcol_of_order

    best_val = G.n + 1
    best_order = None
    for perm in itertools.permutations(range(G.n)):
        L = LinearOrder.from_order(perm)
        val = wcol_of_order(G, L, r)
        if val < best_val:
            best_val = val
            best_order = L
    assert best_order is not None
    return best_val, best_order


def wcol_by_search(G: Graph, r: int):
    """The prefix branch and bound cut by the counts alone, with no bound
    on the completion: ``wcol_exact`` must return this value and this
    order."""
    n = G.n
    best = wcol_heuristic(G, r)[0] + 1
    best_order: tuple[int, ...] = ()
    counts = [0] * n
    prefix: list[int] = []
    failed: set[tuple] = set()

    def search(S: int, high: int) -> None:
        nonlocal best, best_order
        if not S:
            best = high
            best_order = tuple(prefix)
            return
        key = (S, tuple(counts[v] for v in bits_of(S)))
        if key in failed:
            return
        entry = best
        for u in bits_of(S):
            if high >= best:
                break
            hit = list(bits_of(ball(G, u, r, S)))
            top = high
            for v in hit:
                counts[v] += 1
                if counts[v] > top:
                    top = counts[v]
            if top < best:
                prefix.append(u)
                search(S ^ (1 << u), top)
                prefix.pop()
            for v in hit:
                counts[v] -= 1
        if best == entry:
            failed.add(key)

    search((1 << n) - 1, 0)
    return best, LinearOrder.from_order(best_order)


def subcubic_trees(n: int):
    """All rank decompositions on n leaves, by iterative leaf insertion.

    Starting from the two-leaf tree, each next leaf subdivides one existing
    edge; this enumerates every leaf-labeled subcubic tree exactly once.
    """
    if n < 2:
        raise ValueError("need n >= 2 leaves")
    base_edges = [(0, 1)]

    def expand(edges: list[tuple[int, int]], next_leaf: int, next_internal: int):
        if next_leaf == n:
            yield list(edges)
            return
        for i, (a, b) in enumerate(list(edges)):
            new_edges = edges[:i] + edges[i + 1 :]
            new_edges += [(a, next_internal), (b, next_internal), (next_leaf, next_internal)]
            yield from expand(new_edges, next_leaf + 1, next_internal + 1)

    for edges in expand(base_edges, 2, n):
        node_ids = sorted({x for e in edges for x in e})
        remap = {x: i for i, x in enumerate(node_ids)}
        remapped = tuple((remap[a], remap[b]) for a, b in edges)
        leaf_map = tuple((remap[v], v) for v in range(n))
        yield RankDecomposition(len(node_ids), remapped, leaf_map)


def rank_width_by_trees(G: Graph) -> int:
    from rwcolor.widths import verify_decomposition

    return min(verify_decomposition(G, D) for D in subcubic_trees(G.n))


def rank_width_by_subset_dp(G: Graph) -> tuple[int, RankDecomposition | None]:
    """Unpruned 3^n subset DP: every bipartition of every subset, first strict
    minimum kept.  ``rank_width_exact`` must return this value and this tree."""
    from rwcolor.graph import cutrank_mask

    n = G.n
    if n <= 1:
        return 0, None
    full = (1 << n) - 1
    cut = [0] * (full + 1)
    for mask in range(1, full + 1):
        cut[mask] = cutrank_mask(G, mask)
    best = [0] * (full + 1)
    choice = [0] * (full + 1)
    masks = list(range(1, 1 << n))
    masks.sort(key=lambda m: m.bit_count())
    for mask in masks:
        if mask.bit_count() < 2:
            continue
        b = None
        bsub = 0
        sub = (mask - 1) & mask
        while sub:
            rest = mask ^ sub
            if sub < rest:
                w = max(best[sub], best[rest], cut[sub], cut[rest])
                if b is None or w < b:
                    b = w
                    bsub = sub
            sub = (sub - 1) & mask
        best[mask] = b
        choice[mask] = bsub

    nodes = 0
    edges: list[tuple[int, int]] = []
    leaf_map: list[tuple[int, int]] = []

    def build(mask: int) -> int:
        nonlocal nodes
        node = nodes
        nodes += 1
        if mask.bit_count() == 1:
            leaf_map.append((node, mask.bit_length() - 1))
            return node
        sub = choice[mask]
        a = build(sub)
        b2 = build(mask ^ sub)
        edges.append((node, a))
        edges.append((node, b2))
        return node

    top = choice[full]
    a = build(top)
    b = build(full ^ top)
    edges.append((a, b))
    return best[full], RankDecomposition(nodes, tuple(edges), tuple(leaf_map))


def _best_split(key: Sequence[int], mask: int, worst: int, stop: int) -> tuple[int, int]:
    """The first strict minimum of max(key[A], key[B]) below *worst* over
    the splits {A, B} of *mask*, and its A, which is 0 if none is below.

    A runs over the submasks of mask without its highest vertex, in
    descending order; the scan ends early at a split of value <= *stop*.
    """
    low = mask ^ (1 << (mask.bit_length() - 1))
    b = worst
    bsub = 0
    sub = low
    while sub:
        w = key[sub]
        if w < b:
            r = key[mask ^ sub]
            if r < b:
                b = w if w > r else r
                bsub = sub
                if b <= stop:
                    break
        sub = (sub - 1) & low
    return b, bsub


def rank_width_by_scan(G: Graph) -> tuple[int, RankDecomposition | None]:
    """The pruned subset DP in integer order, every set's splits scanned as
    submasks: ``rank_width_exact`` must return this value and this tree."""
    n = G.n
    if n <= 1:
        return 0, None
    full = (1 << n) - 1
    cut = cutrank_table(G)
    ub = 0
    prefix = 0
    for v in degeneracy_order(G)[:-1]:
        prefix |= 1 << v
        ub = max(ub, cut[prefix])
    pruned = ub + 1
    key = [pruned] * (full + 1)
    for v in range(n):
        key[1 << v] = cut[1 << v]
    for mask in range(3, full):
        c = cut[mask]
        if c <= ub and mask & (mask - 1):
            b = _best_split(key, mask, pruned, c)[0]
            key[mask] = b if b > c else c

    nodes = 0
    edges: list[tuple[int, int]] = []
    leaf_map: list[tuple[int, int]] = []

    def build(mask: int) -> int:
        nonlocal nodes
        node = nodes
        nodes += 1
        if mask.bit_count() == 1:
            leaf_map.append((node, mask.bit_length() - 1))
            return node
        sub = _best_split(key, mask, pruned, -1)[1]
        a = build(sub)
        b2 = build(mask ^ sub)
        edges.append((node, a))
        edges.append((node, b2))
        return node

    value, top = _best_split(key, full, pruned, -1)
    a = build(top)
    b = build(full ^ top)
    edges.append((a, b))
    return value, RankDecomposition(nodes, tuple(edges), tuple(leaf_map))


def verify_decomposition_by_edges(G: Graph, D: RankDecomposition) -> int:
    """The per-edge width check ``verify_decomposition`` replaced: a fresh
    walk of the tree for each edge's side."""
    from rwcolor.graph import cutrank_mask
    from rwcolor.widths import _check_structure

    _check_structure(G, D)
    width = 0
    for e in D.edges:
        a, b = e
        adj = D.adjacency()
        leaf = D.leaf_vertex()
        stack = [a]
        seen = {a}
        mask = 0
        while stack:
            t = stack.pop()
            if t in leaf:
                mask |= 1 << leaf[t]
            for s in adj[t]:
                if not (t == a and s == b) and s not in seen:
                    seen.add(s)
                    stack.append(s)
        width = max(width, cutrank_mask(G, mask))
    return width


def induced_subgraph_by_vertices(G: Graph, X) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the vertex iterable X, plus the old->new index
    map: X is sorted, checked vertex by vertex and renumbered 0..|X|-1 in
    that order; ``graph.induced_subgraph`` on mask_of(X) must build the same
    graph, labels included."""
    keep = sorted(set(X))
    if not keep:
        raise ValueError("induced subgraph on an empty vertex set")
    for v in keep:
        if not 0 <= v < G.n:
            raise ValueError(f"vertex {v} not in graph")
    index = {v: i for i, v in enumerate(keep)}
    keep_mask = mask_of(keep)
    adj = []
    for v in keep:
        row = 0
        for u in bits_of(G.adj[v] & keep_mask):
            row |= 1 << index[u]
        adj.append(row)
    labels = tuple(G.labels[v] for v in keep) if G.labels is not None else None
    return Graph(len(keep), tuple(adj), labels), index


def balanced_partition_by_rooting(
    G: Graph, C, D: RankDecomposition
) -> tuple[set[int], set[int]]:
    """The rooted-tree ``balanced_partition`` with its own children lists and
    post-order; the library's version must return the same (X, Y)."""
    from rwcolor.graph import bits_of
    from rwcolor.widths import _check_structure

    c_set = set(C)
    if len(c_set) < 3:
        raise ValueError("balanced partition needs |C| >= 3")
    _check_structure(G, D)
    root_edge = min(tuple(sorted(e)) for e in D.edges)
    adj = D.adjacency()
    leaf = D.leaf_vertex()
    root = D.node_count  # virtual node subdividing root_edge
    children: dict[int, list[int]] = {root: list(root_edge)}
    parent = {root_edge[0]: root, root_edge[1]: root}
    depth = {root: 0, root_edge[0]: 1, root_edge[1]: 1}
    stack = [root_edge[0], root_edge[1]]
    while stack:
        t = stack.pop()
        kids = [s for s in adj[t] if s != parent.get(t) and not (
            {t, s} == set(root_edge))]
        children[t] = kids
        for s in kids:
            parent[s] = t
            depth[s] = depth[t] + 1
            stack.append(s)

    mu: dict[int, int] = {}
    vertices_under: dict[int, int] = {}
    post = []
    stack = [root]
    while stack:
        t = stack.pop()
        post.append(t)
        stack.extend(children.get(t, []))
    for t in reversed(post):
        if t in leaf:
            vertices_under[t] = 1 << leaf[t]
        else:
            m = 0
            for s in children.get(t, []):
                m |= vertices_under[s]
            vertices_under[t] = m
        mu[t] = sum(1 for v in bits_of(vertices_under[t]) if v in c_set)
    csize = len(c_set)
    candidates = [
        t for t in mu if t != root and 3 * mu[t] >= csize
    ]
    t = max(candidates, key=lambda s: (depth[s], -s))
    x_mask = vertices_under[t]
    X = set(bits_of(x_mask))
    Y = set(range(G.n)) - X
    return X, Y


def restrict_decomposition_by_pruning(
    D: RankDecomposition, keep_vertices, relabel: dict[int, int] | None = None
) -> RankDecomposition | None:
    """The prune-to-a-fixed-point, then suppress-degree-2 restriction; the
    library's version must return the same decomposition."""
    keep = set(keep_vertices)
    if len(keep) < 2:
        return None
    leaf = D.leaf_vertex()
    alive = set(range(D.node_count))
    adj = {t: set() for t in alive}
    for a, b in D.edges:
        adj[a].add(b)
        adj[b].add(a)
    kept_leaves = {t for t, v in leaf.items() if v in keep}
    # prune branches that carry no kept leaf
    changed = True
    while changed:
        changed = False
        for t in list(alive):
            if t in kept_leaves:
                continue
            if len(adj[t]) <= 1:
                for s in adj[t]:
                    adj[s].discard(t)
                adj.pop(t)
                alive.discard(t)
                changed = True
    # suppress degree-2 nodes
    for t in list(alive):
        if t not in kept_leaves and len(adj[t]) == 2:
            a, b = sorted(adj[t])
            adj[a].discard(t)
            adj[b].discard(t)
            adj[a].add(b)
            adj[b].add(a)
            adj.pop(t)
            alive.discard(t)
    new_id = {t: i for i, t in enumerate(sorted(alive))}
    edges = set()
    for t in alive:
        for s in adj[t]:
            edges.add((min(new_id[t], new_id[s]), max(new_id[t], new_id[s])))
    leaf_map = []
    for t in sorted(kept_leaves):
        v = leaf[t]
        leaf_map.append((new_id[t], relabel[v] if relabel is not None else v))
    return RankDecomposition(len(alive), tuple(sorted(edges)), tuple(leaf_map))


def _tc_scalar_row(x: int, y: int, n: int) -> int:
    return n * (x - 1) + y


def _tc_scalar_col(x: int, y: int, n: int) -> int:
    return n * (y - 1) + x


def twisted_chain_by_rule(n: int, variant: str = "bare") -> Graph:
    """Twisted chain of order n, one adjacency bit per Python step.

    A = v_1..v_{n^2}, B = w_1..w_{n^2}, C = z_(i,j) row-major.  v_k with
    k = n(x-1)+y is adjacent to z_(i,j) iff x < i, or x = i and y <= j
    (equivalently k <= n(i-1)+j); w_k uses the transposed rule
    k <= n(j-1)+i.  The free parts (edges inside A u B and inside C) are
    fixed by the variant: "bare" leaves them empty, "interval" makes A, B,
    and C cliques (no A-B edges), and "permutation-derived" gives C the
    crossing relation of its segment model while A and B stay edgeless.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if variant not in TWISTED_CHAIN_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    nn = n * n
    N = 3 * nn
    a0, b0, c0 = 0, nn, 2 * nn
    adj = [0] * N
    # A-C: v_k's z-neighbours are the contiguous scalar range k..n^2
    for k in range(1, nn + 1):
        zmask = (((1 << (nn - k + 1)) - 1) << (k - 1)) << c0
        adj[a0 + k - 1] |= zmask
        for s in range(k, nn + 1):
            adj[c0 + s - 1] |= 1 << (a0 + k - 1)
    # B-C: z_(i,j)'s w-neighbours are the contiguous range 1..n(j-1)+i
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            z = c0 + _tc_scalar_row(i, j, n) - 1
            t = _tc_scalar_col(i, j, n)
            adj[z] |= ((1 << t) - 1) << b0
            for k in range(1, t + 1):
                adj[b0 + k - 1] |= 1 << z
    if variant == "interval":
        for block_start, size in ((a0, nn), (b0, nn), (c0, nn)):
            block = ((1 << size) - 1) << block_start
            for v in range(block_start, block_start + size):
                adj[v] |= block & ~(1 << v)
    elif variant == "permutation-derived":
        coords = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
        for ai in range(nn):
            for bi in range(ai + 1, nn):
                x1, y1 = coords[ai]
                x2, y2 = coords[bi]
                s1, s2 = _tc_scalar_row(x1, y1, n), _tc_scalar_row(x2, y2, n)
                t1, t2 = _tc_scalar_col(x1, y1, n), _tc_scalar_col(x2, y2, n)
                # the model puts the column-major scalar on the reversed top
                # line, so segments cross exactly when the two orders agree
                if (s1 - s2) * (t1 - t2) > 0:
                    adj[c0 + ai] |= 1 << (c0 + bi)
                    adj[c0 + bi] |= 1 << (c0 + ai)
    labels = (
        tuple({"role": "A", "k": k} for k in range(1, nn + 1))
        + tuple({"role": "B", "k": k} for k in range(1, nn + 1))
        + tuple(
            {"role": "C", "i": i, "j": j}
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        )
    )
    return Graph(N, tuple(adj), labels)


def serialize_edge_list_by_edges(G: Graph) -> str:
    """Canonical edge-list text: `n m` header then sorted `u v` lines."""
    edges = G.edges()
    lines = [f"{G.n} {len(edges)}"]
    for u, v in edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def parse_edge_list_by_lines(text: str) -> Graph:
    """Parse the canonical edge-list format, enforcing its sortedness.

    Blank lines and `#` comment lines, which files written elsewhere may
    carry, are skipped.
    """
    data_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        data_lines.append((lineno, line))
    if not data_lines:
        raise ValueError("edge list has no data lines")
    lineno, header = data_lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"line {lineno}: header must be 'n m'")
    n, m = _ints_of_line(lineno, parts)
    if len(data_lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(data_lines) - 1}")
    edges = []
    prev = None
    for lineno, line in data_lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: edge line must be 'u v'")
        u, v = _ints_of_line(lineno, parts)
        if not (0 <= u < v < n):
            raise ValueError(f"line {lineno}: edge ({u}, {v}) violates 0 <= u < v < n")
        if prev is not None and (u, v) <= prev:
            raise ValueError(f"line {lineno}: edges are not strictly sorted")
        prev = (u, v)
        edges.append((u, v))
    return build_graph(n, edges)


def _ints_of_line(lineno: int, parts: list[str]) -> list[int]:
    """int() of each token of a line, naming the first token it refuses."""
    out = []
    for token in parts:
        try:
            out.append(int(token))
        except ValueError:
            raise ValueError(f"line {lineno}: {token!r} is not an integer") from None
    return out


def validate_symmetric_by_scan(self: Graph) -> None:
    """Raise if the adjacency relation is not symmetric."""
    for u in range(self.n):
        for v in bits_of(self.adj[u]):
            if not self.adj[v] >> u & 1:
                raise ValueError(f"asymmetric adjacency at ({u}, {v})")


def line_graph_direct(G: Graph) -> Graph:
    edges = G.edges()
    le = []
    for i, e in enumerate(edges):
        for j in range(i + 1, len(edges)):
            if set(e) & set(edges[j]):
                le.append((i, j))
    return build_graph(len(edges), le) if edges else None


def has_induced_p4(G: Graph) -> bool:
    for quad in itertools.combinations(range(G.n), 4):
        sub = [[G.has_edge(a, b) for b in quad] for a in quad]
        deg = [sum(row) for row in sub]
        if sorted(deg) == [1, 1, 2, 2] and sum(deg) == 6:
            ends = [i for i in range(4) if deg[i] == 1]
            if not sub[ends[0]][ends[1]]:
                return True
    return False


def max_clique(G: Graph) -> int:
    best = 0

    def extend(clique: list[int], cands: list[int]):
        nonlocal best
        if len(clique) + len(cands) <= best:
            return
        if not cands:
            best = max(best, len(clique))
            return
        for i, v in enumerate(cands):
            extend(clique + [v], [u for u in cands[i + 1 :] if G.has_edge(u, v)])

    extend([], list(range(G.n)))
    return best


def max_independent_set(G: Graph) -> int:
    from rwcolor.graph import complement

    return max_clique(complement(G))


def random_cotree(n: int, rng):
    """Random union/join structure over n leaves (for generator round-trips)."""
    items = [Cotree("leaf", v) for v in range(n)]
    rng.shuffle(items)
    while len(items) > 1:
        k = rng.randint(2, min(3, len(items)))
        parts = [items.pop() for _ in range(k)]
        op = rng.choice(["union", "join"])
        items.append(Cotree(op, None, tuple(parts)))
    return items[0]


def cotree_to_graph(ct: Cotree, n: int) -> Graph:
    """Evaluate a cotree back into the graph it describes."""
    adj = [0] * n

    def rec(node: Cotree) -> int:
        if node.op == "leaf":
            return 1 << node.vertex
        masks = [rec(ch) for ch in node.children]
        if node.op == "join":
            for i, mi in enumerate(masks):
                others = 0
                for j, mj in enumerate(masks):
                    if j != i:
                        others |= mj
                for v in bits_of(mi):
                    adj[v] |= others
        total = 0
        for m in masks:
            total |= m
        return total

    rec(ct)
    return Graph(n, tuple(adj))


def clique_or_is_by_sets(G: Graph, ct: Cotree) -> tuple[str, set[int]]:
    """Best clique or independent set realized by cotree dynamic programming,
    with a Python set at every node and the winner checked pair by pair.
    The reference for ``ehchi.cograph_clique_or_is``, which walks masks.
    """

    def rec(node: Cotree) -> tuple[int, set[int], int, set[int]]:
        if node.op == "leaf":
            s = {node.vertex}
            return 1, s, 1, s
        parts = [rec(ch) for ch in node.children]
        if node.op == "union":
            w, ws = max(((p[0], p[1]) for p in parts), key=lambda t: t[0])
            a = sum(p[2] for p in parts)
            aset = set().union(*(p[3] for p in parts))
            return w, ws, a, aset
        w = sum(p[0] for p in parts)
        wset = set().union(*(p[1] for p in parts))
        a, aset = max(((p[2], p[3]) for p in parts), key=lambda t: t[0])
        return w, wset, a, aset

    omega, clique, alpha, indep = rec(ct)
    total = G.n  # the cotree's leaves are the graph's vertices
    if omega >= alpha:
        kind, out = "clique", clique
    else:
        kind, out = "independent", indep
    for u in out:
        for v in out:
            if u < v:
                adjacent = G.has_edge(u, v)
                if kind == "clique" and not adjacent:
                    raise AssertionError(f"claimed clique misses edge ({u}, {v})")
                if kind == "independent" and adjacent:
                    raise AssertionError(f"claimed independent set has edge ({u}, {v})")
    assert len(out) * len(out) >= total
    return kind, out


def decomposition_from_cotree(ct: Cotree) -> RankDecomposition | None:
    """Width-at-most-1 rank decomposition read off a cotree.

    Every tree cut groups whole modules, whose members share an outside
    neighbourhood, so each cut matrix has at most one distinct nonzero row.
    Returns None for a single leaf.
    """
    if ct.op == "leaf":  # union and join nodes have at least two children
        return None
    nodes = 0
    edges: list[tuple[int, int]] = []
    leaf_map: list[tuple[int, int]] = []

    def new_node() -> int:
        nonlocal nodes
        nodes += 1
        return nodes - 1

    def build(node: Cotree) -> int:
        if node.op == "leaf":
            nid = new_node()
            leaf_map.append((nid, node.vertex))
            return nid
        roots = [build(ch) for ch in node.children]
        cur = roots[0]
        for nxt in roots[1:]:
            mid = new_node()
            edges.append((mid, cur))
            edges.append((mid, nxt))
            cur = mid
        return cur

    roots = [build(ch) for ch in ct.children]
    cur = roots[0]
    for nxt in roots[1:-1]:
        mid = new_node()
        edges.append((mid, cur))
        edges.append((mid, nxt))
        cur = mid
    edges.append((cur, roots[-1]))
    return RankDecomposition(nodes, tuple(edges), tuple(leaf_map))


def _z_side_by_lookup(n: int, partition: Bipartition, i: int, j: int) -> str:
    """Side of z_(i,j) of an order-n chain."""
    return partition.side(chain_blocks(n)[2] + row_scalar(n, i, j) - 1)


def mixed_lines_by_cells(n: int, partition: Bipartition) -> tuple[list[int], list[int]]:
    """Row and column indices of the order-n chain's C block containing
    vertices from both sides, asking the side of every cell twice."""
    lines = range(1, n + 1)
    rows = [i for i in lines if len({_z_side_by_lookup(n, partition, i, j) for j in lines}) == 2]
    cols = [j for j in lines if len({_z_side_by_lookup(n, partition, i, j) for i in lines}) == 2]
    return rows, cols


def alternating_sequence_by_cells(
    n: int, partition: Bipartition, lex: int
) -> list[tuple[int, int]]:
    """Greedy S/T-alternating sequence of C coordinates along a lex order."""
    if lex not in (1, 2):
        raise ValueError("lex must be 1 or 2")
    return _alternate_by_cells(n, partition, mixed_lines_by_cells(n, partition)[lex - 1], lex)


def _alternate_by_cells(
    n: int, partition: Bipartition, lines: list[int], lex: int
) -> list[tuple[int, int]]:
    seq = []
    for pos, line in enumerate(lines):
        want = "S" if pos % 2 == 0 else "T"
        found = None
        for other in range(1, n + 1):
            i, j = (line, other) if lex == 1 else (other, line)
            if _z_side_by_lookup(n, partition, i, j) == want:
                found = (i, j)
                break
        assert found is not None, "mixed line lost a side"
        seq.append(found)
    return seq


def lower_bound_certificate_by_cells(
    G: Graph, partition: Bipartition
) -> MatchingCertificate | ImbalanceReport:
    """Certificate of order >= floor(m/12) from a C-balanced bipartition,
    counting and walking the C block one cell at a time."""
    n = chain_order(G)
    if n < 12:
        raise ValueError("lower-bound pipeline needs chain order >= 12")
    c0 = chain_blocks(n)[2]
    s_count = sum(1 for v in range(c0, c0 + n * n) if partition.s_mask >> v & 1)
    t_count = n * n - s_count
    k = n // 12
    mrows, mcols = mixed_lines_by_cells(n, partition)
    balanced = 3 * s_count >= n * n and 3 * t_count >= n * n
    if balanced and len(mrows) >= 4 * k:
        return matching_from_alternation(
            n, partition, _alternate_by_cells(n, partition, mrows, 1), "A"
        )
    if balanced and len(mcols) >= 4 * k:
        return matching_from_alternation(
            n, partition, _alternate_by_cells(n, partition, mcols, 2), "B"
        )
    heavy = "S" if s_count >= t_count else "T"
    return ImbalanceReport(heavy, max(s_count, t_count), n * n, len(mrows), len(mcols))


def random_balanced_bipartition_by_draws(G: Graph, seed: int) -> Bipartition:
    """Seeded bipartition balanced with respect to the C block, the C block
    shuffled by ``rng.shuffle`` and one coin flip per A/B vertex in a Python
    loop."""
    n = chain_order(G)
    c0 = chain_blocks(n)[2]
    rng = random.Random(seed)
    nn = n * n
    c_list = list(range(c0, c0 + nn))
    rng.shuffle(c_list)
    cut = rng.randint((nn + 2) // 3, nn - (nn + 2) // 3)
    S = set(c_list[:cut])
    for v in range(c0):
        if rng.random() < 0.5:
            S.add(v)
    return Bipartition.of(G, S)


def extract_by_combinations(G: Graph, c, target: int) -> tuple[Graph, ExtractionReport]:
    """Extract a sub-chain whose three blocks are each single-colored: by
    the three-stage Ramsey reduction once its thresholds fit the order
    (one colour only), and below them by scanning every k-row set in
    combination order for each k, reading each grid point's colors cell
    by cell."""
    n = chain_order(G)
    if target < 1:
        raise ValueError("target must be >= 1")
    c = list(c)
    if len(c) != G.n:
        raise ValueError("coloring does not match the graph")
    d = len(set(c))
    a0, b0, c0 = chain_blocks(n)

    def cell(x: int, y: int) -> tuple[int, int, int]:
        """The C, A and B vertices of grid point (x, y): z_(x,y), v_s and
        w_t, with s and t its row- and column-major scalars."""
        s = row_scalar(n, x, y)
        return c0 + s - 1, a0 + s - 1, b0 + col_scalar(n, x, y) - 1

    def colors_at(x: int, y: int) -> tuple:
        return tuple(c[v] for v in cell(x, y))

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
        # scanning equal-size row sets is complete.  For each row x and each
        # color triple, precompute the bitmask of columns where all three
        # layers hit that triple; candidate columns of a row set are then
        # one AND per triple.
        triples = sorted(
            {colors_at(x, y) for x in range(1, n + 1) for y in range(1, n + 1)}
        )
        row_masks: list[dict[tuple, int]] = [{}]
        for x in range(1, n + 1):
            masks = {t: 0 for t in triples}
            for y in range(1, n + 1):
                masks[colors_at(x, y)] |= 1 << (y - 1)
            row_masks.append(masks)
        k = 1
        while k <= n and math.comb(n, k) <= EXTRACT_COMBO_BUDGET:
            found = None
            for xs in itertools.combinations(range(1, n + 1), k):
                for t in triples:
                    cand = row_masks[xs[0]][t]
                    for x in xs[1:]:
                        cand &= row_masks[x][t]
                        if cand.bit_count() < k:
                            break
                    if cand.bit_count() >= k:
                        ys = []
                        while cand and len(ys) < k:
                            low = cand & -cand
                            ys.append(low.bit_length())
                            cand ^= low
                        found = (xs, tuple(ys), t)
                        break
                if found:
                    break
            if not found:
                break
            best_xs, best_ys, best_colors = found
            stage_sizes = (k, k, k)
            k += 1

    achieved = len(best_xs)
    if achieved == 0:
        raise AssertionError("an order-1 block always exists")
    sub, _ = induced_subgraph_by_vertices(
        G, [v for x in best_xs for y in best_ys for v in cell(x, y)]
    )
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


def check_unions_by_enumeration(G: Graph, c: Coloring, p: int, budget, bound) -> UnionReport:
    """Judge every union of i <= p classes of c on G, by increasing i and
    then lexicographically, on all components of the whole union, with
    budget[i] read once per size into ``report.q``: ``bound(comps, q)``
    gives ``(low, high, method)``, and the union is refuted with low when
    low > q, else inconclusive with high when high > q.  A method other
    than None is recorded in ``measured[i]`` with the worst high over
    unions of at most i classes.  A drop-in for ``coloring._check_unions``."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if len(c.colors) != G.n:
        raise ValueError("coloring does not match the graph")
    masks = c.classes()
    palette = sorted(masks)
    report = UnionReport()
    for i in range(1, min(p, len(palette)) + 1):
        q = report.q[i] = budget[i]
        for combo in itertools.combinations(palette, i):
            report.checked_unions += 1
            union = functools.reduce(operator.or_, map(masks.get, combo))
            low, high, method = bound(components(G, union), q)
            if method is not None:
                seen = [*report.measured.values(), (high, method)]  # sizes up to i so far
                how = "upper-bound" if any(m == "upper-bound" for _, m in seen) else "exact"
                report.measured[i] = (max(w for w, _ in seen), how)
            if low > q:
                report.failures.append((combo, i, low))
            elif high > q:
                report.inconclusive.append((combo, i, high))
    return report


def small_td_coloring_by_enumeration(G: Graph, p: int) -> Coloring:
    """Smallest-palette coloring whose unions of i <= p classes have
    tree-depth <= i, by backtracking over restricted-growth assignments
    that re-check every component of every union on the colored prefix
    containing the new vertex's class.  The reference for
    ``coloring._exact_small_td_coloring``, which checks only the new
    vertex's component."""
    n = G.n

    def union_ok(assign: list[int], upto: int) -> bool:
        cols = sorted(set(assign[: upto + 1]))
        target = assign[upto]
        for i in range(1, min(p, len(cols)) + 1):
            for combo in itertools.combinations(cols, i):
                if target not in combo:
                    continue
                union = mask_of(v for v in range(upto + 1) if assign[v] in combo)
                for comp in components(G, union):
                    if comp.bit_count() > i and not tree_depth_at_most(
                        induced_subgraph_by_vertices(G, bits_of(comp))[0], i
                    ):
                        return False
        return True

    for k in range(1, n + 1):
        assign = [0] * n

        def backtrack(v: int, used: int) -> bool:
            if v == n:
                return True
            for col in range(1, min(k, used + 1) + 1):
                assign[v] = col
                if union_ok(assign, v) and backtrack(v + 1, max(used, col)):
                    return True
            assign[v] = 0
            return False

        if backtrack(0, 0):
            return Coloring(tuple(assign), max(assign))
    raise AssertionError("identity coloring always satisfies the constraints")


# Helpers only the tests call.


def bfs_distances(G: Graph, source: int) -> list:
    """Single-source shortest-path distances; INF marks unreachable vertices."""
    if not 0 <= source < G.n:
        raise ValueError(f"source {source} not in graph")
    dist = [INF] * G.n
    for d, layer in enumerate(shells(G, source, (1 << G.n) - 1, G.n)):
        for v in bits_of(layer):
            dist[v] = d
    return dist


def all_pairs_distances(G: Graph) -> list[list]:
    return [bfs_distances(G, v) for v in range(G.n)]


def expand_good(R: RefinementColoring, X) -> set[int]:
    """All vertices whose base color appears in the decode of X's refined colors."""
    X = set(X)
    if not X:
        return set()
    base_union: set[int] = set()
    for q in {R.refined.colors[v] for v in X}:
        base_union |= R.decode[q]
    return {v for v, col in enumerate(R.base.colors) if col in base_union}


def eh_witness_by_presolve(G: Graph, provider) -> tuple[set[int], str, EHParams]:
    """Clique or independent set of size >= ceil(n^epsilon), with every
    class width-checked on its own and the majority class's tree taken
    from ``rank_width_exact`` on the whole class, which raises above
    ``RANK_WIDTH_EXACT_CAP`` vertices.  The reference for
    ``ehchi.eh_witness``, which takes that tree from its class check."""
    c, r1 = provider(G)
    n1 = c.palette_size
    classes = c.classes()
    for col, vs in sorted(classes.items()):
        value = rank_width_of_subgraph(G, components(G, vs))[1]
        if value > r1:
            raise ValueError(f"class {col} has rank-width bound {value} > provider bound {r1}")
    params = EHParams.for_width(r1, n1)
    if G.n < n1 * n1:
        if G.n < 2:
            return {0}, "independent", params
        return {0, 1}, "clique" if G.has_edge(0, 1) else "independent", params
    _, mask = max(sorted(classes.items()), key=lambda kv: (kv[1].bit_count(), -kv[0]))
    members = list(bits_of(mask))
    sub, _ = induced_subgraph_by_vertices(G, members)
    local = set(range(sub.n))
    if sub.n > 2:
        local = set(bits_of(cograph_extract(sub, rank_width_exact(sub).decomposition, r1)))
    core_members = sorted(local)
    core, _ = induced_subgraph_by_vertices(sub, core_members)
    kind, got = cograph_clique_or_is(core, is_cograph(core)[1])
    return {members[core_members[v]] for v in bits_of(got)}, kind, params


def expand_excellent(R: RefinementColoring, X) -> set[int]:
    """Expand through the whole refinement chain, outermost level first."""
    cur = set(X)
    node: RefinementColoring | None = R
    while node is not None:
        cur = expand_good(node, cur)
        node = node.inner
    return cur


def is_hitter(G: Graph, X, Xp, r: int, dist: list[list] | None = None) -> bool:
    """Does Xp contain an internal vertex of some shortest path for every
    X-pair at distance in (1, r]?"""
    X = set(X)
    Xp = set(Xp)
    if not X <= Xp:
        raise ValueError("X must be contained in its candidate hitter")
    if dist is None:
        dist = all_pairs_distances(G)
    for u, v in itertools.combinations(sorted(X), 2):
        d = dist[u][v]
        if 1 < d <= r:
            if not any(
                z not in (u, v) and dist[u][z] + dist[z][v] == d for z in Xp
            ):
                return False
    return True


def is_closure(G: Graph, X, Xp, r: int, dist: list[list] | None = None) -> bool:
    """Does the subgraph induced on Xp preserve all X-distances up to r?"""
    X = set(X)
    Xp = set(Xp)
    if not X <= Xp:
        raise ValueError("X must be contained in its candidate closure")
    if dist is None:
        dist = all_pairs_distances(G)
    sub, index = induced_subgraph_by_vertices(G, Xp)
    sub_dist: dict[int, list] = {}
    for u, v in itertools.combinations(sorted(X), 2):
        d = dist[u][v]
        if d <= 1 or d > r:
            continue
        du = sub_dist.get(u)
        if du is None:
            du = bfs_distances(sub, index[u])
            sub_dist[u] = du
        if du[index[v]] != d:
            return False
    return True


def local_complement(G: Graph, v: int) -> Graph:
    """G * v: G with the edges among the neighbours of v complemented."""
    flip = set(itertools.combinations(bits_of(G.adj[v]), 2))
    return build_graph(G.n, set(G.edges()) ^ flip)


def wreach(G: Graph, L: LinearOrder, r: int, v: int) -> frozenset:
    """Vertices u that are the order-minimum on some u--v path of length <= r."""
    return frozenset(bits_of(wreach_sets(G, L, r)[v]))


def mixed_lines(n: int, partition: Bipartition) -> tuple[list[int], list[int]]:
    """Row and column indices of the order-n chain's C block containing
    vertices from both sides, read from its C-block mask."""
    return _mixed_lines(n, _c_mask(n, partition))


def alternating_sequence(n: int, partition: Bipartition, lex: int) -> list[tuple[int, int]]:
    """Greedy S/T-alternating sequence of C coordinates along a lex order.

    lex=1 walks mixed rows in row order, lex=2 mixed columns in column
    order, taking an S element from the first line, a T element from the
    second, and so on.  Mixed lines contain both, so the sequence is as
    long as the number of mixed lines.
    """
    if lex not in (1, 2):
        raise ValueError("lex must be 1 or 2")
    s = _c_mask(n, partition)
    return _alternate(n, s, _mixed_lines(n, s)[lex - 1], lex)
