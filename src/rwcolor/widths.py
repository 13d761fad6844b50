"""Exact and heuristic rank-width, tree-depth, and balanced partitions.

This is the oracle layer: every coloring or certificate produced elsewhere
in the package is checkable against the exact solvers here, which only need
to work at desk scale.

Every walk over a rank-decomposition tree goes through :func:`_hang`,
which hangs the tree from one edge: the structure check, the width check,
the balanced partition and the restriction to a vertex subset all read
its traversal order, parents, depths and leaf masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Iterable, Mapping, Sequence

from .graph import (
    Graph,
    _cutrank_planes,
    _union_rows,
    bits_of,
    check_vertex_mask,
    cutrank_mask,
    degeneracy_order,
    induced_subgraph,
    reverse_lanes,
    subset_lanes,
)
from .orderings import LinearOrder

RANK_WIDTH_EXACT_CAP = 14
TREE_DEPTH_EXACT_CAP = 18


@dataclass(frozen=True)
class RankDecomposition:
    """Subcubic tree with leaves bijectively mapped to graph vertices.

    Nodes are 0..node_count-1; leaf_map lists (leaf_node, vertex) pairs.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    leaf_map: tuple[tuple[int, int], ...]

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def leaf_vertex(self) -> dict[int, int]:
        return dict(self.leaf_map)


@dataclass
class WidthReport:
    value: int
    method: str  # "exact" | "upper-bound"
    decomposition: RankDecomposition | None


def _hang(
    D: RankDecomposition, edge: tuple[int, int]
) -> tuple[list[int], dict[int, int], dict[int, int], list[int]]:
    """Hang D's tree from a virtual root (numbered node_count) that
    subdivides *edge*.

    Returns the nodes reached, in breadth-first order (every parent before
    its children); each node's parent (the root for both ends of *edge*);
    its depth (1 for both ends); and ``below``, indexed by node, the mask
    of graph vertices at the leaves under it.  The parents double as the
    seen set, so the walk ends on a cyclic or disconnected edge list too.
    """
    adj = D.adjacency()
    leaf = D.leaf_vertex()
    root = D.node_count
    parent = dict.fromkeys(edge, root)
    depth = dict.fromkeys(edge, 1)
    order = list(parent)
    for t in order:
        for s in adj[t]:
            if s not in parent:
                parent[s] = t
                depth[s] = depth[t] + 1
                order.append(s)
    below = [0] * (root + 1)
    for t in reversed(order):
        if t in leaf:
            below[t] |= 1 << leaf[t]
        below[parent[t]] |= below[t]
    return order, parent, depth, below


def _check_structure(
    G: Graph, D: RankDecomposition
) -> tuple[list[int], dict[int, int], dict[int, int], list[int]]:
    """Reject a D that is not a decomposition of G; otherwise return its
    hanging from the lexicographically smallest edge.

    The leaf map is checked before the walk, which shifts by its vertices.
    """
    n_nodes = D.node_count
    if n_nodes < 2:
        raise ValueError("decomposition tree must have at least 2 nodes")
    if len(D.edges) != n_nodes - 1:
        raise ValueError(
            f"tree on {n_nodes} nodes needs {n_nodes - 1} edges, got {len(D.edges)}"
        )
    for a, b in D.edges:
        if not (0 <= a < n_nodes and 0 <= b < n_nodes):
            raise ValueError(f"edge ({a}, {b}) leaves the node range")
    adj = D.adjacency()
    degrees = [len(a) for a in adj]
    for t, d in enumerate(degrees):
        if d not in (1, 3):
            raise ValueError(f"node {t} has degree {d}; every node must have degree 1 or 3")
    leaves = {t for t, d in enumerate(degrees) if d == 1}
    leaf = D.leaf_vertex()
    if set(leaf) != leaves:
        raise ValueError("leaf_map domain differs from the tree's leaves")
    mapped = sorted(leaf.values())
    if mapped != list(range(G.n)):
        raise ValueError("leaf_map is not a bijection onto the vertex set")
    hanging = _hang(D, min(tuple(sorted(e)) for e in D.edges))
    if len(hanging[0]) != n_nodes:
        raise ValueError("decomposition tree is disconnected")
    return hanging


def verify_decomposition(G: Graph, D: RankDecomposition) -> int:
    """Width of a rank-decomposition: max cut-rank over its tree edges.

    Raises on structural violations (degree, connectivity, leaf bijection).
    Each tree edge cuts off the leaves below its lower end; the two ends of
    the root edge cut the same edge, so the first node is skipped.
    """
    order, _, _, below = _check_structure(G, D)
    return max(cutrank_mask(G, below[t]) for t in order[1:])


def rank_width_exact(G: Graph, cap: int = RANK_WIDTH_EXACT_CAP) -> WidthReport:
    """Exact rank-width with a witness decomposition.

    Minimizes over all leaf-labeled subcubic trees by a dynamic program over
    vertex subsets: a set is held at width level t when its cut-rank is
    <= t and it is one vertex or splits into two parts held at level t.
    The cut-ranks come from one GF(2) elimination run lane-parallel over
    every subset, as bit-sliced planes (:func:`_cutrank_planes`).

    The sweep runs one width level t = 0, 1, 2, ... at a time, on bitsets
    after Oum ("Computing rank-width exactly", IPL 2009), over the subsets
    of V - z only, z = n - 1: bit S of the 2^(n-1)-bit int ``held`` is set
    when S is held at level t.  Hanging an optimal tree from z's leaf edge
    puts V - z on a tree edge, and cut({z}) = cut(V - z), so the width is
    the first t at which V - z is held; the sweep never passes it and
    needs no upper bound.  A level starts from the previous one and the singletons
    of cut-rank <= t, then goes up the sizes 2 to n - 1, each set after
    its proper subsets.  A size's candidates are its lanes of cut-rank <=
    t not yet held; the level's lanes of cut-rank <= t come from the
    planes by a bit-sliced compare (:func:`_cut_at_most`).  Shifting the
    held sets without v left by 2^v adds v to each, so the OR of those
    shifts over the vertices held alone marks every candidate with a
    one-vertex split.  Each candidate S left takes one test,
    :func:`_splits`, against ``rev``, the bit reversal of ``held`` (by a
    byte table, :func:`reverse_lanes`) built once per level and size.  The
    test reads only S's proper subsets, so the sets decided in the same
    size change no answer.  Against the sweep over all 2^n subsets that
    this replaced, a solve of gnp(n, 0.4) takes 0.6-0.7x the time at n =
    11-12, 0.38x at n = 14, 0.27x at n = 16 and 0.15-0.19x at n = 18-20
    (2-vCPU host).

    Each finished level is kept with its reversal, and the witness tree is
    rebuilt top down from them by the same test (:func:`_first_split`):
    the top edge splits the whole set into V - z and {z}, and each
    internal set splits at the first level where it splits at all, into
    the highest such part without its highest vertex.  That is the first
    strict minimum, in descending submask order, of the full subset
    dynamic program's scan of the set's splits, V - z being the highest
    part of the whole set, so the tree is that program's.  Graphs on <= 1
    vertex have width 0 and no decomposition.
    """
    n = G.n
    if n <= 1:
        return WidthReport(0, "exact", None)
    if n > cap:
        raise ValueError(
            f"exact rank-width is capped at n={cap}; use rank_width_upper instead"
        )
    lanes = 1 << (n - 1)
    full = lanes - 1
    planes = _cutrank_planes(G)
    adds, layers = _sweep_lanes(n - 1)
    lacks = {s: out for out, s in adds}
    held = 0
    levels = []
    for value in count():
        within = _cut_at_most(planes, value, lanes)
        alone = [(out, s) for out, s in adds if within >> s & 1]
        held |= within & layers[0]
        for layer in layers[1:]:
            new = within & layer & ~held
            if not new:
                continue
            found = new & _add_one(held, alone)
            rest = new ^ found
            if rest:
                rev = reverse_lanes(held, lanes)
                digits = format(rest, "b")[::-1]
                mask = digits.find("1")
                while mask >= 0:
                    if _splits(held, rev, full ^ mask, lacks):
                        found |= 1 << mask
                    mask = digits.find("1", mask + 1)
            held |= found
        levels.append((held, reverse_lanes(held, lanes)))
        if held >> full & 1:
            break

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
        sub = _first_split(levels, mask, lacks)[1]
        a = build(sub)
        b2 = build(mask ^ sub)
        edges.append((node, a))
        edges.append((node, b2))
        return node

    a = build(full)
    b = build(1 << (n - 1))
    edges.append((a, b))
    D = RankDecomposition(nodes, tuple(edges), tuple(leaf_map))
    return WidthReport(value, "exact", D)


def _splits(held: int, rev: int, out: int, lacks: Mapping[int, int]) -> int:
    """The lanes A of the proper nonempty subsets of S = full ^ *out* whose
    parts A and S ^ A are both lanes of *held*, whose bit reversal is
    *rev*; *lacks* maps 2^v to the lanes without v.

    Bit A of ``rev >> out`` is bit full ^ (A + out) of held, which for A
    within S is bit S ^ A; the lanes with a vertex of *out* are masked
    away.  The empty set is never held, so neither A nor S ^ A is empty.
    """
    meet = held & rev >> out
    while out and meet:
        low = out & -out
        meet &= lacks[low]
        out ^= low
    return meet


def _first_split(
    levels: Sequence[tuple[int, int]], mask: int, lacks: Mapping[int, int]
) -> tuple[int, int]:
    """The first of the (held, reversal) *levels* at which *mask* splits
    into two held parts, and of those parts without mask's highest vertex,
    the highest lane."""
    out = ((1 << len(lacks)) - 1) ^ mask
    no_top = lacks[1 << (mask.bit_length() - 1)]
    for t, (held, rev) in enumerate(levels):
        meet = _splits(held, rev, out, lacks) & no_top
        if meet:
            return t, meet.bit_length() - 1


def _cut_at_most(planes: Sequence[int], value: int, lanes: int) -> int:
    """The *lanes* = 2^(n-1) lanes of the vertex masks without vertex n-1
    of cut-rank <= *value*, by a bit-sliced compare from the top plane
    down over an n-vertex graph's :func:`_cutrank_planes`."""
    equal = (1 << lanes) - 1
    below = equal if value >> len(planes) else 0
    for p in reversed(range(len(planes))):
        if value >> p & 1:
            below |= equal & ~planes[p]
            equal &= planes[p]
        else:
            equal &= ~planes[p]
    return below | equal


@lru_cache(maxsize=8)
def _sweep_lanes(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """For the subsets of n vertices as lanes: the pair (lanes without v,
    2^v) of each vertex v, and the lanes of each size from 1 to n, the
    last the single lane of all n."""
    every = (1 << (1 << n)) - 1
    adds = tuple((every ^ lane, 1 << v) for v, lane in enumerate(subset_lanes(n)))
    layers = [sum(1 << s for _, s in adds)]
    while len(layers) < n:
        layers.append(_add_one(layers[-1], adds))
    return adds, tuple(layers)


def _add_one(sets: int, adds: Iterable[tuple[int, int]]) -> int:
    """The lanes S + v for each lane S of *sets* without v, over the pairs
    (lanes without v, 2^v) in *adds*."""
    grown = 0
    for out, s in adds:
        grown |= (sets & out) << s
    return grown


def _greedy_caterpillar(G: Graph, ranks: Sequence[int]) -> tuple[list[int], int]:
    """A caterpillar order of G by least prefix cut-rank, and its width,
    read from *ranks*, the cut-rank of each vertex mask of G (its
    :func:`cutrank_table`).

    The order starts at a least-degree vertex and then appends, at each
    step, the vertex whose prefix has the least cut-rank, smallest id on
    ties.  A prefix X cuts at most n - |X|, so once the width reaches the
    number of vertices left no later prefix can raise it, and those follow
    in increasing order.  No solver in the package reads it now; it is
    kept, with its test, as the candidate default order of
    :func:`rank_width_upper`.
    """
    first = min(range(G.n), key=lambda v: G.adj[v].bit_count())
    order = [first]
    prefix = 1 << first
    rest = ((1 << G.n) - 1) ^ prefix
    width = ranks[prefix]
    while width < rest.bit_count():
        v = min(bits_of(rest), key=lambda u: ranks[prefix | 1 << u])
        order.append(v)
        prefix |= 1 << v
        rest ^= 1 << v
        width = max(width, ranks[prefix])
    order.extend(bits_of(rest))
    return order, width


def caterpillar_decomposition(order: Sequence[int]) -> RankDecomposition:
    """Caterpillar tree whose i-th leaf is order[i]; cuts are the prefixes."""
    n = len(order)
    if n < 2:
        raise ValueError("caterpillar needs at least 2 vertices")
    if n == 2:
        return RankDecomposition(2, ((0, 1),), ((0, order[0]), (1, order[1])))
    # leaves 0..n-1, spine nodes n..2n-3
    edges = [(0, n), (1, n)]
    for i in range(n - 3):
        edges.append((n + i, n + i + 1))
        edges.append((i + 2, n + i + 1))
    edges.append((2 * n - 3, n - 1))
    leaf_map = tuple((i, order[i]) for i in range(n))
    return RankDecomposition(2 * n - 2, tuple(edges), leaf_map)


def rank_width_upper(G: Graph, order: LinearOrder | None = None) -> WidthReport:
    """Upper bound from the caterpillar decomposition of a vertex order,
    the degeneracy order when *order* is None.

    The width equals the maximum cut-rank over prefix cuts of the order,
    which always dominates the exact rank-width.  Graphs on <= 1 vertex
    have width 0 and no decomposition, as in :func:`rank_width_exact`.
    An order of another length than G's is refused.
    """
    if order is not None and len(order) != G.n:
        raise ValueError(f"the order has {len(order)} vertices and the graph {G.n}")
    if G.n <= 1:
        return WidthReport(0, "upper-bound", None)
    seq = degeneracy_order(G) if order is None else list(order.order)
    value = 0
    mask = 0
    for v in seq[:-1]:
        mask |= 1 << v
        value = max(value, cutrank_mask(G, mask))
    D = caterpillar_decomposition(seq)
    return WidthReport(value, "upper-bound", D)


def balanced_partition(G: Graph, C: int, D: RankDecomposition) -> tuple[int, int]:
    """Bipartition (X, Y), as vertex masks, with |C|/3 <= |X cap C| <= 2|C|/3
    and small cut-rank, for a vertex mask C.

    Roots the decomposition by subdividing its lexicographically smallest
    edge, then takes the deepest node (smallest id on ties) whose descendant
    leaves hold at least a third of C.  The returned cut is a tree cut of D,
    so its cut-rank is at most the width of D.
    """
    check_vertex_mask(C, G.n)
    size = C.bit_count()
    if size < 3:
        raise ValueError("balanced partition needs |C| >= 3")
    order, _, depth, below = _check_structure(G, D)
    t = max(
        (s for s in order if 3 * (below[s] & C).bit_count() >= size),
        key=lambda s: (depth[s], -s),
    )
    return below[t], ((1 << G.n) - 1) ^ below[t]


def _tree_depth_low(G: Graph) -> int:
    """A lower bound on the tree-depth of G.

    A graph of n vertices and m edges has tree-depth at least its minimum
    degree + 1, since the deepest vertex of an elimination forest has every
    neighbour above it; and at least the least t with 2m <= (t - 1)(2n - t),
    since every edge joins a vertex to one of its ancestors, and a depth-t
    forest on n vertices has at most (t - 1)(2n - t)/2 ancestor pairs (a
    path of t vertices, the rest at depth t).  A bound like log2(n + 1)
    would be wrong: a star has depth 2.
    """
    degs = [row.bit_count() for row in G.adj]
    low = min(degs) + 1
    while (low - 1) * (2 * G.n - low) < sum(degs):
        low += 1
    return low


def _dfs_forest_within(G: Graph, k: int) -> bool:
    """Whether a depth-first forest of G has depth <= k, which bounds the
    tree-depth from above, since every edge of such a forest joins a vertex
    to an ancestor.  The forests take their first root in decreasing degree,
    and a search is cut once its path passes k."""
    adj = G.adj
    roots = sorted(range(G.n), key=lambda v: adj[v].bit_count(), reverse=True)
    for first in roots:
        seen = 0
        for root in [first] + roots:
            if seen >> root & 1:
                continue
            seen |= 1 << root
            stack = [root]
            while stack and len(stack) <= k:
                nxt = adj[stack[-1]] & ~seen
                if nxt:
                    low_bit = nxt & -nxt
                    seen |= low_bit
                    stack.append(low_bit.bit_length() - 1)
                else:
                    stack.pop()
            if stack:
                break
        else:
            return True
    return False


def _tree_depth_levels(G: Graph, top: int) -> int:
    """The least k <= *top* with td(G) <= k, or top + 1 when there is none,
    by a subset dynamic program that runs on all subsets at once.

    Bit S of a 2^n-bit int stands for the vertex set S (the lanes of
    :func:`subset_lanes`), and ``level`` holds the sets of tree-depth <= k.
    The connected sets grow from the singletons by adding a vertex with a
    neighbour in the set until nothing changes, since every connected set
    of >= 2 vertices has a vertex whose removal leaves it connected.
    Level k holds level k - 1 and each S + v for S in it, which is sound
    because td(S) <= 1 + td(S - v) for every S, and exact for a connected
    S.  It then takes each disconnected S whose deletions S - v all lie in
    the level, until nothing changes: that is exact too, since each
    component of S is a component of S - v for every v outside it.
    """
    n = G.n
    has = subset_lanes(n)
    every = (1 << (1 << n)) - 1
    lacks = [every ^ h for h in has]
    shifts = [1 << v for v in range(n)]
    meets = [_union_rows(has, row) for row in G.adj]
    conn = 0
    for s in shifts:
        conn |= 1 << s
    before = None
    while conn != before:
        before = conn
        for s, out, near in zip(shifts, lacks, meets):
            conn |= (conn & out & near) << s
    split = every ^ conn ^ 1
    whole = 1 << ((1 << n) - 1)
    level = 1
    for k in range(1, top + 1):
        level |= _add_one(level, zip(lacks, shifts))
        left = split & ~level
        while left:
            ok = left
            for s, out in zip(shifts, lacks):
                ok &= ((level & out) << s) | out
            if not ok:
                break
            level |= ok
            left ^= ok
        if level & whole:
            return k
    return top + 1


def tree_depth_exact(G: Graph, cap: int = TREE_DEPTH_EXACT_CAP) -> int:
    """Exact tree-depth: the degree bound when a depth-first forest meets
    it, otherwise the subset levels."""
    if G.n > cap:
        raise ValueError(f"exact tree-depth is capped at n={cap}")
    low = _tree_depth_low(G)
    if _dfs_forest_within(G, low):
        return low
    return _tree_depth_levels(G, G.n)


def tree_depth_at_most(G: Graph, k: int) -> bool:
    """Whether G has tree-depth at most k.  The answer needs no table when
    n <= k, when the degree bound exceeds k, or when a depth-first forest
    is within k; otherwise the subset levels run up to k.  Graphs above
    ``TREE_DEPTH_EXACT_CAP`` vertices are rejected."""
    if G.n > TREE_DEPTH_EXACT_CAP:
        raise ValueError(f"exact tree-depth is capped at n={TREE_DEPTH_EXACT_CAP}")
    if G.n <= k:
        return True
    if _tree_depth_low(G) > k:
        return False
    return _dfs_forest_within(G, k) or _tree_depth_levels(G, k) <= k


def restrict_decomposition(D: RankDecomposition, keep: int) -> RankDecomposition | None:
    """Decomposition induced on the vertex mask *keep* by pruning and
    suppression.

    A node survives iff it is a kept leaf or at least 3 of its directions
    hold kept leaves; this drops the leaves outside the subset, the
    branches left without kept leaves, and the nodes left with degree 2.
    Each survivor links to its nearest surviving ancestor in a hanging of
    the tree, and the (at most two) survivors without one link to each
    other.  Nodes are renumbered in order of their old ids.  Cut-ranks of
    the surviving cuts only shrink, so the width never grows.  A kept leaf
    vertex v becomes the number of set bits of *keep* below v, as in
    ``induced_subgraph``, so the result decomposes that subgraph.  Returns
    None for subsets of size < 2.
    """
    check_vertex_mask(keep, len(D.leaf_map))
    if keep.bit_count() < 2:
        return None
    leaf = D.leaf_vertex()
    kept_leaves = {t for t, v in leaf.items() if keep >> v & 1}
    order, parent, _, below = _hang(D, D.edges[0])
    root = D.node_count
    live = [0] * (root + 1)  # directions holding kept leaves
    for t in order:
        if below[t] & keep:
            live[parent[t]] += 1
        if keep & ~below[t]:
            live[t] += 1
    survivors = sorted(t for t in order if t in kept_leaves or live[t] >= 3)
    new_id = {t: i for i, t in enumerate(survivors)}
    nearest = {root: None}  # the closest surviving proper ancestor
    for t in order:
        p = parent[t]
        nearest[t] = p if p in new_id else nearest[p]
    edges = []
    tops = []
    for t in survivors:
        if nearest[t] is None:
            tops.append(new_id[t])
        else:
            edges.append(tuple(sorted((new_id[nearest[t]], new_id[t]))))
    if len(tops) == 2:
        edges.append(tuple(tops))
    leaf_map = [(new_id[t], (keep & ((1 << leaf[t]) - 1)).bit_count()) for t in sorted(kept_leaves)]
    return RankDecomposition(len(survivors), tuple(sorted(edges)), tuple(leaf_map))


def rank_width_of_subgraph(
    G: Graph,
    comps: Sequence[int],
    memo: dict[tuple[int, ...], WidthReport] | None = None,
) -> tuple[int, int, str]:
    """Width of the induced subgraph on the components *comps* (vertex
    masks of G): exact per component when small enough.

    This is the one place that chooses between the exact solver and the
    bound.  Rank-width of a disconnected graph is the max over its
    components.  Components above ``RANK_WIDTH_EXACT_CAP`` vertices
    contribute a flagged upper bound.  Returns ``(low, high, method)``:
    the max over the components solved exactly alone, which is a lower
    bound on the width whatever the others give; the max over all
    components; and ``"exact"`` or ``"upper-bound"``.  Each distinct
    component is solved once; a caller measuring many unions of one graph
    may pass a *memo* dict, which maps a component's relabelled adjacency
    (its vertices renumbered in increasing order) to its report,
    decomposition included, to share that across calls.
    """
    check_vertex_mask(sum(comps), G.n)  # components are disjoint: their sum is their union
    memo = {} if memo is None else memo
    low = high = 0
    method = "exact"
    for comp in comps:
        comp_g = induced_subgraph(G, comp)
        exact = comp_g.n <= RANK_WIDTH_EXACT_CAP
        rep = memo.get(comp_g.adj)
        if rep is None:
            rep = memo[comp_g.adj] = rank_width_exact(comp_g) if exact else rank_width_upper(comp_g)
        high = max(high, rep.value)
        if exact:
            low = max(low, rep.value)
        else:
            method = "upper-bound"
    return low, high, method
