"""Refinement colorings of graph powers and their verifiers.

The pipeline refines a tree-depth coloring so that unions of few refined
color classes can be grown into distance-preserving supersets touching few
base colors; the power of the graph then inherits a rank-width budget on
every small union of classes.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

from .graph import (
    Graph,
    ball,
    bits_of,
    components,
    degeneracy_order,
    induced_subgraph,
    mask_of,
    select_bits,
    shells,
)
from .orderings import LinearOrder, above_masks, wcol_heuristic, wreach_sets
from .widths import (
    TREE_DEPTH_EXACT_CAP,
    WidthReport,
    rank_width_of_subgraph,
    tree_depth_at_most,
    tree_depth_exact,
)

# Most colour-connected class sets either union verifier walks before refusing.
MAX_UNIONS = 1_000_000


@dataclass(frozen=True)
class Coloring:
    """Vertex coloring with colors 1..palette_size."""

    colors: tuple[int, ...]
    palette_size: int

    def __post_init__(self):
        if type(self.palette_size) is not int:  # a bool is refused too
            raise ValueError(f"palette size {self.palette_size!r} is not an integer")
        if self.palette_size < 1:
            raise ValueError("palette must have at least one color")
        for v, c in enumerate(self.colors):
            if type(c) is not int:
                raise ValueError(f"vertex {v} has color {c!r}, not an integer")
            if not 1 <= c <= self.palette_size:
                raise ValueError(f"vertex {v} has color {c} outside 1..{self.palette_size}")

    def classes(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for v, c in enumerate(self.colors):
            out.setdefault(c, []).append(v)
        return {c: tuple(vs) for c, vs in out.items()}

    def colors_on(self, X: Iterable[int]) -> frozenset:
        return frozenset(self.colors[v] for v in X)


@dataclass(frozen=True)
class RefinementColoring:
    """A refined coloring plus the decode data needed to expand vertex sets.

    decode maps each refined color to the set of base colors it stands for.
    For multi-radius refinements, inner holds the next level down and the
    decode of this level speaks in terms of inner.refined's palette.
    """

    base: Coloring
    refined: Coloring
    decode: Mapping[int, frozenset]
    radius: int
    order: LinearOrder
    budget: int
    inner: "RefinementColoring | None" = None

    @property
    def d(self) -> int:
        """Product of per-level budgets across the whole refinement chain."""
        return self.budget * (self.inner.d if self.inner is not None else 1)

    def orders(self) -> list[LinearOrder]:
        """Orders used per radius, ascending from radius 2."""
        chain = []
        node: RefinementColoring | None = self
        while node is not None:
            chain.append(node.order)
            node = node.inner
        return list(reversed(chain))

    @property
    def original_base(self) -> Coloring:
        node = self
        while node.inner is not None:
            node = node.inner
        return node.base


def _high_shortest_path(
    G: Graph, above: Sequence[int], u: int, v: int, r: int
) -> list[int] | None:
    """Shortest u-v path of length <= r whose internal vertices are above v.

    BFS from u through above[v] (see :func:`above_masks`), with v admitted
    only as the endpoint.  The path is reconstructed with smallest-id
    parents, so the outcome is deterministic.
    """
    layers = shells(G, u, above[v] | 1 << v, r)
    hit = [d for d, layer in enumerate(layers) if layer >> v & 1]
    if not hit:
        return None
    path = [v]
    for depth in range(hit[0] - 1, -1, -1):
        parent = min(bits_of(G.adj[path[-1]] & layers[depth]))
        path.append(parent)
    return list(reversed(path))


def good_refinement(
    G: Graph,
    c: Coloring,
    r: int,
    L: LinearOrder,
    wsets: Sequence[frozenset] | None = None,
) -> RefinementColoring:
    """Refine *c* so small unions of new classes admit shortest-path hitters.

    Each vertex v collects base colors in two rounds: the colors of its
    weakly r-reachable set, and, for every non-adjacent weakly reachable
    u < v, the color of the highest vertex on a shortest u-v detour running
    entirely above v (when one of length <= r exists).  The collected sets,
    interned to dense ids, are the refined colors.  *wsets* are the weakly
    r-reachable sets under L when the caller has them already, as from
    ``wcol_heuristic``; without them L is walked here.
    """
    if r < 2:
        raise ValueError("good refinements need radius >= 2")
    if len(c.colors) != G.n:
        raise ValueError("coloring does not match the graph")
    pos = L.position
    above = above_masks(L)
    if wsets is None:
        wsets = wreach_sets(G, L, r)
    budget = 2 * max(len(s) for s in wsets)
    collected: list[set[int]] = [set() for _ in range(G.n)]
    for v in range(G.n):
        for u in wsets[v]:
            collected[v].add(c.colors[u])
    for v in range(G.n):
        for u in sorted(wsets[v]):
            if u == v or G.has_edge(u, v):
                continue
            path = _high_shortest_path(G, above, u, v, r)
            if path is not None:
                z = max(path, key=lambda w: pos[w])
                collected[v].add(c.colors[z])
    for v, cs in enumerate(collected):
        assert len(cs) <= budget, f"vertex {v} exceeded the 2*wcol budget"
    keys = sorted({tuple(sorted(cs)) for cs in collected})
    ids = {k: i + 1 for i, k in enumerate(keys)}
    refined = Coloring(
        tuple(ids[tuple(sorted(cs))] for cs in collected), len(keys)
    )
    decode = {ids[k]: frozenset(k) for k in keys}
    return RefinementColoring(c, refined, decode, r, L, budget)


def excellent_refinement(
    G: Graph,
    c: Coloring,
    r: int,
    orders: Sequence[LinearOrder],
    wsets: Sequence[Sequence[frozenset]] | None = None,
) -> RefinementColoring:
    """Compose good refinements at radii 2..r into one distance-closing chain.

    orders must supply one linear order per radius, ascending from 2, and
    wsets, when given, the weakly reachable sets of each order at its radius.
    """
    if r < 2:
        raise ValueError("excellent refinements need radius >= 2")
    if len(orders) != r - 1:
        raise ValueError(f"need one order per radius 2..{r}, got {len(orders)} orders")
    chain: RefinementColoring | None = None
    current = c
    for i, radius in enumerate(range(2, r + 1)):
        level = good_refinement(
            G, current, radius, orders[i], None if wsets is None else wsets[i]
        )
        level = replace(level, inner=chain)
        chain = level
        current = level.refined
    assert chain is not None
    return chain


def _first_fit(order: Iterable[int], earlier: Sequence[Iterable[int]]) -> Coloring:
    """Color each vertex along *order* with the least color absent from
    ``earlier[v]``; vertices still uncolored there hold 0 and never block."""
    colors = [0] * len(earlier)
    for v in order:
        used = {colors[u] for u in earlier[v]}
        col = 1
        while col in used:
            col += 1
        colors[v] = col
    return Coloring(tuple(colors), max(colors))


def greedy_proper_coloring(G: Graph) -> Coloring:
    """Greedy proper coloring along the degeneracy order."""
    return _first_fit(degeneracy_order(G), [bits_of(row) for row in G.adj])


@dataclass
class UnionReport:
    """Verdict on every union of i <= p color classes against its width
    budget ``q[i]``: verified when no union is refuted or undecided."""

    q: dict[int, int] = field(default_factory=dict)
    # the unions covered, C(palette, i) per size i, whatever the walk visits
    checked_unions: int = 0
    # per size i, the worst width over unions of at most i classes and
    # "exact", or "upper-bound" when a component was only bounded; empty for
    # a check that decides without measuring
    measured: dict[int, tuple[int, str]] = field(default_factory=dict)
    # minimal refuted unions, one per refuted colour-connected class set:
    # (colors, size i, exact width)
    failures: list[tuple[tuple[int, ...], int, int]] = field(default_factory=list)
    # undecided colour-connected class sets: (colors, size i, the bound that
    # exceeded the budget)
    inconclusive: list[tuple[tuple[int, ...], int, int]] = field(default_factory=list)

    @property
    def verified(self) -> bool:
        return not self.failures and not self.inconclusive


def _check_unions(
    G: Graph, c: Coloring, p: int, budget: Callable[[int], int], judge: Callable
) -> UnionReport:
    """Decide every union of i <= p classes of c on G through its
    colour-connected class sets, by increasing i, letting *judge* record a
    verdict as ``judge(report, i, colors, comps)``.

    A union passes when each of its components does.  A component K of a
    union U is also a component of the union of the colours it meets,
    S(K), a subset of U that is connected in the colour quotient graph (two
    colours adjacent when an edge joins their classes).  So for a budget
    that never decreases with i, every union passes exactly when each
    connected colour set S of size i <= p passes on the components of
    G[union of S] that meet every colour of S.  Those components are split
    here, once per set, and handed to *judge* as a list of masks; a set
    with none is skipped.  The sets of size i + 1 are those of size i plus
    one quotient neighbour, judged in lexicographic order.

    budget(i) is read once per size into ``report.q``, and a budget that
    decreases with i is refused.  ``checked_unions`` counts the unions the
    walk covers, C(palette, i) per size.  ``measured[i]`` starts from
    ``measured[i - 1]``: both widths only grow on induced supergraphs, so
    the worst union of i classes is at least the worst of i - 1.  The whole
    walk is built before any set is judged, so more than ``MAX_UNIONS``
    walked sets are refused with nothing judged: before the size i that
    crosses it is built when a lower bound on its count crosses it,
    otherwise while it is built.  The bound holds
    because a set S of size i - 1 grows into at least |near(col)| - |S|
    sets for each of its colours col, and a set of size i grows from at
    most i sets of size i - 1.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if len(c.colors) != G.n:
        raise ValueError("coloring does not match the graph")
    classes = c.classes()
    masks = {col: mask_of(vs) for col, vs in classes.items()}
    palette = sorted(masks)

    @functools.cache
    def near(col: int) -> frozenset:
        """The colours next to col in the quotient graph, col among them when
        an edge joins two of its vertices."""
        reach = functools.reduce(operator.or_, map(G.adj.__getitem__, classes[col]))
        return c.colors_on(bits_of(reach))

    sizes = range(1, min(p, len(palette)) + 1)
    report = UnionReport(q={i: budget(i) for i in sizes})
    for i in sizes[1:]:
        if report.q[i] < report.q[i - 1]:
            raise ValueError(f"the budget decreases from size {i - 1} to size {i}")
    refused = f"more than {MAX_UNIONS} colour-connected class sets to walk"
    levels: list[list[tuple[int, ...]]] = []
    level: list[tuple[int, ...]] = [()]  # grows into the single classes first
    walked = 0
    for i in sizes:
        least = sum(max(0, max(len(near(col)) for col in S) - len(S)) for S in level if S)
        if walked + least // i > MAX_UNIONS:
            raise ValueError(refused)
        grown: set[tuple[int, ...]] = set()
        for S in level:
            for col in (set().union(*map(near, S)).difference(S) if S else palette):
                grown.add(tuple(sorted((*S, col))))
                if walked + len(grown) > MAX_UNIONS:
                    raise ValueError(refused)
        level = sorted(grown)
        walked += len(level)
        levels.append(level)
    for i, level in zip(sizes, levels):
        report.checked_unions += math.comb(len(palette), i)
        if i - 1 in report.measured:
            report.measured[i] = report.measured[i - 1]
        for S in level:
            union = functools.reduce(operator.or_, map(masks.get, S))
            comps = [k for k in components(G, union) if all(k & masks[col] for col in S)]
            if comps:
                judge(report, i, S, comps)
    return report


def verify_td_coloring(G: Graph, c: Coloring, p: int) -> UnionReport:
    """Check that every union of i <= p classes induces tree-depth <= i.

    The budget is Q(i) = i, and no width is measured.  The unions are
    decided through their colour-connected class sets (see
    ``_check_unions``), each on the components of its union that meet all
    its colours: a component of at most i vertices passes outright, one
    above ``TREE_DEPTH_EXACT_CAP`` vertices is left undecided, and the
    rest are decided by ``tree_depth_at_most``.  A set with a component
    deeper than i is refuted, as a minimal refuted union, and reported
    with the largest exact tree-depth among such components.  A set that
    no component refutes but that has an undecided one is listed as
    inconclusive, with the size of its largest such component.  More than
    ``MAX_UNIONS`` walked sets are refused, as in ``verify_low_rw_coloring``.
    """

    def judge(report: UnionReport, i: int, combo: tuple[int, ...], comps: list[int]) -> None:
        deep = []
        undecided = 0
        for comp in comps:
            size = comp.bit_count()
            if size <= i:
                continue
            if size > TREE_DEPTH_EXACT_CAP:
                undecided = max(undecided, size)
                continue
            comp_g, _ = induced_subgraph(G, bits_of(comp))
            if not tree_depth_at_most(comp_g, i):
                deep.append(comp_g)
        if deep:
            report.failures.append((combo, i, max(tree_depth_exact(g) for g in deep)))
        elif undecided:
            report.inconclusive.append((combo, i, undecided))

    return _check_unions(G, c, p, lambda i: i, judge)


def _exact_small_td_coloring(G: Graph, p: int) -> Coloring:
    """Smallest-palette coloring passing the union tree-depth checks.

    Backtracking over restricted-growth assignments.  After placing vertex
    v, only its component in each union of <= p classes on the colored
    prefix that contains its class is checked.  That is exact: the prefix
    before v passed every union, a union without v's class is unchanged,
    and a component missing v is a component of a union that the earlier
    prefix already passed.  ``treedepth_coloring`` calls it only at
    n <= 12, below ``TREE_DEPTH_EXACT_CAP``, so every component is decided.
    """
    n = G.n

    def union_ok(assign: list[int], upto: int) -> bool:
        cols = sorted(set(assign[: upto + 1]))
        target = assign[upto]
        for i in range(1, min(p, len(cols)) + 1):
            for combo in itertools.combinations(cols, i):
                if target not in combo:
                    continue
                union = mask_of(v for v in range(upto + 1) if assign[v] in combo)
                comp = ball(G, upto, n, union)
                if comp.bit_count() <= i:
                    continue
                if not tree_depth_at_most(induced_subgraph(G, bits_of(comp))[0], i):
                    return False
        return True

    for k in range(1, n + 1):
        assign = [0] * n

        def backtrack(v: int, used: int) -> bool:
            if v == n:
                return True
            limit = min(k, used + 1)
            for col in range(1, limit + 1):
                assign[v] = col
                if union_ok(assign, v) and backtrack(v + 1, max(used, col)):
                    return True
            assign[v] = 0
            return False

        if backtrack(0, 0):
            return Coloring(tuple(assign), max(assign))
    raise AssertionError("identity coloring always satisfies the constraints")


def treedepth_coloring(G: Graph, p: int) -> Coloring:
    """Coloring whose every union of i <= p classes has tree-depth <= i.

    The method follows from n and p alone: every vertex its own color when
    p >= n; a greedy proper coloring when p = 1; the smallest palette, by
    exhaustive search, when n <= 12; otherwise first-fit along the order
    L of ``wcol_heuristic(G, r)`` with r = min(2^p, n), each vertex avoiding
    the colors of its weakly r-reachable set.  The last needs no check.
    Those sets contain the weakly 2^(p-1)-reachable ones, since no path has
    n edges, and a coloring in which every vertex differs from its weakly
    2^(p-1)-reachable set is (p+1)-centred (Zhu, Discrete Math. 2009): a
    connected subgraph on j <= p colors has a color met exactly once, so
    deleting that vertex leaves components on j - 1 colors, and induction
    gives tree-depth <= j.  The proper and exhaustive branches are still
    checked against ``verify_td_coloring``.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if p >= G.n:
        return Coloring(tuple(range(1, G.n + 1)), G.n)
    if p == 1:
        c = greedy_proper_coloring(G)
    elif G.n <= 12:
        c = _exact_small_td_coloring(G, p)
    else:
        r = min(2**p, G.n)
        _, L, wsets = wcol_heuristic(G, r)
        return _first_fit(L.order, wsets)
    assert verify_td_coloring(G, c, p).verified
    return c


@dataclass
class ColoringProfile:
    """Budget record of a low rank-width coloring of a graph power."""

    p: int
    n_colors: int
    d: int
    radius: int
    q: dict[int, int]
    base_colors: int


def gurski_wanke_budget(r: int, q: int) -> int:
    """Rank-width bound for the r-th power of a graph of tree-width <= q."""
    return 2 * (r + 1) ** (q + 1) - 2


def low_rankwidth_coloring_of_power(
    G: Graph,
    r: int,
    p: int,
) -> tuple[RefinementColoring, ColoringProfile]:
    """Color G so that small class unions of power(G, r) have bounded width.

    Takes a (d*p)-tree-depth coloring, where d multiplies the per-radius
    doubled weak-coloring values of heuristic orders for radii 2..r, and
    refines it through the excellent chain.  The profile carries the width
    budget per union size.
    """
    if r < 2:
        raise ValueError("power coloring needs radius >= 2")
    orders = []
    wsets = []
    d = 1
    for radius in range(2, r + 1):
        wcol, L, sets = wcol_heuristic(G, radius)
        orders.append(L)
        wsets.append(sets)
        d *= 2 * wcol
    base = treedepth_coloring(G, d * p)
    ref = excellent_refinement(G, base, r, orders, wsets)
    assert ref.d == d
    q = {i: gurski_wanke_budget(r, d * i) for i in range(1, p + 1)}
    profile = ColoringProfile(
        p=p,
        n_colors=ref.refined.palette_size,
        d=d,
        radius=r,
        q=q,
        base_colors=base.palette_size,
    )
    return ref, profile


def verify_low_rw_coloring(
    H: Graph,
    c: Coloring,
    p: int,
    Q: Mapping[int, int],
) -> UnionReport:
    """Measure the width of every union of <= p classes of c on H against Q.

    The unions are decided through their colour-connected class sets (see
    ``_check_unions``): each set is measured on the components of its union
    that meet all its colours.  Components up to ``RANK_WIDTH_EXACT_CAP``
    vertices are measured exactly, larger ones are bounded by
    ``rank_width_upper``; a component that recurs across sets is solved
    once.  A set is refuted, with that width, when a component solved
    exactly is above its budget, and is then a minimal refuted union; a set
    above its budget only through an upper bound is inconclusive.  A budget
    mapping without a width for some union size, or a budget that
    decreases with the size, is refused before any set is walked; more
    than ``MAX_UNIONS`` walked sets before any set is measured.
    """
    colors = len(set(c.colors))
    for i in range(1, min(p, colors) + 1):
        if i not in Q:
            raise ValueError(f"the budget gives no width for unions of size {i}")
    widths: dict[tuple[int, ...], WidthReport] = {}  # component adjacency -> report

    def judge(report: UnionReport, i: int, combo: tuple[int, ...], comps: list[int]) -> None:
        vs = select_bits(range(H.n), functools.reduce(operator.or_, comps))
        value, method, exact = rank_width_of_subgraph(H, vs, widths)
        worst, how = report.measured.get(i, (0, "exact"))
        report.measured[i] = (max(worst, value), how if method == "exact" else method)
        if exact > report.q[i]:
            report.failures.append((combo, i, exact))
        elif value > report.q[i]:
            report.inconclusive.append((combo, i, value))

    return _check_unions(H, c, p, Q.__getitem__, judge)
