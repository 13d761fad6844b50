"""Cograph extraction, clique-or-independent-set witnesses, and product
colorings for graphs coming with small-width colorings."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .coloring import Coloring, greedy_proper_coloring
from .graph import (
    Graph,
    bits_of,
    check_vertex_mask,
    complement,
    components,
    cutrank_mask,
    induced_subgraph,
    mask_of,
    select_bits,
)
from .widths import (
    RANK_WIDTH_EXACT_CAP,
    RankDecomposition,
    WidthReport,
    balanced_partition,
    rank_width_exact,
    rank_width_of_subgraph,
    restrict_decomposition,
    verify_decomposition,
)


@dataclass(frozen=True)
class Cotree:
    """Union/join construction tree; leaves carry vertex ids."""

    op: str  # "leaf" | "union" | "join"
    vertex: int | None = None
    children: tuple["Cotree", ...] = ()


def is_cograph(G: Graph) -> tuple[bool, Cotree | None]:
    """Recognize by the defining recursion: single vertices are cographs,
    disconnected graphs are unions of their components, co-disconnected
    graphs are joins of their co-components, anything else is out."""

    co = complement(G)

    def rec(mask: int) -> Cotree | None:
        if mask.bit_count() == 1:
            return Cotree("leaf", mask.bit_length() - 1)
        for op, H in (("union", G), ("join", co)):
            parts = components(H, mask)
            if len(parts) > 1:
                kids = [rec(p) for p in parts]
                if any(k is None for k in kids):
                    return None
                return Cotree(op, None, tuple(kids))
        return None

    ct = rec((1 << G.n) - 1)
    return ct is not None, ct


def kappa(p: int) -> float:
    return 1.0 / (math.log2(3) + p)


def delta(p: int) -> float:
    return kappa(p) / 2.0


@dataclass(frozen=True)
class EHParams:
    """Exponents governing extraction sizes for width p and a palette N1."""

    p: int
    kappa: float
    delta: float
    epsilon: float

    @classmethod
    def for_width(cls, p: int, n_colors: int) -> "EHParams":
        k = kappa(p)
        dl = delta(p)
        terms = [dl / 2.0]
        if n_colors > 1:
            terms.append(1.0 / (2.0 * math.log2(n_colors)))
        return cls(p, k, dl, min(terms))


def uniform_blocks(G: Graph, A: int, B: int, p: int) -> tuple[int, int, str]:
    """Largest same-neighbourhood class of A with a uniform block of B, as vertex masks.

    A cut of rank at most p admits at most 2^p distinct rows, so the
    largest class keeps at least |A|/2^p vertices; its members see a common
    neighbourhood P in B, and the larger of (P, B minus P) is completely
    adjacent, respectively non-adjacent, to all of it.  Ties between
    classes go to the one with the smallest vertex.
    """
    check_vertex_mask(A, G.n)
    check_vertex_mask(B, G.n)
    if not A or not B:
        raise ValueError("both sides must be nonempty")
    groups: dict[int, int] = {}  # neighbourhood in B -> the members of A that see it
    for v in bits_of(A):
        pattern = G.adj[v] & B
        groups[pattern] = groups.get(pattern, 0) | 1 << v
    if len(groups) > 2**p:
        rank = cutrank_mask(G, A)
        raise ValueError(
            f"{len(groups)} neighbourhood patterns on the cut exceed 2^{p}; "
            f"measured cut-rank is {rank}, violating the width-{p} precondition"
        )
    pattern, members = max(groups.items(), key=lambda kv: (kv[1].bit_count(), -(kv[1] & -kv[1])))
    b_out = B & ~pattern
    if pattern.bit_count() > b_out.bit_count():
        return members, pattern, "complete"
    return members, b_out, "anticomplete"


def cograph_extract(G: Graph, D: RankDecomposition | None, p: int) -> int:
    """Vertex mask of size >= n^kappa(p) inducing a cograph.

    Splits along a balanced tree cut of the width-p decomposition, keeps a
    uniform block pair, recurses on both sides, and returns their union;
    uniformity between the sides makes the union a cograph.
    """
    if G.n > 2:
        if D is None:
            raise ValueError("graphs on more than 2 vertices need a decomposition")
        w = verify_decomposition(G, D)
        if w > p:
            raise ValueError(f"decomposition width {w} exceeds the bound {p}")

    def rec(H: Graph, DH: RankDecomposition | None, ids: tuple[int, ...]) -> int:
        """The extracted mask of G, where vertex v of H is vertex ids[v] of G."""
        if H.n <= 2:
            return mask_of(ids)
        A, B = balanced_partition(H, (1 << H.n) - 1, DH)
        a_p, b_p, _ = uniform_blocks(H, A, B, p)
        out = 0
        for block in (a_p, b_p):
            kept = tuple(select_bits(ids, block))
            out |= rec(induced_subgraph(H, block), restrict_decomposition(DH, block), kept)
        bound = H.n ** kappa(p)
        assert out.bit_count() >= bound - 1e-9, (
            f"extracted {out.bit_count()} vertices, below {H.n}^kappa({p}) = {bound:.4f}"
        )
        return out

    return rec(G, D, tuple(range(G.n)))


def cograph_clique_or_is(G: Graph, ct: Cotree) -> tuple[str, int]:
    """Best clique or independent set realized by cotree dynamic programming,
    as a vertex mask.

    Each node gives its largest clique and independent set: a union keeps
    its first child clique of the most vertices and joins its children's
    independent sets, a join dually.  The winner is checked against G's
    rows and has size at least the square root of the cograph's order.
    """

    def rec(node: Cotree) -> tuple[int, int]:
        if node.op == "leaf":
            return 1 << node.vertex, 1 << node.vertex
        cliques, indeps = zip(*map(rec, node.children))
        # the children's vertex sets are disjoint: a sum of their masks is their union
        if node.op == "union":
            return max(cliques, key=int.bit_count), sum(indeps)
        return sum(cliques), max(indeps, key=int.bit_count)

    clique, indep = rec(ct)
    if clique.bit_count() >= indep.bit_count():
        kind, out, fault = "clique", clique, "clique misses edge"
    else:
        kind, out, fault = "independent", indep, "independent set has edge"
    for u in bits_of(out):
        above = out >> u + 1 << u + 1
        bad = above & ~G.adj[u] if kind == "clique" else above & G.adj[u]
        if bad:
            raise AssertionError(f"claimed {fault} ({u}, {(bad & -bad).bit_length() - 1})")
    assert out.bit_count() ** 2 >= G.n
    return kind, out


ColoringProvider = Callable[[Graph], tuple[Coloring, int]]


def even_split_provider(n_classes: int, width_bound: int) -> ColoringProvider:
    """Provider assigning colors round-robin; useful when any n_classes-way
    split keeps class widths below the bound."""
    if n_classes < 1:
        raise ValueError("n_classes must be >= 1")
    if width_bound < 0:  # no width is negative, so no class could verify
        raise ValueError("width_bound must be >= 0")

    def provide(G: Graph) -> tuple[Coloring, int]:
        k = min(n_classes, G.n)
        colors = tuple(v % k + 1 for v in range(G.n))
        return Coloring(colors, k), width_bound

    return provide


def eh_witness(G: Graph, provider: ColoringProvider) -> tuple[set[int], str, EHParams]:
    """Clique or independent set of size >= ceil(n^epsilon).

    The provider's single-level coloring is width-checked class by class
    through ``rank_width_of_subgraph``, which alone chooses between the
    exact solver and the bound.  For n at least the squared palette, the
    majority class is reduced to a cograph along the decomposition that
    check kept for it (exact up to ``RANK_WIDTH_EXACT_CAP`` vertices, the
    degeneracy caterpillar above), then mined for its clique or
    independent set.  A disconnected majority class is solved exactly as a
    whole, for one tree over it, so above the cap it is refused.  Smaller
    graphs settle for a pair of vertices, which the epsilon bound already
    permits.
    """
    c, r1 = provider(G)
    if len(c.colors) != G.n:
        raise ValueError("provider coloring does not match the graph")
    n1 = c.palette_size
    classes = c.classes()
    widths: dict[tuple[int, ...], WidthReport] = {}  # component adjacency -> report
    for col, members in sorted(classes.items()):
        _, value, _ = rank_width_of_subgraph(G, components(G, members), widths)
        if value > r1:
            raise ValueError(
                f"class {col} has rank-width bound {value} > provider bound {r1}"
            )
    params = EHParams.for_width(r1, n1)
    n = G.n
    if n >= n1 * n1:
        col, members = max(sorted(classes.items()), key=lambda kv: (kv[1].bit_count(), -kv[0]))
        sub = induced_subgraph(G, members)
        # a connected class is a component of the check, under the same adjacency
        rep = widths.get(sub.adj)
        if rep is None and sub.n > RANK_WIDTH_EXACT_CAP:
            parts = len(components(sub, (1 << sub.n) - 1))
            raise ValueError(
                f"majority class {col} has {sub.n} vertices in {parts} components, "
                f"above the exact rank-width cap of {RANK_WIDTH_EXACT_CAP} vertices "
                "for a disconnected class"
            )
        local = cograph_extract(sub, (rep or rank_width_exact(sub)).decomposition, r1)
        core = induced_subgraph(sub, local)
        ok, ct = is_cograph(core)
        assert ok, "extraction did not deliver a cograph"
        kind, got = cograph_clique_or_is(core, ct)
        # both subgraphs keep their vertices in increasing order
        kept = select_bits(select_bits(range(n), members), local)
        witness = set(select_bits(kept, got))
    elif n >= 2:
        witness = {0, 1}
        kind = "clique" if G.has_edge(0, 1) else "independent"
    else:
        witness = {0}
        kind = "independent"
    need = math.ceil(n**params.epsilon - 1e-9)
    assert len(witness) >= need, (
        f"witness of size {len(witness)} below ceil(n^eps) = {need}"
    )
    return witness, kind, params


def chi_product_coloring(G: Graph, c: Coloring) -> Coloring:
    """Proper coloring by pairing each class color with a greedy proper
    coloring of the class; pairs are interned to dense ids.  Palette is at
    most the class count times the largest per-class palette."""
    if len(c.colors) != G.n:
        raise ValueError("coloring does not match the graph")
    pair: list[tuple[int, int] | None] = [None] * G.n
    for col, members in sorted(c.classes().items()):
        sub_col = greedy_proper_coloring(induced_subgraph(G, members))
        for v, sub_c in zip(bits_of(members), sub_col.colors):
            pair[v] = (col, sub_c)
    keys = sorted({p for p in pair if p is not None})
    ids = {k: i + 1 for i, k in enumerate(keys)}
    out = Coloring(tuple(ids[p] for p in pair), len(keys))
    for u in range(G.n):
        for v in bits_of(G.adj[u]):
            if u < v and out.colors[u] == out.colors[v]:
                raise AssertionError(f"product coloring is improper on edge ({u}, {v})")
    return out
