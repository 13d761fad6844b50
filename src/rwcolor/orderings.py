"""Linear orders, weakly reachable sets, and weak coloring numbers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, ball, bits_of, shells

WCOL_EXACT_CAP = 14


@dataclass(frozen=True)
class LinearOrder:
    """A linear order of the vertices: order[i] is the vertex at rank i."""

    order: tuple[int, ...]
    position: tuple[int, ...]

    @classmethod
    def from_order(cls, order: Sequence[int]) -> "LinearOrder":
        n = len(order)
        if sorted(order) != list(range(n)):
            raise ValueError("order is not a permutation of 0..n-1")
        position = [0] * n
        for i, v in enumerate(order):
            position[v] = i
        return cls(tuple(order), tuple(position))

    @classmethod
    def identity(cls, n: int) -> "LinearOrder":
        idx = tuple(range(n))
        return cls(idx, idx)

    def __len__(self) -> int:
        return len(self.order)


def above_masks(L: LinearOrder) -> list[int]:
    """above[v] is the mask of the vertices placed strictly later than v in L.

    A bounded search from u inside above[u] walks only through vertices
    above u, so u is the minimum of every path it finds.
    """
    above = [0] * len(L)
    acc = 0
    for v in reversed(L.order):
        above[v] = acc
        acc |= 1 << v
    return above


def wreach_sets(G: Graph, L: LinearOrder, r: int) -> list[int]:
    """Weakly r-reachable sets for all vertices at once, as vertex masks.

    One bounded search per source u sets bit u in the mask of every vertex
    it reaches while staying above u in the order.
    """
    if r < 0:
        raise ValueError("radius must be non-negative")
    if len(L) != G.n:
        raise ValueError(f"the order has {len(L)} vertices and the graph {G.n}")
    above = above_masks(L)
    result = [0] * G.n
    for u in range(G.n):
        for v in bits_of(ball(G, u, r, above[u])):
            result[v] |= 1 << u
    return result


def wcol_of_order(G: Graph, L: LinearOrder, r: int) -> int:
    """Max weakly-r-reachable set size under L."""
    return max(map(int.bit_count, wreach_sets(G, L, r)))


def wcol_exact(G: Graph, r: int, cap: int = WCOL_EXACT_CAP) -> tuple[int, LinearOrder]:
    """Exact weak r-coloring number with an optimal witness order.

    Depth-first branch and bound over order prefixes, trying vertices in
    increasing id.  Placing u next among the remaining set S adds 1 to the
    count of every vertex in ``ball(G, u, r, S)``, so the counts depend
    only on the prefix, and the incumbent starts one above
    ``wcol_heuristic``.  A child is entered only if a lower bound on its
    best completion stays below the incumbent.  Each v in the child's
    remaining set R ends with at least ``counts[v] + 1`` plus, for r >= 1,
    one for each neighbour in R placed before it.  The least maximum of
    that over all orders of R is the smallest-last value: repeatedly
    remove the v with the least ``counts[v] + |N(v) & R|`` and keep the
    largest such value plus one.  It reaches the incumbent exactly when
    some H within R has ``counts[v] + |N(v) & H| >= incumbent - 1`` for
    every v in H (the last of H in any order has that many earlier
    neighbours), so the search peels, a whole set at a time, every vertex
    below that limit, and cuts the child if anything is left.  A state
    ``(S, counts on S)`` whose subtree found no improvement is never
    searched again: every completion of it reaches the incumbent it was
    entered under, and the incumbent only falls.  The bound reads only
    the child's state and cuts only completions that cannot beat the
    incumbent, so the first optimal order in depth-first order is still
    the first found: the result is the value and the lexicographically
    first optimal order, as from a sweep of all n! orders.  Instances
    above the cap are rejected in favour of wcol_heuristic.
    """
    if r < 0:
        raise ValueError("radius must be non-negative")
    n = G.n
    if n > cap:
        raise ValueError(
            f"wcol_exact is an exponential search capped at n={cap}; "
            "use wcol_heuristic for larger graphs"
        )
    adj = G.adj if r else (0,) * n
    best = wcol_heuristic(G, r)[0] + 1
    best_order: tuple[int, ...] = ()
    counts = [0] * n
    prefix: list[int] = []
    failed: set[tuple] = set()

    def completes_below(R: int) -> bool:
        """Whether the smallest-last bound on R's completion is below best:
        peel R down to the vertices that keep ``best - 1`` or more."""
        limit = best - 1
        while R:
            low = 0
            for v in bits_of(R):
                if counts[v] + (adj[v] & R).bit_count() < limit:
                    low |= 1 << v
            if not low:
                return False
            R ^= low
        return True

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
            rest = S ^ (1 << u)
            if top < best and completes_below(rest):
                prefix.append(u)
                search(rest, top)
                prefix.pop()
            for v in hit:
                counts[v] -= 1
        if best == entry:
            failed.add(key)

    search((1 << n) - 1, 0)
    return best, LinearOrder.from_order(best_order)


def wcol_heuristic(G: Graph, r: int) -> tuple[int, LinearOrder, list[int]]:
    """Degeneracy-style order: repeatedly place a low-reach vertex last.

    The removed vertex minimizes a weighted count of remaining vertices
    within distance r (shell at distance d weighted 2^(r-d); shell 0, the
    vertex itself, adds the same 2^r to every score); ties go to the
    smallest vertex id.  Returns the measured wcol of the produced order,
    the order, and its weakly r-reachable sets as masks, which callers
    that need them take from here instead of walking the order again.
    """
    if r < 0:
        raise ValueError("radius must be non-negative")
    remaining = (1 << G.n) - 1
    suffix: list[int] = []
    while remaining:
        best_v = -1
        best_score = None
        for v in bits_of(remaining):
            score = 0
            for d, layer in enumerate(shells(G, v, remaining, r)):
                score += layer.bit_count() << (r - d)
            if best_score is None or score < best_score:
                best_score = score
                best_v = v
        suffix.append(best_v)
        remaining &= ~(1 << best_v)
    order = list(reversed(suffix))
    L = LinearOrder.from_order(order)
    wsets = wreach_sets(G, L, r)
    return max(map(int.bit_count, wsets)), L, wsets
