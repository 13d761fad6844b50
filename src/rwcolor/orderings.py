"""Linear orders, weakly reachable sets, and weak coloring numbers."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, ball, bits_of, shells

WCOL_EXACT_CAP = 9


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


def wreach_sets(G: Graph, L: LinearOrder, r: int) -> list[frozenset]:
    """Weakly r-reachable sets for all vertices at once.

    One bounded search per source u marks u into the set of every vertex it
    reaches while staying above u in the order.
    """
    if r < 0:
        raise ValueError("radius must be non-negative")
    above = above_masks(L)
    result: list[set] = [set() for _ in range(G.n)]
    for u in range(G.n):
        for v in bits_of(ball(G, u, r, above[u])):
            result[v].add(u)
    return [frozenset(s) for s in result]


def wreach(G: Graph, L: LinearOrder, r: int, v: int) -> frozenset:
    """Vertices u that are the order-minimum on some u--v path of length <= r."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    pv = L.position[v]
    above = above_masks(L)
    out = set()
    for u in range(G.n):
        if L.position[u] <= pv and ball(G, u, r, above[u]) >> v & 1:
            out.add(u)
    return frozenset(out)


def wcol_of_order(G: Graph, L: LinearOrder, r: int, cutoff: int | None = None) -> int | None:
    """Max weakly-r-reachable set size under L.

    With a cutoff, returns None as soon as the value provably reaches it;
    used by the exact sweep to prune dominated orders.
    """
    above = above_masks(L)
    counts = [0] * G.n
    best = 0
    for u in range(G.n):
        for v in bits_of(ball(G, u, r, above[u])):
            counts[v] += 1
            if counts[v] > best:
                best = counts[v]
                if cutoff is not None and best >= cutoff:
                    return None
    return best


def wcol_exact(G: Graph, r: int, cap: int = WCOL_EXACT_CAP) -> tuple[int, LinearOrder]:
    """Exact weak r-coloring number with an optimal witness order.

    Sweeps all n! orders; instances above the cap are rejected in favour of
    wcol_heuristic.
    """
    if G.n > cap:
        raise ValueError(
            f"wcol_exact sweeps n! orders and is capped at n={cap}; "
            "use wcol_heuristic for larger graphs"
        )
    best_val = G.n + 1
    best_order = None
    for perm in itertools.permutations(range(G.n)):
        L = LinearOrder.from_order(perm)
        val = wcol_of_order(G, L, r, cutoff=best_val)
        if val is not None and val < best_val:
            best_val = val
            best_order = L
    assert best_order is not None
    return best_val, best_order


def wcol_heuristic(G: Graph, r: int) -> tuple[int, LinearOrder]:
    """Degeneracy-style order: repeatedly place a low-reach vertex last.

    The removed vertex minimizes a weighted count of remaining vertices
    within distance r (shell at distance d weighted 2^(r-d); shell 0, the
    vertex itself, adds the same 2^r to every score); ties go to the
    smallest vertex id.  Returns the measured wcol of the produced order.
    """
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
    return wcol_of_order(G, L, r), L
