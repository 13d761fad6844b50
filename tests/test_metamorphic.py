"""Metamorphic checks of the exact rank-width solver and the cut-rank table:
relations between the answers on related graphs, which hold whatever the
answers are, so they need no reference solver.

Local complementation G * v (:func:`oracles.local_complement`) keeps every
cut-rank (Oum, "Rank-width and vertex-minors", JCTB 2005), so it keeps the
cut table, the width of every decomposition tree and the rank-width.
Deleting a vertex lowers the rank-width by 0 or 1; a twin or a pendant
vertex keeps a width of at least 1; a disjoint union takes the larger
width; an induced subgraph is never wider.  The seeded graphs go up to 18
vertices, solved with the cap at their size.
"""

import random

from rwcolor.graph import bits_of, build_graph, cutrank_table, induced_subgraph
from rwcolor.widths import rank_width_exact, verify_decomposition

import oracles


def exact(g):
    return rank_width_exact(g, cap=g.n)


def seeded(sizes, seed):
    rng = random.Random(seed)
    return [oracles.random_graph(n, p, rng) for n in sizes for p in (0.25, 0.5, 0.75)]


def test_local_complement_keeps_the_cut_table():
    rng = random.Random(1)
    for g in seeded(range(2, 19), 31):
        table = cutrank_table(g)
        for v in rng.sample(range(g.n), min(g.n, 4)):
            assert cutrank_table(oracles.local_complement(g, v)) == table


def test_local_complement_keeps_the_exact_trees_width():
    rng = random.Random(2)
    for g in seeded(range(2, 19), 32):
        rep = exact(g)
        for v in rng.sample(range(g.n), min(g.n, 3)):
            lc = oracles.local_complement(g, v)
            assert verify_decomposition(lc, rep.decomposition) == rep.value
            assert exact(lc).value == rep.value


def test_deleting_a_vertex_lowers_the_width_by_at_most_one():
    rng = random.Random(3)
    for g in seeded(range(2, 19), 33):
        value = exact(g).value
        for v in rng.sample(range(g.n), 2):
            assert value - exact(induced_subgraph(g, ((1 << g.n) - 1) ^ 1 << v)).value in (0, 1)


def test_a_twin_or_a_pendant_vertex_keeps_a_width_of_at_least_one():
    rng = random.Random(4)
    for g in seeded(range(1, 18), 34):
        value = max(exact(g).value, 1)
        v = rng.randrange(g.n)
        near = list(bits_of(g.adj[v]))
        edges = g.edges()
        for extra in (near, near + [v], [v]):  # false twin, true twin, pendant
            grown = build_graph(g.n + 1, edges + [(u, g.n) for u in extra])
            assert max(exact(grown).value, 1) == value


def test_a_disjoint_union_takes_the_larger_width():
    rng = random.Random(5)
    for n in range(2, 19):
        for _ in range(2):
            k = rng.randint(1, n - 1)
            parts = [oracles.random_graph(m, rng.choice((0.25, 0.5)), rng) for m in (k, n - k)]
            place = rng.sample(range(n), n)  # interleave the parts' vertices
            edges = [(place[u], place[v]) for u, v in parts[0].edges()]
            edges += [(place[k + u], place[k + v]) for u, v in parts[1].edges()]
            union = build_graph(n, edges)
            assert exact(union).value == max(exact(part).value for part in parts)


def test_an_induced_subgraph_is_never_wider():
    rng = random.Random(6)
    for g in seeded(range(2, 19), 36):
        value = exact(g).value
        for _ in range(2):
            keep = rng.randrange(1, 1 << g.n)
            assert exact(induced_subgraph(g, keep)).value <= value
