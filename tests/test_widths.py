import itertools
import random

import pytest

from rwcolor.graph import (
    bits_of, build_graph, components, cutrank_mask, cutrank_table, induced_subgraph, mask_of,
)
from rwcolor.families import cycle, grid, h_graph, h_tilde, random_degenerate
from rwcolor.orderings import LinearOrder
from rwcolor.widths import (
    RANK_WIDTH_EXACT_CAP,
    TREE_DEPTH_EXACT_CAP,
    RankDecomposition,
    balanced_partition,
    caterpillar_decomposition,
    rank_width_exact,
    rank_width_of_subgraph,
    rank_width_upper,
    restrict_decomposition,
    tree_depth_at_most,
    tree_depth_exact,
    verify_decomposition,
)

import oracles


def complete(n):
    return build_graph(n, list(itertools.combinations(range(n), 2)))


def pathg(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def test_verify_k2():
    k2 = build_graph(2, [(0, 1)])
    D = RankDecomposition(2, ((0, 1),), ((0, 0), (1, 1)))
    assert verify_decomposition(k2, D) == 1


def test_verify_isolated_vertices():
    g = build_graph(4, [])
    D = caterpillar_decomposition([0, 1, 2, 3])
    assert verify_decomposition(g, D) == 0


def test_verify_c4_caterpillar():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    D = caterpillar_decomposition([0, 1, 2, 3])
    # prefix cuts {0}, {0,1}, {0,1,2} have cut-ranks 1, 2, 1
    assert verify_decomposition(c4, D) == 2


def test_verify_rejects_degree_violation():
    # a path of 3 tree nodes has a degree-2 node
    D = RankDecomposition(3, ((0, 1), (1, 2)), ((0, 0), (2, 1)))
    with pytest.raises(ValueError, match="degree"):
        verify_decomposition(build_graph(2, [(0, 1)]), D)


def test_verify_rejects_bad_leaf_map():
    D = RankDecomposition(2, ((0, 1),), ((0, 0), (1, 0)))
    with pytest.raises(ValueError, match="bijection"):
        verify_decomposition(build_graph(2, [(0, 1)]), D)


def test_verify_rejects_disconnected_tree():
    cases = [
        # too few edges to be connected: refused by the edge count
        (4, RankDecomposition(4, ((0, 1), (2, 3)), ((0, 0), (1, 1), (2, 2), (3, 3))),
         "tree on 4 nodes needs 3 edges, got 2"),
        # a triangle with a pendant leaf at each corner, beside one edge:
        # degrees 1 and 3 only, 7 edges on 8 nodes, and no path between the two
        (5, RankDecomposition(8, ((0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5), (6, 7)),
                              ((3, 0), (4, 1), (5, 2), (6, 3), (7, 4))),
         "decomposition tree is disconnected"),
    ]
    for n, D, message in cases:
        with pytest.raises(ValueError) as err:
            verify_decomposition(build_graph(n, []), D)
        assert str(err.value) == message


def test_exact_single_vertex():
    rep = rank_width_exact(build_graph(1, []))
    assert rep.value == 0 and rep.decomposition is None


@pytest.mark.parametrize("n", range(2, 9))
def test_exact_complete_graphs(n):
    rep = rank_width_exact(complete(n))
    assert rep.value == 1
    assert verify_decomposition(complete(n), rep.decomposition) == 1


@pytest.mark.parametrize("n", range(2, 9))
def test_exact_paths(n):
    rep = rank_width_exact(pathg(n))
    assert rep.value == 1
    assert verify_decomposition(pathg(n), rep.decomposition) == 1


def test_exact_c5():
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    rep = rank_width_exact(c5)
    assert rep.value == 2
    assert verify_decomposition(c5, rep.decomposition) == 2


def test_exact_matches_full_tree_enumeration():
    for g in oracles.all_graphs(4):
        assert rank_width_exact(g).value == oracles.rank_width_by_trees(g)
    rng = random.Random(13)
    for n in (5, 6):
        for _ in range(6):
            g = oracles.random_graph(n, 0.4, rng)
            assert rank_width_exact(g).value == oracles.rank_width_by_trees(g)


def test_exact_cap_advises_upper():
    with pytest.raises(ValueError, match="rank_width_upper"):
        rank_width_exact(complete(RANK_WIDTH_EXACT_CAP + 1))


def test_exact_returns_the_unpruned_subset_dp_value_and_tree():
    rng = random.Random(314)
    graphs = [oracles.random_graph(n, 0.1 + 0.08 * k, rng)
              for n in range(2, 12) for k in range(10)]
    graphs += [build_graph(7, []), complete(2), complete(8)]
    graphs += [h_graph(2, 3), h_graph(3, 3), h_tilde(2, 4), h_tilde(3, 3)]
    # where a subset's scan most often stops at its own cut-rank
    graphs += [oracles.random_graph(12, p, rng) for p in (0.4, 0.8)]
    graphs += [family(2, m) for family in (h_graph, h_tilde) for m in (5, 6)]
    for g in graphs:
        rep = rank_width_exact(g)
        assert (rep.value, rep.decomposition) == oracles.rank_width_by_subset_dp(g)


def test_exact_returns_the_subset_dp_value_and_tree_on_every_small_graph():
    """Every graph of at most 5 vertices, edgeless and disconnected ones
    included, whose sets of cut-rank 0 are the only ones width level 0
    decides."""
    for n in range(1, 6):
        for g in oracles.all_graphs(n):
            rep = rank_width_exact(g)
            assert (rep.value, rep.decomposition) == oracles.rank_width_by_subset_dp(g)


def clique_beside_path(n):
    k = n // 2
    return build_graph(n, list(itertools.combinations(range(k), 2))
                       + [(i, i + 1) for i in range(k, n - 1)])


@pytest.mark.parametrize("n", [13, 14])
def test_exact_returns_the_integer_order_scan_value_and_tree(n):
    rng = random.Random(2600 + n)
    graphs = [oracles.random_graph(n, p, rng) for p in (0.15, 0.3, 0.5, 0.8)]
    graphs += [build_graph(n, []), complete(n), clique_beside_path(n)]
    if n == 14:
        graphs += [h_graph(2, 7), h_tilde(2, 7)]
    for g in graphs:
        rep = rank_width_exact(g)
        assert (rep.value, rep.decomposition) == oracles.rank_width_by_scan(g)


@pytest.mark.parametrize("n, d", [(12, 5), (13, 4), (14, 4), (14, 6)])
def test_exact_returns_the_integer_order_scan_tree_where_the_bounds_differ(n, d):
    # the reference prunes by the degeneracy caterpillar, the solver by the
    # greedy one; on (14, 4, 5) they are 6 and 3, and (13, 4, 2) has them 4 and 5
    for seed in range(1, 6):
        g = random_degenerate(n, d, seed)
        rep = rank_width_exact(g)
        assert (rep.value, rep.decomposition) == oracles.rank_width_by_scan(g)


def test_greedy_caterpillar_is_a_decomposition_of_its_width():
    from rwcolor.widths import _greedy_caterpillar

    graphs = [g for n in range(2, 6) for g in oracles.all_graphs(n)]
    rng = random.Random(33)
    graphs += [oracles.random_graph(n, p, rng) for n in range(6, 13) for p in (0.2, 0.4, 0.7)]
    graphs += [random_degenerate(12, d, seed) for d in (2, 5) for seed in (1, 2)]
    for g in graphs:
        order, width = _greedy_caterpillar(g, cutrank_table(g))
        assert sorted(order) == list(range(g.n))
        assert verify_decomposition(g, caterpillar_decomposition(order)) == width
        assert width >= rank_width_exact(g).value
    g = random_degenerate(14, 4, 5)  # the greedy width is the rank-width there
    assert (_greedy_caterpillar(g, cutrank_table(g))[1], rank_width_upper(g).value) == (3, 6)


def test_level_masks_from_the_planes_match_the_cut_table():
    """Bit m of a level mask is set when mask m has cut-rank <= t, over the
    masks without the last vertex, the lower half of the cut table."""
    from rwcolor.graph import _cutrank_planes
    from rwcolor.widths import _cut_at_most

    rng = random.Random(49)
    for n in range(2, 15):
        for p in (0.2, 0.5, 0.8):
            g = oracles.random_graph(n, p, rng)
            planes = _cutrank_planes(g)
            half = 1 << (n - 1)
            cut = cutrank_table(g)[:half]
            for t in range(n // 2 + 2):
                text = int(cut.translate(b"1" * (t + 1) + b"0" * (255 - t))[::-1], 2)
                assert _cut_at_most(planes, t, half) == text


@pytest.mark.parametrize("n", [15, 16])
def test_exact_above_the_cap_returns_the_integer_order_scan_value_and_tree(n):
    g = oracles.random_graph(n, 0.3, random.Random(n))
    rep = rank_width_exact(g, cap=n)
    assert (rep.value, rep.decomposition) == oracles.rank_width_by_scan(g)


def test_exact_decides_its_largest_subsets_without_a_submask_scan(monkeypatch):
    """At n = 14, every subset without the last vertex z is decided by
    bitsets, one width level at a time; the witness rebuild looks up one
    split per internal set of the tree, n - 2 in all, V - z among them,
    and none for the whole set, whose split is (V - z, {z})."""
    from rwcolor import widths

    calls = [0] * 15
    first_split = widths._first_split

    def counted(levels, mask, lacks):
        calls[mask.bit_count()] += 1
        return first_split(levels, mask, lacks)

    monkeypatch.setattr(widths, "_first_split", counted)
    g = oracles.random_graph(14, 0.4, random.Random(26))
    rank_width_exact(g)
    assert calls[14] == 0
    assert calls[13] == 1
    assert sum(calls[2:14]) == 12


@pytest.mark.parametrize("n", [10, 11, 12])
def test_exact_returns_the_integer_order_scan_on_the_benchmark_graphs(n):
    """The benchmark's exact rank-width items: gnp(n, 0.4) under its seeded
    generators (seed 0, items 0-2)."""
    for i in range(3):
        g = oracles.random_graph(n, 0.4, random.Random(f"0/rw/{n}/{i}"))
        rep = rank_width_exact(g)
        assert (rep.value, rep.decomposition) == oracles.rank_width_by_scan(g)


def test_exact_rebuild_stops_its_scans_at_known_minima(monkeypatch):
    """The witness rebuild starts at V - z, z the last vertex, and the
    width is the first level at which V - z is held: its cut-rank, or the
    first level at which it splits if that is higher.  It splits every
    internal set at a level no higher than its parent's, and each set
    into two parts held at its level."""
    from rwcolor import widths

    calls = []
    first_split = widths._first_split

    def recorded(levels, mask, lacks):
        t, sub = first_split(levels, mask, lacks)
        calls.append((mask, t, sub, levels[t][0]))
        return t, sub

    monkeypatch.setattr(widths, "_first_split", recorded)
    rng = random.Random(44)
    for n in (5, 8, 11, 12):
        for p in (0.25, 0.5):
            g = oracles.random_graph(n, p, rng)
            calls.clear()
            value = rank_width_exact(g).value
            rest = (1 << (n - 1)) - 1
            assert calls[0][0] == rest
            assert value == max(cutrank_mask(g, rest), calls[0][1])
            level = {mask: t for mask, t, _, _ in calls}
            for mask, t, sub, held in calls:
                assert held >> sub & 1 and held >> (mask ^ sub) & 1
                for part in (sub, mask ^ sub):
                    assert level.get(part, 0) <= t


@pytest.mark.parametrize("n", [13, 14])
def test_exact_at_the_cap_returns_a_decomposition_of_its_width(n):
    rng = random.Random(n)
    for g in (oracles.random_graph(n, 0.25, rng), oracles.random_graph(n, 0.5, rng)):
        rep = rank_width_exact(g)
        assert verify_decomposition(g, rep.decomposition) == rep.value
        assert rep.value <= rank_width_upper(g).value


def test_exact_monotone_under_induced_subgraphs():
    rng = random.Random(21)
    for _ in range(8):
        g = oracles.random_graph(8, 0.4, rng)
        rw = rank_width_exact(g).value
        for _ in range(5):
            size = rng.randint(1, 8)
            sub = induced_subgraph(g, mask_of(rng.sample(range(8), size)))
            assert rank_width_exact(sub).value <= rw


def test_upper_on_one_vertex_is_zero_without_a_decomposition():
    rep = rank_width_upper(build_graph(1, []))
    assert (rep.value, rep.method, rep.decomposition) == (0, "upper-bound", None)


def test_upper_path_order():
    for n in (2, 4, 7):
        rep = rank_width_upper(pathg(n), LinearOrder.from_order(range(n)))
        assert rep.value == 1
        assert verify_decomposition(pathg(n), rep.decomposition) == 1


def test_upper_complete_any_order():
    rep = rank_width_upper(complete(6))
    assert rep.value == 1


def test_upper_dominates_exact_all_strategies():
    rng = random.Random(4)
    graphs = list(oracles.all_graphs(4)) + [oracles.random_graph(7, 0.4, rng) for _ in range(8)]
    for g in graphs:
        if g.n < 2:
            continue
        exact = rank_width_exact(g).value
        for order in (LinearOrder.from_order(range(g.n)), None):
            rep = rank_width_upper(g, order)
            assert rep.value >= exact
            assert verify_decomposition(g, rep.decomposition) == rep.value


def test_upper_accepts_explicit_order():
    g = pathg(5)
    rep = rank_width_upper(g, LinearOrder.from_order([4, 3, 2, 1, 0]))
    assert rep.value == 1


@pytest.mark.parametrize("k", [2, 7])
def test_upper_refuses_an_order_of_another_length(k):
    # a short order once bounded C5 by 1 against its width 2, and a long
    # one mapped leaves to vertices 5 and 6, which C5 does not have
    with pytest.raises(ValueError, match=f"^the order has {k} vertices and the graph 5$"):
        rank_width_upper(cycle(5), LinearOrder.identity(k))


def test_balanced_partition_p4():
    p4 = pathg(4)
    D = rank_width_exact(p4).decomposition
    X, Y = balanced_partition(p4, 0b1111, D)
    assert X.bit_count() >= 2 and Y.bit_count() >= 2
    assert cutrank_mask(p4, X) <= 1


def test_balanced_partition_three_element_core():
    g = complete(6)
    D = rank_width_exact(g).decomposition
    C = mask_of({0, 3, 5})
    X, Y = balanced_partition(g, C, D)
    assert (X & C).bit_count() in (1, 2)
    assert (Y & C).bit_count() in (1, 2)


def test_balanced_partition_h22_cut_bound():
    g = h_graph(2, 2)
    rep = rank_width_exact(g)
    X, Y = balanced_partition(g, (1 << g.n) - 1, rep.decomposition)
    assert cutrank_mask(g, X) <= rep.value
    assert X.bit_count() >= g.n / 3 and Y.bit_count() >= g.n / 3


def test_balanced_partition_small_core_rejected():
    g = complete(4)
    D = rank_width_exact(g).decomposition
    with pytest.raises(ValueError, match=r"needs \|C\| >= 3"):
        balanced_partition(g, 0b11, D)
    with pytest.raises(ValueError, match=r"needs \|C\| >= 3"):
        balanced_partition(g, 0, D)


# explicit ids, so that the case of vertex 10 keeps the id that test reports know it by
@pytest.mark.parametrize(
    "core, fault",
    [
        pytest.param(mask_of({0, 1, *range(10, 21)}), "vertex 10 not in graph", id="core0-10"),
        pytest.param(-1, "vertex mask -1 is negative", id="negative"),
    ],
)
def test_balanced_partition_rejects_a_core_vertex_outside_the_graph(core, fault):
    p4 = pathg(4)
    D = rank_width_exact(p4).decomposition
    with pytest.raises(ValueError, match=f"^{fault}$"):
        balanced_partition(p4, core, D)


def test_balanced_partition_random_cores():
    rng = random.Random(61)
    for _ in range(12):
        g = oracles.random_graph(9, 0.35, rng)
        rep = rank_width_exact(g)
        C = mask_of(rng.sample(range(9), rng.randint(3, 9)))
        X, Y = balanced_partition(g, C, rep.decomposition)
        assert X | Y == 0b111111111 and not X & Y
        assert 3 * (X & C).bit_count() >= C.bit_count()
        assert 3 * (Y & C).bit_count() >= C.bit_count()
        assert cutrank_mask(g, X) <= rep.value


def test_treedepth_base_cases():
    assert tree_depth_exact(build_graph(1, [])) == 1
    assert tree_depth_exact(build_graph(2, [(0, 1)])) == 2


def test_treedepth_p4():
    assert tree_depth_exact(pathg(4)) == 3
    assert oracles.treedepth_by_recursion(pathg(4)) == 3


def test_treedepth_matches_recursion_oracle():
    rng = random.Random(8)
    for _ in range(15):
        g = oracles.random_graph(7, 0.3, rng)
        assert tree_depth_exact(g) == oracles.treedepth_by_recursion(g)


def test_treedepth_relabeling_invariant():
    rng = random.Random(12)
    for _ in range(10):
        g = oracles.random_graph(7, 0.35, rng)
        perm = rng.sample(range(7), 7)
        edges = [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges()]
        assert tree_depth_exact(g) == tree_depth_exact(build_graph(7, edges))


def test_treedepth_cap():
    with pytest.raises(ValueError):
        tree_depth_exact(build_graph(TREE_DEPTH_EXACT_CAP + 1, []))


def test_treedepth_at_most_cap():
    with pytest.raises(ValueError, match="capped"):
        tree_depth_at_most(build_graph(TREE_DEPTH_EXACT_CAP + 1, []), 3)


def test_treedepth_exact_matches_the_deletion_recursion():
    rng = random.Random(77)
    graphs = []
    for n in range(1, 13):
        graphs += [oracles.random_graph(n, rng.uniform(0.1, 0.8), rng) for _ in range(4)]
    for n in (13, 14):
        graphs += [oracles.random_graph(n, p, rng) for p in (0.4, 0.4, 0.7, 0.7)]
    # two components and four isolated vertices, so the search splits into
    # components, some of one vertex, before it deletes any vertex
    graphs.append(build_graph(13, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2),
                                   (5, 6), (6, 7), (7, 8), (8, 9), (9, 5), (5, 7)]))
    for g in graphs:
        assert tree_depth_exact(g) == oracles.tree_depth_by_deletion(g)


def test_treedepth_at_most_decides_every_bound():
    rng = random.Random(78)
    graphs = []
    for n in range(1, 10):
        graphs += [build_graph(n, []), pathg(n), build_graph(n, [(0, v) for v in range(1, n)])]
        graphs += [oracles.random_graph(n, rng.uniform(0.1, 0.8), rng) for _ in range(4)]
    for g in graphs:
        td = oracles.tree_depth_by_deletion(g)
        for k in range(g.n + 2):
            assert tree_depth_at_most(g, k) == (td <= k)


def test_treedepth_decides_every_graph_on_five_vertices():
    for g in oracles.all_graphs(5):
        td = oracles.tree_depth_by_deletion(g)
        assert tree_depth_exact(g) == td
        for k in range(g.n + 2):
            assert tree_depth_at_most(g, k) == (td <= k)


def _dense_blocks(n, sizes, p, seed):
    """Dense random blocks on shuffled labels; the other vertices are isolated."""
    rng = random.Random(seed)
    labels = rng.sample(range(n), sum(sizes))
    edges = []
    for start, size in zip(itertools.accumulate((0,) + sizes), sizes):
        block = labels[start:start + size]
        edges += [(min(u, v), max(u, v)) for u, v in itertools.combinations(block, 2)
                  if rng.random() < p]
    return build_graph(n, edges)


def _check_every_bound(g):
    td = oracles.tree_depth_by_deletion(g)
    assert tree_depth_exact(g) == td
    for k in range(-1, g.n + 2):
        assert tree_depth_at_most(g, k) == (td <= k)


@pytest.mark.parametrize(
    "n, sizes, p, seed",
    [(13, (6, 5), 0.8, 1), (13, (7, 4), 0.7, 2), (14, (7, 6), 0.8, 3), (14, (8, 4), 0.75, 4),
     # dense random graphs, K_n and the empty graph
     (15, (15,), 0.3, 1), (15, (15,), 0.9, 2), (16, (16,), 0.5, 3), (16, (16,), 0.7, 4),
     (9, (9,), 1.0, 0), (16, (16,), 1.0, 0), (1, (), 0.5, 0), (16, (), 0.5, 0)],
)
def test_treedepth_of_dense_components_beside_isolated_vertices(n, sizes, p, seed):
    # the forest lower bounds run on the whole vertex set before it is split
    # into its components, so they must hold for a disconnected graph
    _check_every_bound(_dense_blocks(n, sizes, p, seed))


@pytest.mark.parametrize("n, size, p, seed", [(14, 5, 0.7, 5), (16, 6, 0.6, 6)])
def test_treedepth_of_two_equal_depth_components_beside_isolated_vertices(n, size, p, seed):
    # two copies of one random block: every deletion leaves one copy whole,
    # so only the rule for disconnected sets puts the graph in its level
    rng = random.Random(seed)
    block = [e for e in itertools.combinations(range(size), 2) if rng.random() < p]
    g = build_graph(n, block + [(u + size, v + size) for u, v in block])
    assert oracles.tree_depth_by_deletion(g) == tree_depth_exact(build_graph(size, block))
    _check_every_bound(g)


def test_treedepth_bounds_subsets_before_it_splits_or_recurses(monkeypatch):
    from rwcolor import graph, widths

    calls = {"components": 0, "subset_lanes": 0}

    def counted(name):
        inner = getattr(graph, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    # the subset levels decide connectivity on their lanes, so no subset is
    # ever split into components, and one call reads the lane patterns once;
    # the width layer need not bind components at all
    for name in calls:
        monkeypatch.setattr(widths, name, counted(name), raising=False)
    g = oracles.random_graph(14, 0.4, random.Random(1))
    assert tree_depth_exact(g) == 8
    assert calls == {"components": 0, "subset_lanes": 1}


@pytest.mark.parametrize(
    "g",
    [
        pathg(TREE_DEPTH_EXACT_CAP),
        build_graph(TREE_DEPTH_EXACT_CAP, [(0, v) for v in range(1, TREE_DEPTH_EXACT_CAP)]),
        oracles.random_graph(TREE_DEPTH_EXACT_CAP, 0.3, random.Random(16)),
        grid(3, 6),
        random_degenerate(18, 6, 1),
        oracles.random_graph(18, 0.5, random.Random(18)),
    ],
    ids=["path", "star", "random", "grid3x6", "degenerate", "random-half"],
)
def test_treedepth_at_the_cap_is_decided_at_its_value(g):
    assert g.n == TREE_DEPTH_EXACT_CAP
    _check_every_bound(g)


@pytest.mark.parametrize(
    "g, td, shortcut",
    [
        (complete(18), 18, True),
        (build_graph(18, [(0, v) for v in range(1, 18)]), 2, True),
        (pathg(18), 5, False),
        (cycle(18), 6, False),
        (build_graph(18, []), 1, True),
    ],
    ids=["K18", "star", "path", "cycle", "empty"],
)
def test_treedepth_at_the_cap_matches_closed_forms(monkeypatch, g, td, shortcut):
    # td(P_n) = ceil(log2(n + 1)) and td(C_n) = 1 + td(P_(n-1)).  A depth-first
    # forest meets the degree bound of K_n, the star and the empty graph, so
    # those are answered without the subset levels.
    from rwcolor import widths

    levels = []
    inner = widths._tree_depth_levels

    def counted(G, top):
        levels.append(top)
        return inner(G, top)

    monkeypatch.setattr(widths, "_tree_depth_levels", counted)
    assert tree_depth_exact(g) == td
    for k in range(-1, 20):
        assert tree_depth_at_most(g, k) == (td <= k)
    assert bool(levels) != shortcut


def test_rank_width_at_most_treedepth():
    for g in oracles.all_graphs(4):
        assert rank_width_exact(g).value <= tree_depth_exact(g)
    rng = random.Random(44)
    for n in (5, 6, 7):
        for _ in range(12):
            g = oracles.random_graph(n, 0.4, rng)
            assert rank_width_exact(g).value <= tree_depth_exact(g)


def test_restrict_decomposition_keeps_width():
    rng = random.Random(9)
    for _ in range(8):
        g = oracles.random_graph(8, 0.4, rng)
        rep = rank_width_exact(g)
        keep = mask_of(rng.sample(range(8), rng.randint(2, 7)))
        D = restrict_decomposition(rep.decomposition, keep)
        assert verify_decomposition(induced_subgraph(g, keep), D) <= rep.value


@pytest.mark.parametrize(
    "keep, fault", [(-1, "vertex mask -1 is negative"), (0b110011, "vertex 4 not in graph")]
)
def test_restrict_decomposition_refuses_a_negative_mask_or_a_vertex_outside(keep, fault):
    D = rank_width_exact(pathg(4)).decomposition
    with pytest.raises(ValueError, match=f"^{fault}$"):
        restrict_decomposition(D, keep)
    assert restrict_decomposition(D, 0) is None


def _tree_walk_cases():
    """(graph, decomposition) pairs: exact, caterpillar and cotree ones."""
    rng = random.Random(2024)
    cases = []
    for n in range(2, 12):
        for _ in range(8 if n <= 9 else 2):
            g = oracles.random_graph(n, rng.uniform(0.2, 0.8), rng)
            cases.append((g, rank_width_exact(g).decomposition))
        for _ in range(8):
            g = oracles.random_graph(n, rng.uniform(0.2, 0.8), rng)
            cases.append((g, caterpillar_decomposition(rng.sample(range(n), n))))
        for _ in range(6):
            ct = oracles.random_cotree(n, rng)
            cases.append((oracles.cotree_to_graph(ct, n), oracles.decomposition_from_cotree(ct)))
    return cases


def test_tree_walks_match_the_per_walk_references():
    rng = random.Random(5)
    cases = _tree_walk_cases()
    assert len(cases) >= 200
    for g, D in cases:
        assert verify_decomposition(g, D) == oracles.verify_decomposition_by_edges(g, D)
        for _ in range(3):
            if g.n >= 3:
                C = rng.sample(range(g.n), rng.randint(3, g.n))
                X, Y = balanced_partition(g, mask_of(C), D)
                assert (set(bits_of(X)), set(bits_of(Y))) == (
                    oracles.balanced_partition_by_rooting(g, C, D)
                )
            keep = rng.sample(range(g.n), rng.randint(0, g.n))
            rank = {v: i for i, v in enumerate(sorted(keep))}
            assert restrict_decomposition(D, mask_of(keep)) == (
                oracles.restrict_decomposition_by_pruning(D, keep, rank)
            )


def test_verify_checks_the_node_range_before_the_tree():
    D = RankDecomposition(4, ((0, 3), (1, 3), (2, 7)), ((0, 0), (1, 1), (2, 2)))
    with pytest.raises(ValueError, match=r"edge \(2, 7\) leaves the node range"):
        verify_decomposition(pathg(3), D)


def test_rank_width_of_subgraph_is_max_over_components_of_the_union():
    rng = random.Random(31)
    for _ in range(20):
        g = oracles.random_graph(8, 0.3, rng)
        X = mask_of(v for v in range(8) if rng.random() < 0.7)
        comps = components(g, X)
        if not X:
            assert rank_width_of_subgraph(g, comps) == (0, 0, "exact")
            continue
        width = oracles.rank_width_by_trees(induced_subgraph(g, X))
        assert rank_width_of_subgraph(g, comps) == (width, width, "exact")
    # an edge (width 1) beside C20, above the exact cap: the exact width is
    # kept apart from the bound of the cycle
    g = build_graph(22, [(0, 1)] + [(2 + v, 2 + (v + 1) % 20) for v in range(20)])
    exact, value, method = rank_width_of_subgraph(g, components(g, (1 << 22) - 1))
    assert (method, exact) == ("upper-bound", 1)
    assert value == rank_width_upper(induced_subgraph(g, (1 << 22) - 4)).value >= 2
    with pytest.raises(ValueError, match="vertex 5 not in graph"):
        rank_width_of_subgraph(build_graph(4, [(0, 1)]), [1 << 1, 1 << 7, 1 << 5])


@pytest.mark.parametrize("n, tree, message", [
    pytest.param(1, RankDecomposition(1, (), ((0, 0),)),
                 "decomposition tree must have at least 2 nodes", id="one-node"),
    pytest.param(3, RankDecomposition(4, ((0, 1), (0, 2), (0, 3)), ((1, 0), (2, 1), (0, 2))),
                 "leaf_map domain differs from the tree's leaves", id="inner-node-mapped"),
])
def test_verify_decomposition_refuses_a_tree_that_is_not_one(n, tree, message):
    with pytest.raises(ValueError) as err:
        verify_decomposition(build_graph(n, []), tree)
    assert str(err.value) == message


def test_caterpillar_needs_two_leaves():
    with pytest.raises(ValueError) as err:
        caterpillar_decomposition([0])
    assert str(err.value) == "caterpillar needs at least 2 vertices"
