import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from rwcolor.graph import (
    Graph,
    ball,
    bits_of,
    build_graph,
    complement,
    components,
    cutrank_mask,
    cutrank_table,
    induced_subgraph,
    mask_of,
    mask_of_flags,
    power,
    rank_of_bitrows,
    select_bits,
    shells,
    subset_lanes,
)
from rwcolor.families import radial_graph, twisted_chain
from rwcolor.orderings import LinearOrder, above_masks

import oracles
from oracles import INF, all_pairs_distances, bfs_distances


def test_build_k2():
    g = build_graph(2, [(0, 1)])
    assert g.edges() == [(0, 1)]


def test_build_dedups_symmetric_pairs():
    g = build_graph(3, [(0, 1), (1, 0)])
    assert g.edge_count() == 1


def test_build_rejects_self_loop():
    with pytest.raises(ValueError, match="edge 0"):
        build_graph(4, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError, match="edge 1"):
        build_graph(3, [(0, 1), (0, 5)])


def test_build_rejects_empty_graph():
    with pytest.raises(ValueError):
        build_graph(0, [])


def test_induced_cycle_minus_vertex_is_path():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    sub = induced_subgraph(c4, 0b0111)
    assert sub.edges() == [(0, 1), (1, 2)]


def test_induced_identity():
    g = build_graph(5, [(0, 2), (1, 4)])
    assert induced_subgraph(g, 0b11111).adj == g.adj


def test_induced_nonadjacent_pair():
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    sub = induced_subgraph(p4, 0b1001)
    assert sub.edge_count() == 0


def test_induced_empty_rejected():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="^induced subgraph on an empty vertex set$"):
        induced_subgraph(g, 0)


@pytest.mark.parametrize(
    "mask, fault", [(-1, "vertex mask -1 is negative"), (0b1100, "vertex 2 not in graph")]
)
def test_induced_refuses_a_negative_mask_or_a_vertex_outside_the_graph(mask, fault):
    with pytest.raises(ValueError, match=f"^{fault}$"):
        induced_subgraph(build_graph(2, [(0, 1)]), mask)


def test_bfs_path():
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert bfs_distances(p4, 0) == [0, 1, 2, 3]


def test_bfs_unreachable():
    g = build_graph(4, [(0, 1), (2, 3)])
    d = bfs_distances(g, 0)
    assert d[2] == INF and d[3] == INF


def test_bfs_cycle5():
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert bfs_distances(c5, 0) == [0, 1, 2, 2, 1]


def test_bfs_matches_floyd_warshall():
    rng = random.Random(11)
    for _ in range(20):
        g = oracles.random_graph(7, 0.3, rng)
        fw = oracles.floyd_warshall(g)
        assert all_pairs_distances(g) == fw


def test_power_p4_squared():
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert power(p4, 2).edges() == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


def test_power_radius_one_is_identity():
    g = build_graph(5, [(0, 1), (2, 4)])
    assert power(g, 1).adj == g.adj


def test_power_c6_cubed_is_complete():
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    fw = oracles.floyd_warshall(c6)
    cubed = power(c6, 3)
    for u, v in itertools.combinations(range(6), 2):
        assert cubed.has_edge(u, v) == (fw[u][v] <= 3)
    assert cubed.edge_count() == 15


def test_power_rejects_zero_radius():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        power(g, 0)


def test_power_composition_contains_product_power():
    rng = random.Random(5)
    for _ in range(10):
        g = oracles.random_graph(8, 0.25, rng)
        lhs = power(power(g, 2), 2)
        rhs = power(g, 4)
        for u, v in rhs.edges():
            assert lhs.has_edge(u, v)


def test_gf2_rank_duplicate_rows():
    assert rank_of_bitrows([0b11, 0b11]) == 1


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_gf2_rank_identity(k):
    assert rank_of_bitrows([1 << i for i in range(k)]) == k


def test_gf2_rank_empty():
    assert rank_of_bitrows([]) == 0


def test_gf2_rank_all_3x3_vs_span_oracle():
    for bits in range(1 << 9):
        rows = [(bits >> (3 * i)) & 7 for i in range(3)]
        assert rank_of_bitrows(rows) == oracles.span_rank(rows)


def test_gf2_rank_all_4x4_vs_span_oracle():
    for bits in range(1 << 16):
        rows = [(bits >> (4 * i)) & 15 for i in range(4)]
        assert rank_of_bitrows(rows) == oracles.span_rank(rows)


def test_gf2_rank_random_8x8_vs_span_oracle():
    rng = random.Random(99)
    for _ in range(500):
        rows = [rng.randrange(256) for _ in range(8)]
        assert rank_of_bitrows(rows) == oracles.span_rank(rows)


def test_cutrank_empty_and_full():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert cutrank_mask(g, 0) == 0
    assert cutrank_mask(g, 0b111) == 0


def test_cutrank_k2_singleton():
    assert cutrank_mask(build_graph(2, [(0, 1)]), 0b1) == 1


def test_cutrank_c4_opposite_pair():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert cutrank_mask(c4, 0b0101) == 1


def test_cutrank_complement_symmetry_and_moves():
    rng = random.Random(3)
    for _ in range(15):
        g = oracles.random_graph(7, 0.4, rng)
        for bits in range(1 << 7):
            r = cutrank_mask(g, bits)
            assert r == cutrank_mask(g, 0b1111111 ^ bits)
        for _ in range(30):
            X = mask_of(v for v in range(7) if rng.random() < 0.5)
            v = rng.randrange(7)
            a, b = cutrank_mask(g, X), cutrank_mask(g, X | 1 << v)
            assert abs(a - b) <= 1


def test_subset_lanes_mark_the_sets_that_hold_each_vertex():
    for n in range(7):
        lanes = subset_lanes(n)
        assert [[lanes[v] >> S & 1 for S in range(1 << n)] for v in range(n)] == [
            [S >> v & 1 for S in range(1 << n)] for v in range(n)
        ]


def _assert_table_is_the_cutrank_of_every_mask(g):
    table = cutrank_table(g)
    assert len(table) == 1 << g.n
    assert list(table) == [cutrank_mask(g, m) for m in range(1 << g.n)]


def test_cutrank_table_on_small_and_extreme_graphs():
    cases = [build_graph(1, []), build_graph(2, []), build_graph(2, [(0, 1)])]
    for n in range(3, 10):
        pairs = list(itertools.combinations(range(n), 2))
        cases.append(build_graph(n, []))
        cases.append(build_graph(n, pairs))
        cases.append(build_graph(n, [(0, v) for v in range(1, n)]))
        # the last vertex, which no lane of the elimination holds, isolated
        cases.append(build_graph(n, [(u, v) for u, v in pairs if v < n - 1]))
    for g in cases:
        _assert_table_is_the_cutrank_of_every_mask(g)


def test_cutrank_table_on_random_graphs_up_to_fourteen_vertices():
    rng = random.Random(17)
    for n in range(2, 15):
        for p in (0.3, 0.7):
            _assert_table_is_the_cutrank_of_every_mask(oracles.random_graph(n, p, rng))


@given(st.integers(min_value=1, max_value=9), st.data())
@settings(max_examples=60, deadline=None)
def test_cutrank_table_property(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    _assert_table_is_the_cutrank_of_every_mask(build_graph(n, chosen))


def test_complement_k3():
    k3 = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert complement(k3).edge_count() == 0


def test_complement_p4_self_complementary():
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    co = complement(p4)
    assert sorted(co.edges()) == [(0, 2), (0, 3), (1, 3)]
    # relabeling 2-0-3-1 walks a path through the complement
    assert co.has_edge(2, 0) and co.has_edge(0, 3) and co.has_edge(3, 1)


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=60, deadline=None)
def test_complement_involution_and_symmetry(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = build_graph(n, chosen)
    assert complement(complement(g)).adj == g.adj
    for h in (g, complement(g)):
        h.validate_symmetric()
        assert all(not h.has_edge(v, v) for v in range(n))


def test_select_bits_picks_the_items_at_bits_of():
    rng = random.Random(3)
    masks = [0, 1, 2, 1 << 200, (1 << 200) - 1]
    masks += [rng.getrandbits(rng.randint(1, 300)) for _ in range(200)]
    for mask in masks:
        names = [f"v{i}" for i in range(mask.bit_length() + rng.randint(0, 3))]
        assert list(select_bits(names, mask)) == [names[i] for i in bits_of(mask)]
        flags = bytearray(len(names) or 1)
        for i in bits_of(mask):
            flags[i] = 1
        assert mask_of_flags(flags) == mask


@pytest.mark.parametrize("u, v", [(6, 2), (2, 6)], ids=["lower", "upper"])
def test_validate_symmetric_names_the_scan_pair_of_an_orphan_bit(u, v):
    """One bit (u, v) without its reverse, below or above the diagonal, in
    a graph that is otherwise symmetric: the first pair named is the scan's."""
    g = oracles.random_graph(9, 0.4, random.Random(7))
    adj = list(g.adj)
    adj[v] &= ~(1 << u)
    adj[u] |= 1 << v
    h = Graph(g.n, tuple(adj))
    with pytest.raises(ValueError) as want:
        oracles.validate_symmetric_by_scan(h)
    with pytest.raises(ValueError) as got:
        h.validate_symmetric()
    assert str(got.value) == str(want.value)
    assert str(got.value) == f"asymmetric adjacency at ({u}, {v})"


# -- traversal primitives -----------------------------------------------------------


def _random_cases(seed, count, n_max=9):
    """Random graphs with a random vertex mask on each."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, n_max)
        g = oracles.random_graph(n, rng.choice((0.15, 0.3, 0.5)), rng)
        yield rng, g, mask_of(v for v in range(n) if rng.random() < 0.7)


def test_components_match_floyd_warshall_reachability():
    for _, g, mask in _random_cases(21, 200):
        comps = components(g, mask)
        verts = sorted(bits_of(mask))
        if not verts:
            assert comps == []
            continue
        sub, index = oracles.induced_subgraph_by_vertices(g, verts)
        fw = oracles.floyd_warshall(sub)
        # the components partition the mask, in order of smallest vertex
        assert sum(c.bit_count() for c in comps) == mask.bit_count()
        assert mask_of(v for c in comps for v in bits_of(c)) == mask
        lows = [(c & -c).bit_length() for c in comps]
        assert lows == sorted(lows)
        for c in comps:
            members = list(bits_of(c))
            for u in verts:
                reach = fw[index[members[0]]][index[u]] < INF
                assert reach == (c >> u & 1 == 1)


def test_ball_and_shells_match_distances_in_the_induced_subgraph():
    for rng, g, within in _random_cases(22, 200):
        v = rng.randrange(g.n)
        verts = sorted(set(bits_of(within)) | {v})
        sub, index = oracles.induced_subgraph_by_vertices(g, verts)
        dist = oracles.floyd_warshall(sub)[index[v]]
        for r in range(0, 5):
            layers = shells(g, v, within, r)
            assert layers[0] == 1 << v
            assert len(layers) <= r + 1
            for d, layer in enumerate(layers):
                assert layer == mask_of(u for u in verts if dist[index[u]] == d)
            expect = mask_of(u for u in verts if dist[index[u]] <= r)
            assert ball(g, v, r, within) == expect
            assert mask_of(w for layer in layers for w in bits_of(layer)) == expect


def _grid_rotations(a):
    """The plane rotation system of the a x a grid: each vertex's neighbours
    counter-clockwise from the right."""
    rot = []
    for r in range(a):
        for c in range(a):
            steps = ((0, 1), (-1, 0), (0, -1), (1, 0))
            rot.append([(r + i) * a + c + j for i, j in steps if 0 <= r + i < a and 0 <= c + j < a])
    return rot


def test_induced_subgraph_matches_has_edge():
    cases = [(g, mask) for _, g, mask in _random_cases(23, 200)]
    # labelled graphs, under dense, sparse and whole masks
    rng = random.Random(25)
    for g in (twisted_chain(12), radial_graph(_grid_rotations(4))[0]):
        assert g.labels is not None
        for _ in range(6):
            cases.append((g, rng.getrandbits(g.n)))
            cases.append((g, rng.getrandbits(g.n) & rng.getrandbits(g.n) & rng.getrandbits(g.n)))
        cases.append((g, (1 << g.n) - 1))
    for g, mask in cases:
        verts = sorted(bits_of(mask))
        if not verts:
            continue
        sub = induced_subgraph(g, mask)
        ref, index = oracles.induced_subgraph_by_vertices(g, verts)
        assert (sub.n, sub.adj, sub.labels) == (ref.n, ref.adj, ref.labels)
        assert index == {v: i for i, v in enumerate(verts)}
        if g.n <= 9:
            for a, b in itertools.combinations(verts, 2):
                assert sub.has_edge(index[a], index[b]) == g.has_edge(a, b)
        sub.validate_symmetric()


def test_above_masks_match_positions():
    rng = random.Random(24)
    for n in range(1, 10):
        order = list(range(n))
        rng.shuffle(order)
        L = LinearOrder.from_order(order)
        above = above_masks(L)
        for v in range(n):
            assert above[v] == mask_of(w for w in range(n) if L.position[w] > L.position[v])
