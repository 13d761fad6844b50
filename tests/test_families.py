import itertools
import random

import pytest

from rwcolor import families
from rwcolor.graph import Graph, bits_of, build_graph, induced_subgraph
from rwcolor.families import (
    TWISTED_CHAIN_VARIANTS,
    chain_cross_row,
    chain_labels,
    chain_order,
    cycle,
    grid,
    h_graph,
    h_tilde,
    interval_model,
    intersection_graph,
    line_graph_via_subdivision,
    map_graph_from_rotation,
    path,
    radial_graph,
    random_degenerate,
    row_coloring,
    segment_model,
    trace_faces,
    twisted_chain,
    verify_twisted_chain,
)
from rwcolor.widths import rank_width_exact

import oracles


# -- layered H family ----------------------------------------------------------


def test_h22_exact_edges():
    assert h_graph(2, 2).edges() == [(0, 2), (1, 2), (1, 3)]


def test_h_one_row_cases():
    assert h_graph(1, 5).edge_count() == 0
    assert h_tilde(1, 5).edge_count() == 10  # K_5


def test_h_rows_independent_and_layered():
    g = h_graph(4, 3)
    for u, v in g.edges():
        ru, rv = g.labels[u]["row"], g.labels[v]["row"]
        assert abs(ru - rv) == 1
    gt = h_tilde(4, 3)
    for u, v in gt.edges():
        assert abs(gt.labels[u]["row"] - gt.labels[v]["row"]) <= 1


def test_h23_rank_width_within_row_bound():
    assert rank_width_exact(h_graph(2, 3)).value <= 6


def test_h_family_width_snapshots():
    # frozen exact values; the stated bound is 3n = 6 for two rows
    assert [rank_width_exact(h_graph(2, m)).value for m in (2, 3, 4)] == [1, 1, 1]
    assert [rank_width_exact(h_tilde(2, m)).value for m in (2, 3, 4)] == [1, 2, 2]


def test_row_coloring_arithmetic():
    c = row_coloring(5, 1, 2)
    assert list(c.colors) == [2, 3, 1, 2, 3]
    assert c.palette_size == 3


def test_row_coloring_components_are_row_runs():
    g = h_graph(6, 3)
    c = row_coloring(6, 3, 2)
    classes = c.classes()
    for combo_size in (1, 2):
        for combo in itertools.combinations(sorted(classes), combo_size):
            rows = sorted({g.labels[v]["row"] for col in combo for v in bits_of(classes[col])})
            runs = []
            for r in rows:
                if runs and runs[-1][-1] == r - 1:
                    runs[-1].append(r)
                else:
                    runs.append([r])
            assert all(len(run) <= combo_size for run in runs)


# -- twisted chains --------------------------------------------------------------


def test_twisted_chain_order_two_bullets():
    tc = twisted_chain(2)
    assert verify_twisted_chain(tc) == 2
    z = {(i, j): 8 + (i - 1) * 2 + (j - 1) for i in (1, 2) for j in (1, 2)}
    # v_3 has (x, y) = (2, 1)
    assert [zz for zz in z.values() if tc.has_edge(2, zz)] == [z[(2, 1)], z[(2, 2)]]
    # w_3 pairs with columns instead
    assert [zz for zz in z.values() if tc.has_edge(4 + 2, zz)] == [z[(1, 2)], z[(2, 2)]]


def test_twisted_chain_order_one():
    tc = twisted_chain(1)
    assert tc.edges() == [(0, 2), (1, 2)]


def test_twisted_chain_scalar_rule_equivalence():
    for n in (1, 2, 3):
        tc = twisted_chain(n)
        nn = n * n
        for k in range(1, nn + 1):
            x, y = (k - 1) // n + 1, (k - 1) % n + 1
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    zid = 2 * nn + (i - 1) * n + (j - 1)
                    assert tc.has_edge(k - 1, zid) == (k <= n * (i - 1) + j)
                    assert tc.has_edge(nn + k - 1, zid) == (k <= n * (j - 1) + i)


def test_twisted_chain_matches_rule_builder():
    cases = [(n, v) for n in range(1, 13) for v in TWISTED_CHAIN_VARIANTS]
    for n, variant in cases + [(16, "permutation-derived"), (24, "bare"), (36, "bare")]:
        got = twisted_chain(n, variant)
        want = oracles.twisted_chain_by_rule(n, variant)
        assert (got.n, got.adj, got.labels) == (want.n, want.adj, want.labels), (n, variant)


def test_twisted_chain_variants():
    bare = twisted_chain(2, "bare")
    nn = 4
    for u, v in itertools.combinations(range(2 * nn), 2):
        assert not bare.has_edge(u, v)
    iv = twisted_chain(2, "interval")
    for block in (range(0, 4), range(4, 8), range(8, 12)):
        for u, v in itertools.combinations(block, 2):
            assert iv.has_edge(u, v)
    for u in range(0, 4):
        for v in range(4, 8):
            assert not iv.has_edge(u, v)
    with pytest.raises(ValueError):
        twisted_chain(2, "nonsense")


def test_chain_order_requires_labels():
    with pytest.raises(ValueError):
        chain_order(build_graph(3, []))


@pytest.mark.parametrize("v, wrong, message", [
    (1, {"role": "A", "k": 7}, "vertex 1 is not labeled A/2"),
    (6, {"role": "A", "k": 3}, "vertex 6 is not labeled B/3"),
    (11, {"role": "C", "i": 2, "j": 1}, "vertex 11 is not labeled C/(2,2)"),
])
def test_chain_order_names_the_mislabeled_vertex(v, wrong, message):
    tc = twisted_chain(2)
    labels = list(tc.labels)
    labels[v] = wrong
    with pytest.raises(ValueError) as exc:
        chain_order(Graph(tc.n, tc.adj, tuple(labels)))
    assert str(exc.value) == message


def test_chain_order_skips_the_compare_for_the_shared_labels(monkeypatch):
    compared = []

    class Labels(tuple):
        def __ne__(self, other):
            compared.append(other)
            return tuple.__ne__(self, other)

    shared = Labels(chain_labels(6))
    monkeypatch.setattr(families, "chain_labels", lambda n: shared)
    tc = twisted_chain(6)
    assert tc.labels is shared
    assert chain_order(tc) == 6 and compared == []
    # equal labels in another tuple are still compared
    assert chain_order(Graph(tc.n, tc.adj, tuple(tc.labels))) == 6 and len(compared) == 1


@pytest.mark.parametrize("variant", TWISTED_CHAIN_VARIANTS)
def test_chain_cross_row_matches_the_built_chain(variant):
    # the A/B rows inside C of the per-bit reference chain, which does not
    # read the rule under test; the interval variant adds A and B cliques,
    # which the cross rule leaves out
    for n in range(1, 37):
        g = oracles.twisted_chain_by_rule(n, variant)
        nn = n * n
        c_block = ((1 << nn) - 1) << 2 * nn
        for v in range(2 * nn):
            assert chain_cross_row(n, v) == g.adj[v] & c_block, (n, v)


@pytest.mark.parametrize("v", [-1, 8, 11])
def test_chain_cross_row_refuses_a_c_vertex(v):
    with pytest.raises(ValueError, match=f"^vertex {v} is not in the A or B block of the order-2 chain$"):
        chain_cross_row(2, v)


def _toggle_edge(g, u, v):
    adj = list(g.adj)
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u
    return Graph(g.n, tuple(adj), g.labels)


@pytest.mark.parametrize("u, z, message", [
    (1, 19, "A-C rule violated at v_2, z_(1,2)"),  # edge v_2 z_(1,2) removed
    (13, 18, "B-C rule violated at w_5, z_(1,1)"),  # edge w_5 z_(1,1) added
])
def test_verify_twisted_chain_names_the_first_violation(u, z, message):
    tc = twisted_chain(3)
    with pytest.raises(ValueError) as exc:
        verify_twisted_chain(_toggle_edge(tc, u, z))
    assert str(exc.value) == message


# -- intersection models ---------------------------------------------------------


def test_interval_model_coordinates():
    m = interval_model(2)
    assert m.scale == 9
    assert m.intervals[8 + 3] == (4, 5)  # z_(2,2)
    assert m.intervals[3] == (0, 4)  # v_4 touches it
    assert m.intervals[2] == (0, 3)  # v_3 does not


def test_interval_model_order_one():
    m = interval_model(1)
    g = intersection_graph(m)
    assert m.intervals == ((0, 1), (2, 3), (1, 2))
    assert not g.has_edge(0, 1)
    assert g.has_edge(0, 2) and g.has_edge(1, 2)


def test_interval_model_a_block_shares_a_point():
    m = interval_model(3)
    g = intersection_graph(m)
    for u, v in itertools.combinations(range(9), 2):
        assert g.has_edge(u, v)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_interval_model_realizes_chain(n):
    m = interval_model(n)
    g = intersection_graph(m)
    tc = twisted_chain(n, "interval")
    rel = m.relabel_to_chain
    for u, v in itertools.combinations(range(g.n), 2):
        assert g.has_edge(u, v) == tc.has_edge(rel[u], rel[v])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_segment_model_realizes_chain(n):
    m = segment_model(n)
    g = intersection_graph(m)
    tc = twisted_chain(n, "permutation-derived")
    rel = m.relabel_to_chain
    for u, v in itertools.combinations(range(g.n), 2):
        assert g.has_edge(u, v) == tc.has_edge(rel[u], rel[v])


def test_segment_crossing_basics():
    from rwcolor.families import SegmentModel

    m = SegmentModel(1, 10, ((1, 2), (2, 1)), (0, 1))
    g = intersection_graph(m)
    assert g.has_edge(0, 1)


def test_interval_touching_counts():
    from rwcolor.families import IntervalModel

    m = IntervalModel(1, 10, ((0, 1), (1, 2)), (0, 1))
    assert intersection_graph(m).has_edge(0, 1)


# -- map graphs -------------------------------------------------------------------


def test_triangle_has_two_faces_sharing_all():
    rot = [[1, 2], [2, 0], [0, 1]]
    faces = trace_faces(rot)
    assert len(faces) == 2
    assert map_graph_from_rotation(rot).edges() == [(0, 1)]


def test_tree_has_one_face():
    rot = [[1], [0, 2], [1]]
    assert len(trace_faces(rot)) == 1
    g = map_graph_from_rotation(rot)
    assert g.n == 1


def test_square_grid_two_faces():
    rot = [[1, 2], [0, 3], [0, 3], [1, 2]]
    g = map_graph_from_rotation(rot)
    assert g.n == 2 and g.edges() == [(0, 1)]


def test_single_vertex_one_face():
    g = map_graph_from_rotation([[]])
    assert g.n == 1


def test_radial_graph_is_bipartite_incidence():
    rot = [[1, 2], [2, 0], [0, 1]]
    R, n = radial_graph(rot)
    assert n == 3 and R.n == 5
    for u, v in R.edges():
        assert (u < n) != (v < n)


def test_inconsistent_rotation_rejected():
    with pytest.raises(ValueError, match="asymmetric"):
        trace_faces([[1], []])
    with pytest.raises(ValueError, match="disconnected"):
        trace_faces([[1], [0], []])
    # K5 rotation data cannot be plane; Euler's formula trips
    k5rot = [[v for v in range(5) if v != u] for u in range(5)]
    with pytest.raises(ValueError, match="not plane"):
        trace_faces(k5rot)


# -- line graphs ------------------------------------------------------------------


def test_line_graph_p4():
    lg = line_graph_via_subdivision(path(4))
    assert lg.edges() == [(0, 1), (1, 2)]


def test_line_graph_k3():
    lg = line_graph_via_subdivision(cycle(3))
    assert lg.edge_count() == 3


def test_line_graph_star():
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    lg = line_graph_via_subdivision(star)
    assert lg.edge_count() == 3  # K_3


def test_line_graph_matches_direct_construction():
    for g in oracles.all_graphs(4):
        if g.edge_count() == 0:
            continue
        direct = oracles.line_graph_direct(g)
        assert line_graph_via_subdivision(g).adj == direct.adj
    rng = random.Random(64)
    for _ in range(10):
        g = oracles.random_graph(8, 0.3, rng)
        if g.edge_count() == 0:
            continue
        assert line_graph_via_subdivision(g).adj == oracles.line_graph_direct(g).adj


# -- utility generators -----------------------------------------------------------


def test_grid_2x2_is_c4():
    g = grid(2, 2)
    assert g.edge_count() == 4
    assert all(g.degree(v) == 2 for v in range(4))


def test_random_degenerate_deterministic():
    a = random_degenerate(50, 2, 123)
    b = random_degenerate(50, 2, 123)
    assert a.adj == b.adj
    assert a.adj != random_degenerate(50, 2, 124).adj


def test_random_degenerate_peeling():
    g = random_degenerate(50, 2, 9)
    remaining = set(range(50))
    worst = 0
    while remaining:
        v = min(remaining, key=lambda u: (sum(1 for w in g.neighbors(u) if w in remaining), u))
        worst = max(worst, sum(1 for w in g.neighbors(v) if w in remaining))
        remaining.remove(v)
    assert worst <= 2


def test_generators_validate():
    for g in (h_graph(3, 4), h_tilde(2, 3), twisted_chain(3), grid(3, 3), path(5), cycle(6)):
        g.validate_symmetric()
