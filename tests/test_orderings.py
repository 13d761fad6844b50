import itertools
import random

import pytest

from rwcolor.graph import bits_of, build_graph, mask_of
from rwcolor.families import grid
from rwcolor.orderings import (
    WCOL_EXACT_CAP,
    LinearOrder,
    wcol_exact,
    wcol_heuristic,
    wcol_of_order,
    wreach_sets,
)

import oracles
from oracles import wreach


def complete(n):
    return build_graph(n, list(itertools.combinations(range(n), 2)))


def test_linear_order_validates():
    with pytest.raises(ValueError):
        LinearOrder.from_order([0, 0, 1])


def test_wreach_zero_radius():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    L = LinearOrder.identity(4)
    for v in range(4):
        assert wreach(g, L, 0, v) == {v}


def test_wreach_p3_blocked_minimum():
    # order 1 < 0 < 2: on the only 2-path to vertex 0 the minimum is 1
    p3 = build_graph(3, [(0, 1), (1, 2)])
    L = LinearOrder.from_order([1, 0, 2])
    assert wreach(p3, L, 2, 2) == {1, 2}


def test_wreach_triangle_last_vertex_sees_all():
    k3 = complete(3)
    for perm in itertools.permutations(range(3)):
        L = LinearOrder.from_order(perm)
        assert wreach(k3, L, 1, perm[-1]) == {0, 1, 2}


def test_wreach_matches_path_enumeration_oracle():
    rng = random.Random(17)
    for _ in range(25):
        g = oracles.random_graph(7, 0.35, rng)
        L = LinearOrder.from_order(rng.sample(range(7), 7))
        r = rng.randint(0, 4)
        sets = wreach_sets(g, L, r)
        for v in range(7):
            expected = oracles.wreach_by_paths(g, L, r, v)
            assert wreach(g, L, r, v) == expected
            assert sets[v] == mask_of(expected)


def test_wreach_monotone_in_radius_and_membership():
    rng = random.Random(23)
    for _ in range(15):
        g = oracles.random_graph(8, 0.3, rng)
        L = LinearOrder.from_order(rng.sample(range(8), 8))
        for r in range(0, 4):
            small = wreach_sets(g, L, r)
            big = wreach_sets(g, L, r + 1)
            for v in range(8):
                assert small[v] >> v & 1
                assert small[v] & ~big[v] == 0
                assert all(L.position[u] <= L.position[v] for u in bits_of(small[v]))


@pytest.mark.parametrize("order", [[0, 1, 2, 3], [0, 1]])
def test_wreach_sets_rejects_an_order_of_another_length(order):
    p3 = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="the order has"):
        wreach_sets(p3, LinearOrder.from_order(order), 2)
    with pytest.raises(ValueError, match="the order has"):
        wcol_of_order(p3, LinearOrder.from_order(order), 2)


def test_wcol_of_order_edgeless():
    g = build_graph(5, [])
    assert wcol_of_order(g, LinearOrder.identity(5), 3) == 1


def test_wcol_of_order_p3():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    L = LinearOrder.from_order([1, 0, 2])
    assert wcol_of_order(p3, L, 2) == 2


def test_wcol_one_iff_edgeless():
    rng = random.Random(2)
    for _ in range(20):
        g = oracles.random_graph(6, 0.3, rng)
        val = wcol_of_order(g, LinearOrder.identity(6), 2)
        assert (val == 1) == (g.edge_count() == 0)


def test_wcol_exact_p3_all_radii():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    for r in range(1, 4):
        value, L = wcol_exact(p3, r)
        assert value == 2
        assert wcol_of_order(p3, L, r) == 2


def test_wcol_exact_star():
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    value, L = wcol_exact(star, 1)
    assert value == 2
    assert wcol_of_order(star, L, 1) == 2
    # placing the center first realizes the optimum
    assert wcol_of_order(star, LinearOrder.from_order([0, 1, 2, 3]), 1) == 2


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wcol_exact_complete(n):
    value, _ = wcol_exact(complete(n), 2)
    assert value == n


def test_wcol_exact_is_min_over_all_orders():
    rng = random.Random(7)
    for n in (5, 5, 5, 6, 6):
        g = oracles.random_graph(n, 0.4, rng)
        r = rng.randint(1, 3)
        value, _ = wcol_exact(g, r)
        brute = min(
            wcol_of_order(g, LinearOrder.from_order(p), r)
            for p in itertools.permutations(range(n))
        )
        assert value == brute


@pytest.mark.parametrize("wcol", [wcol_heuristic, wcol_exact])
def test_wcol_rejects_a_negative_radius(wcol):
    with pytest.raises(ValueError, match="radius must be non-negative"):
        wcol(complete(WCOL_EXACT_CAP + 1), -1)


def test_wcol_exact_cap():
    with pytest.raises(ValueError, match="heuristic"):
        wcol_exact(complete(WCOL_EXACT_CAP + 1), 2)


def test_wcol_exact_returns_the_permutation_sweep_value_and_order():
    rng = random.Random(404)
    graphs = [build_graph(n, []) for n in (1, 4)] + [complete(5)]
    # n = 2..7 in turn, then three graphs at n = 8, where the sweep is slow
    for n in [2 + k % 6 for k in range(84)] + [8] * 3:
        graphs.append(oracles.random_graph(n, rng.uniform(0.1, 0.8), rng))
    for k, g in enumerate(graphs):
        r = 1 + k % 3
        value, L = wcol_exact(g, r)
        ref_value, ref_L = oracles.wcol_by_permutations(g, r)
        assert (value, L.order) == (ref_value, ref_L.order)


def test_wcol_exact_returns_the_reference_search_value_and_order():
    # n = 9..11 at r = 1..3, then C12 at r = 5, whose order is pinned
    rng = random.Random(27)
    cases = [(oracles.random_graph(n, rng.uniform(0.2, 0.6), rng), 1 + k % 3)
             for k, n in enumerate([9, 10, 11] * 3)]
    cases.append((build_graph(12, [(i, (i + 1) % 12) for i in range(12)]), 5))
    for g, r in cases:
        value, L = wcol_exact(g, r)
        ref_value, ref_L = oracles.wcol_by_search(g, r)
        assert (value, L.order) == (ref_value, ref_L.order)
    assert L.order == (0, 1, 4, 2, 3, 7, 5, 6, 9, 8, 10, 11)


def test_wcol_exact_at_radius_zero_is_one_with_the_identity_order():
    for g in (grid(3, 3), complete(5)):
        value, L = wcol_exact(g, 0)
        assert (value, L.order) == (1, tuple(range(g.n)))
    rng = random.Random(0)
    for n in range(1, 7):
        g = oracles.random_graph(n, 0.5, rng)
        value, L = wcol_exact(g, 0)
        ref_value, ref_L = oracles.wcol_by_permutations(g, 0)
        assert (value, L.order) == (ref_value, ref_L.order)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_wcol_exact_at_the_cap_returns_an_order_of_its_value(r):
    g = oracles.random_graph(WCOL_EXACT_CAP, 0.3, random.Random(50 + r))
    value, L = wcol_exact(g, r)
    assert wcol_of_order(g, L, r) == value <= wcol_heuristic(g, r)[0]


def test_heuristic_dominates_exact():
    for g in oracles.all_graphs(4):
        for r in (1, 2):
            hv, hL, hsets = wcol_heuristic(g, r)
            assert hsets == wreach_sets(g, hL, r)
            ev, _ = wcol_exact(g, r)
            assert hv >= ev
            assert wcol_of_order(g, hL, r) == hv
    rng = random.Random(31)
    for n in (5, 6):
        for _ in range(10):
            g = oracles.random_graph(n, 0.35, rng)
            r = rng.randint(1, 3)
            assert wcol_heuristic(g, r)[0] >= wcol_exact(g, r)[0]


def test_heuristic_edgeless():
    assert wcol_heuristic(build_graph(6, []), 2)[0] == 1


def test_heuristic_grid_snapshot():
    # frozen after the first run; guards against heuristic regressions
    value, _, _ = wcol_heuristic(grid(5, 5), 2)
    assert value == 7
    assert value <= 10


def test_wreach_sets_refuse_a_negative_radius():
    with pytest.raises(ValueError) as err:
        wreach_sets(grid(2, 2), LinearOrder.from_order(range(4)), -1)
    assert str(err.value) == "radius must be non-negative"
