import itertools
import math
import random

import pytest

from rwcolor.graph import bits_of, build_graph, induced_subgraph, mask_of, power
from rwcolor.families import grid, h_graph, h_tilde, path, random_degenerate, row_coloring
from rwcolor.orderings import LinearOrder, wcol_heuristic, wcol_of_order
from rwcolor.coloring import (
    Coloring,
    excellent_refinement,
    good_refinement,
    greedy_proper_coloring,
    gurski_wanke_budget,
    low_rankwidth_coloring_of_power,
    treedepth_coloring,
    verify_low_rw_coloring,
    verify_td_coloring,
)

import oracles
from oracles import all_pairs_distances, expand_excellent, expand_good, is_closure, is_hitter


def complete(n):
    return build_graph(n, list(itertools.combinations(range(n), 2)))


def constant_coloring(n):
    return Coloring((1,) * n, 1)


def random_coloring(n, k, rng):
    return Coloring(tuple(rng.randint(1, k) for _ in range(n)), k)


def sample_sets(ref, G, rng, classes_up_to=2, extra=50):
    classes = ref.refined.classes()
    sets = []
    for i in range(1, classes_up_to + 1):
        for combo in itertools.combinations(sorted(classes), i):
            sets.append({v for col in combo for v in bits_of(classes[col])})
    for _ in range(extra):
        size = rng.randint(1, max(2, G.n // 3))
        sets.append(set(rng.sample(range(G.n), size)))
    return sets


# -- good refinements ---------------------------------------------------------


def test_good_refinement_rejects_small_radius():
    g = path(3)
    with pytest.raises(ValueError):
        good_refinement(g, constant_coloring(3), 1, LinearOrder.identity(3))


def test_good_refinement_edgeless_is_base():
    g = build_graph(4, [])
    c = Coloring((1, 2, 1, 2), 2)
    ref = good_refinement(g, c, 2, LinearOrder.identity(4))
    assert ref.refined.palette_size == 2
    for q, decoded in ref.decode.items():
        assert len(decoded) == 1


def test_good_refinement_p3_hand_executed():
    # order 1 < 0 < 2, constant base color, radius 2: step two collects {1}
    # everywhere; for the pair (0, 2) the only detour 0-1-2 has its interior
    # below 2, so step three adds nothing new.
    p3 = build_graph(3, [(0, 1), (1, 2)])
    L = LinearOrder.from_order([1, 0, 2])
    ref = good_refinement(p3, constant_coloring(3), 2, L)
    assert set(ref.decode.values()) == {frozenset({1})}
    Xp = expand_good(ref, {0, 2})
    assert Xp == {0, 1, 2}
    assert is_hitter(p3, {0, 2}, Xp, 2)


def test_good_refinement_budget_and_palette():
    rng = random.Random(42)
    g = oracles.random_graph(20, 0.15, rng)
    c = random_coloring(20, 3, rng)
    L = wcol_heuristic(g, 2)[1]
    ref = good_refinement(g, c, 2, L)
    w = wcol_of_order(g, L, 2)
    assert ref.budget == 2 * w
    assert ref.refined.palette_size <= 3 ** (2 * w)
    for q, decoded in ref.decode.items():
        assert len(decoded) <= ref.budget
    for v in range(20):
        assert c.colors[v] in ref.decode[ref.refined.colors[v]]


def test_expand_good_empty():
    g = path(4)
    ref = good_refinement(g, constant_coloring(4), 2, LinearOrder.identity(4))
    assert expand_good(ref, set()) == set()


def test_expand_good_single_class_color_budget():
    rng = random.Random(5)
    g = random_degenerate(15, 2, 3)
    c = random_coloring(15, 3, rng)
    L = wcol_heuristic(g, 2)[1]
    ref = good_refinement(g, c, 2, L)
    for q, members in ref.refined.classes().items():
        Xp = expand_good(ref, bits_of(members))
        assert len(c.colors_on(mask_of(Xp))) <= len(ref.decode[q])


def test_good_refinement_hitter_property_sampled():
    rng = random.Random(2024)
    for seed in range(6):
        g = random_degenerate(18, 2, seed)
        c = random_coloring(18, 3, rng)
        dist = all_pairs_distances(g)
        for r in (2, 3):
            L = wcol_heuristic(g, r)[1]
            ref = good_refinement(g, c, r, L)
            for X in sample_sets(ref, g, rng, classes_up_to=2, extra=30):
                Xp = expand_good(ref, X)
                assert X <= Xp
                assert is_hitter(g, X, Xp, r, dist)
                p = len(ref.refined.colors_on(mask_of(X)))
                assert len(c.colors_on(mask_of(Xp))) <= ref.budget * p


def test_good_refinement_three_class_unions():
    rng = random.Random(88)
    g = random_degenerate(18, 2, 60)
    c = random_coloring(18, 3, rng)
    dist = all_pairs_distances(g)
    L = wcol_heuristic(g, 2)[1]
    ref = good_refinement(g, c, 2, L)
    classes = ref.refined.classes()
    for combo in itertools.combinations(sorted(classes), min(3, len(classes))):
        X = {v for col in combo for v in bits_of(classes[col])}
        Xp = expand_good(ref, X)
        assert is_hitter(g, X, Xp, 2, dist)
        assert len(c.colors_on(mask_of(Xp))) <= ref.budget * len(combo)


def _detour_contributions_oracle(g, c, r, L):
    """Step-three colors recomputed by exhaustive path search: for each
    non-adjacent weakly reachable pair, enumerate all x-to-v paths whose
    interior stays above v, keep the shortest, and record the top vertex's
    color along any optimal path."""
    from rwcolor.orderings import wreach_sets

    pos = L.position
    wsets = wreach_sets(g, L, r)
    out = {v: set() for v in range(g.n)}
    for v in range(g.n):
        for u in bits_of(wsets[v]):
            if u == v or g.has_edge(u, v):
                continue
            best = None
            stack = [(u, [u])]
            while stack:
                node, path = stack.pop()
                if len(path) - 1 > r or (best and len(path) - 1 >= best[0]):
                    continue
                for w in g.neighbors(node):
                    if w == v:
                        cand = (len(path), path + [v])
                        if best is None or cand[0] < best[0]:
                            best = (cand[0], [cand[1]])
                        elif cand[0] == best[0]:
                            best[1].append(cand[1])
                    elif pos[w] > pos[v] and w not in path:
                        stack.append((w, path + [w]))
            if best is not None:
                zs = {max(p, key=lambda w: pos[w]) for p in best[1]}
                out[v] |= {c.colors[z] for z in zs} if len(zs) == 1 else set()
                if len(zs) > 1:
                    # any optimal path's top is admissible; record all options
                    out[v].add(frozenset(c.colors[z] for z in zs))
    return out


def test_good_refinement_detour_colors_match_path_oracle():
    rng = random.Random(14)
    for seed in range(6):
        g = random_degenerate(12, 2, 70 + seed)
        c = random_coloring(12, 3, rng)
        L = wcol_heuristic(g, 2)[1]
        ref = good_refinement(g, c, 2, L)
        oracle = _detour_contributions_oracle(g, c, 2, L)
        from rwcolor.orderings import wreach_sets

        wsets = wreach_sets(g, L, 2)
        for v in range(12):
            reach_colors = {c.colors[u] for u in bits_of(wsets[v])}
            got = ref.decode[ref.refined.colors[v]] - reach_colors
            allowed = set()
            for item in oracle[v]:
                if isinstance(item, frozenset):
                    allowed |= item
                else:
                    allowed.add(item)
            assert got <= allowed
            forced = {item for item in oracle[v] if not isinstance(item, frozenset)}
            assert forced - reach_colors <= ref.decode[ref.refined.colors[v]]


# -- hitter / closure predicates ----------------------------------------------


def test_is_hitter_close_pairs_vacuous():
    k3 = complete(3)
    assert is_hitter(k3, {0, 1, 2}, {0, 1, 2}, 3)


def test_is_hitter_p3():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert not is_hitter(p3, {0, 2}, {0, 2}, 2)
    assert is_hitter(p3, {0, 2}, {0, 1, 2}, 2)


def test_is_hitter_requires_containment():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        is_hitter(p3, {0, 2}, {1}, 2)


def test_is_hitter_c6_midpoints():
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    # both neighbors of the pair lie on shortest 0-3 paths
    assert is_hitter(c6, {0, 3}, {0, 3, 1}, 3)
    assert is_hitter(c6, {0, 3}, {0, 3, 2}, 3)
    assert not is_hitter(c6, {0, 3}, {0, 3}, 3)


def test_is_closure_full_set_always():
    rng = random.Random(3)
    for _ in range(10):
        g = oracles.random_graph(7, 0.3, rng)
        X = set(rng.sample(range(7), 3))
        assert is_closure(g, X, set(range(7)), 4)


def test_is_closure_p3():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert not is_closure(p3, {0, 2}, {0, 2}, 2)
    assert is_closure(p3, {0, 2}, {0, 1, 2}, 2)


def test_closure_implies_hitter():
    rng = random.Random(77)
    for _ in range(40):
        g = oracles.random_graph(8, 0.3, rng)
        X = set(rng.sample(range(8), rng.randint(2, 4)))
        Xp = X | set(rng.sample(range(8), rng.randint(0, 4)))
        r = rng.randint(2, 4)
        if is_closure(g, X, Xp, r):
            assert is_hitter(g, X, Xp, r)


# -- excellent refinements ----------------------------------------------------


def test_excellent_base_case_equals_good():
    g = random_degenerate(12, 2, 1)
    c = constant_coloring(12)
    L = wcol_heuristic(g, 2)[1]
    good = good_refinement(g, c, 2, L)
    exc = excellent_refinement(g, c, 2, [L])
    assert exc.refined.colors == good.refined.colors
    assert exc.inner is None
    rng = random.Random(0)
    for _ in range(20):
        X = set(rng.sample(range(12), 4))
        assert expand_excellent(exc, X) == expand_good(good, X)


def test_excellent_requires_all_orders():
    g = path(6)
    with pytest.raises(ValueError, match="order"):
        excellent_refinement(g, constant_coloring(6), 3, [LinearOrder.identity(6)])


def test_excellent_p4_closure():
    g = path(4)
    orders = [wcol_heuristic(g, l)[1] for l in (2, 3)]
    ref = excellent_refinement(g, constant_coloring(4), 3, orders)
    for size in (1, 2, 3):
        for X in itertools.combinations(range(4), size):
            assert is_closure(g, set(X), expand_excellent(ref, set(X)), 3)


def test_excellent_closure_and_bounds_sampled():
    rng = random.Random(555)
    for seed in range(5):
        g = random_degenerate(18, 2, seed + 50)
        c = random_coloring(18, 3, rng)
        orders = [wcol_heuristic(g, l)[1] for l in (2, 3)]
        ref = excellent_refinement(g, c, 3, orders)
        d = ref.d
        assert d == 2 * wcol_of_order(g, orders[0], 2) * 2 * wcol_of_order(g, orders[1], 3)
        assert ref.refined.palette_size <= 3**d
        dist = all_pairs_distances(g)
        for X in sample_sets(ref, g, rng, classes_up_to=2, extra=25):
            Xpp = expand_excellent(ref, X)
            assert is_closure(g, X, Xpp, 3, dist)
            p = len(ref.refined.colors_on(mask_of(X)))
            assert len(c.colors_on(mask_of(Xpp))) <= d * p


def test_excellent_levels_run_outermost_first():
    """The level list that d, orders() and original_base read: radius r
    first, down to the radius-2 level on the base coloring."""
    g = random_degenerate(14, 2, 7)
    c = random_coloring(14, 3, random.Random(7))
    orders = [wcol_heuristic(g, l)[1] for l in (2, 3, 4)]
    ref = excellent_refinement(g, c, 4, orders)
    levels = ref.levels()
    assert levels[0] is ref
    assert [level.radius for level in levels] == [4, 3, 2]
    assert all(outer.inner is inner for outer, inner in zip(levels, levels[1:]))
    assert levels[-1].inner is None and ref.original_base is c
    assert ref.orders() == orders
    assert ref.d == math.prod(level.budget for level in levels)


def test_excellent_distance_composition():
    rng = random.Random(9)
    g = random_degenerate(16, 2, 4)
    dist = all_pairs_distances(g)
    orders = [wcol_heuristic(g, l)[1] for l in (2, 3)]
    ref = excellent_refinement(g, constant_coloring(16), 3, orders)
    for _ in range(25):
        X = set(rng.sample(range(16), 3))
        Xpp = sorted(expand_excellent(ref, X))
        sub, idx = oracles.induced_subgraph_by_vertices(g, Xpp)
        sdist = all_pairs_distances(sub)
        for u, v in itertools.combinations(sorted(X), 2):
            if dist[u][v] <= 3:
                assert sdist[idx[u]][idx[v]] == dist[u][v]


# -- tree-depth colorings -----------------------------------------------------


def test_treedepth_coloring_p1_is_proper():
    rng = random.Random(6)
    g = oracles.random_graph(10, 0.4, rng)
    c = treedepth_coloring(g, 1)
    for u, v in g.edges():
        assert c.colors[u] != c.colors[v]
    assert verify_td_coloring(g, c, 1).verified


def test_treedepth_coloring_p4_uses_three_colors():
    c = treedepth_coloring(path(4), 2)
    assert c.palette_size == 3
    assert verify_td_coloring(path(4), c, 2).verified


def test_treedepth_coloring_k4_needs_four():
    c = treedepth_coloring(complete(4), 2)
    assert c.palette_size == 4


def test_treedepth_coloring_identity_shortcut():
    g = path(5)
    c = treedepth_coloring(g, 7)
    assert c.palette_size == 5


def test_treedepth_coloring_greedy_strategy_verified():
    g = path(13)
    c = treedepth_coloring(g, 2)
    assert verify_td_coloring(g, c, 2).verified


def test_treedepth_coloring_first_fit_passes_the_exhaustive_verifier():
    rng = random.Random(13)
    below = 0
    for _ in range(200):
        n = rng.randint(13, 16)
        p = rng.randint(2, 4)
        g = oracles.random_graph(n, rng.uniform(0.05, 0.5), rng)
        below += 2**p < n
        assert verify_td_coloring(g, treedepth_coloring(g, p), p).verified
    assert below > 100


def test_treedepth_coloring_first_fit_runs_no_union_check(monkeypatch):
    from rwcolor import coloring

    calls = []

    def counting(name):
        check = getattr(coloring, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return check(*args, **kwargs)

        return counted

    for name in ("verify_td_coloring", "tree_depth_at_most"):
        monkeypatch.setattr(coloring, name, counting(name))
    rng = random.Random(17)
    for n, p in ((13, 2), (14, 3), (16, 4), (20, 2)):
        treedepth_coloring(oracles.random_graph(n, 0.3, rng), p)
    assert calls == []
    treedepth_coloring(path(13), 1)
    assert calls == ["verify_td_coloring"]


def test_verify_td_rejects_constant_on_p4():
    report = verify_td_coloring(path(4), constant_coloring(4), 1)
    assert not report.verified
    assert report.failures[0][0] == (1,)


def test_verify_td_grid_exact_small():
    g = grid(3, 3)
    c = treedepth_coloring(g, 2)
    assert verify_td_coloring(g, c, 2).verified


@pytest.mark.parametrize("colors", [(1, 2), (1,) * 17])
def test_verifiers_reject_a_coloring_that_does_not_cover_the_graph(colors):
    g = grid(4, 4)
    c = Coloring(colors, 2)
    with pytest.raises(ValueError, match="coloring does not match the graph"):
        verify_td_coloring(g, c, 2)
    with pytest.raises(ValueError, match="coloring does not match the graph"):
        verify_low_rw_coloring(g, c, 2, {1: 0, 2: 0})


def test_verifiers_reject_p_below_1():
    g = path(4)
    c = Coloring((1, 2, 1, 2), 2)
    with pytest.raises(ValueError, match="p must be >= 1"):
        verify_td_coloring(g, c, 0)
    with pytest.raises(ValueError, match="p must be >= 1"):
        verify_low_rw_coloring(g, c, 0, {})


def test_power_coloring_walks_each_heuristic_order_once(monkeypatch):
    from rwcolor import coloring, orderings

    walks = []
    real = orderings.wreach_sets

    def counted(G, L, r):
        walks.append(r)
        return real(G, L, r)

    monkeypatch.setattr(orderings, "wreach_sets", counted)
    monkeypatch.setattr(coloring, "wreach_sets", counted)
    ref, _ = low_rankwidth_coloring_of_power(grid(4, 4), 3, 1)
    assert walks == [2, 3]
    walks.clear()
    treedepth_coloring(grid(4, 4), 2)
    assert walks == [4]
    g, L = grid(4, 4), ref.orders()[0]
    wsets = real(g, L, 2)
    walks.clear()
    walked = good_refinement(g, constant_coloring(16), 2, L)
    assert walks == [2]
    assert good_refinement(g, constant_coloring(16), 2, L, wsets) == walked
    assert walks == [2]


def test_verify_td_matches_the_deletion_recursion_on_every_union():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(2, 9)
        g = oracles.random_graph(n, rng.uniform(0.2, 0.7), rng)
        c = random_coloring(n, rng.randint(1, 4), rng)
        p = rng.randint(1, 3)
        classes = c.classes()
        palette = sorted(classes)
        checked = 0
        failures = []
        for i in range(1, min(p, len(palette)) + 1):
            for combo in itertools.combinations(palette, i):
                checked += 1
                sub = induced_subgraph(g, sum(classes[col] for col in combo))
                td = oracles.tree_depth_by_deletion(sub)
                if td > i:
                    failures.append((combo, i, td))
        report = verify_td_coloring(g, c, p)
        assert (report.verified, report.checked_unions, report.failures) == (not failures, checked, failures)


def test_verify_td_solves_exactly_only_failing_unions(monkeypatch):
    from rwcolor import coloring

    calls = []
    solve = coloring.tree_depth_exact

    def counted(G, cap=coloring.TREE_DEPTH_EXACT_CAP):
        calls.append(G.n)
        return solve(G, cap)

    monkeypatch.setattr(coloring, "tree_depth_exact", counted)
    g = grid(3, 3)
    assert verify_td_coloring(g, treedepth_coloring(g, 2), 2).verified
    assert calls == []
    report = verify_td_coloring(path(4), constant_coloring(4), 1)
    assert report.failures == [((1,), 1, 3)] and calls == [4]


def test_verify_td_reports_an_oversized_union_inconclusive():
    # P4 (class 1) beside P19 (class 2): class 1 is refuted with tree-depth 3,
    # class 2 is one component above the exact cap and stays undecided.
    g = build_graph(23, [(v, v + 1) for v in range(22) if v != 3])
    c = Coloring((1,) * 4 + (2,) * 19, 2)
    report = verify_td_coloring(g, c, 1)
    assert not report.verified
    assert report.failures == [((1,), 1, 3)]
    assert report.inconclusive == [((2,), 1, 19)]
    # the same two paths as one class: the refuted P4 beats the undecided P19
    report = verify_td_coloring(g, constant_coloring(23), 1)
    assert (report.failures, report.inconclusive, report.measured) == ([((1,), 1, 3)], [], {})
    only_oversized = verify_td_coloring(path(20), constant_coloring(20), 2)
    assert only_oversized.failures == []
    assert only_oversized.inconclusive == [((1,), 1, 20)]
    assert not only_oversized.verified


def test_verify_td_first_fit_coloring_above_the_cap_is_inconclusive():
    g = random_degenerate(26, 3, 5)
    c = treedepth_coloring(g, 7)
    report = verify_td_coloring(g, c, 7)
    assert (report.verified, report.failures) == (False, [])
    assert report.inconclusive == [((3, 4, 5, 9, 10, 11, 12), 7, 19)]
    # the 17-vertex union of random_degenerate(22, 3, 5) is within the cap
    g = random_degenerate(22, 3, 5)
    assert verify_td_coloring(g, treedepth_coloring(g, 7), 7).verified


# -- power coloring pipeline --------------------------------------------------


def test_power_pipeline_p6():
    g = path(6)
    ref, _ = low_rankwidth_coloring_of_power(g, 2, 1)
    h = power(g, 2)
    for q, members in ref.refined.classes().items():
        X = list(bits_of(members))
        Xpp = sorted(expand_excellent(ref, set(X)))
        lhs = induced_subgraph(h, mask_of(X))
        sub, idx = oracles.induced_subgraph_by_vertices(g, Xpp)
        rhs = induced_subgraph(power(sub, 2), mask_of(idx[v] for v in X))
        assert lhs.adj == rhs.adj


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_power_pipeline_random_degenerate_20(seed):
    g = random_degenerate(20, 2, seed)
    ref, q = low_rankwidth_coloring_of_power(g, 2, 1)
    checked = verify_low_rw_coloring(power(g, 2), ref.refined, 1, q)
    assert checked.verified


def test_power_pipeline_budget_formula():
    assert gurski_wanke_budget(2, 2) == 52  # 2 * 3^3 - 2
    g = grid(3, 3)
    ref, q = low_rankwidth_coloring_of_power(g, 2, 2)
    assert q[1] == gurski_wanke_budget(2, ref.d)
    assert q[2] == gurski_wanke_budget(2, 2 * ref.d)


def test_power_pipeline_budget_covers_the_walked_sizes_only():
    # P4 at r = 2 uses 4 colours, so the walk reads sizes 1..4 whatever p is
    ref, q = low_rankwidth_coloring_of_power(path(4), 2, 50)
    assert len(set(ref.refined.colors)) == 4
    assert q == {i: gurski_wanke_budget(2, i * ref.d) for i in range(1, 5)}
    assert verify_low_rw_coloring(power(path(4), 2), ref.refined, 50, q).verified


def test_verify_low_rw_edgeless():
    g = build_graph(5, [])
    profile = verify_low_rw_coloring(g, Coloring((1, 1, 2, 2, 2), 2), 2, {1: 0, 2: 0})
    assert profile.verified
    assert profile.measured[1] == (0, "exact")


def test_verify_low_rw_rejects_k5_single_class():
    profile = verify_low_rw_coloring(complete(5), constant_coloring(5), 1, {1: 0})
    assert not profile.verified
    assert profile.measured[1][0] == 1


def test_verify_low_rw_refutes_k5_with_its_exact_width():
    report = verify_low_rw_coloring(complete(5), constant_coloring(5), 1, {1: 0})
    assert report.failures == [((1,), 1, 1)]
    assert (report.inconclusive, report.verified) == ([], False)


def test_verify_low_rw_refutes_an_exact_component_beside_one_above_the_cap():
    # K5 (exact width 1) and P20 (above the cap, bounded) as one class
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(v, v + 1) for v in range(5, 24)]
    report = verify_low_rw_coloring(build_graph(25, edges), constant_coloring(25), 1, {1: 0})
    assert report.failures == [((1,), 1, 1)]
    assert report.inconclusive == []
    assert report.measured == {1: (1, "upper-bound")}
    assert not report.verified


@pytest.mark.parametrize("family", [h_graph, h_tilde])
@pytest.mark.parametrize("p, undecided", [(2, 3), (3, 4)])
def test_verify_low_rw_leaves_a_bound_above_the_budget_inconclusive(family, p, undecided):
    # every two-row union is one component above the exact cap, and its
    # degeneracy bound (7 on H, 8 on H~) exceeds Q(2) = 6 without refuting it
    q = {i: 3 * i for i in range(1, p + 1)}
    report = verify_low_rw_coloring(family(8, 8), row_coloring(8, 8, p), p, q)
    assert report.failures == []
    assert len(report.inconclusive) == undecided
    assert all(i == 2 and bound > q[i] for _, i, bound in report.inconclusive)
    assert not report.verified


def test_verify_low_rw_flags_upper_bounds_on_big_components():
    g = path(30)
    profile = verify_low_rw_coloring(g, constant_coloring(30), 1, {1: 5})
    assert profile.verified
    assert profile.measured[1] == (1, "upper-bound")


def test_verify_low_rw_h53_row_coloring():
    from rwcolor.families import h_graph, row_coloring

    g = h_graph(5, 3)
    c = row_coloring(5, 3, 2)
    profile = verify_low_rw_coloring(g, c, 2, {i: 3 * i for i in (1, 2)})
    assert profile.verified
    assert max(w for w, _ in profile.measured.values()) <= 6


def test_verify_low_rw_solves_each_distinct_component_once(monkeypatch):
    from rwcolor import widths
    from rwcolor.families import h_graph, row_coloring
    from rwcolor.graph import components

    g = h_graph(6, 4)
    c = row_coloring(6, 4, 3)
    q = {i: i - 1 for i in (1, 2, 3)}  # the measured widths 0, 1, 2 sit on the budget
    classes = c.classes()
    expected = {}
    distinct = set()
    for i in (1, 2, 3):
        unions = [sum(classes[col] for col in combo)
                  for combo in itertools.combinations(sorted(classes), i)]
        expected[i] = (
            max(widths.rank_width_of_subgraph(g, components(g, u))[1] for u in unions),
            "exact",
        )
        for u in unions:
            for comp in components(g, u):
                distinct.add(induced_subgraph(g, comp).adj)
    calls = []
    solve = widths.rank_width_exact

    def counted(G, cap=widths.RANK_WIDTH_EXACT_CAP):
        calls.append(G.adj)
        return solve(G, cap)

    monkeypatch.setattr(widths, "rank_width_exact", counted)
    profile = verify_low_rw_coloring(g, c, 3, q)
    assert profile.measured == expected
    assert profile.verified == all(expected[i][0] <= q[i] for i in q)
    assert sorted(calls) == sorted(distinct)


def test_verify_low_rw_matches_the_subset_dp_on_every_union():
    rng = random.Random(43)
    outcomes = set()
    for _ in range(200):
        n = rng.randint(2, 9)
        g = oracles.random_graph(n, rng.uniform(0.2, 0.7), rng)
        c = random_coloring(n, rng.randint(1, 4), rng)
        p = rng.randint(1, 3)
        q, step = {}, rng.randint(0, 2)
        for i in range(1, p + 1):
            q[i] = step
            step += rng.randint(0, 1)
        classes = c.classes()
        sizes = range(1, min(p, len(classes)) + 1)
        width = {}
        for i in sizes:
            for combo in itertools.combinations(sorted(classes), i):
                sub = induced_subgraph(g, sum(classes[col] for col in combo))
                width[combo] = oracles.rank_width_by_subset_dp(sub)[0]
        report = verify_low_rw_coloring(g, c, p, q)
        assert report.verified == all(w <= q[len(combo)] for combo, w in width.items())
        assert report.measured == {
            i: (max(w for combo, w in width.items() if len(combo) <= i), "exact") for i in sizes
        }
        assert report.inconclusive == []
        for combo, i, w in report.failures:
            assert q[i] < w <= width[combo]
        outcomes.add(report.verified)
    assert outcomes == {False, True}


def test_verify_low_rw_refuses_more_unions_than_the_budget(monkeypatch):
    from rwcolor import coloring

    c = Coloring(tuple(range(1, 7)), 6)
    measured = []
    solve = coloring.rank_width_of_subgraph

    def counted(G, comps, memo=None):
        measured.append(len(comps))
        return solve(G, comps, memo)

    monkeypatch.setattr(coloring, "rank_width_of_subgraph", counted)
    # the budget counts the colour-connected class sets walked: on P6 the 6
    # classes and 5 adjacent pairs, on K6, whose quotient is complete, all
    # 6 + 15 unions of <= 2 classes
    for g, walked in ((path(6), 11), (complete(6), 21)):
        monkeypatch.setattr(coloring, "MAX_UNIONS", walked - 1)
        refused = f"more than {walked - 1} colour-connected class sets to walk"
        measured.clear()
        with pytest.raises(ValueError, match=refused):
            verify_low_rw_coloring(g, c, 2, {1: 0, 2: 1})
        assert measured == []  # the whole walk is built before any set is measured
        with pytest.raises(ValueError, match=refused):
            verify_td_coloring(g, c, 2)
        monkeypatch.setattr(coloring, "MAX_UNIONS", walked)
        for report in (verify_low_rw_coloring(g, c, 2, {1: 0, 2: 1}), verify_td_coloring(g, c, 2)):
            assert report.verified and report.checked_unions == 21
    # the walk is exact only for a budget that never decreases with the size
    with pytest.raises(ValueError, match="the budget decreases from size 1 to size 2"):
        verify_low_rw_coloring(path(6), c, 2, {1: 1, 2: 0})


def test_each_walked_set_is_split_into_components_once(monkeypatch):
    from rwcolor import coloring, widths

    splits = []
    split = coloring.components

    def counted(G, mask):
        splits.append(mask)
        return split(G, mask)

    # the width layer may split nothing again: count its binding too, if any
    monkeypatch.setattr(coloring, "components", counted)
    monkeypatch.setattr(widths, "components", counted, raising=False)
    c = Coloring(tuple(range(1, 7)), 6)
    # P6 with every vertex its own colour walks 6 classes and 5 adjacent pairs
    for verify, args in ((verify_low_rw_coloring, ({1: 0, 2: 1},)), (verify_td_coloring, ())):
        splits.clear()
        assert verify(path(6), c, 2, *args).verified
        assert sorted(splits) == sorted([1 << v for v in range(6)] + [3 << v for v in range(5)])


def test_complete_quotient_is_refused_before_the_crossing_size_is_built(monkeypatch):
    import tracemalloc

    from rwcolor import coloring

    judged = []
    split = coloring.components

    def counted(G, mask):
        judged.append(mask.bit_count())
        return split(G, mask)

    monkeypatch.setattr(coloring, "components", counted)
    g, c = complete(60), Coloring(tuple(range(1, 61)), 60)
    # 60 classes and 1,770 pairs stay under the budget; the 34,220 triples,
    # which the pairs' quotient degrees bound below by 33,630, cross it
    monkeypatch.setattr(coloring, "MAX_UNIONS", 20_000)
    for verify in (lambda: verify_td_coloring(g, c, 3),
                   lambda: verify_low_rw_coloring(g, c, 3, {1: 9, 2: 9, 3: 9})):
        judged.clear()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="more than 20000 colour-connected class sets"):
                verify()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert judged == []  # no set of any size was judged
        # building triples until the budget is crossed peaks near 1.8 MB; the
        # count bound refuses them at about 0.3 MB
        assert peak < 1_000_000
    # the threshold stays exact: K20 walks 20 + 190 + 1,140 sets at p = 3
    for budget, verified in ((1349, False), (1350, True)):
        monkeypatch.setattr(coloring, "MAX_UNIONS", budget)
        if verified:
            assert verify_td_coloring(complete(20), Coloring(tuple(range(1, 21)), 20), 3).verified
        else:
            with pytest.raises(ValueError, match="more than 1349"):
                verify_td_coloring(complete(20), Coloring(tuple(range(1, 21)), 20), 3)


def test_smallest_td_coloring_matches_checking_every_component():
    from rwcolor import coloring

    rng = random.Random(22)
    for _ in range(30):
        n = rng.randint(6, 12)
        p = rng.randint(2, 4)
        g = oracles.random_graph(n, rng.uniform(0.15, 0.6), rng)
        want = oracles.small_td_coloring_by_enumeration(g, p)
        assert coloring._exact_small_td_coloring(g, p) == want
        assert treedepth_coloring(g, p) == want


def test_union_walk_matches_enumerating_every_union(monkeypatch):
    from rwcolor import coloring

    def by_enumeration(verify, *args):
        with monkeypatch.context() as m:
            m.setattr(coloring, "_check_unions", oracles.check_unions_by_enumeration)
            return verify(*args)

    rng = random.Random(2021)
    refuted = fewer = 0
    for _ in range(300):
        n = rng.randint(6, 12)
        g = oracles.random_graph(n, rng.uniform(0.15, 0.6), rng)
        c = random_coloring(n, rng.randint(2, 6), rng)
        p = rng.randint(1, 4)
        q, step = {}, rng.randint(0, 3)
        for i in range(1, p + 1):
            q[i] = step
            step += rng.randint(0, 2)
        for verify, args in ((verify_low_rw_coloring, (g, c, p, q)), (verify_td_coloring, (g, c, p))):
            walk = verify(*args)
            ref = by_enumeration(verify, *args)
            assert walk.verified == ref.verified
            assert walk.measured == ref.measured
            assert walk.checked_unions == ref.checked_unions
            assert walk.inconclusive == ref.inconclusive
            # a walk failure's width is that of the components meeting all
            # its colours, at most the width of the whole union
            union_width = {(colors, i): w for colors, i, w in ref.failures}
            for colors, i, w in walk.failures:
                assert w <= union_width[colors, i]
            for colors, _, _ in ref.failures:
                assert any(set(inner) <= set(colors) for inner, _, _ in walk.failures)
            refuted += not ref.verified
            fewer += len(walk.failures) < len(ref.failures)
    assert 50 < refuted < 550 and fewer  # both verdicts, and unions the walk never lists


def test_union_walk_verifies_the_power_coloring_of_grid_14():
    from rwcolor import coloring

    g = grid(14, 14)
    ref, q = low_rankwidth_coloring_of_power(g, 2, 3)
    report = verify_low_rw_coloring(power(g, 2), ref.refined, 3, q)
    assert report.verified
    palette = len(set(ref.refined.colors))
    assert report.checked_unions == sum(math.comb(palette, i) for i in (1, 2, 3))
    assert report.checked_unions > coloring.MAX_UNIONS


def test_union_walk_verifies_the_td_coloring_of_grid_10_at_p6():
    g = grid(10, 10)
    report = verify_td_coloring(g, treedepth_coloring(g, 6), 6)
    assert report.verified and report.checked_unions > 10**8


def test_verify_low_rw_names_a_union_size_the_budget_misses(monkeypatch):
    from rwcolor import coloring

    def split(*args):
        raise AssertionError("a set was judged")

    monkeypatch.setattr(coloring, "components", split)
    c = Coloring((1, 2, 1, 2), 2)
    with pytest.raises(ValueError) as err:
        verify_low_rw_coloring(path(4), c, 2, {1: 3})
    assert str(err.value) == "the budget gives no width for unions of size 2"
    # sizes above the palette are never walked, so they need no width
    monkeypatch.undo()
    assert verify_low_rw_coloring(path(4), Coloring((1, 1, 1, 1), 1), 3, {1: 1}).verified


@pytest.mark.parametrize("colors, palette, message", [
    ((1.5, 1, 2), 2, "vertex 0 has color 1.5, not an integer"),
    ((1, True, 2), 2, "vertex 1 has color True, not an integer"),
    ((1, 2, "2"), 2, "vertex 2 has color '2', not an integer"),
    ((1, 2, 1), 2.0, "palette size 2.0 is not an integer"),
    ((1, 1, 1), True, "palette size True is not an integer"),
    ((1,), 0, "palette must have at least one color"),
    ((1, 3), 2, "vertex 1 has color 3 outside 1..2"),
])
def test_coloring_takes_integer_colors_only(colors, palette, message):
    with pytest.raises(ValueError) as err:
        Coloring(colors, palette)
    assert str(err.value) == message


def test_greedy_proper_coloring_is_proper():
    rng = random.Random(90)
    for _ in range(10):
        g = oracles.random_graph(9, 0.4, rng)
        c = greedy_proper_coloring(g)
        for u, v in g.edges():
            assert c.colors[u] != c.colors[v]


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: good_refinement(path(3), Coloring((1, 1), 1), 2,
                                         LinearOrder.from_order([0, 1, 2])),
                 "coloring does not match the graph", id="good-refinement-coloring-size"),
    pytest.param(lambda: excellent_refinement(path(3), Coloring((1, 1, 1), 1), 1, []),
                 "excellent refinements need radius >= 2", id="excellent-refinement-radius"),
    pytest.param(lambda: low_rankwidth_coloring_of_power(path(3), 1, 2),
                 "power coloring needs radius >= 2", id="power-coloring-radius"),
])
def test_colorings_refuse_what_they_cannot_color(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
