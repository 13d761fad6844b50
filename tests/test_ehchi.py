import itertools
import math
import random
import re

import pytest

from rwcolor.graph import bits_of, build_graph, complement, cutrank_mask, induced_subgraph, mask_of
from rwcolor.families import h_graph, h_tilde, path, row_coloring
from rwcolor.coloring import Coloring
from rwcolor.orderings import LinearOrder
from rwcolor.widths import rank_width_exact, rank_width_upper, verify_decomposition
from rwcolor.ehchi import (
    Cotree,
    EHParams,
    chi_product_coloring,
    cograph_clique_or_is,
    cograph_extract,
    eh_witness,
    even_split_provider,
    is_cograph,
    kappa,
    uniform_blocks,
)

import oracles


def complete(n):
    return build_graph(n, list(itertools.combinations(range(n), 2)))


# -- cograph recognition ---------------------------------------------------------


def test_p4_is_not_cograph():
    ok, ct = is_cograph(path(4))
    assert not ok and ct is None


def test_complete_and_edgeless_are_cographs():
    for g in (complete(6), build_graph(5, [])):
        ok, ct = is_cograph(g)
        assert ok
        assert oracles.cotree_to_graph(ct, g.n).adj == g.adj


def test_is_cograph_matches_p4_free_oracle():
    for g in oracles.all_graphs(5):
        assert is_cograph(g)[0] == (not oracles.has_induced_p4(g))


def test_random_cotrees_round_trip():
    rng = random.Random(33)
    for _ in range(20):
        n = rng.randint(2, 12)
        ct = oracles.random_cotree(n, rng)
        g = oracles.cotree_to_graph(ct, n)
        ok, ct2 = is_cograph(g)
        assert ok
        assert oracles.cotree_to_graph(ct2, n).adj == g.adj


def test_cotree_decomposition_has_width_at_most_one():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(2, 10)
        ct = oracles.random_cotree(n, rng)
        g = oracles.cotree_to_graph(ct, n)
        D = oracles.decomposition_from_cotree(ct)
        assert verify_decomposition(g, D) <= 1


# -- clique or independent set ----------------------------------------------------


def test_clique_or_is_k9():
    g = complete(9)
    kind, out = cograph_clique_or_is(g, is_cograph(g)[1])
    assert kind == "clique" and out.bit_count() == 9


def test_clique_or_is_edgeless():
    g = build_graph(9, [])
    kind, out = cograph_clique_or_is(g, is_cograph(g)[1])
    assert kind == "independent" and out.bit_count() == 9


def test_clique_or_is_random_cographs():
    rng = random.Random(8)
    for _ in range(12):
        n = rng.randint(4, 16)
        ct = oracles.random_cotree(n, rng)
        g = oracles.cotree_to_graph(ct, n)
        kind, out = cograph_clique_or_is(g, ct)
        assert out.bit_count() * out.bit_count() >= n
        best = max(oracles.max_clique(g), oracles.max_independent_set(g))
        assert out.bit_count() == best


def assert_clique_or_is_matches_the_set_dp(g, ct):
    kind, out = cograph_clique_or_is(g, ct)
    assert (kind, set(bits_of(out))) == oracles.clique_or_is_by_sets(g, ct)


def test_clique_or_is_matches_the_set_dp_on_seeded_cotrees():
    # each seeded cotree, and the one is_cograph builds for its graph
    rng = random.Random(45)
    for _ in range(600):
        n = rng.randint(1, 18)
        ct = oracles.random_cotree(n, rng)
        g = oracles.cotree_to_graph(ct, n)
        assert_clique_or_is_matches_the_set_dp(g, ct)
        assert_clique_or_is_matches_the_set_dp(g, is_cograph(g)[1])


def test_clique_or_is_matches_the_set_dp_on_every_small_cograph():
    checked = 0
    for n in range(1, 6):
        for g in oracles.all_graphs(n):
            ok, ct = is_cograph(g)
            if ok:
                assert_clique_or_is_matches_the_set_dp(g, ct)
                checked += 1
    assert checked > 0


@pytest.mark.parametrize(
    "op, n, edges, fault",
    [
        ("join", 3, [(0, 1), (1, 2)], "claimed clique misses edge (0, 2)"),
        ("union", 3, [(1, 2)], "claimed independent set has edge (1, 2)"),
        ("join", 4, [(0, 1)], "claimed clique misses edge (0, 2)"),  # of (0, 2) and (0, 3)
    ],
)
def test_clique_or_is_names_the_pair_its_winner_fails_on(op, n, edges, fault):
    # a cotree of n leaves that does not describe the graph
    ct = Cotree(op, None, tuple(Cotree("leaf", v) for v in range(n)))
    with pytest.raises(AssertionError, match=f"^{re.escape(fault)}$"):
        cograph_clique_or_is(build_graph(n, edges), ct)


# -- uniform blocks ---------------------------------------------------------------


def test_uniform_blocks_equal_rows():
    g = complete(6)
    a_p, b_p, rel = uniform_blocks(g, 0b000111, 0b111000, 1)
    assert a_p == 0b000111 and b_p == 0b111000 and rel == "complete"


def test_uniform_blocks_complete_bipartite():
    g = build_graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
    a_p, b_p, rel = uniform_blocks(g, 0b000111, 0b111000, 1)
    assert rel == "complete" and b_p == 0b111000


def test_uniform_blocks_verified_uniform():
    rng = random.Random(12)
    for _ in range(25):
        g = oracles.random_graph(10, 0.4, rng)
        A = set(rng.sample(range(10), 5))
        B = set(range(10)) - A
        r = cutrank_mask(g, mask_of(A))
        if r > 2:
            continue
        a_p, b_p, rel = uniform_blocks(g, mask_of(A), mask_of(B), 2)
        assert a_p & ~mask_of(A) == 0 and b_p & ~mask_of(B) == 0
        assert a_p.bit_count() * (2**2) >= len(A)
        assert 2 * b_p.bit_count() >= len(B)
        for u in bits_of(a_p):
            for v in bits_of(b_p):
                assert g.has_edge(u, v) == (rel == "complete")


def test_uniform_blocks_rank_violation_detected():
    # C_5 cut of rank 2 presents 3 > 2^1 patterns under a p=1 claim
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(ValueError, match="cut-rank"):
        uniform_blocks(c5, 0b00111, 0b11000, 1)


@pytest.mark.parametrize(
    "A, B, fault",
    [
        (0, 0b11000, "both sides must be nonempty"),
        (0b00111, 0, "both sides must be nonempty"),
        (-1, 0b11000, "vertex mask -1 is negative"),
        (0b00111, -8, "vertex mask -8 is negative"),
        (0b00111, 0b1011000, "vertex 6 not in graph"),
    ],
)
def test_uniform_blocks_refuses_an_empty_or_negative_mask_or_a_vertex_outside(A, B, fault):
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(ValueError, match=f"^{fault}$"):
        uniform_blocks(c5, A, B, 1)


# -- cograph extraction -----------------------------------------------------------


def test_extract_base_case():
    g = build_graph(2, [(0, 1)])
    assert cograph_extract(g, None, 1) == 0b11


def test_extract_k8():
    g = complete(8)
    rep = rank_width_upper(g, LinearOrder.from_order(range(g.n)))
    out = cograph_extract(g, rep.decomposition, 1)
    assert out.bit_count() >= math.ceil(8 ** kappa(1))
    sub = induced_subgraph(g, out)
    assert is_cograph(sub)[0]


@pytest.mark.parametrize("n", [8, 16, 32])
def test_extract_paths(n):
    g = path(n)
    rep = rank_width_upper(g, LinearOrder.from_order(range(g.n)))
    assert rep.value == 1
    out = cograph_extract(g, rep.decomposition, 1)
    assert is_cograph(induced_subgraph(g, out))[0]
    assert out.bit_count() >= n ** kappa(1) - 1e-9


def test_extract_rejects_wide_decomposition():
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    rep = rank_width_exact(c5)
    assert rep.value == 2
    with pytest.raises(ValueError, match="width"):
        cograph_extract(c5, rep.decomposition, 1)


def test_extract_random_cographs():
    rng = random.Random(3)
    for _ in range(8):
        ct = oracles.random_cotree(12, rng)
        g = oracles.cotree_to_graph(ct, 12)
        D = oracles.decomposition_from_cotree(ct)
        out = cograph_extract(g, D, 1)
        assert is_cograph(induced_subgraph(g, out))[0]
        assert out.bit_count() >= 12 ** kappa(1) - 1e-9


# -- witnesses --------------------------------------------------------------------


def test_eh_params_formulas():
    params = EHParams.for_width(1, 2)
    assert params.kappa == pytest.approx(1 / (math.log2(3) + 1))
    assert params.delta == pytest.approx(params.kappa / 2)
    assert params.epsilon == pytest.approx(min(params.delta / 2, 0.5))
    solo = EHParams.for_width(6, 1)
    assert solo.epsilon == pytest.approx(delta_of(6) / 2)


def delta_of(p):
    return 1 / (2 * (math.log2(3) + p))


def test_eh_witness_k16():
    g = complete(16)
    out, kind, params = eh_witness(g, even_split_provider(2, 1))
    assert kind == "clique"
    assert len(out) >= math.ceil(16**params.epsilon)
    for u, v in itertools.combinations(sorted(out), 2):
        assert g.has_edge(u, v)


def test_eh_witness_solves_each_distinct_class_graph_once(monkeypatch):
    from rwcolor import ehchi, widths

    g = oracles.random_graph(20, 0.5, random.Random(3))
    provider = even_split_provider(2, 10)
    expected = eh_witness(g, provider)
    calls = []
    solve = widths.rank_width_exact

    def counted(G, cap=widths.RANK_WIDTH_EXACT_CAP):
        calls.append(G.adj)
        return solve(G, cap)

    monkeypatch.setattr(widths, "rank_width_exact", counted)
    monkeypatch.setattr(ehchi, "rank_width_exact", counted)
    assert eh_witness(g, provider) == expected
    assert len(calls) == len(set(calls)) == 2


def test_eh_witness_small_graph_branch():
    g = build_graph(3, [(0, 1)])
    out, kind, params = eh_witness(g, even_split_provider(2, 1))
    assert out == {0, 1} and kind == "clique"


def test_eh_witness_edgeless():
    g = build_graph(10, [])
    out, kind, params = eh_witness(g, even_split_provider(1, 0))
    assert kind == "independent" and len(out) == 10


def test_eh_witness_h24_row_provider():
    g = h_graph(2, 4)

    def provider(_):
        return row_coloring(2, 4, 1), 3

    out, kind, params = eh_witness(g, provider)
    assert len(out) >= math.ceil(8**params.epsilon)
    for u, v in itertools.combinations(sorted(out), 2):
        adjacent = g.has_edge(u, v)
        assert adjacent == (kind == "clique")


def test_eh_witness_single_class_provider():
    # one class covering the whole graph: the palette term of epsilon drops
    g = h_graph(2, 4)

    def provider(_):
        return Coloring((1,) * 8, 1), 6

    out, kind, params = eh_witness(g, provider)
    assert params.epsilon == pytest.approx(delta_of(6) / 2)
    assert len(out) >= math.ceil(8**params.epsilon)
    for u, v in itertools.combinations(sorted(out), 2):
        assert g.has_edge(u, v) == (kind == "clique")


def assert_witness(g, out, kind, params):
    assert len(out) >= math.ceil(g.n**params.epsilon - 1e-9)
    for u, v in itertools.combinations(sorted(out), 2):
        assert g.has_edge(u, v) == (kind == "clique")


@pytest.mark.parametrize(
    "g, classes, bound",
    [(path(20), 1, 1), (h_tilde(8, 8), 2, 8)],
    ids=["P20-one-class", "htilde-8x8-two-classes"],
)
def test_eh_witness_extracts_from_a_class_above_the_exact_cap(g, classes, bound):
    # the class check bounds each connected class above the cap by its
    # degeneracy caterpillar, and the extraction runs on that same tree
    provider = even_split_provider(classes, bound)
    out, kind, params = eh_witness(g, provider)
    assert_witness(g, out, kind, params)
    with pytest.raises(ValueError, match="capped"):
        oracles.eh_witness_by_presolve(g, provider)


def test_eh_witness_refuses_a_disconnected_class_above_the_exact_cap():
    # two disjoint paths on 10 vertices: each component is solved exactly,
    # but one tree over the whole 20-vertex class needs the capped solver
    g = build_graph(20, [(v, v + 1) for v in range(19) if v != 9])
    with pytest.raises(ValueError, match="^majority class 1 has 20 vertices in 2 components, "
                       "above the exact rank-width cap of 14 vertices"):
        eh_witness(g, even_split_provider(1, 1))


def test_eh_witness_matches_the_presolve_flow_within_the_cap():
    rng = random.Random(23)
    capped = 0
    for _ in range(120):
        n = rng.randint(4, 22)
        g = oracles.random_graph(n, rng.uniform(0.1, 0.9), rng)
        provider = even_split_provider(rng.randint(1, 3), rng.randint(1, 10))
        try:
            expected = oracles.eh_witness_by_presolve(g, provider)
        except ValueError as err:
            if "capped" in str(err):
                try:
                    out = eh_witness(g, provider)
                except ValueError as got:  # a disconnected class above the cap
                    size, parts = map(int, re.match(
                        r"majority class \d+ has (\d+) vertices in (\d+) components, above "
                        r"the exact rank-width cap of 14 vertices", str(got)).groups())
                    assert size > 14 and parts >= 2
                else:
                    capped += 1
                    assert_witness(g, *out)
            else:
                with pytest.raises(ValueError, match="rank-width bound"):
                    eh_witness(g, provider)
            continue
        assert eh_witness(g, provider) == expected
    assert capped > 0


def test_eh_witness_matches_the_presolve_flow_on_every_small_graph():
    # 1 and 2 even classes reach every majority class of at most 2 vertices,
    # connected or not; bound 0 refuses every class with an edge
    def outcome(solve, g, provider):
        try:
            return solve(g, provider)
        except ValueError as err:
            return str(err)

    for n in range(1, 5):
        for g in oracles.all_graphs(n):
            for classes, bound in itertools.product((1, 2), (0, 1)):
                provider = even_split_provider(classes, bound)
                expected = outcome(oracles.eh_witness_by_presolve, g, provider)
                assert outcome(eh_witness, g, provider) == expected


def test_eh_witness_rejects_wide_classes():
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(ValueError, match="rank-width"):
        eh_witness(c5, even_split_provider(1, 1))


# -- product colorings --------------------------------------------------------------


def test_chi_product_edgeless():
    g = build_graph(4, [])
    out = chi_product_coloring(g, Coloring((1, 1, 2, 2), 2))
    assert out.palette_size <= 2


def test_chi_product_c5():
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    c = Coloring((1, 1, 2, 2, 2), 2)
    out = chi_product_coloring(c5, c)
    for u, v in c5.edges():
        assert out.colors[u] != out.colors[v]


def test_chi_product_htilde():
    from rwcolor.families import h_tilde

    g = h_tilde(3, 3)
    c = row_coloring(3, 3, 1)
    out = chi_product_coloring(g, c)
    for u, v in g.edges():
        assert out.colors[u] != out.colors[v]
    per_class = {}
    for col, members in c.classes().items():
        from rwcolor.coloring import greedy_proper_coloring

        per_class[col] = greedy_proper_coloring(induced_subgraph(g, members)).palette_size
    assert out.palette_size <= c.palette_size * max(per_class.values())

