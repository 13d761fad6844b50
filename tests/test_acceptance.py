"""Acceptance suite: one test per criterion, each printing a PASS line.

Budgets and sample counts are pinned here; every expected value is either
forced by a definition, verified independently, or computed by the brute
oracles in oracles.py.
"""

import itertools
import json
import math
import random

import pytest

from rwcolor.graph import (
    bits_of,
    build_graph,
    cutrank_mask,
    induced_subgraph,
    mask_of,
    power,
)
from rwcolor.orderings import LinearOrder, wcol_heuristic, wcol_of_order
from rwcolor.widths import rank_width_exact, rank_width_upper, verify_decomposition
from rwcolor.coloring import (
    Coloring,
    excellent_refinement,
    good_refinement,
    low_rankwidth_coloring_of_power,
    verify_low_rw_coloring,
)
from rwcolor.families import (
    grid,
    h_graph,
    h_tilde,
    path,
    random_degenerate,
    row_coloring,
    twisted_chain,
    verify_twisted_chain,
)
from rwcolor.lab import (
    MatchingCertificate,
    certificate_rank,
    lower_bound_certificate,
    monochromatic_substructure,
    ramsey_bireduce,
    random_balanced_bipartition,
)
from rwcolor.ehchi import (
    cograph_clique_or_is,
    cograph_extract,
    chi_product_coloring,
    eh_witness,
    even_split_provider,
    is_cograph,
    kappa,
)
from rwcolor import cli
from rwcolor.formats import parse_edge_list, serialize_edge_list

import oracles
from oracles import all_pairs_distances, expand_excellent, expand_good, is_closure, is_hitter


def report(capsys, label):
    with capsys.disabled():
        print(f"ACCEPTANCE {label}: PASS")


def complete(n):
    return build_graph(n, list(itertools.combinations(range(n), 2)))


def test_c1_cutrank_oracle_equivalence(capsys):
    for n in range(1, 6):
        for g in oracles.all_graphs(n):
            for bits in range(1 << n):
                X = {v for v in range(n) if bits >> v & 1}
                assert cutrank_mask(g, bits) == oracles.cutrank_by_span(g, X)
    rng = random.Random(20260809)
    for _ in range(500):
        g = oracles.random_graph(8, rng.uniform(0.2, 0.8), rng)
        for bits in range(1 << 8):
            X = {v for v in range(8) if bits >> v & 1}
            assert cutrank_mask(g, bits) == oracles.cutrank_by_span(g, X)
    report(capsys, "C1 cut-rank oracle equivalence")


def test_c2_exact_rank_width_ground_truths(capsys):
    assert rank_width_exact(build_graph(1, [])).value == 0
    for n in range(2, 9):
        for g, expected in ((complete(n), 1), (path(n), 1)):
            rep = rank_width_exact(g)
            assert rep.value == expected
            assert verify_decomposition(g, rep.decomposition) == expected
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    rep = rank_width_exact(c5)
    assert rep.value == 2
    assert verify_decomposition(c5, rep.decomposition) == 2
    report(capsys, "C2 exact rank-width ground truths")


def test_c3_two_row_family_bound(capsys):
    # exact values frozen as regression snapshots; the family bound is 3n = 6
    snapshots = {}
    for m in (2, 3, 4):
        for build, tag in ((h_graph, "flat"), (h_tilde, "cliqued")):
            g = build(2, m)
            rep = rank_width_exact(g)
            assert rep.value <= 6
            assert verify_decomposition(g, rep.decomposition) == rep.value
            snapshots[(tag, m)] = rep.value
    assert snapshots == {
        ("flat", 2): 1, ("flat", 3): 1, ("flat", 4): 1,
        ("cliqued", 2): 1, ("cliqued", 3): 2, ("cliqued", 4): 2,
    }
    report(capsys, "C3 two-row family exact widths <= 6")


def _component_masks(g):
    left = (1 << g.n) - 1
    comps = []
    while left:
        seen = left & -left
        frontier = seen
        while frontier:
            nxt = 0
            for v in range(g.n):
                if frontier >> v & 1:
                    nxt |= g.adj[v]
            nxt &= left & ~seen
            seen |= nxt
            frontier = nxt
        comps.append(seen)
        left &= ~seen
    return comps


def test_c4_row_coloring_structure_and_widths(capsys):
    width_memo = {}
    for n in range(1, 7):
        for m in range(1, 7):
            g = h_graph(n, m)
            for p in range(1, 4):
                c = row_coloring(n, m, p)
                assert c.palette_size == p + 1
                classes = c.classes()
                palette = sorted(classes)
                for i in range(1, p + 1):
                    for combo in itertools.combinations(palette, i):
                        union = sorted(
                            v for col in combo for v in bits_of(classes.get(col, 0))
                        )
                        if not union:
                            continue
                        sub = induced_subgraph(g, mask_of(union))
                        for comp_mask in _component_masks(sub):
                            comp = [union[v] for v in range(sub.n) if comp_mask >> v & 1]
                            rows = sorted({g.labels[v]["row"] for v in comp})
                            runs_ok = rows == list(range(rows[0], rows[0] + len(rows)))
                            assert runs_ok and len(rows) <= i
                            # structural equality with the stacked family
                            cols = len(comp) // len(rows)
                            model = h_graph(len(rows), cols) if cols else None
                            comp_g = induced_subgraph(g, mask_of(comp))
                            assert comp_g.adj == model.adj
                            if comp_g.n <= 12:
                                key = (len(rows), cols)
                                if key not in width_memo:
                                    width_memo[key] = rank_width_exact(comp_g).value
                                assert width_memo[key] <= 3 * i
    report(capsys, "C4 row coloring: structure and Q(i)=3i widths")


def _refinement_instances():
    rng = random.Random(52)
    for seed in range(50):
        g = random_degenerate(20, 2, 1000 + seed)
        c = Coloring(tuple(rng.randint(1, 3) for _ in range(20)), 3)
        yield seed, g, c, rng


def _sample_unions_and_subsets(ref, g, rng):
    classes = ref.refined.classes()
    sets = []
    for i in (1, 2):
        for combo in itertools.combinations(sorted(classes), i):
            sets.append({v for col in combo for v in bits_of(classes[col])})
    for _ in range(200):
        size = rng.randint(1, 6)
        sets.append(set(rng.sample(range(g.n), size)))
    return sets


def test_c5_good_refinement_suite(capsys):
    violations = 0
    for seed, g, c, rng in _refinement_instances():
        dist = all_pairs_distances(g)
        for r in (2, 3):
            L = wcol_heuristic(g, r)[1]
            ref = good_refinement(g, c, r, L)
            w = wcol_of_order(g, L, r)
            if ref.refined.palette_size > 3 ** (2 * w):
                violations += 1
            for X in _sample_unions_and_subsets(ref, g, rng):
                Xp = expand_good(ref, X)
                p = len(ref.refined.colors_on(mask_of(X)))
                if not is_hitter(g, X, Xp, r, dist):
                    violations += 1
                if len(c.colors_on(mask_of(Xp))) > 2 * w * p:
                    violations += 1
    assert violations == 0
    report(capsys, "C5 single-radius refinement suite (50 seeds, r in {2,3})")


def test_c6_excellent_refinement_suite(capsys):
    violations = 0
    for seed, g, c, rng in _refinement_instances():
        dist = all_pairs_distances(g)
        orders = [wcol_heuristic(g, l)[1] for l in (2, 3)]
        ref = excellent_refinement(g, c, 3, orders)
        d = ref.d
        for X in _sample_unions_and_subsets(ref, g, rng):
            Xpp = expand_excellent(ref, X)
            p = len(ref.refined.colors_on(mask_of(X)))
            if not is_closure(g, X, Xpp, 3, dist):
                violations += 1
            if len(c.colors_on(mask_of(Xpp))) > d * p:
                violations += 1
    assert violations == 0
    report(capsys, "C6 multi-radius refinement suite (50 seeds, r=3)")


def test_c7_power_coloring_end_to_end(capsys):
    for a, b in ((4, 4), (5, 4), (6, 6)):
        g = grid(a, b)
        r, p = 2, 2
        ref, q = low_rankwidth_coloring_of_power(g, r, p)
        h = power(g, r)
        checked = verify_low_rw_coloring(h, ref.refined, p, q)
        assert checked.verified
        classes = ref.refined.classes()
        rng = random.Random(7_2026)
        sample = []
        for i in (1, 2):
            for combo in itertools.combinations(sorted(classes), i):
                sample.append(sorted({v for col in combo for v in bits_of(classes[col])}))
        for _ in range(100):
            sample.append(sorted(rng.sample(range(g.n), rng.randint(1, 8))))
        for X in sample:
            Xpp = sorted(expand_excellent(ref, set(X)))
            lhs = induced_subgraph(h, mask_of(X))
            sub, idx = oracles.induced_subgraph_by_vertices(g, Xpp)
            rhs = induced_subgraph(power(sub, r), mask_of(idx[v] for v in X))
            assert lhs.adj == rhs.adj
    report(capsys, "C7 power-of-grid coloring verifies against the power budget")


def test_c8_certificate_suite(capsys):
    g12 = twisted_chain(12, "bare")
    for seed in range(1000):
        part = random_balanced_bipartition(g12, seed)
        res = lower_bound_certificate(g12, part)
        assert isinstance(res, MatchingCertificate)
        assert res.order >= 1
        assert certificate_rank(g12, res) == res.order
    g24 = twisted_chain(24, "bare")
    for seed in range(200):
        part = random_balanced_bipartition(g24, seed)
        res = lower_bound_certificate(g24, part)
        assert isinstance(res, MatchingCertificate)
        assert res.order >= 2
        assert certificate_rank(g24, res) == res.order
    report(capsys, "C8 chain certificates (1000 seeds order 12, 200 seeds order 24)")


def test_c9_ramsey_block_at_threshold(capsys):
    for seed in range(200):
        rng = random.Random(seed)
        table = {(x, y): rng.randint(1, 2) for x in range(32) for y in range(32)}
        res = ramsey_bireduce(
            lambda x, y: table[(x, y)], list(range(32)), list(range(32)), 2, 2
        )
        assert res.guaranteed
        assert res.size == 2
        assert all(table[(x, y)] == res.color for x in res.xs for y in res.ys)
    report(capsys, "C9 2x2 single-valued blocks at set size 32, 200/200 runs")


def test_c10_extraction_statistics(capsys):
    g = twisted_chain(20, "bare")
    hits = 0
    for seed in range(50):
        rng = random.Random(seed)
        colors = [rng.randint(1, 2) for _ in range(g.n)]
        sub, rep = monochromatic_substructure(g, colors, 2)
        assert verify_twisted_chain(sub) == rep.achieved
        assert len(set(rep.colors_used)) <= 3
        if rep.achieved >= 2:
            hits += 1
    assert hits >= 48
    report(capsys, f"C10 order-2 sub-chain extraction in {hits}/50 runs")


def test_c11_cograph_and_witness_suite(capsys):
    rng = random.Random(16)
    cases = []
    for g in (complete(16), path(16)):
        cases.append((g, rank_width_upper(g, LinearOrder.from_order(range(g.n))).decomposition, 1))
    for _ in range(3):
        ct = oracles.random_cotree(16, rng)
        g = oracles.cotree_to_graph(ct, 16)
        cases.append((g, oracles.decomposition_from_cotree(ct), 1))
    h24 = h_graph(2, 4)
    rep = rank_width_exact(h24)
    cases.append((h24, rep.decomposition, max(rep.value, 1)))
    for g, D, p in cases:
        assert verify_decomposition(g, D) <= p
        out = cograph_extract(g, D, p)
        assert is_cograph(induced_subgraph(g, out))[0]
        assert out.bit_count() >= g.n ** kappa(p) - 1e-9

    witness_cases = [
        (complete(16), even_split_provider(2, 1)),
        (path(16), even_split_provider(2, 1)),
        (h24, lambda _: (row_coloring(2, 4, 1), 3)),
    ]
    for g, D, p in cases[2:5]:  # the random cographs; classes stay cographs
        witness_cases.append((g, even_split_provider(2, 1)))
    for g, provider in witness_cases:
        witness, kind, params = eh_witness(g, provider)
        for u, v in itertools.combinations(sorted(witness), 2):
            assert g.has_edge(u, v) == (kind == "clique")
        assert len(witness) >= math.ceil(g.n**params.epsilon - 1e-9)
    report(capsys, "C11 cograph extraction and clique/independent witnesses")


def test_c12_product_coloring_suite(capsys):
    rng = random.Random(1212)
    for seed in range(50):
        g = random_degenerate(18, 3, 3000 + seed)
        k = rng.randint(1, 4)
        c = Coloring(tuple(rng.randint(1, k) for _ in range(g.n)), k)
        out = chi_product_coloring(g, c)
        for u, v in g.edges():
            assert out.colors[u] != out.colors[v]
        per_class_max = 0
        from rwcolor.coloring import greedy_proper_coloring

        for col, members in c.classes().items():
            sub = induced_subgraph(g, members)
            per_class_max = max(per_class_max, greedy_proper_coloring(sub).palette_size)
        assert out.palette_size <= c.palette_size * per_class_max
    report(capsys, "C12 product colorings proper on 50 seeded instances")


def test_c13_formats_and_reproducibility(capsys, tmp_path):
    rng = random.Random(5)
    for g in (h_graph(3, 3), twisted_chain(2), grid(3, 4), oracles.random_graph(9, 0.35, rng)):
        assert parse_edge_list(serialize_edge_list(g)).adj == g.adj
    # two consecutive CLI runs must agree byte for byte
    for args, name in [
        (["gen", "h", "--n", "4", "--m", "3"], "h43.el"),
        (["gen", "chain", "--order", "3", "--variant", "interval"], "chain3.el"),
        (["gen", "random", "--n", "25", "--d", "2", "--seed", "11"], "rand.el"),
    ]:
        a = tmp_path / ("a_" + name)
        b = tmp_path / ("b_" + name)
        assert cli.main(args + ["-o", str(a)]) == 0
        assert cli.main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
    # manifest rerun reproduces outputs byte for byte
    out = tmp_path / "g.el"
    man = tmp_path / "m.json"
    assert cli.main([
        "gen", "random", "--n", "40", "--d", "2", "--seed", "3",
        "-o", str(out), "--manifest", str(man),
    ]) == 0
    first = out.read_bytes()
    out.unlink()
    assert cli.main(["rerun", "--manifest", str(man)]) == 0
    assert out.read_bytes() == first
    # golden snapshots pinned in-repo
    assert serialize_edge_list(h_graph(2, 2)) == "4 3\n0 2\n1 2\n1 3\n"
    assert serialize_edge_list(twisted_chain(1)) == "3 2\n0 2\n1 2\n"
    report(capsys, "C13 round-trips, byte-stable reruns, golden snapshots")
