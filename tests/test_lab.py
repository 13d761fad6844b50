import random

import pytest

from rwcolor import lab
from rwcolor.graph import cutrank, rank_of_bitrows
from rwcolor.families import twisted_chain, verify_twisted_chain
from rwcolor.lab import (
    Bipartition,
    ImbalanceReport,
    MatchingCertificate,
    alternating_sequence,
    certificate_rank,
    lower_bound_certificate,
    matching_from_alternation,
    mixed_lines,
    monochromatic_substructure,
    ramsey_bireduce,
    ramsey_threshold,
    ramsey_threshold_within,
    random_balanced_bipartition,
)


def c_ids(n):
    return range(2 * n * n, 3 * n * n)


def test_certificate_rank_single_pair():
    g = twisted_chain(2)
    cert = MatchingCertificate("A", ("S", "T"), ((1, 1, 1),), 2)
    assert certificate_rank(g, cert) == 1


def test_certificate_rank_triangular_full_rank():
    g = twisted_chain(3)
    # a_i <= s_i < a_{i+1} with s = 3(b-1)+c
    cert = MatchingCertificate("A", ("S", "T"), ((1, 1, 2), (3, 1, 3), (4, 2, 3)), 3)
    assert certificate_rank(g, cert) == 3


def test_certificate_chain_violation_names_index():
    g = twisted_chain(2)
    bad = MatchingCertificate("A", ("S", "T"), ((3, 1, 1),), 2)
    with pytest.raises(ValueError, match="index 0"):
        certificate_rank(g, bad)
    bad2 = MatchingCertificate("A", ("S", "T"), ((1, 1, 2), (2, 2, 2)), 2)
    with pytest.raises(ValueError, match="index 1"):
        certificate_rank(g, bad2)


def test_random_subsets_can_lose_rank():
    g = twisted_chain(4)
    rng = random.Random(5)
    nn = 16
    saw_deficient = False
    for _ in range(200):
        k = 3
        rows = sorted(rng.sample(range(1, nn + 1), k))
        cols = sorted(rng.sample(range(nn), k))
        bits = []
        for a in rows:
            src = g.adj[a - 1]
            bits.append(sum(((src >> (2 * nn + z)) & 1) << i for i, z in enumerate(cols)))
        if rank_of_bitrows(bits) < k:
            saw_deficient = True
            break
    assert saw_deficient


def test_mixed_lines_and_alternating_sequence():
    g = twisted_chain(2)
    z = {(i, j): 2 * 4 + (i - 1) * 2 + (j - 1) for i in (1, 2) for j in (1, 2)}
    part = Bipartition.of(g, {z[(1, 1)], z[(2, 1)]})
    rows, cols = mixed_lines(2, part)
    assert rows == [1, 2] and cols == []
    seq = alternating_sequence(2, part, lex=1)
    assert len(seq) == 2
    assert seq == [(1, 1), (2, 2)]


def test_alternating_sequence_no_mixed_rows():
    g = twisted_chain(2)
    part = Bipartition.of(g, set(c_ids(2)))
    assert alternating_sequence(2, part, lex=1) == []


def test_alternating_sequence_length_tracks_mixed_rows():
    g = twisted_chain(6)
    rng = random.Random(1)
    for seed in range(10):
        part = random_balanced_bipartition(g, seed)
        rows, _ = mixed_lines(6, part)
        assert len(alternating_sequence(6, part, lex=1)) == len(rows)


def test_matching_from_alternation_minimum_order():
    g = twisted_chain(12)
    part = random_balanced_bipartition(g, 3)
    seq = alternating_sequence(12, part, lex=1)
    if len(seq) >= 4:
        cert = matching_from_alternation(12, part, seq, "A")
        assert cert.order >= len(seq) // 4
        assert certificate_rank(g, cert) == cert.order


def test_matching_rejects_non_alternating():
    g = twisted_chain(12)
    part = Bipartition.of(g, set(c_ids(12)))  # everything in S
    fake = [(1, 1), (1, 2), (2, 1), (2, 2)]
    with pytest.raises(ValueError, match="side"):
        matching_from_alternation(12, part, fake, "A")


def test_matching_constant_side_v_vertices():
    # order-4 chain, all of A in S: every pair couples a row vertex in S with
    # the even-position z in T, so the whole family survives the majority cut
    g = twisted_chain(4)
    nn = 16
    S = set(range(nn))  # all of A
    for idx, zid in enumerate(c_ids(4)):
        if idx % 4 < 2:
            S.add(zid)
    part = Bipartition.of(g, S)
    seq = alternating_sequence(4, part, lex=1)
    assert len(seq) == 4
    cert = matching_from_alternation(4, part, seq, "A")
    assert cert.direction == ("S", "T")
    assert cert.order == 2
    assert certificate_rank(g, cert) == 2


def test_certificate_rank_bounded_by_cutrank():
    g = twisted_chain(12)
    for seed in range(5):
        part = random_balanced_bipartition(g, seed)
        res = lower_bound_certificate(g, part)
        assert isinstance(res, MatchingCertificate)
        first = part.S if res.direction[0] == "S" else part.T
        assert certificate_rank(g, res) <= cutrank(g, first)


def test_lower_bound_certificate_imbalance():
    g = twisted_chain(12)
    part = Bipartition.of(g, set(c_ids(12)))
    res = lower_bound_certificate(g, part)
    assert isinstance(res, ImbalanceReport)
    assert res.heavy_side == "S"
    assert res.exceeds_two_thirds


def test_lower_bound_certificate_rejects_small_order():
    g = twisted_chain(2)
    with pytest.raises(ValueError):
        lower_bound_certificate(g, Bipartition.of(g, {0}))


def test_lower_bound_certificate_seeded_batch():
    g = twisted_chain(12)
    for seed in range(40):
        part = random_balanced_bipartition(g, seed)
        res = lower_bound_certificate(g, part)
        assert isinstance(res, MatchingCertificate)
        assert res.order >= 1
        assert certificate_rank(g, res) == res.order


def test_certificate_pipeline_validates_the_chain_once_per_call(monkeypatch):
    calls = []
    real = lab.chain_order
    monkeypatch.setattr(lab, "chain_order", lambda G: calls.append(G) or real(G))
    g = twisted_chain(12)
    cert = lower_bound_certificate(g, random_balanced_bipartition(g, 0))
    assert certificate_rank(g, cert) == cert.order
    assert len(calls) == 3


def test_balanced_bipartition_generator_is_balanced():
    g = twisted_chain(12)
    nn = 144
    for seed in range(20):
        part = random_balanced_bipartition(g, seed)
        s = sum(1 for v in c_ids(12) if v in part.S)
        assert 3 * s >= nn and 3 * (nn - s) >= nn


# -- product Ramsey ------------------------------------------------------------


def test_ramsey_threshold_value():
    assert ramsey_threshold(2, 2) == 32
    assert ramsey_threshold_within(2, 2, 32) == 32
    assert ramsey_threshold_within(2, 2, 31) is None
    assert ramsey_threshold_within(10**6, 3, 10**9) is None


def test_ramsey_single_color():
    res = ramsey_bireduce(lambda x, y: 1, list(range(5)), list(range(5)), 4, 1)
    assert res.size == 4 and res.guaranteed


def test_ramsey_at_threshold_always_guaranteed():
    for seed in range(60):
        rng = random.Random(seed)
        table = {(x, y): rng.randint(1, 2) for x in range(32) for y in range(32)}
        res = ramsey_bireduce(
            lambda x, y: table[(x, y)], list(range(32)), list(range(32)), 2, 2
        )
        assert res.guaranteed and res.size == 2
        assert all(table[(x, y)] == res.color for x in res.xs for y in res.ys)


def test_ramsey_parity_function():
    res = ramsey_bireduce(
        lambda x, y: (x + y) % 2 + 1, list(range(32)), list(range(32)), 2, 2
    )
    assert res.size == 2 and res.guaranteed
    xs, ys = res.xs, res.ys
    assert (xs[0] + ys[0]) % 2 == (xs[1] + ys[1]) % 2


def test_ramsey_below_threshold_flagged():
    rng = random.Random(0)
    table = {(x, y): rng.randint(1, 2) for x in range(6) for y in range(6)}
    res = ramsey_bireduce(lambda x, y: table[(x, y)], list(range(6)), list(range(6)), 2, 2)
    assert not res.guaranteed
    if res.size == 2:
        assert all(table[(x, y)] == res.color for x in res.xs for y in res.ys)


# -- three-stage extraction ------------------------------------------------------


def test_extraction_constant_coloring_keeps_everything():
    g = twisted_chain(6)
    sub, rep = monochromatic_substructure(g, [1] * g.n, 2)
    assert rep.achieved == 6
    assert rep.guaranteed
    assert verify_twisted_chain(sub) == 6


def test_extraction_output_is_chain_with_three_colors():
    g = twisted_chain(10)
    for seed in range(8):
        rng = random.Random(seed)
        colors = [rng.randint(1, 2) for _ in range(g.n)]
        sub, rep = monochromatic_substructure(g, colors, 2)
        assert verify_twisted_chain(sub) == rep.achieved
        assert len(set(rep.colors_used)) <= 3
        # recheck color uniformity per block from the original coloring
        n = 10
        for x in rep.x_rows:
            for y in rep.y_cols:
                assert colors[2 * n * n + (x - 1) * n + (y - 1)] == rep.colors_used[0]
                assert colors[(x - 1) * n + (y - 1)] == rep.colors_used[1]
                assert colors[n * n + (y - 1) * n + (x - 1)] == rep.colors_used[2]


def test_extraction_order20_statistics():
    g = twisted_chain(20)
    hits = 0
    for seed in range(20):
        rng = random.Random(seed)
        colors = [rng.randint(1, 2) for _ in range(g.n)]
        _, rep = monochromatic_substructure(g, colors, 2)
        if rep.achieved >= 2:
            hits += 1
    assert hits >= 19
