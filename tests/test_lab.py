import functools
import itertools
import random
import tracemalloc

import pytest

import oracles
from oracles import alternating_sequence, mixed_lines
from rwcolor import cli, lab
from rwcolor.graph import cutrank_mask, mask_of, rank_of_bitrows
from rwcolor.families import chain_cross_row, twisted_chain, verify_twisted_chain
from rwcolor.lab import (
    Bipartition,
    ImbalanceReport,
    MatchingCertificate,
    certificate_rank,
    chain_bipartition,
    chain_certificate,
    chain_certificate_rank,
    lower_bound_certificate,
    matching_from_alternation,
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
        first = part.s_mask if res.direction[0] == "S" else part.t_mask
        assert certificate_rank(g, res) <= cutrank_mask(g, first)


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


@pytest.mark.parametrize("n", range(12, 37))
def test_harness_from_the_order_matches_the_graph_path(n):
    g = twisted_chain(n)
    row = functools.partial(chain_cross_row, n)
    want_rows = []
    for seed in range(50):
        part = chain_bipartition(n, seed)
        assert part == random_balanced_bipartition(g, seed)
        cert = chain_certificate(n, part)
        assert cert == lower_bound_certificate(g, part)
        if isinstance(cert, ImbalanceReport):
            want_rows.append((seed, 0, False))
            continue
        rank = certificate_rank(g, cert)
        assert chain_certificate_rank(cert, row) == rank
        want_rows.append((seed, cert.order, rank == cert.order))
    assert cli._certificate_rows(n, 0, 50) == want_rows


def test_certificate_rank_reads_only_the_rows_its_pairs_name():
    n = 24
    g = twisted_chain(n)
    cert = lower_bound_certificate(g, random_balanced_bipartition(g, 0))
    read = []
    rank = chain_certificate_rank(cert, lambda v: read.append(v) or g.adj[v])
    assert rank == cert.order == len(read)
    base = 0 if cert.side == "A" else n * n
    assert read == [base + a - 1 for a, _, _ in cert.pairs]


def test_harness_of_order_96_builds_no_chain():
    tracemalloc.start()
    try:
        rows = cli._certificate_rows(96, 0, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == [(0, 28, True), (1, 26, True)]
    # the order-96 chain's rows alone take about 64 MB
    assert peak < 10_000_000


def test_balanced_bipartition_generator_is_balanced():
    g = twisted_chain(12)
    nn = 144
    for seed in range(20):
        part = random_balanced_bipartition(g, seed)
        s = sum(1 for v in c_ids(12) if part.s_mask >> v & 1)
        assert 3 * s >= nn and 3 * (nn - s) >= nn


# -- the mask-read harness against the per-cell reference ------------------------


def _outcome(f, *args):
    """f(*args), or the type and text of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _assert_harness_matches_reference(g, n, part):
    assert _outcome(mixed_lines, n, part) == _outcome(oracles.mixed_lines_by_cells, n, part)
    for lex in (1, 2):
        assert _outcome(alternating_sequence, n, part, lex) == _outcome(
            oracles.alternating_sequence_by_cells, n, part, lex
        )
    got = _outcome(lower_bound_certificate, g, part)
    want = _outcome(oracles.lower_bound_certificate_by_cells, g, part)
    assert type(got) is type(want) and got == want


def _skewed_subsets(n, rng):
    """40 vertex sets of an order-n chain whose C blocks run from all in S to
    all in T: the two extremes, whole rows or whole columns on one side (no
    mixed rows, or no mixed columns), and random C blocks at lopsided and
    near-threshold densities, each with random A and B halves."""
    nn = n * n
    c0 = 2 * nn
    lines = range(n)
    c_blocks = [set(range(c0, c0 + nn)), set()]
    for k in (1, n // 2, n - 1):
        c_blocks.append({c0 + n * i + j for i in lines if i < k for j in lines})
        c_blocks.append({c0 + n * i + j for i in lines for j in lines if j < k})
    while len(c_blocks) < 40:
        p = rng.choice((0.01, 0.05, 0.2, 0.33, 0.34, 0.5, 0.66, 0.67, 0.8, 0.95, 0.99))
        c_blocks.append({v for v in range(c0, c0 + nn) if rng.random() < p})
    return [c | {v for v in range(c0) if rng.random() < 0.5} for c in c_blocks]


@pytest.mark.parametrize("n, seeds", [(2, 60), (4, 60), (6, 60), (12, 60), (13, 60), (24, 60),
                                      (36, 60), (72, 2)])
def test_harness_matches_the_per_cell_reference(n, seeds):
    g = twisted_chain(n)
    for seed in range(seeds):
        part = random_balanced_bipartition(g, seed)
        assert part == oracles.random_balanced_bipartition_by_draws(g, seed)
        _assert_harness_matches_reference(g, n, part)
    for S in _skewed_subsets(n, random.Random(n)):
        part = Bipartition.of(g, S)
        assert part == Bipartition(mask_of(S), mask_of(range(g.n)) & ~mask_of(S))
        _assert_harness_matches_reference(g, n, part)


def test_harness_names_the_smallest_uncovered_vertex_like_the_reference():
    g = twisted_chain(12)
    c0 = 2 * 144
    # z at C positions 5 and 70 on neither side, another T vertex also in S
    S = frozenset(range(c0, c0 + 60))
    T = frozenset(v for v in range(g.n) if v not in S and v not in (c0 + 5, c0 + 70)) | {c0}
    part = Bipartition(mask_of(S - {c0 + 5}), mask_of(T))
    got = _outcome(lower_bound_certificate, g, part)
    assert got == ("ValueError", f"vertex {c0 + 5} is on neither side")
    assert got == _outcome(oracles.lower_bound_certificate_by_cells, g, part)
    _assert_harness_matches_reference(g, 12, part)
    with pytest.raises(ValueError, match="lex must be 1 or 2"):
        alternating_sequence(12, part, 3)


def test_balanced_bipartition_needs_chain_order_two():
    # the order-2 chain is the smallest in the per-cell reference test
    with pytest.raises(ValueError, match="^a C-balanced bipartition needs chain order >= 2, not 1$"):
        random_balanced_bipartition(twisted_chain(1), 0)


def test_bipartition_of_rejects_vertices_outside_the_graph():
    g = twisted_chain(2)
    for S in ([12], [-1], [0, 3, 12], ["a"]):
        with pytest.raises(ValueError, match="S contains vertices outside the graph"):
            Bipartition.of(g, S)
    assert Bipartition.of(g, range(12)) == Bipartition(mask_of(range(12)), 0)


def test_certificate_reads_sides_from_the_mask_not_per_cell(monkeypatch):
    calls = []
    real = Bipartition.side
    monkeypatch.setattr(Bipartition, "side", lambda self, v: calls.append(v) or real(self, v))
    n = 24
    g = twisted_chain(n)
    part = random_balanced_bipartition(g, 0)
    assert isinstance(lower_bound_certificate(g, part), MatchingCertificate)
    # the per-cell walk asked about every C vertex at least twice (2n^2)
    assert 0 < len(calls) <= 2 * n


# -- product Ramsey ------------------------------------------------------------


def test_ramsey_threshold_value():
    assert ramsey_threshold(2, 2) == 32
    assert ramsey_threshold_within(2, 2, 32) == 32
    assert ramsey_threshold_within(2, 2, 31) is None
    assert ramsey_threshold_within(10**6, 3, 10**9) is None


def test_ramsey_threshold_within_agrees_with_the_threshold():
    for k, d in itertools.product(range(1, 4), range(1, 4)):
        t = ramsey_threshold(k, d)
        for limit in (1, t - 1, t, 2 * t, 4 * t):
            expected = t if t <= limit else None
            assert ramsey_threshold_within(k, d, limit) == expected, (k, d, limit)
    assert ramsey_threshold_within(5, 1, 5) == 5 and ramsey_threshold_within(5, 1, 4) is None


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


EXTRACT_ORDERS = (6, 8, 10, 12, 16, 20, 24)
# one colour drawn with the given probability, the rest uniform over the
# palette: the blocks grow, so the search reaches k >= 4
BIASED = ((3, 0.85), (4, 0.9), (2, 0.8))


@pytest.mark.parametrize("order, colors, bias", [
    *((order, colors, 0.0) for order in EXTRACT_ORDERS for colors in (1, 2, 3, 4)),
    *((order, *BIASED[i % 3]) for i, order in enumerate(EXTRACT_ORDERS)),
])
def test_extraction_matches_the_combination_scan(order, colors, bias):
    """The row-prefix search returns the scan's block: the first row set in
    combination order, its first triple in sorted order, its first columns."""
    g = twisted_chain(order)
    rng = random.Random(order)
    c = [1 if rng.random() < bias else rng.randint(1, colors) for _ in range(g.n)]
    sub, rep = monochromatic_substructure(g, c, 2)
    want_sub, want_rep = oracles.extract_by_combinations(g, c, 2)
    assert rep == want_rep
    assert sub.adj == want_sub.adj
