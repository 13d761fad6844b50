import functools
import itertools
import json
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
    chain_extraction,
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
    # a certificate that breaks the interleaving condition is never built
    with pytest.raises(ValueError, match="^chain condition fails at index 0: 3 !<= 1$"):
        MatchingCertificate("A", ("S", "T"), ((3, 1, 1),), 2)
    with pytest.raises(ValueError, match="^chain condition fails at index 1: 2 !< 2$"):
        MatchingCertificate("A", ("S", "T"), ((1, 1, 2), (2, 2, 2)), 2)
    with pytest.raises(ValueError, match="^pair 0 is out of range for order 2$"):
        MatchingCertificate("B", ("T", "S"), ((1, 3, 1),), 2)


def test_certificate_refuses_an_unknown_side_or_direction():
    # such a certificate would be ranked as side B and written out as it is
    for side, direction in (("X", ("Q", "Q")), ("A", ("Q", "Q")), ("B", ("S", "S")),
                            ("X", ("S", "T"))):
        with pytest.raises(ValueError) as exc:
            MatchingCertificate(side, direction, ((1, 1, 1),), 2)
        assert str(exc.value) == f"unknown side {side!r} or direction {direction!r}"


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


def test_chain_certificate_refuses_a_partition_of_another_chain():
    part = chain_bipartition(13, 0)
    with pytest.raises(ValueError, match="^a partition of 507 vertices is not one of the order-12 chain$"):
        chain_certificate(12, part)
    assert isinstance(chain_certificate(13, part), MatchingCertificate)


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
        assert part == Bipartition(mask_of(S), g.n)
        assert part.t_mask == mask_of(range(g.n)) & ~mask_of(S)
        _assert_harness_matches_reference(g, n, part)
    with pytest.raises(ValueError, match="lex must be 1 or 2"):
        alternating_sequence(n, part, 3)


def test_balanced_bipartition_needs_chain_order_two():
    # the order-2 chain is the smallest in the per-cell reference test
    with pytest.raises(ValueError, match="^a C-balanced bipartition needs chain order >= 2, not 1$"):
        random_balanced_bipartition(twisted_chain(1), 0)


def test_bipartition_of_rejects_vertices_outside_the_graph():
    g = twisted_chain(2)
    for S in ([12], [-1], [0, 3, 12], ["a"]):
        with pytest.raises(ValueError, match="S contains vertices outside the graph"):
            Bipartition.of(g, S)
    assert Bipartition.of(g, range(12)) == Bipartition(mask_of(range(12)), 12)


def test_bipartition_holds_every_vertex_on_one_side():
    part = Bipartition(0b0101, 4)
    assert part.t_mask == 0b1010
    assert [part.side(v) for v in range(4)] == ["S", "T", "S", "T"]
    for v in (-1, 4):
        with pytest.raises(ValueError, match=f"^vertex {v} is not in 0..3$"):
            part.side(v)
    for s in (-1, 0b10000):
        with pytest.raises(ValueError, match="^the S mask has bits outside 0..3$"):
            Bipartition(s, 4)


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


# -- sub-chain extraction --------------------------------------------------------


def test_extraction_constant_coloring_keeps_everything():
    g = twisted_chain(6)
    sub, rep = monochromatic_substructure(g, [1] * g.n, 2)
    assert rep.achieved == 6
    assert rep.guaranteed
    assert verify_twisted_chain(sub) == 6


def test_extraction_guarantee_is_the_one_colour_case(monkeypatch):
    """Two or more colours never reach the third stage threshold, even at
    order 2**60; one colour meets every threshold, and its extraction is the
    chain itself, taken without a Ramsey stage or an induced subgraph."""
    for d in range(2, 9):
        for t in range(1, 65):
            m = t
            for _ in range(3):
                m = m and ramsey_threshold_within(m, d, 2**60)
            assert m is None, (d, t)
    n = 24
    for t in range(1, n + 1):
        assert ramsey_threshold_within(t, 1, n) == t

    def forbidden(*args):
        raise AssertionError("the one-colour extraction copies the chain")

    monkeypatch.setattr(lab, "ramsey_bireduce", forbidden)
    monkeypatch.setattr(lab, "induced_subgraph", forbidden)
    g = twisted_chain(n)
    sub, rep = monochromatic_substructure(g, [1] * g.n, 2)
    assert rep.achieved == n and rep.guaranteed
    assert sub.adj == g.adj


def test_one_colour_extraction_is_the_whole_chain_above_the_order(capsys):
    """A target above the order is not guaranteed and has no threshold, yet
    one colour still gives the whole chain, not the row-prefix search's
    block (order 6 of 24, order 4 of 48)."""
    g = twisted_chain(24)
    sub, rep = monochromatic_substructure(g, [1] * g.n, 25)
    assert (rep.achieved, rep.guaranteed, rep.stage_sizes) == (24, False, (24, 24, 24))
    assert rep.thresholds == (None, None, None)
    assert sub.adj == g.adj
    assert cli.main(["lab", "extract", "--order", "48", "--colors", "1", "--target", "49"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["achieved"], out["guaranteed"], out["thresholds"]) == (48, False, [None] * 3)


@pytest.mark.parametrize("order", [6, 12])
def test_two_colour_extraction_thresholds_run_outermost_first(order):
    """At target 1 only the innermost threshold, 1 * 2**2 = 4, fits the
    order; the next, 4 * 2**8, does not, so the outer two read None."""
    g = twisted_chain(order)
    rng = random.Random(order)
    c = [rng.randint(1, 2) for _ in range(g.n)]
    sub, rep = monochromatic_substructure(g, c, 1)
    assert rep.thresholds == (None, None, 4)
    want_sub, want_rep = oracles.extract_by_combinations(g, c, 1)
    assert rep == want_rep
    assert sub.adj == want_sub.adj


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


def test_cli_extraction_builds_no_chain(monkeypatch, capsys):
    """`lab extract` colours the order's 3n^2 vertices and reports the
    order-taking extraction, which is the report of the chain's own."""
    g = twisted_chain(12)
    rng = random.Random(3)
    colors = [rng.randint(1, 2) for _ in range(g.n)]
    rep = chain_extraction(12, colors, 2)
    assert rep == monochromatic_substructure(g, colors, 2)[1]
    with pytest.raises(ValueError, match="coloring of 431 vertices is not one of the order-12"):
        chain_extraction(12, colors[1:], 2)

    def forbidden(*args):
        raise AssertionError("lab extract builds the chain")

    monkeypatch.setattr(cli, "twisted_chain", forbidden)
    argv = ["lab", "extract", "--order", "12", "--colors", "2", "--target", "2", "--seed", "3"]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["achieved"], out["x_rows"], out["y_cols"]) == (
        rep.achieved, list(rep.x_rows), list(rep.y_cols))


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
