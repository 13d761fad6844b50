import csv
import itertools
import json
import os
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from rwcolor import cli, formats, lab
from rwcolor.coloring import Coloring
from rwcolor.formats import (
    _CHUNK_CHARS,
    MAX_VERTICES,
    coloring_from_obj,
    coloring_to_obj,
    decomposition_from_obj,
    decomposition_to_obj,
    edge_list_chunks,
    labels_from_json,
    labels_to_json,
    parse_edge_list,
    partition_from_obj,
    partition_to_obj,
    serialize_edge_list,
)
from rwcolor.families import (
    TWISTED_CHAIN_VARIANTS,
    grid,
    h_graph,
    random_degenerate,
    twisted_chain,
)
from rwcolor.lab import random_balanced_bipartition
from rwcolor.graph import Graph, build_graph, power
from rwcolor.widths import rank_width_exact

import oracles


# -- edge list format -------------------------------------------------------------


def test_round_trip_generated_graphs():
    rng = random.Random(1)
    graphs = [h_graph(3, 3), twisted_chain(2), oracles.random_graph(9, 0.3, rng)]
    for g in graphs:
        text = serialize_edge_list(g)
        back = parse_edge_list(text)
        assert back.n == g.n and back.adj == g.adj
        assert serialize_edge_list(back) == text


@given(st.integers(min_value=1, max_value=10), st.data())
@settings(max_examples=50, deadline=None)
def test_round_trip_property(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = build_graph(n, chosen)
    assert parse_edge_list(serialize_edge_list(g)).adj == g.adj


def test_parse_accepts_comments():
    g = parse_edge_list("# a comment\n2 1\n0 1\n")
    assert g.edges() == [(0, 1)]


def test_parse_rejects_unsorted():
    with pytest.raises(ValueError, match="sorted"):
        parse_edge_list("3 2\n1 2\n0 1\n")


def test_parse_rejects_bad_orientation():
    with pytest.raises(ValueError, match="violates"):
        parse_edge_list("3 1\n2 1\n")


def test_parse_rejects_wrong_count():
    with pytest.raises(ValueError, match="edge lines"):
        parse_edge_list("3 2\n0 1\n")


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as err:
        return f"ValueError: {err}"


def _reference_graphs():
    rng = random.Random(11)
    graphs = [oracles.random_graph(n, rng.choice((0.1, 0.3, 0.5, 0.9)), rng) for n in range(1, 41)]
    graphs.append(twisted_chain(24))
    graphs += [twisted_chain(8, variant) for variant in TWISTED_CHAIN_VARIANTS]
    return graphs


def _fault_in_a_later_block() -> str:
    """Over 8192 data lines, the last two swapped."""
    g = oracles.random_graph(300, 0.3, random.Random(5))
    lines = oracles.serialize_edge_list_by_edges(g).split("\n")
    lines[-3], lines[-2] = lines[-2], lines[-3]
    return "\n".join(lines)


def _run_fault_in_a_later_block() -> str:
    """Over 8192 data lines, two lines of one vertex's run swapped in the
    second block, so the first column still never decreases."""
    g = oracles.random_graph(300, 0.3, random.Random(5))
    lines = oracles.serialize_edge_list_by_edges(g).split("\n")
    i = next(i for i in range(9000, len(lines)) if lines[i].split()[0] == lines[i + 1].split()[0])
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return "\n".join(lines)


def _chunked_edge_list() -> str:
    """A canonical text over two chunks of the reader."""
    text = oracles.serialize_edge_list_by_edges(oracles.random_graph(300, 0.3, random.Random(5)))
    assert len(text) > _CHUNK_CHARS + 2**14
    return text


def _second_chunk_starts(text: str) -> int:
    return text.find("\n", _CHUNK_CHARS) + 1


def _fault_on_the_first_line_of_a_later_chunk() -> str:
    text = _chunked_edge_list()
    end = text.index("\n", _second_chunk_starts(text))
    return text[:end] + " 0" + text[end:]


def _vertex_spelled_two_ways_in_different_chunks() -> str:
    text = _chunked_edge_list()
    start = _second_chunk_starts(text)
    return text[:start] + "00" + text[start:]


def _comment_chunks_between_data_chunks() -> str:
    """Over 128 K characters of comment and blank lines between two halves
    of the data lines, so a chunk in the middle holds no data line."""
    lines = _chunked_edge_list().splitlines()
    half = len(lines) // 2
    filler = ["# a comment", "", "   "] * (2 * _CHUNK_CHARS // 12)
    return "\n".join([*lines[:half], *filler, *lines[half:]]) + "\n"


def _lines_at_the_chunk_boundary() -> tuple[list[str], int]:
    """The lines of `_chunked_edge_list` and the index of the first line of
    its second chunk, which starts inside the run of vertex 136."""
    text = _chunked_edge_list()
    k = text.count("\n", 0, _second_chunk_starts(text))
    lines = text.split("\n")
    assert lines[k - 1].split()[0] == lines[k].split()[0]
    return lines, k


def _edge_repeated_across_a_chunk_boundary() -> str:
    """The first line of the second chunk (line 9421) repeats the last line
    of the first, so only the pair carried across the boundary shows it."""
    lines, k = _lines_at_the_chunk_boundary()
    lines[k] = lines[k - 1]
    return "\n".join(lines)


def _lines_swapped_across_a_chunk_boundary() -> str:
    lines, k = _lines_at_the_chunk_boundary()
    lines[k - 1], lines[k] = lines[k], lines[k - 1]
    text = "\n".join(lines)
    assert text.count("\n", 0, _second_chunk_starts(text)) == k
    return text


def _only_lower_neighbours_finished_after_the_last_chunk() -> str:
    """Vertex 300 is joined to every lower vertex, so each chunk adds to its
    row, which is whole only after the last chunk; vertex 301 is isolated."""
    g = oracles.random_graph(300, 0.3, random.Random(5))
    text = oracles.serialize_edge_list_by_edges(
        build_graph(302, g.edges() + [(u, 300) for u in range(300)]))
    assert len(text) > _CHUNK_CHARS + 2**14
    return text


def _lines_over_several_chunks() -> list[str]:
    """The lines of a canonical text over at least seven chunks of the
    reader, and the empty string after its final line break."""
    text = oracles.serialize_edge_list_by_edges(oracles.random_graph(600, 0.3, random.Random(5)))
    assert len(text) > 6 * (_CHUNK_CHARS + 2**10)
    return text.split("\n")


def _line_fault_then_a_count_fault_chunks_later() -> str:
    """A third token on line 3 and, six chunks on, one edge line fewer
    than the header counts: the count is named first, as it is on a text
    read line by line."""
    lines = _lines_over_several_chunks()
    lines[2] += " 7"
    del lines[-2]
    return "\n".join(lines)


def _fault_in_a_chunk_that_is_not_plain_before_plain_chunks() -> str:
    """A comment line and two swapped lines in the second chunk, which is
    read line by line, and five plain chunks after it."""
    lines = _lines_over_several_chunks()
    text = "\n".join(lines)
    i = text.count("\n", 0, _second_chunk_starts(text)) + 1000
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    lines.insert(i - 50, "# a comment")
    return "\n".join(lines)


HAND_WRITTEN_EDGE_LISTS = {
    "empty": "",
    "only-comments": "# c\n\n   \n",
    "one-token-edge-line": "3 2\n0 1\n2\n",
    "three-token-edge-line": "3 2\n0 1\n0 1 2\n",
    "three-token-header": "3 1 0\n0 1\n",
    "one-token-header": "3\n0 1\n",
    "non-integer-header": "3 x\n0 1\n",
    "non-integer-vertex": "3 2\n0 1\n1 two\n",
    "negative-vertex": "3 1\n-1 2\n",
    "u-equals-v": "3 1\n1 1\n",
    "v-not-below-n": "3 2\n0 1\n1 3\n",
    "duplicate-edge": "3 2\n0 1\n0 1\n",
    "unsorted-edges": "4 3\n0 1\n1 2\n0 3\n",
    "count-too-high": "3 3\n0 1\n0 2\n",
    "count-too-low": "3 1\n0 1\n0 2\n",
    "comments-shift-line-numbers": "# a\n\n3 3\n0 1\n# b\n\n  \n1 2\n# c\n1 0\n",
    "int-fault-before-layout-fault": "4 3\n0 1\n0 x\n1 2 3\n",
    "range-fault-before-layout-fault": "4 3\n0 5\n1\n2 3\n",
    "order-fault-before-int-fault": "4 3\n1 2\n0 1\nx 3\n",
    "count-fault-before-line-faults": "4 5\n0 x\n3 1\n",
    "header-fault-before-line-faults": "4 y\n0 1 2\n",
    "no-vertices": "0 0\n",
    "negative-order": "-2 0\n",
    "no-vertices-with-an-edge": "0 1\n0 1\n",
    "form-feed-splits-a-line": "3 2\n0\x0c1\n",
    "crlf": "3 2\r\n0 1\r\n1 2\r\n",
    "tabs-and-extra-spaces": "  3\t2 \n0 \t 1\n\t1     2\t\n",
    "no-final-newline": "3 2\n0 1\n1 2",
    "unusual-integer-spellings": "12 2\n+1 1_0\n02 ٣\n",
    "no-break-space": "3 1\n0\u00a01\n",
    "pipe-token": "3 1\n0 |\n",
    "pipe-token-aligned-with-the-line-breaks": "3 2\n0 1 |\n2\n",
    "single-vertex": "1 0\n",
    "edgeless": "5 0\n",
    "isolated-high-vertices": "9 1\n0 3\n",
    "one-far-edge": "20000 1\n0 19999\n",
    "one-edge-between-the-last-vertices": "20000 1\n19998 19999\n",
    "fault-in-a-later-block": _fault_in_a_later_block(),
    "upper-run-out-of-order": "5 4\n0 1\n0 3\n0 2\n0 4\n",
    "duplicate-inside-a-run": "5 4\n0 1\n0 2\n0 2\n0 3\n",
    "only-lower-neighbours-and-isolated-middle": "6 3\n0 5\n1 5\n2 5\n",
    "one-vertex-spelled-two-ways": "4 2\n1 2\n01 3\n",
    "whitespace-only-line-without-comments": "3 2\n0 1\n   \n1 2\n",
    "hash-inside-a-data-line": "3 1\n0 1 #x\n",
    "comment-lines-without-blank-lines": "# a\n3 2\n0 1\n# b\n1 2\n",
    "run-fault-in-a-later-block": _run_fault_in_a_later_block(),
    "v-below-u-after-the-first-line-of-a-run": "10 3\n0 1\n3 4\n3 0\n",
    "negative-v-after-the-first-line-of-a-run": "10 3\n0 1\n3 4\n3 -9\n",
    "v-equals-u-after-the-first-line-of-a-run": "10 2\n3 4\n3 3\n",
    **{
        f"line-break-{ord(brk):x}-inside-a-data-line": f"3 1\n0{brk}1\n"
        for brk in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    },
    "fault-on-the-first-line-of-a-later-chunk": _fault_on_the_first_line_of_a_later_chunk(),
    "comment-and-blank-lines-only-in-a-later-chunk": _chunked_edge_list() + "# end\n\n" * 9000,
    "a-chunk-of-comment-and-blank-lines-between-data": _comment_chunks_between_data_chunks(),
    "crlf-over-several-chunks": _chunked_edge_list().replace("\n", "\r\n"),
    "no-final-newline-over-several-chunks": _chunked_edge_list()[:-1],
    "vertex-spelled-two-ways-in-different-chunks": _vertex_spelled_two_ways_in_different_chunks(),
    "run-split-across-two-chunks": "\n".join(_lines_at_the_chunk_boundary()[0]),
    "edge-repeated-across-a-chunk-boundary": _edge_repeated_across_a_chunk_boundary(),
    "lines-swapped-across-a-chunk-boundary": _lines_swapped_across_a_chunk_boundary(),
    "only-lower-neighbours-finished-after-the-last-chunk":
        _only_lower_neighbours_finished_after_the_last_chunk(),
    "line-fault-then-a-count-fault-chunks-later": _line_fault_then_a_count_fault_chunks_later(),
    "fault-in-a-chunk-that-is-not-plain-before-plain-chunks":
        _fault_in_a_chunk_that_is_not_plain_before_plain_chunks(),
}


EDGE_LIST_CASES = (
    [pytest.param(t, id=f"round-trip-{i}") for i, t in
     enumerate(map(oracles.serialize_edge_list_by_edges, _reference_graphs()))]
    + [pytest.param(t, id=name) for name, t in HAND_WRITTEN_EDGE_LISTS.items()]
)


def _edge_list_of(n: int, pairs) -> str:
    pairs = sorted(pairs)
    return f"{n} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs)


def _break_even_edges(n: int) -> int:
    """The fewest edges with which a list on n vertices is transposed."""
    rounds = (n - 1).bit_length()
    return formats._TRANSPOSE_BREAK_EVEN * (1 << rounds - 1) * rounds


def _near_the_break_even(extra: int) -> str:
    """A random list on 64 vertices with `extra` edges more than the
    fewest that take the transposition."""
    pairs = random.Random(3).sample(list(itertools.combinations(range(64), 2)),
                                    _break_even_edges(64) + extra)
    return _edge_list_of(64, pairs)


def _dense_lines() -> tuple[list[str], int]:
    """The lines of a dense random list over several chunks, taken by the
    transposition, and the index of a line inside a run of the second
    chunk."""
    g = oracles.random_graph(300, 0.9, random.Random(5))
    assert len(g.edges()) >= _break_even_edges(300)
    text = oracles.serialize_edge_list_by_edges(g)
    assert len(text) > 4 * _CHUNK_CHARS
    lines = text.split("\n")
    i = text.count("\n", 0, _second_chunk_starts(text)) + 500
    while lines[i].split()[0] != lines[i + 1].split()[0]:
        i += 1
    return lines, i


def _dense_lines_swapped_in_the_second_chunk() -> str:
    lines, i = _dense_lines()
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return "\n".join(lines)


def _dense_duplicate_edge() -> str:
    lines, i = _dense_lines()
    lines[i + 1] = lines[i]
    return "\n".join(lines)


def _dense_v_not_below_n() -> str:
    """The last line of a run in the second chunk joins u to vertex n."""
    lines, i = _dense_lines()
    while lines[i].split()[0] == lines[i + 1].split()[0]:
        i += 1
    lines[i] = lines[i].split()[0] + " 300"
    return "\n".join(lines)


DENSE_EDGE_LISTS = {
    "complete-64": _edge_list_of(64, itertools.combinations(range(64), 2)),
    "dense-random-over-several-chunks": "\n".join(_dense_lines()[0]),
    "one-edge-below-the-break-even": _near_the_break_even(-1),
    "at-the-break-even": _near_the_break_even(0),
    "one-edge-above-the-break-even": _near_the_break_even(1),
    "dense-crlf": "\n".join(_dense_lines()[0]).replace("\n", "\r\n"),
    "dense-after-a-comment-line": "# the header is read line by line\n" + "\n".join(
        _dense_lines()[0]),
    "dense-lines-swapped-in-the-second-chunk": _dense_lines_swapped_in_the_second_chunk(),
    "dense-duplicate-edge-in-the-second-chunk": _dense_duplicate_edge(),
    "dense-v-not-below-n-in-the-second-chunk": _dense_v_not_below_n(),
}


@pytest.mark.parametrize("text", EDGE_LIST_CASES + [
    pytest.param(t, id=name) for name, t in DENSE_EDGE_LISTS.items()
] + [
    # text only: no file holds it, and the reader encodes it to bytes and back
    pytest.param("3 1\n0 \ud800\n", id="lone-surrogate-token"),
])
def test_edge_list_io_matches_the_per_line_references(text):
    """Equal text, an equal Graph, or an equal ValueError message."""
    got = _outcome(parse_edge_list, text)
    assert got == _outcome(oracles.parse_edge_list_by_lines, text)
    if isinstance(got, Graph):
        assert serialize_edge_list(got) == oracles.serialize_edge_list_by_edges(got)


def _multibyte_character_across_a_block_boundary() -> str:
    """A comment line whose two-byte character starts on the last byte of
    the first block that the file reader takes."""
    text = _chunked_edge_list()
    start = text.rfind("\n", 0, _CHUNK_CHARS - 8) + 1
    comment = "#" * (_CHUNK_CHARS - 1 - start) + "\u00e9\n"
    return text[:start] + comment + text[start:]


@pytest.mark.parametrize("text", EDGE_LIST_CASES + [
    pytest.param(_multibyte_character_across_a_block_boundary(),
                 id="multibyte-character-across-a-block-boundary"),
])
def test_edge_list_file_reads_as_its_text(tmp_path, text):
    """RunRecord.graph reads a file's exact bytes one chunk of whole lines at
    a time, and gives the Graph or the error message that parsing the text
    of a text-mode read of the whole file gives (line breaks and all)."""
    path = tmp_path / "g.el"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        want = _outcome(parse_edge_list, fh.read())
    assert _outcome(cli.RunRecord().graph, str(path)) == want


@pytest.mark.parametrize("variant", TWISTED_CHAIN_VARIANTS)
def test_crlf_chain_is_read_in_bulk(tmp_path, monkeypatch, variant):
    """Every chunk of a CRLF copy of a chain is plain, so none is read line
    by line, and the copy gives the Graph of the LF text; two lines swapped
    in a later chunk give the message of the line-by-line reference."""
    plain = formats._plain_pairs
    kinds = []

    def recorded(chunk, lines, to_int):
        pairs = plain(chunk, lines, to_int)
        kinds.append(pairs is not None)
        return pairs

    monkeypatch.setattr(formats, "_plain_pairs", recorded)
    g = twisted_chain(12, variant)
    text = serialize_edge_list(g).replace("\n", "\r\n")
    path = tmp_path / "g.el"
    path.write_bytes(text.encode())
    for got in (parse_edge_list(text), cli.RunRecord().graph(str(path))):
        assert (got.n, got.adj) == (g.n, g.adj)
    assert len(kinds) > 4 and all(kinds)
    lines = text.split("\r\n")
    i = text.count("\r\n", 0, _CHUNK_CHARS) + 5
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    bad = "\r\n".join(lines)
    path.write_bytes(bad.encode())
    want = _outcome(oracles.parse_edge_list_by_lines, bad)
    assert want == f"ValueError: line {i + 2}: edges are not strictly sorted"
    assert _outcome(parse_edge_list, bad) == _outcome(cli.RunRecord().graph, str(path)) == want


@pytest.mark.parametrize("name, transposed", [
    ("complete-64", True),
    ("dense-random-over-several-chunks", True),
    ("one-edge-below-the-break-even", False),
    ("at-the-break-even", True),
    ("one-edge-above-the-break-even", True),
    ("dense-crlf", True),
    ("dense-after-a-comment-line", True),
])
def test_the_header_picks_the_route_to_the_lower_triangle(monkeypatch, name, transposed):
    """A list transposes its rows once when its header counts at least
    _TRANSPOSE_BREAK_EVEN edges per row pair of the transposition's
    rounds, and ORs each edge into the row of its upper end otherwise."""
    calls = []
    transpose = formats._transposed

    def recorded(rows):
        calls.append(len(rows))
        return transpose(rows)

    monkeypatch.setattr(formats, "_transposed", recorded)
    g = parse_edge_list(DENSE_EDGE_LISTS[name])
    assert calls == ([g.n] if transposed else [])


@pytest.mark.parametrize("density", [0, 0.05, 0.5, 1])
@pytest.mark.parametrize("shape", ["upper", "full"])
def test_transposed_matches_a_per_bit_transpose(shape, density):
    """Seeded square bit matrices of orders 1-70 and 127-129, strictly
    upper-triangular or full, with about one row in five zero; the input
    rows are left as they were."""
    rng = random.Random(7)
    for n in [*range(1, 71), 127, 128, 129]:
        rows = [
            sum(1 << c for c in range(r + 1 if shape == "upper" else 0, n)
                if rng.random() < density)
            if rng.random() < 0.8 else 0
            for r in range(n)
        ]
        before = list(rows)
        want = [sum((rows[c] >> r & 1) << c for c in range(n)) for r in range(n)]
        assert formats._transposed(rows) == want
        assert rows == before


@pytest.mark.parametrize("text", ["3 2\n0 1\n1 2\n", "3 2\n0 1\n1 x\n", "3 1\r\n\r\n0 2"])
def test_edge_list_pipe_is_read_whole(text):
    """A pipe cannot be read a second time for the decode error of a file
    that is not UTF-8, so it is read whole, and gives what its text gives."""
    read, write = os.pipe()
    os.write(write, text.encode())
    os.close(write)
    try:
        got = _outcome(cli.RunRecord().graph, f"/dev/fd/{read}")
    finally:
        os.close(read)
    assert got == _outcome(parse_edge_list, text)


@pytest.mark.parametrize("at, header", [
    pytest.param(5, None, id="5"),
    pytest.param(_CHUNK_CHARS + 5, None, id=str(_CHUNK_CHARS + 5)),
    pytest.param(_CHUNK_CHARS + 5, "300 x", id=f"header-fault-and-{_CHUNK_CHARS + 5}"),
])
def test_edge_list_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, at, header):
    """A byte that is not UTF-8, in the first chunk or a later one, exits 2
    with the message of a text-mode read of the whole file, even after a
    faulty header (which a whole read would name when the file decodes)."""
    text = _chunked_edge_list()
    if header is not None:
        text = header + text[text.index("\n"):]
    path = tmp_path / "g.el"
    path.write_bytes(text[:at].encode() + b"\xff" + text[at:].encode())
    with pytest.raises(UnicodeDecodeError) as err:
        with open(path, encoding="utf-8") as fh:
            fh.read()
    assert cli.main(["width", "treedepth", "-i", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {err.value}\n")


def _traced_peak(call):
    """call()'s value and its peak of traced memory."""
    tracemalloc.start()
    try:
        value = call()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_edge_list_chunks_are_groups_of_whole_rows():
    """A text shorter than _CHUNK_CHARS is one piece, so that even an
    unbuffered stdout writes it at once and a reader that stops after the
    first line (`| head -n 1`) breaks no later write; a longer text comes
    in pieces of whole lines of at least _CHUNK_CHARS, the last aside."""
    assert list(edge_list_chunks(h_graph(3, 3))) == [serialize_edge_list(h_graph(3, 3))]
    pieces = list(edge_list_chunks(twisted_chain(24)))
    assert len(pieces) > 1
    assert all(len(p) >= _CHUNK_CHARS for p in pieces[:-1])
    assert all(p.endswith("\n") for p in pieces)


def test_gen_writes_its_edge_list_as_the_rows_come(tmp_path):
    """The order-24 chain's 2.9 MB edge list is written a group of rows at a
    time: about 0.5x the file at peak under tracemalloc, against 3.5x when
    the text was joined whole."""
    path = tmp_path / "chain24.el"
    code, peak = _traced_peak(lambda: cli.main(["gen", "chain", "--order", "24", "-o", str(path)]))
    assert code == 0
    assert peak < path.stat().st_size


def test_edge_list_file_is_read_one_chunk_at_a_time(tmp_path):
    """RunRecord.graph holds neither the bytes nor the text of the order-24
    chain's file whole: about 0.46x the file at peak, against 2x when the
    whole text was read before the parse."""
    g = twisted_chain(24)
    path = tmp_path / "chain24.el"
    path.write_text(serialize_edge_list(g))
    got, peak = _traced_peak(lambda: cli.RunRecord().graph(str(path)))
    assert got.adj == g.adj
    assert peak < 0.75 * path.stat().st_size


def test_transposed_chain_read_peaks_no_higher_than_a_per_edge_read(tmp_path):
    """The order-24 chain's 332,352 edges on 1,728 vertices take the
    transposition (about 29 edges per row pair of its rounds), and its
    file is read under 0.625x the file at peak (1.84 MB) under
    tracemalloc, the peak of a read that ORed each edge into a row and
    decoded every chunk: about 0.46x now."""
    g = twisted_chain(24)
    text = serialize_edge_list(g)
    assert formats._transposes(g.n, text.count("\n") - 1)
    path = tmp_path / "chain24.el"
    path.write_text(text)
    got, peak = _traced_peak(lambda: cli.RunRecord().graph(str(path)))
    assert got.adj == g.adj
    assert peak < 0.625 * path.stat().st_size


def test_edge_list_file_with_a_faulty_last_line_is_read_one_chunk_at_a_time(tmp_path):
    """A third token on the last line of the order-24 chain's file is named
    in the one pass of a clean read, under the same bound: about 0.46x the
    file at peak, against about 19x when the whole text was read again and
    its every line listed to name the fault."""
    text = serialize_edge_list(twisted_chain(24))
    path = tmp_path / "chain24.el"
    path.write_text(text[:-1] + " 7\n")
    got, peak = _traced_peak(lambda: _outcome(cli.RunRecord().graph, str(path)))
    assert got == f"ValueError: line {text.count(chr(10))}: edge line must be 'u v'"
    assert peak < 0.75 * path.stat().st_size


def test_parse_edge_list_peak_stays_within_a_few_times_the_text():
    """The order-24 chain: 332,352 edges in 2.9 MB of text, read one chunk
    at a time into rows (about 0.43x the text at peak)."""
    text = serialize_edge_list(twisted_chain(24))
    tracemalloc.start()
    try:
        parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(text)


def test_parse_edge_list_memory_follows_the_edges_not_the_order():
    """One far edge must not cost a byte per pair of vertices (400 MB here)."""
    tracemalloc.start()
    try:
        parse_edge_list("20000 1\n0 19999\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_parse_refuses_a_header_above_the_vertex_limit():
    """Refused before any list of n entries is built: at n = 10^9 those
    would take tens of GB (93 bytes per vertex were measured at n = 200,000)."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            parse_edge_list("1000000000 1\n0 999999999\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "line 1: 1000000000 vertices exceed the limit of 1048576"
    assert peak < 2**20
    with pytest.raises(ValueError, match=f"^line 2: {MAX_VERTICES + 1} vertices exceed"):
        parse_edge_list(f"# comment\n{MAX_VERTICES + 1} 0\n")


def test_labels_round_trip():
    g = h_graph(2, 3)
    labels = labels_from_json(labels_to_json(g))
    assert labels == tuple(dict(l) for l in g.labels)


@pytest.mark.parametrize("text", ["[1, 2, 3]", '["ab"]', "[{}, null]"])
def test_labels_from_json_rejects_entries_that_are_not_objects(text):
    with pytest.raises(ValueError, match="^label sidecar entries must be JSON objects$"):
        labels_from_json(text)


def test_labels_from_json_refuses_a_repeated_key():
    with pytest.raises(ValueError, match='^a JSON object repeats the key "row"$'):
        labels_from_json('[{"block": "C", "row": 1, "row": 2, "col": 1}]')


@pytest.mark.parametrize("obj, message", [
    ([0, 1], 'partition must be a JSON object with "S" and "T" arrays'),
    ({"S": 5, "T": []}, 'partition "S" must be an array of vertex ids'),
    ({"S": [0], "T": "1"}, 'partition "T" must be an array of vertex ids'),
    ({"S": [[0]], "T": []}, 'partition "S" must be an array of vertex ids'),
    ({"S": [0]}, 'partition has no "T" array'),
    ({"T": [0]}, 'partition has no "S" array'),
    ({"S": [0, 4], "T": [1, 2]}, "S contains vertices outside the graph"),
    ({"S": [0], "T": [1]}, "S and T do not partition the vertex set"),
    ({"S": [0], "T": [1, -2]}, "S and T do not partition the vertex set"),
    ({"S": [0], "T": [0, 2]}, "S and T do not partition the vertex set"),
    ({"S": [0], "T": [1, 2, 5]}, "S and T do not partition the vertex set"),
    ({"S": [0, 0], "T": [1, 2]}, "S and T do not partition the vertex set"),
    ({"S": [0], "T": [1, 2, 2]}, "S and T do not partition the vertex set"),
])
def test_partition_from_obj_names_the_fault(obj, message):
    with pytest.raises(ValueError) as err:
        partition_from_obj(obj, build_graph(3, [(0, 1)]))
    assert str(err.value) == message


def test_coloring_round_trip():
    c = Coloring((1, 3, 2, 3), 3)
    assert coloring_from_obj(coloring_to_obj(c)) == c



@pytest.mark.parametrize("obj, message", [
    ([1, 2], 'coloring must be a JSON object with "colors" and "palette_size"'),
    ({"palette_size": 2}, 'coloring has no "colors"'),
    ({"colors": [1]}, 'coloring has no "palette_size"'),
    ({"palette_size": 7, "colors": 7}, 'coloring "colors" must be an array of colors'),
    ({"palette_size": 2, "colors": [1.5, 1]}, "vertex 0 has color 1.5, not an integer"),
    ({"palette_size": "2", "colors": [1]}, "palette size '2' is not an integer"),
])
def test_coloring_from_obj_names_the_fault(obj, message):
    with pytest.raises(ValueError) as err:
        coloring_from_obj(obj)
    assert str(err.value) == message


@pytest.mark.parametrize("obj, message", [
    ("tree", 'decomposition must be a JSON object with "nodes", "edges" and "leaf_map"'),
    ({"edges": [], "leaf_map": []}, 'decomposition has no "nodes"'),
    ({"nodes": 2, "leaf_map": []}, 'decomposition has no "edges"'),
    ({"nodes": 2, "edges": []}, 'decomposition has no "leaf_map"'),
    ({"nodes": "2", "edges": [], "leaf_map": []}, 'decomposition "nodes" must be an integer'),
    ({"nodes": 2, "edges": 5, "leaf_map": []},
     'decomposition "edges" must be an array of [a, b] node pairs'),
    ({"nodes": 2, "edges": [[0, 1, 2]], "leaf_map": []},
     'decomposition "edges" must be an array of [a, b] node pairs'),
    ({"nodes": 2, "edges": [[0, 1]], "leaf_map": [[0, 0]]},
     'decomposition "leaf_map" must be an array of {"leaf": t, "vertex": v} objects'),
    ({"nodes": 2, "edges": [[0, 1]], "leaf_map": [{"leaf": 0}]},
     'decomposition "leaf_map" must be an array of {"leaf": t, "vertex": v} objects'),
])
def test_decomposition_from_obj_names_the_fault(obj, message):
    with pytest.raises(ValueError) as err:
        decomposition_from_obj(obj)
    assert str(err.value) == message


def test_decomposition_round_trip():
    g = build_graph(5, [(i, i + 1) for i in range(4)])
    D = rank_width_exact(g).decomposition
    assert decomposition_from_obj(decomposition_to_obj(D)) == D


# -- CLI ----------------------------------------------------------------------------


def run(args):
    return cli.main(args)


UNRECOGNIZED = "rwcolor: error: unrecognized arguments: "


def usage_error(capsys) -> str:
    """The last line of a usage error, which writes nothing to stdout."""
    out, err = capsys.readouterr()
    assert out == ""
    return err.splitlines()[-1]


def test_cli_gen_golden(tmp_path):
    out = tmp_path / "h.el"
    labels = tmp_path / "h.json"
    assert run(["gen", "h", "--n", "3", "--m", "3", "-o", str(out), "--labels", str(labels)]) == 0
    text = out.read_text()
    assert text.startswith("9 12\n")
    assert json.loads(labels.read_text())[0] == {"col": 1, "row": 1}
    # byte-stable across a second run
    out2 = tmp_path / "h2.el"
    run(["gen", "h", "--n", "3", "--m", "3", "-o", str(out2)])
    assert out2.read_text() == text


def test_cli_writes_the_edge_list_text_byte_for_byte(tmp_path, capsys, monkeypatch):
    """`gen chain` and `power` write their edge lists chunk by chunk, to a
    file or to stdout, as exactly the bytes of `serialize_edge_list`."""
    made = []
    generate = cli._generate

    def keep(*args):
        made.append(generate(*args))
        return made[-1]

    monkeypatch.setattr(cli, "_generate", keep)
    out = tmp_path / "g.el"
    for order in range(12, 37):
        for variant in TWISTED_CHAIN_VARIANTS:
            assert run(["gen", "chain", "--order", str(order), "--variant", variant,
                        "-o", str(out)]) == 0
            assert out.read_bytes() == serialize_edge_list(made.pop()).encode(), (order, variant)
    assert run(["gen", "grid", "--a", "6", "--b", "7", "-o", str(out)]) == 0
    want = serialize_edge_list(power(grid(6, 7), 2))
    assert run(["power", "-r", "2", "-i", str(out), "-o", str(tmp_path / "p.el")]) == 0
    assert (tmp_path / "p.el").read_bytes() == want.encode()
    capsys.readouterr()
    assert run(["power", "-r", "2", "-i", str(out)]) == 0
    assert capsys.readouterr() == (want, "")


def test_cli_lowrw_verify_pipeline(tmp_path):
    grid4 = tmp_path / "grid4.el"
    grid4pow = tmp_path / "grid4pow.el"
    col = tmp_path / "col.json"
    prof = tmp_path / "prof.json"
    assert run(["gen", "grid", "--a", "4", "--b", "4", "-o", str(grid4)]) == 0
    assert run(["power", "-r", "2", "-i", str(grid4), "-o", str(grid4pow)]) == 0
    assert run([
        "color", "lowrw", "-r", "2", "-p", "2", "-i", str(grid4),
        "-o", str(col), "--profile", str(prof),
    ]) == 0
    assert run([
        "verify", "coloring", "--mode", "lowrw", "-p", "2",
        "-i", str(grid4pow), "-c", str(col), "-o", str(tmp_path / "check.json"),
    ]) == 0
    prof_obj = json.loads(prof.read_text())
    assert prof_obj["q"]["1"] > 0


def test_cli_verify_failure_exit_code(tmp_path):
    k5 = tmp_path / "k5.el"
    col = tmp_path / "c.json"
    edges = list(itertools.combinations(range(5), 2))
    k5.write_text(serialize_edge_list(build_graph(5, edges)))
    col.write_text(json.dumps({"palette_size": 1, "colors": [1] * 5, "q": {"1": 0}}))
    assert run([
        "verify", "coloring", "--mode", "lowrw", "-p", "1", "-i", str(k5),
        "-c", str(col), "-o", str(tmp_path / "out.json"),
    ]) == 1


def test_cli_verify_writes_one_verdict_shape_in_both_modes(tmp_path):
    p4, col = tmp_path / "p4.el", tmp_path / "c.json"
    td, lowrw = tmp_path / "td.json", tmp_path / "lowrw.json"
    assert run(["gen", "path", "--n", "4", "-o", str(p4)]) == 0
    assert run(["color", "td", "-p", "2", "-i", str(p4), "-o", str(col)]) == 0
    assert run(["verify", "coloring", "--mode", "td", "-p", "2", "-i", str(p4),
                "-c", str(col), "-o", str(td)]) == 0
    assert run(["verify", "coloring", "--mode", "lowrw", "-p", "2", "-i", str(p4),
                "-c", str(col), "--q-linear", "1", "-o", str(lowrw)]) == 0
    td_obj, lowrw_obj = json.loads(td.read_text()), json.loads(lowrw.read_text())
    assert set(td_obj) == set(lowrw_obj)
    assert not {"d", "radius", "base_colors"} & set(lowrw_obj)
    assert td_obj["q"] == {"1": 1, "2": 2} and td_obj["measured"] == {}
    assert lowrw_obj["measured"] == {"1": {"width": 0, "method": "exact"},
                                     "2": {"width": 1, "method": "exact"}}


def test_cli_verify_lowrw_names_the_size_and_width_of_a_refuted_union(tmp_path):
    # K5 beside P20 as one class: K5 is solved exactly with width 1 > Q(1) = 0,
    # while P20 is above the exact cap and only bounded
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(v, v + 1) for v in range(5, 24)]
    g_el, col, out = tmp_path / "g.el", tmp_path / "c.json", tmp_path / "v.json"
    g_el.write_text(serialize_edge_list(build_graph(25, edges)))
    col.write_text(json.dumps({"palette_size": 1, "colors": [1] * 25}))
    assert run(["verify", "coloring", "--mode", "lowrw", "-p", "1", "-i", str(g_el),
                "-c", str(col), "--q-linear", "0", "-o", str(out)]) == 1
    verdict = json.loads(out.read_text())
    assert verdict["failures"] == [{"colors": [1], "size": 1, "width": 1}]
    assert verdict["inconclusive"] == []
    assert verdict["measured"] == {"1": {"width": 1, "method": "upper-bound"}}


def test_cli_verify_q_linear_sizes_the_budget_by_the_walk(tmp_path):
    # the walk reads sizes up to min(p, colours used), so a huge p builds no more
    p4, col = tmp_path / "p4.el", tmp_path / "c.json"
    small, huge = tmp_path / "small.json", tmp_path / "huge.json"
    assert run(["gen", "path", "--n", "4", "-o", str(p4)]) == 0
    assert run(["color", "td", "-p", "2", "-i", str(p4), "-o", str(col)]) == 0
    for budget in (["--q-linear", "1"], ["--mode", "td"]):
        for p, out in (("4", small), ("1000000000", huge)):
            assert run(["verify", "coloring", "-p", p, *budget, "-i", str(p4),
                        "-c", str(col), "-o", str(out)]) == 0
        assert huge.read_bytes() == small.read_bytes()


def test_cli_color_lowrw_sizes_the_budget_by_the_walk(tmp_path):
    # P4 at r = 2 uses 4 colours; at p = 3000 the table once had 3000 entries,
    # whose largest ran past Python's 4300-digit limit on int to str
    p4, col = tmp_path / "p4.el", tmp_path / "c.json"
    assert run(["gen", "path", "--n", "4", "-o", str(p4)]) == 0
    assert run(["color", "lowrw", "-r", "2", "-p", "3000", "-i", str(p4), "-o", str(col)]) == 0
    obj = json.loads(col.read_text())
    assert obj["p"] == 3000
    assert list(obj["q"]) == ["1", "2", "3", "4"]


def test_cli_verify_q_linear_overrides_an_embedded_budget(tmp_path):
    g, col, out = tmp_path / "g.el", tmp_path / "c.json", tmp_path / "v.json"
    assert run(["gen", "grid", "--a", "3", "--b", "3", "-o", str(g)]) == 0
    assert run(["color", "lowrw", "-p", "2", "-i", str(g), "-o", str(col)]) == 0
    verify = ["verify", "coloring", "-p", "2", "-i", str(g), "-c", str(col), "-o", str(out)]
    assert run(verify) == 0  # the embedded q is the Gurski-Wanke budget
    # an explicit Q(i) = 0 * i wins over it and refutes a class with an edge
    assert run(verify + ["--q-linear", "0"]) == 1
    verdict = json.loads(out.read_text())
    assert verdict["q"] == {"1": 0, "2": 0}
    assert verdict["failures"][0]["width"] == 1


def test_cli_verify_takes_one_budget_option(cli_files, capsys):
    assert run(["verify", "coloring", "-p", "1", "-i", cli_files["p4"], "-c", cli_files["col"],
                "--profile", cli_files["col"], "--q-linear", "1"]) == 2
    assert usage_error(capsys) == (
        "rwcolor verify coloring: error: argument --q-linear: not allowed with argument --profile"
    )


def test_cli_color_lowrw_profile_is_a_budget_without_a_verdict(tmp_path):
    grid3, prof = tmp_path / "grid3.el", tmp_path / "prof.json"
    assert run(["gen", "grid", "--a", "3", "--b", "3", "-o", str(grid3)]) == 0
    assert run(["color", "lowrw", "-r", "2", "-p", "1", "-i", str(grid3),
                "-o", str(tmp_path / "col.json"), "--profile", str(prof)]) == 0
    obj = json.loads(prof.read_text())
    assert "measured" not in obj and "verified" not in obj
    assert set(obj) == {"p", "n_colors", "d", "radius", "q", "base_colors"}
    # the profile states the colouring's own numbers
    for r in (2, 3):
        col = tmp_path / f"col{r}.json"
        assert run(["color", "lowrw", "-r", str(r), "-p", "2", "-i", str(grid3),
                    "-o", str(col), "--profile", str(prof)]) == 0
        obj, colored = json.loads(prof.read_text()), json.loads(col.read_text())
        same = {"n_colors": "palette_size", "base_colors": "base_palette", "d": "d",
                "radius": "radius", "p": "p", "q": "q"}
        assert {k: obj[k] for k in same} == {k: colored[v] for k, v in same.items()}
        assert obj["radius"] == r and obj["p"] == 2 and list(obj["q"]) == ["1", "2"]


def test_cli_width_rank_exact(tmp_path):
    c5 = tmp_path / "c5.el"
    rep = tmp_path / "rep.json"
    assert run(["gen", "cycle", "--n", "5", "-o", str(c5)]) == 0
    assert run(["width", "rank", "--exact", "-i", str(c5), "-o", str(rep)]) == 0
    obj = json.loads(rep.read_text())
    assert obj["value"] == 2 and obj["method"] == "exact"


def test_cli_width_rank_above_the_cap_names_the_upper_option(tmp_path, capsys):
    path = tmp_path / "p.el"
    assert run(["gen", "path", "--n", "15", "-o", str(path)]) == 0
    assert run(["width", "rank", "-i", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: exact rank-width is capped at n=14; use --upper instead\n"
    )


def test_cli_width_rank_upper_on_one_vertex(tmp_path):
    k1 = tmp_path / "k1.el"
    rep = tmp_path / "rep.json"
    k1.write_text("1 0\n")
    assert run(["width", "rank", "--upper", "-i", str(k1), "-o", str(rep)]) == 0
    assert json.loads(rep.read_text()) == {"value": 0, "method": "upper-bound"}


def test_cli_width_treedepth(tmp_path):
    p4 = tmp_path / "p4.el"
    run(["gen", "path", "--n", "4", "-o", str(p4)])
    out = tmp_path / "td.json"
    assert run(["width", "treedepth", "-i", str(p4), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["value"] == 3


def test_cli_usage_errors():
    assert run(["gen", "nosuchfamily"]) == 2
    assert run(["width", "rank", "-i", "/nonexistent/file.el"]) == 2
    assert run([]) == 2


def test_cli_verify_decomposition(tmp_path):
    p4 = tmp_path / "p4.el"
    run(["gen", "path", "--n", "4", "-o", str(p4)])
    dec = tmp_path / "dec.json"
    g = parse_edge_list(p4.read_text())
    D = rank_width_exact(g).decomposition
    dec.write_text(json.dumps(decomposition_to_obj(D)))
    assert run(["verify", "decomposition", "-i", str(p4), "-d", str(dec),
                "-o", str(tmp_path / "w.json")]) == 0
    bad = decomposition_to_obj(D)
    bad["leaf_map"][0]["vertex"] = bad["leaf_map"][1]["vertex"]
    dec.write_text(json.dumps(bad))
    assert run(["verify", "decomposition", "-i", str(p4), "-d", str(dec)]) == 1


def test_cli_verify_decomposition_edge_outside_the_node_range(tmp_path, capsys):
    p3 = tmp_path / "p3.el"
    run(["gen", "path", "--n", "3", "-o", str(p3)])
    bad = tmp_path / "bad.json"
    for edge, shown in (([2, 7], "(2, 7)"), ([2, -1], "(2, -1)")):
        bad.write_text(json.dumps({
            "nodes": 4,
            "edges": [[0, 3], [1, 3], edge],
            "leaf_map": [{"leaf": t, "vertex": t} for t in range(3)],
        }))
        assert run(["verify", "decomposition", "-i", str(p3), "-d", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err == f"invalid decomposition: edge {shown} leaves the node range\n"


def test_cli_lab_certificate_harness(tmp_path):
    out = tmp_path / "harness.csv"
    assert run([
        "lab", "certificate", "--order", "12", "--seeds", "5", "--csv", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "seed,achieved_order,verified"
    assert len(lines) == 6
    assert all(line.endswith("true") for line in lines[1:])


@pytest.mark.parametrize("argv", [
    ["lab", "extract", "--colors", "2"],
    ["gen", "chain"],
    ["gen", "model", "--kind", "interval"],
    ["gen", "model", "--kind", "segment"],
])
@pytest.mark.parametrize("order", ["0", "-1"])
def test_cli_order_below_one_is_usage_error_naming_the_option(argv, order, capsys):
    assert run(argv + ["--order", order]) == 2
    assert capsys.readouterr() == ("", "error: --order must be >= 1\n")


@pytest.mark.parametrize("argv", [
    ["lab", "certificate", "--order", "12"],
    ["lab", "ramsey", "--size", "4"],
])
def test_cli_lab_harness_refuses_the_output_option(tmp_path, argv, capsys):
    """`lab certificate` takes -o in its -i form and refuses it here;
    `lab ramsey` has no -o at all."""
    out = tmp_path / "harness.csv"
    assert run(argv + ["-o", str(out)]) == 2
    assert usage_error(capsys) == (
        "error: the harness writes its CSV to --csv, not to -o/--output"
        if argv[1] == "certificate" else f"{UNRECOGNIZED}-o {out}"
    )
    assert not out.exists()


def test_cli_lab_extract(tmp_path):
    out = tmp_path / "extract.json"
    assert run([
        "lab", "extract", "--order", "12", "--colors", "2", "--target", "2",
        "--seed", "3", "-o", str(out),
    ]) == 0
    obj = json.loads(out.read_text())
    assert obj["achieved"] >= 1


@pytest.mark.parametrize("colors", ["0", "-1"])
def test_cli_lab_extract_without_colors_is_usage_error(colors, capsys):
    assert run(["lab", "extract", "--order", "2", "--colors", colors]) == 2
    assert capsys.readouterr().err == "error: --colors must be >= 1\n"


@pytest.mark.parametrize("target", ["0", "-1"])
def test_cli_lab_extract_with_target_below_one_is_usage_error(target, monkeypatch, capsys):
    # refused, naming the option, before the order-150 chain is built
    monkeypatch.setattr(cli, "twisted_chain", None)
    assert run(["lab", "extract", "--order", "150", "--colors", "2", "--target", target]) == 2
    assert capsys.readouterr() == ("", "error: --target must be >= 1\n")


@pytest.mark.parametrize("argv", [
    ["lab", "certificate", "--order", "12"],
    ["lab", "ramsey", "--size", "4"],
])
@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_cli_lab_harness_without_seeds_is_usage_error(argv, seeds, capsys):
    assert run(argv + ["--seeds", seeds]) == 2
    assert capsys.readouterr() == ("", "error: --seeds must be >= 1\n")


@pytest.mark.parametrize("order", ["-1", "0", "1", "2", "11"])
def test_cli_lab_certificate_harness_below_order_12_is_usage_error(order, monkeypatch, capsys):
    # refused before any bipartition is drawn
    monkeypatch.setattr(cli, "chain_bipartition", None)
    assert run(["lab", "certificate", "--order", order, "--seeds", "2"]) == 2
    assert capsys.readouterr() == ("", "error: --order must be >= 12\n")


@pytest.mark.parametrize("d", ["0", "-1"])
def test_cli_lab_ramsey_with_d_below_one_is_usage_error(d, capsys):
    argv = ["lab", "ramsey", "--k", "2", "--d", d, "--size", "4", "--seeds", "1"]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", "error: --d must be >= 1\n")


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("option", ["--k", "--size"])
def test_cli_lab_ramsey_with_k_or_size_below_one_is_usage_error(option, value, capsys):
    # checked before the --size x --size table is drawn
    argv = ["lab", "ramsey", "--k", "2", "--d", "2", "--size", "4", "--seeds", "1"]
    argv[argv.index(option) + 1] = value
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {option} must be >= 1\n")


@pytest.mark.parametrize("k, d, code", [("2000", "2000", 1), ("1", "1000000", 0)])
def test_cli_lab_ramsey_compares_with_a_threshold_out_of_reach(monkeypatch, tmp_path, k, d,
                                                               code):
    # k * d**(d*k) has 43.9 M bits at k = d = 2000 and 19.9 M bits at k = 1,
    # d = 10**6, seconds to build; the run may only learn that it exceeds
    # --size.  A 1 x 1 block is found on every seed, so k = 1 reaches the
    # guarantee check that compares with the threshold.
    def built(k, d):
        raise AssertionError(f"ramsey_threshold({k}, {d}) built in full")

    monkeypatch.setattr(lab, "ramsey_threshold", built)
    monkeypatch.setattr(cli, "ramsey_threshold", built, raising=False)
    out = tmp_path / "ramsey.csv"
    assert run(["lab", "ramsey", "--k", k, "--d", d, "--size", "4",
                "--seeds", "3", "--csv", str(out)]) == code
    lines = out.read_text().splitlines()
    assert lines[0] == "seed,achieved_order,verified" and len(lines) == 4


def test_cli_eh_and_chi(tmp_path):
    k8 = tmp_path / "k8.el"
    k8.write_text(serialize_edge_list(build_graph(8, list(itertools.combinations(range(8), 2)))))
    wit = tmp_path / "wit.json"
    assert run(["eh", "extract", "-i", str(k8), "--classes", "2", "--width-bound", "1",
                "-o", str(wit)]) == 0
    obj = json.loads(wit.read_text())
    assert obj["kind"] == "clique" and len(obj["vertices"]) >= 2

    col = tmp_path / "c.json"
    col.write_text(json.dumps({"palette_size": 2, "colors": [1, 2] * 4}))
    prod = tmp_path / "prod.json"
    assert run(["chi", "product", "-i", str(k8), "-c", str(col), "-o", str(prod)]) == 0
    out = coloring_from_obj(json.loads(prod.read_text()))
    assert len(set(out.colors)) == out.palette_size


def test_cli_manifest_rerun_reproducible(tmp_path):
    out = tmp_path / "g.el"
    man = tmp_path / "run.json"
    assert run([
        "gen", "random", "--n", "30", "--d", "2", "--seed", "7",
        "-o", str(out), "--manifest", str(man),
    ]) == 0
    first = out.read_text()
    manifest = json.loads(man.read_text())
    assert manifest["seeds"] == [7]
    out.unlink()
    assert run(["rerun", "--manifest", str(man)]) == 0
    assert out.read_text() == first


@pytest.fixture
def cli_files(tmp_path):
    """Input files for the CLI: a 12-chain edge list with its label sidecar and
    one balanced partition, and P4 with a one-class coloring and a decomposition."""
    paths = {k: tmp_path / name for k, name in [
        ("el", "chain.el"), ("labels", "labels.json"), ("part", "part.json"),
        ("p4", "p4.el"), ("col", "col.json"), ("dec", "dec.json")]}
    assert run(["gen", "chain", "--order", "12", "-o", str(paths["el"]),
                "--labels", str(paths["labels"])]) == 0
    part = random_balanced_bipartition(twisted_chain(12), 5)
    paths["part"].write_text(json.dumps(partition_to_obj(part)))
    assert run(["gen", "path", "--n", "4", "-o", str(paths["p4"])]) == 0
    paths["col"].write_text(json.dumps({"palette_size": 1, "colors": [1] * 4}))
    D = rank_width_exact(parse_edge_list(paths["p4"].read_text())).decomposition
    paths["dec"].write_text(json.dumps(decomposition_to_obj(D)))
    return {k: str(p) for k, p in paths.items()}


@pytest.mark.parametrize("argv, option", [
    (["verify", "coloring", "-i", "{el}"], "-c/--coloring"),
    (["verify", "decomposition", "-i", "{el}"], "-d/--decomposition"),
    (["gen", "map"], "-i/--input"),
    (["gen", "linegraph"], "-i/--input"),
    (["color", "refine", "-i", "{el}"], "-c/--coloring"),
    (["lab", "certificate", "-i", "{el}", "--partition", "{part}"], "--labels"),
    (["lab", "certificate", "-i", "{el}", "--labels", "{labels}"], "--partition"),
])
def test_cli_missing_file_option_is_usage_error(cli_files, tmp_path, capsys, argv, option):
    """argparse names the option; the -i form of `lab certificate`, which
    shares its name with the harness, checks its two sidecars by hand."""
    man = tmp_path / "run.json"
    assert run([a.format(**cli_files) for a in argv] + ["--manifest", str(man)]) == 2
    assert usage_error(capsys) == (
        "error: lab certificate -i needs --labels and --partition"
        if argv[:2] == ["lab", "certificate"]
        else f"rwcolor {' '.join(argv[:2])}: error: the following arguments are required: {option}"
    )
    assert not man.exists()


@pytest.mark.parametrize("sidecar, text, message", [
    ("labels", "[1, 2, 3]", "label sidecar entries must be JSON objects"),
    ("labels", '["ab"]', "label sidecar entries must be JSON objects"),
    ("part", "[0, 1]", 'partition must be a JSON object with "S" and "T" arrays'),
    ("part", '{"S": 5, "T": []}', 'partition "S" must be an array of vertex ids'),
    ("part", '{"S": [0, 1]}', 'partition has no "T" array'),
])
def test_cli_lab_certificate_malformed_sidecar_is_usage_error(cli_files, capsys, sidecar, text,
                                                              message):
    """Exit 2 names the fault; exit 1 would read as an unverified certificate."""
    with open(cli_files[sidecar], "w") as f:
        f.write(text)
    argv = ["lab", "certificate", "-i", cli_files["el"], "--labels", cli_files["labels"],
            "--partition", cli_files["part"]]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_lab_certificate_of_an_imbalanced_partition_exits_one(cli_files, tmp_path):
    """S = the C block of the order-12 chain holds every z on one side: no
    certificate, and the imbalance is written instead."""
    c0 = 2 * 144
    with open(cli_files["part"], "w") as f:
        json.dump({"S": list(range(c0, c0 + 144)), "T": list(range(c0))}, f)
    out = tmp_path / "imbalance.json"
    assert run(["lab", "certificate", "-i", cli_files["el"], "--labels", cli_files["labels"],
                "--partition", cli_files["part"], "-o", str(out)]) == 1
    assert json.loads(out.read_text()) == {
        "imbalance": {"c_size": 144, "heavy_count": 144, "heavy_side": "S"}}


@pytest.mark.parametrize("argv, code", [
    (["verify", "decomposition", "-i", "{p4}", "-d", "{dec}"], 0),
    (["verify", "coloring", "--mode", "td", "-p", "1", "-i", "{p4}", "-c", "{col}"], 1),
    (["lab", "certificate", "-i", "{el}", "--labels", "{labels}", "--partition", "{part}"], 0),
])
def test_cli_manifest_written_for_every_finished_command(cli_files, tmp_path, argv, code):
    out = tmp_path / "out.json"
    man = tmp_path / "run.json"
    argv = [a.format(**cli_files) for a in argv] + ["-o", str(out), "--manifest", str(man)]
    assert run(argv) == code
    manifest = json.loads(man.read_text())
    file_options = ("-i", "-c", "-d", "--labels", "--partition")
    read = [argv[k + 1] for k, a in enumerate(argv) if a in file_options]
    assert manifest["argv"] == argv and manifest["inputs"] == read
    assert manifest["outputs"] == [str(out)]
    first = out.read_text()
    out.unlink()
    assert run(["rerun", "--manifest", str(man)]) == code
    assert out.read_text() == first


@pytest.mark.parametrize("argv, read, written", [
    (["gen", "chain", "--order", "12", "--labels", "{tmp}/l.json", "-o", "{out}"],
     [], ["{out}", "{tmp}/l.json"]),
    (["gen", "model", "--order", "2", "--model-out", "{tmp}/m.json", "-o", "{out}"],
     [], ["{tmp}/m.json", "{out}"]),
    (["wcol", "-r", "2", "-i", "{p4}", "--order-out", "{tmp}/L.json", "-o", "{out}"],
     ["{p4}"], ["{out}", "{tmp}/L.json"]),
    (["color", "lowrw", "-p", "1", "-i", "{p4}", "--profile", "{tmp}/q.json", "-o", "{out}"],
     ["{p4}"], ["{tmp}/q.json", "{out}"]),
    (["verify", "coloring", "-p", "1", "-i", "{p4}", "-c", "{col}", "--profile", "{tmp}/q.json",
      "-o", "{out}"],
     ["{p4}", "{col}", "{tmp}/q.json"], ["{out}"]),
    (["report", "sweep", "--spec", "{tmp}/spec.json", "-o", "{out}"],
     ["{tmp}/spec.json"], ["{out}"]),
    (["lab", "certificate", "--order", "12", "--seeds", "2", "--csv", "{tmp}/h.csv"],
     [], ["{tmp}/h.csv"]),
])
def test_cli_manifest_names_files_read_and_written(cli_files, tmp_path, argv, read, written):
    (tmp_path / "spec.json").write_text(json.dumps({"runs": []}))
    (tmp_path / "q.json").write_text(json.dumps({"q": {"1": 1}}))
    fill = {**cli_files, "tmp": str(tmp_path), "out": str(tmp_path / "out.txt")}
    man = tmp_path / "run.json"
    argv = [a.format(**fill) for a in argv] + ["--manifest", str(man)]
    assert run(argv) == 0
    manifest = json.loads(man.read_text())
    assert manifest["inputs"] == [a.format(**fill) for a in read]
    assert manifest["outputs"] == [a.format(**fill) for a in written]


@pytest.mark.parametrize("argv, code, read", [
    (["color", "td", "-p", "2", "-i", "{p4}"], 0, ["{p4}"]),
    (["verify", "coloring", "--mode", "td", "-p", "1", "-i", "{p4}", "-c", "{col}"], 1,
     ["{p4}", "{col}"]),
])
def test_cli_manifest_lists_only_files_the_run_read(cli_files, tmp_path, argv, code, read):
    fill = {**cli_files, "tmp": str(tmp_path)}
    out = tmp_path / "out.json"
    man = tmp_path / "run.json"
    argv = [a.format(**fill) for a in argv] + ["-o", str(out), "--manifest", str(man)]
    assert run(argv) == code
    manifest = json.loads(man.read_text())
    assert manifest["inputs"] == [a.format(**fill) for a in read]
    assert manifest["outputs"] == [str(out)]


def assert_refused(tmp_path, capsys, argv, line):
    """Exit 2 with the given last line, before any file is read or written:
    every file named in argv is absent, so a read would fail with another
    message."""
    fill = {k: str(tmp_path / k) for k in ("g", "c", "m", "out")}
    man = tmp_path / "run.json"
    assert run([a.format(**fill) for a in argv] + ["--manifest", str(man)]) == 2
    assert usage_error(capsys) == line.format(**fill)
    assert list(tmp_path.iterdir()) == []


# what the hand checks say, for the forms that share a parser with one that reads the option
REFUSED_BY_HAND = {
    ("verify coloring --mode td", "--profile"):
        "verify coloring --mode td does not use --profile or --q-linear",
    ("lab certificate -i", "--csv"): "lab certificate -i does not use --csv",
    ("lab certificate without -i", "--labels"):
        "lab certificate without -i does not use --labels or --partition",
    ("lab certificate without -i", "--partition"):
        "lab certificate without -i does not use --labels or --partition",
}


# every form that takes a file option it never opens, with that option
@pytest.mark.parametrize("argv, form, option", [
    (["gen", "path", "-i", "{g}"], "gen path", "-i/--input"),
    (["gen", "model", "-i", "{g}"], "gen model", "-i/--input"),
    (["gen", "chain", "--model-out", "{m}"], "gen chain", "--model-out"),
    (["gen", "map", "-i", "{g}", "--model-out", "{m}"], "gen map", "--model-out"),
    (["gen", "linegraph", "-i", "{g}", "--model-out", "{m}"], "gen linegraph", "--model-out"),
    (["color", "td", "-i", "{g}", "-c", "{c}"], "color td", "-c/--coloring"),
    (["color", "td", "-i", "{g}", "--profile", "{m}"], "color td", "--profile"),
    (["color", "lowrw", "-i", "{g}", "-c", "{c}"], "color lowrw", "-c/--coloring"),
    (["color", "refine", "-i", "{g}", "-c", "{c}", "--profile", "{m}"], "color refine",
     "--profile"),
    (["verify", "coloring", "-i", "{g}", "-c", "{c}", "-d", "{m}"],
     "verify coloring --mode lowrw", "-d/--decomposition"),
    (["verify", "coloring", "--mode", "td", "-i", "{g}", "-c", "{c}", "-d", "{m}"],
     "verify coloring --mode td", "-d/--decomposition"),
    (["verify", "coloring", "--mode", "td", "-i", "{g}", "-c", "{c}", "--profile", "{m}"],
     "verify coloring --mode td", "--profile"),
    (["verify", "decomposition", "-i", "{g}", "-d", "{m}", "-c", "{c}"],
     "verify decomposition", "-c/--coloring"),
    (["verify", "decomposition", "-i", "{g}", "-d", "{m}", "--profile", "{c}"],
     "verify decomposition", "--profile"),
    (["lab", "certificate", "-i", "{g}", "--labels", "{c}", "--partition", "{m}", "--csv",
      "{out}"], "lab certificate -i", "--csv"),
    (["lab", "certificate", "--labels", "{c}"], "lab certificate without -i", "--labels"),
    (["lab", "certificate", "--partition", "{m}"], "lab certificate without -i", "--partition"),
    (["lab", "ramsey", "-i", "{g}", "--labels", "{c}", "--partition", "{m}"], "lab ramsey",
     "-i/--input"),
    (["lab", "ramsey", "--labels", "{c}"], "lab ramsey", "--labels"),
    (["lab", "ramsey", "--partition", "{m}"], "lab ramsey", "--partition"),
    (["lab", "extract", "-i", "{g}"], "lab extract", "-i/--input"),
    (["lab", "extract", "--labels", "{c}"], "lab extract", "--labels"),
    (["lab", "extract", "--partition", "{m}"], "lab extract", "--partition"),
    (["lab", "extract", "--csv", "{out}"], "lab extract", "--csv"),
])
def test_cli_file_option_a_form_never_opens_is_usage_error(tmp_path, capsys, argv, form,
                                                           option):
    """The hand check's message where the form shares its parser with one
    that reads the option; else argparse's, listing the option and all
    that follows it."""
    if (form, option) in REFUSED_BY_HAND:
        line = "error: " + REFUSED_BY_HAND[form, option]
    else:
        line = UNRECOGNIZED + " ".join(argv[argv.index(option.split("/")[0]):])
    assert_refused(tmp_path, capsys, argv, line)


# options that are no files, which a form never reads
@pytest.mark.parametrize("argv, line", [
    (["width", "treedepth", "--upper", "-i", "{g}"], UNRECOGNIZED + "--upper"),
    (["gen", "path", "--n", "5", "--seed", "7", "--m", "9", "--order", "3"],
     UNRECOGNIZED + "--seed 7 --m 9 --order 3"),
    (["color", "td", "-r", "9", "-i", "{g}"], UNRECOGNIZED + "-r 9"),
    (["lab", "extract", "--k", "3", "--size", "5", "--seeds", "4"],
     UNRECOGNIZED + "--k 3 --size 5 --seeds 4"),
    (["verify", "coloring", "--mode", "td", "--q-linear", "5", "-i", "{g}", "-c", "{c}"],
     "error: verify coloring --mode td does not use --profile or --q-linear"),
    # an option's prefix is not taken for it: --m would otherwise be --manifest
    (["gen", "path", "--m", "9"], UNRECOGNIZED + "--m 9"),
    # the harness options, which the -i form of lab certificate never reads
    (["lab", "certificate", "-i", "{g}", "--labels", "{c}", "--partition", "{m}", "--order",
      "99"], "error: lab certificate -i does not use --order"),
    (["lab", "certificate", "-i", "{g}", "--labels", "{c}", "--partition", "{m}", "--seeds",
      "5"], "error: lab certificate -i does not use --seeds"),
    (["lab", "certificate", "-i", "{g}", "--labels", "{c}", "--partition", "{m}", "--seed",
      "7"], "error: lab certificate -i does not use --seed"),
    # below the harness floors too, which that form does not check
    (["lab", "certificate", "-i", "{g}", "--labels", "{c}", "--partition", "{m}", "--order",
      "11"], "error: lab certificate -i does not use --order"),
    (["lab", "certificate", "-i", "{g}", "--labels", "{c}", "--partition", "{m}", "--seeds",
      "0"], "error: lab certificate -i does not use --seeds"),
])
def test_cli_option_a_form_never_reads_is_usage_error(tmp_path, capsys, argv, line):
    assert_refused(tmp_path, capsys, argv, line)


@pytest.mark.parametrize("argv", [
    ["power", "-r", "2", "-i", "{p4}"],
    ["wcol", "-r", "2", "-i", "{p4}"],
    ["color", "td", "-p", "2", "-i", "{p4}"],
    ["verify", "decomposition", "-i", "{p4}", "-d", "{dec}"],
    ["width", "treedepth", "-i", "{p4}"],
    ["eh", "extract", "-i", "{p4}"],
    ["chi", "product", "-i", "{p4}", "-c", "{col}"],
    ["report", "sweep", "--spec", "{tmp}/spec.json"],
    ["gen", "path", "--n", "4"],
    ["gen", "grid", "--a", "3"],
])
def test_cli_seed_is_a_usage_error_where_nothing_is_drawn(cli_files, tmp_path, capsys, argv):
    (tmp_path / "spec.json").write_text(json.dumps({"runs": []}))
    argv = [a.format(**cli_files, tmp=str(tmp_path)) for a in argv]
    assert run(argv) == 0
    capsys.readouterr()
    assert run(argv + ["--seed", "1"]) == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen", "random", "--n", "6", "--d", "2"],
    ["lab", "extract", "--order", "12"],
    ["lab", "certificate", "--order", "12"],
    ["lab", "ramsey", "--size", "32"],
])
def test_cli_seed_is_accepted_where_a_command_draws(tmp_path, argv):
    man = tmp_path / "run.json"
    assert run(argv + ["--seed", "3", "--manifest", str(man)]) == 0
    manifest = json.loads(man.read_text())
    assert manifest["seeds"] == [3] and manifest["parameters"]["seed"] == 3


def test_cli_width_rank_artifact_is_byte_stable(cli_files, tmp_path):
    outs = [tmp_path / f"w{k}.json" for k in range(2)]
    man = tmp_path / "run.json"
    for out in outs:
        assert run(["width", "rank", "--exact", "-i", cli_files["p4"], "-o", str(out),
                    "--manifest", str(man)]) == 0
    first = outs[0].read_bytes()
    assert outs[1].read_bytes() == first and b"elapsed" not in first
    outs[1].unlink()
    assert run(["rerun", "--manifest", str(man)]) == 0
    assert outs[1].read_bytes() == first


def test_cli_sweep(tmp_path):
    spec = tmp_path / "sweep.json"
    out = tmp_path / "sweep.csv"
    spec.write_text(json.dumps({
        "runs": [
            {"name": f"h-{n}-3", "generator": {"family": "h", "n": n, "m": 3},
             "pipeline": {"kind": "rowcolor-verify", "p": 2}}
            for n in range(2, 7)
        ] + [
            {"name": "chain-12", "generator": {"family": "chain", "order": 12},
             "pipeline": {"kind": "certificate", "seeds": 5, "seed": 1}},
        ]
    }))
    assert run(["report", "sweep", "--spec", str(spec), "-o", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0].startswith("name,family,n,")
    assert len(rows) == 7
    for row in rows[1:6]:
        assert ",true," in row
    assert rows[6].split(",")[7] != "0"  # min_order of the chain run


def test_cli_sweep_certificate_row_builds_no_chain(tmp_path, monkeypatch):
    # test_cli_sweep's chain-12 row, as it read when the row built its chain, then
    # the generators that building the chain would refuse, refused without it
    spec, out = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    spec.write_text(json.dumps({"runs": [
        {"name": "chain-12", "generator": {"family": "chain", "order": 12},
         "pipeline": {"kind": "certificate", "seeds": 5, "seed": 1}},
        *({"name": "c", "generator": gen, "pipeline": {"kind": "certificate"}} for gen in (
            {"family": "h", "n": 2, "m": 2},
            {"family": "chain", "order": 0},
            {"family": "chain", "order": 12, "variant": "nosuch"},
            {"family": "chain", "order": 12.0},
            {"family": "chain"},
        )),
    ]}))

    def refuse(family, params):
        raise AssertionError(f"generated a {family} graph")

    monkeypatch.setattr(cli, "_generate", refuse)
    assert run(["report", "sweep", "--spec", str(spec), "-o", str(out)]) == 0
    header, chain12, *refused = out.read_text().splitlines()
    assert header == ",".join(cli.SWEEP_FIELDS)
    fields = chain12.split(",")
    del fields[cli.SWEEP_FIELDS.index("elapsed_ms")]
    assert fields == ["chain-12", "chain", "432", "", "", "", "true", "3", "5", ""]
    rows = list(csv.DictReader([header, *refused]))
    assert [(row["n"], row["error"]) for row in rows] == [
        ("", "a certificate run needs the chain family, not 'h'"),
        ("", "order must be >= 1"),
        ("", "unknown variant 'nosuch'"),
        ("", '"order" must be an integer'),
        ("", 'missing "order"'),
    ]


def test_cli_sweep_records_row_errors_and_continues(tmp_path):
    spec = tmp_path / "sweep.json"
    out = tmp_path / "out.csv"
    spec.write_text(json.dumps({
        "runs": [
            {"name": "broken", "generator": {"family": "nosuch"},
             "pipeline": {"kind": "rowcolor-verify", "p": 1}},
            {"name": "fine", "generator": {"family": "h", "n": 2, "m": 2},
             "pipeline": {"kind": "rowcolor-verify", "p": 1}},
            # a family that is no string, an unhashable one here, is refused by name
            {"name": "listed", "generator": {"family": ["x"], "n": 4},
             "pipeline": {"kind": "rowcolor-verify", "p": 1}},
        ]
    }))
    assert run(["report", "sweep", "--spec", str(spec), "-o", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 4
    assert "nosuch" in rows[1]
    assert ",true," in rows[2]
    assert list(csv.DictReader(rows))[2]["error"] == "unknown sweep family ['x']"


def test_cli_sweep_empty(tmp_path):
    spec = tmp_path / "empty.json"
    out = tmp_path / "empty.csv"
    spec.write_text(json.dumps({"runs": []}))
    assert run(["report", "sweep", "--spec", str(spec), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1



def test_cli_names_the_line_of_a_token_that_is_not_an_integer(tmp_path, capsys):
    bad = tmp_path / "bad.el"
    bad.write_text("3 2\n0 1\n1 two\n")
    assert run(["power", "-r", "2", "-i", str(bad)]) == 2
    assert capsys.readouterr() == ("", "error: line 3: 'two' is not an integer\n")


# malformed JSON is a usage error (exit 2), not a refuted verdict (exit 1)
@pytest.mark.parametrize("argv, text, message", [
    (["verify", "decomposition", "-i", "{p4}", "-d", "{bad}"],
     '{"nodes": 6, "edges": 5, "leaf_map": []}',
     'decomposition "edges" must be an array of [a, b] node pairs'),
    (["verify", "coloring", "--q-linear", "1", "-i", "{p4}", "-c", "{bad}"],
     '{"palette_size": 3, "colors": 7}', 'coloring "colors" must be an array of colors'),
    (["chi", "product", "-i", "{p4}", "-c", "{bad}"], "[1, 1, 1, 1]",
     'coloring must be a JSON object with "colors" and "palette_size"'),
    (["verify", "coloring", "--mode", "td", "-i", "{p4}", "-c", "{bad}"],
     '{"palette_size": 2, "colors": [1.5, 1, 2, 1]}', "vertex 0 has color 1.5, not an integer"),
    (["verify", "coloring", "-i", "{p4}", "-c", "{bad}"],
     '{"palette_size": 1, "colors": [1, 1, 1, 1], "q": [3]}',
     'budget "q" must be an object from union sizes to integer widths'),
    (["verify", "coloring", "-i", "{p4}", "-c", "{bad}"],
     '{"palette_size": 1, "colors": [1, 1, 1, 1], "q": {"1": "3"}}',
     'budget "q" must be an object from union sizes to integer widths'),
    (["verify", "coloring", "-i", "{p4}", "-c", "{col}", "--profile", "{bad}"], '{"p": 1}',
     'budget "q" must be an object from union sizes to integer widths'),
    *((["gen", "map", "-i", "{bad}"], text,
       'rotations must be an array of vertex-id arrays, or an object whose "rotations" is one')
      for text in ('{"rotations": 5}', '{"rotation": [[1, 2], [2, 0], [0, 1]]}', '"abc"',
                   '[[1, 2], [2, 0], [0, 1.5]]', '{"rotations": [[1], 2]}')),
    *((["report", "sweep", "--spec", "{bad}"], text,
       'a sweep spec must be a JSON object whose "runs" is an array of objects')
      for text in ('{"runs": 5}', '[{"name": "a"}]', '{"runs": [5]}', '{"runs": null}')),
    # budget keys the writer never writes: a leading zero, non-ASCII digits, size 0
    *((["verify", "coloring", "-i", "{p4}", "-c", "{bad}"],
       '{"palette_size": 1, "colors": [1, 1, 1, 1], "q": %s}' % q,
       'budget "q" must be an object from union sizes to integer widths')
      for q in ('{"1": 9, "01": 0}', '{"\\u0661": 0, "1": 9}', '{"0": 5, "1": 9}')),
    # a repeated key is refused where the file is parsed, not merged to its last value: P4 as
    # one class has width 1 > Q(1) = 0
    (["verify", "coloring", "-p", "1", "-i", "{p4}", "-c", "{bad}"],
     '{"palette_size": 1, "colors": [1, 1, 1, 1], "q": {"1": 0, "1": 9}}',
     'a JSON object repeats the key "1"'),
    # a sweep spec without "runs", or with it misspelt, is refused too
    *((["report", "sweep", "--spec", "{bad}"], text,
       'a sweep spec must be a JSON object whose "runs" is an array of objects')
      for text in ('{}', '{"run": []}')),
])
def test_cli_malformed_json_is_usage_error(cli_files, tmp_path, capsys, argv, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run([a.format(**cli_files, bad=bad) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_verify_names_a_union_size_the_embedded_budget_misses(cli_files, tmp_path, capsys):
    col = tmp_path / "col.json"
    assert run(["color", "lowrw", "-p", "1", "-i", cli_files["p4"], "-o", str(col)]) == 0
    assert json.loads(col.read_text())["q"].keys() == {"1"}
    assert run(["verify", "coloring", "-p", "2", "-i", cli_files["p4"], "-c", str(col)]) == 2
    assert capsys.readouterr() == ("", "error: the budget gives no width for unions of size 2\n")


@pytest.mark.parametrize("manifest, message", [
    ({"argv": ["rerun", "--manifest", "{man}"]}, "a manifest's argv cannot itself be a rerun"),
    ({"argv": "gen path --n 3"}, 'a manifest needs an "argv" array of strings'),
    ({"argv": ["gen", "path", "--n", 3]}, 'a manifest needs an "argv" array of strings'),
    ({"command": "gen path"}, 'a manifest needs an "argv" array of strings'),
    (["gen", "path"], 'a manifest needs an "argv" array of strings'),
])
def test_cli_rerun_refuses_a_malformed_manifest(tmp_path, capsys, manifest, message):
    man = tmp_path / "m.json"
    man.write_text(json.dumps(manifest).replace("{man}", str(man)))
    assert run(["rerun", "--manifest", str(man)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == [man]


def test_cli_rerun_of_a_threads_manifest_is_a_usage_error(tmp_path):
    spec = tmp_path / "empty.json"
    spec.write_text(json.dumps({"runs": []}))
    man = tmp_path / "m.json"
    argv = ["report", "sweep", "--spec", str(spec), "--threads", "4"]
    man.write_text(json.dumps({"argv": argv}))
    assert run(["rerun", "--manifest", str(man)]) == 2


def test_cli_color_td_strategy_is_a_usage_error(cli_files, tmp_path):
    argv = ["color", "td", "-p", "2", "-i", cli_files["p4"], "--strategy", "exact-small"]
    assert run(argv) == 2
    man = tmp_path / "m.json"
    man.write_text(json.dumps({"argv": argv}))
    assert run(["rerun", "--manifest", str(man)]) == 2
    assert run(argv[:-2]) == 0


def test_cli_wcol(tmp_path):
    p5 = tmp_path / "p5.el"
    run(["gen", "path", "--n", "5", "-o", str(p5)])
    out = tmp_path / "w.json"
    order = tmp_path / "order.json"
    assert run(["wcol", "-r", "2", "--exact", "-i", str(p5), "-o", str(out),
                "--order-out", str(order)]) == 0
    obj = json.loads(out.read_text())
    assert obj["value"] == 3 and obj["method"] == "exact"
    assert sorted(json.loads(order.read_text())) == [0, 1, 2, 3, 4]
    assert run(["wcol", "-r", "2", "--heuristic", "-i", str(p5), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["value"] >= 3


def test_cli_wcol_exact_above_the_cap_names_the_heuristic_form(tmp_path, capsys):
    path = tmp_path / "p.el"
    assert run(["gen", "path", "--n", "15", "-o", str(path)]) == 0
    assert run(["wcol", "-r", "2", "--exact", "-i", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: exact wcol is capped at n=14; run wcol without --exact instead\n"
    )


def test_cli_color_td_and_verify(tmp_path):
    p4 = tmp_path / "p4.el"
    run(["gen", "path", "--n", "4", "-o", str(p4)])
    col = tmp_path / "td.json"
    assert run(["color", "td", "-p", "2", "-i", str(p4), "-o", str(col)]) == 0
    assert run(["verify", "coloring", "--mode", "td", "-p", "2", "-i", str(p4),
                "-c", str(col), "-o", str(tmp_path / "v.json")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"palette_size": 1, "colors": [1, 1, 1, 1]}))
    assert run(["verify", "coloring", "--mode", "td", "-p", "1", "-i", str(p4),
                "-c", str(bad)]) == 1


def test_cli_verify_td_inconclusive_exits_1_without_an_error(tmp_path, capsys):
    g_el = tmp_path / "g.el"
    col = tmp_path / "td.json"
    out = tmp_path / "v.json"
    assert run(["gen", "random", "--n", "26", "--d", "3", "--seed", "5", "-o", str(g_el)]) == 0
    assert run(["color", "td", "-p", "7", "-i", str(g_el), "-o", str(col)]) == 0
    assert run(["verify", "coloring", "--mode", "td", "-p", "7", "-i", str(g_el),
                "-c", str(col), "-o", str(out)]) == 1
    assert "error:" not in capsys.readouterr().err
    verdict = json.loads(out.read_text())
    assert verdict["verified"] is False
    assert verdict["failures"] == []
    assert verdict["inconclusive"] == [
        {"colors": [3, 4, 5, 9, 10, 11, 12], "size": 7, "width": 19}
    ]


def test_cli_color_refine(tmp_path):
    g = tmp_path / "g.el"
    run(["gen", "random", "--n", "12", "--d", "2", "--seed", "4", "-o", str(g)])
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"palette_size": 2, "colors": [1, 2] * 6}))
    ref = tmp_path / "ref.json"
    assert run(["color", "refine", "-r", "3", "-i", str(g), "-c", str(base),
                "-o", str(ref)]) == 0
    obj = json.loads(ref.read_text())
    assert obj["radius"] == 3 and len(obj["levels"]) == 2
    assert run(["color", "refine", "--good", "-r", "2", "-i", str(g), "-c", str(base),
                "-o", str(ref)]) == 0
    assert len(json.loads(ref.read_text())["levels"]) == 1


def test_cli_gen_model_and_derived_families(tmp_path):
    el = tmp_path / "model.el"
    model = tmp_path / "model.json"
    assert run(["gen", "model", "--kind", "segment", "--order", "2", "-o", str(el),
                "--model-out", str(model)]) == 0
    obj = json.loads(model.read_text())
    assert len(obj["segments"]) == 12 and obj["scale"] == 41
    rot = tmp_path / "rot.json"
    rot.write_text(json.dumps({"rotations": [[1, 2], [2, 0], [0, 1]]}))
    out = tmp_path / "map.el"
    assert run(["gen", "map", "-i", str(rot), "-o", str(out)]) == 0
    assert out.read_text().startswith("2 1\n")
    lg = tmp_path / "lg.el"
    p4 = tmp_path / "p4.el"
    run(["gen", "path", "--n", "4", "-o", str(p4)])
    assert run(["gen", "linegraph", "-i", str(p4), "-o", str(lg)]) == 0
    assert lg.read_text() == "3 2\n0 1\n1 2\n"


def test_cli_gen_failure_writes_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["gen", "grid", "--a", "3", "--b", "3", "-o", "g.el", "--labels", "g.json"],
        ["gen", "model", "--kind", "interval", "--order", "2", "-o", "m.el",
         "--model-out", "m.json", "--labels", "l.json"],
    ):
        assert run(argv + ["--manifest", "run.json"]) == 2
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().err == "error: graph carries no labels\n"
    assert run(["gen", "chain", "--order", "2", "-o", "c.el", "--labels", "c.json"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.el", "c.json"]


def test_cli_certificate_rows_reach_order_72():
    assert cli._certificate_rows(72, 0, 2) == [(0, 22, True), (1, 23, True)]


def test_cli_lab_certificate_harness_reaches_order_200(capsys):
    assert run(["lab", "certificate", "--order", "200", "--seeds", "2"]) == 0
    assert capsys.readouterr() == ("seed,achieved_order,verified\n0,50,true\n1,57,true\n", "")


def test_cli_lab_certificate_single_partition(tmp_path):
    el = tmp_path / "chain.el"
    labels = tmp_path / "chain_labels.json"
    run(["gen", "chain", "--order", "12", "-o", str(el), "--labels", str(labels)])
    part = tmp_path / "part.json"
    g = twisted_chain(12)
    from rwcolor.lab import random_balanced_bipartition
    from rwcolor.formats import partition_to_obj

    part.write_text(json.dumps(partition_to_obj(random_balanced_bipartition(g, 5))))
    cert = tmp_path / "cert.json"
    assert run(["lab", "certificate", "-i", str(el), "--labels", str(labels),
                "--partition", str(part), "-o", str(cert)]) == 0
    obj = json.loads(cert.read_text())
    assert obj["order"] >= 1 and obj["rank"] == obj["order"]
    assert obj["side"] in ("A", "B") and sorted(obj["direction"]) == ["S", "T"]


def test_cli_verify_lowrw_without_budget_is_usage_error(tmp_path):
    p4 = tmp_path / "p4.el"
    run(["gen", "path", "--n", "4", "-o", str(p4)])
    col = tmp_path / "c.json"
    col.write_text(json.dumps({"palette_size": 1, "colors": [1, 1, 1, 1]}))
    assert run(["verify", "coloring", "--mode", "lowrw", "-p", "1",
                "-i", str(p4), "-c", str(col)]) == 2


def test_cli_lab_ramsey(tmp_path):
    out = tmp_path / "ramsey.csv"
    assert run(["lab", "ramsey", "--k", "2", "--d", "2", "--size", "32",
                "--seeds", "10", "--csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 11 and all(l.endswith("true") for l in lines[1:])


def test_cli_eh_zero_classes_is_usage_error(cli_files, capsys):
    assert run(["eh", "extract", "-i", cli_files["p4"], "--classes", "0"]) == 2
    assert capsys.readouterr().err == "error: n_classes must be >= 1\n"


@pytest.mark.parametrize(
    "option, fault",
    [
        (["--classes", "0"], "n_classes must be >= 1"),
        (["--width-bound", "-1"], "width_bound must be >= 0"),
    ],
)
def test_cli_eh_refuses_its_options_before_reading_the_graph(tmp_path, capsys, option, fault):
    missing = str(tmp_path / "missing.el")
    assert run(["eh", "extract", "-i", missing, *option]) == 2
    assert capsys.readouterr().err == f"error: {fault}\n"


def test_cli_eh_names_a_disconnected_class_above_the_cap(tmp_path, capsys):
    # two disjoint P10s as one class: no one tree over it within the exact cap
    g = tmp_path / "pp.el"
    g.write_text("20 18\n" + "".join(f"{v} {v + 1}\n" for v in range(19) if v != 9))
    assert run(["eh", "extract", "-i", str(g), "--classes", "1", "--width-bound", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: majority class 1 has 20 vertices in 2 components, above the exact "
        "rank-width cap of 14 vertices for a disconnected class\n"
    )


@pytest.mark.parametrize("mode", ["td", "lowrw"])
def test_cli_verify_p0_is_usage_error(cli_files, capsys, mode):
    budget = ["--q-linear", "3"] if mode == "lowrw" else []  # --mode td refuses a budget
    assert run(["verify", "coloring", "--mode", mode, "-p", "0", "-i", cli_files["p4"],
                "-c", cli_files["col"], *budget]) == 2
    assert capsys.readouterr().err == "error: p must be >= 1\n"


def test_cli_sweep_rows_with_p0_record_the_error(tmp_path):
    spec = tmp_path / "sweep.json"
    out = tmp_path / "out.csv"
    spec.write_text(json.dumps({
        "runs": [
            {"name": "rows", "generator": {"family": "h", "n": 2, "m": 2},
             "pipeline": {"kind": "rowcolor-verify", "p": 0}},
            {"name": "power", "generator": {"family": "path", "n": 4},
             "pipeline": {"kind": "power-lowrw", "r": 2, "p": 0}},
            # no certificate is drawn, so none is verified
            *({"name": "certs", "generator": {"family": "chain", "order": 12},
               "pipeline": {"kind": "certificate", "seeds": seeds}} for seeds in (0, -3)),
            # a key the spec leaves out is named
            {"name": "nopipe", "generator": {"family": "path", "n": 4}},
            {"name": "gridrows", "generator": {"family": "grid", "a": 3, "b": 3},
             "pipeline": {"kind": "rowcolor-verify", "p": 1}},
            {"name": "x", "generator": 5, "pipeline": {"kind": "certificate"}},
            # a string or an array in place of the pipeline object
            *({"name": "y", "generator": {"family": "path", "n": 4}, "pipeline": pipe}
              for pipe in ("certificate", [{"kind": "certificate"}])),
            # an integer key that is not a JSON integer is named
            *({"name": "certs", "generator": {"family": "chain", "order": 12},
               "pipeline": {"kind": "certificate", "seeds": seeds}} for seeds in (True, "2", 2.0)),
            {"name": "certs", "generator": {"family": "chain", "order": 12},
             "pipeline": {"kind": "certificate", "seed": 1.0}},
            {"name": "rows", "generator": {"family": "h", "n": 2, "m": 2},
             "pipeline": {"kind": "rowcolor-verify", "p": True}},
            {"name": "gridrows", "generator": {"family": "grid", "a": 3, "b": 3, "n": 3, "m": False},
             "pipeline": {"kind": "rowcolor-verify", "p": 1}},
            {"name": "power", "generator": {"family": "path", "n": True},
             "pipeline": {"kind": "power-lowrw", "r": 2, "p": 1}},
            {"name": "power", "generator": {"family": "path", "n": 4},
             "pipeline": {"kind": "power-lowrw", "r": "2", "p": 1}},
            {"name": "random", "generator": {"family": "random", "n": 6, "d": 2, "seed": False},
             "pipeline": {"kind": "power-lowrw", "r": 2, "p": 1}},
        ]
    }))
    assert run(["report", "sweep", "--spec", str(spec), "-o", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [row["error"] for row in rows] == [
        *["p must be >= 1"] * 2, *["seeds must be >= 1"] * 2, 'missing "pipeline"', 'missing "n"',
        '"generator" must be an object', *['"pipeline" must be an object'] * 2,
        *['"seeds" must be an integer'] * 3, '"seed" must be an integer', '"p" must be an integer',
        '"m" must be an integer', '"n" must be an integer', '"r" must be an integer',
        '"seed" must be an integer',
    ]
    assert [row["verified"] for row in rows] == [""] * 18
    assert [row["min_order"] + row["max_order"] for row in rows] == [""] * 18
    # a generator value refused by name never reaches the n column
    assert [row["n"] for row in rows[9:]] == ["432"] * 4 + ["4", "9", "", "4", ""]


def test_cli_sweep_row_budgets_cover_the_walked_sizes_only(tmp_path):
    # three rows carry three colours, so the walk reads sizes 1..3 whatever p is
    spec, out = tmp_path / "sweep.json", tmp_path / "out.csv"
    spec.write_text(json.dumps({"runs": [
        {"name": f"p{p}", "generator": {"family": "h", "n": 3, "m": 3},
         "pipeline": {"kind": "rowcolor-verify", "p": p}} for p in (3, 10**9)
    ]}))
    assert run(["report", "sweep", "--spec", str(spec), "-o", str(out)]) == 0
    small, huge = csv.DictReader(out.read_text().splitlines())
    assert huge["budgets"] == small["budgets"] == "3;6;9"
    assert (huge["widths"], huge["verified"], huge["error"]) == (
        small["widths"], small["verified"], "")


def test_cli_sweep_power_row_reads_as_color_lowrw_then_verify(tmp_path):
    spec, out = tmp_path / "sweep.json", tmp_path / "out.csv"
    spec.write_text(json.dumps({"runs": [
        {"name": "g3", "generator": {"family": "grid", "a": 3, "b": 3},
         "pipeline": {"kind": "power-lowrw", "r": 2, "p": 2}},
        {"name": "bad", "generator": {"family": "grid", "a": 3, "b": 3},
         "pipeline": {"kind": "bogus"}},
    ] + [
        # a kind that is no string, unhashable ones among them, is refused by name too
        {"name": "bad", "generator": {"family": "path", "n": 4}, "pipeline": {"kind": kind}}
        for kind in (["x"], {"a": 1}, None, 5)
    ]}))
    assert run(["report", "sweep", "--spec", str(spec), "-o", str(out)]) == 0
    power_row, *bad = csv.DictReader(out.read_text().splitlines())
    assert [power_row[k] for k in ("n", "palette", "widths", "budgets", "verified", "error")] == [
        "9", "8", "1;1", "354292;20920706404", "true", ""]
    assert [(r["n"], r["verified"], r["error"]) for r in bad] == [
        ("9", "", "unknown pipeline kind 'bogus'"),
        ("4", "", "unknown pipeline kind ['x']"),
        ("4", "", "unknown pipeline kind {'a': 1}"),
        ("4", "", "unknown pipeline kind None"),
        ("4", "", "unknown pipeline kind 5"),
    ]
    # the CLI's own colouring and verdict of the same graph
    g3, lw3, v3 = (str(tmp_path / name) for name in ("g3.el", "lw3.json", "v3.json"))
    assert run(["gen", "grid", "--a", "3", "--b", "3", "-o", g3]) == 0
    assert run(["color", "lowrw", "-r", "2", "-p", "2", "-i", g3, "-o", lw3]) == 0
    assert run(["verify", "coloring", "-p", "2", "-i", g3, "-c", lw3, "-o", v3]) == 0
    verdict = json.loads(open(v3).read())
    assert json.loads(open(lw3).read())["palette_size"] == int(power_row["palette"])
    assert ";".join(str(m["width"]) for _, m in sorted(verdict["measured"].items())) == "1;1"
    assert ";".join(str(b) for _, b in sorted(verdict["q"].items())) == power_row["budgets"]
    assert verdict["verified"] is True


@pytest.mark.parametrize("method", ["--exact", "--heuristic"])
def test_cli_wcol_negative_radius_is_usage_error(cli_files, capsys, method):
    assert run(["wcol", "-r", "-1", method, "-i", cli_files["p4"]]) == 2
    assert capsys.readouterr().err == "error: radius must be non-negative\n"


def test_cli_color_refine_good_below_radius_2_is_usage_error(cli_files, capsys):
    assert run(["color", "refine", "--good", "-r", "1", "-i", cli_files["p4"],
                "-c", cli_files["col"]]) == 2
    assert capsys.readouterr().err == "error: good refinements need radius >= 2\n"


# one bad value per entry of cli.OPTION_FLOORS, named by the argv before -i; "{g}" and "{c}"
# name an edge list and a coloring, and the gen and lab forms read no file
FLOOR_CASES = [
    pytest.param(argv, message, id=" ".join(argv[:argv.index("-i")] if "-i" in argv else argv))
    for argv, message in [
        (["gen", "chain", "--order", "0"], "--order must be >= 1"),
        (["gen", "model", "--order", "0"], "--order must be >= 1"),
        (["power", "-r", "0", "-i", "{g}"], "power radius must be >= 1"),
        (["wcol", "-r", "-1", "-i", "{g}"], "radius must be non-negative"),
        (["color", "td", "-p", "0", "-i", "{g}"], "p must be >= 1"),
        (["color", "refine", "--good", "-r", "1", "-i", "{g}", "-c", "{c}"],
         "good refinements need radius >= 2"),
        (["color", "refine", "-r", "1", "-i", "{g}", "-c", "{c}"],
         "excellent refinements need radius >= 2"),
        # -r is checked before -p
        (["color", "lowrw", "-r", "1", "-p", "0", "-i", "{g}"], "power coloring needs radius >= 2"),
        (["color", "lowrw", "-p", "0", "-i", "{g}"], "p must be >= 1"),
        (["verify", "coloring", "-p", "0", "-i", "{g}", "-c", "{c}"], "p must be >= 1"),
        (["verify", "coloring", "--q-linear", "-1", "-i", "{g}", "-c", "{c}"],
         "--q-linear must be >= 0"),
        (["lab", "certificate", "--seeds", "0"], "--seeds must be >= 1"),
        (["lab", "certificate", "--order", "11"], "--order must be >= 12"),
        *((["lab", "ramsey", option, "0"], f"{option} must be >= 1")
          for option in ("--seeds", "--k", "--d", "--size")),
        *((["lab", "extract", option, "0"], f"{option} must be >= 1")
          for option in ("--order", "--colors", "--target")),
    ]
]


def test_cli_option_floor_cases_cover_the_table():
    """Every entry of the table is the first floor that some case breaks."""
    parse = cli.build_parser().parse_args
    hit = set()
    for case in FLOOR_CASES:
        args = parse(case.values[0])
        hit.add(next((args.func, dest) for dest, least, _ in cli.OPTION_FLOORS[args.func]
                     if getattr(args, dest, None) is not None and getattr(args, dest) < least))
    assert hit == {(func, entry[0]) for func, entries in cli.OPTION_FLOORS.items()
                   for entry in entries}


@pytest.mark.parametrize("argv, message", FLOOR_CASES)
def test_cli_option_floor_is_checked_before_any_file_is_read(tmp_path, capsys, argv, message):
    # every file named is missing, so a read would name the file instead
    missing = {k: str(tmp_path / k) for k in ("g", "c")}
    assert run([a.format(**missing) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [case for case in FLOOR_CASES if "-i" in case.values[0]])
def test_cli_option_floor_never_reaches_a_real_file(cli_files, monkeypatch, capsys, argv,
                                                    message):
    def unread(self, path):
        raise AssertionError(f"{path} was read before the option floors were checked")

    monkeypatch.setattr(cli.RunRecord, "graph", unread)
    monkeypatch.setattr(cli.RunRecord, "read", unread)
    files = {"g": cli_files["p4"], "c": cli_files["col"]}
    assert run([a.format(**files) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


BUDGET_REFUSED = 'budget "q" must be an object from union sizes to integer widths'


@pytest.mark.parametrize("budget, q_file, message", [
    (["-c", "{col}", "--q-linear", "-1"], None, "--q-linear must be >= 0"),
    (["-c", "{col}", "--profile", "{bad}"], {"q": {"1": -1}}, BUDGET_REFUSED),
    (["-c", "{bad}"], {"palette_size": 1, "colors": [1] * 4, "q": {"1": -1}}, BUDGET_REFUSED),
], ids=["q-linear", "profile", "embedded"])
def test_cli_verify_refuses_a_negative_budget(cli_files, tmp_path, capsys, budget, q_file,
                                              message):
    """A budget is a natural number per union size: a negative one is a usage
    error, not a budget that refutes every set."""
    bad = tmp_path / "q.json"
    bad.write_text(json.dumps(q_file))
    files = {"col": cli_files["col"], "bad": str(bad)}
    argv = ["verify", "coloring", "-i", cli_files["p4"], *budget]
    assert run([a.format(**files) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# -- one parser per process ----------------------------------------------------------


def test_cli_pipeline_and_rerun_build_the_parser_once(tmp_path):
    g, h, col, man = (str(tmp_path / f) for f in ("g.el", "h.el", "col.json", "run.json"))
    cli.build_parser.cache_clear()
    assert run(["gen", "grid", "--a", "3", "--b", "3", "-o", g]) == 0
    assert run(["power", "-r", "2", "-i", g, "-o", h]) == 0
    assert run(["color", "lowrw", "-r", "2", "-p", "1", "-i", g, "-o", col,
                "--manifest", man]) == 0
    assert run(["verify", "coloring", "--mode", "lowrw", "-p", "1", "-i", h, "-c", col,
                "-o", str(tmp_path / "v.json")]) == 0
    first = (tmp_path / "col.json").read_bytes()
    (tmp_path / "col.json").unlink()
    assert run(["rerun", "--manifest", man]) == 0
    assert (tmp_path / "col.json").read_bytes() == first
    assert cli.build_parser.cache_info().misses == 1


def test_cli_shared_parser_keeps_no_option_values(tmp_path):
    assert run(["gen", "random", "--seed", "5", "--n", "7", "-o", str(tmp_path / "r7.el")]) == 0
    man = tmp_path / "run.json"
    assert run(["gen", "random", "-o", str(tmp_path / "r2.el"), "--manifest", str(man)]) == 0
    params = json.loads(man.read_text())["parameters"]
    assert params["seed"] == 0 and params["n"] == 2
    assert json.loads(man.read_text())["seeds"] == [0]
    assert (tmp_path / "r2.el").read_text() == serialize_edge_list(random_degenerate(2, 2, 0))
    # a form that draws nothing records no seed, and only the options it reads
    assert run(["gen", "path", "-o", str(tmp_path / "p2.el"), "--manifest", str(man)]) == 0
    manifest = json.loads(man.read_text())
    assert manifest["seeds"] == []
    assert manifest["parameters"] == {"command": "gen", "family": "path", "n": 2,
                                      "output": str(tmp_path / "p2.el")}


def test_cli_usage_error_and_version_change_no_later_output(cli_files, capsys):
    calls = (["gen", "grid", "--a", "3", "--b", "2"], ["wcol", "-r", "2", "-i", cli_files["el"]])

    def outputs(between):
        cli.build_parser.cache_clear()
        assert run(calls[0]) == 0
        first = capsys.readouterr().out
        for argv, code in between:
            assert run(argv) == code
        capsys.readouterr()
        assert run(calls[1]) == 0
        return first, capsys.readouterr().out

    fresh = outputs([])
    assert outputs([(["gen", "path", "--n", "x"], 2), (["power", "-r", "2"], 2),
                    (["--version"], 0)]) == fresh
    assert cli.build_parser.cache_info().misses == 1
