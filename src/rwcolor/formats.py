"""Text and JSON formats: canonical edge lists, label sidecars, colorings,
decompositions, certificates, witnesses, and run manifests.

Everything serializes deterministically (sorted keys, fixed layout) so
reruns are byte-identical.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import groupby, islice
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping

from .coloring import Coloring, RefinementColoring, UnionReport
from .ehchi import EHParams
from .graph import Graph, mask_of_flags, select_bits
from .lab import Bipartition, ExtractionReport, MatchingCertificate
from .orderings import LinearOrder
from .widths import RankDecomposition, WidthReport


def dumps_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise ValueError(f"a JSON object repeats the key {json.dumps(key)}")
    return obj


def loads_json(text: str):
    """The JSON value of text, refusing an object that repeats a key, which
    ``json.loads`` alone would merge by keeping the last value."""
    return json.loads(text, object_pairs_hook=_unique_keys)


# about the characters read and split at once (bytes, from a file), each
# chunk running on to just after a "\n", and written at once; bounds the
# tokens held in memory
_CHUNK_CHARS = 1 << 16


def serialize_edge_list(G: Graph) -> str:
    """Canonical edge-list text: `n m` header then sorted `u v` lines."""
    return "".join(edge_list_chunks(G))


def edge_list_chunks(G: Graph) -> Iterator[str]:
    """The canonical edge-list text in pieces of whole rows' lines, each
    piece the first group of rows to reach ``_CHUNK_CHARS`` characters (the
    header opens the first), so that a writer that takes them as they come
    never holds the whole text, and a small text is one write.

    Each row's lines are one join over precomputed vertex names.
    """
    names = list(map(str, range(G.n)))
    group = [f"{G.n} {sum((row >> (u + 1)).bit_count() for u, row in enumerate(G.adj))}\n"]
    size = 0
    for u, row in enumerate(G.adj):
        above = row >> (u + 1) << (u + 1)
        if above:
            head = names[u] + " "
            group.append(head + ("\n" + head).join(select_bits(names, above)) + "\n")
            size += len(group[-1])
            if size >= _CHUNK_CHARS:
                yield "".join(group)
                group, size = [], 0
    if group:
        yield "".join(group)


# most vertices a header may declare; refused before any n-sized list is built
MAX_VERTICES = 1 << 20


def parse_edge_list(text: str) -> Graph:
    """Parse the canonical edge-list format, enforcing its sortedness.

    Blank lines and `#` comment lines, which files written elsewhere may
    carry, are skipped, and tokens may be separated by any whitespace.
    See `_graph_of_chunks` for how the text is read and checked.
    """
    return _graph_of_chunks(_text_chunks(text), "surrogatepass")


def read_edge_list(fh: BinaryIO) -> Graph:
    """The graph of an edge-list file open in binary mode, or the error,
    that `parse_edge_list` gives on the file's text.

    The file is read once, one chunk of whole lines at a time, the chunks
    that `_text_chunks` cuts from its text.  A plain chunk is read as
    bytes and never decoded; any other chunk is decoded alone, which is
    safe because UTF-8 never puts the byte of "\n" inside a character; so
    neither the bytes nor the text of the file are held whole, not even to
    name a faulty line.  Only a file that is not UTF-8 is read again
    whole, for the message of a text-mode read.  A pipe, which cannot be
    read twice, is read whole.
    """
    if fh.seekable():
        try:
            return _graph_of_chunks(_file_chunks(fh), "strict")
        except UnicodeDecodeError:
            fh.seek(0)  # raised again outside the handler, so it carries no context
    return parse_edge_list(fh.read().decode("utf-8"))


def _text_chunks(text: str) -> Iterator[bytes]:
    """The text in chunks of whole lines, each encoded so that a lone
    surrogate decodes back to itself."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        yield text[start:end].encode("utf-8", "surrogatepass")
        start = end


def _file_chunks(fh: BinaryIO) -> Iterator[bytes]:
    while block := fh.read(_CHUNK_CHARS):
        yield block + fh.readline()


# edges per transposition round pair (see `_transposes`) from which the
# lower triangle is formed by one transposition rather than one OR per edge
_TRANSPOSE_BREAK_EVEN = 10


def _graph_of_chunks(chunks: Iterable[bytes], errors: str) -> Graph:
    """The graph of the edge-list bytes that chunks of whole lines make up,
    read in one pass; a chunk read line by line is decoded as UTF-8 with
    the given error handler.

    A plain chunk (see `_plain_pairs`) is split and checked in bulk by
    `_add_runs`, one run of lines of one u at a time, and is never
    decoded, so no list of the whole file's edges is built: on the
    order-24 chain the parse peaks at about 0.45x the text under
    ``tracemalloc``.  Any other chunk, and a plain chunk that fails a
    bulk check, is decoded and read line by line from the state the chunk
    before left: the header (n, m), the last edge, the line number and
    the count of data lines.  A header with n > MAX_VERTICES is refused
    before any n-sized list is built.  The first faulty line is recorded,
    and after it the data lines are only counted, so the whole text is
    read once whatever it holds.  At the end a header fault is raised
    first, then a count of edge lines other than m, then the first faulty
    line.

    The header also picks how each row gets its lower half (see
    `_transposes`).  On a sparse list each run ORs u's bit into the rows
    of its upper neighbours.  On a dense one the runs set only the upper
    halves, and one bit-matrix transposition (`_transposed`) forms the
    lower halves at the end.
    """
    to_int = _Ints().__getitem__
    header = fault = None  # (n, m) once the header passes; the first fault's message
    rows, flags = [], bytearray()  # flags is all zero between runs
    transpose = False  # whether rows get their lower halves from one transposition
    last = (0, 0)  # below every edge 0 <= u < v
    lineno = data = 0  # lines and data lines, the header's among them, read
    for chunk in chunks:
        if not chunk.endswith(b"\n"):  # the last line of a text without a final line break
            chunk += b"\n"
        lines = chunk.count(b"\n")
        pairs = _plain_pairs(chunk, lines, to_int) if fault is None else None
        if pairs is not None:
            runs, vs = pairs
            head = header  # or this chunk's first line, kept only if the chunk passes
            # a first line whose u token starts a longer run has u = n, so it fails
            if head is None and runs[0][1] == 1 and runs[0][0] <= MAX_VERTICES:
                head = runs.pop(0)[0], vs.pop(0)
                rows, flags, transpose = [0] * head[0], bytearray(head[0]), _transposes(*head)
            # a failed check leaves rows half-built, but then a line of this
            # chunk is faulty and rows are never read
            if head is not None and (
                end := _add_runs(runs, vs, head[0], rows, flags, last, transpose)
            ):
                header, last, lineno, data = head, end, lineno + lines, data + lines
                continue
        for line in map(str.strip, chunk.decode("utf-8", errors).splitlines()):
            lineno += 1
            if not line or line[0] == "#":
                continue
            data += 1
            if fault is not None:
                continue
            parts = line.split()
            try:
                if len(parts) != 2:
                    shape = "edge line must be 'u v'" if header else "header must be 'n m'"
                    raise ValueError(f"line {lineno}: {shape}")
                u, v = _line_ints(lineno, parts)
                if header is None:
                    if u > MAX_VERTICES:
                        raise ValueError(
                            f"line {lineno}: {u} vertices exceed the limit of {MAX_VERTICES}")
                    header, rows, flags = (u, v), [0] * u, bytearray(max(u, 0))
                    transpose = _transposes(u, v)
                elif not 0 <= u < v < header[0]:
                    raise ValueError(f"line {lineno}: edge ({u}, {v}) violates 0 <= u < v < n")
                elif (u, v) <= last:
                    raise ValueError(f"line {lineno}: edges are not strictly sorted")
                else:
                    # both halves even when transposing: the transposition
                    # ORs in the lower triangle of whatever rows hold
                    last = u, v
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
            except ValueError as err:
                fault = str(err)
    if header is None:
        raise ValueError(fault or "edge list has no data lines")
    n, m = header
    if data - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {data - 1}")
    if fault is not None:
        raise ValueError(fault)
    if transpose:
        lower = _transposed(rows)
        for v in reversed(range(n)):  # each transposed row is dropped once ORed in
            rows[v] |= lower.pop()
    return Graph(n, tuple(rows))


class _Ints(dict):
    """Token -> int, converting each distinct token once, so a vertex id
    repeated on many lines is one shared int."""

    def __missing__(self, token: bytes) -> int:
        value = self[token] = int(token)
        return value


def _plain_pairs(
    chunk: bytes, lines: int, to_int: Callable[[bytes], int]
) -> tuple[list[tuple[int, int]], list[int]] | None:
    """The runs of a plain chunk's first column, each as (u, its number of
    lines), and its second column as ints; or None for any other chunk.

    A plain chunk is one whose lines leave exactly " \n" each, or " \r\n"
    each, once their ASCII digits are deleted, and that splits into two
    tokens a line: each line holds two runs of digits and its line end.  It
    is split at once, which drops the CRs, so no container per line is
    built, and ``groupby`` finds the runs of equal first tokens at C level,
    so each run's u is converted once.
    """
    stripped = chunk.translate(None, b"0123456789")
    if stripped != b" \n" * lines and stripped != b" \r\n" * lines:
        return None
    tokens = chunk.split()
    if len(tokens) != 2 * lines:
        return None
    try:
        return (
            [(to_int(u), len(list(run))) for u, run in groupby(islice(tokens, 0, None, 2))],
            list(map(to_int, islice(tokens, 1, None, 2))),
        )
    except ValueError:  # a run of digits longer than int() converts
        return None


def _add_runs(
    runs: list[tuple[int, int]], vs: list[int], n: int, rows: list[int], flags: bytearray,
    last: tuple[int, int], transpose: bool,
) -> tuple[int, int] | None:
    """Set the edges of runs, which follow the edge last, in rows, and
    return the last of them; or None when they break the strict order.
    The run (u, k) holds the edges from u to the next k of vs.

    The order is checked once per run: u rises above the last u or repeats
    it (a run split over two chunks, or one vertex spelled two ways) with
    its first v above the last v, and its vs rise from above u to below n:
    they are sorted and, as their flags show, distinct.
    """
    last_u, last_v = last
    end = 0
    for u, count in runs:
        above = vs[end:end + count]
        end += count
        lo, hi = above[0], above[-1] + 1
        if not (
            (u > last_u or u == last_u and lo > last_v)
            and u < lo
            and hi <= n
            and above == sorted(above)
        ):
            return None
        # the run sets u's upper half from flags over the span of the run
        # only and, unless the rows are transposed at the end, ORs u's bit
        # into the rows of its upper neighbours, so the work grows with the
        # edges, never with n squared; a run split over two chunks ORs its
        # halves together
        if transpose:
            for v in above:
                flags[v] = 1
        else:
            bit = 1 << u
            for v in above:
                flags[v] = 1
                rows[v] |= bit
        upper = mask_of_flags(flags[lo:hi])
        flags[lo:hi] = bytes(hi - lo)
        if upper.bit_count() < count:  # the sorted vs repeat one
            return None
        rows[u] |= upper << lo
        last_u, last_v = u, hi - 1
    return last_u, last_v


def _transposes(n: int, m: int) -> bool:
    """Whether a list of m edges on n vertices forms its lower triangle by
    one transposition: when m >= c * (N/2) * log2 N, with N the least
    power of two >= n and c = _TRANSPOSE_BREAK_EVEN, so that the list
    holds at least c edges for each row pair of the transposition's
    rounds.

    An OR per edge copies an n-bit row, and the transposition takes
    (N/2) * log2 N exchanges of N-bit rows, so the two break even near a
    fixed ratio.  Timed on random graphs with n = 200-4,000 (2-vCPU host,
    Python 3.11), the ORs were 5-9% faster at 5 edges per row pair and the
    transposition 2-39% faster at 10, hence c = 10.
    """
    rounds = (n - 1).bit_length()
    return n > 1 and m >= _TRANSPOSE_BREAK_EVEN * (1 << rounds - 1) * rounds


def _transposed(rows: list[int]) -> list[int]:
    """The transpose of the square bit matrix whose entry (r, c) is bit c
    of rows[r].

    The rows are padded with zero rows to N, the least power of two >=
    len(rows), and transposed in log2 N rounds of bit-parallel block
    swaps: round j (N/2, ..., 2, 1) exchanges, for each row r with bit j
    clear, the high j bits of every 2j-bit block of row r with the low j
    bits of the same block of row r + j.  A pair of zero rows, such as
    two padding rows, is skipped.
    """
    n = len(rows)
    size = 1 << (n - 1).bit_length()
    t = rows + [0] * (size - n)
    j = size >> 1
    while j:
        # the low j bits of every 2j-bit block of an N-bit row
        low = ((1 << size) - 1) // ((1 << 2 * j) - 1) * ((1 << j) - 1)
        for block in range(0, size, 2 * j):
            for r in range(block, block + j):
                a, b = t[r], t[r + j]
                if a or b:
                    x = (a >> j ^ b) & low
                    t[r], t[r + j] = a ^ x << j, b ^ x
        j >>= 1
    del t[n:]
    return t


def _line_ints(lineno: int, parts: list[str]) -> list[int]:
    """The tokens of a line as ints, naming the line and the first token
    that int() refuses."""
    values = []
    for token in parts:
        try:
            values.append(int(token))
        except ValueError:
            raise ValueError(f"line {lineno}: {token!r} is not an integer") from None
    return values


def labels_to_json(G: Graph) -> str:
    if G.labels is None:
        raise ValueError("graph carries no labels")
    return dumps_json([dict(lbl) for lbl in G.labels])


def labels_from_json(text: str) -> tuple[dict, ...]:
    data = loads_json(text)
    if not isinstance(data, list):
        raise ValueError("label sidecar must be a JSON array")
    if not all(isinstance(d, dict) for d in data):
        raise ValueError("label sidecar entries must be JSON objects")
    return tuple(data)


def coloring_to_obj(c: Coloring) -> dict:
    return {"palette_size": c.palette_size, "colors": list(c.colors)}


def _int_list(x, length: int | None = None) -> bool:
    """Whether x is a JSON array of integers (of the given length)."""
    return isinstance(x, list) and all(type(v) is int for v in x) and length in (None, len(x))


def coloring_from_obj(obj: Mapping) -> Coloring:
    if not isinstance(obj, dict):
        raise ValueError('coloring must be a JSON object with "colors" and "palette_size"')
    for key in ("colors", "palette_size"):
        if key not in obj:
            raise ValueError(f'coloring has no "{key}"')
    if not isinstance(obj["colors"], list):
        raise ValueError('coloring "colors" must be an array of colors')
    return Coloring(tuple(obj["colors"]), obj["palette_size"])


def refinement_to_obj(R: RefinementColoring) -> dict:
    """Refined coloring with its decode chain and per-radius orders.

    Decodes are emitted per level, outermost first, so expansion can be
    replayed; the budget product and radius ride along for verifiers.
    """
    levels = [
        {
            "radius": level.radius,
            "budget": level.budget,
            "decode": {str(q): sorted(s) for q, s in level.decode.items()},
        }
        for level in R.levels()
    ]
    obj = coloring_to_obj(R.refined)
    obj["decode"] = levels[0]["decode"]
    obj["levels"] = levels
    obj["orders"] = [list(L.order) for L in R.orders()]
    obj["radius"] = R.radius
    obj["d"] = R.d
    obj["base_palette"] = R.original_base.palette_size
    return obj


def profile_to_obj(ref: RefinementColoring, q: Mapping[int, int]) -> dict:
    """Budget q of a power coloring, with its palette, d, radius and base palette."""
    return {
        "p": len(q),
        "n_colors": ref.refined.palette_size,
        "d": ref.d,
        "radius": ref.radius,
        "q": budget_to_obj(q),
        "base_colors": ref.original_base.palette_size,
    }


def budget_to_obj(q: Mapping[int, int]) -> dict[str, int]:
    """The budget table "q" as JSON: union size, in decimal, -> width."""
    return {str(i): w for i, w in sorted(q.items())}


def budget_from_obj(obj: Mapping) -> dict[int, int]:
    """The budget table "q" of a profile or coloring file: union size -> width
    >= 0, each size in the one form ``budget_to_obj`` writes, so no two keys meet."""
    q = obj.get("q") if isinstance(obj, dict) else None
    sizes_ok = isinstance(q, dict) and all(i.isascii() and i.isdecimal() and i[0] != "0" for i in q)
    if not (sizes_ok and all(type(w) is int and w >= 0 for w in q.values())):
        raise ValueError('budget "q" must be an object from union sizes to integer widths')
    return {int(i): w for i, w in q.items()}


def _union_verdict_to_obj(verdict: tuple[tuple[int, ...], int, int]) -> dict:
    colors, size, width = verdict
    return {"colors": list(colors), "size": size, "width": width}


def union_report_to_obj(report: UnionReport) -> dict:
    return {
        "q": budget_to_obj(report.q),
        "checked_unions": report.checked_unions,
        "measured": {
            str(i): {"width": w, "method": m} for i, (w, m) in sorted(report.measured.items())
        },
        "failures": [_union_verdict_to_obj(v) for v in report.failures],
        "inconclusive": [_union_verdict_to_obj(v) for v in report.inconclusive],
        "verified": report.verified,
    }


def order_to_json(L: LinearOrder) -> str:
    return dumps_json(list(L.order))


def decomposition_to_obj(D: RankDecomposition) -> dict:
    return {
        "nodes": D.node_count,
        "edges": [list(e) for e in D.edges],
        "leaf_map": [{"leaf": leaf, "vertex": v} for leaf, v in D.leaf_map],
    }


def decomposition_from_obj(obj: Mapping) -> RankDecomposition:
    if not isinstance(obj, dict):
        raise ValueError(
            'decomposition must be a JSON object with "nodes", "edges" and "leaf_map"'
        )
    for key in ("nodes", "edges", "leaf_map"):
        if key not in obj:
            raise ValueError(f'decomposition has no "{key}"')
    if type(obj["nodes"]) is not int:
        raise ValueError('decomposition "nodes" must be an integer')
    if not (isinstance(obj["edges"], list) and all(_int_list(e, 2) for e in obj["edges"])):
        raise ValueError('decomposition "edges" must be an array of [a, b] node pairs')
    if not (
        isinstance(obj["leaf_map"], list)
        and all(isinstance(d, dict) and _int_list([d.get("leaf"), d.get("vertex")])
                for d in obj["leaf_map"])
    ):
        raise ValueError(
            'decomposition "leaf_map" must be an array of {"leaf": t, "vertex": v} objects'
        )
    return RankDecomposition(
        obj["nodes"],
        tuple(tuple(e) for e in obj["edges"]),
        tuple((d["leaf"], d["vertex"]) for d in obj["leaf_map"]),
    )


def width_report_to_obj(rep: WidthReport) -> dict:
    obj = {"value": rep.value, "method": rep.method}
    if rep.decomposition is not None:
        obj["decomposition"] = decomposition_to_obj(rep.decomposition)
    return obj


def certificate_to_obj(cert: MatchingCertificate) -> dict:
    return {
        "side": cert.side,
        "direction": list(cert.direction),
        "order": cert.order,
        "pairs": [{"a": a, "b": b, "c": c} for a, b, c in cert.pairs],
    }


def partition_to_obj(part: Bipartition) -> dict:
    return {side: list(select_bits(range(mask.bit_length()), mask))
            for side, mask in (("S", part.s_mask), ("T", part.t_mask))}


def partition_from_obj(obj: Mapping, G: Graph) -> Bipartition:
    if not isinstance(obj, dict):
        raise ValueError('partition must be a JSON object with "S" and "T" arrays')
    for key in ("S", "T"):
        if key not in obj:
            raise ValueError(f'partition has no "{key}" array')
        if not _int_list(obj[key]):
            raise ValueError(f'partition "{key}" must be an array of vertex ids')
    part = Bipartition.of(G, obj["S"])
    T, t = frozenset(obj["T"]), part.t_mask
    if (len(T) != t.bit_count() or not all(v >= 0 and t >> v & 1 for v in T)
            or len(obj["S"]) + len(obj["T"]) != G.n):
        raise ValueError("S and T do not partition the vertex set")
    return part


def extraction_report_to_obj(rep: ExtractionReport) -> dict:
    return {
        "target": rep.target,
        "achieved": rep.achieved,
        "guaranteed": rep.guaranteed,
        "colors_used": list(rep.colors_used),
        "stage_sizes": list(rep.stage_sizes),
        "thresholds": list(rep.thresholds),
        "x_rows": list(rep.x_rows),
        "y_cols": list(rep.y_cols),
    }


def witness_to_obj(vertices, kind: str, params: EHParams, n: int) -> dict:
    return {
        "kind": kind,
        "vertices": sorted(vertices),
        "epsilon": params.epsilon,
        "n": n,
    }


def rotations_from_json(text: str) -> list[list[int]]:
    obj = loads_json(text)
    rot = obj.get("rotations") if isinstance(obj, dict) else obj
    if not (isinstance(rot, list) and all(_int_list(r) for r in rot)):
        raise ValueError(
            'rotations must be an array of vertex-id arrays, or an object whose "rotations" is one'
        )
    return rot
