"""Text and JSON formats: canonical edge lists, label sidecars, colorings,
decompositions, certificates, witnesses, and run manifests.

Everything serializes deterministically (sorted keys, fixed layout) so
reruns are byte-identical.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import Counter
from itertools import chain, islice
from operator import lt
from typing import Iterator, Mapping, NoReturn

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


def serialize_edge_list(G: Graph) -> str:
    """Canonical edge-list text: `n m` header then sorted `u v` lines.

    Each row's lines are one join over precomputed vertex names.
    """
    names = list(map(str, range(G.n)))
    uppers = [row >> (u + 1) << (u + 1) for u, row in enumerate(G.adj)]
    lines = [f"{G.n} {sum(map(int.bit_count, uppers))}"]
    for u, above in enumerate(uppers):
        if above:
            head = names[u] + " "
            lines.append(head + ("\n" + head).join(select_bits(names, above)))
    return "\n".join(lines) + "\n"


# most vertices a header may declare; refused before any n-sized list is built
MAX_VERTICES = 1 << 20


def parse_edge_list(text: str) -> Graph:
    """Parse the canonical edge-list format, enforcing its sortedness.

    Blank lines and `#` comment lines, which files written elsewhere may
    carry, are skipped, and tokens may be separated by any whitespace.

    Each chunk of text becomes rows as soon as `_data_pairs` reads it, so
    no list of the whole file's edges is built: on the order-24 chain the
    parse peaks at about 0.7x the text under ``tracemalloc``.  The chunks
    are checked in bulk, and only when a check fails is the text read line
    by line, to name the first faulty line.  The bulk checks are the layout
    (in `_data_pairs`), n <= MAX_VERTICES before any n-sized list is built,
    and per chunk 0 <= u < v < n and the strict order, which holds exactly
    when the us never decrease, the chunk's first pair is above the last
    pair before it, and the upper neighbours of each u, the vs of its run
    of lines, increase.  The edge count is checked last.
    """
    pairs = _data_pairs(text)
    first = next(pairs, None)
    if first is None:
        raise ValueError("edge list has no data lines")
    n, m = first[0].pop(0), first[1].pop(0)  # the header
    if n > MAX_VERTICES:
        _raise_first_fault(text)
    rows = [0] * n
    flags = bytearray(max(n, 0))  # all zero between runs; Graph refuses n < 1
    # the pair every edge must be above: (0, 0) is below exactly the pairs
    # with u > 0 or u == 0 < v, so it also refuses a negative first u
    last = (0, 0)
    edges = 0
    for firsts, seconds in chain([first], pairs):
        if not firsts:
            continue
        if not (
            (firsts[0], seconds[0]) > last
            and firsts == sorted(firsts)
            and max(seconds) < n
            and all(map(lt, firsts, seconds))
        ):
            _raise_first_fault(text)
        last = firsts[-1], seconds[-1]
        edges += len(firsts)
        # each run of one u ORs u's bit into the rows of its upper
        # neighbours and sets u's upper half from flags over the span of
        # the run only, so the work grows with the edges, never with n
        # squared; a run split over two chunks ORs its halves together
        start = 0
        while start < len(firsts):
            u = firsts[start]
            end = bisect_right(firsts, u, start)
            above = seconds[start:end]
            if not all(map(lt, above, islice(above, 1, None))):
                _raise_first_fault(text)
            bit = 1 << u
            for v in above:
                flags[v] = 1
                rows[v] |= bit
            lo, hi = above[0], above[-1] + 1
            rows[u] |= mask_of_flags(flags[lo:hi]) << lo
            flags[lo:hi] = bytes(hi - lo)
            start = end
    if edges != m:
        _raise_first_fault(text)
    return Graph(n, tuple(rows))


# characters of text split at once, each chunk ending just after a "\n";
# bounds the tokens held in memory
_CHUNK_CHARS = 1 << 16
# a chunk holding none of these, and only ASCII, has "\n" as its one line
# break (the others of str.splitlines are "\r", "\x0b", "\x0c", "\x1c",
# "\x1d", "\x1e", "\x85", "\u2028" and "\u2029") and no comment
_NOT_PLAIN = "#\r\x0b\x0c\x1c\x1d\x1e"


class _Ints(dict):
    """Token -> int, converting each distinct token once, so a vertex id
    repeated on many lines is one shared int."""

    def __missing__(self, token: str) -> int:
        value = self[token] = int(token)
        return value


def _data_pairs(text: str) -> Iterator[tuple[list[int], list[int]]]:
    """Per chunk of the text that holds a data line, the first and the
    second token of each of its data lines as ints, the header first, once
    each data line of the chunk is found to hold exactly two tokens.

    The text is read in chunks of whole lines.  A plain chunk (see
    `_NOT_PLAIN`) has its "\n" replaced by " | " and is split at once, so
    no container per line is built.  When its k lines split into 3k - 1
    tokens (the "|" of a final "\n" aside) and int() accepts every token
    off the places 2, 5, 8, ..., each line holds exactly two tokens: int()
    rejects "|", so the k - 1 "|" between the lines fill those k - 1
    places.  Any other chunk, and a plain chunk that fails the count, which
    a blank line does, has its lines stripped and its blank and `#` lines
    dropped, and its data lines are joined with " | " and put to the same
    test.  A plain chunk that passes the count but fails int() is faulty:
    were each of its lines blank or two ints, the count would fail on a
    blank line, and int() would pass without one.
    """
    to_int = _Ints().__getitem__
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        chunk = text[start:end]
        start = end
        lines = chunk.count("\n") + (chunk[-1] != "\n")
        tokens = []  # fails the count below, so a chunk that is not plain is filtered
        if chunk.isascii() and not any(map(chunk.__contains__, _NOT_PLAIN)):
            tokens = chunk.replace("\n", " | ").split()
            if chunk[-1] == "\n":
                tokens.pop()
        if len(tokens) != 3 * lines - 1:
            data = [line for line in map(str.strip, chunk.splitlines()) if line and line[0] != "#"]
            if not data:
                continue
            tokens = " | ".join(data).split()
            if len(tokens) != 3 * len(data) - 1:
                _raise_first_fault(text)
        try:
            pair = list(map(to_int, tokens[0::3])), list(map(to_int, tokens[1::3]))
        except ValueError:
            _raise_first_fault(text)
        yield pair


def _raise_first_fault(text: str) -> NoReturn:
    """Raise the error of the first faulty line of an edge list that failed
    a bulk check, in the order the lines are read."""
    numbered = [
        (lineno, line)
        for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1)
        if line and line[0] != "#"
    ]
    lineno, header = numbered[0]
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"line {lineno}: header must be 'n m'")
    n, m = _line_ints(lineno, parts)
    if n > MAX_VERTICES:
        raise ValueError(f"line {lineno}: {n} vertices exceed the limit of {MAX_VERTICES}")
    if len(numbered) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(numbered) - 1}")
    prev = None
    for lineno, line in numbered[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: edge line must be 'u v'")
        u, v = _line_ints(lineno, parts)
        if not (0 <= u < v < n):
            raise ValueError(f"line {lineno}: edge ({u}, {v}) violates 0 <= u < v < n")
        if prev is not None and (u, v) <= prev:
            raise ValueError(f"line {lineno}: edges are not strictly sorted")
        prev = (u, v)
    raise AssertionError("an edge list failed a bulk check that no line fails")


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
    levels = []
    node: RefinementColoring | None = R
    while node is not None:
        levels.append(
            {
                "radius": node.radius,
                "budget": node.budget,
                "decode": {str(q): sorted(s) for q, s in node.decode.items()},
            }
        )
        node = node.inner
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
    """The budget table "q" of a profile or coloring file: union size -> width,
    each size in the one form ``budget_to_obj`` writes, so no two keys meet."""
    q = obj.get("q") if isinstance(obj, dict) else None
    sizes_ok = isinstance(q, dict) and all(i.isascii() and i.isdecimal() and i[0] != "0" for i in q)
    if not (sizes_ok and all(type(w) is int for w in q.values())):
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
