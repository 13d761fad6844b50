"""Text and JSON formats: canonical edge lists, label sidecars, colorings,
decompositions, certificates, witnesses, and run manifests.

Everything serializes deterministically (sorted keys, fixed layout) so
reruns are byte-identical.
"""

from __future__ import annotations

import json
from typing import Mapping

from .coloring import Coloring, ColoringProfile, RefinementColoring
from .ehchi import EHParams
from .graph import Graph, build_graph
from .lab import Bipartition, ExtractionReport, MatchingCertificate
from .orderings import LinearOrder
from .widths import RankDecomposition, WidthReport


def dumps_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def serialize_edge_list(G: Graph) -> str:
    """Canonical edge-list text: `n m` header then sorted `u v` lines."""
    edges = G.edges()
    lines = [f"{G.n} {len(edges)}"]
    for u, v in edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse the canonical edge-list format, enforcing its sortedness.

    Blank lines and `#` comment lines, which files written elsewhere may
    carry, are skipped.
    """
    data_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        data_lines.append((lineno, line))
    if not data_lines:
        raise ValueError("edge list has no data lines")
    lineno, header = data_lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"line {lineno}: header must be 'n m'")
    n, m = int(parts[0]), int(parts[1])
    if len(data_lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(data_lines) - 1}")
    edges = []
    prev = None
    for lineno, line in data_lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: edge line must be 'u v'")
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < v < n):
            raise ValueError(f"line {lineno}: edge ({u}, {v}) violates 0 <= u < v < n")
        if prev is not None and (u, v) <= prev:
            raise ValueError(f"line {lineno}: edges are not strictly sorted")
        prev = (u, v)
        edges.append((u, v))
    return build_graph(n, edges)


def labels_to_json(G: Graph) -> str:
    if G.labels is None:
        raise ValueError("graph carries no labels")
    return dumps_json([dict(lbl) for lbl in G.labels])


def labels_from_json(text: str) -> tuple[dict, ...]:
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("label sidecar must be a JSON array")
    return tuple(dict(d) for d in data)


def coloring_to_obj(c: Coloring) -> dict:
    return {"palette_size": c.palette_size, "colors": list(c.colors)}


def coloring_from_obj(obj: Mapping) -> Coloring:
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


def profile_to_obj(p: ColoringProfile) -> dict:
    return {
        "p": p.p,
        "n_colors": p.n_colors,
        "d": p.d,
        "radius": p.radius,
        "q": {str(i): v for i, v in sorted(p.q.items())},
        "base_colors": p.base_colors,
        "measured": {
            str(i): {"width": w, "method": m} for i, (w, m) in sorted(p.measured.items())
        },
        "verified": p.verified,
        "seed": p.seed,
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
    return {"S": sorted(part.S), "T": sorted(part.T)}


def partition_from_obj(obj: Mapping, G: Graph) -> Bipartition:
    part = Bipartition.of(G, obj["S"])
    if set(obj["T"]) != set(part.T):
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
    obj = json.loads(text)
    rot = obj["rotations"] if isinstance(obj, dict) else obj
    return [list(r) for r in rot]
