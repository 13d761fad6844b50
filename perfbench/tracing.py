"""Per-layer tracing of rwcolor from outside the package.

Each listed public function is wrapped by rebinding its name in every
``rwcolor`` module that binds it, so calls made through ``from .x import f``
are caught as well; the package's source is not touched.  The wrapper
records one span per call (name, start, end, parent) in flat in-memory
arrays and accumulates call counts and self time.  A span's self time is
its duration minus the time covered by wrapped child spans.

Counts are kept per item.  ``end_item(keep=False)`` drops the numbers of an
item that failed: how far a timed-out item gets depends on the host's
speed, and dropping failed items keeps ``.calls`` exactly repeatable.  The
outcomes of certificate calls that returned are kept whatever the item's
fate, since an imbalance report in place of a certificate is what fails
its item.  The item's spans stay in the written trace, tagged with the
item index.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = {
    "graph": ("cutrank_mask", "rank_of_bitrows", "induced_subgraph", "power"),
    "orderings": ("wcol_heuristic", "wcol_of_order", "wreach_sets", "wcol_exact"),
    "widths": (
        "rank_width_exact",
        "rank_width_upper",
        "tree_depth_exact",
        "rank_width_of_subgraph",
        "verify_decomposition",
    ),
    "coloring": (
        "low_rankwidth_coloring_of_power",
        "treedepth_coloring",
        "verify_td_coloring",
        "excellent_refinement",
        "verify_low_rw_coloring",
    ),
    "families": ("twisted_chain",),
    "lab": (
        "random_balanced_bipartition",
        "lower_bound_certificate",
        "certificate_rank",
        "ramsey_bireduce",
        "monochromatic_substructure",
    ),
    "ehchi": ("eh_witness", "cograph_extract", "chi_product_coloring"),
    "formats": ("serialize_edge_list", "parse_edge_list"),
    "cli": ("main",),
}

QUALNAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

RW_EXACT = "widths.rank_width_exact"
RW_UPPER = "widths.rank_width_upper"
RW_SUBGRAPH = "widths.rank_width_of_subgraph"
TD_VERIFY = "coloring.verify_td_coloring"
LB_CERT = "lab.lower_bound_certificate"
PARSE = "formats.parse_edge_list"

EXTRA_METRICS = (
    ("widths.rank_width_exact.distinct_frac", "ratio"),
    ("widths.rank_width_of_subgraph.upper_frac", "ratio"),
    ("coloring.verify_td_coloring.unions", "count"),
    ("lab.lower_bound_certificate.success_frac", "ratio"),
    ("formats.parse_edge_list.bytes", "count"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced pass prints, with its unit."""
    units = {}
    for q in QUALNAMES:
        units[f"{q}.calls"] = "count"
        units[f"{q}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update(dict(EXTRA_METRICS))
    return units


class _Tally:
    """Counts of one item (or of set-up)."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.rw_graphs: set = set()
        self.subgraph_solves = 0
        self.subgraph_uppers = 0
        self.unions = 0
        self.certificates = 0  # lower_bound_certificate calls that returned ...
        self.balanced = 0  # ... and of those, the ones that found a certificate
        self.parse_bytes = 0

    def merge(self, other: "_Tally") -> None:
        self.calls.update(other.calls)
        self.self_s.update(other.self_s)
        self.rw_graphs |= other.rw_graphs
        self.subgraph_solves += other.subgraph_solves
        self.subgraph_uppers += other.subgraph_uppers
        self.unions += other.unions
        self.merge_certificates(other)
        self.parse_bytes += other.parse_bytes

    def merge_certificates(self, other: "_Tally") -> None:
        self.certificates += other.certificates
        self.balanced += other.balanced


class Tracer:
    """Span and counter recorder around the listed rwcolor functions."""

    def __init__(self):
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_item = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.item = -1  # -1 is set-up
        self.total = _Tally()
        self.current = _Tally()
        self._stack: list[list] = []  # [span index, name id, child time]
        self._rebound: list[tuple] = []

    def install(self) -> None:
        """Rebind every listed function in every loaded rwcolor module."""
        importlib.import_module("rwcolor.cli")
        wrappers = {}
        for qid, qual in enumerate(QUALNAMES):
            layer, fn = qual.split(".")
            original = getattr(importlib.import_module(f"rwcolor.{layer}"), fn)
            wrappers[id(original)] = self._wrap(qid, original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "rwcolor" or name.startswith("rwcolor.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        """Restore the original functions."""
        for module, attr, value in self._rebound:
            setattr(module, attr, value)
        self._rebound.clear()

    def _wrap(self, qid: int, fn):
        qual = QUALNAMES[qid]
        stack = self._stack
        names, parents, items = self.span_name, self.span_parent, self.span_item
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(starts)
            names.append(qid)
            parents.append(parent[0] if parent is not None else -1)
            items.append(tracer.item)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, qid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                dur = t1 - t0
                if parent is not None:
                    parent[2] += dur
                tally = tracer.current
                tally.calls[qual] += 1
                tally.self_s[qual] += dur - frame[2]
            tracer._observe(qual, parent, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _observe(self, qual, parent, args, kwargs, result) -> None:
        """Extra counts taken from a call that returned."""
        tally = self.current
        if qual in (RW_EXACT, RW_UPPER):
            if qual == RW_EXACT:
                g = args[0] if args else kwargs["G"]
                tally.rw_graphs.add(g.adj)
            if parent is not None and QUALNAMES[parent[1]] == RW_SUBGRAPH:
                tally.subgraph_solves += 1
                tally.subgraph_uppers += qual == RW_UPPER
        elif qual == TD_VERIFY:
            tally.unions += result.checked_unions
        elif qual == LB_CERT:
            tally.certificates += 1
            tally.balanced += hasattr(result, "pairs")
        elif qual == PARSE:
            text = args[0] if args else kwargs["text"]
            tally.parse_bytes += len(text)  # the edge-list format is ASCII

    def begin_item(self, index: int) -> None:
        self.item = index
        self.current = _Tally()

    def end_item(self, keep: bool) -> None:
        if keep:
            self.total.merge(self.current)
        else:
            self.total.merge_certificates(self.current)
        self.item = -1
        self.current = _Tally()
        # a timeout can strike inside a wrapper's own bookkeeping: drop the
        # frames it left on the stack and a span it half recorded
        del self._stack[:]
        arrays = (self.span_name, self.span_parent, self.span_item,
                  self.span_start, self.span_end)
        complete = min(map(len, arrays))
        for a in arrays:
            del a[complete:]

    def metrics(self) -> dict[str, float]:
        t = self.total
        out: dict[str, float] = {}
        for layer, fns in LAYERS.items():
            layer_self = 0.0
            for fn in fns:
                qual = f"{layer}.{fn}"
                out[f"{qual}.calls"] = t.calls[qual]
                out[f"{qual}.self_s"] = t.self_s[qual]
                layer_self += t.self_s[qual]
            out[f"{layer}.self_s"] = layer_self
        rw_calls = t.calls[RW_EXACT]
        out["widths.rank_width_exact.distinct_frac"] = (
            len(t.rw_graphs) / rw_calls if rw_calls else 0.0
        )
        out["widths.rank_width_of_subgraph.upper_frac"] = (
            t.subgraph_uppers / t.subgraph_solves if t.subgraph_solves else 0.0
        )
        out["coloring.verify_td_coloring.unions"] = t.unions
        out["lab.lower_bound_certificate.success_frac"] = (
            t.balanced / t.certificates if t.certificates else 0.0
        )
        out["formats.parse_edge_list.bytes"] = t.parse_bytes
        return out

    def write(self, path: str, item_ids: list[str], outcomes: list[str]) -> None:
        """Write spans (one JSON array per line) and the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": list(QUALNAMES), "items": item_ids,
                                 "outcomes": outcomes, "metrics": self.metrics()}) + "\n")
            fh.write('["name", "start", "end", "parent", "item"]\n')
            for i in range(len(self.span_start)):
                fh.write(
                    f"[{self.span_name[i]}, {self.span_start[i]!r}, {self.span_end[i]!r}, "
                    f"{self.span_parent[i]}, {self.span_item[i]}]\n"
                )
