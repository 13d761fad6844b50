"""The benchmark's three workloads as seeded lists of items.

An item is one unit of user work: an exact-solver call, a CLI chain, or a
certificate harness step.  ``run`` is the timed part and returns the raw
output; ``summarize`` turns that into the JSON value pinned for the default
seed; ``check`` verifies a witness on any seed.  Both run after the pass,
outside the timed interval, and call the functions imported here at module
load, which the tracer never rebinds.

Items call rwcolor through module attributes (``W.rank_width_exact``), so
the traced pass sees them through the rebound names.

A run repeats its items in rounds, each in its own process, and an item's
latency is its median round (see ``run.py``).  Item counts are per round
and scale with ``--seconds``: each kind gets
``max(1, round(base * seconds / NOMINAL_SECONDS))`` items, sampled without
replacement from its pool, so every input of a round is distinct.  Reach
items (instances the program fails on at the seed commit) appear once
whatever the scale, because each one that times out costs its budget; an
item that fails is not run again in later rounds.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import json
import os
import random
import re
from contextlib import redirect_stderr
from dataclasses import dataclass
from typing import Any, Callable

from rwcolor import cli
from rwcolor import families as F
from rwcolor import formats as FMT
from rwcolor import lab as LAB
from rwcolor import orderings as O
from rwcolor import widths as W
from rwcolor.formats import partition_to_obj, serialize_edge_list
from rwcolor.graph import Graph, build_graph
from rwcolor.lab import certificate_rank
from rwcolor.orderings import wcol_of_order
from rwcolor.widths import verify_decomposition

NOMINAL_SECONDS = 30
DEFAULT_SEED = 0
WORKLOADS = ("oracles", "pipelines", "certificates")
BUDGET_S = {"oracles": 4.0, "pipelines": 3.0, "certificates": 4.0}

_CAP_RE = re.compile(r"\bcap(ped)?\b")


class ItemError(Exception):
    """An item ended without a usable result; ``reason`` says why."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class Wrong(Exception):
    """An item returned a result that fails its correctness check."""


def failure_reason(exc: Exception) -> str:
    if isinstance(exc, ItemError):
        return exc.reason
    if isinstance(exc, ValueError) and _CAP_RE.search(str(exc)):
        return "cap"
    return f"error: {type(exc).__name__}: {exc}"[:200]


@dataclass
class Item:
    id: str
    run: Callable[[], Any]
    summarize: Callable[[Any], Any]
    check: Callable[[Any], None]
    reach: bool = False
    # computes the raw output for pinning, with caps raised for reach items;
    # None when no finite computation exists at the seed commit
    pin_run: Callable[[], Any] | None = None


def _rng(seed: int, *key) -> random.Random:
    return random.Random("/".join(str(k) for k in (seed, *key)))


def _count(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def _sample(pool: list, k: int, rng: random.Random) -> list:
    return rng.sample(pool, min(k, len(pool)))


def gnp(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Wrong(msg)


# ---------------------------------------------------------------- oracles

def _rw_item(iid: str, g: Graph, reach: bool = False) -> Item:
    def check(rep):
        if rep.decomposition is not None:
            width = verify_decomposition(g, rep.decomposition)
            _expect(width == rep.value, f"decomposition has width {width}, reported {rep.value}")
        _expect(rep.method == "exact", f"method {rep.method}")

    return Item(
        iid,
        run=lambda: W.rank_width_exact(g),
        summarize=lambda rep: rep.value,
        check=check,
        reach=reach,
        pin_run=lambda: W.rank_width_exact(g, cap=g.n),
    )


def _td_item(iid: str, g: Graph, reach: bool = False) -> Item:
    def check(value):
        _expect(1 <= value <= g.n, f"tree-depth {value} outside 1..{g.n}")

    return Item(
        iid,
        run=lambda: W.tree_depth_exact(g),
        summarize=lambda value: value,
        check=check,
        reach=reach,
        pin_run=lambda: W.tree_depth_exact(g, cap=g.n),
    )


def _wcol_item(iid: str, g: Graph, r: int, reach: bool = False) -> Item:
    def check(out):
        value, order = out
        got = wcol_of_order(g, order, r)
        _expect(got == value, f"witness order has wcol {got}, reported {value}")

    return Item(
        iid,
        run=lambda: O.wcol_exact(g, r),
        summarize=lambda out: out[0],
        check=check,
        reach=reach,
        pin_run=lambda: O.wcol_exact(g, r, cap=g.n),
    )


ORACLE_KINDS = (
    # (kind, n, base count); the counts put the median inside the rw n=11
    # items and p90 inside the rw n=12 items.  Exact rank-width costs nearly
    # the same on every graph of one order, so neither moves with the seed.
    ("td", 12, 14),
    ("rw", 10, 14),
    ("td", 13, 12),
    ("rw", 11, 26),
    ("wcol", 7, 10),
    ("td", 14, 10),
    ("rw", 12, 10),
    ("wcol", 8, 1),
)
TWO_ROW = (("h", 2, 5), ("htilde", 2, 5), ("h", 2, 6), ("htilde", 2, 6))
EDGE_P = 0.4
WCOL_R = 2


def _two_row_item(entry: tuple) -> Item:
    fam, rows, m = entry
    g = (F.h_graph if fam == "h" else F.h_tilde)(rows, m)
    return _rw_item(f"rw-{fam}-{rows}x{m}", g)


def oracle_items(seed: int, scale: float) -> list[Item]:
    items = []
    for kind, n, base in ORACLE_KINDS:
        for i in range(_count(base, scale)):
            g = gnp(n, EDGE_P, _rng(seed, kind, n, i))
            iid = f"{kind}-n{n}-s{seed}-{i}"
            if kind == "rw":
                items.append(_rw_item(iid, g))
            elif kind == "td":
                items.append(_td_item(iid, g))
            else:
                items.append(_wcol_item(iid, g, WCOL_R))
    items += [_two_row_item(e) for e in TWO_ROW[: _count(len(TWO_ROW), scale)]]
    # one vertex above each default cap: 12, 14 and 9
    reach = {kind: gnp(n, EDGE_P, _rng(seed, "reach", kind))
             for kind, n in (("rw", 13), ("td", 15), ("wcol", 10))}
    items.append(_rw_item(f"reach-rw-n13-s{seed}", reach["rw"], reach=True))
    items.append(_td_item(f"reach-td-n15-s{seed}", reach["td"], reach=True))
    items.append(_wcol_item(f"reach-wcol-n10-s{seed}", reach["wcol"], WCOL_R, reach=True))
    return items


# ---------------------------------------------------------------- CLI helpers

def _cli(argv: list[str]) -> None:
    """Run one CLI command in-process; a non-zero exit fails the item."""
    err = io.StringIO()
    with redirect_stderr(err):
        code = cli.main(argv)
    if code == 1:
        raise ItemError("unverified")
    if code != 0:
        msg = err.getvalue().strip().removeprefix("error: ")
        raise ItemError("cap" if _CAP_RE.search(msg) else f"error: exit {code}: {msg}"[:200])


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------- pipelines

# (family, label, CLI generator arguments, r, p).  At the nominal size every
# seed runs all of them, so the median falls among the same pipelines.  Each
# passes in milliseconds: d*p >= n makes the base tree-depth coloring the
# identity, or p = 1 keeps it proper.
POWER_POOL = (
    [("grid", f"{a}x{b}", ["--a", str(a), "--b", str(b)], 3, p)
     for a, b in ((3, 3), (3, 4), (3, 5), (4, 4), (4, 5), (5, 5)) for p in (1, 2)]
    + [("grid", f"{a}x{b}", ["--a", str(a), "--b", str(b)], 2, 2)
       for a, b in ((3, 3), (3, 4), (4, 4), (4, 5), (5, 5))]
    + [(fam, str(n), ["--n", str(n)], 3, p)
       for fam in ("cycle", "path") for n in (8, 12, 16, 20, 24) for p in (1, 2)]
    + [("cycle", str(n), ["--n", str(n)], 2, 2) for n in (8, 10, 12, 14, 16)]
    + [("path", str(n), ["--n", str(n)], 2, 2) for n in (6, 8, 10)]
    + [("path", "10", ["--n", "10"], 2, 1), ("path", "16", ["--n", "16"], 2, 1),
       ("cycle", "16", ["--n", "16"], 2, 1)]
)
# random_degenerate(n, 2, seed) shapes that pass on every seed: radius 3
# gives d >= 2*wcol_2 * 2*wcol_3 > n
POWER_RANDOM = ((12, 3, 1), (12, 3, 2), (16, 3, 1), (16, 3, 2), (20, 3, 1), (20, 3, 2))
POWER_REACH = (
    ("grid", "6x6", ["--a", "6", "--b", "6"], 2, 2),
    ("grid", "4x4", ["--a", "4", "--b", "4"], 2, 1),
    ("cycle", "24", ["--n", "24"], 2, 2),
)

# single-row sweep specs (family, rows, columns, p), grouped by cost.  At the
# nominal size every seed runs all heavy and medium rows: the heavy ones,
# which re-solve the same small components hundreds of times, lie above
# p90, and p90 falls among the medium ones (0.05-0.2 s each).
SWEEP_HEAVY = (("h", 4, 4, 3), ("h", 6, 4, 3), ("h", 6, 6, 2))
SWEEP_MEDIUM = (
    ("h", 2, 6, 2), ("h", 2, 6, 3), ("h", 3, 4, 3), ("h", 4, 5, 3), ("h", 5, 5, 2),
    ("h", 5, 5, 3), ("h", 6, 5, 2), ("h", 6, 5, 3),
    ("htilde", 2, 6, 2), ("htilde", 2, 6, 3), ("htilde", 3, 4, 3), ("htilde", 4, 5, 2),
    ("htilde", 4, 5, 3), ("htilde", 5, 5, 2), ("htilde", 5, 5, 3), ("htilde", 6, 5, 2),
    ("htilde", 6, 5, 3),
)
SWEEP_SMALL = tuple(
    (fam, n, m, p)
    for fam in ("h", "htilde")
    for n in range(2, 7)
    for m in (2, 3, 4)
    for p in (1, 2, 3)
    if not (m == 4 and p == 3 and n >= 3)
)

# The seeded items are few, and the eh shapes cost well below or well above
# the median power pipeline, so the seed barely moves p50.
PIPELINE_COUNTS = {"power_random": 4, "sweep_small": 12, "eh": 9, "chi": 8}
EH_SHAPES = ((16, 2), (20, 2), (20, 3))  # (n, classes)
EH_WIDTH_BOUND = 6
CHI_N, CHI_P, CHI_CLASSES = 60, 0.1, 4


def _power_item(iid: str, workdir: str, family: str, gen_args: list[str], r: int, p: int,
                reach: bool = False) -> Item:
    d = os.path.join(workdir, iid)
    g_el, pow_el = os.path.join(d, "g.el"), os.path.join(d, "pow.el")
    col, prof, ver = (os.path.join(d, f) for f in ("col.json", "prof.json", "verify.json"))

    def run():
        os.makedirs(d, exist_ok=True)
        _cli(["gen", family, *gen_args, "-o", g_el])
        _cli(["power", "-r", str(r), "-i", g_el, "-o", pow_el])
        _cli(["color", "lowrw", "-r", str(r), "-p", str(p), "-i", g_el, "-o", col,
              "--profile", prof])
        _cli(["verify", "coloring", "--mode", "lowrw", "-p", str(p), "-i", pow_el,
              "-c", col, "-o", ver])
        return d

    def summarize(_):
        c, v = _read_json(col), _read_json(ver)
        return {"palette": c["palette_size"], "base": c["base_palette"], "d": c["d"],
                "widths": {i: m["width"] for i, m in v["measured"].items()},
                "verified": v["verified"]}

    def check(_):
        c, v = _read_json(col), _read_json(ver)
        with open(g_el, encoding="utf-8") as fh:
            n = int(fh.readline().split()[0])
        _expect(len(c["colors"]) == n, "coloring does not cover the graph")
        _expect(len(set(c["colors"])) <= c["palette_size"] <= n, "palette out of range")
        _expect(v["verified"] is True, "verifier did not verify")
        for i, m in v["measured"].items():
            _expect(m["width"] <= v["q"][i], f"width {m['width']} above Q({i})")

    return Item(iid, run, summarize, check, reach, pin_run=None if reach else run)


def _sweep_item(iid: str, workdir: str, fam: str, n: int, m: int, p: int) -> Item:
    d = os.path.join(workdir, iid)
    spec, out = os.path.join(d, "spec.json"), os.path.join(d, "rows.csv")
    os.makedirs(d, exist_ok=True)
    _write_text(spec, json.dumps({"runs": [{
        "name": iid, "generator": {"family": fam, "n": n, "m": m},
        "pipeline": {"kind": "rowcolor-verify", "p": p}}]}))

    def run():
        _cli(["report", "sweep", "--spec", spec, "-o", out])
        return out

    def row():
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        _expect(len(rows) == 1, f"{len(rows)} sweep rows")
        return rows[0]

    def check(_):
        # the sweep exits 0 whatever the row says
        r = row()
        _expect(r["error"] == "", f"sweep row error: {r['error']}")
        _expect(r["verified"] == "true", "row coloring not verified")
        widths = [int(x) for x in r["widths"].split(";")]
        budgets = [int(x) for x in r["budgets"].split(";")]
        unions = min(p, n)  # row i gets color (i mod (p+1)) + 1
        _expect(budgets == [3 * i for i in range(1, unions + 1)], f"budgets {budgets}")
        _expect(all(w <= b for w, b in zip(widths, budgets)), "width above budget")

    def summarize(_):
        r = row()
        return {k: r[k] for k in ("n", "palette", "widths", "budgets", "verified", "error")}

    return Item(iid, run, summarize, check, pin_run=run)


def _eh_item(iid: str, workdir: str, g: Graph, classes: int) -> Item:
    d = os.path.join(workdir, iid)
    g_el, out = os.path.join(d, "g.el"), os.path.join(d, "witness.json")
    os.makedirs(d, exist_ok=True)
    _write_text(g_el, FMT.serialize_edge_list(g))

    def run():
        _cli(["eh", "extract", "-i", g_el, "--classes", str(classes),
              "--width-bound", str(EH_WIDTH_BOUND), "-o", out])
        return out

    def check(_):
        w = _read_json(out)
        vs = w["vertices"]
        _expect(len(vs) >= 2, "witness has fewer than 2 vertices")
        pairs = [g.has_edge(u, v) for u, v in itertools.combinations(vs, 2)]
        want = w["kind"] == "clique"
        _expect(all(x == want for x in pairs), f"witness is not a {w['kind']}")

    def summarize(_):
        w = _read_json(out)
        return {"kind": w["kind"], "vertices": w["vertices"]}

    return Item(iid, run, summarize, check, pin_run=run)


def _chi_item(iid: str, workdir: str, g: Graph, colors: list[int]) -> Item:
    d = os.path.join(workdir, iid)
    g_el, c_in, out = (os.path.join(d, f) for f in ("g.el", "c.json", "prod.json"))
    os.makedirs(d, exist_ok=True)
    _write_text(g_el, FMT.serialize_edge_list(g))
    _write_text(c_in, json.dumps({"palette_size": max(colors), "colors": colors}))

    def run():
        _cli(["chi", "product", "-i", g_el, "-c", c_in, "-o", out])
        return out

    def check(_):
        c = _read_json(out)["colors"]
        _expect(len(c) == g.n, "product coloring does not cover the graph")
        bad = [(u, v) for u, v in g.edges() if c[u] == c[v]]
        _expect(not bad, f"product coloring is improper on {bad[:1]}")
        pairs = {(colors[v], c[v]) for v in range(g.n)}
        _expect(len(pairs) == len(set(c)), "product colors do not refine the classes")

    def summarize(_):
        return _read_json(out)["palette_size"]

    return Item(iid, run, summarize, check, pin_run=run)


def _pooled_power_item(entry: tuple, workdir: str, reach: bool = False) -> Item:
    family, label, gen_args, r, p = entry
    prefix = "reach-power" if reach else "power"
    return _power_item(f"{prefix}-{family}{label}-r{r}p{p}", workdir, family, gen_args, r, p,
                       reach)


def _pooled_sweep_item(entry: tuple, workdir: str) -> Item:
    fam, n, m, p = entry
    return _sweep_item(f"sweep-{fam}{n}x{m}-p{p}", workdir, fam, n, m, p)


def pipeline_items(seed: int, scale: float, workdir: str) -> list[Item]:
    items = [
        _pooled_power_item(e, workdir)
        for e in _sample(POWER_POOL, _count(len(POWER_POOL), scale), _rng(seed, "power"))
    ]
    for i in range(_count(PIPELINE_COUNTS["power_random"], scale)):
        n, r, p = POWER_RANDOM[i % len(POWER_RANDOM)]
        gseed = _rng(seed, "power_random", i).randrange(1 << 30)
        items.append(_power_item(f"power-random{n}s{gseed}-r{r}p{p}", workdir, "random",
                                 ["--n", str(n), "--d", "2", "--seed", str(gseed)], r, p))
    small = _sample(SWEEP_SMALL, _count(PIPELINE_COUNTS["sweep_small"], scale),
                    _rng(seed, "sweep", "small"))
    medium = SWEEP_MEDIUM[: _count(len(SWEEP_MEDIUM), scale)]
    heavy = SWEEP_HEAVY[: _count(len(SWEEP_HEAVY), scale)]
    items += [_pooled_sweep_item(e, workdir) for e in (*small, *medium, *heavy)]
    for i in range(_count(PIPELINE_COUNTS["eh"], scale)):
        n, classes = EH_SHAPES[i % len(EH_SHAPES)]
        g = gnp(n, 0.5, _rng(seed, "eh", i))
        items.append(_eh_item(f"eh-n{n}c{classes}-s{seed}-{i}", workdir, g, classes))
    for i in range(_count(PIPELINE_COUNTS["chi"], scale)):
        rng = _rng(seed, "chi", i)
        g = gnp(CHI_N, CHI_P, rng)
        colors = [rng.randint(1, CHI_CLASSES) for _ in range(CHI_N)]
        items.append(_chi_item(f"chi-s{seed}-{i}", workdir, g, colors))
    items += [_pooled_power_item(e, workdir, reach=True) for e in POWER_REACH]
    gseed = _rng(seed, "reach", "random").randrange(1 << 30)
    items.append(_power_item(f"reach-power-random20s{gseed}-r2p1", workdir, "random",
                             ["--n", "20", "--d", "2", "--seed", str(gseed)], 2, 1, reach=True))
    return items


# ---------------------------------------------------------------- certificates

# the median falls among the order-24 harness items and p90 among the
# order-36 ones, below the round trips, which take most of the time
CERT_COUNTS = {"harness24": 65, "harness36": 15, "ramsey": 8, "extract": 8, "roundtrip": 3}
RAMSEY_SIZE, RAMSEY_K, RAMSEY_D = 32, 2, 2
EXTRACT_ORDER, EXTRACT_COLORS, EXTRACT_TARGET = 20, 2, 2
ROUNDTRIP_ORDER, REACH_HARNESS_ORDER = 24, 72


def _harness_item(iid: str, g: Graph, order: int, seed: int) -> Item:
    def run():
        part = LAB.random_balanced_bipartition(g, seed)
        cert = LAB.lower_bound_certificate(g, part)
        if not hasattr(cert, "pairs"):
            raise ItemError("unverified")
        return cert, LAB.certificate_rank(g, cert)

    def check(out):
        cert, rank = out
        _expect(rank == cert.order, f"certificate rank {rank} != order {cert.order}")
        _expect(cert.order >= order // 12, f"order {cert.order} below floor(m/12)")
        again = certificate_rank(g, cert)
        _expect(again == rank, f"certificate re-checks at rank {again}")

    return Item(iid, run, lambda out: [out[0].order, out[1]], check, pin_run=run)


def _ramsey_item(iid: str, table: dict) -> Item:
    idx = list(range(RAMSEY_SIZE))

    def run():
        return LAB.ramsey_bireduce(lambda x, y: table[(x, y)], idx, idx, RAMSEY_K, RAMSEY_D)

    def check(res):
        _expect(res.size >= RAMSEY_K, f"block of size {res.size} below k")
        _expect(all(table[(x, y)] == res.color for x in res.xs for y in res.ys),
                "block is not single-valued")

    return Item(iid, run, lambda res: [list(res.xs), list(res.ys), res.color], check,
                pin_run=run)


def _extract_item(iid: str, g: Graph, colors: list[int]) -> Item:
    n = EXTRACT_ORDER
    nn = n * n

    def run():
        return LAB.monochromatic_substructure(g, colors, EXTRACT_TARGET)

    def check(out):
        sub, rep = out
        _expect(rep.achieved >= 1, "empty extraction")
        _expect(sub.n == 3 * rep.achieved ** 2, "sub-chain has the wrong order")
        layers = {
            "C": lambda x, y: colors[2 * nn + (x - 1) * n + (y - 1)],
            "A": lambda x, y: colors[(x - 1) * n + (y - 1)],
            "B": lambda x, y: colors[nn + (y - 1) * n + (x - 1)],
        }
        for (name, f), want in zip(layers.items(), rep.colors_used):
            got = {f(x, y) for x in rep.x_rows for y in rep.y_cols}
            _expect(got == {want}, f"layer {name} carries colors {sorted(got)}")

    return Item(iid, run, lambda out: [out[1].achieved, list(out[1].stage_sizes)], check,
                pin_run=run)


def _roundtrip_item(iid: str, workdir: str, order: int, g: Graph, part_seed: int,
                    expected_sha: Callable[[], str]) -> Item:
    d = os.path.join(workdir, iid)
    el, labels, part, out = (os.path.join(d, f) for f in
                             ("chain.el", "chain.json", "part.json", "cert.json"))
    os.makedirs(d, exist_ok=True)
    _write_text(part, json.dumps(partition_to_obj(LAB.random_balanced_bipartition(g, part_seed))))

    def run():
        _cli(["gen", "chain", "--order", str(order), "-o", el, "--labels", labels])
        _cli(["lab", "certificate", "-i", el, "--labels", labels, "--partition", part,
              "-o", out])
        return out

    def check(_):
        c = _read_json(out)
        _expect(c["rank"] == c["order"], f"rank {c['rank']} != order {c['order']}")
        _expect(c["order"] >= order // 12, f"order {c['order']} below floor(m/12)")
        with open(el, "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        _expect(sha == expected_sha(), "written edge list differs from the canonical chain")

    def summarize(_):
        c = _read_json(out)
        return [c["order"], c["rank"], c["side"]]

    return Item(iid, run, summarize, check, pin_run=run)


def _reach_harness_item(iid: str, workdir: str, order: int, seeds: int, seed0: int) -> Item:
    d = os.path.join(workdir, iid)
    out = os.path.join(d, "harness.csv")

    def run():
        os.makedirs(d, exist_ok=True)
        _cli(["lab", "certificate", "--order", str(order), "--seeds", str(seeds),
              "--seed", str(seed0), "--csv", out])
        return out

    def rows():
        with open(out, encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def check(_):
        got = rows()
        _expect(len(got) == seeds, f"{len(got)} harness rows for {seeds} seeds")
        for r in got:
            _expect(r["verified"] == "true", f"seed {r['seed']} not verified")
            _expect(int(r["achieved_order"]) >= order // 12, "order below floor(m/12)")

    return Item(iid, run, lambda _: [r["achieved_order"] for r in rows()], check, reach=True,
                pin_run=run)


def certificate_items(seed: int, scale: float, workdir: str) -> list[Item]:
    chains = {o: F.twisted_chain(o) for o in (24, 36)}
    items = []
    for order in (24, 36):
        key = f"harness{order}"
        for i in range(_count(CERT_COUNTS[key], scale)):
            pseed = _rng(seed, key, i).randrange(1 << 30)
            items.append(_harness_item(f"{key}-s{seed}-{i}", chains[order], order, pseed))
    for i in range(_count(CERT_COUNTS["ramsey"], scale)):
        rng = _rng(seed, "ramsey", i)
        table = {(x, y): rng.randint(1, RAMSEY_D)
                 for x in range(RAMSEY_SIZE) for y in range(RAMSEY_SIZE)}
        items.append(_ramsey_item(f"ramsey-s{seed}-{i}", table))
    g20 = F.twisted_chain(EXTRACT_ORDER)
    for i in range(_count(CERT_COUNTS["extract"], scale)):
        rng = _rng(seed, "extract", i)
        colors = [rng.randint(1, EXTRACT_COLORS) for _ in range(g20.n)]
        items.append(_extract_item(f"extract-s{seed}-{i}", g20, colors))
    g = chains[ROUNDTRIP_ORDER]

    @functools.cache
    def canonical_sha() -> str:
        return hashlib.sha256(serialize_edge_list(g).encode()).hexdigest()

    for i in range(_count(CERT_COUNTS["roundtrip"], scale)):
        pseed = _rng(seed, "roundtrip", i).randrange(1 << 30)
        items.append(_roundtrip_item(f"roundtrip{ROUNDTRIP_ORDER}-s{seed}-{i}", workdir,
                                     ROUNDTRIP_ORDER, g, pseed, canonical_sha))
    # generating an order-72 chain alone takes about twice the budget
    items.append(_reach_harness_item(f"reach-lab-certificate{REACH_HARNESS_ORDER}-s{seed}",
                                     workdir, REACH_HARNESS_ORDER, 2, seed))
    return items


def make_items(workload: str, seed: int, scale: float, workdir: str,
               round_index: int = 0) -> list[Item]:
    """The items of one round, in an order seeded by the seed and the round.

    Every round gets the same items.  Mixing the kinds, in another order
    each round, spreads each kind's items over the whole pass.
    """
    if workload == "oracles":
        items = oracle_items(seed, scale)
    elif workload == "pipelines":
        items = pipeline_items(seed, scale, workdir)
    elif workload == "certificates":
        items = certificate_items(seed, scale, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _rng(seed, "order", round_index).shuffle(items)
    return items


def pool_items(workload: str, workdir: str) -> list[Item]:
    """Every seed-independent instance a seed can draw, for pinning."""
    if workload == "oracles":
        return [_two_row_item(e) for e in TWO_ROW]
    if workload == "pipelines":
        sweeps = SWEEP_SMALL + SWEEP_MEDIUM + SWEEP_HEAVY
        return ([_pooled_power_item(e, workdir) for e in POWER_POOL]
                + [_pooled_sweep_item(e, workdir) for e in sweeps])
    return []
