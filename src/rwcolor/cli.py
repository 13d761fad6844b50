"""Command-line toolkit tying the library together.

Every command reads and writes its files through one :class:`RunRecord`,
so the manifest that ``--manifest`` writes lists exactly the files the run
read and wrote.

Exit codes: 0 success (and verified, where applicable), 1 not verified
(refuted, or inconclusive where a cap left a union undecided), 2 usage or
format errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, TextIO

from . import __version__
from . import formats
from .coloring import (
    excellent_refinement,
    good_refinement,
    low_rankwidth_coloring_of_power,
    treedepth_coloring,
    verify_low_rw_coloring,
    verify_td_coloring,
)
from .ehchi import chi_product_coloring, eh_witness, even_split_provider
from .families import (
    chain_cross_row,
    check_chain_params,
    cycle,
    grid,
    h_graph,
    h_tilde,
    intersection_graph,
    interval_model,
    line_graph_via_subdivision,
    map_graph_from_rotation,
    path,
    random_degenerate,
    row_coloring,
    segment_model,
    twisted_chain,
)
from .graph import Graph, power
from .lab import (
    MIN_CERTIFICATE_ORDER,
    ImbalanceReport,
    certificate_rank,
    chain_bipartition,
    chain_certificate,
    chain_certificate_rank,
    chain_extraction,
    lower_bound_certificate,
    ramsey_bireduce,
    ramsey_threshold_within,
)
from .orderings import WCOL_EXACT_CAP, wcol_exact, wcol_heuristic
from .widths import (
    RANK_WIDTH_EXACT_CAP,
    rank_width_exact,
    rank_width_upper,
    tree_depth_exact,
    verify_decomposition,
)


def _write(path: str, text: str | Iterable[str]) -> None:
    """Write text, or its chunks, to path."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _put(fh, text)


def _put(fh: TextIO, text: str | Iterable[str]) -> None:
    """Write a str, or an iterable of str chunks as they come, to fh."""
    if isinstance(text, str):
        fh.write(text)
    else:
        fh.writelines(text)


@dataclass
class RunRecord:
    """The one way a command reads or writes a file, and what its manifest
    reports: the files read and written, in the order the run touched them,
    and the seeds it drew from, which a command that draws sets itself.
    :func:`main` writes the manifest from it once the command ends."""

    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)

    def read(self, path: str) -> str:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        self.inputs.append(path)
        return text

    def graph(self, path: str) -> Graph:
        with open(path, "rb") as fh:
            g = formats.read_edge_list(fh)
        self.inputs.append(path)
        return g

    def json(self, path: str):
        return formats.loads_json(self.read(path))

    def write(self, path: str, text: str | Iterable[str]) -> None:
        _write(path, text)
        self.outputs.append(path)

    def emit(self, path: str | None, text: str | Iterable[str]) -> None:
        """Write text, or its chunks, to path, or to stdout when there is no path."""
        if path:
            self.write(path, text)
        else:
            _put(sys.stdout, text)


def _write_manifest(args, argv, record: RunRecord, t0: float) -> None:
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "manifest") and v is not None
    }
    manifest = {
        "tool": "rwcolor",
        "version": __version__,
        "argv": list(argv),
        "command": " ".join(argv),
        "parameters": params,
        "seeds": record.seeds,
        "inputs": record.inputs,
        "outputs": record.outputs,
        "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
    }
    _write(args.manifest, formats.dumps_json(manifest))


# Generators shared by `gen` and `report sweep`: family -> (builder, the
# parameter names it takes, in order).  `gen <family>` takes one option per
# name, with its default here; a sweep spec may leave out the parameters in
# SWEEP_DEFAULTS.
FAMILIES = {
    "h": (h_graph, ("n", "m")),
    "htilde": (h_tilde, ("n", "m")),
    "chain": (twisted_chain, ("order", "variant")),
    "path": (path, ("n",)),
    "cycle": (cycle, ("n",)),
    "grid": (grid, ("a", "b")),
    "random": (random_degenerate, ("n", "d", "seed")),
}
FAMILY_DEFAULTS = {
    "n": 2, "m": 2, "a": 2, "b": 2, "d": 2, "order": 2, "variant": "bare", "seed": 0,
}
SWEEP_DEFAULTS = {k: FAMILY_DEFAULTS[k] for k in ("variant", "seed")}


def _generate(family: str, params: Mapping) -> Graph:
    build, names = FAMILIES[family]
    return build(*(params[k] for k in names))


def _emit_graph(args, record: RunRecord, g: Graph, model_text: str | None = None) -> int:
    """Write what a `gen` form made: the model, the edge list, the labels."""
    # build the labels first, so that a failing --labels writes no file; the
    # edge list is written as its chunks come
    labels_text = formats.labels_to_json(g) if args.labels else None
    if model_text is not None:
        record.write(args.model_out, model_text)
    record.emit(args.output, formats.edge_list_chunks(g))
    if labels_text is not None:
        record.write(args.labels, labels_text)
    return 0


def cmd_gen(args, record: RunRecord) -> int:
    if "seed" in FAMILIES[args.family][1]:
        record.seeds = [args.seed]
    return _emit_graph(args, record, _generate(args.family, vars(args)))


def cmd_gen_map(args, record: RunRecord) -> int:
    rotations = formats.rotations_from_json(record.read(args.input))
    return _emit_graph(args, record, map_graph_from_rotation(rotations))


def cmd_gen_linegraph(args, record: RunRecord) -> int:
    return _emit_graph(args, record, line_graph_via_subdivision(record.graph(args.input)))


def cmd_gen_model(args, record: RunRecord) -> int:
    if args.kind == "interval":
        model = interval_model(args.order)
        model_obj = {"intervals": [list(iv) for iv in model.intervals]}
    else:
        model = segment_model(args.order)
        model_obj = {"segments": [list(s) for s in model.segments]}
    model_obj["scale"] = model.scale
    model_obj["relabel_to_chain"] = list(model.relabel_to_chain)
    model_text = formats.dumps_json(model_obj) if args.model_out else None
    return _emit_graph(args, record, intersection_graph(model), model_text)


def cmd_power(args, record: RunRecord) -> int:
    g = record.graph(args.input)
    record.emit(args.output, formats.edge_list_chunks(power(g, args.r)))
    return 0


def cmd_wcol(args, record: RunRecord) -> int:
    g = record.graph(args.input)
    if args.exact and g.n > WCOL_EXACT_CAP:
        raise ValueError(
            f"exact wcol is capped at n={WCOL_EXACT_CAP}; run wcol without --exact instead"
        )
    if args.exact:
        value, order = wcol_exact(g, args.r)
        method = "exact"
    else:
        value, order, _ = wcol_heuristic(g, args.r)
        method = "heuristic"
    record.emit(args.output, formats.dumps_json({"r": args.r, "value": value, "method": method}))
    if args.order_out:
        record.write(args.order_out, formats.order_to_json(order))
    return 0


def cmd_color_td(args, record: RunRecord) -> int:
    c = treedepth_coloring(record.graph(args.input), args.p)
    record.emit(args.output, formats.dumps_json(formats.coloring_to_obj(c)))
    return 0


def cmd_color_refine(args, record: RunRecord) -> int:
    g = record.graph(args.input)
    base = formats.coloring_from_obj(record.json(args.coloring))
    if args.good:
        _, L, wsets = wcol_heuristic(g, args.r)
        ref = good_refinement(g, base, args.r, L, wsets)
    else:
        levels = [wcol_heuristic(g, radius) for radius in range(2, args.r + 1)]
        orders = [L for _, L, _ in levels]
        ref = excellent_refinement(g, base, args.r, orders, [ws for _, _, ws in levels])
    record.emit(args.output, formats.dumps_json(formats.refinement_to_obj(ref)))
    return 0


def cmd_color_lowrw(args, record: RunRecord) -> int:
    ref, q = low_rankwidth_coloring_of_power(record.graph(args.input), args.r, args.p)
    obj = formats.refinement_to_obj(ref)
    obj["p"] = args.p
    obj["q"] = formats.budget_to_obj(q)
    if args.profile:
        record.write(args.profile, formats.dumps_json(formats.profile_to_obj(ref, q)))
    record.emit(args.output, formats.dumps_json(obj))
    return 0


def cmd_verify_coloring(args, record: RunRecord) -> int:
    if args.mode == "td" and (args.profile is not None or args.q_linear is not None):
        raise ValueError("verify coloring --mode td does not use --profile or --q-linear")
    g = record.graph(args.input)
    obj = record.json(args.coloring)
    c = formats.coloring_from_obj(obj)
    if args.mode == "td":
        report = verify_td_coloring(g, c, args.p)
    else:
        if args.q_linear is not None:
            q = {i: args.q_linear * i for i in c.union_sizes(args.p)}
        elif args.profile or "q" in obj:
            q = formats.budget_from_obj(record.json(args.profile) if args.profile else obj)
        else:
            raise ValueError(
                "budget unknown: pass --profile, --q-linear, or a coloring "
                "file that embeds its q table"
            )
        report = verify_low_rw_coloring(g, c, args.p, q)
    record.emit(args.output, formats.dumps_json(formats.union_report_to_obj(report)))
    return 0 if report.verified else 1


def cmd_verify_decomposition(args, record: RunRecord) -> int:
    g = record.graph(args.input)
    D = formats.decomposition_from_obj(record.json(args.decomposition))
    try:
        width = verify_decomposition(g, D)
    except ValueError as exc:
        sys.stderr.write(f"invalid decomposition: {exc}\n")
        return 1
    record.emit(args.output, formats.dumps_json({"width": width}))
    return 1 if args.max_width is not None and width > args.max_width else 0


def cmd_width_rank(args, record: RunRecord) -> int:
    g = record.graph(args.input)
    if args.exact and g.n > RANK_WIDTH_EXACT_CAP:
        raise ValueError(
            f"exact rank-width is capped at n={RANK_WIDTH_EXACT_CAP}; use --upper instead"
        )
    rep = rank_width_exact(g) if args.exact else rank_width_upper(g)
    record.emit(args.output, formats.dumps_json(formats.width_report_to_obj(rep)))
    return 0


def cmd_width_treedepth(args, record: RunRecord) -> int:
    value = tree_depth_exact(record.graph(args.input))
    record.emit(args.output, formats.dumps_json({"value": value, "method": "exact"}))
    return 0


def cmd_lab_certificate(args, record: RunRecord) -> int:
    """Both forms of `lab certificate`: one partition of a chain read from
    files with -i, or the seeded harness without it."""
    if args.input is None:
        if args.output is not None:
            raise ValueError("the harness writes its CSV to --csv, not to -o/--output")
        if args.labels is not None or args.partition is not None:
            raise ValueError("lab certificate without -i does not use --labels or --partition")
        order = 12 if args.order is None else args.order
        seeds = 1 if args.seeds is None else args.seeds
        seed = 0 if args.seed is None else args.seed
        rows = _certificate_rows(order, seed, seeds)
        _emit_harness(args.csv, record, rows, seed)
        return 0 if all(verified for _, _, verified in rows) else 1
    if args.labels is None or args.partition is None:
        raise ValueError("lab certificate -i needs --labels and --partition")
    for name in ("order", "seeds", "seed", "csv"):
        if getattr(args, name) is not None:
            raise ValueError(f"lab certificate -i does not use --{name}")
    g = record.graph(args.input)
    labels = formats.labels_from_json(record.read(args.labels))
    g = Graph(g.n, g.adj, labels)
    part = formats.partition_from_obj(record.json(args.partition), g)
    result = lower_bound_certificate(g, part)
    if isinstance(result, ImbalanceReport):
        imbalance = {
            "heavy_side": result.heavy_side,
            "heavy_count": result.heavy_count,
            "c_size": result.c_size,
        }
        record.emit(args.output, formats.dumps_json({"imbalance": imbalance}))
        return 1
    rank = certificate_rank(g, result)
    obj = formats.certificate_to_obj(result)
    obj["rank"] = rank
    record.emit(args.output, formats.dumps_json(obj))
    return 0 if rank == result.order else 1


def cmd_lab_ramsey(args, record: RunRecord) -> int:
    guaranteed = ramsey_threshold_within(args.k, args.d, args.size) is not None
    rows = []
    ok = True
    for s in range(args.seeds):
        seed = args.seed + s
        rng = random.Random(seed)
        table = {
            (x, y): rng.randint(1, args.d)
            for x in range(args.size)
            for y in range(args.size)
        }
        res = ramsey_bireduce(
            lambda x, y: table[(x, y)],
            list(range(args.size)),
            list(range(args.size)),
            args.k,
            args.d,
        )
        verified = res.size >= args.k
        ok = ok and verified and res.guaranteed == guaranteed
        rows.append((seed, res.size, verified))
    _emit_harness(args.csv, record, rows, args.seed)
    return 0 if ok else 1


def cmd_lab_extract(args, record: RunRecord) -> int:
    rng = random.Random(args.seed)
    colors = [rng.randint(1, args.colors) for _ in range(3 * args.order * args.order)]
    report = chain_extraction(args.order, colors, args.target)
    record.emit(args.output, formats.dumps_json(formats.extraction_report_to_obj(report)))
    record.seeds = [args.seed]
    return 0


def _certificate_rows(n: int, seed0: int, seeds: int) -> list[tuple[int, int, bool]]:
    """(seed, order, verified) per seeded balanced bipartition of the
    order-n chain, which is not built: each rank is taken on the rows that
    the certificate's pairs name, made by the chain's cross rule.

    An imbalanced bipartition gives order 0, unverified.  A certificate is
    verified when its rank equals its order; its order is at least
    floor(m/12) by construction, since it is only built from enough mixed
    lines.
    """
    row = functools.partial(chain_cross_row, n)
    rows = []
    for seed in range(seed0, seed0 + seeds):
        result = chain_certificate(n, chain_bipartition(n, seed))
        if isinstance(result, ImbalanceReport):
            rows.append((seed, 0, False))
        else:
            rows.append((seed, result.order, chain_certificate_rank(result, row) == result.order))
    return rows


def _emit_harness(path: str | None, record: RunRecord, rows, seed0: int) -> None:
    """Write a harness's (seed, achieved_order, verified) rows as CSV to
    path, or to stdout without it, and record its base seed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["seed", "achieved_order", "verified"])
    for seed, order, verified in rows:
        writer.writerow([seed, order, str(bool(verified)).lower()])
    record.emit(path, buf.getvalue())
    record.seeds = [seed0]


def cmd_eh(args, record: RunRecord) -> int:
    provider = even_split_provider(args.classes, args.width_bound)
    g = record.graph(args.input)
    witness, kind, params = eh_witness(g, provider)
    obj = formats.witness_to_obj(witness, kind, params, g.n)
    record.emit(args.output, formats.dumps_json(obj))
    return 0


def cmd_chi(args, record: RunRecord) -> int:
    g = record.graph(args.input)
    c = formats.coloring_from_obj(record.json(args.coloring))
    out = chi_product_coloring(g, c)
    record.emit(args.output, formats.dumps_json(formats.coloring_to_obj(out)))
    return 0


SWEEP_FIELDS = [
    "name",
    "family",
    "n",
    "palette",
    "widths",
    "budgets",
    "verified",
    "min_order",
    "max_order",
    "elapsed_ms",
    "error",
]


def _spec_int(obj: dict, key: str, default: int | None = None) -> int:
    """obj[key], or *default* when given and the key is left out, refused
    by name unless it is a JSON integer (not true or false, 2.0 or "2")."""
    value = obj[key] if default is None else obj.get(key, default)
    if type(value) is not int:
        raise ValueError(f'"{key}" must be an integer')
    return value


def _sweep_generate(gen: dict) -> Graph:
    family = gen["family"]
    if not isinstance(family, str) or family not in FAMILIES:
        raise ValueError(f"unknown sweep family {family!r}")
    params = {**SWEEP_DEFAULTS, **gen}
    for name in FAMILIES[family][1]:
        if name != "variant":
            _spec_int(params, name)
    return _generate(family, params)


def _sweep_row(spec: dict) -> dict:
    t0 = time.perf_counter()
    row = {f: "" for f in SWEEP_FIELDS}
    row["name"] = spec.get("name", "")
    try:
        gen = spec["generator"]
        if not isinstance(gen, dict):
            raise ValueError('"generator" must be an object')
        row["family"] = gen.get("family", "")
        pipe = spec.get("pipeline")
        if isinstance(pipe, dict) and pipe.get("kind") == "certificate":
            # like the harness, read the chain's order and refuse what twisted_chain would
            if gen["family"] != "chain":
                raise ValueError(f"a certificate run needs the chain family, not {gen['family']!r}")
            order = _spec_int(gen, "order")
            check_chain_params(order, gen.get("variant", SWEEP_DEFAULTS["variant"]))
            row["n"] = 3 * order * order
            seed, seeds = _spec_int(pipe, "seed", 0), _spec_int(pipe, "seeds", 1)
            if seeds < 1:
                raise ValueError("seeds must be >= 1")
            rows = _certificate_rows(order, seed, seeds)
            orders = [achieved for _, achieved, _ in rows]
            row["min_order"], row["max_order"] = min(orders), max(orders)
            row["verified"] = str(all(verified for _, _, verified in rows)).lower()
        else:
            g = _sweep_generate(gen)
            row["n"] = g.n
            pipe = spec["pipeline"]
            if not isinstance(pipe, dict):
                raise ValueError('"pipeline" must be an object')
            kind = pipe["kind"]
            if kind == "rowcolor-verify":
                p = _spec_int(pipe, "p")
                h, c = g, row_coloring(_spec_int(gen, "n"), _spec_int(gen, "m"), p)
                q = {i: 3 * i for i in c.union_sizes(p)}
            elif kind == "power-lowrw":
                r, p = _spec_int(pipe, "r"), _spec_int(pipe, "p")
                ref, q = low_rankwidth_coloring_of_power(g, r, p)
                h, c = power(g, r), ref.refined
            else:
                raise ValueError(f"unknown pipeline kind {kind!r}")
            report = verify_low_rw_coloring(h, c, p, q)
            row["palette"] = c.palette_size
            row["widths"] = ";".join(str(w) for _, (w, _) in sorted(report.measured.items()))
            row["budgets"] = ";".join(str(b) for _, b in sorted(report.q.items()))
            row["verified"] = str(report.verified).lower()
    except KeyError as exc:  # a key the spec leaves out
        row["error"] = f'missing "{exc.args[0]}"'
    except Exception as exc:  # recorded per row; the runner keeps going
        row["error"] = str(exc)
    row["elapsed_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    return row


def cmd_report(args, record: RunRecord) -> int:
    spec = record.json(args.spec)
    runs = spec.get("runs") if isinstance(spec, dict) else None
    if not (isinstance(runs, list) and all(isinstance(run, dict) for run in runs)):
        raise ValueError('a sweep spec must be a JSON object whose "runs" is an array of objects')
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_FIELDS, lineterminator="\n")
    writer.writeheader()
    for run in runs:
        writer.writerow(_sweep_row(run))
    record.emit(args.output, buf.getvalue())
    return 0


def cmd_rerun(args, record: RunRecord) -> int:
    manifest = record.json(args.manifest)
    argv = manifest.get("argv") if isinstance(manifest, dict) else None
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        raise ValueError('a manifest needs an "argv" array of strings')
    if argv[:1] == ["rerun"]:
        # no run writes such a manifest, and replaying one may never end
        raise ValueError("a manifest's argv cannot itself be a rerun")
    return main(argv)


# Each handler's option floors, (dest, least value, message), checked by :func:`main` in
# this order before the handler runs, so before any file is read; a value left at None is
# not checked.  The library keeps its own checks, for the API and the sweep.  The floors
# of `lab certificate` are the harness's: its -i form names any harness option it is given.
OPTION_FLOORS = {
    cmd_gen: [("order", 1, "--order must be >= 1")],
    cmd_gen_model: [("order", 1, "--order must be >= 1")],
    cmd_power: [("r", 1, "power radius must be >= 1")],
    cmd_wcol: [("r", 0, "radius must be non-negative")],
    cmd_color_td: [("p", 1, "p must be >= 1")],
    cmd_color_refine: [
        ("r", 2, lambda a: f"{'good' if a.good else 'excellent'} refinements need radius >= 2"),
    ],
    cmd_color_lowrw: [("r", 2, "power coloring needs radius >= 2"), ("p", 1, "p must be >= 1")],
    cmd_verify_coloring: [("p", 1, "p must be >= 1"), ("q_linear", 0, "--q-linear must be >= 0")],
    cmd_lab_certificate: [
        ("seeds", 1, "--seeds must be >= 1"),
        ("order", MIN_CERTIFICATE_ORDER, f"--order must be >= {MIN_CERTIFICATE_ORDER}"),
    ],
    cmd_lab_ramsey: [(n, 1, f"--{n} must be >= 1") for n in ("seeds", "k", "d", "size")],
    cmd_lab_extract: [(n, 1, f"--{n} must be >= 1") for n in ("order", "colors", "target")],
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call.

    Each command form is a subparser that takes exactly the options the form
    reads, so argparse refuses any other (and any prefix of an option, which
    could otherwise name an option of the form that was not meant).
    :func:`main` parses every call with this parser.  That is safe because
    every option default is immutable and no command writes to its ``args``.
    """
    parser = argparse.ArgumentParser(
        prog="rwcolor",
        description="Construct, verify, and refute low rank-width colorings.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    def forms(command, dest, help):
        """The subparsers of a command that has several forms."""
        p = commands.add_parser(command, help=help, allow_abbrev=False)
        return p.add_subparsers(dest=dest, required=True)

    def form(subparsers, name, func, output=True, help=None):
        """One command form, run by func, with -o (unless output is False)
        and --manifest."""
        p = subparsers.add_parser(name, help=help, allow_abbrev=False)
        if output:
            p.add_argument("-o", "--output", help="output file (default stdout)")
        p.add_argument("--manifest", help="write a run manifest to this path")
        p.set_defaults(func=func)
        return p

    gen = forms("gen", "family", "generate a graph family")
    for family, (_, names) in FAMILIES.items():
        p = form(gen, family, cmd_gen)
        for name in names:
            default = FAMILY_DEFAULTS[name]
            p.add_argument(f"--{name}", type=type(default), default=default)
    p = form(gen, "map", cmd_gen_map)
    p.add_argument("-i", "--input", required=True, help="rotation system JSON")
    p = form(gen, "linegraph", cmd_gen_linegraph)
    p.add_argument("-i", "--input", required=True, help="edge list")
    p = form(gen, "model", cmd_gen_model)
    p.add_argument("--order", type=int, default=FAMILY_DEFAULTS["order"])
    p.add_argument("--kind", choices=["interval", "segment"], default="interval")
    p.add_argument("--model-out", help="write the intersection model JSON here")
    for p in gen.choices.values():
        p.add_argument("--labels", help="write the label sidecar JSON here")

    p = form(commands, "power", cmd_power, help="graph power")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-i", "--input", required=True)

    p = form(commands, "wcol", cmd_wcol, help="weak coloring numbers")
    p.add_argument("-r", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true")
    group.add_argument("--heuristic", action="store_true")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--order-out", help="write the witness order JSON here")

    color = forms("color", "mode", "tree-depth and refinement colorings")
    td = form(color, "td", cmd_color_td)
    refine = form(color, "refine", cmd_color_refine)
    lowrw = form(color, "lowrw", cmd_color_lowrw)
    for p in (refine, lowrw):
        p.add_argument("-r", type=int, default=2)
    for p in (td, lowrw):
        p.add_argument("-p", type=int, default=1)
    for p in (td, refine, lowrw):
        p.add_argument("-i", "--input", required=True)
    refine.add_argument("-c", "--coloring", required=True, help="base coloring JSON")
    refine.add_argument("--good", action="store_true", help="single-radius refinement")
    lowrw.add_argument("--profile", help="write the budget profile JSON here")

    verify = forms("verify", "what", "verify colorings and decompositions")
    p = form(verify, "coloring", cmd_verify_coloring)
    p.add_argument("--mode", choices=["td", "lowrw"], default="lowrw")
    p.add_argument("-p", type=int, default=1)
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-c", "--coloring", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--profile", help="budget profile JSON (--mode lowrw)")
    group.add_argument("--q-linear", type=int, help="use the budget Q(i) = COEFF*i (--mode lowrw)")
    p = form(verify, "decomposition", cmd_verify_decomposition)
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-d", "--decomposition", required=True)
    p.add_argument("--max-width", type=int)

    width = forms("width", "what", "exact widths")
    p = form(width, "rank", cmd_width_rank)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", default=True)
    group.add_argument("--upper", dest="exact", action="store_false")
    form(width, "treedepth", cmd_width_treedepth)
    for p in width.choices.values():
        p.add_argument("-i", "--input", required=True)

    lab = forms("lab", "what", "lower-bound machinery")
    certificate = form(lab, "certificate", cmd_lab_certificate)
    ramsey = form(lab, "ramsey", cmd_lab_ramsey, output=False)
    extract = form(lab, "extract", cmd_lab_extract)
    for p in (certificate, extract):
        p.add_argument("--order", type=int, default=12)
    for p in (certificate, ramsey):
        p.add_argument("--seeds", type=int, default=1)
        p.add_argument("--csv", help="write the harness CSV here")
    ramsey.add_argument("--k", type=int, default=2)
    ramsey.add_argument("--d", type=int, default=2)
    ramsey.add_argument("--size", type=int, default=32)
    extract.add_argument("--colors", type=int, default=2)
    extract.add_argument("--target", type=int, default=2)
    certificate.add_argument("-i", "--input", help="chain edge list: certify one partition")
    certificate.add_argument("--labels")
    certificate.add_argument("--partition")
    for p in lab.choices.values():
        p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    # the -i form reads none of these, so a value given to it is refused;
    # the harness form reads 12, 1 and 0 in place of the ones left out
    certificate.set_defaults(order=None, seeds=None, seed=None)

    p = form(commands, "eh", cmd_eh, help="clique-or-independent-set witnesses")
    p.add_argument("what", choices=["extract"])
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--width-bound", type=int, default=1)

    p = form(commands, "chi", cmd_chi, help="product colorings")
    p.add_argument("what", choices=["product"])
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-c", "--coloring", required=True)

    p = form(commands, "report", cmd_report, help="experiment sweeps")
    p.add_argument("what", choices=["sweep"])
    p.add_argument("--spec", required=True)

    p = commands.add_parser("rerun", help="re-execute a recorded manifest", allow_abbrev=False)
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_rerun)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    t0 = time.perf_counter()
    record = RunRecord()
    try:
        by_file = args.func is cmd_lab_certificate and args.input is not None
        for dest, least, message in () if by_file else OPTION_FLOORS.get(args.func, ()):
            if (value := getattr(args, dest, None)) is not None and value < least:
                raise ValueError(message if isinstance(message, str) else message(args))
        code = args.func(args, record)
        # rerun's --manifest names its input; the replayed run writes its own
        if code in (0, 1) and args.func is not cmd_rerun and args.manifest:
            _write_manifest(args, argv, record, t0)
        return code
    except (ValueError, KeyError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
