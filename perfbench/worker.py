"""One round of a workload in its own process; prints one JSON result line.

    python3 perfbench/worker.py --workload W --seed S --seconds T \
        --mode {run,trace} --spawned-at MONOTONIC [--round R] [--skip ID,...]

``run`` times one untraced round; ``trace`` installs the tracer before
set-up and reports per-layer numbers too.  ``--spawned-at`` is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
covers interpreter start-up, imports, input generation and loading the
pinned expectations.  ``--round`` seeds the item order and ``--skip`` names
items that already failed in an earlier round.  The items run one after
another on the main thread; the result line holds each item's time and
every failure, and ``run.py`` turns the rounds into metrics.  Times are
scaled to a reference host speed (see ``gauge``).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs the source tree on the path)
from tracing import Tracer  # noqa: E402

EXPECTED = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")


class ItemTimeout(BaseException):
    """Raised when an item exceeds its budget.

    A BaseException, so the CLI's per-row ``except Exception`` in the sweep
    cannot swallow it.
    """


def _on_alarm(signum, frame):
    # the sweep runs its rows on a pool thread: stop that thread too, or it
    # keeps the interpreter lock busy during the next items
    main = threading.main_thread()
    for t in threading.enumerate():
        if t is not main and t.ident is not None:
            ctypes.pythonapi.PyThreadState_SetAsyncExc(
                ctypes.c_ulong(t.ident), ctypes.py_object(ItemTimeout)
            )
    raise ItemTimeout


ctypes.pythonapi.PyThreadState_SetAsyncExc.argtypes = (ctypes.c_ulong, ctypes.py_object)
ctypes.pythonapi.PyThreadState_SetAsyncExc.restype = ctypes.c_int


# On a shared 2 vCPU VM the speed can drop by up to 2x for tens of seconds
# at a time, CPU time along with wall time.  So every time the benchmark
# reports is scaled to one reference speed, gauged by a fixed pure-Python
# kernel (no rwcolor code) timed just before and just after each item: a
# change to rwcolor moves the item but not the gauge.
GAUGE_MASKS = 512
GAUGE_REF_S = 0.004  # about the gauge's time on an unloaded 2 vCPU Xeon VM


def gauge() -> float:
    """Seconds the reference kernel takes now, a subset-enumeration loop."""
    t0 = time.perf_counter()
    best = [0] * GAUGE_MASKS
    for mask in range(1, GAUGE_MASKS):
        sub = (mask - 1) & mask
        b = GAUGE_MASKS
        while sub:
            rest = mask ^ sub
            if sub < rest:
                w = max(best[sub], best[rest], (sub * 2654435761) & 7)
                if w < b:
                    b = w
            sub = (sub - 1) & mask
        best[mask] = b
    return time.perf_counter() - t0


def run_item(item, budget: float):
    """Time one item; returns (wall seconds, output or None, failure reason or None)."""
    out, reason = None, None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            out = item.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ItemTimeout:
        reason = "timeout"
    except Exception as exc:  # any error fails the item; the pass goes on
        reason = workloads.failure_reason(exc)
    return time.perf_counter() - t0, out, reason


def check_item(item, out, pinned: dict) -> str | None:
    """Untimed correctness gate; returns a failure reason for a wrong result."""
    try:
        summary = json.loads(json.dumps(item.summarize(out)))
        item.check(out)
    except workloads.Wrong as exc:
        return f"wrong: {exc}"
    except Exception as exc:  # a malformed output is a wrong result too
        return f"wrong: {type(exc).__name__}: {exc}"
    if item.id in pinned and pinned[item.id] != summary:
        return f"wrong: expected {pinned[item.id]!r}, got {summary!r}"
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("run", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--skip", default="")
    args = ap.parse_args(argv)

    # keep the sweep's pool thread on the CPU the gauge measures
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_gauge = gauge()
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        scale = args.seconds / workloads.NOMINAL_SECONDS
        items = workloads.make_items(args.workload, args.seed, scale, workdir, args.round)
        skip = set(args.skip.split(","))
        items = [item for item in items if item.id not in skip]
        with open(EXPECTED, encoding="utf-8") as fh:
            pinned = json.load(fh)["items"].get(args.workload, {})
        budget = workloads.BUDGET_S[args.workload]
        if tracer is not None:
            tracer.end_item(keep=True)  # set-up's counts
        setup_s = time.monotonic() - args.spawned_at

        signal.signal(signal.SIGALRM, _on_alarm)
        results, gauges = [], [gauge()]
        for index, item in enumerate(items):
            if tracer is not None:
                tracer.begin_item(index)
            results.append(run_item(item, budget))
            if tracer is not None:
                tracer.end_item(keep=results[-1][2] is None)
            gauges.append(gauge())
        if tracer is not None:
            tracer.uninstall()
        # an item's scale is the mean of the gauges on either side of it
        scales = [2 * GAUGE_REF_S / (a + b) for a, b in zip(gauges, gauges[1:])]

        reasons = {}
        for item, (_, out, reason) in zip(items, results):
            reasons[item.id] = reason or check_item(item, out, pinned)
        failures = {iid: r for iid, r in reasons.items() if r}
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "mode": args.mode,
            "budget_s": budget,
            "times": {item.id: secs * scale
                      for item, (secs, _, _), scale in zip(items, results, scales)},
            "failures": failures,
            "correct": not any(r.startswith("wrong") for r in failures.values()),
            "reach_items": [item.id for item in items if item.reach],
            "setup_s": setup_s * 2 * GAUGE_REF_S / (setup_gauge + gauges[0]),
            "host_slowdown": statistics.median(gauges) / GAUGE_REF_S,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if tracer is not None:
            result["layers"] = tracer.metrics()
            tracer.write(
                os.path.join(OUT_DIR, f"trace-{args.workload}.jsonl"),
                [item.id for item in items],
                [reasons[item.id] or "ok" for item in items],
            )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
