"""rwcolor benchmark: three workloads, each round in its own process.

    python3 perfbench/run.py                       # every workload, untraced and traced
    python3 perfbench/run.py --workload oracles --seed 3 --seconds 30 --trace 0

With ``--trace 0`` the result line carries the end-to-end metrics of
ROUNDS untraced rounds over the same items, run one after another, each in
a fresh process so that nothing cached in memory carries over.  Times are
scaled to a reference host speed by a gauge timed around every item (see
``worker.py``), and an item's latency is its median round.  An item that
fails in any round is charged the budget, and later rounds do not run it
again.  ``setup_s`` and ``peak_rss_mb`` are medians over the rounds'
processes.  With ``--trace 1`` the line carries the per-layer metrics of
one traced round, and ``trace.overhead_s``, its ``batch_s`` minus that of
one untraced round run just before it.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Workloads and metrics are listed in ``BENCHMARK.json``; the traced round
writes its spans and counters to ``.perfbench/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("oracles", "pipelines", "certificates")
ROUNDS = 3
DEADLINE_S = 170.0

END_TO_END = {
    "batch_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "fail_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str, deadline: float | None,
          round_index: int = 0, skip: list[str] = ()) -> dict:
    """Run one worker process to completion and return its result line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    left = None if deadline is None else deadline - time.monotonic()
    if left is not None and left <= 0:
        raise BenchError("out of time before starting a round")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, "--round", str(round_index),
           "--skip", ",".join(skip), "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} round exceeded the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} round exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail_percentile(n_items: int) -> int:
    """Highest of p99/p95/p90/p75 with at least 10 items beyond it, else p50."""
    for p in (99, 95, 90, 75):
        if n_items * (100 - p) >= 1000:
            return p
    return 50


def percentile(values: list[float], p: int) -> float:
    if p == 50 or len(values) < 2:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def combine(rounds: list[dict]) -> dict:
    """Latency metrics of rounds over the items of the first one."""
    first = rounds[0]
    budget = first["budget_s"]
    failures = {}
    for r in rounds:
        for iid, reason in r["failures"].items():
            failures.setdefault(iid, reason)
    charged = [budget if iid in failures else statistics.median(r["times"][iid] for r in rounds)
               for iid in first["times"]]
    tail_p = tail_percentile(len(charged))
    return {
        "workload": first["workload"],
        "seed": first["seed"],
        "mode": first["mode"],
        "attempted": len(charged),
        "failed": len(failures),
        "correct": all(r["correct"] for r in rounds),
        "failures": failures,
        "reach_items": first["reach_items"],
        "tail_percentile": tail_p,
        "batch_s": sum(charged),
        "item_p50_ms": statistics.median(charged) * 1000.0,
        "item_tail_ms": percentile(charged, tail_p) * 1000.0,
        "fail_frac": len(failures) / len(charged),
        "host_slowdown": statistics.median(r["host_slowdown"] for r in rounds),
    }


def end_to_end(workload: str, seed: int, seconds: float, deadline: float | None) -> dict:
    rounds = []
    for index in range(ROUNDS):
        failed = sorted({iid for r in rounds for iid in r["failures"]})
        rounds.append(spawn(workload, seed, seconds, "run", deadline, index, failed))
    res = combine(rounds)
    res["setup_s"] = statistics.median(r["setup_s"] for r in rounds)
    res["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in rounds)
    res["metrics"] = {k: {"value": res[k], "unit": u} for k, u in END_TO_END.items()}
    return res


def per_layer(workload: str, seed: int, seconds: float, deadline: float | None) -> dict:
    plain = combine([spawn(workload, seed, seconds, "run", deadline)])
    traced = spawn(workload, seed, seconds, "trace", deadline)
    res = combine([traced])
    units = metric_units()
    res["metrics"] = {k: {"value": traced["layers"][k], "unit": u} for k, u in units.items()}
    res["metrics"]["trace.overhead_s"] = {"value": res["batch_s"] - plain["batch_s"], "unit": "s"}
    res["correct"] = res["correct"] and plain["correct"]
    return res


def result_line(res: dict) -> str:
    return json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")})


def report(res: dict) -> None:
    """Human-readable lines ahead of the result line."""
    print(f"== {res['workload']} seed={res['seed']} {res['mode']}: {res['attempted']} items, "
          f"{res['failed']} failed, p{res['tail_percentile']} tail, correct={res['correct']}, "
          f"host slowdown {res['host_slowdown']:.2f}x")
    for iid, reason in res["failures"].items():
        kind = "reach item" if iid in res["reach_items"] else "ITEM"
        print(f"   failed {kind} {iid}: {reason}")
    for name, m in res["metrics"].items():
        print(f"   {name} = {m['value']:.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rwcolor", "__init__.py")):
        print("error: no rwcolor source tree at src/rwcolor", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.workload is not None:
            run = per_layer if args.trace == 1 else end_to_end
            res = run(args.workload, args.seed, args.seconds, deadline)
            report(res)
            print(result_line(res))
            return 0
        # every workload, untraced then traced; no overall deadline
        results = []
        for workload in WORKLOADS:
            for run in (end_to_end, per_layer):
                res = run(workload, args.seed, args.seconds, None)
                report(res)
                results.append(res)
        print(json.dumps({f"{r['workload']}/{r['mode']}": json.loads(result_line(r))
                          for r in results}))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
