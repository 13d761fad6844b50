"""Smoke check of the benchmark itself at tiny item counts.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed, with its unit,
that the correctness gate runs and catches a wrong result, that a failed
item's imbalance report still counts against ``success_frac``, and that the
item count, tail percentile and budget each workload's ``why`` states are
the code's.  Timings never gate it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from rwcolor import families, lab  # noqa: E402
from tracing import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(res: dict, metrics: list[dict]) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert 1 <= res["attempted"] and 0 <= res["failed"] <= res["attempted"]
    assert set(res["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_printed(workload):
    check_result(run_bench(workload, 0), SPEC["end_to_end"])


def test_per_layer_metrics_printed():
    check_result(run_bench("oracles", 1), SPEC["per_layer"])


def test_correctness_gate_catches_a_wrong_result(tmp_path):
    items = workloads.make_items("oracles", 5, 0.05, str(tmp_path))
    item = next(i for i in items if i.id.startswith("rw-n"))
    out = item.run()
    good = item.summarize(out)
    assert worker.check_item(item, out, {item.id: good}) is None
    assert worker.check_item(item, out, {item.id: good + 1}).startswith("wrong: expected")
    # a reported width its own witness decomposition does not have
    lying = dataclasses.replace(out, value=out.value + 1)
    assert worker.check_item(item, lying, {}).startswith("wrong: decomposition has width")


@pytest.mark.parametrize("spec", SPEC["workloads"], ids=lambda w: w["name"])
def test_why_states_the_workload_as_built(spec, tmp_path):
    items, tail, budget = re.match(r"(\d+) items per round \(p(\d+) tail\), ([\d.]+) s budget",
                                   spec["why"]).groups()
    built = workloads.make_items(spec["name"], 0, 1.0, str(tmp_path))
    assert int(items) == len(built)
    assert int(tail) == run.tail_percentile(len(built))
    assert float(budget) == workloads.BUDGET_S[spec["name"]]


def test_unbalanced_certificate_of_a_failed_item_counts():
    g = families.twisted_chain(24)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_item(0)
        cert = lab.lower_bound_certificate(g, lab.random_balanced_bipartition(g, 1))
        tracer.end_item(keep=True)
        tracer.begin_item(1)
        report = lab.lower_bound_certificate(g, lab.Bipartition.of(g, range(g.n)))
        tracer.end_item(keep=False)
    finally:
        tracer.uninstall()
    assert hasattr(cert, "pairs") and not hasattr(report, "pairs")
    metrics = tracer.metrics()
    assert metrics["lab.lower_bound_certificate.calls"] == 1
    assert metrics["lab.lower_bound_certificate.success_frac"] == 0.5
