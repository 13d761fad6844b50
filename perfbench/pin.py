"""Recompute the pinned expectations in ``perfbench/expected.json``.

    python3 perfbench/pin.py

Pins the summary of every item of the default seed at the nominal size and
of every seed-independent pool instance.  Reach items are computed with
their exact-solver caps raised to the instance size; those with no finite
computation at the seed commit (the hanging power pipelines) stay unpinned,
and the benchmark checks their outputs for consistency only.  Each pinned
output must also pass its own witness check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from worker import EXPECTED, OUT_DIR  # also puts the source tree on the path
import workloads  # noqa: I001


def main() -> int:
    expected = {"seed": workloads.DEFAULT_SEED, "items": {}}
    workdir = os.path.join(OUT_DIR, f"pin-{os.getpid()}")
    try:
        for name in workloads.WORKLOADS:
            items = workloads.make_items(name, workloads.DEFAULT_SEED, 1.0, workdir)
            seen = {item.id for item in items}
            items += [i for i in workloads.pool_items(name, workdir) if i.id not in seen]
            pinned = {}
            for item in items:
                if item.pin_run is None:
                    continue
                t0 = time.perf_counter()
                out = item.pin_run()
                item.check(out)
                pinned[item.id] = json.loads(json.dumps(item.summarize(out)))
                print(f"{name} {item.id} {time.perf_counter() - t0:.3f}s", file=sys.stderr)
            expected["items"][name] = dict(sorted(pinned.items()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
