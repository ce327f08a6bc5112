"""Record the pinned reference of every run the benchmark can draw.

For each workload and size, runs every policy on every scenario seed of
the workload through ``gflsim.run`` and stores its ``RunMetrics`` and
the sha256 of its event and evolution logs in ``pins.json``.  Re-run it
only for a change that is meant to alter simulation output, and say so.

    python3 perfbench/pin.py

Every workload and size is regenerated, on one worker per CPU, so that
all the references in ``pins.json`` come from the same code.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wl  # noqa: E402


def _pin_one(task):
    workload, size, policy, seed = task
    gflsim = wl.import_gflsim()
    spec = wl.WORKLOADS[workload][size]
    with tempfile.TemporaryDirectory(dir=wl.BENCH_DIR) as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(spec.config))
        cfg = gflsim.load_config(path)
    t0 = time.perf_counter()
    result = gflsim.run(cfg, policy, seed)
    return task, wl.result_pin(result), time.perf_counter() - t0


def main() -> int:
    pins: dict = {}
    tasks = [(w, size, policy, seed)
             for w, sizes in wl.WORKLOADS.items() for size, spec in sizes.items()
             for policy in spec.policies for seed in range(spec.scenarios)]
    with ProcessPoolExecutor(max_workers=wl.nproc()) as pool:
        for (w, size, policy, seed), pin, secs in pool.map(_pin_one, tasks):
            pins.setdefault(w, {}).setdefault(size, {}).setdefault(policy, {})[str(seed)] = pin
            print(f"{w} {size} {policy} {seed} {secs:.3f}s", flush=True)
    wl.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
