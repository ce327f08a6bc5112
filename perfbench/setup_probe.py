"""Time one cold set-up: import, config parse, first World.build and make_policy.

    python3 perfbench/setup_probe.py CONFIG_JSON SEED POLICY [POLICY ...]

Prints the seconds taken, measured from before ``import gflsim``.  numpy
and this benchmark's own helpers are imported before the clock starts:
the program cannot change their cost, and it is the part of a cold start
that drifts most with load on a shared host (see README.md).  Everything
else the package imports is timed.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wl  # noqa: E402
import numpy as np  # noqa: E402

t0 = time.perf_counter()
gflsim = wl.import_gflsim()
cfg = gflsim.load_config(sys.argv[1])
world = gflsim.World.build(cfg.world, np.random.default_rng(int(sys.argv[2])))
for kind in sys.argv[3:]:
    gflsim.make_policy(
        kind,
        velocity_var=cfg.fuzzy.velocity, distance_var=cfg.fuzzy.distance,
        channels_var=cfg.fuzzy.channels, output_var=cfg.fuzzy.output,
        resolution=cfg.fuzzy.resolution, consequents=cfg.fuzzy.consequents,
        s_min=cfg.world.s_min, s_th=cfg.world.s_th, dwell=cfg.world.dwell,
        evolver_cfg=cfg.evolver, rng=np.random.default_rng(int(sys.argv[2])),
    )
print(time.perf_counter() - t0)
