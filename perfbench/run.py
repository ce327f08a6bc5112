"""gflsim benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|smoke]

``--trace 0`` times the workload untraced for about S seconds, repeating
the same inputs, and reports the end-to-end metrics.  ``--trace 1`` runs
the inputs once untraced and then, for about S seconds and at least twice,
with spans around every layer, and reports the per-layer metrics.  Every
run's output is checked against ``pins.json``; the last line of standard
output is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wl  # noqa: E402

MIN_ITERS = 3
SETUP_REPEATS = 12

END_TO_END = {
    "tu_per_s": "1/s", "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "world.build_ms": "ms", "world.step.calls": "count", "world.step.self_us_per_tu": "us",
    "policies.decide.calls": "count", "policies.decide.us_p50": "us",
    "policies.decide.us_p99": "us", "policies.on_epoch.calls": "count",
    "policies.on_epoch.ms_p50": "ms", "policies.on_epoch.ms_p90": "ms",
    "fuzzy.crisp.calls": "count", "fuzzy.crisp.distinct": "count", "fuzzy.crisp.total_s": "s",
    "evolver.prep.calls": "count", "evolver.prep.ms_p50": "ms",
    "evolver.batch.calls": "count", "evolver.batch.chromosomes": "count",
    "evolver.batch.us_per_chromosome": "us", "evolver.requested": "count",
    "evolver.replay_ratio": "ratio", "evolver.self_s": "s",
    "experiment.run.s_p50.static": "s", "experiment.run.s_p50.ga": "s",
    "experiment.result_bytes": "bytes",
    "experiment.export_s": "s", "experiment.output_bytes": "bytes",
    "experiment.pool_overhead_s": "s", "trace_overhead_frac": "ratio",
}


def environment(workload: str, seed: int, trace: int, size: str) -> dict:
    import numpy as np

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(wl.ROOT.parent)},
        )
        rev = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    src = hashlib.sha256()
    for path in sorted((wl.SRC / "gflsim").rglob("*.py")):
        src.update(path.relative_to(wl.SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev, "src_sha256": src.hexdigest(), "nproc": wl.nproc(),
        "python": platform.python_version(), "numpy": np.__version__,
        "workload": workload, "seed": seed, "size": size, "trace": trace,
    }


def cpu_seconds() -> float:
    """User+system time of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Bench:
    def __init__(self, gflsim, workload: str, size: str, seed: int, work: Path) -> None:
        self.g = gflsim
        self.name = workload
        self.spec = wl.WORKLOADS[workload][size]
        self.seed = seed
        self.work = work
        self.pins = wl.load_pins().get(workload, {}).get(size)
        if self.pins is None:
            raise KeyError(f"pins.json has no references for {workload}/{size}")
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.spec.config))
        self.cfg = gflsim.load_config(self.config_path)
        self.attempted = 0
        self.failed = 0

    def seeds(self) -> list[int]:
        return wl.scenario_seeds(self.name, self.spec, self.seed)

    def terminal_units(self, seeds) -> int:
        w = self.cfg.world
        return w.mt_count * w.total_time * len(self.spec.policies) * len(seeds)

    def setup_probe(self) -> float:
        """Seconds of one cold set-up, timed in a fresh interpreter."""
        cmd = [sys.executable, str(wl.BENCH_DIR / "setup_probe.py"), str(self.config_path),
               str(self.seeds()[0]), *self.spec.policies]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        return float(out.stdout.split()[-1])

    def warm_up(self) -> None:
        """Fill the package's lazy per-process state (imports, the output
        sample grid) with a few tiny runs, so the first timed run is not
        the only one to pay for it."""
        tiny = dataclasses.replace(self.cfg, world=dataclasses.replace(
            self.cfg.world, mt_count=4, total_time=2 * self.cfg.evolver.window_length))
        for p in self.spec.policies:
            self.attempt(self.g.run, tiny, p, 0)

    # -- the work under test ------------------------------------------------

    def run_all(self, seeds, run=None) -> dict:
        run = run or self.g.run
        return {(p, s): run(self.cfg, p, s) for p in self.spec.policies for s in seeds}

    def compare(self, seeds, out_dir: Path) -> dict:
        cfg = dataclasses.replace(self.cfg, policies=self.spec.policies, seeds=tuple(seeds),
                                  output_dir=str(out_dir), workers=wl.nproc())
        results: dict = {}
        self.g.compare(cfg, results)
        return results

    # -- correctness ---------------------------------------------------------

    def check(self, seeds, results: dict | None, out_dir: Path | None = None) -> None:
        """Count each (policy, seed) run as attempted, and as failed when it
        raised or its metrics, logs or files differ from the pins."""
        keys = [(p, s) for p in self.spec.policies for s in seeds]
        self.attempted += len(keys)
        bad = set()
        for p, s in keys:
            r = (results or {}).get((p, s))
            if r is None or wl.result_pin(r) != self.pins[p][str(s)]:
                bad.add((p, s))
        if out_dir is not None and results is not None:
            bad |= self._check_files(seeds, out_dir, keys)
        for p, s in sorted(bad):
            print(f"MISMATCH {self.name} policy={p} seed={s}", file=sys.stderr)
        self.failed += len(bad)

    def _check_files(self, seeds, out_dir: Path, keys) -> set:
        expected = {"report.csv": (wl.sha256(wl.report_text(self.pins, self.spec.policies, seeds)),
                                   None)}
        for p, s in keys:
            pin = self.pins[p][str(s)]
            expected[f"events_{p}_{s}.csv"] = (pin["events"], (p, s))
            if pin["evolution"] is not None:
                expected[f"evolution_{p}_{s}.jsonl"] = (pin["evolution"], (p, s))
        found = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out_dir.iterdir()}
        bad = set()
        for name in set(expected) | set(found):
            digest, key = expected.get(name, (None, None))
            if found.get(name) != digest:
                # A wrong report or a stray file implicates the whole comparison.
                bad |= {key} if key is not None else set(keys)
        return bad

    def attempt(self, fn, *args):
        """Run ``fn``; on an exception, report it and return None so that
        the check counts every run of the iteration as failed."""
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc()
            return None

    # -- modes ---------------------------------------------------------------

    def timed(self, seconds: float) -> dict:
        """End-to-end metrics, medians over iterations that all run the
        same inputs.  Set-up probes run two after each iteration, outside
        the timed regions, so that their median samples the whole run.  A
        new iteration starts only if it is expected to end within
        ``seconds``."""
        seeds = self.seeds()
        walls, cpus, setups = [], [], [self.setup_probe()]
        start = perf_counter()
        i = 0
        while i < MIN_ITERS or (perf_counter() - start) * (i + 1) / i <= seconds:
            out_dir = self.work / f"iter{i}"
            gc.collect()
            c0, t0 = cpu_seconds(), perf_counter()
            if self.spec.via_compare:
                results = self.attempt(self.compare, seeds, out_dir)
            else:
                results = self.attempt(self.run_all, seeds)
            wall, cpu = perf_counter() - t0, cpu_seconds() - c0
            self.check(seeds, results, out_dir if self.spec.via_compare else None)
            del results
            walls.append(wall)
            cpus.append(cpu)
            setups += [self.setup_probe(), self.setup_probe()]
            i += 1
        setups += [self.setup_probe() for _ in range(SETUP_REPEATS - len(setups))]
        print(f"iterations {i} wall_s " + " ".join(f"{w:.3f}" for w in walls))
        print("setup_s probes " + " ".join(f"{t:.3f}" for t in setups))
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "tu_per_s": self.terminal_units(seeds) / statistics.median(walls),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": max(own, kids) / 1024.0,
            "setup_s": statistics.median(setups),
        }

    def traced(self, seconds: float, trace_path: Path) -> dict:
        """Per-layer metrics on the timed mode's inputs: one untraced
        pass, then traced passes (at least two) for about ``seconds``.
        The first traced pass counts distinct fuzzy inputs, which adds work
        inside the spans, so it gives the counts and every later pass the
        timings."""
        from tracer import Tracer

        start = perf_counter()
        seeds = self.seeds()
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        run_s = {"static": [], "ga": []}

        def timed_run(cfg, policy, seed):
            t0 = perf_counter()
            result = self.g.run(cfg, policy, seed)
            run_s["ga" if policy in wl.GA_POLICIES else "static"].append(perf_counter() - t0)
            return result

        gc.collect()
        self.check(seeds, self.attempt(self.run_all, seeds, timed_run))
        untraced_s = sum(map(sum, run_s.values()))

        passes = []
        while len(passes) < 2 or perf_counter() - start < seconds:
            k = len(passes)
            tracer = Tracer(count_distinct=k == 0)
            pool_wall = output_bytes = 0.0
            if self.spec.via_compare:
                out_dir = self.work / f"trace{k}"
                gc.collect()
                with tracer.exports_installed(self.g):
                    t0 = perf_counter()
                    results = self.attempt(self.compare, seeds, out_dir)
                    pool_wall = perf_counter() - t0
                self.check(seeds, results, out_dir)
                if out_dir.is_dir():
                    output_bytes = sum(f.stat().st_size for f in out_dir.iterdir())
            gc.collect()
            with tracer.installed(self.g):
                results = self.attempt(
                    self.run_all, seeds, tracer.wrap("experiment.run", self.g.run))
            self.check(seeds, results)
            counts, timings = tracer.summary()
            counts["experiment.result_bytes"] = sum(
                len(pickle.dumps(r)) for r in (results or {}).values())
            counts["experiment.output_bytes"] = int(output_bytes)
            timings["traced_run_s"] = tracer.total_seconds("experiment.run")
            timings["pool_wall_s"] = pool_wall
            passes.append((counts, timings))
            if k == 1:
                tracer.save(trace_path.with_suffix(".npz"))
            del results, tracer

        counts = passes[0][0]
        repeated = {n: v for n, v in counts.items() if n != "fuzzy.crisp.distinct"}
        for k, (other, _) in enumerate(passes[1:], 1):
            if other != repeated:
                # Counts that do not repeat fail every run of the pass.
                print(f"COUNTS DIFFER in traced pass {k}: {other} != {repeated}",
                      file=sys.stderr)
                self.failed += len(self.spec.policies) * len(seeds)
        timings = {k: statistics.median(p[1][k] for p in passes[1:]) for k in passes[1][1]}
        traced_s, pool_wall = timings.pop("traced_run_s"), timings.pop("pool_wall_s")
        for family, times in run_s.items():
            timings[f"experiment.run.s_p50.{family}"] = statistics.median(times) if times else 0.0
        timings["experiment.pool_overhead_s"] = (
            pool_wall - untraced_s / wl.nproc() if self.spec.via_compare else 0.0)
        timings["trace_overhead_frac"] = traced_s / untraced_s - 1.0 if untraced_s else 0.0

        print("counts " + json.dumps(counts, sort_keys=True))
        print("timings " + json.dumps(timings, sort_keys=True))
        return {**counts, **timings}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)

    try:
        gflsim = wl.import_gflsim()
    except FileNotFoundError as exc:
        print(f"benchmark: {exc}; run from the root of a gflsim checkout", file=sys.stderr)
        return 2

    env = environment(args.workload, args.seed, args.trace, args.size)
    print("env " + json.dumps(env, sort_keys=True))
    work_root = wl.BENCH_DIR / "_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        tempfile.tempdir = tmp
        bench = Bench(gflsim, args.workload, args.size, args.seed, Path(tmp))
        bench.warm_up()
        if args.trace:
            name = f"{args.workload}_{args.size}_seed{args.seed}"
            values = bench.traced(args.seconds, wl.BENCH_DIR / "traces" / name)
            (wl.BENCH_DIR / "traces" / f"{name}.json").write_text(
                json.dumps({"env": env, "metrics": values}, indent=1, sort_keys=True) + "\n")
            units = PER_LAYER
        else:
            values = bench.timed(args.seconds)
            units = END_TO_END

    failed_frac = bench.failed / bench.attempted
    for name, unit in units.items():
        print(f"metric {name} {values[name]!r} {unit}")
    print(f"metric failed_frac {failed_frac!r} ratio ({bench.failed}/{bench.attempted} runs)")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
