"""Spans and counters recorded around calls into gflsim's layers.

``Tracer.installed`` swaps wrappers in for the public methods of the
package's classes for the length of a ``with`` block and restores the
originals on exit, so the untraced runs of the same process execute the
package unmodified.  Spans stay in memory in flat arrays; ``summary``
turns them into the per-layer metrics and ``save`` writes them out.

A tracer made with ``count_distinct=True`` also counts the distinct
strength vectors each ``FuzzySystem`` defuzzifies.  That bookkeeping runs
inside the callers' spans, so such a tracer is for counting only; take
timings from a tracer without it.
"""

from __future__ import annotations

import weakref
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Span names, in the order of their integer codes.
SPANS = (
    "world.build", "world.step", "policies.decide", "policies.on_epoch",
    "fuzzy.crisp", "evolver.prep", "evolver.batch",
    "evolver.evolve", "experiment.run", "experiment.export",
)
_CODE = {name: i for i, name in enumerate(SPANS)}


class Tracer:
    """One flat span list: code, parent span index, start, end and an
    integer payload (terminals stepped, chromosomes scored, ...)."""

    def __init__(self, count_distinct: bool = False) -> None:
        self.code = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.arg = array("q")
        self._stack: list[int] = []
        self.count_distinct = count_distinct
        self.crisp_distinct = 0
        self._crisp_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _open(self, name: str) -> int:
        i = len(self.code)
        self.code.append(_CODE[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.arg.append(0)
        self._stack.append(i)
        return i

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        i = self._open(name)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter()
            self.start[i] = t0
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextmanager
    def installed(self, gflsim):
        """Trace the public layer methods of every object built inside."""
        tr = self
        World, HandoffPolicy = gflsim.World, gflsim.HandoffPolicy
        FuzzySystem, ReplayFitness, RuleEvolver = (
            gflsim.FuzzySystem, gflsim.ReplayFitness, gflsim.RuleEvolver)
        originals = [
            (cls, name, cls.__dict__[name]) for cls, name in (
                (World, "build"), (World, "step"),
                (HandoffPolicy, "decide"), (HandoffPolicy, "on_epoch"),
                (FuzzySystem, "crisp_from_strengths"),
                (ReplayFitness, "window_support"), (ReplayFitness, "batch"),
                (RuleEvolver, "evolve"),
            )
        ]
        build = World.__dict__["build"].__func__
        step, decide, on_epoch = World.step, HandoffPolicy.decide, HandoffPolicy.on_epoch
        crisp = FuzzySystem.crisp_from_strengths
        support, batch, evolve = (ReplayFitness.window_support, ReplayFitness.batch,
                                  RuleEvolver.evolve)

        def traced_step(world, policy):
            i = len(tr.code)
            out = tr.call("world.step", step, world, policy)
            tr.arg[i] = len(world.mts)
            return out

        def traced_on_epoch(policy, window, now):
            i = len(tr.code)
            before = len(policy.evolution_log)
            tr.call("policies.on_epoch", on_epoch, policy, window, now)
            tr.arg[i] = len(policy.evolution_log) - before

        def counted_crisp(system, strengths):
            seen = tr._crisp_seen.get(system)
            if seen is None:
                seen = tr._crisp_seen[system] = set()
            key = tuple(strengths.tolist() if isinstance(strengths, np.ndarray)
                        else strengths)
            if key not in seen:
                seen.add(key)
                tr.crisp_distinct += 1
            return tr.call("fuzzy.crisp", crisp, system, strengths)

        def traced_batch(fitness, population, window):
            i = len(tr.code)
            out = tr.call("evolver.batch", batch, fitness, population, window)
            tr.arg[i] = len(population)
            return out

        def traced_evolve(evolver, window, on_generation=None):
            i = len(tr.code)
            out = tr.call("evolver.evolve", evolve, evolver, window, on_generation)
            tr.arg[i] = (evolver.cfg.generations + 1) * evolver.cfg.population_size
            return out

        World.build = classmethod(lambda cls, *a, **k: tr.call("world.build", build, cls, *a, **k))
        World.step = traced_step
        HandoffPolicy.decide = self.wrap("policies.decide", decide)
        HandoffPolicy.on_epoch = traced_on_epoch
        FuzzySystem.crisp_from_strengths = (
            counted_crisp if self.count_distinct else self.wrap("fuzzy.crisp", crisp))
        # evolve() asks for the support once per frozen window, and that
        # first call builds the window's replay prep.
        ReplayFitness.window_support = self.wrap("evolver.prep", support)
        ReplayFitness.batch = traced_batch
        RuleEvolver.evolve = traced_evolve
        try:
            yield self
        finally:
            for cls, name, orig in originals:
                setattr(cls, name, orig)

    @contextmanager
    def exports_installed(self, gflsim):
        """Trace the public exporters that ``compare`` calls in the parent
        process.  Evolution logs go through a private helper and stay
        outside the span."""
        module = gflsim.experiment
        originals = {name: getattr(module, name) for name in ("export_report", "export_events")}
        for name, fn in originals.items():
            setattr(module, name, self.wrap("experiment.export", fn))
        try:
            yield self
        finally:
            for name, fn in originals.items():
                setattr(module, name, fn)

    def arrays(self):
        code, parent, arg = (np.array(a, dtype=np.int64)
                             for a in (self.code, self.parent, self.arg))
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(code))
        return code, dur, dur - child, arg

    def total_seconds(self, name: str) -> float:
        code, dur, _, _ = self.arrays()
        return float(dur[code == _CODE[name]].sum())

    def summary(self) -> tuple[dict, dict]:
        """(deterministic counts, timings) of the spans recorded so far.
        ``fuzzy.crisp.distinct`` is among the counts of a counting tracer only."""
        code, dur, self_t, arg = self.arrays()

        def sel(name):
            return code == _CODE[name]

        def pct(values, q, scale):
            return float(np.percentile(values, q)) * scale if len(values) else 0.0

        step, decide, crisp = sel("world.step"), sel("policies.decide"), sel("fuzzy.crisp")
        retune = sel("policies.on_epoch") & (arg > 0)
        prep, batch, evolve = sel("evolver.prep"), sel("evolver.batch"), sel("evolver.evolve")
        chromosomes, requested = int(arg[batch].sum()), int(arg[evolve].sum())
        tu = int(arg[step].sum())
        counts = {
            "world.step.calls": int(step.sum()),
            "policies.decide.calls": int(decide.sum()),
            "policies.on_epoch.calls": int(retune.sum()),
            "fuzzy.crisp.calls": int(crisp.sum()),
            "evolver.prep.calls": int(prep.sum()),
            "evolver.batch.calls": int(batch.sum()),
            "evolver.batch.chromosomes": chromosomes,
            "evolver.requested": requested,
        }
        if self.count_distinct:
            counts["fuzzy.crisp.distinct"] = self.crisp_distinct
        timings = {
            "world.build_ms": pct(dur[sel("world.build")], 50, 1e3),
            "world.step.self_us_per_tu": float(self_t[step].sum()) / tu * 1e6 if tu else 0.0,
            "policies.decide.us_p50": pct(dur[decide], 50, 1e6),
            "policies.decide.us_p99": pct(dur[decide], 99, 1e6),
            "policies.on_epoch.ms_p50": pct(dur[retune], 50, 1e3),
            "policies.on_epoch.ms_p90": pct(dur[retune], 90, 1e3),
            "fuzzy.crisp.total_s": float(dur[crisp].sum()),
            "evolver.prep.ms_p50": pct(dur[prep], 50, 1e3),
            "evolver.batch.us_per_chromosome": (float(dur[batch].sum()) / chromosomes * 1e6
                                                if chromosomes else 0.0),
            "evolver.replay_ratio": chromosomes / requested if requested else 0.0,
            "evolver.self_s": float(self_t[evolve].sum()),
            "experiment.export_s": float(dur[sel("experiment.export")].sum()),
        }
        return counts, timings

    def save(self, path) -> None:
        code, dur, _, arg = self.arrays()
        np.savez_compressed(
            path, names=np.array(SPANS), code=code,
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start), end=np.array(self.end), arg=arg,
        )
