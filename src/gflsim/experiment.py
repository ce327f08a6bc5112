"""Experiment configuration, seeded runs, metrics, and comparison reports.

A run is fully determined by (config, policy, seed): the seed spawns one
stream for world initialization (shared by every policy, so a given seed
means identical terminals for all of them) and an independent stream for
the evolutionary search.  Replicate runs are independent and executed on
a process pool by default; aggregation order is fixed by the config, so
output files are byte-identical across repeats regardless of worker count.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .evolver import EvolverConfig
from .fuzzy import (
    DEFAULT_CONSEQUENTS,
    DEFAULT_RESOLUTION,
    FuzzyDefinitionError,
    LinguisticVariable,
    MembershipFunction,
    _output_grid,
    default_channels,
    default_distance,
    default_output,
    default_velocity,
)
from .policies import HandoffPolicy, PolicyKind, make_policy
from .schema import ConfigError, _check, _schema, check_fields
from .world import (
    HANDOFF_INITIATED,
    Event,
    EventLog,
    StationSpec,
    TerminalSpec,
    World,
    WorldConfig,
)

__all__ = [
    "ConfigError",
    "FuzzyConfig",
    "ExperimentConfig",
    "default_config",
    "load_config",
    "RunMetrics",
    "RunResult",
    "run",
    "Summary",
    "compare",
    "export_report",
    "load_report",
    "export_events",
    "load_events",
]

ALL_POLICIES = ("fls", "gfls", "flah", "gflah")

REPORT_FIELDS = ("number_of_handoffs", "connection_time_pct", "energy_wastage_pct")


@dataclass(frozen=True)
class FuzzyConfig:
    velocity: LinguisticVariable = field(default_factory=default_velocity)
    distance: LinguisticVariable = field(default_factory=default_distance)
    channels: LinguisticVariable = field(default_factory=default_channels)
    output: LinguisticVariable = field(default_factory=default_output)
    consequents: tuple[int, ...] = DEFAULT_CONSEQUENTS
    resolution: int = DEFAULT_RESOLUTION

    def __post_init__(self) -> None:
        entries = check_fields(self, "fuzzy")
        for name in ("velocity", "distance", "channels", "output"):  # term counts of the grid
            _check(getattr(self, name).terms, entries[name]["properties"]["terms"], f"{name}.terms")
        try:
            _output_grid(self.output, self.resolution)
        except FuzzyDefinitionError as exc:
            raise ConfigError(f"resolution: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    fuzzy: FuzzyConfig = field(default_factory=FuzzyConfig)
    evolver: EvolverConfig = field(default_factory=EvolverConfig)
    policies: tuple[str, ...] = ALL_POLICIES
    seeds: tuple[int, ...] = tuple(range(10))
    output_dir: str = "results"
    output_format: str = "csv"
    workers: Optional[int] = None  # None -> one per CPU this process may use

    def __post_init__(self) -> None:
        check_fields(self)
        # A terminal-unit costs at most one handoff or one cut, so this bounds a window's fitness.
        ev = self.evolver
        if not math.isfinite((ev.weight_handoff + ev.weight_cut) * self.world.mt_count
                             * ev.window_length):
            name = "weight_handoff" if ev.weight_handoff >= ev.weight_cut else "weight_cut"
            raise ConfigError(f"evolver.{name}: {getattr(ev, name)} overflows the fitness of a "
                              f"window of {ev.window_length} units and {self.world.mt_count} "
                              "terminals")

    @property
    def runs(self) -> int:
        return len(self.seeds)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def _build(cls, section: str, kw: dict):
    """``cls(**kw)``, its :class:`ConfigError` prefixed with ``section``:
    the config file's key."""
    try:
        return cls(**kw)
    except ConfigError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


def _variable(raw: dict, path: str, default: LinguisticVariable) -> LinguisticVariable:
    lo, hi = raw.get("range", (default.lo, default.hi))
    terms = []
    for i, entry in enumerate(raw.get("terms", ())):
        try:
            terms.append(MembershipFunction(entry["label"], entry["points"]))
        except FuzzyDefinitionError as exc:
            raise ConfigError(f"{path}.terms[{i}]: {exc}") from exc
    try:
        return LinguisticVariable(default.name, lo, hi, terms or default.terms)
    except FuzzyDefinitionError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _fuzzy(raw: dict) -> FuzzyConfig:
    kw = dict(raw)
    for key, default in (("velocity", default_velocity), ("distance", default_distance),
                         ("channels", default_channels), ("output", default_output)):
        if key in raw:
            kw[key] = _variable(raw[key], f"fuzzy.{key}", default())
    return _build(FuzzyConfig, "fuzzy", kw)


def _world(raw: dict) -> WorldConfig:
    if "terminals" in raw and raw.get("mt_count", len(raw["terminals"])) != len(raw["terminals"]):
        raise ConfigError(f"world.mt_count: {raw['mt_count']} does not match the "
                          f"{len(raw['terminals'])} listed terminals")
    kw = dict(raw)
    for key, spec in (("stations", StationSpec), ("terminals", TerminalSpec)):
        if key in raw:
            kw[key] = tuple(spec(**entry) for entry in raw[key])
    return _build(WorldConfig, "world", kw)


def read_config_dict(path: str | Path) -> dict:
    """Raw JSON object from a config file; a blank file means {}."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot be read as UTF-8 text ({exc})") from exc
    if not text.strip():
        return {}
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return raw


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config, filling defaults.

    A blank file means "all defaults".  Raises :class:`FileNotFoundError`
    for a missing file and :class:`ConfigError` (naming the offending key)
    for invariant violations, or naming the path for a file that cannot be
    read as UTF-8 text.
    """
    return config_from_dict(read_config_dict(path))


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Check a raw config against config.schema.json, then build it and
    run the checks that span more than one key."""
    raw = _check(raw, _schema(), "")
    kw = {key: raw[key] for key in ("policies", "output_dir", "output_format", "workers")
          if key in raw}
    if "seeds" in raw:
        kw["seeds"] = raw["seeds"]
        if raw.get("runs", len(kw["seeds"])) != len(kw["seeds"]):
            raise ConfigError(f"runs: {raw['runs']} does not match the "
                              f"{len(kw['seeds'])} listed seeds")
    elif "runs" in raw:
        kw["seeds"] = tuple(range(raw["runs"]))
    return ExperimentConfig(world=_world(raw.get("world", {})), fuzzy=_fuzzy(raw.get("fuzzy", {})),
                            evolver=_build(EvolverConfig, "evolver", raw.get("evolver", {})), **kw)


@dataclass(frozen=True)
class RunMetrics:
    number_of_handoffs: int
    connection_time_pct: float
    energy_wastage_pct: float


@dataclass(frozen=True)
class RunResult:
    policy: str
    seed: int
    metrics: RunMetrics
    events: EventLog
    evolution: tuple[tuple[int, float, tuple[int, ...]], ...]
    sim_time: int


def _build_policy(config: ExperimentConfig, kind: PolicyKind,
                  rng: Optional[np.random.Generator]) -> HandoffPolicy:
    return make_policy(
        kind,
        velocity_var=config.fuzzy.velocity,
        distance_var=config.fuzzy.distance,
        channels_var=config.fuzzy.channels,
        output_var=config.fuzzy.output,
        resolution=config.fuzzy.resolution,
        consequents=config.fuzzy.consequents,
        s_min=config.world.s_min,
        s_th=config.world.s_th,
        dwell=config.world.dwell,
        evolver_cfg=config.evolver,
        rng=rng,
    )


def run(config: ExperimentConfig, policy_kind: PolicyKind | str, seed: int) -> RunResult:
    """One seeded end-to-end simulation under one policy."""
    kind = PolicyKind(policy_kind)
    _check(seed, _schema()["properties"]["seeds"]["items"], "seed")
    world_ss, ga_ss = np.random.SeedSequence(seed).spawn(2)
    world = World.build(config.world, np.random.default_rng(world_ss))
    policy = _build_policy(config, kind,
                           np.random.default_rng(ga_ss) if kind.evolving else None)
    for t in range(1, config.world.total_time + 1):
        policy.on_epoch(world.step(policy), t)
    world.verify_channels()

    handoffs = world.events.kind_count(HANDOFF_INITIATED)
    mt_units = len(world.mts) * config.world.total_time
    connection_pct = 100.0 * world.connected_units / mt_units
    e0 = config.world.initial_energy
    energy_pct = float(np.mean(100.0 * (e0 - world._energy) / e0))
    metrics = RunMetrics(handoffs, connection_pct, energy_pct)
    return RunResult(
        policy=kind.value, seed=seed, metrics=metrics,
        events=world.events, evolution=tuple(policy.evolution_log),
        sim_time=world.t,
    )


def _run_task(args: tuple[ExperimentConfig, str, int]) -> RunResult:
    return run(*args)


@dataclass(frozen=True)
class Summary:
    max: float
    min: float
    avg: float

    def __post_init__(self) -> None:
        if not self.min <= self.avg <= self.max:
            raise ValueError(f"summary needs min <= avg <= max, got {self}")


def _summarize(values: Sequence[float]) -> Summary:
    # The mean of equal floats can round past them ([0.1] * 3 gives 0.10000000000000002).
    lo, hi = min(values), max(values)
    return Summary(max=hi, min=lo, avg=min(max(sum(values) / len(values), lo), hi))


def compare(config: ExperimentConfig,
            results_out: Optional[dict] = None) -> dict[str, dict[str, Summary]]:
    """Run every configured policy over the shared seed list and aggregate.

    Returns the report, ``{policy: {metric: Summary}}`` in the config's policy
    order and ``REPORT_FIELDS`` order, and writes it plus per-run event logs
    (and evolved-grid logs for the evolving policies) to the configured output
    directory.  Pass ``results_out`` to also receive every :class:`RunResult`
    keyed by (policy, seed).
    """
    tasks = [(config, kind, seed) for kind in config.policies for seed in config.seeds]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(config.workers or cpus or 1, len(tasks))
    if workers > 1:
        # Imported here: the pool stack is most of a cold import's cost.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_task, tasks, chunksize=1))
    else:
        results = [_run_task(t) for t in tasks]

    by_key = {(r.policy, r.seed): r for r in results}
    if results_out is not None:
        results_out.update(by_key)

    report = {kind: {metric: _summarize([getattr(by_key[(kind, s)].metrics, metric)
                                         for s in config.seeds])
                     for metric in REPORT_FIELDS}
              for kind in config.policies}

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fmt = config.output_format
    export_report(report, fmt, out_dir / f"report.{fmt}")
    for kind in config.policies:
        for seed in config.seeds:
            result = by_key[(kind, seed)]
            export_events(result.events, fmt, out_dir / f"events_{kind}_{seed}.{fmt}")
            if result.evolution:
                _export_evolution(result.evolution, out_dir / f"evolution_{kind}_{seed}.jsonl")
    return report


def _format_number(v) -> str:
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def export_report(report: dict[str, dict[str, Summary]], fmt: str, path: str | Path) -> None:
    """Write a report, ``{policy: {metric: Summary}}``, as CSV rows
    (policy,metric,max,min,avg) or as JSON of that mapping; lossless."""
    path = Path(path)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["policy", "metric", "max", "min", "avg"])
            for kind, metrics in report.items():
                for metric, s in metrics.items():
                    writer.writerow([kind, metric, *map(_format_number, (s.max, s.min, s.avg))])
    elif fmt == "json":
        payload = {kind: {metric: dataclasses.asdict(s) for metric, s in metrics.items()}
                   for kind, metrics in report.items()}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def load_report(path: str | Path, fmt: str) -> dict[str, dict[str, Summary]]:
    """A report file read back as ``{policy: {metric: Summary}}``, in file
    order; raises ``ValueError`` naming a policy whose metrics are not
    ``REPORT_FIELDS``."""
    path = Path(path)
    if fmt == "csv":
        report: dict = {}
        with open(path, newline="") as fh:
            for rec in csv.DictReader(fh):
                report.setdefault(rec["policy"], {})[rec["metric"]] = Summary(
                    *(json.loads(rec[stat]) for stat in ("max", "min", "avg")))
    elif fmt == "json":
        with open(path) as fh:
            report = {kind: {metric: Summary(**v) for metric, v in metrics.items()}
                      for kind, metrics in json.load(fh).items()}
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    for kind, metrics in report.items():
        if set(metrics) != set(REPORT_FIELDS):
            raise ValueError(f"{path}: policy {kind!r} has the metrics {list(metrics)}, "
                             f"expected {list(REPORT_FIELDS)}")
    return report


def export_events(events: Sequence[Event], fmt: str, path: str | Path) -> None:
    """Write an event log; one record per event, empty station ids blank."""
    path = Path(path)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "mt_id", "event", "old_bs", "new_bs"])
            for e in events:
                writer.writerow([e.t, e.mt_id, e.kind,
                                 "" if e.old_bs is None else e.old_bs,
                                 "" if e.new_bs is None else e.new_bs])
    elif fmt == "json":
        payload = [
            {"t": e.t, "mt_id": e.mt_id, "event": e.kind,
             "old_bs": e.old_bs, "new_bs": e.new_bs}
            for e in events
        ]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown event-log format {fmt!r}")


def load_events(path: str | Path, fmt: str) -> tuple[Event, ...]:
    path = Path(path)
    out = []
    if fmt == "csv":
        with open(path, newline="") as fh:
            for rec in csv.DictReader(fh):
                out.append(Event(
                    t=int(rec["t"]), mt_id=int(rec["mt_id"]), kind=rec["event"],
                    old_bs=int(rec["old_bs"]) if rec["old_bs"] else None,
                    new_bs=int(rec["new_bs"]) if rec["new_bs"] else None,
                ))
    elif fmt == "json":
        with open(path) as fh:
            for rec in json.load(fh):
                out.append(Event(rec["t"], rec["mt_id"], rec["event"],
                                 rec["old_bs"], rec["new_bs"]))
    else:
        raise ValueError(f"unknown event-log format {fmt!r}")
    return tuple(out)


def _export_evolution(evolution, path: Path) -> None:
    with open(path, "w") as fh:
        for t, fit, genes in evolution:
            rec = {"t": t, "window_fitness": fit, "consequents": list(genes)}
            fh.write(json.dumps(rec) + "\n")
