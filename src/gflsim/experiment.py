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
import functools
import json
import math
import numbers
import operator
import os
import sys
from concurrent.futures import ProcessPoolExecutor
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
from .world import (
    HANDOFF_INITIATED,
    DomainError,
    Event,
    HistoryWindow,
    StationSpec,
    TerminalSpec,
    World,
    WorldConfig,
    acceleration_for,
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
    "PolicyMetrics",
    "MetricsReport",
    "compare",
    "export_report",
    "load_report",
    "export_events",
    "load_events",
]

ALL_POLICIES = ("fls", "gfls", "flah", "gflah")

REPORT_FIELDS = ("number_of_handoffs", "connection_time_pct", "energy_wastage_pct")


class ConfigError(ValueError):
    """A configuration value violates an invariant; the message names the key."""


@dataclass(frozen=True)
class FuzzyConfig:
    velocity: LinguisticVariable = field(default_factory=default_velocity)
    distance: LinguisticVariable = field(default_factory=default_distance)
    channels: LinguisticVariable = field(default_factory=default_channels)
    output: LinguisticVariable = field(default_factory=default_output)
    consequents: tuple[int, ...] = DEFAULT_CONSEQUENTS
    resolution: int = DEFAULT_RESOLUTION


@dataclass(frozen=True)
class ExperimentConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    fuzzy: FuzzyConfig = field(default_factory=FuzzyConfig)
    evolver: EvolverConfig = field(default_factory=EvolverConfig)
    policies: tuple[str, ...] = ALL_POLICIES
    seeds: tuple[int, ...] = tuple(range(10))
    output_dir: str = "results"
    output_format: str = "csv"
    workers: Optional[int] = None  # None -> one per CPU

    @property
    def runs(self) -> int:
        return len(self.seeds)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def _check_seed(seed, path: str) -> None:
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"{path}: must be a non-negative integer, got {seed!r}")


def _check_unique(items, key: str) -> None:
    """Name the first entry of ``key`` that repeats an earlier one."""
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ConfigError(f"{key}[{i}]: repeats {item!r}")


@functools.cache
def _schema() -> dict:
    """The config key table: every key with its type, bounds and default."""
    return json.loads(Path(__file__).with_name("config.schema.json").read_text(encoding="utf-8"))


_TYPES = {"object": dict, "array": (list, tuple), "string": str, "boolean": bool,
          "null": type(None), "integer": int, "number": (int, float)}
_BOUNDS = (("minimum", operator.ge, ">="), ("exclusiveMinimum", operator.gt, ">"),
           ("maximum", operator.le, "<="))


def _is(value, name: str) -> bool:
    """JSON type test, stricter than JSON Schema: an integer is an integer
    literal, and a number must be representable as a finite float."""
    if isinstance(value, bool):  # JSON booleans are neither integers nor numbers
        return name == "boolean"
    return isinstance(value, _TYPES[name]) and (name != "number"
                                                or abs(value) <= sys.float_info.max)


def _key(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _check(value, node: dict, path: str):
    """``value`` checked against schema ``node`` at key ``path``, with every
    number as a float and every array as a tuple.  Covers the keywords
    config.schema.json uses; raises :class:`ConfigError` naming the first bad key."""
    if "$ref" in node:
        value = _check(value, _schema()["$defs"][node["$ref"].rsplit("/", 1)[-1]], path)
    types = node.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and not any(_is(value, t) for t in types):
        expected = " or ".join(types).replace("number", "finite number")
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")
    if "enum" in node and value not in node["enum"]:
        raise ConfigError(f"{path}: expected one of {node['enum']}, got {value!r}")
    if "number" in types and value is not None:
        value = float(value)
    for keyword, holds, relation in _BOUNDS:
        if keyword in node and value is not None and not holds(value, node[keyword]):
            raise ConfigError(f"{path}: must be {relation} {node[keyword]}, got {value!r}")
    if isinstance(value, _TYPES["array"]):
        if len(value) < node.get("minItems", 0):
            raise ConfigError(f"{path}: expected at least {node['minItems']} items, "
                              f"got {len(value)}")
        if len(value) > node.get("maxItems", math.inf):
            raise ConfigError(f"{path}: expected at most {node['maxItems']} items, "
                              f"got {len(value)}")
        if "items" in node:
            value = tuple(_check(v, node["items"], f"{path}[{i}]") for i, v in enumerate(value))
        if node.get("uniqueItems"):
            _check_unique(value, path)
    if isinstance(value, dict):
        properties = node.get("properties", {})
        unknown = [key for key in value if key not in properties]
        if unknown and node.get("additionalProperties") is False:
            import difflib  # only a config with a typo pays for the import
            hint = difflib.get_close_matches(unknown[0], list(properties), n=1)
            raise ConfigError(f"{_key(path, unknown[0])}: unknown key"
                              + (f"; did you mean {hint[0]!r}?" if hint else ""))
        for key in node.get("required", ()):
            if key not in value:
                raise ConfigError(f"{_key(path, key)}: required key missing")
        value = {key: _check(v, properties[key], _key(path, key)) if key in properties else v
                 for key, v in value.items()}
    return value


def _pair(pair: tuple[float, float], path: str) -> tuple[float, float]:
    if pair[1] < pair[0]:
        raise ConfigError(f"{path}: low must not exceed high")
    return pair


def _variable(raw: dict, path: str, default: LinguisticVariable) -> LinguisticVariable:
    lo, hi = _pair(raw.get("range", (default.lo, default.hi)), f"{path}.range")
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
    fuzzy = FuzzyConfig(**kw)
    try:
        _output_grid(fuzzy.output, fuzzy.resolution)
    except FuzzyDefinitionError as exc:
        raise ConfigError(f"fuzzy.resolution: {exc}") from exc
    return fuzzy


def _world(raw: dict) -> WorldConfig:
    kw = dict(raw)
    if "arena" in kw:
        kw["arena_width"], kw["arena_height"] = kw.pop("arena")
    for key in ("steady_speed", "accel_distance"):
        if key in kw:
            kw[f"{key}_range"] = _pair(kw.pop(key), f"world.{key}")
    if "stations" in raw:
        kw["stations"] = tuple(StationSpec(*st["center"], st["radius"], st["capacity"])
                               for st in raw["stations"])
    if "terminals" in raw:
        kw["terminals"] = tuple(TerminalSpec(*entry.pop("position"), **{"heading": 0.0, **entry})
                                for entry in raw["terminals"])
    try:
        cfg = WorldConfig(**kw)
    except DomainError as exc:  # the schema bounds each key: only s_min < s_th is left
        raise ConfigError(f"world.s_min/world.s_th: {exc}") from exc
    extent = max(cfg.arena_width, cfg.arena_height)
    for i, st in enumerate(cfg.stations):
        if st.radius > extent:
            raise ConfigError(f"world.stations[{i}].radius: exceeds the arena extent")
    # Accelerated plans keep acceleration, speed and path finite over the
    # horizon; acceleration grows with distance, so the longest random plan is the worst.
    plans = [("world.accel_distance", cfg.accel_distance_range[1], cfg.total_time)
             if cfg.accel_duration is None else
             ("world.accel_duration", cfg.accel_distance_range[1], cfg.accel_duration)]
    plans += [(f"world.terminals[{i}].duration", spec.distance, spec.duration)
              for i, spec in enumerate(cfg.terminals or ()) if spec.kind == "accelerated"]
    for path, distance, duration in plans:
        try:
            a = acceleration_for(distance, duration)
        except DomainError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if not math.isfinite(a * cfg.total_time * cfg.total_time):
            raise ConfigError(f"{path}: acceleration {a} overflows over "
                              f"{cfg.total_time} time units")
    return cfg


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
    world = _world(raw.get("world", {}))
    try:
        evolver = EvolverConfig(**raw.get("evolver", {}))
    except ValueError as exc:
        raise ConfigError(f"evolver: {exc}") from exc
    kw = {key: raw[key] for key in ("policies", "output_dir", "output_format", "workers")
          if key in raw}
    if "seeds" in raw:
        kw["seeds"] = raw["seeds"]
        if raw.get("runs", len(kw["seeds"])) != len(kw["seeds"]):
            raise ConfigError(f"runs: {raw['runs']} does not match the "
                              f"{len(kw['seeds'])} listed seeds")
    elif "runs" in raw:
        kw["seeds"] = tuple(range(raw["runs"]))
    return ExperimentConfig(world=world, fuzzy=_fuzzy(raw.get("fuzzy", {})), evolver=evolver, **kw)


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
    events: tuple[Event, ...]
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
    _check_seed(seed, "seed")
    world_ss, ga_ss = np.random.SeedSequence(seed).spawn(2)
    world = World.build(config.world, np.random.default_rng(world_ss))
    policy = _build_policy(config, kind,
                           np.random.default_rng(ga_ss) if kind.evolving else None)
    window = HistoryWindow(config.evolver.window_length)
    for t in range(1, config.world.total_time + 1):
        window.push(world.step(policy))
        policy.on_epoch(window, t)
    world.verify_channels()

    handoffs = sum(1 for e in world.events if e.kind == HANDOFF_INITIATED)
    final = world.mts
    mt_units = len(final) * config.world.total_time
    connection_pct = 100.0 * world.connected_units / mt_units if mt_units else 0.0
    e0 = config.world.initial_energy
    wastage = [100.0 * (e0 - mt.energy) / e0 for mt in final]
    energy_pct = float(np.mean(wastage)) if wastage else 0.0
    metrics = RunMetrics(handoffs, connection_pct, energy_pct)
    return RunResult(
        policy=kind.value, seed=seed, metrics=metrics,
        events=tuple(world.events), evolution=tuple(policy.evolution_log),
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


@dataclass(frozen=True)
class PolicyMetrics:
    number_of_handoffs: Summary
    connection_time_pct: Summary
    energy_wastage_pct: Summary


@dataclass(frozen=True)
class MetricsReport:
    policies: tuple[str, ...]
    rows: dict

    def policy(self, name: str) -> PolicyMetrics:
        return self.rows[name]


def _summarize(values: Sequence[float]) -> Summary:
    return Summary(max=max(values), min=min(values), avg=sum(values) / len(values))


def compare(config: ExperimentConfig,
            results_out: Optional[dict] = None) -> MetricsReport:
    """Run every configured policy over the shared seed list and aggregate.

    Writes the report plus per-run event logs (and evolved-grid logs for
    the evolving policies) to the configured output directory.  Pass
    ``results_out`` to also receive every :class:`RunResult` keyed by
    (policy, seed).
    """
    for i, seed in enumerate(config.seeds):
        _check_seed(seed, f"seeds[{i}]")
    _check_unique(config.seeds, "seeds")
    _check_unique(config.policies, "policies")
    tasks = [(config, kind, seed) for kind in config.policies for seed in config.seeds]
    workers = config.workers if config.workers is not None else (os.cpu_count() or 1)
    workers = max(1, min(workers, len(tasks)))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_task, tasks, chunksize=1))
    else:
        results = [_run_task(t) for t in tasks]

    by_key = {(r.policy, r.seed): r for r in results}
    if results_out is not None:
        results_out.update(by_key)

    rows = {}
    for kind in config.policies:
        per_seed = [by_key[(kind, s)].metrics for s in config.seeds]
        rows[kind] = PolicyMetrics(
            number_of_handoffs=_summarize([m.number_of_handoffs for m in per_seed]),
            connection_time_pct=_summarize([m.connection_time_pct for m in per_seed]),
            energy_wastage_pct=_summarize([m.energy_wastage_pct for m in per_seed]),
        )
    report = MetricsReport(policies=tuple(config.policies), rows=rows)

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


def export_report(report: MetricsReport, fmt: str, path: str | Path) -> None:
    """Write a report as CSV (policy,metric,max,min,avg) or JSON; lossless."""
    path = Path(path)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["policy", "metric", "max", "min", "avg"])
            for kind in report.policies:
                pm = report.rows[kind]
                for metric in REPORT_FIELDS:
                    s: Summary = getattr(pm, metric)
                    writer.writerow([kind, metric,
                                     _format_number(s.max), _format_number(s.min),
                                     _format_number(s.avg)])
    elif fmt == "json":
        payload = {
            kind: {
                metric: dataclasses.asdict(getattr(report.rows[kind], metric))
                for metric in REPORT_FIELDS
            }
            for kind in report.policies
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def load_report(path: str | Path, fmt: str) -> MetricsReport:
    path = Path(path)
    rows: dict = {}
    order: list[str] = []
    if fmt == "csv":
        with open(path, newline="") as fh:
            cells: dict[str, dict[str, Summary]] = {}
            for rec in csv.DictReader(fh):
                kind, metric = rec["policy"], rec["metric"]
                if kind not in cells:
                    cells[kind] = {}
                    order.append(kind)
                cells[kind][metric] = Summary(
                    max=json.loads(rec["max"]), min=json.loads(rec["min"]),
                    avg=json.loads(rec["avg"]),
                )
        for kind in order:
            rows[kind] = PolicyMetrics(**cells[kind])
    elif fmt == "json":
        with open(path) as fh:
            payload = json.load(fh)
        order = list(payload)
        for kind, metrics in payload.items():
            rows[kind] = PolicyMetrics(**{m: Summary(**v) for m, v in metrics.items()})
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return MetricsReport(policies=tuple(order), rows=rows)


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
