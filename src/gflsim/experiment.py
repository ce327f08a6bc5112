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
import numbers
import os
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


def _number(value, path: str) -> float:
    """A finite JSON number as a float."""
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not math.isfinite(value)):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _expect(mapping: dict, key: str, kind, path: str):
    value = mapping[key]
    if kind is float:
        return _number(value, f"{path}.{key}")
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {value!r}")
    return value


def _section(raw: dict, key: str) -> dict:
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: expected an object, got {value!r}")
    return value


def _parse_pair(raw, path: str) -> tuple[float, float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ConfigError(f"{path}: expected a [low, high] pair")
    lo, hi = _number(raw[0], f"{path}[0]"), _number(raw[1], f"{path}[1]")
    if hi < lo:
        raise ConfigError(f"{path}: low must not exceed high")
    return lo, hi


def _parse_stations(raw, path: str) -> tuple[StationSpec, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}: expected a non-empty list")
    out = []
    for i, entry in enumerate(raw):
        p = f"{path}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{p}: expected an object")
        center = entry.get("center")
        if not isinstance(center, (list, tuple)) or len(center) != 2:
            raise ConfigError(f"{p}.center: expected [x, y]")
        x, y = _number(center[0], f"{p}.center[0]"), _number(center[1], f"{p}.center[1]")
        radius = _number(entry.get("radius", 0), f"{p}.radius")
        capacity = entry.get("capacity")
        if radius <= 0:
            raise ConfigError(f"{p}.radius: must be > 0")
        if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 1:
            raise ConfigError(f"{p}.capacity: must be an integer >= 1")
        out.append(StationSpec(x, y, radius, capacity))
    return tuple(out)


def _parse_terminals(raw, path: str) -> tuple[TerminalSpec, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}: expected a non-empty list")
    out = []
    for i, entry in enumerate(raw):
        p = f"{path}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{p}: expected an object")
        pos = entry.get("position")
        if not isinstance(pos, (list, tuple)) or len(pos) != 2:
            raise ConfigError(f"{p}.position: expected [x, y]")
        kind = entry.get("kind", "steady")
        if kind not in ("steady", "accelerated"):
            raise ConfigError(f"{p}.kind: expected 'steady' or 'accelerated'")
        spec = TerminalSpec(
            x=_number(pos[0], f"{p}.position[0]"), y=_number(pos[1], f"{p}.position[1]"),
            heading=_number(entry.get("heading", 0.0), f"{p}.heading"),
            kind=kind,
            speed=_number(entry.get("speed", 10.0), f"{p}.speed"),
            distance=_number(entry.get("distance", 3000.0), f"{p}.distance"),
            duration=_number(entry.get("duration", 75.0), f"{p}.duration"),
        )
        if spec.speed < 0:
            raise ConfigError(f"{p}.speed: must be >= 0")
        if spec.distance <= 0:
            raise ConfigError(f"{p}.distance: must be > 0")
        if spec.duration <= 0:
            raise ConfigError(f"{p}.duration: must be > 0")
        out.append(spec)
    return tuple(out)


def _parse_variable(raw, path: str, default: LinguisticVariable) -> LinguisticVariable:
    if raw is None:
        return default
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object")
    lo, hi = _parse_pair(raw.get("range", [default.lo, default.hi]), f"{path}.range")
    terms_raw = raw.get("terms")
    if terms_raw is None:
        terms = default.terms
    else:
        # The consequent grid is 3x3x3 over five output terms.
        if not isinstance(terms_raw, list) or len(terms_raw) != len(default.terms):
            raise ConfigError(f"{path}.terms: expected a list of exactly "
                              f"{len(default.terms)} terms")
        terms = []
        for i, entry in enumerate(terms_raw):
            p = f"{path}.terms[{i}]"
            if (not isinstance(entry, dict) or "label" not in entry
                    or not isinstance(entry.get("points"), list)):
                raise ConfigError(f"{p}: expected {{label, points}}")
            points = tuple(_number(v, f"{p}.points[{j}]")
                           for j, v in enumerate(entry["points"]))
            try:
                terms.append(MembershipFunction(str(entry["label"]), points))
            except FuzzyDefinitionError as exc:
                raise ConfigError(f"{p}: {exc}") from exc
        terms = tuple(terms)
    try:
        return LinguisticVariable(default.name, lo, hi, terms)
    except FuzzyDefinitionError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_world(raw: dict) -> WorldConfig:
    kw: dict = {}
    if "arena" in raw:
        w, h = _parse_pair(raw["arena"], "world.arena")
        if w <= 0 or h <= 0:
            raise ConfigError("world.arena: extents must be positive")
        kw["arena_width"], kw["arena_height"] = w, h
    if "stations" in raw:
        kw["stations"] = _parse_stations(raw["stations"], "world.stations")
    if "terminals" in raw:
        kw["terminals"] = _parse_terminals(raw["terminals"], "world.terminals")
    for key, kind in (("mt_count", int), ("total_time", int), ("dwell", int), ("s_th", float),
                      ("s_min", float), ("epsilon", float), ("initial_energy", float),
                      ("accelerated_fraction", float)):
        if key in raw:
            kw[key] = _expect(raw, key, kind, "world")
    if "eq2_verbatim" in raw:
        if not isinstance(raw["eq2_verbatim"], bool):
            raise ConfigError("world.eq2_verbatim: expected a boolean")
        kw["eq2_verbatim"] = raw["eq2_verbatim"]
    if "steady_speed" in raw:
        kw["steady_speed_range"] = _parse_pair(raw["steady_speed"], "world.steady_speed")
    if "accel_distance" in raw:
        kw["accel_distance_range"] = _parse_pair(raw["accel_distance"], "world.accel_distance")
    if "accel_duration" in raw and raw["accel_duration"] is not None:
        kw["accel_duration"] = _expect(raw, "accel_duration", float, "world")
    cfg = WorldConfig(**kw)
    _validate_world(cfg)
    return cfg


def _validate_world(cfg: WorldConfig) -> None:
    if not 0 <= cfg.s_min < cfg.s_th <= 1:
        raise ConfigError(
            f"world.s_min/world.s_th: need 0 <= s_min < s_th <= 1, "
            f"got {cfg.s_min}, {cfg.s_th}"
        )
    if cfg.mt_count < 1 and cfg.terminals is None:
        raise ConfigError("world.mt_count: must be >= 1")
    if cfg.total_time < 1:
        raise ConfigError("world.total_time: must be >= 1")
    if cfg.dwell < 1:
        raise ConfigError("world.dwell: must be >= 1")
    if cfg.epsilon < 0:
        raise ConfigError("world.epsilon: must be >= 0")
    if cfg.initial_energy <= 0:
        raise ConfigError("world.initial_energy: must be > 0")
    if not 0 <= cfg.accelerated_fraction <= 1:
        raise ConfigError("world.accelerated_fraction: must be in [0,1]")
    extent = max(cfg.arena_width, cfg.arena_height)
    for i, st in enumerate(cfg.stations):
        if st.radius > extent:
            raise ConfigError(f"world.stations[{i}].radius: exceeds the arena extent")
    if cfg.steady_speed_range[0] < 0:
        raise ConfigError("world.steady_speed: speeds must be >= 0")
    if cfg.accel_distance_range[0] <= 0:
        raise ConfigError("world.accel_distance: distances must be > 0")
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


def _parse_evolver(raw: dict) -> EvolverConfig:
    kw: dict = {}
    for key, kind in (("population_size", int), ("tournament_size", int), ("generations", int),
                      ("window_length", int), ("crossover_prob", float), ("mutation_prob", float),
                      ("invocation_period", float), ("weight_handoff", float),
                      ("weight_cut", float)):
        if key in raw:
            kw[key] = _expect(raw, key, kind, "evolver")
    if "full_resim" in raw:
        if not isinstance(raw["full_resim"], bool):
            raise ConfigError("evolver.full_resim: expected a boolean")
        kw["full_resim"] = raw["full_resim"]
    try:
        return EvolverConfig(**kw)
    except ValueError as exc:
        raise ConfigError(f"evolver: {exc}") from exc


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
    world = _parse_world(_section(raw, "world"))
    evolver = _parse_evolver(_section(raw, "evolver"))

    fz_raw = _section(raw, "fuzzy")
    resolution = fz_raw.get("resolution", DEFAULT_RESOLUTION)
    if not isinstance(resolution, int) or isinstance(resolution, bool) or resolution < 1:
        raise ConfigError("fuzzy.resolution: must be a positive integer")
    consequents = fz_raw.get("consequents")
    if consequents is None:
        consequents = DEFAULT_CONSEQUENTS
    else:
        if (not isinstance(consequents, list) or len(consequents) != 27
                or any(not isinstance(g, int) or isinstance(g, bool) or not 1 <= g <= 5
                       for g in consequents)):
            raise ConfigError("fuzzy.consequents: expected 27 integers in 1..5")
        consequents = tuple(consequents)
    fuzzy = FuzzyConfig(
        velocity=_parse_variable(fz_raw.get("velocity"), "fuzzy.velocity", default_velocity()),
        distance=_parse_variable(fz_raw.get("distance"), "fuzzy.distance", default_distance()),
        channels=_parse_variable(fz_raw.get("channels"), "fuzzy.channels", default_channels()),
        output=_parse_variable(fz_raw.get("output"), "fuzzy.output", default_output()),
        consequents=consequents,
        resolution=resolution,
    )
    try:
        _output_grid(fuzzy.output, resolution)
    except FuzzyDefinitionError as exc:
        raise ConfigError(f"fuzzy.resolution: {exc}") from exc

    policies_raw = raw.get("policies", list(ALL_POLICIES))
    if not isinstance(policies_raw, list) or not policies_raw:
        raise ConfigError("policies: expected a non-empty list")
    policies = []
    for p in policies_raw:
        if p not in ALL_POLICIES:
            raise ConfigError(f"policies: unknown policy {p!r}")
        policies.append(p)
    _check_unique(policies, "policies")

    seeds_raw = raw.get("seeds")
    runs_raw = raw.get("runs")
    if seeds_raw is not None:
        if (not isinstance(seeds_raw, list) or not seeds_raw
                or any(not isinstance(s, int) or isinstance(s, bool) for s in seeds_raw)):
            raise ConfigError("seeds: expected a non-empty list of integers")
        for i, s in enumerate(seeds_raw):
            _check_seed(s, f"seeds[{i}]")
        _check_unique(seeds_raw, "seeds")
        seeds = tuple(seeds_raw)
        if runs_raw is not None and runs_raw != len(seeds):
            raise ConfigError(f"runs: {runs_raw} does not match the {len(seeds)} listed seeds")
    else:
        if runs_raw is None:
            runs_raw = 10
        if not isinstance(runs_raw, int) or isinstance(runs_raw, bool) or runs_raw < 1:
            raise ConfigError("runs: must be a positive integer")
        seeds = tuple(range(runs_raw))

    output_format = raw.get("output_format", "csv")
    if output_format not in ("csv", "json"):
        raise ConfigError(f"output_format: expected 'csv' or 'json', got {output_format!r}")
    output_dir = raw.get("output_dir", "results")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir: expected a string")
    workers = raw.get("workers")
    if workers is not None and (not isinstance(workers, int) or isinstance(workers, bool)
                                or workers < 1):
        raise ConfigError("workers: must be a positive integer or null")

    return ExperimentConfig(
        world=world, fuzzy=fuzzy, evolver=evolver,
        policies=tuple(policies), seeds=seeds,
        output_dir=output_dir, output_format=output_format, workers=workers,
    )


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
    keep_cp = kind.evolving and config.evolver.full_resim
    window = HistoryWindow(config.evolver.window_length, keep_checkpoints=keep_cp)
    for t in range(1, config.world.total_time + 1):
        checkpoint = world.clone_state() if keep_cp else None
        window.push(world.step(policy), checkpoint)
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
