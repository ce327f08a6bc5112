"""Config loading, seeded runs, aggregation, file export, and the CLI."""

import copy
import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from gflsim.cli import main as cli_main
from gflsim.evolver import EvolverConfig
from gflsim.experiment import (
    REPORT_FIELDS,
    ConfigError,
    ExperimentConfig,
    Summary,
    _summarize,
    compare,
    config_from_dict,
    default_config,
    export_events,
    export_report,
    load_config,
    load_events,
    load_report,
    run,
)
from gflsim.world import StationSpec, TerminalSpec, World, WorldConfig

REPO = Path(__file__).resolve().parent.parent
SCHEMA = REPO / "src" / "gflsim" / "config.schema.json"


def small_config(**kw) -> ExperimentConfig:
    base = default_config()
    world = dataclasses.replace(base.world, mt_count=10, total_time=20)
    evolver = EvolverConfig(generations=3)
    defaults = dict(world=world, evolver=evolver, seeds=(0,), policies=("fls",),
                    workers=1)
    defaults.update(kw)
    return dataclasses.replace(base, **defaults)


@pytest.fixture
def first_units(monkeypatch):
    """Speeds and (x, y) positions after the first step of every world the
    test steps, in order, taken through a wrapper on ``World.step``."""
    seen = []
    step = World.step

    def recording(world, policy):
        rec = step(world, policy)
        if world.t == 1:
            seen.append((rec.velocity.tolist(), [(mt.x, mt.y) for mt in world.mts]))
        return rec

    monkeypatch.setattr(World, "step", recording)
    return seen


# One valid value per key the schema declares, each different from what
# the key takes in ``_base_document``; "[]" is the first entry of a list.
NON_DEFAULT = {
    "world.arena": [6000, 7000],
    "world.stations[].center": [2600, 500],
    "world.stations[].radius": 1300,
    "world.stations[].capacity": 7,
    "world.terminals[].position": [11, 20],
    "world.terminals[].heading": 0.25,
    "world.terminals[].kind": "steady",
    "world.terminals[].speed": 6,
    "world.terminals[].distance": 120,
    "world.terminals[].duration": 12,
    "world.mt_count": 40,
    "world.total_time": 60,
    "world.s_th": 0.5,
    "world.s_min": 0.1,
    "world.epsilon": 0.2,
    "world.dwell": 3,
    "world.initial_energy": 90,
    "world.eq2_verbatim": True,
    "world.steady_speed": [4, 30],
    "world.accel_distance": [1500, 4000],
    "world.accelerated_fraction": 0.25,
    "world.accel_duration": 60,
    "fuzzy.resolution": 501,
    "fuzzy.velocity.range": [0, 25],
    "fuzzy.velocity.terms[].label": "crawl",
    "fuzzy.velocity.terms[].points": [0, 0, 14],
    "fuzzy.distance.range": [0, 0.9],
    "fuzzy.distance.terms[].label": "close",
    "fuzzy.distance.terms[].points": [0, 0, 0.35],
    "fuzzy.channels.range": [0, 0.9],
    "fuzzy.channels.terms[].label": "scarce",
    "fuzzy.channels.terms[].points": [0, 0, 0.45],
    "fuzzy.output.range": [0, 0.9],
    "fuzzy.output.terms[].label": "lowest",
    "fuzzy.output.terms[].points": [0, 0, 0.2],
    "fuzzy.consequents": [1] * 27,
    "evolver.population_size": 40,
    "evolver.crossover_prob": 0.8,
    "evolver.mutation_prob": 0.2,
    "evolver.tournament_size": 5,
    "evolver.generations": 10,
    "evolver.invocation_period": 3,
    "evolver.window_length": 5,
    "evolver.weight_handoff": 2,
    "evolver.weight_cut": 0.5,
    "policies": ["fls"],
    "seeds": list(range(1, 11)),
    "runs": 3,
    "output_dir": "elsewhere",
    "output_format": "json",
    "workers": 2,
}


def _schema_properties(node: dict, schema: dict, path: str):
    """(dotted path, node) of every property the schema declares, "[]" for
    list entries, with each $ref node's own keywords laid over its target."""
    if "$ref" in node:
        base = schema["$defs"][node["$ref"].rsplit("/", 1)[-1]]
        props = {k: {**base["properties"].get(k, {}), **node.get("properties", {}).get(k, {})}
                 for k in base["properties"]}
        node = {**base, **node, "properties": props}
    for key, sub in node.get("properties", {}).items():
        p = f"{path}.{key}" if path else key
        yield p, sub
        yield from _schema_properties(sub, schema, p)
    if "items" in node:
        yield from _schema_properties(node["items"], schema, f"{path}[]")


def _base_document() -> dict:
    """The shipped config plus one terminal, so every schema key has a place;
    ``mt_count`` counts that terminal."""
    raw = json.loads((REPO / "configs" / "default.json").read_text())
    raw["world"]["terminals"] = [{"position": [10, 20], "heading": 0.5, "kind": "accelerated",
                                  "speed": 5, "distance": 100, "duration": 10}]
    raw["world"]["mt_count"] = 1
    return raw


def _with(raw: dict, path: str, value) -> dict:
    """A copy of ``raw`` with the key at dotted ``path`` set to ``value``."""
    raw = copy.deepcopy(raw)
    *parents, last = path.replace("[]", ".0").split(".")
    node = raw
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node.setdefault(key, {})
    node[last] = value
    return raw


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope.json")

    def test_blank_file_means_defaults(self, tmp_path):
        path = tmp_path / "blank.json"
        path.write_text("\n")
        cfg = load_config(path)
        assert cfg.runs == 10
        assert cfg.seeds == tuple(range(10))
        assert len(cfg.world.stations) == 7

    def test_shipped_default_scenario(self):
        cfg = load_config(REPO / "configs" / "default.json")
        assert tuple(s.radius for s in cfg.world.stations) == (
            1400, 1000, 1200, 800, 900, 600, 1300)
        assert tuple(s.capacity for s in cfg.world.stations) == (6, 4, 5, 3, 3, 2, 5)
        assert cfg.world.stations[4].center == (1.0, 2000.0)
        assert cfg.world.total_time == 75 and cfg.world.mt_count == 50
        assert cfg.runs == 10
        assert cfg == default_config()

    def test_threshold_order_enforced(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"world": {"s_min": 0.5, "s_th": 0.4}}))
        with pytest.raises(ConfigError, match="s_min"):
            load_config(path)

    def test_bad_station_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"world": {"stations": [
            {"center": [0, 0], "radius": -5, "capacity": 2}]}}))
        with pytest.raises(ConfigError, match=r"stations\[0\].radius"):
            load_config(path)

    def test_unknown_policy_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"policies": ["fls", "magic"]}))
        with pytest.raises(ConfigError, match="magic"):
            load_config(path)

    def test_runs_seed_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seeds": [1, 2, 3], "runs": 5}))
        with pytest.raises(ConfigError, match="runs"):
            load_config(path)

    def test_explicit_seeds_set_runs(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seeds": [11, 22]}))
        cfg = load_config(path)
        assert cfg.seeds == (11, 22) and cfg.runs == 2

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"output_format": "xml"}))
        with pytest.raises(ConfigError, match="output_format"):
            load_config(path)

    def test_evolver_keys_validated(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"evolver": {"tournament_size": 200}}))
        with pytest.raises(ConfigError, match="evolver"):
            load_config(path)

    def test_custom_membership_terms(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"fuzzy": {"velocity": {
            "range": [0, 20],
            "terms": [{"label": "slow", "points": [0, 0, 12]},
                      {"label": "medium", "points": [4, 10, 16, 18]},
                      {"label": "fast", "points": [8, 20, 20]}],
        }}}))
        cfg = load_config(path)
        assert cfg.fuzzy.velocity.hi == 20.0
        assert [t.points for t in cfg.fuzzy.velocity.terms] == [
            (0, 0, 12), (4, 10, 16, 18), (8, 20, 20)]

    def test_every_schema_key_reaches_the_config(self):
        # A key the converter drops leaves the config as it was.
        schema = json.loads(SCHEMA.read_text())
        # A leaf holds a value or a list of values, not an object.
        leaves = {p for p, node in _schema_properties(schema, schema, "")
                  if not {"properties", "$ref"} & set(node.get("items", node))}
        assert leaves == set(NON_DEFAULT)
        scripted = _base_document()
        # A terminal list sets the terminal count, so mt_count is read without one.
        drawn = copy.deepcopy(scripted)
        del drawn["world"]["terminals"]
        for path, value in NON_DEFAULT.items():
            base = drawn if path == "world.mt_count" else scripted
            assert config_from_dict(_with(base, path, value)) != config_from_dict(base), path

    def test_schema_defaults_are_the_parser_defaults(self):
        schema = json.loads(SCHEMA.read_text())
        defaults = {p: node["default"] for p, node in _schema_properties(schema, schema, "")
                    if "default" in node}
        assert len(defaults) == 25  # 11 world keys, 9 evolver keys and 5 others
        for path, value in defaults.items():
            assert config_from_dict(_with({}, path, value)) == default_config(), path

    def test_output_resolution_must_sample_every_term(self):
        # At 1 or 2 midpoint samples some default output terms have none of
        # positive degree, and a decision on such a term has no centroid.
        for resolution in (1, 2):
            with pytest.raises(ConfigError, match="^fuzzy.resolution: output term 'very_low'"):
                config_from_dict({"fuzzy": {"resolution": resolution}})
        fuzzy = config_from_dict({"fuzzy": {"resolution": 3}}).fuzzy
        assert run(small_config(fuzzy=fuzzy), "fls", 0).events

    @pytest.mark.parametrize("world, key", [
        ({"accel_duration": 1e-160}, "world.accel_duration"),
        ({"accel_duration": 1e-300}, "world.accel_duration"),
        ({"accel_duration": 1e-150, "total_time": 1200}, "world.accel_duration"),
        ({"accel_distance": [1, 1e308], "total_time": 1}, "world.accel_distance"),
        ({"terminals": [{"position": [0, 1], "kind": "accelerated", "duration": 1e-200}]},
         "world.terminals[0].duration"),
    ])
    def test_accelerated_plans_stay_finite(self, world, key):
        # A tiny duration overflows the acceleration (or underflows its
        # square to 0), or a finite one overflows the path over the horizon.
        with pytest.raises(ConfigError, match="^" + re.escape(key) + ": "):
            config_from_dict({"world": world})

    @pytest.mark.parametrize("world, key", [
        ({"steady_speed": [1e308, 1e308]}, "world.steady_speed"),
        ({"steady_speed": [0, 1e307], "total_time": 100}, "world.steady_speed"),
        ({"terminals": [{"position": [0, 1], "speed": 1e307}], "total_time": 100},
         "world.terminals[0].speed"),
        ({"terminals": [{"position": [0, 1], "kind": "accelerated"},
                        {"position": [0, 1], "speed": 1e307}], "total_time": 100},
         "world.terminals[1].speed"),
    ])
    def test_steady_plans_stay_finite(self, world, key):
        # Steady speed times the horizon is the odometer's last value, so an
        # overflow there once ran on with a RuntimeWarning.
        with pytest.raises(ConfigError, match="^" + re.escape(key) + ": "):
            config_from_dict({"world": world})
        fast = WorldConfig(mt_count=10, total_time=20, steady_speed=(1e306, 1e306))
        assert run(small_config(world=fast), "fls", 0).sim_time == 20

    def test_uncovered_terms_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"fuzzy": {"velocity": {
            "range": [0, 30],
            "terms": [{"label": "slow", "points": [0, 0, 5]},
                      {"label": "medium", "points": [5, 10, 15]},
                      {"label": "fast", "points": [25, 30, 30]}],
        }}}))
        with pytest.raises(ConfigError, match="fuzzy.velocity: .*no term covers"):
            load_config(path)


class TestRun:
    def test_same_seed_reproduces_everything(self):
        cfg = small_config()
        a = run(cfg, "fls", 3)
        b = run(cfg, "fls", 3)
        assert a == b and a.events

    @pytest.mark.parametrize("seed, error", [
        (-1, "must be >= 0"), (1.5, "expected integer"), (True, "expected integer")])
    def test_bad_seed_named(self, seed, error):
        with pytest.raises(ConfigError, match=f"^seed: {error}, got {seed}"):
            run(small_config(), "fls", seed)

    def test_uncovered_world_is_all_zero(self):
        cfg = small_config()
        world = dataclasses.replace(
            cfg.world,
            stations=(StationSpec((50.0, 50.0), 10.0, 2),),
            terminals=(TerminalSpec(position=(3000.0, 3000.0), heading=0.0, speed=0.0),),
        )
        res = run(dataclasses.replace(cfg, world=world), "fls", 0)
        assert res.metrics.number_of_handoffs == 0
        assert res.metrics.connection_time_pct == 0.0
        assert res.metrics.energy_wastage_pct == 0.0
        assert res.events == ()

    def test_single_crossing_yields_one_handoff(self):
        # steady terminal cutting from station 0's cell into station 2's
        heading = math.atan2(2000 - 500, 3464 - 2598)
        cfg = small_config()
        world = dataclasses.replace(
            cfg.world,
            terminals=(TerminalSpec(position=(2598.0, 500.0), heading=heading,
                                    kind="steady", speed=25.0),),
            total_time=60,
        )
        res = run(dataclasses.replace(cfg, world=world), "fls", 0)
        kinds = [e.kind for e in res.events]
        assert kinds.count("HandoffInitiated") == 1
        assert kinds.count("HandoffCompleted") == 1
        assert kinds.count("ConnectionCut") == 0
        init = next(e for e in res.events if e.kind == "HandoffInitiated")
        assert (init.old_bs, init.new_bs) == (0, 2)

    def test_metric_ranges(self):
        cfg = small_config(policies=("fls", "gfls"))
        for kind in cfg.policies:
            m = run(cfg, kind, 1).metrics
            assert m.number_of_handoffs >= 0
            assert 0.0 <= m.connection_time_pct <= 100.0
            assert 0.0 <= m.energy_wastage_pct <= 100.0

    def test_cross_policy_fairness(self, first_units):
        cfg = small_config(policies=("fls", "flah", "gfls"))
        for kind in cfg.policies:
            run(cfg, kind, 4)
        assert len(first_units) == 3
        assert first_units[0] == first_units[1] == first_units[2]

    def test_evolution_log_emitted_for_ga_policies(self):
        cfg = small_config(policies=("gfls",))
        res = run(cfg, "gfls", 0)
        assert res.evolution, "expected at least one evolution entry"
        for t, fit_val, genes in res.evolution:
            assert len(genes) == 27
            assert all(1 <= g <= 5 for g in genes)

    def test_eq2_verbatim_changes_speeds(self, first_units):
        cfg = small_config()
        world_v = dataclasses.replace(cfg.world, eq2_verbatim=True)
        run(cfg, "fls", 2)
        run(dataclasses.replace(cfg, world=world_v), "fls", 2)
        (speed_d, pos_d), (speed_v, pos_v) = first_units
        # accelerated terminals report different speeds
        assert speed_d != speed_v
        # positions follow the same path either way
        assert pos_d == pos_v


class TestCompareAndExport:
    def test_negative_seed_named_before_any_worker_starts(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        with pytest.raises(ConfigError, match=r"^seeds\[2\]: must be >= 0, got -1"):
            compare(small_config(seeds=(0, 4, -1), workers=2, output_dir=str(tmp_path / "out")))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change, error", [
        ({"seeds": (0, 0, 1)}, r"^seeds\[1\]: repeats 0"),
        ({"policies": ("fls", "flah", "fls")}, r"^policies\[2\]: repeats 'fls'"),
    ])
    def test_repeated_seed_or_policy_named_before_any_worker_starts(
            self, tmp_path, monkeypatch, change, error):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        monkeypatch.setattr("gflsim.experiment._run_task", no_pool)
        with pytest.raises(ConfigError, match=error):
            compare(small_config(workers=2, output_dir=str(tmp_path / "out"), **change))
        assert not (tmp_path / "out").exists()

    def test_single_seed_collapses_summary(self, tmp_path):
        cfg = small_config(policies=("fls", "flah"), output_dir=str(tmp_path))
        report = compare(cfg)
        for kind in report:
            for metric in ("number_of_handoffs", "connection_time_pct",
                           "energy_wastage_pct"):
                s: Summary = report[kind][metric]
                assert s.max == s.min == s.avg

    def test_mean_of_equal_values_stays_between_them(self, tmp_path):
        # sum / len of equal floats can round past them.
        assert sum([0.1] * 3) / 3 > 0.1
        assert _summarize([0.1] * 3) == Summary(max=0.1, min=0.1, avg=0.1)
        # Scripted terminals and static policies give every seed the same
        # metrics; ten of them once summed past their value and failed the run.
        terminals = tuple(TerminalSpec(position, speed=speed) for position, speed in (
            ((2598.0, 500.0), 12.0), ((866.0, 500.0), 20.0), ((3464.0, 2000.0), 7.0)))
        world = WorldConfig(terminals=terminals, total_time=30)
        cfg = small_config(world=world, policies=("fls", "flah"), seeds=tuple(range(10)),
                           output_dir=str(tmp_path))
        report = compare(cfg)
        loaded = load_report(tmp_path / "report.csv", "csv")
        assert loaded == report and list(loaded) == list(report)
        for row in report.values():
            assert row["energy_wastage_pct"].min == row["energy_wastage_pct"].avg

    def test_summary_order_invariant(self, tmp_path):
        cfg = small_config(policies=("fls",), seeds=(0, 1, 2),
                           output_dir=str(tmp_path))
        report = compare(cfg)
        s = report["fls"]["number_of_handoffs"]
        assert s.min <= s.avg <= s.max

    def test_report_round_trip_csv_and_json(self, tmp_path):
        cfg = small_config(policies=("fls", "flah"), seeds=(0, 1),
                           output_dir=str(tmp_path / "csv"))
        report = compare(cfg)
        for fmt in ("csv", "json"):
            path = tmp_path / f"report.{fmt}"
            export_report(report, fmt, path)
            loaded = load_report(path, fmt)
            assert loaded == report and list(loaded) == list(report)

    @pytest.mark.parametrize("edit", [
        lambda rows: rows[:1] + rows[2:],  # fls loses connection_time_pct
        lambda rows: rows + ["fls,blocked_pct,1.0,0.0,0.5"],
    ], ids=["missing", "unknown"])
    def test_load_report_rejects_a_policy_without_the_three_metrics(self, tmp_path, edit):
        rows = [f"{kind},{metric},2,1,1.5" for kind in ("fls", "flah") for metric in REPORT_FIELDS]
        path = tmp_path / "report.csv"
        path.write_text("\n".join(["policy,metric,max,min,avg"] + rows) + "\n")
        assert list(load_report(path, "csv")) == ["fls", "flah"]
        path.write_text("\n".join(["policy,metric,max,min,avg"] + edit(rows)) + "\n")
        with pytest.raises(ValueError, match="policy 'fls' has the metrics"):
            load_report(path, "csv")

    def test_events_round_trip(self, tmp_path):
        cfg = small_config()
        res = run(cfg, "fls", 0)
        for fmt in ("csv", "json"):
            path = tmp_path / f"events.{fmt}"
            export_events(res.events, fmt, path)
            assert load_events(path, fmt) == res.events

    def test_event_log_exports_as_its_event_tuple(self, tmp_path):
        res = run(default_config(), "fls", 0)  # every kind, with and without stations
        assert len({e.kind for e in res.events}) == 5
        for fmt in ("csv", "json"):
            log, rows = tmp_path / f"log.{fmt}", tmp_path / f"rows.{fmt}"
            export_events(res.events, fmt, log)
            export_events(tuple(res.events), fmt, rows)
            assert log.read_bytes() == rows.read_bytes()

    def test_empty_event_log_is_header_only(self, tmp_path):
        path = tmp_path / "events.csv"
        export_events((), "csv", path)
        assert path.read_bytes() == b"t,mt_id,event,old_bs,new_bs\r\n"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_events((), "xml", tmp_path / "e.xml")
        with pytest.raises(ValueError):
            export_report(compare(small_config(output_dir=str(tmp_path))),
                          "xml", tmp_path / "r.xml")

    def test_compare_writes_configured_outputs(self, tmp_path):
        out = tmp_path / "out"
        cfg = small_config(policies=("fls", "gfls"), output_dir=str(out),
                           output_format="json")
        compare(cfg)
        assert (out / "report.json").exists()
        assert (out / "events_fls_0.json").exists()
        assert (out / "events_gfls_0.json").exists()
        assert (out / "evolution_gfls_0.jsonl").exists()

    def test_parallel_equals_serial(self, tmp_path):
        serial = small_config(policies=("fls", "flah"), seeds=(0, 1),
                              output_dir=str(tmp_path / "serial"), workers=1)
        parallel = dataclasses.replace(
            serial, workers=2, output_dir=str(tmp_path / "parallel"))
        compare(serial)
        compare(parallel)
        for name in ("report.csv", "events_fls_0.csv", "events_flah_1.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == \
                   (tmp_path / "parallel" / name).read_bytes()

    def test_default_workers_follow_cpu_affinity(self, tmp_path, monkeypatch):
        # One worker per CPU this process may use: pinned to one of eight, no pool starts.
        import concurrent.futures
        import os

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = small_config(seeds=(0, 1), workers=None, output_dir=str(tmp_path / "out"))
        assert list(compare(cfg)) == ["fls"]
        with pytest.raises(AssertionError, match="process pool"):
            compare(dataclasses.replace(cfg, workers=2))


class TestCli:
    def write_small_config(self, tmp_path, **extra) -> Path:
        raw = {
            "world": {"mt_count": 8, "total_time": 15},
            "evolver": {"generations": 2},
            "policies": ["fls"],
            "runs": 1,
            "workers": 1,
        }
        raw.update(extra)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return path

    def test_successful_run(self, tmp_path, capsys):
        cfg = self.write_small_config(tmp_path)
        out = tmp_path / "out"
        code = cli_main(["--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "report.csv").exists()
        assert "number_of_handoffs" in capsys.readouterr().out

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert cli_main(["--config", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_config_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"world": {"s_min": 0.9}}))
        assert cli_main(["--config", str(path)]) == 2
        assert "s_min" in capsys.readouterr().err

    def test_config_directory_exits_2_naming_path(self, tmp_path, capsys):
        assert cli_main(["--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(tmp_path) in err

    def test_config_not_utf8_exits_2_naming_path(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"seeds": [0], "output_dir": "caf\u00e9"}'.encode("latin-1"))
        assert cli_main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "UTF-8 text" in err and str(path) in err

    @pytest.mark.parametrize("text, key", [
        ('{"world": {"stations": [{"center": ["a", 1], "radius": 500, "capacity": 3}]}}',
         "world.stations[0].center[0]"),
        ('{"world": {"terminals": [{"position": [0, 1], "speed": "fast"}]}}',
         "world.terminals[0].speed"),
        ('{"world": {"terminals": [{"position": [0, 1], "speed": -5}]}}',
         "world.terminals[0].speed"),
        ('{"world": {"terminals": [{"position": [0, 1], "duration": 0}]}}',
         "world.terminals[0].duration"),
        ('{"world": {"terminals": [{"position": [0, 1]}, {"position": [2, 3]}], "mt_count": 1}}',
         "world.mt_count: 1 does not match the 2 listed terminals"),
        ('{"world": {"terminals": [{"position": [0, 1]}], "mt_count": 50}}',
         "world.mt_count: 50 does not match the 1 listed terminals"),
        ('{"world": []}', "world:"),
        ('{"evolver": "fast"}', "evolver:"),
        ('{"world": {"steady_speed": [0, 1e999]}}', "world.steady_speed[1]"),
        ('{"world": {"steady_speed": [1e308, 1e308]}}', "world.steady_speed"),
        ('{"world": {"stations": [{"center": [0, 0], "radius": 500, '
         '"capacity": 1000000000000000000000000000000}]}}', "world.stations[0].capacity"),
        ('{"world": {"epsilon": NaN}}', "world.epsilon"),
        ('{"fuzzy": {"distance": {"terms": [{"label": "a", "points": [0, "0", 0.4]},'
         ' {"label": "b", "points": [0.2, 0.5, 0.8]}, {"label": "c", "points": [0.6, 1, 1]}]}}}',
         "fuzzy.distance.terms[0].points[1]"),
        ('{"fuzzy": {"velocity": {"terms": [{"label": "a", "points": [0, 0, 10]},'
         ' {"label": "b", "points": [0, 10, 20]}, {"label": "c", "points": [10, 20, 30]},'
         ' {"label": "d", "points": [20, 30, 30]}]}}}', "fuzzy.velocity.terms"),
        ('{"fuzzy": {"output": {"terms": [{"label": "a", "points": [0, 0, 0.4]},'
         ' {"label": "b", "points": [0, 0.4, 0.6]}, {"label": "c", "points": [0.4, 0.6, 1]},'
         ' {"label": "d", "points": [0.6, 1, 1]}]}}}', "fuzzy.output.terms"),
        ('{"world": {"accel_duration": 0}}', "world.accel_duration"),
        ('{"world": {"accel_duration": -5}}', "world.accel_duration"),
        ('{"world": {"accel_duration": 1e-300}}', "world.accel_duration"),
        ('{"fuzzy": {"resolution": 2}}', "fuzzy.resolution"),
        ('{"seeds": [-1]}', "seeds[0]"),
        ('{"seeds": [0, 4, -3]}', "seeds[2]"),
        ('{"seeds": [0, 0, 1]}', "seeds[1]"),
        ('{"seeds": [3, 1, 2, 1, 3]}', "seeds[3]"),
        ('{"policies": ["fls", "fls"]}', "policies[1]"),
        ('{"policies": ["gfls", "fls", "flah", "gfls"]}', "policies[3]"),
        ('{"fuzzy": {"resolution": 100001}}', "fuzzy.resolution"),
        ('{"fuzzy": {"resolution": 100000000}}', "fuzzy.resolution"),
        ('{"world": {"mt_cout": 5}}', "world.mt_cout"),
        ('{"fuzzy": {"velocity": {"lo": 10, "hi": 0}}}', "fuzzy.velocity.lo"),
        ('{"world": {"stations": [{"center": [0, 0], "radius": 500, "capcity": 3}]}}',
         "world.stations[0].capcity"),
        ('{"world": {"terminals": [{"position": [0, 1], "sped": 5}]}}',
         "world.terminals[0].sped"),
        ('{"evolver": {"generation": 5}}', "evolver.generation"),
        ('{"evolver": {"full_resim": true}}', "evolver.full_resim"),
        ('{"seed": 3}', "seed"),
        ('{"fuzzy": {"velocity": null}}', "fuzzy.velocity"),
        ('{"seeds": [0], "runs": "1"}', "runs"),
    ])
    def test_malformed_config_exits_2_naming_key(self, tmp_path, capsys, text, key):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert cli_main(["--config", str(path)]) == 2
        assert key in capsys.readouterr().err

    def test_unknown_format_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--format", "xml"])
        assert exc.value.code == 2

    def test_unknown_policy_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--policy", "wizard"])
        assert exc.value.code == 2

    def test_policy_and_seed_overrides(self, tmp_path):
        cfg = self.write_small_config(tmp_path, policies=["fls", "flah"])
        out = tmp_path / "out"
        code = cli_main(["--config", str(cfg), "--policy", "flah",
                         "--seed", "7", "--out", str(out)])
        assert code == 0
        assert (out / "events_flah_7.csv").exists()
        assert not (out / "events_fls_7.csv").exists()

    def test_runs_conflict_with_listed_seeds(self, tmp_path, capsys):
        cfg = self.write_small_config(tmp_path, seeds=[1, 2], runs=None)
        raw = json.loads(cfg.read_text())
        del raw["runs"]
        cfg.write_text(json.dumps(raw))
        assert cli_main(["--config", str(cfg), "--runs", "5"]) == 2
        assert "seeds" in capsys.readouterr().err

    def test_runs_flag_keeps_listed_seeds(self, tmp_path):
        cfg = self.write_small_config(tmp_path, seeds=[11, 22], runs=2)
        out = tmp_path / "out"
        assert cli_main(["--config", str(cfg), "--runs", "2", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("events_*")) == [
            "events_fls_11.csv", "events_fls_22.csv"]

    def test_negative_seed_flag_exits_2(self, capsys):
        assert cli_main(["--seed", "-1"]) == 2
        assert "seeds[0]: must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, key", [
        (["--workers", "0"], "workers: must be >= 1"),
        (["--runs", "0"], "runs: must be >= 1"),
        (["--seed", "-2"], "seeds[0]: must be >= 0"),
    ])
    def test_bad_flag_value_exits_2_naming_its_key(self, tmp_path, capsys, flags, key):
        assert cli_main(flags + ["--out", str(tmp_path / "out")]) == 2
        assert f"config error: {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_flag_replaces_configured_runs(self, tmp_path):
        cfg = self.write_small_config(tmp_path, runs=2)
        out = tmp_path / "out"
        assert cli_main(["--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
        assert [p.name for p in out.glob("events_*")] == ["events_fls_3.csv"]

    def test_seed_and_runs_mutually_exclusive(self, tmp_path, capsys):
        cfg = self.write_small_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["--config", str(cfg), "--seed", "1", "--runs", "2"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
