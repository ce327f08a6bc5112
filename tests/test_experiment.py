"""Config loading, seeded runs, aggregation, file export, and the CLI."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from gflsim.cli import main as cli_main
from gflsim.evolver import EvolverConfig, ResimFitness
from gflsim.experiment import (
    ConfigError,
    ExperimentConfig,
    Summary,
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
from gflsim.policies import make_policy
from gflsim.world import StationSpec, TerminalSpec, World

REPO = Path(__file__).resolve().parent.parent


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


class _RecordingDict(dict):
    """A dict that notes the path of every key looked up in it."""

    def __init__(self, items, path: str, read: set) -> None:
        super().__init__(items)
        self._path, self._read = path, read

    def _note(self, key) -> None:
        self._read.add(f"{self._path}.{key}" if self._path else key)

    def get(self, key, default=None):
        self._note(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self._note(key)
        return super().__getitem__(key)

    def __contains__(self, key) -> bool:
        self._note(key)
        return super().__contains__(key)


def _recording(value, path: str, read: set):
    if isinstance(value, dict):
        return _RecordingDict(
            {k: _recording(v, f"{path}.{k}" if path else k, read) for k, v in value.items()},
            path, read)
    if isinstance(value, list):
        return [_recording(v, f"{path}[]", read) for v in value]
    return value


def _schema_keys(node: dict, schema: dict, path: str) -> set[str]:
    """Dotted paths of every property the schema declares ("[]" for items)."""
    props = dict(node.get("properties", {}))
    if "$ref" in node:
        base = schema["$defs"][node["$ref"].rsplit("/", 1)[-1]]
        base_props = base["properties"]
        props = {k: {**base_props.get(k, {}), **props.get(k, {})}
                 for k in base_props.keys() | props.keys()}
    keys = set()
    for key, sub in props.items():
        p = f"{path}.{key}" if path else key
        keys |= {p} | _schema_keys(sub, schema, p)
    if "items" in node:
        keys |= _schema_keys(node["items"], schema, f"{path}[]")
    return keys


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
        assert (cfg.world.stations[4].x, cfg.world.stations[4].y) == (1.0, 2000.0)
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
        assert [t.shape for t in cfg.fuzzy.velocity.terms] == [
            "triangular", "trapezoidal", "triangular"]

    def test_schema_keys_match_parsed_keys(self):
        schema = json.loads((REPO / "docs" / "config.schema.json").read_text())
        raw = json.loads((REPO / "configs" / "default.json").read_text())
        raw["world"]["accel_duration"] = 60
        raw["world"]["terminals"] = [{"position": [10, 20], "heading": 0.5, "kind": "steady",
                                      "speed": 5, "distance": 100, "duration": 10}]
        raw.update(seeds=list(range(raw["runs"])), workers=1)
        read: set[str] = set()
        config_from_dict(_recording(raw, "", read))
        assert read == _schema_keys(schema, schema, "")

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

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_named(self, seed):
        with pytest.raises(ConfigError, match="^seed: must be a non-negative integer"):
            run(small_config(), "fls", seed)

    def test_uncovered_world_is_all_zero(self):
        cfg = small_config()
        world = dataclasses.replace(
            cfg.world,
            stations=(StationSpec(50.0, 50.0, 10.0, 2),),
            terminals=(TerminalSpec(x=3000.0, y=3000.0, heading=0.0, speed=0.0),),
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
            terminals=(TerminalSpec(x=2598.0, y=500.0, heading=heading,
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

    @pytest.mark.parametrize("kind, n_inputs", [("gfls", 3), ("gflah", 2)])
    def test_full_resim_end_to_end(self, kind, n_inputs):
        cfg = config_from_dict({
            "world": {"mt_count": 6, "total_time": 12},
            "evolver": {"population_size": 6, "tournament_size": 3, "generations": 2,
                        "invocation_period": 3, "window_length": 4, "full_resim": True},
            "policies": [kind], "seeds": [5], "workers": 1,
        })
        fitness = make_policy(kind, evolver_cfg=cfg.evolver,
                              rng=np.random.default_rng(0)).evolver.fitness
        assert isinstance(fitness, ResimFitness)
        assert len(fitness.system.input_vars) == n_inputs
        res = run(cfg, kind, 5)
        # Due epochs: the period has elapsed since the last retune and the
        # 4-unit window is warm, i.e. t = 4, 7, 10.
        assert [t for t, _, _ in res.evolution] == [4, 7, 10]
        assert all(len(genes) == 3 ** n_inputs for _, _, genes in res.evolution)
        assert run(cfg, kind, 5) == res

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

        monkeypatch.setattr("gflsim.experiment.ProcessPoolExecutor", no_pool)
        cfg = small_config(seeds=(0, 4, -1), workers=2, output_dir=str(tmp_path / "out"))
        with pytest.raises(ConfigError, match=r"^seeds\[2\]: must be a non-negative"):
            compare(cfg)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change, error", [
        ({"seeds": (0, 0, 1)}, r"^seeds\[1\]: repeats 0"),
        ({"policies": ("fls", "flah", "fls")}, r"^policies\[2\]: repeats 'fls'"),
    ])
    def test_repeated_seed_or_policy_named_before_any_worker_starts(
            self, tmp_path, monkeypatch, change, error):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr("gflsim.experiment.ProcessPoolExecutor", no_pool)
        monkeypatch.setattr("gflsim.experiment._run_task", no_pool)
        cfg = small_config(workers=2, output_dir=str(tmp_path / "out"), **change)
        with pytest.raises(ConfigError, match=error):
            compare(cfg)
        assert not (tmp_path / "out").exists()

    def test_single_seed_collapses_summary(self, tmp_path):
        cfg = small_config(policies=("fls", "flah"), output_dir=str(tmp_path))
        report = compare(cfg)
        for kind in report.policies:
            for metric in ("number_of_handoffs", "connection_time_pct",
                           "energy_wastage_pct"):
                s: Summary = getattr(report.rows[kind], metric)
                assert s.max == s.min == s.avg

    def test_summary_order_invariant(self, tmp_path):
        cfg = small_config(policies=("fls",), seeds=(0, 1, 2),
                           output_dir=str(tmp_path))
        report = compare(cfg)
        s = report.rows["fls"].number_of_handoffs
        assert s.min <= s.avg <= s.max

    def test_report_round_trip_csv_and_json(self, tmp_path):
        cfg = small_config(policies=("fls", "flah"), seeds=(0, 1),
                           output_dir=str(tmp_path / "csv"))
        report = compare(cfg)
        for fmt in ("csv", "json"):
            path = tmp_path / f"report.{fmt}"
            export_report(report, fmt, path)
            assert load_report(path, fmt) == report

    def test_events_round_trip(self, tmp_path):
        cfg = small_config()
        res = run(cfg, "fls", 0)
        for fmt in ("csv", "json"):
            path = tmp_path / f"events.{fmt}"
            export_events(res.events, fmt, path)
            assert load_events(path, fmt) == res.events

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
        ('{"world": []}', "world:"),
        ('{"evolver": "fast"}', "evolver:"),
        ('{"world": {"steady_speed": [0, 1e999]}}', "world.steady_speed[1]"),
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

    def test_negative_seed_flag_exits_2(self, capsys):
        assert cli_main(["--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_seed_and_runs_mutually_exclusive(self, tmp_path, capsys):
        cfg = self.write_small_config(tmp_path)
        assert cli_main(["--config", str(cfg), "--seed", "1", "--runs", "2"]) == 2
