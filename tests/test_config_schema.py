"""The config schema against a full JSON Schema validator, used as an oracle
for the package's own schema check, for the checks a config dataclass makes
when it is built in code, and for the CLI's exit status."""

import contextlib
import copy
import dataclasses
import functools
import io
import json
import math
import operator
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gflsim.cli import main as cli_main
from gflsim.evolver import EvolverConfig
from gflsim.experiment import (
    ALL_POLICIES, ExperimentConfig, FuzzyConfig, config_from_dict, default_config, run)
from gflsim.fuzzy import LinguisticVariable, triangle
from gflsim.schema import ConfigError, _check, _schema
from gflsim.world import StationSpec, TerminalSpec, WorldConfig

jsonschema = pytest.importorskip("jsonschema")

REPO = Path(__file__).resolve().parent.parent
DEFAULT = json.loads((REPO / "configs" / "default.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(_schema())


def _locations(node, path=()):
    """Key path of every value in a JSON document, the document itself first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _locations(value, path + (key,))


LOCATIONS = [path for path in _locations(DEFAULT) if path]
SECTIONS = ("world", "fuzzy", "evolver")
# Keys whose value is a dataclass field of the same name: the top-level keys
# but runs, the world keys but stations, the evolver keys, fuzzy.resolution
# and fuzzy.consequents (with their items).
FIELD_LOCATIONS = [
    path for path in LOCATIONS
    if path[0] not in SECTIONS + ("runs",)
    or path[0] == "world" and len(path) > 1 and path[1] != "stations"
    or path[0] == "evolver" and len(path) == 2
    or path[:2] in {("fuzzy", "resolution"), ("fuzzy", "consequents")}
]


def _dotted(path) -> str:
    """("world", "stations", 0, "radius") -> "world.stations[0].radius"."""
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else f".{key}" if out else key
    return out


WRONG_TYPES = st.sampled_from(["x", True, None, [], {}, 1.5, [1, 2]])
OUT_OF_RANGE = st.one_of(
    st.integers(-10**9, -1), st.integers(100_001, 10**12),
    st.floats(-1e12, -1e-9), st.floats(1.000001, 1e12),
    st.lists(st.integers(1, 5), min_size=28, max_size=30),
)
ALTERNATIVES = st.one_of(
    st.integers(0, 100), st.floats(0, 1), st.booleans(),
    st.sampled_from(["fls", "gfls", "steady", "accelerated", "json", "csv"]),
)
NAMES = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12)


@st.composite
def one_key_changed(draw, values, locations=LOCATIONS, rename=True):
    """(the shipped config with one key changed, its dotted path, the new
    value): either the value at that key is replaced, or the key renamed."""
    doc = copy.deepcopy(DEFAULT)
    path = draw(st.sampled_from(locations))
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if rename and isinstance(parent, dict) and draw(st.booleans()):
        name = draw(NAMES.filter(lambda name: name not in parent))
        parent[name] = value = parent.pop(path[-1])
        return doc, _dotted(path[:-1] + (name,)), value
    parent[path[-1]] = value = draw(values)
    return doc, _dotted(path), value


def _cli(doc, *args: str) -> tuple[int, str]:
    """The CLI's exit status on config ``doc``, written to a file, and what it printed
    to stderr; its outputs go to a temporary directory."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        code = cli_main(["--config", str(config), "--out", str(Path(tmp) / "out"), *args])
    return code, err.getvalue()


def _passes_check(doc) -> bool:
    try:
        _check(doc, _schema(), "")
    except ConfigError:
        return False
    return True


def test_schema_is_a_valid_draft_2020_12_schema():
    jsonschema.Draft202012Validator.check_schema(_schema())


def test_shipped_config_is_valid():
    VALIDATOR.validate(DEFAULT)
    assert _passes_check(DEFAULT)


@pytest.mark.parametrize("doc, key", [
    ({"world": {"mt_count": 50.0}}, "world.mt_count"),
    ({"evolver": {"weight_cut": math.nan}}, "evolver.weight_cut"),
    ({"world": {"epsilon": math.inf}}, "world.epsilon"),
    ({"world": {"steady_speed": [0, 10**400]}}, "world.steady_speed[1]"),
])
def test_check_is_stricter_on_integral_floats_and_non_finite_numbers(doc, key):
    assert VALIDATOR.is_valid(doc)
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: expected"):
        _check(doc, _schema(), "")


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(one_key_changed(st.one_of(WRONG_TYPES, OUT_OF_RANGE, ALTERNATIVES)))
def test_check_agrees_with_jsonschema(change):
    doc, path, value = change
    valid = VALIDATOR.is_valid(doc)
    if valid and not _passes_check(doc):
        # The two documented rules stricter than JSON Schema: an integer
        # must be an integer literal, and a number must be finite.
        assert isinstance(value, float) and (value.is_integer() or not math.isfinite(value)), path
    else:
        assert _passes_check(doc) == valid, path


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(one_key_changed(st.one_of(WRONG_TYPES, OUT_OF_RANGE)))
def test_malformed_key_exits_2_naming_it(change):
    doc, path, _ = change
    assume(not VALIDATOR.is_valid(doc))
    code, err = _cli(doc)
    assert code == 2
    assert path in err


def _outcome(build):
    """(what ``build()`` returns, None) or (None, the ConfigError message)."""
    try:
        return build(), None
    except ConfigError as exc:
        return None, str(exc)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(one_key_changed(st.one_of(WRONG_TYPES, OUT_OF_RANGE, ALTERNATIVES),
                       FIELD_LOCATIONS, rename=False))
def test_config_built_in_code_agrees_with_jsonschema(change):
    # The changed field set with dataclasses.replace on the default config
    # is rejected, naming the field, exactly when the file is invalid; on a
    # valid file it gives what config_from_dict gives, error or config.
    doc, path, _ = change
    section, name = re.match(r"(?:(world|fuzzy|evolver)\.)?(\w+)", path).groups()
    value = (doc[section] if section else doc)[name]
    value = tuple(value) if isinstance(value, list) else value
    base = default_config()

    def build():
        if section:
            return dataclasses.replace(base, **{section: dataclasses.replace(
                getattr(base, section), **{name: value})})
        return dataclasses.replace(base, **{name: value})

    built, error = _outcome(build)
    if not VALIDATOR.is_valid(doc):
        assert error is not None and re.match(rf"{name}[\[:]", error), (path, error)
        return
    if error is not None and section:
        error = f"{section}.{error}"
    assert (built, error) == _outcome(lambda: config_from_dict(doc)), path


@pytest.mark.parametrize("cls, kw, key", [
    (ExperimentConfig, {"output_format": "xml"}, "output_format"),
    (ExperimentConfig, {"workers": 0}, "workers"),
    (ExperimentConfig, {"workers": -3}, "workers"),
    (ExperimentConfig, {"policies": ()}, "policies"),
    (ExperimentConfig, {"seeds": ()}, "seeds"),
    (ExperimentConfig, {"policies": ("fls", "wizard")}, "policies[1]"),
    (StationSpec, {"center": (0.0, 0.0), "radius": 500.0, "capacity": 0}, "capacity"),
    (WorldConfig, {"arena": (0.0, 6000.0)}, "arena[0]"),
    (WorldConfig, {"steady_speed": (30.0, 5.0)}, "steady_speed"),
    (WorldConfig, {"mt_count": 2.5}, "mt_count"),
    (WorldConfig, {"total_time": 0}, "total_time"),
    (WorldConfig, {"accel_duration": 1e-150, "total_time": 1200}, "accel_duration"),
    (EvolverConfig, {"window_length": 1.5}, "window_length"),
    (EvolverConfig, {"weight_cut": math.nan}, "weight_cut"),
    (EvolverConfig, {"population_size": 2.5, "tournament_size": 2}, "population_size"),
    (FuzzyConfig, {"velocity": LinguisticVariable("velocity", 0.0, 30.0, (
        triangle("a", 0, 0, 10), triangle("b", 0, 10, 20), triangle("c", 10, 20, 30),
        triangle("d", 20, 30, 30)))}, "velocity.terms"),
    (FuzzyConfig, {"output": LinguisticVariable("output", 0.0, 1.0, (
        triangle("a", 0, 0, 1), triangle("b", 0, 1, 1)))}, "output.terms"),
    (StationSpec, {"center": (math.nan, 0.0), "radius": 100.0, "capacity": 1}, "center[0]"),
    (StationSpec, {"center": ("a", 0.0), "radius": 100.0, "capacity": 1}, "center[0]"),
    (TerminalSpec, {"position": (math.inf, 0.0)}, "position[0]"),
    (StationSpec, {"center": (0.0, 0.0), "radius": 500.0, "capacity": 10**30}, "capacity"),
    # A world takes every value from its config, so these stop a non-finite
    # position, heading, plan, energy or station geometry before any world.
    (TerminalSpec, {"position": (0.0, -math.inf)}, "position[1]"),
    (TerminalSpec, {"position": (0.0, 0.0), "heading": math.nan}, "heading"),
    (TerminalSpec, {"position": (0.0, 0.0), "speed": math.inf}, "speed"),
    (TerminalSpec, {"position": (0.0, 0.0), "distance": math.nan}, "distance"),
    (TerminalSpec, {"position": (0.0, 0.0), "duration": math.inf}, "duration"),
    (WorldConfig, {"initial_energy": math.inf}, "initial_energy"),
    (StationSpec, {"center": (0.0, math.inf), "radius": 100.0, "capacity": 1}, "center[1]"),
    (StationSpec, {"center": (0.0, 0.0), "radius": math.nan, "capacity": 1}, "radius"),
    # One unit's energy spend must stay finite: it once overflowed to inf and
    # drained every connected terminal at once.
    (WorldConfig, {"epsilon": 1e308}, "epsilon"),
    (WorldConfig, {"stations": (StationSpec((0.0, 0.0), 500.0, 1),
                                StationSpec((0.0, 0.0), 1e-310, 1))}, "stations[1].radius"),
    # Each distance, step, position and percentage the run computes stays finite.
    (WorldConfig, {"stations": (StationSpec((-600.0, 0.0), 500.0, 1),)}, "stations[0].center"),
    (WorldConfig, {"arena": (1e308, 1.0), "stations": (StationSpec((0.0, 0.0), 1e308, 1),)},
     "arena"),
    (WorldConfig, {"arena": (1e308, 1e308)}, "arena"),
    (WorldConfig, {"arena": (8e307, 8e307), "steady_speed": (5.0, 1e308)}, "steady_speed"),
    (WorldConfig, {"initial_energy": 1e307}, "initial_energy"),
    (ExperimentConfig, {"evolver": EvolverConfig(weight_cut=1e308)}, "evolver.weight_cut"),
])
def test_values_a_file_cannot_hold_are_rejected_in_code(cls, kw, key):
    # Each of these once ran, or failed later without naming the key.
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
        cls(**kw)


@pytest.mark.parametrize("world, key", [
    ({"epsilon": 1e308}, "epsilon"),
    ({"epsilon": 9e307}, "epsilon"),
    ({"arena": [1e308, 1e308], "stations": [{"center": [0, 0], "radius": 1, "capacity": 1}]},
     "stations[0].radius"),
])
def test_an_energy_spend_that_overflows_exits_2(world, key):
    # Under error::RuntimeWarning the overflow once exited 1 with a numpy
    # message; without it, the run drained every connected terminal.
    code, err = _cli({"world": world})
    assert code == 2
    assert f"config error: world.{key}: " in err


def test_an_epsilon_whose_energy_spend_stays_finite_runs():
    world = WorldConfig(mt_count=10, total_time=5, epsilon=8.9e307)
    result = run(dataclasses.replace(default_config(), world=world), "fls", 0)
    assert result.metrics.energy_wastage_pct > 0.0


@pytest.mark.parametrize("position", [[7000, 100], [-50, 100]])
def test_terminal_outside_the_arena_is_rejected(position):
    # Once accepted: a terminal past the far wall jumped back inside in its
    # first unit, and one before the near wall stayed outside for ever.
    key = "terminals[0].position: outside the arena"
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}"):
        WorldConfig(terminals=(TerminalSpec(position=tuple(position), speed=10.0),))
    code, err = _cli({"world": {"terminals": [{"position": position, "speed": 10}]}})
    assert code == 2
    assert f"world.{key}" in err


def test_config_built_in_code_holds_what_a_file_holds():
    # Numbers are stored as floats and arrays as tuples however they were
    # given, so the config equals, and hashes as, the file's.
    built = WorldConfig(steady_speed=[5, 30], s_th=1)
    loaded = config_from_dict({"world": {"steady_speed": [5, 30], "s_th": 1}}).world
    assert (built.steady_speed, built.s_th) == ((5.0, 30.0), 1.0)
    assert built == loaded and hash(built) == hash(loaded)


@pytest.mark.parametrize("key, spec, entry", [
    ("stations", StationSpec((0.0, 0.0), 100.0, 1), {"center": [0, 0], "radius": 100,
                                                     "capacity": 1}),
    ("terminals", TerminalSpec((1.0, 1.0), speed=10.0), {"position": [1, 1], "speed": 10})],
    ids=["stations", "terminals"])
def test_an_array_of_specs_built_in_code_is_a_tuple(key, spec, entry):
    # A list of specs once stayed a list: unhashable, and unequal to the file's tuple.
    built = WorldConfig(**{key: [spec]})
    loaded = config_from_dict({"world": {key: [entry]}}).world
    assert getattr(built, key) == (spec,)
    assert built == loaded and hash(built) == hash(loaded)


@pytest.mark.parametrize("section, cls", [
    ((), ExperimentConfig), (("world",), WorldConfig), (("world", "stations"), StationSpec),
    (("world", "terminals"), TerminalSpec), (("evolver",), EvolverConfig)])
def test_every_schema_key_is_a_field_of_the_same_name(section, cls):
    # One name per setting: no table translates a file's key to a field.
    node = _schema()
    for key in section:
        node = node["properties"][key]
        node = node.get("items", node)
    assert set(node["properties"]) - {"runs"} == {f.name for f in dataclasses.fields(cls)}


def test_numpy_integer_seeds_accepted():
    cfg = dataclasses.replace(default_config(), seeds=(np.int64(2), np.int32(0)))
    small = dataclasses.replace(cfg.world, mt_count=2, total_time=2)
    assert run(dataclasses.replace(cfg, world=small), "fls", cfg.seeds[0]).seed == 2


# --------------------------------------------------------------------------
# Valid configs never crash: a config is rejected naming its key, or runs
# under every policy to finite metrics.
# --------------------------------------------------------------------------

def _small(world=(), evolver=(), policy="fls", total_time=3) -> dict:
    """A config of one run under ``policy``: 10 terminals over ``total_time`` units."""
    return {"world": {"mt_count": 10, "total_time": total_time, **dict(world)},
            "evolver": dict(evolver), "policies": [policy], "runs": 1}


_COVERING = {"center": [1000, 1000], "radius": 1500, "capacity": 5}


@pytest.mark.parametrize("doc, key", [
    (_small({"accel_duration": 1e200}, total_time=8), "world.accel_duration"),
    (_small(evolver={"weight_handoff": 1e308, "weight_cut": 1e308}, policy="gfls", total_time=8),
     "evolver.weight_handoff"),
    (_small({"stations": [_COVERING, {"center": [1e308, 0], "radius": 0.001, "capacity": 1}]}),
     "world.stations[1].center"),
    (_small({"stations": [_COVERING, {"center": [-1.7e308, 0], "radius": 1, "capacity": 1}]}),
     "world.stations[1].center"),
    (_small({"stations": [_COVERING, {"center": [1.7e308, 1.7e308], "radius": 1000,
                                      "capacity": 1}]}), "world.stations[1].center"),
    (_small({"arena": [1.7e308, 1], "stations": [{"center": [-9e307, 0], "radius": 1e308,
                                                  "capacity": 5}]}), "world.arena"),
    ({"world": {"arena": [8e307, 8e307], "total_time": 1,
                "terminals": [{"position": [8e307, 1], "speed": 1.7e308}]}},
     "world.terminals[0].speed"),
    ({"world": {"arena": [1e308, 1e308], "total_time": 3,
                "terminals": [{"position": [0, 5], "heading": math.pi, "speed": 1}]}},
     "world.arena"),
    (_small({"epsilon": 4.4e307, "initial_energy": 1.1e308}, total_time=5), "world.initial_energy"),
    (_small({"dwell": 10**22}, total_time=8), "world.dwell"),
    (_small(evolver={"window_length": 10**22}, policy="gfls"), "evolver.window_length"),
], ids=["accel_duration", "weights", "far_small_cell", "far_left_cell", "far_corner_cell",
        "arena_and_radius", "step_past_a_wall", "wall_reflection", "initial_energy",
        "dwell_past_int64", "window_past_ssize_t"])
def test_a_valid_config_that_overflowed_exits_2_naming_its_key(doc, key):
    # Each passed the schema's bounds of its day, then exited 1 on an overflow in numpy, in a
    # percentage or in an int64 column, or ran (the wall reflection) with a terminal at NaN.
    code, err = _cli(doc)
    assert code == 2, err
    assert f"config error: {key}: " in err


def test_a_dwell_far_past_the_replay_window_runs():
    # The replay's tables once grew with the dwell and overflowed their int32 slots.
    assert _cli(_small({"dwell": 10**9}, policy="gfls", total_time=8)) == (0, "")


EXTREMES = (1e-300, 1e150, 1.7e308, -1.7e308)
# Keys that size a run, capped and (but for the lists) always drawn: at most 12
# terminals, 8 units and a GA of a few chromosomes; runs only sizes the seed list.
CAPS = {"world.mt_count": 12, "world.terminals": 12, "world.total_time": 8,
        "evolver.population_size": 4, "evolver.tournament_size": 4, "evolver.generations": 2,
        "runs": 3}
ALWAYS = {"world", "evolver", *CAPS} - {"world.terminals", "runs"}


def _numbers(node: dict, integer: bool, cap):
    """Numbers at and near each bound of ``node``, at 0, 1 and 2, at EXTREMES or, for
    an integer, at 10**9, 2**31 - 1 and 10**150; or anywhere between the bounds."""
    lo = node.get("minimum", node.get("exclusiveMinimum", -1.7e308))
    hi = node.get("maximum", cap or (10**150 if integer else 1.7e308))
    near = [lo, lo + 1, lo + 2, hi - 1, hi, 0, 1, 2]
    near += [10**9, 2**31 - 1, 10**150] if integer else [
        math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf), *EXTREMES]
    near = sorted({int(v) if integer else float(v) for v in near if lo <= v <= hi
                   and (v > lo or "exclusiveMinimum" not in node)})
    between = (st.integers(int(lo), min(int(hi), 2**31)) if integer else
               st.floats(lo, hi, exclude_min="exclusiveMinimum" in node))
    return st.one_of(st.sampled_from(near), between)


@st.composite
def _object(draw, node: dict, path: str) -> dict:
    """Required and ALWAYS keys, and each other key one time in four."""
    out = {}
    for key, sub in node.get("properties", {}).items():
        at = f"{path}.{key}" if path else key
        if key in node.get("required", ()) or at in ALWAYS or draw(st.integers(0, 3)) == 0:
            out[key] = draw(_drawn(sub, at))
    return out


def _drawn(node: dict, path: str = ""):
    """Values of schema ``node`` at key ``path``, walking its keywords."""
    if "$ref" in node:  # the node's own keywords over its target's
        base = _schema()["$defs"][node["$ref"].rsplit("/", 1)[-1]]
        node = {**base, "properties": {key: {**sub, **node.get("properties", {}).get(key, {})}
                                       for key, sub in base["properties"].items()}}
    if "enum" in node:
        return st.sampled_from(node["enum"])
    types = node["type"] if isinstance(node["type"], list) else [node["type"]]
    options = {
        "null": lambda: st.none(),
        "boolean": st.booleans,
        "string": lambda: st.sampled_from(["a", "b"]),
        "integer": lambda: _numbers(node, True, CAPS.get(path)),
        "number": lambda: _numbers(node, False, None),
        "array": lambda: st.lists(_drawn(node["items"], path), min_size=node.get("minItems", 0),
                                  max_size=node.get("maxItems", CAPS.get(path, 4)),
                                  unique=node.get("uniqueItems", False)),
        "object": lambda: _object(node, path),
    }
    return st.one_of([options[t]() for t in types])


def _counted(raw: dict) -> dict:
    """``raw`` with ``world.mt_count`` the number of listed terminals, if any."""
    if "terminals" in raw["world"]:
        raw["world"]["mt_count"] = len(raw["world"]["terminals"])
    return raw


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(_drawn(_schema()).map(_counted))
def test_a_config_drawn_from_the_schema_is_rejected_or_runs_to_finite_metrics(raw):
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for policy in ALL_POLICIES:
            metrics = run(cfg, policy, cfg.seeds[0]).metrics
            assert all(map(math.isfinite, dataclasses.astuple(metrics))), (policy, metrics)
