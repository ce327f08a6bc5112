"""The config schema against a full JSON Schema validator, used as an oracle
for the package's own schema check and for the CLI's exit status."""

import contextlib
import copy
import functools
import io
import json
import math
import operator
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from gflsim.cli import main as cli_main
from gflsim.experiment import ConfigError, _check, _schema

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
def one_key_changed(draw, values):
    """(the shipped config with one key changed, its dotted path, the new
    value): either the value at that key is replaced, or the key renamed."""
    doc = copy.deepcopy(DEFAULT)
    path = draw(st.sampled_from(LOCATIONS))
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if isinstance(parent, dict) and draw(st.booleans()):
        name = draw(NAMES.filter(lambda name: name not in parent))
        parent[name] = value = parent.pop(path[-1])
        return doc, _dotted(path[:-1] + (name,)), value
    parent[path[-1]] = value = draw(values)
    return doc, _dotted(path), value


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
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        config = Path(tmp) / "bad.json"
        config.write_text(json.dumps(doc))
        code = cli_main(["--config", str(config), "--out", str(Path(tmp) / "out")])
    assert code == 2
    assert path in err.getvalue()
