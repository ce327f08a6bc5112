"""The config key table, config.schema.json, and the walker that checks a
config file against it.  Config dataclasses check their fields against the
same table when constructed, so a config built in code holds what a file can."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import operator
import sys
from pathlib import Path

__all__ = ["ConfigError", "check_fields"]


class ConfigError(ValueError):
    """A configuration value violates an invariant; the message names the key."""


@functools.cache
def _schema() -> dict:
    """The config key table: every key with its type, bounds and default."""
    return json.loads(Path(__file__).with_name("config.schema.json").read_text(encoding="utf-8"))


_TYPES = {"object": dict, "array": (list, tuple), "string": str, "boolean": bool,
          "null": type(None), "integer": numbers.Integral, "number": numbers.Real}
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
        if node.get("uniqueItems"):  # of strings or integers: name the first repeat
            first: dict = {}
            for i, item in enumerate(value):
                if first.setdefault(item, i) != i:
                    raise ConfigError(f"{path}[{i}]: repeats {item!r}")
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


def check_fields(obj, *section: str) -> dict:
    """Check each field of dataclass ``obj`` against the same-named entry of
    the schema node at ``section`` (object keys, through array items), store
    the checked value (numbers as floats, arrays as tuples, as a file gives
    them), and return that node's entries.  Entries that describe JSON objects
    are not checked: in code those are typed values that check themselves, and
    an array of them is stored as a tuple."""
    node = _schema()
    for key in section:
        node = node["properties"][key]
        node = node.get("items", node)
    entries = node["properties"]
    for f in dataclasses.fields(obj):
        entry, value = entries.get(f.name), getattr(obj, f.name)
        if entry is not None and not {"properties", "$ref"} & entry.get("items", entry).keys():
            object.__setattr__(obj, f.name, _check(value, entry, f.name))
        elif isinstance(value, list):
            object.__setattr__(obj, f.name, tuple(value))
    return entries
