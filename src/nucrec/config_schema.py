"""JSON schema for experiment configs, and the check that applies it.

``SCHEMA`` is the only copy of the schema; the tests compare :func:`validate`
with jsonschema on it.
"""

import operator

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "nucrec experiment config",
    "type": "object",
    "required": ["kind", "ensemble", "trials", "seed"],
    "additionalProperties": False,
    "properties": {
        "kind": {
            "enum": ["recover", "cmsv", "montecarlo", "bounds", "noise-calibration"]
        },
        "ensemble": {
            "type": "object",
            "required": ["kind", "n1", "n2", "m"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["gaussian", "rademacher"]},
                "n1": {"type": "integer", "minimum": 1},
                "n2": {"type": "integer", "minimum": 1},
                "m": {"type": "integer", "minimum": 1},
                "normalize": {"type": "boolean"},
            },
        },
        "signal": {
            "type": "object",
            "required": ["r"],
            "additionalProperties": False,
            "properties": {
                "r": {"type": "integer", "minimum": 1},
                "scale": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "noise": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["none", "bounded", "gaussian"]},
                "epsilon": {"type": "number", "minimum": 0},
                "sigma": {"type": "number", "minimum": 0},
            },
        },
        "algorithm": {
            "type": "object",
            "required": ["name"],
            "additionalProperties": False,
            "properties": {
                "name": {"enum": ["mbp", "mds", "mlasso"]},
                "epsilon": {"type": "number", "minimum": 0},
                "lambda": {"type": "number", "minimum": 0},
                "mu": {"type": "number", "exclusiveMinimum": 0},
                "kappa": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            },
        },
        "estimation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tau": {"type": "number", "minimum": 1},
                "starts": {"type": "integer", "minimum": 1},
                "m_sweep": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 1,
                },
                "epsilon_band": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "epsilon_grid": {
            "type": "array",
            "items": {"type": "number", "minimum": 0},
            "minItems": 1,
        },
        "c": {"type": "number", "exclusiveMinimum": 0},
        "trials": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "output_path": {"type": "string"},
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "max_iters": {"type": "integer", "minimum": 1},
                "abs_tol": {"type": "number", "exclusiveMinimum": 0},
                "rel_tol": {"type": "number", "exclusiveMinimum": 0},
                "admm_rho": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    },
}

# What validate() implements ("$schema" and "title" are annotations).  A bound
# is checked after its numeric type, as the condition that must hold, so NaN fails.
_BOUNDS = {"minimum": operator.ge, "exclusiveMinimum": operator.gt, "exclusiveMaximum": operator.lt}
KEYWORDS = frozenset({"type", "enum", "required", "properties", "additionalProperties",
                      "items", "minItems", *_BOUNDS})
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "integer": int, "number": (int, float)}


class ConfigError(ValueError):
    """A config the schema rejects; the message starts with the dotted path."""


def validate(config, schema=SCHEMA, path=""):
    """Raise ConfigError at the first part of ``config`` that ``schema`` rejects.
    ``integer`` is an int and ``number`` an int or float, neither a bool, so
    ``2.0`` is not an integer; ``additionalProperties`` may only be False."""
    where = path or "config"
    kind = schema.get("type")
    if kind and (isinstance(config, bool) != (kind == "boolean") or not isinstance(config, _TYPES[kind])):
        raise ConfigError(f"{where}: {config!r} is not of type {kind!r}")
    if "enum" in schema and config not in schema["enum"]:
        raise ConfigError(f"{where}: {config!r} is not one of {schema['enum']!r}")
    for keyword, holds in _BOUNDS.items():
        if keyword in schema and not holds(config, schema[keyword]):
            raise ConfigError(f"{where}: {config!r} violates {keyword} {schema[keyword]!r}")
    if isinstance(config, dict):
        for key in schema.get("required", ()):
            if key not in config:
                raise ConfigError(f"{where}: {key!r} is a required property")
        for key, value in config.items():
            if key in schema.get("properties", {}):
                validate(value, schema["properties"][key], f"{path}.{key}" if path else key)
            elif schema.get("additionalProperties") is False:
                raise ConfigError(f"{where}: unknown key {key!r}")
    if isinstance(config, list):
        if len(config) < schema.get("minItems", 0):
            raise ConfigError(f"{where}: {config!r} has fewer than {schema['minItems']} items")
        for i, item in enumerate(config):
            validate(item, schema.get("items", {}), f"{path}[{i}]")
