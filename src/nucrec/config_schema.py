"""JSON schema for experiment configs, and the check that applies it.

``SCHEMA`` is a tagged union and the only record of what a config may hold:
one branch per ``kind``, and in ``recover`` one per ``algorithm.name`` and
per ``noise.kind``.  Each branch lists exactly the keys its runner reads and
requires those it needs.  The tests compare :func:`validate` with jsonschema
on it.
"""

import operator

_COUNT = {"type": "integer", "minimum": 1}
_NONNEGATIVE = {"type": "number", "minimum": 0}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}


def _closed(properties, required=()):
    """An object schema that takes the keys of ``properties`` and no other."""
    return {"type": "object", "required": list(required), "additionalProperties": False,
            "properties": properties}


def _tagged(tag, variants):
    """A oneOf of closed branches, one per tag value; ``variants`` maps each
    value to the branch's (properties, required).  Every branch requires
    ``tag`` first and pins it with a one-value enum."""
    return {"oneOf": [_closed({tag: {"enum": [value]}, **properties}, [tag, *required])
                      for value, (properties, required) in variants.items()]}


_ENSEMBLE = {"kind": {"enum": ["gaussian", "rademacher"]}, "n1": _COUNT, "n2": _COUNT, "m": _COUNT,
             "normalize": {"type": "boolean"}}
ENSEMBLE = _closed(_ENSEMBLE, ["kind", "n1", "n2", "m"])
SIGNAL = _closed({"r": _COUNT, "scale": _POSITIVE}, ["r"])
SOLVER = _closed({"max_iters": _COUNT, "abs_tol": _POSITIVE, "rel_tol": _POSITIVE, "admm_rho": _POSITIVE})
_ESTIMATION = {"tau": {"type": "number", "minimum": 1}, "starts": _COUNT}
# The top-level keys every kind takes, and those it must hold.
COMMON = {"ensemble": ENSEMBLE, "trials": _COUNT, "seed": {"type": "integer", "minimum": 0},
          "output_path": {"type": "string"}}
_REQUIRED = ["ensemble", "trials", "seed"]

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "nucrec experiment config",
    **_tagged("kind", {
        "recover": ({
            **COMMON,
            "signal": SIGNAL,
            "noise": _tagged("kind", {
                "none": ({}, []),
                "bounded": ({"epsilon": _NONNEGATIVE}, ["epsilon"]),
                "gaussian": ({"sigma": _NONNEGATIVE}, ["sigma"]),
            }),
            "algorithm": _tagged("name", {
                "mbp": ({"epsilon": _NONNEGATIVE}, []),
                "mds": ({"lambda": _NONNEGATIVE}, ["lambda"]),
                "mlasso": ({"mu": _POSITIVE,
                            "kappa": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}},
                           ["mu"]),
            }),
            "solver": SOLVER,
        }, [*_REQUIRED, "signal", "algorithm"]),
        "cmsv": ({**COMMON, "estimation": _closed(_ESTIMATION), "solver": SOLVER}, _REQUIRED),
        "montecarlo": ({
            **COMMON,
            # the runner always draws the normalized operator A/sqrt(m)
            "ensemble": _closed({**_ENSEMBLE, "normalize": {"type": "boolean", "enum": [True]}},
                                ENSEMBLE["required"]),
            "estimation": _closed({
                **_ESTIMATION,
                "m_sweep": {"type": "array", "items": _COUNT, "minItems": 1},
                "epsilon_band": _POSITIVE,
            }),
            "solver": SOLVER,
        }, _REQUIRED),
        "bounds": ({
            **COMMON,
            "signal": SIGNAL,
            "epsilon_grid": {"type": "array", "items": _NONNEGATIVE, "minItems": 1},
            "solver": SOLVER,
        }, [*_REQUIRED, "signal"]),
        # noise_operator_bound draws Gaussian noise; sigma defaults to 1.0
        "noise-calibration": ({
            **COMMON,
            "noise": _closed({"kind": {"enum": ["gaussian"]}, "sigma": _NONNEGATIVE}, ["kind"]),
            "c": _POSITIVE,
        }, _REQUIRED),
    }),
}

# What validate() implements ("$schema" and "title" are annotations).  A bound
# is checked after its numeric type, as the condition that must hold, so NaN fails.
_BOUNDS = {"minimum": operator.ge, "exclusiveMinimum": operator.gt, "exclusiveMaximum": operator.lt}
KEYWORDS = frozenset({"type", "enum", "required", "properties", "additionalProperties",
                      "items", "minItems", "oneOf", *_BOUNDS})
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "integer": int, "number": (int, float)}


class ConfigError(ValueError):
    """A config the schema rejects; the message starts with the dotted path."""


def _join(path, key):
    return f"{path}.{key}" if path else key


def validate(config, schema=SCHEMA, path=""):
    """Raise ConfigError at the first part of ``config`` that ``schema`` rejects.
    ``integer`` is an int and ``number`` an int or float, neither a bool, so
    ``2.0`` is not an integer; ``additionalProperties`` may only be False.
    ``oneOf`` is tag dispatch: every branch requires the same key first and
    pins it to one value, no two alike, so the one branch whose value
    ``config`` holds is checked, which is what JSON Schema's oneOf means then."""
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
                raise ConfigError(f"{where}: {_join(path, key)!r} is a required property")
        for key, value in config.items():
            if key in schema.get("properties", {}):
                validate(value, schema["properties"][key], _join(path, key))
            elif schema.get("additionalProperties") is False:
                raise ConfigError(f"{where}: unknown key {key!r}")
    if isinstance(config, list):
        if len(config) < schema.get("minItems", 0):
            raise ConfigError(f"{where}: {config!r} has fewer than {schema['minItems']} items")
        for i, item in enumerate(config):
            validate(item, schema.get("items", {}), f"{path}[{i}]")
    if "oneOf" in schema:
        tag = schema["oneOf"][0]["required"][0]
        branches = {branch["properties"][tag]["enum"][0]: branch for branch in schema["oneOf"]}
        validate(config, {"type": "object", "required": [tag], "properties": {tag: {"enum": [*branches]}}}, path)
        validate(config, branches[config[tag]], path)
