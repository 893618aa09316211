"""JSON schema for experiment configs.

The repo ships the serialized form at schema/experiment.schema.json; a test
keeps the two in sync.
"""

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
