"""config_schema.validate against jsonschema's Draft 2020-12 validator, which
stays here as the reference the in-package check is compared with."""

import copy
import dataclasses

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from nucrec.config_schema import KEYWORDS, SCHEMA, SOLVER, ConfigError, validate
from nucrec.solvers import SolverConfig
from test_acceptance import CLI_CONFIGS

ANNOTATIONS = {"$schema", "title"}
REFERENCE = jsonschema.Draft202012Validator(SCHEMA)
# The reference with validate()'s integer rule: an int that is not a bool.
Strict = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool)
    ),
)
STRICT = Strict(SCHEMA)


def accepts(config, schema=SCHEMA):
    try:
        validate(config, schema)
    except ConfigError:
        return False
    return True


def subschemas(schema):
    yield schema
    for sub in [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]:
        yield from subschemas(sub)
    if "items" in schema:
        yield from subschemas(schema["items"])


def branch(schema, node):
    """The ``oneOf`` branch that ``node``'s tag picks ({} if none does), or
    ``schema`` itself when it has no ``oneOf``."""
    if "oneOf" not in schema:
        return schema
    tag = schema["oneOf"][0]["required"][0]
    picked = [b for b in schema["oneOf"] if isinstance(node, dict) and node.get(tag) in b["properties"][tag]["enum"]]
    return picked[0] if picked else {}


def test_schema_is_a_valid_draft_2020_12_schema():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


def test_every_keyword_in_schema_is_implemented():
    used = {keyword for sub in subschemas(SCHEMA) for keyword in sub}
    assert used - ANNOTATIONS <= KEYWORDS, f"validate() ignores {used - ANNOTATIONS - KEYWORDS}"
    assert KEYWORDS <= used
    for sub in subschemas(SCHEMA):
        assert sub.get("additionalProperties", False) is False
        if sub.keys() & {"minimum", "exclusiveMinimum", "exclusiveMaximum"}:
            assert sub.get("type") in ("integer", "number")


def test_every_one_of_is_tagged():
    # what validate()'s tag dispatch relies on: each branch requires the same
    # key first and pins it to one value, and no two branches share a value
    for sub in subschemas(SCHEMA):
        if "oneOf" in sub:
            tag = sub["oneOf"][0]["required"][0]
            values = []
            for b in sub["oneOf"]:
                assert b["required"][0] == tag and b["type"] == "object"
                (value,) = b["properties"][tag]["enum"]
                values.append(value)
            assert len(set(values)) == len(values), values


def test_solver_section_is_solver_config():
    # a solver key with no SolverConfig field would be read by no solve
    assert set(SOLVER["properties"]) == {field.name for field in dataclasses.fields(SolverConfig)}


@pytest.mark.parametrize("doc", CLI_CONFIGS.values(), ids=CLI_CONFIGS.keys())
def test_cli_configs_pass(doc):
    validate(doc)


@pytest.mark.parametrize("path, value, message", [
    (("trials",), 2.0, "trials: 2.0 is not of type 'integer'"),
    (("ensemble", "m"), 10.0, "ensemble.m: 10.0 is not of type 'integer'"),
    (("ensemble", "normalize"), 1, "ensemble.normalize: 1 is not of type 'boolean'"),
    (("seed",), True, "seed: True is not of type 'integer'"),
    (("estimation", "m_sweep"), [16, 0], "estimation.m_sweep[1]: 0 violates minimum 1"),
    (("estimation", "m_sweep"), [], "estimation.m_sweep: [] has fewer than 1 items"),
    (("estimation", "tau"), float("nan"), "estimation.tau: nan violates minimum 1"),
    (("ensemble", "kind"), "normal", "ensemble.kind: 'normal' is not one of"),
    (("ensemble", "bogus"), 1, "ensemble: unknown key 'bogus'"),
])
def test_message_names_the_dotted_path(path, value, message):
    doc = copy.deepcopy(CLI_CONFIGS["montecarlo"])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ConfigError) as exc:
        validate(doc)
    assert str(exc.value).startswith(message)


def test_missing_required_key():
    doc = copy.deepcopy(CLI_CONFIGS["cmsv"])
    del doc["seed"]
    with pytest.raises(ConfigError, match=r"^config: 'seed' is a required property$"):
        validate(doc)


# --- agreement with the reference on mutated configs ----------------------

PROPERTY_NAMES = sorted({name for sub in subschemas(SCHEMA) for name in sub.get("properties", {})})
ENUM_VALUES = sorted({value for sub in subschemas(SCHEMA) for value in sub.get("enum", ())}, key=repr)
SCALARS = st.one_of(
    st.sampled_from([0, 1, 0.0, 1.0, 0.5, -1]),
    st.integers(-2, 40),
    st.floats(-2, 40, allow_nan=False),
    st.integers(-2, 40).map(float),
    st.booleans(),
    st.none(),
    st.sampled_from(ENUM_VALUES + ["", "x"]),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(PROPERTY_NAMES + ["bogus"]), SCALARS, max_size=2),
)


def schema_at(doc, path):
    """The schema of the node at ``path`` in ``doc``, through the branches
    that the tags in ``doc`` pick; the last key of ``path`` may be absent."""
    schema, node = branch(SCHEMA, doc), doc
    for key in path:
        schema = schema.get("items" if isinstance(key, int) else "properties", {})
        schema = schema if isinstance(key, int) else schema.get(key, {})
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            node = None
        schema = branch(schema, node)
    return schema


def near_values(schema):
    """Values at and beside the bounds of ``schema``, and arrays of them."""
    out = [[]] + [[v] for v in near_values(schema["items"])] if "items" in schema else []
    for keyword in ("minimum", "exclusiveMinimum", "exclusiveMaximum"):
        if keyword in schema:
            bound = schema[keyword]
            out += [bound, float(bound), bound - 1, bound + 1, bound - 0.5, bound + 0.5]
    return out


def draw_value(data, doc, path):
    near = near_values(schema_at(doc, path))
    return data.draw(st.sampled_from(near) if near and data.draw(st.booleans()) else VALUES)


@pytest.mark.parametrize("schema", [sub for sub in subschemas(SCHEMA) if near_values(sub)])
def test_agrees_with_jsonschema_at_the_bounds(schema):
    for value in near_values(schema):
        assert accepts(value, schema) == Strict(schema).is_valid(value), value


def nodes(doc, path=()):
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from nodes(value, path + (key,))


def mutate(doc, data):
    """Replace a value, delete a key or add a known or unknown key."""
    path = data.draw(st.sampled_from(list(nodes(doc))))
    parent, node = None, doc
    for key in path:
        parent, node = node, node[key]
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "add" and isinstance(node, dict):
        known = sorted(schema_at(doc, path).get("properties", {}))
        key = data.draw(st.sampled_from(known + ["bogus"]))
        node[key] = draw_value(data, doc, path + (key,))
    elif action == "delete" and isinstance(parent, dict):
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = draw_value(data, doc, path)
    else:
        return data.draw(VALUES)
    return doc


def integral(doc):
    """``doc`` with every integer-valued float made an int."""
    if isinstance(doc, dict):
        return {key: integral(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [integral(value) for value in doc]
    return int(doc) if isinstance(doc, float) and doc.is_integer() else doc


def error_paths(errors):
    """Dotted paths of ``errors`` and, through ``context``, of the branch
    errors under each failed ``oneOf``."""
    for e in errors:
        yield format_path(e.absolute_path)
        yield from error_paths(e.context)


def format_path(path):
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else f".{key}" if out else key
    return out or "config"


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(sorted(CLI_CONFIGS)), st.integers(1, 2), st.data())
def test_agrees_with_jsonschema_on_mutated_configs(name, count, data):
    doc = copy.deepcopy(CLI_CONFIGS[name])
    for _ in range(count):
        doc = mutate(doc, data)
    try:
        validate(doc)
        error = None
    except ConfigError as exc:
        error = str(exc)
    assert (error is None) == STRICT.is_valid(doc), (doc, error)
    if (error is None) != REFERENCE.is_valid(doc):
        # the one deliberate difference: jsonschema counts 2.0 as an integer
        # (checked on the whole doc, since a failed oneOf hides which branch erred)
        assert STRICT.is_valid(integral(doc)), doc
    if error is not None:
        paths = set(error_paths(STRICT.iter_errors(doc)))
        assert error.split(": ", 1)[0] in paths, (error, paths)
