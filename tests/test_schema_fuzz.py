"""Property tests of the file parsers: a malformed problem or experiment
config raises only ``SchemaError``, and the message names the field."""

import copy

import pytest
from hypothesis import Phase, given, settings, strategies as st

from zonoinv.errors import SchemaError
from zonoinv.experiment import config_from_dict
from zonoinv.files import problem_from_dict

# Deterministic example streams, no example database on disk.
FUZZ = settings(
    max_examples=300, derandomize=True, database=None, deadline=None,
    phases=(Phase.explicit, Phase.generate, Phase.shrink),
)

numbers = st.one_of(
    st.integers(-3, 3), st.floats(-3.0, 3.0), st.sampled_from([0.0, float("nan"), float("inf"), -float("inf")])
)
# The tokens of the enumerated fields, so that valid-looking but mismatched values come up.
tokens = st.sampled_from(["sfg", "utpd", "ss", "slgs", "lgv", "sfg+lgv", "utpd+ss"])
scalars = st.one_of(st.none(), st.booleans(), numbers, tokens, st.text(max_size=4))
# Any JSON value, plus numeric vectors and matrices of the wrong sizes.
json_values = st.one_of(
    st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    ),
    st.lists(numbers, max_size=4),
    st.lists(st.lists(numbers, max_size=4), max_size=4),
)
DELETE = object()


def sfg_problem():
    return {
        "A": [[0.6, 0.1], [0.0, 0.5]],
        "w": [0.01, -0.02],
        "box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
        "T": 5,
        "parameterization": {"kind": "sfg", "template": [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]], "scale_floor": 1e-6},
        "objective": "lgv",
        "options": {"mu0": 1.0, "max_newton": 50},
        "seed": 3,
    }


def utpd_problem():
    raw = sfg_problem()
    raw["parameterization"] = {"kind": "utpd", "diag_floor": 1e-6}
    return raw


def experiment_config():
    return {
        "grid": [[2, 3, 1]],
        "methods": ["sfg+lgv", "utpd+lgv"],
        "master_seed": 7,
        "dt": 0.1,
        "horizon": 8,
        "time_limit": 30.0,
        "output_dir": "runs/x",
        "solver_options": {"mu0": 1.0},
    }


def paths(raw, prefix=()):
    """Every key path of a nested dict, parents before children, and in each
    object one key that no format defines."""
    for key, value in raw.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from paths(value, prefix + (key,))
    yield prefix + ("extra",)


def mutated(raw, path, value):
    out = copy.deepcopy(raw)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        parent.pop(path[-1], None)
    else:
        parent[path[-1]] = value
    return out


def assert_names_field(exc, path, also=()):
    # Fields checked against another field's value may be the one named:
    # w, box and template must match the dimension of A.
    message = str(exc)
    assert any(name in message for name in (path[0], *also)), (path, message)


@FUZZ
@given(
    base=st.sampled_from([sfg_problem, utpd_problem]),
    choice=st.data(),
    value=st.one_of(st.just(DELETE), json_values),
)
def test_problem_from_dict_raises_only_named_schema_errors(base, choice, value):
    raw = base()
    path = choice.draw(st.sampled_from(list(paths(raw))))
    try:
        problem_from_dict(mutated(raw, path, value))
    except SchemaError as exc:
        assert_names_field(exc, path, also=("w", "box", "parameterization") if path == ("A",) else ())


@FUZZ
@given(choice=st.data(), value=st.one_of(st.just(DELETE), json_values))
def test_config_from_dict_raises_only_named_schema_errors(choice, value):
    raw = experiment_config()
    path = choice.draw(st.sampled_from(list(paths(raw))))
    try:
        config_from_dict(mutated(raw, path, value))
    except SchemaError as exc:
        assert_names_field(exc, path)


@pytest.mark.parametrize("objective", ["ss", "slgs"])
def test_scale_objective_on_triangular_generators_names_objective(objective):
    raw = utpd_problem()
    raw["objective"] = objective
    with pytest.raises(SchemaError, match=r"problem\.objective"):
        problem_from_dict(raw)
