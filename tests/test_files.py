"""Tests for the JSON file formats: round trips and schema errors that name
the offending field."""

import json
from dataclasses import fields

import numpy as np
import pytest

from zonoinv.errors import SchemaError
from zonoinv.files import (
    load_problem,
    load_solution_zonotope,
    load_zonotope,
    problem_from_dict,
    problem_to_dict,
    result_to_dict,
    solution_zonotope_from_dict,
    write_json,
    zonotope_from_dict,
    zonotope_to_dict,
)
from zonoinv.invariance import AffineSystem, InvarianceProblem
from zonoinv.parameterizations import SfgParameterization, UtpdParameterization
from zonoinv.solver import SolveResult, SolverOptions, solve_invariance
from zonoinv.zonotope import Box, Zonotope


def sample_problem(kind="sfg"):
    a = np.array([[0.6, 0.1], [0.0, 0.5]])
    box = Box([-1.0, -1.0], [1.0, 1.0])
    if kind == "sfg":
        param = SfgParameterization(np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]), scale_floor=1e-7)
    else:
        param = UtpdParameterization(2, diag_floor=1e-7)
    return InvarianceProblem(AffineSystem(a, [0.01, -0.02]), box, 8, param, "lgv")


def sample_dict():
    return problem_to_dict(sample_problem())


class TestZonotopeRoundTrip:
    def test_dict_round_trip(self):
        z = Zonotope([1.0, -2.0], [[1.0, 0.5, 0.0], [0.0, 1.0, 0.25]])
        back = zonotope_from_dict(zonotope_to_dict(z))
        assert np.array_equal(back.center, z.center)
        assert np.array_equal(back.generators, z.generators)

    def test_file_round_trip(self, tmp_path):
        z = Zonotope([0.5], [[2.0]])
        path = tmp_path / "z.json"
        write_json(path, zonotope_to_dict(z))
        back = load_zonotope(path)
        assert np.array_equal(back.center, z.center)
        assert np.array_equal(back.generators, z.generators)

    def test_missing_center(self):
        with pytest.raises(SchemaError, match="center"):
            zonotope_from_dict({"generators": [[1.0]]})

    def test_row_mismatch(self):
        with pytest.raises(SchemaError, match="generators"):
            zonotope_from_dict({"center": [0.0], "generators": [[1.0], [2.0]]})

    def test_non_numeric(self):
        with pytest.raises(SchemaError, match="center"):
            zonotope_from_dict({"center": ["x"], "generators": [[1.0]]})

    def test_non_finite(self):
        with pytest.raises(SchemaError, match="finite"):
            zonotope_from_dict({"center": [float("nan")], "generators": [[1.0]]})

    def test_no_generator_columns(self):
        with pytest.raises(SchemaError, match=r"zonotope\.generators"):
            zonotope_from_dict({"center": [0.0], "generators": [[]]})


class TestProblemRoundTrip:
    def test_written_format_is_pinned(self):
        # The writer derives its keys from the dataclasses; the file stays as it was.
        box = {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
        head = {"A": [[0.6, 0.1], [0.0, 0.5]], "w": [0.01, -0.02], "box": box, "T": 8}
        expected = {
            "sfg": {"kind": "sfg", "template": [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]], "scale_floor": 1e-7},
            "utpd": {"kind": "utpd", "diag_floor": 1e-7},
        }
        for kind, param in expected.items():
            raw = json.loads(json.dumps(problem_to_dict(sample_problem(kind))))
            assert raw == {**head, "parameterization": param, "objective": "lgv"}
            assert list(raw) == ["A", "w", "box", "T", "parameterization", "objective"]
            assert list(raw["parameterization"]) == list(param)

    def test_sfg_round_trip(self, tmp_path):
        problem = sample_problem("sfg")
        options = SolverOptions(gap_tol=1e-9, max_newton=40)
        path = tmp_path / "problem.json"
        write_json(path, problem_to_dict(problem, options=options, seed=12345))
        back, back_options, back_seed = load_problem(path)
        assert np.array_equal(back.system.A, problem.system.A)
        assert np.array_equal(back.system.w, problem.system.w)
        assert np.array_equal(back.box.lower, problem.box.lower)
        assert back.horizon == problem.horizon
        assert back.objective == problem.objective
        assert np.array_equal(back.parameterization.template, problem.parameterization.template)
        assert back.parameterization.scale_floor == problem.parameterization.scale_floor
        assert back_options == options
        assert back_seed == 12345

    def test_utpd_round_trip(self):
        problem = sample_problem("utpd")
        back, options, seed = problem_from_dict(problem_to_dict(problem))
        assert back.parameterization.kind == "utpd"
        assert back.parameterization.diag_floor == 1e-7
        assert options is None and seed is None

    def test_defaults_applied(self):
        raw = sample_dict()
        del raw["w"]
        problem, _, _ = problem_from_dict(raw)
        assert np.array_equal(problem.system.w, np.zeros(2))

    def test_time_limit_survives(self):
        # With time_limit set, every SolverOptions field is written and read back.
        options = SolverOptions(time_limit=3.5)
        raw = problem_to_dict(sample_problem(), options=options)
        assert set(raw["options"]) == {f.name for f in fields(SolverOptions)}
        _, back, _ = problem_from_dict(raw)
        assert back == options
        assert back.time_limit == 3.5 and back.mu_factor == SolverOptions().mu_factor
        # An unset time limit is left out and comes back as None.
        raw = problem_to_dict(sample_problem(), options=SolverOptions())
        assert "time_limit" not in raw["options"]
        assert problem_from_dict(raw)[1] == SolverOptions()


class TestProblemSchemaErrors:
    def test_unknown_fields_rejected(self):
        # A misspelt optional field would otherwise take its default.
        cases = [
            ("sfg", (), "seeed"),
            ("sfg", ("box",), "lowr"),
            ("sfg", ("parameterization",), "scale_flor"),
            ("utpd", ("parameterization",), "scale_floor"),
        ]
        for kind, path, key in cases:
            raw = problem_to_dict(sample_problem(kind))
            target = raw
            for step in path:
                target = target[step]
            target[key] = 1e-3
            context = ".".join(("problem",) + path)
            with pytest.raises(SchemaError, match=rf"^{context}: unknown field\(s\) \['{key}'\]$"):
                problem_from_dict(raw)
        with pytest.raises(SchemaError, match=r"^zonotope: unknown field\(s\) \['centre'\]$"):
            zonotope_from_dict({"center": [0.0], "centre": [1.0], "generators": [[1.0]]})

    def test_missing_fields_named(self):
        for field in ("A", "box", "T", "parameterization", "objective"):
            raw = sample_dict()
            del raw[field]
            with pytest.raises(SchemaError, match=field):
                problem_from_dict(raw)

    def test_bad_option_values_named(self):
        for field, value in [("time_limit", "abc"), ("max_newton", 2.5), ("mu0", float("nan"))]:
            raw = sample_dict()
            raw["options"] = {field: value}
            with pytest.raises(SchemaError, match=rf"problem\.options\.{field}"):
                problem_from_dict(raw)

    def test_nonsquare_a(self):
        raw = sample_dict()
        raw["A"] = [[1.0, 0.0]]
        with pytest.raises(SchemaError, match=r"problem\.A"):
            problem_from_dict(raw)

    def test_wrong_w_length(self):
        raw = sample_dict()
        raw["w"] = [1.0, 2.0, 3.0]
        with pytest.raises(SchemaError, match=r"problem\.w"):
            problem_from_dict(raw)

    def test_crossed_box(self):
        raw = sample_dict()
        raw["box"] = {"lower": [1.0, -1.0], "upper": [-1.0, 1.0]}
        with pytest.raises(SchemaError, match="strictly below"):
            problem_from_dict(raw)

    def test_negative_horizon(self):
        raw = sample_dict()
        raw["T"] = -3
        with pytest.raises(SchemaError, match=r"problem\.T"):
            problem_from_dict(raw)

    def test_boolean_horizon_rejected(self):
        raw = sample_dict()
        raw["T"] = True
        with pytest.raises(SchemaError, match=r"problem\.T"):
            problem_from_dict(raw)

    def test_unknown_parameterization_kind(self):
        raw = sample_dict()
        raw["parameterization"] = {"kind": "ellipsoid"}
        with pytest.raises(SchemaError, match="kind"):
            problem_from_dict(raw)

    def test_bad_floor_values_named(self):
        # Strings, NaN, infinity and booleans are not floors.
        for kind, field in [("sfg", "scale_floor"), ("utpd", "diag_floor")]:
            for value in ["abc", float("nan"), float("inf"), True]:
                raw = problem_to_dict(sample_problem(kind))
                raw["parameterization"][field] = value
                with pytest.raises(SchemaError, match=rf"problem\.parameterization\.{field}"):
                    problem_from_dict(raw)

    def test_template_rows_must_match(self):
        raw = sample_dict()
        raw["parameterization"]["template"] = [[1.0, 0.0]]
        with pytest.raises(SchemaError, match="template"):
            problem_from_dict(raw)

    def test_template_without_full_row_rank(self):
        # A zero template and one with fewer columns than rows span no volume.
        for template in ([[0.0, 0.0], [0.0, 0.0]], [[1.0], [0.0]]):
            raw = sample_dict()
            raw["parameterization"]["template"] = template
            with pytest.raises(SchemaError, match=r"problem\.parameterization\.template"):
                problem_from_dict(raw)

    def test_unknown_objective(self):
        raw = sample_dict()
        raw["objective"] = "diameter"
        with pytest.raises(SchemaError, match="objective"):
            problem_from_dict(raw)

    def test_unknown_option_named(self):
        raw = sample_dict()
        raw["options"] = {"warp": 9}
        with pytest.raises(SchemaError, match="warp"):
            problem_from_dict(raw)

    def test_bad_seed(self):
        raw = sample_dict()
        raw["seed"] = "abc"
        with pytest.raises(SchemaError, match="seed"):
            problem_from_dict(raw)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="JSON"):
            load_problem(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(SchemaError, match="object"):
            load_problem(path)


# Every SolveResult field in field order, but the raw iterate and the stage objectives.
RESULT_KEYS = [f.name for f in fields(SolveResult) if f.name not in ("z", "stage_objectives")]


class TestResultSerialization:
    def test_optimal_result_includes_zonotope(self, tmp_path):
        problem = InvarianceProblem(
            AffineSystem([[0.5]], [0.0]), Box([-1.0], [1.0]), 10,
            SfgParameterization([[1.0]]), "lgv",
        )
        result = solve_invariance(problem)
        assert result.status == "optimal"
        payload = result_to_dict(result)
        assert list(payload) == RESULT_KEYS
        assert payload["status"] == "optimal"
        assert payload["volume"] == pytest.approx(2.0, abs=1e-6)
        assert payload["certificate_ok"] is True
        assert payload["horizon_solved"] == 0  # A = 0.5 maps the box into itself in one step
        path = tmp_path / "result.json"
        write_json(path, payload)
        z = load_solution_zonotope(path)
        assert z.generators[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_non_optimal_result_has_no_zonotope(self):
        problem = InvarianceProblem(
            AffineSystem([[0.5]], [2.0]), Box([-1.0], [1.0]), 10,
            SfgParameterization([[1.0]]), "lgv",
        )
        result = solve_invariance(problem)
        assert result.status == "infeasible"
        payload = result_to_dict(result)
        assert list(payload) == [key for key in RESULT_KEYS if key != "zonotope"]
        assert "zonotope" not in payload
        assert payload["horizon_solved"] == 10  # the drift never lets the box map into itself
        with pytest.raises(SchemaError, match="zonotope"):
            solution_zonotope_from_dict(payload)

    def test_written_file_ends_with_newline(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"a": 1})
        assert path.read_text().endswith("}\n")
