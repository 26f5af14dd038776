"""JSON file formats: problems, zonotopes, and solve results.

One problem file fully determines a solve: dynamics, box, horizon,
parameterization, objective, solver options, and an optional seed recording
where a generated instance came from.  All parsing errors raise
:class:`~zonoinv.errors.SchemaError` naming the offending field.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .errors import SchemaError, UnsupportedError
from .invariance import AffineSystem, InvarianceProblem
from .numerics import MAX_CHAIN_ENTRIES, is_finite_positive
from .parameterizations import SfgParameterization, UtpdParameterization, make_objective
from .solver import SolveResult, SolverOptions
from .zonotope import Box, Zonotope

__all__ = [
    "problem_to_dict",
    "problem_from_dict",
    "load_problem",
    "zonotope_to_dict",
    "zonotope_from_dict",
    "load_zonotope",
    "result_to_dict",
    "solution_zonotope_from_dict",
    "load_solution_zonotope",
    "write_json",
]


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    return raw


def _require(raw: dict, key: str, context: str):
    if key not in raw:
        raise SchemaError(f"{context}: missing required field {key!r}")
    return raw[key]


def _reject_unknown(raw: dict, known, context: str) -> None:
    unknown = set(raw) - set(known)
    if unknown:
        raise SchemaError(f"{context}: unknown field(s) {sorted(unknown)}")


def _as_float_array(value, context: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{context}: expected numeric array, got {value!r}") from exc
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{context}: values must be finite")
    return arr


def _positive_real(value, context: str) -> float:
    if not is_finite_positive(value):
        raise SchemaError(f"{context}: expected a finite positive number, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# Zonotopes


def zonotope_to_dict(zonotope: Zonotope) -> dict:
    return {
        "center": zonotope.center.tolist(),
        "generators": zonotope.generators.tolist(),
    }


def zonotope_from_dict(raw: dict, context: str = "zonotope") -> Zonotope:
    if not isinstance(raw, dict):
        raise SchemaError(f"{context}: expected an object with 'center' and 'generators'")
    _reject_unknown(raw, ("center", "generators"), context)
    center = _as_float_array(_require(raw, "center", context), f"{context}.center")
    generators = _as_float_array(_require(raw, "generators", context), f"{context}.generators")
    if center.ndim != 1:
        raise SchemaError(f"{context}.center: expected a flat array")
    if generators.ndim != 2:
        raise SchemaError(f"{context}.generators: expected a matrix (list of rows)")
    if generators.shape[0] != center.shape[0]:
        raise SchemaError(
            f"{context}.generators: {generators.shape[0]} rows, center has {center.shape[0]} entries"
        )
    return Zonotope(center, generators)


def load_zonotope(path) -> Zonotope:
    return zonotope_from_dict(_load_json(path), context=str(path))


# ---------------------------------------------------------------------------
# Problems


def problem_to_dict(
    problem: InvarianceProblem,
    options: SolverOptions | None = None,
    seed: int | None = None,
) -> dict:
    parameterization = problem.parameterization
    if parameterization.kind == "sfg":
        param = {
            "kind": "sfg",
            "template": parameterization.template.tolist(),
            "scale_floor": parameterization.scale_floor,
        }
    else:
        param = {"kind": "utpd", "diag_floor": parameterization.diag_floor}
    payload = {
        "A": problem.system.A.tolist(),
        "w": problem.system.w.tolist(),
        "box": {"lower": problem.box.lower.tolist(), "upper": problem.box.upper.tolist()},
        "T": problem.horizon,
        "parameterization": param,
        "objective": problem.objective,
    }
    if options is not None:
        # Every SolverOptions field but an unset time_limit, which from_dict restores to None.
        payload["options"] = {name: value for name, value in asdict(options).items() if value is not None}
    if seed is not None:
        payload["seed"] = int(seed)
    return payload


def problem_from_dict(raw: dict, context: str = "problem"):
    """Parse a problem JSON object.

    Returns ``(problem, options, seed)`` where options is None when the file
    carries none and seed is the optional provenance seed.
    """
    _reject_unknown(raw, ("A", "w", "box", "T", "parameterization", "objective", "options", "seed"), context)
    a_matrix = _as_float_array(_require(raw, "A", context), f"{context}.A")
    if a_matrix.ndim != 2 or a_matrix.shape[0] != a_matrix.shape[1]:
        raise SchemaError(f"{context}.A: expected a square matrix")
    d = a_matrix.shape[0]

    w = _as_float_array(raw.get("w", np.zeros(d)), f"{context}.w")
    if w.shape != (d,):
        raise SchemaError(f"{context}.w: expected {d} entries, got shape {w.shape}")

    box_raw = _require(raw, "box", context)
    if not isinstance(box_raw, dict):
        raise SchemaError(f"{context}.box: expected an object with 'lower' and 'upper'")
    _reject_unknown(box_raw, ("lower", "upper"), f"{context}.box")
    lower = _as_float_array(_require(box_raw, "lower", f"{context}.box"), f"{context}.box.lower")
    upper = _as_float_array(_require(box_raw, "upper", f"{context}.box"), f"{context}.box.upper")
    if lower.shape != (d,) or upper.shape != (d,):
        raise SchemaError(f"{context}.box: lower/upper must each have {d} entries")
    if np.any(lower >= upper):
        raise SchemaError(f"{context}.box: lower must be strictly below upper in every coordinate")
    box = Box(lower, upper)

    horizon = _require(raw, "T", context)
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 0:
        raise SchemaError(f"{context}.T: expected a nonnegative integer, got {horizon!r}")
    if (horizon + 1) * d * d > MAX_CHAIN_ENTRIES:
        raise SchemaError(
            f"{context}.T: {horizon} is too long; (T + 1) * d^2 must be at most {MAX_CHAIN_ENTRIES} at d = {d}"
        )

    param_raw = _require(raw, "parameterization", context)
    if not isinstance(param_raw, dict):
        raise SchemaError(f"{context}.parameterization: expected an object with a 'kind'")
    kind = _require(param_raw, "kind", f"{context}.parameterization")
    if kind == "sfg":
        _reject_unknown(param_raw, ("kind", "template", "scale_floor"), f"{context}.parameterization")
        template = _as_float_array(
            _require(param_raw, "template", f"{context}.parameterization"),
            f"{context}.parameterization.template",
        )
        if template.ndim != 2 or template.shape[0] != d:
            raise SchemaError(
                f"{context}.parameterization.template: expected {d} rows to match A"
            )
        floor = _positive_real(param_raw.get("scale_floor", 1e-6), f"{context}.parameterization.scale_floor")
        parameterization = SfgParameterization(template, scale_floor=floor)
    elif kind == "utpd":
        _reject_unknown(param_raw, ("kind", "diag_floor"), f"{context}.parameterization")
        floor = _positive_real(param_raw.get("diag_floor", 1e-6), f"{context}.parameterization.diag_floor")
        parameterization = UtpdParameterization(d, diag_floor=floor)
    else:
        raise SchemaError(
            f"{context}.parameterization.kind: expected 'sfg' or 'utpd', got {kind!r}"
        )

    objective = _require(raw, "objective", context)
    try:
        make_objective(objective, parameterization)
    except UnsupportedError as exc:
        raise SchemaError(f"{context}.objective: {exc}") from exc

    options = None
    if "options" in raw:
        if not isinstance(raw["options"], dict):
            raise SchemaError(f"{context}.options: expected an object")
        try:
            options = SolverOptions.from_dict(raw["options"])
        except SchemaError as exc:
            raise SchemaError(f"{context}.{exc}") from exc

    seed = raw.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise SchemaError(f"{context}.seed: expected an integer, got {seed!r}")

    problem = InvarianceProblem(AffineSystem(a_matrix, w), box, horizon, parameterization, objective)
    return problem, options, seed


def load_problem(path):
    return problem_from_dict(_load_json(path), context=str(path))


# ---------------------------------------------------------------------------
# Solve results


def result_to_dict(result: SolveResult) -> dict:
    payload = {
        "status": result.status,
        "objective_value": result.objective_value,
        "volume": result.volume,
        "iterations": result.iterations,
        "phase1_iterations": result.phase1_iterations,
        "horizon_solved": result.horizon_solved,
        "wall_time": result.wall_time,
        "kkt_residual": result.kkt_residual,
        "certificate_ok": result.certificate_ok,
        "message": result.message,
    }
    if result.zonotope is not None:
        payload["zonotope"] = zonotope_to_dict(result.zonotope)
    return payload


def solution_zonotope_from_dict(raw: dict, context: str = "solution") -> Zonotope:
    """Extract the zonotope from a solve-result JSON object (for re-checking)."""
    if "zonotope" not in raw:
        raise SchemaError(f"{context}: missing 'zonotope' (was the solve not optimal?)")
    return zonotope_from_dict(raw["zonotope"], context=f"{context}.zonotope")


def load_solution_zonotope(path) -> Zonotope:
    return solution_zonotope_from_dict(_load_json(path), context=str(path))
