"""JSON file formats: problems, zonotopes, and solve results.

One problem file fully determines a solve: dynamics, box, horizon,
parameterization, objective, solver options, and an optional seed recording
where a generated instance came from.

Each JSON object is read and written from the dataclass it becomes: its keys
are the init fields, required unless the dataclass gives a default.  The
dataclasses check every value, each message starting with the field's name,
so every parsing error is a :class:`~zonoinv.errors.SchemaError` naming the
field's path.  Only the format's own rules are checked here: the horizon
``T``, a box with ``lower`` strictly below ``upper``, template rows
matching ``A``, the objective pairing and the integer ``seed``.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, fields

import numpy as np

from .errors import SchemaError, UnsupportedError, ZonoinvError
from .invariance import AffineSystem, InvarianceProblem
from .numerics import MAX_CHAIN_ENTRIES, is_integer
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

# The problem object's own required keys, beside the AffineSystem fields.
_PROBLEM_KEYS = ("box", "T", "parameterization", "objective")


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


def _reject_unknown(raw: dict, known, context: str) -> None:
    unknown = set(raw) - set(known)
    if unknown:
        raise SchemaError(f"{context}: unknown field(s) {sorted(unknown)}")


def _file_fields(cls, skip=()) -> list:
    """The init fields of dataclass ``cls`` apart from those named in ``skip``."""
    return [f for f in fields(cls) if f.init and f.name not in skip]


def _from_fields(cls, raw, context: str, **given):
    """Build ``cls`` from the JSON object ``raw``, whose keys are the init
    fields of ``cls`` apart from those ``given`` by the caller.  A failed
    check of the dataclass becomes ``SchemaError("<context>.<field> ...")``.
    """
    file_fields = _file_fields(cls, given)
    if not isinstance(raw, dict):
        raise SchemaError(f"{context}: expected an object with fields {[f.name for f in file_fields]}")
    _reject_unknown(raw, [f.name for f in file_fields], context)
    for f in file_fields:
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise SchemaError(f"{context}: missing required field {f.name!r}")
    try:
        return cls(**raw, **given)
    except ZonoinvError as exc:
        raise SchemaError(f"{context}.{exc}") from exc


def _to_fields(obj, skip=()) -> dict:
    """The JSON object of a dataclass: its init fields apart from ``skip``, arrays as lists."""
    values = {f.name: getattr(obj, f.name) for f in _file_fields(type(obj), skip)}
    return {name: value.tolist() if isinstance(value, np.ndarray) else value for name, value in values.items()}


# ---------------------------------------------------------------------------
# Zonotopes


def zonotope_to_dict(zonotope: Zonotope) -> dict:
    return _to_fields(zonotope)


def zonotope_from_dict(raw: dict, context: str = "zonotope") -> Zonotope:
    return _from_fields(Zonotope, raw, context)


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
    payload = {
        **_to_fields(problem.system),
        "box": _to_fields(problem.box),
        "T": problem.horizon,
        # The dimension of a triangular parameterization is the dimension of A.
        "parameterization": {"kind": parameterization.kind, **_to_fields(parameterization, skip=("dim",))},
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
    carries none and seed is the optional provenance seed.  The top level
    holds the :class:`AffineSystem` fields beside the problem's own keys.
    """
    system_keys = [f.name for f in _file_fields(AffineSystem)]
    _reject_unknown(raw, (*system_keys, *_PROBLEM_KEYS, "options", "seed"), context)
    for key in _PROBLEM_KEYS:
        if key not in raw:
            raise SchemaError(f"{context}: missing required field {key!r}")
    system = _from_fields(AffineSystem, {key: raw[key] for key in system_keys if key in raw}, context)
    d = system.dim

    box = _from_fields(Box, raw["box"], f"{context}.box")
    if np.any(box.lower >= box.upper):
        raise SchemaError(f"{context}.box: lower must be strictly below upper in every coordinate")

    horizon = raw["T"]
    if not is_integer(horizon) or horizon < 0:
        raise SchemaError(f"{context}.T: expected a nonnegative integer, got {horizon!r}")
    if (horizon + 1) * d * d > MAX_CHAIN_ENTRIES:
        raise SchemaError(
            f"{context}.T: {horizon} is too long; (T + 1) * d^2 must be at most {MAX_CHAIN_ENTRIES} at d = {d}"
        )

    param_context = f"{context}.parameterization"
    if not isinstance(raw["parameterization"], dict):
        raise SchemaError(f"{param_context}: expected an object with a 'kind'")
    param_fields = dict(raw["parameterization"])
    kind = param_fields.pop("kind", None)
    if kind == "sfg":
        parameterization = _from_fields(SfgParameterization, param_fields, param_context)
        if parameterization.dim != d:
            raise SchemaError(f"{param_context}.template: expected {d} rows to match A")
    elif kind == "utpd":
        parameterization = _from_fields(UtpdParameterization, param_fields, param_context, dim=d)
    else:
        raise SchemaError(f"{param_context}.kind: expected 'sfg' or 'utpd', got {kind!r}")

    objective = raw["objective"]
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
    if seed is not None and not is_integer(seed):
        raise SchemaError(f"{context}.seed: expected an integer, got {seed!r}")

    try:
        problem = InvarianceProblem(system, box, horizon, parameterization, objective)
    except ZonoinvError as exc:  # "box dimension ..." when the box does not match A
        raise SchemaError(f"{context}.{exc}") from exc
    return problem, options, seed


def load_problem(path):
    return problem_from_dict(_load_json(path), context=str(path))


# ---------------------------------------------------------------------------
# Solve results


def result_to_dict(result: SolveResult) -> dict:
    """Every :class:`SolveResult` field in field order, except the raw
    iterate ``z`` and ``stage_objectives``; the zonotope only when there is one."""
    payload = _to_fields(result, skip=("z", "stage_objectives"))
    if result.zonotope is None:
        del payload["zonotope"]
    else:
        payload["zonotope"] = zonotope_to_dict(result.zonotope)
    return payload


def solution_zonotope_from_dict(raw: dict, context: str = "solution") -> Zonotope:
    """Extract the zonotope from a solve-result JSON object (for re-checking)."""
    if "zonotope" not in raw:
        raise SchemaError(f"{context}: missing 'zonotope' (was the solve not optimal?)")
    return zonotope_from_dict(raw["zonotope"], context=f"{context}.zonotope")


def load_solution_zonotope(path) -> Zonotope:
    return solution_zonotope_from_dict(_load_json(path), context=str(path))
