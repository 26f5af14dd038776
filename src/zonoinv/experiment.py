"""Benchmark harness: run a grid of random trials, aggregate, and write files.

A config names grid rows ``(dim, n_generators, trials)``, a method list, and
a master seed; every trial is solved with a seed derived purely from
``(master seed, dim, n_generators, trial)``, so results are reproducible
trial-by-trial and independent of worker scheduling.  Outputs are a per-trial
CSV, an aggregate JSON (mean/median/quartiles/min/max of volume and runtime
per grid cell and method), a box-plot summary JSON (quartiles, whiskers,
outliers), and a plain-text table rendering.

Everything except wall-clock times is deterministic; rerunning a config
reproduces the CSV byte-for-byte apart from the wall-time column.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .errors import SchemaError
from .files import _load_json, _reject_unknown, write_json
from .numerics import is_finite_positive
from .solver import OPTIMAL, SolverOptions, solve_invariance
from .sysgen import DEFAULT_DT, DEFAULT_HORIZON, TrialSpec, derive_trial_seed, make_trial
from .zonotope import Zonotope

__all__ = [
    "METHODS",
    "CSV_COLUMNS",
    "GridRow",
    "ExperimentConfig",
    "TrialRecord",
    "parse_method",
    "config_from_dict",
    "load_config",
    "run_experiment",
    "aggregate",
    "boxplot_summary",
    "render_tables",
    "write_outputs",
]

METHODS = ("sfg+ss", "sfg+slgs", "sfg+lgv", "utpd+lgv")

CSV_COLUMNS = (
    "dim",
    "n_generators",
    "method",
    "trial",
    "seed",
    "status",
    "volume",
    "objective_value",
    "iterations",
    "wall_time",
    "certificate_ok",
)


def parse_method(token: str) -> tuple[str, str]:
    """Split a method token like ``"sfg+lgv"`` into (parameterization kind,
    objective token), validating against the supported combinations."""
    if token not in METHODS:
        raise SchemaError(f"method: expected one of {list(METHODS)}, got {token!r}")
    kind, objective = token.split("+")
    return kind, objective


@dataclass(frozen=True)
class GridRow:
    dim: int
    n_generators: int
    trials: int


@dataclass(frozen=True)
class ExperimentConfig:
    grid: tuple[GridRow, ...]
    methods: tuple[str, ...]
    master_seed: int
    dt: float = DEFAULT_DT
    horizon: int = DEFAULT_HORIZON
    time_limit: float | None = None
    output_dir: str | None = None
    solver_options: tuple = ()

    def options(self) -> SolverOptions:
        raw = dict(self.solver_options)
        if self.time_limit is not None:
            raw["time_limit"] = self.time_limit
        return SolverOptions.from_dict(raw)


@dataclass
class TrialRecord:
    """One solved trial.

    ``zonotope`` and ``error`` (the ``repr`` of the exception on ``error``
    rows) are carried in memory only, not in the CSV.
    """

    dim: int
    n_generators: int
    method: str
    trial: int
    seed: int
    status: str
    volume: float | None
    objective_value: float | None
    iterations: int
    wall_time: float
    certificate_ok: bool | None
    zonotope: Zonotope | None = None
    error: str | None = None


def config_from_dict(raw: dict, context: str = "config") -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise SchemaError(f"{context}: expected a JSON object")
    _reject_unknown(raw, [f.name for f in fields(ExperimentConfig)], context)
    if "grid" not in raw:
        raise SchemaError(f"{context}: missing required field 'grid'")
    grid_raw = raw["grid"]
    if not isinstance(grid_raw, list) or not grid_raw:
        raise SchemaError(f"{context}.grid: expected a nonempty list of [dim, n_generators, trials] rows")
    rows = []
    for i, entry in enumerate(grid_raw):
        if not (isinstance(entry, list) and len(entry) == 3 and all(isinstance(v, int) and not isinstance(v, bool) for v in entry)):
            raise SchemaError(f"{context}.grid[{i}]: expected three integers [dim, n_generators, trials]")
        d, p, trials = entry
        if d < 1 or p < d:
            raise SchemaError(f"{context}.grid[{i}]: need dim >= 1 and n_generators >= dim, got ({d}, {p})")
        if trials < 1:
            raise SchemaError(f"{context}.grid[{i}]: trials must be >= 1, got {trials}")
        rows.append(GridRow(d, p, trials))

    methods_raw = raw.get("methods", list(METHODS))
    if not isinstance(methods_raw, list) or not methods_raw:
        raise SchemaError(f"{context}.methods: expected a nonempty list")
    for i, token in enumerate(methods_raw):
        if token not in METHODS:
            raise SchemaError(f"{context}.methods[{i}]: expected one of {list(METHODS)}, got {token!r}")

    if "master_seed" not in raw:
        raise SchemaError(f"{context}: missing required field 'master_seed'")
    master_seed = raw["master_seed"]
    if not isinstance(master_seed, int) or isinstance(master_seed, bool):
        raise SchemaError(f"{context}.master_seed: expected an integer")

    dt = raw.get("dt", DEFAULT_DT)
    horizon = raw.get("horizon", DEFAULT_HORIZON)
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 0:
        raise SchemaError(f"{context}.horizon: expected a nonnegative integer")
    if not is_finite_positive(dt):
        raise SchemaError(f"{context}.dt: expected a finite positive number")

    time_limit = raw.get("time_limit")
    if time_limit is not None and not is_finite_positive(time_limit):
        raise SchemaError(f"{context}.time_limit: expected a finite positive number or null")

    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise SchemaError(f"{context}.output_dir: expected a string")

    solver_options = raw.get("solver_options", {})
    if not isinstance(solver_options, dict):
        raise SchemaError(f"{context}.solver_options: expected an object")

    config = ExperimentConfig(
        grid=tuple(rows),
        methods=tuple(methods_raw),
        master_seed=master_seed,
        dt=float(dt),
        horizon=horizon,
        time_limit=None if time_limit is None else float(time_limit),
        output_dir=output_dir,
        solver_options=tuple(sorted(solver_options.items())),
    )
    try:
        config.options()  # validate solver options eagerly
    except SchemaError as exc:  # "options.<field> ..." from SolverOptions
        raise SchemaError(f"{context}.solver_{exc}") from exc
    return config


def load_config(path) -> ExperimentConfig:
    return config_from_dict(_load_json(path), context=str(path))


def _run_one(task) -> TrialRecord:
    """Solve one (cell, method, trial) task; never raises."""
    config, row, method, trial = task
    kind, objective = parse_method(method)
    spec = TrialSpec(row.dim, row.n_generators, trial, config.master_seed,
                     dt=config.dt, horizon=config.horizon)
    seed = derive_trial_seed(config.master_seed, row.dim, row.n_generators, trial)
    try:
        problem = make_trial(spec, kind, objective)
        result = solve_invariance(problem, config.options())
    except Exception as exc:  # record the failure, never abort the batch
        return TrialRecord(
            dim=row.dim, n_generators=row.n_generators, method=method, trial=trial,
            seed=seed, status="error", volume=None, objective_value=None,
            iterations=0, wall_time=0.0, certificate_ok=None, error=repr(exc),
        )
    return TrialRecord(
        dim=row.dim, n_generators=row.n_generators, method=method, trial=trial,
        seed=seed, status=result.status,
        volume=result.volume, objective_value=result.objective_value,
        iterations=result.iterations, wall_time=result.wall_time,
        certificate_ok=result.certificate_ok, zonotope=result.zonotope,
    )


def run_experiment(config: ExperimentConfig, jobs: int = 1, log=None) -> list[TrialRecord]:
    """Run every (grid row x method x trial) combination.

    Results come back in deterministic task order regardless of worker
    scheduling.  ``jobs`` bounds the process pool; 1 keeps everything in this
    process.  ``log`` is an optional callable taking a progress string.
    """
    tasks = [
        (config, row, method, trial)
        for row in config.grid
        for method in config.methods
        for trial in range(row.trials)
    ]
    records: list[TrialRecord] = []
    if jobs <= 1:
        for i, task in enumerate(tasks):
            records.append(_run_one(task))
            if log is not None:
                _, row, method, trial = task
                log(f"[{i + 1}/{len(tasks)}] ({row.dim},{row.n_generators}) {method} trial {trial}: "
                    f"{records[-1].status}")
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for i, record in enumerate(pool.map(_run_one, tasks, chunksize=1)):
                records.append(record)
                if log is not None:
                    log(f"[{i + 1}/{len(tasks)}] ({record.dim},{record.n_generators}) "
                        f"{record.method} trial {record.trial}: {record.status}")
    return records


# ---------------------------------------------------------------------------
# Aggregation


def _stats(values: list[float]) -> dict | None:
    if not values:
        return None
    arr = np.asarray(values, dtype=float)
    return {
        "mean": float(np.mean(arr)),
        "median": float(np.median(arr)),
        "q1": float(np.percentile(arr, 25)),
        "q3": float(np.percentile(arr, 75)),
        "min": float(np.min(arr)),
        "max": float(np.max(arr)),
    }


def _box(values: list[float]) -> dict | None:
    if not values:
        return None
    arr = np.asarray(values, dtype=float)
    q1 = float(np.percentile(arr, 25))
    q3 = float(np.percentile(arr, 75))
    iqr = q3 - q1
    low_cut, high_cut = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = arr[(arr >= low_cut) & (arr <= high_cut)]
    return {
        "median": float(np.median(arr)),
        "q1": q1,
        "q3": q3,
        "whisker_low": float(np.min(inside)),
        "whisker_high": float(np.max(inside)),
        "outliers": sorted(float(v) for v in arr[(arr < low_cut) | (arr > high_cut)]),
    }


def _cells(records) -> list[tuple[tuple[int, int, str], list, list]]:
    """``((dim, n_generators, method), records, optimal records)`` per cell,
    cells in order of first appearance."""
    groups: dict[tuple[int, int, str], list] = {}
    for r in records:
        groups.setdefault((r.dim, r.n_generators, r.method), []).append(r)
    return [(cell, group, [r for r in group if r.status == OPTIMAL]) for cell, group in groups.items()]


def aggregate(records: list[TrialRecord]) -> dict:
    """Per-cell, per-method summary statistics over the Optimal trials."""
    cells = []
    for (dim, p, method), group, optimal in _cells(records):
        cells.append({
            "dim": dim,
            "n_generators": p,
            "method": method,
            "count": len(group),
            "n_optimal": len(optimal),
            "volume": _stats([r.volume for r in optimal]),
            "runtime": _stats([r.wall_time for r in group]),
        })
    return {"cells": cells}


def boxplot_summary(records: list[TrialRecord]) -> dict:
    """Quartile/whisker/outlier summaries, enough to draw box plots of the
    optimal-volume and runtime distributions per cell and method."""
    cells = []
    for (dim, p, method), group, optimal in _cells(records):
        cells.append({
            "dim": dim,
            "n_generators": p,
            "method": method,
            "volume": _box([r.volume for r in optimal]),
            "runtime": _box([r.wall_time for r in group]),
        })
    return {"cells": cells}


def render_tables(config: ExperimentConfig, records: list[TrialRecord]) -> str:
    """Plain-text tables: the instance grid with volume-formula term counts,
    then average optimal volumes and average runtimes per cell and method."""
    summary = aggregate(records)
    by_cell = {(c["dim"], c["n_generators"], c["method"]): c for c in summary["cells"]}
    methods = list(config.methods)

    lines = ["Instance grid", "  dim  n_gen  trials  C(p,d)"]
    for row in config.grid:
        lines.append(
            f"  {row.dim:3d}  {row.n_generators:5d}  {row.trials:6d}  {math.comb(row.n_generators, row.dim):6d}"
        )

    def table(title: str, field: str, stat: str) -> list[str]:
        out = ["", title, "  (dim, n_gen)" + "".join(f"  {m:>10s}" for m in methods)]
        for row in config.grid:
            entries = []
            for m in methods:
                cell = by_cell.get((row.dim, row.n_generators, m))
                block = cell and cell[field]
                entries.append(f"  {block[stat]:10.2f}" if block else f"  {'-':>10s}")
            out.append(f"  ({row.dim:3d},{row.n_generators:4d})" + "".join(entries))
        return out

    lines += table("Average optimal volumes", "volume", "mean")
    lines += table("Average runtimes (seconds)", "runtime", "mean")
    return "\n".join(lines) + "\n"


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_outputs(config: ExperimentConfig, records: list[TrialRecord], out_dir) -> dict:
    """Write trials.csv, aggregates.json, boxplot.json, and tables.txt.

    Returns the path of each file written.  Byte-stable across reruns except
    for wall-time-derived fields.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "trials": os.path.join(out_dir, "trials.csv"),
        "aggregates": os.path.join(out_dir, "aggregates.json"),
        "boxplot": os.path.join(out_dir, "boxplot.json"),
        "tables": os.path.join(out_dir, "tables.txt"),
    }
    with open(paths["trials"], "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([_csv_value(getattr(r, column)) for column in CSV_COLUMNS])
    write_json(paths["aggregates"], aggregate(records))
    write_json(paths["boxplot"], boxplot_summary(records))
    with open(paths["tables"], "w", encoding="utf-8") as handle:
        handle.write(render_tables(config, records))
    return paths
