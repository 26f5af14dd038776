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
from .files import _from_fields, _load_json, write_json
from .numerics import is_finite_positive, is_integer
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


def parse_method(token: str) -> tuple[str, str]:
    """Split a method token like ``"sfg+lgv"`` into (parameterization kind,
    objective token), validating against the supported combinations."""
    if token not in METHODS:
        raise SchemaError(f"method: expected one of {list(METHODS)}, got {token!r}")
    kind, objective = token.split("+")
    return kind, objective


@dataclass(frozen=True)
class GridRow:
    """A grid cell, checked as its trials' :class:`TrialSpec` checks it, and its trial count."""

    dim: int
    n_generators: int
    trials: int

    def __post_init__(self):
        TrialSpec(self.dim, self.n_generators, 0, 0)
        if not is_integer(self.trials) or self.trials < 1:
            raise SchemaError(f"trials must be an integer >= 1, got {self.trials!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A benchmark grid and how to run it; construction checks every field.

    ``master_seed``, ``dt`` and ``horizon`` are checked as each trial's
    :class:`TrialSpec` checks them, ``solver_options`` as the
    :class:`SolverOptions` it becomes.  Each message starts with the field's name.
    """

    grid: tuple[GridRow, ...]
    master_seed: int
    methods: tuple[str, ...] = METHODS
    dt: float = DEFAULT_DT
    horizon: int = DEFAULT_HORIZON
    time_limit: float | None = None
    output_dir: str | None = None
    solver_options: tuple = ()

    def __post_init__(self):
        if not self.grid:
            raise SchemaError("grid must hold at least one [dim, n_generators, trials] row")
        if not self.methods or any(token not in METHODS for token in self.methods):
            raise SchemaError(f"methods must be a nonempty list of {list(METHODS)}, got {list(self.methods)!r}")
        TrialSpec(1, 1, 0, self.master_seed, dt=self.dt, horizon=self.horizon)
        if self.time_limit is not None and not is_finite_positive(self.time_limit):
            raise SchemaError(f"time_limit must be a finite positive number or null, got {self.time_limit!r}")
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise SchemaError(f"output_dir must be a string, got {self.output_dir!r}")
        try:
            self.options()
        except SchemaError as exc:  # "options.<field> ..." from SolverOptions
            raise SchemaError(f"solver_{exc}") from exc

    def options(self) -> SolverOptions:
        raw = dict(self.solver_options)
        if self.time_limit is not None:
            raw["time_limit"] = self.time_limit
        return SolverOptions.from_dict(raw)


@dataclass
class TrialRecord:
    """One solved trial; the defaults are those of an ``error`` row.

    ``zonotope`` and ``error`` (the ``repr`` of the exception on ``error``
    rows) are carried in memory only, not in the CSV.
    """

    dim: int
    n_generators: int
    method: str
    trial: int
    seed: int
    status: str = "error"
    volume: float | None = None
    objective_value: float | None = None
    iterations: int = 0
    wall_time: float = 0.0
    certificate_ok: bool | None = None
    zonotope: Zonotope | None = None
    error: str | None = None


CSV_COLUMNS = tuple(f.name for f in fields(TrialRecord) if f.name not in ("zonotope", "error"))
# The fields a record copies from its SolveResult.
_RESULT_FIELDS = ("status", "volume", "objective_value", "iterations", "wall_time", "certificate_ok", "zonotope")


def config_from_dict(raw: dict, context: str = "config") -> ExperimentConfig:
    """Map a config object onto :class:`ExperimentConfig`, which checks it:
    grid rows become :class:`GridRow`s and ``solver_options`` sorted items."""
    if not isinstance(raw, dict):
        raise SchemaError(f"{context}: expected a JSON object")
    values = dict(raw)
    if "grid" in raw:
        if not isinstance(raw["grid"], list):
            raise SchemaError(f"{context}.grid: expected a list of [dim, n_generators, trials] rows")
        values["grid"] = tuple(_grid_row(entry, f"{context}.grid[{i}]") for i, entry in enumerate(raw["grid"]))
    if "methods" in raw:
        if not isinstance(raw["methods"], list):
            raise SchemaError(f"{context}.methods: expected a list")
        values["methods"] = tuple(raw["methods"])
    if "solver_options" in raw:
        if not isinstance(raw["solver_options"], dict):
            raise SchemaError(f"{context}.solver_options: expected an object")
        values["solver_options"] = tuple(sorted(raw["solver_options"].items()))
    return _from_fields(ExperimentConfig, values, context)


def _grid_row(entry, context: str) -> GridRow:
    if not isinstance(entry, list) or len(entry) != 3:
        raise SchemaError(f"{context}: expected [dim, n_generators, trials]")
    return _from_fields(GridRow, dict(zip((f.name for f in fields(GridRow)), entry)), context)


def load_config(path) -> ExperimentConfig:
    return config_from_dict(_load_json(path), context=str(path))


def _run_one(task) -> TrialRecord:
    """Solve one (cell, method, trial) task; never raises."""
    config, row, method, trial = task
    kind, objective = parse_method(method)
    spec = TrialSpec(row.dim, row.n_generators, trial, config.master_seed,
                     dt=config.dt, horizon=config.horizon)
    try:
        result = solve_invariance(make_trial(spec, kind, objective), config.options())
    except Exception as exc:  # record the failure, never abort the batch
        outcome = {"error": repr(exc)}
    else:
        outcome = {name: getattr(result, name) for name in _RESULT_FIELDS}
    seed = derive_trial_seed(config.master_seed, row.dim, row.n_generators, trial)
    return TrialRecord(row.dim, row.n_generators, method, trial, seed, **outcome)


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
