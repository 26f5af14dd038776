"""Tests for the batch experiment runner: config parsing, execution,
aggregation, and output files."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from oracles import manual_stats
from zonoinv.errors import SchemaError
from zonoinv.experiment import (
    CSV_COLUMNS,
    METHODS,
    ExperimentConfig,
    GridRow,
    TrialRecord,
    aggregate,
    boxplot_summary,
    config_from_dict,
    load_config,
    parse_method,
    run_experiment,
    write_outputs,
)
from zonoinv.sysgen import derive_trial_seed

ROOT = Path(__file__).resolve().parents[1]


def small_config(**overrides):
    raw = {
        "grid": [[2, 3, 3], [3, 3, 2]],
        "methods": ["sfg+ss", "sfg+lgv", "utpd+lgv"],
        "master_seed": 7,
        "horizon": 10,
    }
    raw.update(overrides)
    return config_from_dict(raw)


class TestParseMethod:
    def test_all_supported_tokens(self):
        assert parse_method("sfg+ss") == ("sfg", "ss")
        assert parse_method("sfg+slgs") == ("sfg", "slgs")
        assert parse_method("sfg+lgv") == ("sfg", "lgv")
        assert parse_method("utpd+lgv") == ("utpd", "lgv")

    def test_rejects_unsupported(self):
        for bad in ("utpd+ss", "utpd+slgs", "sfg", "box+lgv", ""):
            with pytest.raises(SchemaError):
                parse_method(bad)


class TestConfigParsing:
    def test_minimal(self):
        config = config_from_dict({"grid": [[2, 4, 5]], "master_seed": 1})
        assert config.grid == (GridRow(2, 4, 5),)
        assert config.methods == METHODS
        assert config.dt == 0.2 and config.horizon == 30

    def test_full(self):
        config = config_from_dict({
            "grid": [[3, 6, 2]],
            "methods": ["sfg+lgv"],
            "master_seed": 42,
            "dt": 0.1,
            "horizon": 5,
            "time_limit": 30.0,
            "output_dir": "runs/x",
            "solver_options": {"gap_tol": 1e-9},
        })
        assert config.time_limit == 30.0
        assert config.output_dir == "runs/x"
        assert config.options().gap_tol == 1e-9
        assert config.options().time_limit == 30.0

    def test_unknown_fields_rejected(self):
        # Misspelt, "methods" would run every method and "horizon" T = 30.
        for key, value in [("method", ["sfg+ss"]), ("horizn", 5)]:
            with pytest.raises(SchemaError, match=rf"^config: unknown field\(s\) \['{key}'\]$"):
                config_from_dict({"grid": [[2, 3, 1]], "master_seed": 1, key: value})

    def test_boolean_time_limit_rejected(self):
        # JSON true is not a one-second budget.
        with pytest.raises(SchemaError, match="time_limit"):
            config_from_dict({"grid": [[2, 3, 1]], "master_seed": 1, "time_limit": True})

    def test_non_finite_dt_rejected(self):
        for dt in (float("nan"), float("inf"), True, 0.0):
            with pytest.raises(SchemaError, match=r"config\.dt"):
                config_from_dict({"grid": [[2, 3, 1]], "master_seed": 1, "dt": dt})

    def test_missing_grid(self):
        with pytest.raises(SchemaError, match="grid"):
            config_from_dict({"master_seed": 1})

    def test_bad_grid_rows(self):
        for bad in ([[2, 4]], [[2, 4, 0]], [[0, 4, 1]], [[3, 2, 1]], [[2.0, 4, 1]], "grid"):
            with pytest.raises(SchemaError):
                config_from_dict({"grid": bad, "master_seed": 1})

    def test_bad_methods(self):
        with pytest.raises(SchemaError):
            config_from_dict({"grid": [[2, 3, 1]], "master_seed": 1, "methods": ["utpd+ss"]})
        with pytest.raises(SchemaError):
            config_from_dict({"grid": [[2, 3, 1]], "master_seed": 1, "methods": []})

    def test_missing_master_seed(self):
        with pytest.raises(SchemaError, match="master_seed"):
            config_from_dict({"grid": [[2, 3, 1]]})

    def test_bad_solver_options_caught_eagerly(self):
        with pytest.raises(SchemaError):
            config_from_dict({
                "grid": [[2, 3, 1]], "master_seed": 1,
                "solver_options": {"mu_factor": 2.0},
            })

    def test_checked_in_configs_parse_unchanged(self):
        # The reader derives its fields and defaults from ExperimentConfig;
        # the configs still parse to the same objects.
        grids = {
            "acceptance": [(3, 3, 200), (3, 6, 200), (3, 8, 200), (6, 10, 30), (10, 14, 30), (15, 16, 12)],
            "table_full": [(3, 3, 200), (3, 6, 200), (3, 8, 200), (6, 10, 200), (8, 13, 30), (10, 14, 30),
                           (12, 15, 30), (15, 16, 12)],
        }
        expected = {
            name: ExperimentConfig(
                grid=tuple(GridRow(*row) for row in grid), methods=METHODS, master_seed=20260815,
                dt=0.2, horizon=30, time_limit=None, output_dir=f"runs/{name}", solver_options=(),
            )
            for name, grid in grids.items()
        }
        expected["smoke"] = ExperimentConfig(
            grid=(GridRow(2, 3, 3), GridRow(3, 3, 2)), methods=("sfg+ss", "sfg+lgv", "utpd+lgv"), master_seed=7,
            dt=0.2, horizon=30, time_limit=None, output_dir="runs/smoke", solver_options=(),
        )
        for name, config in expected.items():
            assert load_config(ROOT / "configs" / f"{name}.json") == config

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"grid": [[2, 3, 1]], "master_seed": 5}))
        config = load_config(path)
        assert config.master_seed == 5

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        with pytest.raises(SchemaError, match="JSON"):
            load_config(path)


@pytest.fixture(scope="module")
def records():
    return run_experiment(small_config())


class TestRunExperiment:
    def test_row_count_and_order(self, records):
        # Rows come in grid x method x trial order: (2,3) x 3 methods x 3
        # trials, then (3,3) x 3 methods x 2 trials = 9 + 6 = 15.
        assert len(records) == 15
        key = [(r.dim, r.n_generators, r.method, r.trial) for r in records]
        assert key == sorted(key, key=lambda k: (k[0] != 2, k[0], k[1], ["sfg+ss", "sfg+lgv", "utpd+lgv"].index(k[2]), k[3]))

    def test_all_optimal_and_certified(self, records):
        assert all(r.status == "optimal" for r in records)
        assert all(r.certificate_ok is True for r in records)
        assert all(r.volume > 0 for r in records)
        assert all(r.error is None for r in records)

    def test_seeds_recorded(self, records):
        for r in records:
            assert r.seed == derive_trial_seed(7, r.dim, r.n_generators, r.trial)

    def test_methods_share_trial_seed(self, records):
        by_trial = {}
        for r in records:
            by_trial.setdefault((r.dim, r.n_generators, r.trial), set()).add(r.seed)
        assert all(len(seeds) == 1 for seeds in by_trial.values())

    def test_deterministic_rerun(self, records):
        again = run_experiment(small_config())
        for a, b in zip(records, again):
            assert (a.dim, a.method, a.trial, a.status) == (b.dim, b.method, b.trial, b.status)
            assert a.volume == b.volume
            assert a.objective_value == b.objective_value
            assert a.iterations == b.iterations

    def test_parallel_matches_serial(self, records):
        parallel = run_experiment(small_config(), jobs=2)
        assert len(parallel) == len(records)
        for a, b in zip(records, parallel):
            assert a.volume == b.volume and a.status == b.status

    def test_log_callback(self):
        lines = []
        run_experiment(small_config(grid=[[2, 3, 1]], methods=["sfg+lgv"]), log=lines.append)
        assert len(lines) == 1
        assert "sfg+lgv" in lines[0] and "optimal" in lines[0]

    def test_error_rows_keep_the_exception_text(self, monkeypatch, tmp_path):
        def broken_trial(*args, **kwargs):
            raise RuntimeError("no instance")

        monkeypatch.setattr("zonoinv.experiment.make_trial", broken_trial)
        config = small_config(grid=[[2, 3, 1]], methods=["sfg+lgv"])
        lines = []
        records = run_experiment(config, log=lines.append)
        assert [r.status for r in records] == ["error"]
        assert records[0].error == "RuntimeError('no instance')"
        assert lines == ["[1/1] (2,3) sfg+lgv trial 0: error"]
        paths = write_outputs(config, records, tmp_path / "out")
        with open(paths["trials"], newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == list(CSV_COLUMNS)
        assert "no instance" not in open(paths["trials"]).read()

    def test_csv_header_is_pinned(self):
        # CSV_COLUMNS is derived from the TrialRecord fields; the header stays the one the README documents.
        header = "dim,n_generators,method,trial,seed,status,volume,objective_value,iterations,wall_time,certificate_ok"
        assert ",".join(CSV_COLUMNS) == header
        assert f"`{header}`" in (ROOT / "README.md").read_text(encoding="utf-8")

    def test_volume_ordering_within_trials(self, records):
        # Maximizing log-volume dominates maximizing the scale sum on the
        # same instance (both optimize over the same feasible set).
        by_trial = {}
        for r in records:
            by_trial.setdefault((r.dim, r.n_generators, r.trial), {})[r.method] = r.volume
        for volumes in by_trial.values():
            assert volumes["sfg+lgv"] >= volumes["sfg+ss"] - 1e-7


class TestAggregation:
    def make_records(self):
        rows = []
        volumes = [2.0, 3.0, 10.0, None]
        statuses = ["optimal", "optimal", "optimal", "infeasible"]
        for trial, (v, s) in enumerate(zip(volumes, statuses)):
            rows.append(TrialRecord(
                dim=2, n_generators=3, method="sfg+lgv", trial=trial, seed=trial,
                status=s, volume=v, objective_value=None if v is None else float(np.log(v)),
                iterations=5, wall_time=0.1 * (trial + 1), certificate_ok=v is not None,
            ))
        return rows

    def test_aggregate_matches_manual_stats(self):
        summary = aggregate(self.make_records())
        assert len(summary["cells"]) == 1
        cell = summary["cells"][0]
        assert cell["count"] == 4 and cell["n_optimal"] == 3
        expected_volume = manual_stats([2.0, 3.0, 10.0])
        for key, value in expected_volume.items():
            assert cell["volume"][key] == pytest.approx(value, rel=1e-12)
        expected_runtime = manual_stats([0.1, 0.2, 0.3, 0.4])
        for key, value in expected_runtime.items():
            assert cell["runtime"][key] == pytest.approx(value, rel=1e-12)

    def test_aggregate_empty_optimal(self):
        records = [TrialRecord(
            dim=2, n_generators=3, method="sfg+lgv", trial=0, seed=0,
            status="infeasible", volume=None, objective_value=None,
            iterations=0, wall_time=0.5, certificate_ok=None,
        )]
        cell = aggregate(records)["cells"][0]
        assert cell["n_optimal"] == 0
        assert cell["volume"] is None
        assert cell["runtime"] is not None

    def test_boxplot_summary_fields(self):
        cell = boxplot_summary(self.make_records())["cells"][0]
        box = cell["volume"]
        assert box["median"] == 3.0
        assert box["q1"] == 2.5 and box["q3"] == 6.5
        # 10.0 exceeds q3 + 1.5 iqr = 12.5? No: iqr = 4, cut = 12.5, so it
        # stays a whisker.
        assert box["whisker_high"] == 10.0
        assert box["outliers"] == []


class TestOutputs:
    def test_files_written_and_parse(self, tmp_path):
        config = small_config(grid=[[2, 3, 2]], methods=["sfg+lgv", "utpd+lgv"])
        records = run_experiment(config)
        paths = write_outputs(config, records, tmp_path / "out")
        with open(paths["trials"], newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 1 + len(records)
        volume_col = CSV_COLUMNS.index("volume")
        for row, record in zip(rows[1:], records):
            assert float(row[volume_col]) == record.volume
            assert row[CSV_COLUMNS.index("certificate_ok")] == "true"

        with open(paths["aggregates"]) as handle:
            agg = json.load(handle)
        assert {c["method"] for c in agg["cells"]} == {"sfg+lgv", "utpd+lgv"}

        with open(paths["boxplot"]) as handle:
            box = json.load(handle)
        assert all("volume" in c and "runtime" in c for c in box["cells"])

        tables = open(paths["tables"]).read()
        assert "Instance grid" in tables
        assert "Average optimal volumes" in tables
        assert "Average runtimes" in tables
        # C(3, 2) = 3 term count appears in the grid table.
        assert " 3" in tables.splitlines()[2]

    def test_csv_floats_round_trip_exactly(self, tmp_path):
        config = small_config(grid=[[2, 3, 1]], methods=["sfg+lgv"])
        records = run_experiment(config)
        paths = write_outputs(config, records, tmp_path / "out")
        with open(paths["trials"], newline="") as handle:
            row = list(csv.DictReader(handle))[0]
        assert float(row["volume"]) == records[0].volume
        assert float(row["objective_value"]) == records[0].objective_value

    def test_none_serialized_as_empty(self, tmp_path):
        records = [TrialRecord(
            dim=2, n_generators=3, method="sfg+lgv", trial=0, seed=0,
            status="infeasible", volume=None, objective_value=None,
            iterations=0, wall_time=0.0, certificate_ok=None,
        )]
        config = small_config(grid=[[2, 3, 1]], methods=["sfg+lgv"])
        paths = write_outputs(config, records, tmp_path / "out")
        with open(paths["trials"], newline="") as handle:
            row = list(csv.DictReader(handle))[0]
        assert row["volume"] == "" and row["certificate_ok"] == ""
