"""End-to-end tests of the command-line interface via ``main(argv)``."""

import csv
import json
import warnings

import numpy as np
import pytest

from zonoinv.cli import main
from zonoinv.files import write_json
from zonoinv.zonotope import Zonotope, volume_exact


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def feasible_problem_dict():
    return {
        "A": [[0.6, 0.1], [0.0, 0.5]],
        "w": [0.01, -0.02],
        "box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
        "T": 10,
        "parameterization": {"kind": "sfg", "template": [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]},
        "objective": "lgv",
    }


def infeasible_problem_dict():
    return {
        "A": [[0.5]],
        "w": [2.0],
        "box": {"lower": [-1.0], "upper": [1.0]},
        "T": 10,
        "parameterization": {"kind": "sfg", "template": [[1.0]]},
        "objective": "lgv",
    }


class TestSolve:
    def test_optimal_exit_zero_and_json(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        write_json(path, feasible_problem_dict())
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "solve", str(path), "--output", str(out_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "optimal"
        assert payload["certificate_ok"] is True
        assert payload["volume"] > 0
        on_disk = json.loads(out_path.read_text())
        assert on_disk["status"] == "optimal"
        assert on_disk["zonotope"] == payload["zonotope"]

    def test_uncertified_optimum_exit_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("zonoinv.solver.check_invariance_certificate", lambda *args, **kwargs: False)
        path = tmp_path / "p.json"
        write_json(path, feasible_problem_dict())
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "optimal"
        assert payload["certificate_ok"] is False
        assert "invariance certificate" in err

    def test_infeasible_exit_two(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        write_json(path, infeasible_problem_dict())
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert json.loads(out)["status"] == "infeasible"

    def test_time_limit_in_phase1_exit_one_not_two(self, tmp_path, capsys):
        # Feasible, but the midpoint warm start leaves [0, 1] under the drift,
        # so phase 1 runs; cut short by the clock it decides nothing.
        raw = {
            "A": [[1.0]],
            "w": [0.02],
            "box": {"lower": [0.0], "upper": [1.0]},
            "T": 30,
            "parameterization": {"kind": "sfg", "template": [[1.0]], "scale_floor": 1e-8},
            "objective": "lgv",
        }
        path = tmp_path / "p.json"
        write_json(path, raw)
        code, out, err = run_cli(capsys, "solve", str(path), "--time-limit", "1e-9")
        assert code == 1
        assert json.loads(out)["status"] == "max_iterations"
        assert "time limit reached" in err

    def test_schema_error_exit_one_names_field(self, tmp_path, capsys):
        raw = feasible_problem_dict()
        del raw["T"]
        path = tmp_path / "p.json"
        write_json(path, raw)
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 1
        assert "'T'" in err

    def test_huge_horizon_exit_one_names_field(self, tmp_path, capsys):
        raw = feasible_problem_dict()
        raw["T"] = 10**30
        path = tmp_path / "p.json"
        write_json(path, raw)
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and ".T:" in lines[0]

    def test_bad_option_exit_one_names_field(self, tmp_path, capsys):
        # NaN is written and read back by Python's json module.
        path = tmp_path / "p.json"
        for options in ({"time_limit": "abc"}, {"max_newton": 2.5}, {"mu0": float("nan")}):
            raw = feasible_problem_dict()
            raw["options"] = options
            write_json(path, raw)
            code, out, err = run_cli(capsys, "solve", str(path))
            assert code == 1 and out == ""
            assert f"options.{next(iter(options))}" in err
            assert "Traceback" not in err

    def test_bad_time_limit_exit_one_names_flag(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        write_json(path, feasible_problem_dict())
        for value in ("nan", "0", "-2.5"):
            code, out, err = run_cli(capsys, "solve", str(path), "--time-limit", value)
            assert code == 1 and out == ""
            assert "--time-limit" in err

    def test_bad_floor_exit_one_names_field(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        for kind, field in [("sfg", "scale_floor"), ("utpd", "diag_floor")]:
            for value in ("abc", float("nan"), float("inf"), True):
                raw = feasible_problem_dict()
                if kind == "utpd":
                    raw["parameterization"] = {"kind": "utpd"}
                raw["parameterization"][field] = value
                write_json(path, raw)
                code, out, err = run_cli(capsys, "solve", str(path))
                assert code == 1 and out == ""
                assert f"parameterization.{field}" in err
                assert "Traceback" not in err

    def test_missing_file_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "solve", "/nonexistent/problem.json")
        assert code == 1
        assert "error" in err


class TestVolume:
    def test_exact_volume_and_term_count(self, tmp_path, capsys):
        path = tmp_path / "z.json"
        write_json(path, {"center": [0.0, 0.0], "generators": [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]})
        code, out, _ = run_cli(capsys, "volume", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "dim 2, generators 3, volume terms 3"
        reported = float(lines[1].split(":")[1])
        z = Zonotope([0.0, 0.0], [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        assert reported == volume_exact(z) == 12.0

    def test_monte_carlo_flag(self, tmp_path, capsys):
        path = tmp_path / "z.json"
        write_json(path, {"center": [0.0, 0.0], "generators": [[1.0, 0.5], [0.0, 1.0]]})
        code, out, _ = run_cli(capsys, "volume", str(path), "--mc", "20000", "--seed", "5")
        assert code == 0
        mc_line = [line for line in out.splitlines() if line.startswith("monte-carlo")][0]
        estimate = float(mc_line.split()[1])
        assert estimate == pytest.approx(4.0, rel=0.05)


class TestCheck:
    def test_pass_and_fail(self, tmp_path, capsys):
        problem_path = tmp_path / "p.json"
        write_json(problem_path, feasible_problem_dict())
        solve_out = tmp_path / "result.json"
        code, _, _ = run_cli(capsys, "solve", str(problem_path), "--output", str(solve_out))
        assert code == 0

        code, out, _ = run_cli(capsys, "check", str(problem_path), str(solve_out))
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["certificate_ok"] is True
        assert report["sim_violation"] <= 1e-7

        # Inflate the solution so it pokes out of the box: check must fail.
        payload = json.loads(solve_out.read_text())
        z = payload["zonotope"]
        z["generators"] = (2.0 * np.asarray(z["generators"])).tolist()
        bad_path = tmp_path / "bad.json"
        write_json(bad_path, payload)
        code, out, _ = run_cli(capsys, "check", str(problem_path), str(bad_path))
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        assert report["certificate_violation"] > 0

    def test_tolerance_flag(self, tmp_path, capsys):
        # A solution with a small deliberate violation passes only when the
        # certificate would allow it; the certificate gate is fixed at 1e-9,
        # so even a generous --tol cannot mask a real violation.
        problem_path = tmp_path / "p.json"
        write_json(problem_path, feasible_problem_dict())
        bad = {"status": "optimal", "zonotope": {"center": [0.95, 0.0], "generators": [[0.1, 0.0], [0.0, 0.1]]}}
        bad_path = tmp_path / "s.json"
        write_json(bad_path, bad)
        code, out, _ = run_cli(capsys, "check", str(problem_path), str(bad_path), "--tol", "1.0")
        report = json.loads(out)
        assert report["certificate_violation"] > 1e-9
        assert report["pass"] is False
        assert code == 1

    def test_bad_tolerance_exit_one_names_flag(self, tmp_path, capsys):
        # A certified solution: only the malformed --tol can fail the check.
        problem_path = tmp_path / "p.json"
        write_json(problem_path, feasible_problem_dict())
        solve_out = tmp_path / "result.json"
        assert run_cli(capsys, "solve", str(problem_path), "--output", str(solve_out))[0] == 0
        for value in ("nan", "inf", "-1"):
            code, out, err = run_cli(capsys, "check", str(problem_path), str(solve_out), "--tol", value)
            assert code == 1 and out == ""
            assert "--tol" in err
        code, out, _ = run_cli(capsys, "check", str(problem_path), str(solve_out), "--tol", "0")
        assert json.loads(out)["certificate_ok"] is True

    def test_solution_without_zonotope(self, tmp_path, capsys):
        problem_path = tmp_path / "p.json"
        write_json(problem_path, feasible_problem_dict())
        sol_path = tmp_path / "s.json"
        write_json(sol_path, {"status": "infeasible"})
        code, _, err = run_cli(capsys, "check", str(problem_path), str(sol_path))
        assert code == 1
        assert "zonotope" in err


class TestGen:
    def test_gen_solve_check_pipeline(self, tmp_path, capsys):
        gen_path = tmp_path / "gen.json"
        code, out, _ = run_cli(
            capsys, "gen", "--dim", "2", "--generators", "4", "--seed", "3",
            "--output", str(gen_path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["T"] == 30
        assert len(payload["A"]) == 2
        assert len(payload["parameterization"]["template"][0]) == 4
        assert "seed" in payload

        result_path = tmp_path / "result.json"
        code, _, _ = run_cli(capsys, "solve", str(gen_path), "--output", str(result_path))
        assert code == 0
        code, out, _ = run_cli(capsys, "check", str(gen_path), str(result_path))
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_gen_deterministic(self, tmp_path, capsys):
        _, out_a, _ = run_cli(capsys, "gen", "--dim", "3", "--generators", "5", "--seed", "11")
        _, out_b, _ = run_cli(capsys, "gen", "--dim", "3", "--generators", "5", "--seed", "11")
        assert out_a == out_b

    @pytest.mark.parametrize("dt", ["nan", "inf"])
    def test_gen_rejects_non_finite_dt(self, capsys, dt):
        # The step is checked before the matrix exponential sees it, so the
        # message names dt and no numpy warning is raised on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, "gen", "--dim", "2", "--generators", "3", "--dt", dt)
        assert code == 1
        assert err.startswith("error: dt must be a finite positive number")

    def test_gen_utpd_kind(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--dim", "2", "--generators", "2", "--kind", "utpd")
        assert code == 0
        payload = json.loads(out)
        assert payload["parameterization"]["kind"] == "utpd"


class TestExperiment:
    def test_small_grid_end_to_end(self, tmp_path, capsys):
        config = {
            "grid": [[2, 3, 2]],
            "methods": ["sfg+ss", "sfg+lgv"],
            "master_seed": 7,
            "horizon": 8,
        }
        config_path = tmp_path / "config.json"
        write_json(config_path, config)
        out_dir = tmp_path / "run"
        code, out, err = run_cli(
            capsys, "experiment", str(config_path), "--output", str(out_dir), "--quiet"
        )
        assert code == 0
        assert "Instance grid" in out
        assert "4/4 trials optimal" in out
        with open(out_dir / "trials.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        assert all(row["status"] == "optimal" for row in rows)

    def test_requires_output_dir(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        write_json(config_path, {"grid": [[2, 3, 1]], "master_seed": 1})
        code, _, err = run_cli(capsys, "experiment", str(config_path))
        assert code == 1
        assert "output" in err

    def test_seed_override_changes_instances(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        write_json(config_path, {
            "grid": [[2, 3, 1]], "methods": ["sfg+lgv"], "master_seed": 1, "horizon": 8,
        })
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out_dir, seed in zip(dirs, ("1", "2")):
            code, _, _ = run_cli(
                capsys, "experiment", str(config_path), "--output", str(out_dir),
                "--seed", seed, "--quiet",
            )
            assert code == 0
        rows = []
        for out_dir in dirs:
            with open(out_dir / "trials.csv", newline="") as handle:
                rows.append(list(csv.DictReader(handle))[0])
        assert rows[0]["seed"] != rows[1]["seed"]
        assert rows[0]["volume"] != rows[1]["volume"]

    def test_bad_time_limit_exit_one_before_any_trial(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        write_json(config_path, {"grid": [[2, 3, 1]], "methods": ["sfg+lgv"], "master_seed": 1, "horizon": 8})
        for value in ("nan", "0", "-1", "inf"):
            out_dir = tmp_path / f"run{value}"
            code, out, err = run_cli(
                capsys, "experiment", str(config_path), "--output", str(out_dir), "--time-limit", value
            )
            assert code == 1 and out == ""
            assert "--time-limit" in err and "[1/1]" not in err
            assert not out_dir.exists()

    def test_progress_log_on_stderr(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        write_json(config_path, {
            "grid": [[2, 3, 1]], "methods": ["sfg+lgv"], "master_seed": 3, "horizon": 8,
        })
        code, _, err = run_cli(capsys, "experiment", str(config_path), "--output", str(tmp_path / "o"))
        assert code == 0
        assert "[1/1]" in err
