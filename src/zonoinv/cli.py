"""Command-line interface.

Subcommands::

    zonoinv solve      PROBLEM.json            one maximization, result JSON on stdout
    zonoinv experiment CONFIG.json             full benchmark grid, files in an output dir
    zonoinv volume     ZONOTOPE.json [--mc N]  exact volume (plus Monte-Carlo cross-check)
    zonoinv check      PROBLEM.json SOLUTION.json   certificate + simulation re-check
    zonoinv gen        --dim D --generators P  emit a random problem instance

Exit codes: 0 success (solve: optimal and certified; check: both checks
pass), 2 infeasible problem, 1 anything else, including an optimum that fails
its invariance certificate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .errors import ZonoinvError
from .experiment import load_config, run_experiment, render_tables, write_outputs
from .files import (
    load_problem,
    load_solution_zonotope,
    load_zonotope,
    problem_to_dict,
    result_to_dict,
    write_json,
)
from .invariance import CERTIFICATE_TOL, certificate_violation
from .oracle import mc_volume, simulate_invariance
from .solver import INFEASIBLE, OPTIMAL, SolverOptions, solve_invariance
from .sysgen import DEFAULT_DT, DEFAULT_HORIZON, TrialSpec, derive_trial_seed, make_trial
from .zonotope import volume_exact

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zonoinv",
        description="Maximum-volume invariant zonotopes for discrete-time affine dynamics in a box.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem file")
    p_solve.add_argument("problem", help="problem JSON path")
    p_solve.add_argument("--output", help="also write the result JSON here")
    p_solve.add_argument("--time-limit", type=float, default=None, help="wall-clock budget in seconds")

    p_exp = sub.add_parser("experiment", help="run a benchmark grid from a config file")
    p_exp.add_argument("config", help="experiment config JSON path")
    p_exp.add_argument("--output", help="output directory (overrides the config)")
    p_exp.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p_exp.add_argument("--seed", type=int, default=None, help="override the config master seed")
    p_exp.add_argument("--time-limit", type=float, default=None, help="per-trial budget in seconds")
    p_exp.add_argument("--quiet", action="store_true", help="suppress per-trial progress on stderr")

    p_vol = sub.add_parser("volume", help="exact volume of a zonotope file")
    p_vol.add_argument("zonotope", help="zonotope JSON path")
    p_vol.add_argument("--mc", type=int, default=None, metavar="N",
                       help="also estimate by Monte-Carlo with N samples (dim <= 4)")
    p_vol.add_argument("--seed", type=int, default=0, help="Monte-Carlo seed (default 0)")

    p_check = sub.add_parser("check", help="re-check a solution against its problem")
    p_check.add_argument("problem", help="problem JSON path")
    p_check.add_argument("solution", help="solution JSON path (solve output)")
    p_check.add_argument("--tol", type=float, default=1e-7,
                         help="max tolerated simulated violation (default 1e-7)")

    p_gen = sub.add_parser("gen", help="emit a random problem instance")
    p_gen.add_argument("--dim", type=int, required=True, help="state dimension")
    p_gen.add_argument("--generators", type=int, required=True, help="generator count")
    p_gen.add_argument("--trial", type=int, default=0, help="trial index (default 0)")
    p_gen.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p_gen.add_argument("--kind", choices=("sfg", "utpd"), default="sfg", help="parameterization")
    p_gen.add_argument("--objective", choices=("ss", "slgs", "lgv"), default="lgv")
    p_gen.add_argument("--dt", type=float, default=DEFAULT_DT, help="discretization step")
    p_gen.add_argument("--horizon", type=int, default=DEFAULT_HORIZON, help="invariance horizon")
    p_gen.add_argument("--output", help="write the problem here instead of stdout")

    return parser


def _emit(payload: dict, output_path: str | None) -> None:
    text = json.dumps(payload, indent=2)
    print(text)
    if output_path:
        write_json(output_path, payload)


def _check_flag(flag: str, value, *, zero_ok: bool = False) -> None:
    """Reject a number given to ``flag`` that is not finite and above zero
    (at least zero with ``zero_ok``), before anything runs; None (the flag
    not given) passes."""
    if value is None or (math.isfinite(value) and (value >= 0.0 if zero_ok else value > 0.0)):
        return
    raise ZonoinvError(f"{flag} must be a finite number {'>=' if zero_ok else '>'} 0, got {value!r}")


def _cmd_solve(args) -> int:
    _check_flag("--time-limit", args.time_limit)
    problem, options, _ = load_problem(args.problem)
    if options is None:
        options = SolverOptions()
    if args.time_limit is not None:
        options = dataclasses.replace(options, time_limit=args.time_limit)
    result = solve_invariance(problem, options)
    _emit(result_to_dict(result), args.output)
    if result.status == OPTIMAL:
        if result.certificate_ok:
            return 0
        print("solve reached optimality but failed the reach-set invariance certificate "
              "(certificate_ok: false)", file=sys.stderr)
        return 1
    if result.status == INFEASIBLE:
        return 2
    print(f"solve did not reach optimality: {result.status} ({result.message})", file=sys.stderr)
    return 1


def _cmd_experiment(args) -> int:
    _check_flag("--time-limit", args.time_limit)
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    if args.time_limit is not None:
        config = dataclasses.replace(config, time_limit=args.time_limit)
    out_dir = args.output or config.output_dir
    if not out_dir:
        print("no output directory: set 'output_dir' in the config or pass --output", file=sys.stderr)
        return 1
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 1
    log = None if args.quiet else (lambda line: print(line, file=sys.stderr, flush=True))
    records = run_experiment(config, jobs=args.jobs, log=log)
    paths = write_outputs(config, records, out_dir)
    print(render_tables(config, records), end="")
    n_optimal = sum(1 for r in records if r.status == OPTIMAL)
    print(f"\n{n_optimal}/{len(records)} trials optimal; outputs in {out_dir}:")
    for name in ("trials", "aggregates", "boxplot", "tables"):
        print(f"  {paths[name]}")
    return 0


def _cmd_volume(args) -> int:
    zonotope = load_zonotope(args.zonotope)
    volume = volume_exact(zonotope)
    terms = math.comb(zonotope.n_generators, zonotope.dim)
    print(f"dim {zonotope.dim}, generators {zonotope.n_generators}, volume terms {terms}")
    print(f"exact volume: {volume!r}")
    if args.mc is not None:
        estimate, stderr = mc_volume(zonotope, args.mc, args.seed)
        print(f"monte-carlo:  {estimate!r} +- {stderr!r} ({args.mc} samples, seed {args.seed})")
    return 0


def _cmd_check(args) -> int:
    _check_flag("--tol", args.tol, zero_ok=True)
    problem, _, _ = load_problem(args.problem)
    zonotope = load_solution_zonotope(args.solution)
    cert_violation = certificate_violation(problem.system, problem.box, problem.horizon, zonotope)
    certificate_ok = cert_violation <= CERTIFICATE_TOL
    violation, t_step, coord = simulate_invariance(
        problem.system, problem.box, problem.horizon, zonotope
    )
    ok = certificate_ok and violation <= args.tol
    print(json.dumps({
        "certificate_ok": certificate_ok,
        "certificate_violation": cert_violation,
        "sim_violation": violation,
        "sim_time": t_step,
        "sim_coordinate": coord,
        "pass": ok,
    }, indent=2))
    return 0 if ok else 1


def _cmd_gen(args) -> int:
    spec = TrialSpec(args.dim, args.generators, args.trial, args.seed,
                     dt=args.dt, horizon=args.horizon)
    problem = make_trial(spec, args.kind, args.objective)
    seed = derive_trial_seed(args.seed, args.dim, args.generators, args.trial)
    _emit(problem_to_dict(problem, seed=seed), args.output)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "experiment": _cmd_experiment,
        "volume": _cmd_volume,
        "check": _cmd_check,
        "gen": _cmd_gen,
    }
    try:
        return handlers[args.command](args)
    except ZonoinvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
