"""One benchmark run: set-up, the closed solve loop, the gate and the report.

Import this module only after ``run.py`` has pinned the BLAS thread count
and put this checkout's ``src/`` first on the import path.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import instances
import tracing
from zonoinv.invariance import assemble
from zonoinv.solver import solve_invariance

TRACE_DIR = Path(__file__).resolve().parent / "traces"
# Set-up (instance build plus warm-up) is repeated and its median reported.
SETUP_REPEATS = 3


def timed_solve(case):
    """``(seconds, result, error)``; a raising solve is a failed attempt."""
    start = time.perf_counter()
    try:
        result, error = solve_invariance(case.problem), None
    except Exception as exc:  # counted by the gate, never dropped
        result, error = None, repr(exc)
    return time.perf_counter() - start, result, error


def closed_loop(groups, workload, seconds):
    """Yield cases group by group until ``seconds`` have passed and at least
    ``workload.min_groups`` whole groups are done; cycles through the pool."""
    deadline = time.perf_counter() + seconds
    for count, group in enumerate(itertools.cycle(groups), 1):
        yield from group
        if count >= workload.min_groups and time.perf_counter() >= deadline:
            return


def same_result(a, b) -> bool:
    """Bitwise equality of status, iterations, ``z``, volume and error."""
    (_, ra, ea), (_, rb, eb) = a, b
    if ra is None or rb is None:
        return ra is rb and ea == eb
    return (
        ra.status == rb.status
        and ra.iterations == rb.iterations
        and np.array_equal(ra.z, rb.z)
        and ra.volume == rb.volume
    )


def set_up(workload, seed, tracer):
    """Build the instance pool and run the warm-up solves, ``SETUP_REPEATS``
    times; returns the last pool and the median set-up seconds."""
    seconds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with tracer.installed(tracing.BUILD_TARGETS) if tracer else contextlib.nullcontext():
            groups = instances.build(workload, seed)
        for problem in instances.warmup_problems(workload, seed):
            solve_invariance(problem)
        seconds.append(time.perf_counter() - start)
    return groups, statistics.median(seconds)


def run_untraced(groups, workload, seconds, gate):
    start = time.perf_counter()
    runs = [(case, *timed_solve(case)) for case in closed_loop(groups, workload, seconds)]
    wall = time.perf_counter() - start
    passed = sum(gate.check(case, result, error) for case, _, result, error in runs)
    times = [elapsed for _, elapsed, _, _ in runs]
    metrics = {
        ("solve_s.p50", "s"): statistics.median(times),
        ("solve_s.p90", "s"): statistics.quantiles(times, n=10, method="inclusive")[-1],
        ("solves_per_s", "1/s"): len(times) / wall,
        ("ok_frac", "ratio"): passed / len(times),
    }
    return metrics, len(times), passed


def run_traced(groups, workload, seconds, gate, tracer):
    solves, passed, plain_total, traced_total = [], 0, 0.0, 0.0
    for case in closed_loop(groups, workload, seconds):
        tracer.solve = len(solves)
        # Alternate which twin runs first, so cache warmth favours neither.
        if tracer.solve % 2:
            plain = timed_solve(case)
        with tracer.installed(tracing.SOLVE_TARGETS):
            traced = timed_solve(case)
        if not tracer.solve % 2:
            plain = timed_solve(case)
        if not same_result(plain, traced):
            raise SystemExit(
                f"benchmark: traced solve {tracer.solve} ({case.method}, cell {case.cell}, "
                f"trial {case.trial}) differs from its untraced twin"
            )
        plain_total += plain[0]
        traced_total += traced[0]
        passed += gate.check(case, traced[1], traced[2])
        solves.append((case, traced[1], assemble(case.problem).C.nnz))
    metrics = tracing.layer_metrics(tracer, solves)
    metrics[("solve_s.traced_mean", "s")] = traced_total / len(solves)
    metrics[("trace_overhead", "ratio")] = traced_total / plain_total
    return metrics, len(solves), passed


def run(workload_name: str, seed: int, seconds: float, trace: bool, import_s: float) -> None:
    """Run one workload and print the report; the last line is the result JSON."""
    workload = instances.WORKLOADS[workload_name]
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.solve = "build"
    groups, setup_s = set_up(workload, seed, tracer)

    gate = checks.Gate()
    if tracer:
        metrics, attempted, passed = run_traced(groups, workload, seconds, gate, tracer)
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"{workload.name}-seed{seed}.jsonl"
        tracer.write(trace_path)
    else:
        metrics, attempted, passed = run_untraced(groups, workload, seconds, gate)
        metrics[("setup_s", "s")] = import_s + setup_s
        metrics[("peak_rss_mb", "MB")] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"# workload {workload.name} seed {seed} seconds {seconds:g} trace {int(trace)} solves {attempted}")
    print(f"# python {platform.python_version()} numpy {np.__version__} scipy {scipy.__version__} "
          f"nproc {len(os.sched_getaffinity(0))} blas_threads {os.environ.get('OPENBLAS_NUM_THREADS')}")
    if tracer:
        print(f"# spans written to {trace_path}")
    for (name, unit), value in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    for failure in gate.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": passed == attempted,
        "attempted": attempted,
        "failed": attempted - passed,
        "metrics": {name: {"value": value, "unit": unit} for (name, unit), value in metrics.items()},
    }))
