"""Layered solve benchmark for zonoinv.

Usage, from the repository root::

    python3 benchmarks/run.py --workload small_mixed --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

One run builds the workload's instances from ``--seed``, then solves them one
at a time with ``solve_invariance`` for ``--seconds`` seconds and checks every
result with the correctness gate (``checks.py``).  With ``--trace 0`` it
reports the end-to-end metrics, timed with tracing off; with ``--trace 1`` it
solves each instance twice, untraced and traced, requires the two results to
be bitwise equal, reports the per-layer metrics and writes the spans to
``benchmarks/traces/``.  ``--workload all`` runs every workload both ways,
one process per run.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout that holds this file;
without it the run exits with an error before printing a result.
"""

import os
import sys
import time

PROCESS_START = time.perf_counter()
# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("small_mixed", "sfg_terms", "utpd_lifted")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Put this checkout's ``src/`` first on the path and import zonoinv from it."""
    if not (SRC / "zonoinv" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no zonoinv sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import zonoinv

    if Path(zonoinv.__file__).resolve().parent != SRC / "zonoinv":
        raise SystemExit(f"benchmark: imported zonoinv from {zonoinv.__file__}, not {SRC}")


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            print(f"== {name} trace={trace}", flush=True)
            code = subprocess.run([
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]).returncode
            if code != 0:
                return code
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    load_program()
    import harness

    harness.run(args.workload, args.seed, args.seconds, bool(args.trace), time.perf_counter() - PROCESS_START)
    return 0


if __name__ == "__main__":
    sys.exit(main())
