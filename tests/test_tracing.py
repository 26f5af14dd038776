"""The benchmark's span tracer patches program functions by name; these tests
pin the names and attributes it relies on, which only its ``--trace 1`` runs
would otherwise reach."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from zonoinv import solver
from zonoinv.invariance import assemble
from zonoinv.sysgen import TrialSpec, make_trial


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind", ["sfg", "utpd"])
def test_traced_solve_covers_every_target_and_equals_its_twin(kind):
    tracing = load_tracing()
    problem = make_trial(TrialSpec(3, 6, 0, 20260815), kind, "lgv")
    plain = solver.solve_invariance(problem)
    tracer = tracing.Tracer()
    with tracer.installed(tracing.SOLVE_TARGETS):
        traced = solver.solve_invariance(problem)
    assert {span[0] for span in tracer.spans} == {name for _, _, name in tracing.SOLVE_TARGETS}
    assert traced.status == plain.status == solver.OPTIMAL
    assert traced.iterations == plain.iterations
    assert np.array_equal(traced.z, plain.z)
    assert traced.volume == plain.volume
    assert assemble(problem).C.nnz > 0
