"""Span tracing from outside the program, and the per-layer metrics.

While installed, :class:`Tracer` replaces the public functions a solve calls
into with wrappers that record one span per call: name, start, end, parent
span and solve id.  ``solve_invariance`` looks its callees up in the
``solver`` module and the objective methods on the ``Objective`` class, so
patching those attributes sees every call without changing the program.
A layer's self time is its spans' durations minus the time of their child
spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

from zonoinv import parameterizations, solver, sysgen

MAKE_TRIAL = "sysgen.make_trial"
ASSEMBLE = "invariance.assemble"
WARM_START = "invariance.warm_start_point"
CERTIFICATE = "invariance.check_invariance_certificate"
PHASE1 = "solver.phase1_feasible_point"
MAXIMIZE = "solver.maximize"
DERIVS = "parameterizations.Objective.value_grad_hess"
VALUE = "parameterizations.Objective.value"

SOLVE_TARGETS = (
    (solver, "assemble", ASSEMBLE),
    (solver, "warm_start_point", WARM_START),
    (solver, "check_invariance_certificate", CERTIFICATE),
    (solver, "phase1_feasible_point", PHASE1),
    (solver, "maximize", MAXIMIZE),
    (parameterizations.Objective, "value_grad_hess", DERIVS),
    (parameterizations.Objective, "value", VALUE),
)
BUILD_TARGETS = ((sysgen, "make_trial", MAKE_TRIAL),)


class Tracer:
    """In-memory span recorder; spans are ``[name, start, end, parent, solve]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.solve = None
        self._open: list[int] = []

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self._open.append(index)
            span = [name, time.perf_counter(), None, parent, self.solve]
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch ``targets`` (owner, attribute, span name) for the block."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
        try:
            for owner, attr, name in targets:
                setattr(owner, attr, self._wrap(owner.__dict__[attr], name))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        """One JSON object per span; ``parent`` is a line index or null."""
        keys = ("name", "start", "end", "parent", "solve")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(tracer: Tracer, solves: list) -> dict:
    """Per-solve means of the layer metrics.

    ``solves`` holds ``(case, result, nnz)`` for each traced solve; the
    untimed ``nnz`` is the assembled constraint count.  The phase-1
    auxiliary ``maximize`` is part of phase 1, not of the barrier solve.
    """
    n = len(solves)
    own = tracer.self_times()
    self_sum = defaultdict(float)
    calls = defaultdict(int)
    derivs_by_solve = defaultdict(int)
    phase1_total = 0.0
    aux_solves = set()
    for i, (name, start, end, parent, solve_id) in enumerate(tracer.spans):
        under_phase1 = parent is not None and tracer.spans[parent][0] == PHASE1
        if name == PHASE1:
            phase1_total += end - start
        elif name == MAXIMIZE and under_phase1:
            aux_solves.add(solve_id)
            continue
        self_sum[name] += own[i]
        calls[name] += 1
        if name == DERIVS:
            derivs_by_solve[solve_id] += 1

    results = [result for _, result, _ in solves]
    optimal = [r for r in results if r is not None and r.status == solver.OPTIMAL]
    steps = sum(r.iterations - len(r.stage_objectives) for r in optimal)
    # Objective.value runs once per line-search trial point, once per stage
    # and once for the final objective value.
    trials = calls[VALUE] - sum(len(r.stage_objectives) + 1 for r in optimal)
    # Each sfg+lgv derivative call accumulates one term per d-subset.
    terms = sum(
        case.problem.parameterization.weights.count * derivs_by_solve[i]
        for i, (case, _, _) in enumerate(solves)
        if case.method == "sfg+lgv"
    )

    def mean(values):
        return sum(values) / n

    return {
        ("sysgen.make_trial_s", "s"): self_sum[MAKE_TRIAL] / max(calls[MAKE_TRIAL], 1),
        ("invariance.assemble_s", "s"): self_sum[ASSEMBLE] / n,
        ("invariance.assemble_nnz", "count"): mean(nnz for _, _, nnz in solves),
        ("invariance.warm_start_s", "s"): self_sum[WARM_START] / n,
        ("invariance.certificate_s", "s"): self_sum[CERTIFICATE] / n,
        ("solver.phase1_s", "s"): phase1_total / n,
        ("solver.phase1_iters", "count"): mean(r.phase1_iterations for r in results if r is not None),
        ("solver.phase1_aux_frac", "ratio"): len(aux_solves) / n,
        ("solver.maximize_self_s", "s"): self_sum[MAXIMIZE] / n,
        ("solver.newton_iters", "count"): mean(r.iterations for r in results if r is not None),
        ("solver.stages", "count"): mean(len(r.stage_objectives) for r in results if r is not None),
        ("solver.linesearch_accept_ratio", "ratio"): steps / trials if trials > 0 else 0.0,
        ("parameterizations.derivs_s", "s"): self_sum[DERIVS] / n,
        ("parameterizations.derivs_calls", "count"): calls[DERIVS] / n,
        ("parameterizations.derivs_terms", "count"): terms / n,
        ("parameterizations.value_s", "s"): self_sum[VALUE] / n,
        ("parameterizations.value_calls", "count"): calls[VALUE] / n,
    }
