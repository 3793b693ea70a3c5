"""Spans around the calls into each uavwpt module, recorded from outside.

``traced()`` swaps timing wrappers in for the module attributes the sweep
looks up at call time and puts the originals back on exit; no program file
is changed.  Each span accumulates its call count, total time and the time
its child spans covered, so self time = total - children.  The spans inside
the kernel wrap ``uavwpt._kernels._ref``'s own functions and therefore exist
only on the pure-numpy backend; on another backend they stay at zero calls.
"""

import contextlib
import importlib
import time

import numpy as np

# (span name, module, attribute): every place the sweep resolves a layer.
_SITES = (
    ("cli.run_cell", "uavwpt.cli", "run_cell"),
    ("channel.trial_rng", "uavwpt.cli", "trial_rng"),
    ("channel.draw_topology", "uavwpt.cli", "draw_topology"),
    ("channel.draw_channel", "uavwpt.cli", "draw_channel"),
    ("emwt.run_emwt", "uavwpt.cli", "run_emwt"),
    ("beamform.mrt_set", "uavwpt.emwt", "mrt_set"),
    ("beamform.input_power", "uavwpt.emwt", "input_power"),
    ("eh_model.harvest", "uavwpt.emwt", "harvest"),
    ("solver.solve_power_allocation", "uavwpt.emwt", "solve_power_allocation"),
    ("kernels.solve_pga", "uavwpt._kernels", "solve_pga"),
    ("kernels.dual_objective_grad", "uavwpt._kernels._ref", "dual_objective_grad"),
    ("kernels.dual_objective", "uavwpt._kernels._ref", "dual_objective"),
    ("kernels.project_simplex", "uavwpt._kernels._ref", "project_simplex"),
    ("kernels.kkt_residual", "uavwpt._kernels._ref", "kkt_residual"),
)


class Span:
    __slots__ = ("calls", "total_ns", "child_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.child_ns = 0

    @property
    def self_ns(self):
        return self.total_ns - self.child_ns


class Tracer:
    """In-memory span totals plus the per-solve records of ``solve_pga``."""

    def __init__(self):
        self.spans = {name: Span() for name, _, _ in _SITES}
        self.solve_iterations = []  # iterations of each solve with budget > 0
        self.budgeted_ns = 0        # time of those solves
        self._open = []             # child time accumulated by each open span

    def _wrap(self, name, fn):
        span = self.spans[name]
        stack = self._open
        clock = time.perf_counter_ns
        on_solve = self._on_solve if name == "kernels.solve_pga" else None

        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                span.calls += 1
                span.total_ns += elapsed
                span.child_ns += stack.pop()
                if stack:
                    stack[-1] += elapsed
            if on_solve is not None:
                on_solve(args, out, elapsed)
            return out

        return wrapper

    def _on_solve(self, args, out, elapsed):
        # solve_pga(h, dw, sigma2, budget, ...) -> (p, objective, iterations, kkt, converged)
        if args[3] > 0.0:
            self.solve_iterations.append(int(out[2]))
            self.budgeted_ns += elapsed

    @contextlib.contextmanager
    def traced(self):
        saved = []
        try:
            for name, module_name, attr in _SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def metrics(self, trials):
        """Per-layer figures over ``trials`` traced trials: name -> (value, unit)."""
        s = self.spans

        def per(ns, count):
            return ns / count / 1e3 if count else 0.0

        def mean_us(name):
            return per(s[name].total_ns, s[name].calls)

        solves = len(self.solve_iterations)
        iters = np.asarray(self.solve_iterations or [0])
        grad_calls = s["kernels.dual_objective_grad"].calls
        obj_calls = s["kernels.dual_objective"].calls
        pga = s["kernels.solve_pga"]
        return {
            "channel.trial_rng.us_per_call": (mean_us("channel.trial_rng"), "us"),
            "channel.draw_topology.us_per_call": (mean_us("channel.draw_topology"), "us"),
            "channel.draw_channel.us_per_call": (mean_us("channel.draw_channel"), "us"),
            "beamform.mrt_set.us_per_call": (mean_us("beamform.mrt_set"), "us"),
            "beamform.input_power.us_per_call": (mean_us("beamform.input_power"), "us"),
            "eh_model.harvest.us_per_call": (mean_us("eh_model.harvest"), "us"),
            "emwt.run_emwt.self_us_per_call": (
                per(s["emwt.run_emwt"].self_ns, s["emwt.run_emwt"].calls), "us"),
            "solver.solve_power_allocation.self_us_per_call": (
                per(s["solver.solve_power_allocation"].self_ns,
                    s["solver.solve_power_allocation"].calls), "us"),
            "cli.run_cell.self_us_per_trial": (per(s["cli.run_cell"].self_ns, trials), "us"),
            "solver.budgeted_solves_per_trial": (solves / trials, "ratio"),
            "kernels.solve_pga.us_per_solve": (per(self.budgeted_ns, solves), "us"),
            "kernels.solve_pga.self_us_per_call": (per(pga.self_ns, pga.calls), "us"),
            "kernels.solve_pga.us_per_iter": (per(self.budgeted_ns, int(iters.sum())), "us"),
            "kernels.dual_objective_grad.us_per_call": (
                mean_us("kernels.dual_objective_grad"), "us"),
            "kernels.dual_objective.us_per_call": (mean_us("kernels.dual_objective"), "us"),
            "kernels.project_simplex.us_per_call": (mean_us("kernels.project_simplex"), "us"),
            "kernels.kkt_residual.us_per_call": (mean_us("kernels.kkt_residual"), "us"),
            "kernels.solve_pga.iters_p50": (
                float(np.percentile(iters, 50, method="inverted_cdf")), "count"),
            "kernels.solve_pga.iters_p99": (
                float(np.percentile(iters, 99, method="inverted_cdf")), "count"),
            "kernels.dual_objective_grad.calls_per_solve": (
                grad_calls / solves if solves else 0.0, "count"),
            "kernels.dual_objective.calls_per_solve": (
                obj_calls / solves if solves else 0.0, "count"),
            # Each accepted step costs one gradient call on top of the first.
            "kernels.solve_pga.accepted_per_eval": (
                (grad_calls - solves) / obj_calls if obj_calls else 0.0, "ratio"),
        }
