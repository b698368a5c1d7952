"""Per-layer tracing from outside the program: timing wrappers on fluidq's public names.

``Tracer.install`` replaces each traced function or method with a wrapper,
everywhere fluidq holds a reference to it (``scaling`` imports ``run``,
``corner_mass``, ``rect_distance`` and ``solve_fluid`` by name, for
instance), and ``uninstall`` puts the originals back.

Every wrapper keeps a call count, inclusive time and self time (its time
minus the time of traced calls made inside it). Boundary calls, which run a
handful of times per workload, also record a span (name, start, end,
parent span). Hot callables (``load_survival``, ``Distribution.sample``,
``eval_box``, the trace queries) record no spans, which keeps the overhead
bounded: ``load_survival`` runs about 10^6 times on fluid_kink.
"""
from __future__ import annotations

import time
from collections import Counter

import numpy as np

import fluidq
from fluidq import cli, distributions, fluid, measures, numerics, scaling, simulate

FUNCTIONALS = ("eval_fluid", "fluid_queue_length", "fluid_nonabandoning",
               "fluid_abandoning", "fluid_age_count", "residual_deadline_limit",
               "invariant_state")
QUERIES = ("snapshot", "queue_lengths", "residual_deadline_measures",
           "age_count", "workload_at", "idle_at")


def _count_variates(counts, args, result):
    counts["variates"] += int(np.size(result))


def _count_trace(counts, args, trace):
    counts["jobs"] += len(trace.t_arr)
    counts["trace_bytes"] += sum(a.nbytes for a in vars(trace).values()
                                 if isinstance(a, np.ndarray))


def _count_rk4_pass(counts, args, result):
    counts["rk4_steps"] += int(args[3])


def _count_rk4_final(counts, args, result):
    counts["rk4_final_steps"] += len(result[0]) - 1


def _count_atoms(counts, args, result):
    counts["atoms_scanned"] += len(args[0])


def _count_rows(counts, args, report):
    counts["rows"] += len(report.rows)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []         # [name, start, end, parent index]
        self.stats: dict[str, list] = {}    # name -> [calls, inclusive s, self s]
        self.counts: Counter = Counter()
        self._stack: list[list] = []        # open calls: [enclosing span, child s]
        self._depth: Counter = Counter()
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, span=False, count=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, depth, spans, counts = self._stack, self._depth, self.spans, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [stack[-1][0] if stack else -1, 0.0]
            if span:
                index = len(spans)
                spans.append([name, 0.0, 0.0, frame[0]])
                frame[0] = index
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                depth[name] -= 1
                stat[0] += 1
                if not depth[name]:     # nested calls of one name count once
                    stat[1] += took
                stat[2] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if span:
                    spans[index][1:3] = [start, start + took]
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def _patch_function(self, module, attr, name, **kw):
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, **kw)
        for mod in (fluidq, cli, distributions, fluid, measures, numerics, scaling, simulate):
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr, name, **kw):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, **kw))

    def install(self) -> None:
        f = self._patch_function
        self._patch_method(distributions.Distribution, "sample", "distributions.sample",
                           count=_count_variates)
        f(simulate, "run", "simulate.run", span=True, count=_count_trace)
        for attr in QUERIES:
            self._patch_method(simulate.SimTrace, attr, "simulate.query")
        f(fluid, "solve_fluid", "fluid.solve", span=True)
        f(fluid, "solve_workload", "fluid.solve", span=True)
        f(fluid, "equilibrium_band", "fluid.band", span=True)
        self._patch_method(fluid.FluidModelInput, "load_survival", "fluid.rhs")
        for attr in FUNCTIONALS:
            f(fluid, attr, "fluid.functional")
        f(numerics, "rk4_validated", "numerics.rk4", span=True, count=_count_rk4_final)
        f(numerics, "rk4_path", "numerics.rk4_pass", count=_count_rk4_pass)
        f(numerics, "integrate", "numerics.quad")
        f(numerics, "bisect_leftmost", "numerics.bisect")
        f(measures, "corner_mass", "measures.corner", count=_count_atoms)
        f(measures, "rect_distance", "measures.rect")
        f(measures, "eval_box", "measures.box")
        f(scaling, "run_plan", "scaling.run_plan", span=True, count=_count_rows)
        f(cli, "main", "cli.main", span=True)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self, wall_s: float, bytes_written: int) -> dict[str, float]:
        """Per-layer metrics, by name, for one traced operation."""
        def stat(name):
            return self.stats.get(name, [0, 0.0, 0.0])

        def per(num, den, unit=1.0):
            return num / den * unit if den else 0.0

        c = self.counts
        sample, run = stat("distributions.sample"), stat("simulate.run")
        query, functional = stat("simulate.query"), stat("fluid.functional")
        rk4, quad, bisect = stat("numerics.rk4"), stat("numerics.quad"), stat("numerics.bisect")
        corner, plan, main = stat("measures.corner"), stat("scaling.run_plan"), stat("cli.main")
        return {
            "distributions.sample_s": sample[1],
            "distributions.variates": c["variates"],
            "distributions.ns_per_variate": per(sample[1], c["variates"], 1e9),
            "distributions.variates_per_job": per(c["variates"], c["jobs"]),
            "simulate.self_s": run[2],
            "simulate.jobs": c["jobs"],
            "simulate.ns_per_job": per(run[2], c["jobs"], 1e9),
            "simulate.trace_bytes_per_job": per(c["trace_bytes"], c["jobs"]),
            "simulate.query_s": query[1],
            "simulate.query_calls": query[0],
            "fluid.solve_s": stat("fluid.solve")[1],
            "fluid.band_s": stat("fluid.band")[1],
            "fluid.band_calls": stat("fluid.band")[0],
            "fluid.rhs_calls": stat("fluid.rhs")[0],
            "fluid.functional_calls": functional[0],
            "fluid.us_per_functional": per(functional[1], functional[0], 1e6),
            "numerics.rk4_steps": c["rk4_steps"],
            "numerics.rk4_final_steps": c["rk4_final_steps"],
            "numerics.rk4_s": rk4[1],
            "numerics.quad_calls": quad[0],
            "numerics.quad_s": quad[1],
            "numerics.bisect_calls": bisect[0],
            "numerics.bisect_s": bisect[1],
            "measures.corner_calls": corner[0],
            "measures.corner_s": corner[1],
            "measures.atoms_scanned": c["atoms_scanned"],
            "measures.rect_s": stat("measures.rect")[1],
            "measures.box_evals": stat("measures.box")[0],
            "scaling.run_plan_s": plan[1],
            "scaling.self_s": plan[2],
            "scaling.rows": c["rows"],
            "cli.main_s": main[1],
            "cli.self_s": main[2],
            "cli.bytes_written": bytes_written,
            "trace.wall_s": wall_s,
        }
