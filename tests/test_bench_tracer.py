"""The benchmark's per-layer tracer still finds the names it wraps.

bench/tracer.py replaces fluidq functions and methods by name; a rename in
fluidq would silently zero its counters. Tracing a tiny run_plan here
makes such a rename fail the test suite instead of the traced benchmark,
tracing a kink-crossing fluid solve bounds its RK4 and RHS work, and
tracing one simulation bounds the memory its trace retains per job.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from fluidq import fluid, measures, scaling, simulate
from fluidq.distributions import Exponential, UniformInterval, UniformMixture
from fluidq.fluid import FluidClass, FluidModelInput, ZeroInitial
from fluidq.scaling import ScalingPlan
from fluidq.simulate import ClassSpec, SimConfig

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_harness_layers():
    original = scaling.corner_mass
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        spec = ClassSpec(Exponential(2.0), Exponential(1.0), Exponential(1.0))
        scaling.run_plan(ScalingPlan(SimConfig((spec,), horizon=1.0, seed=3), (10,), 1))
    finally:
        tracer.uninstall()
    assert scaling.corner_mass is original is measures.corner_mass
    metrics = tracer.metrics(wall_s=1.0, bytes_written=0)
    assert metrics["measures.corner_calls"] > 0
    assert tracer.stats["measures.rect"][0] > 0
    assert metrics["simulate.query_calls"] > 0
    assert metrics["scaling.rows"] > 0


def test_tracer_bounds_kink_solve_work():
    """The fluid_kink model from empty crosses the knots at 0.5 and 1;
    halving the step over the whole horizon took 65,536 final RK4 steps."""
    model = FluidModelInput((
        FluidClass(1.5, 1.0, UniformMixture(((0.5, 0.0, 1.0), (0.5, 2.0, 3.0)))),
        FluidClass(1.0, 2.0, UniformInterval(0.5, 2.5)),
    ))
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        fluid.solve_fluid(model, ZeroInitial(), 3.0)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(wall_s=1.0, bytes_written=0)
    assert 0 < metrics["numerics.rk4_final_steps"] <= 1024
    assert 0 < metrics["fluid.rhs_calls"] <= 10_000
    assert tracer.stats["fluid.solve"][0] > 0


def test_tracer_bounds_trace_bytes_per_job():
    """A trace keeps seven per-job arrays (42 B/job with a one-byte class)
    plus one bound per EXIT_BLOCK jobs; the twelve it used to keep took 89."""
    classes = (ClassSpec(Exponential(2.0), Exponential(1.0), Exponential(1.0)),
               ClassSpec(Exponential(1.0), UniformInterval(0.5, 1.5),
                         UniformInterval(0.0, 2.0)))
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        trace = simulate.run(SimConfig(classes, horizon=2.0, scale=1000, seed=4))
    finally:
        tracer.uninstall()
    arrays = {name for name, value in vars(trace).items() if isinstance(value, np.ndarray)}
    assert arrays == {"t_arr", "cls", "v", "d", "w_before", "served", "cum_idle",
                      "exit_bound"}
    metrics = tracer.metrics(wall_s=1.0, bytes_written=0)
    assert metrics["simulate.jobs"] > 1000
    assert metrics["simulate.trace_bytes_per_job"] <= 42.1
