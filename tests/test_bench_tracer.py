"""The benchmark's per-layer tracer still finds the names it wraps.

bench/tracer.py replaces fluidq functions and methods by name; a rename in
fluidq would silently zero its counters. Tracing a tiny run_plan here
makes such a rename fail the test suite instead of the traced benchmark,
tracing a kink-crossing fluid solve bounds its nodes and load evaluations,
tracing fluid_kink's command counts its band bisections, and tracing one
simulation bounds the memory its trace retains per job. A
tiny simulate_large run through bench/workloads.py, traced and checked,
keeps the calls that workload makes working.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

from fluidq import fluid, measures, scaling, simulate
from fluidq.distributions import Exponential, UniformInterval, UniformMixture
from fluidq.fluid import FluidClass, FluidModelInput, ZeroInitial
from fluidq.scaling import ScalingPlan
from fluidq.simulate import ClassSpec, SimConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_harness_layers():
    original = scaling.corner_mass
    tracer = load_bench("tracer").Tracer()
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
    # run_plan reads the stream (simulate.readings), not a trace's queries
    assert metrics["simulate.query_calls"] == 0
    assert metrics["scaling.rows"] > 0
    # the plan's one fluid model serves the rectangle grid and the targets
    assert metrics["fluid.band_calls"] == 1


def test_tracer_bounds_kink_solve_work():
    """The fluid_kink model from empty crosses the knots at 0.5 and 1. RK4
    with step halving took 512 final steps and 3,530 load evaluations; the
    time-to-level integral takes 250 level nodes and 69 array evaluations of
    the load, most of them the band's bisection, and no RK4 step."""
    model = FluidModelInput((
        FluidClass(1.5, 1.0, UniformMixture(((0.5, 0.0, 1.0), (0.5, 2.0, 3.0)))),
        FluidClass(1.0, 2.0, UniformInterval(0.5, 2.5)),
    ))
    tracer = load_bench("tracer").Tracer()
    tracer.install()
    try:
        solution = fluid.solve_fluid(model, ZeroInitial(), 3.0)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(wall_s=1.0, bytes_written=0)
    assert metrics["numerics.rk4_final_steps"] == 0
    assert 0 < metrics["fluid.rhs_calls"] <= 100
    assert len(solution.workload.knot_times) == 2
    assert solution.workload.node_count <= 300
    assert tracer.stats["fluid.solve"][0] > 0


def test_traced_fluid_kink_bisects_the_band_once(tmp_path):
    """The fluid_kink workload's `fluidq fluid` run reads the band from its
    model four times (the command, the solve, both band-edge invariant
    states) and bisects it once."""
    kink = load_bench("workloads").FluidKink
    inputs = kink.setup(1, True, str(tmp_path))
    tracer = load_bench("tracer").Tracer()
    tracer.install()
    try:
        result = kink.operate(inputs)
    finally:
        tracer.uninstall()
    assert result["exit_code"] == 0
    assert tracer.metrics(wall_s=1.0, bytes_written=0)["fluid.band_calls"] == 1


def test_tracer_bounds_trace_bytes_per_job():
    """A trace keeps five per-job arrays (26 B/job with a one-byte class)
    plus the idleness, the workload found and an exit bound per EXIT_BLOCK
    jobs; the twelve per-job arrays it used to keep took 89, seven with the
    idleness per job 42, and six with the workload found per job 34."""
    classes = (ClassSpec(Exponential(2.0), Exponential(1.0), Exponential(1.0)),
               ClassSpec(Exponential(1.0), UniformInterval(0.5, 1.5),
                         UniformInterval(0.0, 2.0)))
    tracer = load_bench("tracer").Tracer()
    tracer.install()
    try:
        trace = simulate.run(SimConfig(classes, horizon=2.0, scale=1000, seed=4))
    finally:
        tracer.uninstall()
    arrays = {name for name, value in vars(trace).items() if isinstance(value, np.ndarray)}
    assert arrays == {"t_arr", "cls", "v", "d", "served", "block_idle", "block_w",
                      "exit_bound"}
    metrics = tracer.metrics(wall_s=1.0, bytes_written=0)
    assert metrics["simulate.jobs"] > 1000
    assert metrics["simulate.trace_bytes_per_job"] <= 26.1


def test_simulate_large_workload_runs_traced_and_passes_its_checks(tmp_path):
    large = load_bench("workloads").SimulateLarge
    inputs = large.setup(1, True, str(tmp_path))
    tracer = load_bench("tracer").Tracer()
    tracer.install()
    try:
        result = large.operate(inputs)
    finally:
        tracer.uninstall()
    checks, _ = large.check(inputs, result, False)
    assert set(checks) == set(large.check_names(inputs))
    # At the tiny scale (n = 1e3) seed 1's workload reads 1.328 at t = 0 and
    # 1.260 at t = 1.5, a fall of replication noise beyond that check's 0.05
    # slack; the benchmark's self-test (seed 1, tiny) fails it the same way.
    # Every other check must pass.
    failed = {name for name, (ok, _) in checks.items() if not ok}
    assert failed <= {"workload_not_falling"}
    # four traced queries per query time: snapshot, queue_lengths,
    # residual_deadline_measures and workload_at
    metrics = tracer.metrics(wall_s=1.0, bytes_written=0)
    assert metrics["simulate.query_calls"] == 4 * len(inputs.query_times) == 20
