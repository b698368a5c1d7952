"""Acceptance gate: one test per release criterion, in order.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion. Statistical checks pin their seeds and replication counts, so
every assertion here is reproducible bit for bit.
"""
from __future__ import annotations

import csv
import json
import math
import time

import numpy as np
import pytest

from fluidq.cli import main as cli_main
from fluidq.distributions import Exponential, Replay, UniformInterval, UniformMixture
from fluidq.fluid import (FluidClass, FluidModelInput, InvariantInitial,
                          ZeroInitial, equilibrium_band, eval_fluid,
                          fluid_abandoning, fluid_age_count,
                          fluid_nonabandoning, fluid_queue_length,
                          invariant_state, solve_fluid, solve_workload)
from fluidq.measures import Box, evolve, upper_right
from fluidq.scaling import ScalingPlan, corner_regularity_probe, run_plan
from fluidq.simulate import ClassSpec, SimConfig, WarmStart, run

LN2 = math.log(2.0)


def markov_model() -> FluidModelInput:
    return FluidModelInput((FluidClass(2.0, 1.0, Exponential(1.0)),))


def markov_config(**kwargs) -> SimConfig:
    spec = ClassSpec(interarrival=Exponential(2.0), service=Exponential(1.0),
                     deadline=Exponential(1.0))
    return SimConfig(classes=(spec,), **kwargs)


@pytest.fixture(scope="module")
def limit_report():
    """Empty-start convergence experiment shared by the statistical checks."""
    plan = ScalingPlan(base=markov_config(horizon=6.0, seed=2),
                       scales=(10, 100, 1000), replications=5)
    start = time.perf_counter()
    report = run_plan(plan, c_grid=(0.0, 0.5, 1.0))
    return report, time.perf_counter() - start


def test_01_workload_ode_matches_closed_form_quickly():
    model = markov_model()
    ts = np.linspace(0.0, 10.0, 501)
    start = time.perf_counter()
    worst = 0.0
    for w0 in (0.0, 2.0):
        path = solve_workload(model, w0, 10.0)
        exact = np.log(2.0 - (2.0 - math.exp(w0)) * np.exp(-ts))
        worst = max(worst, float(np.max(np.abs(path.at(ts) - exact))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 1.0


def test_02_equilibrium_band_examples():
    cases = [
        (Exponential(1.0), LN2, LN2),
        (UniformInterval(0.0, 2.0), 1.0, 1.0),
        (UniformMixture(((0.5, 0.0, 1.0), (0.5, 2.0, 3.0))), 1.0, 2.0),
    ]
    for deadline, want_l, want_u in cases:
        model = FluidModelInput((FluidClass(2.0, 1.0, deadline),))
        w_l, w_u = equilibrium_band(model)
        assert w_l == pytest.approx(want_l, abs=1e-9)
        assert w_u == pytest.approx(want_u, abs=1e-9)
        assert w_u < model.d_max


def test_03_invariant_start_is_time_invariant():
    model = markov_model()
    state = invariant_state(model, LN2)
    assert state.queue_length(0) == pytest.approx(1.0, abs=1e-9)
    assert state.nonabandoning(0) == pytest.approx(LN2, abs=1e-9)
    solution = solve_fluid(model, InvariantInitial(LN2), T=5.0)
    xs = np.linspace(0.0, LN2, 6)
    ys = np.linspace(0.0, LN2 + 3.0, 6)
    grid = [Box(float(xs[i]), float(xs[i + 1]), float(ys[j]), float(ys[j + 1]))
            for i in range(5) for j in range(5)]
    for t in (0.0, 0.5, 1.0, 2.0, 5.0):
        for box in grid:
            assert eval_fluid(solution, 0, t, box) == pytest.approx(
                state.measure(0, box), abs=1e-8)


def test_04_mass_conservation_identities():
    model = markov_model()
    solutions = [solve_fluid(model, ZeroInitial(), T=6.0),
                 solve_fluid(model, InvariantInitial(LN2), T=6.0)]
    for solution in solutions:
        for t in np.linspace(0.0, 6.0, 50):
            t = float(t)
            z = fluid_queue_length(solution, 0, t)
            n = fluid_nonabandoning(solution, 0, t)
            a = fluid_abandoning(solution, 0, t)
            assert z == pytest.approx(n + a, abs=1e-9)
            assert fluid_age_count(solution, 0, t, 0.0) == pytest.approx(
                z, abs=1e-9)


def test_05_frontier_inverse_consistency():
    model = markov_model()
    for w0 in (0.0, LN2):
        path = solve_workload(model, w0, 6.0)
        for t in np.linspace(w0, 6.0, 100):
            t = float(t)
            s = path.tau(t)
            assert abs(path(s) + s - t) <= 1e-8


def test_06_fluid_support_edge_tracks_workload():
    solution = solve_fluid(markov_model(), ZeroInitial(), T=5.0)
    path = solution.workload
    for t in (0.5, 1.0, 2.0, 5.0):
        lo, hi = 0.0, path(t) + 1.0
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if eval_fluid(solution, 0, t, upper_right(mid, 0.0)) > 1e-12:
                lo = mid
            else:
                hi = mid
        assert lo == pytest.approx(path(t), abs=1e-6)


def test_07_simulator_reproduces_hand_trace():
    spec = ClassSpec(interarrival=Replay((1.0, 1.0, 1.0)),
                     service=Replay((5.0, 5.0, 5.0)),
                     deadline=Replay((10.0, 2.0, 3.0)))
    trace = run(SimConfig(classes=(spec,), horizon=7.0))
    jobs = trace.jobs()
    assert [j.virtual_sojourn for j in jobs] == [5.0, 4.0, 3.0]
    assert sorted(j.exit_time for j in jobs) == [4.0, 6.0, 6.0]
    assert [j.served for j in jobs] == [True, False, False]
    assert trace.queue_lengths(3.5)[0].total == 3
    # residual coordinates follow the job records: the abandoning job that
    # found 4 units of work ahead sits at (4 - 1.5, 2 - 1.5) = (2.5, 0.5)
    atoms = sorted(trace.snapshot(3.5)[0].atoms())
    assert atoms == [(2.5, 0.5), (2.5, 2.5), (2.5, 12.5)]


def test_08_snapshot_dynamics_match_measure_evolution():
    trace = run(markov_config(horizon=30.0, seed=7))
    arrivals = trace.t_arr - trace.origin
    rng = np.random.default_rng(123)
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 10000:
        attempts += 1
        h = float(rng.uniform(0.01, 0.2))
        t = float(rng.uniform(0.0, 30.0 - h))
        if np.any((arrivals > t) & (arrivals <= t + h)):
            continue
        for before, after in zip(trace.snapshot(t), trace.snapshot(t + h)):
            moved = evolve(before, h)
            got = sorted(after.atoms())
            want = sorted(moved.atoms())
            assert len(got) == len(want)
            if got:
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        checked += 1
    assert checked == 100


def test_09_fluid_limit_errors_decrease_and_meet_tolerance(limit_report):
    report, elapsed = limit_report
    workload = [report.sup_of_mean_error(n, "workload") for n in (10, 100, 1000)]
    queue = [report.sup_of_mean_error(n, "queue_length") for n in (10, 100, 1000)]
    assert workload[0] > workload[1] > workload[2]
    assert queue[0] > queue[1] > queue[2]
    assert workload[2] <= 0.05
    assert queue[2] <= 0.05
    assert elapsed < 120.0


def test_10_residual_deadline_tails_converge(limit_report):
    report, _ = limit_report
    for c in (0.0, 0.5, 1.0):
        a_rows = {r.rep: r for r in report.rows
                  if r.n == 1000 and r.t == 1.0 and r.metric == f"A_tail@{c:g}"}
        v_rows = {r.rep: r for r in report.rows
                  if r.n == 1000 and r.t == 1.0 and r.metric == f"V_tail@{c:g}"}
        assert len(a_rows) == 5 and len(v_rows) == 5
        mean_err = float(np.mean([r.abs_err for r in a_rows.values()]))
        assert mean_err <= 0.05
        gaps = [abs(v_rows[rep].sim_value - a_rows[rep].sim_value)
                for rep in a_rows]
        assert float(np.mean(gaps)) <= 0.02


def test_11_corner_mass_shrinks_at_equilibrium():
    base = markov_config(horizon=2.0, seed=2, initial=WarmStart())
    plan = ScalingPlan(base=base, scales=(1000,), replications=1)
    report = corner_regularity_probe(plan, kappas=(0.05, 0.4))
    small = max(r.sim_value for r in report.rows if r.metric == "corner_mass@0.05")
    large = max(r.sim_value for r in report.rows if r.metric == "corner_mass@0.4")
    assert small < large


def test_12_converge_cli_is_byte_deterministic(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FLUIDQ_SEED", raising=False)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "model": {"classes": [{
            "arrival": {"family": "exponential", "rate": 2.0},
            "service": {"family": "exponential", "rate": 1.0},
            "deadline": {"family": "exponential", "rate": 1.0},
        }]},
        "sim": {"horizon": 2.0, "seed": 42},
        "converge": {"scales": [5, 25], "reps": 2, "time_grid": [0.0, 1.0, 2.0]},
    }))
    outputs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert cli_main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        outputs.append((out / "report.csv").read_bytes())
        with open(out / "report.csv", newline="") as fh:
            assert list(csv.reader(fh))  # parses as CSV
    assert outputs[0] == outputs[1]
