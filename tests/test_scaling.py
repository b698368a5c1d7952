from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from fluidq.distributions import Exponential, UniformInterval, mix_seed
from fluidq.fluid import (FluidClass, FluidModelInput, ZeroInitial,
                          fluid_queue_length, solve_fluid, solve_workload)
from fluidq.scaling import (CSV_COLUMNS, DEFAULT_C_GRID, DEFAULT_KAPPAS,
                            ScalingError, ScalingPlan, corner_points,
                            corner_regularity_probe, default_rect_grid,
                            run_plan)
from fluidq.simulate import ClassSpec, SimConfig, WarmStart, fluid_model_of, run

LN2 = math.log(2.0)


def markov_base(horizon=2.0, seed=0, **kwargs):
    spec = ClassSpec(interarrival=Exponential(2.0), service=Exponential(1.0),
                     deadline=Exponential(1.0))
    return SimConfig(classes=(spec,), horizon=horizon, seed=seed, **kwargs)


@pytest.fixture(scope="module")
def small_report():
    plan = ScalingPlan(base=markov_base(), scales=(5, 20), replications=2,
                       time_grid=(0.0, 1.0, 2.0))
    return run_plan(plan)


def test_default_rect_grid_shape():
    grid = default_rect_grid(fluid_model_of(markov_base()))
    assert len(grid) == 36
    assert all(box.b == math.inf and box.d == math.inf for box in grid)
    assert all(box.a >= 0 and box.c >= 0 for box in grid)
    # exponential deadlines: the probe extends to three mean deadlines
    assert max(box.c for box in grid) == pytest.approx(3.0, abs=1e-9)
    assert max(box.a for box in grid) == pytest.approx(LN2 + 3.0, abs=1e-6)
    corners = corner_points(grid)
    assert len(corners) == 36
    assert corners == tuple(sorted(set(corners)))


def test_plan_validation():
    base = markov_base()
    plan = ScalingPlan(base=base, scales=(10, 100), replications=3)
    assert plan.seed(10, 2) == mix_seed(base.seed, 10, 2)
    assert plan.resolved_time_grid() == tuple(np.linspace(0.0, 2.0, 13))
    with pytest.raises(ScalingError):
        ScalingPlan(base=base, scales=(), replications=1)
    with pytest.raises(ScalingError):
        ScalingPlan(base=base, scales=(10, 10), replications=1)
    with pytest.raises(ScalingError):
        ScalingPlan(base=base, scales=(100, 10), replications=1)
    with pytest.raises(ScalingError):
        ScalingPlan(base=base, scales=(10,), replications=0)
    with pytest.raises(ScalingError):
        ScalingPlan(base=base, scales=(10,), replications=1,
                    time_grid=(0.0, 5.0))
    with pytest.raises(ScalingError):
        ScalingPlan(base=markov_base(scale=2), scales=(10,), replications=1)


@pytest.mark.parametrize("kappa", (0.0, -0.1, math.inf, math.nan))
def test_run_plan_rejects_bad_corner_radii_before_simulating(kappa, monkeypatch):
    import fluidq.scaling

    def no_run(config):
        raise AssertionError("run_plan simulated before checking its kappas")

    monkeypatch.setattr(fluidq.scaling, "run", no_run)
    plan = ScalingPlan(base=markov_base(), scales=(5,), replications=1)
    with pytest.raises(ScalingError, match="kappas must be positive and finite"):
        run_plan(plan, kappas=(0.1, kappa))


def test_report_covers_all_metric_families(small_report):
    metrics = set(small_report.metrics())
    assert {"workload", "idle", "queue_length", "nonabandoning",
            "abandoning", "rect_measure", "age_count@0.25"} <= metrics
    for c in DEFAULT_C_GRID:
        assert f"A_tail@{c:g}" in metrics
        assert f"V_tail@{c:g}" in metrics
    for kappa in DEFAULT_KAPPAS:
        assert f"corner_mass@{kappa:g}" in metrics


def test_report_rows_at_time_zero_are_exact(small_report):
    for row in small_report.rows:
        if row.t == 0.0 and row.metric in ("workload", "queue_length"):
            assert row.sim_value == 0.0
            assert row.fluid_value == 0.0
            assert row.abs_err == 0.0


def test_scaled_counts_split_consistently(small_report):
    cells = {}
    for row in small_report.rows:
        if row.metric in ("queue_length", "nonabandoning", "abandoning"):
            cells.setdefault((row.n, row.rep, row.t, row.cls), {})[row.metric] \
                = row.sim_value
    assert cells
    for values in cells.values():
        assert values["queue_length"] == pytest.approx(
            values["nonabandoning"] + values["abandoning"], abs=1e-12)


def test_fluid_values_reproducible_from_model(small_report):
    base = small_report.plan.base
    path = solve_workload(fluid_model_of(base), 0.0, base.horizon)
    for row in small_report.rows:
        if row.metric == "workload":
            assert row.fluid_value == pytest.approx(path(row.t), abs=1e-9)
        if row.metric in ("idle", "rect_measure"):
            assert row.fluid_value == 0.0
        assert row.abs_err == abs(row.sim_value - row.fluid_value)


def test_corner_mass_monotone_in_kappa(small_report):
    cells = {}
    for row in small_report.rows:
        if row.metric.startswith("corner_mass@"):
            kappa = float(row.metric.split("@")[1])
            cells.setdefault((row.n, row.rep, row.t), {})[kappa] = row.sim_value
    assert cells
    for values in cells.values():
        ks = sorted(values)
        assert all(values[a] <= values[b] + 1e-12
                   for a, b in zip(ks, ks[1:]))


def test_corner_rows_have_no_class(small_report):
    corner_rows = [r for r in small_report.rows
                   if r.metric.startswith("corner_mass@")]
    assert corner_rows
    assert all(r.cls is None for r in corner_rows)


def test_summary_structure(small_report):
    summary = small_report.summary()
    assert summary
    for entry in summary:
        assert set(entry) == {"n", "metric", "reps", "sup_mean_err",
                              "mean_sup_err", "max_sup_err", "std_sup_err"}
        assert entry["reps"] == 2
        assert entry["sup_mean_err"] <= entry["max_sup_err"] + 1e-12
    sups = small_report.sup_errors(5, "workload")
    assert len(sups) == 2
    entry = next(e for e in summary if e["n"] == 5 and e["metric"] == "workload")
    assert entry["mean_sup_err"] == float(np.mean(sups))
    with pytest.raises(ScalingError):
        small_report.sup_of_mean_error(5, "no-such-metric")


def test_report_round_trips_through_csv(tmp_path, small_report):
    out = tmp_path / "report.csv"
    small_report.to_csv(out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == len(small_report.rows) + 1
    for text, row in zip(rows[1:], small_report.rows):
        assert int(text[0]) == row.n and int(text[1]) == row.rep
        assert float(text[2]) == row.t
        assert text[3] == row.metric
        assert text[4] == ("" if row.cls is None else str(row.cls))
        assert float(text[5]) == row.sim_value
        assert float(text[6]) == row.fluid_value
        assert float(text[7]) == row.abs_err


def test_summary_json_export(tmp_path, small_report):
    out = tmp_path / "summary.json"
    small_report.to_summary_json(out)
    loaded = json.loads(out.read_text())
    assert set(loaded) == {"summary", "footer"}
    assert any("replications" in line for line in loaded["footer"])
    assert any("empirical" in line for line in loaded["footer"])


def test_run_plan_is_deterministic():
    plan = ScalingPlan(base=markov_base(seed=4), scales=(5,), replications=2,
                       time_grid=(0.0, 1.0, 2.0))
    first = run_plan(plan)
    second = run_plan(plan)
    assert first.rows == second.rows


def test_corner_probe_is_run_plan_corner_rows():
    plan = ScalingPlan(base=markov_base(), scales=(5,), replications=1,
                       time_grid=(0.0, 2.0))
    probe = corner_regularity_probe(plan, kappas=(0.1, 0.4))
    assert probe.metrics() == ["corner_mass@0.1", "corner_mass@0.4"]
    full = run_plan(plan, kappas=(0.1, 0.4))
    assert probe.rows == [r for r in full.rows if r.metric.startswith("corner_mass@")]
    assert probe.footer == full.footer


def test_warm_start_plan_targets_shifted_fluid():
    base = markov_base(horizon=1.0, seed=9, initial=WarmStart())
    plan = ScalingPlan(base=base, scales=(20,), replications=1,
                       time_grid=(0.0, 0.5, 1.0))
    report = run_plan(plan)
    fluid_at = {row.t: row.fluid_value for row in report.rows
                if row.metric == "workload"}
    # after warming 4 * w_u from empty, the fluid workload sits near ln 2
    for t, value in fluid_at.items():
        assert 0.6 <= value <= 0.72
    assert fluid_at[0.0] < fluid_at[1.0] < LN2


def test_errors_shrink_with_scale():
    plan = ScalingPlan(base=markov_base(horizon=4.0, seed=2),
                       scales=(10, 200), replications=3)
    report = run_plan(plan)
    coarse = report.sup_of_mean_error(10, "workload")
    fine = report.sup_of_mean_error(200, "workload")
    assert fine < coarse


def test_queue_length_depends_on_the_whole_deadline_law():
    """The paper's headline: the fluid approximations depend on the deadline
    distributions in their entirety, not only on their means. Exponential(1)
    and Uniform(0, 2) deadlines (both mean 1) at lambda = 2, mu = 1 give fluid
    queue lengths 0.98 and 1.45 at t = 4, and three seeded runs at n = 1e4
    per law resolve the gap far beyond their replication spread."""
    t, n = 4.0, 10_000
    fluid, sims = [], []
    for law in (Exponential(1.0), UniformInterval(0.0, 2.0)):
        assert law.mean() == 1.0
        solution = solve_fluid(FluidModelInput((FluidClass(2.0, 1.0, law),)),
                               ZeroInitial(), t)
        fluid.append(fluid_queue_length(solution, 0, t))
        spec = ClassSpec(Exponential(2.0), Exponential(1.0), law)
        sims.append([run(SimConfig((spec,), horizon=t, scale=n, seed=seed))
                     .queue_lengths(t)[0].total / n for seed in (1, 2, 3)])
    gap = fluid[1] - fluid[0]
    assert gap > 0.4
    spread = max(np.std(z, ddof=1) for z in sims)
    assert np.mean(sims[1]) - np.mean(sims[0]) > 5 * spread
    # each law's runs sit near its own fluid value, not the other law's
    for z, target in zip(sims, fluid):
        assert abs(np.mean(z) - target) < gap / 10


def test_corner_cuts_are_bisected_once_per_plan(monkeypatch):
    """run_plan makes as many numerics.bisect_leftmost calls for one trace
    as for six on three scales: the corner cut points are computed once per
    (corners, kappas), not four times per nonempty snapshot."""
    from fluidq import measures, numerics

    bisect = numerics.bisect_leftmost
    calls = []

    def counting(*args):
        calls.append(1)
        return bisect(*args)

    monkeypatch.setattr(numerics, "bisect_leftmost", counting)

    def work(scales, reps):
        measures._corner_cuts.cache_clear()
        calls.clear()
        run_plan(ScalingPlan(base=markov_base(seed=6), scales=scales, replications=reps))
        return len(calls)

    assert work((10,), 1) == work((10, 100, 1000), 2)


def test_run_plan_logs_jobs_and_section_times(caplog):
    plan = ScalingPlan(base=markov_base(seed=3), scales=(5, 20), replications=1,
                       time_grid=(0.0, 1.0, 2.0))
    with caplog.at_level(logging.DEBUG, logger="fluidq.scaling"):
        report = run_plan(plan)
    lines = [r.getMessage() for r in caplog.records if r.name == "fluidq.scaling"]
    assert len(lines) == 2
    for n, line in zip((5, 20), lines):
        jobs = len(run(replace(plan.base, scale=n, seed=plan.seed(n, 0))).t_arr)
        assert line.startswith(f"run_plan n={n} rep=0: {jobs} jobs; seconds: ")
        for section in ("simulate", "workload", "state", "residual", "corner"):
            assert f"{section} " in line
    # the timings stay out of the report
    assert report.rows == run_plan(plan).rows
