from __future__ import annotations

import csv
import json
import logging
import math
import multiprocessing
import os
import re
import sys
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from fluidq import measures, scaling, simulate
from fluidq.distributions import Exponential, UniformInterval, mix_seed
from fluidq.fluid import (FluidClass, FluidModelInput, WorkloadPath, ZeroInitial,
                          fluid_queue_length, solve_fluid, solve_workload)
from fluidq.scaling import (CSV_COLUMNS, DEFAULT_C_GRID, DEFAULT_KAPPAS,
                            ScalingError, ScalingPlan, corner_points,
                            corner_regularity_probe, default_rect_grid,
                            run_plan)
from fluidq.simulate import (ClassSpec, SimConfig, SimulationError, WarmStart,
                             fluid_model_of, run)

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
    for bad in ({"time_grid": (0.0, math.nan)}, {"ages": (0.25, -0.5)},
                {"ages": (math.nan,)}, {"replications": 1.5}):
        with pytest.raises(ScalingError):
            ScalingPlan(**{"base": base, "scales": (10,), "replications": 1, **bad})


@pytest.mark.parametrize("scales", ((10.7, 20.2), (math.nan,), (math.inf,), (True, 5),
                                    ("10",)))
def test_plan_rejects_scales_that_are_not_whole_numbers(scales):
    """Fractional, non-finite, bool and string scales raise ScalingError; they
    are not truncated, nor left to int() to raise a bare ValueError or
    OverflowError."""
    with pytest.raises(ScalingError, match="scales must be positive integers"):
        ScalingPlan(base=markov_base(), scales=scales, replications=1)


def test_plan_rejects_bool_replications():
    with pytest.raises(ScalingError, match="replications"):
        ScalingPlan(base=markov_base(), scales=(10,), replications=True)


def test_plan_keeps_whole_float_scales_as_ints():
    plan = ScalingPlan(base=markov_base(), scales=(10.0, np.float64(100.0), np.int64(1000)),
                       replications=np.int64(2))
    assert plan.scales == (10, 100, 1000)
    assert all(type(n) is int for n in plan.scales)


@pytest.mark.parametrize("reps", (1, 2, 3, 8, 9, 17))
def test_sup_of_mean_error_is_the_per_cell_means(reps):
    """One row mean per (t, class) cell over a cells x R array gives the
    bits of np.mean on each cell's errors, so summary.json does not move."""
    rng = np.random.default_rng(reps)
    cells = {(t, k): (rng.exponential(1.0, reps) * 10.0 ** rng.integers(-8, 2)).tolist()
             for t in np.linspace(0.0, 6.0, 13).tolist() for k in (0, 1, None)}
    want = max(float(np.mean(errs)) for errs in cells.values())
    got = scaling.ScalingReport._sup_of_mean_error(cells)
    assert type(got) is float and got.hex() == want.hex()
    means = np.mean(np.array(list(cells.values())), axis=1)
    assert [m.hex() for m in means.tolist()] == [float(np.mean(e)).hex()
                                                 for e in cells.values()]


@pytest.mark.parametrize("kappa", (0.0, -0.1, math.inf, math.nan))
def test_run_plan_rejects_bad_corner_radii_before_simulating(kappa, monkeypatch):
    import fluidq.scaling

    def no_run(*args):
        raise AssertionError("run_plan simulated before checking its kappas")

    monkeypatch.setattr(fluidq.scaling, "chunks", no_run)
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


def use_cpus(monkeypatch, count):
    """Make run_plan see `count` CPUs it may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def bits(rows):
    return [(r.n, r.rep, r.t.hex(), r.metric, r.cls, r.sim_value.hex(),
             r.fluid_value.hex(), r.abs_err.hex()) for r in rows]


def test_fluid_targets_invert_the_grid_once(monkeypatch):
    """The fluid targets take z, n, a and the age counts at u = 0 and 0.25
    from one grid pass: tau inverts the whole time grid once, and the box
    edges of every class once more, and each class's waiting integral over
    [tau(t), t] takes its antiderivative at t and at tau(t), once each."""
    inverted, ends = [], []
    tau, antiderivative = WorkloadPath.tau, WorkloadPath._antiderivative

    def counting_tau(self, x):
        inverted.append(np.asarray(x).tobytes())
        return tau(self, x)

    def counting_antiderivative(self, k, x):
        ends.append(k)
        return antiderivative(self, k, x)

    monkeypatch.setattr(WorkloadPath, "tau", counting_tau)
    monkeypatch.setattr(WorkloadPath, "_antiderivative", counting_antiderivative)
    plan = replace(CHUNK_PLANS["two_class_warm"], ages=(0.0, 0.25))
    grid = plan.resolved_time_grid()
    targets = scaling._FluidTargets(plan, grid, plan.resolved_rect_grid(), DEFAULT_C_GRID)
    assert len(inverted) == 2
    assert inverted[0] == (targets.t0 + np.array(grid)).tobytes()
    assert sorted(ends) == [0, 0, 1, 1]     # hi and lo, once per class


def test_run_plan_logs_jobs_and_section_times(caplog, monkeypatch):
    """One line per (n, rep), in plan order, all from this process, although
    a child ran the second share."""
    use_cpus(monkeypatch, 2)
    plan = ScalingPlan(base=markov_base(seed=3), scales=(5, 20), replications=2,
                       time_grid=(0.0, 1.0, 2.0))
    with caplog.at_level(logging.DEBUG, logger="fluidq.scaling"):
        report = run_plan(plan)
    records = [r for r in caplog.records if r.name == "fluidq.scaling"]
    assert {r.process for r in records} == {os.getpid()}
    tasks = [(5, 0), (5, 1), (20, 0), (20, 1)]
    assert len(records) == len(tasks)
    shares = {key: s for s, share in enumerate(scaling._shares(tasks, 2)) for key in share}
    for (n, rep), record in zip(tasks, records):
        line = record.getMessage()
        # every job fits one chunk, so all of them are held at the end
        jobs = len(run(replace(plan.base, scale=n, seed=plan.seed(n, rep))).t_arr)
        assert line.startswith(f"run_plan n={n} rep={rep}: {jobs} jobs, at most {jobs} "
                               "held; seconds: ")
        for section in ("simulate", "workload", "state", "residual", "corner"):
            assert f"{section} " in line
        assert line.endswith(f"; share {shares[n, rep]}")
    assert set(shares.values()) == {0, 1}
    # the timings stay out of the report
    assert report.rows == run_plan(plan).rows


CHUNK_PLANS = {
    "markov_empty": ScalingPlan(markov_base(horizon=3.0, seed=4), scales=(200, 4000),
                                replications=2),
    # an unsorted time grid with a repeated time; two classes, warm start
    "two_class_warm": ScalingPlan(
        SimConfig((ClassSpec(Exponential(1.5), Exponential(1.0), UniformInterval(0.0, 2.0)),
                   ClassSpec(Exponential(1.0), Exponential(2.0), Exponential(1.0))),
                  horizon=2.0, seed=9, initial=WarmStart()),
        scales=(50, 2000), replications=1, time_grid=(1.5, 0.0, 2.0, 0.5, 0.5, 1.0)),
}
PARALLEL_PLANS = {
    **CHUNK_PLANS,
    # the acceptance model at small scales
    "acceptance": ScalingPlan(markov_base(horizon=6.0, seed=1), scales=(10, 100, 1000),
                              replications=2),
}


@pytest.mark.parametrize("name", sorted(PARALLEL_PLANS))
def test_parallel_rows_equal_one_cpu_rows(name, monkeypatch, caplog):
    """A plan's rows are the same bits whether its simulations run in one
    process or in one share per CPU, and no child outlives run_plan. So is
    its log but for the timings and shares: each simulation's
    fluidq.simulate line comes just before its run_plan line, although a
    child ran it, and the bisections (the band, the fluid targets' tau and
    the corner cuts) are all made and logged here, before any fork. Each
    CPU count starts from a fresh plan and empty corner caches, so each
    does the same bisections."""
    tasks = len(PARALLEL_PLANS[name].scales) * PARALLEL_PLANS[name].replications
    reports, logs = [], []
    for count in (1, 2, 3):
        plan = replace(PARALLEL_PLANS[name])
        measures._corner_cuts.cache_clear()
        measures._corner_grids.cache_clear()
        use_cpus(monkeypatch, count)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="fluidq"):
            reports.append(bits(run_plan(plan).rows))
        assert multiprocessing.active_children() == []
        shares = {int(r.getMessage().rsplit(" ", 1)[1]) for r in caplog.records
                  if r.name == "fluidq.scaling"}
        assert shares == set(range(min(count, tasks)))
        logs.append([(r.name, r.getMessage().split("; seconds")[0]) for r in caplog.records])
    assert reports[0] == reports[1] == reports[2]
    assert logs[0] == logs[1] == logs[2]
    names = [name for name, _ in logs[0]]
    first = names.index("fluidq.simulate")
    assert set(names[:first]) == {"fluidq.fluid", "fluidq.numerics"}
    assert names[first:] == ["fluidq.simulate", "fluidq.scaling"] * tasks


def test_shares_split_heaviest_first_and_repeat():
    """The split depends on the tasks and the CPU count alone: greedy by n,
    heaviest first, ties to the first share; each share in plan order."""
    tasks = [(n, rep) for n in (10, 100, 1000, 10_000, 100_000) for rep in range(2)]
    two = scaling._shares(tasks, 2)
    assert two == [[(n, 0) for n in (10, 100, 1000, 10_000, 100_000)],
                   [(n, 1) for n in (10, 100, 1000, 10_000, 100_000)]]
    assert scaling._shares(list(tasks), 2) == two
    assert scaling._shares(tasks, 3) == [
        [(100_000, 0)], [(100_000, 1)],
        [(10, 0), (10, 1), (100, 0), (100, 1), (1000, 0), (1000, 1), (10_000, 0),
         (10_000, 1)]]
    for cpus in (1, 4, 10, 64):
        shares = scaling._shares(tasks, cpus)
        assert len(shares) == min(cpus, len(tasks))
        assert sorted(key for share in shares for key in share) == tasks
        assert scaling._shares(tasks, cpus) == shares
    assert scaling._shares([(7, 0)], 8) == [[(7, 0)]]


def failing_chunks(fail):
    """scaling.chunks, with fail(n) called first for a run at scale n."""
    stream = scaling.chunks

    def wrapped(config, t_warm):
        fail(config.scale)
        return stream(config, t_warm)

    return wrapped


def test_a_child_error_reaches_the_caller(monkeypatch):
    """An error raised in a child's share reaches the caller with its type
    and message, and no child is left running."""
    use_cpus(monkeypatch, 2)
    plan = ScalingPlan(base=markov_base(seed=3), scales=(5, 20), replications=1,
                       time_grid=(0.0, 1.0, 2.0))
    parent = os.getpid()

    def fail_in_child(n):
        if os.getpid() != parent:
            raise SimulationError(f"no jobs at n={n}")

    monkeypatch.setattr(scaling, "chunks", failing_chunks(fail_in_child))
    with pytest.raises(SimulationError) as info:
        run_plan(plan)
    assert str(info.value) == "no jobs at n=5"
    if sys.version_info >= (3, 11):     # the child's traceback comes as a note
        assert "in fail_in_child" in "".join(info.value.__notes__)
    assert multiprocessing.active_children() == []


def test_a_parent_error_ends_the_children(monkeypatch):
    """An error in the parent's own share ends and joins the children."""
    use_cpus(monkeypatch, 3)
    plan = ScalingPlan(base=markov_base(seed=3), scales=(5, 20, 80), replications=1,
                       time_grid=(0.0, 1.0, 2.0))
    parent = os.getpid()

    def fail_here(n):
        if os.getpid() == parent:
            raise KeyError(n)

    monkeypatch.setattr(scaling, "chunks", failing_chunks(fail_here))
    with pytest.raises(KeyError):
        run_plan(plan)
    assert multiprocessing.active_children() == []


def test_a_child_that_dies_or_fails_oddly_is_reported(monkeypatch):
    """A child that exits without sending its rows, or raises an exception
    that does not pickle, still makes run_plan raise a ScalingError."""
    use_cpus(monkeypatch, 2)
    plan = ScalingPlan(base=markov_base(seed=3), scales=(5, 20), replications=1,
                       time_grid=(0.0, 1.0, 2.0))
    parent = os.getpid()

    def exit_in_child(n):
        if os.getpid() != parent:
            os._exit(3)

    def unpicklable_in_child(n):
        if os.getpid() != parent:
            exc = ValueError("odd")
            exc.hook = lambda: None
            raise exc

    for fail, match in ((exit_in_child, "exited with code 3"),
                        (unpicklable_in_child, r"^ValueError: odd$")):
        monkeypatch.setattr(scaling, "chunks", failing_chunks(fail))
        with pytest.raises(ScalingError, match=match):
            run_plan(plan)
        assert multiprocessing.active_children() == []


@pytest.fixture
def no_child(monkeypatch):
    """Fail any attempt to start a child process."""
    def start(self):
        raise AssertionError("run_plan started a child process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)


def test_one_task_or_one_cpu_starts_no_child(monkeypatch, no_child):
    use_cpus(monkeypatch, 8)
    run_plan(ScalingPlan(markov_base(seed=2), (50,), 1))
    use_cpus(monkeypatch, 1)
    run_plan(ScalingPlan(markov_base(seed=2), (5, 50), 2))


@contextmanager
def chunked(chunk, draw):
    """Stream with simulate.STREAM_CHUNK = chunk and DRAW_BLOCK = draw."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "STREAM_CHUNK", chunk)
        mp.setattr(simulate, "DRAW_BLOCK", draw)
        yield


@pytest.mark.parametrize("name", sorted(CHUNK_PLANS))
def test_chunk_size_does_not_change_run_plan(name, caplog):
    """run_plan's rows are bit-identical whatever the stream's chunk and draw
    sizes. At the defaults every run is one chunk, held whole, so the rows
    are those of the full traces; 1024-job chunks are released as the
    stream passes the grid times."""
    plan = CHUNK_PLANS[name]
    reports = []
    for chunk, draw in ((1024, 16), (4096, 333), (simulate.STREAM_CHUNK, simulate.DRAW_BLOCK)):
        caplog.clear()
        with chunked(chunk, draw), caplog.at_level(logging.DEBUG, logger="fluidq.scaling"):
            reports.append(bits(run_plan(plan).rows))
        if chunk == 1024:
            last = [r.getMessage() for r in caplog.records if r.name == "fluidq.scaling"][-1]
            jobs, held = map(int, re.search(r"(\d+) jobs, at most (\d+) held", last).groups())
            assert simulate.STREAM_CHUNK > jobs > 2 * held
    assert reports[0] == reports[1] == reports[2]


def test_run_plan_memory_follows_the_jobs_in_the_system(no_child):
    """The acceptance model's plan holds about 10 times more jobs in the
    system at n = 1e5 than at 1e4, and simulates 10 times more. Its
    tracemalloc peak grows by less than 3 times (with full traces it grew
    by about 10): the stream holds the jobs still in the system and a
    chunk or two, not the run. The plans have one task each, so the
    simulation runs in this process and tracemalloc sees it; no_child fails
    the test if a child is started."""
    base = markov_base(horizon=6.0, seed=1)
    run_plan(ScalingPlan(base, (10,), 1))    # warm numpy and the caches outside the count

    def peak(n):
        tracemalloc.start()
        try:
            run_plan(ScalingPlan(base, (n,), 1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(100_000) < 3 * peak(10_000)
