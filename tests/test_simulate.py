from __future__ import annotations

import logging
import math
import re
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fluidq import simulate
from fluidq.distributions import (Deterministic, DistributionError, Exponential,
                                  HyperExponential, Replay, UniformInterval,
                                  UniformMixture, stream)
from fluidq.measures import AtomicMeasure2D
from fluidq.numerics import TIME_SLACK_ULPS
from fluidq.simulate import (ABANDONMENT, CHUNK_MAX, CHUNK_MIN, SERVICE, EXIT_BLOCK,
                             RESIDUAL_BLOCK, ClassSpec, Empty, SimConfig,
                             SimulationError, WarmStart, _lindley, fluid_model_of,
                             run)

LN2 = math.log(2.0)


def scripted(inter, services, deadlines, horizon):
    spec = ClassSpec(interarrival=Replay(inter), service=Replay(services),
                     deadline=Replay(deadlines))
    return SimConfig(classes=(spec,), horizon=horizon)


@pytest.fixture(scope="module")
def hand_trace():
    """Three arrivals at 1, 2, 3 with services (5,5,5), deadlines (10,2,3)."""
    return run(scripted((1.0, 1.0, 1.0), (5.0, 5.0, 5.0), (10.0, 2.0, 3.0), 7.0))


@pytest.fixture(scope="module")
def markov_config():
    spec = ClassSpec(interarrival=Exponential(2.0), service=Exponential(1.0),
                     deadline=Exponential(1.0))
    return SimConfig(classes=(spec,), horizon=30.0, seed=7)


def test_hand_trace_job_records(hand_trace):
    jobs = hand_trace.jobs()
    assert [j.arrival for j in jobs] == [1.0, 2.0, 3.0]
    assert [j.workload_before for j in jobs] == [0.0, 4.0, 3.0]
    assert [j.served for j in jobs] == [True, False, False]
    assert [j.virtual_sojourn for j in jobs] == [5.0, 4.0, 3.0]
    assert [j.patience for j in jobs] == [15.0, 2.0, 3.0]
    assert [j.exit_time for j in jobs] == [6.0, 4.0, 6.0]
    assert [j.exit_cause for j in jobs] == [SERVICE, ABANDONMENT, ABANDONMENT]
    assert [j.index for j in jobs] == [1, 2, 3]


def test_hand_trace_deadline_tie_abandons(hand_trace):
    # job 3 found exactly its own deadline worth of work ahead
    third = hand_trace.jobs()[2]
    assert third.deadline == third.workload_before == 3.0
    assert not third.served


def test_hand_trace_workload_path(hand_trace):
    assert hand_trace.workload_at(0.5) == 0.0
    assert hand_trace.workload_at(1.0) == 5.0
    assert hand_trace.workload_at(2.0) == 4.0
    assert hand_trace.workload_at(3.0) == 3.0
    assert hand_trace.workload_at(6.0) == 0.0
    assert hand_trace.workload_at(4.25) == 1.75
    assert hand_trace.workload_at(7.0) == 0.0


def test_hand_trace_queue_lengths(hand_trace):
    z = hand_trace.queue_lengths(3.5)[0]
    assert (z.total, z.nonabandoning, z.abandoning) == (3, 1, 2)
    assert hand_trace.queue_lengths(4.5)[0].total == 2
    assert hand_trace.queue_lengths(6.0)[0] == (0, 0, 0)
    assert hand_trace.queue_lengths(0.5)[0] == (0, 0, 0)


def test_hand_trace_snapshot(hand_trace):
    atoms = hand_trace.snapshot(3.5)[0].atoms()
    assert sorted(atoms) == [(2.5, 0.5), (2.5, 2.5), (2.5, 12.5)]
    assert hand_trace.snapshot(0.0)[0].atoms() == []
    # at t=4 job 2's residual patience reaches zero and the atom is gone
    assert len(hand_trace.snapshot(4.0)[0]) == 2


def test_hand_trace_idle_and_busy(hand_trace):
    assert hand_trace.idle_at(7.0) == 2.0
    assert 7.0 - hand_trace.idle_at(7.0) == 5.0     # busy time
    assert hand_trace.idle_at(1.0) == 1.0   # empty before the first arrival
    assert hand_trace.idle_at(6.0) == 1.0   # busy throughout [1, 6]
    assert hand_trace.idle_at(6.5) == 1.5


def test_hand_trace_residual_measures(hand_trace):
    # at t=3.5 the residual deadlines are 7.5, 0.5, 2.5 and, plus service,
    # 12.5, 5.5, 7.5; a tail counts the values >= c
    cs = (0.0, 0.5, 2.5, 2.6, 7.5)
    m = hand_trace.residual_deadline_measures(3.5, cs)[0]
    assert m.residual == (3, 3, 2, 1, 1)
    assert m.residual_with_service == (3, 3, 3, 3, 2)
    # at t=4 job 2's residual deadline is exactly 0, so no tail counts it
    later = hand_trace.residual_deadline_measures(4.0, (0.0,))[0]
    assert later.residual == (2,)
    assert later.residual_with_service == (3,)
    assert hand_trace.residual_deadline_measures(4.0, ()) == [((), ())]


def test_hand_trace_age_count(hand_trace):
    assert hand_trace.age_count(3.5, 0.0) == [3]
    assert hand_trace.age_count(3.5, 1.0) == [2]
    assert hand_trace.age_count(3.5, 2.5) == [1]
    assert hand_trace.age_count(3.5, 3.0) == [0]
    for u in (-1.0, math.nan):
        with pytest.raises(SimulationError, match="ages must be nonnegative"):
            hand_trace.age_count(3.5, u)


def test_no_arrivals_before_horizon():
    trace = run(scripted((10.0,), (1.0,), (1.0,), 5.0))
    assert trace.jobs() == []
    assert trace.workload_at(5.0) == 0.0
    assert trace.idle_at(5.0) == 5.0
    assert trace.queue_lengths(5.0)[0] == (0, 0, 0)
    assert trace.snapshot(2.0)[0].atoms() == []


def test_single_served_job_workload_shape():
    trace = run(scripted((1.0,), (2.0,), (5.0,), 6.0))
    assert trace.workload_at(0.999) == 0.0
    assert trace.workload_at(1.0) == 2.0  # jumps by exactly v
    assert trace.workload_at(1.5) == 1.5
    assert trace.workload_at(3.0) == 0.0
    job = trace.jobs()[0]
    assert job.served and job.exit_time == 3.0


def test_scripted_interarrivals_stop_when_exhausted():
    trace = run(scripted((1.0, 1.0), (1.0, 1.0), (9.0, 9.0), 20.0))
    assert len(trace.jobs()) == 2


def test_service_script_exhaustion_is_an_error():
    config = scripted((1.0, 1.0, 1.0), (5.0,), (9.0, 9.0, 9.0), 7.0)
    with pytest.raises(DistributionError):
        run(config)


def test_workload_recursion_replay(markov_config):
    trace = run(markov_config)
    jobs = trace.jobs()
    assert len(jobs) > 30
    W = 0.0
    t_prev = 0.0
    idle = 0.0
    for job in jobs:
        gap = job.arrival - t_prev
        found = W - gap
        if found < 0.0:
            idle += gap - W
            found = 0.0
        assert job.workload_before == found
        assert job.served == (job.deadline > found)
        W = found + job.service if job.served else found
        assert trace.workload_at(job.arrival) == W
        assert trace.idle_at(job.arrival) == idle
        t_prev = job.arrival


def test_workload_stieltjes_identity(markov_config):
    # cumulative served work minus busy time reproduces the workload
    trace = run(markov_config)
    total = 0.0
    for job in trace.jobs():
        if job.served:
            total += job.service
        assert trace.workload_at(job.arrival) == pytest.approx(
            total - (job.arrival - trace.idle_at(job.arrival)), abs=1e-9)


def stored_fate(tr):
    """Virtual sojourn, patience and raw exit epoch of every job, from the
    stored arrays and the rebuilt w_before, by the float operations of the
    Lindley pass."""
    virtual = np.where(tr.served, tr.w_before + tr.v, tr.w_before)
    patience = np.where(tr.served, tr.d + tr.v, tr.d)
    return virtual, patience, tr.t_arr + np.where(tr.served, virtual, tr.d)


def test_workload_jumps_exactly_by_service(markov_config):
    trace = run(markov_config)
    jobs = trace.jobs()
    assert len(jobs) == len(trace.t_arr) > 30
    W = 0.0
    t_prev = 0.0
    count = [0] * trace.K
    for i, job in enumerate(jobs):
        t, v, d = trace.t_arr[i], trace.v[i], trace.d[i]
        found = max(W - (t - t_prev), 0.0)
        ok = d > found
        W = found + v if ok else found
        count[job.cls] += 1
        assert job.index == count[job.cls]
        assert job.workload_before == found and job.served == ok
        assert job.virtual_sojourn == W
        assert job.patience == (d + v if ok else d)
        assert job.exit_time == float(t + (W if ok else d) - trace.origin)
        assert job.exit_cause == (SERVICE if ok else ABANDONMENT)
        t_prev = t
    assert np.array_equal(trace.t_exit, stored_fate(trace)[2])


def test_fifo_exit_order_among_served():
    spec0 = ClassSpec(Exponential(1.5), Exponential(1.0), Exponential(0.8))
    spec1 = ClassSpec(Exponential(1.0), UniformInterval(0.5, 1.5),
                      UniformInterval(0.0, 2.0))
    trace = run(SimConfig(classes=(spec0, spec1), horizon=40.0, seed=11))
    served_exits = trace.t_exit[trace.served]
    assert np.all(np.diff(served_exits) >= 0)


def test_snapshot_matches_queue_lengths(markov_config, query_traces):
    """A class's queue length is its snapshot's atom count, and so is
    age_count at age 0: at fixed times, and at exit epochs moved by 0-2
    ulps either way, where an exit > raw test disagrees with the atoms'
    w > 0 and p > 0 in about a third of the epochs."""
    cases = [(run(markov_config), (3.0, 7.5, 14.0, 22.0, 30.0))]
    cases += [(trace, (0.5, 3.0)) for trace in query_traces]
    for trace, fixed in cases:
        exits = np.sort(stored_fate(trace)[2])
        exits = exits[(exits > trace.origin) & (exits < trace.origin + trace.horizon)]
        times = list(fixed)
        for raw in exits[::max(1, len(exits) // 120)].tolist():
            for direction in (-math.inf, math.inf):
                for _ in range(3):
                    times.append(model_time(trace, raw))
                    raw = math.nextafter(raw, direction)
        for t in times:
            snap, counts = trace.snapshot(t), trace.queue_lengths(t)
            assert trace.age_count(t, 0.0) == [c.total for c in counts]
            for measure, c in zip(snap, counts):
                assert len(measure) == c.total
                assert c.total == c.nonabandoning + c.abandoning
                assert int(np.count_nonzero(measure.w < measure.p)) == c.nonabandoning


def test_dynamics_match_measure_evolution(markov_config):
    from fluidq.measures import evolve
    trace = run(markov_config)
    arrivals = trace.t_arr - trace.origin
    # arrival-free windows: evolve the snapshot and compare atom by atom
    checked = 0
    for t, h in ((2.0, 0.3), (9.0, 0.15), (17.0, 0.25), (25.0, 0.1)):
        if np.any((arrivals > t) & (arrivals <= t + h)):
            continue
        for before, after in zip(trace.snapshot(t), trace.snapshot(t + h)):
            moved = evolve(before, h)
            got = sorted(after.atoms())
            want = sorted(moved.atoms())
            assert len(got) == len(want)
            np.testing.assert_allclose(got, want, atol=1e-9)
            checked += 1
    assert checked > 0


def test_rerun_is_bitwise_identical(markov_config):
    a = run(markov_config)
    b = run(markov_config)
    for name in ("t_arr", "cls", "v", "d", "served", "block_idle", "block_w",
                 "exit_bound"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.jobs() == b.jobs()


def test_different_seeds_differ(markov_config):
    from dataclasses import replace
    a = run(markov_config)
    b = run(replace(markov_config, seed=markov_config.seed + 1))
    assert not np.array_equal(a.t_arr, b.t_arr)


def test_scale_field_equals_prescaled_laws():
    spec = ClassSpec(Exponential(2.0), Exponential(1.0), Exponential(1.0))
    scaled_field = run(SimConfig(classes=(spec,), horizon=4.0, seed=3, scale=10))
    prescaled_spec = ClassSpec(spec.interarrival.scaled(10),
                               spec.service.scaled(10), spec.deadline)
    prescaled = run(SimConfig(classes=(prescaled_spec,), horizon=4.0, seed=3))
    assert np.array_equal(scaled_field.t_arr, prescaled.t_arr)
    assert np.array_equal(scaled_field.v, prescaled.v)
    assert np.array_equal(scaled_field.d, prescaled.d)
    assert np.array_equal(scaled_field.served, prescaled.served)


def test_arrival_tie_resolves_by_class_order():
    spec0 = ClassSpec(Replay((1.0,)), Replay((2.0,)), Replay((5.0,)))
    spec1 = ClassSpec(Replay((1.0,)), Replay((3.0,)), Replay((1.0,)))
    trace = run(SimConfig(classes=(spec0, spec1), horizon=4.0))
    jobs = trace.jobs()
    assert [j.cls for j in jobs] == [0, 1]
    assert jobs[0].served            # class 0 sees the empty system
    assert not jobs[1].served        # class 1 finds 2 units of work, d=1


def test_warm_start_structure():
    spec = ClassSpec(Exponential(2.0), Exponential(1.0), Exponential(1.0))
    config = SimConfig(classes=(spec,), horizon=3.0, seed=5,
                       initial=WarmStart())
    trace = run(config)
    assert trace.origin == pytest.approx(4.0 * LN2, abs=1e-9)
    jobs = trace.jobs()
    assert any(j.arrival < 0 for j in jobs)
    assert trace.workload_at(0.0) > 0.0
    # residual virtual sojourns of live jobs are nondecreasing in arrival order
    virtual, _, t_exit = stored_fate(trace)
    live = (trace.t_arr <= trace.origin) & (t_exit > trace.origin)
    order = np.argsort(trace.t_arr[live], kind="stable")
    rw = (virtual[live] - (trace.origin - trace.t_arr[live]))[order]
    assert np.all(np.diff(rw) >= -1e-9)
    # queries before model time zero are out of range
    with pytest.raises(SimulationError):
        trace.workload_at(-0.5)


def test_warm_start_explicit_duration():
    spec = ClassSpec(Exponential(2.0), Exponential(1.0), Exponential(1.0))
    trace = run(SimConfig(classes=(spec,), horizon=2.0, seed=5,
                          initial=WarmStart(duration=1.5)))
    assert trace.origin == 1.5
    with pytest.raises(SimulationError):
        WarmStart(duration=-1.0)


def test_warm_start_idle_clock_restarts(markov_config):
    from dataclasses import replace
    trace = run(replace(markov_config, horizon=2.0, initial=WarmStart()))
    assert trace.idle_at(0.0) == 0.0
    assert 0.0 <= trace.idle_at(2.0) <= 2.0


def test_residual_tails_ordered(markov_config):
    trace = run(markov_config)
    cs = (0.0, 0.3, 0.8, 1.5, 3.0)
    m = trace.residual_deadline_measures(12.0, cs)[0]
    for a, v in zip(m.residual, m.residual_with_service):
        assert v >= a
    arrivals = int(np.count_nonzero((trace.t_arr > trace.origin)
                                    & (trace.t_arr <= trace.origin + 12.0)))
    # exponential deadlines: some arrivals in (0, 12] are past theirs at 12
    assert 0 < m.residual[0] <= m.residual_with_service[0] < arrivals
    assert list(m.residual) == sorted(m.residual, reverse=True)


def test_fluid_model_of_uses_rates():
    spec = ClassSpec(Exponential(2.0), Exponential(1.0), Exponential(1.0))
    model = fluid_model_of(SimConfig(classes=(spec,), horizon=1.0))
    assert model.classes[0].arrival_rate == pytest.approx(2.0)
    assert model.classes[0].service_rate == pytest.approx(1.0)
    det = ClassSpec(Deterministic(0.5), Deterministic(1.0), Exponential(1.0))
    det_model = fluid_model_of(SimConfig(classes=(det,), horizon=1.0))
    assert det_model.classes[0].arrival_rate == pytest.approx(2.0)
    with pytest.raises(SimulationError):
        fluid_model_of(scripted((1.0,), (1.0,), (1.0,), 1.0))


def test_config_validation():
    spec = ClassSpec(Exponential(1.0), Exponential(1.0), Exponential(1.0))
    with pytest.raises(SimulationError):
        SimConfig(classes=(), horizon=1.0)
    with pytest.raises(SimulationError):
        SimConfig(classes=(spec,), horizon=-1.0)
    with pytest.raises(SimulationError):
        SimConfig(classes=(spec,), horizon=1.0, scale=0)
    with pytest.raises(SimulationError):
        SimConfig(classes=(spec,), horizon=1.0, scale=1.5)
    with pytest.raises(SimulationError):
        ClassSpec(Exponential(1.0), Exponential(1.0), Deterministic(1.0))
    # a bad initial state is rejected where it is built, not inside run
    with pytest.raises(SimulationError):
        SimConfig(classes=(spec,), horizon=1.0, initial="warm")
    for duration in (math.nan, math.inf, "1.0"):
        with pytest.raises(SimulationError):
            WarmStart(duration)
    # types are checked, not left to a later TypeError or to SeedSequence
    for bad in ({"horizon": "1"}, {"horizon": 1.0, "seed": "1"},
                {"horizon": 1.0, "seed": 1.0}, {"horizon": 1.0, "scale": True},
                {"horizon": 1.0, "seed": -1}, {"horizon": 1.0, "seed": np.int64(-3)}):
        with pytest.raises(SimulationError):
            SimConfig(classes=(spec,), **bad)


def test_bool_horizon_is_rejected():
    spec = ClassSpec(Exponential(1.0), Exponential(1.0), Exponential(1.0))
    for horizon in (True, False, np.bool_(True)):
        with pytest.raises(SimulationError, match="horizon"):
            SimConfig(classes=(spec,), horizon=horizon)


def test_bool_warm_up_duration_is_rejected():
    for duration in (True, False):
        with pytest.raises(SimulationError, match="warm-up duration"):
            WarmStart(duration)


def test_queries_past_horizon_rejected(hand_trace):
    with pytest.raises(SimulationError):
        hand_trace.workload_at(7.5)
    with pytest.raises(SimulationError):
        hand_trace.snapshot(8.0)
    with pytest.raises(SimulationError):
        hand_trace.queue_lengths(-1.0)


def test_trace_arrays_immutable(hand_trace):
    with pytest.raises(ValueError):
        hand_trace.t_arr[0] = 0.0


@pytest.fixture(scope="module")
def query_traces():
    """Two-class traces spanning several EXIT_BLOCKs, from empty and warm."""
    classes = (ClassSpec(Exponential(2.0), Exponential(1.0), Exponential(1.0)),
               ClassSpec(Exponential(1.0), UniformInterval(0.5, 1.5),
                         UniformInterval(0.0, 2.0)))
    traces = [run(SimConfig(classes, horizon=3.0, scale=1000, seed=seed, initial=initial))
              for seed, initial in ((4, Empty()), (5, WarmStart()))]
    assert all(len(tr.exit_bound) > 5 for tr in traces)
    return traces


def full_scan_queries(tr, raw, u, cs):
    """Every windowed SimTrace query at raw time, by masks over the whole trace.
    A job is in the system when its residual sojourn and patience are both
    positive. A residual tail counts the residuals x with x > 0 and x >= c."""
    virtual, patience, _ = stored_fate(tr)
    arrived = tr.t_arr <= raw
    rw = virtual - (raw - tr.t_arr)
    rp = patience - (raw - tr.t_arr)
    live = arrived & (rw > 0) & (rp > 0)
    window = (tr.t_arr > tr.origin) & arrived
    elapsed = raw - tr.t_arr
    snap, counts, resid, ages = [], [], [], []
    for k in range(tr.K):
        cls = tr.cls == k
        sel = live & cls
        snap.append(AtomicMeasure2D.from_arrays(rw[sel], rp[sel]))
        total = int(np.count_nonzero(live & cls))
        served = int(np.count_nonzero(live & cls & tr.served))
        counts.append((total, served, total - served))
        sel = window & cls
        resid.append(tuple(
            tuple(int(np.count_nonzero((x > 0) & (x >= c))) for c in cs)
            for x in (tr.d[sel] - elapsed[sel], tr.d[sel] + tr.v[sel] - elapsed[sel])))
        ages.append(int(np.count_nonzero(live & cls & (tr.t_arr <= raw - u))))
    return snap, counts, resid, ages


def model_time(tr, raw):
    """A model time t with t + origin == raw when one is within an ulp, else raw - origin."""
    t = raw - tr.origin
    for cand in (t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)):
        if cand + tr.origin == raw:
            return cand
    return t


def c_values(tr, raw):
    """Tail cut points at raw: 0.0, uniform floats, and the exact residual
    deadline (plus service or not) of a job arrived in (origin, raw], moved
    by 0-2 ulps either way."""
    jobs = np.flatnonzero((tr.t_arr > tr.origin) & (tr.t_arr <= raw))
    exact = st.nothing()
    if len(jobs):
        def residual(i, with_service, ulps, direction):
            elapsed = raw - tr.t_arr[i]
            x = float((tr.d[i] + tr.v[i] if with_service else tr.d[i]) - elapsed)
            for _ in range(ulps):
                x = math.nextafter(x, direction)
            return x
        exact = st.builds(residual, st.sampled_from(jobs.tolist()), st.booleans(),
                          st.integers(0, 2), st.sampled_from((-math.inf, math.inf)))
    return st.just(0.0) | st.floats(0.0, 3.0) | exact


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_trace_queries_equal_full_scan(query_traces, data):
    tr = data.draw(st.sampled_from(query_traces))
    kind = data.draw(st.sampled_from(("uniform", "arrival", "exit", "block_exit")))
    if kind == "uniform":
        t = data.draw(st.floats(0.0, tr.horizon))
    else:
        epochs = {"arrival": tr.t_arr, "exit": stored_fate(tr)[2],
                  "block_exit": tr.exit_bound}[kind]
        raw = float(epochs[data.draw(st.integers(0, len(epochs) - 1))])
        for _ in range(data.draw(st.integers(0, 8))):
            raw = math.nextafter(raw, data.draw(st.sampled_from((-math.inf, math.inf))))
        t = model_time(tr, raw)
        assume(0.0 <= t <= tr.horizon)
    u = data.draw(st.sampled_from((0.0, 0.25)) | st.floats(0.0, t))
    raw = t + tr.origin
    cs = data.draw(st.lists(c_values(tr, raw), min_size=1, max_size=4))
    snap, counts, resid, ages = full_scan_queries(tr, raw, u, cs)
    for got, want in zip(tr.snapshot(t), snap):
        assert np.array_equal(got.w, want.w) and np.array_equal(got.p, want.p)
    assert [tuple(c) for c in tr.queue_lengths(t)] == counts
    assert tr.residual_deadline_measures(t, cs) == resid
    assert tr.age_count(t, u) == ages


def test_residual_tails_across_block_edges():
    """Windows of RESIDUAL_BLOCK - 1, RESIDUAL_BLOCK, RESIDUAL_BLOCK + 1 and
    2 RESIDUAL_BLOCK + 1 jobs, each ending with a job that arrives at the
    query time, equal the whole-trace count."""
    classes = (ClassSpec(Exponential(2.0), Exponential(1.0), Exponential(1.0)),
               ClassSpec(Exponential(1.0), UniformInterval(0.5, 1.5),
                         UniformInterval(0.0, 2.0)))
    tr = run(SimConfig(classes, horizon=12.0, scale=1000, seed=8))
    assert tr.origin == 0.0 and len(tr.t_arr) > 2 * RESIDUAL_BLOCK + 1
    for size in (RESIDUAL_BLOCK - 1, RESIDUAL_BLOCK, RESIDUAL_BLOCK + 1,
                 2 * RESIDUAL_BLOCK + 1):
        raw = float(tr.t_arr[size - 1])
        assert tr.t_arr[size] > raw
        # 0.0, and the residuals of the jobs on either side of each block edge
        edges = [i for i in (RESIDUAL_BLOCK - 1, RESIDUAL_BLOCK, size - 1) if i < size]
        cs = [0.0, 0.5] + [float(tr.d[i] - (raw - tr.t_arr[i])) for i in edges] + [
            float(tr.d[i] + tr.v[i] - (raw - tr.t_arr[i])) for i in edges]
        want = full_scan_queries(tr, raw, 0.0, cs)[2]
        assert tr.residual_deadline_measures(raw, cs) == want


def test_queue_lengths_across_block_edges():
    """queue_lengths and age_count on windows of several RESIDUAL_BLOCKs,
    asked on one trace at times whose windows grow, shrink and repeat, equal
    the whole-trace count."""
    classes = (ClassSpec(Exponential(2.0), Exponential(1.0), Exponential(1.0)),
               ClassSpec(Exponential(1.0), UniformInterval(0.5, 1.5),
                         UniformInterval(0.0, 2.0)))
    tr = run(SimConfig(classes, horizon=3.0, scale=20000, seed=5))
    sizes = []
    for t in (0.5, 3.0, 1.0, 3.0, 0.0, 2.0, 0.5):
        raw = t + tr.origin
        win = tr._window(raw)
        sizes.append(win.stop - win.start)
        _, counts, _, ages = full_scan_queries(tr, raw, 0.25, [0.0])
        assert [tuple(c) for c in tr.queue_lengths(t)] == counts
        assert tr.age_count(t, 0.25) == ages
    assert max(sizes) > 2 * RESIDUAL_BLOCK and 0 in sizes


def test_trace_window_skips_departed_blocks(query_traces):
    tr = query_traces[0]
    win = tr._window(tr.horizon + tr.origin)
    assert win.start >= EXIT_BLOCK and win.start % EXIT_BLOCK == 0


def test_one_window_walk_per_time(markov_config, monkeypatch):
    """snapshot then queue_lengths at one time walk the query window once; a
    time asked again after another gets the same answers. run_plan walks no
    trace: it gathers the jobs in the system once per (n, rep, grid time),
    off the stream."""
    from fluidq import scaling
    from fluidq.simulate import SimTrace

    walks = []
    window = SimTrace._window
    monkeypatch.setattr(SimTrace, "_window",
                        lambda self, raw: walks.append(raw) or window(self, raw))
    trace = run(markov_config)
    answers = []
    for t in (3.0, 14.0, 3.0):
        before = len(walks)
        snap, counts = trace.snapshot(t), trace.queue_lengths(t)
        assert len(walks) - before == 1
        answers.append(([m.atoms() for m in snap], counts, trace.age_count(t, 0.5),
                         trace.queue_lengths(t)))
    assert answers[0] == answers[2]
    assert answers[0][1] == answers[0][3]

    # run_plan gathers each time's jobs in the system once, off the stream
    monkeypatch.setattr(scaling, "_cpus", lambda: 1)    # every walk in this process
    walks.clear()
    gathered = []
    state = simulate._InSystem.state
    monkeypatch.setattr(simulate._InSystem, "state",
                        lambda self: gathered.append(self.raw) or state(self))
    plan = scaling.ScalingPlan(replace(markov_config, horizon=6.0), (10, 20), 2)
    scaling.run_plan(plan)
    assert not walks
    assert len(gathered) == 2 * 2 * len(plan.resolved_time_grid())


def lindley_reference(t_arr, v, d):
    """The scalar Lindley recursion, one job at a time: the reference that
    the chunked pass must equal bit for bit."""
    m = len(t_arr)
    w_before = np.empty(m)
    served = np.empty(m, dtype=bool)
    cum_idle = np.empty(m)
    W = 0.0
    t_prev = 0.0
    idle = 0.0
    for i in range(m):
        gap = t_arr[i] - t_prev
        found = W - gap
        if found < 0.0:
            idle += gap - W
            found = 0.0
        ok = d[i] > found
        w_before[i] = found
        served[i] = ok
        W = found + v[i] if ok else found
        cum_idle[i] = idle
        t_prev = t_arr[i]
    return w_before, served, cum_idle


def assert_same_bits(got, want):
    """Equal arrays, floats compared as int64 views (so -0.0 != 0.0)."""
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        if g.dtype == np.float64:
            g, w = g.view(np.int64), w.view(np.int64)
        assert np.array_equal(g, w)


def assert_bounded_work(work, m):
    assert work.passes <= m / 32 + 64
    assert work.elements <= 32 * m
    assert work.scalar_steps <= m


def reference_blocks(t_arr, v, d):
    """lindley_reference with the idleness kept at each exit block's first
    job, as _lindley returns it."""
    w_before, served, cum_idle = lindley_reference(t_arr, v, d)
    return w_before, served, cum_idle[::EXIT_BLOCK]


def assert_trace_is_reference(tr):
    """The stored columns, and the idleness derived from them, are the
    scalar recursion's."""
    want = lindley_reference(tr.t_arr, tr.v, tr.d)
    assert_same_bits((tr.w_before, tr.served, tr.block_idle, tr.cum_idle),
                     (*want[:2], want[2][::EXIT_BLOCK], want[2]))


@given(m=st.sampled_from((0, 1, 2, CHUNK_MIN - 1, CHUNK_MIN, CHUNK_MIN + 1,
                          2 * CHUNK_MIN + 1)) | st.integers(0, 3000),
       seed=st.integers(0, 2**32 - 1),
       n=st.sampled_from((1.0, 10.0, 1000.0)),
       rho=st.sampled_from((0.3, 0.9, 1.0, 2.0, 5.0)),
       service=st.sampled_from(("exponential", "deterministic")),
       deadline=st.sampled_from(("exponential", "band", "zero")),
       ties=st.sampled_from((0.0, 0.5, 1.0)),
       window=st.sampled_from((CHUNK_MIN, 1000, CHUNK_MAX)))
@settings(max_examples=150, deadline=None)
def test_lindley_equals_scalar_recursion(m, seed, n, rho, service, deadline, ties, window):
    """Services of mean 1/n at offered load rho; deadlines exponential,
    within 1e-3 of 1 (the band level of the deterministic queue at rho = 2),
    or all zero; a share of the interarrival gaps is zero (tied epochs). The
    first window is the smallest, the largest, or one between."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / (rho * n), m)
    gaps[rng.random(m) < ties] = 0.0
    t_arr = np.cumsum(gaps)
    v = rng.exponential(1.0 / n, m) if service == "exponential" else np.full(m, 1.0 / n)
    d = {"exponential": lambda: rng.exponential(1.0, m),
         "band": lambda: rng.uniform(0.999, 1.001, m),
         "zero": lambda: np.zeros(m)}[deadline]()
    *got, work = _lindley(t_arr, v, d, window=window)
    assert_same_bits(got, reference_blocks(t_arr, v, d))
    assert_bounded_work(work, m)
    assert CHUNK_MIN <= work.window <= CHUNK_MAX


def law(kind, rate):
    return {"exponential": Exponential(rate), "deterministic": Deterministic(1.0 / rate),
            "uniform": UniformInterval(0.5 / rate, 1.5 / rate)}[kind]


class_specs = st.builds(
    lambda a, ka, s, ks, dl: ClassSpec(law(ka, a), law(ks, s), dl),
    st.floats(0.2, 3.0), st.sampled_from(("exponential", "deterministic", "uniform")),
    st.floats(0.5, 3.0), st.sampled_from(("exponential", "deterministic", "uniform")),
    st.sampled_from((Exponential(1.0), UniformInterval(0.999, 1.001),
                     UniformInterval(0.0, 2.0),
                     UniformMixture(((0.5, 0.0, 1.0), (0.5, 2.0, 3.0))))))


@given(classes=st.lists(class_specs, min_size=1, max_size=3),
       scale=st.sampled_from((1, 10, 100, 1000)),
       horizon=st.floats(0.0, 3.0), seed=st.integers(0, 1000),
       initial=st.sampled_from((Empty(), WarmStart(0.5), WarmStart(2.0))))
@settings(max_examples=60, deadline=None)
def test_run_equals_scalar_recursion(classes, scale, horizon, seed, initial):
    assert_trace_is_reference(run(SimConfig(tuple(classes), horizon=horizon, scale=scale,
                                            seed=seed, initial=initial)))


@given(classes=st.lists(class_specs, min_size=1, max_size=3),
       scale=st.sampled_from((1, 10, 100, 1000)), seed=st.integers(0, 1000),
       initial=st.sampled_from((Empty(), WarmStart(0.5), WarmStart(2.0))),
       frac=st.floats(0.0, 1.0))
@example(classes=[ClassSpec(law("exponential", 2.0), law("exponential", 0.5),
                            UniformMixture(((0.5, 0.0, 1.0), (0.5, 2.0, 3.0)))),
                  ClassSpec(law("deterministic", 1.75), law("exponential", 1.0),
                            Exponential(1.0))],
         scale=1000, seed=0, initial=Empty(), frac=1.0)
@settings(max_examples=60, deadline=None)
def test_snapshot_keeps_fifo_order(classes, scale, seed, initial, frac):
    """Each class's residual virtual sojourns come in arrival order, which
    is FIFO order, so they are nondecreasing up to rounding. Two atoms of a
    class at trace indices i < j invert by at most (3 (j - i) / 2 + 2) ulps
    of M = max(raw time, largest w).

    Why: the atom of job k is fl(W_k - fl(raw - t_k)), where W_k is the
    workload the Lindley pass left after job k. Every float in play lies
    below about 2M (W_k is a residual below the largest w plus an elapsed
    time below raw), so each rounding is within one ulp of M, and within
    half of one for the gaps and residuals, which lie below M. From W_k to
    W_{k+1} the pass subtracts the rounded gap fl(t_{k+1} - t_k) (up to half
    an ulp), rounds the difference (up to one) and adds the service or
    nothing, a rounding that cannot lower the sum; clamping at 0 cannot
    either. So W_j >= W_i - (t_j - t_i) - 3 (j - i) / 2 ulps, and the two
    elapsed times and the two atoms' subtractions add half an ulp each. The
    pinned example inverts by 5 ulps across 12 jobs in between."""
    tr = run(SimConfig(tuple(classes), horizon=3.0, scale=scale, seed=seed,
                       initial=initial))
    t = 3.0 * frac
    raw = t + tr.origin
    win = slice(None, int(np.searchsorted(tr.t_arr, raw, side="right")))
    elapsed = raw - tr.t_arr[win]
    served = tr.served[win]
    rw = np.where(served, tr.w_before[win] + tr.v[win], tr.w_before[win]) - elapsed
    rp = np.where(served, tr.d[win] + tr.v[win], tr.d[win]) - elapsed
    for k, snap in enumerate(tr.snapshot(t)):
        index = np.flatnonzero((tr.cls[win] == k) & (rw > 0) & (rp > 0))
        assert len(index) == len(snap)
        if len(snap) > 1:
            drop = snap.w[:-1] - snap.w[1:]
            ulps = 1.5 * np.diff(index) + 2
            assert np.all(drop <= ulps * np.spacing(max(raw, np.max(snap.w))))


def test_snapshot_equals_the_where_columns(markov_config):
    """snapshot takes the rebuilt workload after each arrival, w_before
    plus v * served, and adds v * served onto d; for finite services those
    are the floats of np.where(served, x + v, x), also on a
    two-class trace, whose classes snapshot takes by mask."""
    two = replace(markov_config, classes=markov_config.classes * 2, horizon=5.0)
    for tr in (run(markov_config), run(two)):
        for t in (0.0, 1.7, tr.horizon):
            raw = t + tr.origin
            win = slice(None, int(np.searchsorted(tr.t_arr, raw, side="right")))
            elapsed = raw - tr.t_arr[win]
            served = tr.served[win]
            rw = np.where(served, tr.w_before[win] + tr.v[win], tr.w_before[win]) - elapsed
            rp = np.where(served, tr.d[win] + tr.v[win], tr.d[win]) - elapsed
            for k, snap in enumerate(tr.snapshot(t)):
                keep = (tr.cls[win] == k) & (rw > 0) & (rp > 0)
                assert snap.w.view(np.int64).tolist() == rw[keep].view(np.int64).tolist()
                assert snap.p.view(np.int64).tolist() == rp[keep].view(np.int64).tolist()


@pytest.mark.parametrize("c", (1e-6, 1.0, 1e6))
def test_time_slack_scales_with_the_horizon(c):
    """Queries fewer than TIME_SLACK_ULPS ulps of the horizon outside
    [0, horizon] are answered and the rest rejected, whatever the time unit.
    NaN is rejected too, not read as NaN or as zero counts."""
    spec = ClassSpec(Exponential(2.0 / c), Exponential(1.0 / c), Exponential(1.0 / c))
    tr = run(SimConfig((spec,), horizon=6.0 * c, scale=10, seed=3))
    slack = TIME_SLACK_ULPS * np.spacing(tr.horizon)
    for t in (0.0, -0.0, tr.horizon, math.nextafter(tr.horizon, math.inf)):
        tr.snapshot(t)
        tr.workload_at(t)
    for t in (tr.horizon + slack, -slack, tr.horizon + 1e-9 * c, math.nan):
        for query in (tr.queue_lengths, tr.workload_at, tr.idle_at):
            with pytest.raises(SimulationError, match="outside the horizon"):
                query(t)


positive = st.floats(0.01, 3.0)


@given(inter=st.lists(positive, max_size=40), services=st.lists(positive, min_size=40,
                                                                   max_size=40),
       deadlines=st.lists(positive, min_size=40, max_size=40), twin=st.booleans())
@settings(max_examples=100, deadline=None)
def test_scripted_run_equals_scalar_recursion(inter, services, deadlines, twin):
    """Replay scripts; twin adds a second class with the same epochs, so
    every arrival is tied."""
    spec = ClassSpec(Replay(inter), Replay(services), Replay(deadlines))
    classes = (spec, ClassSpec(Replay(inter), Replay(services[::-1]),
                               Replay(deadlines[::-1]))) if twin else (spec,)
    assert_trace_is_reference(run(SimConfig(classes, horizon=sum(inter) + 1.0)))


def test_infinite_services_are_rebuilt_as_the_scalar_recursion():
    """An infinite service makes v * served NaN for a job that is not
    served; the rebuild hands that block to the scalar step, which adds no
    service there, so w_before, the idleness and every exit are the scalar
    recursion's."""
    tr = run(scripted((1.0, 0.5, 0.5, 0.5, 0.5, 4.0), (2.0, math.inf, 1.0, math.inf, 1.0, 1.0),
                      (10.0, 0.1, 10.0, 10.0, 10.0, 10.0), 8.0))
    assert_trace_is_reference(tr)
    assert tr.jobs()[1].virtual_sojourn == 1.5 and tr.workload_at(2.0) == 2.0
    assert tr.workload_at(2.75) == math.inf


def test_an_infinite_service_guessed_unserved_is_simulated_without_a_warning():
    """The first infinite service fills the system for good, so the pass
    guesses the later jobs unserved, and v * served is NaN at the later
    infinite services: the pass rejects those places and takes the scalar
    step there, without numpy's invalid-value warning."""
    n = 40
    tr = run(scripted((0.1,) * n, (math.inf,) + (1.0,) * 25 + (math.inf,) * (n - 26),
                      (10.0,) * n, 8.0))
    assert_trace_is_reference(tr)
    assert tr.served.tolist() == [True] + [False] * (n - 1)


def test_an_infinite_service_not_served_keeps_its_patience():
    """Job 2 (arriving at 1.1, infinite service, deadline 0.5) finds 1.9 of
    work and is not served; at 1.15 its residual patience is 0.45, not the
    NaN of d + v * served, so it is in the system beside job 1. snapshot
    gives both atoms without numpy's invalid-value warning, its counts and
    age counts are Python ints, and readings reads the same state."""
    config = scripted((1.0, 0.1, 0.1, 0.1, 0.1, 0.1), (2.0, math.inf, 1.0, math.inf, 1.0, 1.0),
                      (5.0, 0.5, 5.0, 0.5, 5.0, 5.0), 2.0)
    tr = run(config)
    want = [(1.0 - 0.15 + 1.0, 5.0 + 2.0 - 0.15), (1.9 - 0.05, 0.5 - 0.05)]
    streamed = next(simulate.readings(config, 0.0, (1.15,), (0.1,)))
    for state in (tr.state(1.15, (0.1,)), streamed.state):
        assert np.array(state.measures[0].atoms()) == pytest.approx(np.array(want), abs=1e-12)
        assert state.counts == [(2, 1, 1)] and state.old == [[1]]
        assert all(type(x) is int for x in (*state.counts[0], *state.old[0]))
    assert [(s.w.tobytes(), s.p.tobytes()) for s in tr.snapshot(1.15)] == \
        [(s.w.tobytes(), s.p.tobytes()) for s in streamed.state.measures]


ADVERSARIAL = {
    # deterministic service, deadlines within 1e-3 of the band level 1, rho = 2
    "band_level": (ClassSpec(Exponential(2.0), Deterministic(1.0),
                             UniformInterval(0.999, 1.001)),),
    # the same with two classes of deterministic arrivals: every epoch is tied
    "band_level_tied": 2 * (ClassSpec(Deterministic(1.0), Deterministic(1.0),
                                      UniformInterval(0.999, 1.001)),),
    # rho = 0.5: the server idles every few jobs
    "underloaded": (ClassSpec(Exponential(0.5), Exponential(1.0), Exponential(1.0)),),
    "overloaded_markov": (ClassSpec(Exponential(2.0), Exponential(1.0), Exponential(1.0)),),
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_lindley_work_is_bounded_on_adversarial_inputs(name):
    tr = run(SimConfig(ADVERSARIAL[name], horizon=4.0, scale=5000, seed=9,
                       initial=WarmStart(1.0)))
    m = len(tr.t_arr)
    assert m > 10_000
    *got, work = _lindley(tr.t_arr, tr.v, tr.d)
    assert_same_bits(got, reference_blocks(tr.t_arr, tr.v, tr.d))
    assert_bounded_work(work, m)


@pytest.mark.parametrize("name", ("band_level", "band_level_tied", "overloaded_markov"))
def test_lindley_with_known_fates_stops_only_at_idle_restarts(name, monkeypatch):
    """Given the stored fates as its guesses, the pass keeps them: no pass
    stops at a flipped guess, only at an idle restart. So on these
    overloaded queues started from empty, whose few restarts come first, a
    pass fails at most once per restart and the scalar step takes at most
    one stretch per restart, both in one call over the whole run and in
    SimTrace's rebuild of w_before. The outputs are the run's."""
    tr = run(SimConfig(ADVERSARIAL[name], horizon=4.0, scale=500, seed=9))
    m = len(tr.t_arr)
    found, served = np.empty(m), tr.served.copy()
    works = [_lindley(tr.t_arr, tr.v, tr.d, window=CHUNK_MAX, known=True,
                      out=(found, served, np.empty(-(-m // EXIT_BLOCK))))[-1]]
    assert_same_bits((found, served), (tr.w_before, tr.served))
    restarts = np.count_nonzero(found == 0.0)
    assert 0 < restarts < 20

    def counted(*args, **kwargs):
        out = _lindley(*args, **kwargs)
        works.append(out[-1])
        return out

    monkeypatch.setattr(simulate, "_lindley", counted)
    assert_same_bits([tr.w_before], [found])
    assert len(works) > 1 or restarts == 1      # a lone restart is job 0, at block_w
    for work in works:
        assert work.passes <= restarts + 2
        assert work.scalar_steps <= restarts * (1 + simulate.STRETCH_MIN)


def test_stream_carries_the_window_across_chunks(caplog):
    """The stream passes _lindley's window size from one chunk to the next,
    so a streamed run of the acceptance model at n = 1e5 (37 chunks) makes
    about as many vector passes as one _lindley call over all its jobs, not
    a ramp from CHUNK_MIN per chunk: 398 passes against the one call's 418
    (657 when each chunk started afresh). run and readings (here at the
    horizon, so over the whole run) are the same stream."""
    config = SimConfig(ADVERSARIAL["overloaded_markov"], horizon=6.0, scale=100_000, seed=1)
    with caplog.at_level(logging.DEBUG, logger="fluidq.simulate"):
        tr = run(config)
        for _ in simulate.readings(config, 0.0, (config.horizon,)):
            pass
    ran, streamed = (int(re.search(r"(\d+) vector passes", r.getMessage()).group(1))
                     for r in caplog.records)
    jobs = len(tr.t_arr)
    assert f"{jobs // simulate.STREAM_CHUNK + 1} chunks, {jobs} jobs" in caplog.text
    assert ran == streamed <= 1.05 * _lindley(tr.t_arr, tr.v, tr.d)[-1].passes


def test_run_logs_its_work(caplog):
    """run logs the stream's line, here for one chunk."""
    with caplog.at_level(logging.DEBUG, logger="fluidq.simulate"):
        tr = run(SimConfig(ADVERSARIAL["overloaded_markov"], horizon=2.0, scale=1000))
    assert f"simulate: 1 chunks, {len(tr.t_arr)} jobs" in caplog.text
    assert "vector passes" in caplog.text and "scalar steps" in caplog.text


# simulate_large's model from bench/workloads.py
LARGE_CLASSES = (
    ClassSpec(HyperExponential(((0.5, 1.0), (0.5, 4.0))), Exponential(1.0),
              UniformMixture(((0.5, 0.0, 1.0), (0.5, 2.0, 3.0)))),
    ClassSpec(Exponential(1.0), HyperExponential(((0.5, 1.5), (0.5, 6.0))),
              UniformInterval(0.5, 2.5)),
)


def test_run_memory_peak_per_job():
    """run's peak allocation, per job, on simulate_large's model: the
    trace keeps 26 B/job. The sort used to hold every unsorted column and
    the order beside the sorted ones (99 B/job), and the exit bound two
    full temporaries (61 B/job), then one (51 B/job); one whole-run merge
    through one buffer took 45.3 B/job (42.7 at scale 2e4). Streamed into
    whole-run columns, it took 44.8 B/job (36.6 at scale 2e4) with the
    workload found kept per job, and takes 40.7 (28.8) with it kept per
    exit block, most of it the columns' capacity, 65,536 jobs for 63,360
    here: tracemalloc counts their untouched end."""
    config = SimConfig(LARGE_CLASSES, horizon=6.0, scale=2000, seed=1, initial=WarmStart())
    run(replace(config, scale=10))   # warm numpy and the band solve outside the count
    tracemalloc.start()
    try:
        tr = run(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tr.t_arr) > 50_000
    assert peak / len(tr.t_arr) <= 48


def test_block_exits_are_each_blocks_latest_exit():
    """_block_exits, built EXITS_SPAN jobs at a time, is the latest of the
    trace's exits in each block of EXIT_BLOCK jobs, bit for bit, for runs
    of jobs ending anywhere around a span."""
    tr = run(SimConfig(LARGE_CLASSES, horizon=6.0, scale=1000, seed=2, initial=WarmStart()))
    span = simulate.EXITS_SPAN
    assert len(tr.t_arr) > 2 * span + 5
    for n in (0, 1, EXIT_BLOCK - 1, EXIT_BLOCK + 1, span - 1, span, span + 1,
              2 * span + 5, len(tr.t_arr)):
        cols = (tr.t_arr[:n], tr.v[:n], tr.d[:n], tr.w_before[:n], tr.served[:n])
        want = np.maximum.reduceat(tr.t_exit[:n], np.arange(0, n, EXIT_BLOCK)) if n else []
        assert_same_bits([simulate._block_exits(*cols)], [np.asarray(want, dtype=float)])


def test_residual_query_memory_does_not_grow_with_the_window():
    """One residual_deadline_measures call at t = 6 on simulate_large's
    model: its peak allocation is the same at scale 2e4 as at 2e3 (the
    three 1-D measures per class it used to build peaked at 12.7 MB at
    2e4), and what it returns holds a few counts."""
    def query(scale):
        tr = run(SimConfig(LARGE_CLASSES, horizon=6.0, scale=scale, seed=1,
                           initial=WarmStart()))
        tr.residual_deadline_measures(6.0)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tails = tr.residual_deadline_measures(6.0)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        window = np.count_nonzero((tr.t_arr > tr.origin) & (tr.t_arr <= tr.origin + 6.0))
        return window, peak - before, after - before, tails

    small_window, small_peak, _, _ = query(2000)
    window, peak, retained, tails = query(20_000)
    assert window > 5 * small_window and small_window > RESIDUAL_BLOCK
    assert peak <= small_peak + 64 * 1024
    assert peak < 4 * 1024 * 1024
    assert retained < 4 * 1024
    assert len(tails) == 2


@pytest.mark.parametrize("classes", (LARGE_CLASSES[:1], LARGE_CLASSES))
def test_snapshot_keeps_16_bytes_per_atom(classes):
    """A snapshot's measures are counting measures: what it leaves allocated
    is each atom's w and p, 16 bytes, and no array of unit masses (24 bytes
    per atom with one), for one class and for the per-class split."""
    tr = run(SimConfig(classes, horizon=6.0, scale=2000, seed=1, initial=WarmStart()))
    tr.snapshot(6.0)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        snaps = tr.snapshot(6.0)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    atoms = sum(len(s) for s in snaps)
    assert len(snaps) == len(classes) and atoms > 1000
    assert retained <= 16 * atoms + 2048


def arrival_epochs_reference(law, rng, horizon):
    """Renewal epochs in (0, horizon] as the simulator drew them before
    _class_jobs (the former _arrival_epochs): blocks of 1.25 times the
    expected count until their sum passes the horizon, one cumsum of them
    all, one cut (a scripted Replay one gap at a time)."""
    if isinstance(law, Replay):
        gaps = []
        total = 0.0
        while total <= horizon and law.remaining:
            gap = law.sample(rng)
            gaps.append(gap)
            total += gap
        epochs = np.cumsum(np.asarray(gaps, dtype=float))
        return epochs[epochs <= horizon]
    block = max(16, int(horizon / law.mean() * 1.25) + 16)
    parts = []
    total = 0.0
    while total <= horizon:
        draws = law.sample(rng, block)
        parts.append(draws)
        total += float(draws.sum())
    epochs = np.cumsum(np.concatenate(parts))
    return epochs[epochs <= horizon]


@contextmanager
def chunked(chunk, draw):
    """Run the stream with STREAM_CHUNK = chunk and DRAW_BLOCK = draw."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "STREAM_CHUNK", chunk)
        mp.setattr(simulate, "DRAW_BLOCK", draw)
        yield


def streamed_chunks(config, t_warm):
    """The stream's chunks in arrival order, each in arrays of its own."""
    kind = simulate._cls_kind(config)
    return [chunk for chunk, _ in simulate._stream(
        config, t_warm, lambda i: simulate._empty_chunk(kind, simulate.STREAM_CHUNK))]


interarrivals = st.sampled_from((
    Exponential(2.0), HyperExponential(((0.5, 1.0), (0.5, 4.0))),
    UniformInterval(0.25, 0.75), Deterministic(0.5), Deterministic(0.3)))


@given(laws=st.lists(interarrivals, min_size=1, max_size=3),
       scale=st.sampled_from((1, 100, 1000)),
       horizon=st.sampled_from((0.0, 0.3, 1.0, 1.5, 3.0)) | st.floats(0.0, 3.0),
       seed=st.integers(0, 1000), draw=st.sampled_from((1, 7, 64, 1024)),
       chunk=st.sampled_from((1024, 2048)))
@settings(max_examples=60, deadline=None)
def test_chunked_arrival_epochs_equal_one_cumsum(laws, scale, horizon, seed, draw, chunk):
    """The stream's merged epochs and classes, drawn in blocks of `draw`
    gaps and cut into chunks of `chunk` jobs, and run's, equal
    one cumsum per class cut at the horizon and one stable argsort of the
    classes' concatenation: horizons on an epoch of the deterministic laws
    and tied epochs across classes (two classes with one deterministic law)
    included."""
    config = SimConfig(tuple(ClassSpec(a, Exponential(1.0), Exponential(1.0)) for a in laws),
                       horizon=horizon, scale=scale, seed=seed)
    epochs = [arrival_epochs_reference(spec.interarrival.scaled(scale), stream(seed, k, 0),
                                       horizon) for k, spec in enumerate(config.classes)]
    t = np.concatenate(epochs)
    order = np.argsort(t, kind="stable")
    cls = np.repeat(np.arange(len(laws)), [len(e) for e in epochs])[order]
    with chunked(chunk, draw):
        parts = streamed_chunks(config, 0.0)
    streamed = [np.concatenate([p.t_arr for p in parts]),
                np.concatenate([p.cls for p in parts]).astype(np.int64)]
    tr = run(config)
    for got in (streamed, (tr.t_arr, tr.cls.astype(np.int64))):
        assert_same_bits(got, (t[order], cls))


LIVE_CONFIGS = {
    "markov_empty": SimConfig(ADVERSARIAL["overloaded_markov"], horizon=3.0, scale=3000,
                              seed=5),
    "two_class_warm": SimConfig(LARGE_CLASSES, horizon=3.0, scale=1200, seed=2,
                                initial=WarmStart()),
    # rho = 0.5 after a warm-up of about four chunks of 1024 jobs
    "underloaded_warm": SimConfig(ADVERSARIAL["underloaded"], horizon=3.0, scale=1000,
                                  seed=3, initial=WarmStart(8.0)),
    # every epoch tied across three classes; 1024 is not a multiple of 3
    "tied_deterministic": SimConfig(3 * (ClassSpec(Deterministic(1.0), Exponential(1.0),
                                                   Exponential(1.0)),),
                                    horizon=12.0, scale=500, seed=1),
    # Replay scripts that run out inside the second chunk of 1024 jobs.
    "replay_runs_out": SimConfig((ClassSpec(
        Replay(tuple(np.full(1500, 0.01))), Replay(tuple(np.full(1500, 0.015))),
        Replay(tuple(np.linspace(0.5, 2.0, 1500)))),), horizon=50.0),
}
# (STREAM_CHUNK, DRAW_BLOCK) settings: small chunks that the stream cuts
# anywhere, and the defaults, at which every LIVE_CONFIGS run is one chunk.
CHUNKINGS = ((1024, 16), (4096, 333), (simulate.STREAM_CHUNK, simulate.DRAW_BLOCK))
COLUMNS = ("t_arr", "cls", "v", "d", "served", "block_idle", "block_w", "exit_bound")


@pytest.mark.parametrize("name", sorted(LIVE_CONFIGS))
def test_chunks_join_into_run(name):
    """run is the stream written into whole-run columns: the stream's
    chunks, at every chunk and draw size, joined, are run's columns bit for
    bit (the exit blocks accumulated, its exit bound), and those are the
    scalar recursion's."""
    config = LIVE_CONFIGS[name]
    tr = run(config)
    assert 1024 < len(tr.t_arr) < simulate.STREAM_CHUNK
    want = [getattr(tr, c) for c in COLUMNS]
    for chunk, draw in CHUNKINGS:
        with chunked(chunk, draw):
            parts = streamed_chunks(config, tr.origin)
        *got, block_exits = (np.concatenate(field) for field in zip(*parts))
        assert_same_bits(got + [np.maximum.accumulate(block_exits)], want)
    assert_trace_is_reference(tr)


@pytest.mark.parametrize("name", ("markov_empty", "two_class_warm", "tied_deterministic"))
def test_run_outgrows_its_columns(name, monkeypatch):
    """A run whose columns start at one chunk of 1024 jobs, so that its
    stream moves them to doubled columns several times, is the default
    run's and the scalar recursion's, bit for bit: one class, two, and three
    with every epoch tied."""
    config = LIVE_CONFIGS[name]
    want = [getattr(run(config), c) for c in COLUMNS]
    sizes = []
    empty_chunk = simulate._empty_chunk

    def counted(kind, jobs):
        sizes.append(jobs)
        return empty_chunk(kind, jobs)

    monkeypatch.setattr(simulate, "_empty_chunk", counted)
    monkeypatch.setattr(simulate, "_capacity", lambda config, t_end: 1024)
    with chunked(1024, 16):
        tr = run(config)
    assert sizes[:3] == [1024, 2048, 4096] and sizes[-1] >= len(tr.t_arr)
    assert_same_bits([getattr(tr, c) for c in COLUMNS], want)
    assert_trace_is_reference(tr)


REBUILD_LAWS = {
    # rho = 0.5: about half the jobs find the system empty
    "underloaded": ADVERSARIAL["underloaded"],
    # deterministic service with deadlines near the band level, every epoch tied
    "band_level_tied": ADVERSARIAL["band_level_tied"],
    "band_level": ADVERSARIAL["band_level"],
    "two_class_warm": LARGE_CLASSES,
}


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_rebuilt_workload_equals_lindley_from_the_start(data):
    """A trace keeps the workload found once per exit block (block_w) and
    rebuilds it: on any range of jobs from the first job of an exit block,
    the workload found and the workload after each arrival are _lindley's,
    run over all the jobs from the start, bit for bit. Idle-heavy input,
    tied epochs and deterministic service near the band, at every chunking
    of the stream, and in columns that start at one 1024-job chunk and are
    outgrown."""
    name = data.draw(st.sampled_from(sorted(REBUILD_LAWS)), label="laws")
    chunk, draw = data.draw(st.sampled_from(CHUNKINGS), label="chunking")
    outgrow = data.draw(st.booleans(), label="outgrow")
    config = SimConfig(REBUILD_LAWS[name], horizon=2.0, scale=6000,
                       seed=data.draw(st.integers(0, 1000), label="seed"),
                       initial=WarmStart(1.0))
    with chunked(chunk, draw), pytest.MonkeyPatch.context() as mp:
        if outgrow:
            mp.setattr(simulate, "_capacity", lambda config, t_end: 1024)
        tr = run(config)
    m = len(tr.t_arr)
    assert m > 2 * chunk or chunk == simulate.STREAM_CHUNK
    w_before, served, _, _ = _lindley(tr.t_arr, tr.v, tr.d)
    after = np.where(served, w_before + tr.v, w_before)
    assert_same_bits([tr.served, tr.block_w, tr.w_before],
                     [served, w_before[::EXIT_BLOCK], w_before])
    lo = EXIT_BLOCK * data.draw(st.integers(0, (m - 1) // EXIT_BLOCK), label="block")
    hi = data.draw(st.integers(lo, m) | st.sampled_from((min(lo + 1, m), m)), label="hi")
    assert_same_bits(tr._rebuilt(lo, hi), (w_before[lo:hi], after[lo:hi]))


AGES = (0.25, 0.0)


def streamed_answers(config, times):
    """readings' answers at each time (ascending) in query_answers' form,
    and the most jobs they held from one chunk to the next."""
    got = list(simulate.readings(config, simulate._warmup_duration(config), times, AGES))
    answers = [answer_bits([(s.w, s.p) for s in r.state.measures], r.state.counts,
                           r.state.old, r.workload, r.idle, r.tails) for r in got]
    return answers, got[-1].most


def answer_bits(atoms, counts, old, workload, idle, tails):
    """What run_plan reads at one time, floats as their bits."""
    snaps = [(w.view(np.int64).tolist(), p.view(np.int64).tolist()) for w, p in atoms]
    w, idle = (np.float64(x).view(np.int64) for x in (workload, idle))
    return snaps, counts, old, w, idle, tails


def query_answers(tr, t):
    """run's trace's queries at t, in answer_bits' form."""
    return answer_bits([(s.w, s.p) for s in tr.snapshot(t)], tr.queue_lengths(t),
                       [tr.age_count(t, u) for u in AGES], tr.workload_at(t), tr.idle_at(t),
                       tr.residual_deadline_measures(t))


def live_times(name, tr):
    """Query times for test_readings_answer_as_the_full_trace: grid times,
    times on arrival epochs, on the first arrival of each 1024-job chunk
    (tied with the last of the chunk before in the three deterministic
    classes) and between the last job of a chunk and the first of the next,
    where the underloaded queue is often empty. That queue's times start
    after the second chunk past the one holding its warm-up origin has
    begun, so the idleness at the origin is read chunks before the first
    time is."""
    ends, starts = tr.t_arr[1023::1024], tr.t_arr[1024::1024]
    between = [e + f * (s - e) for e, s in zip(ends, starts) for f in (0.3, 0.6)]
    arrivals = tr.t_arr[len(tr.t_arr) // 3::len(tr.t_arr) // 5]
    times = [t - tr.origin for t in [*between, *starts, *arrivals]]
    start = 0.0
    if name == "underloaded_warm":
        holding = int(np.searchsorted(tr.t_arr, tr.origin, side="right")) - 1
        start = tr.t_arr[1024 * (holding // 1024 + 2)] - tr.origin + 0.05
    return sorted(t for t in [start, 0.0, 0.0, 0.4, 1.0, 2.5, 3.0] + times
                  if start <= t <= tr.horizon)


@pytest.mark.parametrize("chunking", CHUNKINGS)
@pytest.mark.parametrize("name", sorted(LIVE_CONFIGS))
def test_readings_answer_as_the_full_trace(name, chunking):
    """readings answers every query run_plan makes as run's trace does, bit
    for bit, at every chunking, and holds fewer than half of the run's
    jobs from one chunk to the next. Each job is held once, whatever the
    number of times: at most the jobs arrived by one time (or the origin)
    that leave after its exit cut."""
    config = LIVE_CONFIGS[name]
    full = run(config)
    times = live_times(name, full)
    with chunked(*chunking):
        answers, most = streamed_answers(config, times)
    assert answers == [query_answers(full, t) for t in times]
    assert most < len(full.t_arr) / 2
    t_exit = full.t_exit
    assert most <= max(np.count_nonzero((full.t_arr <= raw) & (t_exit > simulate._exit_cut(raw)))
                       for raw in [full.origin, *(t + full.origin for t in times)])


@pytest.fixture(scope="module")
def reference_idleness():
    """Per LIVE_CONFIGS run: its trace, and the scalar recursion's workload
    after each arrival and idleness up to each arrival."""
    out = {}
    for name, config in LIVE_CONFIGS.items():
        tr = run(config)
        w_before, served, cum_idle = lindley_reference(tr.t_arr, tr.v, tr.d)
        out[name] = tr, np.where(served, w_before + tr.v, w_before), cum_idle
    return out


def reference_idle(t_arr, w_after, cum_idle, raw):
    """The scalar recursion's idleness up to raw: at the last arrival by
    raw, then the idle stretch after its workload ran out."""
    i = int(np.searchsorted(t_arr, raw, side="right")) - 1
    if i < 0:
        return raw
    return float(cum_idle[i]) + max(raw - t_arr[i] - w_after[i], 0.0)


def idle_times(tr, w_after):
    """Model times on an arrival, on the first arrival of an exit block or
    the last of the block before (in raw time, moved by 0-2 ulps either
    way), or inside a stretch where the server idles before the next
    arrival; all within the horizon."""
    blocks = np.arange(EXIT_BLOCK, len(tr.t_arr), EXIT_BLOCK)
    ends = tr.t_arr + w_after
    gaps = np.flatnonzero(ends[:-1] < tr.t_arr[1:])
    inside = (tr.t_arr >= tr.origin) & (tr.t_arr <= tr.origin + tr.horizon)
    epochs = tr.t_arr[np.flatnonzero(inside)]
    blocks = blocks[inside[blocks] & inside[blocks - 1]]
    edges = tr.t_arr[np.concatenate([blocks, blocks - 1])]
    gaps = gaps[inside[gaps + 1] & (ends[gaps] >= tr.origin)]

    def nudged(raw, ulps, direction):
        for _ in range(ulps):
            raw = math.nextafter(raw, direction)
        return raw

    raws = st.builds(nudged, st.sampled_from(epochs.tolist()), st.integers(0, 2),
                     st.sampled_from((-math.inf, math.inf)))
    if len(edges):
        raws |= st.builds(nudged, st.sampled_from(edges.tolist()), st.integers(0, 2),
                          st.sampled_from((-math.inf, math.inf)))
    if len(gaps):
        raws |= st.builds(lambda i, f: float(ends[i] + f * (tr.t_arr[i + 1] - ends[i])),
                          st.sampled_from(gaps.tolist()), st.floats(0.0, 1.0))
    return raws.map(lambda raw: model_time(tr, raw)).filter(lambda t: 0.0 <= t <= tr.horizon)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_idle_at_equals_the_scalar_recursion(reference_idleness, data):
    """idle_at, rebuilt from each exit block's idleness, and the busy time
    t - idle_at(t) are the scalar recursion's bit for bit, on run's trace
    and on readings at every chunking, at times on arrivals, on exit-block
    boundaries and inside idle stretches."""
    name = data.draw(st.sampled_from(sorted(LIVE_CONFIGS)))
    tr, w_after, cum_idle = reference_idleness[name]
    times = sorted(data.draw(st.lists(idle_times(tr, w_after), min_size=1, max_size=20)))
    origin = reference_idle(tr.t_arr, w_after, cum_idle, tr.origin)
    idle = [reference_idle(tr.t_arr, w_after, cum_idle, t + tr.origin) - origin for t in times]
    want = [(i.hex(), (t - i).hex()) for t, i in zip(times, idle)]

    def answer(t, idle):
        return idle.hex(), (t - idle).hex()

    chunk, draw = data.draw(st.sampled_from(CHUNKINGS))
    with chunked(chunk, draw):
        full = run(LIVE_CONFIGS[name])
        assert [answer(t, full.idle_at(t)) for t in times] == want
        streamed = simulate.readings(LIVE_CONFIGS[name], tr.origin, times)
        assert [answer(t, r.idle) for t, r in zip(times, streamed)] == want
