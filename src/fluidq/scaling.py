"""Convergence harness: fluid-scaled simulations against fluid predictions.

The n-th system accelerates time by n (interarrivals and services divided
by n, deadlines untouched), so one unit of simulated time carries about n
jobs and masses are compared after division by n. Workload and idle time
are compared unscaled: both are O(1) objects in the accelerated system,
and the theory sends idle time to zero outright.

Weak convergence of measures is probed through evaluations on a grid of
upper-right rectangles; those evaluations determine the limit measure and
the limits charge no rectangle boundary, so shrinking evaluation gaps are
a sound convergence surrogate.
"""
from __future__ import annotations

import csv
import json
import logging
import math
import numbers
import os
import time
import traceback
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .distributions import mix_seed
from .fluid import (FluidModelInput, FluidSolution, ZeroInitial, _eval_boxes,
                    fluid_grid, residual_deadline_limit, solve_fluid)
from .measures import (Box, _corner_grids, box_masses, corner_mass, rect_distance,
                       upper_right)
from .numerics import sig17
# run is not called here; bench/workloads.py reads and patches scaling.run
# by name, so the name stays.
from .simulate import (DEFAULT_C_GRID, LiveJobs, SimConfig, _warmup_duration,  # noqa: F401
                       chunks, fluid_model_of, residual_tails, run, tail_counts)
from .simulate import log as simulate_log


log = logging.getLogger(__name__)


class ScalingError(ValueError):
    """Invalid plan or mismatched comparison request."""


DEFAULT_KAPPAS = (0.05, 0.1, 0.2, 0.4)


def default_rect_grid(model: FluidModelInput) -> tuple[Box, ...]:
    """6x6 grid of upper-right rectangles [x, inf) x [y, inf).

    The x knots span the union of supports the fluid state can reach
    (workload band plus deadline scale) and the y knots span the deadline
    scale d~ = min(sup deadline support, 3 * the largest mean deadline).
    """
    _, w_u = model.band
    xs = np.linspace(0.0, w_u + model.d_tilde, 6)
    ys = np.linspace(0.0, model.d_tilde, 6)
    return tuple(upper_right(float(x), float(y)) for x in xs for y in ys)


def corner_points(grid: tuple[Box, ...]) -> tuple[tuple[float, float], ...]:
    """The distinct lower-left corners of a rectangle grid, used as the
    reference corners for the boundary-regularity probe."""
    return tuple(sorted({(box.a, box.c) for box in grid}))


def _whole(x) -> bool:
    """A finite real number with no fractional part: not a bool or string."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and math.isfinite(x) and x == int(x))


@dataclass(frozen=True)
class ScalingPlan:
    """One convergence experiment: a base system, scales, replications,
    and the grids everything is compared on."""

    base: SimConfig
    scales: tuple[int, ...]
    replications: int
    time_grid: tuple[float, ...] | None = None
    rect_grid: tuple[Box, ...] | None = None
    ages: tuple[float, ...] = (0.25,)

    def __post_init__(self):
        if self.base.scale != 1:
            raise ScalingError("plan base must be the unscaled (n=1) system")
        if not self.scales or not all(_whole(n) and n >= 1 for n in self.scales):
            raise ScalingError(f"scales must be positive integers, got {self.scales!r}")
        object.__setattr__(self, "scales", tuple(int(n) for n in self.scales))
        if any(b <= a for a, b in zip(self.scales, self.scales[1:])):
            raise ScalingError("scales must be strictly increasing")
        if not (isinstance(self.replications, numbers.Integral)
                and not isinstance(self.replications, bool) and self.replications >= 1):
            raise ScalingError(f"need a whole number of replications, at least one, "
                               f"got {self.replications!r}")
        if self.time_grid is not None:
            grid = tuple(float(t) for t in self.time_grid)
            if not all(0 <= t <= self.base.horizon for t in grid):
                raise ScalingError("time grid must lie within [0, horizon]")
            object.__setattr__(self, "time_grid", grid)
        if not all(u >= 0 for u in self.ages):
            raise ScalingError(f"ages must be nonnegative, got {self.ages}")

    @cached_property
    def model(self) -> FluidModelInput:
        """The base system's fluid model, built once per plan."""
        return fluid_model_of(self.base)

    def seed(self, n: int, rep: int) -> int:
        return mix_seed(self.base.seed, n, rep)

    def resolved_time_grid(self) -> tuple[float, ...]:
        if self.time_grid is not None:
            return self.time_grid
        return tuple(float(t) for t in np.linspace(0.0, self.base.horizon, 13))

    def resolved_rect_grid(self) -> tuple[Box, ...]:
        if self.rect_grid is not None:
            return tuple(self.rect_grid)
        return default_rect_grid(self.model)


@dataclass(frozen=True)
class ReportRow:
    n: int
    rep: int
    t: float
    metric: str
    cls: int | None
    sim_value: float
    fluid_value: float
    abs_err: float


CSV_COLUMNS = ("n", "rep", "t", "metric", "class", "sim_value", "fluid_value", "abs_err")


class ScalingReport:
    """Rows plus per-(n, metric) sup-error summaries."""

    def __init__(self, plan: ScalingPlan, rows: list[ReportRow],
                 footer: tuple[str, ...] = ()):
        self.plan = plan
        self.rows = rows
        self.footer = tuple(footer)

    def _groups(self) -> dict[tuple[int, str], tuple[dict, dict]]:
        """One pass over the rows: per (n, metric), in order of first
        appearance, the sup of abs_err per replication and the abs_errs of
        each (t, class) cell in row order."""
        groups: dict[tuple[int, str], tuple[dict, dict]] = {}
        for row in self.rows:
            sups, cells = groups.setdefault((row.n, row.metric), ({}, {}))
            sups[row.rep] = max(sups.get(row.rep, 0.0), row.abs_err)
            cells.setdefault((row.t, row.cls), []).append(row.abs_err)
        return groups

    @staticmethod
    def _sup_errors(sups: dict) -> list[float]:
        return [sups[rep] for rep in sorted(sups)]

    @staticmethod
    def _sup_of_mean_error(cells: dict) -> float:
        """The largest mean over the cells, each holding one error per
        replication: one row mean per cell, the bits of np.mean on each."""
        return max(np.mean(np.array(list(cells.values())), axis=1).tolist())

    def sup_errors(self, n: int, metric: str) -> list[float]:
        """Per replication: sup over the time grid (and classes) of the
        absolute error for one metric at one scale."""
        sups, _ = self._groups().get((n, metric), ({}, {}))
        return self._sup_errors(sups)

    def sup_of_mean_error(self, n: int, metric: str) -> float:
        """Sup over the time grid (and classes) of the replication-averaged
        absolute error: the headline convergence statistic."""
        group = self._groups().get((n, metric))
        if group is None:
            raise ScalingError(f"no rows for n={n}, metric={metric!r}")
        return self._sup_of_mean_error(group[1])

    def metrics(self) -> list[str]:
        seen = dict.fromkeys(row.metric for row in self.rows)
        return list(seen)

    def summary(self) -> list[dict]:
        groups, metrics = self._groups(), self.metrics()
        out = []
        for n in self.plan.scales:
            for metric in metrics:
                if (n, metric) not in groups:
                    continue
                sups, cells = groups[n, metric]
                arr = np.asarray(self._sup_errors(sups))
                out.append({
                    "n": n,
                    "metric": metric,
                    "reps": len(arr),
                    "sup_mean_err": self._sup_of_mean_error(cells),
                    "mean_sup_err": float(arr.mean()),
                    "max_sup_err": float(arr.max()),
                    "std_sup_err": float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
                })
        return out

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for r in self.rows:
                writer.writerow([
                    r.n, r.rep, sig17(r.t), r.metric,
                    "" if r.cls is None else r.cls,
                    sig17(r.sim_value), sig17(r.fluid_value), sig17(r.abs_err),
                ])

    def summary_dict(self) -> dict:
        return {"summary": self.summary(), "footer": list(self.footer)}

    def to_summary_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary_dict(), fh, indent=2)
            fh.write("\n")


class _FluidTargets:
    """Fluid-side values on the comparison grids, computed once per plan:
    z, n, a and every age count from one fluid_grid pass over the whole
    time grid, and the boxes of every class from one more inversion,
    indexed [class][time index]. An age count at a grid time t < u is not
    read: ages u > t get no rows.

    Warm-started simulations are compared against the time-shifted
    empty-start fluid solution: the fluid dynamics are autonomous, so the
    limit of a system warmed up for T0 is the empty-start solution read at
    T0 + t.
    """

    def __init__(self, plan: ScalingPlan, grid: tuple[float, ...],
                 rect_grid: tuple[Box, ...], c_grid: tuple[float, ...]):
        model = plan.model
        self.t0 = t0 = _warmup_duration(plan.base)
        solution: FluidSolution = solve_fluid(model, ZeroInitial(), t0 + plan.base.horizon)
        grid = np.array(grid)
        ts = t0 + grid
        classes = range(len(plan.base.classes))
        self.K = len(classes)
        self.workload = solution.workload.at(ts).tolist()
        values = fluid_grid(solution, ts, plan.ages)
        self.queue_length = values.queue_length.tolist()
        self.nonabandoning = values.nonabandoning.tolist()
        self.abandoning = values.abandoning.tolist()
        self.age_count = {(k, u): values.age_count[i, k].tolist()
                          for i, u in enumerate(plan.ages) for k in classes}
        # per class and time, {box: mass}
        self.boxes = [[dict(zip(rect_grid, row)) for row in masses.T.tolist()]
                      for masses in _eval_boxes(solution, classes, ts, rect_grid)]
        self.residual_tail = [[[residual_deadline_limit(model, k, t, c) for c in c_grid]
                               for t in grid.tolist()] for k in classes]


def _row(n, rep, t, metric, cls, sim_value, fluid_value) -> ReportRow:
    return ReportRow(n, rep, float(t), metric, cls, float(sim_value),
                     float(fluid_value), abs(float(sim_value) - float(fluid_value)))


def _state_rows(n, rep, now, targets, i, t, rect_grid, rect_edges, ages) -> list[ReportRow]:
    """Queue lengths, fate splits, rectangle distances and age counts from
    now, the trace's state at t with the plan's ages."""
    rows = []
    for k in range(targets.K):
        z, nn, aa = now.counts[k]
        rows.append(_row(n, rep, t, "queue_length", k, z / n,
                         targets.queue_length[k][i]))
        rows.append(_row(n, rep, t, "nonabandoning", k, nn / n,
                         targets.nonabandoning[k][i]))
        rows.append(_row(n, rep, t, "abandoning", k, aa / n,
                         targets.abandoning[k][i]))
        fluid_boxes = targets.boxes[k][i]
        sim_boxes = dict(zip(rect_grid, box_masses(now.measures[k], *rect_edges).tolist()))
        dist = rect_distance(lambda box: sim_boxes[box] / n,
                             fluid_boxes.__getitem__, rect_grid)
        rows.append(_row(n, rep, t, "rect_measure", k, dist, 0.0))
    for u, old in zip(ages, now.old):
        if u > t:
            continue
        for k in range(targets.K):
            rows.append(_row(n, rep, t, f"age_count@{u:g}", k, old[k] / n,
                             targets.age_count[k, u][i]))
    return rows


def _timed(seconds: dict, section: str, fn, *args):
    """fn(*args), adding its wall time to seconds[section]."""
    start = time.perf_counter()
    out = fn(*args)
    seconds[section] += time.perf_counter() - start
    return out


def _workload_rows(n, rep, trace, targets, i, t) -> list[ReportRow]:
    return [_row(n, rep, t, "workload", None, trace.workload_at(t), targets.workload[i]),
            _row(n, rep, t, "idle", None, trace.idle_at(t), 0.0)]


def _residual_rows(n, rep, per_class, targets, i, t, c_grid) -> list[ReportRow]:
    """A_tail@c and V_tail@c per class and c: the run's residual-deadline
    tail counts, fluid-scaled, against lambda_k * int_c^{c+t} G_k."""
    rows = []
    for k in range(targets.K):
        tails = per_class[k]
        for c, a, v, target in zip(c_grid, tails.residual, tails.residual_with_service,
                                   targets.residual_tail[k][i]):
            rows.append(_row(n, rep, t, f"A_tail@{c:g}", k, a / n, target))
            rows.append(_row(n, rep, t, f"V_tail@{c:g}", k, v / n, target))
    return rows


def _corner_rows(n, rep, snaps, t, corners, kappas) -> list[ReportRow]:
    worst = np.zeros(len(kappas))
    for snap in snaps:
        worst = np.maximum(worst, corner_mass(snap, corners, kappas).max(axis=0) / n)
    return [_row(n, rep, t, f"corner_mass@{kappa:g}", None, w, 0.0)
            for kappa, w in zip(kappas, worst)]


def run_plan(plan: ScalingPlan, c_grid=None, kappas=None) -> ScalingReport:
    """Every comparison section, from one simulation per (scale, replication).

    Rows per trace, in order: 'workload' and 'idle' (W^n against the fluid
    workload and I^n against 0, both unscaled); fluid-scaled queue lengths,
    fate splits, age counts and rectangle-grid measure distances; the
    residual-deadline tails A_tail@c and V_tail@c against the common fluid
    target lambda_k * int_c^{c+t} G_k; and the worst fluid-scaled mass near
    any grid corner set, per kappa.

    Each simulation is streamed (simulate.chunks), and each grid time is
    evaluated, in time order, as soon as the stream has passed it, on a
    trace of the jobs still held (simulate.LiveJobs), so memory follows the
    jobs in the system rather than the length of the run. The residual
    tails sum each chunk's counts for every time not yet passed.

    The (scale, replication) simulations are seeded independently, so they
    run one share per CPU the process may use (``_shares``): this process
    runs the first share, and a forked child runs each other one. The rows
    are joined in plan order, so they are the same bits whatever the CPU
    count; with one CPU or one simulation, no child is started. Each
    simulation's fluidq.simulate records are held back and emitted here just
    before its run_plan line, so the log is in plan order too.
    """
    grid = plan.resolved_time_grid()
    rect_grid = plan.resolved_rect_grid()
    c_grid = DEFAULT_C_GRID if c_grid is None else tuple(float(c) for c in c_grid)
    kappas = DEFAULT_KAPPAS if kappas is None else tuple(float(k) for k in kappas)
    if not all(0 < k < math.inf for k in kappas):
        raise ScalingError(f"kappas must be positive and finite, got {list(kappas)}")
    rect_edges = np.array([(box.a, box.b, box.c, box.d) for box in rect_grid]).T
    corners = corner_points(rect_grid)
    targets = _FluidTargets(plan, grid, rect_grid, c_grid)
    order = sorted(range(len(grid)), key=grid.__getitem__)

    def task(n, rep):
        """One (n, rep) simulation: its rows, the jobs it simulated, the
        most jobs it held, the seconds per section, and the fluidq.simulate
        records it made, held back from every handler for this process to
        emit."""
        records = []

        def hold(record):
            record.msg, record.args = record.getMessage(), None     # so it pickles
            records.append(record)

        simulate_log.addFilter(hold)    # a filter returning None drops the record
        try:
            return (*simulate(n, rep), records)
        finally:
            simulate_log.removeFilter(hold)

    def simulate(n, rep):
        seconds = dict.fromkeys(("simulate", "workload", "state", "residual", "corner"), 0.0)
        config = replace(plan.base, scale=n, seed=seeds[n, rep])
        live = LiveJobs(config, targets.t0)
        raws = [grid[i] + live.origin for i in order]
        counts = [None] * len(grid)     # tail_counts per time, summed over chunks
        workload, state, residual, corner = ([None] * len(grid) for _ in range(4))
        stream = chunks(config, targets.t0)
        j = 0
        while j < len(order):
            chunk = _timed(seconds, "simulate", next, stream, None)
            live.push(chunk)
            if chunk is not None:
                _timed(seconds, "residual", _count_tails, counts, chunk, targets.K,
                       live.origin, order[j:], raws[j:], c_grid)
            while j < len(order) and live.passed(raws[j]):
                i = order[j]
                t = grid[i]
                trace = live.trace()
                workload[i] = _timed(seconds, "workload", _workload_rows,
                                     n, rep, trace, targets, i, t)
                residual[i] = _timed(seconds, "residual", _residual_rows, n, rep,
                                     residual_tails(counts[i]), targets, i, t, c_grid)
                # One walk over the window per time: its measures serve the
                # corner and state rows, its counts the state rows, and it
                # counts towards the state section. The corner probe bins
                # each measure on a grid that holds the rectangle grid's
                # edges, and box_masses then reads the table it left.
                now = _timed(seconds, "state", trace.state, t, plan.ages)
                corner[i] = _timed(seconds, "corner", _corner_rows,
                                   n, rep, now.measures, t, corners, kappas)
                state[i] = _timed(seconds, "state", _state_rows, n, rep, now,
                                  targets, i, t, rect_grid, rect_edges, plan.ages)
                del trace, now
                j += 1
            live.release(raws[j:])
        stream.close()
        rows = [row for section in (workload, state, residual, corner)
                for part in section for row in part]
        return rows, live.jobs, live.most, seconds

    tasks = [(n, rep) for n in plan.scales for rep in range(plan.replications)]
    # Seeded and gridded before any child is forked, which then inherits
    # numpy.random and the corner grids instead of loading them again.
    seeds = {key: plan.seed(*key) for key in tasks}
    if kappas:
        _corner_grids(corners, kappas)
    shares = _shares(tasks, _cpus())
    if len(shares) == 1:
        results = {key: task(*key) for key in tasks}
    else:
        results = _run_shares(task, shares)
    share_of = {key: s for s, share in enumerate(shares) for key in share}

    rows: list[ReportRow] = []
    for n, rep in tasks:
        task_rows, jobs, most, seconds, records = results[n, rep]
        rows += task_rows
        for record in records:
            simulate_log.handle(record)
        log.debug("run_plan n=%d rep=%d: %d jobs, at most %d held; seconds: %s; share %d",
                  n, rep, jobs, most,
                  ", ".join(f"{name} {s:.3f}" for name, s in seconds.items()),
                  share_of[n, rep])
    footer = (
        f"statistical assertions use R={plan.replications} replications",
        "convergence tolerances are empirical (no theoretical rate is available)",
    )
    return ScalingReport(plan, rows, footer)


def _cpus() -> int:
    """The CPUs this process may run on; 1 where the OS does not say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _shares(tasks, cpus: int) -> list[list[tuple[int, int]]]:
    """The (n, rep) tasks split into min(cpus, len(tasks)) shares, each in
    plan order. Greedy by weight n, heaviest first (ties in plan order): each
    task goes to the lightest share so far (ties to the first), so the split
    depends on the tasks and the CPU count alone."""
    shares = [[] for _ in range(min(cpus, len(tasks)))]
    weights = [0] * len(shares)
    for index in sorted(range(len(tasks)), key=lambda i: -tasks[i][0]):
        s = weights.index(min(weights))
        shares[s].append(index)
        weights[s] += tasks[index][0]
    return [[tasks[i] for i in sorted(share)] for share in shares]


def _run_shares(task, shares) -> dict:
    """task(n, rep) for every task of the shares, by (n, rep): the first
    share here, each other one in a child forked before it starts, which
    sends its results (or its exception) back through a pipe. The children
    are ended and joined before this returns or raises.

    Forked children inherit the fluid targets and the imported modules,
    which a spawned one would import and compute again.
    Process and Pipe start no helper thread (an executor would), so the
    only other threads at a fork are numpy's BLAS pool, which is made safe
    for fork by its own handlers."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    children = []
    try:
        for share in shares[1:]:
            receive, send = context.Pipe(duplex=False)
            child = context.Process(target=_run_share, args=(task, share, send),
                                    daemon=True)
            child.start()
            send.close()
            children.append((child, receive))
        results = {key: task(*key) for key in shares[0]}
        for child, receive in children:
            try:
                failed, value = receive.recv()
            except EOFError:
                child.join()
                raise ScalingError(f"a run_plan child exited with code {child.exitcode} "
                                   "before sending its rows") from None
            if failed:
                raise value
            results.update(value)
        return results
    finally:
        for child, receive in children:
            receive.close()
            if child.is_alive():
                child.terminate()
            child.join()


def _run_share(task, share, send) -> None:
    """A forked child's work: task(n, rep) for each task of one share, sent
    as (False, results by (n, rep)), or (True, the exception raised), with
    its traceback in a note."""
    try:
        send.send((False, {key: task(*key) for key in share}))
    except Exception as exc:
        if hasattr(exc, "add_note"):    # Python 3.11+
            exc.add_note(f"raised in the run_plan child for tasks {share}:\n"
                         + traceback.format_exc())
        try:
            send.send((True, exc))
        except Exception:   # it does not pickle
            send.send((True, ScalingError(f"{type(exc).__name__}: {exc}")))
    send.close()


def _count_tails(counts, chunk, K, origin, indices, raws, c_grid) -> None:
    """Add one chunk's residual-tail counts to counts[i] for each grid index
    i and its raw time."""
    for i, raw in zip(indices, raws):
        part = tail_counts(chunk.t_arr, chunk.cls, chunk.v, chunk.d, K, origin, raw, c_grid)
        counts[i] = part if counts[i] is None else counts[i] + part


def corner_regularity_probe(plan: ScalingPlan, kappas=None) -> ScalingReport:
    """Rows of the worst fluid-scaled mass near any grid corner set, per
    kappa; smaller kappa must not report more mass."""
    report = run_plan(plan, kappas=kappas)
    rows = [row for row in report.rows if row.metric.startswith("corner_mass@")]
    return ScalingReport(plan, rows, report.footer)
