"""Exact simulation of the multiclass FIFO queue with reneging.

The discipline makes an event calendar unnecessary: under FIFO with
abandon-before-service, everything about a job is decided the instant it
arrives. If its deadline exceeds the workload it finds, it will be served,
the workload jumps by its service requirement, and its exit epoch is
arrival + (workload found + service). Otherwise it never reaches the
server and exits when its patience runs out. The simulation is therefore
a single pass over the merged arrival stream, and every produced quantity
is exact (no discretization anywhere).

Warm starts are realized by simulating from empty for a warm-up period
and shifting the time origin; the state this produces automatically
satisfies the structural constraints a legal time-zero state must carry
(nondecreasing virtual sojourns, patience below virtual sojourn exactly
for jobs that did not move the workload).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import Distribution, DistributionError, Replay, stream
from .fluid import FluidClass, FluidModelInput, equilibrium_band
from .measures import ABANDONMENT, SERVICE, AtomicMeasure1D, AtomicMeasure2D


# Jobs per block of SimTrace's running bound on exit times; a query skips
# whole blocks of jobs that left before its time.
EXIT_BLOCK = 1024
# The skip margin in ulps of the query's raw time: a job that left at least
# this long before raw has residual sojourn or patience <= 0 there, whatever
# the rounding of raw - t_arr.
EXIT_MARGIN_ULPS = 4


class SimulationError(ValueError):
    """Invalid simulation configuration or query."""


@dataclass(frozen=True)
class Empty:
    """Start from an empty system."""


@dataclass(frozen=True)
class WarmStart:
    """Start from the state reached after a warm-up period from empty.

    duration=None asks for the default 4 * w_u, long enough for the fluid
    workload to be well inside its equilibrium band.
    """

    duration: float | None = None


@dataclass(frozen=True)
class ClassSpec:
    """Interarrival, service, and deadline laws of one class."""

    interarrival: Distribution
    service: Distribution
    deadline: Distribution

    def __post_init__(self):
        if not (self.deadline.is_continuous or isinstance(self.deadline, Replay)):
            raise SimulationError(
                f"{type(self.deadline).__name__} cannot be a deadline law: "
                "deadline CDFs must be continuous (scripted Replay is the test-only exception)")


@dataclass(frozen=True)
class SimConfig:
    """A single simulation run.

    scale is the time-acceleration factor n: interarrival and service
    samples are divided by n while deadlines stay physical, so the offered
    load is independent of n and one unit of simulated time sees about n
    times the traffic.
    """

    classes: tuple[ClassSpec, ...]
    horizon: float
    scale: int = 1
    seed: int = 0
    initial: Empty | WarmStart = Empty()

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if not self.classes:
            raise SimulationError("need at least one class")
        if self.horizon < 0:
            raise SimulationError(f"horizon must be nonnegative, got {self.horizon}")
        if not (isinstance(self.scale, int) and self.scale >= 1):
            raise SimulationError(f"scale must be an integer >= 1, got {self.scale}")


@dataclass(frozen=True)
class JobRecord:
    """Everything decided about one job at its arrival epoch.

    Times are model times (warm-up arrivals have negative ones). The
    virtual sojourn is the time the job would take to reach the back of
    service: workload found plus own service if served, workload found
    alone if not. Patience is deadline plus service if served (the job
    survives its whole stay) and the raw deadline otherwise.
    """

    cls: int
    index: int
    arrival: float
    service: float
    deadline: float
    workload_before: float
    virtual_sojourn: float
    patience: float
    served: bool
    exit_time: float
    exit_cause: str


class ClassCounts(NamedTuple):
    total: int
    nonabandoning: int
    abandoning: int


class DeadlineMeasures(NamedTuple):
    """1-D measures over arrivals since time zero: raw deadlines, residual
    deadlines, and residual deadlines shifted by the own service time."""

    deadlines: AtomicMeasure1D
    residual: AtomicMeasure1D
    residual_with_service: AtomicMeasure1D


def fluid_model_of(config: SimConfig) -> FluidModelInput:
    """The fluid model this configuration converges to (scale-invariant)."""
    classes = []
    for spec in config.classes:
        try:
            lam = 1.0 / spec.interarrival.mean()
            mu = 1.0 / spec.service.mean()
        except DistributionError as exc:
            raise SimulationError(
                "scripted Replay laws have no rates; no fluid model exists") from exc
        classes.append(FluidClass(lam, mu, spec.deadline))
    return FluidModelInput(tuple(classes))


def _warmup_duration(config: SimConfig) -> float:
    if isinstance(config.initial, Empty):
        return 0.0
    if config.initial.duration is not None:
        if config.initial.duration < 0:
            raise SimulationError("warm-up duration must be nonnegative")
        return config.initial.duration
    _, w_u = equilibrium_band(fluid_model_of(config))
    return 4.0 * w_u


def _arrival_epochs(law: Distribution, rng: np.random.Generator, horizon: float) -> np.ndarray:
    """Renewal epochs in (0, horizon], drawn from the interarrival law.

    A scripted Replay stream that runs out simply stops producing
    arrivals; for genuine laws draws continue until the horizon is passed.
    """
    if isinstance(law, Replay):
        gaps = []
        total = 0.0
        while total <= horizon and law.remaining:
            gap = float(law.sample(rng))
            gaps.append(gap)
            total += gap
        epochs = np.cumsum(np.asarray(gaps, dtype=float))
        return epochs[epochs <= horizon]
    try:
        block = max(16, int(horizon / law.mean() * 1.25) + 16)
    except DistributionError:
        block = 256
    parts: list[np.ndarray] = []
    total = 0.0
    while total <= horizon:
        draws = np.atleast_1d(law.sample(rng, block))
        parts.append(draws)
        total += float(draws.sum())
    epochs = np.cumsum(np.concatenate(parts))
    return epochs[epochs <= horizon]


def run(config: SimConfig) -> "SimTrace":
    """Simulate the queue; deterministic for a fixed config.

    Per-class substreams for interarrivals, services, and deadlines are
    derived from the base seed, so any two configurations sharing the seed
    see pathwise-coupled primitives. Arrival ties across classes resolve
    in class order.
    """
    t_warm = _warmup_duration(config)
    t_end = t_warm + config.horizon

    for spec in config.classes:
        for law in (spec.interarrival, spec.service, spec.deadline):
            if isinstance(law, Replay):
                law.reset()

    all_t, all_k, all_v, all_d = [], [], [], []
    for k, spec in enumerate(config.classes):
        rng_a = stream(config.seed, k, 0)
        rng_v = stream(config.seed, k, 1)
        rng_d = stream(config.seed, k, 2)
        interarrival = spec.interarrival.scaled(config.scale)
        service = spec.service.scaled(config.scale)
        epochs = _arrival_epochs(interarrival, rng_a, t_end)
        m = len(epochs)
        all_t.append(epochs)
        all_k.append(np.full(m, k, dtype=np.min_scalar_type(len(config.classes) - 1)))
        all_v.append(np.atleast_1d(service.sample(rng_v, m)) if m else np.empty(0))
        all_d.append(np.atleast_1d(spec.deadline.sample(rng_d, m)) if m else np.empty(0))

    t_arr = np.concatenate(all_t)
    order = np.argsort(t_arr, kind="stable")
    t_arr = t_arr[order]
    cls = np.concatenate(all_k)[order]
    v = np.concatenate(all_v)[order]
    d = np.concatenate(all_d)[order]

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

    return SimTrace(config, t_warm, t_arr, cls, v, d, w_before, served, cum_idle)


class SimTrace:
    """Complete, immutable record of one run; all queries take model time.

    Per job, in arrival order, it stores what the simulation pass decides:
    ``t_arr``, ``cls`` (narrowest integer dtype holding K - 1), ``v``, ``d``,
    the workload found ``w_before``, ``served``, and the idleness so far
    ``cum_idle``. ``_fate`` derives the virtual sojourn, patience and exit
    epoch on the jobs a query reads. A job's virtual sojourn is the workload
    just after its arrival, and the path between arrivals has slope -1 while
    positive, so these reconstruct it everywhere.
    """

    def __init__(self, config, origin, t_arr, cls, v, d, w_before, served, cum_idle):
        self.config = config
        self.origin = float(origin)
        self.horizon = float(config.horizon)
        self.t_arr = t_arr
        self.cls = cls
        self.v = v
        self.d = d
        self.w_before = w_before
        self.served = served
        self.cum_idle = cum_idle
        # exit_bound[j]: the latest exit among the jobs of blocks 0..j
        t_exit = self.t_exit
        self.exit_bound = (np.maximum.accumulate(np.maximum.reduceat(
            t_exit, np.arange(0, len(t_exit), EXIT_BLOCK))) if len(t_exit) else t_exit)
        for arr in (t_arr, cls, v, d, w_before, served, cum_idle, self.exit_bound):
            arr.flags.writeable = False

    def _fate(self, win) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Virtual sojourn, patience and raw exit epoch of the jobs in win, by
        the float operations of the simulation pass (W = w_before + v if served)."""
        served, w, d, v = self.served[win], self.w_before[win], self.d[win], self.v[win]
        virtual = np.where(served, w + v, w)
        patience = np.where(served, d + v, d)
        return virtual, patience, self.t_arr[win] + np.where(served, virtual, d)

    @property
    def t_exit(self) -> np.ndarray:
        """Raw exit epoch of every job (derived, not stored)."""
        return self._fate(slice(None))[2]

    @property
    def K(self) -> int:
        return len(self.config.classes)

    def _raw(self, t: float) -> float:
        if t < -1e-12 or t > self.horizon + 1e-9:
            raise SimulationError(f"time {t} outside the horizon [0, {self.horizon}]")
        return t + self.origin

    def jobs(self) -> list[JobRecord]:
        """All jobs in arrival order; warm-up jobs carry negative arrivals."""
        virtual, patience, t_exit = self._fate(slice(None))
        count = [0] * self.K
        out = []
        for i, k in enumerate(self.cls.tolist()):
            count[k] += 1
            out.append(JobRecord(
                cls=k,
                index=count[k],
                arrival=float(self.t_arr[i] - self.origin),
                service=float(self.v[i]),
                deadline=float(self.d[i]),
                workload_before=float(self.w_before[i]),
                virtual_sojourn=float(virtual[i]),
                patience=float(patience[i]),
                served=bool(self.served[i]),
                exit_time=float(t_exit[i] - self.origin),
                exit_cause=SERVICE if self.served[i] else ABANDONMENT,
            ))
        return out

    def workload_at(self, t: float) -> float:
        """W(t): remaining work at model time t (right-continuous)."""
        raw = self._raw(t)
        i = int(np.searchsorted(self.t_arr, raw, side="right")) - 1
        if i < 0:
            return 0.0
        w_after = self._fate(slice(i, i + 1))[0][0]
        return max(float(w_after - (raw - self.t_arr[i])), 0.0)

    def idle_at(self, t: float) -> float:
        """I(t): cumulative idleness of the server over model (0, t]."""
        return self._idle_raw(self._raw(t)) - self._idle_raw(self.origin)

    def busy_at(self, t: float) -> float:
        """B(t) = t - I(t): cumulative busy time over model (0, t]."""
        return t - self.idle_at(t)

    def _idle_raw(self, raw: float) -> float:
        i = int(np.searchsorted(self.t_arr, raw, side="right")) - 1
        if i < 0:
            return raw
        w_after = self._fate(slice(i, i + 1))[0][0]
        return float(self.cum_idle[i]) + max(raw - self.t_arr[i] - w_after, 0.0)

    def _window(self, raw: float) -> slice:
        """Index range of every job that can be in the system at raw: later
        jobs arrive after raw, and each earlier job left by raw minus the
        margin, so its residual sojourn or patience at raw is <= 0."""
        hi = int(np.searchsorted(self.t_arr, raw, side="right"))
        cut = raw - EXIT_MARGIN_ULPS * np.spacing(abs(raw))
        lo = EXIT_BLOCK * int(np.searchsorted(self.exit_bound, cut, side="right"))
        return slice(min(lo, hi), hi)

    def _live(self, raw: float) -> tuple[slice, np.ndarray]:
        """The query window and which of its jobs are in the system at raw."""
        win = self._window(raw)
        return win, self._fate(win)[2] > raw

    def snapshot(self, t: float) -> list[AtomicMeasure2D]:
        """Per-class unit-atom measures at (residual sojourn, residual patience)."""
        raw = self._raw(t)
        win = self._window(raw)
        elapsed = raw - self.t_arr[win]
        rw, rp = (x - elapsed for x in self._fate(win)[:2])
        cls = self.cls[win]
        out = []
        for k in range(self.K):
            sel = cls == k
            out.append(AtomicMeasure2D.from_arrays(
                rw[sel], rp[sel], np.ones(int(sel.sum())), class_id=k))
        return out

    def queue_lengths(self, t: float) -> list[ClassCounts]:
        """Per class: jobs in system at t, split by eventual fate."""
        raw = self._raw(t)
        win, live = self._live(raw)
        cls, served = self.cls[win], self.served[win]
        out = []
        for k in range(self.K):
            sel = live & (cls == k)
            n_served = int(np.count_nonzero(sel & served))
            total = int(np.count_nonzero(sel))
            out.append(ClassCounts(total, n_served, total - n_served))
        return out

    def residual_deadline_measures(self, t: float) -> list[DeadlineMeasures]:
        """Per class, over arrivals in model (0, t]: raw deadline atoms,
        residual-deadline atoms, and residual atoms shifted by service."""
        raw = self._raw(t)
        win = slice(int(np.searchsorted(self.t_arr, self.origin, side="right")),
                    int(np.searchsorted(self.t_arr, raw, side="right")))
        elapsed = raw - self.t_arr[win]
        cls, d, v = self.cls[win], self.d[win], self.v[win]
        out = []
        for k in range(self.K):
            sel = cls == k
            ones = np.ones(int(sel.sum()))
            out.append(DeadlineMeasures(
                deadlines=AtomicMeasure1D.from_arrays(d[sel], ones, class_id=k),
                residual=AtomicMeasure1D.from_arrays(
                    d[sel] - elapsed[sel], ones, class_id=k),
                residual_with_service=AtomicMeasure1D.from_arrays(
                    d[sel] + v[sel] - elapsed[sel], ones, class_id=k),
            ))
        return out

    def age_count(self, t: float, u: float) -> list[int]:
        """Per class: jobs in system at t that arrived at or before t - u."""
        if u < 0:
            raise SimulationError(f"age must be nonnegative, got {u}")
        raw = self._raw(t)
        win, live = self._live(raw)
        old = live & (self.t_arr[win] <= raw - u)
        cls = self.cls[win]
        return [int(np.count_nonzero(old & (cls == k))) for k in range(self.K)]
