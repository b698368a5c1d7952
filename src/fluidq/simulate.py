"""Exact simulation of the multiclass FIFO queue with reneging.

The discipline makes an event calendar unnecessary: under FIFO with
abandon-before-service, everything about a job is decided the instant it
arrives. If its deadline exceeds the workload it finds, it will be served,
the workload jumps by its service requirement, and its exit epoch is
arrival + (workload found + service). Otherwise it never reaches the
server and exits when its patience runs out. The simulation is therefore
one Lindley recursion over the merged arrival stream, and every produced
quantity is exact (no discretization anywhere).

The recursion runs in windows of jobs (``_lindley``). While the server
stays busy, the workload each job finds is a running sum of interarrival
decrements and the services of the served jobs, so one np.add.accumulate
performs the recursion's float operations in its order once the fates are
known. A pass guesses the fates, accumulates, and keeps only the prefix of
jobs whose workload was nonnegative and whose fate matches the guess; that
check makes the prefix equal the scalar recursion bit for bit. Idle
restarts and flipped fates take the scalar step, and inputs where they
come every few jobs run as the scalar loop.

Warm starts are realized by simulating from empty for a warm-up period
and shifting the time origin; the state this produces automatically
satisfies the structural constraints a legal time-zero state must carry
(nondecreasing virtual sojourns, patience below virtual sojourn exactly
for jobs that did not move the workload).
"""
from __future__ import annotations

import logging
import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import Distribution, DistributionError, Replay, stream
from .fluid import FluidClass, FluidModelInput
from .measures import ABANDONMENT, SERVICE, AtomicMeasure2D
from .numerics import outside_horizon


# Jobs per block of SimTrace's running bound on exit times; a query skips
# whole blocks of jobs that left before its time.
EXIT_BLOCK = 1024
# The skip margin in ulps of the query's raw time: a job that left at least
# this long before raw has residual sojourn or patience <= 0 there, whatever
# the rounding of raw - t_arr.
EXIT_MARGIN_ULPS = 4
# Bounds of _lindley's adaptive sizes: the window of jobs one vector pass
# takes (CHUNK_MAX caps the temporaries of a pass at a few hundred KiB), and
# the scalar stretch run after a pass that verified few jobs.
CHUNK_MIN, CHUNK_MAX = 64, 1 << 13
STRETCH_MIN, STRETCH_MAX = 16, 1 << 14
# Jobs per span of _block_exits: its temporaries take about 128 KiB whatever
# the run's length.
EXITS_SPAN = 8 * EXIT_BLOCK
# Jobs per chunk of the simulation stream (``chunks``). A multiple of
# EXIT_BLOCK, so chunk boundaries are boundaries of SimTrace's exit blocks
# and a buffer of whole chunks sees the blocks the full trace sees.
STREAM_CHUNK = 32 * EXIT_BLOCK
# Arrivals per block of each class's draws; the blocks being merged into a
# chunk are all that the stream holds besides the chunk itself.
DRAW_BLOCK = 4 * EXIT_BLOCK
# Jobs per block of residual_deadline_measures' counting pass: its buffers
# take a few hundred KiB whatever the window, and larger blocks run no faster.
RESIDUAL_BLOCK = 1 << 14
# The c values at which residual-deadline tails are counted by default.
DEFAULT_C_GRID = (0.0, 0.5, 1.0)
# The smallest positive float, np.nextafter(0.0, 1.0), written out: that call
# at import time added about 0.15 MB to the resident size of every process.
_SMALLEST = 5e-324

log = logging.getLogger(__name__)


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
        if not 0 <= self.horizon < math.inf:
            raise SimulationError(f"horizon must be finite and nonnegative, got {self.horizon}")
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


class ResidualTails(NamedTuple):
    """Per c of a grid, in its order: arrivals whose residual deadline, or
    residual deadline plus own service, is positive and at least c."""

    residual: tuple[int, ...]
    residual_with_service: tuple[int, ...]


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
        if not 0 <= config.initial.duration < math.inf:
            raise SimulationError("warm-up duration must be finite and nonnegative")
        return config.initial.duration
    _, w_u = fluid_model_of(config).band
    return 4.0 * w_u


def _class_jobs(config: SimConfig, k: int, t_end: float, block: int):
    """Class k's arrivals in (0, t_end], in blocks of at most `block`: each
    block's epochs with the services and deadlines of those arrivals.

    Each block of interarrival gaps gets the last epoch folded into its first
    gap, so np.cumsum continues where the previous block ended, with the float
    additions of one cumsum over all gaps; and blocks of draws from one stream
    are the bits of one draw. A scripted Replay stream that runs out simply
    stops producing arrivals; for genuine laws draws continue until the
    horizon is passed.
    """
    spec = config.classes[k]
    rng_a, rng_v, rng_d = (stream(config.seed, k, i) for i in range(3))
    interarrival = spec.interarrival.scaled(config.scale)
    service = spec.service.scaled(config.scale)
    last = 0.0
    while True:
        size = block
        if isinstance(interarrival, Replay):
            size = min(size, interarrival.remaining)
        epochs = interarrival.sample(rng_a, size)
        if size:
            epochs[0] += last
            np.cumsum(epochs, out=epochs)
            last = float(epochs[-1])
        m = int(np.searchsorted(epochs, t_end, side="right"))
        if m < size:
            epochs = epochs[:m].copy()      # a view would keep the block
        yield epochs, service.sample(rng_v, m), spec.deadline.sample(rng_d, m)
        if m < block:
            return


def _reset_replays(config: SimConfig) -> None:
    for spec in config.classes:
        for law in (spec.interarrival, spec.service, spec.deadline):
            if isinstance(law, Replay):
                law.reset()


class LindleyWork(NamedTuple):
    """What one call of the simulation pass did."""

    passes: int         # vector passes over a window of jobs
    elements: int       # jobs in those windows, summed over the passes
    scalar_steps: int   # jobs taken by the scalar step
    window: int         # the window size the next jobs would be taken with


def _steps(t_arr, v, d, lo, hi, state, w_before, served, cum_idle):
    """The scalar Lindley step over jobs lo..hi-1, from state (W, t_prev, idle)
    after job lo-1; writes the jobs' outputs and returns the state after hi-1."""
    W, t_prev, idle = state
    ws, oks, idles = [], [], []
    for t, vi, di in zip(t_arr[lo:hi].tolist(), v[lo:hi].tolist(), d[lo:hi].tolist()):
        gap = t - t_prev
        found = W - gap
        if found < 0.0:
            idle += gap - W
            found = 0.0
        ok = di > found
        ws.append(found)
        oks.append(ok)
        idles.append(idle)
        W = found + vi if ok else found
        t_prev = t
    w_before[lo:hi] = ws
    served[lo:hi] = oks
    cum_idle[lo:hi] = idles
    return W, t_prev, idle


def _lindley(t_arr, v, d, state=(0.0, 0.0, 0.0), window=CHUNK_MIN):
    """The Lindley pass over the merged arrivals, in windows of jobs.

    For jobs in arrival order with services v and deadlines d, starting from
    state (W, t_prev, idle) after the job before them (an empty system at
    time 0 by default) with a first window of `window` jobs, returns the
    workload each job found, whether it was served, the idleness up to its
    arrival, and the LindleyWork done. The outputs are those of the scalar
    recursion

        found = W - (t - t_prev); if found < 0: idle += -found, found = 0
        served = d > found; W = found + v if served else found

    bit for bit. While no job finds the system empty, found is a running sum
    of W, t_prev - t_0, v_0 * s_0, t_0 - t_1, ... with s the served flags,
    and W - (t - t_prev) equals W + (t_prev - t) exactly, so one
    np.add.accumulate over that interleaved sequence repeats the recursion's
    float operations once the flags are known. A pass takes guessed flags for
    a window, accumulates, and accepts the longest prefix whose every job
    found a nonnegative workload and has d > found equal to its guessed flag:
    by induction each of those jobs saw exactly the recursion's state, so the
    check, not the guess, makes the prefix exact. The guesses for the rest of
    the window become d > found of that pass, and fresh jobs are guessed
    against the current workload, so on an overloaded queue a pass usually
    verifies the whole window.

    The job after the prefix (an idle restart or a flipped fate) takes the
    scalar step. The window doubles after a pass that verifies all of it and
    halves after one that verifies less than half (never below CHUNK_MIN); a
    pass that verifies fewer than CHUNK_MIN / 2 jobs is followed by a scalar
    stretch of STRETCH_MIN jobs that doubles on each such pass until a whole
    window verifies. So there is at most about one pass per 32 jobs, the
    windows sum to a small multiple of the jobs, and an input where restarts
    or flips come every few jobs runs as the scalar loop. The returned
    LindleyWork's window is the size reached, so a stream that passes it to
    the call on its next jobs does not ramp up from CHUNK_MIN again.
    """
    m = len(t_arr)
    w_before = np.empty(m)
    served = np.zeros(m, dtype=bool)
    cum_idle = np.empty(m)
    # state: W, t_prev, idle after the last accepted job
    i = guessed = 0
    chunk, stretch = window, STRETCH_MIN
    passes = elements = scalar = 0
    while i < m:
        j = min(i + chunk, m)
        b = j - i
        W, t_prev, idle = state
        if j > guessed:
            lo = max(guessed, i)
            np.greater(d[lo:j], W, out=served[lo:j])
            guessed = j
        seq = np.empty(2 * b + 1)
        seq[0] = W
        seq[1] = t_prev - t_arr[i]
        np.subtract(t_arr[i:j - 1], t_arr[i + 1:j], out=seq[3::2])
        np.multiply(v[i:j], served[i:j], out=seq[2::2])
        found = np.add.accumulate(seq)[1::2]
        fate = d[i:j] > found
        bad = (fate != served[i:j]) | ~(found >= 0.0)   # flipped, or negative (or NaN)
        p = int(np.argmax(bad))
        if not bad[p]:
            p = b
        served[i:j] = fate
        w_before[i:i + p] = found[:p]
        cum_idle[i:i + p] = idle
        if p:
            w = float(found[p - 1])
            state = (w + float(v[i + p - 1]) if fate[p - 1] else w,
                     float(t_arr[i + p - 1]), idle)
        passes += 1
        elements += b
        i += p
        if p == b:
            chunk = min(2 * chunk, CHUNK_MAX)
            stretch = STRETCH_MIN
            continue
        if 2 * p < b:
            chunk = max(chunk // 2, CHUNK_MIN)
        n = 1
        if 2 * (p + 1) < CHUNK_MIN:
            n += stretch
            stretch = min(2 * stretch, STRETCH_MAX)
        n = min(n, m - i)
        state = _steps(t_arr, v, d, i, i + n, state, w_before, served, cum_idle)
        scalar += n
        i += n
    return w_before, served, cum_idle, LindleyWork(passes, elements, scalar, chunk)


class Chunk(NamedTuple):
    """Consecutive jobs of one run in arrival order: SimTrace's seven
    columns, and the latest exit in each block of EXIT_BLOCK of them."""

    t_arr: np.ndarray
    cls: np.ndarray
    v: np.ndarray
    d: np.ndarray
    w_before: np.ndarray
    served: np.ndarray
    cum_idle: np.ndarray
    block_exits: np.ndarray


def chunks(config: SimConfig, t_warm: float) -> Iterator[Chunk]:
    """The run's jobs in arrival order, in chunks of STREAM_CHUNK jobs (the
    last one shorter, and empty only when no job arrives); t_warm is the
    warm-up duration, _warmup_duration(config).

    Each class draws its arrivals, services and deadlines in blocks
    (_class_jobs). The classes are cut at a common time tau, the earliest
    last epoch among the classes still drawing, and the jobs up to tau are
    merged by a stable argsort of their concatenation in class order, so
    arrival ties across classes resolve in class order. The Lindley pass
    carries (W, t_prev, idle) and its window size from one chunk to the next,
    and its check makes the outputs exact whatever the chunk size: the chunks
    are those of one pass over the whole merged stream, bit for bit.
    """
    t_end = t_warm + config.horizon
    K = len(config.classes)
    kind = np.min_scalar_type(K - 1)
    _reset_replays(config)
    draws = [_class_jobs(config, k, t_end, DRAW_BLOCK) for k in range(K)]
    drawing = [True] * K
    none = np.empty(0)
    pending = [(none, none, none)] * K     # per class: drawn, not yet merged
    state = (0.0, 0.0, 0.0)                # (W, t_prev, idle) after the last chunk
    window = CHUNK_MIN                     # _lindley's window size after it
    work = [0, 0, 0, 0]                    # chunks, jobs, vector passes, scalar steps
    out, fill = None, 0                    # the chunk being filled: t, cls, v, d

    def simulated(t, cls, v, d) -> Chunk:
        nonlocal state, window
        w_before, served, cum_idle, lindley = _lindley(t, v, d, state, window)
        window = lindley.window
        if len(t):
            w = float(w_before[-1])
            state = (w + float(v[-1]) if served[-1] else w, float(t[-1]),
                     float(cum_idle[-1]))
        work[:] = (work[0] + 1, work[1] + len(t), work[2] + lindley.passes,
                   work[3] + lindley.scalar_steps)
        return Chunk(t, cls, v, d, w_before, served, cum_idle,
                     _block_exits(t, v, d, w_before, served))

    while True:
        for k in range(K):
            while drawing[k] and not len(pending[k][0]):
                block = next(draws[k], None)
                if block is None:
                    drawing[k] = False
                else:
                    pending[k] = block
        open_ends = [pending[k][0][-1] for k in range(K) if drawing[k]]
        tau = min(open_ends) if open_ends else math.inf
        upto = [int(np.searchsorted(p[0], tau, side="right")) for p in pending]
        parts = [tuple(a[:m] for a in p) for p, m in zip(pending, upto)]
        pending = [tuple(a[m:] for a in p) for p, m in zip(pending, upto)]
        if K == 1:
            t, v, d = parts[0]
            merged, order = (t, np.zeros(len(t), dtype=kind), v, d), None
        else:
            t = np.concatenate([p[0] for p in parts])
            order = np.argsort(t, kind="stable")
            merged = (t, np.repeat(np.arange(K, dtype=kind), [len(p[0]) for p in parts]),
                      np.concatenate([p[1] for p in parts]),
                      np.concatenate([p[2] for p in parts]))
        # Copied, in merged order, into the chunk being filled, which is
        # simulated when full.
        m, a = len(t), 0
        while a < m:
            if out is None:
                out = (np.empty(STREAM_CHUNK), np.empty(STREAM_CHUNK, dtype=kind),
                       np.empty(STREAM_CHUNK), np.empty(STREAM_CHUNK))
            b = min(m, a + STREAM_CHUNK - fill)
            for col, src in zip(out, merged):
                if order is None:
                    col[fill:fill + b - a] = src[a:b]
                else:
                    np.take(src, order[a:b], out=col[fill:fill + b - a])
            fill += b - a
            a = b
            if fill == STREAM_CHUNK:
                yield simulated(*out)
                out, fill = None, 0
        if not any(drawing):
            if fill or not work[0]:
                yield simulated(*(col[:fill] for col in out) if out is not None
                                else (none, np.zeros(0, dtype=kind), none, none))
            log.debug("simulate: %d chunks, %d jobs, %d vector passes, %d scalar steps",
                      *work)
            return


def run(config: SimConfig) -> "SimTrace":
    """Simulate the queue; deterministic for a fixed config.

    Per-class substreams for interarrivals, services, and deadlines are
    derived from the base seed, so any two configurations sharing the seed
    see pathwise-coupled primitives. Arrival ties across classes resolve
    in class order.

    The whole run goes through the steps of ``chunks`` at once: each class's
    draws in one block of about 1.25 times its expected arrivals (more if
    the horizon is not passed), one stable argsort of the classes'
    concatenation, one _lindley pass. The trace's columns are the chunks'
    joined, bit for bit. Whole-run arrays are backed by huge pages, where
    collecting a streamed run's chunks pays a page fault per 4 KiB of them
    and a copy to join them.

    The merge concatenates each float column's class parts into one buffer,
    reused for every column, and gathers the column in arrival order from
    it; a column's parts are freed before the next column is built, so the
    merge holds the buffer and the order beside the columns. The exit
    bounds are built a span of exit blocks at a time (_block_exits).
    """
    t_warm = _warmup_duration(config)
    t_end = t_warm + config.horizon
    _reset_replays(config)
    all_t, all_v, all_d = [], [], []
    for k, spec in enumerate(config.classes):
        try:
            block = max(16, int(t_end / spec.interarrival.scaled(config.scale).mean()
                                * 1.25) + 16)
        except DistributionError:
            block = 256
        t, v, d = (parts[0] if len(parts) == 1 else np.concatenate(parts)
                   for parts in zip(*_class_jobs(config, k, t_end, block)))
        all_t.append(t)
        all_v.append(v)
        all_d.append(d)
    del t, v, d

    K = len(config.classes)
    counts = [len(t) for t in all_t]
    buf = np.concatenate(all_t)
    del all_t
    order = np.argsort(buf, kind="stable")
    t_arr = buf[order]
    cls = np.repeat(np.arange(K, dtype=np.min_scalar_type(K - 1)), counts)[order]
    np.concatenate(all_v, out=buf)
    del all_v
    v = buf[order]
    np.concatenate(all_d, out=buf)
    del all_d
    d = buf[order]
    del buf, order

    w_before, served, cum_idle, work = _lindley(t_arr, v, d)
    log.debug("simulate.run: %d jobs, %d vector passes, %d scalar steps",
              len(t_arr), work.passes, work.scalar_steps)
    return SimTrace(config, t_warm, t_arr, cls, v, d, w_before, served, cum_idle,
                    _block_exits(t_arr, v, d, w_before, served))


def tail_counts(t_arr, cls, v, d, K: int, origin: float, raw: float, cs) -> np.ndarray:
    """Residual-deadline tail counts over the given consecutive jobs that
    arrived in raw (origin, raw]: row i < len(cs), column k counts class k's
    jobs with residual deadline d - elapsed >= max(cs[i], smallest positive
    float), and row len(cs) + i those with (d + v) - elapsed at least that,
    elapsed being raw - arrival. For c >= 0, "x > 0 and x >= c" is that one
    comparison, false for -0.0 and NaN alike. The counts over consecutive
    runs of jobs add up to the counts over their union.

    The jobs go through in blocks of RESIDUAL_BLOCK, in buffers allocated
    once, so memory does not grow with their number.
    """
    lo = int(np.searchsorted(t_arr, origin, side="right"))
    hi = int(np.searchsorted(t_arr, raw, side="right"))
    cuts = [max(float(c), _SMALLEST) for c in cs]
    # rows: each cut on the residual, then each cut on residual plus service
    counts = np.zeros((2 * len(cuts), K), dtype=np.int64)
    size = max(min(RESIDUAL_BLOCK, hi - lo), 0)
    bufs = (np.empty(size), np.empty(size), np.empty(size),
            np.empty(size, dtype=bool), np.empty(size, dtype=bool))
    masks = np.empty((K - 1, size), dtype=bool)    # classes 1..K-1
    for a in range(lo, hi, RESIDUAL_BLOCK):
        b = min(a + RESIDUAL_BLOCK, hi)
        elapsed, resid, resid_v, ge, hit = (buf[:b - a] for buf in bufs)
        np.subtract(raw, t_arr[a:b], out=elapsed)
        np.subtract(d[a:b], elapsed, out=resid)
        np.add(d[a:b], v[a:b], out=resid_v)
        resid_v -= elapsed
        in_class = [np.equal(cls[a:b], k, out=mask[:b - a])
                    for k, mask in enumerate(masks, 1)]
        tally = []
        for x in (resid, resid_v):
            for cut in cuts:
                np.greater_equal(x, cut, out=ge)
                n = [np.count_nonzero(np.logical_and(ge, m, out=hit)) for m in in_class]
                tally.append([np.count_nonzero(ge) - sum(n), *n])   # class 0: the rest
        counts += np.array(tally, dtype=np.int64).reshape(counts.shape)
    return counts


def residual_tails(counts: np.ndarray) -> list[ResidualTails]:
    """tail_counts' rows as one ResidualTails per class."""
    c = len(counts) // 2
    return [ResidualTails(tuple(row[:c]), tuple(row[c:])) for row in counts.T.tolist()]


def _exit_cut(raw: float) -> float:
    """Jobs that left by this time have residual sojourn or patience <= 0 at
    raw, whatever the rounding of raw - t_arr."""
    return raw - EXIT_MARGIN_ULPS * np.spacing(abs(raw))


def _block_exits(t_arr, v, d, w_before, served) -> np.ndarray:
    """The latest raw exit in each block of EXIT_BLOCK jobs. The exits are
    SimTrace._exit's sums (addition commutes), built EXITS_SPAN jobs at a
    time."""
    n = len(t_arr)
    out = np.empty(-(-n // EXIT_BLOCK))
    starts = np.arange(0, EXITS_SPAN, EXIT_BLOCK)
    for a in range(0, n, EXITS_SPAN):
        b = min(a + EXITS_SPAN, n)
        t_exit = np.where(served[a:b], w_before[a:b] + v[a:b], d[a:b])
        t_exit += t_arr[a:b]
        blocks = out[a // EXIT_BLOCK:-(-b // EXIT_BLOCK)]
        np.maximum.reduceat(t_exit, starts[:len(blocks)], out=blocks)
    return out


class SimTrace:
    """Immutable record of one run, or of its jobs from some exit block on;
    all queries take model time.

    Per job, in arrival order, it stores what the simulation pass decides:
    ``t_arr``, ``cls`` (narrowest integer dtype holding K - 1), ``v``, ``d``,
    the workload found ``w_before``, ``served``, and the idleness so far
    ``cum_idle``. The pass is ``_lindley``: vector passes over windows of
    jobs, each accepting only the prefix it verified against the scalar
    recursion, so these arrays are the recursion's bit for bit. ``_virtual``,
    ``_patience`` and ``_exit`` derive the virtual sojourn, patience and exit
    epoch on the jobs a query reads. A job's virtual sojourn is the workload
    just after its arrival, and the path between arrivals has slope -1 while
    positive, so these reconstruct it everywhere.

    It is built from the fields of a Chunk of its jobs: the seven columns
    and ``block_exits``, the latest exit in each block of EXIT_BLOCK jobs. A
    trace may hold a run's jobs from job EXIT_BLOCK * b on only
    (``LiveJobs.trace``), given the idleness up to the origin as
    ``idle_origin``. Its queries at a time answer as the full trace's do
    when every job it lacks left by the time's exit cut (so the query window
    starts within it) and it holds the last arrival by that time. ``jobs``
    numbers each class's jobs from the first held.
    """

    def __init__(self, config, origin, t_arr, cls, v, d, w_before, served, cum_idle,
                 block_exits, idle_origin=None):
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
        # exit_bound[j]: the latest exit among the jobs of blocks 0..j.
        self.exit_bound = np.maximum.accumulate(block_exits)
        for arr in (t_arr, cls, v, d, w_before, served, cum_idle, self.exit_bound):
            arr.flags.writeable = False
        self._last_live = (None,)     # (raw, window, live mask) of the last _live
        self.idle_origin = self._idle_raw(self.origin) if idle_origin is None else idle_origin

    # Each derived column repeats the pass's float operations (W = w_before + v
    # if served), on the jobs of a query window win, and only what is asked.
    def _virtual(self, win) -> np.ndarray:
        """Virtual sojourn: the workload just after each arrival."""
        w = self.w_before[win]
        return np.where(self.served[win], w + self.v[win], w)

    def _patience(self, win) -> np.ndarray:
        d = self.d[win]
        return np.where(self.served[win], d + self.v[win], d)

    def _exit(self, win) -> np.ndarray:
        """Raw exit epoch: arrival plus virtual sojourn if served, plus deadline if not."""
        return self.t_arr[win] + np.where(
            self.served[win], self.w_before[win] + self.v[win], self.d[win])

    @property
    def t_exit(self) -> np.ndarray:
        """Raw exit epoch of every job (derived, not stored)."""
        return self._exit(slice(None))

    @property
    def K(self) -> int:
        return len(self.config.classes)

    def _raw(self, t: float) -> float:
        if outside_horizon(t, self.horizon):
            raise SimulationError(f"time {t} outside the horizon [0, {self.horizon}]")
        return t + self.origin

    def jobs(self) -> list[JobRecord]:
        """All jobs in arrival order; warm-up jobs carry negative arrivals."""
        virtual, patience = self._virtual(slice(None)), self._patience(slice(None))
        t_exit = self.t_exit
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
        w_after = self._virtual(slice(i, i + 1))[0]
        return max(float(w_after - (raw - self.t_arr[i])), 0.0)

    def idle_at(self, t: float) -> float:
        """I(t): cumulative idleness of the server over model (0, t]."""
        return self._idle_raw(self._raw(t)) - self.idle_origin

    def busy_at(self, t: float) -> float:
        """B(t) = t - I(t): cumulative busy time over model (0, t]."""
        return t - self.idle_at(t)

    def _idle_raw(self, raw: float) -> float:
        i = int(np.searchsorted(self.t_arr, raw, side="right")) - 1
        if i < 0:
            return raw
        w_after = self._virtual(slice(i, i + 1))[0]
        return float(self.cum_idle[i]) + max(raw - self.t_arr[i] - w_after, 0.0)

    def _window(self, raw: float) -> slice:
        """Index range of every job that can be in the system at raw: later
        jobs arrive after raw, and each earlier job left by raw minus the
        margin, so its residual sojourn or patience at raw is <= 0."""
        hi = int(np.searchsorted(self.t_arr, raw, side="right"))
        lo = EXIT_BLOCK * int(np.searchsorted(self.exit_bound, _exit_cut(raw), side="right"))
        return slice(min(lo, hi), hi)

    def _live(self, raw: float) -> tuple[slice, np.ndarray]:
        """The query window and which of its jobs are in the system at raw.
        The last answer is kept, read-only: queue_lengths and age_count are
        asked at the same time, one after the other."""
        if self._last_live[0] != raw:
            win = self._window(raw)
            live = self._exit(win) > raw
            live.flags.writeable = False
            self._last_live = (raw, win, live)
        return self._last_live[1:]

    def snapshot(self, t: float) -> list[AtomicMeasure2D]:
        """Per-class unit-atom measures at (residual sojourn, residual patience).

        The atoms keep arrival order, which is FIFO order. A job's residual
        virtual sojourn is the time left until the FIFO frontier reaches it,
        so in exact arithmetic it is nondecreasing along arrivals, and along
        each class's arrivals too. The floats can still invert by an ulp,
        which is why measures check the order before they rely on it.

        One pass per column: the service a job added, v * served, goes onto
        w_before and d, which for finite services are the floats of
        _virtual's and _patience's np.where, and elapsed comes off in place.
        """
        raw = self._raw(t)
        win = self._window(raw)
        elapsed = np.subtract(raw, self.t_arr[win])
        added = self.v[win] * self.served[win]
        rw = self.w_before[win] + added
        rw -= elapsed
        rp = np.add(added, self.d[win], out=added)
        rp -= elapsed
        del elapsed     # freed before the atoms are copied out
        if self.K == 1:
            return [AtomicMeasure2D.from_arrays(rw, rp, np.ones(len(rw)), class_id=0)]
        cls = self.cls[win]
        out = []
        for k in range(self.K):
            sel = cls == k
            out.append(AtomicMeasure2D.from_arrays(
                rw.compress(sel), rp.compress(sel), np.ones(int(sel.sum())), class_id=k))
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

    def residual_deadline_measures(self, t: float,
                                   cs=DEFAULT_C_GRID) -> list[ResidualTails]:
        """Per class, over arrivals in model (0, t]: for each c in cs, how many
        have residual deadline d - (t - arrival) positive and at least c, and
        how many have that plus their service positive and at least c
        (``tail_counts`` over all the trace's jobs)."""
        return residual_tails(tail_counts(self.t_arr, self.cls, self.v, self.d, self.K,
                                          self.origin, self._raw(t), cs))

    def age_count(self, t: float, u: float) -> list[int]:
        """Per class: jobs in system at t that arrived at or before t - u."""
        if u < 0:
            raise SimulationError(f"age must be nonnegative, got {u}")
        raw = self._raw(t)
        win, live = self._live(raw)
        old = live & (self.t_arr[win] <= raw - u)
        cls = self.cls[win]
        return [int(np.count_nonzero(old & (cls == k))) for k in range(self.K)]


class LiveJobs:
    """The jobs of a streamed run (``chunks``) that queries at the times not
    yet passed can still read, held in whole chunks.

    ``push`` takes each chunk of the stream in turn, and None once it ends.
    When ``passed(raw)``, every job that arrives by raw is in, and the
    queries of ``trace()`` at raw answer as the full trace's would.
    ``release(raws)`` drops the leading chunks that no query at the raw
    times raws can read: a chunk goes once every job in it left by the
    earliest exit cut of raws (so did every job before it), so that every
    query window starts after it. The newest chunk stays: a time not yet
    passed comes after its last arrival, so the last arrival workload_at
    and idle_at read is in it or later. Until the first trace has read the
    idleness at the origin, a chunk also stays unless a later one arrived
    by the origin.
    """

    def __init__(self, config: SimConfig, origin: float):
        self.config = config
        self.origin = float(origin)
        self.chunks: deque = deque()
        self.idle_origin = None         # I at the origin, from the first trace
        self.last_arrival = -math.inf
        self.ended = False
        self.jobs = self.held = self.most = 0     # pushed, held now, held at most
        self._trace = None

    def push(self, chunk: Chunk | None) -> None:
        self._trace = None
        if chunk is None:
            self.ended = True
            return
        self.chunks.append(chunk)
        m = len(chunk.t_arr)
        if m:
            self.last_arrival = float(chunk.t_arr[-1])
        self.jobs += m
        self.held += m
        self.most = max(self.most, self.held)

    def passed(self, raw: float) -> bool:
        return self.ended or self.last_arrival > raw

    def trace(self) -> SimTrace:
        """A trace of the held jobs. Each field is joined in turn, and the
        held chunks' arrays of it become views of the joined array at once,
        so the jobs are held once, not twice, beyond the field being joined."""
        if self._trace is None:
            held = [list(chunk) for chunk in self.chunks]
            self.chunks.clear()
            columns = []
            for c in range(len(Chunk._fields)):
                column = np.concatenate([chunk[c] for chunk in held])
                end = 0
                for chunk in held:
                    end += len(chunk[c])
                    chunk[c] = column[end - len(chunk[c]):end]
                columns.append(column)
            self.chunks.extend(map(Chunk._make, held))
            self._trace = SimTrace(self.config, self.origin, *columns,
                                   idle_origin=self.idle_origin)
            self.idle_origin = self._trace.idle_origin
        return self._trace

    def release(self, raws) -> None:
        if not raws:
            return
        cut = min(_exit_cut(raw) for raw in raws)
        while len(self.chunks) > 1:
            chunk, after = self.chunks[0], self.chunks[1]
            if (chunk.block_exits.max() > cut
                    or (self.idle_origin is None and after.t_arr[0] > self.origin)):
                return
            self.chunks.popleft()
            self.held -= len(chunk.t_arr)
            self._trace = None
