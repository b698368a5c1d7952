"""Exact simulation of the multiclass FIFO queue with reneging.

The discipline makes an event calendar unnecessary: under FIFO with
abandon-before-service, everything about a job is decided the instant it
arrives. If its deadline exceeds the workload it finds, it will be served,
the workload jumps by its service requirement, and its exit epoch is
arrival + (workload found + service). Otherwise it never reaches the
server and exits when its patience runs out. The simulation is therefore
one Lindley recursion over the merged arrival stream, and every produced
quantity is exact (no discretization anywhere).

Every run is one stream, the recursion over the classes' merged draws in
chunks of jobs: ``chunks`` gives each chunk arrays of its own, which
``run_plan`` consumes and drops, and ``run`` writes the chunks into
whole-run columns that become its SimTrace. Since each job's fate follows
from the jobs before it, the columns keep the draws and the fates, and the
workload and idleness only once per block of EXIT_BLOCK jobs; a trace
rebuilds the rest of each block it reads, bit for bit.

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
import numbers
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
# Jobs per block of the passes of tail_counts and SimTrace.state over a query
# window: their buffers take a few hundred KiB whatever the window, and
# larger blocks run no faster. Window-sized temporaries would be mapped
# afresh, and fault in their pages, on every query.
RESIDUAL_BLOCK = 1 << 14
# The c values at which residual-deadline tails are counted by default.
DEFAULT_C_GRID = (0.0, 0.5, 1.0)
# The smallest positive float, np.nextafter(0.0, 1.0), written out: that call
# at import time added about 0.15 MB to the resident size of every process.
_SMALLEST = 5e-324

log = logging.getLogger(__name__)


class SimulationError(ValueError):
    """Invalid simulation configuration or query."""


def _is_integer(x) -> bool:
    """An int or numpy integer, but not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _nonnegative_finite(x) -> bool:
    """A real number in [0, inf): not a bool, string, NaN or infinity."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and 0 <= x < math.inf


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

    def __post_init__(self):
        if self.duration is not None and not _nonnegative_finite(self.duration):
            raise SimulationError(
                f"warm-up duration must be finite and nonnegative, got {self.duration!r}")


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
        if not _nonnegative_finite(self.horizon):
            raise SimulationError(f"horizon must be finite and nonnegative, got {self.horizon!r}")
        if not (_is_integer(self.scale) and self.scale >= 1):
            raise SimulationError(f"scale must be an integer >= 1, got {self.scale!r}")
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise SimulationError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not isinstance(self.initial, (Empty, WarmStart)):
            raise SimulationError(
                f"initial must be Empty() or WarmStart(duration), got {self.initial!r}")


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


class TraceState(NamedTuple):
    """The jobs in the system at one time (SimTrace.state): per class their
    counting measure, their counts by fate, and, per age asked, how many
    arrived at or before the time minus that age (old[age index][class])."""

    measures: list[AtomicMeasure2D]
    counts: list[ClassCounts]
    old: list[list[int]]


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
        return config.initial.duration
    _, w_u = fluid_model_of(config).band
    return 4.0 * w_u


def _class_jobs(config: SimConfig, k: int, t_end: float):
    """Class k's arrivals in (0, t_end], in blocks of at most DRAW_BLOCK:
    each block's epochs with the services and deadlines of those arrivals.

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
        size = DRAW_BLOCK
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
        if m < DRAW_BLOCK:
            return


class LindleyWork(NamedTuple):
    """What one call of the simulation pass did, and where it stopped."""

    passes: int         # vector passes over a window of jobs
    elements: int       # jobs in those windows, summed over the passes
    scalar_steps: int   # jobs taken by the scalar step
    window: int         # the window size the next jobs would be taken with
    state: tuple        # (W, t_prev, idle) after the last job


def _steps(t_arr, v, d, lo, hi, state, w_before, served, block_idle):
    """The scalar Lindley step over jobs lo..hi-1, from state (W, t_prev, idle)
    after job lo-1; writes the jobs' outputs (the idleness at the first job of
    each exit block among them) and returns the state after hi-1."""
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
    first = -(-lo // EXIT_BLOCK)        # the first exit block starting at lo or later
    block_idle[first:-(-hi // EXIT_BLOCK)] = idles[first * EXIT_BLOCK - lo::EXIT_BLOCK]
    return W, t_prev, idle


def _lindley(t_arr, v, d, state=(0.0, 0.0, 0.0), window=CHUNK_MIN, out=None, known=False):
    """The Lindley pass over the merged arrivals, in windows of jobs.

    For jobs in arrival order with services v and deadlines d, starting from
    state (W, t_prev, idle) after the job before them (an empty system at
    time 0 by default) with a first window of `window` jobs, returns the
    workload each job found, whether it was served, the idleness up to the
    arrival of the first job of each block of EXIT_BLOCK jobs, and the
    LindleyWork done; `out`, if given, holds the three arrays to write, and
    with `known` its served array already holds the flags, which the passes
    then take as their guesses (SimTrace's rebuild). The outputs are those
    of the scalar recursion

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
    LindleyWork's window is the size reached and its state the recursion's
    after the last job, so a stream that passes both to the call on its next
    jobs continues the one pass, without a ramp from CHUNK_MIN.
    """
    m = len(t_arr)
    w_before, served, block_idle = out or (np.empty(m), np.empty(m, dtype=bool),
                                           np.empty(-(-m // EXIT_BLOCK)))
    # state: W, t_prev, idle after the last accepted job
    i, guessed = 0, m if known else 0
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
        with np.errstate(invalid="ignore"):     # an infinite service guessed not served
            np.multiply(v[i:j], served[i:j], out=seq[2::2])
        found = np.add.accumulate(seq)[1::2]
        fate = d[i:j] > found
        bad = (fate != served[i:j]) | ~(found >= 0.0)   # flipped, or negative (or NaN)
        p = int(np.argmax(bad))
        if not bad[p]:
            p = b
        if not known:       # known flags stay: past p, fate is from a wrong state
            served[i:j] = fate
        w_before[i:i + p] = found[:p]
        block_idle[-(-i // EXIT_BLOCK):-(-(i + p) // EXIT_BLOCK)] = idle
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
        state = _steps(t_arr, v, d, i, i + n, state, w_before, served, block_idle)
        scalar += n
        i += n
    return w_before, served, block_idle, LindleyWork(passes, elements, scalar, chunk, state)


class Chunk(NamedTuple):
    """Consecutive jobs of one run in arrival order, from the first job of an
    exit block on: SimTrace's five per-job columns, then per block of
    EXIT_BLOCK of them the idleness up to its first job's arrival, the
    workload that job found, and the block's latest exit."""

    t_arr: np.ndarray
    cls: np.ndarray
    v: np.ndarray
    d: np.ndarray
    served: np.ndarray
    block_idle: np.ndarray
    block_w: np.ndarray
    block_exits: np.ndarray


def _cls_kind(config: SimConfig) -> np.dtype:
    """The narrowest integer dtype that holds the run's class indices."""
    return np.min_scalar_type(len(config.classes) - 1)


def _empty_chunk(kind, jobs: int) -> Chunk:
    """Uninitialized Chunk fields for `jobs` jobs, class indices of dtype kind."""
    blocks = -(-jobs // EXIT_BLOCK)
    return Chunk(np.empty(jobs), np.empty(jobs, dtype=kind), np.empty(jobs), np.empty(jobs),
                 np.empty(jobs, dtype=bool), np.empty(blocks), np.empty(blocks),
                 np.empty(blocks))


def _capacity(config: SimConfig, t_end: float) -> int:
    """The jobs run's whole-run columns are first allocated for: per class, the
    expected arrivals by t_end plus four of their square roots and 64 (256
    for a scripted Replay, which has no mean), summed and rounded up to
    whole chunks. Four square roots are four standard deviations of a
    Poisson count; tracemalloc counts the untouched rest of the columns, so
    a wider margin would cost allocated, though not resident, memory."""
    jobs = 0
    for spec in config.classes:
        try:
            expected = t_end / spec.interarrival.scaled(config.scale).mean()
        except DistributionError:
            jobs += 256
            continue
        jobs += int(expected + 4.0 * math.sqrt(expected)) + 64
    return -(-jobs // STREAM_CHUNK) * STREAM_CHUNK


def _span(fields: Chunk, a: int, b: int) -> Chunk:
    """The fields of jobs a..b-1 of a Chunk, with a the first job of an exit
    block: views, which a write goes through."""
    blocks = slice(a // EXIT_BLOCK, -(-b // EXIT_BLOCK))
    return Chunk(*(col[a:b] for col in fields[:5]), *(col[blocks] for col in fields[5:]))


def _windows(config: SimConfig, t_end: float) -> Iterator[list]:
    """The run's arrivals in time order as merge windows: lists of each
    class's (epochs, services, deadlines) in the window, in class order.

    Each class draws DRAW_BLOCK arrivals at a time (_class_jobs), and the
    classes are cut at a common time tau, the earliest last epoch among the
    classes still drawing.
    """
    K = len(config.classes)
    for spec in config.classes:
        for law in (spec.interarrival, spec.service, spec.deadline):
            if isinstance(law, Replay):
                law.reset()
    draws = [_class_jobs(config, k, t_end) for k in range(K)]
    drawing = [True] * K
    pending = [(np.empty(0),) * 3] * K     # per class: drawn, not yet merged
    while any(drawing):
        for k in range(K):
            while drawing[k] and not len(pending[k][0]):
                block = next(draws[k], None)
                drawing[k] = block is not None
                if drawing[k]:
                    pending[k] = block
        tau = min((pending[k][0][-1] for k in range(K) if drawing[k]), default=math.inf)
        upto = [int(np.searchsorted(p[0], tau, side="right")) for p in pending]
        yield [tuple(a[:m] for a in p) for p, m in zip(pending, upto)]
        pending = [tuple(a[m:] for a in p) for p, m in zip(pending, upto)]


def _merge(parts: list, kind) -> tuple:
    """A merge window's columns t, cls (of dtype kind), v, d, each class's
    jobs in turn, and the stable argsort of its epochs that puts them in
    arrival order, so ties resolve in class order (None for one class, which
    needs no sort)."""
    ts, vs, ds = zip(*parts)
    if len(ts) == 1:
        return (ts[0], np.zeros(len(ts[0]), dtype=kind), vs[0], ds[0]), None
    t = np.concatenate(ts)
    cls = np.repeat(np.arange(len(ts), dtype=kind), [len(x) for x in ts])
    return (t, cls, np.concatenate(vs), np.concatenate(ds)), np.argsort(t, kind="stable")


def chunks(config: SimConfig, t_warm: float) -> Iterator[Chunk]:
    """The run's jobs in arrival order, in chunks of STREAM_CHUNK jobs (the
    last one shorter, and empty only when no job arrives); t_warm is the
    warm-up duration, _warmup_duration(config). Each chunk has arrays of
    its own."""
    kind = _cls_kind(config)
    return _stream(config, t_warm, lambda i: _empty_chunk(kind, STREAM_CHUNK))


def _stream(config: SimConfig, t_warm: float, buffers) -> Iterator[Chunk]:
    """chunks, with chunk i's fields written into buffers(i), a Chunk of
    arrays for STREAM_CHUNK jobs.

    Each merge window (_windows, _merge) is gathered in arrival order
    straight into the chunk being filled, and a full chunk is simulated in
    place: _lindley writes into its buffers, and the workload each job
    found into one scratch column reused by every chunk, which
    _block_exits and the chunk's block_w read before the next chunk. The
    Lindley pass carries its state and window size across chunks, and its
    check makes the chunks one pass's, bit for bit, whatever the chunk size.
    """
    kind = _cls_kind(config)
    state = (0.0, 0.0, 0.0)                # (W, t_prev, idle) after the last chunk
    window = CHUNK_MIN                     # _lindley's window size after it
    work = [0, 0, 0, 0]                    # chunks, jobs, vector passes, scalar steps
    out, fill = None, 0                    # the chunk being filled
    found = np.empty(STREAM_CHUNK)         # the workload its jobs found

    def simulated(fill: int) -> Chunk:
        nonlocal state, window
        c, w_before = _span(out, 0, fill), found[:fill]
        lindley = _lindley(c.t_arr, c.v, c.d, state, window,
                           out=(w_before, c.served, c.block_idle))[-1]
        _block_exits(c.t_arr, c.v, c.d, w_before, c.served, out=c.block_exits)
        c.block_w[:] = w_before[::EXIT_BLOCK]
        state, window = lindley.state, lindley.window
        work[:] = (work[0] + 1, work[1] + fill, work[2] + lindley.passes,
                   work[3] + lindley.scalar_steps)
        return c

    for parts in _windows(config, t_warm + config.horizon):
        merged, order = _merge(parts, kind)
        m, a = len(merged[0]), 0
        while a < m:
            out = out or buffers(work[0])
            b = min(m, a + STREAM_CHUNK - fill)
            for col, src in zip(out, merged):
                if order is None:
                    col[fill:fill + b - a] = src[a:b]
                else:       # mode="clip": the default buffers its output
                    np.take(src, order[a:b], out=col[fill:fill + b - a], mode="clip")
            fill += b - a
            a = b
            if fill == STREAM_CHUNK:
                yield simulated(fill)
                out, fill = None, 0
    if fill or not work[0]:
        out = out or buffers(work[0])
        yield simulated(fill)
    log.debug("simulate: %d chunks, %d jobs, %d vector passes, %d scalar steps", *work)


def run(config: SimConfig) -> "SimTrace":
    """Simulate the queue; deterministic for a fixed config.

    Per-class substreams for interarrivals, services, and deadlines are
    derived from the base seed, so any two configurations sharing the seed
    see pathwise-coupled primitives. Arrival ties across classes resolve
    in class order.

    The run is the stream of ``chunks``, whose chunk buffers are consecutive
    slices of whole-run columns instead of arrays of their own, so the
    trace's columns are the streamed chunks' joined, bit for bit, with no
    copy to join them. The columns are allocated once, for _capacity's
    jobs; pages that no job reaches are never touched, so they take no
    resident memory. A stream that outgrows the columns moves the jobs so
    far to columns of twice the size.
    """
    t_warm = _warmup_duration(config)
    kind = _cls_kind(config)
    columns = _empty_chunk(kind, _capacity(config, t_warm + config.horizon))

    def buffers(i: int) -> Chunk:
        nonlocal columns
        a, b = i * STREAM_CHUNK, (i + 1) * STREAM_CHUNK
        if b > len(columns.t_arr):
            old, columns = columns, _empty_chunk(kind, max(2 * len(columns.t_arr), b))
            for new, col, end in zip(columns, old, (a,) * 5 + (a // EXIT_BLOCK,) * 3):
                new[:end] = col[:end]
        return _span(columns, a, b)

    jobs = sum(len(chunk.t_arr) for chunk in _stream(config, t_warm, buffers))
    return SimTrace(config, t_warm, *_span(columns, 0, jobs))


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


def _block_exits(t_arr, v, d, w_before, served, out=None) -> np.ndarray:
    """The latest raw exit in each block of EXIT_BLOCK jobs, written into
    `out` if given. The exits are SimTrace.t_exit's sums (addition commutes),
    built EXITS_SPAN jobs at a time."""
    n = len(t_arr)
    if out is None:
        out = np.empty(-(-n // EXIT_BLOCK))
    starts = np.arange(0, EXITS_SPAN, EXIT_BLOCK)
    for a in range(0, n, EXITS_SPAN):
        b = min(a + EXITS_SPAN, n)
        t_exit = np.where(served[a:b], w_before[a:b] + v[a:b], d[a:b])
        t_exit += t_arr[a:b]
        blocks = out[a // EXIT_BLOCK:-(-b // EXIT_BLOCK)]
        np.maximum.reduceat(t_exit, starts[:len(blocks)], out=blocks)
    return out


def _workloads(t_arr, v, d, served, block_w, out) -> np.ndarray:
    """The workload each of m consecutive jobs found and the workload just
    after its arrival, interleaved in out[:2 * m] (found at the even
    places), for jobs from the first job of an exit block on, given block_w,
    the workload found by the first job of each of their blocks.

    These are the floats of the Lindley pass. While no job finds the system
    empty, the workload is a running sum from the block's first job over
    v * served and the arrival gaps t[k] - t[k + 1] (_lindley's argument),
    so one np.add.accumulate per block repeats the pass's float operations.
    From a place below zero or NaN, which an idle restart or an infinite
    service not served makes, _lindley redoes the rest of the block from the
    workload at the place before, which is right, with the stored fates as
    its guesses, so that its passes stop only at idle restarts; the next
    block starts afresh from its block_w.
    """
    m = len(t_arr)
    x = out[:2 * m]
    if not m:
        return x
    row = 2 * EXIT_BLOCK
    np.subtract(t_arr[:-1], t_arr[1:], out=x[2::2])
    with np.errstate(invalid="ignore"):     # an infinite service not served: NaN
        np.multiply(v, served, out=x[1::2])
    x[::row] = block_w
    full = 2 * (m - m % EXIT_BLOCK)
    rows = x[:full].reshape(-1, row)
    np.add.accumulate(rows, axis=1, out=rows)
    np.add.accumulate(x[full:], out=x[full:])
    if not x.min() >= 0.0:
        bad = np.flatnonzero(~(x >= 0.0))
        bad = bad[bad % row != 0]           # a block's first place is its block_w
        for q in bad[np.diff(bad // row, prepend=-1) != 0].tolist():
            # place q - 1 is job (q - 1) // 2's found (q odd) or the workload after it
            j, end = q // 2, min((q // row + 1) * EXIT_BLOCK, m)
            state = (float(x[q - 1]), float(t_arr[(q - 1) // 2]), 0.0)
            found, s = np.empty(end - j), served[j:end].copy()
            _lindley(t_arr[j:end], v[j:end], d[j:end], state, CHUNK_MAX,
                     out=(found, s, np.empty(-(-(end - j) // EXIT_BLOCK))), known=True)
            x[2 * j:2 * end:2] = found
            x[2 * j + 1:2 * end:2] = np.where(s, found + v[j:end], found)
    return x


def _idle_steps(w_after, t) -> np.ndarray:
    """What the pass added to the idleness at the arrivals t[1:]: gap - W
    where the workload W after the job before (w_after) is below the gap,
    and 0.0 elsewhere, which adds nothing. These are the floats of _steps,
    the only place the idleness grows."""
    gap = np.diff(t)
    return np.where(w_after < gap, gap - w_after, 0.0)


class SimTrace:
    """Immutable record of one run, or of its jobs from some exit block on;
    all queries take model time.

    Per job, in arrival order, it stores the draws and the fate the
    simulation pass decides: ``t_arr``, ``cls`` (narrowest integer dtype
    holding K - 1), ``v``, ``d`` and ``served``, 26 bytes with a one-byte
    class. Per block of EXIT_BLOCK jobs it stores ``block_idle`` and
    ``block_w``, the idleness up to the arrival of the block's first job and
    the workload that job found. The pass is ``_lindley``: vector passes
    over windows of jobs, each accepting only the prefix it verified against
    the scalar recursion, so these arrays are the recursion's bit for bit.

    Everything else is rebuilt on the exit blocks a query reads, with the
    pass's float operations. ``_workloads`` gives the workload each job
    found (``w_before``) and the workload just after its arrival, its
    virtual sojourn, from its block's ``block_w``; ``_patience`` gives the
    patience. The path between arrivals has slope -1 while positive, so
    these reconstruct it everywhere; ``_idle_raw`` rebuilds the idleness
    from its block's first job (``w_before``, ``cum_idle`` and ``t_exit``
    are derived properties). One walk over a time's query window, ``state``,
    decides which jobs are in the system and gives their measures and every
    count of them.

    It is built from the fields of a Chunk of its jobs: the five per-job
    columns, ``block_idle``, ``block_w``, and ``block_exits``, the latest
    exit in each block. A trace may hold a run's jobs from job
    EXIT_BLOCK * b on only (``LiveJobs.trace``), given the idleness up to
    the origin as ``idle_origin``. Its queries at a time answer as the full
    trace's do when every job it lacks left by the time's exit cut (so the
    query window starts within it) and it holds the last arrival by that
    time. ``jobs`` numbers each class's jobs from the first held.
    """

    def __init__(self, config, origin, t_arr, cls, v, d, served, block_idle, block_w,
                 block_exits, idle_origin=None):
        self.config = config
        self.origin = float(origin)
        self.horizon = float(config.horizon)
        self.t_arr = t_arr
        self.cls = cls
        self.v = v
        self.d = d
        self.served = served
        self.block_idle = block_idle
        self.block_w = block_w
        # exit_bound[j]: the latest exit among the jobs of blocks 0..j.
        self.exit_bound = np.maximum.accumulate(block_exits)
        for arr in (t_arr, cls, v, d, served, block_idle, block_w, self.exit_bound):
            arr.flags.writeable = False
        self._kept = None       # (raw, counts) of the last state walk
        self.idle_origin = self._idle_raw(self.origin) if idle_origin is None else idle_origin

    def _spans(self, lo: int, hi: int) -> Iterator[tuple]:
        """_workloads over jobs lo..hi-1, lo the first job of an exit block,
        RESIDUAL_BLOCK jobs at a time into one buffer allocated once: per
        span, its first job, the workload each job found and the one just
        after its arrival, views that the next span overwrites."""
        out = np.empty(2 * max(min(RESIDUAL_BLOCK, hi - lo), 0))
        for a in range(lo, hi, RESIDUAL_BLOCK):
            b = min(a + RESIDUAL_BLOCK, hi)
            x = _workloads(self.t_arr[a:b], self.v[a:b], self.d[a:b], self.served[a:b],
                           self.block_w[a // EXIT_BLOCK:-(-b // EXIT_BLOCK)], out)
            yield a, x[::2], x[1::2]

    def _rebuilt(self, lo: int = 0, hi: int | None = None, kinds=(0, 1)) -> list[np.ndarray]:
        """For jobs lo..hi-1 (all by default), lo the first job of an exit
        block, the workload each found (kind 0) and the workload just after
        each arrival, its virtual sojourn (kind 1): one array per entry of
        kinds."""
        hi = len(self.t_arr) if hi is None else hi
        out = [np.empty(hi - lo) for _ in kinds]
        for a, *rebuilt in self._spans(lo, hi):
            for o, kind in zip(out, kinds):
                o[a - lo:a - lo + len(rebuilt[kind])] = rebuilt[kind]
        return out

    @property
    def w_before(self) -> np.ndarray:
        """The workload each job found (derived, not stored): the pass's
        floats, rebuilt from block_w."""
        return self._rebuilt(kinds=(0,))[0]

    def _patience(self, win) -> np.ndarray:
        d = self.d[win]
        return np.where(self.served[win], d + self.v[win], d)

    @property
    def t_exit(self) -> np.ndarray:
        """Raw exit epoch of every job (derived, not stored): arrival plus
        virtual sojourn if served, plus deadline if not (addition commutes,
        so these are the floats of t_arr + np.where(served, w_before + v, d))."""
        return self._exits(self._rebuilt(kinds=(1,))[0])

    def _exits(self, virtual) -> np.ndarray:
        out = np.where(self.served, virtual, self.d)
        out += self.t_arr
        return out

    @property
    def cum_idle(self) -> np.ndarray:
        """The idleness up to each arrival (derived, not stored): each
        block's running sum of _idle_steps from block_idle, the pass's
        additions in its order."""
        n, blocks = len(self.t_arr), len(self.block_idle)
        sums = np.zeros(blocks * EXIT_BLOCK)
        sums[1:n] = _idle_steps(self._rebuilt(kinds=(1,))[0][:-1], self.t_arr)
        sums[::EXIT_BLOCK] = self.block_idle
        return np.add.accumulate(sums.reshape(blocks, EXIT_BLOCK), axis=1).ravel()[:n]

    @property
    def K(self) -> int:
        return len(self.config.classes)

    def _raw(self, t: float) -> float:
        if outside_horizon(t, self.horizon):
            raise SimulationError(f"time {t} outside the horizon [0, {self.horizon}]")
        return t + self.origin

    def jobs(self) -> list[JobRecord]:
        """All jobs in arrival order; warm-up jobs carry negative arrivals."""
        w_before, virtual = self._rebuilt()
        patience, t_exit = self._patience(slice(None)), self._exits(virtual)
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
                workload_before=float(w_before[i]),
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
        w_after = self._rebuilt(i - i % EXIT_BLOCK, i + 1, (1,))[0][-1]
        return max(float(w_after - (raw - self.t_arr[i])), 0.0)

    def idle_at(self, t: float) -> float:
        """I(t): cumulative idleness of the server over model (0, t]."""
        return self._idle_raw(self._raw(t)) - self.idle_origin

    def busy_at(self, t: float) -> float:
        """B(t) = t - I(t): cumulative busy time over model (0, t]."""
        return t - self.idle_at(t)

    def _idle_raw(self, raw: float) -> float:
        """The idleness up to raw: at the last arrival i by raw, the block's
        idleness at its first job plus _idle_steps up to i, summed in the
        pass's order, then the idle stretch after i's workload ran out."""
        i = int(np.searchsorted(self.t_arr, raw, side="right")) - 1
        if i < 0:
            return raw
        lo = i - i % EXIT_BLOCK
        after = self._rebuilt(lo, i + 1, (1,))[0]
        sums = np.empty(i - lo + 1)
        sums[0] = self.block_idle[i // EXIT_BLOCK]
        sums[1:] = _idle_steps(after[:-1], self.t_arr[lo:i + 1])
        idle = np.add.accumulate(sums)[-1]
        return float(idle) + max(raw - self.t_arr[i] - after[-1], 0.0)

    def _window(self, raw: float) -> slice:
        """Index range of every job that can be in the system at raw: later
        jobs arrive after raw, and each earlier job left by raw minus the
        margin, so its residual sojourn or patience at raw is <= 0."""
        hi = int(np.searchsorted(self.t_arr, raw, side="right"))
        lo = EXIT_BLOCK * int(np.searchsorted(self.exit_bound, _exit_cut(raw), side="right"))
        return slice(min(lo, hi), hi)

    def state(self, t: float, ages=()) -> TraceState:
        """The jobs in the system at t, from one walk over the query window:
        those whose residual virtual sojourn w and residual patience p are
        both positive. Per class they are the unit atoms of a counting
        measure at (w, p), 16 bytes each; its counts split them by fate
        (``served``), so queue lengths are the measures' masses at every t;
        and old[j][k] counts those that arrived at or before t - ages[j].

        The atoms keep arrival order, which is FIFO order. A job's residual
        virtual sojourn is the time left until the FIFO frontier reaches it,
        so in exact arithmetic it is nondecreasing along arrivals, and along
        each class's arrivals too. The floats can still invert by an ulp,
        which is why measures check the order before they rely on it. Each
        measure keeps the last quadrant table that box_masses or corner_mass
        built on it, so a time's corner probe and rectangle grid bin its
        atoms once.

        The window goes through in blocks of RESIDUAL_BLOCK, in buffers
        allocated once. Per block, _workloads rebuilds the workload just
        after each arrival, v * served goes onto d (for finite services, the
        floats of _patience's np.where), and elapsed comes off both in
        place; each class's mask picks its atoms into w and p arrays
        allocated for the whole window and shrunk in place (realloc), so
        that their pages past the atoms are never touched, and counts its
        served and old jobs. The walk keeps its raw
        time and counts for queue_lengths at that time.
        """
        if not all(u >= 0 for u in ages):
            raise SimulationError(f"ages must be nonnegative, got {list(ages)}")
        raw = self._raw(t)
        self._kept = None
        win = self._window(raw)
        jobs = win.stop - win.start
        size = min(RESIDUAL_BLOCK, jobs)
        elapsed, rw, rp = np.empty(size), np.empty(size), np.empty(size)
        keep, sel, hit = (np.empty(size, dtype=bool) for _ in range(3))
        aged = np.empty((len(ages), size), dtype=bool)
        cuts = [raw - u for u in ages]
        atoms = [(np.empty(jobs), np.empty(jobs)) for _ in range(self.K)]
        held, served = [0] * self.K, [0] * self.K
        old = [[0] * self.K for _ in ages]
        for a, _, after in self._spans(win.start, win.stop):
            n = len(after)
            e, w, p, kept, s, h = elapsed[:n], rw[:n], rp[:n], keep[:n], sel[:n], hit[:n]
            np.subtract(raw, self.t_arr[a:a + n], out=e)
            np.subtract(after, e, out=w)
            np.multiply(self.v[a:a + n], self.served[a:a + n], out=p)
            p += self.d[a:a + n]
            p -= e
            np.greater(w, 0.0, out=kept)
            kept &= np.greater(p, 0.0, out=s)
            olds = [np.less_equal(self.t_arr[a:a + n], cut, out=row[:n])
                    for cut, row in zip(cuts, aged)]
            for k, (ws, ps) in enumerate(atoms):
                mask = kept
                if self.K > 1:
                    mask = np.equal(self.cls[a:a + n], k, out=s)
                    mask &= kept
                # np.compress(..., out=) would read each page of ws before
                # writing it, faulting it in twice
                w_k = w.compress(mask)
                m = held[k] + len(w_k)
                ws[held[k]:m] = w_k
                ps[held[k]:m] = p.compress(mask)
                held[k] = m
                served[k] += np.count_nonzero(np.logical_and(mask, self.served[a:a + n], out=h))
                for per_class, o in zip(old, olds):
                    per_class[k] += np.count_nonzero(np.logical_and(mask, o, out=h))
        for (ws, ps), m in zip(atoms, held):
            ws.resize(m, refcheck=False)
            ps.resize(m, refcheck=False)
        counts = [ClassCounts(m, n_served, m - n_served) for m, n_served in zip(held, served)]
        self._kept = (raw, tuple(counts))
        return TraceState([AtomicMeasure2D._wrap(ws, ps, k) for k, (ws, ps) in enumerate(atoms)],
                          counts, old)

    def snapshot(self, t: float) -> list[AtomicMeasure2D]:
        """Per-class counting measures at (residual sojourn, residual patience),
        one unit atom per job in the system: state(t)'s measures."""
        return self.state(t).measures

    def queue_lengths(self, t: float) -> list[ClassCounts]:
        """Per class: jobs in system at t, split by eventual fate: state(t)'s
        counts, read from the last walk when it was at t."""
        kept = self._kept
        if kept is not None and kept[0] == self._raw(t):
            return list(kept[1])
        return self.state(t).counts

    def residual_deadline_measures(self, t: float,
                                   cs=DEFAULT_C_GRID) -> list[ResidualTails]:
        """Per class, over arrivals in model (0, t]: for each c in cs, how many
        have residual deadline d - (t - arrival) positive and at least c, and
        how many have that plus their service positive and at least c
        (``tail_counts`` over all the trace's jobs)."""
        return residual_tails(tail_counts(self.t_arr, self.cls, self.v, self.d, self.K,
                                          self.origin, self._raw(t), cs))

    def age_count(self, t: float, u: float) -> list[int]:
        """Per class: jobs in system at t that arrived at or before t - u,
        from state(t, (u,))."""
        return self.state(t, (u,)).old[0]


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
