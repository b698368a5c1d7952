"""Finite atomic measures on the quadrant.

A 2-D atom sits at (w, p): residual work the server must clear before and
during this job, and residual patience. Atoms drift diagonally at rate
(-1, -1) as time passes; an atom whose first coordinate hits zero leaves
through service, one whose second coordinate hits zero leaves through
abandonment. Atoms with a zero coordinate are never stored, so a measure
only ever describes jobs still in the system.

Boxes are half-open, [a, b) x [c, d), with b and/or d allowed to be
infinite. Half-openness makes additivity over partitions exact for atomic
measures and matches the rectangle family whose evaluations pin down a
measure on the quadrant.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import numerics

SERVICE = "service"
ABANDONMENT = "abandonment"


@dataclass(frozen=True)
class Box:
    """Half-open rectangle [a, b) x [c, d) in the nonnegative quadrant."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not (0 <= self.a <= self.b and 0 <= self.c <= self.d):
            raise ValueError(f"malformed box [{self.a}, {self.b}) x [{self.c}, {self.d})")

    def shifted(self, h: float) -> "Box":
        """The set of points y with y - (h, h) in this box."""
        return Box(self.a + h, self.b + h, self.c + h, self.d + h)

    @property
    def area(self) -> float:
        return (self.b - self.a) * (self.d - self.c)


def upper_right(x: float, y: float) -> Box:
    """The rectangle [x, inf) x [y, inf)."""
    return Box(x, math.inf, y, math.inf)


class AtomicMeasure2D:
    """Point-mass measure on the open quadrant; immutable after construction.

    Atoms with w <= 0 or p <= 0 are silently dropped at construction, so the
    measure never charges the axes.
    """

    __slots__ = ("w", "p", "mass", "class_id")

    def __init__(self, atoms: Iterable[tuple[float, float, float]] = (),
                 class_id: int | None = None):
        rows = np.asarray(list(atoms), dtype=float).reshape(-1, 3)
        keep = (rows[:, 0] > 0) & (rows[:, 1] > 0)
        rows = rows[keep]
        if np.any(rows[:, 2] <= 0):
            raise ValueError("atom masses must be positive")
        self.w = rows[:, 0].copy()
        self.p = rows[:, 1].copy()
        self.mass = rows[:, 2].copy()
        for arr in (self.w, self.p, self.mass):
            arr.flags.writeable = False
        self.class_id = class_id

    @classmethod
    def from_arrays(cls, w: np.ndarray, p: np.ndarray, mass: np.ndarray,
                    class_id: int | None = None) -> "AtomicMeasure2D":
        m = cls.__new__(cls)
        keep = w > 0
        keep &= p > 0
        # np.compress copies about twice as fast as boolean indexing
        m.w, m.p, m.mass = (np.compress(keep, np.asarray(a, dtype=float))
                            for a in (w, p, mass))
        for arr in (m.w, m.p, m.mass):
            arr.flags.writeable = False
        m.class_id = class_id
        return m

    def __len__(self) -> int:
        return len(self.w)

    def __call__(self, box: Box) -> float:
        return eval_box(self, box)

    def atoms(self) -> list[tuple[float, float, float]]:
        return list(zip(self.w.tolist(), self.p.tolist(), self.mass.tolist()))

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())

    def __repr__(self) -> str:
        tag = f", class_id={self.class_id}" if self.class_id is not None else ""
        return f"AtomicMeasure2D({len(self)} atoms, mass={self.total_mass:g}{tag})"


def eval_box(measure: AtomicMeasure2D, box: Box) -> float:
    """Mass inside the half-open box."""
    inside = ((measure.w >= box.a) & (measure.w < box.b)
              & (measure.p >= box.c) & (measure.p < box.d))
    return float(measure.mass[inside].sum())


def evolve(measure: AtomicMeasure2D, h: float) -> AtomicMeasure2D:
    """Shift every atom by (-h, -h), dropping the atoms a boundary caught."""
    if h < 0:
        raise ValueError(f"h must be nonnegative, got {h}")
    return AtomicMeasure2D.from_arrays(measure.w - h, measure.p - h, measure.mass,
                                       class_id=measure.class_id)


def corner_distance(w, p, x: float, y: float):
    """Euclidean distance from (w, p) to the corner set at (x, y).

    The corner set is the pair of rays leaving (x, y) rightward and upward:
    {(s, y) : s >= x} union {(x, s) : s >= y}.
    """
    w = np.asarray(w, dtype=float)
    p = np.asarray(p, dtype=float)
    d_horiz = np.hypot(np.maximum(x - w, 0.0), p - y)
    d_vert = np.hypot(w - x, np.maximum(y - p, 0.0))
    return np.minimum(d_horiz, d_vert)


# Unsorted coordinates of at least this many atoms are binned through
# uniform buckets (_bucket_bin); below it one searchsorted is faster. Both
# give the same bins. Against searchsorted on a 2-core Xeon, with the 47 p
# edges of a converge snapshot's corner probe and the 7 of its rectangle
# grid: 1.5 and 0.9 ms against 3.6 and 1.9 ms at 98k atoms, 0.10 and 0.07
# against 0.13 and 0.05 ms at 4096, 0.05 against 0.01 ms at 1k.
BUCKET_MIN_ATOMS = 4096
BUCKETS = 512
# Edges per bucket past which the per-bucket comparisons cost more than a
# binary search (clustered edges); such inputs go through searchsorted.
BUCKET_MAX_DEPTH = 4
BIN_BLOCK = 8192    # atoms per block of _bucket_bin's reused buffers


def _bin(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """np.searchsorted(edges, values, side="right"): per value, how many of
    the sorted distinct edges are at or below it.

    Nondecreasing values, such as a snapshot's residual virtual sojourns in
    FIFO order, are binned by searching the edges into the values and
    repeating each bin index over its run. Other values of a large measure
    go through _bucket_bin, and the rest through searchsorted.
    """
    n = len(values)
    if np.all(values[1:] >= values[:-1]):
        starts = np.searchsorted(values, edges, side="left")
        return np.repeat(np.arange(len(edges) + 1), np.diff(starts, prepend=0, append=n))
    if n >= BUCKET_MIN_ATOMS:
        bins = _bucket_bin(values, edges)
        if bins is not None:
            return bins
    return np.searchsorted(edges, values, side="right")


def _bucket_bin(values: np.ndarray, edges: np.ndarray) -> np.ndarray | None:
    """_bin by uniform buckets over the finite edge range, or None where the
    edges do not suit them.

    bucket(u) = min(max((u - lo) * scale, 0), BUCKETS - 1), truncated, is
    nondecreasing in u. So an edge in an earlier bucket than a value is
    below it and one in a later bucket above it, and only the edges sharing
    the value's bucket need an exact comparison: a lookup table gives the
    count below the bucket, and one pass per rank within a bucket adds the
    rest (NaN pads the table, since NaN <= u is false).
    """
    finite = edges[np.isfinite(edges)]
    if len(finite) < 2:
        return None
    lo = finite[0]
    scale = BUCKETS / (finite[-1] - lo)
    if not np.isfinite(scale):
        return None

    def bucket(u, out=None):
        with np.errstate(over="ignore"):    # huge values saturate at inf
            u = np.subtract(u, lo, out=out)
            u *= scale
        return np.clip(u, 0, BUCKETS - 1, out=u)

    home = bucket(edges).astype(np.intp)
    below = np.searchsorted(home, np.arange(BUCKETS), side="left")
    rank = np.arange(len(edges)) - below[home]
    if rank.max() >= BUCKET_MAX_DEPTH:
        return None
    table = np.full((rank.max() + 1, BUCKETS), np.nan)
    table[rank, home] = edges
    out = np.empty(len(values), dtype=np.intp)
    size = min(BIN_BLOCK, len(values))
    scaled, b, edge, hit = (np.empty(size), np.empty(size, dtype=np.intp),
                            np.empty(size), np.empty(size, dtype=bool))
    for start in range(0, len(values), BIN_BLOCK):
        stop = min(start + BIN_BLOCK, len(values))
        k = stop - start
        v, o, bk, e, h = values[start:stop], out[start:stop], b[:k], edge[:k], hit[:k]
        bk[...] = bucket(v, out=scaled[:k])
        np.take(below, bk, out=o)
        for row in table:
            np.take(row, bk, out=e)
            o += np.less_equal(e, v, out=h)
    return out


def box_masses(measure: AtomicMeasure2D, a, b, c, d) -> np.ndarray:
    """Mass of each half-open box [a_i, b_i) x [c_i, d_i), from one binning.

    The edges broadcast against each other and may be any floats, infinite
    right edges included. Each coordinate is binned once into the sorted
    distinct edges, a mass-weighted 2-D bincount and reverse cumulative
    sums give the mass of every upper-right quadrant with corner on the
    edge grid, and inclusion-exclusion turns those into box masses. With
    integer masses every sum is exact, so each entry equals eval_box.

    A snapshot's atoms come in FIFO order, so its w is nondecreasing and
    the binning searches the edges into w instead of each atom into the
    edges. Rounding can still invert w by an ulp, and other measures come
    in any order, so _bin checks the order first and falls back to
    searching the atoms; the bins, and so the sums, are the same.
    """
    a, b, c, d = np.broadcast_arrays(*(np.asarray(e, dtype=float) for e in (a, b, c, d)))
    w_edges = np.unique(np.concatenate([a.ravel(), b.ravel()]))
    p_edges = np.unique(np.concatenate([c.ravel(), d.ravel()]))
    # bin i holds the atoms with exactly i edges at or below the coordinate
    cell = _bin(measure.w, w_edges)
    shape = (len(w_edges) + 1, len(p_edges) + 1)
    cell *= shape[1]
    cell += _bin(measure.p, p_edges)
    grid = np.bincount(cell, weights=measure.mass,
                       minlength=shape[0] * shape[1]).reshape(shape)
    # tail[i, j]: mass with w >= w_edges[i - 1] and p >= p_edges[j - 1]
    tail = grid[::-1, ::-1].cumsum(0).cumsum(1)[::-1, ::-1]
    ka, kb = (np.searchsorted(w_edges, e) + 1 for e in (a, b))
    kc, kd = (np.searchsorted(p_edges, e) + 1 for e in (c, d))
    return tail[ka, kc] - tail[kb, kc] - tail[ka, kd] + tail[kb, kd]


def corner_mass(measure: AtomicMeasure2D, corners: Sequence[tuple[float, float]],
                kappas: Sequence[float]) -> np.ndarray:
    """Mass strictly within distance kappa of each corner set, as an array
    indexed [corner, kappa].

    Off the lower-left quadrant of a corner (x, y), corner_distance is
    exactly |w - x| (for p >= y) or |p - y| (for w >= x), since
    hypot(0, s) == |s| and hypot(r, s) >= max(|r|, |s|). So the mass there
    is three box masses whose edges are the exact float cut points of
    w - x < kappa, x - w < kappa and their p twins, computed once per
    distinct (corners, kappas). Only the atoms in the kappa_max square
    below-left of the corner are measured, by hypot(x - w, y - p), to which
    both branches of corner_distance reduce there. A snapshot's atoms come
    in FIFO order, so w is nondecreasing and each corner's square lies in
    one slice of measure.w; other measures are sorted by w first. Equal to
    the per-corner corner_distance count when the masses are integers and
    the atoms finite.
    """
    kap = np.asarray(kappas, dtype=float).reshape(1, -1)
    if not np.all((kap > 0) & np.isfinite(kap)):
        raise ValueError(f"kappas must be positive and finite, got {list(kappas)}")
    xy = np.asarray(corners, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(xy)):
        raise ValueError("corners must be finite")
    if len(measure) == 0 or kap.size == 0:
        return np.zeros((len(xy), kap.size))
    w_lo, w_hi, p_lo, p_hi = _corner_cuts(tuple(map(tuple, xy.tolist())),
                                          tuple(kap.ravel().tolist()))
    inf = np.full_like(w_hi, np.inf)
    x, y = xy[:, :1], xy[:, 1:]
    xs, ys = np.broadcast_to(x, inf.shape), np.broadcast_to(y, inf.shape)
    # [w_lo, w_hi) x [y, inf), [w_hi, inf) x [y, p_hi) and [x, inf) x [p_lo, y)
    masses = box_masses(measure, [w_lo, w_hi, xs], [w_hi, inf, inf],
                        [ys, ys, p_lo], [inf, p_hi, ys]).sum(axis=0)
    w, p, mass = measure.w, measure.p, measure.mass
    if not np.all(w[1:] >= w[:-1]):
        order = np.argsort(w)
        w, p, mass = w[order], p[order], mass[order]
    widest = int(np.argmax(kap))
    starts = np.searchsorted(w, w_lo[:, widest])
    stops = np.searchsorted(w, xy[:, 0])
    for i, (xi, yi) in enumerate(xy):
        strip = p[starts[i]:stops[i]]
        near = starts[i] + np.flatnonzero((strip >= p_lo[i, widest]) & (strip < yi))
        if len(near):
            dist = np.hypot(xi - w[near], yi - p[near])
            masses[i] += mass[near] @ (dist[:, None] < kap)
    return masses


@functools.lru_cache(maxsize=64)
def _corner_cuts(corners: tuple[tuple[float, float], ...],
                 kappas: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """corner_mass's cut points w_lo, w_hi, p_lo and p_hi, indexed [corner,
    kappa]: the leftmost floats from which x - w < kappa, w - x >= kappa,
    y - p < kappa and p - y >= kappa hold. Read-only, as they are cached."""
    xy = np.array(corners, dtype=float).reshape(-1, 2)
    x, y = xy[:, :1], xy[:, 1:]
    kap = np.array(kappas, dtype=float).reshape(1, -1)
    # Each cut lies within one ulp of max(|x|, |y|, kappa) of x +- kappa or
    # y +- kappa, so four such ulps bracket it.
    width = 4 * np.spacing(np.maximum(np.maximum(abs(x), abs(y)), kap))

    def cut(inside, start):
        edge = numerics.bisect_leftmost(inside, start - width, start + width)
        edge.flags.writeable = False
        return edge

    return (cut(lambda e: x - e < kap, x - kap), cut(lambda e: e - x >= kap, x + kap),
            cut(lambda e: y - e < kap, y - kap), cut(lambda e: e - y >= kap, y + kap))


BoxEvaluator = Callable[[Box], float]


def rect_distance(a: AtomicMeasure2D | BoxEvaluator,
                  b: AtomicMeasure2D | BoxEvaluator,
                  grid: Sequence[Box]) -> float:
    """Largest evaluation gap over a rectangle grid.

    Accepts measures or any callable Box -> mass. Evaluating on a rich grid
    of rectangles is the working surrogate for weak-convergence distance:
    rectangle evaluations determine a finite measure, and the limits being
    compared against charge no rectangle boundaries.
    """
    if not grid:
        raise ValueError("grid must be nonempty")
    return max(abs(a(box) - b(box)) for box in grid)


def measure_rows(measure: AtomicMeasure2D) -> list[tuple[int | None, float, float, float]]:
    """(class_id, w, p, mass) rows for CSV export."""
    cid = measure.class_id
    return [(cid, w, p, m) for w, p, m in measure.atoms()]
