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

The simulator's snapshots are counting measures: one unit atom per job and
no mass array stored. Box and corner masses come from a quadrant table of
upper-right counts on a grid of edges; a counting measure keeps its last
table, so a second request on the same grid (the harness's rectangle grid
after its corner probe) reads it instead of binning the atoms again.
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
    measure never charges the axes. A counting measure (from_arrays with no
    masses, as SimTrace.snapshot builds) stores no mass array: every atom
    has mass 1, and ``mass`` is a read-only view of ones.
    """

    __slots__ = ("w", "p", "_mass", "class_id", "_table")

    def __init__(self, atoms: Iterable[tuple[float, float, float]] = (),
                 class_id: int | None = None):
        rows = np.asarray(list(atoms), dtype=float).reshape(-1, 3)
        keep = (rows[:, 0] > 0) & (rows[:, 1] > 0)
        rows = rows[keep]
        if np.any(rows[:, 2] <= 0):
            raise ValueError("atom masses must be positive")
        self.w = rows[:, 0].copy()
        self.p = rows[:, 1].copy()
        self._mass = rows[:, 2].copy()
        for arr in (self.w, self.p, self._mass):
            arr.flags.writeable = False
        self.class_id = class_id
        self._table = None

    @classmethod
    def from_arrays(cls, w: np.ndarray, p: np.ndarray, mass: np.ndarray | None = None,
                    class_id: int | None = None) -> "AtomicMeasure2D":
        """The atoms (w_i, p_i, mass_i) with w_i > 0 and p_i > 0; a counting
        measure when mass is None."""
        keep = w > 0
        keep &= p > 0
        # np.compress copies about twice as fast as boolean indexing
        w, p = (np.compress(keep, np.asarray(a, dtype=float)) for a in (w, p))
        if mass is not None:
            mass = np.compress(keep, np.asarray(mass, dtype=float))
        return cls._wrap(w, p, mass, class_id)

    @classmethod
    def _wrap(cls, w: np.ndarray, p: np.ndarray, mass: np.ndarray | None,
              class_id: int | None) -> "AtomicMeasure2D":
        """The measure that takes ownership of float arrays whose every w and
        p is already positive (no copy, no check); a counting measure when
        mass is None."""
        m = cls.__new__(cls)
        m.w, m.p, m._mass = w, p, mass
        for arr in (w, p, mass):
            if arr is not None:
                arr.flags.writeable = False
        m.class_id = class_id
        m._table = None
        return m

    @property
    def mass(self) -> np.ndarray:
        """Each atom's mass, read-only."""
        if self._mass is None:
            return np.broadcast_to(1.0, self.w.shape)
        return self._mass

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
    return AtomicMeasure2D.from_arrays(measure.w - h, measure.p - h, measure._mass,
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


def _distinct(*arrays) -> np.ndarray:
    """The arrays' entries together, sorted, each value once, from one sort
    and a mask."""
    values = np.concatenate([np.ravel(a) for a in arrays])
    values.sort()
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def _on_grid(edges: np.ndarray, grid: np.ndarray) -> bool:
    """Whether every one of the sorted distinct edges is on the sorted grid."""
    k = np.searchsorted(grid, edges)
    return bool(np.all(k < len(grid))) and np.array_equal(grid[k], edges)


def _quadrant_table(measure: AtomicMeasure2D, w_edges: np.ndarray,
                    p_edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w grid, p grid, tail), the grids sorted, distinct and holding the
    given sorted distinct edges, and tail[i, j] the mass with w >= w
    grid[i - 1] and p >= p grid[j - 1] (row and column 0: no bound).

    Each coordinate is binned once into its grid, and a 2-D bincount and
    reverse cumulative sums give the table. A counting measure's bincount is
    unweighted and its table exact in integers, so a table on a wider grid
    gives the same answers: the measure keeps its last table, and a request
    whose edges all lie on its grids reads it without binning again. A
    weighted measure's float sums depend on the grid, so it is binned on
    the edges asked for, every time.

    A snapshot's atoms come in FIFO order, so its w is nondecreasing and
    the binning searches the edges into w instead of each atom into the
    edges. Rounding can still invert w by an ulp, and other measures come
    in any order, so _bin checks the order first and falls back to
    searching the atoms; the bins, and so the sums, are the same.
    """
    kept = measure._table
    if kept is not None and _on_grid(w_edges, kept[0]) and _on_grid(p_edges, kept[1]):
        return kept
    # bin i holds the atoms with exactly i edges at or below the coordinate
    cell = _bin(measure.w, w_edges)
    shape = (len(w_edges) + 1, len(p_edges) + 1)
    cell *= shape[1]
    cell += _bin(measure.p, p_edges)
    grid = np.bincount(cell, weights=measure._mass,
                       minlength=shape[0] * shape[1]).reshape(shape)
    tail = grid[::-1, ::-1].cumsum(0).cumsum(1)[::-1, ::-1].astype(float)
    table = (w_edges, p_edges, tail)
    if measure._mass is None:
        measure._table = table
    return table


def _box_masses(measure: AtomicMeasure2D, w_edges, p_edges, a, b, c, d) -> np.ndarray:
    """box_masses, given sorted distinct grids that hold every edge."""
    w_grid, p_grid, tail = _quadrant_table(measure, w_edges, p_edges)
    ka, kb = (np.searchsorted(w_grid, e) + 1 for e in (a, b))
    kc, kd = (np.searchsorted(p_grid, e) + 1 for e in (c, d))
    return tail[ka, kc] - tail[kb, kc] - tail[ka, kd] + tail[kb, kd]


def box_masses(measure: AtomicMeasure2D, a, b, c, d) -> np.ndarray:
    """Mass of each half-open box [a_i, b_i) x [c_i, d_i), from one binning.

    The edges broadcast against each other and may be any floats, infinite
    right edges included. The quadrant table (_quadrant_table) gives the
    mass of every upper-right quadrant with corner on the edge grid, and
    inclusion-exclusion turns those into box masses. With integer masses
    every sum is exact, so each entry equals eval_box.
    """
    a, b, c, d = np.broadcast_arrays(*(np.asarray(e, dtype=float) for e in (a, b, c, d)))
    return _box_masses(measure, _distinct(a, b), _distinct(c, d), a, b, c, d)


def corner_mass(measure: AtomicMeasure2D, corners: Sequence[tuple[float, float]],
                kappas: Sequence[float]) -> np.ndarray:
    """Mass strictly within distance kappa of each corner set, as an array
    indexed [corner, kappa].

    Off the lower-left quadrant of a corner (x, y), corner_distance is
    exactly |w - x| (for p >= y) or |p - y| (for w >= x), since
    hypot(0, s) == |s| and hypot(r, s) >= max(|r|, |s|). So the mass there
    is three box masses whose edges are the exact float cut points of
    w - x < kappa, x - w < kappa and their p twins, computed once per
    distinct (corners, kappas) with their grids (_corner_grids). Only the
    atoms in the kappa_max square below-left of the corner are measured,
    by hypot(x - w, y - p), to which both branches of corner_distance
    reduce there, compared with the radii as _strip_distances does. A
    snapshot's atoms come in FIFO order, so w is nondecreasing and each
    corner's square lies in one slice of measure.w; other measures are
    sorted by w first. Corners with no atom in that slice are skipped.
    Equal to the per-corner corner_distance count when the masses are
    integers and the atoms finite.
    """
    kap = np.asarray(kappas, dtype=float).reshape(1, -1)
    if not np.all((kap > 0) & np.isfinite(kap)):
        raise ValueError(f"kappas must be positive and finite, got {list(kappas)}")
    xy = np.asarray(corners, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(xy)):
        raise ValueError("corners must be finite")
    if len(measure) == 0 or kap.size == 0:
        return np.zeros((len(xy), kap.size))
    key = tuple(map(tuple, xy.tolist())), tuple(kap.ravel().tolist())
    w_lo, w_hi, p_lo, p_hi = _corner_cuts(*key)
    inf = np.full_like(w_hi, np.inf)
    x, y = xy[:, :1], xy[:, 1:]
    xs, ys = np.broadcast_to(x, inf.shape), np.broadcast_to(y, inf.shape)
    # [w_lo, w_hi) x [y, inf), [w_hi, inf) x [y, p_hi) and [x, inf) x [p_lo, y)
    masses = _box_masses(measure, *_corner_grids(*key), [w_lo, w_hi, xs], [w_hi, inf, inf],
                         [ys, ys, p_lo], [inf, p_hi, ys]).sum(axis=0)
    w, p, mass = measure.w, measure.p, measure._mass
    if not np.all(w[1:] >= w[:-1]):
        order = np.argsort(w)
        w, p = w[order], p[order]
        mass = None if mass is None else mass[order]
    widest = int(np.argmax(kap))
    starts = np.searchsorted(w, w_lo[:, widest])
    stops = np.searchsorted(w, xy[:, 0])
    for i in np.flatnonzero(starts < stops):
        strip = p[starts[i]:stops[i]]
        near = starts[i] + np.flatnonzero((strip >= p_lo[i, widest]) & (strip < xy[i, 1]))
        if len(near):
            dist = _strip_distances(xy[i, 0], xy[i, 1], w, p, near, kap[0])
            if mass is None:
                masses[i] += [np.count_nonzero(dist < k) for k in kap[0]]
            else:
                masses[i] += mass[near] @ (dist[:, None] < kap)
    return masses


# Within [2^-490, 2^490] no square overflows or loses bits that matter to
# underflow, and sqrt(dx*dx + dy*dy) and np.hypot(dx, dy) each lie within
# about one epsilon of the exact distance, relative to it. So where that
# sqrt lies more than HYPOT_MARGIN times kappa from kappa, both lie on the
# same side of it, with a factor four to spare.
HYPOT_MARGIN = 8 * np.finfo(float).eps
_HYPOT_RANGE = (2.0 ** -490, 2.0 ** 490)


def _strip_distances(x: float, y: float, w: np.ndarray, p: np.ndarray, near: np.ndarray,
                     kappas: np.ndarray) -> np.ndarray:
    """Distances from the atoms near to (x, y) that compare with each kappa
    as np.hypot(x - w, y - p) does, where each atom lies below-left of
    (x, y) by less than the largest kappa in both coordinates.

    When that kappa is at most the top of _HYPOT_RANGE, so no square
    overflows, they are sqrt(dx*dx + dy*dy), about ten times cheaper, and
    np.hypot itself at the atoms whose sqrt lies within HYPOT_MARGIN of
    some kappa or below _HYPOT_RANGE (NaN too); otherwise np.hypot at every
    atom. Computed in place: no more strip-sized float arrays are live at
    once than np.hypot's two arguments and its result.
    """
    if not kappas.max() <= _HYPOT_RANGE[1]:
        return np.hypot(x - w[near], y - p[near])
    dist = np.subtract(x, w[near])
    dist *= dist
    dy = np.subtract(y, p[near])
    dy *= dy
    dist += dy
    del dy
    np.sqrt(dist, out=dist)
    unsure = ~(dist >= _HYPOT_RANGE[0])
    for k in kappas.tolist():
        unsure |= (dist >= k - HYPOT_MARGIN * k) & (dist <= k + HYPOT_MARGIN * k)
    at = near[unsure]
    dist[unsure] = np.hypot(x - w[at], y - p[at])
    return dist


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


@functools.lru_cache(maxsize=64)
def _corner_grids(corners: tuple[tuple[float, float], ...],
                  kappas: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """corner_mass's sorted distinct w and p edges: the corners' x and y,
    their cut points and inf. A rectangle grid whose boxes' edges are its
    corners' coordinates and inf lies on them, so box_masses on such a grid
    reads the quadrant table that corner_mass left on the measure.
    Read-only, as they are cached."""
    w_lo, w_hi, p_lo, p_hi = _corner_cuts(corners, kappas)
    x, y = np.array(corners, dtype=float).reshape(-1, 2).T
    grids = _distinct(w_lo, w_hi, x, [np.inf]), _distinct(p_lo, p_hi, y, [np.inf])
    for grid in grids:
        grid.flags.writeable = False
    return grids


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
