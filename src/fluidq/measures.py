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
        keep = (w > 0) & (p > 0)
        m.w = np.ascontiguousarray(w[keep], dtype=float)
        m.p = np.ascontiguousarray(p[keep], dtype=float)
        m.mass = np.ascontiguousarray(mass[keep], dtype=float)
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


def box_masses(measure: AtomicMeasure2D, a, b, c, d) -> np.ndarray:
    """Mass of each half-open box [a_i, b_i) x [c_i, d_i), from one binning.

    The edges broadcast against each other and may be any floats, infinite
    right edges included. Each coordinate is binned once into the sorted
    distinct edges, a mass-weighted 2-D bincount and reverse cumulative
    sums give the mass of every upper-right quadrant with corner on the
    edge grid, and inclusion-exclusion turns those into box masses. With
    integer masses every sum is exact, so each entry equals eval_box.
    """
    a, b, c, d = np.broadcast_arrays(*(np.asarray(e, dtype=float) for e in (a, b, c, d)))
    w_edges = np.unique(np.concatenate([a.ravel(), b.ravel()]))
    p_edges = np.unique(np.concatenate([c.ravel(), d.ravel()]))
    # bin i holds the atoms with exactly i edges at or below the coordinate
    iw = np.searchsorted(w_edges, measure.w, side="right")
    ip = np.searchsorted(p_edges, measure.p, side="right")
    shape = (len(w_edges) + 1, len(p_edges) + 1)
    grid = np.bincount(iw * shape[1] + ip, weights=measure.mass,
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
    w - x < kappa, x - w < kappa and their p twins. Only the atoms in the
    kappa_max square below-left of the corner go through corner_distance.
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
    x, y = xy[:, :1], xy[:, 1:]
    # Each cut lies within one ulp of max(|x|, |y|, kappa) of x +- kappa or
    # y +- kappa, so four such ulps bracket it.
    width = 4 * np.spacing(np.maximum(np.maximum(abs(x), abs(y)), kap))

    def cut(inside, start):
        return numerics.bisect_leftmost(inside, start - width, start + width)

    w_hi = cut(lambda e: e - x >= kap, x + kap)   # w - x < kappa below it
    w_lo = cut(lambda e: x - e < kap, x - kap)    # x - w < kappa from it on
    p_hi = cut(lambda e: e - y >= kap, y + kap)
    p_lo = cut(lambda e: y - e < kap, y - kap)
    inf = np.full_like(w_hi, np.inf)
    xs, ys = np.broadcast_to(x, inf.shape), np.broadcast_to(y, inf.shape)
    # [w_lo, w_hi) x [y, inf), [w_hi, inf) x [y, p_hi) and [x, inf) x [p_lo, y)
    masses = box_masses(measure, [w_lo, w_hi, xs], [w_hi, inf, inf],
                        [ys, ys, p_lo], [inf, p_hi, ys]).sum(axis=0)
    # The lower-left quadrant, within the widest radius: atoms sorted by w,
    # so each corner's w-range is one slice.
    order = np.argsort(measure.w)
    w_sorted, p_by_w = measure.w[order], measure.p[order]
    widest = int(np.argmax(kap))
    starts = np.searchsorted(w_sorted, w_lo[:, widest])
    stops = np.searchsorted(w_sorted, xy[:, 0])
    for i, (xi, yi) in enumerate(xy):
        strip = p_by_w[starts[i]:stops[i]]
        near = order[starts[i] + np.flatnonzero((strip >= p_lo[i, widest]) & (strip < yi))]
        if len(near):
            dist = corner_distance(measure.w[near], measure.p[near], xi, yi)
            masses[i] += measure.mass[near] @ (dist[:, None] < kap)
    return masses


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
    fa = a if callable(a) else a.__call__
    fb = b if callable(b) else b.__call__
    return max(abs(fa(box) - fb(box)) for box in grid)


def measure_rows(measure: AtomicMeasure2D) -> list[tuple[int | None, float, float, float]]:
    """(class_id, w, p, mass) rows for CSV export."""
    cid = measure.class_id
    return [(cid, w, p, m) for w, p, m in measure.atoms()]
