"""Deterministic fluid model of the overloaded multiclass FIFO queue.

The scalar workload w solves the autonomous ODE

    w'(t) = sum_k rho_k G_k(w(t)) - 1,

where rho_k is the class load and G_k the deadline survival function.
Because total load exceeds one, the right side is positive at zero and
falls to -1 at infinity, so the fixed points form the closed interval
where sum_k rho_k G_k equals exactly one: the equilibrium band.

On top of the workload path, the measure-valued fluid state of class k is
evaluated in closed form on boxes: mass that started in the box's
diagonal preimage, plus fluid arrivals whose entry position and residual
patience land in the box. The first-in-first-out frontier map

    tau(t) = inf{ s in [0, t] : w(s) + s >= t }

locates the arrival epoch whose work is reaching the server at time t;
everything downstream (queue lengths, abandonment splits, age profiles)
is an integral with tau in its limits.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import numerics
from .distributions import Distribution, require_deadline_law
from .measures import Box

QUAD_TOL = 1e-10
# Workload level nodes (_levels): GRADING puts the Hermite error of an
# exponential approach near GRADING tol_w / 384; 384 missed tol_w 9x on
# M/M/1+M. The last node lies within EDGE_EPS epsilons of the band edge.
GRADING = 4.0
EDGE_EPS = 4
# A knot node within KNOT_WINDOW * T of the horizon T counts as past it.
KNOT_WINDOW = 1e-10

log = logging.getLogger(__name__)


class FluidModelError(ValueError):
    """Invalid fluid-model data or evaluation outside preconditions."""


@dataclass(frozen=True)
class FluidClass:
    """One customer class: arrival rate, service rate, deadline law."""

    arrival_rate: float
    service_rate: float
    deadline: Distribution

    def __post_init__(self):
        if not self.arrival_rate > 0:
            raise FluidModelError(f"arrival rate must be positive, got {self.arrival_rate}")
        if not self.service_rate > 0:
            raise FluidModelError(f"service rate must be positive, got {self.service_rate}")
        require_deadline_law(self.deadline)

    @property
    def rho(self) -> float:
        return self.arrival_rate / self.service_rate


@dataclass(frozen=True)
class FluidModelInput:
    """Supercritical model data: per-class rates and deadline laws."""

    classes: tuple[FluidClass, ...]

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if not self.classes:
            raise FluidModelError("need at least one class")
        if not self.rho > 1:
            raise FluidModelError(
                f"total load must exceed 1 (overloaded regime), got rho={self.rho}")

    @property
    def K(self) -> int:
        return len(self.classes)

    @property
    def rho(self) -> float:
        return math.fsum(c.rho for c in self.classes)

    @property
    def d_max(self) -> float:
        return max(c.deadline.sup_support() for c in self.classes)

    @property
    def d_tilde(self) -> float:
        """Deadline scale of the probe grids: min(d_max, 3 * the largest
        mean deadline), finite even for unbounded deadline laws."""
        return min(self.d_max, 3.0 * max(c.deadline.mean() for c in self.classes))

    def load_survival(self, u):
        """sum_k rho_k G_k(u); the ODE right side plus one."""
        return sum(c.rho * c.deadline.survival(u) for c in self.classes)

    @cached_property
    def band(self) -> tuple[float, float]:
        """The equilibrium band (w_l, w_u), bisected once per model."""
        return equilibrium_band(self)


def equilibrium_band(model: FluidModelInput) -> tuple[float, float]:
    """Endpoints of the fixed-point interval {u : sum_k rho_k G_k(u) = 1},
    exact to the float.

    The load u -> sum rho_k G_k(u) is nonincreasing from rho > 1 to 0, so
    its level-1 set is a nonempty closed interval; a flat stretch of some
    G_k at the right height makes it nondegenerate. By Markov's inequality
    G_k(u) <= E[D_k] / u, so the load is at most 1/2 at twice
    sum_k rho_k E[D_k], which brackets both endpoints. One bisection finds
    w_l, the leftmost float with load <= 1, and the leftmost float with
    load < 1; the float before the latter is w_u. Where no float has load
    exactly 1, the band is the single float w_l.
    """
    hi = 2.0 * math.fsum(c.rho * c.deadline.mean() for c in model.classes)
    levels = np.array([1.0, 0.9999999999999999])   # load <= 1 and load < 1
    w_l, past = numerics.bisect_leftmost(
        lambda u: model.load_survival(u) <= levels, np.zeros(2), hi)
    w_u = numerics._key_float(numerics._float_key(past) - 1)
    return float(w_l), float(max(w_l, w_u))


class WorkloadPath:
    """Workload fluid solution on [0, T], interpolated with its exact slope.

    Between the nodes (grid_t, grid_w) the path is the cubic Hermite
    interpolant of the node values and slopes, by default f(grid_w).
    knot_times are the times at which the path crosses a deadline knot;
    each is a node, so no cubic piece spans a kink. midpoint_error is the
    largest error the solver's check measured on an accepted panel.
    """

    def __init__(self, model: FluidModelInput, w0: float, T: float,
                 ts: np.ndarray, ws: np.ndarray,
                 knot_times: tuple[float, ...], *, slopes: np.ndarray | None = None,
                 midpoint_error: float = 0.0):
        self.model = model
        self.w0 = float(w0)
        self.T = float(T)
        self.grid_t = ts
        self.grid_w = ws
        self.knot_times = knot_times
        self.midpoint_error = midpoint_error
        if slopes is None:
            slopes = _drift(model, ws)
        self._coef = _hermite_coefficients(ts, ws, slopes)
        self._waiting: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def node_count(self) -> int:
        return len(self.grid_t)

    def __call__(self, t: float) -> float:
        return float(self.at(t))

    def at(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        self._check_time(ts)
        if not self._coef.shape[1]:
            return np.full_like(ts, self.w0)
        return self._pieces(self._coef, np.clip(ts, 0.0, self.T))

    def _pieces(self, c: np.ndarray, s: np.ndarray) -> np.ndarray:
        """The cubics c on the node intervals at s, by Horner: the spline's
        own sum up from the constant term can land an ulp past a flat end."""
        i = np.clip(np.searchsorted(self.grid_t, s, side="right") - 1, 0, c.shape[1] - 1)
        return _cubic(c[:, i], s - self.grid_t[i])

    @cached_property
    def _frontier(self) -> tuple[np.ndarray, np.ndarray]:
        """phi's cubic pieces and its values at the nodes.

        On node interval i, phi(s) = sum_j c[j, i] (s - x_i)^(3 - j) with
        the Hermite coefficients of w plus 1 on the linear term and x_i on
        the constant one, so phi(x_i) is exactly c[-1, i].
        """
        if not self._coef.shape[1]:
            return self._coef, np.array([self.w0])
        c = self._coef.copy()
        c[-2] += 1.0
        c[-1] += self.grid_t[:-1]
        last = _cubic(c[:, -1], self.T - self.grid_t[-2])
        return c, np.append(c[-1], last)

    def phi(self, s):
        """The frontier map s -> w(s) + s, for a scalar or an array.

        Nondecreasing, not strictly: phi' = sum_k rho_k G_k(w) >= 0, and it
        vanishes where w sits at or above every deadline. Evaluated on the
        cubic pieces that tau inverts.
        """
        s = np.asarray(s, dtype=float)
        self._check_time(s)
        c, _ = self._frontier
        value = self._pieces(c, s) if c.shape[1] else self.w0 + s
        return value if value.ndim else float(value)

    def tau(self, x):
        """inf{ s in [0, T] : phi(s) >= x }, inf when x > phi(T), for a
        scalar or an array of levels x.

        For t in [0, T], tau(t) <= t is the arrival epoch whose work reaches
        the server at time t, and min(tau(x), t) the first arrival of [0, t]
        whose frontier has reached x by then. One searchsorted of x among
        phi's node values brackets each root in one cubic piece, and
        numerics.bisect_leftmost over the floats of that piece gives the
        leftmost float s with phi(s) >= x. The functionals of one time
        grid share one call: fluid_grid passes its answer to each of them.
        """
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        c, nodes = self._frontier
        out = np.where(flat > nodes[-1], math.inf, 0.0)
        inner = np.flatnonzero((flat > nodes[0]) & (flat <= nodes[-1]))
        if len(inner):
            target = flat[inner]
            i = np.searchsorted(nodes, target, side="left") - 1
            coef, left = c[:, i], self.grid_t[i]
            out[inner] = numerics.bisect_leftmost(
                lambda s: _cubic(coef, s - left) >= target, left, self.grid_t[i + 1])
        return out.reshape(x.shape) if x.ndim else float(out[0])

    def waiting_integral(self, k: int, lo, hi):
        """Integral over [lo, hi] of G_k(w(v)) dv: the class k arrivals of
        [lo, hi] still waiting. lo and hi are scalars or arrays in [0, T].

        Differences of class k's antiderivative, which is built once on the
        path's nodes with numerics.cumulative_integral (QUAD_TOL per unit of
        time, so a relative tolerance since G_k <= 1); each end adds one
        Gauss-Legendre panel from the node before it. Every knot crossing
        is a node, so every panel is smooth. n and a integrate over the
        same [tau(t), t], so fluid_grid takes it once per class for both.
        """
        return self._antiderivative(k, hi) - self._antiderivative(k, lo)

    def _antiderivative(self, k: int, x):
        """Integral over [0, x] of G_k(w(v)) dv."""
        surv = self.model.classes[k].deadline.survival

        def waiting(v):
            return surv(self.at(v))

        if k not in self._waiting:
            self._waiting[k] = numerics.cumulative_integral(waiting, self.grid_t, QUAD_TOL)
        starts, cum = self._waiting[k]
        x = np.asarray(x, dtype=float)
        j = np.maximum(np.searchsorted(starts, x, side="right") - 1, 0)
        return cum[j] + numerics.gl_panels(waiting, starts[j], x)

    def _check_time(self, t) -> None:
        if numerics.outside_horizon(t, self.T):
            raise FluidModelError(f"time {t} outside the solved horizon [0, {self.T}]")


def _cubic(c: np.ndarray, d):
    """The cubic with coefficients c[0] d^3 + ... + c[3], by Horner."""
    return ((c[0] * d + c[1]) * d + c[2]) * d + c[3]


def _hermite_coefficients(x, y, m) -> np.ndarray:
    """The cubic Hermite pieces through the nodes (x, y) with slopes m, one
    column per node interval, highest power first; (4, 0) for one node.
    The float operations are those of scipy's CubicHermiteSpline, so every
    coefficient is bitwise its .c."""
    x, y, m = (np.asarray(a, dtype=float) for a in (x, y, m))
    if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(m).all()):
        raise FluidModelError("workload path nodes and slopes must be finite")
    dx = np.diff(x)
    if (dx <= 0).any():
        raise FluidModelError("workload path times must be strictly increasing")
    slope = np.diff(y) / dx
    t = (m[:-1] + m[1:] - 2 * slope) / dx
    return np.array([t / dx, (slope - m[:-1]) / dx - t, m[:-1], y[:-1]])


def _drift(model: FluidModelInput, w):
    """The ODE right side f(w) = sum_k rho_k G_k(w) - 1."""
    return model.load_survival(np.maximum(w, 0.0)) - 1.0


def _hermite(theta, y0, y1, m0, m1):
    """The cubic Hermite interpolant at the fraction theta of its piece, from
    the end values y0, y1 and the end slopes times the piece length m0, m1."""
    return (y0 + (y1 - y0) * theta * theta * (3.0 - 2.0 * theta)
            + theta * (1.0 - theta) * ((1.0 - theta) * m0 - theta * m1))


def _levels(w0: float, edge: float, tol_w: float, knots) -> tuple[np.ndarray, np.ndarray]:
    """The level nodes from w0 towards the band edge, and which are knots:
    every knot strictly between the two, and graded levels whose step at
    distance d from the edge is d (GRADING tol_w / d)^(1/4), capped at d / 2,
    down to within EDGE_EPS epsilons of the edge, relative to it."""
    sign = 1.0 if w0 < edge else -1.0
    ahead = {x for x in knots if sign * (x - w0) > 0 < sign * (edge - x)}
    root, floor = (GRADING * tol_w) ** 0.25, EDGE_EPS * np.finfo(float).eps * edge
    levels, d = set(ahead), abs(edge - w0)
    while d > floor:
        d -= min(d ** 0.75 * root, 0.5 * d)
        levels.add(edge - sign * d)
    levels = [w0, *sorted((x for x in levels if sign * (x - w0) > 0), key=lambda x: sign * x)]
    return np.array(levels), np.array([x in ahead for x in levels], dtype=float)


def solve_workload(model: FluidModelInput, w0: float, T: float,
                   tol: float = 1e-10) -> WorkloadPath:
    """Solve w' = f(w) = sum rho_k G_k(w) - 1 from w(0) = w0 on [0, T].

    The path inverts the time-to-level integral t(u) = integral of dv / f(v)
    from w0 to u, running towards the near edge of the equilibrium band.
    One gl_panels call per GL_BLOCK level panels (_levels: knots are nodes,
    so 1/f is smooth on each) times the nodes, up to the first at or past
    T. Each panel starting before T is then checked once, as in
    numerics.cumulative_integral: the Hermite piece at the time of its
    mid-level must be within tol_w = tol * max(w0, edge) of it, or it is
    halved there. The path ends at (T, w(T)), a knot within KNOT_WINDOW * T
    of T counting as past it, or at (T, edge) with slope 0 if it gets there
    first. A node within TIME_SLACK_ULPS ulps of T of a neighbour is
    dropped: no query tells them apart, and so short a piece could
    overflow. w0 in the band, or T = 0, gives the constant path; w0 must be
    at most d_max.
    """
    if w0 < 0:
        raise FluidModelError(f"w0 must be nonnegative, got {w0}")
    if T < 0:
        raise FluidModelError(f"horizon must be nonnegative, got {T}")
    if not tol > 0:
        raise FluidModelError(f"tol must be positive, got {tol}")
    d_max = model.d_max
    if w0 > d_max:
        raise FluidModelError(
            f"w0={w0} exceeds the largest deadline support bound {d_max}")

    w0, T = float(w0), float(T)
    w_l, w_u = model.band
    if T == 0 or w_l <= w0 <= w_u:
        ts = np.array([0.0, T]) if T else np.zeros(1)
        return WorkloadPath(model, w0, T, ts, np.full(len(ts), w0), (),
                            slopes=np.zeros(len(ts)))
    edge = w_l if w0 < w_l else w_u
    tol_w = tol * max(w0, edge)
    levels, knot = _levels(w0, edge, tol_w, [x for c in model.classes
                                             for x in c.deadline.breakpoints()])

    def pace(v):
        return 1.0 / _drift(model, v)

    times = np.zeros(1)
    for i in range(0, len(levels) - 1, numerics.GL_BLOCK):
        panel = levels[i:i + numerics.GL_BLOCK + 1]
        times = np.append(times, times[-1] + np.cumsum(numerics.gl_panels(
            pace, panel[:-1], panel[1:])))
        if times[-1] >= T:
            break
    n = len(times)
    # One column per node: time, level, slope and whether it is a knot.
    nodes = np.array([times, levels[:n], _drift(model, levels[:n]), knot[:n]])

    worst, todo = 0.0, np.flatnonzero(times[:-1] < T)
    for depth in range(numerics.CUMULATIVE_MAX_DEPTH + 1):
        (t0, y0, s0, _), (t1, y1, s1, _) = nodes[:, todo], nodes[:, todo + 1]
        mid = 0.5 * (y0 + y1)
        part, span = numerics._gl_blocks(pace, y0, mid), t1 - t0
        with np.errstate(invalid="ignore", divide="ignore"):
            err = np.abs(_hermite(part / span, y0, y1, span * s0, span * s1) - mid)
        err = np.where(span > 0, err, 0.0)
        bad = (err > tol_w) & (depth < numerics.CUMULATIVE_MAX_DEPTH)
        worst = max(worst, float(err[~bad].max(initial=0.0)))
        if not bad.any():
            break
        mid = mid[bad]
        nodes = np.insert(nodes, todo[bad] + 1, [t0[bad] + part[bad], mid,
                                                 _drift(model, mid), 0.0 * mid], axis=1)
        first = todo[bad] + np.arange(len(mid))     # the left halves, renumbered
        todo = np.column_stack([first, first + 1]).ravel()
        todo = todo[nodes[0, todo] < T]

    if n == len(levels):
        # The edge is a fixed point, reached with slope 0 in the time the last
        # level's slope would take: a monotone piece.
        t, y, s, _ = nodes[:, -1]
        nodes = np.append(nodes, [[t + (edge - y) / s], [edge], [0.0], [0.0]], axis=1)
    past = (nodes[0] >= T) | ((nodes[3] > 0) & (nodes[0] >= T - KNOT_WINDOW * T))
    end = [T, edge, 0.0, 0.0]
    if past.any():
        j = int(np.argmax(past))
        (t0, y0, s0, _), (t1, y1, s1, _) = nodes[:, j - 1], nodes[:, j]
        y = _hermite((T - t0) / (t1 - t0), y0, y1, (t1 - t0) * s0, (t1 - t0) * s1)
        end = [T, y, _drift(model, np.array([y]))[0], 0.0]
        nodes = nodes[:, :j]
    nodes = np.append(nodes, np.array(end)[:, None], axis=1)
    apart = np.diff(nodes[0]) > numerics.TIME_SLACK_ULPS * np.spacing(T)
    ts, ws, slopes, knot = nodes[:, np.concatenate([[True], apart[:-1] & apart[1:], [True]])]
    log.debug("solve_workload: %d nodes, largest midpoint error %.3g (tol_w %.3g)",
              len(ts), worst, tol_w)
    return WorkloadPath(model, w0, T, ts, ws, tuple(ts[knot > 0].tolist()),
                        slopes=slopes, midpoint_error=worst)


# ---------------------------------------------------------------------------
# Initial conditions
# ---------------------------------------------------------------------------

def _area_above_diagonal(x1: float, x2: float, y1: float, y2: float) -> float:
    """Area of the rectangle [x1,x2]x[y1,y2] lying strictly above p = w."""
    if x2 <= x1 or y2 <= y1:
        return 0.0
    flat_hi = min(x2, y1)
    area = max(0.0, flat_hi - x1) * (y2 - y1)
    u, v = max(x1, y1), min(x2, y2)
    if v > u:
        area += 0.5 * ((y2 - u) ** 2 - (y2 - v) ** 2)
    return area


class InitialFluidMeasure:
    """Base for the admissible time-zero fluid states.

    Admissibility: no mass on lines (boxes have positive area), a finite
    right support edge w_theta, and w_theta within reach of the deadline
    laws (w_theta <= d_max).
    """

    def validate(self, model: FluidModelInput) -> None:
        raise NotImplementedError

    def support_edge(self, model: FluidModelInput) -> float:
        """w_theta: right edge of the workload-coordinate support."""
        raise NotImplementedError

    def eval0(self, model: FluidModelInput, k: int, box: Box) -> float:
        """Class k initial mass on the box."""
        raise NotImplementedError

    def mass_nonabandoning(self, model: FluidModelInput, k: int, t: float) -> float:
        """Class k initial mass on U_t = {w >= t, p >= t, w < p}."""
        raise NotImplementedError

    def mass_abandoning(self, model: FluidModelInput, k: int, t: float) -> float:
        """Class k initial mass on L_t = {w >= t, p >= t, p <= w}."""
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroInitial(InitialFluidMeasure):
    """Empty system at time zero."""

    def validate(self, model: FluidModelInput) -> None:
        pass

    def support_edge(self, model: FluidModelInput) -> float:
        return 0.0

    def eval0(self, model, k, box) -> float:
        return 0.0

    def mass_nonabandoning(self, model, k, t) -> float:
        return 0.0

    def mass_abandoning(self, model, k, t) -> float:
        return 0.0


@dataclass(frozen=True)
class InvariantInitial(InitialFluidMeasure):
    """The invariant state pinned at workload level w in the equilibrium band.

    Class k carries density lambda_k along the antidiagonal through (w, .):
    offset u in [0, w] puts mass lambda_k du at workload coordinate w - u
    with patience coordinate distributed as (D - u) for D ~ deadline law.
    """

    w: float

    def validate(self, model: FluidModelInput) -> None:
        w_l, w_u = model.band
        if not (w_l - 1e-9 <= self.w <= w_u + 1e-9):
            raise FluidModelError(
                f"invariant level w={self.w} outside the equilibrium band "
                f"[{w_l:.12g}, {w_u:.12g}]")

    def support_edge(self, model: FluidModelInput) -> float:
        return self.w

    def eval0(self, model, k, box) -> float:
        cls = model.classes[k]
        b = min(box.b, self.w)
        if b <= box.a:
            return 0.0
        lo_u, hi_u = self.w - b, self.w - box.a
        val = cls.deadline.integrate_survival(box.c + lo_u, box.c + hi_u)
        if math.isfinite(box.d):
            val -= cls.deadline.integrate_survival(box.d + lo_u, box.d + hi_u)
        return cls.arrival_rate * val

    def mass_nonabandoning(self, model, k, t) -> float:
        cls = model.classes[k]
        stretch = max(self.w - t, 0.0)
        return cls.arrival_rate * stretch * cls.deadline.survival(self.w)

    def mass_abandoning(self, model, k, t) -> float:
        cls = model.classes[k]
        if t >= self.w:
            return 0.0
        tail = cls.deadline.integrate_survival(t, self.w)
        return cls.arrival_rate * (tail - (self.w - t) * cls.deadline.survival(self.w))


@dataclass(frozen=True)
class BoxMixtureInitial(InitialFluidMeasure):
    """Piecewise-uniform initial state: (class, box, mass) pieces.

    Each piece spreads its mass uniformly over a finite box of positive
    area, so no line is ever charged.
    """

    pieces: tuple[tuple[int, Box, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))

    def validate(self, model: FluidModelInput) -> None:
        if not self.pieces:
            raise FluidModelError("box mixture needs at least one piece")
        for k, box, mass in self.pieces:
            if not 0 <= k < model.K:
                raise FluidModelError(f"class index {k} out of range")
            if not (math.isfinite(box.b) and math.isfinite(box.d)):
                raise FluidModelError("initial boxes must be bounded")
            if box.area <= 0:
                raise FluidModelError(
                    f"initial box [{box.a},{box.b})x[{box.c},{box.d}) has zero area; "
                    "mass on lines is not an admissible initial state")
            if not mass > 0:
                raise FluidModelError(f"piece masses must be positive, got {mass}")
        edge = self.support_edge(model)
        if edge > model.d_max:
            raise FluidModelError(
                f"support edge {edge} exceeds the largest deadline bound {model.d_max}")

    def support_edge(self, model: FluidModelInput) -> float:
        return max(box.b for _, box, _ in self.pieces)

    def eval0(self, model, k, box) -> float:
        total = 0.0
        for kk, piece, mass in self.pieces:
            if kk != k:
                continue
            overlap = (max(0.0, min(piece.b, box.b) - max(piece.a, box.a))
                       * max(0.0, min(piece.d, box.d) - max(piece.c, box.c)))
            total += mass * overlap / piece.area
        return total

    def _split_mass(self, model, k, t, above: bool) -> float:
        total = 0.0
        for kk, piece, mass in self.pieces:
            if kk != k:
                continue
            x1, x2 = max(piece.a, t), piece.b
            y1, y2 = max(piece.c, t), piece.d
            if x2 <= x1 or y2 <= y1:
                continue
            up = _area_above_diagonal(x1, x2, y1, y2)
            area = up if above else (x2 - x1) * (y2 - y1) - up
            total += mass * area / piece.area
        return total

    def mass_nonabandoning(self, model, k, t) -> float:
        return self._split_mass(model, k, t, above=True)

    def mass_abandoning(self, model, k, t) -> float:
        return self._split_mass(model, k, t, above=False)


# ---------------------------------------------------------------------------
# Fluid solution and functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FluidSolution:
    """Workload path plus the data needed to evaluate the fluid state."""

    model: FluidModelInput
    initial: InitialFluidMeasure
    workload: WorkloadPath

    @property
    def T(self) -> float:
        return self.workload.T

    @property
    def w0(self) -> float:
        return self.workload.w0


def solve_fluid(model: FluidModelInput, initial: InitialFluidMeasure,
                T: float, tol: float = 1e-10) -> FluidSolution:
    """Validate the initial state and solve the workload path it induces."""
    initial.validate(model)
    w0 = initial.support_edge(model)
    path = solve_workload(model, w0, T, tol)
    return FluidSolution(model, initial, path)


def _times(path: WorkloadPath, t) -> np.ndarray:
    """The time argument of a functional, checked, as a flat array; a time
    within the path's slack below 0 reads as 0."""
    t = np.asarray(t, dtype=float)
    path._check_time(t)
    return np.maximum(t.reshape(-1), 0.0)


def _like(t, values: np.ndarray):
    """Functional values shaped like its time argument t: a float for a scalar."""
    return values.reshape(np.shape(t)) if np.ndim(t) else float(values[0])


def _survival_integrals(law: Distribution, a, b) -> np.ndarray:
    """law.integrate_survival elementwise over the broadcast a and b."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return np.array([law.integrate_survival(x, y) for x, y in zip(a.tolist(), b.tolist())])


def _initial_share(solution: FluidSolution, k: int, ts: np.ndarray, mass) -> np.ndarray:
    """The initial state's share of a class k functional at the times ts:
    mass(model, k, x) at each time x < w0, and +0.0 from w0 on. Every
    initial job starts at a workload coordinate of at most w0, which falls
    at unit rate, so by time w0 all of them have left."""
    out = np.zeros(len(ts))
    early = ts < solution.w0
    out[early] = [mass(solution.model, k, x) for x in ts[early].tolist()]
    return out


def eval_fluid(solution: FluidSolution, k: int, t, box: Box):
    """Class k fluid mass on the box at the time(s) t, a scalar or an array.

    Two contributions: initial mass whose diagonal drift lands it in the
    box, and fluid arrivals. An arrival at time s enters at workload
    coordinate w(s), hence lands in [a, b) at time t exactly when
    w(s) + s is in [a + t, b + t); inverting through tau turns the box
    edges into integration limits, and the patience coordinate
    contributes a survival-difference weight with closed-form integral.
    """
    return _like(t, _eval_boxes(solution, (k,), _times(solution.workload, t), (box,))[0, 0])


def _eval_boxes(solution: FluidSolution, classes, ts: np.ndarray, boxes) -> np.ndarray:
    """eval_fluid of each class on each box at the flat, checked times ts,
    indexed [class, box, time], from one tau call for the left and right
    edges of every box. tau and the survival integrals work elementwise, so
    each entry has the floats of eval_fluid on its class and box alone."""
    a, b, c, d = (np.array(col)[:, None] for col in zip(*(
        (box.a, box.b, box.c, box.d) for box in boxes)))
    lo, hi = np.minimum(solution.workload.tau(np.stack([a + ts, b + ts])), ts)
    some = hi > lo
    at, c, d = (np.broadcast_to(x, some.shape)[some] for x in (ts, c, d))
    lo, hi = lo[some], hi[some]
    bounded = np.isfinite(d)
    out = []
    for k in classes:
        law = solution.model.classes[k].deadline
        share = np.array([_initial_share(solution, k, ts, lambda model, k, x, box=box:
                                         solution.initial.eval0(model, k, box.shifted(x)))
                          for box in boxes]).reshape(len(boxes), len(ts))
        val = _survival_integrals(law, c + at - hi, c + at - lo)
        val[bounded] -= _survival_integrals(law, (d + at - hi)[bounded], (d + at - lo)[bounded])
        share[some] += solution.model.classes[k].arrival_rate * val
        out.append(share)
    return np.array(out)


class FluidGrid(NamedTuple):
    """fluid_grid's values: tau shaped like the times; z, n and a indexed
    [class, ...]; the age counts [age, class, ...], NaN at an age u > t."""

    tau: np.ndarray
    queue_length: np.ndarray
    nonabandoning: np.ndarray
    abandoning: np.ndarray
    age_count: np.ndarray


def fluid_grid(solution: FluidSolution, t, ages=()) -> FluidGrid:
    """z, n, a and the age count at each age in ages, of every class at the
    time(s) t, from one pass over the frontier: tau(t) and w(tau(t)) once,
    and per class one waiting integral over [tau(t), t] for both n and a.
    Each value has the bits of its public functional, which calls the same
    helpers; an age count at an age u > t is NaN, where fluid_age_count
    raises."""
    if not all(u >= 0 for u in ages):
        raise FluidModelError(f"ages must be nonnegative, got {ages}")
    ts, s, oldest = _frontier(solution, t)
    rows = []
    for k in range(solution.model.K):
        waiting = solution.workload.waiting_integral(k, s, ts)
        rows.append([_age_count(solution, k, ts, oldest, 0.0),
                     _nonabandoning(solution, k, ts, waiting),
                     _abandoning(solution, k, ts, s, waiting),
                     *(_age_count(solution, k, ts, oldest, u) for u in ages)])
    values = np.reshape(rows, (len(rows), 3 + len(ages), *np.shape(t))).swapaxes(0, 1)
    return FluidGrid(s.reshape(np.shape(t)), *values[:3], values[3:])


def _frontier(solution: FluidSolution, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat, checked times ts of t, the frontier s = tau(ts), and the age
    of the oldest arrival still waiting at each: an arrival waits until its
    work reaches the server, so that is t while tau(t) = 0, and w(tau(t))
    after that."""
    path = solution.workload
    ts = _times(path, t)
    s = path.tau(ts)
    return ts, s, np.where(ts < solution.w0, ts, path.at(s))


def fluid_queue_length(solution: FluidSolution, k: int, t):
    """z_k(t): class k fluid mass in system at the time(s) t, the age count
    at age 0."""
    ts, _, oldest = _frontier(solution, t)
    return _like(t, _age_count(solution, k, ts, oldest, 0.0))


def fluid_nonabandoning(solution: FluidSolution, k: int, t):
    """n_k(t): fluid mass of jobs that will eventually be served."""
    ts, s, _ = _frontier(solution, t)
    return _like(t, _nonabandoning(solution, k, ts, solution.workload.waiting_integral(k, s, ts)))


def fluid_abandoning(solution: FluidSolution, k: int, t):
    """a_k(t): fluid mass of jobs that will renege before reaching service."""
    ts, s, _ = _frontier(solution, t)
    return _like(t, _abandoning(solution, k, ts, s, solution.workload.waiting_integral(k, s, ts)))


def fluid_age_count(solution: FluidSolution, k: int, t, u: float):
    """z_k(t, u): class k fluid mass of jobs in system at the time(s) t
    with age >= u.

    At a time x < w0, the initial jobs counted are those ahead of the
    arrival at time x - u, whose workload coordinate is then w(x - u) - u:
    the box [x, w(x - u) - u + x) x [x, inf) at time 0. The arrivals
    counted are those whose age lies in [u, the oldest's age).
    """
    ts, _, oldest = _frontier(solution, t)
    if not (0 <= u and np.all(u <= ts)):
        raise FluidModelError(f"need 0 <= u <= t, got u={u}, t={t}")
    return _like(t, _age_count(solution, k, ts, oldest, u))


def _nonabandoning(solution: FluidSolution, k: int, ts: np.ndarray, waiting) -> np.ndarray:
    """n_k at the flat times ts, from the waiting integral over [tau(t), t]."""
    return (_initial_share(solution, k, ts, solution.initial.mass_nonabandoning)
            + solution.model.classes[k].arrival_rate * waiting)


def _abandoning(solution: FluidSolution, k: int, ts: np.ndarray, s: np.ndarray,
                waiting) -> np.ndarray:
    """a_k at the flat times ts, from s = tau(ts) and the waiting integral
    over [s, t]."""
    cls = solution.model.classes[k]
    window = _survival_integrals(cls.deadline, 0.0, ts - s)
    return (_initial_share(solution, k, ts, solution.initial.mass_abandoning)
            + cls.arrival_rate * (window - waiting))


def _age_count(solution: FluidSolution, k: int, ts: np.ndarray, oldest: np.ndarray,
               u: float) -> np.ndarray:
    """z_k(t, u) at the flat times ts, from the oldest waiting arrival's age
    at each; NaN where u > t."""
    path, cls = solution.workload, solution.model.classes[k]

    def initial(model, k, x):
        edge = max(path(x - u) - u, 0.0)
        return solution.initial.eval0(model, k, Box(x, edge + x, x, math.inf))

    later = u <= ts
    out = np.full(len(ts), math.nan)
    out[later] = _initial_share(solution, k, ts[later], initial)
    some = later & (u < oldest)
    out[some] += cls.arrival_rate * _survival_integrals(cls.deadline, u, oldest[some])
    return out


@dataclass(frozen=True)
class InvariantState:
    """The stationary fluid state at workload level w, with box evaluator."""

    model: FluidModelInput
    w: float

    def measure(self, k: int, box: Box) -> float:
        """Class k invariant mass on the box (zero at and beyond level w)."""
        return InvariantInitial(self.w).eval0(self.model, k, box)

    def queue_length(self, k: int) -> float:
        """z^w_k = lambda_k * integral of G_k over [0, w]."""
        cls = self.model.classes[k]
        return cls.arrival_rate * cls.deadline.integrate_survival(0.0, self.w)

    def nonabandoning(self, k: int) -> float:
        """n^w_k = lambda_k * w * G_k(w)."""
        cls = self.model.classes[k]
        return cls.arrival_rate * self.w * cls.deadline.survival(self.w)

    def abandoning(self, k: int) -> float:
        return self.queue_length(k) - self.nonabandoning(k)

    def as_initial(self) -> InvariantInitial:
        return InvariantInitial(self.w)


def invariant_state(model: FluidModelInput, w: float) -> InvariantState:
    """The invariant state at level w; w must lie in the equilibrium band."""
    InvariantInitial(w).validate(model)
    return InvariantState(model, w)


def residual_deadline_limit(model: FluidModelInput, k: int, t: float, c: float) -> float:
    """Limiting residual-deadline tail mass: lambda_k * integral_c^{c+t} G_k."""
    if c < 0:
        raise FluidModelError(f"c must be nonnegative, got {c}")
    if t < 0:
        raise FluidModelError(f"t must be nonnegative, got {t}")
    cls = model.classes[k]
    return cls.arrival_rate * cls.deadline.integrate_survival(c, c + t)
