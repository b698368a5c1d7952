"""Numerical kernels shared by the fluid solver.

Kept deliberately small: 15-point Gauss-Legendre panels, vectorized, which
time the level nodes of the workload path; a cumulative antiderivative on
given panels, checked once per panel against its halves; and one bisection
over the floats for the leftmost float at which a monotone predicate holds.
The fixed-step RK4 pair and the adaptive integrator have no caller in the
package and stay only while the benchmark's tracer wraps them by name.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

# Panels per call of the integrand in cumulative_integral: each temporary
# of the call then holds GL_BLOCK * 15 floats, 15 KiB. On a 2-core Xeon,
# both class antiderivatives of a 513-node two-kink path take 2.0 ms at
# 128, 2.9 ms at 64 and 1.3 ms in one unblocked call.
GL_BLOCK = 128
# Halvings of a node panel before cumulative_integral, or the workload
# solve's midpoint check, accepts it as it is.
CUMULATIVE_MAX_DEPTH = 12
# A time query may lie fewer than this many ulps of the horizon outside
# [0, horizon]. Every in-range query of the test suite lies in [0, horizon]
# exactly; the margin covers sums such as a grid's i * step, which lands one
# ulp past a horizon of 0.3 at 3 * 0.1.
TIME_SLACK_ULPS = 4


def outside_horizon(t, horizon: float) -> bool:
    """Whether any time in t is at least TIME_SLACK_ULPS ulps of the horizon
    below 0 or above the horizon. The slack scales with the time unit."""
    slack = TIME_SLACK_ULPS * np.spacing(abs(float(horizon)))
    return bool(np.any(t <= -slack) or np.any(t >= horizon + slack))


# The 15-point Gauss-Legendre nodes and weights of [-1, 1], the floats of
# np.polynomial.legendre.leggauss(15) written out (tests/test_numerics.py
# checks the bits): importing numpy.polynomial to compute them took 3-5 ms in
# every process, simulations included, which never integrate.
_GL_NODES = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701,
    -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0,
    0.20119409399743451, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854])
_GL_WEIGHTS = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444,
    0.16626920581699398, 0.1861610000155622, 0.1984314853271116, 0.2025782419255613,
    0.1984314853271116, 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203])


# No caller in fluidq since the workload path became the time-to-level
# integral. bench/tracer.py looks it up by name when it installs, so it stays
# until the benchmark drops it; so do rk4_validated and integrate.
def rk4_path(f: Callable[[float], float] | Callable[[np.ndarray], np.ndarray],
             y0: float, T: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 for the autonomous scalar ODE y' = f(y) on [0, T]."""
    ts = np.linspace(0.0, T, steps + 1)
    ys = np.empty(steps + 1)
    ys[0] = y0
    h = T / steps if steps else 0.0
    y = y0
    for i in range(steps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys[i + 1] = y
    return ts, ys


# Kept for bench/tracer.py, which wraps it by name; see rk4_path.
def rk4_validated(f, y0: float, T: float, tol: float,
                  initial_steps: int = 64, max_steps: int = 1 << 22
                  ) -> tuple[np.ndarray, np.ndarray]:
    """RK4 with the step validated against its own halving.

    The step is halved until the solution at the coarse grid points moves by
    less than tol between consecutive refinements; the finer grid is
    returned. For a fourth-order method the self-difference overestimates
    the remaining error by roughly a factor 15/16, so this is conservative.
    That order needs f smooth along the path: across a kink of f the
    halving climbs towards max_steps, so callers split the horizon there.
    """
    if T == 0:
        return np.array([0.0]), np.array([float(y0)])
    steps = initial_steps
    ts, ys = rk4_path(f, y0, T, steps)
    while steps <= max_steps:
        ts2, ys2 = rk4_path(f, y0, T, 2 * steps)
        err = float(np.max(np.abs(ys2[::2] - ys)))
        ts, ys, steps = ts2, ys2, 2 * steps
        if err <= tol:
            return ts, ys
    raise RuntimeError(f"step halving did not reach tol={tol} within {max_steps} steps")


def gl_panels(f, a, b) -> np.ndarray:
    """15-point Gauss-Legendre estimates of the integral of a vectorized f
    over each [a_i, b_i], in one call of f on all the nodes.

    Each estimate depends on its own panel only, whatever the array length.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    values = f(mid[..., None] + half[..., None] * _GL_NODES)
    return half * (values * _GL_WEIGHTS).sum(axis=-1)


# Only a test oracle in fluidq; kept for bench/tracer.py, which wraps it by name.
def integrate(f, a: float, b: float, tol: float = 1e-10, max_depth: int = 48) -> float:
    """Adaptive 15-point Gauss-Legendre integration of a vectorized f.

    Panels are bisected until the whole-panel estimate agrees with the sum
    of its halves within the (proportionally allocated) absolute tolerance.
    Integrands here are continuous, so convergence is fast; the depth cap
    only guards against misuse.
    """
    if a == b:
        return 0.0
    if b < a:
        raise ValueError(f"need a <= b, got a={a}, b={b}")

    def recurse(lo: float, hi: float, whole: float, budget: float, depth: int) -> float:
        mid = 0.5 * (lo + hi)
        left = float(gl_panels(f, lo, mid))
        right = float(gl_panels(f, mid, hi))
        if abs(left + right - whole) <= budget or depth >= max_depth:
            return left + right
        return (recurse(lo, mid, left, 0.5 * budget, depth + 1)
                + recurse(mid, hi, right, 0.5 * budget, depth + 1))

    return recurse(a, b, float(gl_panels(f, a, b)), tol, 0)


def _gl_blocks(f, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """gl_panels on 1-D a and b, GL_BLOCK panels per call of f."""
    return np.concatenate([gl_panels(f, a[i:i + GL_BLOCK], b[i:i + GL_BLOCK])
                           for i in range(0, len(a), GL_BLOCK)] or [np.empty(0)])


def cumulative_integral(f, edges: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Antiderivative of a vectorized f, smooth on each panel between edges.

    Returns (starts, cum): the left ends of the accepted panels followed by
    edges[-1], and the integral of f from edges[0] to each. Every panel is
    checked once against the sum of its halves, as in integrate, and halved
    where they differ by more than tol times its length, at most
    CUMULATIVE_MAX_DEPTH times; an accepted panel counts as the sum of its
    halves. Between starts[j] and x < starts[j + 1], one more gl_panels
    call completes the integral up to x.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    whole = _gl_blocks(f, a, b)
    starts, values = [], []
    for depth in range(CUMULATIVE_MAX_DEPTH + 1):
        mid = 0.5 * (a + b)
        halves = np.concatenate([_gl_blocks(f, a, mid), _gl_blocks(f, mid, b)])
        split = halves[:len(a)] + halves[len(a):]
        ok = np.abs(split - whole) <= tol * (b - a)
        if depth == CUMULATIVE_MAX_DEPTH:
            ok[:] = True
        starts.append(a[ok])
        values.append(split[ok])
        bad = ~ok
        a, b = np.concatenate([a[bad], mid[bad]]), np.concatenate([mid[bad], b[bad]])
        whole = halves[np.concatenate([bad, bad])]
        if not len(a):
            break
    starts, values = np.concatenate(starts), np.concatenate(values)
    if depth:   # halves of split panels come after all the others
        order = np.argsort(starts, kind="stable")
        starts, values = starts[order], values[order]
    return np.append(starts, edges[-1]), np.concatenate([[0.0], np.cumsum(values)])


_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)


def _float_key(c) -> np.ndarray:
    """Order-preserving int64 image of a float array (both zeros map to 0)."""
    bits = np.asarray(c, dtype=float).view(np.int64)
    return np.where(bits < 0, -(bits & _MAGNITUDE), bits)


def _key_float(key: np.ndarray) -> np.ndarray:
    return np.where(key < 0, (-key) | ~_MAGNITUDE, key).view(np.float64)


def bisect_leftmost(holds: Callable[[np.ndarray], np.ndarray], lo, hi) -> np.ndarray:
    """Smallest float s in (lo, hi] with holds(s), elementwise.

    holds is a vectorized predicate, false at lo and monotone up to
    rounding; lo and hi broadcast against each other and against holds'
    result. The bracket is halved over the order-preserving int64 keys of
    the floats, in lockstep over all lanes, so a call makes at most 64
    passes of holds and none when every lane's bracket is one float wide.
    A lane where holds never comes true returns its hi.
    """
    lo, hi = _float_key(lo), _float_key(hi)
    gap = (hi - lo).view(np.uint64)     # exact where hi - lo overflows int64
    # A pass leaves each gap at most its half rounded up, so this many
    # passes bring every bracket down to adjacent floats.
    for _ in range((int(gap.max()) - 1).bit_length()):
        mid = lo + (gap >> 1).view(np.int64)
        ok = holds(_key_float(mid))
        lo, hi = np.where(ok, lo, mid), np.where(ok, mid, hi)
        gap = (hi - lo).view(np.uint64)
    return _key_float(hi)


def sig17(x: float) -> str:
    """Canonical decimal rendering with 17 significant digits (round-trips)."""
    if x != x:
        return "nan"
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return format(float(x), ".17g")
