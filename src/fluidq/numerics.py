"""Numerical kernels shared by the fluid solver.

Kept deliberately small: a classical fixed-step RK4 with step-halving
validation, an adaptive Gauss-Legendre panel integrator for continuous
integrands, and a bisection for nondecreasing functions. The right-hand
sides here are bounded, Lipschitz and smooth between the deadline knots,
and the fluid solver calls the RK4 once per smooth piece, so an embedded
adaptive pair would buy nothing.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


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


def _gl_panel(f, a: float, b: float) -> float:
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.dot(_GL_WEIGHTS, f(mid + half * _GL_NODES)))


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
        left = _gl_panel(f, lo, mid)
        right = _gl_panel(f, mid, hi)
        if abs(left + right - whole) <= budget or depth >= max_depth:
            return left + right
        return (recurse(lo, mid, left, 0.5 * budget, depth + 1)
                + recurse(mid, hi, right, 0.5 * budget, depth + 1))

    return recurse(a, b, _gl_panel(f, a, b), tol, 0)


def bisect_leftmost(f: Callable[[float], float], lo: float, hi: float,
                    target: float, tol: float = 1e-10, max_iter: int = 200) -> float:
    """Leftmost point where the nondecreasing f reaches target.

    Assumes f(hi) >= target; returns hi if the assumption fails by rounding.
    The bracket [lo, hi] is halved keeping f(hi) >= target > f(lo-side),
    so the result is within tol of inf{s : f(s) >= target}.
    """
    if f(lo) >= target:
        return lo
    a, b = lo, hi
    it = 0
    while b - a > tol and it < max_iter:
        m = 0.5 * (a + b)
        if f(m) >= target:
            b = m
        else:
            a = m
        it += 1
    return b


def sig17(x: float) -> str:
    """Canonical decimal rendering with 17 significant digits (round-trips)."""
    if x != x:
        return "nan"
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return format(float(x), ".17g")
