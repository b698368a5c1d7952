from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidq import numerics
from fluidq.numerics import (_float_key, _key_float, bisect_leftmost,
                             cumulative_integral, integrate, rk4_path,
                             rk4_validated, sig17)


def test_rk4_matches_exponential_growth():
    ts, ys = rk4_validated(lambda y: y, 1.0, 2.0, tol=1e-12)
    np.testing.assert_allclose(ys, np.exp(ts), atol=1e-10)


def test_rk4_fixed_point_is_preserved():
    _, ys = rk4_validated(lambda y: y * (1.0 - y), 1.0, 10.0, tol=1e-12)
    np.testing.assert_allclose(ys, 1.0, atol=1e-14)


def test_rk4_path_grid_shape():
    ts, ys = rk4_path(lambda y: -y, 1.0, 1.0, 8)
    assert len(ts) == len(ys) == 9
    assert ts[0] == 0.0 and ts[-1] == 1.0
    ts0, ys0 = rk4_validated(lambda y: y, 3.0, 0.0, tol=1e-12)
    assert list(ts0) == [0.0] and list(ys0) == [3.0]


def test_integrate_closed_forms():
    assert integrate(lambda x: np.exp(-x), 0.0, 5.0) == pytest.approx(
        1 - math.exp(-5), abs=1e-12)
    assert integrate(lambda x: x**2, 0.0, 3.0) == pytest.approx(9.0, abs=1e-12)
    assert integrate(lambda x: np.sin(x), 0.0, math.pi) == pytest.approx(
        2.0, abs=1e-10)
    assert integrate(lambda x: x, 2.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        integrate(lambda x: x, 2.0, 1.0)


def test_integrate_handles_kinks():
    # continuous but not smooth at 1: adaptive bisection has to localize it
    f = lambda x: np.maximum(1.0 - x, 0.0)
    assert integrate(f, 0.0, 2.0) == pytest.approx(0.5, abs=1e-10)


def test_cumulative_integral_splits_only_failing_panels():
    """|x - 0.3| has a kink inside the first of two panels: that panel is
    halved until its halves agree, the smooth one is taken whole, and the
    antiderivative at every accepted start is the closed form."""
    def f(x):
        return np.abs(x - 0.3)

    def exact(x):
        return np.where(x < 0.3, 0.3 * x - 0.5 * x * x,
                        0.045 + 0.5 * (x - 0.3) ** 2)

    starts, cum = cumulative_integral(f, np.array([0.0, 0.5, 1.0]), tol=1e-10)
    assert starts[0] == 0.0 and starts[-1] == 1.0
    assert np.all(np.diff(starts) > 0)
    assert 0.5 in starts.tolist() and len(starts) > 3
    assert np.max(np.abs(cum - exact(starts))) <= 1e-10
    # a smooth integrand is taken one panel at a time
    starts, cum = cumulative_integral(np.exp, np.linspace(0.0, 2.0, 9), tol=1e-10)
    assert starts.tolist() == np.linspace(0.0, 2.0, 9).tolist()
    np.testing.assert_allclose(cum, np.expm1(starts), rtol=0, atol=1e-14)


def counted(holds):
    """holds, counting its calls in .passes."""
    def wrapper(s):
        wrapper.passes += 1
        return holds(s)
    wrapper.passes = 0
    return wrapper


def test_bisect_leftmost_simple_root():
    # the leftmost float whose square rounds to at least 2 is sqrt(2) itself
    assert bisect_leftmost(lambda s: s * s >= 2.0, 0.0, 2.0) == math.sqrt(2)


def test_bisect_leftmost_finds_left_edge_of_plateau():
    # f reaches 1 at s = 1 and stays there until 2
    def holds(s):
        return np.minimum(s, 1.0) + np.maximum(s - 2.0, 0.0) >= 1.0
    assert bisect_leftmost(holds, 0.0, 4.0) == 1.0


def test_bisect_leftmost_immediate_hit():
    # holding everywhere in (lo, hi], the answer is the float after lo
    assert bisect_leftmost(lambda s: s >= 0.25, 0.5, 2.0) == 0.5000000000000001
    # a one-float bracket is its own answer, with no pass at all
    holds = counted(lambda s: s >= 0.25)
    assert bisect_leftmost(holds, 0.5, 0.5000000000000001) == 0.5000000000000001
    assert holds.passes == 0


@given(st.lists(st.floats(allow_nan=False).filter(lambda t: t > -math.inf),
                min_size=1, max_size=8)
       | st.sampled_from([[0.0], [-0.0], [5e-324], [-5e-324], [2.2250738585072014e-308],
                          [-1.7976931348623157e308], [1.7976931348623157e308]]))
@settings(max_examples=200, deadline=None)
def test_bisect_leftmost_returns_the_leftmost_float_at_any_scale(thresholds):
    """Over the whole line (-inf, inf], every lane lands exactly on the
    leftmost float >= its threshold, in at most 64 lockstep passes."""
    t = np.array(thresholds)
    holds = counted(lambda s: s >= t)
    got = bisect_leftmost(holds, np.full(len(t), -math.inf), math.inf)
    assert np.array_equal(got, t)
    assert holds.passes <= 64


@given(st.lists(st.floats(allow_nan=False), min_size=2))
@settings(max_examples=200, deadline=None)
def test_float_keys_round_trip_and_keep_order(values):
    x = np.array(values)
    key = _float_key(x)
    assert np.array_equal(_key_float(key), x)
    assert np.array_equal(key[:, None] < key[None, :], x[:, None] < x[None, :])


@given(st.floats(-1e300, 1e300, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_sig17_round_trips(x):
    assert float(sig17(x)) == x


def test_sig17_special_values():
    assert sig17(math.inf) == "inf"
    assert sig17(-math.inf) == "-inf"
    assert sig17(float("nan")) == "nan"
    assert float(sig17(0.1)) == 0.1
    assert float(sig17(math.log(2))) == math.log(2)


def test_gauss_legendre_nodes_are_leggauss_bits():
    """The written-out nodes and weights are the floats of
    np.polynomial.legendre.leggauss(15)."""
    for got, want in zip((numerics._GL_NODES, numerics._GL_WEIGHTS),
                         np.polynomial.legendre.leggauss(15)):
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
