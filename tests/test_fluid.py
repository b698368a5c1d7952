from __future__ import annotations

import functools
import logging
import math
import signal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline

from fluidq.distributions import (Deterministic, DistributionError,
                                  Exponential, UniformInterval,
                                  UniformMixture)
from fluidq.fluid import (BoxMixtureInitial, FluidClass, FluidModelError,
                          FluidModelInput, FluidSolution, InvariantInitial,
                          WorkloadPath, ZeroInitial, equilibrium_band, eval_fluid,
                          fluid_abandoning, fluid_age_count, fluid_grid,
                          fluid_nonabandoning, fluid_queue_length,
                          _hermite_coefficients, invariant_state,
                          residual_deadline_limit, solve_fluid, solve_workload)
from fluidq.measures import Box, upper_right
from fluidq.numerics import TIME_SLACK_ULPS

LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def markovian():
    """Single class, arrival rate 2, service rate 1, exponential deadlines.

    The workload path has the closed form w(t) = ln(2 - (2 - e^{w0}) e^{-t})
    and the equilibrium band degenerates to {ln 2}.
    """
    return FluidModelInput((FluidClass(2.0, 1.0, Exponential(1.0)),))


@pytest.fixture(scope="module")
def uniform_model():
    return FluidModelInput((FluidClass(2.0, 1.0, UniformInterval(0.0, 2.0)),))


@pytest.fixture(scope="module")
def gapped_model():
    law = UniformMixture(((0.5, 0.0, 1.0), (0.5, 2.0, 3.0)))
    return FluidModelInput((FluidClass(2.0, 1.0, law),))


@pytest.fixture(scope="module")
def kink_model():
    """Two classes whose path from empty crosses the knots at 0.5 and 1
    on its way up to the degenerate band {1.5}."""
    return FluidModelInput((
        FluidClass(1.5, 1.0, UniformMixture(((0.5, 0.0, 1.0), (0.5, 2.0, 3.0)))),
        FluidClass(1.0, 2.0, UniformInterval(0.5, 2.5)),
    ))


def kink_load(u):
    """sum_k rho_k G_k(u) of kink_model, written out by hand."""
    g0 = 0.5 * min(max(1.0 - u, 0.0), 1.0) + 0.5 * min(max(3.0 - u, 0.0), 1.0)
    g1 = min(max((2.5 - u) / 2.0, 0.0), 1.0)
    return 1.5 * g0 + 0.5 * g1


def kink_oracle_times(levels, knots=(0.5, 1.0)):
    """t(w) = integral_0^w du / (load(u) - 1) at nondecreasing levels,
    by quadrature on each smooth piece between knots and levels."""
    out, t, at = [], 0.0, 0.0
    for w in levels:
        for edge in [k for k in knots if at < k < w] + [w]:
            if edge > at:
                t += quad(lambda u: 1.0 / (kink_load(u) - 1.0), at, edge,
                          epsabs=1e-15, epsrel=1e-13, limit=200)[0]
                at = edge
        out.append(t)
    return out


@pytest.fixture(scope="module")
def empty_solution(markovian):
    return solve_fluid(markovian, ZeroInitial(), T=6.0)


@pytest.fixture(scope="module")
def equilibrium_solution(markovian):
    return solve_fluid(markovian, InvariantInitial(LN2), T=6.0)


def closed_form(t, w0):
    return math.log(2.0 - (2.0 - math.exp(w0)) * math.exp(-t))


def test_model_validation(markovian):
    with pytest.raises(FluidModelError):
        FluidClass(-1.0, 1.0, Exponential(1.0))
    with pytest.raises(FluidModelError):
        FluidClass(1.0, 0.0, Exponential(1.0))
    with pytest.raises(DistributionError):
        FluidClass(1.0, 1.0, Deterministic(1.0))
    with pytest.raises(FluidModelError):
        FluidModelInput(())
    with pytest.raises(FluidModelError):
        FluidModelInput((FluidClass(0.5, 1.0, Exponential(1.0)),))
    assert markovian.rho == 2.0
    assert markovian.d_max == math.inf


def test_workload_matches_closed_form(markovian):
    path = solve_workload(markovian, 0.0, 6.0)
    for t in (0.0, 0.25, 1.0, 3.0, 6.0):
        assert path(t) == pytest.approx(closed_form(t, 0.0), abs=1e-9)
    assert path(1.0) == pytest.approx(0.48988012564474997671, abs=1e-9)
    assert path(6.0) == pytest.approx(0.69190703580989502459, abs=1e-9)
    from_above = solve_workload(markovian, 2.0, 6.0)
    assert from_above(1.0) == pytest.approx(1.3819155245221057362, abs=1e-9)


@pytest.mark.parametrize("w0", [0.0, 0.3, 2.0])
def test_workload_between_nodes_matches_closed_form(markovian, w0):
    """The dense output keeps the nodes' accuracy: most of these points fall
    between path nodes."""
    ts = np.linspace(0.0, 10.0, 100_001)
    path = solve_workload(markovian, w0, 10.0)
    exact = np.log(2.0 - (2.0 - math.exp(w0)) * np.exp(-ts))
    assert np.max(np.abs(path.at(ts) - exact)) <= 1e-10


def test_kink_path_matches_quadrature_oracle(kink_model):
    path = solve_workload(kink_model, 0.0, 3.0)
    assert len(path.grid_t) - 1 <= 1024
    assert len(path.knot_times) == 2
    for t, knot in zip(path.knot_times, (0.5, 1.0)):
        assert path(t) == knot and t in path.grid_t
    ts = np.linspace(0.0, 3.0, 2001)
    ws = path.at(ts)
    assert np.all(np.diff(ws) > 0)
    # A time error dt at level w is a level error of (load(w) - 1) * dt.
    err = max(abs(t_w - t) * (kink_load(w) - 1.0)
              for t, w, t_w in zip(ts, ws, kink_oracle_times(ws)))
    assert err <= 1e-10


def test_knot_next_to_the_start_gets_no_piece_of_its_own():
    """A piece 1e-237 long would overflow the Hermite coefficients and read
    back NaN at the knot."""
    tiny = 1.1375865249490555e-237
    law = UniformMixture(((1.0, tiny, 1.0 + tiny),))
    path = solve_workload(FluidModelInput((FluidClass(2.0, 1.0, law),)), 0.0, 1.0)
    assert path.knot_times == ()
    ts = np.linspace(0.0, 100 * tiny, 101)
    np.testing.assert_allclose(path.at(ts), ts, rtol=0, atol=1e-12)


def test_workload_vectorized_evaluation(markovian):
    path = solve_workload(markovian, 0.0, 6.0)
    ts = np.linspace(0.0, 6.0, 17)
    np.testing.assert_allclose(path.at(ts), [path(t) for t in ts], atol=1e-14)
    with pytest.raises(FluidModelError):
        path(6.5)
    with pytest.raises(FluidModelError):
        path.at(np.array([-1.0]))


def test_workload_zero_horizon(markovian):
    path = solve_workload(markovian, 0.3, 0.0)
    assert path(0.0) == 0.3
    assert path.T == 0.0


def test_workload_rejects_bad_inputs(uniform_model):
    with pytest.raises(FluidModelError):
        solve_workload(uniform_model, -0.1, 1.0)
    with pytest.raises(FluidModelError):
        solve_workload(uniform_model, 2.5, 1.0)  # above the deadline support
    with pytest.raises(FluidModelError):
        solve_workload(uniform_model, 0.0, -1.0)


def test_equilibrium_band_examples(markovian, uniform_model, gapped_model):
    w_l, w_u = equilibrium_band(markovian)
    assert w_l == pytest.approx(LN2, abs=1e-9)
    assert w_u == pytest.approx(LN2, abs=1e-9)
    assert equilibrium_band(uniform_model) == pytest.approx((1.0, 1.0), abs=1e-9)
    assert equilibrium_band(gapped_model) == pytest.approx((1.0, 2.0), abs=1e-9)


def test_equilibrium_band_returns_where_float_spacing_exceeds_tol(markovian):
    """An Exponential(1e-5) deadline puts the band near 6.9e4, where adjacent
    floats are 1.5e-11 apart; both bands are exact to the float."""
    far = FluidModelInput((FluidClass(2.0, 1.0, Exponential(1e-5)),))

    def stop(signum, frame):
        raise TimeoutError("equilibrium_band did not return")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(10)
    try:
        assert equilibrium_band(far) == (69314.71805599453,) * 2
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert equilibrium_band(markovian) == (0.6931471805599453,) * 2
    assert 0.6931471805599453 == float(np.log(2))


@given(c=st.sampled_from([1e-6, 1.0, 1e6]), rho=st.floats(1.2, 4.0),
       classes=st.lists(st.tuples(st.floats(0.1, 1.0), st.booleans(),
                                  st.floats(0.1, 10.0), st.floats(0.0, 0.9)),
                        min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_equilibrium_band_scales_with_the_time_unit(c, rho, classes):
    """Scaling every deadline by c (Exponential rate / c, Uniform bounds
    * c) scales the band by c, to 16 ulps, and the band returns promptly
    at every scale."""
    total = math.fsum(share for share, *_ in classes)

    def model(scale):
        return FluidModelInput(tuple(
            FluidClass(rho * share / total, 1.0,
                       Exponential(size / scale) if exponential
                       else UniformInterval(lo * size * scale, size * scale))
            for share, exponential, size, lo in classes))

    def stop(signum, frame):
        raise TimeoutError("equilibrium_band did not return")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(5)
    try:
        base, scaled = equilibrium_band(model(1.0)), equilibrium_band(model(c))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    for edge, edge_c in zip(base, scaled):
        assert abs(edge_c - c * edge) <= 16 * np.spacing(edge_c)


def test_band_levels_are_fixed_points(markovian, uniform_model, gapped_model):
    for model in (markovian, uniform_model, gapped_model):
        w_l, w_u = equilibrium_band(model)
        for w0 in {w_l, w_u, 0.5 * (w_l + w_u)}:
            path = solve_workload(model, w0, 20.0)
            drift = np.abs(path.at(np.linspace(0.0, 20.0, 81)) - w0)
            assert drift.max() <= 1e-9


@pytest.mark.parametrize("w0_low,w0_high", [(0.0, 0.5), (0.3, 2.0), (LN2, 1.0)])
def test_workload_order_preserved(markovian, w0_low, w0_high):
    low = solve_workload(markovian, w0_low, 6.0)
    high = solve_workload(markovian, w0_high, 6.0)
    ts = np.linspace(0.0, 6.0, 61)
    assert np.all(low.at(ts) <= high.at(ts) + 1e-9)


def test_frontier_map_strictly_increases(empty_solution):
    path = empty_solution.workload
    ts = np.linspace(0.0, 6.0, 241)
    values = np.array([path.phi(t) for t in ts])
    assert np.all(np.diff(values) > 0)


def test_tau_oracles(empty_solution, equilibrium_solution):
    assert empty_solution.workload.tau(1.0) == pytest.approx(
        0.62011450695827752463, abs=1e-8)
    path = empty_solution.workload
    assert path.tau(1.1) == pytest.approx(0.69418814455548550116, abs=1e-8)
    assert path.tau(1.4) == pytest.approx(0.92727022935850561719, abs=1e-8)
    # at the fixed point w(s) = ln 2, so w(s) + s = t solves to s = t - ln 2
    assert equilibrium_solution.workload.tau(2.0) == pytest.approx(
        2.0 - LN2, abs=1e-8)
    # before the support edge the frontier already covers t
    assert equilibrium_solution.workload.tau(0.5) == 0.0
    assert path.tau(0.0) == 0.0


def test_tau_consistency_identity(empty_solution):
    path = empty_solution.workload
    for t in (0.5, 1.0, 2.0, 4.5, 6.0):
        s = path.tau(t)
        assert path.phi(s) == pytest.approx(t, abs=1e-7)


def test_workload_at_tau_oracle(empty_solution):
    path = empty_solution.workload
    assert path(path.tau(1.0)) == pytest.approx(
        0.37988549304172247537, abs=1e-8)


def test_performance_functionals_at_t1(empty_solution):
    z = fluid_queue_length(empty_solution, 0, 1.0)
    n = fluid_nonabandoning(empty_solution, 0, 1.0)
    a = fluid_abandoning(empty_solution, 0, 1.0)
    assert z == pytest.approx(0.6321205588285576784, abs=1e-8)
    assert n == pytest.approx(0.48988012564474997671, abs=1e-8)
    assert a == pytest.approx(0.14224043318380770169, abs=1e-8)
    assert z == pytest.approx(n + a, abs=1e-9)


def test_eval_fluid_box_oracle(empty_solution):
    box = Box(0.1, 0.4, 0.2, 0.9)
    assert eval_fluid(empty_solution, 0, 1.0, box) == pytest.approx(
        0.15936364452879842858, abs=1e-8)


def test_eval_fluid_full_quadrant_is_queue_length(empty_solution):
    for t in (0.0, 0.5, 1.0, 3.0, 6.0):
        whole = eval_fluid(empty_solution, 0, t, upper_right(0.0, 0.0))
        assert whole == pytest.approx(
            fluid_queue_length(empty_solution, 0, t), abs=1e-9)


def test_eval_fluid_partition_additivity(empty_solution):
    whole = Box(0.0, 1.2, 0.0, 2.4)
    parts = [Box(x, x + 0.4, y, y + 0.8)
             for x in np.arange(0.0, 1.2, 0.4) for y in np.arange(0.0, 2.4, 0.8)]
    total = sum(eval_fluid(empty_solution, 0, 1.0, b) for b in parts)
    assert total == pytest.approx(
        eval_fluid(empty_solution, 0, 1.0, whole), abs=1e-9)


def test_zero_initial_starts_empty(empty_solution):
    assert empty_solution.w0 == 0.0
    assert fluid_queue_length(empty_solution, 0, 0.0) == 0.0
    assert fluid_nonabandoning(empty_solution, 0, 0.0) == 0.0
    assert fluid_abandoning(empty_solution, 0, 0.0) == 0.0


def test_equilibrium_functionals_are_constant(equilibrium_solution):
    for t in (0.0, 0.7, 2.0, 6.0):
        assert fluid_queue_length(equilibrium_solution, 0, t) == pytest.approx(
            1.0, abs=1e-8)
        assert fluid_nonabandoning(equilibrium_solution, 0, t) == pytest.approx(
            LN2, abs=1e-8)
        assert fluid_abandoning(equilibrium_solution, 0, t) == pytest.approx(
            1.0 - LN2, abs=1e-8)


def test_age_count_identities(empty_solution, equilibrium_solution):
    # zero age threshold recovers the full queue length
    assert fluid_age_count(empty_solution, 0, 1.0, 0.0) == pytest.approx(
        fluid_queue_length(empty_solution, 0, 1.0), abs=1e-9)
    # equilibrium oracle: 2 * (e^{-ln2/2} - e^{-ln2}) = sqrt(2) - 1
    assert fluid_age_count(equilibrium_solution, 0, 1.0, LN2 / 2) == pytest.approx(
        0.4142135623730950488, abs=1e-8)
    # ages at or beyond the workload level have no mass
    assert fluid_age_count(equilibrium_solution, 0, 1.0, 0.8) == pytest.approx(
        0.0, abs=1e-9)
    assert fluid_age_count(equilibrium_solution, 0, 1.0, LN2) == pytest.approx(
        0.0, abs=1e-9)
    with pytest.raises(FluidModelError):
        fluid_age_count(empty_solution, 0, 1.0, 1.5)
    with pytest.raises(FluidModelError):
        fluid_age_count(empty_solution, 0, 1.0, -0.1)


def test_age_count_monotone_in_age(empty_solution):
    ages = np.linspace(0.0, 1.0, 11)
    values = [fluid_age_count(empty_solution, 0, 1.0, u) for u in ages]
    assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))


def test_invariant_state_oracles(markovian):
    state = invariant_state(markovian, LN2)
    assert state.queue_length(0) == pytest.approx(1.0, abs=1e-12)
    assert state.nonabandoning(0) == pytest.approx(LN2, abs=1e-12)
    assert state.abandoning(0) == pytest.approx(1.0 - LN2, abs=1e-12)
    assert state.measure(0, Box(0.2, 0.5, 0.1, 0.8)) == pytest.approx(
        0.19464719497793125957, abs=1e-12)
    assert state.measure(0, Box(0.0, 0.3, 0.4, 2.0)) == pytest.approx(
        0.18716913118419831409, abs=1e-12)
    # no mass at or beyond the workload level
    assert state.measure(0, upper_right(LN2, 0.0)) == 0.0
    assert state.measure(0, upper_right(0.0, 0.0)) == pytest.approx(
        state.queue_length(0), abs=1e-12)
    assert state.as_initial() == InvariantInitial(LN2)


def test_invariant_state_rejects_levels_outside_band(markovian, gapped_model):
    with pytest.raises(FluidModelError):
        invariant_state(markovian, 0.5)
    with pytest.raises(FluidModelError):
        invariant_state(markovian, 1.0)
    # the gapped band is the whole interval [1, 2]
    invariant_state(gapped_model, 1.0)
    invariant_state(gapped_model, 1.5)
    invariant_state(gapped_model, 2.0)
    with pytest.raises(FluidModelError):
        invariant_state(gapped_model, 2.3)


def test_invariant_initial_is_a_fixed_point_of_the_full_state(gapped_model):
    # pick the interior of the gapped band: the state should not move at all
    solution = solve_fluid(gapped_model, InvariantInitial(1.5), T=8.0)
    state = invariant_state(gapped_model, 1.5)
    boxes = [Box(0.0, 0.8, 0.0, 1.0), Box(0.4, 1.5, 0.5, 2.5),
             upper_right(0.0, 0.0)]
    for t in (0.0, 1.0, 4.0, 8.0):
        for box in boxes:
            assert eval_fluid(solution, 0, t, box) == pytest.approx(
                state.measure(0, box), abs=1e-8)


def test_residual_deadline_limit_oracles(markovian):
    assert residual_deadline_limit(markovian, 0, 1.0, 0.0) == pytest.approx(
        1.2642411176571153568, abs=1e-12)
    assert residual_deadline_limit(markovian, 0, 1.0, 0.5) == pytest.approx(
        0.76680099912840718934, abs=1e-12)
    assert residual_deadline_limit(markovian, 0, 1.0, 1.0) == pytest.approx(
        0.4650883158696592594, abs=1e-12)
    with pytest.raises(FluidModelError):
        residual_deadline_limit(markovian, 0, 1.0, -0.5)


def test_residual_limit_vanishes_beyond_support(uniform_model):
    assert residual_deadline_limit(uniform_model, 0, 1.0, 2.0) == 0.0
    assert residual_deadline_limit(uniform_model, 0, 1.0, 5.0) == 0.0


def test_box_mixture_initial_oracles(markovian):
    initial = BoxMixtureInitial(((0, Box(0.0, 1.0, 0.0, 2.0), 1.0),))
    solution = solve_fluid(markovian, initial, T=2.0)
    assert solution.w0 == 1.0
    # queue length at t=0.5: surviving uniform mass 0.375 plus new arrivals
    assert fluid_queue_length(solution, 0, 0.5) == pytest.approx(
        1.1619386805747331528, abs=1e-8)
    # a box that catches only the evolved initial content
    assert eval_fluid(solution, 0, 0.5, Box(0.0, 0.5, 0.25, math.inf)) == \
        pytest.approx(0.3125, abs=1e-8)
    # the diagonal splits the initial mass into eventual-service 3/4, reneging 1/4
    assert fluid_nonabandoning(solution, 0, 0.0) == pytest.approx(0.75, abs=1e-9)
    assert fluid_abandoning(solution, 0, 0.0) == pytest.approx(0.25, abs=1e-9)
    for t in (0.0, 0.3, 0.8, 1.5):
        z = fluid_queue_length(solution, 0, t)
        n = fluid_nonabandoning(solution, 0, t)
        a = fluid_abandoning(solution, 0, t)
        assert z == pytest.approx(n + a, abs=1e-8)


def test_box_mixture_validation(markovian, uniform_model):
    with pytest.raises(FluidModelError):
        solve_fluid(markovian, BoxMixtureInitial(()), T=1.0)
    with pytest.raises(FluidModelError):
        BoxMixtureInitial(((0, upper_right(0.0, 0.0), 1.0),)).validate(markovian)
    with pytest.raises(FluidModelError):
        BoxMixtureInitial(((0, Box(0.0, 0.0, 0.0, 1.0), 1.0),)).validate(markovian)
    with pytest.raises(FluidModelError):
        BoxMixtureInitial(((1, Box(0.0, 1.0, 0.0, 1.0), 1.0),)).validate(markovian)
    with pytest.raises(FluidModelError):
        BoxMixtureInitial(((0, Box(0.0, 1.0, 0.0, 1.0), -1.0),)).validate(markovian)
    # support edge above the largest deadline cannot have arisen from arrivals
    tall = BoxMixtureInitial(((0, Box(0.0, 3.0, 0.0, 1.0), 1.0),))
    with pytest.raises(FluidModelError):
        tall.validate(uniform_model)


def test_multiclass_conservation():
    model = FluidModelInput((
        FluidClass(1.2, 1.0, Exponential(1.0)),
        FluidClass(1.0, 0.8, UniformInterval(0.0, 2.0)),
    ))
    solution = solve_fluid(model, ZeroInitial(), T=3.0)
    for k in range(model.K):
        for t in (0.5, 1.5, 3.0):
            z = fluid_queue_length(solution, k, t)
            n = fluid_nonabandoning(solution, k, t)
            a = fluid_abandoning(solution, k, t)
            assert z == pytest.approx(n + a, abs=1e-8)
            assert eval_fluid(solution, k, t, upper_right(0.0, 0.0)) == \
                pytest.approx(z, abs=1e-8)


def test_solution_band_property(empty_solution):
    w_l, w_u = empty_solution.model.band
    assert w_l == pytest.approx(LN2, abs=1e-9)
    assert w_u == pytest.approx(LN2, abs=1e-9)


# (weight, lo, width) components of a random uniform mixture deadline law.
mixture_components = st.lists(
    st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 3.0), st.floats(0.05, 2.0)),
    min_size=1, max_size=3)


@given(components=mixture_components, rho=st.floats(1.1, 4.0),
       start=st.floats(0.0, 0.95), T=st.floats(0.5, 4.0))
# The knot 0.05 is reached at 0.05 / 0.1, which rounds to just below T.
@example(components=[(1.0, 0.05, 0.95)], rho=1.1, start=0.0, T=0.5)
@settings(max_examples=30, deadline=None)
def test_mixture_paths_are_monotone_and_stop_at_the_band(components, rho, start, T):
    total = math.fsum(w for w, _, _ in components)
    law = UniformMixture(tuple((w / total, lo, lo + width)
                               for w, lo, width in components))
    model = FluidModelInput((FluidClass(rho, 1.0, law),))
    w0 = start * model.d_max
    w_l, w_u = equilibrium_band(model)
    path = solve_workload(model, w0, T)
    ts = np.linspace(0.0, T, 4001)
    ws = path.at(ts)
    if w0 < w_l:
        assert np.all(np.diff(ws) >= -1e-12)
        assert ws.max() <= w_l + 1e-9
    elif w0 > w_u:
        assert np.all(np.diff(ws) <= 1e-12)
        assert ws.min() >= w_u - 1e-9
    else:
        assert np.max(np.abs(ws - w0)) <= 1e-9
    # phi = w + s has slope load(w) > 0 below d_max, so tau is well defined
    # although a Hermite interpolant is not monotone by construction.
    assert np.all(np.diff(ws + ts) > 0)


@given(rho=st.floats(1.1, 4.0), rate=st.floats(0.1, 10.0))
@settings(max_examples=200, deadline=None)
def test_exponential_paths_stay_on_their_side_of_the_band(rho, rate):
    """One class with an exponential deadline, over a horizon long enough to
    reach the band edge: the path from empty never exceeds w_l and the path
    from above never drops below w_u, at the nodes and on a dense grid."""
    model = FluidModelInput((FluidClass(rho, 1.0, Exponential(rate)),))
    w_l, w_u = equilibrium_band(model)
    T = 60.0 / rate
    ts = np.linspace(0.0, T, 4001)
    rising = solve_workload(model, 0.0, T)
    falling = solve_workload(model, 2.0 * w_u + 1.0 / rate, T)
    assert rising.grid_w.max() <= w_l and rising.at(ts).max() <= w_l
    assert falling.grid_w.min() >= w_u and falling.at(ts).min() >= w_u
    assert rising(T) == w_l and falling(T) == w_u


def test_paths_stop_at_a_band_edge_on_a_knot(gapped_model):
    """The gapped model's band [1, 2] has a deadline knot at each edge. The
    path from empty stops at w_l and the path from 2.5 at w_u, monotonically,
    and neither counts the edge as a knot crossing."""
    w_l, w_u = equilibrium_band(gapped_model)
    assert (w_l, w_u) == pytest.approx((1.0, 2.0), abs=1e-15)
    for w0, edge in ((0.0, w_l), (2.5, w_u)):
        path = solve_workload(gapped_model, w0, 60.0)
        ws = path.at(np.linspace(0.0, 60.0, 6001))
        assert path.knot_times == ()
        assert np.all(np.diff(ws) * np.sign(edge - w0) >= 0)
        assert path(60.0) == edge


def test_solve_workload_logs_its_nodes_and_midpoint_error(caplog, kink_model):
    with caplog.at_level(logging.DEBUG, logger="fluidq.fluid"):
        path = solve_workload(kink_model, 0.0, 3.0)
    tol_w = 1e-10 * equilibrium_band(kink_model)[0]
    assert [r.getMessage() for r in caplog.records if r.name == "fluidq.fluid"] == [
        f"solve_workload: {path.node_count} nodes, largest midpoint error "
        f"{path.midpoint_error:.3g} (tol_w {tol_w:.3g})"]
    assert path.node_count == len(path.grid_t)
    assert 0 < path.midpoint_error <= tol_w


def test_knot_reached_within_tol_of_the_horizon_is_past_it():
    """0.05 / (1.1 - 1) rounds to just below T = 0.5: a knot node within
    KNOT_WINDOW * T of the horizon counts as past it, so that crossing
    leaves no last piece a few ulps long."""
    law = UniformMixture(((1.0, 0.05, 1.0),))
    path = solve_workload(FluidModelInput((FluidClass(1.1, 1.0, law),)), 0.0, 0.5)
    assert path.knot_times == ()
    assert path(0.5) == pytest.approx(0.05, abs=1e-9)


@pytest.mark.parametrize("tol", [1.0, 10.0])
def test_knot_window_does_not_grow_with_tol(kink_model, tol):
    """A coarse tol coarsens the level nodes, not the knot window: at tol 1
    and 10 the kink path over T = 50 still ends near the band, within 1e-6
    of its default-tol end, rather than extrapolating the piece up to its
    first knot out to T."""
    end = solve_workload(kink_model, 0.0, 50.0)(50.0)
    assert solve_workload(kink_model, 0.0, 50.0, tol)(50.0) == pytest.approx(end, abs=1e-6)


@st.composite
def hermite_nodes(draw):
    """2 to 12 strictly increasing finite times, with gaps from 1e-9 to 1e9
    relative to a start anywhere in [-1e3, 1e3], and finite values and
    slopes up to 1e6 in size."""
    n = draw(st.integers(2, 12))
    gaps = [draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(-9, 9))
            for _ in range(n - 1)]
    x = np.cumsum([draw(st.floats(-1e3, 1e3)), *gaps])
    assume(np.all(np.diff(x) > 0))
    value = st.floats(-1e6, 1e6)
    y = np.array([draw(value) for _ in range(n)])
    m = np.array([draw(value) for _ in range(n)])
    return x, y, m


@settings(max_examples=200, deadline=None)
@given(hermite_nodes())
def test_hermite_coefficients_are_scipys_bit_for_bit(markovian, nodes):
    """The workload path's Hermite pieces are CubicHermiteSpline's .c to the
    bit, and its constructor rejects the nodes scipy rejected: unsorted,
    duplicate or non-finite times, non-finite values or slopes."""
    x, y, m = nodes
    ours = _hermite_coefficients(x, y, m)
    assert ours.tobytes() == CubicHermiteSpline(x, y, m).c.tobytes()

    def build(x, y, m):
        return WorkloadPath(markovian, y[0], x[-1], x, y, (), slopes=m)

    assert build(x, y, m)._coef.tobytes() == ours.tobytes()
    bad = [(x[::-1], y, m), (np.concatenate([x[:1], x[:-1]]), y, m)]
    for i, array in enumerate((x, y, m)):
        for value in (math.nan, math.inf):
            broken = [x, y, m]
            broken[i] = array.copy()
            broken[i][-1] = value
            bad.append(broken)
    for args in bad:
        with pytest.raises(FluidModelError):
            build(*args)


def scaled_models(c):
    """M/M/1+M (arrival 2, service 1, Exp(1) deadlines) and the two-class
    kink model, with time measured in units of c: every rate divided by c,
    every deadline multiplied by it."""
    markov = FluidModelInput((FluidClass(2.0 / c, 1.0 / c, Exponential(1.0 / c)),))
    kink = FluidModelInput((
        FluidClass(1.5 / c, 1.0 / c,
                   UniformMixture(((0.5, 0.0, c), (0.5, 2.0 * c, 3.0 * c)))),
        FluidClass(1.0 / c, 2.0 / c, UniformInterval(0.5 * c, 2.5 * c)),
    ))
    return {"markov": markov, "kink": kink}


# (model, w0, T) in units of c: paths rising from empty, and one falling
# from above the band.
FRONTIER_CASES = (("markov", 0.0, 6.0), ("markov", 2.0, 6.0), ("kink", 0.0, 3.0))


@functools.lru_cache(maxsize=None)
def scaled_path(case, c):
    name, w0, T = FRONTIER_CASES[case]
    return solve_workload(scaled_models(c)[name], w0 * c, T * c)


@given(case=st.integers(0, len(FRONTIER_CASES) - 1),
       c=st.sampled_from((1e-6, 1e-3, 1.0, 1e6)), frac=st.floats(0.0, 1.1))
@example(case=1, c=1e-6, frac=0.0)
@settings(max_examples=150, deadline=None)
def test_tau_is_the_leftmost_root_at_relative_precision(case, c, frac):
    path = scaled_path(case, c)
    top = path.phi(path.T)
    for t in (frac * top, path.w0, top, math.nextafter(top, math.inf)):
        s = path.tau(t)
        if t <= path.w0:
            assert s == 0.0
        elif t > top:
            assert s == math.inf
        else:
            eps = np.finfo(float).eps
            assert 0.0 < s <= path.T
            assert path.phi(s) >= t * (1.0 - 4.0 * eps)
            delta = 1e-12 * max(t, 1e-300)
            assert s - delta < 0.0 or path.phi(s - delta) < t
            # phi's cubic pieces are the Hermite spline of w plus s
            for u in (s, s - delta):
                if u >= 0.0:
                    direct = path(u) + u
                    assert abs(path.phi(u) - direct) <= 4.0 * math.ulp(direct)


def test_tau_does_not_depend_on_the_time_unit():
    """tau(3) on M/M/1+M from empty, read in units of 1e-3, 1e-6 and 1e6."""
    reference = scaled_path(0, 1.0).tau(3.0)
    assert reference == pytest.approx(2.3554401710, abs=1e-9)
    for c in (1e-3, 1e-6, 1e6):
        assert scaled_path(0, c).tau(3.0 * c) / c == pytest.approx(reference, rel=1e-8)


@pytest.mark.parametrize("case", range(len(FRONTIER_CASES)))
def test_path_nodes_do_not_depend_on_the_time_unit(case):
    """The level nodes and their tolerance are relative to the level scale,
    so M/M/1+M and the kink model get the same nodes, scaled, in any time
    unit."""
    base = scaled_path(case, 1.0)
    for c in (1e-6, 1e6):
        path = scaled_path(case, c)
        assert path.node_count == base.node_count
        np.testing.assert_allclose(path.grid_t / c, base.grid_t, rtol=1e-12)
        np.testing.assert_allclose(path.grid_w / c, base.grid_w, rtol=1e-12, atol=1e-300)
        assert len(path.knot_times) == len(base.knot_times)


@pytest.mark.parametrize("c", (1e-6, 1.0, 1e6))
def test_path_time_slack_scales_with_the_horizon(c):
    """The path answers times fewer than TIME_SLACK_ULPS ulps of T outside
    [0, T] and rejects the rest, whatever the time unit. The path is the
    constant one at M/M/1+M's band level, built directly from its two
    nodes."""
    model = scaled_models(c)["markov"]
    level, _ = equilibrium_band(model)
    T = 6.0 * c
    path = WorkloadPath(model, level, T, np.array([0.0, T]), np.array([level, level]), ())
    slack = TIME_SLACK_ULPS * np.spacing(T)
    assert path.at(np.array([0.0, T, math.nextafter(T, math.inf)])).tolist() == [level] * 3
    for t in (T + slack, -slack, T + 1e-9 * c, math.nan):
        with pytest.raises(FluidModelError):
            path(t)


def test_tau_takes_arrays(empty_solution):
    path = empty_solution.workload
    xs = np.array([0.0, 0.5, 3.0, 6.5, math.inf])
    got = path.tau(xs)
    assert got.shape == xs.shape
    assert got.tolist() == [path.tau(x) for x in xs.tolist()]
    assert got[0] == 0.0 and got[-1] == math.inf


@pytest.fixture(scope="module")
def kink_solution(kink_model):
    return solve_fluid(kink_model, ZeroInitial(), T=3.0)


def test_waiting_integral_matches_adaptive_quadrature(kink_solution):
    """Against numerics.integrate at tol 1e-13 on each smooth piece, with
    limits on both sides of the knot times and at exact node times."""
    from fluidq import numerics

    path = kink_solution.workload
    assert len(path.knot_times) == 2
    near = [x + d for x in path.knot_times for d in (-1e-3, -1e-9, 0.0, 1e-9, 1e-3)]
    n = len(path.grid_t)
    nodes = path.grid_t[[1, *(int(f * n) for f in (0.15, 0.39, 0.61)), n - 2]].tolist()
    limits = sorted([0.0, 0.3, 1.7, 2.9999, 3.0, *near, *nodes])
    for k, cls in enumerate(kink_solution.model.classes):
        def waiting(v):
            return cls.deadline.survival(path.at(v))

        for lo in limits[::3]:
            for hi in limits:
                if hi < lo:
                    continue
                cuts = [lo, *(x for x in path.knot_times if lo < x < hi), hi]
                want = sum(numerics.integrate(waiting, a, b, tol=1e-13)
                           for a, b in zip(cuts, cuts[1:]))
                assert abs(path.waiting_integral(k, lo, hi) - want) <= 1e-12, (k, lo, hi)


INITIAL_STATES = {
    "zero": (ZeroInitial(), 4.0),
    "invariant": (InvariantInitial(1.5), 4.0),
    "boxes": (BoxMixtureInitial(((0, Box(0.0, 1.2, 0.3, 2.0), 0.7),
                                 (1, Box(0.4, 0.9, 0.0, 1.0), 0.2))), 4.0),
}


@pytest.mark.parametrize("name", sorted(INITIAL_STATES))
def test_functionals_on_arrays_equal_scalar_calls(kink_model, name):
    initial, T = INITIAL_STATES[name]
    solution = solve_fluid(kink_model, initial, T=T)
    ts = np.unique(np.concatenate([np.linspace(0.0, T, 41), [solution.w0],
                                   solution.workload.knot_times]))
    assert ts.min() < solution.w0 or name == "zero"
    u = 0.25
    aged = ts[ts >= u]
    boxes = (Box(0.1, 0.9, 0.2, 1.4), Box(0.0, 0.5, 0.0, math.inf),
             upper_right(0.6, 0.3))
    for k in range(kink_model.K):
        values = {}
        for f in (fluid_queue_length, fluid_nonabandoning, fluid_abandoning):
            got = f(solution, k, ts)
            assert got.tolist() == [f(solution, k, t) for t in ts.tolist()], f.__name__
            values[f.__name__] = got
        got = fluid_age_count(solution, k, aged, u)
        assert got.tolist() == [fluid_age_count(solution, k, t, u) for t in aged.tolist()]
        for box in boxes:
            got = eval_fluid(solution, k, ts, box)
            assert got.tolist() == [eval_fluid(solution, k, t, box) for t in ts.tolist()]
        gap = (values["fluid_queue_length"] - values["fluid_nonabandoning"]
               - values["fluid_abandoning"])
        assert np.max(np.abs(gap)) <= 1e-12


@pytest.fixture(scope="module")
def kink_states(kink_model):
    return {name: solve_fluid(kink_model, initial, T=T)
            for name, (initial, T) in INITIAL_STATES.items()}


def bits(value):
    """A value's shape and the bytes of its floats."""
    return np.shape(value), np.asarray(value, dtype=float).tobytes()


# Times of the kink states' horizon T = 4: both zeros, one a few ulps below
# 0, both knots and the support edges of the invariant and box starts.
GRID_TIMES = [0.0, -0.0, -3 * np.spacing(4.0), 0.25, 0.5, 0.9, 1.0, 1.2, 1.5, 2.9, 4.0]
grid_times = st.one_of(st.sampled_from(GRID_TIMES), st.sampled_from(GRID_TIMES).map(np.array),
                       st.lists(st.sampled_from(GRID_TIMES), max_size=6).map(
                           lambda v: np.array(v, dtype=float)))


@given(name=st.sampled_from(sorted(INITIAL_STATES)), t=grid_times,
       ages=st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0, 4.5]), max_size=3))
@settings(max_examples=60, deadline=None)
def test_grid_pass_has_each_functionals_bits(kink_states, name, t, ages):
    """fluid_grid's tau, z, n, a and age counts are the bits of tau and of
    the public functionals at the same times, for scalars, 0-d and 1-d
    arrays with repeats; an age count at an age u > t is NaN in the pass,
    where fluid_age_count raises, and the other times keep their bits."""
    solution = kink_states[name]
    got = fluid_grid(solution, t, ages)
    assert bits(got.tau) == bits(solution.workload.tau(t))
    flat = np.reshape(t, -1)
    for k in range(solution.model.K):
        for field, f in ((got.queue_length, fluid_queue_length),
                         (got.nonabandoning, fluid_nonabandoning),
                         (got.abandoning, fluid_abandoning)):
            assert bits(field[k]) == bits(f(solution, k, t)), f.__name__
        for u, field in zip(ages, got.age_count[:, k]):
            later = u <= np.maximum(flat, 0.0)
            if not later.all():
                with pytest.raises(FluidModelError, match="need 0 <= u <= t"):
                    fluid_age_count(solution, k, t, u)
            assert np.isnan(np.reshape(field, -1)[~later]).all()
            assert bits(np.reshape(field, -1)[later]) == bits(
                fluid_age_count(solution, k, flat[later], u))


def test_grid_pass_rejects_negative_ages(kink_states):
    for ages in ((0.25, -0.5), (math.nan,)):
        with pytest.raises(FluidModelError, match="ages must be nonnegative"):
            fluid_grid(kink_states["zero"], np.linspace(0.0, 4.0, 5), ages)


def test_a_nan_time_is_outside_the_horizon(kink_states):
    """NaN is no time of the horizon: the path, every functional and the grid
    pass reject it, alone or among good times, as they reject 5 on [0, 4]."""
    solution = kink_states["boxes"]
    path = solution.workload
    queries = [path.at, path.phi, lambda t: fluid_grid(solution, t, (0.25,)),
               *(lambda t, f=f: f(solution, 1, t) for f in (
                   fluid_queue_length, fluid_nonabandoning, fluid_abandoning)),
               lambda t: fluid_age_count(solution, 1, t, 0.0),
               lambda t: eval_fluid(solution, 1, t, Box(0.1, 0.9, 0.2, 1.4))]
    for query in queries:
        for t in (math.nan, np.array([1.0, math.nan]), 5.0):
            with pytest.raises(FluidModelError, match="outside the solved horizon"):
                query(t)


def scaled_initial_states(model, c):
    """Zero, the invariant state at the band's lower edge, and a box
    mixture with every box edge multiplied by c, for a model of
    scaled_models(c)."""
    pieces = [(0, Box(0.0, 1.2 * c, 0.3 * c, 2.0 * c), 0.7),
              (model.K - 1, Box(0.4 * c, 0.9 * c, 0.0, 1.0 * c), 0.2)]
    return {"zero": ZeroInitial(), "invariant": InvariantInitial(model.band[0]),
            "boxes": BoxMixtureInitial(tuple(pieces))}


def functionals_in_units_of(c, name, state):
    """Every functional of one model and initial state at the times c * t,
    for the 41 times t of [0, 4]: z, n, a, the age count at ages c * u and
    three box masses with every edge multiplied by c, per class."""
    model = scaled_models(c)[name]
    solution = solve_fluid(model, scaled_initial_states(model, c)[state], T=4.0 * c)
    base = np.linspace(0.0, 4.0, 41)
    ts = c * base
    boxes = (Box(0.1 * c, 0.9 * c, 0.2 * c, 1.4 * c), Box(0.0, 0.5 * c, 0.0, math.inf),
             upper_right(0.6 * c, 0.3 * c))
    out = {}
    for k in range(model.K):
        for f in (fluid_queue_length, fluid_nonabandoning, fluid_abandoning):
            out[f.__name__, k] = f(solution, k, ts)
        for u in (0.0, 0.25, 1.0):
            out["age", k, u] = fluid_age_count(solution, k, ts[base >= u], c * u)
        for i, box in enumerate(boxes):
            out["box", k, i] = eval_fluid(solution, k, ts, box)
    return out


@pytest.mark.parametrize("state", ["zero", "invariant", "boxes"])
@pytest.mark.parametrize("name", ["markov", "kink"])
def test_functionals_do_not_depend_on_the_time_unit(name, state):
    """With every rate divided by c and every deadline law and initial box
    stretched by c, each functional at c * t is a mass, so it equals its
    value at t in the unit time scale, to 1e-12 of the largest value."""
    base = functionals_in_units_of(1.0, name, state)
    for c in (1e-6, 1e6):
        scaled = functionals_in_units_of(c, name, state)
        for key, want in base.items():
            scale = max(np.max(np.abs(want), initial=0.0), 1e-300)
            assert np.max(np.abs(scaled[key] - want), initial=0.0) <= 1e-12 * scale, (c, key)


@pytest.mark.parametrize("name", sorted(INITIAL_STATES))
def test_functionals_read_a_time_just_below_zero_as_zero(kink_model, name):
    """A time within TIME_SLACK_ULPS ulps of T below 0 passes the path's
    check, and every functional reads it as 0; one at the slack is
    rejected. The age count still needs u <= t for an age u > 0."""
    initial, T = INITIAL_STATES[name]
    solution = solve_fluid(kink_model, initial, T=T)
    ulp = np.spacing(T)
    box = Box(0.1, 0.9, 0.2, 1.4)

    def functionals(t):
        return [f(solution, k, t) for k in range(kink_model.K)
                for f in (fluid_queue_length, fluid_nonabandoning, fluid_abandoning,
                          lambda s, k, t: fluid_age_count(s, k, t, 0.0),
                          lambda s, k, t: eval_fluid(s, k, t, box))]

    at_zero = functionals(0.0)
    assert at_zero[0] == fluid_queue_length(solution, 0, 0.0)
    for i in range(1, TIME_SLACK_ULPS):
        assert functionals(-i * ulp) == at_zero
        assert [v[0] for v in functionals(np.array([-i * ulp]))] == at_zero
    with pytest.raises(FluidModelError):
        fluid_queue_length(solution, 0, -TIME_SLACK_ULPS * ulp)
    with pytest.raises(FluidModelError):
        fluid_age_count(solution, 0, math.nextafter(0.5, 0.0), 0.5)


# One class whose band is [1, 2] and whose deadlines end at 3.
_GAPPED = FluidModelInput((FluidClass(2.0, 1.0, UniformMixture(
    ((0.5, 0.0, 1.0), (0.5, 2.0, 3.0)))),))
_edge = st.floats(0.0, 3.0)


@st.composite
def initial_states(draw):
    kind = draw(st.sampled_from(["zero", "invariant", "boxes"]))
    if kind == "zero":
        return ZeroInitial()
    if kind == "invariant":
        return InvariantInitial(draw(st.floats(1.0, 2.0)))
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = sorted(draw(st.tuples(_edge, _edge)))
        c, d = sorted(draw(st.tuples(_edge, st.floats(0.0, 5.0))))
        # admissible boxes have a positive float area; two tiny sides can underflow
        assume(Box(a, b, c, d).area > 0)
        pieces.append((0, Box(a, b, c, d), draw(st.floats(0.01, 10.0))))
    return BoxMixtureInitial(tuple(pieces))


@given(initial=initial_states(), after=st.floats(0.0, 4.0),
       corner=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
       size=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
       open_right=st.booleans(), open_top=st.booleans())
@example(initial=BoxMixtureInitial(((0, Box(0.0, 3.0, 0.0, 3.0), 1.0),)), after=0.0,
         corner=(0.0, 0.0), size=(1.0, 1.0), open_right=True, open_top=True)
@settings(max_examples=200, deadline=None)
def test_initial_mass_is_plus_zero_from_the_support_edge_on(initial, after, corner, size,
                                                            open_right, open_top):
    """At a time t >= support_edge every initial job has left: eval0 on any
    box shifted by t, mass_nonabandoning and mass_abandoning are +0.0, the
    floats the functionals use for the initial state's share from w0 on."""
    initial.validate(_GAPPED)
    t = initial.support_edge(_GAPPED) + after
    a, c = corner
    box = Box(a, math.inf if open_right else a + size[0],
              c, math.inf if open_top else c + size[1])
    for value in (initial.eval0(_GAPPED, 0, box.shifted(t)),
                  initial.mass_nonabandoning(_GAPPED, 0, t),
                  initial.mass_abandoning(_GAPPED, 0, t)):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
