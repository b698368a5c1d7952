from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from fluidq.distributions import (Deterministic, DistributionError, Exponential,
                                  HyperExponential, Replay, UniformInterval,
                                  UniformMixture, mix_seed,
                                  require_deadline_law, stream)

FAMILIES = [
    Exponential(1.0),
    Exponential(2.0),
    Deterministic(1.5),
    UniformInterval(0.0, 2.0),
    UniformInterval(1.0, 3.0),
    UniformMixture(((0.5, 0.0, 1.0), (0.5, 2.0, 3.0))),
    HyperExponential(((0.3, 1.0), (0.7, 2.0))),
]


def test_exponential_survival_closed_form():
    law = Exponential(1.0)
    assert law.survival(math.log(2)) == pytest.approx(0.5, abs=1e-15)
    assert law.survival(0.0) == 1.0
    assert law.cdf(1.0) == pytest.approx(1 - math.exp(-1), abs=1e-15)


def test_exponential_integrate_survival():
    law = Exponential(2.0)
    # integral of e^{-2x} over [0, 1]
    assert law.integrate_survival(0.0, 1.0) == pytest.approx(
        (1 - math.exp(-2)) / 2, abs=1e-15)
    assert law.integrate_survival(0.0, math.inf) == pytest.approx(0.5, abs=1e-15)


def test_deterministic_survival_right_continuous():
    law = Deterministic(1.5)
    assert law.survival(1.5 - 1e-12) == 1.0
    assert law.survival(1.5) == 0.0
    assert law.integrate_survival(0.0, 10.0) == 1.5
    assert law.integrate_survival(1.0, 2.0) == 0.5
    assert not law.is_continuous


def test_uniform_inverse_cdf_example():
    law = UniformInterval(1.0, 3.0)
    assert law._inverse_cdf(np.asarray(0.25)) == pytest.approx(1.5, abs=1e-15)


def test_uniform_integrate_survival_piecewise():
    law = UniformInterval(0.0, 2.0)
    # G(x) = 1 - x/2 on [0, 2]: integral over [0, 2] is 1, over [1, 3] is 1/4
    assert law.integrate_survival(0.0, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert law.integrate_survival(1.0, 3.0) == pytest.approx(0.25, abs=1e-15)
    assert law.integrate_survival(3.0, 5.0) == 0.0


def test_sup_support_values():
    assert UniformInterval(0.0, 2.0).sup_support() == 2.0
    assert Exponential(1.0).sup_support() == math.inf
    assert UniformMixture(((0.5, 0.0, 1.0), (0.5, 2.0, 3.0))).sup_support() == 3.0
    assert Deterministic(1.5).sup_support() == 1.5
    assert HyperExponential(((0.5, 1.0), (0.5, 3.0))).sup_support() == math.inf


def test_breakpoints_values():
    assert Exponential(1.0).breakpoints() == ()
    assert HyperExponential(((0.5, 1.0), (0.5, 3.0))).breakpoints() == ()
    assert UniformInterval(0.5, 2.5).breakpoints() == (0.5, 2.5)
    assert UniformMixture(((0.5, 2.0, 3.0), (0.5, 0.0, 1.0))).breakpoints() == (
        0.0, 1.0, 2.0, 3.0)


# (weight, lo, width) components of a uniform mixture; weights are normalized.
mixture_components = st.lists(
    st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 4.0), st.floats(0.05, 3.0)),
    min_size=1, max_size=4)


def uniform_mixture(components):
    total = math.fsum(w for w, _, _ in components)
    return UniformMixture(tuple((w / total, lo, lo + width)
                                for w, lo, width in components))


@given(components=mixture_components)
@settings(max_examples=80, deadline=None)
def test_mixture_breakpoints_bound_affine_pieces(components):
    law = uniform_mixture(components)
    points = law.breakpoints()
    assert all(a < b for a, b in zip(points, points[1:]))
    assert 0.0 <= points[0] and points[-1] == law.sup_support()
    for _, lo, hi in law.components:
        assert lo in points and hi in points
    for a, b in zip(points, points[1:]):
        mid = law.survival(0.5 * (a + b))
        assert mid == pytest.approx(0.5 * (law.survival(a) + law.survival(b)), abs=1e-12)


def hyperexponential(components):
    total = math.fsum(w for w, _ in components)
    return HyperExponential(tuple((w / total, r) for w, r in components))


rates = st.floats(1e-3, 1e3)
laws = st.one_of(
    rates.map(Exponential),
    rates.map(Deterministic),
    st.tuples(st.floats(0.0, 4.0), st.floats(0.05, 3.0)).map(
        lambda p: UniformInterval(p[0], p[0] + p[1])),
    mixture_components.map(uniform_mixture),
    st.lists(st.tuples(st.floats(0.05, 1.0), rates), min_size=1, max_size=4).map(
        hyperexponential))


@given(law=laws, x=st.floats(0.0, 50.0), neg=st.floats(max_value=0.0, exclude_max=True),
       seed=st.integers(0, 2**32 - 1))
@example(law=Exponential(1.0), x=3.3, neg=-1.0, seed=0)
@settings(max_examples=200, deadline=None)
def test_scalars_take_the_array_path(law, x, neg, seed):
    """The base class takes a scalar through the family's array kernel: the
    survival of a float is a float with the bits of a one-element array's
    entry (math.exp and np.exp differ in the last bit at 3.3), one draw is
    a float with the bits of the first of a size-1 draw, size 0 draws an
    empty float array, and a negative x is rejected alone or in an array."""
    def bits(v):
        return np.float64(v).view(np.int64)

    g = law.survival(x)
    assert type(g) is float and bits(g) == bits(law.survival(np.array([x]))[0])
    one = law.sample(stream(seed))
    assert type(one) is float and bits(one) == bits(law.sample(stream(seed), 1)[0])
    none = law.sample(stream(seed), 0)
    assert isinstance(none, np.ndarray) and none.dtype == np.float64 and none.shape == (0,)
    for bad in (neg, np.array([x, neg])):
        with pytest.raises(DistributionError):
            law.survival(bad)


def mixture_inverse_cdf_reference(law, u):
    """The original piecewise-linear inversion, one full array per step."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    knots = np.asarray(law._knots)
    cdfs = np.asarray(law._cdf_knots)
    idx = np.searchsorted(cdfs, u, side="right")
    idx = np.clip(idx, 1, len(knots) - 1)
    f0, f1 = cdfs[idx - 1], cdfs[idx]
    x0, x1 = knots[idx - 1], knots[idx]
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(f1 > f0, (u - f0) / (f1 - f0), 0.0)
    return x0 + np.clip(frac, 0.0, 1.0) * (x1 - x0)


@given(law=laws, scale=st.sampled_from((1, 7, 100_000)), a=st.integers(0, 3000),
       b=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_draws_in_blocks_have_the_bits_of_one_draw(law, scale, a, b, seed):
    """The simulator draws each stream in blocks: a draws then b draws are
    the bits of one draw of a + b, and leave the stream where that draw
    leaves it, for every family, scaled or not."""
    law = law.scaled(scale)
    rng, one = stream(seed, 1), stream(seed, 1)
    blocks = np.concatenate([law.sample(rng, a), law.sample(rng, b)])
    assert blocks.view(np.int64).tolist() == law.sample(one, a + b).view(np.int64).tolist()
    assert law.sample(rng, 3).tolist() == law.sample(one, 3).tolist()


@given(samples=st.lists(st.floats(1e-3, 10.0), max_size=60), scale=st.sampled_from((1, 7)),
       a=st.integers(0, 30), b=st.integers(0, 30))
@settings(max_examples=100, deadline=None)
def test_replay_draws_in_blocks_continue_the_script(samples, scale, a, b):
    """A Replay script read in two blocks gives the bits of one read."""
    a = min(a, len(samples))
    b = min(b, len(samples) - a)
    law = Replay(tuple(samples)).scaled(scale)
    blocks = np.concatenate([law.sample(None, a), law.sample(None, b)])
    law.reset()
    assert blocks.view(np.int64).tolist() == law.sample(None, a + b).view(np.int64).tolist()
    assert law.remaining == len(samples) - a - b


@given(components=mixture_components, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_mixture_inverse_cdf_matches_reference_bit_for_bit(components, seed):
    law = uniform_mixture(components)
    cdfs = np.asarray(law._cdf_knots)
    u = np.concatenate([stream(seed).random(500), cdfs, np.nextafter(cdfs, 0.0),
                        np.nextafter(cdfs, 1.0), [0.0, math.nextafter(1.0, 0.0)]])
    u = u[(u >= 0.0) & (u < 1.0)]
    np.testing.assert_array_equal(law._inverse_cdf(u).view(np.int64),
                                  mixture_inverse_cdf_reference(law, u).view(np.int64))


def test_mixture_inverse_cdf_transient_memory():
    """Beyond its output, inversion holds the piece index and one gathered
    column (16 B/variate); the reference held about ten arrays (56)."""
    law = UniformMixture(((0.5, 0.0, 1.0), (0.5, 2.0, 3.0)))
    u = stream(3, 1).random(200_000)
    law._inverse_cdf(u[:10])
    tracemalloc.start()
    try:
        out = law._inverse_cdf(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - out.nbytes) / len(u) <= 24


def test_mixture_survival_has_flat_stretch():
    law = UniformMixture(((0.5, 0.0, 1.0), (0.5, 2.0, 3.0)))
    assert law.survival(1.0) == pytest.approx(0.5, abs=1e-15)
    assert law.survival(1.7) == pytest.approx(0.5, abs=1e-15)
    assert law.survival(2.0) == pytest.approx(0.5, abs=1e-15)
    assert law.survival(2.5) == pytest.approx(0.25, abs=1e-15)


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(DistributionError):
        UniformMixture(((0.5, 0.0, 1.0), (0.4, 2.0, 3.0)))


@pytest.mark.parametrize("law", FAMILIES, ids=lambda d: type(d).__name__ + repr(d)[:30])
def test_survival_plus_cdf_is_one(law):
    xs = np.linspace(0.0, 5.0, 101)
    np.testing.assert_allclose(law.survival(xs) + law.cdf(xs), 1.0, atol=1e-12)


@given(a=st.floats(0, 5), b=st.floats(0, 5), c=st.floats(0, 5))
@settings(max_examples=60, deadline=None)
def test_integrate_survival_additive(a, b, c):
    lo, mid, hi = sorted((a, b, c))
    for law in FAMILIES:
        whole = law.integrate_survival(lo, hi)
        split = law.integrate_survival(lo, mid) + law.integrate_survival(mid, hi)
        assert abs(whole - split) <= 1e-12


@pytest.mark.parametrize("law", FAMILIES, ids=lambda d: type(d).__name__ + repr(d)[:30])
def test_integrate_survival_matches_quadrature(law):
    from fluidq.numerics import integrate
    hi = min(law.sup_support(), 6.0)
    want = integrate(lambda x: np.asarray(law.survival(x), dtype=float), 0.25, hi)
    assert law.integrate_survival(0.25, hi) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("law", FAMILIES, ids=lambda d: type(d).__name__ + repr(d)[:30])
def test_monte_carlo_mean_within_five_se(law):
    rng = stream(123456, 0)
    samples = law.sample(rng, 1_000_000)
    se = samples.std(ddof=1) / math.sqrt(len(samples))
    assert abs(samples.mean() - law.mean()) <= 5 * max(se, 1e-15)


def test_integrate_survival_converges_to_mean():
    bounded = UniformMixture(((0.5, 0.0, 1.0), (0.5, 2.0, 3.0)))
    assert bounded.integrate_survival(0.0, bounded.sup_support()) == pytest.approx(
        bounded.mean(), abs=1e-9)
    exp = Exponential(2.0)
    assert exp.integrate_survival(0.0, 50.0 / 2.0) == pytest.approx(
        exp.mean(), abs=1e-6)


def test_hyperexponential_oracle_integral():
    law = HyperExponential(((0.3, 1.0), (0.7, 2.0)))
    assert law.integrate_survival(0.0, 1.0) == pytest.approx(
        0.49226881851575286136, abs=1e-12)
    assert law.mean() == pytest.approx(0.3 / 1.0 + 0.7 / 2.0, abs=1e-15)


def test_stream_reproducible_and_independent():
    a = stream(42, 0, 1).random(8)
    b = stream(42, 0, 1).random(8)
    c = stream(42, 0, 2).random(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mix_seed_deterministic():
    assert mix_seed(7, 10, 3) == mix_seed(7, 10, 3)
    assert mix_seed(7, 10, 3) != mix_seed(7, 10, 4)
    assert 0 <= mix_seed(7, 10, 3) < 2**64


@pytest.mark.parametrize("law,factor", [
    (Exponential(2.0), 10),
    (UniformInterval(1.0, 3.0), 4),
    (Deterministic(1.5), 10),
    (HyperExponential(((0.3, 1.0), (0.7, 2.0))), 5),
    (UniformMixture(((0.5, 0.0, 1.0), (0.5, 2.0, 3.0))), 8),
])
def test_scaled_law_couples_with_divided_samples(law, factor):
    scaled = law.scaled(factor)
    a = scaled.sample(stream(9, 1), 1000)
    b = law.sample(stream(9, 1), 1000) / factor
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)


def test_scaled_exponential_is_rate_scaled():
    assert Exponential(2.0).scaled(10) == Exponential(20.0)
    law = UniformInterval(1.0, 3.0).scaled(4)
    assert (law.lo, law.hi) == (0.25, 0.75)


def test_deadline_law_rejects_discontinuous():
    with pytest.raises(DistributionError):
        require_deadline_law(Deterministic(1.0))
    with pytest.raises(DistributionError):
        require_deadline_law(Replay((1.0,)))
    assert require_deadline_law(Exponential(1.0)) is not None


def test_replay_consumes_in_order_and_errors_on_exhaustion():
    law = Replay((1.0, 2.0, 3.0))
    rng = stream(0)
    assert law.sample(rng) == 1.0
    np.testing.assert_array_equal(law.sample(rng, 2), [2.0, 3.0])
    assert law.remaining == 0
    with pytest.raises(DistributionError):
        law.sample(rng)
    law.reset()
    assert law.remaining == 3
    assert law.sample(rng) == 1.0


def test_replay_has_no_law():
    law = Replay((1.0,))
    with pytest.raises(DistributionError):
        law.survival(0.5)
    with pytest.raises(DistributionError):
        law.survival(np.array([0.5]))
    with pytest.raises(DistributionError):
        law.mean()
    assert law.scaled(2).samples == (0.5,)


def test_invalid_parameters_rejected():
    with pytest.raises(DistributionError):
        Exponential(0.0)
    with pytest.raises(DistributionError):
        Exponential(-1.0)
    with pytest.raises(DistributionError):
        UniformInterval(2.0, 1.0)
    with pytest.raises(DistributionError):
        Deterministic(0.0)
    with pytest.raises(DistributionError):
        Replay((1.0, -2.0))
    with pytest.raises(DistributionError):
        HyperExponential(((1.0, -1.0),))


HYPER_LAWS = [
    HyperExponential(((0.3, 1.0), (0.7, 2.0))),
    HyperExponential(((0.5, 1.0), (0.5, 4.0))),
    HyperExponential(((0.5, 1.5), (0.5, 6.0))),
    HyperExponential(((0.2, 0.1), (0.5, 1.0), (0.3, 30.0))),
]


@pytest.mark.parametrize("law", HYPER_LAWS, ids=repr)
def test_hyperexponential_draws_fit_the_mixture_cdf(law):
    draws = law.sample(stream(2024, 7), 200_000)
    assert stats.kstest(draws, law.cdf).pvalue > 0.01


@pytest.mark.parametrize("law", HYPER_LAWS, ids=repr)
def test_hyperexponential_draws_one_uniform_per_variate(law):
    rng, ref = stream(5, 2), stream(5, 2)
    law.sample(rng, 1000)
    ref.random(1000)
    assert rng.random() == ref.random()


@given(rate=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_one_component_hyperexponential_is_exponential(rate, seed):
    a = HyperExponential(((1.0, rate),)).sample(stream(seed), 1000)
    b = Exponential(rate).sample(stream(seed), 1000)
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("n", [3, 10, 1e3, 1e5])
@pytest.mark.parametrize("law", HYPER_LAWS, ids=repr)
def test_scaled_hyperexponential_within_one_ulp_of_divided_draws(law, n):
    """The component and the conditional uniform do not depend on n, so the
    two differ only in where the last division rounds: within 1 ulp when
    every r * n is exact, and 2 when the scaled rate is rounded too."""
    exact = all(Fraction(r * n) == Fraction(r) * Fraction(n) for _, r in law.components)
    a = law.scaled(n).sample(stream(9, 3), 100_000)
    b = law.sample(stream(9, 3), 100_000) / n
    assert np.abs(a.view(np.int64) - b.view(np.int64)).max() <= (1 if exact else 2)


@pytest.mark.parametrize("components", [
    ((0.3, 1.0), (0.7, 2.0)),
    ((1e-12, 1.0), (1.0 - 1e-12, 3.0)),
    ((1.0 - 1e-12, 2.0), (1e-12, 1e6)),
    ((0.5 - 1e-12, 1e-3), (1e-12, 5.0), (0.5, 7.0)),
])
def test_hyperexponential_draws_are_finite_at_component_edges(components):
    law = HyperExponential(components)
    cum = np.cumsum([w for w, _ in components])
    u = np.concatenate([[0.0, math.nextafter(1.0, 0.0)], cum,
                        np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)])
    u = u[(u >= 0.0) & (u < 1.0)]
    x = law._inverse_cdf(u)
    assert np.all(np.isfinite(x)) and np.all(x >= 0.0)
    # Each component's share [C_{j-1}, C_j) starts at quantile 0.
    np.testing.assert_array_equal(law._inverse_cdf(law._cum[:-1]), 0.0)
