"""Probability laws for interarrival times, service requirements, and deadlines.

Every family exposes the same four primitives:

* ``survival(x)``      -- G(x) = P(X > x), closed form, scalar or array;
* ``integrate_survival(a, b)`` -- the exact integral of G over [a, b];
* ``sample(rng, size)``        -- one uniform per variate from a seeded stream;
* ``sup_support()``            -- the exact supremum of the support.

Deadline laws also give ``breakpoints()``, the points where G is not
smooth; the fluid solver makes each one the path crosses a level node, so
no piece of the workload path spans a kink.

Survival integrals are deliberately closed form per family (never
quadrature): the fluid performance formulas downstream are built from
``integrate_survival`` and need integrand-level exactness to meet 1e-8
tolerances.

Sampling draws one uniform per variate and maps it through the
(generalized) inverse CDF, except ``HyperExponential``, which uses
composition: the uniform picks a component and, rescaled within that
component's share, goes through its exponential quantile. Either way two
laws related by a change of scale produce pathwise-coupled samples under
the same stream. ``Distribution.sample`` allocates its output once and
fills it in blocks of ``SAMPLE_BLOCK`` uniforms, each transformed in place
by the family's kernel, so a draw holds no temporary larger than a block;
the uniforms of consecutive blocks are those of one draw, and each
variate has the bits of the whole-array transform of its uniform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


_BELOW_ONE = math.nextafter(1.0, 0.0)
# Variates per block of Distribution.sample: the kernels' temporaries take a
# few block-sized arrays, which stay in cache and below glibc's mmap
# threshold (blocks of 4096 to 8192 ran fastest; 16384 ran slower).
SAMPLE_BLOCK = 4096


class DistributionError(ValueError):
    """Raised for invalid parameters or unsupported operations."""


def stream(seed: int, *path: int) -> np.random.Generator:
    """Deterministic substream: a PCG64 generator keyed by seed plus a path.

    Identical (seed, path) yields the identical sample sequence on every
    platform; distinct paths yield statistically independent streams.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *path])))


def mix_seed(base_seed: int, *path: int) -> int:
    """Collapse (base_seed, path...) into a single 64-bit seed, deterministically."""
    return int(np.random.SeedSequence([base_seed, *path]).generate_state(1, np.uint64)[0])


class Distribution:
    """Base class; subclasses are immutable value objects that write array
    kernels only, ``_survival`` and ``_inverse_cdf``. The base class takes
    scalars through them, so a scalar gets the bits of a one-element array."""

    def survival(self, x):
        """G(x) = P(X > x) for x >= 0: a float for a scalar x, else an ndarray."""
        a = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(a < 0):
            raise DistributionError("survival is defined on x >= 0")
        g = self._survival(a)
        return float(g[0]) if np.ndim(x) == 0 else g

    def _survival(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def cdf(self, x):
        return 1.0 - self.survival(x)

    def integrate_survival(self, a: float, b: float) -> float:
        """Integral of G over [a, b], 0 <= a <= b, in closed form."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Sample(s) from the given stream, one uniform each: a float for
        size=None, else an ndarray of that size. The uniforms come in
        blocks of SAMPLE_BLOCK, each mapped in place."""
        out = np.empty(1 if size is None else size)
        for a in range(0, len(out), SAMPLE_BLOCK):
            block = out[a:a + SAMPLE_BLOCK]
            rng.random(out=block)
            self._inverse_cdf(block)
        return float(out[0]) if size is None else out

    def _inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """Map the uniforms u in [0, 1) to variates, in place; returns u."""
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def sup_support(self) -> float:
        """Exact supremum of the support (may be math.inf)."""
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        """Sorted points where G is not smooth; G is analytic between them."""
        raise NotImplementedError

    @property
    def is_continuous(self) -> bool:
        """Whether the CDF is continuous (required of deadline laws)."""
        return True

    def scaled(self, n: float) -> "Distribution":
        """The law of X / n (time acceleration of interarrivals and services)."""
        raise NotImplementedError


def _check_interval(a: float, b: float) -> None:
    if not (0 <= a <= b):
        raise DistributionError(f"need 0 <= a <= b, got a={a}, b={b}")


def _check_weights(weights) -> None:
    """A mixture's weights: at least one, each positive, summing to 1."""
    if not weights:
        raise DistributionError("mixture needs at least one component")
    for w in weights:
        if not w > 0:
            raise DistributionError(f"weights must be positive, got {w}")
    total = math.fsum(weights)
    if abs(total - 1.0) > 1e-12:
        raise DistributionError(f"weights must sum to 1, got {total}")


def _piece(u: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """The number of knots at or below each u: np.searchsorted(knots, u,
    side="right") for sorted knots, as one comparison per knot."""
    i = np.zeros(len(u), dtype=np.intp)
    for c in knots.tolist():
        i += u >= c
    return i


def _uniform_integral(lo: float, hi: float, a: float, b: float) -> float:
    """Integral over [a, b] of the survival of the uniform law on [lo, hi)."""
    # G = 1 on [0, lo), linear down to 0 on [lo, hi), 0 afterwards.
    flat = max(0.0, min(b, lo) - a)
    xa, xb = min(max(a, lo), hi), min(max(b, lo), hi)
    return flat + ((hi - xa) ** 2 - (hi - xb) ** 2) / (2.0 * (hi - lo))


@dataclass(frozen=True)
class Exponential(Distribution):
    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise DistributionError(f"rate must be positive, got {self.rate}")

    def _survival(self, x):
        return np.exp(-self.rate * x)

    def integrate_survival(self, a: float, b: float) -> float:
        _check_interval(a, b)
        r = self.rate
        return (math.exp(-r * a) - math.exp(-r * b)) / r

    def _inverse_cdf(self, u):
        # -log1p(-u) / rate; dividing log1p(-u) by -rate gives the same bits
        np.negative(u, out=u)
        np.log1p(u, out=u)
        u /= -self.rate
        return u

    def mean(self) -> float:
        return 1.0 / self.rate

    def sup_support(self) -> float:
        return math.inf

    def breakpoints(self) -> tuple[float, ...]:
        return ()

    def scaled(self, n: float) -> "Exponential":
        return Exponential(self.rate * n) if n != 1 else self


@dataclass(frozen=True)
class Deterministic(Distribution):
    """Point mass at ``value``. Not a valid deadline law (discontinuous CDF)."""

    value: float

    def __post_init__(self):
        if not self.value > 0:
            raise DistributionError(f"value must be positive, got {self.value}")

    def _survival(self, x):
        # Right-continuous: G(value) = 0.
        return (x < self.value).astype(float)

    def integrate_survival(self, a: float, b: float) -> float:
        _check_interval(a, b)
        return max(0.0, min(b, self.value) - a)

    def _inverse_cdf(self, u):
        u.fill(self.value)
        return u

    def mean(self) -> float:
        return self.value

    def sup_support(self) -> float:
        return self.value

    @property
    def is_continuous(self) -> bool:
        return False

    def scaled(self, n: float) -> "Deterministic":
        return Deterministic(self.value / n) if n != 1 else self


@dataclass(frozen=True)
class UniformInterval(Distribution):
    """Uniform law on [lo, hi) with 0 <= lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0 <= self.lo < self.hi):
            raise DistributionError(f"need 0 <= lo < hi, got lo={self.lo}, hi={self.hi}")

    def _survival(self, x):
        return np.clip((self.hi - x) / (self.hi - self.lo), 0.0, 1.0)

    def integrate_survival(self, a: float, b: float) -> float:
        _check_interval(a, b)
        return _uniform_integral(self.lo, self.hi, a, b)

    def _inverse_cdf(self, u):
        u *= self.hi - self.lo
        u += self.lo
        return u

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def sup_support(self) -> float:
        return self.hi

    def breakpoints(self) -> tuple[float, ...]:
        return (self.lo, self.hi)

    def scaled(self, n: float) -> "UniformInterval":
        return UniformInterval(self.lo / n, self.hi / n) if n != 1 else self


@dataclass(frozen=True)
class UniformMixture(Distribution):
    """Mixture of uniform intervals: components are (weight, lo, hi) triples.

    Weights must be positive and sum to 1. Overlapping and disjoint
    components are both allowed; a gap between components produces a flat
    stretch of the survival function, which is exactly what creates a
    nondegenerate equilibrium interval in the fluid model.
    """

    components: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        comps = tuple((float(w), float(lo), float(hi)) for w, lo, hi in self.components)
        object.__setattr__(self, "components", comps)
        _check_weights([w for w, _, _ in comps])
        for _, lo, hi in comps:
            if not (0 <= lo < hi):
                raise DistributionError(f"need 0 <= lo < hi, got lo={lo}, hi={hi}")
        # Piecewise-linear CDF knots for exact single-draw inversion.
        knots = sorted({lo for _, lo, _ in comps} | {hi for _, _, hi in comps})
        cdf_at = [math.fsum(self._component_cdf(x)) for x in knots]
        cdf_at[-1] = 1.0
        object.__setattr__(self, "_knots", tuple(knots))
        object.__setattr__(self, "_cdf_knots", np.array(cdf_at))
        # Per CDF piece i, between knots i and i + 1: its start, rise, left
        # knot and length. A uniform in [0, 1) never lands on a piece that
        # does not rise: the piece is the last one starting at or below it.
        object.__setattr__(self, "_f0", np.array(cdf_at[:-1]))
        object.__setattr__(self, "_df", np.diff(cdf_at))
        object.__setattr__(self, "_x0", np.array(knots[:-1]))
        object.__setattr__(self, "_dx", np.diff(knots))

    def _component_cdf(self, x: float):
        return [w * min(max((x - lo) / (hi - lo), 0.0), 1.0) for w, lo, hi in self.components]

    def _survival(self, x):
        return sum(w * np.clip((hi - x) / (hi - lo), 0.0, 1.0) for w, lo, hi in self.components)

    def integrate_survival(self, a: float, b: float) -> float:
        _check_interval(a, b)
        return math.fsum(w * _uniform_integral(lo, hi, a, b) for w, lo, hi in self.components)

    def _inverse_cdf(self, u):
        # Generalized inverse of the piecewise-linear CDF: one uniform per
        # sample, exact in closed form, monotone in u. The piece is the
        # number of interior CDF knots at or below u, so it starts at or
        # below u and the fraction into it is >= 0; rounding can take the
        # fraction above 1, so it is capped there. Each step transforms u in
        # place with a per-piece constant gathered from it.
        i = _piece(u, self._cdf_knots[1:-1])
        u -= self._f0.take(i)
        u /= self._df.take(i)
        np.minimum(u, 1.0, out=u)
        u *= self._dx.take(i)
        u += self._x0.take(i)
        return u

    def mean(self) -> float:
        return math.fsum(w * 0.5 * (lo + hi) for w, lo, hi in self.components)

    def sup_support(self) -> float:
        return max(hi for _, _, hi in self.components)

    def breakpoints(self) -> tuple[float, ...]:
        return self._knots

    def scaled(self, n: float) -> "UniformMixture":
        if n == 1:
            return self
        return UniformMixture(tuple((w, lo / n, hi / n) for w, lo, hi in self.components))


@dataclass(frozen=True)
class HyperExponential(Distribution):
    """Mixture of exponentials: components are (weight, rate) pairs.

    Sampling is by composition (Devroye, *Non-Uniform Random Variate
    Generation*, 1986, ch. II): the uniform u picks component j from the
    cumulative weights C, and the conditional uniform
    u' = (u - C_{j-1}) / (C_j - C_{j-1}) goes through that component's
    exponential quantile. This is still one uniform per variate, and j and
    u' do not depend on the rates, so ``scaled(n)`` samples are the base
    samples divided by n, up to rounding.
    """

    components: tuple[tuple[float, float], ...]

    def __post_init__(self):
        comps = tuple((float(w), float(r)) for w, r in self.components)
        object.__setattr__(self, "components", comps)
        _check_weights([w for w, _ in comps])
        for _, r in comps:
            if not r > 0:
                raise DistributionError(f"rates must be positive, got {r}")
        # Cumulative weights from 0 with the last forced to exactly 1, so
        # the components' shares [C_{j-1}, C_j) cover [0, 1).
        cum = np.concatenate(([0.0], np.cumsum([w for w, _ in comps])))
        cum[-1] = 1.0
        object.__setattr__(self, "_cum", cum)
        object.__setattr__(self, "_width", np.diff(cum))
        object.__setattr__(self, "_neg_rates", -np.array([r for _, r in comps]))

    def _survival(self, x):
        return sum(w * np.exp(-r * x) for w, r in self.components)

    def integrate_survival(self, a: float, b: float) -> float:
        _check_interval(a, b)
        return math.fsum(w * (math.exp(-r * a) - math.exp(-r * b)) / r
                         for w, r in self.components)

    def _inverse_cdf(self, u):
        # Composition: u picks component j, the conditional uniform u' goes
        # through its quantile -log1p(-u') / r_j. Rounding can take u' to 1,
        # so it is capped one ulp below; dividing log1p(-u') by -r_j gives
        # the bits of Exponential(r_j)'s -log1p(-u') / r_j. The component is
        # the number of interior cumulative weights at or below u, and u is
        # transformed in place.
        j = _piece(u, self._cum[1:-1])
        u -= self._cum.take(j)
        u /= self._width.take(j)
        np.minimum(u, _BELOW_ONE, out=u)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        u /= self._neg_rates.take(j)
        return u

    def mean(self) -> float:
        return math.fsum(w / r for w, r in self.components)

    def sup_support(self) -> float:
        return math.inf

    def breakpoints(self) -> tuple[float, ...]:
        return ()

    def scaled(self, n: float) -> "HyperExponential":
        if n == 1:
            return self
        return HyperExponential(tuple((w, r * n) for w, r in self.components))


@dataclass(frozen=True)
class Replay(Distribution):
    """Scripted sample list, for driving hand-computed traces in tests.

    Has no probability law: survival/integration/mean are unavailable, and
    any workflow that needs a law (fluid targets, convergence studies) must
    reject it. ``sample`` consumes the list left to right and fails when it
    runs out; the rng argument is ignored.
    """

    samples: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.samples)
        object.__setattr__(self, "samples", vals)
        if any(v <= 0 for v in vals):
            raise DistributionError("replay samples must be positive")
        object.__setattr__(self, "_cursor", [0])

    def survival(self, x):
        raise DistributionError("replay distribution has no survival function")

    def integrate_survival(self, a: float, b: float) -> float:
        raise DistributionError("replay distribution has no survival function")

    def sample(self, rng: np.random.Generator, size: int | None = None):
        count = 1 if size is None else int(size)
        cur = self._cursor[0]
        if cur + count > len(self.samples):
            raise DistributionError(
                f"replay exhausted: asked for {count}, {len(self.samples) - cur} left")
        self._cursor[0] = cur + count
        out = np.asarray(self.samples[cur:cur + count], dtype=float)
        return float(out[0]) if size is None else out

    def reset(self) -> None:
        self._cursor[0] = 0

    @property
    def remaining(self) -> int:
        return len(self.samples) - self._cursor[0]

    def mean(self) -> float:
        raise DistributionError("replay distribution has no mean")

    def sup_support(self) -> float:
        return max(self.samples)

    @property
    def is_continuous(self) -> bool:
        return False

    def scaled(self, n: float) -> "Replay":
        if n == 1:
            return self
        return Replay(tuple(v / n for v in self.samples))


def require_deadline_law(dist: Distribution) -> Distribution:
    """Validate a law for use as a patience/deadline distribution.

    Deadlines must have a continuous CDF; point masses are rejected.
    """
    if not dist.is_continuous:
        raise DistributionError(
            f"{type(dist).__name__} cannot be a deadline law: deadline CDFs must be continuous")
    return dist
