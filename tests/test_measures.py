from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fluidq.measures import (BIN_BLOCK, BUCKET_MIN_ATOMS, AtomicMeasure2D, Box,
                             _bin, _bucket_bin, _corner_cuts, _strip_distances, box_masses,
                             corner_distance, corner_mass, eval_box, evolve,
                             measure_rows, rect_distance, upper_right)

dyadic = st.integers(0, 64).map(lambda n: n / 8.0)


def repeated(atoms):
    """(w, p) pairs with each (w, p, m) written as m coincident atoms."""
    return [(w, p) for w, p, m in atoms for _ in range(m)]


def test_box_validation_and_shift():
    box = Box(1.0, 2.0, 2.0, 3.0)
    assert box.shifted(0.5) == Box(1.5, 2.5, 2.5, 3.5)
    assert box.area == 1.0
    assert upper_right(0.5, 0.0) == Box(0.5, math.inf, 0.0, math.inf)
    with pytest.raises(ValueError):
        Box(2.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Box(-1.0, 1.0, 0.0, 1.0)


def test_eval_box_half_open_edges():
    m = AtomicMeasure2D([(1.0, 2.0)])
    assert eval_box(m, Box(1.0, 2.0, 2.0, 3.0)) == 1.0  # left edges included
    assert eval_box(m, Box(0.0, 1.0, 2.0, 3.0)) == 0.0  # right edges excluded
    assert eval_box(m, Box(1.0, 2.0, 0.0, 2.0)) == 0.0
    assert m(upper_right(0.0, 0.0)) == 1.0


def test_atoms_on_axes_are_dropped():
    m = AtomicMeasure2D([(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0), (2.0, 3.0), (2.0, 3.0)])
    assert m.atoms() == [(2.0, 3.0), (2.0, 3.0)]
    assert m.total_mass == 2.0
    arrs = AtomicMeasure2D.from_arrays(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    assert len(arrs) == 1


def test_atoms_must_be_pairs():
    assert len(AtomicMeasure2D()) == 0
    for atoms in ([(1.0, 2.0, 1.0)], [(1.0, 2.0, 1.0), (3.0, 4.0, 1.0)], [1.0, 2.0]):
        with pytest.raises(ValueError):
            AtomicMeasure2D(atoms)


def test_measure_is_immutable():
    m = AtomicMeasure2D([(1.0, 2.0)])
    with pytest.raises(ValueError):
        m.w[0] = 5.0
    with pytest.raises(ValueError):
        AtomicMeasure2D.from_arrays(np.array([1.0]), np.array([2.0])).p[0] = 5.0


def test_evolve_example():
    m = AtomicMeasure2D([(2.0, 1.0), (3.0, 4.0), (3.0, 4.0)], class_id=2)
    moved = evolve(m, 1.5)
    assert moved.atoms() == [(1.5, 2.5), (1.5, 2.5)]
    assert moved.class_id == 2


def test_evolve_zero_step_is_identity():
    m = AtomicMeasure2D([(1.0, 2.0), (3.0, 0.5), (3.0, 0.5)])
    assert evolve(m, 0.0).atoms() == m.atoms()
    with pytest.raises(ValueError):
        evolve(m, -0.1)


@given(st.lists(st.tuples(dyadic, dyadic), max_size=12), dyadic, dyadic)
@settings(max_examples=100, deadline=None)
def test_evolve_is_a_semigroup_on_dyadic_atoms(coords, h1, h2):
    m = AtomicMeasure2D([(w + 0.125, p + 0.125) for w, p in coords])
    once = evolve(m, h1 + h2)
    twice = evolve(evolve(m, h1), h2)
    assert sorted(once.atoms()) == sorted(twice.atoms())


@given(st.lists(st.tuples(dyadic, dyadic, st.integers(1, 3)), max_size=12), dyadic)
@settings(max_examples=100, deadline=None)
def test_evolve_conserves_mass(coords, h):
    """An atom stays exactly when both its coordinates exceed the step;
    coincident atoms stay or leave together."""
    atoms = repeated([(w + 0.125, p + 0.125, m) for w, p, m in coords])
    staying = sum(1 for w, p in atoms if w > h and p > h)
    assert evolve(AtomicMeasure2D(atoms), h).total_mass == staying


def test_corner_mass_examples():
    m = AtomicMeasure2D([(1.0, 5.0)])
    assert corner_mass(m, [(1.0, 0.0)], (0.1,)).tolist() == [[1.0]]
    assert corner_mass(m, [(3.0, 3.0)], (0.5, 2.5)).tolist() == [[0.0, 1.0]]
    assert corner_mass(m, [(1.0, 0.0), (3.0, 3.0)], (0.5,)).tolist() == [[1.0], [0.0]]
    with pytest.raises(ValueError):
        corner_mass(m, [(1.0, 0.0)], (0.1, 0.0))
    with pytest.raises(ValueError):
        corner_mass(m, [(math.inf, 0.0)], (0.1,))


def test_corner_mass_counts_both_rays():
    near_vertical = AtomicMeasure2D([(1.05, 7.0)])
    near_horizontal = AtomicMeasure2D([(6.0, 2.04), (6.0, 2.04)])
    assert corner_mass(near_vertical, [(1.0, 2.0)], (0.1,)).tolist() == [[1.0]]
    assert corner_mass(near_horizontal, [(1.0, 2.0)], (0.1,)).tolist() == [[2.0]]
    # strictly inside the box but away from its boundary rays
    far = AtomicMeasure2D([(5.0, 5.0)])
    assert corner_mass(far, [(1.0, 2.0)], (0.1,)).tolist() == [[0.0]]


radius = st.floats(1e-3, 10.0)


@given(st.lists(st.tuples(dyadic, dyadic, st.integers(1, 4)), max_size=12),
       dyadic, dyadic, st.lists(radius, min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_corner_mass_matches_per_radius_distances(atoms, x, y, kappas):
    m = AtomicMeasure2D(repeated(atoms))
    dist = corner_distance(m.w, m.p, x, y)
    assert corner_mass(m, [(x, y)], kappas).tolist() == [[
        float(np.count_nonzero(dist < kappa)) for kappa in kappas]]
    masses = corner_mass(m, [(x, y)], sorted(kappas))[0]
    assert all(a <= b for a, b in zip(masses, masses[1:]))


@given(dyadic, dyadic, st.lists(radius, max_size=5),
       st.floats(-10.0, 0.0) | st.just(math.nan))
@settings(max_examples=50, deadline=None)
def test_corner_mass_empty_measure_and_bad_radius(x, y, kappas, bad):
    empty = AtomicMeasure2D()
    assert corner_mass(empty, [(x, y)], kappas).tolist() == [[0.0] * len(kappas)]
    for m in (empty, AtomicMeasure2D([(1.0, 1.0)])):
        with pytest.raises(ValueError):
            corner_mass(m, [(x, y)], [*kappas, bad])


@given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(1e-300, 1e3),
       st.floats(1e-300, 1e3))
@settings(max_examples=300, deadline=None)
def test_corner_distance_is_one_hypot_below_left(x, y, dx, dy):
    """Below-left of the corner both branches of corner_distance are
    hypot(x - w, y - p), which corner_mass computes alone."""
    w, p = x - dx, y - dy
    assume(w < x and p < y)
    want = corner_distance(np.array([w]), np.array([p]), x, y)
    assert np.hypot(x - w, y - p).view(np.int64) == want.view(np.int64)[0]


def ulps(v, n):
    """The float n ulps above v (below for n < 0)."""
    for _ in range(abs(n)):
        v = math.nextafter(v, math.copysign(math.inf, n))
    return v


@given(st.sampled_from([(3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29)]),
       st.sampled_from([-20, 0, 20]) | st.integers(-24, 24),
       st.integers(0, 8), st.integers(0, 8), st.lists(st.integers(-4, 4), min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_corner_mass_at_kappa_and_a_few_ulps_off_it(triple, e, a, b, shifts, nudges):
    """Atoms below-left of a corner at distance exactly kappa (a Pythagorean
    triple scaled by 2^e, so 2^-20 to 2^20 covers time units of 1e-6 to
    1e6), and moved by up to 4 ulps in w and p; radii at kappa and up to 4
    ulps off it, some atoms repeated. Each corner count equals np.hypot's,
    in input order and in w order."""
    sx, sy, sk = triple
    s = 2.0 ** e
    x, y = (a + sx) * s, (b + sy) * s
    w0, p0 = a * s, b * s
    assert np.hypot(x - w0, y - p0) == sk * s
    atoms = [(w0, p0)] + [(ulps(w0, i), ulps(p0, j)) for i, j in nudges]
    atoms = [(w, p) for w, p in atoms if 0 < w < x and 0 < p < y]
    assume(atoms)
    kappas = [ulps(sk * s, n) for n in shifts]
    m = AtomicMeasure2D(repeated((w, p, 1 + i % 3) for i, (w, p) in enumerate(atoms)))
    dist = corner_distance(m.w, m.p, x, y)
    want = [[float(np.count_nonzero(dist < k)) for k in kappas]]
    assert corner_mass(m, [(x, y)], kappas).tolist() == want
    order = np.argsort(m.w, kind="stable")
    in_order = AtomicMeasure2D.from_arrays(m.w[order], m.p[order])
    assert corner_mass(in_order, [(x, y)], kappas).tolist() == want


@given(st.floats(1e-320, 1e300), st.floats(0.0, 1e300), st.integers(-6, 6),
       st.sampled_from([1.0, 1e-6, 1e6, 1e-160, 1e160, 1e200]))
@settings(max_examples=300, deadline=None)
def test_strip_distances_compare_as_hypot(dx, ratio, n, other):
    """Over the whole float range, subnormal squares and radii too large to
    square included, the distances _strip_distances returns fall on the side
    of each radius that np.hypot's do; some radii sit within 6 ulps of
    np.hypot. Atoms at (-dx, -dy) put the corner (0, 0) at (dx, dy) from
    them, exactly, and every atom is within the largest radius of it in
    both coordinates, as in corner_mass's strips."""
    dy = np.array([dx * ratio if math.isfinite(dx * ratio) else dx, dx, 0.0, dx / 3])
    dx = np.full(4, dx)
    exact = np.hypot(dx, dy)
    kappas = np.array([ulps(float(exact[0]), n), ulps(float(exact[3]), -n), other])
    kappas = kappas[(kappas > 0) & np.isfinite(kappas)]
    near = np.flatnonzero(np.maximum(dx, dy) < kappas.max())
    got = _strip_distances(0.0, 0.0, -dx, -dy, near, kappas)
    assert np.array_equal(got[:, None] < kappas, exact[near, None] < kappas)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1e-6, 1.0, 1e6]))
@settings(max_examples=50, deadline=None)
def test_strip_distances_where_sqrt_and_hypot_differ(seed, scale):
    """Radii at the atoms' own np.hypot values where sqrt(dx*dx + dy*dy)
    differs from it, and at a few such sqrts: each atom is counted on
    np.hypot's side of every radius."""
    rng = np.random.default_rng(seed)
    dx, dy = rng.random(256) * scale, rng.random(256) * scale
    exact = np.hypot(dx, dy)
    squares = np.sqrt(dx * dx + dy * dy)
    differ = np.flatnonzero(squares != exact)[:4]
    assume(len(differ))
    kappas = np.concatenate([exact[differ], squares[differ[:1]]])
    near = np.flatnonzero(np.maximum(dx, dy) < kappas.max())
    got = _strip_distances(0.0, 0.0, -dx, -dy, near, kappas)
    assert np.array_equal(got[:, None] < kappas, exact[near, None] < kappas)


@st.composite
def corner_case(draw):
    """Atoms, some coincident, corners and radii; each atom sits near one corner,
    on its lines x and y, at x +- kappa and y +- kappa, one ulp off them,
    or anywhere on the dyadic grid. The corners are drawn one by one, or as
    a grid of one or two x by two to four y, so that corners share an x
    (as the harness's corner points do), with squares that may overlap."""
    grid = st.builds(lambda xs, ys: [(x, y) for x in xs for y in ys],
                     st.lists(dyadic, min_size=1, max_size=2, unique=True),
                     st.lists(dyadic, min_size=2, max_size=4, unique=True))
    corners = draw(st.lists(st.tuples(dyadic, dyadic), min_size=1, max_size=4) | grid)
    kappas = draw(st.lists(st.sampled_from((0.1, 0.125, 0.3, 0.5, 1.0, 2.75))
                           | radius, min_size=1, max_size=4))

    def near(v):
        lines = {v} | {v + s * k for k in kappas for s in (-1, 1)}
        return sorted(lines | {math.nextafter(e, to) for e in lines
                               for to in (-math.inf, math.inf)})

    atoms = []
    for _ in range(draw(st.integers(0, 30))):
        x, y = draw(st.sampled_from(corners))
        atoms.append((draw(st.sampled_from(near(x)) | dyadic),
                      draw(st.sampled_from(near(y)) | dyadic), draw(st.integers(1, 4))))
    return AtomicMeasure2D(repeated(atoms)), corners, kappas


@given(corner_case())
@settings(max_examples=200, deadline=None)
def test_multi_corner_mass_equals_corner_distance_counts(case):
    """In drawn order, and with the same atoms in w order (a snapshot's),
    each corner's mass is its corner_distance count."""
    m, corners, kappas = case
    want = [[float(np.count_nonzero(corner_distance(m.w, m.p, x, y) < k)) for k in kappas]
            for x, y in corners]
    assert corner_mass(m, corners, kappas).tolist() == want
    order = np.argsort(m.w, kind="stable")
    in_order = AtomicMeasure2D.from_arrays(m.w[order], m.p[order])
    assert corner_mass(in_order, corners, kappas).tolist() == want


def test_one_ulp_inversion_in_w_is_binned_exactly():
    """A measure whose w steps back by one ulp right at an edge: the sorted
    fast path would put both atoms of the pair on one side of it."""
    below = math.nextafter(1.0, 0.0)
    m = AtomicMeasure2D(repeated([(0.5, 2.0, 1), (1.0, 0.95, 2), (below, 1.9, 1),
                                  (below, 0.5, 3), (1.5, 1.0, 1), (2.0, 0.25, 1)]))
    assert np.sum(np.diff(m.w) < 0) == 1
    boxes = [Box(1.0, math.inf, 0.0, math.inf), Box(0.0, 1.0, 1.0, 2.0),
             Box(below, 1.0, 0.0, math.inf), Box(1.0, 1.5, 0.5, 1.0)]
    edges = np.array([(box.a, box.b, box.c, box.d) for box in boxes]).T
    assert box_masses(m, *edges).tolist() == [eval_box(m, box) for box in boxes]
    assert box_masses(m, *edges).tolist() == [4.0, 1.0, 4.0, 2.0]
    corners, kappas = [(1.0, 1.0), (1.0 + 0.05, 1.0)], (0.05, 0.1, 0.5)
    want = [[float(np.count_nonzero(corner_distance(m.w, m.p, x, y) < k)) for k in kappas]
            for x, y in corners]
    assert corner_mass(m, corners, kappas).tolist() == want


def edge_set(kind, rng):
    """Sorted distinct edges: a spread grid with ulp neighbours, 0 and 3
    with a cluster too tight for any bucket (nine floats around 1), or one
    finite edge; each with +inf."""
    if kind == "spread":
        base = rng.choice(np.arange(0.0, 4.0, 0.125), 12)
        edges = np.concatenate([base, np.nextafter(base, np.inf), [-0.5]])
    elif kind == "clustered":
        edges = np.append(1.0 + np.arange(-4, 5) * np.spacing(1.0), [0.0, 3.0])
    else:
        edges = np.array([1.0])
    return np.unique(np.append(edges, np.inf))


@given(seed=st.integers(0, 2**32 - 1),
       n=st.sampled_from((0, 1, 7, BUCKET_MIN_ATOMS - 1, BUCKET_MIN_ATOMS,
                          BUCKET_MIN_ATOMS + BIN_BLOCK + 1)),
       kind=st.sampled_from(("spread", "clustered", "single")), ordered=st.booleans())
@settings(max_examples=80, deadline=None)
def test_bin_equals_searchsorted_on_every_path(seed, n, kind, ordered):
    """_bin against np.searchsorted(edges, values, "right"), with values on
    the edges, one ulp off them and anywhere: sorted values (searched into),
    unsorted ones below and above BUCKET_MIN_ATOMS (searchsorted, buckets),
    and edges that buckets cannot separate."""
    rng = np.random.default_rng(seed)
    edges = edge_set(kind, rng)
    finite = edges[np.isfinite(edges)]
    pool = np.concatenate([finite, np.nextafter(finite, -np.inf), np.nextafter(finite, np.inf),
                           [np.inf, 1e300]])
    values = np.where(rng.random(n) < 0.5, rng.choice(pool, n), rng.uniform(-1.0, 5.0, n))
    if ordered:
        values.sort()
    want = np.searchsorted(edges, values, side="right")
    assert _bin(values, edges).tolist() == want.tolist()
    bucketed = _bucket_bin(values, edges)
    assert (bucketed is None) == (kind != "spread")
    if bucketed is not None:
        assert bucketed.tolist() == want.tolist()


@st.composite
def permuted_case(draw):
    """A corner_case grown to n atoms on either side of BUCKET_MIN_ATOMS
    (coordinates drawn with replacement from the corner lines, their
    kappa-offsets, one ulp off those, and the dyadic grid) in runs of one
    to four coincident atoms, plus a permutation of its atoms."""
    corners = draw(st.lists(st.tuples(dyadic, dyadic), min_size=1, max_size=4))
    kappas = draw(st.lists(st.sampled_from((0.1, 0.125, 0.3, 0.5, 1.0, 2.75))
                           | radius, min_size=1, max_size=4))
    n = draw(st.sampled_from((2, 40, BUCKET_MIN_ATOMS - 1, 2 * BUCKET_MIN_ATOMS + 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def pool(vs):
        lines = np.array([v + s * k for v in vs for k in (0.0, *kappas) for s in (-1, 1)])
        return np.concatenate([lines, np.nextafter(lines, -np.inf),
                               np.nextafter(lines, np.inf), np.arange(0.125, 8.0, 0.125)])

    xs, ys = zip(*corners)
    w, p = rng.choice(pool(xs), n), rng.choice(pool(ys), n)
    order = np.argsort(w, kind="stable")
    runs = rng.integers(1, 5, n)
    w, p = (np.repeat(a[order], runs)[:n] for a in (w, p))
    m = AtomicMeasure2D.from_arrays(w, p)
    return m, corners, kappas, rng.permutation(len(m))


@given(permuted_case())
@settings(max_examples=40, deadline=None)
def test_box_and_corner_masses_ignore_atom_order(case):
    """The same atoms sorted by w (the FIFO fast path) and permuted (the
    fallback), at sizes on both sides of BUCKET_MIN_ATOMS: equal box and
    corner masses, equal to eval_box and to the corner_distance counts."""
    m, corners, kappas, perm = case
    shuffled = AtomicMeasure2D.from_arrays(m.w[perm], m.p[perm])
    boxes = [upper_right(x, y) for x, y in corners] + [
        Box(x, x + k, y, y + k) for (x, y), k in zip(corners, kappas)]
    edges = np.array([(box.a, box.b, box.c, box.d) for box in boxes]).T
    want = [eval_box(m, box) for box in boxes]
    assert box_masses(m, *edges).tolist() == want
    assert box_masses(shuffled, *edges).tolist() == want
    want = [[float(np.count_nonzero(corner_distance(m.w, m.p, x, y) < k)) for k in kappas]
            for x, y in corners]
    assert corner_mass(m, corners, kappas).tolist() == want
    assert corner_mass(shuffled, corners, kappas).tolist() == want


def test_corner_cuts_are_cached_and_read_only(monkeypatch):
    """corner_mass bisects its cut points once per distinct (corners,
    kappas), and hands out the cached arrays read-only."""
    from fluidq import numerics

    m = AtomicMeasure2D([(1.0, 1.0)])
    corners, kappas = ((0.5, 0.75), (1.25, 1.0)), (0.2, 0.7)
    bisect = numerics.bisect_leftmost
    calls = []

    def counting(*args):
        calls.append(1)
        return bisect(*args)

    monkeypatch.setattr(numerics, "bisect_leftmost", counting)
    _corner_cuts.cache_clear()
    first = corner_mass(m, corners, kappas)
    assert corner_mass(m, [list(c) for c in corners], list(kappas)).tolist() == first.tolist()
    assert len(calls) == 4
    corner_mass(m, corners, (0.2,))
    assert len(calls) == 8
    cuts = _corner_cuts(corners, kappas)
    assert all(not cut.flags.writeable and cut.shape == (2, 2) for cut in cuts)


right_edge = dyadic | st.just(math.inf)


@given(st.lists(st.tuples(dyadic, dyadic, st.integers(1, 4)), max_size=30),
       st.lists(st.tuples(dyadic, right_edge, dyadic, right_edge), min_size=1,
                max_size=8))
@settings(max_examples=200, deadline=None)
def test_box_masses_equal_eval_box(atoms, corners):
    m = AtomicMeasure2D(repeated(atoms))
    boxes = [Box(min(a, b), max(a, b), min(c, d), max(c, d)) for a, b, c, d in corners]
    edges = np.array([(box.a, box.b, box.c, box.d) for box in boxes]).T
    assert box_masses(m, *edges).tolist() == [eval_box(m, box) for box in boxes]


def test_rect_distance_example():
    a = AtomicMeasure2D([(1.0, 1.0)])
    b = AtomicMeasure2D([(1.0, 1.0), (1.0, 1.0), (2.0, 2.0)])
    grid = [upper_right(0.0, 0.0), upper_right(1.5, 1.5)]
    assert rect_distance(a, b, grid) == 2.0
    assert rect_distance(a, a, grid) == 0.0
    with pytest.raises(ValueError):
        rect_distance(a, b, [])


def test_rect_distance_accepts_callables():
    a = AtomicMeasure2D([(1.0, 1.0)])
    grid = [upper_right(0.0, 0.0), upper_right(2.0, 0.0)]
    assert rect_distance(a, lambda box: 0.0, grid) == 1.0


@given(st.lists(st.tuples(dyadic, dyadic), max_size=8),
       st.lists(st.tuples(dyadic, dyadic), max_size=8))
@settings(max_examples=60, deadline=None)
def test_rect_distance_is_a_pseudometric(xs, ys):
    a = AtomicMeasure2D([(w + 0.125, p + 0.125) for w, p in xs])
    b = AtomicMeasure2D([(w + 0.125, p + 0.125) for w, p in ys])
    grid = [upper_right(x, y) for x in (0.0, 1.0, 2.0) for y in (0.0, 1.0, 2.0)]
    assert rect_distance(a, a, grid) == 0.0
    assert rect_distance(a, b, grid) == rect_distance(b, a, grid)


def test_box_partition_additivity():
    m = AtomicMeasure2D(repeated([(0.3, 0.7, 1), (1.2, 0.4, 1), (0.9, 1.9, 2), (2.0, 1.0, 1)]))
    whole = Box(0.0, 2.0, 0.0, 2.0)
    parts = [Box(x, x + 0.5, y, y + 0.5)
             for x in np.arange(0.0, 2.0, 0.5) for y in np.arange(0.0, 2.0, 0.5)]
    assert sum(m(b) for b in parts) == m(whole) == 4.0


def test_measure_rows_for_export():
    m = AtomicMeasure2D([(1.0, 2.0), (3.0, 4.0), (3.0, 4.0)], class_id=1)
    assert measure_rows(m) == [(1, 1.0, 2.0, 1.0), (1, 3.0, 4.0, 1.0), (1, 3.0, 4.0, 1.0)]


coordinate = dyadic | dyadic.map(lambda v: math.nextafter(v, math.inf))


@st.composite
def counting_atoms(draw):
    """(w, p) of up to 30 atoms on the dyadic grid or one ulp above it, in
    any order or in w order; w in order may step back by one ulp once, as a
    snapshot's rounding can leave it."""
    pairs = draw(st.lists(st.tuples(coordinate, coordinate), max_size=30))
    w, p = (np.array(col, dtype=float).reshape(-1) for col in zip(*pairs or [((), ())]))
    if draw(st.booleans()):
        order = np.argsort(w, kind="stable")
        w, p = w[order], p[order]
        if len(w) > 1 and draw(st.booleans()):
            i = draw(st.integers(1, len(w) - 1))
            w[i] = math.nextafter(w[i - 1], -math.inf)
    return w, p


box_edges = st.lists(st.tuples(dyadic, right_edge, dyadic, right_edge), min_size=1,
                     max_size=6).map(
    lambda rows: [Box(min(a, b), max(a, b), min(c, d), max(c, d)) for a, b, c, d in rows])


def edges_of(boxes):
    return np.array([(box.a, box.b, box.c, box.d) for box in boxes]).T


corner_sets = st.lists(st.tuples(dyadic, dyadic), min_size=1, max_size=4)
radii = st.lists(st.sampled_from((0.125, 0.3, 1.0)) | radius, min_size=1, max_size=3)


@given(counting_atoms(), box_edges, st.data())
@settings(max_examples=150, deadline=None)
def test_kept_table_answers_equal_fresh_binning(atoms, first, data):
    """After box_masses on one set of boxes, a counting measure answers a
    second set exactly as a fresh copy of it does: from the kept table when
    every edge lies on its grids (subsets of the first set's edges), after
    binning again otherwise. Empty measures and one-ulp inversions in w
    included."""
    w, p = atoms
    m = AtomicMeasure2D.from_arrays(w, p)
    box_masses(m, *edges_of(first))
    kept = m._table
    subset = data.draw(st.booleans())
    if subset:
        ws = sorted({e for box in first for e in (box.a, box.b)})
        ps = sorted({e for box in first for e in (box.c, box.d)})
        pick = st.tuples(st.sampled_from(ws), st.sampled_from(ws),
                         st.sampled_from(ps), st.sampled_from(ps))
        second = [Box(min(a, b), max(a, b), min(c, d), max(c, d))
                  for a, b, c, d in data.draw(st.lists(pick, min_size=1, max_size=6))]
    else:
        second = data.draw(box_edges)
    got = box_masses(m, *edges_of(second)).tolist()
    assert (m._table is kept) or not subset
    assert got == box_masses(AtomicMeasure2D.from_arrays(w, p), *edges_of(second)).tolist()
    assert got == [eval_box(m, box) for box in second]


@given(counting_atoms(), corner_sets, radii)
@settings(max_examples=100, deadline=None)
def test_corner_probe_table_serves_the_rectangle_grid(atoms, corners, kappas):
    """The harness's order: corner_mass, then box_masses on the upper-right
    rectangles at the corners. The rectangles' edges lie on the corner
    probe's grid, so they are read from its table, and equal a fresh
    binning and eval_box."""
    w, p = atoms
    m = AtomicMeasure2D.from_arrays(w, p)
    assert corner_mass(m, corners, kappas).tolist() == \
        corner_mass(AtomicMeasure2D.from_arrays(w, p), corners, kappas).tolist()
    kept = m._table
    boxes = [upper_right(x, y) for x, y in corners]
    got = box_masses(m, *edges_of(boxes)).tolist()
    if len(m):  # an empty measure's corner masses need no table
        assert kept is not None and m._table is kept
    assert got == box_masses(AtomicMeasure2D.from_arrays(w, p), *edges_of(boxes)).tolist()
    assert got == [eval_box(m, box) for box in boxes]
