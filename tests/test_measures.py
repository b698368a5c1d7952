from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidq.measures import (AtomicMeasure2D, Box, box_masses, corner_distance,
                             corner_mass, eval_box, evolve, measure_rows,
                             rect_distance, upper_right)

dyadic = st.integers(0, 64).map(lambda n: n / 8.0)


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
    m = AtomicMeasure2D([(1.0, 2.0, 1.0)])
    assert eval_box(m, Box(1.0, 2.0, 2.0, 3.0)) == 1.0  # left edges included
    assert eval_box(m, Box(0.0, 1.0, 2.0, 3.0)) == 0.0  # right edges excluded
    assert eval_box(m, Box(1.0, 2.0, 0.0, 2.0)) == 0.0
    assert m(upper_right(0.0, 0.0)) == 1.0


def test_atoms_on_axes_are_dropped():
    m = AtomicMeasure2D([(0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (-1.0, 2.0, 1.0),
                         (2.0, 3.0, 0.5)])
    assert m.atoms() == [(2.0, 3.0, 0.5)]
    arrs = AtomicMeasure2D.from_arrays(
        np.array([0.0, 1.0]), np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    assert len(arrs) == 1
    with pytest.raises(ValueError):
        AtomicMeasure2D([(1.0, 1.0, 0.0)])


def test_measure_is_immutable():
    m = AtomicMeasure2D([(1.0, 2.0, 1.0)])
    with pytest.raises(ValueError):
        m.w[0] = 5.0


def test_evolve_example():
    m = AtomicMeasure2D([(2.0, 1.0, 1.0), (3.0, 4.0, 1.0)])
    assert evolve(m, 1.5).atoms() == [(1.5, 2.5, 1.0)]


def test_evolve_zero_step_is_identity():
    m = AtomicMeasure2D([(1.0, 2.0, 1.0), (3.0, 0.5, 2.0)])
    assert evolve(m, 0.0).atoms() == m.atoms()
    with pytest.raises(ValueError):
        evolve(m, -0.1)


@given(st.lists(st.tuples(dyadic, dyadic), max_size=12), dyadic, dyadic)
@settings(max_examples=100, deadline=None)
def test_evolve_is_a_semigroup_on_dyadic_atoms(coords, h1, h2):
    atoms = [(w + 0.125, p + 0.125, 1.0) for w, p in coords]
    m = AtomicMeasure2D(atoms)
    once = evolve(m, h1 + h2)
    twice = evolve(evolve(m, h1), h2)
    assert sorted(once.atoms()) == sorted(twice.atoms())


@given(st.lists(st.tuples(dyadic, dyadic), max_size=12), dyadic)
@settings(max_examples=100, deadline=None)
def test_evolve_conserves_mass(coords, h):
    """An atom stays exactly when both its coordinates exceed the step."""
    atoms = [(w + 0.125, p + 0.125, 1.0) for w, p in coords]
    m = AtomicMeasure2D(atoms)
    staying = sum(mass for w, p, mass in atoms if w > h and p > h)
    assert evolve(m, h).total_mass == staying


def test_corner_mass_examples():
    m = AtomicMeasure2D([(1.0, 5.0, 1.0)])
    assert corner_mass(m, [(1.0, 0.0)], (0.1,)).tolist() == [[1.0]]
    assert corner_mass(m, [(3.0, 3.0)], (0.5, 2.5)).tolist() == [[0.0, 1.0]]
    assert corner_mass(m, [(1.0, 0.0), (3.0, 3.0)], (0.5,)).tolist() == [[1.0], [0.0]]
    with pytest.raises(ValueError):
        corner_mass(m, [(1.0, 0.0)], (0.1, 0.0))
    with pytest.raises(ValueError):
        corner_mass(m, [(math.inf, 0.0)], (0.1,))


def test_corner_mass_counts_both_rays():
    near_vertical = AtomicMeasure2D([(1.05, 7.0, 1.0)])
    near_horizontal = AtomicMeasure2D([(6.0, 2.04, 2.0)])
    assert corner_mass(near_vertical, [(1.0, 2.0)], (0.1,)).tolist() == [[1.0]]
    assert corner_mass(near_horizontal, [(1.0, 2.0)], (0.1,)).tolist() == [[2.0]]
    # strictly inside the box but away from its boundary rays
    far = AtomicMeasure2D([(5.0, 5.0, 1.0)])
    assert corner_mass(far, [(1.0, 2.0)], (0.1,)).tolist() == [[0.0]]


radius = st.floats(1e-3, 10.0)


@given(st.lists(st.tuples(dyadic, dyadic, st.integers(1, 4)), max_size=12),
       dyadic, dyadic, st.lists(radius, min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_corner_mass_matches_per_radius_distances(atoms, x, y, kappas):
    m = AtomicMeasure2D(atoms)
    dist = corner_distance(m.w, m.p, x, y)
    assert corner_mass(m, [(x, y)], kappas).tolist() == [[
        float(m.mass[dist < kappa].sum()) for kappa in kappas]]
    masses = corner_mass(m, [(x, y)], sorted(kappas))[0]
    assert all(a <= b for a, b in zip(masses, masses[1:]))


@given(dyadic, dyadic, st.lists(radius, max_size=5),
       st.floats(-10.0, 0.0) | st.just(math.nan))
@settings(max_examples=50, deadline=None)
def test_corner_mass_empty_measure_and_bad_radius(x, y, kappas, bad):
    empty = AtomicMeasure2D()
    assert corner_mass(empty, [(x, y)], kappas).tolist() == [[0.0] * len(kappas)]
    for m in (empty, AtomicMeasure2D([(1.0, 1.0, 1.0)])):
        with pytest.raises(ValueError):
            corner_mass(m, [(x, y)], [*kappas, bad])


@st.composite
def corner_case(draw):
    """Integer-mass atoms, corners and radii; each atom sits near one corner,
    on its lines x and y, at x +- kappa and y +- kappa, one ulp off them,
    or anywhere on the dyadic grid."""
    corners = draw(st.lists(st.tuples(dyadic, dyadic), min_size=1, max_size=4))
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
    return AtomicMeasure2D(atoms), corners, kappas


@given(corner_case())
@settings(max_examples=200, deadline=None)
def test_multi_corner_mass_equals_corner_distance_counts(case):
    m, corners, kappas = case
    want = [[float(m.mass[corner_distance(m.w, m.p, x, y) < k].sum()) for k in kappas]
            for x, y in corners]
    assert corner_mass(m, corners, kappas).tolist() == want


right_edge = dyadic | st.just(math.inf)


@given(st.lists(st.tuples(dyadic, dyadic, st.integers(1, 4)), max_size=30),
       st.lists(st.tuples(dyadic, right_edge, dyadic, right_edge), min_size=1,
                max_size=8))
@settings(max_examples=200, deadline=None)
def test_box_masses_equal_eval_box(atoms, corners):
    m = AtomicMeasure2D(atoms)
    boxes = [Box(min(a, b), max(a, b), min(c, d), max(c, d)) for a, b, c, d in corners]
    edges = np.array([(box.a, box.b, box.c, box.d) for box in boxes]).T
    assert box_masses(m, *edges).tolist() == [eval_box(m, box) for box in boxes]


def test_rect_distance_example():
    a = AtomicMeasure2D([(1.0, 1.0, 1.0)])
    b = AtomicMeasure2D([(1.0, 1.0, 0.75)])
    grid = [upper_right(0.0, 0.0), upper_right(0.5, 0.5)]
    assert rect_distance(a, b, grid) == 0.25
    assert rect_distance(a, a, grid) == 0.0
    with pytest.raises(ValueError):
        rect_distance(a, b, [])


def test_rect_distance_accepts_callables():
    a = AtomicMeasure2D([(1.0, 1.0, 1.0)])
    grid = [upper_right(0.0, 0.0), upper_right(2.0, 0.0)]
    assert rect_distance(a, lambda box: 0.0, grid) == 1.0


@given(st.lists(st.tuples(dyadic, dyadic), max_size=8),
       st.lists(st.tuples(dyadic, dyadic), max_size=8))
@settings(max_examples=60, deadline=None)
def test_rect_distance_is_a_pseudometric(xs, ys):
    a = AtomicMeasure2D([(w + 0.125, p + 0.125, 1.0) for w, p in xs])
    b = AtomicMeasure2D([(w + 0.125, p + 0.125, 1.0) for w, p in ys])
    grid = [upper_right(x, y) for x in (0.0, 1.0, 2.0) for y in (0.0, 1.0, 2.0)]
    assert rect_distance(a, a, grid) == 0.0
    assert rect_distance(a, b, grid) == rect_distance(b, a, grid)


def test_box_partition_additivity():
    m = AtomicMeasure2D([(0.3, 0.7, 1.0), (1.2, 0.4, 0.5), (0.9, 1.9, 2.0)])
    whole = Box(0.0, 2.0, 0.0, 2.0)
    parts = [Box(x, x + 0.5, y, y + 0.5)
             for x in np.arange(0.0, 2.0, 0.5) for y in np.arange(0.0, 2.0, 0.5)]
    assert sum(m(b) for b in parts) == pytest.approx(m(whole), abs=1e-12)


def test_measure_rows_for_export():
    m = AtomicMeasure2D([(1.0, 2.0, 1.0), (3.0, 4.0, 0.5)], class_id=1)
    assert measure_rows(m) == [(1, 1.0, 2.0, 1.0), (1, 3.0, 4.0, 0.5)]
