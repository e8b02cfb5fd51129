import random
from fractions import Fraction

import pytest

from trinities.geometry import (
    VPolytope,
    affine_dim,
    canonical_lattice_set,
    lattice_points,
    placing_triangulation,
    points_contain,
    prune_to_vertices,
    simplex_normalized_volume,
    total_normalized_volume,
)
from trinities.linalg import fvec, integer_rank

from oracles import intersect_in_common_face, rank


def test_canonical_lattice_set_dedupes_and_sorts():
    assert canonical_lattice_set([(1, 0), (0, 1), (1, 0)]) == ((0, 1), (1, 0))


def test_prune_to_vertices_drops_interior_points():
    pts = [(0, 0), (2, 0), (0, 2), (1, 1), (1, 0)]
    assert set(prune_to_vertices(pts)) == {fvec([0, 0]), fvec([2, 0]), fvec([0, 2])}


def test_membership_and_lattice_points_of_triangle():
    p = VPolytope.from_points([(0, 0), (2, 0), (0, 2)])
    assert points_contain(p.vertices, (1, 1)) and points_contain(p.vertices, (Fraction(1, 2), Fraction(1, 2)))
    assert not points_contain(p.vertices, (2, 1))
    assert lattice_points(p) == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))


def test_lattice_points_of_lower_dimensional_polytope():
    points = [(0, 0, 2), (0, 2, 0), (1, 1, 0), (1, 0, 1)]
    assert affine_dim(points) == 2
    assert lattice_points(VPolytope.from_points(points)) == ((0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0))


def test_affine_dim():
    assert affine_dim([(1, 2)]) == 0
    assert affine_dim([(0, 0), (1, 1), (2, 2)]) == 1
    assert affine_dim([(0, 0), (1, 0), (0, 1)]) == 2


def test_common_face_of_adjacent_simplices():
    assert intersect_in_common_face([(0, 0), (1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)])


def test_common_face_fails_for_crossing_simplices():
    # Segments crossing in their interiors share no common face.
    assert not intersect_in_common_face([(0, 0), (2, 2)], [(0, 2), (2, 0)])


def test_common_face_fails_for_overlapping_triangles():
    assert not intersect_in_common_face([(0, 0), (4, 0), (0, 4)], [(1, 1), (5, 1), (1, 5)])


def test_disjoint_simplices_are_fine():
    assert intersect_in_common_face([(0, 0), (1, 0)], [(3, 0), (4, 0)])


def shoelace_area2(pts):
    total = 0
    for i in range(len(pts)):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % len(pts)]
        total += x1 * y2 - x2 * y1
    return abs(total)


def test_placing_triangulation_volume_matches_shoelace():
    rng = random.Random(23)
    checked = 0
    while checked < 30:
        pts = sorted({(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(3, 8))})
        hull = [tuple(int(c) for c in v) for v in prune_to_vertices(pts)]
        if len(hull) < 3:
            continue
        # Order the hull counter-clockwise around its centroid for shoelace.
        cx = sum(p[0] for p in hull) / Fraction(len(hull))
        cy = sum(p[1] for p in hull) / Fraction(len(hull))
        import math

        ordered = sorted(hull, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
        assert total_normalized_volume(hull) == shoelace_area2(ordered)
        checked += 1


def test_placing_triangulation_covers_square():
    tri = placing_triangulation([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert sum(
        simplex_normalized_volume([[(0, 0), (1, 0), (0, 1), (1, 1)][i] for i in s]) for s in tri
    ) == 2


def test_integer_rank_matches_rational_rank():
    rng = random.Random(31)
    for _ in range(200):
        n_rows, n_cols = rng.randint(0, 6), rng.randint(1, 5)
        rows = [[rng.randint(-2, 2) for _ in range(n_cols)] for _ in range(n_rows)]
        assert integer_rank(rows) == rank(rows)
    assert integer_rank([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]]) == 3
