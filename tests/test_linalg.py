import random
from fractions import Fraction
from itertools import permutations

import pytest

from trinities.linalg import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    DimensionError,
    fvec,
    integer_det,
    lp_solve,
    simplex_normalized_volume,
)

from oracles import det_exact, fmat, rank, solve_affine


def laplace_det(m):
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * Fraction(m[0][j]) * laplace_det(minor)
    return total


def test_det_matches_cofactor_expansion_on_random_matrices():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(0, 5)
        m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        assert det_exact(m) == laplace_det(m)


def test_integer_det_matches_cofactor_expansion_on_random_matrices():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(0, 6)
        m = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
        d = integer_det(m)
        assert type(d) is int and d == laplace_det(m)


def test_det_empty_and_singular():
    assert det_exact([]) == 1
    assert det_exact([[1, 2], [2, 4]]) == 0


def test_det_rejects_non_square():
    with pytest.raises(DimensionError):
        det_exact([[1, 2, 3], [4, 5, 6]])


def test_rank():
    assert rank([]) == 0
    assert rank([[0, 0]]) == 0
    assert rank([[1, 2], [2, 4], [0, 1]]) == 2
    assert rank(fmat([[1, 0, 1], [0, 1, 1], [1, 1, 2]])) == 2


def test_solve_affine():
    cols = [fvec([1, 0]), fvec([1, 1])]
    sol = solve_affine(cols, fvec([3, 2]))
    assert sol == (Fraction(1), Fraction(2))
    assert solve_affine([fvec([1, 1])], fvec([1, 2])) is None


def test_lp_basic_optimum():
    # maximize x + y subject to x + y + s = 1
    status, value, x = lp_solve(
        fmat([[1, 1, 1]]), fvec([1]), fvec([1, 1, 0])
    )
    assert status == OPTIMAL
    assert value == 1


def test_lp_infeasible_and_unbounded():
    status, _, _ = lp_solve(fmat([[1, 1], [1, 1]]), fvec([1, 2]), fvec([0, 0]))
    assert status == INFEASIBLE
    status, _, _ = lp_solve(fmat([[1, -1]]), fvec([0]), fvec([1, 0]))
    assert status == UNBOUNDED


def test_lp_agrees_with_vertex_enumeration():
    # maximize c.x over the standard simplex: optimum is max(c).
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 5)
        c = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        status, value, _ = lp_solve(fmat([[1] * n]), fvec([1]), tuple(c))
        assert status == OPTIMAL
        assert value == max(c)


def test_simplex_volume_unit_and_scaled():
    assert simplex_normalized_volume([(0, 0), (1, 0), (0, 1)]) == 1
    assert simplex_normalized_volume([(0, 0), (2, 0), (0, 1)]) == 2
    # Lower-dimensional simplex inside a bigger space, lattice-normalized.
    assert simplex_normalized_volume([(0, 0, 0), (1, 1, 0), (0, 0, 1)]) == 1
    assert simplex_normalized_volume([(0, 0, 0), (2, 2, 0), (0, 0, 1)]) == 2
    assert simplex_normalized_volume([(0, 0), (1, 1)]) == 1
    assert simplex_normalized_volume([(3,)]) == 1
    # Degenerate input collapses to zero.
    assert simplex_normalized_volume([(0, 0), (1, 0), (2, 0)]) == 0


@pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(1), 0.5, 1.0])
def test_simplex_volume_rejects_non_integer_coordinates(x):
    with pytest.raises(ValueError, match="normalized volume requires integer vertices"):
        simplex_normalized_volume([(0, 0), (1, 0), (0, x)])


def test_simplex_volume_matches_determinant_in_full_dimension():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 4)
        pts = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n + 1)]
        edges = [[p - q for p, q in zip(pts[i + 1], pts[0])] for i in range(n)]
        expected = abs(int(det_exact(edges)))
        assert simplex_normalized_volume(pts) == expected
