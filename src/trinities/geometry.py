"""Vertex-presented polytopes with exact predicates.

Membership is LP feasibility ("is x a convex combination of the vertices"),
lattice points come from a pruned bounding-box search, and simplex volumes are
normalized to the direction lattice of the affine span. Dimensions and the
placing triangulation run fraction-free on integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import (
    OPTIMAL,
    DimensionError,
    RatVec,
    extend_basis,
    fvec,
    integer_det,
    integer_rank,
    integral_row,
    lp_solve,
)
from .linalg import simplex_normalized_volume as _simplex_normalized_volume

simplex_normalized_volume = _simplex_normalized_volume

IntVec = tuple[int, ...]


def canonical_lattice_set(points: Iterable[Sequence[int]]) -> tuple[IntVec, ...]:
    """Deduplicate and sort integer vectors lexicographically."""
    return tuple(sorted({tuple(int(x) for x in p) for p in points}))


def _membership_rows(vertices: Sequence[RatVec]) -> list[RatVec]:
    dim = len(vertices[0])
    rows = [tuple(v[i] for v in vertices) for i in range(dim)]
    rows.append(tuple(Fraction(1) for _ in vertices))
    return rows


def points_contain(vertices: Sequence[RatVec], x: RatVec) -> bool:
    if len(x) != len(vertices[0]):
        raise DimensionError("point dimension does not match polytope")
    rows = _membership_rows(vertices)
    b = tuple(Fraction(c) for c in x) + (Fraction(1),)
    status, _, _ = lp_solve(rows, b, tuple([Fraction(0)] * len(vertices)))
    return status == OPTIMAL


def prune_to_vertices(points: Iterable[Sequence]) -> tuple[RatVec, ...]:
    """Irredundant vertex set of the convex hull of the given points."""
    pts = sorted({fvec(p) for p in points})
    if len(pts) <= 1:
        return tuple(pts)
    vertices = list(pts)
    i = 0
    while i < len(vertices):
        rest = vertices[:i] + vertices[i + 1 :]
        if points_contain(rest, vertices[i]):
            vertices.pop(i)
        else:
            i += 1
    return tuple(vertices)


@dataclass(frozen=True)
class VPolytope:
    """Convex hull given by its irredundant vertices, canonically sorted."""

    vertices: tuple[RatVec, ...]
    ambient_dim: int
    affine_dim: int

    @classmethod
    def from_points(cls, points: Iterable[Sequence], assume_vertices: bool = False) -> "VPolytope":
        pts = sorted({fvec(p) for p in points})
        if not pts:
            raise ValueError("a polytope needs at least one point")
        verts = tuple(pts) if assume_vertices else prune_to_vertices(pts)
        return cls(vertices=verts, ambient_dim=len(verts[0]), affine_dim=affine_dim(verts))

    def contains(self, x: Sequence) -> bool:
        return points_contain(self.vertices, fvec(x))

    def scale(self, c) -> "VPolytope":
        c = Fraction(c)
        return VPolytope.from_points([tuple(c * x for x in v) for v in self.vertices], assume_vertices=True)

    def translate(self, t: Sequence) -> "VPolytope":
        tv = fvec(t)
        return VPolytope.from_points(
            [tuple(x + y for x, y in zip(v, tv)) for v in self.vertices], assume_vertices=True
        )


def _integral_points(points: Sequence[Sequence]) -> list[list[int]]:
    """The points scaled by one positive integer to integer vectors."""
    scaled = [integral_row(p) for p in points]
    scale = math.lcm(*(s for s, _ in scaled))
    return [[x * (scale // s) for x in row] for s, row in scaled]


def affine_dim(points: Sequence[Sequence]) -> int:
    if not points:
        raise ValueError("affine_dim of empty point set")
    pts = _integral_points(points)
    return integer_rank([[x - y for x, y in zip(q, pts[0], strict=True)] for q in pts[1:]])


def lattice_points(p: VPolytope) -> tuple[IntVec, ...]:
    """All integer vectors in the polytope.

    Bounding-box search, pruned one coordinate at a time by exact LP
    feasibility of the partial fixing, so empty slabs are skipped wholesale.
    """
    verts = p.vertices
    dim = p.ambient_dim
    lo = [math.ceil(min(v[i] for v in verts)) for i in range(dim)]
    hi = [math.floor(max(v[i] for v in verts)) for i in range(dim)]
    if any(lo[i] > hi[i] for i in range(dim)):
        return ()
    base_rows = _membership_rows(verts)
    n = len(verts)
    zero_obj = tuple([Fraction(0)] * n)
    out: list[IntVec] = []

    def feasible(prefix: list[int]) -> bool:
        k = len(prefix)
        rows = base_rows[:k] + [base_rows[-1]]
        b = tuple(Fraction(c) for c in prefix) + (Fraction(1),)
        status, _, _ = lp_solve(rows, b, zero_obj)
        return status == OPTIMAL

    def descend(prefix: list[int]) -> None:
        k = len(prefix)
        if k == dim:
            if points_contain(verts, fvec(prefix)):
                out.append(tuple(prefix))
            return
        for value in range(lo[k], hi[k] + 1):
            prefix.append(value)
            if feasible(prefix):
                descend(prefix)
            prefix.pop()

    descend([])
    return canonical_lattice_set(out)


def intersect_in_common_face(s1: VPolytope, s2: VPolytope) -> bool:
    """True iff the two simplices intersect exactly in the hull of their shared vertices.

    Barycentric coordinates in a simplex are unique, so the intersection lies
    inside conv(shared) iff no intersection point puts positive weight on a
    non-shared vertex; each such weight is maximized by an exact LP. The
    test oracle of ``polytopes.tree_simplices_meet_in_common_face``.
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionError("simplices live in different ambient spaces")
    for s in (s1, s2):
        if affine_dim(s.vertices) != len(s.vertices) - 1:
            raise ValueError("input is not a simplex")
    shared = set(s1.vertices) & set(s2.vertices)
    n1, n2 = len(s1.vertices), len(s2.vertices)
    dim = s1.ambient_dim
    # Variables: barycentric weights of s1 then of s2.
    rows = []
    for i in range(dim):
        rows.append(tuple(v[i] for v in s1.vertices) + tuple(-w[i] for w in s2.vertices))
    rows.append(tuple(Fraction(1) for _ in range(n1)) + tuple(Fraction(0) for _ in range(n2)))
    rows.append(tuple(Fraction(0) for _ in range(n1)) + tuple(Fraction(1) for _ in range(n2)))
    b = tuple([Fraction(0)] * dim) + (Fraction(1), Fraction(1))
    free_indices = [i for i, v in enumerate(s1.vertices) if v not in shared]
    free_indices += [n1 + j for j, w in enumerate(s2.vertices) if w not in shared]
    for idx in free_indices:
        c = [Fraction(0)] * (n1 + n2)
        c[idx] = Fraction(1)
        status, value, _ = lp_solve(rows, b, tuple(c))
        if status == OPTIMAL and value > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Incremental (placing) triangulation — the independent volume oracle.
# ---------------------------------------------------------------------------


def placing_triangulation(points: Sequence[Sequence]) -> tuple[tuple[int, ...], ...]:
    """Triangulation of conv(points) by placing the points in the given order.

    Returns simplices as sorted index tuples. Every input point must be a
    vertex of the hull of its predecessors plus itself (true for the root
    polytopes this serves); collinear degeneracies inside the current hull are
    rejected.

    Integer arithmetic throughout (rational points are scaled to integers
    first). The directions from the first point that span the placed points
    are kept as an echelon basis; projecting onto its pivot columns is
    injective on their span, so a point lies beyond a boundary facet exactly
    when the integer determinants of the facet against it and against the
    opposite vertex, over those columns, have opposite signs.
    """
    pts = _integral_points(points)
    dirs = [[x - y for x, y in zip(p, pts[0])] for p in pts]
    basis: list[tuple[int, list[int]]] = []
    simplices: list[tuple[int, ...]] = [(0,)]
    for idx in range(1, len(pts)):
        if extend_basis(basis, dirs[idx]):
            # Dimension jump: cone every simplex over the new point.
            simplices = [s + (idx,) for s in simplices]
            continue
        cols = [col for col, _ in basis]

        def side(facet: tuple[int, ...], q: int) -> int:
            return integer_det([[dirs[j][c] - dirs[q][c] for c in cols] for j in facet])

        new_simplices = []
        for facet, opposite in _boundary_facets(simplices):
            inside = side(facet, opposite)
            if inside == 0:
                raise ValueError("degenerate facet")
            if side(facet, idx) * inside < 0:
                new_simplices.append(facet + (idx,))
        if not new_simplices:
            raise ValueError("placed point is not outside the current hull")
        simplices = simplices + new_simplices
    return tuple(sorted(simplices))


def _boundary_facets(simplices: Sequence[tuple[int, ...]]):
    """Facets belonging to exactly one simplex, with the opposite vertex."""
    seen: dict[tuple[int, ...], list[int]] = {}
    for s in simplices:
        for drop in s:
            facet = tuple(v for v in s if v != drop)
            seen.setdefault(facet, []).append(drop)
    return [(facet, opps[0]) for facet, opps in seen.items() if len(opps) == 1]


def total_normalized_volume(points: Sequence[Sequence]) -> int:
    """Normalized volume of conv(points) via the placing triangulation."""
    pts = [fvec(p) for p in points]
    total = 0
    for simplex in placing_triangulation(pts):
        total += simplex_normalized_volume([pts[i] for i in simplex])
    return total
