"""Lattice polytopes given by integer points, with exact predicates.

Dimensions, simplex volumes (normalized to the direction lattice of the
affine span) and the placing triangulation take integer points and run
fraction-free. The rational block below them, ``VPolytope`` with the
LP-based ``points_contain``, ``prune_to_vertices`` and ``lattice_points``,
is used only by the test oracles. It stays here because the benchmark's
tracer test wraps ``geometry.lp_solve`` and ``polytopes.lattice_points`` and
can only change with the benchmark.
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

    @classmethod
    def from_points(cls, points: Iterable[Sequence]) -> "VPolytope":
        vertices = prune_to_vertices(points)
        if not vertices:
            raise ValueError("a polytope needs at least one point")
        return cls(vertices=vertices)


def affine_dim(points: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine span of integer points."""
    if not points:
        raise ValueError("affine_dim of empty point set")
    return integer_rank([[x - y for x, y in zip(q, points[0], strict=True)] for q in points[1:]])


def lattice_points(p: VPolytope) -> tuple[IntVec, ...]:
    """All integer vectors in the polytope.

    Bounding-box search, pruned one coordinate at a time by exact LP
    feasibility of the partial fixing, so empty slabs are skipped wholesale.
    """
    verts = p.vertices
    dim = len(verts[0])
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


# ---------------------------------------------------------------------------
# Incremental (placing) triangulation — the independent volume oracle.
# ---------------------------------------------------------------------------


def placing_triangulation(points: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Triangulation of conv(points) by placing the points in the given order.

    Returns simplices as sorted index tuples. Every input point must be a
    vertex of the hull of its predecessors plus itself (true for the root
    polytopes this serves); collinear degeneracies inside the current hull are
    rejected.

    Integer points, integer arithmetic throughout. The directions from the
    first point that span the placed points are kept as an echelon basis;
    projecting onto its pivot columns is injective on their span, so a point
    lies beyond a boundary facet exactly when the integer determinants of the
    facet against it and against the opposite vertex, over those columns,
    have opposite signs.
    """
    dirs = [[x - y for x, y in zip(p, points[0])] for p in points]
    basis: list[tuple[int, list[int]]] = []
    simplices: list[tuple[int, ...]] = [(0,)]
    for idx in range(1, len(points)):
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


def total_normalized_volume(points: Sequence[Sequence[int]]) -> int:
    """Normalized volume of conv(points), integer points, via the placing
    triangulation."""
    return sum(simplex_normalized_volume([points[i] for i in s]) for s in placing_triangulation(points))
