"""Lattice polytopes given by integer points, with exact predicates.

Canonical lattice sets take integer points. The rational block beside them,
``VPolytope`` with the LP-based ``points_contain``, ``prune_to_vertices``
and ``lattice_points``, is used only by the test oracles. It stays here because the benchmark's
tracer test wraps ``geometry.lp_solve`` and ``polytopes.lattice_points`` and
can only change with the benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import OPTIMAL, DimensionError, RatVec, fvec, lp_solve

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
