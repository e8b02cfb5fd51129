"""Test oracles, independent routes that the library does not take:

- exhaustive spanning-tree enumeration and the hypertree sets it gives (the
  library takes hypertrees from Kalman's mu-lattice and the trees of its
  arborescence triangulations; this enumerates every spanning tree, far more
  trees than hypertrees);
- rational linear algebra: scaling rows to integers, determinants, ranks and
  affine solves over ``Fraction``;
- the LP common-face test of two simplices, against Postnikov's Lemma 12.6;
- the Cayley slices of a root polytope, against the scaled GP polytopes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from numbers import Rational
from typing import Iterable, Optional, Sequence

from trinities.geometry import VPolytope, affine_dim, canonical_lattice_set
from trinities.linalg import OPTIMAL, DimensionError, RatVec, fvec, integer_det, integer_rank, lp_solve
from trinities.maps import PlanarMap, memo
from trinities.polytopes import RootPolytope, TaggedPolytope
from trinities.trees import hypertree_of
from trinities.trinity import InternalConsistencyError


class _DSU:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True

    def copy(self) -> "_DSU":
        d = _DSU(0)
        d.parent = list(self.parent)
        return d


def enumerate_spanning_trees(n_vertices: int, edges: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """All spanning trees as sorted edge-id tuples, in lexicographic order."""
    target = n_vertices - 1
    m = len(edges)
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def rec(i: int, dsu: _DSU, n_in: int) -> None:
        if n_in == target:
            out.append(tuple(chosen))
            return
        if i == m or n_in + (m - i) < target:
            return
        u, v = edges[i]
        if dsu.find(u) != dsu.find(v):
            nxt = dsu.copy()
            nxt.union(u, v)
            chosen.append(i)
            rec(i + 1, nxt, n_in + 1)
            chosen.pop()
        rec(i + 1, dsu, n_in)

    rec(0, _DSU(n_vertices), 0)
    return tuple(out)


def spanning_trees_of_map(m: PlanarMap) -> tuple[tuple[int, ...], ...]:
    """The spanning trees of the map, enumerated once per map: a hypergraph
    and its transpose share the enumeration of their colour graph."""
    return memo(m, "spanning_trees", lambda: enumerate_spanning_trees(m.n_vertices, m.edges))


def hypertree_set_of_graph(m: PlanarMap, side: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The degree-minus-one vectors of every spanning tree on ``side``."""
    return canonical_lattice_set(hypertree_of(t, m.edges, side) for t in spanning_trees_of_map(m))


# ---------------------------------------------------------------------------
# Rational linear algebra.
# ---------------------------------------------------------------------------


def fmat(rows: Iterable[Iterable]) -> tuple[RatVec, ...]:
    return tuple(fvec(r) for r in rows)


def vec_sub(a: RatVec, b: RatVec) -> RatVec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def integral_row(row: Sequence) -> tuple[int, list[int]]:
    """(s, s * row) for the least common denominator s of the row's entries."""
    q = [x if isinstance(x, Rational) else Fraction(x) for x in row]
    s = lcm(*(x.denominator for x in q))
    return s, [x.numerator * (s // x.denominator) for x in q]


def det_exact(m: Sequence[Sequence]) -> Fraction:
    """Determinant of a rational matrix (exact): each row is scaled to integers
    and the integer determinant divided by the product of the scales."""
    scale, rows = 1, []
    for row in m:
        s, ints = integral_row(row)
        scale *= s
        rows.append(ints)
    return Fraction(integer_det(rows), scale)


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of a rational matrix: the integer rank of its rows scaled to integers."""
    return integer_rank([integral_row(row)[1] for row in rows])


def solve_affine(columns: Sequence[RatVec], target: RatVec) -> Optional[RatVec]:
    """One solution c of sum(c_i * columns[i]) = target, or None if inconsistent.

    Underdetermined systems return an arbitrary (deterministic) solution with
    free variables set to zero.
    """
    n = len(columns)
    m = len(target)
    a = [[Fraction(columns[j][i]) for j in range(n)] + [Fraction(target[i])] for i in range(m)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pr = a[r]
        inv = 1 / pr[col]
        a[r] = [x * inv for x in pr]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append((r, col))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n] != 0:
            return None
    sol = [Fraction(0)] * n
    for row, col in pivots:
        sol[col] = a[row][n]
    return tuple(sol)


# ---------------------------------------------------------------------------
# The LP common-face test and the Cayley slices.
# ---------------------------------------------------------------------------


def intersect_in_common_face(s1: Sequence[Sequence[int]], s2: Sequence[Sequence[int]]) -> bool:
    """True iff the simplices with integer vertices s1 and s2 intersect
    exactly in the hull of their shared vertices.

    Barycentric coordinates in a simplex are unique, so the intersection lies
    inside conv(shared) iff no intersection point puts positive weight on a
    non-shared vertex; each such weight is maximized by an exact LP. The
    oracle of ``polytopes.tree_simplices_meet_in_common_face``.
    """
    if len(s1[0]) != len(s2[0]):
        raise DimensionError("simplices live in different ambient spaces")
    for s in (s1, s2):
        if affine_dim(s) != len(s) - 1:
            raise ValueError("input is not a simplex")
    shared = set(s1) & set(s2)
    n1, n2 = len(s1), len(s2)
    dim = len(s1[0])
    # Variables: barycentric weights of s1 then of s2.
    rows = []
    for i in range(dim):
        rows.append(tuple(v[i] for v in s1) + tuple(-w[i] for w in s2))
    rows.append(tuple(Fraction(1) for _ in range(n1)) + tuple(Fraction(0) for _ in range(n2)))
    rows.append(tuple(Fraction(0) for _ in range(n1)) + tuple(Fraction(1) for _ in range(n2)))
    b = tuple([Fraction(0)] * dim) + (Fraction(1), Fraction(1))
    free_indices = [i for i, v in enumerate(s1) if v not in shared]
    free_indices += [n1 + j for j, w in enumerate(s2) if w not in shared]
    for idx in free_indices:
        c = [Fraction(0)] * (n1 + n2)
        c[idx] = Fraction(1)
        status, value, _ = lp_solve(rows, b, tuple(c))
        if status == OPTIMAL and value > 0:
            return False
    return True


def cayley_slice(rp: RootPolytope, side: str) -> VPolytope:
    """Exact intersection of the root polytope with the side's Cayley hyperplanes.

    Side "U" fixes the first block to 1/m each; side "V" fixes the second
    block to -1/n each. The result keeps all ambient coordinates.
    """
    m, n = rp.u_size, rp.v_size
    if side == "U":
        fixed = {i: Fraction(1, m) for i in range(m)}
    elif side == "V":
        fixed = {m + i: Fraction(-1, n) for i in range(n)}
    else:
        raise ValueError("side must be 'U' or 'V'")
    hits: set[RatVec] = set()
    for k in range(1, len(rp.vertices) + 1):
        for face in combinations(rp.vertices, k):
            pt = _affine_flat_point(face, fixed)
            if pt is not None:
                hits.add(pt)
    if not hits:
        raise InternalConsistencyError("slice is empty")
    return VPolytope.from_points(hits)


def _affine_flat_point(face: Sequence[Sequence[int]], fixed: dict[int, Fraction]) -> Optional[RatVec]:
    """Unique point of aff(face) meeting the fixed-coordinate flat, inside
    conv(face); None when absent or not unique."""
    base = face[0]
    dirs = [vec_sub(p, base) for p in face[1:]]
    rows = [tuple(d[i] for d in dirs) for i in fixed]
    target = tuple(c - base[i] for i, c in fixed.items())
    if rank(rows) < len(dirs):
        return None
    sol = solve_affine([tuple(r[j] for r in rows) for j in range(len(dirs))], target)
    if sol is None:
        return None
    weights = [Fraction(1) - sum(sol, Fraction(0))] + list(sol)
    if any(w < 0 for w in weights):
        return None
    pt = tuple(sum(w * p[i] for w, p in zip(weights, face)) for i in range(len(base)))
    if any(pt[i] != c for i, c in fixed.items()):
        return None
    return pt


def slice_matches_scaled_gp(rp: RootPolytope, side: str, gp: TaggedPolytope) -> bool:
    """Check the slice identity: side U equals -(1/m) times the GP polytope of
    the second block's hypergraph, side V equals (1/n) times that of the first."""
    sl = cayley_slice(rp, side)
    m, n = rp.u_size, rp.v_size
    if side == "U":
        projected = {v[m:] for v in sl.vertices}
        expected = {tuple(Fraction(-x, m) for x in p) for p in gp.vertices}
    else:
        projected = {v[:m] for v in sl.vertices}
        expected = {tuple(Fraction(x, n) for x in p) for p in gp.vertices}
    return projected == expected
