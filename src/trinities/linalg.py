"""Exact rational linear algebra: determinants, ranks, linear solves, simplex LP.

Everything operates on tuples of ``fractions.Fraction``; no floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterable, Optional, Sequence

Frac = Fraction

RatVec = tuple[Fraction, ...]
RatMat = tuple[RatVec, ...]


class DimensionError(ValueError):
    pass


def fvec(values: Iterable) -> RatVec:
    return tuple(Fraction(v) for v in values)


def fmat(rows: Iterable[Iterable]) -> RatMat:
    return tuple(fvec(r) for r in rows)


def vec_sub(a: RatVec, b: RatVec) -> RatVec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def dot(a: RatVec, b: RatVec) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def det_exact(m: Sequence[Sequence]) -> Fraction:
    """Determinant by fraction-free Bareiss elimination (exact)."""
    n = len(m)
    for row in m:
        if len(row) != n:
            raise DimensionError("matrix is not square")
    if n == 0:
        return Fraction(1)
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rank(rows: Sequence[Sequence]) -> int:
    a = [[Fraction(x) for x in row] for row in rows]
    if not a:
        return 0
    n_cols = len(a[0])
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pr = a[r]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col] / pr[col]
                a[i] = [x - f * y for x, y in zip(a[i], pr)]
        r += 1
        if r == len(a):
            break
    return r


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
# Exact simplex method (standard form: maximize c.x s.t. A x = b, x >= 0),
# Bland's rule throughout, ties broken by lowest index.
# ---------------------------------------------------------------------------

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _pivot(tab: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    pr = tab[row]
    inv = 1 / pr[col]
    tab[row] = [x * inv for x in pr]
    pr = tab[row]
    for i, r_i in enumerate(tab):
        if i != row and r_i[col] != 0:
            f = r_i[col]
            tab[i] = [x - f * y for x, y in zip(r_i, pr)]
    basis[row] = col


def _simplex_phase(tab: list[list[Fraction]], basis: list[int], n_vars: int) -> str:
    # Last row is the (negated) objective; last column the rhs.
    while True:
        obj = tab[-1]
        col = next((j for j in range(n_vars) if obj[j] > 0), None)
        if col is None:
            return OPTIMAL
        best: Optional[tuple[Fraction, int, int]] = None
        for i in range(len(tab) - 1):
            if tab[i][col] > 0:
                ratio = tab[i][-1] / tab[i][col]
                key = (ratio, basis[i])
                if best is None or key < (best[0], best[2]):
                    best = (ratio, i, basis[i])
        if best is None:
            return UNBOUNDED
        _pivot(tab, basis, best[1], col)


def lp_solve(a_rows: Sequence[RatVec], b: RatVec, c: RatVec) -> tuple[str, Optional[Fraction], Optional[RatVec]]:
    """Maximize c.x subject to a_rows * x = b, x >= 0.

    Returns (status, optimal value, optimal point).
    """
    m = len(a_rows)
    n = len(c)
    rows = [[Fraction(x) for x in row] for row in a_rows]
    rhs = [Fraction(x) for x in b]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    # Phase 1: artificial variables n..n+m-1.
    tab = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    obj = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            obj[j] += tab[i][j]
    for j in range(n, n + m):
        obj[j] = Fraction(0)
    tab.append(obj)
    _simplex_phase(tab, basis, n)  # artificials never re-enter: restrict columns to n
    if tab[-1][-1] != 0:
        return INFEASIBLE, None, None
    # Drive any artificial variables out of the basis.
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                _pivot(tab, basis, i, col)
    keep = [i for i in range(m) if basis[i] < n]
    tab = [[tab[i][j] for j in range(n)] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    # Phase 2.
    obj = [Fraction(x) for x in c] + [Fraction(0)]
    for i, bi in enumerate(basis):
        if obj[bi] != 0:
            f = obj[bi]
            obj = [x - f * y for x, y in zip(obj, tab[i])]
    tab.append(obj)
    status = _simplex_phase(tab, basis, n)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = tab[i][-1]
    value = dot(fvec(c), tuple(x))
    return OPTIMAL, value, tuple(x)


# ---------------------------------------------------------------------------
# Integer lattice helpers.
# ---------------------------------------------------------------------------


def _int_minors_gcd(rows: list[list[int]], k: int) -> int:
    """gcd of all k x k minors of an integer matrix with exactly k rows."""
    n_cols = len(rows[0])
    g = 0
    for cols in combinations(range(n_cols), k):
        sub = [[row[c] for c in cols] for row in rows]
        g = gcd(g, int(det_exact(sub)))
        if g == 1:
            return 1
    return g


def simplex_normalized_volume(vertices: Sequence[Sequence]) -> int:
    """Normalized volume of a simplex w.r.t. the direction lattice of its span.

    The gcd of the maximal minors of the integer edge-vector matrix equals the
    index of the edge lattice inside its saturation, which is exactly the
    volume in a lattice basis of the span. Degenerate input returns 0.
    """
    vs = [fvec(v) for v in vertices]
    if not vs:
        raise DimensionError("empty vertex list")
    if len(vs) == 1:
        return 1
    edges = [vec_sub(v, vs[0]) for v in vs[1:]]
    k = len(edges)
    if rank(edges) < k:
        return 0
    int_rows = []
    for e in edges:
        if any(x.denominator != 1 for x in e):
            raise ValueError("normalized volume requires integer vertices")
        int_rows.append([int(x) for x in e])
    return abs(_int_minors_gcd(int_rows, k))
