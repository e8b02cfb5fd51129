"""Exact linear algebra: integer determinants and a small simplex LP.

Determinants run fraction-free on Python integers. The LP operates on tuples
of ``fractions.Fraction`` and serves the test oracles only. No floats
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

RatVec = tuple[Fraction, ...]


class DimensionError(ValueError):
    pass


def fvec(values: Iterable) -> RatVec:
    return tuple(Fraction(v) for v in values)


def dot(a: RatVec, b: RatVec) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def integer_det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by Bareiss elimination: every division
    is exact, so no Fraction is built."""
    n = len(m)
    for row in m:
        if len(row) != n:
            raise DimensionError("matrix is not square")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot_row = a[k]
        pivot = pivot_row[k]
        for row in a[k + 1 :]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
            row[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


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
