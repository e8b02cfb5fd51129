"""Hypertrees and arborescences.

Hypertrees are the lattice points of Kalman's hypertree polytope, taken from
its subset-inequality description in ``polytopes``; a spanning tree of the
bipartite graph induces one as its degree-minus-one vector on the hyperedge
side. Arborescence counts come from the directed matrix-tree theorem, and the
arborescences themselves, enumerated, give the colour graph's spanning trees
that triangulate its root polytope (``polytopes.arborescence_triangulation``).
Exhaustive spanning-tree enumeration is a test oracle (``tests/oracles.py``),
not part of the library.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .linalg import integer_det
from .trinity import (
    DirectedDual,
    InternalConsistencyError,
    Trinity,
    colour_graph,  # noqa: F401  (no caller here; perfbench/tests wraps this binding)
)
from . import polytopes


def hypertree_set(t: Trinity, code: str) -> tuple[tuple[int, ...], ...]:
    """Hypertrees of the (X, Y) hypergraph named by a two-letter selector, in
    lexicographic order.

    Hyperedges are Y, so the vectors are indexed by the Y-class vertices of the
    underlying colour graph, in increasing id order. They are the lattice
    points of {x(S) <= mu(S)} (Kalman, *A version of Tutte's polynomial for
    hypergraphs*, 2013), derived once per trinity and selector. The bound
    table has 2^|Y| entries; ``report`` and ``verify`` build such a table for
    every vertex class anyway, in the trimmed and hypertree polytopes.
    """
    return polytopes.hypertree_lattice_of(t, code)


def count_arborescences(dd: DirectedDual, root: int) -> int:
    """Spanning out-arborescences rooted at ``root`` (every edge points away
    from the root), by the directed matrix-tree theorem."""
    verts = list(dd.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    lap = [[0] * n for _ in range(n)]
    for tail, head in dd.edges:
        if tail == head:
            continue
        lap[idx[head]][idx[head]] += 1
        lap[idx[head]][idx[tail]] -= 1
    r = idx[root]
    minor = [[lap[i][j] for j in range(n) if j != r] for i in range(n) if i != r]
    value = integer_det(minor)
    if value < 0:
        raise InternalConsistencyError("arborescence count is negative")
    return value


def enumerate_arborescences(dd: DirectedDual, root: int) -> tuple[tuple[int, ...], ...]:
    """All spanning out-arborescences as sorted tuples of edge indices."""
    verts = list(dd.vertices)
    incoming: dict[int, list[int]] = {v: [] for v in verts}
    for i, (tail, head) in enumerate(dd.edges):
        if tail != head:
            incoming[head].append(i)
    choices = product(*(incoming[v] for v in verts if v != root))
    return tuple(sorted(tuple(sorted(pick)) for pick in choices if _reaches_all(dd, root, pick)))


def _reaches_all(dd: DirectedDual, root: int, choice: Sequence[int]) -> bool:
    """Whether the chosen edges reach every vertex from ``root``."""
    adj: dict[int, list[int]] = {v: [] for v in dd.vertices}
    for i in choice:
        tail, head = dd.edges[i]
        adj[tail].append(head)
    seen = {root}
    stack = [root]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)

