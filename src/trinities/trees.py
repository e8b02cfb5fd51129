"""Hypertrees and arborescences.

Hypertrees are the lattice points of Kalman's hypertree polytope, taken from
its subset-inequality description in ``polytopes``; a spanning tree of the
bipartite graph induces one as its degree-minus-one vector on the hyperedge
side. Arborescence counts come from the directed matrix-tree theorem, and the
arborescences themselves, enumerated, give the colour graph's spanning trees
that triangulate its root polytope. Exhaustive spanning-tree enumeration is
a test oracle (``tests/oracles.py``), not part of the library.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .linalg import integer_det
from .maps import PlanarMap
from .trinity import (
    DirectedDual,
    InternalConsistencyError,
    Trinity,
    colour_graph,
    directed_dual,
)
from . import polytopes


def hypertree_of(
    tree_edges: Iterable[int], edges: Sequence[tuple[int, int]], side: Sequence[int]
) -> tuple[int, ...]:
    """Degree-minus-one vector of the tree on the given vertices, in their order."""
    deg: Counter = Counter()
    side_set = set(side)
    for e in tree_edges:
        for v in edges[e]:
            if v in side_set:
                deg[v] += 1
    vec = tuple(deg[v] - 1 for v in side)
    if any(x < 0 for x in vec):
        raise ValueError("tree misses a vertex of the chosen side")
    return vec


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
    others = [v for v in verts if v != root]
    out: list[tuple[int, ...]] = []
    pick: list[int] = []

    def reaches_all(choice: Sequence[int]) -> bool:
        adj: dict[int, list[int]] = {v: [] for v in verts}
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
        return len(seen) == len(verts)

    def rec(i: int) -> None:
        if i == len(others):
            if reaches_all(pick):
                out.append(tuple(sorted(pick)))
            return
        for e in incoming[others[i]]:
            pick.append(e)
            rec(i + 1)
            pick.pop()

    rec(0)
    return tuple(sorted(out))


def dual_tree(m: PlanarMap, tree_edges: Iterable[int]) -> tuple[int, ...]:
    """Complementary edge set, a spanning tree of the dual map (same edge ids)."""
    tree = set(tree_edges)
    return tuple(e for e in range(m.n_edges) if e not in tree)


def arborescence_to_spanning_tree(t: Trinity, colour: str, arborescence: Sequence[int]) -> tuple[int, ...]:
    """Colour-graph spanning tree dual to an arborescence of the directed dual.

    Directed-dual edge i crosses the i-th white triangle, which is the i-th
    edge of the colour graph; the tree consists of the edges NOT crossed.
    """
    dd = directed_dual(t, colour)
    cm, _ = colour_graph(t, colour)
    used = set(arborescence)
    tree = tuple(i for i in range(len(dd.edges)) if i not in used)
    if len(tree) != cm.n_vertices - 1:
        raise InternalConsistencyError("arborescence complement has the wrong size")
    return tree

