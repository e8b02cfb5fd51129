"""Spanning trees, hypertrees and arborescences.

Spanning trees are enumerated by contraction/deletion and reported as sorted
edge-id tuples; hypertrees are the degree-minus-one vectors their restriction
induces on one side of a bipartite graph; arborescence counts come from the
directed matrix-tree theorem.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable, Sequence

from .geometry import canonical_lattice_set
from .linalg import det_exact
from .maps import PlanarMap, memo
from .trinity import (
    COLOUR_CLASSES,
    DirectedDual,
    InternalConsistencyError,
    Trinity,
    colour_graph,
    directed_dual,
    hypergraph_view,
)


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


def hypertree_set_of_graph(m: PlanarMap, side: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    trees = spanning_trees_of_map(m)
    return canonical_lattice_set(hypertree_of(t, m.edges, side) for t in trees)


def hypertree_set(t: Trinity, code: str) -> tuple[tuple[int, ...], ...]:
    """Hypertrees of the (X, Y) hypergraph named by a two-letter selector.

    Hyperedges are Y, so the vectors are indexed by the Y-class vertices of the
    underlying colour graph, in increasing id order. Derived once per trinity
    and selector.
    """
    cm, _x_ids, y_ids = hypergraph_view(t, code)
    return memo(t, ("hypertree_set", code), lambda: hypertree_set_of_graph(cm, y_ids))


def count_arborescences(dd: DirectedDual, root: int) -> int:
    """Spanning out-arborescences rooted at ``root`` (every edge points away
    from the root), by the directed matrix-tree theorem."""
    verts = list(dd.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    lap = [[Fraction(0)] * n for _ in range(n)]
    for tail, head in dd.edges:
        if tail == head:
            continue
        lap[idx[head]][idx[head]] += 1
        lap[idx[head]][idx[tail]] -= 1
    r = idx[root]
    minor = [[lap[i][j] for j in range(n) if j != r] for i in range(n) if i != r]
    value = det_exact(minor)
    if value.denominator != 1 or value < 0:
        raise InternalConsistencyError("arborescence count is not a nonnegative integer")
    return int(value)


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


def arborescence_to_hypertree(
    t: Trinity, colour: str, arborescence: Sequence[int], side_colour: str | None = None
) -> tuple[int, ...]:
    """Hypertree induced by the dual spanning tree on one class of the colour graph."""
    cm, bip = colour_graph(t, colour)
    class_a_colour, class_b_colour = COLOUR_CLASSES[colour]
    if side_colour is None:
        side_colour = class_b_colour
    side = sorted(bip.class_a if side_colour == class_a_colour else bip.class_b)
    tree = arborescence_to_spanning_tree(t, colour, arborescence)
    return hypertree_of(tree, cm.edges, side)
