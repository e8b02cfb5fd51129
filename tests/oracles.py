"""Test oracles: exhaustive spanning-tree enumeration and the hypertree sets
it gives. The library takes hypertrees from Kalman's mu-lattice and the
trees of its arborescence triangulations; these enumerate every spanning
tree instead, far more trees than hypertrees, as an independent route."""

from __future__ import annotations

from typing import Sequence

from trinities.geometry import canonical_lattice_set
from trinities.maps import PlanarMap, memo
from trinities.trees import hypertree_of


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
