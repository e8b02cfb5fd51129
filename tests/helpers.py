"""Shared builders for the test suite: the worked example graph, the larger
fixture graph, plane grid graphs, and a seeded generator of random plane
bipartite maps."""

from __future__ import annotations

import pkgutil
import random
from importlib import import_module

import trinities
from trinities.maps import (
    MapError,
    NotConnectedError,
    NotPlanarError,
    PlanarMap,
    bipartition,
    build_map,
)
from trinities.trinity import Trinity, build_trinity

# Worked 5-edge example: violet v1,v2,v3 = 0,1,2; emerald e1,e2 = 3,4.
G1_EDGES = ((0, 3), (1, 3), (2, 3), (1, 4), (2, 4))
G1_ROTATIONS = ((0,), (1, 3), (2, 4), (0, 2, 1), (3, 4))


def g1_map() -> PlanarMap:
    return build_map(5, G1_EDGES, G1_ROTATIONS)


def g1_trinity(root_triangle: int | None = None) -> Trinity:
    m = g1_map()
    # The unbounded region is on the left of the half-edge at the violet end
    # of edge 0.
    return build_trinity(m, bipartition(m), outer_face=m.face_of[0], root_triangle=root_triangle)


def single_edge_trinity() -> Trinity:
    m = build_map(2, ((0, 1),), ((0,), (0,)))
    return build_trinity(m, bipartition(m), outer_face=0)


FIG7_EDGES = (
    (1, 6), (1, 7), (2, 7), (2, 8), (4, 5), (4, 6),
    (0, 8), (0, 6), (3, 8), (3, 5), (0, 5),
)
FIG7_ROTATIONS = (
    (10, 6, 7), (0, 1), (2, 3), (9, 8), (4, 5),
    (10, 4, 9), (5, 7, 0), (1, 2), (3, 6, 8),
)


def fig7_map() -> PlanarMap:
    return build_map(9, FIG7_EDGES, FIG7_ROTATIONS)


def fig7_trinity() -> Trinity:
    m = fig7_map()
    # Unbounded region: left of the half-edge at the emerald end of edge 6.
    return build_trinity(m, bipartition(m), outer_face=m.face_of[13])


def grid_trinity(rows: int, columns: int) -> Trinity:
    """The plane rows x columns grid graph: vertex (i, j) is i * columns + j,
    drawn at x = j, y = i, violet when i + j is even."""
    edges = []
    ends: dict[tuple[int, str], int] = {}  # (vertex, direction) -> edge id
    for i in range(rows):
        for j in range(columns):
            v = i * columns + j
            for di, dj, here, there in ((0, 1, "E", "W"), (1, 0, "N", "S")):
                if i + di < rows and j + dj < columns:
                    w = (i + di) * columns + j + dj
                    ends[v, here] = ends[w, there] = len(edges)
                    edges.append((v, w) if (i + j) % 2 == 0 else (w, v))
    # Counter-clockwise: east, north, west, south.
    rotations = [[ends[v, d] for d in "ENWS" if (v, d) in ends] for v in range(rows * columns)]
    m = build_map(rows * columns, edges, rotations)
    # Walking west along the bottom edge from (0, 1) to (0, 0), the unbounded
    # region lies on the left; (0, 1) is the emerald end, dart 2e + 1.
    return build_trinity(m, bipartition(m), outer_face=m.face_of[2 * ends[0, "E"] + 1])


def random_plane_bipartite(rng: random.Random, max_edges: int = 8) -> PlanarMap:
    """A random connected plane bipartite map: random edges over small vertex
    classes plus a random rotation system, rejecting anything non-planar."""
    while True:
        na = rng.randint(1, 3)
        nb = rng.randint(1, 3)
        n = na + nb
        ne = rng.randint(max(1, n - 1), max_edges)
        edges = [(rng.randrange(na), na + rng.randrange(nb)) for _ in range(ne)]
        rot: list[list[int]] = [[] for _ in range(n)]
        for e, (u, v) in enumerate(edges):
            rot[u].append(e)
            rot[v].append(e)
        for r in rot:
            rng.shuffle(r)
        if any(not r for r in rot):
            continue
        try:
            return build_map(n, edges, rot)
        except (NotPlanarError, NotConnectedError, MapError):
            continue


def random_trinity(rng: random.Random, max_edges: int = 8) -> Trinity:
    m = random_plane_bipartite(rng, max_edges)
    return build_trinity(m, bipartition(m), outer_face=0)


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper; returns the list of its call arguments."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_calls_everywhere(monkeypatch, module, name):
    """``count_calls`` at every library module that binds module.name to the
    same function, so a call through any import of it is counted."""
    original = getattr(module, name)
    calls = count_calls(monkeypatch, module, name)
    counted = getattr(module, name)
    for info in pkgutil.iter_modules(trinities.__path__):
        binder = import_module(f"trinities.{info.name}")
        if getattr(binder, name, None) is original:
            monkeypatch.setattr(binder, name, counted)
    return calls
