"""Shared builders for the test suite: the worked example graph, the larger
fixture graph, plane grid graphs, the graph document of a trinity, edge-id
shuffles of a map, a seeded generator of random plane bipartite maps; the
cases every cross-route test runs on (the fixtures, the plane grids and the
seeded corpus) and the path of a fixture document; the negation of a point
set, and a call counter; the uncertified arborescence
trees of a colour, their hypertrees, and a patch that makes the library
enumerate chosen trees; and the map and link operations
that only the tests take: the bipartition of a map, its planar dual, map
isomorphism, the dual spanning tree, and the switch of a crossing and the
mirror of a link diagram."""

from __future__ import annotations

import pkgutil
import random
from importlib import import_module, resources
from typing import Iterable

import pytest

import trinities
from trinities.documents import GraphDocument, serialize_graph_document
from trinities.geometry import canonical_lattice_set
from trinities.links import Crossing, LinkDiagram
from trinities.maps import (
    Bipartition,
    MapError,
    NotConnectedError,
    NotPlanarError,
    PlanarMap,
    build_map,
    build_map_from_darts,
)
from trinities import trinity
from trinities.trinity import Trinity, build_trinity, directed_dual, incidence

# Worked 5-edge example: violet v1,v2,v3 = 0,1,2; emerald e1,e2 = 3,4.
G1_EDGES = ((0, 3), (1, 3), (2, 3), (1, 4), (2, 4))
G1_ROTATIONS = ((0,), (1, 3), (2, 4), (0, 2, 1), (3, 4))


class NotBipartiteError(MapError):
    pass


def bipartition(m: PlanarMap) -> Bipartition:
    colour = [-1] * m.n_vertices
    colour[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for d in m.darts_of_vertex(u):
            w = m.vertex_of[d ^ 1]
            if colour[w] == -1:
                colour[w] = 1 - colour[u]
                stack.append(w)
            elif colour[w] == colour[u]:
                raise NotBipartiteError("graph contains an odd cycle")
    return Bipartition(
        class_a=frozenset(v for v in range(m.n_vertices) if colour[v] == 0),
        class_b=frozenset(v for v in range(m.n_vertices) if colour[v] == 1),
    )


def planar_dual(m: PlanarMap) -> PlanarMap:
    """Dual map: one vertex per face, same darts, rotation = face traversal.

    Edge ids are preserved, so dual edge e crosses primal edge e.
    """
    edges = tuple((m.face_of[2 * e], m.face_of[2 * e + 1]) for e in range(m.n_edges))
    vertex_rotations = [list(orbit) for orbit in m.faces]
    return build_map_from_darts(m.n_faces, edges, vertex_rotations)


def maps_isomorphic(m1: PlanarMap, m2: PlanarMap) -> bool:
    """Orientation-preserving combinatorial-map isomorphism (dart relabeling)."""
    if (m1.n_vertices, m1.n_edges, m1.n_faces) != (m2.n_vertices, m2.n_edges, m2.n_faces):
        return False
    n = m1.n_darts
    if n == 0:
        return True
    for start in range(n):
        phi = {0: start}
        stack = [0]
        ok = True
        while stack and ok:
            d = stack.pop()
            for nd1, nd2 in (((d ^ 1), m2.alpha(phi[d])), (m1.sigma[d], m2.sigma[phi[d]])):
                if nd1 in phi:
                    if phi[nd1] != nd2:
                        ok = False
                        break
                else:
                    phi[nd1] = nd2
                    stack.append(nd1)
        if ok and len(phi) == n and len(set(phi.values())) == n:
            return True
    return False


def dual_tree(m: PlanarMap, tree_edges: Iterable[int]) -> tuple[int, ...]:
    """Complementary edge set, a spanning tree of the dual map (same edge ids)."""
    tree = set(tree_edges)
    return tuple(e for e in range(m.n_edges) if e not in tree)


def switched(c: Crossing) -> Crossing:
    """The crossing with its strands swapped and its sign negated."""
    return Crossing(sign=-c.sign, over_in=c.under_in, over_out=c.under_out, under_in=c.over_in, under_out=c.over_out)


def mirror(d: LinkDiagram) -> LinkDiagram:
    return LinkDiagram(crossings=tuple(switched(c) for c in d.crossings), free_circles=d.free_circles)


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


def document_text(t: Trinity) -> str:
    """The canonical graph document of the trinity's map: vertex i is named
    v<i> or e<i> by its class, and the hint names the outer face."""
    m = t.map
    name = {v: f"v{v}" if v in t.violet else f"e{v}" for v in range(m.n_vertices)}
    dart = m.faces[t.outer_face][0]
    return serialize_graph_document(
        GraphDocument(
            violet=tuple(name[v] for v in sorted(t.violet)),
            emerald=tuple(name[v] for v in sorted(t.emerald)),
            edges=tuple((name[u], name[w]) if u in t.violet else (name[w], name[u]) for u, w in m.edges),
            rotations={name[v]: tuple(d >> 1 for d in m.darts_of_vertex(v)) for v in range(m.n_vertices)},
            outer_face_hint=(dart >> 1, "violet" if m.vertex_of[dart] in t.violet else "emerald"),
        )
    )


def permute_edge_ids(m: PlanarMap, rng: random.Random) -> PlanarMap:
    """An isomorphic copy of the map with edge ids shuffled: the same ends
    and the same rotation at every vertex."""
    perm = list(range(m.n_edges))  # old id -> new id
    rng.shuffle(perm)
    edges = [m.edges[0]] * m.n_edges
    for old, e in enumerate(m.edges):
        edges[perm[old]] = e
    rotations = [[perm[d >> 1] for d in m.darts_of_vertex(v)] for v in range(m.n_vertices)]
    return build_map(m.n_vertices, edges, rotations)


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


# The fixture graphs by name, each also a document ``<name>.json`` in the
# package's fixtures directory.
FIXTURES = {"single_edge": single_edge_trinity, "g1": g1_trinity, "fig7": fig7_trinity}
CHUNKS = range(10)
# One case per fixture and per chunk of the seeded corpus.
CASES = (*FIXTURES, *CHUNKS)


def corpus(chunk: int) -> list[Trinity]:
    """Chunk 0-9 of the seeded corpus: 20 random plane bipartite trinities
    from the seed 9000 + chunk, 200 graphs over all ten chunks."""
    rng = random.Random(9000 + chunk)
    return [random_trinity(rng) for _ in range(20)]


def graphs(*cases: str | int) -> list[Trinity]:
    """The trinities of the cases, in order: a fixture by name (``"g1"``),
    the plane grid of a shape (``"3x4"`` is ``grid_trinity(3, 4)``), or a
    chunk of the seeded corpus (``0`` to ``9``)."""
    found = []
    for case in cases:
        if isinstance(case, int):
            found += corpus(case)
        elif case in FIXTURES:
            found.append(FIXTURES[case]())
        else:
            rows, columns = map(int, case.split("x"))
            found.append(grid_trinity(rows, columns))
    return found


def case_id(case: str | int) -> str:
    """The test id of a case: a fixture by the name of its builder
    (``"g1_trinity"``), a grid shape or a chunk as itself."""
    return f"{case}_trinity" if case in FIXTURES else str(case)


def grouped(grids_id: str, *shapes: str) -> list:
    """The items of a test that takes the three fixtures as one item
    ``fixtures``, its grid shapes as one item ``grids_id`` and each corpus
    chunk as an item of its own; each item is a tuple of cases for
    ``graphs``."""
    return [
        pytest.param(tuple(FIXTURES), id="fixtures"),
        pytest.param(shapes, id=grids_id),
        *(pytest.param((chunk,), id=str(chunk)) for chunk in CHUNKS),
    ]


def fixture_path(name: str) -> str:
    """The path of the fixture document ``name``, such as ``"g1.json"``."""
    return str(resources.files("trinities") / "fixtures" / name)


def negate(points):
    """The point set -P, canonically ordered."""
    return canonical_lattice_set(tuple(-x for x in p) for p in points)


def patch_everywhere(monkeypatch, module, name, replacement):
    """Set module.name to ``replacement``, and at every library module that
    binds that name to the same function, so no import of it escapes."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, replacement)
    for info in pkgutil.iter_modules(trinities.__path__):
        binder = import_module(f"trinities.{info.name}")
        if getattr(binder, name, None) is original:
            monkeypatch.setattr(binder, name, replacement)


def count_calls(monkeypatch, module, name):
    """Wrap module.name, and the same function at every library module that
    binds it, so a call through any of them is counted; returns the list of
    the call arguments. No other test module is patched."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    patch_everywhere(monkeypatch, module, name, counted)
    return calls


def uncertified_trees(t: Trinity, colour: str, root: int) -> tuple[tuple[int, ...], ...]:
    """The colour graph's spanning trees dual to the arborescences of its
    directed dual at ``root``, not certified: the complement of each
    arborescence in the edge ids, since directed-dual edge i crosses the
    colour graph's edge i."""
    dd = directed_dual(t, colour)
    return tuple(_complement(dd, arb) for arb in trinity.enumerate_arborescences(dd, root))


def _complement(dd, edge_ids) -> tuple[int, ...]:
    used = set(edge_ids)
    return tuple(e for e in range(len(dd.edges)) if e not in used)


def tree_hypertrees(t: Trinity, code: str, tree_sets) -> tuple[tuple[int, ...], ...]:
    """Each tree's degree-minus-one vector on the selector's Y positions, the
    first of its edges' incidence ends, sorted with repeats kept."""
    ends, n_y, _ = incidence(t, code)
    vectors = []
    for tree in tree_sets:
        degree = [-1] * n_y
        for e in tree:
            degree[ends[e][0]] += 1
        vectors.append(tuple(degree))
    return tuple(sorted(vectors))


def enumerate_trees_as(monkeypatch, t: Trinity, colour: str, root: int, tree_sets) -> None:
    """Make the library's arborescence enumeration, on a directed dual equal
    to the colour's and at ``root``, return the complements of ``tree_sets``,
    so that those are the trees ``polytopes.arborescence_triangulation``
    reads there. Other calls enumerate as before."""
    dd = directed_dual(t, colour)
    arbs = tuple(_complement(dd, tree) for tree in tree_sets)
    enumerate_arborescences = trinity.enumerate_arborescences
    patch_everywhere(
        monkeypatch,
        trinity,
        "enumerate_arborescences",
        lambda d, r: arbs if (d, r) == (dd, root) else enumerate_arborescences(d, r),
    )
