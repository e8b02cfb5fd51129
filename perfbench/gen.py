"""Seeded input generators for the benchmark.

Every generator returns canonical graph-document text, written by the
library's own ``documents.serialize_graph_document``, so parse followed by
serialize is the identity on it.

- ``grid_document(r, c)``: the plane r x c grid graph.
- ``relabel(text, rng)``: an isomorphic copy with shuffled vertex order,
  rotation start points and (optionally) edge ids; the outer face is kept.
- ``small_document(rng, n_edges, n_cycles)``: a random connected plane
  bipartite graph with exactly that many edges and independent cycles
  (multi-edges allowed), grown one edge at a time so that every
  intermediate map stays plane.
"""

from __future__ import annotations

import random

from trinities.documents import GraphDocument, parse_graph_document, serialize_graph_document


def _document(violet, emerald, edges, rotations, outer_edge, outer_side) -> str:
    return serialize_graph_document(
        GraphDocument(
            violet=tuple(violet),
            emerald=tuple(emerald),
            edges=tuple(tuple(e) for e in edges),
            rotations={k: tuple(v) for k, v in rotations.items()},
            outer_face_hint=(outer_edge, outer_side),
        )
    )


def grid_document(r: int, c: int) -> str:
    """The r x c grid graph drawn with unit spacing; vertex (i, j) sits at
    x = j, y = i, and is violet when i + j is even."""
    violet, emerald = [], []
    name = {}
    for i in range(r):
        for j in range(c):
            cls = violet if (i + j) % 2 == 0 else emerald
            name[i, j] = f"{'v' if cls is violet else 'e'}{i}_{j}"
            cls.append(name[i, j])
    edges = []
    edge_at = {}  # (vertex, direction) -> edge id
    for i in range(r):
        for j in range(c):
            for di, dj, here, there in ((0, 1, "E", "W"), (1, 0, "N", "S")):
                ii, jj = i + di, j + dj
                if ii < r and jj < c:
                    a, b = (i, j), (ii, jj)
                    if (i + j) % 2:
                        a, b = b, a
                    e = len(edges)
                    edges.append((name[a], name[b]))
                    edge_at[(i, j), here] = e
                    edge_at[(ii, jj), there] = e
    rotations = {}
    for i in range(r):
        for j in range(c):
            # Counter-clockwise: east, north, west, south.
            rotations[name[i, j]] = [edge_at[(i, j), d] for d in "ENWS" if ((i, j), d) in edge_at]
    # Walking west along the bottom edge from (0, 1) to (0, 0), the unbounded
    # region lies on the left (below the grid).
    side = "emerald"  # (0, 1) has odd parity
    return _document(violet, emerald, edges, rotations, edge_at[(0, 0), "E"], side)


def relabel(text: str, rng: random.Random, permute_edges: bool = True) -> str:
    """An isomorphic copy: vertex classes reordered, each rotation started at
    a random edge and, with ``permute_edges``, edge ids shuffled. The outer
    face stays the same."""
    doc = parse_graph_document(text)
    violet, emerald = list(doc.violet), list(doc.emerald)
    rng.shuffle(violet)
    rng.shuffle(emerald)
    perm = list(range(len(doc.edges)))  # old id -> new id
    if permute_edges:
        rng.shuffle(perm)
    edges = [None] * len(perm)
    for old, e in enumerate(doc.edges):
        edges[perm[old]] = e
    rotations = {}
    for v, cyc in doc.rotations.items():
        cyc = [perm[e] for e in cyc]
        k = rng.randrange(len(cyc))
        rotations[v] = cyc[k:] + cyc[:k]
    edge, side = doc.outer_face_hint
    return _document(violet, emerald, edges, rotations, perm[edge], side)


def small_document(rng: random.Random, n_edges: int, n_cycles: int) -> str:
    """A random connected plane bipartite document with ``n_edges`` edges and
    first Betti number ``n_cycles`` (< ``n_edges``).

    Start from one edge; each step either hangs a new vertex off a random
    corner or, ``n_cycles`` times in random order, joins two corners of one
    face whose vertices have different colours (every face has both, since
    its boundary alternates). Both keep the map plane and bipartite.
    """
    colour = [0, 1]  # 0 violet, 1 emerald
    edges = [(0, 1)]  # (violet end, emerald end)
    rot = [[0], [0]]  # CCW edge ids around each vertex
    steps = [True] * n_cycles + [False] * (n_edges - 1 - n_cycles)
    rng.shuffle(steps)
    for chord in steps:
        face = rng.choice(_face_corners(colour, edges, rot))
        e = len(edges)
        if chord:
            chords = [(a, b) for a in face for b in face if colour[a[0]] == 0 and colour[b[0]] == 1]
            (u, pu), (w, pw) = rng.choice(chords)
            edges.append((u, w))
            rot[u].insert(pu, e)
            rot[w].insert(pw, e)
        else:
            u, pu = rng.choice(face)
            w = len(colour)
            colour.append(1 - colour[u])
            edges.append((u, w) if colour[u] == 0 else (w, u))
            rot[u].insert(pu, e)
            rot.append([e])
    n = len(colour)
    order = list(range(n))
    rng.shuffle(order)
    vi = [v for v in order if colour[v] == 0]
    em = [v for v in order if colour[v] == 1]
    name = {v: f"v{k + 1}" for k, v in enumerate(vi)}
    name.update({v: f"e{k + 1}" for k, v in enumerate(em)})
    rotations = {}
    for v in range(n):
        k = rng.randrange(len(rot[v]))
        rotations[name[v]] = rot[v][k:] + rot[v][:k]
    outer_edge = rng.randrange(n_edges)
    outer_side = rng.choice(("violet", "emerald"))
    return _document(
        [name[v] for v in vi],
        [name[v] for v in em],
        [(name[u], name[w]) for u, w in edges],
        rotations,
        outer_edge,
        outer_side,
    )


def _face_corners(colour, edges, rot):
    """Faces as lists of corners (vertex, insertion index in its rotation).

    Dart 2e sits at the violet end of edge e and 2e+1 at the emerald end; the
    face left of dart d continues with the dart clockwise before the reverse
    of d at d's head, so a new edge inserted just after that dart in the
    head's rotation lies inside the face.
    """
    sigma_inv = {}
    for v, cyc in enumerate(rot):
        darts = [2 * e + colour[v] for e in cyc]
        for i, d in enumerate(darts):
            sigma_inv[darts[(i + 1) % len(darts)]] = (d, v, i)
    seen = set()
    faces = []
    for start in sorted(sigma_inv):
        if start in seen:
            continue
        face = []
        d = start
        while d not in seen:
            seen.add(d)
            nxt, head, i = sigma_inv[d ^ 1]
            face.append((head, i + 1))
            d = nxt
        faces.append(face)
    return faces
