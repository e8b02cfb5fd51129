"""Combinatorial maps (rotation systems) for graphs embedded in the sphere.

A map is stored dart-first: edge e owns darts 2e and 2e+1, alpha(d) = d XOR 1,
and sigma cycles the darts counter-clockwise around each vertex. Faces are the
orbits of next(d) = sigma^-1(alpha(d)), which traces the face to the LEFT of
each dart; bounded faces come out counter-clockwise in the plane picture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence, TypeVar

T = TypeVar("T")


def memo(obj: object, key: Hashable, build: Callable[[], T]) -> T:
    """``build()``, computed once per ``key`` and kept in the frozen ``obj``'s
    ``__dict__``. The value must be immutable and depend only on ``obj`` and
    ``key``; it lives and dies with ``obj``, and an equal object derives its own."""
    try:
        return obj.__dict__["_memo"][key]
    except KeyError:
        value = obj.__dict__.setdefault("_memo", {})[key] = build()
        return value


class MapError(ValueError):
    pass


class NotPlanarError(MapError):
    pass


class NotConnectedError(MapError):
    pass


class NotBipartiteError(MapError):
    pass


@dataclass(frozen=True)
class Bipartition:
    class_a: frozenset[int]
    class_b: frozenset[int]


@dataclass(frozen=True)
class PlanarMap:
    n_vertices: int
    edges: tuple[tuple[int, int], ...]  # edge id -> (endpoint of dart 2e, endpoint of dart 2e+1)
    sigma: tuple[int, ...]  # CCW next dart around the vertex
    vertex_of: tuple[int, ...]
    faces: tuple[tuple[int, ...], ...] = field(compare=False)
    face_of: tuple[int, ...] = field(compare=False)

    @property
    def n_darts(self) -> int:
        return 2 * len(self.edges)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def alpha(self, d: int) -> int:
        return d ^ 1

    def sigma_inv(self, d: int) -> int:
        return memo(self, "sigma_inv", lambda: _inverse(self.sigma))[d]

    def next_in_face(self, d: int) -> int:
        """Next dart along the face on the left of d."""
        return self.sigma_inv(self.alpha(d))

    def darts_of_vertex(self, v: int) -> tuple[int, ...]:
        return memo(self, "vertex_darts", self._vertex_darts)[v]

    def _vertex_darts(self) -> tuple[tuple[int, ...], ...]:
        buckets: dict[int, list[int]] = {u: [] for u in range(self.n_vertices)}
        seen = [False] * self.n_darts
        for d in range(self.n_darts):
            if not seen[d]:
                cur = d
                while not seen[cur]:
                    seen[cur] = True
                    buckets[self.vertex_of[cur]].append(cur)
                    cur = self.sigma[cur]
        return tuple(tuple(buckets[u]) for u in range(self.n_vertices))

    def degree(self, v: int) -> int:
        return len(self.darts_of_vertex(v))

    def head_of(self, d: int) -> int:
        return self.vertex_of[self.alpha(d)]


def _inverse(perm: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for d, s in enumerate(perm):
        inv[s] = d
    return tuple(inv)


def _face_orbits(sigma: Sequence[int], n_darts: int) -> tuple[tuple[int, ...], ...]:
    sigma_inv = _inverse(sigma)
    seen = [False] * n_darts
    faces = []
    for d in range(n_darts):
        if seen[d]:
            continue
        orbit = []
        cur = d
        while not seen[cur]:
            seen[cur] = True
            orbit.append(cur)
            cur = sigma_inv[cur ^ 1]
        faces.append(tuple(orbit))
    return tuple(faces)


def build_map_from_darts(
    n_vertices: int,
    edges: Sequence[tuple[int, int]],
    vertex_rotations: Sequence[Sequence[int]],
    allow_loops: bool = False,
) -> PlanarMap:
    """Assemble and validate a map from per-vertex CCW dart cycles."""
    n_darts = 2 * len(edges)
    vertex_of = [-1] * n_darts
    for e, (u, v) in enumerate(edges):
        vertex_of[2 * e] = u
        vertex_of[2 * e + 1] = v
        if u == v and not allow_loops:
            raise MapError(f"loop at vertex {u} not allowed here")
    sigma = [-1] * n_darts
    used = [False] * n_darts
    if len(vertex_rotations) != n_vertices:
        raise MapError("rotations must cover every vertex")
    for v, cycle in enumerate(vertex_rotations):
        for d in cycle:
            if not (0 <= d < n_darts) or vertex_of[d] != v or used[d]:
                raise MapError(f"rotation at vertex {v} does not list its incident darts exactly once")
            used[d] = True
        for i, d in enumerate(cycle):
            sigma[d] = cycle[(i + 1) % len(cycle)]
    if not all(used) and n_darts > 0:
        raise MapError("rotations do not cover all darts")
    # Connectivity over the dart groupoid.
    if n_darts == 0:
        if n_vertices != 1:
            raise NotConnectedError("empty graph must be a single vertex")
    else:
        seen = {0}
        stack = [0]
        while stack:
            d = stack.pop()
            for nd in (d ^ 1, sigma[d]):
                if nd not in seen:
                    seen.add(nd)
                    stack.append(nd)
        if len(seen) != n_darts:
            raise NotConnectedError("graph is not connected")
        if len({vertex_of[d] for d in seen}) != n_vertices:
            raise NotConnectedError("isolated vertex present")
    faces = _face_orbits(sigma, n_darts) if n_darts else ((),)
    # Canonical face order: by smallest dart id; rotate each orbit to start at it.
    faces = tuple(
        sorted(
            (tuple(orbit[orbit.index(min(orbit)) :] + orbit[: orbit.index(min(orbit))]) for orbit in faces),
            key=lambda o: o[0] if o else -1,
        )
    )
    if n_vertices - len(edges) + len(faces) != 2:
        raise NotPlanarError(
            f"Euler check failed: V-E+F = {n_vertices}-{len(edges)}+{len(faces)} != 2 (genus > 0)"
        )
    face_of = [-1] * n_darts
    for i, orbit in enumerate(faces):
        for d in orbit:
            face_of[d] = i
    return PlanarMap(
        n_vertices=n_vertices,
        edges=tuple((int(u), int(v)) for u, v in edges),
        sigma=tuple(sigma),
        vertex_of=tuple(vertex_of),
        faces=faces,
        face_of=tuple(face_of),
    )


def build_map(
    n_vertices: int,
    edges: Sequence[tuple[int, int]],
    rotations: Sequence[Sequence[int]],
    allow_loops: bool = False,
) -> PlanarMap:
    """Build a map from per-vertex CCW cyclic lists of incident edge ids.

    For a loop the edge id appears twice in its vertex's rotation; occurrences
    are assigned to the two darts in list order.
    """
    darts_left: dict[int, list[int]] = {}
    for e, (u, v) in enumerate(edges):
        darts_left[e] = [2 * e, 2 * e + 1]
    vertex_rotations = []
    for v, cycle in enumerate(rotations):
        dart_cycle = []
        for e in cycle:
            if not (0 <= e < len(edges)):
                raise MapError(f"unknown edge {e} in rotation of vertex {v}")
            candidates = [d for d in darts_left[e] if (edges[e][0] if d % 2 == 0 else edges[e][1]) == v]
            if not candidates:
                raise MapError(f"edge {e} is not (or no longer) incident to vertex {v}")
            d = candidates[0]
            darts_left[e].remove(d)
            dart_cycle.append(d)
        vertex_rotations.append(dart_cycle)
    if any(darts_left[e] for e in darts_left):
        raise MapError("rotations do not cover every edge-end")
    return build_map_from_darts(n_vertices, edges, vertex_rotations, allow_loops=allow_loops)


def faces(m: PlanarMap) -> tuple[tuple[int, ...], ...]:
    return m.faces


def planar_dual(m: PlanarMap) -> PlanarMap:
    """Dual map: one vertex per face, same darts, rotation = face traversal.

    Edge ids are preserved, so dual edge e crosses primal edge e.
    """
    edges = tuple((m.face_of[2 * e], m.face_of[2 * e + 1]) for e in range(m.n_edges))
    vertex_rotations = [list(orbit) for orbit in m.faces]
    return build_map_from_darts(m.n_faces, edges, vertex_rotations, allow_loops=True)


def bipartition(m: PlanarMap) -> Bipartition:
    colour = [-1] * m.n_vertices
    colour[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for d in m.darts_of_vertex(u):
            w = m.head_of(d)
            if colour[w] == -1:
                colour[w] = 1 - colour[u]
                stack.append(w)
            elif colour[w] == colour[u]:
                raise NotBipartiteError("graph contains an odd cycle")
    return Bipartition(
        class_a=frozenset(v for v in range(m.n_vertices) if colour[v] == 0),
        class_b=frozenset(v for v in range(m.n_vertices) if colour[v] == 1),
    )


def betti1(m: PlanarMap) -> int:
    return m.n_edges - m.n_vertices + 1


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
