"""Combinatorial maps (rotation systems) for graphs embedded in the sphere.

A map is stored dart-first: edge e owns darts 2e and 2e+1, alpha(d) = d XOR 1,
and sigma cycles the darts counter-clockwise around each vertex. Faces are the
cycles of next(d) = sigma^-1(alpha(d)), which traces the face to the LEFT of
each dart; bounded faces come out counter-clockwise in the plane picture.

Faces and vertex rotations are both read by ``orbits``, the one cycle walk of
the library, so they are canonical by construction: each cycle starts at its
smallest dart, and faces come in increasing order of that dart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps
from typing import Callable, Mapping, Sequence, TypeVar

T = TypeVar("T")


def derived(fn: Callable[..., T]) -> Callable[..., T]:
    """``fn(obj, *args)``, computed once per ``obj`` and positional ``args``
    and kept in the frozen ``obj``'s ``__dict__`` under ``fn`` itself; a build
    that raises keeps nothing. The value must be immutable and depend only on
    ``obj`` and ``args``; it lives and dies with ``obj``, and an equal object
    derives its own."""

    @wraps(fn)
    def derive(obj, *args):
        try:
            return obj.__dict__[fn][args]
        except KeyError:
            value = fn(obj, *args)
            obj.__dict__.setdefault(fn, {})[args] = value
            return value

    return derive


class MapError(ValueError):
    pass


class NotPlanarError(MapError):
    pass


class NotConnectedError(MapError):
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
    sigma_inverse: tuple[int, ...] = field(compare=False)

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
        return self.sigma_inverse[d]

    def darts_of_vertex(self, v: int) -> tuple[int, ...]:
        return self._vertex_darts()[v]

    @derived
    def _vertex_darts(self) -> tuple[tuple[int, ...], ...]:
        darts: list[tuple[int, ...]] = [()] * self.n_vertices
        for cycle in orbits(dict(enumerate(self.sigma))):
            darts[self.vertex_of[cycle[0]]] = cycle
        return tuple(darts)


def _inverse(perm: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for d, s in enumerate(perm):
        inv[s] = d
    return tuple(inv)


def orbits(step: Mapping[int, int]) -> tuple[tuple[int, ...], ...]:
    """The cycles of the permutation ``step`` (element -> next element), each
    from its smallest element, in increasing order of that element: a walk
    from the smallest unseen element cannot meet a smaller one."""
    seen: set[int] = set()
    cycles = []
    for x in sorted(step):
        cycle = []
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = step[x]
        if cycle:
            cycles.append(tuple(cycle))
    return tuple(cycles)


def build_map_from_darts(
    n_vertices: int,
    edges: Sequence[tuple[int, int]],
    vertex_rotations: Sequence[Sequence[int]],
) -> PlanarMap:
    """Assemble and validate a map, loops allowed, from per-vertex CCW dart cycles."""
    n_darts = 2 * len(edges)
    vertex_of = [-1] * n_darts
    for e, (u, v) in enumerate(edges):
        vertex_of[2 * e] = u
        vertex_of[2 * e + 1] = v
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
    sigma_inverse = _inverse(sigma)
    faces = orbits({d: sigma_inverse[d ^ 1] for d in range(n_darts)}) if n_darts else ((),)
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
        sigma_inverse=sigma_inverse,
    )


def build_map(
    n_vertices: int,
    edges: Sequence[tuple[int, int]],
    rotations: Sequence[Sequence[int]],
) -> PlanarMap:
    """Build a loopless map from per-vertex CCW cyclic lists of incident edge ids."""
    for u, v in edges:
        if u == v:
            raise MapError(f"loop at vertex {u} not allowed here")
    vertex_rotations = []
    for v, cycle in enumerate(rotations):
        for e in cycle:
            if not (0 <= e < len(edges)):
                raise MapError(f"unknown edge {e} in rotation of vertex {v}")
            if v not in edges[e]:
                raise MapError(f"edge {e} is not incident to vertex {v}")
        vertex_rotations.append([2 * e + (edges[e][1] == v) for e in cycle])
    return build_map_from_darts(n_vertices, edges, vertex_rotations)


def betti1(m: PlanarMap) -> int:
    return m.n_edges - m.n_vertices + 1
