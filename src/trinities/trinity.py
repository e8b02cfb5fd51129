"""Trinities: three-coloured triangulations of the sphere built from a plane
bipartite graph, with their colour graphs, balanced directed duals and their
arborescences, adjacency matrix and the count of its Tutte matchings.

A triangle is its dart: the triangle of dart d is the one immediately to the
left of d, and ``Trinity.corner``, the one corner rule, reads its corners off
the map: d's violet end, its emerald end and its left face. It is white
exactly when d is based at a violet vertex — in the counter-clockwise plane
picture the white triangle of an edge lies left of the violet-to-emerald
direction.

Edge i of every colour graph is the i-th white triangle, joining its corners
of the other two colours: ``incidence`` reads a selector's ends off those
corners with no colour graph, and a map's rotations are the cyclic orders of
the white triangles around its vertices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .linalg import integer_det
from .maps import Bipartition, MapError, PlanarMap, build_map, derived

VIOLET = "violet"
EMERALD = "emerald"
RED = "red"
COLOURS = (VIOLET, EMERALD, RED)

HYPERGRAPH_CODES = ("VE", "EV", "ER", "RE", "RV", "VR")
_CODE_TO_COLOUR = {"V": VIOLET, "E": EMERALD, "R": RED}

# Each colour graph's selector whose hyperedges are its class b: the letters
# name its vertex classes in (class_a, class_b) order.
COLOUR_SELECTORS = {RED: "VE", VIOLET: "ER", EMERALD: "RV"}


class InternalConsistencyError(RuntimeError):
    """An identity the construction guarantees failed — an implementation bug."""


@dataclass(frozen=True)
class DirectedDual:
    colour: str
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]  # (tail, head), oriented black -> white; edge i crosses white triangle i


@dataclass(frozen=True)
class Trinity:
    map: PlanarMap
    violet: frozenset[int]
    emerald: frozenset[int]
    outer_face: int
    root_triangle: int  # a white triangle id (dart)

    def corner(self, d: int, colour: str) -> int:
        """The corner of the colour of dart d's triangle: for red its left
        face, else the end of d's edge in the colour's class."""
        m = self.map
        if colour == RED:
            return m.face_of[d]
        v = m.vertex_of[d]
        return v if v in (self.violet if colour == VIOLET else self.emerald) else m.vertex_of[d ^ 1]

    @property
    @derived
    def white_triangles(self) -> tuple[int, ...]:
        """The darts based at a violet vertex, one per edge, in edge order,
        derived once per trinity."""
        m = self.map
        return tuple(d for d in range(m.n_darts) if m.vertex_of[d] in self.violet)

    def vertices_of_colour(self, colour: str) -> tuple[int, ...]:
        if colour == VIOLET:
            return tuple(sorted(self.violet))
        if colour == EMERALD:
            return tuple(sorted(self.emerald))
        return tuple(range(self.map.n_faces))


def build_trinity(
    m: PlanarMap,
    bip: Bipartition,
    outer_face: int = 0,
    root_triangle: Optional[int] = None,
) -> Trinity:
    """The trinity of the plane map whose violet vertices are class_a and
    emerald ones class_b: the triangle of dart d is white iff d is based at a
    violet vertex. Each edge must join a vertex of class_a only to one of
    class_b only (else ``MapError``), so its dart at the emerald end is
    black. With next(d) = sigma^-1(alpha(d)) on d's face, the partner of a
    white w across its side of each colour, ``_black_partner_across``, is
    such a dart and shares the side's two corners by the map axioms alone:
    - red: alpha(w), the other dart of w's edge, has the same two ends;
    - violet: sigma^-1(alpha(w)) = next(w) is on w's face, at w's emerald end;
    - emerald: alpha(sigma(w)) is on w's face, as its next is w, and its
      head is w's violet vertex.
    The default root is the smallest white triangle whose red corner is the
    outer face, found on the map, as an explicit root is checked there.
    """
    if not (0 <= outer_face < m.n_faces):
        raise MapError(f"outer face {outer_face} out of range")
    for e, ends in enumerate(m.edges):
        if sorted((v in bip.class_a, v in bip.class_b) for v in ends) != [(False, True), (True, False)]:
            raise MapError(f"edge {e} does not join class_a to class_b")
    if root_triangle is None:
        outer_whites = [d for d in m.faces[outer_face] if m.vertex_of[d] in bip.class_a]
        if not outer_whites:
            raise InternalConsistencyError("outer face meets no white triangle")
        root_triangle = min(outer_whites)
    elif not (0 <= root_triangle < m.n_darts and m.vertex_of[root_triangle] in bip.class_a):
        raise MapError(f"root triangle {root_triangle} is not a white triangle")
    return Trinity(m, frozenset(bip.class_a), frozenset(bip.class_b), outer_face, root_triangle)


def _black_partner_across(t: Trinity, w: int, colour: str) -> int:
    """The black triangle sharing the colour-c edge of the white triangle w
    (see ``build_trinity``)."""
    m = t.map
    if colour == RED:
        return m.alpha(w)
    if colour == VIOLET:
        return m.sigma_inv(m.alpha(w))
    return m.alpha(m.sigma[w])


@derived
def colour_graph(t: Trinity, colour: str) -> tuple[PlanarMap, Bipartition]:
    """The colour-c subgraph of the trinity as an embedded map, built once per
    trinity and colour.

    Edge i is the white triangle of input edge i. For red the map IS the
    input map; for violet and emerald the vertices are the positions of
    ``incidence(t, COLOUR_SELECTORS[colour])``, class_a (X) then class_b (Y).
    The faces are the colour's own vertices, and the directed dual is the
    oriented planar dual: its edge i crosses edge i from right to left, seen
    from the class_a end (Kalman-Postnikov, *Root polytopes, Tutte
    polynomials, and a duality theorem for bipartite graphs*, 2017).
    """
    if colour == RED:
        return t.map, Bipartition(class_a=t.violet, class_b=t.emerald)
    code = COLOUR_SELECTORS[colour]
    ends, n_y, n_x = incidence(t, code)
    # Each input edge has one white dart, at its violet end: white triangle w is edge w // 2.
    rotations = [
        [w // 2 for w in _whites_around(t, c, v)] for c in hypergraph_classes(code) for v in t.vertices_of_colour(c)
    ]
    cm = build_map(n_x + n_y, [(x, n_x + y) for y, x in ends], rotations)
    return cm, Bipartition(class_a=frozenset(range(n_x)), class_b=frozenset(range(n_x, n_x + n_y)))


def _whites_around(t: Trinity, colour: str, v: int) -> Sequence[int]:
    """The white triangles at the colour-c vertex v in counter-clockwise order:
    at a violet vertex the triangles of its darts, at an emerald vertex those
    of alpha of its darts, and at a red vertex, a face, the white darts of the
    face orbit."""
    m = t.map
    if colour == VIOLET:
        return m.darts_of_vertex(v)
    if colour == EMERALD:
        return [m.alpha(d) for d in m.darts_of_vertex(v)]
    return [d for d in m.faces[v] if m.vertex_of[d] in t.violet]


@derived
def incidence(t: Trinity, code: str) -> tuple[tuple[tuple[int, int], ...], int, int]:
    """Each white triangle's (Y position, X position), in white-triangle
    order, with |Y| and |X|, once per trinity and selector: its Y and X
    corners as positions in ``vertices_of_colour``. Edge i of the colour graph
    ``colour_of_hypergraph(code)`` has these ends; the selector's hyperedges,
    root polytope and trees' hypertrees all read them."""
    x_colour, y_colour = hypergraph_classes(code)
    x_pos = {v: i for i, v in enumerate(t.vertices_of_colour(x_colour))}
    y_pos = {v: i for i, v in enumerate(t.vertices_of_colour(y_colour))}
    ends = tuple((y_pos[t.corner(w, y_colour)], x_pos[t.corner(w, x_colour)]) for w in t.white_triangles)
    return ends, len(y_pos), len(x_pos)


@derived
def directed_dual(t: Trinity, colour: str) -> DirectedDual:
    """The balanced directed dual of the colour graph, built once per trinity
    and colour."""
    edges = tuple(
        (t.corner(_black_partner_across(t, w, colour), colour), t.corner(w, colour)) for w in t.white_triangles
    )
    dd = DirectedDual(colour=colour, vertices=t.vertices_of_colour(colour), edges=edges)
    _check_balanced(dd)
    return dd


def _check_balanced(dd: DirectedDual) -> None:
    indeg: Counter = Counter()
    outdeg: Counter = Counter()
    for tail, head in dd.edges:
        outdeg[tail] += 1
        indeg[head] += 1
    for v in dd.vertices:
        if indeg[v] != outdeg[v]:
            raise InternalConsistencyError(f"directed dual not balanced at vertex {v}")


def count_arborescences(dd: DirectedDual, root: int) -> int:
    """Spanning out-arborescences rooted at ``root`` (every edge points away
    from the root), by the directed matrix-tree theorem."""
    idx = {v: i for i, v in enumerate(dd.vertices)}
    n = len(idx)
    lap = [[0] * n for _ in range(n)]
    for tail, head in dd.edges:
        if tail != head:
            lap[idx[head]][idx[head]] += 1
            lap[idx[head]][idx[tail]] -= 1
    r = idx[root]
    minor = [[lap[i][j] for j in range(n) if j != r] for i in range(n) if i != r]
    value = integer_det(minor)
    if value < 0:
        raise InternalConsistencyError("arborescence count is negative")
    return value


def enumerate_arborescences(dd: DirectedDual, root: int) -> tuple[tuple[int, ...], ...]:
    """All spanning out-arborescences as sorted tuples of edge indices, in
    sorted order. One walk (after Gabow and Myers, *Finding all spanning trees
    of directed and undirected graphs*, 1978) lets each non-root vertex in turn
    take an in-edge whose tail's chain of chosen parents does not lead back
    to it; every chain then ends at the root or at a vertex yet to choose, so
    the complete choices are exactly the arborescences."""
    order = [v for v in dd.vertices if v != root]
    if not order:
        return ((),)
    incoming: dict[int, list[tuple[int, int]]] = {v: [] for v in dd.vertices}
    for i, (tail, head) in enumerate(dd.edges):
        if tail != head:
            incoming[head].append((i, tail))
    parent: dict[int, tuple[int, int]] = {}  # each vertex that has chosen -> its in-edge and tail
    found = []
    options = [iter(incoming[order[0]])]  # the in-edges left to try, per vertex of order so far
    while options:
        v = order[len(options) - 1]
        parent.pop(v, None)  # undo v's last choice
        for i, tail in options[-1]:
            u = tail
            while u in parent:
                u = parent[u][1]
            if u != v:
                break
        else:
            options.pop()
            continue
        parent[v] = i, tail
        if len(parent) == len(order):
            found.append(tuple(sorted(e for e, _ in parent.values())))
        else:
            options.append(iter(incoming[order[len(options)]]))
    return tuple(sorted(found))


def non_root_vertices(t: Trinity) -> tuple[tuple[str, int], ...]:
    """Every (colour, vertex) of the trinity but the root triangle's three
    corners, colour by colour."""
    return tuple((c, v) for c in COLOURS for v in t.vertices_of_colour(c) if v != default_root(t, c))


def non_root_white_triangles(t: Trinity) -> tuple[int, ...]:
    return tuple(w for w in t.white_triangles if w != t.root_triangle)


@derived
def adjacency_matrix(t: Trinity) -> tuple[tuple[int, ...], ...]:
    """The 0/1 entries of the matrix of ``non_root_vertices`` (rows) against
    ``non_root_white_triangles`` (columns), built once per trinity: the
    determinant and the matching count share it. Row (c, v) has a 1 in
    column w iff v is w's corner of colour c."""
    cols = non_root_white_triangles(t)
    return tuple(tuple(int(t.corner(w, c) == v) for w in cols) for c, v in non_root_vertices(t))


def count_tutte_matchings(t: Trinity) -> int:
    """The number of Tutte matchings: bijections from the non-root vertices to
    adjacent non-root white triangles, i.e. the permutations supported on the
    1-entries of the adjacency matrix, counted without listing them.

    A frontier dynamic program. The rows are swept greedily: next comes the
    row whose options open the fewest columns not yet seen (ties to the lower
    index). A state is the set of frontier columns already used, as a bitmask,
    with the number of partial matchings that reach it. Each row takes one
    unused option. A column closes after the last row that can take it: a
    state that leaves it unused can never become a bijection and is dropped,
    and a used one is forgotten, so the frontier holds only columns some later
    row can still take. The count is that of the empty mask at the end.

    Only the 0/1 pattern is read, never a determinant, so this route stays
    independent of ``round_det``.
    """
    entries = adjacency_matrix(t)
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise InternalConsistencyError("the Tutte adjacency matrix is not square")
    options = [[j for j, x in enumerate(row) if x] for row in entries]
    order: list[int] = []
    seen: set[int] = set()
    pending = set(range(n))
    while pending:
        i = min(pending, key=lambda r: (len(set(options[r]) - seen), r))
        pending.remove(i)
        order.append(i)
        seen.update(options[i])
    last = {j: step for step, i in enumerate(order) for j in options[i]}
    closing = [0] * n  # step -> bitmask of the columns no later row can take
    for j, step in last.items():
        closing[step] |= 1 << j
    states = {0: 1}
    for step, i in enumerate(order):
        done = closing[step]
        nxt: dict[int, int] = {}
        for used, count in states.items():
            for j in options[i]:
                new = used | 1 << j
                if new != used and new & done == done:
                    key = new & ~done
                    nxt[key] = nxt.get(key, 0) + count
        states = nxt
    return states.get(0, 0)


def hypergraph_classes(code: str) -> tuple[str, str]:
    if code not in HYPERGRAPH_CODES:
        raise ValueError(f"unknown hypergraph selector {code!r}; expected one of {HYPERGRAPH_CODES}")
    return _CODE_TO_COLOUR[code[0]], _CODE_TO_COLOUR[code[1]]


def colour_of_hypergraph(code: str) -> str:
    """The colour graph whose classes realize the hypergraph (X,Y)."""
    x, y = hypergraph_classes(code)
    (missing,) = [c for c in COLOURS if c not in (x, y)]
    return missing


def default_root(t: Trinity, colour: str) -> int:
    """The root triangle's corner of the colour."""
    return t.corner(t.root_triangle, colour)


def magic_number_report(t: Trinity) -> dict:
    from . import polytopes

    det_route = abs(round_det(t))
    matchings = count_tutte_matchings(t)
    rho = {c: count_arborescences(directed_dual(t, c), default_root(t, c)) for c in COLOURS}
    hyper = {code: len(polytopes.hypertree_set(t, code)) for code in HYPERGRAPH_CODES}
    values = [det_route, matchings, *rho.values(), *hyper.values()]
    return {
        "det": det_route,
        "tutte_matchings": matchings,
        "arborescences": {c: rho[c] for c in COLOURS},
        "hypertree_counts": hyper,
        "all_equal": len(set(values)) == 1,
        "magic_number": values[0] if len(set(values)) == 1 else None,
    }


def round_det(t: Trinity) -> int:
    return integer_det(adjacency_matrix(t))
